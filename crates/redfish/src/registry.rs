//! The in-memory Redfish resource tree.
//!
//! "An HPC disaggregated infrastructure is represented under a single
//! Redfish tree that includes all the fabrics and resources available."
//! (§III-A). The [`Registry`] is that tree: a concurrent, path-keyed store of
//! JSON resource documents with ETag versioning, Redfish collection
//! semantics, merge-PATCH and link-integrity checking.
//!
//! # Concurrency model
//!
//! The tree is **lock-striped by subtree**: every resource hashes to a shard
//! by its top-level collection segment (`Systems`, `Chassis`, `Fabrics`,
//! `StorageServices`, `TaskService`, …), each shard guarded by its own
//! `parking_lot::RwLock` over an ordered map. An agent mounting or tearing
//! down its fabric subtree therefore never blocks readers of other subtrees.
//! Because a resource and all of its descendants share the same top-level
//! segment, subtree scans (delete-subtree, `ids_under`) stay single-shard;
//! only the handful of root documents (`/redfish/v1` itself) span shards.
//!
//! Cross-shard operations — linking a new resource into a parent collection
//! that lives in another shard, link-integrity sweeps, whole-tree iteration
//! — acquire the shards they need in ascending shard-index order, which
//! keeps the registry deadlock-free and every operation linearizable (all
//! locks are held for the full critical section).
//!
//! # ETags and the wire-body cache
//!
//! ETags are allocated from a single registry-wide monotonic counter, so a
//! `(resource id, ETag)` pair uniquely identifies one immutable document
//! state — even across delete/recreate cycles. That uniqueness is what makes
//! the **wire-body cache** safe: the serialized bytes of `wire_body()` are
//! memoized per resource keyed by ETag, and a cached entry is served only
//! when its ETag equals the ETag read under the shard lock. Hot GETs
//! (service root, collections, telemetry consumers) skip the deep clone and
//! re-serialization entirely; any mutation allocates a new ETag and thereby
//! invalidates the stale bytes.

use crate::error::{RedfishError, RedfishResult};
use crate::odata::{ETag, ODataId};
use crate::patch::{first_read_only_violation, merge_patch};
use crate::path::{fnv1a, top_segment, valid_member_id};
use ofmf_wal::{Wal, WalRecord};
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use serde_json::{json, Map, Value};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of lock stripes. Top-level Redfish collections are few (a dozen
/// or so), so 16 stripes keep collisions rare without bloating the lock
/// table.
const STRIPES: usize = 16;

/// Per-shard cap on cached wire bodies. When full, the shard's cache is
/// flushed wholesale (epoch-style) — simple, bounded, and hot entries are
/// re-admitted on the next read.
const WIRE_CACHE_CAP: usize = 4096;

/// A resource document plus its registry metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredResource {
    /// The JSON document, including `@odata.*` members.
    pub body: Value,
    /// Current version tag; a fresh registry-unique value on every mutation.
    pub etag: ETag,
    /// Whether the resource is a Redfish collection (maintains `Members`).
    pub is_collection: bool,
}

impl StoredResource {
    /// The `@odata.type` member, if present.
    pub fn odata_type(&self) -> Option<&str> {
        self.body.get("@odata.type").and_then(Value::as_str)
    }

    /// Body with the `@odata.etag` member refreshed to the current version.
    pub fn wire_body(&self) -> Value {
        let mut b = self.body.clone();
        if let Some(obj) = b.as_object_mut() {
            obj.insert("@odata.etag".to_string(), Value::String(self.etag.to_header()));
        }
        b
    }

    /// Add (`link`) or remove `id` in `Members` and refresh the count.
    /// False, touching nothing, when the body holds no `Members` array.
    fn set_member(&mut self, id: &ODataId, link: bool) -> bool {
        let Some(members) = self.body.get_mut("Members").and_then(Value::as_array_mut) else {
            return false;
        };
        if link {
            members.push(json!({"@odata.id": id.as_str()}));
        } else {
            members.retain(|m| m["@odata.id"].as_str() != Some(id.as_str()));
        }
        let count = members.len();
        self.body["Members@odata.count"] = json!(count);
        true
    }
}

#[derive(Debug, Default)]
struct Tree {
    nodes: BTreeMap<ODataId, StoredResource>,
}

impl Tree {
    /// Range bounds covering exactly the strict descendants of `id`:
    /// every descendant path starts with `{id}/`, and `'0'` is the
    /// successor byte of `'/'`, so `[{id}/, {id}0)` is tight. (A plain
    /// `take_while(is_under)` scan from `id` would stop early at sibling
    /// keys like `{id}-x` or `{id}.y`, which sort between `id` and `{id}/`.)
    fn descendants(&self, id: &ODataId) -> impl Iterator<Item = (&ODataId, &StoredResource)> {
        let lo = crate::odata::ODataId::raw(format!("{}/", id.as_str()));
        let hi = crate::odata::ODataId::raw(format!("{}0", id.as_str()));
        self.nodes.range(lo..hi)
    }

    fn has_descendants(&self, id: &ODataId) -> bool {
        self.descendants(id).next().is_some()
    }
}

/// Cached wire entry: (etag value, serialized wire body).
type WireEntry = (u64, Arc<[u8]>);

/// One lock stripe: a slice of the tree plus its serialized-body cache.
#[derive(Debug, Default)]
struct Shard {
    tree: RwLock<Tree>,
    /// resource id → cached wire entry. Entries are only served when the
    /// etag matches the live one; stale entries are overwritten on the
    /// next cache fill or dropped on delete.
    wire: RwLock<HashMap<ODataId, WireEntry>>,
}

/// Stripe index of a resource: FNV-1a of its top-level segment, so a
/// subtree always shares one shard. Always `< STRIPES`.
fn stripe_of(id: &ODataId) -> usize {
    (fnv1a(top_segment(id.as_str()).as_bytes()) as usize) % STRIPES
}

/// True if descendants of `id` may live in *any* shard (only the root
/// documents above the top-level collections qualify).
fn spans_all_shards(id: &ODataId) -> bool {
    top_segment(id.as_str()).is_empty()
}

/// The concurrent Redfish resource tree.
///
/// All operations are linearizable; mutations give the target a fresh
/// registry-unique ETag and, for membership changes, the parent collection
/// as well.
#[derive(Debug)]
pub struct Registry {
    shards: [Shard; STRIPES],
    /// Next ETag value; registry-unique and monotonically increasing.
    etag_seq: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    /// Optional write-ahead journal. Mutations append their logical record
    /// while still holding the stripe write lock, so the journal preserves
    /// per-stripe mutation order. Lock order: stripe → journal → WAL file
    /// mutex (the WAL mutex is a leaf).
    journal: RwLock<Option<Arc<Wal>>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry (no service root; see `ofmf-core` for bootstrap).
    pub fn new() -> Self {
        Registry {
            shards: Default::default(),
            etag_seq: AtomicU64::new(1),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            journal: RwLock::new(None),
        }
    }

    /// Attach (or detach) the write-ahead journal. Attach *after* replay:
    /// replayed mutations go through the raw install paths and are never
    /// re-journaled.
    pub fn set_journal(&self, wal: Option<Arc<Wal>>) {
        *self.journal.write() = wal;
    }

    /// Append a record to the attached journal, if any. Called with the
    /// relevant stripe write lock held so the journal observes mutations
    /// to one stripe in their true order.
    fn journal_record(&self, rec: &WalRecord) {
        if let Some(w) = self.journal.read().as_ref() {
            w.record(rec);
        }
    }

    /// `(hits, misses)` of the wire-body cache since boot.
    pub fn wire_cache_stats(&self) -> (u64, u64) {
        (
            // ofmf-lint: allow(atomic-ordering-audit, "statistics counter; no cross-thread handoff depends on it")
            self.cache_hits.load(Ordering::Relaxed),
            // ofmf-lint: allow(atomic-ordering-audit, "statistics counter; no cross-thread handoff depends on it")
            self.cache_misses.load(Ordering::Relaxed),
        )
    }

    /// The shard holding `id`. Total without a bounds escape: the array is
    /// never empty and `stripe_of` is always in range, so the fallback is
    /// unreachable.
    fn shard(&self, id: &ODataId) -> &Shard {
        let [first, ..] = &self.shards;
        self.shards.get(stripe_of(id)).unwrap_or(first)
    }

    fn next_etag(&self) -> ETag {
        ETag(self.etag_seq.fetch_add(1, Ordering::Relaxed))
    }

    /// Write-lock the given shard indices in ascending order (deadlock-free
    /// against every other multi-shard acquisition, which also ascends).
    fn write_span(&self, mut idx: Vec<usize>) -> WriteSpan<'_> {
        idx.sort_unstable();
        idx.dedup();
        WriteSpan {
            guards: idx
                .into_iter()
                // ofmf-lint: allow(lock-discipline, "idx is sorted ascending above; every multi-shard span ascends")
                .filter_map(|i| Some((i, self.shards.get(i)?.tree.write())))
                .collect(),
        }
    }

    /// Write-lock what a structural change at `id` touches: its own shard
    /// plus its parent's, or every shard when `id` is a root document whose
    /// subtree spans them all.
    fn write_around(&self, id: &ODataId) -> WriteSpan<'_> {
        if spans_all_shards(id) {
            return self.write_span((0..STRIPES).collect());
        }
        let mut idx = vec![stripe_of(id)];
        idx.extend(id.parent().map(|p| stripe_of(&p)));
        self.write_span(idx)
    }

    /// Read-lock every shard in ascending order: a consistent snapshot for
    /// whole-tree reads (link sweeps, iteration).
    fn read_all(&self) -> Vec<RwLockReadGuard<'_, Tree>> {
        self.shards.iter().map(|s| s.tree.read()).collect() // ofmf-lint: allow(lock-discipline, "shards are visited in ascending index order on every multi-shard path")
    }

    /// Drop the cached wire body of `id` (after delete; mutations in place
    /// are already invalidated by the ETag bump, but dropping keeps the
    /// cache tight).
    fn uncache(&self, id: &ODataId) {
        self.shard(id).wire.write().remove(id);
    }

    /// Number of resources currently stored.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.tree.read().nodes.len()).sum() // ofmf-lint: allow(lock-discipline, "shards are visited in ascending index order on every multi-shard path")
    }

    /// True if no resources are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert a non-collection resource at `id`.
    ///
    /// The body's `@odata.id` member is forced to `id`. Fails with
    /// `AlreadyExists` if the path is taken. If the parent is a collection,
    /// the new resource is appended to its `Members`.
    pub fn create(&self, id: &ODataId, mut body: Value) -> RedfishResult<ETag> {
        if !body.is_object() {
            return Err(RedfishError::BadRequest("resource body must be a JSON object".into()));
        }
        if !valid_member_id(id.leaf()) {
            return Err(RedfishError::BadRequest(format!("invalid member id '{}'", id.leaf())));
        }
        body.as_object_mut()
            // ofmf-lint: allow(no-panic-path, "is_object was checked at the top of the function")
            .expect("checked object")
            .insert("@odata.id".to_string(), Value::String(id.as_str().to_string()));
        self.insert_new(id, body, false)
    }

    /// Insert a Redfish collection resource at `id`.
    ///
    /// A collection maintains `Members` / `Members@odata.count` members that
    /// the registry keeps consistent as children are created and deleted.
    pub fn create_collection(&self, id: &ODataId, odata_type: &str, name: &str) -> RedfishResult<ETag> {
        let body = json!({
            "@odata.id": id.as_str(),
            "@odata.type": odata_type,
            "Name": name,
            "Members": [],
            "Members@odata.count": 0,
        });
        self.insert_new(id, body, true)
    }

    fn insert_new(&self, id: &ODataId, body: Value, is_collection: bool) -> RedfishResult<ETag> {
        let me = stripe_of(id);
        let mut span = self.write_around(id);
        if span.tree(me).nodes.contains_key(id) {
            return Err(RedfishError::AlreadyExists(id.clone()));
        }
        let etag = self.next_etag();
        span.tree(me).nodes.insert(
            id.clone(),
            StoredResource {
                body,
                etag,
                is_collection,
            },
        );
        let parent_etag = self.relink_parent(&mut span, id, true);
        if self.journal.read().is_some() {
            if let Some(node) = span.tree(me).nodes.get(id) {
                self.journal_record(&WalRecord::Create {
                    id: id.as_str().to_string(),
                    body: node.body.clone(),
                    etag: etag.0,
                    is_collection,
                    parent_etag: parent_etag.map(|e| e.0),
                });
            }
        }
        Ok(etag)
    }

    /// Link `id` into (`link`) or out of its parent's `Members`, when the
    /// parent is a collection. Returns the parent's freshly allocated ETag,
    /// if one was bumped.
    fn relink_parent(&self, span: &mut WriteSpan<'_>, id: &ODataId, link: bool) -> Option<ETag> {
        let parent = id.parent()?;
        let p = span.tree(stripe_of(&parent)).nodes.get_mut(&parent)?;
        if !(p.is_collection && p.set_member(id, link)) {
            return None;
        }
        p.etag = self.next_etag();
        Some(p.etag)
    }

    /// Fetch a resource (clone of its stored form).
    pub fn get(&self, id: &ODataId) -> RedfishResult<StoredResource> {
        self.shard(id)
            .tree
            .read()
            .nodes
            .get(id)
            .cloned()
            .ok_or_else(|| RedfishError::NotFound(id.clone()))
    }

    /// Run `f` over the resource at `id` under its shard's read lock, without
    /// cloning it — for callers that look at a member or two. `f` must be
    /// fast and must not reenter the registry.
    pub fn read<R>(&self, id: &ODataId, f: impl FnOnce(&StoredResource) -> R) -> RedfishResult<R> {
        let t = self.shard(id).tree.read();
        t.nodes.get(id).map(f).ok_or_else(|| RedfishError::NotFound(id.clone()))
    }

    /// The serialized wire body of `id` (the bytes a GET returns) plus its
    /// current ETag, served from the per-shard cache when the cached ETag
    /// matches the live one. ETags are registry-unique, so a cached entry
    /// can never alias a different document state — not even across a
    /// delete/recreate of the same path.
    pub fn wire_bytes(&self, id: &ODataId) -> RedfishResult<(Arc<[u8]>, ETag)> {
        let shard = self.shard(id);
        let t = shard.tree.read();
        let node = t.nodes.get(id).ok_or_else(|| RedfishError::NotFound(id.clone()))?;
        let etag = node.etag;
        if let Some((v, cached)) = shard.wire.read().get(id) {
            if *v == etag.0 {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                return Ok((Arc::clone(cached), etag));
            }
        }
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        let bytes: Arc<[u8]> = serde_json::to_vec(&node.wire_body())
            .map_err(|e| RedfishError::Internal(format!("serialize {id}: {e}")))?
            .into();
        // Inserted while still holding the tree read lock: delete and
        // delete_subtree take the tree write lock before they uncache(),
        // so they cannot interleave between the existence check above
        // and this insert — the cache never accumulates entries for
        // deleted ids. Lock order (tree before wire) matches the hit
        // path above; no path acquires the tree lock while holding the
        // wire lock.
        let mut wire = shard.wire.write();
        if wire.len() >= WIRE_CACHE_CAP && !wire.contains_key(id) {
            wire.clear();
        }
        wire.insert(id.clone(), (etag.0, Arc::clone(&bytes)));
        Ok((bytes, etag))
    }

    /// True if a resource exists at `id`.
    pub fn exists(&self, id: &ODataId) -> bool {
        self.shard(id).tree.read().nodes.contains_key(id)
    }

    /// Apply an RFC 7386 merge patch to the resource at `id`.
    ///
    /// * Rejects patches touching read-only members (`Id`, `@odata.*`, …).
    /// * If `if_match` is supplied, the patch only applies when it equals
    ///   the current ETag (412 otherwise).
    /// * Returns the new ETag.
    pub fn patch(&self, id: &ODataId, patch: &Value, if_match: Option<ETag>) -> RedfishResult<ETag> {
        if !patch.is_object() {
            return Err(RedfishError::BadRequest("patch body must be a JSON object".into()));
        }
        if let Some(m) = first_read_only_violation(patch) {
            return Err(RedfishError::BadRequest(format!("member '{m}' is read-only")));
        }
        let mut t = self.shard(id).tree.write();
        let node = t.nodes.get_mut(id).ok_or_else(|| RedfishError::NotFound(id.clone()))?;
        if let Some(tag) = if_match {
            if tag != node.etag {
                return Err(RedfishError::PreconditionFailed {
                    id: id.clone(),
                    supplied: tag.to_header(),
                });
            }
        }
        merge_patch(&mut node.body, patch);
        node.etag = self.next_etag();
        self.journal_record(&WalRecord::Patch {
            id: id.as_str().to_string(),
            delta: patch.clone(),
            etag: node.etag.0,
        });
        Ok(node.etag)
    }

    /// Replace the whole body (used by agents re-publishing a resource).
    /// Read-only identity members are preserved. Allocates a fresh ETag.
    pub fn replace(&self, id: &ODataId, mut body: Value) -> RedfishResult<ETag> {
        if !body.is_object() {
            return Err(RedfishError::BadRequest("resource body must be a JSON object".into()));
        }
        let mut t = self.shard(id).tree.write();
        let node = t.nodes.get_mut(id).ok_or_else(|| RedfishError::NotFound(id.clone()))?;
        body.as_object_mut()
            // ofmf-lint: allow(no-panic-path, "is_object was checked at the top of the function")
            .expect("checked object")
            .insert("@odata.id".to_string(), Value::String(id.as_str().to_string()));
        node.body = body;
        node.etag = self.next_etag();
        self.journal_record(&WalRecord::Replace {
            id: id.as_str().to_string(),
            body: node.body.clone(),
            etag: node.etag.0,
        });
        Ok(node.etag)
    }

    /// Delete the resource at `id`.
    ///
    /// Collections may only be deleted when empty; deleting a non-collection
    /// resource that still has children fails with `Conflict`.
    pub fn delete(&self, id: &ODataId) -> RedfishResult<()> {
        let me = stripe_of(id);
        let mut span = self.write_around(id);
        {
            let t = span.tree(me);
            let node = t.nodes.get(id).ok_or_else(|| RedfishError::NotFound(id.clone()))?;
            if node.is_collection {
                let n = node.body["Members@odata.count"].as_u64().unwrap_or(0);
                if n > 0 {
                    return Err(RedfishError::Conflict(format!("collection {id} is not empty")));
                }
            }
        }
        if span.trees().any(|t| t.has_descendants(id)) {
            return Err(RedfishError::Conflict(format!("resource {id} has child resources")));
        }
        span.tree(me).nodes.remove(id);
        let parent_etag = self.relink_parent(&mut span, id, false);
        self.journal_record(&WalRecord::Delete {
            id: id.as_str().to_string(),
            parent_etag: parent_etag.map(|e| e.0),
        });
        drop(span);
        self.uncache(id);
        Ok(())
    }

    /// Delete `id` and every resource underneath it (agent unmount).
    /// Returns the number of resources removed. Atomic: the subtree's
    /// shard(s) stay write-locked for the whole removal.
    pub fn delete_subtree(&self, id: &ODataId) -> usize {
        let me = stripe_of(id);
        let mut span = self.write_around(id);
        let mut doomed: Vec<ODataId> = span
            .trees()
            .flat_map(|t| t.descendants(id).map(|(k, _)| k.clone()))
            .collect();
        if span.tree(me).nodes.contains_key(id) {
            doomed.push(id.clone());
        }
        for d in &doomed {
            let s = stripe_of(d);
            span.tree(s).nodes.remove(d);
        }
        if !doomed.is_empty() {
            let parent_etag = self.relink_parent(&mut span, id, false);
            self.journal_record(&WalRecord::DeleteSubtree {
                id: id.as_str().to_string(),
                parent_etag: parent_etag.map(|e| e.0),
            });
        }
        drop(span);
        for d in &doomed {
            self.uncache(d);
        }
        doomed.len()
    }

    /// Ids of the direct members of the collection at `id`.
    pub fn members(&self, id: &ODataId) -> RedfishResult<Vec<ODataId>> {
        let t = self.shard(id).tree.read();
        let node = t.nodes.get(id).ok_or_else(|| RedfishError::NotFound(id.clone()))?;
        if !node.is_collection {
            return Err(RedfishError::MethodNotAllowed(format!("{id} is not a collection")));
        }
        Ok(node.body["Members"]
            .as_array()
            // ofmf-lint: allow(no-panic-path, "create_collection always installs a Members array; is_collection was checked")
            .expect("collection has Members")
            .iter()
            .filter_map(|m| m["@odata.id"].as_str().map(ODataId::new))
            .collect())
    }

    /// All resource ids under `prefix` (inclusive), in path order.
    pub fn ids_under(&self, prefix: &ODataId) -> Vec<ODataId> {
        let guards = if spans_all_shards(prefix) {
            self.read_all()
        } else {
            vec![self.shard(prefix).tree.read()]
        };
        let mut out = Vec::new();
        if guards.iter().any(|t| t.nodes.contains_key(prefix)) {
            out.push(prefix.clone());
        }
        for t in &guards {
            out.extend(t.descendants(prefix).map(|(k, _)| k.clone()));
        }
        out.sort();
        out
    }

    /// Verify that every `{"@odata.id": ...}` reference anywhere in the tree
    /// points at an existing resource. Returns the list of dangling links.
    /// Takes a consistent read snapshot of every shard.
    ///
    /// `LogEntry` resources are exempt: log entries are historical records
    /// whose `OriginOfCondition` may legitimately outlive the resource it
    /// described (a lost connection, a deleted zone).
    pub fn dangling_links(&self) -> Vec<(ODataId, ODataId)> {
        let guards = self.read_all();
        let contains = |target: &ODataId| {
            guards
                .get(stripe_of(target))
                .is_some_and(|t| t.nodes.contains_key(target))
        };
        let mut dangling = Vec::new();
        for t in &guards {
            for (id, node) in &t.nodes {
                if node.odata_type().is_some_and(|ty| ty.starts_with("#LogEntry.")) {
                    continue;
                }
                let mut stack = vec![&node.body];
                while let Some(v) = stack.pop() {
                    match v {
                        Value::Object(m) => {
                            if m.len() == 1 {
                                if let Some(Value::String(target)) = m.get("@odata.id") {
                                    let target_id = ODataId::new(target.as_str());
                                    if &target_id != id && !contains(&target_id) {
                                        dangling.push((id.clone(), target_id));
                                    }
                                    continue;
                                }
                            }
                            for (k, child) in m {
                                // Skip the resource's own identity member.
                                if k == "@odata.id" {
                                    continue;
                                }
                                stack.push(child);
                            }
                        }
                        Value::Array(a) => stack.extend(a.iter()),
                        _ => {}
                    }
                }
            }
        }
        dangling.sort();
        dangling
    }

    /// Run `f` over every stored resource in path order (all shard read
    /// locks held for the duration; `f` must be fast and must not reenter
    /// the registry).
    pub fn for_each<F: FnMut(&ODataId, &StoredResource)>(&self, mut f: F) {
        let guards = self.read_all();
        let mut all: Vec<(&ODataId, &StoredResource)> = guards.iter().flat_map(|t| t.nodes.iter()).collect();
        all.sort_by(|a, b| a.0.cmp(b.0));
        for (id, node) in all {
            f(id, node);
        }
    }

    /// Produce an expanded view of a collection: the collection body with
    /// each member's body inlined (the `$expand` query option). Members may
    /// live in any shard, so this takes a whole-tree read snapshot.
    pub fn expand(&self, id: &ODataId) -> RedfishResult<Value> {
        let guards = self.read_all();
        let lookup = |rid: &ODataId| guards.get(stripe_of(rid)).and_then(|t| t.nodes.get(rid));
        let node = lookup(id).ok_or_else(|| RedfishError::NotFound(id.clone()))?;
        if !node.is_collection {
            return Ok(node.wire_body());
        }
        let mut body = node.wire_body();
        let mut expanded = Vec::new();
        if let Some(members) = node.body["Members"].as_array() {
            for m in members {
                if let Some(mid) = m["@odata.id"].as_str() {
                    if let Some(child) = lookup(&ODataId::new(mid)) {
                        expanded.push(child.wire_body());
                    }
                }
            }
        }
        body["Members"] = Value::Array(expanded);
        Ok(body)
    }

    // ------------------------------------------------------------------
    // Replay API — raw installs used by WAL/snapshot recovery. These
    // bypass validation, never allocate ETags (records carry the ETag the
    // live mutation allocated) and never journal. They are idempotent so
    // a record that lands both in a snapshot and in the live segment
    // replays to the same state. See `crate::replay`.
    // ------------------------------------------------------------------

    /// Install (or overwrite) a resource verbatim with a recorded ETag.
    /// No parent linking: snapshot installs carry each parent's `Members`
    /// in its own body, and create-replay links explicitly.
    pub fn install(&self, id: &ODataId, body: Value, etag: ETag, is_collection: bool) {
        self.shard(id).tree.write().nodes.insert(
            id.clone(),
            StoredResource {
                body,
                etag,
                is_collection,
            },
        );
    }

    /// Remove a resource (optionally with its whole subtree) without
    /// emptiness/child checks, unlinking or journaling.
    pub fn remove_raw(&self, id: &ODataId, subtree: bool) {
        let mut span = self.write_around(id);
        let mut doomed: Vec<ODataId> = Vec::new();
        if subtree {
            for t in span.trees() {
                doomed.extend(t.descendants(id).map(|(k, _)| k.clone()));
            }
        }
        doomed.push(id.clone());
        for d in &doomed {
            let s = stripe_of(d);
            span.tree(s).nodes.remove(d);
        }
        drop(span);
        for d in &doomed {
            self.uncache(d);
        }
    }

    /// Re-apply a recorded parent-membership change: append `id` to
    /// (`link=true`) or remove it from (`link=false`) its parent's
    /// `Members`, and pin the parent's ETag to the recorded value. A
    /// `None` ETag means the live mutation bumped no parent (the parent
    /// was not a collection), so membership is left untouched.
    ///
    /// The recorded ETag doubles as the idempotency token: a parent whose
    /// current ETag is already at or past it holds a body that reflects
    /// this mutation (it arrived via a snapshot install or an earlier
    /// pass over the same journal), so the record is skipped outright.
    /// That replaces the old per-record `Members` scan — which made
    /// replaying n creates into one collection O(n²) and blew the
    /// boot-time budget at 100k records — with an O(1) check, and it
    /// stops overlap records from regressing the parent's ETag.
    pub fn set_parent_link_raw(&self, id: &ODataId, link: bool, parent_etag: Option<ETag>) {
        let Some(petag) = parent_etag else { return };
        let Some(parent) = id.parent() else { return };
        let mut t = self.shard(&parent).tree.write();
        let Some(p) = t.nodes.get_mut(&parent) else {
            return;
        };
        if p.etag < petag && p.set_member(id, link) {
            p.etag = petag;
        }
    }

    /// Re-apply a recorded merge patch, pinning the recorded ETag.
    pub fn patch_raw(&self, id: &ODataId, delta: &Value, etag: ETag) {
        if let Some(node) = self.shard(id).tree.write().nodes.get_mut(id) {
            merge_patch(&mut node.body, delta);
            node.etag = etag;
        }
    }

    /// Re-apply a recorded body replacement, pinning the recorded ETag and
    /// preserving the resource's collection flag.
    pub fn replace_raw(&self, id: &ODataId, body: Value, etag: ETag) {
        let mut t = self.shard(id).tree.write();
        match t.nodes.get_mut(id) {
            Some(node) => {
                node.body = body;
                node.etag = etag;
            }
            None => {
                let is_collection = body.get("Members").is_some();
                t.nodes.insert(
                    id.clone(),
                    StoredResource {
                        body,
                        etag,
                        is_collection,
                    },
                );
            }
        }
    }

    /// Raise the ETag allocator so the next allocation is at least `floor`.
    pub fn ensure_etag_floor(&self, floor: u64) {
        self.etag_seq.fetch_max(floor, Ordering::AcqRel);
    }

    /// The next ETag value the allocator would hand out.
    pub fn etag_seq(&self) -> u64 {
        self.etag_seq.load(Ordering::Acquire)
    }

    /// The compacted snapshot of the whole tree: one install record per
    /// resource (path order) plus the allocator floor. Taken under a
    /// consistent all-shard read snapshot.
    pub fn snapshot_records(&self) -> Vec<WalRecord> {
        let mut out = Vec::with_capacity(self.len() + 1);
        self.for_each(|id, node| {
            out.push(WalRecord::InstallResource {
                id: id.as_str().to_string(),
                body: node.body.clone(),
                etag: node.etag.0,
                is_collection: node.is_collection,
            });
        });
        out.push(WalRecord::EtagFloor { seq: self.etag_seq() });
        out
    }
}

/// An ordered set of write-locked shards (ascending shard index).
struct WriteSpan<'a> {
    guards: Vec<(usize, RwLockWriteGuard<'a, Tree>)>,
}

impl WriteSpan<'_> {
    /// The locked tree for shard `idx` (must be part of the span).
    fn tree(&mut self, idx: usize) -> &mut Tree {
        self.guards
            .iter_mut()
            .find(|(i, _)| *i == idx)
            .map(|(_, g)| &mut **g)
            // ofmf-lint: allow(no-panic-path, "callers only pass shard indices they locked into this span")
            .expect("shard is part of the write span")
    }

    /// Iterate all locked trees.
    fn trees(&self) -> impl Iterator<Item = &Tree> {
        self.guards.iter().map(|(_, g)| &**g)
    }
}

/// Convenience: build a `{"@odata.id": …}` map value.
pub fn link_value(id: &ODataId) -> Value {
    let mut m = Map::new();
    m.insert("@odata.id".to_string(), Value::String(id.as_str().to_string()));
    Value::Object(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg_with_collection() -> (Registry, ODataId) {
        let r = Registry::new();
        let root = ODataId::new("/redfish/v1");
        r.create(
            &root,
            json!({"@odata.type": "#ServiceRoot.v1_15_0.ServiceRoot", "Id": "RootService", "Name": "OFMF"}),
        )
        .unwrap();
        let col = root.child("Systems");
        r.create_collection(&col, "#ComputerSystemCollection.ComputerSystemCollection", "Systems")
            .unwrap();
        (r, col)
    }

    #[test]
    fn create_links_into_parent_collection() {
        let (r, col) = reg_with_collection();
        let id = col.child("cn01");
        r.create(
            &id,
            json!({"@odata.type": "#ComputerSystem.v1_20_0.ComputerSystem", "Id": "cn01", "Name": "cn01"}),
        )
        .unwrap();
        let members = r.members(&col).unwrap();
        assert_eq!(members, vec![id.clone()]);
        let col_body = r.get(&col).unwrap().body;
        assert_eq!(col_body["Members@odata.count"], 1);
    }

    #[test]
    fn duplicate_create_conflicts() {
        let (r, col) = reg_with_collection();
        let id = col.child("cn01");
        r.create(&id, json!({"Name": "a"})).unwrap();
        assert!(matches!(
            r.create(&id, json!({"Name": "b"})),
            Err(RedfishError::AlreadyExists(_))
        ));
    }

    #[test]
    fn patch_bumps_etag_and_merges() {
        let (r, col) = reg_with_collection();
        let id = col.child("cn01");
        let e1 = r.create(&id, json!({"Name": "a", "Oem": {"x": 1}})).unwrap();
        let e2 = r.patch(&id, &json!({"Oem": {"y": 2}}), None).unwrap();
        assert!(e2.0 > e1.0);
        let body = r.get(&id).unwrap().body;
        assert_eq!(body["Oem"], json!({"x": 1, "y": 2}));
    }

    #[test]
    fn patch_rejects_read_only_and_stale_etag() {
        let (r, col) = reg_with_collection();
        let id = col.child("cn01");
        let e = r.create(&id, json!({"Name": "a"})).unwrap();
        assert!(matches!(
            r.patch(&id, &json!({"Id": "evil"}), None),
            Err(RedfishError::BadRequest(_))
        ));
        assert!(matches!(
            r.patch(&id, &json!({"Name": "b"}), Some(ETag(e.0 + 5000))),
            Err(RedfishError::PreconditionFailed { .. })
        ));
        // Correct etag applies.
        r.patch(&id, &json!({"Name": "b"}), Some(e)).unwrap();
        assert_eq!(r.get(&id).unwrap().body["Name"], "b");
    }

    #[test]
    fn delete_unlinks_from_collection() {
        let (r, col) = reg_with_collection();
        let id = col.child("cn01");
        r.create(&id, json!({"Name": "a"})).unwrap();
        r.delete(&id).unwrap();
        assert!(r.members(&col).unwrap().is_empty());
        assert!(!r.exists(&id));
    }

    #[test]
    fn delete_nonempty_collection_conflicts() {
        let (r, col) = reg_with_collection();
        r.create(&col.child("cn01"), json!({"Name": "a"})).unwrap();
        assert!(matches!(r.delete(&col), Err(RedfishError::Conflict(_))));
    }

    #[test]
    fn delete_resource_with_children_conflicts() {
        let (r, col) = reg_with_collection();
        let sys = col.child("cn01");
        r.create(&sys, json!({"Name": "a"})).unwrap();
        r.create(&sys.child("Processors"), json!({"Name": "procs"})).unwrap();
        assert!(matches!(r.delete(&sys), Err(RedfishError::Conflict(_))));
        assert_eq!(r.delete_subtree(&sys), 2);
        assert!(!r.exists(&sys));
        assert!(r.members(&col).unwrap().is_empty());
    }

    #[test]
    fn dangling_link_detection() {
        let (r, col) = reg_with_collection();
        let id = col.child("cn01");
        r.create(
            &id,
            json!({"Name": "a", "Links": {"Chassis": [{"@odata.id": "/redfish/v1/Chassis/missing"}]}}),
        )
        .unwrap();
        let d = r.dangling_links();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].0, id);
        assert_eq!(d[0].1, ODataId::new("/redfish/v1/Chassis/missing"));
    }

    #[test]
    fn expand_inlines_members() {
        let (r, col) = reg_with_collection();
        r.create(&col.child("cn01"), json!({"Name": "a"})).unwrap();
        r.create(&col.child("cn02"), json!({"Name": "b"})).unwrap();
        let v = r.expand(&col).unwrap();
        let members = v["Members"].as_array().unwrap();
        assert_eq!(members.len(), 2);
        assert_eq!(members[0]["Name"], "a");
    }

    #[test]
    fn invalid_member_id_rejected() {
        let (r, col) = reg_with_collection();
        let bad = ODataId::new(format!("{}/{}", col.as_str(), "a b"));
        assert!(matches!(
            r.create(&bad, json!({"Name": "x"})),
            Err(RedfishError::BadRequest(_))
        ));
    }

    #[test]
    fn wire_body_carries_current_etag() {
        let (r, col) = reg_with_collection();
        let id = col.child("cn01");
        r.create(&id, json!({"Name": "a"})).unwrap();
        r.patch(&id, &json!({"Name": "b"}), None).unwrap();
        let s = r.get(&id).unwrap();
        assert_eq!(s.wire_body()["@odata.etag"], s.etag.to_header());
    }

    // ---------------------------------------------------- sharding + cache

    #[test]
    fn wire_bytes_hits_cache_until_mutation() {
        let (r, col) = reg_with_collection();
        let id = col.child("cn01");
        r.create(&id, json!({"Name": "a"})).unwrap();
        let (b1, e1) = r.wire_bytes(&id).unwrap();
        let (b2, e2) = r.wire_bytes(&id).unwrap();
        assert_eq!(e1, e2);
        assert!(Arc::ptr_eq(&b1, &b2), "second read must be served from cache");
        let (hits, _) = r.wire_cache_stats();
        assert!(hits >= 1);

        // A mutation allocates a new etag → cache miss, fresh bytes.
        r.patch(&id, &json!({"Name": "b"}), None).unwrap();
        let (b3, e3) = r.wire_bytes(&id).unwrap();
        assert!(e3.0 > e2.0);
        assert!(!Arc::ptr_eq(&b2, &b3));
        let v: Value = serde_json::from_slice(&b3).unwrap();
        assert_eq!(v["Name"], "b");
        assert_eq!(v["@odata.etag"], e3.to_header());
    }

    #[test]
    fn recreate_after_delete_never_serves_stale_bytes() {
        let (r, col) = reg_with_collection();
        let id = col.child("cn01");
        r.create(&id, json!({"Name": "old"})).unwrap();
        let _ = r.wire_bytes(&id).unwrap(); // populate cache
        r.delete(&id).unwrap();
        r.create(&id, json!({"Name": "new"})).unwrap();
        let (bytes, _) = r.wire_bytes(&id).unwrap();
        let v: Value = serde_json::from_slice(&bytes).unwrap();
        assert_eq!(v["Name"], "new");
    }

    #[test]
    fn etags_are_registry_unique_across_resources() {
        let (r, col) = reg_with_collection();
        let e1 = r.create(&col.child("a"), json!({"Name": "a"})).unwrap();
        let e2 = r.create(&col.child("b"), json!({"Name": "b"})).unwrap();
        let e3 = r.patch(&col.child("a"), &json!({"X": 1}), None).unwrap();
        assert!(e1.0 < e2.0 && e2.0 < e3.0, "{e1:?} {e2:?} {e3:?}");
    }

    #[test]
    fn cross_shard_membership_stays_consistent() {
        // Top-level collections live in different shards than the root;
        // creating them links them into nothing (root is not a collection),
        // but fabric children link into the Fabrics collection.
        let r = Registry::new();
        let root = ODataId::new("/redfish/v1");
        r.create(&root, json!({"Name": "root"})).unwrap();
        for top in ["Systems", "Chassis", "Fabrics", "StorageServices", "Tasks"] {
            r.create_collection(&root.child(top), "#C.C", top).unwrap();
        }
        let fabrics = root.child("Fabrics");
        r.create(&fabrics.child("F0"), json!({"Name": "F0"})).unwrap();
        r.create(&fabrics.child("F1"), json!({"Name": "F1"})).unwrap();
        assert_eq!(r.members(&fabrics).unwrap().len(), 2);
        assert_eq!(r.delete_subtree(&fabrics.child("F0")), 1);
        assert_eq!(r.members(&fabrics).unwrap().len(), 1);
        assert!(r.dangling_links().is_empty());
        assert_eq!(r.len(), 7);
    }

    #[test]
    fn root_subtree_delete_spans_all_shards() {
        let (r, col) = reg_with_collection();
        r.create(&col.child("cn01"), json!({"Name": "a"})).unwrap();
        // Deleting the service root's subtree wipes everything.
        let n = r.delete_subtree(&ODataId::new("/redfish/v1"));
        assert_eq!(n, 3);
        assert!(r.is_empty());
    }

    #[test]
    fn for_each_iterates_in_path_order() {
        let (r, col) = reg_with_collection();
        r.create(&col.child("b"), json!({"Name": "b"})).unwrap();
        r.create(&col.child("a"), json!({"Name": "a"})).unwrap();
        let chassis = ODataId::new("/redfish/v1/Chassis");
        r.create_collection(&chassis, "#C.C", "Chassis").unwrap();
        let mut seen = Vec::new();
        r.for_each(|id, _| seen.push(id.clone()));
        let mut sorted = seen.clone();
        sorted.sort();
        assert_eq!(seen, sorted);
        assert_eq!(seen.len(), 5);
    }
}
