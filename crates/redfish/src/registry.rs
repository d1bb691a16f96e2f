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
//! (service root, collections, telemetry consumers) skip serialization
//! entirely; any mutation allocates a new ETag and thereby invalidates the
//! stale bytes. A miss clones nothing either: the bytes are written straight
//! from the stored body under the shard read lock
//! ([`StoredResource::wire_body`] of what [`Registry::get`] returns
//! describes the document and is what tests hold the writer to). The REST
//! layer answers PATCH and POST from the same call, so a write's reply fills
//! the cache for the GET that follows it.
//!
//! # Collections are a key range
//!
//! A collection's members are its direct children in the tree, which share
//! its top-level segment and so its shard. `Members` and
//! `Members@odata.count` are rendered from that key range on every read —
//! in id order — and are never stored, journaled or snapshotted; a body or
//! an older journal that carries them for a collection has them dropped.
//! Linking or unlinking a member still gives the collection a fresh ETag,
//! which keys its cached bytes. A query GET ([`Registry::query`]) is written
//! by the same writer under one shard read lock: `$top`/`$skip` are a
//! skip/take over the range, `$select` a member filter, and `$expand`
//! inlines the range's own documents.

use crate::error::{RedfishError, RedfishResult};
use crate::odata::{ETag, ODataId};
use crate::patch::{first_read_only_violation, merge_patch};
use crate::path::{fnv1a, top_segment, valid_member_id};
use crate::query::QueryOptions;
use ofmf_wal::{SnapshotWriter, Wal, WalRecord};
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use serde_json::{json, Value};
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
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

/// Buffer for a wire body never serialized before; one that was starts
/// from its previous length.
const WIRE_BODY_GUESS: usize = 512;

/// Resources a streamed snapshot encodes per stripe-lock hold: the unit of
/// its lock hold time and of its buffered memory.
const SNAPSHOT_BATCH: usize = 256;

/// Descendants of one child a walk over a collection's members steps over
/// before it seeks past the rest of that child's subtree. A seek costs about
/// as much as stepping over 16 keys (measured on 2 040 members with no
/// subtree, 128 members with 12 descendants each, and 3 with 2 000 each).
const SEEK_AFTER: usize = 16;

/// What a collection's body may say about its membership; the tree says it
/// instead, so these are dropped from every body stored for a collection.
const MEMBERSHIP: [&str; 3] = ["Members", "Members@odata.count", "Members@odata.nextLink"];

/// A resource document plus its registry metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredResource {
    /// The JSON document, including `@odata.*` members.
    pub body: Value,
    /// Current version tag; a fresh registry-unique value on every mutation.
    pub etag: ETag,
    /// Whether the resource is a Redfish collection: its `Members` are its
    /// direct children in the tree, rendered on every read, never stored.
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

    /// The direct children of `id` in id order: the members of a collection
    /// at `id`. The walk steps over a child's first descendants and, past
    /// [`SEEK_AFTER`] of them, seeks past the rest of that child's subtree
    /// (`{child}0`, as in `descendants`): a member with a large subtree costs
    /// one O(log n) seek, not its descendants, and a small one no seek.
    fn children<'a>(&'a self, id: &ODataId) -> impl Iterator<Item = (&'a ODataId, &'a StoredResource)> + 'a {
        let base = id.as_str().len() + 1;
        let lo = ODataId::raw(format!("{}/", id.as_str()));
        let hi = ODataId::raw(format!("{}0", id.as_str()));
        let mut walk = self.nodes.range((Bound::Included(&lo), Bound::Excluded(&hi)));
        let mut stepped = 0;
        std::iter::from_fn(move || loop {
            let (key, node) = walk.next()?;
            let rest = key.as_str().as_bytes().get(base..).unwrap_or_default();
            let Some(slash) = rest.iter().position(|&b| b == b'/') else {
                stepped = 0;
                return Some((key, node));
            };
            stepped += 1;
            if stepped == SEEK_AFTER {
                stepped = 0;
                let child = key.as_str().get(..base + slash).unwrap_or_default();
                let past = ODataId::raw(format!("{child}0"));
                walk = self.nodes.range((Bound::Included(&past), Bound::Excluded(&hi)));
            }
        })
    }

    /// Store `body` at `id`, dropping any membership a collection's body
    /// states: the tree states it.
    fn put(&mut self, id: &ODataId, mut body: Value, etag: u64, is_collection: bool) {
        if let (true, Some(obj)) = (is_collection, body.as_object_mut()) {
            for key in MEMBERSHIP {
                obj.remove(key);
            }
        }
        let etag = ETag(etag);
        self.nodes.insert(
            id.clone(),
            StoredResource {
                body,
                etag,
                is_collection,
            },
        );
    }

    /// `node`, the resource at `id`, as a document: a clone of its stored
    /// form, plus a collection's `Members` links and count after its stored
    /// members.
    fn rendered(&self, id: &ODataId, node: &StoredResource) -> StoredResource {
        let mut out = node.clone();
        if let (true, Some(obj)) = (node.is_collection, out.body.as_object_mut()) {
            let members: Vec<Value> = self
                .children(id)
                .map(|(member, _)| json!({"@odata.id": member.as_str()}))
                .collect();
            let count = members.len();
            obj.insert("Members".to_string(), Value::Array(members));
            obj.insert("Members@odata.count".to_string(), json!(count));
        }
        out
    }

    /// Append the answer to a GET of `node`, the resource at `id`, under the
    /// query options `q`: the bytes `serde_json::to_vec(&q.apply(doc))`
    /// gives, where `doc` is what [`Registry::get`] renders with its
    /// `wire_body()` and, under `$expand`, each member's own wire form in
    /// place of its link. Written from the borrowed tree: `@odata.etag`
    /// takes the place of a stored one and is appended otherwise; a
    /// collection's `Members` and count follow its stored members, and a
    /// page's nextLink comes last.
    fn write_wire(
        &self,
        id: &ODataId,
        node: &StoredResource,
        q: &QueryOptions,
        out: &mut Vec<u8>,
    ) -> serde_json::Result<()> {
        let Some(obj) = node.body.as_object() else {
            return serde_json::to_writer(out, &node.body);
        };
        let etag = node.etag.to_header();
        out.push(b'{');
        let mut first = true;
        let mut key = |out: &mut Vec<u8>, key: &str| {
            if !std::mem::take(&mut first) {
                out.push(b',');
            }
            serde_json::to_writer(&mut *out, key)?;
            out.push(b':');
            serde_json::Result::Ok(())
        };
        for (k, v) in obj.iter().filter(|(k, _)| q.selects(k)) {
            key(out, k)?;
            match k.as_str() {
                "@odata.etag" => serde_json::to_writer(&mut *out, &etag)?,
                _ => serde_json::to_writer(&mut *out, v)?,
            }
        }
        let mut next_link = None;
        let [list, count, link] = MEMBERSHIP.map(|k| node.is_collection && q.selects(k));
        if list || count || link {
            let skip = q.skip.unwrap_or(0);
            let top = q.top.unwrap_or(usize::MAX);
            let (mut total, mut shown) = (0usize, 0usize);
            // Each member id is this collection's id, a `/` and a leaf: only
            // the leaves are left to check for bytes to escape.
            let plain_prefix = !escapes(id.as_str());
            if list {
                key(out, "Members")?;
                out.push(b'[');
            }
            for (member, doc) in self.children(id) {
                let in_page = total >= skip && shown < top;
                if in_page && list {
                    if shown > 0 {
                        out.push(b',');
                    }
                    if q.expand {
                        self.write_wire(member, doc, &QueryOptions::default(), out)?;
                    } else {
                        let leaf = member.as_str().get(id.as_str().len()..).unwrap_or_default();
                        write_link(out, member.as_str(), plain_prefix && !escapes(leaf))?;
                    }
                }
                shown += usize::from(in_page);
                total += 1;
            }
            if list {
                out.push(b']');
            }
            if count {
                key(out, "Members@odata.count")?;
                serde_json::to_writer(&mut *out, &total)?;
            }
            let more = link && q.pages() && shown > 0 && skip.saturating_add(shown) < total;
            let self_id = obj.get("@odata.id").and_then(Value::as_str).filter(|_| more);
            next_link = self_id.map(|self_id| q.next_link(self_id, skip + shown));
        }
        if !obj.contains_key("@odata.etag") {
            key(out, "@odata.etag")?;
            serde_json::to_writer(&mut *out, &etag)?;
        }
        if let Some(next_link) = next_link {
            key(out, "Members@odata.nextLink")?;
            serde_json::to_writer(&mut *out, &next_link)?;
        }
        out.push(b'}');
        Ok(())
    }
}

/// Whether JSON escapes any byte of `s`. Branch-free, so it vectorises: a
/// large collection's GET is mostly its member links.
fn escapes(s: &str) -> bool {
    s.bytes()
        .fold(false, |any, b| any | (b < 0x20) | (b == b'"') | (b == b'\\'))
}

/// Append `{"@odata.id":"<id>"}`, the link a collection lists a member by,
/// as `serde_json` prints it. An id the caller knows needs no escape
/// (`plain`) is copied as it is.
fn write_link(out: &mut Vec<u8>, id: &str, plain: bool) -> serde_json::Result<()> {
    out.extend_from_slice(b"{\"@odata.id\":");
    if plain {
        out.push(b'"');
        out.extend_from_slice(id.as_bytes());
        out.push(b'"');
    } else {
        serde_json::to_writer(&mut *out, id)?;
    }
    out.push(b'}');
    Ok(())
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
    /// Optional write-ahead journal, fixed at construction. A mutation
    /// appends its record while holding the stripe write lock(s), so the
    /// journal preserves per-stripe mutation order. Lock order: stripe →
    /// WAL file mutex (a leaf).
    journal: Option<Arc<Wal>>,
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
            journal: None,
        }
    }

    /// Journal every live mutation to `wal`. Replay ([`Registry::apply_record`])
    /// never journals, so the handle can be given before the journal is
    /// replayed into this registry.
    #[must_use]
    pub fn with_journal(mut self, wal: Option<Arc<Wal>>) -> Self {
        self.journal = wal;
        self
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
    /// the new resource is one of its `Members` and the parent gets a fresh
    /// ETag.
    pub fn create(&self, id: &ODataId, mut body: Value) -> RedfishResult<ETag> {
        let Some(obj) = body.as_object_mut() else {
            return Err(RedfishError::BadRequest("resource body must be a JSON object".into()));
        };
        if !valid_member_id(id.leaf()) {
            return Err(RedfishError::BadRequest(format!("invalid member id '{}'", id.leaf())));
        }
        obj.insert("@odata.id".to_string(), Value::String(id.as_str().to_string()));
        self.insert_new(id, body, false)
    }

    /// Insert a Redfish collection resource at `id`.
    ///
    /// A collection's `Members` / `Members@odata.count` are the resources
    /// created directly under it, rendered whenever it is read.
    pub fn create_collection(&self, id: &ODataId, odata_type: &str, name: &str) -> RedfishResult<ETag> {
        let body = json!({
            "@odata.id": id.as_str(),
            "@odata.type": odata_type,
            "Name": name,
        });
        self.insert_new(id, body, true)
    }

    fn insert_new(&self, id: &ODataId, body: Value, is_collection: bool) -> RedfishResult<ETag> {
        let mut span = self.write_around(id);
        if span.tree(stripe_of(id)).nodes.contains_key(id) {
            return Err(RedfishError::AlreadyExists(id.clone()));
        }
        let etag = self.next_etag();
        let parent_etag = self.parent_etag(&mut span, id);
        self.commit(
            span,
            id,
            WalRecord::Create {
                id: id.as_str().to_string(),
                body,
                etag: etag.0,
                is_collection,
                parent_etag,
            },
        );
        Ok(etag)
    }

    /// A fresh ETag for `id`'s parent when linking or unlinking `id`
    /// changes its `Members` (the parent is a collection).
    fn parent_etag(&self, span: &mut WriteSpan<'_>, id: &ODataId) -> Option<u64> {
        let parent = id.parent()?;
        let p = span.tree(stripe_of(&parent)).nodes.get(&parent)?;
        p.is_collection.then(|| self.next_etag().0)
    }

    /// The tail of every live mutation, once validated and with its ETags
    /// allocated: journal the record, then apply it. The span is still
    /// write-locked, so the journal sees one stripe's mutations in their
    /// true order. Returns how many resources the record removed.
    fn commit(&self, span: WriteSpan<'_>, id: &ODataId, rec: WalRecord) -> usize {
        if let Some(w) = &self.journal {
            w.record(&rec);
        }
        self.settle(span, id, rec)
    }

    /// Apply `rec` over the locked span and release it, then drop the cached
    /// wire bodies of what it removed (mutations in place are already
    /// invalidated by the ETag bump, but dropping keeps the cache tight).
    /// An install, or a replayed replace that creates its resource, adds a
    /// member without moving the parent's ETag — a snapshot carries the
    /// parent's own — so the parent's cached bytes go as well.
    fn settle(&self, mut span: WriteSpan<'_>, id: &ODataId, rec: WalRecord) -> usize {
        let unpinned = matches!(rec, WalRecord::InstallResource { .. } | WalRecord::Replace { .. });
        let parent = unpinned.then(|| id.parent()).flatten();
        let removed = span.transition(id, rec);
        drop(span);
        for gone in removed.iter().chain(&parent) {
            self.shard(gone).wire.write().remove(gone);
        }
        removed.len()
    }

    /// Apply one journaled registry record (WAL/snapshot recovery): no
    /// validation, no journaling and no ETag allocation — the record carries
    /// the ETags the live mutation allocated, and the allocator is raised
    /// past them so none is ever reused. The state transition is the one the
    /// live mutation ran, so a replayed tree equals the live one, ETags
    /// included; the record's body becomes the stored one. Returns `false`,
    /// doing nothing, for records of other subsystems.
    pub fn apply_record(&self, rec: WalRecord) -> bool {
        use WalRecord::{Create, Delete, DeleteSubtree, EtagFloor, InstallResource, Patch, Replace};
        let (id, pinned) = match &rec {
            Create {
                id, etag, parent_etag, ..
            } => (id, (*etag).max(parent_etag.unwrap_or(0))),
            Patch { id, etag, .. } | Replace { id, etag, .. } | InstallResource { id, etag, .. } => (id, *etag),
            Delete { id, parent_etag, .. } | DeleteSubtree { id, parent_etag, .. } => (id, parent_etag.unwrap_or(0)),
            EtagFloor { seq } => {
                self.ensure_etag_floor(*seq);
                return true;
            }
            _ => return false,
        };
        self.ensure_etag_floor(pinned.saturating_add(1));
        let id = ODataId::new(id.as_str());
        self.settle(self.write_around(&id), &id, rec);
        true
    }

    /// Fetch a resource: a clone of its stored form, with a collection's
    /// `Members` and count rendered after its stored members.
    pub fn get(&self, id: &ODataId) -> RedfishResult<StoredResource> {
        let t = self.shard(id).tree.read();
        let node = t.nodes.get(id).ok_or_else(|| RedfishError::NotFound(id.clone()))?;
        Ok(t.rendered(id, node))
    }

    /// Run `f` over the resource at `id` under its shard's read lock, without
    /// cloning it — for callers that look at a member or two of its stored
    /// form, which holds no collection's `Members`. `f` must be fast and
    /// must not reenter the registry.
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
        let capacity = match shard.wire.read().get(id) {
            Some((v, cached)) if *v == etag.0 => {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                return Ok((Arc::clone(cached), etag));
            }
            // One member or ETag digit more than last time, at most.
            Some((_, stale)) => stale.len() + 64,
            None => WIRE_BODY_GUESS,
        };
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        let mut body = Vec::with_capacity(capacity);
        t.write_wire(id, node, &QueryOptions::default(), &mut body)
            .map_err(|e| RedfishError::Internal(format!("serialize {id}: {e}")))?;
        let bytes: Arc<[u8]> = body.into();
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

    /// The bytes a GET of `id` with query options `q` returns, plus the
    /// resource's ETag: written from the borrowed tree under the shard's
    /// read lock, which holds a collection's members and their documents
    /// too. Equal to what `q.apply` makes of [`Registry::get`]'s wire body,
    /// with each member's wire body in place of its link under `$expand`.
    pub fn query(&self, id: &ODataId, q: &QueryOptions) -> RedfishResult<(Vec<u8>, ETag)> {
        let t = self.shard(id).tree.read();
        let node = t.nodes.get(id).ok_or_else(|| RedfishError::NotFound(id.clone()))?;
        let mut out = Vec::with_capacity(WIRE_BODY_GUESS);
        t.write_wire(id, node, q, &mut out)
            .map_err(|e| RedfishError::Internal(format!("serialize {id}: {e}")))?;
        Ok((out, node.etag))
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
        let me = stripe_of(id);
        let mut span = self.write_span(vec![me]);
        let node = span
            .tree(me)
            .nodes
            .get(id)
            .ok_or_else(|| RedfishError::NotFound(id.clone()))?;
        if let Some(tag) = if_match {
            if tag != node.etag {
                return Err(RedfishError::PreconditionFailed {
                    id: id.clone(),
                    supplied: tag.to_header(),
                });
            }
        }
        let etag = self.next_etag();
        self.commit(
            span,
            id,
            WalRecord::Patch {
                id: id.as_str().to_string(),
                delta: patch.clone(),
                etag: etag.0,
            },
        );
        Ok(etag)
    }

    /// Replace the whole body (used by agents re-publishing a resource).
    /// The `@odata.id` member is forced to `id`, and whatever `Members` the
    /// body lists for a collection is dropped: a collection's members are
    /// its children in the tree, not what a client sends. Allocates a fresh
    /// ETag.
    pub fn replace(&self, id: &ODataId, mut body: Value) -> RedfishResult<ETag> {
        let Some(obj) = body.as_object_mut() else {
            return Err(RedfishError::BadRequest("resource body must be a JSON object".into()));
        };
        obj.insert("@odata.id".to_string(), Value::String(id.as_str().to_string()));
        let me = stripe_of(id);
        let mut span = self.write_span(vec![me]);
        if !span.tree(me).nodes.contains_key(id) {
            return Err(RedfishError::NotFound(id.clone()));
        }
        let etag = self.next_etag();
        self.commit(
            span,
            id,
            WalRecord::Replace {
                id: id.as_str().to_string(),
                body,
                etag: etag.0,
            },
        );
        Ok(etag)
    }

    /// Delete the resource at `id`.
    ///
    /// Deleting a resource that still has children — a collection with
    /// members among them — fails with `Conflict`.
    pub fn delete(&self, id: &ODataId) -> RedfishResult<()> {
        let mut span = self.write_around(id);
        if !span.tree(stripe_of(id)).nodes.contains_key(id) {
            return Err(RedfishError::NotFound(id.clone()));
        }
        if span.trees().any(|t| t.has_descendants(id)) {
            return Err(RedfishError::Conflict(format!("resource {id} has child resources")));
        }
        let parent_etag = self.parent_etag(&mut span, id);
        self.commit(
            span,
            id,
            WalRecord::Delete {
                id: id.as_str().to_string(),
                parent_etag,
            },
        );
        Ok(())
    }

    /// Delete `id` and every resource underneath it (agent unmount).
    /// Returns the number of resources removed. Atomic: the subtree's
    /// shard(s) stay write-locked for the whole removal.
    pub fn delete_subtree(&self, id: &ODataId) -> usize {
        let mut span = self.write_around(id);
        if !span.tree(stripe_of(id)).nodes.contains_key(id) && !span.trees().any(|t| t.has_descendants(id)) {
            return 0;
        }
        let parent_etag = self.parent_etag(&mut span, id);
        self.commit(
            span,
            id,
            WalRecord::DeleteSubtree {
                id: id.as_str().to_string(),
                parent_etag,
            },
        )
    }

    /// Ids of the members of the collection at `id`: its direct children,
    /// in id order.
    pub fn members(&self, id: &ODataId) -> RedfishResult<Vec<ODataId>> {
        let t = self.shard(id).tree.read();
        let node = t.nodes.get(id).ok_or_else(|| RedfishError::NotFound(id.clone()))?;
        if !node.is_collection {
            return Err(RedfishError::MethodNotAllowed(format!("{id} is not a collection")));
        }
        Ok(t.children(id).map(|(member, _)| member.clone()).collect())
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

    /// Run `f` over every resource in path order, each as [`Registry::get`]
    /// has it: a collection is handed over as a clone with its `Members`
    /// rendered. All shard read locks are held for the duration; `f` must
    /// be fast and must not reenter the registry. A cold path: setup, test
    /// oracles and crash checks.
    pub fn for_each<F: FnMut(&ODataId, &StoredResource)>(&self, mut f: F) {
        let guards = self.read_all();
        let mut all: Vec<(&Tree, &ODataId, &StoredResource)> = guards
            .iter()
            .flat_map(|t| t.nodes.iter().map(move |(id, node)| (&**t, id, node)))
            .collect();
        all.sort_by(|a, b| a.1.cmp(b.1));
        for (t, id, node) in all {
            if node.is_collection {
                f(id, &t.rendered(id, node));
            } else {
                f(id, node);
            }
        }
    }

    /// The `$expand` answer for `id` as the bytes a GET returns: the
    /// collection's wire body with each member's wire body inlined.
    pub fn expand(&self, id: &ODataId) -> RedfishResult<Vec<u8>> {
        let q = QueryOptions {
            expand: true,
            ..Default::default()
        };
        self.query(id, &q).map(|(bytes, _)| bytes)
    }

    /// Raise the ETag allocator so the next allocation is at least `floor`.
    pub fn ensure_etag_floor(&self, floor: u64) {
        self.etag_seq.fetch_max(floor, Ordering::AcqRel);
    }

    /// The next ETag value the allocator would hand out.
    pub fn etag_seq(&self) -> u64 {
        self.etag_seq.load(Ordering::Acquire)
    }

    /// Stream the compacted snapshot of the whole tree into `out`: one
    /// install record per resource, then the allocator floor. One stripe is
    /// read-locked at a time, for one batch of [`SNAPSHOT_BATCH`] resources
    /// (id order, resuming after the last id written): frames are encoded
    /// from the borrowed bodies into `out`'s pending batch, and the batch is
    /// written once the stripe is released — no lock is held across I/O,
    /// and the walk never holds more than a batch.
    ///
    /// The result is not a cut of the tree at one instant, and need not be:
    /// an install record sets its resource absolutely, and every mutation
    /// that races the walk is in the journal segment replayed over the
    /// snapshot, where [`WriteSpan::transition`]'s ETag gates make it
    /// converge whether or not the walk had already seen it.
    pub fn stream_snapshot(&self, out: &mut SnapshotWriter) -> std::io::Result<()> {
        for shard in &self.shards {
            let mut resume: Bound<ODataId> = Bound::Unbounded;
            loop {
                {
                    let tree = shard.tree.read();
                    let mut last = None;
                    for (id, node) in tree
                        .nodes
                        .range((resume.as_ref(), Bound::Unbounded))
                        .take(SNAPSHOT_BATCH)
                    {
                        out.push_install(id.as_str(), &node.body, node.etag.0, node.is_collection);
                        last = Some(id);
                    }
                    let Some(last) = last else { break };
                    resume = Bound::Excluded(last.clone());
                }
                out.flush()?;
            }
        }
        // Read after the walk, so it is above every ETag written.
        out.push(&WalRecord::EtagFloor { seq: self.etag_seq() });
        Ok(())
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

    /// The one state transition of each registry record kind, run by the
    /// live mutation that built `rec` and by replay alike. The span must
    /// cover `id`'s shard and, for `Create`/`Delete`/`DeleteSubtree`, its
    /// parent's (see [`Registry::write_around`]). Returns the ids removed.
    ///
    /// Records are idempotent, so one that lands both in a snapshot and in
    /// the live segment it overlaps converges: `Create`/`InstallResource`
    /// set a resource absolutely, and every record that transforms what is
    /// there (`Patch`, `Replace`, a parent link) is skipped when the target's
    /// ETag is already at or past the recorded one — it then holds a body
    /// that reflects the mutation.
    fn transition(&mut self, id: &ODataId, rec: WalRecord) -> Vec<ODataId> {
        let me = stripe_of(id);
        let subtree = matches!(rec, WalRecord::DeleteSubtree { .. });
        match rec {
            WalRecord::Create {
                body,
                etag,
                is_collection,
                parent_etag,
                ..
            } => {
                self.tree(me).put(id, body, etag, is_collection);
                self.pin_parent(id, parent_etag);
            }
            // No parent ETag: a snapshot carries each parent's own.
            WalRecord::InstallResource {
                body,
                etag,
                is_collection,
                ..
            } => self.tree(me).put(id, body, etag, is_collection),
            WalRecord::Patch { delta, etag, .. } => {
                if let Some(node) = self.tree(me).nodes.get_mut(id).filter(|n| n.etag.0 < etag) {
                    merge_patch(&mut node.body, &delta);
                    node.etag = ETag(etag);
                }
            }
            WalRecord::Replace { body, etag, .. } => {
                let tree = self.tree(me);
                // A replace keeps what the resource is; one that creates it
                // (replay only) makes a collection of a body with `Members`.
                let is_collection = match tree.nodes.get(id) {
                    Some(node) if node.etag.0 >= etag => return Vec::new(),
                    Some(node) => node.is_collection,
                    None => body.get("Members").is_some(),
                };
                tree.put(id, body, etag, is_collection);
            }
            WalRecord::Delete { parent_etag, .. } | WalRecord::DeleteSubtree { parent_etag, .. } => {
                let mut doomed: Vec<ODataId> = Vec::new();
                if subtree {
                    doomed.extend(self.trees().flat_map(|t| t.descendants(id).map(|(k, _)| k.clone())));
                }
                for d in &doomed {
                    self.tree(stripe_of(d)).nodes.remove(d);
                }
                if self.tree(me).nodes.remove(id).is_some() {
                    doomed.push(id.clone());
                }
                self.pin_parent(id, parent_etag);
                return doomed;
            }
            _ => {}
        }
        Vec::new()
    }

    /// Pin the ETag of `id`'s parent to the one the live mutation gave it
    /// for linking or unlinking `id`: its `Members` are its children, which
    /// the record has just changed. `None` means the live mutation bumped
    /// no parent (it was not a collection).
    fn pin_parent(&mut self, id: &ODataId, parent_etag: Option<u64>) {
        let (Some(petag), Some(parent)) = (parent_etag, id.parent()) else {
            return;
        };
        if let Some(p) = self.tree(stripe_of(&parent)).nodes.get_mut(&parent) {
            p.etag = p.etag.max(ETag(petag));
        }
    }
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
    fn replace_over_a_collection_keeps_its_members() {
        let (r, col) = reg_with_collection();
        r.create(&col.child("cn01"), json!({"Name": "a"})).unwrap();
        // An agent re-registering the collection id without `Members`.
        r.replace(&col, json!({"@odata.type": "#C.C", "Name": "Systems v2"}))
            .unwrap();
        assert_eq!(r.members(&col).unwrap(), vec![col.child("cn01")]);
        // A member list the client made up is not taken either.
        r.replace(
            &col,
            json!({"Name": "Systems v3", "Members": [], "Members@odata.count": 0}),
        )
        .unwrap();
        let body = r.get(&col).unwrap().body;
        assert_eq!(body["Name"], "Systems v3");
        assert_eq!(body["Members@odata.count"], 1);
        assert_eq!(r.members(&col).unwrap(), vec![col.child("cn01")]);
        // A replayed replace keeps them as well: its record need not carry them.
        r.apply_record(WalRecord::Replace {
            id: col.as_str().to_string(),
            body: json!({"Name": "Systems v4"}),
            etag: 80,
        });
        assert_eq!(r.members(&col).unwrap(), vec![col.child("cn01")]);
        // A collection installed without the array is a collection like any
        // other: its members are its children. One installed with a stale
        // array (an older snapshot's) lists its children, not the array.
        r.apply_record(WalRecord::InstallResource {
            id: col.as_str().to_string(),
            body: json!({"Name": "Systems"}),
            etag: 90,
            is_collection: true,
        });
        assert_eq!(r.members(&col).unwrap(), vec![col.child("cn01")]);
        r.apply_record(WalRecord::InstallResource {
            id: col.as_str().to_string(),
            body: json!({"Name": "Systems", "Members": [{"@odata.id": "/redfish/v1/Systems/gone"}], "Members@odata.count": 1}),
            etag: 91,
            is_collection: true,
        });
        assert_eq!(r.members(&col).unwrap(), vec![col.child("cn01")]);
        assert_eq!(
            r.get(&col).unwrap().body["Members"],
            json!([{"@odata.id": "/redfish/v1/Systems/cn01"}])
        );
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
        let v: Value = serde_json::from_slice(&r.expand(&col).unwrap()).unwrap();
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
