//! Static lock-order inference: the whole-workspace lock graph.
//!
//! A lightweight intra-function pass over the masked source extracts every
//! shim lock acquisition (`.lock()` / `.read()` / `.write()` and their
//! `try_` forms), tracks how long each guard is statically live (a
//! `let`-bound guard to the end of its block, an `if let`/`while let`
//! scrutinee temporary through the body, a plain temporary to the end of
//! its statement), and records every call made while guards are held. An
//! interprocedural fixpoint then closes the call graph: an edge `A → B`
//! means "a path exists that acquires B while holding A".
//!
//! Three deliberate over-approximations keep the static graph a superset
//! of anything the runtime `lockcheck` shim can witness:
//!
//! * guard scopes extend to the end of their block even when the guard is
//!   dropped early;
//! * a `let`-bound call to a guard-returning function (return type names a
//!   `Guard` or a lifetime-carrying `Span<'…>`) holds everything that
//!   function can acquire until the end of the caller's block;
//! * a closure argument is assumed to run at every callback-invocation
//!   point of the callee (`snapshot_with`-style callbacks run under the
//!   callee's locks).
//!
//! Cycle detection runs over *lock keys*, not sites: a key is the final
//! field/binding segment of the receiver chain scoped by file
//! (`self.shards[i].tree` and `s.tree` in the same file are one key), so
//! an AB/BA inversion split across two functions — which the runtime shim
//! can only see when a single run executes both orders — collapses onto a
//! two-node key cycle the static pass finds from source alone. Same-key
//! self-edges (ascending multi-shard spans) are excluded from SCC and
//! reported as `lock-discipline` findings instead.

use crate::scan::FileScan;
use crate::Diagnostic;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Acquisition mode, matching the shim's vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `Mutex::lock`.
    Lock,
    /// `RwLock::read`.
    Read,
    /// `RwLock::write`.
    Write,
}

impl Mode {
    fn as_str(self) -> &'static str {
        match self {
            Mode::Lock => "lock",
            Mode::Read => "read",
            Mode::Write => "write",
        }
    }
}

/// One static lock-acquisition site.
#[derive(Debug, Clone)]
pub struct Site {
    /// Repo-relative path.
    pub file: String,
    /// 1-based line of the `.lock()`/`.read()`/`.write()` call.
    pub line: usize,
    /// Acquisition mode.
    pub mode: Mode,
    /// Whether this is a `try_*` form (joins held sets, never blocks).
    pub tried: bool,
    /// Lock key: `file#last-receiver-segment`, the cycle-detection node.
    pub key: String,
    /// Reconstructed receiver expression (for reports).
    pub receiver: String,
    /// Inside an iterator-closure whose result carries the guard: the site
    /// may re-acquire its own key (multi-shard spans).
    pub repeated: bool,
    /// Inside `#[cfg(test)]` or an integration-test file.
    pub test: bool,
}

/// A directed site-pair edge: `to` acquired while `from` is held.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Index into [`LockModel::sites`] of the held acquisition.
    pub from: usize,
    /// Index into [`LockModel::sites`] of the later acquisition.
    pub to: usize,
}

/// A blocking operation statically reachable while a guard is held.
#[derive(Debug, Clone)]
pub struct BlockingSite {
    /// Repo-relative path.
    pub file: String,
    /// 1-based line of the blocking call.
    pub line: usize,
    /// What blocks (pattern label).
    pub what: &'static str,
    /// Site indices held at the call.
    pub held: Vec<usize>,
    /// Inside test code.
    pub test: bool,
}

/// A function's extent, for mapping runtime sites back to their function.
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// Repo-relative path.
    pub file: String,
    /// Function name.
    pub name: String,
    /// 1-based first line.
    pub start_line: usize,
    /// 1-based last line.
    pub end_line: usize,
}

/// The whole-workspace static lock model.
#[derive(Debug, Default)]
pub struct LockModel {
    /// Every acquisition site.
    pub sites: Vec<Site>,
    /// Deduplicated site-pair edges.
    pub edges: Vec<Edge>,
    /// Blocking-while-locked sites.
    pub blocking: Vec<BlockingSite>,
    /// Function extents.
    pub fns: Vec<FnSpan>,
}

/// Method names that *are* acquisitions when called with no arguments,
/// never interprocedural calls. With arguments they are ordinary calls:
/// `Registry::read(id, f)` takes the stripe lock inside.
const ACQ_METHODS: [(&str, Mode, bool); 6] = [
    ("lock", Mode::Lock, false),
    ("read", Mode::Read, false),
    ("write", Mode::Write, false),
    ("try_lock", Mode::Lock, true),
    ("try_read", Mode::Read, true),
    ("try_write", Mode::Write, true),
];

/// Ubiquitous std method names never resolved against workspace functions
/// (resolving `.clone()` to some in-tree `fn clone` would wire the whole
/// graph together through noise).
const CALL_DENYLIST: [&str; 45] = [
    "push",
    "pop",
    "drop",
    "clone",
    "to_string",
    "to_vec",
    "to_owned",
    "into",
    "from",
    "iter",
    "into_iter",
    "next",
    "collect",
    "map",
    "filter",
    "unwrap",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "expect",
    "ok",
    "err",
    "as_ref",
    "as_deref",
    "as_str",
    "as_bytes",
    "split",
    "trim",
    "parse",
    "extend",
    "sort",
    "sort_by",
    "cmp",
    "eq",
    "hash",
    "min",
    "max",
    // `use`-imported std/shim free functions and asm! operand keywords that
    // read as bare calls: none dispatch to stored closures.
    "catch_unwind",
    "bounded",
    "unbounded",
    "out",
    "inout",
    "lateout",
    "inlateout",
    "options",
];

/// Method names too common to resolve across files (almost every `.len()`
/// is `Vec::len`), but that in-tree containers do implement over a lock
/// (`StripedRecorder::len` sums `stripe.lock().len()`): resolved against
/// same-file definitions only.
const COMMON_SAME_FILE: [&str; 6] = ["len", "is_empty", "get", "insert", "remove", "contains"];

/// Qualifier path segments that mark a std/external call (`File::create`,
/// `Vec::new`, …) — never resolved in-workspace.
const QUAL_DENYLIST: [&str; 20] = [
    "File",
    "OpenOptions",
    "Vec",
    "String",
    "HashMap",
    "HashSet",
    "BTreeMap",
    "BTreeSet",
    "VecDeque",
    "Instant",
    "Duration",
    "PathBuf",
    "Path",
    "Arc",
    "Box",
    "Ordering",
    "AtomicU64",
    "AtomicBool",
    "std",
    "thread",
];

/// Blocking-call patterns over masked source. Longest-match-first where
/// prefixes overlap.
const BLOCKING_PATTERNS: [(&str, &str); 19] = [
    (".write_all(", "file write"),
    (".sync_all(", "fsync"),
    (".sync_data(", "fsync"),
    ("File::create(", "file create"),
    ("File::open(", "file open"),
    ("OpenOptions::new", "writable file open"),
    ("fs::read_to_string(", "file read"),
    ("fs::read(", "file read"),
    ("fs::write(", "file write"),
    ("fs::rename(", "file rename"),
    ("fs::remove_file(", "file unlink"),
    (".set_len(", "file truncate"),
    (".wait_ms(", "Clock::wait_ms"),
    ("thread::sleep", "thread sleep"),
    (".join()", "thread join"),
    (".recv()", "channel recv"),
    (".recv_timeout(", "channel recv"),
    (".send(", "blocking channel send"),
    (".wait(", "blocking wait"),
];

// -------------------------------------------------------------------------
// per-function parse products
// -------------------------------------------------------------------------

#[derive(Debug)]
struct PFn {
    file_idx: usize,
    /// Defined in an integration-test or fixture file: never a resolution
    /// target from another file (production code cannot call into tests).
    test_file: bool,
    /// Self type of the enclosing `impl` block (empty for free functions):
    /// lets `Type::assoc(…)` calls resolve only against that type's fns.
    owner: String,
    name: String,
    params: Vec<String>,
    /// Some parameter is closure-capable (`impl Fn…`, `f: F`, `fn(…)`):
    /// only these fns can be the target of a call with a closure argument,
    /// which keeps iterator adapters (`.find(|x| …)`) from resolving to
    /// same-named workspace methods.
    takes_closure: bool,
    ret_text: String,
    body: (usize, usize), // byte span of `{ … }` in the masked text
    /// Direct acquisitions: (global site idx, pos, scope_end).
    acqs: Vec<(usize, usize, usize)>,
    /// Calls made in the body.
    calls: Vec<PCall>,
    /// Positions where a *parameter* is invoked (callback points), with the
    /// positions of the invocation (held sets resolved later).
    cb_invokes: Vec<usize>,
    /// Blocking-pattern occurrences: (pos, label).
    blocks: Vec<(usize, &'static str)>,
    /// Byte spans of closures escaping through `Box::new(…)` (stored
    /// callbacks like the snapshot provider): targets of indirect calls.
    boxed_spans: Vec<(usize, usize)>,
    /// Locals with a known self type (`let r = FlightRecorder::new();`):
    /// method calls on these resolve against that type's impl blocks only.
    local_types: HashMap<String, String>,
}

#[derive(Debug)]
struct PCall {
    pos: usize,
    callee: String,
    /// Reconstructed receiver chain (`self`, `self.registry`, `w`, …);
    /// empty for bare calls.
    recv: String,
    /// `.name(…)` method-call syntax (vs a bare `name(…)`).
    method: bool,
    /// Argument count (top-level commas + 1; 0 for `()`).
    arity: usize,
    /// `path::name(…)` — has any `::` qualifier (so it cannot be a call
    /// through a local closure variable).
    qualified: bool,
    /// The qualifier's last path segment (`Registry` for
    /// `redfish::Registry::new(…)`); empty for unqualified calls.
    qualifier: String,
    /// The callee is a closure literal `let`-bound in this same body
    /// (`let f = |x| …; f(y)`) — intra-function, never indirect dispatch.
    local_closure: bool,
    qualified_std: bool,
    /// `let`-bound statement (candidate guard-holding call).
    let_bound: bool,
    scope_end: usize,
    /// Byte spans of inline-closure arguments.
    closure_spans: Vec<(usize, usize)>,
}

struct FileCtx<'a> {
    path: &'a str,
    masked: &'a [u8],
    scan: &'a FileScan,
    is_test_file: bool,
    line_of: Vec<usize>, // byte pos → 1-based line
}

impl LockModel {
    /// Build the model from scanned files (`(repo-relative path, scan)`),
    /// where `test_files` marks integration-test files (everything in them
    /// is test code).
    pub fn build(files: &[(String, FileScan)], test_files: &HashSet<String>) -> LockModel {
        let mut model = LockModel::default();
        let mut pfns: Vec<PFn> = Vec::new();

        for (file_idx, (path, scan)) in files.iter().enumerate() {
            let ctx = FileCtx {
                path,
                masked: scan.masked.as_bytes(),
                scan,
                is_test_file: test_files.contains(path),
                line_of: line_table(scan.masked.as_bytes()),
            };
            extract_fns(&ctx, file_idx, &mut model, &mut pfns);
        }

        // Name index for call resolution.
        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        for (i, f) in pfns.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_default().push(i);
        }
        // Same-file-first resolution applies only to `self` methods and
        // bare calls: `w.record()` under a journal guard must union every
        // in-tree `record` even when the caller's file defines one, or the
        // cross-crate edge into the WAL vanishes. `COMMON_SAME_FILE` names
        // resolve same-file only (ubiquitous std names with a few in-tree
        // lock-taking implementations).
        let resolve =
            |c: &PCall, file_idx: usize, caller_owner: &str, locals: &HashMap<String, String>| -> Vec<usize> {
                let (callee, recv, arity) = (c.callee.as_str(), c.recv.as_str(), c.arity);
                if CALL_DENYLIST.contains(&callee) || (is_acq_method(callee) && arity == 0) {
                    return Vec::new();
                }
                let Some(all) = by_name.get(callee) else {
                    return Vec::new();
                };
                // Production code cannot call into test/fixture files.
                let mut cands: Vec<usize> = all
                    .iter()
                    .copied()
                    .filter(|&i| pfns[i].file_idx == file_idx || !pfns[i].test_file)
                    .collect();
                // A closure argument can only bind to a closure-capable param:
                // `.find(|x| …)` is an iterator adapter, not `Composer::find`.
                if !c.closure_spans.is_empty() {
                    cands.retain(|&i| pfns[i].takes_closure);
                }
                // `Type::assoc(…)`: only that type's impl blocks define it. A
                // lowercase qualifier (`crate::test_guard`, `module::helper`)
                // is a module path: the target is a free function.
                if !c.qualifier.is_empty() {
                    if c.qualifier == "Self" {
                        // `Self::helper(…)`: the caller's own impl block.
                        cands.retain(|&i| pfns[i].owner == caller_owner && pfns[i].file_idx == file_idx);
                    } else if c.qualifier.chars().next().is_some_and(|ch| ch.is_ascii_uppercase()) {
                        cands.retain(|&i| pfns[i].owner == c.qualifier);
                    } else {
                        cands.retain(|&i| pfns[i].owner.is_empty());
                    }
                    // UFCS method form passes the receiver positionally, so the
                    // arity filter stays lenient here.
                    if cands.iter().any(|&i| pfns[i].params.len() == arity) {
                        cands.retain(|&i| pfns[i].params.len() == arity);
                    }
                    return cands;
                }
                // Arity disambiguates name collisions (`b.record(input, now)` is
                // not `Wal::record(&self, rec)`). Method-call and bare-call arity
                // both equal the candidate's param count (`params` excludes
                // `self`), so the match is exact.
                cands.retain(|&i| pfns[i].params.len() == arity);
                // Bare-call form (`apply(a, b)`, no receiver): a cross-file
                // `&self` method can never be in scope under that syntax — only
                // free functions and same-file items are candidates.
                if recv.is_empty() {
                    cands.retain(|&i| pfns[i].owner.is_empty() || pfns[i].file_idx == file_idx);
                }
                // `let r = FlightRecorder::new(); r.get(…)`: the receiver's type
                // is known — resolve against that impl block only.
                if let Some(ty) = locals.get(recv) {
                    cands.retain(|&i| pfns[i].owner == *ty);
                    return cands;
                }
                let same_file: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&i| pfns[i].file_idx == file_idx)
                    .collect();
                if COMMON_SAME_FILE.contains(&callee) {
                    // Container-method names (`get`, `len`, `insert`, …) only
                    // resolve to a same-file workspace fn when called on `self`:
                    // `wire.read().get(id)` is a map lookup behind a guard, not
                    // `Registry::get`.
                    if recv.is_empty() || recv == "self" {
                        return same_file;
                    }
                    return Vec::new();
                }
                if (recv.is_empty() || recv == "self") && !same_file.is_empty() {
                    same_file
                } else {
                    cands
                }
            };
        // A bare unqualified call to a name no workspace `fn` defines is an
        // indirect call through a local (a stored closure invoked as
        // `provider()`).
        let indirect = |c: &PCall| -> bool {
            !c.method
                && !c.qualified
                && !c.local_closure
                && !by_name.contains_key(c.callee.as_str())
                && !CALL_DENYLIST.contains(&c.callee.as_str())
                && !is_acq_method(&c.callee)
        };

        // reach(F): every site F can acquire, directly or transitively.
        let mut reach: Vec<BTreeSet<usize>> = pfns
            .iter()
            .map(|f| f.acqs.iter().map(|&(s, _, _)| s).collect())
            .collect();
        let saturate = |reach: &mut Vec<BTreeSet<usize>>| loop {
            let mut changed = false;
            for i in 0..pfns.len() {
                let mut add: BTreeSet<usize> = BTreeSet::new();
                for c in &pfns[i].calls {
                    if c.qualified_std {
                        continue;
                    }
                    for &g in &resolve(c, pfns[i].file_idx, &pfns[i].owner, &pfns[i].local_types) {
                        for &s in &reach[g] {
                            if !reach[i].contains(&s) {
                                add.insert(s);
                            }
                        }
                    }
                }
                if !add.is_empty() {
                    reach[i].extend(add);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        };
        saturate(&mut reach);
        // Indirect calls conservatively reach every boxed-escaping closure;
        // alternate with plain saturation until both are stable (the boxed
        // closures' own reach depends on the call fixpoint and vice versa).
        let boxed_reach_of = |reach: &Vec<BTreeSet<usize>>| -> BTreeSet<usize> {
            let mut out: BTreeSet<usize> = BTreeSet::new();
            for f in pfns.iter() {
                for &(a, bnd) in &f.boxed_spans {
                    for &(s, pos, _) in &f.acqs {
                        if a <= pos && pos < bnd {
                            out.insert(s);
                        }
                    }
                    for c in &f.calls {
                        if c.qualified_std || c.pos < a || c.pos >= bnd {
                            continue;
                        }
                        for &g in &resolve(c, f.file_idx, &f.owner, &f.local_types) {
                            out.extend(reach[g].iter().copied());
                        }
                    }
                }
            }
            out
        };
        if std::env::var("OFMF_LOCKGRAPH_DEBUG").is_ok() {
            for f in pfns.iter() {
                for c in &f.calls {
                    if indirect(c) {
                        eprintln!("indirect: {} calls {}()", f.name, c.callee);
                    } else if std::env::var("OFMF_LOCKGRAPH_DEBUG").as_deref() == Ok("calls") {
                        eprintln!(
                            "call: {} -> {}(recv={} arity={} qual={} letb={}) => {} target(s)",
                            f.name,
                            c.callee,
                            c.recv,
                            c.arity,
                            c.qualifier,
                            c.let_bound,
                            resolve(c, f.file_idx, &f.owner, &f.local_types).len()
                        );
                    }
                }
            }
        }
        let mut boxed_reach;
        loop {
            boxed_reach = boxed_reach_of(&reach);
            let mut changed = false;
            for i in 0..pfns.len() {
                if pfns[i].calls.iter().any(&indirect) && !boxed_reach.iter().all(|s| reach[i].contains(s)) {
                    reach[i].extend(boxed_reach.iter().copied());
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            saturate(&mut reach);
        }

        // Guard-returning functions: a `let`-bound call to one holds its
        // whole reach set until the caller's scope ends.
        let guard_returning: Vec<bool> = pfns
            .iter()
            .map(|f| f.ret_text.contains("Guard") || f.ret_text.contains("Span<'"))
            .collect();

        // `fn drop` bodies per file: a let-bound call into a file with a
        // `Drop` impl may acquire that impl's locks when the binding dies
        // (a span guard flushing `spans.lock()` from `Drop::drop`).
        let mut drops_by_file: HashMap<usize, Vec<usize>> = HashMap::new();
        for (i, f) in pfns.iter().enumerate() {
            if f.name == "drop" {
                drops_by_file.entry(f.file_idx).or_default().push(i);
            }
        }

        // `OFMF_LOCKGRAPH_EXPLAIN="from-substr->to-substr"`: print the
        // function, call, and mechanism behind every matching edge.
        let explain = std::env::var("OFMF_LOCKGRAPH_EXPLAIN").ok();
        let sites_for_expl = &model.sites;
        let note = |from: usize, to: usize, fname: &str, why: &str| {
            if let Some(flt) = &explain {
                if let Some((fa, fb)) = flt.split_once("->") {
                    let sa = format!("{}:{}", sites_for_expl[from].file, sites_for_expl[from].line);
                    let sb = format!("{}:{}", sites_for_expl[to].file, sites_for_expl[to].line);
                    if sa.contains(fa.trim()) && sb.contains(fb.trim()) {
                        eprintln!("explain: {sa} -> {sb} in fn {fname} [{why}]");
                    }
                }
            }
        };
        // Transitive blocking ops per fn, as (defining fn, block index):
        // a call made while holding a guard inherits every blocking op its
        // callee reaches, so the WAL fsync shows up under the registry's
        // stripe lock — reported at the fsync, with the caller's held set.
        let mut breach: Vec<BTreeSet<(usize, usize)>> = pfns
            .iter()
            .enumerate()
            .map(|(i, f)| f.blocks.iter().enumerate().map(|(bi, _)| (i, bi)).collect())
            .collect();
        loop {
            let mut changed = false;
            for i in 0..pfns.len() {
                let mut add: BTreeSet<(usize, usize)> = BTreeSet::new();
                for c in &pfns[i].calls {
                    if c.qualified_std {
                        continue;
                    }
                    for &g in &resolve(c, pfns[i].file_idx, &pfns[i].owner, &pfns[i].local_types) {
                        for &e in &breach[g] {
                            if !breach[i].contains(&e) {
                                add.insert(e);
                            }
                        }
                    }
                }
                if !add.is_empty() {
                    breach[i].extend(add);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        // Per function: held intervals (site, start, end), then edges.
        let mut edge_set: HashSet<Edge> = HashSet::new();
        let mut blocking: Vec<BlockingSite> = Vec::new();
        let mut blocking_seen: BTreeSet<(String, usize, &'static str, Vec<usize>)> = BTreeSet::new();
        for (i, f) in pfns.iter().enumerate() {
            let mut intervals: Vec<(usize, usize, usize)> = f.acqs.clone();
            for c in &f.calls {
                if !c.let_bound || c.qualified_std {
                    continue;
                }
                for &g in &resolve(c, f.file_idx, &f.owner, &f.local_types) {
                    if guard_returning[g] {
                        for &s in &reach[g] {
                            intervals.push((s, c.pos, c.scope_end));
                        }
                    }
                }
            }
            let held_at = |pos: usize| -> Vec<usize> {
                let mut h: Vec<usize> = intervals
                    .iter()
                    .filter(|&&(_, s, e)| s < pos && pos < e)
                    .map(|&(site, _, _)| site)
                    .collect();
                h.sort_unstable();
                h.dedup();
                h
            };
            // Acquisition-over-acquisition edges.
            for &(site, pos, _) in &f.acqs {
                for from in held_at(pos) {
                    if from != site {
                        note(from, site, &f.name, "acq-over-acq");
                        edge_set.insert(Edge { from, to: site });
                    }
                }
            }
            // Self-edges for repeated (iterator-span) sites.
            for &(site, _, _) in &f.acqs {
                if model.sites[site].repeated {
                    edge_set.insert(Edge { from: site, to: site });
                }
            }
            // Call edges: everything the callee reaches, acquired under the
            // caller's held set; plus callback closures running under the
            // callee's own locks.
            for c in &f.calls {
                if c.qualified_std {
                    continue;
                }
                let held = held_at(c.pos);
                let targets = resolve(c, f.file_idx, &f.owner, &f.local_types);
                for &g in &targets {
                    for &to in &reach[g] {
                        for &from in &held {
                            if from != to {
                                note(from, to, &f.name, &format!("call {} -> fn {}", c.callee, pfns[g].name));
                                edge_set.insert(Edge { from, to });
                            }
                        }
                    }
                }
                if targets.is_empty() && indirect(c) {
                    for &to in &boxed_reach {
                        for &from in &held {
                            if from != to {
                                note(from, to, &f.name, &format!("indirect {}()", c.callee));
                                edge_set.insert(Edge { from, to });
                            }
                        }
                    }
                }
                // Drop-path edges for let-bound returns.
                if c.let_bound {
                    for &g in &targets {
                        for d in drops_by_file
                            .get(&pfns[g].file_idx)
                            .map(|v| v.as_slice())
                            .unwrap_or(&[])
                        {
                            for &to in &reach[*d] {
                                for &from in &held {
                                    if from != to {
                                        note(from, to, &f.name, &format!("drop-path of let-bound {}", c.callee));
                                        edge_set.insert(Edge { from, to });
                                    }
                                }
                            }
                        }
                    }
                }
                if !c.closure_spans.is_empty() {
                    // What can the closure body acquire?
                    let mut closure_reach: BTreeSet<usize> = BTreeSet::new();
                    for &(s, pos, _) in &f.acqs {
                        if c.closure_spans.iter().any(|&(a, b)| a <= pos && pos < b) {
                            closure_reach.insert(s);
                        }
                    }
                    for inner in &f.calls {
                        if inner.qualified_std || std::ptr::eq(inner, c) {
                            continue;
                        }
                        if c.closure_spans.iter().any(|&(a, b)| a <= inner.pos && inner.pos < b) {
                            for &g in &resolve(inner, f.file_idx, &f.owner, &f.local_types) {
                                closure_reach.extend(reach[g].iter().copied());
                            }
                            if inner.callee != c.callee && indirect(inner) {
                                closure_reach.extend(boxed_reach.iter().copied());
                            }
                        }
                    }
                    if closure_reach.is_empty() {
                        continue;
                    }
                    for &g in &targets {
                        for &inv_pos in &pfns[g].cb_invokes {
                            // Held set of the callee at its callback point:
                            // its own direct intervals.
                            let callee_held: Vec<usize> = pfns[g]
                                .acqs
                                .iter()
                                .filter(|&&(_, s, e)| s < inv_pos && inv_pos < e)
                                .map(|&(site, _, _)| site)
                                .collect();
                            for &from in &callee_held {
                                for &to in &closure_reach {
                                    if from != to {
                                        note(
                                            from,
                                            to,
                                            &f.name,
                                            &format!("closure arg of {} under callee locks", c.callee),
                                        );
                                        edge_set.insert(Edge { from, to });
                                    }
                                }
                            }
                        }
                    }
                }
            }
            // Blocking calls under held guards.
            for &(pos, what) in &f.blocks {
                let held = held_at(pos);
                if held.is_empty() {
                    continue;
                }
                let (path, scan) = &files[f.file_idx];
                let line = line_at(&ctx_line_table_cache(scan), pos);
                if blocking_seen.insert((path.clone(), line, what, held.clone())) {
                    blocking.push(BlockingSite {
                        file: path.clone(),
                        line,
                        what,
                        held,
                        test: scan.is_test_line(line) || test_files.contains(path),
                    });
                }
            }
            // Interprocedural: a call under a guard surfaces the callee's
            // transitive blocking ops with this caller's held set (the op
            // itself may live in a fn that takes the locked state by
            // parameter and holds nothing directly).
            for c in &f.calls {
                if c.qualified_std {
                    continue;
                }
                let held = held_at(c.pos);
                if held.is_empty() {
                    continue;
                }
                let caller_test = {
                    let (path, scan) = &files[f.file_idx];
                    let line = line_at(&ctx_line_table_cache(scan), c.pos);
                    scan.is_test_line(line) || test_files.contains(path)
                };
                let mut inherited: BTreeSet<(usize, usize)> = BTreeSet::new();
                for &g in &resolve(c, f.file_idx, &f.owner, &f.local_types) {
                    inherited.extend(breach[g].iter().copied());
                }
                for (gf, bi) in inherited {
                    if gf == i {
                        continue;
                    }
                    let (pos, what) = pfns[gf].blocks[bi];
                    let (path, scan) = &files[pfns[gf].file_idx];
                    let line = line_at(&ctx_line_table_cache(scan), pos);
                    if blocking_seen.insert((path.clone(), line, what, held.clone())) {
                        blocking.push(BlockingSite {
                            file: path.clone(),
                            line,
                            what,
                            held: held.clone(),
                            test: caller_test || scan.is_test_line(line) || test_files.contains(path),
                        });
                    }
                }
            }
            let _ = i;
        }

        let mut edges: Vec<Edge> = edge_set.into_iter().collect();
        edges.sort_by_key(|e| (e.from, e.to));
        model.edges = edges;
        model.blocking = blocking;
        model
    }

    /// Key-level cycles via Tarjan SCC, ignoring same-key self-edges and
    /// any edge in `suppressed`. Each cycle is the sorted set of keys plus
    /// the backing site-edges.
    pub fn key_cycles(&self, suppressed: &HashSet<Edge>) -> Vec<(Vec<String>, Vec<Edge>)> {
        let mut keys: Vec<&str> = self.sites.iter().map(|s| s.key.as_str()).collect();
        keys.sort_unstable();
        keys.dedup();
        let key_idx: HashMap<&str, usize> = keys.iter().enumerate().map(|(i, &k)| (k, i)).collect();
        let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); keys.len()];
        for e in &self.edges {
            if suppressed.contains(e) {
                continue;
            }
            let (a, b) = (
                key_idx[self.sites[e.from].key.as_str()],
                key_idx[self.sites[e.to].key.as_str()],
            );
            if a != b {
                adj[a].insert(b);
            }
        }
        let sccs = tarjan(&adj);
        let mut out = Vec::new();
        for scc in sccs {
            if scc.len() < 2 {
                continue;
            }
            let in_scc: HashSet<usize> = scc.iter().copied().collect();
            let mut cycle_keys: Vec<String> = scc.iter().map(|&i| keys[i].to_string()).collect();
            cycle_keys.sort();
            let backing: Vec<Edge> = self
                .edges
                .iter()
                .filter(|e| {
                    !suppressed.contains(e)
                        && in_scc.contains(&key_idx[self.sites[e.from].key.as_str()])
                        && in_scc.contains(&key_idx[self.sites[e.to].key.as_str()])
                        && self.sites[e.from].key != self.sites[e.to].key
                })
                .copied()
                .collect();
            out.push((cycle_keys, backing));
        }
        out
    }

    /// Site lookup by `(file, line)` (runtime dumps address sites this way).
    pub fn site_at(&self, file: &str, line: usize) -> Option<usize> {
        self.sites.iter().position(|s| s.file == file && s.line == line)
    }

    /// The function containing `(file, line)`, innermost on ties.
    pub fn fn_containing(&self, file: &str, line: usize) -> Option<&FnSpan> {
        self.fns
            .iter()
            .filter(|f| f.file == file && f.start_line <= line && line <= f.end_line)
            .min_by_key(|f| f.end_line - f.start_line)
    }

    /// Describe a site as `file:line (mode receiver)`.
    pub fn describe(&self, idx: usize) -> String {
        let s = &self.sites[idx];
        format!("{}:{} ({} {})", s.file, s.line, s.mode.as_str(), s.receiver)
    }
}

/// Emit the `lock-discipline` and `no-blocking-while-locked` diagnostics
/// for the lint pass (suppression via `allow` happens in `finish`).
pub(crate) fn lock_rules(files: &[(String, FileScan)], out: &mut Vec<Diagnostic>) {
    let model = LockModel::build(files, &HashSet::new());
    diagnostics_from(&model, out);
}

/// Diagnostics from an already-built model.
pub(crate) fn diagnostics_from(model: &LockModel, out: &mut Vec<Diagnostic>) {
    // Repeated same-key acquisitions (multi-shard spans): intentional only
    // when every such span ascends a single global order — demand a stated
    // reason.
    for s in &model.sites {
        if s.repeated && !s.test {
            out.push(Diagnostic {
                file: s.file.clone(),
                line: s.line,
                rule: "lock-discipline",
                message: format!(
                    "`{}` is re-acquired inside an iterator closure while prior guards of the same key are held; \
                     safe only under a globally consistent (ascending) acquisition order — state it",
                    s.receiver
                ),
            });
        }
    }
    // Static key cycles: one diagnostic per backing site-edge, anchored at
    // the *second* acquisition (the inversion point).
    for (keys, backing) in model.key_cycles(&HashSet::new()) {
        for e in backing {
            out.push(Diagnostic {
                file: model.sites[e.to].file.clone(),
                line: model.sites[e.to].line,
                rule: "lock-discipline",
                message: format!(
                    "acquiring {} while holding {} participates in a potential-deadlock cycle over keys [{}]",
                    model.describe(e.to),
                    model.describe(e.from),
                    keys.join(" ⇄ ")
                ),
            });
        }
    }
    for b in &model.blocking {
        if b.test {
            continue;
        }
        let held: Vec<String> = b.held.iter().map(|&i| model.describe(i)).collect();
        out.push(Diagnostic {
            file: b.file.clone(),
            line: b.line,
            rule: "no-blocking-while-locked",
            message: format!(
                "{} while holding [{}]; move the blocking call out of the lock scope or justify the hold",
                b.what,
                held.join(", ")
            ),
        });
    }
}

// -------------------------------------------------------------------------
// extraction
// -------------------------------------------------------------------------

fn is_acq_method(name: &str) -> bool {
    ACQ_METHODS.iter().any(|&(m, _, _)| m == name)
}

fn line_table(bytes: &[u8]) -> Vec<usize> {
    let mut t = Vec::with_capacity(bytes.len() + 1);
    let mut line = 1usize;
    for &b in bytes {
        t.push(line);
        if b == b'\n' {
            line += 1;
        }
    }
    t.push(line);
    t
}

fn line_at(table: &[usize], pos: usize) -> usize {
    table.get(pos).copied().unwrap_or(1)
}

// The blocking pass needs a line table per file after the borrow of `ctx`
// ended; rebuilding is O(bytes) and files are small.
fn ctx_line_table_cache(scan: &FileScan) -> Vec<usize> {
    line_table(scan.masked.as_bytes())
}

/// Extract every `fn` in the file with its acquisitions, calls, callback
/// invocations and blocking patterns.
/// `impl` blocks in a file: `(body_start, body_end, owner-type name)`.
/// `impl Registry {` and `impl Drop for Span<'_> {` both yield the last
/// path segment of the self type with generics stripped.
fn impl_spans(b: &[u8]) -> Vec<(usize, usize, String)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while let Some(p) = find_word(b, b"impl", i) {
        i = p + 4;
        // Header up to the body `{` (angle-bracket generics can't contain
        // braces).
        let mut k = p + 4;
        while k < b.len() && b[k] != b'{' && b[k] != b';' {
            k += 1;
        }
        if k >= b.len() || b[k] != b'{' {
            continue;
        }
        let header = String::from_utf8_lossy(&b[p + 4..k]).into_owned();
        let Some(end) = matching(b, k, b'{', b'}') else {
            continue;
        };
        // Self type: after ` for ` when present, else the whole header
        // minus leading `<…>` generic params.
        let ty = match header.find(" for ") {
            Some(f) => &header[f + 5..],
            None => {
                let t = header.trim_start();
                if let Some(rest) = t.strip_prefix('<') {
                    // Skip the generic parameter list.
                    let mut depth = 1i32;
                    let mut idx = 0usize;
                    for (n, ch) in rest.char_indices() {
                        match ch {
                            '<' => depth += 1,
                            '>' => {
                                depth -= 1;
                                if depth == 0 {
                                    idx = n + 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                    }
                    &rest[idx..]
                } else {
                    t
                }
            }
        };
        let ty = ty.trim();
        let ty = ty.split(|c: char| c == '<' || c.is_whitespace()).next().unwrap_or("");
        let name = ty.rsplit("::").next().unwrap_or("").trim().to_string();
        if !name.is_empty() && name.chars().next().is_some_and(|c| c.is_ascii_alphabetic()) {
            out.push((k, end, name));
        }
    }
    out
}

fn extract_fns(ctx: &FileCtx<'_>, file_idx: usize, model: &mut LockModel, pfns: &mut Vec<PFn>) {
    let b = ctx.masked;
    let impls = impl_spans(b);
    let mut i = 0usize;
    while let Some(p) = find_word(b, b"fn", i) {
        i = p + 2;
        // Name.
        let mut j = p + 2;
        while j < b.len() && b[j].is_ascii_whitespace() {
            j += 1;
        }
        let name_start = j;
        while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
            j += 1;
        }
        if j == name_start {
            continue; // `fn` in e.g. `Fn(` bounds (masked strings can't hit)
        }
        let name = String::from_utf8_lossy(&b[name_start..j]).into_owned();
        // Skip an explicit generic list first: `fn for_each<F: FnMut(&A)>`
        // has parens *inside* `<…>` that must not be taken for the param
        // list. `->` inside a bound is an arrow, not a closing angle.
        while j < b.len() && b[j].is_ascii_whitespace() {
            j += 1;
        }
        if j < b.len() && b[j] == b'<' {
            let mut depth = 0i32;
            while j < b.len() {
                match b[j] {
                    b'<' => depth += 1,
                    b'>' if j > 0 && b[j - 1] == b'-' => {}
                    b'>' => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        // Generics, then params.
        while j < b.len() && b[j] != b'(' && b[j] != b'{' && b[j] != b';' {
            j += 1;
        }
        if j >= b.len() || b[j] != b'(' {
            continue;
        }
        let params_start = j + 1;
        let params_end = match matching(b, j, b'(', b')') {
            Some(e) => e,
            None => continue,
        };
        let params = param_names(&b[params_start..params_end]);
        let takes_closure = params_take_closure(&b[params_start..params_end]);
        // Return type / where-clause text up to the body brace (or `;` for
        // a trait signature without body).
        let mut k = params_end + 1;
        while k < b.len() && b[k] != b'{' && b[k] != b';' {
            k += 1;
        }
        if k >= b.len() || b[k] == b';' {
            continue;
        }
        let ret_text = String::from_utf8_lossy(&b[params_end + 1..k]).into_owned();
        let body_start = k;
        let body_end = match matching(b, body_start, b'{', b'}') {
            Some(e) => e,
            None => continue,
        };
        let start_line = line_at(&ctx.line_of, p);
        let end_line = line_at(&ctx.line_of, body_end);
        model.fns.push(FnSpan {
            file: ctx.path.to_string(),
            name: name.clone(),
            start_line,
            end_line,
        });
        let owner = impls
            .iter()
            .filter(|&&(s, e, _)| s < p && p < e)
            .min_by_key(|&&(s, e, _)| e - s)
            .map(|(_, _, n)| n.clone())
            .unwrap_or_default();
        let mut pfn = PFn {
            file_idx,
            test_file: ctx.is_test_file,
            owner,
            name,
            params,
            takes_closure,
            ret_text,
            body: (body_start, body_end),
            acqs: Vec::new(),
            calls: Vec::new(),
            cb_invokes: Vec::new(),
            blocks: Vec::new(),
            boxed_spans: Vec::new(),
            local_types: HashMap::new(),
        };
        for (pname, ptype) in param_types(&b[params_start..params_end]) {
            pfn.local_types.insert(pname, ptype);
        }
        walk_body(ctx, model, &mut pfn);
        pfns.push(pfn);
        i = body_start + 1; // nested fns are re-found inside; acceptable
    }
}

/// Walk one function body: acquisitions, calls, callbacks, blocking sites.
/// Keywords and binding forms that look like calls to the identifier scan
/// (`let (a, b) = …`, `for (k, v) in …`, asm `in("rdi")`) but aren't.
const KEYWORDS: [&str; 22] = [
    "let", "for", "in", "if", "while", "match", "loop", "return", "break", "continue", "move", "fn", "pub", "unsafe",
    "as", "ref", "mut", "else", "dyn", "await", "yield", "where",
];

/// Names bound to closure literals in `body` (`let f = |x| …;`,
/// `let f = move |x| …;`): calls through them stay intra-function, so
/// they must not be treated as indirect dispatch to boxed callbacks.
fn closure_bound_names(b: &[u8], lo: usize, hi: usize) -> std::collections::HashSet<String> {
    let mut out = std::collections::HashSet::new();
    let text = std::str::from_utf8(&b[lo..hi]).unwrap_or("");
    let mut from = 0usize;
    while let Some(p) = text[from..].find("let ") {
        let mut r = &text[from + p + 4..];
        from += p + 4;
        r = r.trim_start();
        r = r.strip_prefix("mut ").unwrap_or(r).trim_start();
        let name: String = r
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if name.is_empty() {
            continue;
        }
        // Up to `=` within this statement only.
        let Some(eq) = r.find('=') else { continue };
        if r[..eq].contains(';') {
            continue;
        }
        let rhs = r[eq + 1..].trim_start();
        if rhs.starts_with('|') || rhs.starts_with("move ") || rhs.starts_with("move|") {
            out.insert(name);
        }
    }
    out
}

fn walk_body(ctx: &FileCtx<'_>, model: &mut LockModel, pfn: &mut PFn) {
    let b = ctx.masked;
    let (lo, hi) = pfn.body;
    let closures = closure_spans(b, lo, hi);
    let local_closures = closure_bound_names(b, lo, hi);
    let mut i = lo;
    while i < hi {
        // Attributes: `#[cfg(any(…))]` predicates read as bare calls.
        if b[i] == b'#' {
            let mut a = i + 1;
            while a < hi && b[a].is_ascii_whitespace() {
                a += 1;
            }
            if a < hi && (b[a] == b'[' || (b[a] == b'!' && a + 1 < hi && b[a + 1] == b'[')) {
                let open = if b[a] == b'[' { a } else { a + 1 };
                i = matching(b, open, b'[', b']').map_or(hi, |e| e + 1);
                continue;
            }
        }
        if b[i] == b'.' || (b[i].is_ascii_alphabetic() || b[i] == b'_') {
            // Identifier run.
            let is_method = b[i] == b'.';
            let id_start = if is_method { i + 1 } else { i };
            let mut j = id_start;
            while j < hi && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                j += 1;
            }
            if j == id_start {
                i += 1;
                continue;
            }
            // Skip when this is the middle of a larger identifier.
            if !is_method && id_start > 0 && (b[id_start - 1].is_ascii_alphanumeric() || b[id_start - 1] == b'_') {
                i = j;
                continue;
            }
            let ident = std::str::from_utf8(&b[id_start..j]).unwrap_or("");
            // Keywords (`let (a, b)`, `for (k, v)`) and attribute names
            // (`#[cfg(test)]`) aren't calls.
            if !is_method && (KEYWORDS.contains(&ident) || (id_start > 0 && b[id_start - 1] == b'[')) {
                i = j;
                continue;
            }
            // Call or acquisition? needs `(` next (whitespace allowed).
            let mut k = j;
            while k < hi && (b[k] == b' ' || b[k] == b'\n') {
                k += 1;
            }
            if k >= hi || b[k] != b'(' {
                i = j;
                continue;
            }
            let args_end = matching(b, k, b'(', b')').unwrap_or(hi);
            let empty_args = b[k + 1..args_end.min(hi)].iter().all(|&c| c.is_ascii_whitespace());
            if let Some(&(_, mode, tried)) = ACQ_METHODS
                .iter()
                .find(|&&(m, _, _)| m == ident && is_method && empty_args)
            {
                let dot = id_start - 1;
                let receiver = receiver_chain(b, lo, dot);
                let line = line_at(&ctx.line_of, id_start);
                // Index/call groups don't name the lock: `self.shards[i].tree`
                // keys as `tree`, `self.stripes[h % N]` as `stripes`.
                let flat = strip_groups(&receiver);
                let key_seg = flat
                    .rsplit('.')
                    .next()
                    .unwrap_or(&flat)
                    .trim_matches(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                    .to_string();
                let key = format!("{}#{}", ctx.path, if key_seg.is_empty() { &flat } else { &key_seg });
                let in_closure = closures.iter().find(|c| c.body.0 <= dot && dot < c.body.1);
                let repeated = in_closure.is_some_and(|c| c.iterator_method && !let_bound_inside(b, c.body.0, dot));
                let scope_end = guard_scope_end(b, lo, hi, dot, args_end, ctx);
                let site_idx = model.sites.len();
                model.sites.push(Site {
                    file: ctx.path.to_string(),
                    line,
                    mode,
                    tried,
                    key,
                    receiver,
                    repeated,
                    test: ctx.is_test_file || ctx.scan.is_test_line(line),
                });
                pfn.acqs.push((site_idx, id_start, scope_end));
                i = k + 1;
                continue;
            }
            // Interprocedural call.
            let qualified = !is_method && id_start >= 2 && b[id_start - 1] == b':' && b[id_start - 2] == b':';
            let qualified_std = qualified && qualifier_is_std(b, lo, id_start - 2);
            let qualifier = if qualified {
                let mut q = id_start - 2;
                while q > lo && (b[q - 1].is_ascii_alphanumeric() || b[q - 1] == b'_') {
                    q -= 1;
                }
                String::from_utf8_lossy(&b[q..id_start - 2]).into_owned()
            } else {
                String::new()
            };
            if pfn.params.iter().any(|p| p == ident) && !is_method {
                pfn.cb_invokes.push(id_start);
            } else if !ident.is_empty() && !ident.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                let scope_end = guard_scope_end(b, lo, hi, id_start, args_end, ctx);
                pfn.calls.push(PCall {
                    pos: id_start,
                    callee: ident.to_string(),
                    recv: if is_method {
                        receiver_chain(b, lo, id_start - 1)
                    } else {
                        String::new()
                    },
                    method: is_method,
                    arity: call_arity(b, k, args_end),
                    qualified,
                    qualifier,
                    local_closure: !is_method && local_closures.contains(ident),
                    qualified_std,
                    let_bound: stmt_is_let(b, lo, id_start),
                    scope_end,
                    // Only closures that are *top-level* arguments of this
                    // call (paren depth 0 relative to its `(`): a closure
                    // nested in a sub-expression argument belongs to the
                    // inner call and runs during argument evaluation, not
                    // under this callee's locks.
                    closure_spans: closures
                        .iter()
                        .filter(|c| {
                            k < c.body.0
                                && c.body.1 <= args_end + 1
                                && b[k + 1..c.body.0].iter().fold(0i32, |d, &ch| match ch {
                                    b'(' | b'[' | b'{' => d + 1,
                                    b')' | b']' | b'}' => d - 1,
                                    _ => d,
                                }) == 0
                        })
                        .map(|c| c.body)
                        .collect(),
                });
                // `let r = FlightRecorder::new();` — remember the local's
                // self type so `r.get(…)` resolves against that impl only.
                // Chained initializers (`…::new().x()`) don't bind the
                // constructed type, so require the call to end the statement.
                if let Some(c) = pfn.calls.last() {
                    if c.let_bound && c.qualifier.chars().next().is_some_and(|ch| ch.is_ascii_uppercase()) {
                        let mut q = args_end + 1;
                        while q < hi && (b[q].is_ascii_whitespace() || b[q] == b'?') {
                            q += 1;
                        }
                        if q < hi && b[q] == b';' {
                            if let Some(ls) = let_binding_start(b, lo, id_start) {
                                if let Some(name) = let_bound_name(b, ls) {
                                    pfn.local_types.insert(name, c.qualifier.clone());
                                }
                            }
                        }
                    }
                }
            }
            i = k + 1;
            continue;
        }
        i += 1;
    }
    // Closures escaping through `Box::new(…)`: stored callbacks a later
    // indirect call (`provider()`) may run under arbitrary held locks.
    {
        let text = std::str::from_utf8(&b[lo..hi]).unwrap_or("");
        let mut from = 0usize;
        while let Some(p) = text[from..].find("Box::new(") {
            let open = lo + from + p + "Box::new".len();
            from += p + 1;
            let Some(close) = matching(b, open, b'(', b')') else {
                continue;
            };
            for c in &closures {
                if open < c.body.0 && c.body.1 <= close + 1 {
                    pfn.boxed_spans.push(c.body);
                }
            }
        }
    }
    // Blocking patterns (textual; positions inside the body only).
    let text = std::str::from_utf8(&b[lo..hi]).unwrap_or("");
    let mut claimed: Vec<(usize, usize)> = Vec::new();
    for (pat, label) in BLOCKING_PATTERNS {
        let mut from = 0usize;
        while let Some(p) = text[from..].find(pat) {
            let pos = lo + from + p;
            let args_at = from + p + pat.len();
            from += p + 1;
            if claimed.iter().any(|&(s, e)| pos >= s && pos < e) {
                continue;
            }
            // `.write_all()` with no argument is a workspace lock helper
            // (Registry's all-shard write span), not `io::Write::write_all`.
            if pat == ".write_all(" && text[args_at..].trim_start().starts_with(')') {
                continue;
            }
            claimed.push((pos, pos + pat.len()));
            pfn.blocks.push((pos, label));
        }
    }
}

/// `let`-bound *within* the closure body (the guard does not escape into
/// the closure's result).
fn let_bound_inside(b: &[u8], closure_start: usize, pos: usize) -> bool {
    stmt_is_let(b, closure_start, pos)
}

/// Does the qualifier ending at `colon_pos` (exclusive) belong to a std
/// type/path?
fn qualifier_is_std(b: &[u8], lo: usize, colon_pos: usize) -> bool {
    let mut j = colon_pos;
    while j > lo && (b[j - 1].is_ascii_alphanumeric() || b[j - 1] == b'_') {
        j -= 1;
    }
    let qual = std::str::from_utf8(&b[j..colon_pos]).unwrap_or("");
    QUAL_DENYLIST.contains(&qual)
}

/// Reconstructed receiver chain ending at the `.` at `dot`: walks back over
/// `ident`, `[…]`, `(…)` and `.` segments, skipping whitespace so a
/// multi-line builder chain (`self.state\n    .lock()`) still resolves.
/// The result has all whitespace removed.
fn receiver_chain(b: &[u8], lo: usize, dot: usize) -> String {
    let mut start = dot;
    let mut j = dot;
    loop {
        while j > lo && (b[j - 1] == b' ' || b[j - 1] == b'\n') {
            j -= 1;
        }
        // One segment backwards.
        let seg_end = j;
        while j > lo {
            let c = b[j - 1];
            if c == b']' || c == b')' {
                match matching_back(b, lo, j - 1) {
                    Some(open) => j = open,
                    None => break,
                }
            } else if c.is_ascii_alphanumeric() || c == b'_' {
                j -= 1;
            } else {
                break;
            }
        }
        if j == seg_end {
            break;
        }
        start = j;
        let mut w = j;
        while w > lo && (b[w - 1] == b' ' || b[w - 1] == b'\n') {
            w -= 1;
        }
        if w > lo && b[w - 1] == b'.' {
            j = w - 1;
            continue;
        }
        break;
    }
    String::from_utf8_lossy(&b[start..dot])
        .chars()
        .filter(|c| !c.is_whitespace())
        .collect()
}

/// Argument count of a call with parens at `[open, args_end]`: top-level
/// commas + 1, or 0 for `()`.
fn call_arity(b: &[u8], open: usize, args_end: usize) -> usize {
    let inner = &b[open + 1..args_end.min(b.len())];
    if inner.iter().all(|&c| c.is_ascii_whitespace()) {
        return 0;
    }
    let mut depth = 0i32;
    let mut commas = 0usize;
    // Toggle on `|` so inline-closure parameter commas (`fold(0, |a, b| …)`)
    // don't count as argument separators.
    let mut in_pipes = false;
    for &c in inner {
        match c {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            b'|' if depth == 0 => in_pipes = !in_pipes,
            b',' if depth == 0 && !in_pipes => commas += 1,
            _ => {}
        }
    }
    // A trailing comma (multi-line call style) separates nothing.
    if commas > 0 && inner.iter().rev().find(|c| !c.is_ascii_whitespace()) == Some(&b',') {
        commas -= 1;
    }
    commas + 1
}

/// Drop `[…]`/`(…)` groups (index and call arguments) from a receiver.
fn strip_groups(s: &str) -> String {
    let mut out = String::new();
    let mut depth = 0usize;
    for ch in s.chars() {
        match ch {
            '[' | '(' => depth += 1,
            ']' | ')' => depth = depth.saturating_sub(1),
            _ if depth == 0 => out.push(ch),
            _ => {}
        }
    }
    out
}

struct Closure {
    body: (usize, usize),
    /// Receiver method is an iterator adaptor whose result carries the
    /// closure value out (`map`-family).
    iterator_method: bool,
}

/// Find inline-closure bodies in `[lo, hi)`: `|…| expr` where the opening
/// `|` follows `(`, `,`, `=` or the `move` keyword.
fn closure_spans(b: &[u8], lo: usize, hi: usize) -> Vec<Closure> {
    let mut out = Vec::new();
    let mut i = lo;
    while i < hi {
        if b[i] != b'|' {
            i += 1;
            continue;
        }
        // `||` as the boolean operator vs an empty param list: decide by
        // the preceding token either way.
        let mut p = i;
        while p > lo && (b[p - 1] == b' ' || b[p - 1] == b'\n') {
            p -= 1;
        }
        let prev_ok = p == lo || matches!(b[p - 1], b'(' | b',' | b'=' | b'{') || (p >= 4 && &b[p - 4..p] == b"move");
        if !prev_ok {
            i += 1;
            continue;
        }
        // Param list: to the closing `|` (an empty list is `||`).
        let params_close = if i + 1 < hi && b[i + 1] == b'|' {
            i + 1
        } else {
            let mut q = i + 1;
            let mut depth = 0i32;
            while q < hi {
                match b[q] {
                    b'(' | b'[' | b'<' => depth += 1,
                    b')' | b']' | b'>' => depth -= 1,
                    b'|' if depth <= 0 => break,
                    b'\n' => {}
                    _ => {}
                }
                q += 1;
            }
            if q >= hi {
                i += 1;
                continue;
            }
            q
        };
        let mut body_start = params_close + 1;
        while body_start < hi && (b[body_start] == b' ' || b[body_start] == b'\n') {
            body_start += 1;
        }
        let body_end = if body_start < hi && b[body_start] == b'{' {
            matching(b, body_start, b'{', b'}').map(|e| e + 1).unwrap_or(hi)
        } else {
            // Expression body: to `,` or `)` at depth 0.
            let mut q = body_start;
            let mut depth = 0i32;
            while q < hi {
                match b[q] {
                    b'(' | b'[' | b'{' => depth += 1,
                    b')' | b']' | b'}' => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    }
                    b',' if depth == 0 => break,
                    _ => {}
                }
                q += 1;
            }
            q
        };
        // Iterator adaptor? look back past the `(` for `.map(` etc.
        let iterator_method = {
            let mut q = p;
            if q > lo && b[q - 1] == b'(' {
                q -= 1;
                let mut s = q;
                while s > lo && (b[s - 1].is_ascii_alphanumeric() || b[s - 1] == b'_') {
                    s -= 1;
                }
                matches!(
                    std::str::from_utf8(&b[s..q]).unwrap_or(""),
                    "map" | "filter_map" | "flat_map" | "retain" | "scan"
                )
            } else {
                false
            }
        };
        out.push(Closure {
            body: (body_start, body_end),
            iterator_method,
        });
        i = body_start.max(i + 1);
    }
    out
}

/// Statement classification for the token starting at `pos`: walk back to
/// the statement boundary and test for `let` / `if let` / `while let` /
/// `match` / `for` heads.
fn stmt_head(b: &[u8], lo: usize, pos: usize) -> (usize, String) {
    let mut j = pos;
    let mut paren = 0i32;
    let mut brace = 0i32;
    while j > lo {
        let c = b[j - 1];
        match c {
            b')' | b']' => paren += 1,
            b'(' | b'[' => {
                if paren == 0 {
                    break; // entered an enclosing group: treat as boundary
                }
                paren -= 1;
            }
            b'}' => brace += 1,
            b'{' => {
                if brace == 0 {
                    break;
                }
                brace -= 1;
            }
            b';' if paren == 0 && brace == 0 => break,
            _ => {}
        }
        j -= 1;
    }
    let head = String::from_utf8_lossy(&b[j..pos.min(b.len())]).into_owned();
    (j, head)
}

fn stmt_is_let(b: &[u8], lo: usize, pos: usize) -> bool {
    let_binding_start(b, lo, pos).is_some()
}

/// If the value produced at `pos` is bound by an enclosing `let` — either
/// directly or through `if`/`match` wrapper arms whose result flows into
/// the binding (`let g = match p { Some(_) => m.lock(), .. };`) — return
/// the position of the `let` statement's head. The guard then lives to
/// the end of the block enclosing the `let`, not the wrapper arm.
fn let_binding_start(b: &[u8], lo: usize, pos: usize) -> Option<usize> {
    let mut p = pos;
    for _ in 0..3 {
        let (start, head) = stmt_head(b, lo, p);
        let t = head.trim_start().trim_start_matches("else ").trim_start();
        if let Some(rest) = t.strip_prefix("let ") {
            // `let _ =` drops immediately; `_g` holds.
            let bind = rest.trim_start();
            if bind.starts_with("_ ") || bind.starts_with("_=") {
                return None;
            }
            return Some(start);
        }
        if start > lo && b[start - 1] == b'{' {
            // Inside a value-producing block (match arm, if/else branch,
            // tail expression): the binding, if any, is one level up.
            p = start - 1;
            continue;
        }
        return None;
    }
    None
}

/// The simple identifier a `let` statement binds (`let mut r = …` → `r`);
/// None for tuple/struct patterns.
fn let_bound_name(b: &[u8], let_start: usize) -> Option<String> {
    let text = std::str::from_utf8(&b[let_start..b.len().min(let_start + 120)]).ok()?;
    let rest = text.trim_start().strip_prefix("let ")?;
    let rest = rest.trim_start().trim_start_matches("mut ").trim_start();
    let end = rest
        .find(|ch: char| !(ch.is_ascii_alphanumeric() || ch == '_'))
        .unwrap_or(rest.len());
    let name = &rest[..end];
    let tail = rest[end..].trim_start();
    if name.is_empty() || !(tail.starts_with('=') || tail.starts_with(':')) {
        return None;
    }
    Some(name.to_string())
}

/// Where does the guard acquired at `dot` (call args ending at `args_end`)
/// statically die?
fn guard_scope_end(b: &[u8], lo: usize, hi: usize, dot: usize, args_end: usize, _ctx: &FileCtx<'_>) -> usize {
    let (_, head) = stmt_head(b, lo, dot);
    let t = head.trim_start().trim_start_matches("else ").trim_start();
    // `if let` / `while let` must win over the plain-`let` check below, so
    // only consult the binding ascent when the head isn't a construct.
    let construct = ["if let ", "while let ", "if ", "while ", "match ", "for "]
        .iter()
        .any(|p| t.starts_with(p));
    if !construct {
        if let Some(let_start) = let_binding_start(b, lo, dot) {
            // `let v = m.lock().iter()….collect();` binds the chained
            // result, not the guard — the guard is a temporary that dies at
            // the end of the statement (fall through). Only an unchained
            // acquisition is the bound value itself.
            let mut q = args_end + 1;
            while q < hi && (b[q].is_ascii_whitespace() || b[q] == b'?') {
                q += 1;
            }
            if q >= hi || b[q] != b'.' {
                // The guard lives to the end of the block enclosing the
                // `let` statement (which may be shallower than the call when
                // bound through a match/if wrapper expression) — unless an
                // explicit `drop(guard)` releases it early on every path.
                let end = enclosing_block_end(b, lo, hi, let_start);
                if let Some(name) = let_bound_name(b, let_start) {
                    if let Some(d) = unconditional_drop(b, args_end + 1, end, &name) {
                        return d;
                    }
                }
                return end;
            }
        }
    }
    for prefix in ["if let ", "while let ", "if ", "while ", "match ", "for "] {
        if t.starts_with(prefix) {
            // Guard lives through the construct's brace block. Scan from
            // *past* the acquisition's own closing paren.
            let mut q = args_end + 1;
            let mut depth = 0i32;
            while q < hi {
                match b[q] {
                    b'(' | b'[' => depth += 1,
                    b')' | b']' => depth -= 1,
                    b'{' if depth == 0 => return matching(b, q, b'{', b'}').unwrap_or(hi),
                    _ => {}
                }
                q += 1;
            }
            return hi;
        }
    }
    // Plain temporary: to the end of the statement. Scan from *past* the
    // acquisition's own closing paren.
    let mut q = args_end + 1;
    let mut depth = 0i32;
    while q < hi {
        match b[q] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => {
                if depth == 0 {
                    return q;
                }
                depth -= 1;
            }
            b';' if depth == 0 => return q,
            _ => {}
        }
        q += 1;
    }
    hi
}

/// First `drop(<name>)` at the *same brace depth* as the scan start, or
/// None. A drop nested inside an `if`/`match` arm may not execute on every
/// path, so only a statement-level drop shortens the guard's held interval
/// — anything conditional keeps the conservative block-end scope.
fn unconditional_drop(b: &[u8], from: usize, to: usize, name: &str) -> Option<usize> {
    let nb = name.as_bytes();
    let mut depth = 0i32;
    let mut i = from;
    while i + 5 <= to {
        match b[i] {
            b'{' => depth += 1,
            b'}' => depth -= 1,
            b'd' if depth == 0 && &b[i..i + 5] == b"drop(" => {
                let prev_ok = i == 0 || {
                    let p = b[i - 1];
                    !(p.is_ascii_alphanumeric() || p == b'_' || p == b'.')
                };
                if prev_ok {
                    let mut j = i + 5;
                    while j < to && b[j].is_ascii_whitespace() {
                        j += 1;
                    }
                    if j + nb.len() < to && &b[j..j + nb.len()] == nb {
                        let mut k = j + nb.len();
                        while k < to && b[k].is_ascii_whitespace() {
                            k += 1;
                        }
                        if k < to && b[k] == b')' {
                            return Some(i);
                        }
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

fn enclosing_block_end(b: &[u8], lo: usize, hi: usize, pos: usize) -> usize {
    // Depth at `pos` relative to `lo`, then the `}` that drops below it.
    let mut depth = 0i32;
    for &c in &b[lo..pos] {
        match c {
            b'{' => depth += 1,
            b'}' => depth -= 1,
            _ => {}
        }
    }
    let mut q = pos;
    let mut d = depth;
    while q < hi {
        match b[q] {
            b'{' => d += 1,
            b'}' => {
                d -= 1;
                if d < depth {
                    return q;
                }
            }
            _ => {}
        }
        q += 1;
    }
    hi
}

fn matching(b: &[u8], open_pos: usize, open: u8, close: u8) -> Option<usize> {
    let mut depth = 0usize;
    let mut i = open_pos;
    while i < b.len() {
        if b[i] == open {
            depth += 1;
        } else if b[i] == close {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
        i += 1;
    }
    None
}

fn matching_back(b: &[u8], lo: usize, close_pos: usize) -> Option<usize> {
    let close = b[close_pos];
    let open = match close {
        b')' => b'(',
        b']' => b'[',
        _ => return None,
    };
    let mut depth = 0usize;
    let mut i = close_pos + 1;
    while i > lo {
        i -= 1;
        if b[i] == close {
            depth += 1;
        } else if b[i] == open {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

fn find_word(b: &[u8], word: &[u8], from: usize) -> Option<usize> {
    let mut i = from;
    while i + word.len() <= b.len() {
        if &b[i..i + word.len()] == word {
            let pre_ok = i == 0 || !(b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_');
            let post_ok =
                i + word.len() >= b.len() || !(b[i + word.len()].is_ascii_alphanumeric() || b[i + word.len()] == b'_');
            if pre_ok && post_ok {
                return Some(i);
            }
        }
        i += 1;
    }
    None
}

/// Some parameter type is closure-capable: an `impl Fn…`/`Fn…` bound, a fn
/// pointer, or a bare short generic (`f: F`). Used to gate resolution of
/// calls that pass a closure literal — iterator adapters like
/// `.find(|x| …)` must never bind to a workspace fn taking plain data.
fn params_take_closure(params: &[u8]) -> bool {
    let text = String::from_utf8_lossy(params);
    if text.contains("Fn") || text.contains("fn(") {
        return true;
    }
    let bytes = text.as_bytes();
    let mut depth = 0i32;
    let mut start = 0usize;
    for i in 0..=bytes.len() {
        let c = if i < bytes.len() { bytes[i] } else { b',' };
        match c {
            b'(' | b'[' | b'<' => depth += 1,
            b')' | b']' | b'>' => depth -= 1,
            b',' if depth <= 0 => {
                let piece = &text[start..i.min(text.len())];
                start = i + 1;
                if let Some((_, ty)) = piece.split_once(':') {
                    let ty = ty.trim().trim_start_matches('&').trim();
                    if !ty.is_empty()
                        && ty.len() <= 2
                        && ty.chars().next().is_some_and(|ch| ch.is_ascii_uppercase())
                        && ty.chars().all(|ch| ch.is_ascii_alphanumeric())
                    {
                        return true;
                    }
                }
            }
            _ => {}
        }
    }
    false
}

/// Parameters declared with a concrete named type (`reg: &Registry`,
/// `inner: &mut Inner`): method calls through them resolve against that
/// type's impl blocks only, exactly like typed locals. Short identifiers
/// (≤2 chars) are generic type parameters, and lowercase-leading types
/// (`dyn Trait`, `impl Fn…`, paths like `std::…`) stay untyped so their
/// calls keep the conservative name-based resolution.
fn param_types(params: &[u8]) -> Vec<(String, String)> {
    let text = String::from_utf8_lossy(params).into_owned();
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = 0usize;
    for i in 0..=bytes.len() {
        let c = if i < bytes.len() { bytes[i] } else { b',' };
        match c {
            b'(' | b'[' | b'<' => depth += 1,
            b')' | b']' | b'>' => depth -= 1,
            b',' if depth <= 0 => {
                let piece = &text[start..i.min(text.len())];
                start = i + 1;
                let Some((name, ty)) = piece.split_once(':') else {
                    continue;
                };
                let name = name.trim().strip_prefix("mut ").unwrap_or(name.trim()).trim();
                if name.is_empty() || name == "self" || !name.bytes().all(|ch| ch.is_ascii_alphanumeric() || ch == b'_')
                {
                    continue;
                }
                let mut ty = ty.trim();
                loop {
                    let stripped = ty.trim_start_matches('&').trim_start();
                    let stripped = stripped.strip_prefix("mut ").unwrap_or(stripped).trim_start();
                    let stripped = if stripped.starts_with('\'') {
                        match stripped.find(char::is_whitespace) {
                            Some(w) => stripped[w..].trim_start(),
                            None => stripped,
                        }
                    } else {
                        stripped
                    };
                    if stripped == ty {
                        break;
                    }
                    ty = stripped;
                }
                let ident: String = ty
                    .chars()
                    .take_while(|ch| ch.is_ascii_alphanumeric() || *ch == '_')
                    .collect();
                if ident.len() >= 3
                    && ident.chars().next().is_some_and(|ch| ch.is_ascii_uppercase())
                    && !ty[ident.len()..].starts_with(':')
                {
                    out.push((name.to_string(), ident));
                }
            }
            _ => {}
        }
    }
    out
}

fn param_names(params: &[u8]) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = 0usize;
    let text = params;
    for i in 0..=text.len() {
        let c = if i < text.len() { text[i] } else { b',' };
        match c {
            b'(' | b'[' | b'<' => depth += 1,
            b')' | b']' | b'>' => depth -= 1,
            b',' if depth <= 0 => {
                let piece = String::from_utf8_lossy(&text[start..i.min(text.len())]).into_owned();
                start = i + 1;
                let name = piece.split(':').next().unwrap_or("").trim();
                let name = name.trim_start_matches("mut ").trim_start_matches('&').trim();
                if !name.is_empty() && name.chars().all(|ch| ch.is_ascii_alphanumeric() || ch == '_') && name != "self"
                {
                    out.push(name.to_string());
                }
            }
            _ => {}
        }
    }
    out
}

/// Iterative Tarjan SCC over an adjacency list.
pub(crate) fn tarjan(adj: &[BTreeSet<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    // Frame: (node, neighbor iterator position)
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        let mut call: Vec<(usize, Vec<usize>, usize)> = Vec::new();
        call.push((start, adj[start].iter().copied().collect(), 0));
        index[start] = next_index;
        low[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;
        while let Some((v, neigh, mut pos)) = call.pop() {
            let mut descended = false;
            while pos < neigh.len() {
                let w = neigh[pos];
                pos += 1;
                if index[w] == usize::MAX {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push((v, neigh, pos));
                    call.push((w, adj[w].iter().copied().collect(), 0));
                    descended = true;
                    break;
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            }
            if descended {
                continue;
            }
            if low[v] == index[v] {
                let mut comp = Vec::new();
                while let Some(w) = stack.pop() {
                    on_stack[w] = false;
                    comp.push(w);
                    if w == v {
                        break;
                    }
                }
                sccs.push(comp);
            }
            if let Some(frame) = call.last_mut() {
                let parent = frame.0;
                low[parent] = low[parent].min(low[v]);
            }
        }
    }
    sccs
}

/// A `BTreeMap` keyed rendering of the site-pair edge set, for debugging
/// and the `lock-report` renderer.
pub fn render_edges(model: &LockModel) -> String {
    let mut out = String::new();
    let mut rows: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for e in &model.edges {
        rows.entry(model.describe(e.from))
            .or_default()
            .push(model.describe(e.to));
    }
    for (from, tos) in rows {
        for to in tos {
            out.push_str(&format!("{from} -> {to}\n"));
        }
    }
    out
}
