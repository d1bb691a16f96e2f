//! Seeded input generation. The same seed over the same tree yields the
//! same request bytes, in the same order; the program under test only ever
//! sees those bytes (or, for the two non-REST operations, the values
//! derived from them).

use crate::wire::encode_request;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use redfish_model::path::top;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// What the generators need to know about the booted tree.
#[derive(Debug, Default)]
pub struct Tree {
    /// Every non-collection resource safe to read, sorted by id.
    pub members: Vec<String>,
    /// Indices into `members` of resources safe to PATCH (agent-mounted
    /// inventory; not sessions, subscriptions or service singletons).
    pub patchable: Vec<u32>,
    /// Every collection with its member count, sorted by id.
    pub collections: Vec<(String, u32)>,
    /// Ids of the physical compute nodes under `/redfish/v1/Systems`.
    pub nodes: Vec<String>,
}

/// FNV-1a, the digest of a generated op stream.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold `bytes` in.
    pub fn update(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Operation kinds (a workload's mix is a distribution over these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// GET of a member, no query.
    Get,
    /// GET of a collection, no query.
    GetCollection,
    /// GET of a resource this connection just PATCHed.
    GetWritten,
    /// PATCH of a random resource.
    Patch,
    /// POST of a client-owned chassis.
    Post,
    /// DELETE of a client-owned chassis.
    Delete,
    /// `GET Systems?$expand=.`
    QueryExpand,
    /// `GET <node>?$select=…`
    QuerySelect,
    /// `GET Chassis?$top=…&$skip=…`
    QueryPage,
    /// `POST CompositionService.Compose`
    Compose,
}

/// What a correct response to an operation looks like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Check {
    /// 200, and the body names this member (`Tree::members` index).
    Member(u32),
    /// 200, and `Members@odata.count` equals this.
    Count(u32),
    /// 200, and `Members@odata.count` equals the chassis collection's base
    /// count plus this connection's live members plus whatever the other
    /// connection holds at that moment.
    ChassisCount {
        /// Client-owned members this connection holds when the GET runs.
        own_live: u32,
    },
    /// 200, and the body carries this `AssetTag`.
    Tagged(String),
    /// 200 with an `ETag` header.
    Patched,
    /// 201 with this `Location`.
    Created(String),
    /// 204.
    Deleted,
    /// 200, and `Members` holds exactly this many entries.
    Page(u32),
}

/// One generated request inside a [`Batch`].
#[derive(Debug, Clone)]
pub struct OpMeta {
    /// End offset of the request in `Batch::bytes` (it starts where the
    /// previous one ends).
    pub end: usize,
    /// Its kind.
    pub kind: Kind,
    /// What the response must look like.
    pub check: Check,
}

/// A run of encoded requests sent down one connection.
#[derive(Debug, Default, Clone)]
pub struct Batch {
    /// The encoded requests, back to back.
    pub bytes: Vec<u8>,
    /// One entry per request.
    pub ops: Vec<OpMeta>,
}

impl Batch {
    fn push(&mut self, kind: Kind, check: Check) {
        self.ops.push(OpMeta {
            end: self.bytes.len(),
            kind,
            check,
        });
    }

    /// The bytes of request `i`.
    pub fn request(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ops[i - 1].end };
        &self.bytes[start..self.ops[i].end]
    }
}

fn rng_for(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// `monitor_sweep`: query-less GETs, 90 % members uniform over the whole
/// tree, 10 % collections.
pub struct SweepGen {
    rng: StdRng,
    tree: Arc<Tree>,
    token: String,
}

impl SweepGen {
    /// Generator for connection `conn`.
    pub fn new(seed: u64, conn: u64, tree: Arc<Tree>, token: &str) -> Self {
        SweepGen {
            rng: rng_for(seed, 0x100 + conn),
            tree,
            token: token.to_string(),
        }
    }

    /// The next `n` requests.
    pub fn batch(&mut self, n: usize) -> Batch {
        let mut b = Batch::default();
        for _ in 0..n {
            if self.rng.gen_range(0u32..10) == 0 {
                let (path, count) = &self.tree.collections[self.rng.gen_range(0..self.tree.collections.len())];
                encode_request(&mut b.bytes, "GET", path, &self.token, b"");
                b.push(Kind::GetCollection, Check::Count(*count));
            } else {
                let idx = self.rng.gen_range(0..self.tree.members.len());
                encode_request(&mut b.bytes, "GET", &self.tree.members[idx], &self.token, b"");
                b.push(Kind::Get, Check::Member(idx as u32));
            }
        }
        b
    }
}

/// Client-owned chassis each `tree_churn` connection holds.
pub const CHURN_LIVE_PER_CONN: u32 = 1000;

/// `tree_churn`, one connection's share: writes beside reads on the same
/// registry. Each connection PATCHes its own half of the tree and owns its
/// own chassis ids, so every check is exact whatever order the server
/// interleaves the two connections in.
pub struct ChurnGen {
    rng: StdRng,
    conn: u32,
    tree: Arc<Tree>,
    token: String,
    /// Member indices this connection may PATCH.
    mine: Vec<u32>,
    /// Ids of this connection's live chassis.
    live: Vec<u32>,
    next_id: u32,
    next_tag: u32,
    /// Recently PATCHed member indices (the "just-written" pool).
    recent: VecDeque<u32>,
    /// Latest tag this connection wrote per member index.
    latest: HashMap<u32, String>,
}

impl ChurnGen {
    /// Generator for connection `conn` of `conns`.
    pub fn new(seed: u64, conn: u32, conns: u32, tree: Arc<Tree>, token: &str) -> Self {
        let mine = tree
            .patchable
            .iter()
            .copied()
            .enumerate()
            .filter(|(i, _)| *i as u32 % conns == conn)
            .map(|(_, m)| m)
            .collect();
        ChurnGen {
            rng: rng_for(seed, 0x200 + u64::from(conn)),
            conn,
            tree,
            token: token.to_string(),
            mine,
            live: Vec::new(),
            next_id: 0,
            next_tag: 0,
            recent: VecDeque::new(),
            latest: HashMap::new(),
        }
    }

    /// Chassis this connection currently holds.
    pub fn live(&self) -> u32 {
        self.live.len() as u32
    }

    /// Paths of the chassis this connection currently holds (the
    /// acknowledged-mutation ledger for the crash-restart check).
    pub fn live_paths(&self) -> Vec<String> {
        self.live.iter().map(|id| self.chassis_path(*id)).collect()
    }

    /// The latest tag written per path (same ledger, PATCH side).
    pub fn written(&self) -> Vec<(String, String)> {
        self.latest
            .iter()
            .map(|(idx, tag)| (self.tree.members[*idx as usize].clone(), tag.clone()))
            .collect()
    }

    fn chassis_path(&self, id: u32) -> String {
        format!("{}/bm-{}-{}", top::CHASSIS, self.conn, id)
    }

    fn post(&mut self, b: &mut Batch) {
        let id = self.next_id;
        self.next_id += 1;
        let name = format!("bm-{}-{}", self.conn, id);
        let body = format!(
            "{{\"@odata.type\":\"#Chassis.v1_25_0.Chassis\",\"Id\":\"{name}\",\"Name\":\"{name}\",\
             \"ChassisType\":\"Module\",\"Status\":{{\"State\":\"Enabled\",\"Health\":\"OK\"}}}}"
        );
        encode_request(&mut b.bytes, "POST", top::CHASSIS, &self.token, body.as_bytes());
        b.push(Kind::Post, Check::Created(self.chassis_path(id)));
        self.live.push(id);
    }

    /// `n` POSTs: the untimed fill to [`CHURN_LIVE_PER_CONN`].
    pub fn fill(&mut self, n: usize) -> Batch {
        let mut b = Batch::default();
        for _ in 0..n {
            self.post(&mut b);
        }
        b
    }

    fn patch(&mut self, b: &mut Batch) {
        let idx = self.mine[self.rng.gen_range(0..self.mine.len())];
        let tag = format!("t{}-{}", self.conn, self.next_tag);
        self.next_tag += 1;
        let body = format!("{{\"AssetTag\":\"{tag}\"}}");
        encode_request(
            &mut b.bytes,
            "PATCH",
            &self.tree.members[idx as usize],
            &self.token,
            body.as_bytes(),
        );
        b.push(Kind::Patch, Check::Patched);
        self.latest.insert(idx, tag);
        self.recent.push_back(idx);
        if self.recent.len() > 32 {
            self.recent.pop_front();
        }
    }

    /// The next `n` pipelined requests: of every 95, 40 PATCH, 20 GET of a
    /// just-written resource, 15 POST, 15 DELETE, 5 GET of the chassis
    /// collection. (The remaining 5 % of the workload are the query GETs
    /// [`QueryGen`] produces; they are sent alone.)
    pub fn batch(&mut self, n: usize) -> Batch {
        let mut b = Batch::default();
        for _ in 0..n {
            match self.rng.gen_range(0u32..95) {
                0..=39 => self.patch(&mut b),
                40..=59 => {
                    if self.recent.is_empty() {
                        self.patch(&mut b);
                        continue;
                    }
                    let idx = self.recent[self.rng.gen_range(0..self.recent.len())];
                    encode_request(&mut b.bytes, "GET", &self.tree.members[idx as usize], &self.token, b"");
                    b.push(Kind::GetWritten, Check::Tagged(self.latest[&idx].clone()));
                }
                // POST and DELETE alternate around the target, so the
                // collection stays at its size and each is 15 % of the mix.
                60..=89 => {
                    if self.live() <= CHURN_LIVE_PER_CONN {
                        self.post(&mut b);
                    } else {
                        let victim = self.rng.gen_range(0..self.live.len());
                        let id = self.live.swap_remove(victim);
                        encode_request(&mut b.bytes, "DELETE", &self.chassis_path(id), &self.token, b"");
                        b.push(Kind::Delete, Check::Deleted);
                    }
                }
                _ => {
                    encode_request(&mut b.bytes, "GET", top::CHASSIS, &self.token, b"");
                    b.push(Kind::GetCollection, Check::ChassisCount { own_live: self.live() });
                }
            }
        }
        b
    }
}

/// The query GETs of `tree_churn`: `$expand`, `$select` and paging in equal
/// shares, each its own single-request batch.
pub struct QueryGen {
    rng: StdRng,
    tree: Arc<Tree>,
    token: String,
}

/// Page size the paging queries ask for.
pub const PAGE_TOP: u32 = 50;

impl QueryGen {
    /// The one query generator of a run.
    pub fn new(seed: u64, tree: Arc<Tree>, token: &str) -> Self {
        QueryGen {
            rng: rng_for(seed, 0x300),
            tree,
            token: token.to_string(),
        }
    }

    /// `GET Systems?$expand=.`; `systems` is the collection's current size.
    pub fn expand(&self, systems: u32) -> Batch {
        let mut b = Batch::default();
        let target = format!("{}?$expand=.", top::SYSTEMS);
        encode_request(&mut b.bytes, "GET", &target, &self.token, b"");
        b.push(Kind::QueryExpand, Check::Count(systems));
        b
    }

    /// The next query; `systems` and `chassis` are the current collection
    /// sizes (`chassis` a lower bound that paging never reaches past).
    pub fn next(&mut self, systems: u32, chassis: u32) -> Batch {
        match self.rng.gen_range(0u32..3) {
            0 => self.expand(systems),
            1 => {
                let mut b = Batch::default();
                let node = &self.tree.nodes[self.rng.gen_range(0..self.tree.nodes.len())];
                let target = format!("{node}?$select=Name,PowerState,Status");
                encode_request(&mut b.bytes, "GET", &target, &self.token, b"");
                let idx = self.tree.members.binary_search(node).expect("node is a member");
                b.push(Kind::QuerySelect, Check::Member(idx as u32));
                b
            }
            _ => {
                let mut b = Batch::default();
                let skip = self.rng.gen_range(0..chassis.saturating_sub(PAGE_TOP).max(1));
                let target = format!("{}?$top={PAGE_TOP}&$skip={skip}", top::CHASSIS);
                encode_request(&mut b.bytes, "GET", &target, &self.token, b"");
                b.push(Kind::QueryPage, Check::Page(PAGE_TOP.min(chassis - skip)));
                b
            }
        }
    }
}

/// GPUs on the rack's accelerator fabric; the job mix never asks for more
/// than are free, so no compose is refused.
pub const RACK_GPUS: u32 = 32;

/// One compose request and the decompose that keeps the live set bounded.
#[derive(Debug)]
pub struct Cycle {
    /// The encoded `POST …Compose`.
    pub compose: Batch,
    /// Id of the system to decompose afterwards, oldest first.
    pub decompose: Option<String>,
}

/// `job_churn`: the seeded job mix — 50 % fabric memory 2–16 GiB, 25 % plus
/// NVMe 1–64 GiB, 15 % plus 1–2 GPUs, 10 % spread memory with bandwidth
/// QoS — with FIFO decomposition once `max_live` systems are live.
pub struct JobGen {
    rng: StdRng,
    token: String,
    prefix: String,
    next: u64,
    max_live: usize,
    live: VecDeque<(String, u32)>,
    gpus_out: u32,
}

impl JobGen {
    /// Jobs named `{prefix}-{n}`; at most `max_live` stay composed.
    pub fn new(seed: u64, prefix: &str, max_live: usize, token: &str) -> Self {
        JobGen {
            rng: rng_for(seed, 0x400),
            token: token.to_string(),
            prefix: prefix.to_string(),
            next: 0,
            max_live,
            live: VecDeque::new(),
            gpus_out: 0,
        }
    }

    /// Systems the generator believes are live, oldest first.
    pub fn live_systems(&self) -> Vec<String> {
        self.live.iter().map(|(s, _)| s.clone()).collect()
    }

    /// The next compose (+ decompose) cycle.
    pub fn cycle(&mut self) -> Cycle {
        let name = format!("{}-{}", self.prefix, self.next);
        self.next += 1;
        let cores = [8u32, 16, 28, 56][self.rng.gen_range(0usize..4)];
        let local_gib = [16u64, 32, 64, 128][self.rng.gen_range(0usize..4)];
        let fabric_mib = self.rng.gen_range(2u64..17) * 1024;
        let class = self.rng.gen_range(0u32..100);
        let mut extra = String::new();
        let mut gpus = 0;
        match class {
            0..=49 => {}
            50..=74 => {
                let bytes = self.rng.gen_range(1u64..65) << 30;
                extra = format!(",\"StorageBytes\":{bytes}");
            }
            75..=89 => {
                let want = self.rng.gen_range(1u32..3);
                if self.gpus_out + want <= RACK_GPUS {
                    gpus = want;
                    extra = format!(",\"Gpus\":{gpus}");
                }
            }
            _ => {
                let gbps = self.rng.gen_range(4u32..17);
                extra = format!(",\"SpreadMemory\":true,\"MemoryBandwidthGbps\":{gbps}.0");
            }
        }
        let body = format!(
            "{{\"Name\":\"{name}\",\"Cores\":{cores},\"LocalMemoryGiB\":{local_gib},\"FabricMemoryMiB\":{fabric_mib}{extra}}}"
        );
        let mut compose = Batch::default();
        encode_request(
            &mut compose.bytes,
            "POST",
            top::COMPOSE_ACTION,
            &self.token,
            body.as_bytes(),
        );
        let system = format!("{}/{name}", top::SYSTEMS);
        compose.push(Kind::Compose, Check::Created(system.clone()));
        self.live.push_back((system.clone(), gpus));
        self.gpus_out += gpus;
        let decompose = (self.live.len() > self.max_live).then(|| {
            let (old, g) = self.live.pop_front().expect("non-empty");
            self.gpus_out -= g;
            old
        });
        Cycle { compose, decompose }
    }
}

/// One fabric's share of a fault tick: repair the trunk downed last tick,
/// down another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flap {
    /// Trunk index to bring back up, if one is down.
    pub up: Option<usize>,
    /// Trunk index to take down.
    pub down: usize,
}

/// `fault_storm`: seeded trunk-link flaps, one trunk down per fabric at any
/// time, so every connection always has a surviving spine to fail over to.
pub struct FaultGen {
    rng: StdRng,
    trunks: Vec<usize>,
    down: Vec<Option<usize>>,
}

impl FaultGen {
    /// `trunks[f]` is the number of trunk links of fabric `f`.
    pub fn new(seed: u64, trunks: Vec<usize>) -> Self {
        let down = vec![None; trunks.len()];
        FaultGen {
            rng: rng_for(seed, 0x500),
            trunks,
            down,
        }
    }

    /// Trunks currently down, per fabric.
    pub fn down(&self) -> &[Option<usize>] {
        &self.down
    }

    /// The next tick's flaps, one per fabric.
    pub fn tick(&mut self) -> Vec<Flap> {
        (0..self.trunks.len())
            .map(|f| {
                let up = self.down[f];
                let mut pick = self.rng.gen_range(0..self.trunks[f]);
                if Some(pick) == up {
                    pick = (pick + 1) % self.trunks[f];
                }
                self.down[f] = Some(pick);
                Flap { up, down: pick }
            })
            .collect()
    }
}

/// Digest of the first requests each generator of `workload` produces for
/// `seed` over `tree`: identical inputs ⇔ identical digest.
pub fn input_digest(workload: &str, seed: u64, tree: &Arc<Tree>) -> u64 {
    const N: usize = 2048;
    let mut d = Digest::default();
    match workload {
        "monitor_sweep" => {
            for conn in 0..2 {
                d.update(&SweepGen::new(seed, conn, Arc::clone(tree), "").batch(N).bytes);
            }
        }
        "tree_churn" => {
            for conn in 0..2 {
                d.update(&ChurnGen::new(seed, conn, 2, Arc::clone(tree), "").batch(N).bytes);
            }
            let mut q = QueryGen::new(seed, Arc::clone(tree), "");
            for _ in 0..64 {
                d.update(&q.next(128, 2048).bytes);
            }
        }
        "job_churn" => {
            let mut g = JobGen::new(seed, "job", 64, "");
            for _ in 0..N {
                let c = g.cycle();
                d.update(&c.compose.bytes);
                d.update(c.decompose.unwrap_or_default().as_bytes());
            }
        }
        "fault_storm" => {
            let mut g = FaultGen::new(seed, vec![32, 32, 32]);
            for _ in 0..N {
                for f in g.tick() {
                    d.update(&[f.up.map_or(0xff, |u| u as u8), f.down as u8]);
                }
            }
        }
        _ => {}
    }
    d.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> Arc<Tree> {
        let members: Vec<String> = (0..200).map(|i| format!("/redfish/v1/Systems/n{i:03}")).collect();
        Arc::new(Tree {
            patchable: (0..members.len() as u32).collect(),
            nodes: members.clone(),
            members,
            collections: vec![("/redfish/v1/Systems".into(), 200), ("/redfish/v1/Chassis".into(), 3)],
        })
    }

    #[test]
    fn same_seed_same_digest_different_seed_different_digest() {
        let t = tree();
        for w in ["monitor_sweep", "tree_churn", "job_churn", "fault_storm"] {
            assert_eq!(input_digest(w, 7, &t), input_digest(w, 7, &t), "{w}");
            assert_ne!(input_digest(w, 7, &t), input_digest(w, 8, &t), "{w}");
        }
    }

    #[test]
    fn batches_continue_one_stream() {
        // Cutting the stream into batches differently does not change it.
        let t = tree();
        let mut a = SweepGen::new(3, 0, Arc::clone(&t), "tok");
        let mut b = SweepGen::new(3, 0, Arc::clone(&t), "tok");
        let whole = a.batch(300).bytes;
        let mut parts = b.batch(100).bytes;
        parts.extend(b.batch(200).bytes);
        assert_eq!(whole, parts);
    }

    #[test]
    fn churn_holds_the_collection_at_its_target_and_checks_its_own_writes() {
        let t = tree();
        let mut g = ChurnGen::new(5, 1, 2, Arc::clone(&t), "tok");
        let fill = g.fill(CHURN_LIVE_PER_CONN as usize);
        assert_eq!(fill.ops.len(), 1000);
        let b = g.batch(20_000);
        let n = |k: Kind| b.ops.iter().filter(|o| o.kind == k).count();
        assert!(g.live().abs_diff(CHURN_LIVE_PER_CONN) <= 1, "live {}", g.live());
        assert!(n(Kind::Post).abs_diff(n(Kind::Delete)) <= 1);
        // 40/20/15/15/5 of 95, within sampling noise.
        assert!((n(Kind::Patch) as f64 / 20_000.0 - 40.0 / 95.0).abs() < 0.02);
        assert!((n(Kind::GetWritten) as f64 / 20_000.0 - 20.0 / 95.0).abs() < 0.02);
        assert!((n(Kind::GetCollection) as f64 / 20_000.0 - 5.0 / 95.0).abs() < 0.01);
        // Connection 1 only PATCHes its own half of the tree.
        for i in 0..b.ops.len() {
            if b.ops[i].kind == Kind::Patch {
                let req = String::from_utf8_lossy(b.request(i)).into_owned();
                let n: usize = req.split("/Systems/n").nth(1).unwrap()[..3].parse().unwrap();
                assert_eq!(n % 2, 1, "{req}");
            }
        }
    }

    #[test]
    fn jobs_never_ask_for_more_gpus_than_the_rack_has() {
        let mut g = JobGen::new(11, "job", 64, "tok");
        let mut out: VecDeque<u32> = VecDeque::new();
        for _ in 0..20_000 {
            let c = g.cycle();
            let req = String::from_utf8_lossy(&c.compose.bytes).into_owned();
            let gpus = req
                .split("\"Gpus\":")
                .nth(1)
                .map_or(0, |s| s[..1].parse::<u32>().unwrap());
            out.push_back(gpus);
            if c.decompose.is_some() {
                out.pop_front();
            }
            assert!(out.iter().sum::<u32>() <= RACK_GPUS);
            assert!(out.len() <= 64);
        }
    }

    #[test]
    fn one_trunk_down_per_fabric_at_a_time() {
        let mut g = FaultGen::new(2, vec![4, 32]);
        let mut down: Vec<Option<usize>> = vec![None, None];
        for _ in 0..5_000 {
            for (f, flap) in g.tick().into_iter().enumerate() {
                assert_eq!(flap.up, down[f]);
                assert_ne!(Some(flap.down), flap.up);
                down[f] = Some(flap.down);
            }
        }
    }
}
