//! The five workloads: set-up, one client transaction, engine counters,
//! and the output checks. `README.md` in this directory says why each
//! one exists and which layers it exercises.

use crate::gen::{Rng, Zipf};
use crate::trace::{span, Layer};
use crate::vfs::{TimedVfs, VfsCounts};
use rnt_cluster::{Cluster, ClusterConfig, ClusterTxn, GossipPolicy, Partition};
use rnt_core::{CcMode, Db, DbConfig, DeadlockPolicy, Durability, StatsSnapshot, Txn, TxnError};
use rnt_wal::StdVfs;
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop client threads per run.
pub const CLIENTS: usize = 2;
/// Attempts per top-level transaction before it counts as failed.
const MAX_ATTEMPTS: u32 = 256;
/// Zipf skew of the skewed workloads.
const THETA: f64 = 0.99;
/// Keys per snapshot scan in occ-scan.
const SCAN_LEN: u64 = 50;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    NestedOltp,
    OccScan,
    DurableCommit,
    WalCommit,
    ClusterMixed,
}

impl Kind {
    pub const ALL: [Kind; 5] =
        [Kind::NestedOltp, Kind::OccScan, Kind::DurableCommit, Kind::WalCommit, Kind::ClusterMixed];

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::NestedOltp => "nested-oltp",
            Kind::OccScan => "occ-scan",
            Kind::DurableCommit => "durable-commit",
            Kind::WalCommit => "wal-commit",
            Kind::ClusterMixed => "cluster-mixed",
        }
    }

    /// Whether the workload keeps a write-ahead log on disk.
    pub fn logged(self) -> bool {
        matches!(self, Kind::DurableCommit | Kind::WalCommit)
    }

    pub fn keys(self) -> u64 {
        match self {
            Kind::NestedOltp => 1_000_000,
            _ => 100_000,
        }
    }
}

/// Per-client counts of what the client did, merged after the run.
#[derive(Default)]
pub struct Tally {
    /// Top-level transactions (and snapshot scans) started.
    pub attempted: u64,
    /// Of those, committed (a scan always completes).
    pub committed: u64,
    /// Of those, given up with an error after bounded retries.
    pub failed: u64,
    /// `begin` calls, retries included.
    pub attempts: u64,
    /// nested-oltp: committed children that did their two increments.
    pub write_children: u64,
    /// occ-scan: committed optimistic transactions (two increments each).
    pub occ_commits: u64,
    /// occ-scan: scans that did not return exactly their keys, in order.
    pub bad_scans: u64,
}

impl Tally {
    pub fn merge(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.committed += o.committed;
        self.failed += o.failed;
        self.attempts += o.attempts;
        self.write_children += o.write_children;
        self.occ_commits += o.occ_commits;
        self.bad_scans += o.bad_scans;
    }
}

/// Engine counters read through `Db::stats`/`Cluster::stats` and the
/// benchmark's WAL `Vfs`.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    pub waits: u64,
    pub wait_nanos: u64,
    pub deadlocks: u64,
    pub occ_conflicts: u64,
    pub commits_batched: u64,
    pub commit_batches: u64,
    pub vfs: VfsCounts,
    pub sends: u64,
    pub entries_shipped: u64,
    pub cluster_commits: u64,
}

impl Counters {
    fn add_node(&mut self, s: &StatsSnapshot) {
        self.waits += s.waits;
        self.wait_nanos += s.wait_nanos;
        self.deadlocks += s.deadlocks;
        self.occ_conflicts += s.occ_conflicts;
        self.commits_batched += s.commits_batched;
        self.commit_batches += s.commit_batches;
    }

    pub fn since(self, e: Counters) -> Counters {
        Counters {
            waits: self.waits - e.waits,
            wait_nanos: self.wait_nanos - e.wait_nanos,
            deadlocks: self.deadlocks - e.deadlocks,
            occ_conflicts: self.occ_conflicts - e.occ_conflicts,
            commits_batched: self.commits_batched - e.commits_batched,
            commit_batches: self.commit_batches - e.commit_batches,
            vfs: self.vfs.since(e.vfs),
            sends: self.sends - e.sends,
            entries_shipped: self.entries_shipped - e.entries_shipped,
            cluster_commits: self.cluster_commits - e.cluster_commits,
        }
    }
}

/// Multi-version state read at quiescence, after the clients stop.
pub struct Quiescent {
    /// Versions created minus reclaimed (seeds included), per key.
    pub retained_versions_per_key: f64,
    /// Publish watermark minus oldest retained epoch (largest over nodes).
    pub floor_lag_epochs: u64,
    /// Version-chain length of the most accessed key.
    pub hot_chain_len: u64,
}

pub trait Workload: Sync {
    /// Run one top-level transaction (or scan), retrying contention
    /// errors; the error it was given up with, if it did not commit.
    fn step(&self, rng: &mut Rng, tally: &mut Tally) -> Result<(), TxnError>;
    fn counters(&self) -> Counters;
    /// Deliveries queued in the gossip router right now.
    fn pending_deliveries(&self) -> u64 {
        0
    }
    fn quiescent(&self) -> Quiescent;
    /// Check the engine's final state against what the clients did.
    /// Extra facts for the output (such as recovery time) go to `info`.
    fn check(
        self: Box<Self>,
        tally: &Tally,
        info: &mut Vec<(&'static str, String)>,
    ) -> Result<(), String>;
}

/// Inputs built before the timed set-up: key samplers and key lists are
/// the generator's, not the engine's.
pub struct Prepared {
    kind: Kind,
    zipf: Option<Zipf>,
    node_keys: Vec<Vec<u64>>,
}

const CLUSTER_NODES: usize = 4;

pub fn prepare(kind: Kind) -> Prepared {
    let n = kind.keys();
    let zipf = matches!(kind, Kind::NestedOltp | Kind::OccScan).then(|| Zipf::new(n, THETA));
    let mut node_keys = Vec::new();
    if kind == Kind::ClusterMixed {
        let partition = Partition::new(CLUSTER_NODES);
        node_keys = vec![Vec::new(); CLUSTER_NODES];
        for k in 0..n {
            node_keys[partition.home(&k)].push(k);
        }
    }
    Prepared { kind, zipf, node_keys }
}

/// Build the database or cluster, open its WAL, and load the keys — the
/// work `setup_s` times.
pub fn setup(prep: Prepared, data_dir: &Path) -> Box<dyn Workload> {
    let n = prep.kind.keys();
    match prep.kind {
        Kind::NestedOltp | Kind::OccScan => {
            let cc = if prep.kind == Kind::OccScan { CcMode::Optimistic } else { CcMode::Locking };
            let db = Db::with_config(DbConfig::builder().cc_mode(cc).build());
            load(&db, n);
            let zipf = prep.zipf.expect("skewed workloads have a sampler");
            if prep.kind == Kind::NestedOltp {
                Box::new(NestedOltp { db, zipf })
            } else {
                Box::new(OccScan { db, zipf })
            }
        }
        Kind::DurableCommit | Kind::WalCommit => {
            // wal-commit is durable-commit without fsync and checkpoints.
            let config = if prep.kind == Kind::DurableCommit {
                DbConfig::builder()
                    .durability(Durability::WalFsync)
                    .group_commit(true)
                    .checkpoint_every(50_000)
            } else {
                DbConfig::builder().durability(Durability::Wal).group_commit(true)
            }
            .build();
            let vfs = Arc::new(TimedVfs::default());
            let path = data_dir.join("bench.wal");
            let db = Db::open_with_vfs(vfs.clone(), path_str(&path), config.clone())
                .expect("open the benchmark WAL");
            load(&db, n);
            Box::new(LoggedCommit { kind: prep.kind, db, vfs, path, config })
        }
        Kind::ClusterMixed => {
            let node = DbConfig::builder().policy(DeadlockPolicy::NoWait).build();
            let cluster = Cluster::new(
                ClusterConfig::new(CLUSTER_NODES).gossip(GossipPolicy::EagerFull).node_config(node),
            );
            for k in 0..n {
                cluster.insert(k, 0);
            }
            Box::new(ClusterMixed { cluster, node_keys: prep.node_keys, keys: n })
        }
    }
}

fn path_str(path: &Path) -> &str {
    path.to_str().expect("the data directory path is UTF-8")
}

fn load(db: &Db<u64, i64>, n: u64) {
    for k in 0..n {
        db.insert(k, 0);
    }
}

/// Yield for the first retries, then sleep a jittered, capped interval
/// (at most 128 µs) to break retry lockstep. The jitter has its own
/// stream, so how often a transaction retries never shifts the inputs the
/// seed generates.
fn backoff(attempt: u32) {
    static THREADS: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static JITTER: RefCell<Rng> =
            RefCell::new(Rng::for_client(0, THREADS.fetch_add(1, Ordering::Relaxed)));
    }
    if attempt <= 2 {
        std::thread::yield_now();
    } else {
        let cap = 1u64 << attempt.min(7);
        let micros = JITTER.with(|j| j.borrow_mut().below(cap));
        std::thread::sleep(Duration::from_micros(micros));
    }
}

/// A top-level transaction of either engine, as the retry loop needs it.
trait TopLevel {
    fn commit(self) -> Result<(), TxnError>;
    fn abort(self);
}

impl TopLevel for Txn<u64, i64> {
    fn commit(self) -> Result<(), TxnError> {
        Txn::commit(self)
    }
    fn abort(self) {
        Txn::abort(self)
    }
}

impl TopLevel for ClusterTxn<u64, i64> {
    fn commit(self) -> Result<(), TxnError> {
        ClusterTxn::commit(self)
    }
    fn abort(self) {
        ClusterTxn::abort(self)
    }
}

/// One top-level transaction with bounded retries of retryable errors.
/// `begin` and `commit` name the layers those calls are charged to.
fn run_txn<T: TopLevel, R>(
    (begin, commit): (Layer, Layer),
    start: impl Fn() -> T,
    tally: &mut Tally,
    mut body: impl FnMut(&T) -> Result<R, TxnError>,
) -> Result<R, TxnError> {
    let mut attempt = 0;
    loop {
        attempt += 1;
        tally.attempts += 1;
        let txn = span(begin, &start);
        let err = match body(&txn) {
            Ok(out) => match span(commit, || txn.commit()) {
                Ok(()) => return Ok(out),
                Err(e) => e,
            },
            Err(e) => {
                txn.abort();
                e
            }
        };
        if !err.is_retryable() || attempt >= MAX_ATTEMPTS {
            return Err(err);
        }
        backoff(attempt);
    }
}

/// [`run_txn`] on a `Db`; `commit` names the layer of the commit call.
fn run_db<R>(
    db: &Db<u64, i64>,
    commit: Layer,
    tally: &mut Tally,
    body: impl FnMut(&Txn<u64, i64>) -> Result<R, TxnError>,
) -> Result<R, TxnError> {
    run_txn((Layer::CoreBegin, commit), || db.begin(), tally, body)
}

/// [`run_txn`] on a `Cluster`.
fn run_cluster<R>(
    cluster: &Cluster<u64, i64>,
    tally: &mut Tally,
    body: impl FnMut(&ClusterTxn<u64, i64>) -> Result<R, TxnError>,
) -> Result<R, TxnError> {
    run_txn((Layer::ClusterBegin, Layer::ClusterCommit), || cluster.begin(), tally, body)
}

fn db_counters(db: &Db<u64, i64>) -> Counters {
    let mut c = Counters::default();
    c.add_node(&db.stats());
    c
}

fn db_quiescent(db: &Db<u64, i64>, keys: u64, hot: u64) -> Quiescent {
    let s = db.stats();
    let e = db.epochs();
    Quiescent {
        retained_versions_per_key: (s.versions_created - s.versions_reclaimed) as f64 / keys as f64,
        floor_lag_epochs: e.watermark - e.oldest_retained,
        hot_chain_len: db.history(&hot).len() as u64,
    }
}

/// Every committed `(key, value)` pair, in key order.
fn all_rows(db: &Db<u64, i64>) -> Vec<(u64, i64)> {
    db.snapshot().range(..)
}

/// The value sum, after checking every loaded key is present.
fn checked_sum(rows: &[(u64, i64)], keys: u64) -> Result<i64, String> {
    if rows.len() as u64 != keys || rows.iter().enumerate().any(|(i, (k, _))| *k != i as u64) {
        return Err(format!("final scan returned {} rows, not keys 0..{keys}", rows.len()));
    }
    Ok(rows.iter().map(|(_, v)| v).sum())
}

fn expect_sum(what: &str, got: i64, want: u64) -> Result<(), String> {
    if got == want as i64 {
        Ok(())
    } else {
        Err(format!("{what}: value sum {got}, expected {want}"))
    }
}

// ---------------------------------------------------------------------
// nested-oltp

struct NestedOltp {
    db: Db<u64, i64>,
    zipf: Zipf,
}

impl Workload for NestedOltp {
    fn step(&self, rng: &mut Rng, tally: &mut Tally) -> Result<(), TxnError> {
        let reads: [u64; 6] = std::array::from_fn(|_| self.zipf.key(rng));
        let child_keys: [u64; 2] = std::array::from_fn(|_| self.zipf.key(rng));
        let child_writes = rng.one_in(2);
        let abort_child = rng.one_in(16);
        let out = run_db(&self.db, Layer::CoreCommit, tally, |txn| {
            for k in &reads {
                span(Layer::CoreRead, || txn.read(k))?;
            }
            let child = span(Layer::CoreChild, || txn.child())?;
            let work = child_keys.iter().try_for_each(|k| {
                if child_writes {
                    span(Layer::CoreRmw, || child.rmw(k, |v| v + 1)).map(drop)
                } else {
                    span(Layer::CoreRead, || child.read(k)).map(drop)
                }
            });
            if let Err(e) = work {
                span(Layer::CoreChildAbort, || child.abort());
                return Err(e);
            }
            if abort_child {
                // The paper's resilience: the parent survives a child
                // abort and still commits.
                span(Layer::CoreChildAbort, || child.abort());
                Ok(false)
            } else {
                span(Layer::CoreChildCommit, || child.commit())?;
                Ok(child_writes)
            }
        });
        tally.write_children += matches!(out, Ok(true)) as u64;
        out.map(drop)
    }

    fn counters(&self) -> Counters {
        db_counters(&self.db)
    }

    fn quiescent(&self) -> Quiescent {
        db_quiescent(&self.db, Kind::NestedOltp.keys(), self.zipf.key_of_rank(0))
    }

    fn check(
        self: Box<Self>,
        tally: &Tally,
        _: &mut Vec<(&'static str, String)>,
    ) -> Result<(), String> {
        let sum = checked_sum(&all_rows(&self.db), Kind::NestedOltp.keys())?;
        expect_sum("nested-oltp: 2 per committed write-child", sum, 2 * tally.write_children)
    }
}

// ---------------------------------------------------------------------
// occ-scan

struct OccScan {
    db: Db<u64, i64>,
    zipf: Zipf,
}

impl Workload for OccScan {
    fn step(&self, rng: &mut Rng, tally: &mut Tally) -> Result<(), TxnError> {
        if rng.below(10) < 7 {
            let start = rng.below(Kind::OccScan.keys() - SCAN_LEN + 1);
            tally.attempts += 1;
            let snap = span(Layer::MvccSnapshotOpen, || self.db.snapshot());
            let rows = span(Layer::MvccRange, || snap.range(start..start + SCAN_LEN));
            span(Layer::MvccSnapshotClose, || drop(snap));
            let exact = rows.len() as u64 == SCAN_LEN
                && rows.iter().enumerate().all(|(i, (k, _))| *k == start + i as u64);
            tally.bad_scans += !exact as u64;
            return Ok(());
        }
        let reads: [u64; 2] = std::array::from_fn(|_| self.zipf.key(rng));
        let writes: [u64; 2] = std::array::from_fn(|_| self.zipf.key(rng));
        let out = run_db(&self.db, Layer::OccCommit, tally, |txn| {
            for k in &reads {
                span(Layer::OccRead, || txn.read(k))?;
            }
            for k in &writes {
                span(Layer::OccRmw, || txn.rmw(k, |v| v + 1))?;
            }
            Ok(())
        });
        tally.occ_commits += out.is_ok() as u64;
        out
    }

    fn counters(&self) -> Counters {
        db_counters(&self.db)
    }

    fn quiescent(&self) -> Quiescent {
        db_quiescent(&self.db, Kind::OccScan.keys(), self.zipf.key_of_rank(0))
    }

    fn check(
        self: Box<Self>,
        tally: &Tally,
        _: &mut Vec<(&'static str, String)>,
    ) -> Result<(), String> {
        if tally.bad_scans > 0 {
            return Err(format!(
                "occ-scan: {} scans did not return their {SCAN_LEN} keys in order",
                tally.bad_scans
            ));
        }
        let sum = checked_sum(&all_rows(&self.db), Kind::OccScan.keys())?;
        expect_sum("occ-scan: 2 per committed optimistic transaction", sum, 2 * tally.occ_commits)
    }
}

// ---------------------------------------------------------------------
// durable-commit and wal-commit

struct LoggedCommit {
    kind: Kind,
    db: Db<u64, i64>,
    vfs: Arc<TimedVfs>,
    path: PathBuf,
    config: DbConfig,
}

impl Workload for LoggedCommit {
    fn step(&self, rng: &mut Rng, tally: &mut Tally) -> Result<(), TxnError> {
        let n = self.kind.keys();
        let reads: [u64; 2] = std::array::from_fn(|_| rng.below(n));
        let writes: [u64; 2] = std::array::from_fn(|_| rng.below(n));
        run_db(&self.db, Layer::CoreCommit, tally, |txn| {
            for k in &reads {
                span(Layer::CoreRead, || txn.read(k))?;
            }
            for k in &writes {
                span(Layer::CoreRmw, || txn.rmw(k, |v| v + 1))?;
            }
            Ok(())
        })
    }

    fn counters(&self) -> Counters {
        let mut c = db_counters(&self.db);
        c.vfs = self.vfs.counts();
        c
    }

    fn quiescent(&self) -> Quiescent {
        db_quiescent(&self.db, self.kind.keys(), 0)
    }

    fn check(
        self: Box<Self>,
        tally: &Tally,
        info: &mut Vec<(&'static str, String)>,
    ) -> Result<(), String> {
        let LoggedCommit { kind, db, vfs, path, config } = *self;
        let name = kind.name();
        let before = all_rows(&db);
        let sum = checked_sum(&before, kind.keys())?;
        expect_sum(&format!("{name}: 2 per commit"), sum, 2 * tally.committed)?;
        drop(db);
        drop(vfs);
        let t = Instant::now();
        let recovered =
            Db::<u64, i64>::recover_with_vfs(Arc::new(StdVfs::new()), path_str(&path), config)
                .map_err(|e| format!("{name}: recovery failed: {e}"))?;
        info.push(("recovery_s", t.elapsed().as_secs_f64().to_string()));
        let after = all_rows(&recovered);
        if after != before {
            let diff = before.iter().zip(&after).filter(|(a, b)| a != b).count();
            return Err(format!(
                "{name}: recovered state differs from the state at shutdown ({} vs {} rows, {diff} differ)",
                after.len(),
                before.len()
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// cluster-mixed

struct ClusterMixed {
    cluster: Cluster<u64, i64>,
    node_keys: Vec<Vec<u64>>,
    keys: u64,
}

impl Workload for ClusterMixed {
    fn step(&self, rng: &mut Rng, tally: &mut Tally) -> Result<(), TxnError> {
        if rng.below(10) < 8 {
            // Node-local and read-mostly: every key homed on one node.
            let keys = &self.node_keys[rng.below(CLUSTER_NODES as u64) as usize];
            let pick = |rng: &mut Rng| keys[rng.below(keys.len() as u64) as usize];
            let reads: [u64; 8] = std::array::from_fn(|_| pick(rng));
            let touch = rng.one_in(8).then(|| pick(rng));
            run_cluster(&self.cluster, tally, |txn| {
                for k in &reads {
                    span(Layer::ClusterGet, || txn.get(k))?;
                }
                if let Some(k) = touch {
                    // Rewrites the value it read: a write lock and a new
                    // version, with the value sum unchanged.
                    span(Layer::ClusterRmw, || txn.rmw(&k, |v| *v))?;
                }
                Ok(())
            })
        } else {
            // Cross-node transfer: -1 on a key of one node, +1 on a key
            // of another, so every transfer routes and gossips.
            let n = CLUSTER_NODES as u64;
            let src = rng.below(n);
            let dst = (src + 1 + rng.below(n - 1)) % n;
            let pick = |node: u64, rng: &mut Rng| {
                let keys = &self.node_keys[node as usize];
                keys[rng.below(keys.len() as u64) as usize]
            };
            let (from, to) = (pick(src, rng), pick(dst, rng));
            run_cluster(&self.cluster, tally, |txn| {
                span(Layer::ClusterRmw, || txn.rmw(&from, |v| v - 1))?;
                span(Layer::ClusterRmw, || txn.rmw(&to, |v| v + 1))?;
                Ok(())
            })
        }
    }

    fn counters(&self) -> Counters {
        let stats = self.cluster.stats();
        let mut c = Counters::default();
        for node in &stats.nodes {
            c.add_node(node);
        }
        c.sends = stats.router.sends;
        c.entries_shipped = stats.router.entries_shipped;
        c.cluster_commits = stats.commits;
        c
    }

    fn pending_deliveries(&self) -> u64 {
        self.cluster.stats().pending_deliveries as u64
    }

    fn quiescent(&self) -> Quiescent {
        let mut retained = 0u64;
        let mut floor_lag = 0u64;
        for i in 0..self.cluster.node_count() {
            let db = self.cluster.node(i);
            let s = db.stats();
            retained += s.versions_created - s.versions_reclaimed;
            let e = db.epochs();
            floor_lag = floor_lag.max(e.watermark - e.oldest_retained);
        }
        let hot = self.cluster.node(self.cluster.partition().home(&0u64)).history(&0).len();
        Quiescent {
            retained_versions_per_key: retained as f64 / self.keys as f64,
            floor_lag_epochs: floor_lag,
            hot_chain_len: hot as u64,
        }
    }

    fn check(
        self: Box<Self>,
        tally: &Tally,
        _: &mut Vec<(&'static str, String)>,
    ) -> Result<(), String> {
        self.cluster.flush();
        let rows =
            self.cluster.snapshot().map_err(|e| format!("cluster-mixed: snapshot: {e}"))?.range(..);
        expect_sum("cluster-mixed: transfers conserve the sum", checked_sum(&rows, self.keys)?, 0)?;
        let commits = self.cluster.stats().commits;
        if commits != tally.committed {
            return Err(format!(
                "cluster-mixed: ClusterStats.commits is {commits}, clients committed {}",
                tally.committed
            ));
        }
        Ok(())
    }
}
