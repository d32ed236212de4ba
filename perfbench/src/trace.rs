//! Layer spans recorded around the benchmark's calls into the engine.
//!
//! A span covers one public call into a layer (`Db::begin`, `Txn::read`,
//! `Snapshot::range`, a `Vfs` append, ...). Spans nest on the calling
//! thread — a WAL append runs inside the `Txn::commit` that forced it —
//! and a span's *self* time is its duration minus the spans nested in
//! it. Per thread and per layer the recorder keeps only a call count and
//! a self-time sum, so tracing costs fixed memory however long it runs.
//!
//! Tracing is switched per transaction: a client samples [`enabled`] when
//! a transaction starts and the whole transaction is traced or not.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// The layer boundaries the benchmark times, named after the engine
/// module each call enters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    CoreBegin,
    CoreChild,
    CoreChildCommit,
    CoreChildAbort,
    CoreRead,
    CoreRmw,
    CoreCommit,
    OccRead,
    OccRmw,
    OccCommit,
    MvccSnapshotOpen,
    MvccRange,
    MvccSnapshotClose,
    WalAppend,
    WalFsync,
    WalReplace,
    ClusterBegin,
    ClusterGet,
    ClusterRmw,
    ClusterCommit,
}

impl Layer {
    pub const ALL: [Layer; 20] = [
        Layer::CoreBegin,
        Layer::CoreChild,
        Layer::CoreChildCommit,
        Layer::CoreChildAbort,
        Layer::CoreRead,
        Layer::CoreRmw,
        Layer::CoreCommit,
        Layer::OccRead,
        Layer::OccRmw,
        Layer::OccCommit,
        Layer::MvccSnapshotOpen,
        Layer::MvccRange,
        Layer::MvccSnapshotClose,
        Layer::WalAppend,
        Layer::WalFsync,
        Layer::WalReplace,
        Layer::ClusterBegin,
        Layer::ClusterGet,
        Layer::ClusterRmw,
        Layer::ClusterCommit,
    ];

    /// Metric stem: `<name>_us` is the mean self time per call and
    /// `<name>_share` the self time over all traced transaction time.
    pub fn name(self) -> &'static str {
        match self {
            Layer::CoreBegin => "core.begin",
            Layer::CoreChild => "core.child",
            Layer::CoreChildCommit => "core.child_commit",
            Layer::CoreChildAbort => "core.child_abort",
            Layer::CoreRead => "core.read",
            Layer::CoreRmw => "core.rmw",
            Layer::CoreCommit => "core.commit",
            Layer::OccRead => "core.occ.read",
            Layer::OccRmw => "core.occ.rmw",
            Layer::OccCommit => "core.occ.commit",
            Layer::MvccSnapshotOpen => "mvcc.snapshot_open",
            Layer::MvccRange => "mvcc.range",
            Layer::MvccSnapshotClose => "mvcc.snapshot_close",
            Layer::WalAppend => "wal.append",
            Layer::WalFsync => "wal.fsync",
            Layer::WalReplace => "wal.replace",
            Layer::ClusterBegin => "cluster.begin",
            Layer::ClusterGet => "cluster.get",
            Layer::ClusterRmw => "cluster.rmw",
            Layer::ClusterCommit => "cluster.commit",
        }
    }
}

const LAYERS: usize = Layer::ALL.len();

/// Per-layer call counts and self-time sums.
#[derive(Clone, Copy, Default)]
pub struct LayerTotals {
    pub calls: [u64; LAYERS],
    pub self_nanos: [u64; LAYERS],
}

impl LayerTotals {
    pub fn merge(&mut self, other: &LayerTotals) {
        for i in 0..LAYERS {
            self.calls[i] += other.calls[i];
            self.self_nanos[i] += other.self_nanos[i];
        }
    }
}

/// Set by the run loop to switch tracing on for transactions that start
/// from now on.
static TRACING: AtomicBool = AtomicBool::new(false);

pub fn set_enabled(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Deepest span nesting the workloads produce is commit → WAL call.
const MAX_DEPTH: usize = 8;

struct ThreadTrace {
    /// Time covered by already-closed child spans, per open span.
    child_nanos: [u64; MAX_DEPTH],
    depth: usize,
    totals: LayerTotals,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static TRACE: RefCell<ThreadTrace> = const {
        RefCell::new(ThreadTrace {
            child_nanos: [0; MAX_DEPTH],
            depth: 0,
            totals: LayerTotals { calls: [0; LAYERS], self_nanos: [0; LAYERS] },
        })
    };
}

/// Trace (or not) the transactions this thread starts next.
pub fn set_thread(on: bool) {
    ON.with(|c| c.set(on));
}

/// Run `f` as one call into `layer`, timing it when this thread traces.
#[inline]
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    if !ON.with(Cell::get) {
        return f();
    }
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        let depth = t.depth;
        assert!(depth < MAX_DEPTH, "span nesting deeper than {MAX_DEPTH}");
        t.child_nanos[depth] = 0;
        t.depth += 1;
    });
    let start = Instant::now();
    let out = f();
    let nanos = start.elapsed().as_nanos() as u64;
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        t.depth -= 1;
        let depth = t.depth;
        let own = nanos.saturating_sub(t.child_nanos[depth]);
        t.totals.calls[layer as usize] += 1;
        t.totals.self_nanos[layer as usize] += own;
        if depth > 0 {
            t.child_nanos[depth - 1] += nanos;
        }
    });
    out
}

/// Take this thread's totals, resetting them.
pub fn take_thread() -> LayerTotals {
    TRACE.with(|t| std::mem::take(&mut t.borrow_mut().totals))
}
