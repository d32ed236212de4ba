//! A [`Vfs`] over real files that counts and times the WAL's I/O.
//!
//! Every call is forwarded to [`StdVfs`]. Appends, fsyncs and replaces
//! (checkpoint rewrites) are counted and timed on every call — two clock
//! reads and relaxed atomic adds next to a system call — so the rare,
//! costly replace is measured even when no traced window catches one.
//! When the calling thread traces, each call is also a `wal.*` layer span
//! nested in the engine call that issued it.

use crate::trace::{span, Layer};
use rnt_wal::{StdVfs, Vfs, WalError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Calls, bytes and nanoseconds of one kind of I/O.
#[derive(Default)]
struct OpCounters {
    calls: AtomicU64,
    bytes: AtomicU64,
    nanos: AtomicU64,
}

impl OpCounters {
    fn time<R>(&self, layer: Layer, bytes: usize, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = span(layer, f);
        self.nanos.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        out
    }

    fn read(&self) -> OpCounts {
        OpCounts {
            calls: self.calls.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            nanos: self.nanos.load(Ordering::Relaxed),
        }
    }
}

#[derive(Default)]
pub struct TimedVfs {
    inner: StdVfs,
    append: OpCounters,
    fsync: OpCounters,
    replace: OpCounters,
}

/// One kind of I/O's totals at one instant.
#[derive(Clone, Copy, Default)]
pub struct OpCounts {
    pub calls: u64,
    pub bytes: u64,
    pub nanos: u64,
}

impl OpCounts {
    fn since(self, e: OpCounts) -> OpCounts {
        OpCounts {
            calls: self.calls - e.calls,
            bytes: self.bytes - e.bytes,
            nanos: self.nanos - e.nanos,
        }
    }
}

#[derive(Clone, Copy, Default)]
pub struct VfsCounts {
    pub append: OpCounts,
    pub fsync: OpCounts,
    pub replace: OpCounts,
}

impl VfsCounts {
    pub fn since(self, e: VfsCounts) -> VfsCounts {
        VfsCounts {
            append: self.append.since(e.append),
            fsync: self.fsync.since(e.fsync),
            replace: self.replace.since(e.replace),
        }
    }
}

impl TimedVfs {
    pub fn counts(&self) -> VfsCounts {
        VfsCounts {
            append: self.append.read(),
            fsync: self.fsync.read(),
            replace: self.replace.read(),
        }
    }
}

impl Vfs for TimedVfs {
    fn append(&self, path: &str, data: &[u8]) -> Result<(), WalError> {
        self.append.time(Layer::WalAppend, data.len(), || self.inner.append(path, data))
    }

    fn fsync(&self, path: &str) -> Result<(), WalError> {
        self.fsync.time(Layer::WalFsync, 0, || self.inner.fsync(path))
    }

    fn read(&self, path: &str) -> Result<Vec<u8>, WalError> {
        self.inner.read(path)
    }

    fn replace(&self, path: &str, data: &[u8]) -> Result<(), WalError> {
        self.replace.time(Layer::WalReplace, data.len(), || self.inner.replace(path, data))
    }

    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }
}
