//! The hot-path internals under concurrency, through the public `Db`
//! surface: the striped stats ledger and the lock-free snapshot pins.

use rnt_core::{Db, DbConfig, DeadlockPolicy};
use std::sync::Arc;

fn db() -> Db<u64, i64> {
    Db::with_config(DbConfig::builder().policy(DeadlockPolicy::NoWait).shards(4).build())
}

/// Concurrent commits from many threads conserve the stats ledger — the
/// striped fold must lose nothing a single counter would have counted.
#[test]
fn stats_conservation_under_concurrency() {
    let db = Arc::new(db());
    for k in 0..32u64 {
        db.insert(k, 0);
    }
    std::thread::scope(|s| {
        for w in 0..8u64 {
            let db = db.clone();
            s.spawn(move || {
                for i in 0..200u64 {
                    let k = (w * 31 + i) % 32;
                    db.run(|t| t.rmw(&k, |v| v + 1)).unwrap();
                }
            });
        }
    });
    let s = db.stats();
    assert_eq!(s.begun, s.committed + s.aborted, "ledger");
    assert_eq!(s.committed, 8 * 200, "every quota commit counted");
    let total: i64 = (0..32u64).map(|k| db.committed_value(&k).unwrap()).sum();
    assert_eq!(total, 8 * 200, "committed effects");
}

/// Snapshots opened under write churn stay consistent and release their
/// pins: afterwards no pin is live and a fresh snapshot sees the final
/// state.
#[test]
fn snapshot_pins_release_under_churn() {
    let db = Arc::new(db());
    for k in 0..16u64 {
        db.insert(k, 0);
    }
    std::thread::scope(|s| {
        let writer = db.clone();
        s.spawn(move || {
            for i in 0..500i64 {
                writer.run(|t| t.rmw(&(i as u64 % 16), |v| v + 1)).unwrap();
            }
        });
        for _ in 0..4 {
            let reader = db.clone();
            s.spawn(move || {
                for _ in 0..200 {
                    let snap = reader.snapshot();
                    // A snapshot is a frozen epoch: re-reading a key must
                    // be stable no matter what the writer does.
                    let before = snap.read(&3);
                    let after = snap.read(&3);
                    assert_eq!(before, after, "snapshot drifted");
                }
            });
        }
    });
    assert_eq!(db.stats().snapshot_pins_live, 0, "every pin released");
    let snap = db.snapshot();
    let total: i64 = (0..16u64).map(|k| snap.read(&k).unwrap()).sum();
    assert_eq!(total, 500, "final state");
}
