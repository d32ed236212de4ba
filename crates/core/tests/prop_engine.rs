//! Property-based engine checks: serializability of audited concurrent
//! runs, conservation (no lost updates), resilience of abort, and lock
//! state invariants under random operation sequences.

use proptest::prelude::*;
use rnt_core::{Conflict, DbConfig, DeadlockPolicy, LockEnv, LockState, TxnId};
use rnt_sim::engine::{run_workload, seeded_db, KeyDist, TxnShape, Workload};
use std::collections::HashMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn audited_random_workloads_are_serializable(
        seed in 0u64..10_000,
        threads in 2usize..5,
        children in 1u32..4,
        depth in 1u32..3,
        read_pct in 0u32..=100,
        abort_pct in 0u32..=30,
        keys in 4u64..24,
        policy_pick in 0u8..3,
    ) {
        let policy = match policy_pick {
            0 => DeadlockPolicy::Detect,
            1 => DeadlockPolicy::WaitDie,
            _ => DeadlockPolicy::NoWait,
        };
        let db = seeded_db(DbConfig::builder().audit(true).policy(policy).build(), keys);
        let w = Workload {
            threads,
            txns_per_thread: 8,
            ops_per_txn: 3,
            read_ratio: read_pct as f64 / 100.0,
            keys,
            dist: KeyDist::Uniform,
            shape: TxnShape::Nested { children, depth },
            abort_prob: abort_pct as f64 / 100.0,
            exclusive_reads: false,
            op_abort_prob: 0.0,
            seed,
        };
        run_workload(&db, &w);
        let (universe, aat) = db.audit_log().unwrap().reconstruct().expect("log well-formed");
        prop_assert!(
            aat.perm().is_rw_data_serializable(&universe),
            "serializability violated (seed {seed})"
        );
    }

    #[test]
    fn increment_conservation(
        seed in 0u64..10_000,
        threads in 2usize..5,
        keys in 2u64..10,
        policy_pick in 0u8..3,
    ) {
        let policy = match policy_pick {
            0 => DeadlockPolicy::Detect,
            1 => DeadlockPolicy::WaitDie,
            _ => DeadlockPolicy::NoWait,
        };
        let db = seeded_db(DbConfig::builder().policy(policy).build(), keys);
        let w = Workload {
            threads,
            txns_per_thread: 10,
            ops_per_txn: 2,
            read_ratio: 0.0,
            keys,
            dist: KeyDist::Uniform,
            shape: TxnShape::Nested { children: 2, depth: 1 },
            abort_prob: 0.1,
            exclusive_reads: false,
            op_abort_prob: 0.0,
            seed,
        };
        let r = run_workload(&db, &w);
        let total: i64 = (0..keys).map(|k| db.committed_value(&k).unwrap()).sum();
        prop_assert_eq!(total, 4 * r.committed as i64, "lost or phantom update");
    }
}

/// A scriptable lock environment over an explicit forest.
#[derive(Default, Clone)]
struct ScriptEnv {
    parent: HashMap<TxnId, TxnId>,
    aborted: Vec<TxnId>,
}

impl LockEnv for ScriptEnv {
    fn is_ancestor(&self, a: TxnId, b: TxnId) -> bool {
        let mut cur = Some(b);
        while let Some(c) = cur {
            if c == a {
                return true;
            }
            cur = self.parent.get(&c).copied();
        }
        false
    }
    fn is_dead(&self, t: TxnId) -> bool {
        let mut cur = Some(t);
        while let Some(c) = cur {
            if self.aborted.contains(&c) {
                return true;
            }
            cur = self.parent.get(&c).copied();
        }
        false
    }
}

/// Random op against a LockState.
#[derive(Clone, Debug)]
enum LockOp {
    Read(u8),
    Write(u8, i64),
    Commit(u8),
    Abort(u8),
}

fn op_strategy() -> impl Strategy<Value = LockOp> {
    prop_oneof![
        (0u8..8).prop_map(LockOp::Read),
        (0u8..8, -4i64..5).prop_map(|(t, v)| LockOp::Write(t, v)),
        (0u8..8).prop_map(LockOp::Commit),
        (0u8..8).prop_map(LockOp::Abort),
    ]
}

proptest! {
    #[test]
    fn lock_state_invariants_under_random_ops(ops in prop::collection::vec(op_strategy(), 0..40)) {
        // Transactions 0..8 form a fixed forest: 0 and 1 top-level;
        // 2,3 children of 0; 4,5 children of 1; 6 child of 2; 7 child of 4.
        let mut env = ScriptEnv::default();
        let edges = [(2u64, 0u64), (3, 0), (4, 1), (5, 1), (6, 2), (7, 4)];
        for (c, p) in edges {
            env.parent.insert(TxnId(c), TxnId(p));
        }
        let mut lock: LockState<i64> = LockState::new(0);
        let mut done: Vec<TxnId> = Vec::new();
        for op in ops {
            match op {
                LockOp::Read(t) => {
                    let t = TxnId(t as u64);
                    if done.contains(&t) || env.is_dead(t) { continue; }
                    let _ = lock.try_read(t, &env);
                }
                LockOp::Write(t, v) => {
                    let t = TxnId(t as u64);
                    if done.contains(&t) || env.is_dead(t) { continue; }
                    let _ = lock.try_write(t, &env, |_| v);
                }
                LockOp::Commit(t) => {
                    let t = TxnId(t as u64);
                    if done.contains(&t) || env.is_dead(t) { continue; }
                    // Engine contract (enforced by the registry): commit
                    // only when every child is done.
                    let children_done = edges
                        .iter()
                        .filter(|&&(_, p)| TxnId(p) == t)
                        .all(|&(c, _)| done.contains(&TxnId(c)) || env.is_dead(TxnId(c)));
                    if !children_done { continue; }
                    lock.commit_to_parent(t, env.parent.get(&t).copied(), &env);
                    done.push(t);
                }
                LockOp::Abort(t) => {
                    let t = TxnId(t as u64);
                    if done.contains(&t) { continue; }
                    lock.abort_discard(t);
                    env.aborted.push(t);
                    done.push(t);
                }
            }
            lock.reap(&env);
            // Invariant 1: write holders form an ancestor chain.
            let holders: Vec<TxnId> = lock.write_holders().collect();
            for w in holders.windows(2) {
                prop_assert!(
                    env.is_ancestor(w[0], w[1]) && w[0] != w[1],
                    "write chain broken: {:?}", holders
                );
            }
            // Invariant 2: every reader is *comparable* with every write
            // holder (same ancestor chain). A write is granted only when
            // all readers are its ancestors; a read only when all writers
            // are its ancestors — either way the pair is related, and
            // commits/aborts preserve relatedness (locks move upward).
            for &r in lock.read_holders() {
                for &h in &holders {
                    prop_assert!(
                        env.is_ancestor(h, r) || env.is_ancestor(r, h),
                        "reader {:?} unrelated to writer {:?}", r, h
                    );
                }
            }
            // Invariant 3: no duplicate holders.
            let mut hs = holders.clone();
            hs.dedup();
            prop_assert_eq!(hs.len(), lock.write_holders().count());
        }
    }

    #[test]
    fn nested_write_stack_restores_on_abort(vals in prop::collection::vec(-100i64..100, 1..6)) {
        // A chain T0 → T1 → ... writes successive values; aborting from the
        // deepest up restores each enclosing version in reverse order.
        let mut env = ScriptEnv::default();
        for i in 1..vals.len() {
            env.parent.insert(TxnId(i as u64), TxnId(i as u64 - 1));
        }
        let mut lock: LockState<i64> = LockState::new(-1);
        for (i, &v) in vals.iter().enumerate() {
            lock.try_write(TxnId(i as u64), &env, |_| v).expect("chain writes are compatible");
        }
        for i in (0..vals.len()).rev() {
            prop_assert_eq!(*lock.current_value(), vals[i]);
            lock.abort_discard(TxnId(i as u64));
        }
        prop_assert_eq!(*lock.current_value(), -1, "base restored");
    }

    #[test]
    fn conflict_blockers_are_live_non_ancestors(
        t1 in 0u64..3, t2 in 3u64..6,
    ) {
        let env = ScriptEnv::default(); // all top-level, unrelated
        let mut lock: LockState<i64> = LockState::new(0);
        lock.try_write(TxnId(t1), &env, |_| 1).unwrap();
        match lock.try_write(TxnId(t2), &env, |_| 2) {
            Err(Conflict { blockers }) => {
                prop_assert_eq!(blockers, vec![TxnId(t1)]);
            }
            Ok(_) => prop_assert!(false, "unrelated write must conflict"),
        }
    }
}
