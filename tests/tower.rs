//! Cross-crate integration: the full five-level tower on randomized
//! universes, and the engine↔model loop (a live concurrent execution
//! checked against the formal correctness condition).

use resilient_nt::algebra::{
    check_local_mapping_on_run, check_possibilities_on_run, check_simulation_on_run, replay,
    Composed,
};
use resilient_nt::core::{Db, DbConfig, DeadlockPolicy};
use resilient_nt::distributed::{HDist, Level5, Topology};
use resilient_nt::locking::{HDoublePrime, HPrime, Level3, Level4};
use resilient_nt::model::serial::is_serializable_bruteforce;
use resilient_nt::sim::engine::{run_workload, seeded_db, KeyDist, TxnShape, Workload};
use resilient_nt::sim::gen::{random_run, random_universe, UniverseConfig};
use resilient_nt::spec::{HSpec, Level1, Level2};
use std::sync::Arc;

fn cfg() -> UniverseConfig {
    UniverseConfig { objects: 2, top_actions: 2, max_fanout: 2, max_depth: 3, inner_prob: 0.5 }
}

#[test]
fn full_tower_on_many_random_universes() {
    for seed in 0..25u64 {
        let u = Arc::new(random_universe(seed, &cfg()));
        let topo = Arc::new(Topology::round_robin(&u, 2));
        let l5 = Level5::new(u.clone(), topo.clone());
        let l4 = Level4::new(u.clone());
        let l1 = Level1::new(u.clone());
        let h = HDist::new(u.clone(), topo);
        let hdp = HDoublePrime::new(u.clone());
        let h54: Composed<'_, _, _, Level4> = Composed::new(&h, &hdp);
        let h53: Composed<'_, _, _, Level3> = Composed::new(&h54, &HPrime);
        let h52: Composed<'_, _, _, Level2> = Composed::new(&h53, &HSpec);
        let run = random_run(&l5, seed ^ 0xabcd, 45);
        check_local_mapping_on_run(&l5, &l4, &h, &run)
            .unwrap_or_else(|e| panic!("seed {seed}: lemma 28 failed: {e}"));
        check_simulation_on_run(&l5, &l1, &h52, &run)
            .unwrap_or_else(|e| panic!("seed {seed}: theorem 29 failed: {e}"));
    }
}

#[test]
fn intermediate_possibilities_mappings_hold() {
    for seed in 0..25u64 {
        let u = Arc::new(random_universe(seed, &cfg()));
        let l2 = Level2::new(u.clone());
        let l3 = Level3::new(u.clone());
        let l4 = Level4::new(u.clone());
        let l1 = Level1::new(u.clone());
        let run = random_run(&l4, seed, 45);
        let hdp = HDoublePrime::new(u.clone());
        check_possibilities_on_run(&l4, &l3, &hdp, &run)
            .unwrap_or_else(|e| panic!("seed {seed}: lemma 20 failed: {e}"));
        let run3 = random_run(&l3, seed, 45);
        check_possibilities_on_run(&l3, &l2, &HPrime, &run3)
            .unwrap_or_else(|e| panic!("seed {seed}: lemma 17 failed: {e}"));
        let run2 = random_run(&l2, seed, 30);
        check_possibilities_on_run(&l2, &l1, &HSpec, &run2)
            .unwrap_or_else(|e| panic!("seed {seed}: lemma 15 failed: {e}"));
    }
}

#[test]
fn level1_spec_accepts_only_serializable_perms() {
    // Replay random level-2 runs at level 1 and confirm the spec's global
    // constraint C holds at every state, using brute force as ground truth.
    for seed in 0..15u64 {
        let u = Arc::new(random_universe(seed, &cfg()));
        let l2 = Level2::new(u.clone());
        let run = random_run(&l2, seed, 30);
        let states = replay(&l2, run).expect("valid");
        for aat in states.iter().step_by(5) {
            assert!(
                is_serializable_bruteforce(&aat.perm().tree, &u),
                "seed {seed}: perm not serializable by definition"
            );
        }
    }
}

#[test]
fn engine_executions_satisfy_the_formal_condition() {
    // The headline integration: a concurrent run of the production engine,
    // reconstructed as an AAT, passes the model's serializability check.
    for policy in [DeadlockPolicy::Detect, DeadlockPolicy::WaitDie, DeadlockPolicy::NoWait] {
        let db = seeded_db(DbConfig::builder().audit(true).policy(policy).build(), 24);
        let w = Workload {
            threads: 6,
            txns_per_thread: 30,
            ops_per_txn: 3,
            read_ratio: 0.4,
            keys: 24,
            dist: KeyDist::Zipf(0.8),
            shape: TxnShape::Nested { children: 3, depth: 2 },
            abort_prob: 0.15,
            exclusive_reads: false,
            op_abort_prob: 0.0,
            seed: 7,
        };
        run_workload(&db, &w);
        let (universe, aat) = db.audit_log().unwrap().reconstruct().expect("log well-formed");
        assert!(
            aat.perm().is_rw_data_serializable(&universe),
            "{policy:?}: engine execution not serializable"
        );
    }
}

#[test]
fn orphans_see_committed_consistent_values() {
    // An orphan (running under an aborted ancestor) keeps reading values
    // that existed consistently — the engine surfaces Orphaned rather than
    // exposing torn state.
    let db: Db<u64, i64> = Db::new();
    db.insert(0, 5);
    let top = db.begin();
    let child = top.child().unwrap();
    let grandchild = child.child().unwrap();
    assert_eq!(grandchild.read(&0).unwrap(), 5);
    child.abort();
    // The orphan cannot observe anything after the abort.
    assert!(grandchild.read(&0).is_err());
    // But the parent continues unharmed — resilience.
    assert_eq!(top.read(&0).unwrap(), 5);
    top.commit().unwrap();
}
