//! Engine benchmarks: operation latencies and end-to-end workload
//! throughput for the shapes/policies the experiment tables report.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rnt_core::{Db, DbConfig, DeadlockPolicy};
use rnt_sim::engine::{run_workload, seeded_db, KeyDist, TxnShape, Workload};

fn bench_single_ops(c: &mut Criterion) {
    let db: Db<u64, i64> = Db::new();
    for k in 0..1024u64 {
        db.insert(k, 0);
    }
    let mut group = c.benchmark_group("engine/ops");
    group.throughput(Throughput::Elements(1));
    group.bench_function("begin+commit empty", |b| {
        b.iter(|| db.begin().commit().expect("empty commit"))
    });
    group.bench_function("read (uncontended)", |b| {
        let t = db.begin();
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 1) % 1024;
            t.read(&k).expect("seeded")
        });
    });
    group.bench_function("rmw (uncontended)", |b| {
        let t = db.begin();
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 1) % 1024;
            t.rmw(&k, |v| v + 1).expect("seeded")
        });
    });
    group.bench_function("txn with 4 ops", |b| {
        let mut k = 0u64;
        b.iter(|| {
            let t = db.begin();
            for _ in 0..4 {
                k = (k + 1) % 1024;
                t.rmw(&k, |v| v + 1).expect("seeded");
            }
            t.commit().expect("commit");
        });
    });
    group.bench_function("subtxn begin+op+commit", |b| {
        let t = db.begin();
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 1) % 1024;
            let c = t.child().expect("child");
            c.rmw(&k, |v| v + 1).expect("seeded");
            c.commit().expect("commit");
        });
    });
    group.finish();
}

fn bench_workloads(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/workload");
    group.sample_size(10);
    let shapes: [(&str, TxnShape); 3] = [
        ("serial", TxnShape::Serial),
        ("flat", TxnShape::Flat),
        ("nested", TxnShape::Nested { children: 4, depth: 1 }),
    ];
    for (name, shape) in shapes {
        let w = Workload {
            threads: 4,
            txns_per_thread: 100,
            ops_per_txn: 4,
            read_ratio: 0.5,
            keys: 512,
            dist: KeyDist::Uniform,
            shape,
            abort_prob: 0.0,
            exclusive_reads: false,
            op_abort_prob: 0.0,
            seed: 1,
        };
        group.throughput(Throughput::Elements((w.threads as u64) * (w.txns_per_thread as u64)));
        group.bench_with_input(BenchmarkId::new("shape", name), &w, |b, w| {
            b.iter(|| {
                let db = seeded_db(DbConfig::default(), w.keys);
                run_workload(&db, w)
            })
        });
    }
    for policy in [DeadlockPolicy::Detect, DeadlockPolicy::WaitDie, DeadlockPolicy::NoWait] {
        let w = Workload {
            threads: 4,
            txns_per_thread: 50,
            ops_per_txn: 4,
            read_ratio: 0.2,
            keys: 32,
            dist: KeyDist::Zipf(0.9),
            shape: TxnShape::Nested { children: 4, depth: 1 },
            abort_prob: 0.0,
            exclusive_reads: false,
            op_abort_prob: 0.0,
            seed: 1,
        };
        group.bench_with_input(
            BenchmarkId::new("contended_policy", format!("{policy:?}")),
            &w,
            |b, w| {
                b.iter(|| {
                    let db = seeded_db(DbConfig::builder().policy(policy).build(), w.keys);
                    run_workload(&db, w)
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_single_ops, bench_workloads
}
criterion_main!(benches);
