//! One closed-loop run of one workload against `Db` or `Cluster`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--setup-only]
//! ```
//!
//! Sets the workload up (timed), runs `CLIENTS` client threads for the
//! given seconds, checks the engine's final state, and prints an `info`
//! line followed, as the last line, by the result object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run alternates
//! untraced and traced windows and the metrics are the per-layer ones.
//! `--setup-only` prints `{"setup_s": ..}` after the set-up and stops.
//! Exits 1 when an output check fails, 2 on bad arguments.

mod gen;
mod hist;
mod sys;
mod trace;
mod vfs;
mod workloads;

use gen::Rng;
use hist::Histogram;
use rnt_core::TxnError;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use trace::{Layer, LayerTotals};
use workloads::{Counters, Kind, Tally, Workload, CLIENTS};

/// How often the main thread samples RSS (and, traced, router queues).
const SAMPLE_EVERY: Duration = Duration::from_millis(50);
/// Length of each untraced/traced window of a traced run.
const TRACE_WINDOW: Duration = Duration::from_millis(250);
/// End-to-end figures are computed per slice of this length and the
/// median over the run's slices is reported, so one disturbed second
/// does not move a run's result.
const SLICE: Duration = Duration::from_secs(1);

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut setup_only) =
        (None, None, None, false, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--setup-only" => setup_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let kind = Kind::parse(&workload).ok_or(format!("unknown workload {workload}"))?;
    Ok(Args {
        kind,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
        setup_only,
    })
}

/// Latency and commits of the transactions that started in one slice.
#[derive(Default)]
struct Slice {
    latency: Histogram,
    committed: u64,
}

/// What one client thread returns.
#[derive(Default)]
struct ClientResult {
    tally: Tally,
    /// Untraced transaction latency over the whole run.
    latency: Histogram,
    slices: Vec<Slice>,
    /// Duration of every transaction, summed.
    txn_nanos: u64,
    traced_txns: u64,
    traced_nanos: u64,
    untraced_txns: u64,
    layers: LayerTotals,
    /// The first error a transaction was given up with.
    first_error: Option<TxnError>,
}

impl ClientResult {
    fn merge(&mut self, o: &ClientResult) {
        self.tally.merge(&o.tally);
        self.latency.merge(&o.latency);
        self.slices.resize_with(self.slices.len().max(o.slices.len()), Slice::default);
        for (a, b) in self.slices.iter_mut().zip(&o.slices) {
            a.latency.merge(&b.latency);
            a.committed += b.committed;
        }
        self.txn_nanos += o.txn_nanos;
        self.traced_txns += o.traced_txns;
        self.traced_nanos += o.traced_nanos;
        self.untraced_txns += o.untraced_txns;
        self.layers.merge(&o.layers);
        if self.first_error.is_none() {
            self.first_error.clone_from(&o.first_error);
        }
    }
}

fn client(
    w: &dyn Workload,
    mut rng: Rng,
    run_start: Instant,
    slices: usize,
    stop: &AtomicBool,
) -> ClientResult {
    let mut r = ClientResult::default();
    r.slices.resize_with(slices, Slice::default);
    while !stop.load(Ordering::Relaxed) {
        let traced = trace::enabled();
        trace::set_thread(traced);
        let start = Instant::now();
        let out = w.step(&mut rng, &mut r.tally);
        let nanos = start.elapsed().as_nanos() as u64;
        let slice = &mut r.slices
            [((start - run_start).as_nanos() / SLICE.as_nanos()).min(slices as u128 - 1) as usize];
        r.tally.attempted += 1;
        match out {
            Ok(()) => {
                r.tally.committed += 1;
                slice.committed += 1;
            }
            Err(e) => {
                r.tally.failed += 1;
                r.first_error.get_or_insert(e);
            }
        }
        r.txn_nanos += nanos;
        if traced {
            r.traced_txns += 1;
            r.traced_nanos += nanos;
        } else {
            r.untraced_txns += 1;
            r.latency.record(nanos);
            slice.latency.record(nanos);
        }
    }
    trace::set_thread(false);
    r.layers = trace::take_thread();
    r
}

/// What the main thread observed while the clients ran.
struct Window {
    elapsed: Duration,
    peak_rss: u64,
    traced_wall: Duration,
    untraced_wall: Duration,
    pending_max: u64,
}

fn run_clients(w: &dyn Workload, args: &Args) -> (ClientResult, Window) {
    let stop = AtomicBool::new(false);
    let run_for = Duration::from_secs_f64(args.seconds);
    let mut win = Window {
        elapsed: Duration::ZERO,
        peak_rss: sys::rss_bytes(),
        traced_wall: Duration::ZERO,
        untraced_wall: Duration::ZERO,
        pending_max: 0,
    };
    // Whole slices only; a run shorter than one slice is one slice.
    let slices = ((run_for.as_nanos() / SLICE.as_nanos()) as usize).max(1);
    let merged = std::thread::scope(|s| {
        let start = Instant::now();
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let rng = Rng::for_client(args.seed, c);
                let stop = &stop;
                s.spawn(move || client(w, rng, start, slices, stop))
            })
            .collect();
        let (mut tracing, mut mode_start) = (false, start);
        loop {
            let now = Instant::now();
            if args.trace && now.duration_since(mode_start) >= TRACE_WINDOW {
                *if tracing { &mut win.traced_wall } else { &mut win.untraced_wall } +=
                    now - mode_start;
                tracing = !tracing;
                trace::set_enabled(tracing);
                mode_start = now;
            }
            if now.duration_since(start) >= run_for {
                break;
            }
            std::thread::sleep(SAMPLE_EVERY.min(run_for - now.duration_since(start)));
            win.peak_rss = win.peak_rss.max(sys::rss_bytes());
            if args.trace {
                win.pending_max = win.pending_max.max(w.pending_deliveries());
            }
        }
        stop.store(true, Ordering::Relaxed);
        let end = Instant::now();
        *if tracing { &mut win.traced_wall } else { &mut win.untraced_wall } += end - mode_start;
        trace::set_enabled(false);
        let mut merged = ClientResult::default();
        for h in handles {
            merged.merge(&h.join().expect("client thread panicked"));
        }
        win.elapsed = start.elapsed();
        merged
    });
    win.peak_rss = win.peak_rss.max(sys::rss_bytes());
    (merged, win)
}

type Metric = (String, f64, &'static str);

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn end_to_end(
    r: &ClientResult,
    win: &Window,
    setup: f64,
    resident: f64,
    after_setup: u64,
) -> Vec<Metric> {
    let t = &r.tally;
    let slice_s = SLICE.as_secs_f64().min(win.elapsed.as_secs_f64());
    let per_slice = |f: &dyn Fn(&Slice) -> f64| median(r.slices.iter().map(f).collect());
    vec![
        ("throughput_tps".into(), per_slice(&|s| s.committed as f64 / slice_s), "1/s"),
        ("txn_p50_us".into(), per_slice(&|s| s.latency.quantile(0.50) / 1e3), "us"),
        ("txn_p99_us".into(), per_slice(&|s| s.latency.quantile(0.99) / 1e3), "us"),
        ("committed_share".into(), ratio(t.committed as f64, t.attempted as f64), "ratio"),
        ("setup_s".into(), setup, "s"),
        ("resident_bytes_per_key".into(), resident, "B/key"),
        (
            "rss_growth_bytes_per_txn".into(),
            ratio(win.peak_rss.saturating_sub(after_setup) as f64, t.committed as f64),
            "B/txn",
        ),
    ]
}

fn per_layer(
    r: &ClientResult,
    win: &Window,
    c: &Counters,
    q: &workloads::Quiescent,
) -> Vec<Metric> {
    let mut m: Vec<Metric> = Vec::new();
    let traced = r.traced_nanos as f64;
    let mut covered = 0.0;
    for layer in Layer::ALL {
        let (calls, nanos) = (r.layers.calls[layer as usize], r.layers.self_nanos[layer as usize]);
        covered += nanos as f64;
        // WAL calls are leaves, timed by the Vfs on every call of the run.
        let mean_us = match layer {
            Layer::WalAppend => ratio(c.vfs.append.nanos as f64 / 1e3, c.vfs.append.calls as f64),
            Layer::WalFsync => ratio(c.vfs.fsync.nanos as f64 / 1e3, c.vfs.fsync.calls as f64),
            Layer::WalReplace => {
                ratio(c.vfs.replace.nanos as f64 / 1e3, c.vfs.replace.calls as f64)
            }
            _ => ratio(nanos as f64 / 1e3, calls as f64),
        };
        m.push((format!("{}_us", layer.name()), mean_us, "us"));
        m.push((format!("{}_share", layer.name()), ratio(nanos as f64, traced), "ratio"));
    }
    let committed = r.tally.committed as f64;
    let per_txn = |n: u64| ratio(n as f64, committed);
    m.extend([
        ("core.lock.waits_per_txn".into(), per_txn(c.waits), "1/txn"),
        ("core.lock.wait_share".into(), ratio(c.wait_nanos as f64, r.txn_nanos as f64), "ratio"),
        ("core.lock.deadlocks_per_ktxn".into(), 1e3 * per_txn(c.deadlocks), "1/ktxn"),
        (
            "core.attempts_per_txn".into(),
            ratio(r.tally.attempts as f64, r.tally.attempted as f64),
            "1/txn",
        ),
        ("core.occ.conflicts_per_ktxn".into(), 1e3 * per_txn(c.occ_conflicts), "1/ktxn"),
        ("mvcc.retained_versions_per_key".into(), q.retained_versions_per_key, "1/key"),
        ("mvcc.floor_lag_epochs".into(), q.floor_lag_epochs as f64, "epochs"),
        ("mvcc.hot_chain_len".into(), q.hot_chain_len as f64, "versions"),
        (
            "commit.batch_amortization".into(),
            ratio(c.commits_batched as f64, c.commit_batches as f64),
            "txn/batch",
        ),
        ("wal.appends_per_txn".into(), per_txn(c.vfs.append.calls), "1/txn"),
        ("wal.fsyncs_per_txn".into(), per_txn(c.vfs.fsync.calls), "1/txn"),
        ("wal.bytes_per_txn".into(), per_txn(c.vfs.append.bytes), "B/txn"),
        ("wal.checkpoint_bytes_per_txn".into(), per_txn(c.vfs.replace.bytes), "B/txn"),
        (
            "cluster.sends_per_commit".into(),
            ratio(c.sends as f64, c.cluster_commits as f64),
            "1/txn",
        ),
        (
            "cluster.entries_shipped_per_commit".into(),
            ratio(c.entries_shipped as f64, c.cluster_commits as f64),
            "1/txn",
        ),
        ("cluster.pending_deliveries_max".into(), win.pending_max as f64, "count"),
        ("bench.unattributed_share".into(), ratio(traced - covered, traced), "ratio"),
    ]);
    let tps = |txns: u64, wall: Duration| ratio(txns as f64, wall.as_secs_f64());
    let overhead =
        1.0 - ratio(tps(r.traced_txns, win.traced_wall), tps(r.untraced_txns, win.untraced_wall));
    m.push(("bench.trace_overhead".into(), overhead, "ratio"));
    m
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn json_list(values: impl Iterator<Item = f64>) -> String {
    format!("[{}]", values.map(json_num).collect::<Vec<_>>().join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--setup-only]",
                names.join("|")
            );
            std::process::exit(2);
        }
    };
    // Run files live under the working directory, one directory per
    // process, removed when the run ends.
    let data_dir = PathBuf::from(".perfbench_run").join(std::process::id().to_string());
    std::fs::create_dir_all(&data_dir).expect("create the run directory");

    let prepared = workloads::prepare(args.kind);
    let rss_before = sys::rss_bytes();
    let setup_start = Instant::now();
    let w = workloads::setup(prepared, &data_dir);
    let setup_s = setup_start.elapsed().as_secs_f64();
    let rss_after_setup = sys::rss_bytes();
    if args.setup_only {
        println!("{{\"setup_s\": {}}}", json_num(setup_s));
        // Skip tearing the loaded engine down; the process ends here.
        let _ = std::fs::remove_dir_all(&data_dir);
        std::process::exit(0);
    }
    let keys = args.kind.keys();
    let resident = rss_after_setup.saturating_sub(rss_before) as f64 / keys as f64;

    let before = w.counters();
    let (r, win) = run_clients(&*w, &args);
    let counters = w.counters().since(before);
    let quiescent = w.quiescent();

    let mut info: Vec<(&'static str, String)> = vec![
        ("workload", json_str(args.kind.name())),
        ("seed", args.seed.to_string()),
        ("host_cores", sys::host_cores().to_string()),
        ("client_threads", CLIENTS.to_string()),
        ("loop", json_str("closed")),
        ("keys", keys.to_string()),
        ("seconds", json_num(win.elapsed.as_secs_f64())),
        ("traced", args.trace.to_string()),
        (
            "wal_fs",
            json_str(&if args.kind.logged() { sys::fs_type(&data_dir) } else { "none".into() }),
        ),
        ("latency_samples", r.latency.count().to_string()),
        ("p50_samples_beyond", r.latency.beyond(0.50).to_string()),
        ("p99_samples_beyond", r.latency.beyond(0.99).to_string()),
        ("slices", r.slices.len().to_string()),
        ("slice_seconds", json_num(SLICE.as_secs_f64())),
        (
            "min_slice_samples",
            r.slices.iter().map(|s| s.latency.count()).min().unwrap_or(0).to_string(),
        ),
        ("whole_run_tps", json_num(r.tally.committed as f64 / win.elapsed.as_secs_f64())),
        ("whole_run_p50_us", json_num(r.latency.quantile(0.50) / 1e3)),
        ("whole_run_p99_us", json_num(r.latency.quantile(0.99) / 1e3)),
        ("slice_commits", json_list(r.slices.iter().map(|s| s.committed as f64))),
        ("slice_p99_us", json_list(r.slices.iter().map(|s| s.latency.quantile(0.99) / 1e3))),
        ("rss_before_setup_bytes", rss_before.to_string()),
        ("rss_after_setup_bytes", rss_after_setup.to_string()),
        ("peak_rss_bytes", win.peak_rss.to_string()),
    ];
    if let Some(e) = &r.first_error {
        info.push(("first_error", json_str(&e.to_string())));
    }
    let check = w.check(&r.tally, &mut info);
    let _ = std::fs::remove_dir_all(&data_dir);
    if let Err(e) = &check {
        eprintln!("perfbench: output check failed: {e}");
        info.push(("check_error", json_str(e)));
    }

    let metrics = if args.trace {
        per_layer(&r, &win, &counters, &quiescent)
    } else {
        end_to_end(&r, &win, setup_s, resident, rss_after_setup)
    };
    let mut line = String::from("{\"info\": {");
    for (i, (k, v)) in info.iter().enumerate() {
        write!(line, "{}\"{k}\": {v}", if i > 0 { ", " } else { "" }).expect("write to String");
    }
    line.push_str("}}");
    println!("{line}");
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        check.is_ok(),
        r.tally.attempted,
        r.tally.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        write!(
            out,
            "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if i > 0 { ", " } else { "" },
            json_num(*value)
        )
        .expect("write to String");
    }
    out.push_str("}}");
    println!("{out}");
    // The engine is not torn down: the process ends here.
    std::process::exit(if check.is_ok() { 0 } else { 1 });
}
