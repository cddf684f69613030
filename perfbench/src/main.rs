//! The repository benchmark: one workload per process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_read_heavy|serve_ingest|objects_n64|explore_w9> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root. With `--trace 0` it measures the
//! workload untraced and prints the end-to-end metrics; with `--trace 1`
//! it measures the workload untraced and traced for half the time each,
//! reports the per-layer metrics and the tracing overhead, and writes
//! the spans to `perfbench/traces/<workload>.trace.json`. Earlier stdout
//! lines carry the host and input stamp and notes; the last line is the
//! JSON result. The exit code is 1 when a correctness check fails.

mod baseline;
mod explore;
mod objects;
mod ops;
mod pin;
mod report;
mod rss;
mod serve;
mod stats;
mod trace;

use std::hint::black_box;
use std::process::{self, Command};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ruo_metrics::{HealthEvent, HealthGauges, MetricsRegistry};
use ruo_sim::ProcessId;

use crate::objects::{ObjectsLoad, ObjectsRun};
use crate::ops::{Kind, BATCH_LEN, SESSION_LEN};
use crate::report::{Metrics, END_TO_END, SELF_LAYERS};
use crate::serve::{ServeLoad, ServeRun};
use crate::stats::{median, quantile, Quantile};
use crate::trace::Tracer;

/// Measured time per round of an objects pass; a pass runs one round per
/// `ROUND` of its measured time.
pub const ROUND: Duration = Duration::from_secs(1);

/// Rounds for `measured` time: one per [`ROUND`], at least one.
pub fn rounds(measured: Duration) -> usize {
    (measured.as_nanos().div_ceil(ROUND.as_nanos()) as usize).max(1)
}

/// Most load threads (and connections) the benchmark opens.
const MAX_THREADS: usize = 2;

/// Where traced runs write their spans.
const TRACE_DIR: &str = "perfbench/traces";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServeReadHeavy,
    ServeIngest,
    ObjectsN64,
    ExploreW9,
}

impl Workload {
    const ALL: [(&'static str, Workload); 4] = [
        ("serve_read_heavy", Workload::ServeReadHeavy),
        ("serve_ingest", Workload::ServeIngest),
        ("objects_n64", Workload::ObjectsN64),
        ("explore_w9", Workload::ExploreW9),
    ];

    fn name(self) -> &'static str {
        Workload::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .expect("listed")
            .0
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: run as an `explore_w9` child process measuring this
    /// many explorations (see `explore::run_in_children`).
    explore_child: Option<u64>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut explore_child = None;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL.iter().find(|(n, _)| *n == value);
                workload = Some(w.ok_or_else(|| format!("unknown workload {value}"))?.1);
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.clamp(1, 120)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--explore-child" => explore_child = Some(num()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        explore_child,
    })
}

/// One line of a command's stdout, or `"unknown"`.
fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The nearest-rank quantile, noting when too few samples lie beyond it.
fn q(samples: &[f64], p: f64, what: &str, notes: &mut Vec<String>) -> f64 {
    let got = quantile(samples, p).unwrap_or_else(|| panic!("{what}: no samples"));
    let Quantile {
        value,
        samples: n,
        beyond,
    } = got;
    let tag = if got.supported() { "" } else { " UNSUPPORTED" };
    notes.push(format!(
        "{what} = {value:.3} over {n} samples, {beyond} beyond{tag}"
    ));
    value
}

/// What a workload pass reports end to end. The `_rel` figures are
/// medians of per-round ratios to the host baseline measured around
/// each round; the others are in seconds and bytes as measured.
struct Pass {
    setup_s: f64,
    throughput: f64,
    p50_us: f64,
    p99_us: f64,
    throughput_rel: f64,
    p50_rel: f64,
    p99_rel: f64,
    peak_rss_mb: f64,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

/// The median over rounds of a per-round figure, so a round hit by a
/// burst of load from outside the benchmark does not move the result.
fn over_rounds<R>(rounds: &[R], f: impl Fn(&R) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}

fn serve_pass(r: &ServeRun, notes: &mut Vec<String>) -> Pass {
    let fewest = r.rounds.iter().map(|x| x.samples).min().unwrap_or(0);
    let rounds: Vec<String> = r
        .rounds
        .iter()
        .map(|x| {
            format!(
                "{:.0}/s p50 {:.3} p99 {:.3}",
                x.throughput, x.p50_us, x.p99_us
            )
        })
        .collect();
    notes.push(format!(
        "serve rounds (end-to-end figures are their medians; each p99 over at least {fewest} requests{}): {}",
        if fewest >= 100 * stats::MIN_BEYOND { "" } else { ", UNSUPPORTED" },
        rounds.join(", ")
    ));
    Pass {
        setup_s: median(&r.start_s),
        throughput: over_rounds(&r.rounds, |x| x.throughput),
        p50_us: over_rounds(&r.rounds, |x| x.p50_us),
        p99_us: over_rounds(&r.rounds, |x| x.p99_us),
        throughput_rel: over_rounds(&r.rounds, |x| x.throughput / x.base.rate),
        // Each quantile over the same quantile of the echo round trips.
        p50_rel: over_rounds(&r.rounds, |x| x.p50_us * 1e-6 / x.base.p50_s),
        p99_rel: over_rounds(&r.rounds, |x| x.p99_us * 1e-6 / x.base.p99_s),
        peak_rss_mb: over_rounds(&r.rounds, |x| x.peak_rss_mb),
        attempted: r.attempted,
        failed: r.failed,
        failures: r.failures.clone(),
    }
}

fn objects_pass(r: &ObjectsRun, notes: &mut Vec<String>) -> Pass {
    let fewest = r.rounds.iter().map(|x| x.samples).min().unwrap_or(0);
    notes.push(format!(
        "objects: medians over {} rounds; each round's p99 over at least {fewest} batches{}",
        r.rounds.len(),
        if fewest >= 100 * stats::MIN_BEYOND {
            ""
        } else {
            ", UNSUPPORTED"
        },
    ));
    let rate = |x: &objects::Round| (x.phase_rate[0] + x.phase_rate[1]) / 2.0;
    Pass {
        setup_s: median(&r.build_s),
        throughput: over_rounds(&r.rounds, rate),
        p50_us: over_rounds(&r.rounds, |x| x.p50_us),
        p99_us: over_rounds(&r.rounds, |x| x.p99_us),
        throughput_rel: over_rounds(&r.rounds, |x| rate(x) / x.base.rate),
        // Both quantiles over the kernel's median unit: its tail is
        // interrupts, while a batch's tail is contention.
        p50_rel: over_rounds(&r.rounds, |x| x.p50_us * 1e-6 / x.base.p50_s),
        p99_rel: over_rounds(&r.rounds, |x| x.p99_us * 1e-6 / x.base.p50_s),
        peak_rss_mb: over_rounds(&r.rounds, |x| x.peak_rss_mb),
        attempted: r.calls,
        failed: 0,
        failures: r.failures.clone(),
    }
}

/// Quantile `p` of `vals` (one per measured exploration) within each
/// process the explorations ran in, median over the processes, as the
/// other workloads take a quantile per round and the median over rounds.
fn per_process(r: &explore::ExploreRun, vals: &[f64], p: f64) -> f64 {
    let mut ids = r.process.clone();
    ids.sort_unstable();
    ids.dedup();
    let per: Vec<f64> = ids
        .iter()
        .map(|&id| {
            let xs: Vec<f64> = vals
                .iter()
                .zip(&r.process)
                .filter(|&(_, &q)| q == id)
                .map(|(&v, _)| v)
                .collect();
            quantile(&xs, p).map_or(f64::NAN, |q| q.value)
        })
        .collect();
    median(&per)
}

fn explore_pass(r: &explore::ExploreRun, notes: &mut Vec<String>) -> Pass {
    let schedules = r.counter("schedules") as f64;
    let per_run = |f: &dyn Fn(f64, &baseline::Baseline) -> f64| -> Vec<f64> {
        r.run_s.iter().zip(&r.base).map(|(&s, b)| f(s, b)).collect()
    };
    let us = per_run(&|s, _| s * 1e6);
    let in_units = per_run(&|s, b| s / b.p50_s);
    let runs: Vec<String> = r
        .run_s
        .iter()
        .zip(&r.base)
        .zip(&r.process)
        .map(|((s, b), p)| {
            format!(
                "{s:.3} s in process {p} (kernel unit {:.3} us)",
                b.p50_s * 1e6
            )
        })
        .collect();
    notes.push(format!(
        "explorations ({}; quantiles per process, median over processes; \
         UNSUPPORTED: fewer than {} explorations lie beyond either quantile): {}",
        match r.children {
            0 => "in this process".to_string(),
            n => format!("{} in each of {n} child processes", explore::CHILD_RUNS),
        },
        stats::MIN_BEYOND,
        runs.join(", ")
    ));
    Pass {
        setup_s: median(&r.setup_s),
        throughput: schedules / median(&r.run_s),
        p50_us: per_process(r, &us, 0.5),
        p99_us: per_process(r, &us, 0.99),
        throughput_rel: median(&per_run(&|s, b| schedules / s / b.rate)),
        p50_rel: per_process(r, &in_units, 0.5),
        p99_rel: per_process(r, &in_units, 0.99),
        peak_rss_mb: median(&r.peak_mb),
        attempted: r.runs * r.counter("schedules"),
        failed: r.bad_runs,
        failures: r.failures.clone(),
    }
}

/// The layer results of one traced run, from the main workload's traced
/// pass or, for layers it does not reach, a short pass of the workload
/// that does.
#[derive(Default)]
struct Layers {
    serve: Option<ServeRun>,
    objects: Option<ObjectsRun>,
    explore: Option<explore::ExploreRun>,
}

fn run_pass(
    w: Workload,
    a: &Args,
    threads: usize,
    window: Duration,
    trace: Option<Instant>,
    layers: &mut Layers,
    notes: &mut Vec<String>,
) -> Pass {
    match w {
        Workload::ServeReadHeavy | Workload::ServeIngest => {
            let r = serve::run(&ServeLoad {
                ingest: w == Workload::ServeIngest,
                threads,
                window,
                seed: a.seed,
                trace,
            });
            let p = serve_pass(&r, notes);
            layers.serve = Some(r);
            p
        }
        Workload::ObjectsN64 => {
            let r = objects::run(&ObjectsLoad {
                threads,
                phase: window / 2,
                seed: a.seed,
                trace,
            });
            let p = objects_pass(&r, notes);
            layers.objects = Some(r);
            p
        }
        Workload::ExploreW9 => {
            // The end-to-end pass spreads its explorations over child
            // processes; a traced run keeps both of its passes in this
            // one, where the spans are.
            let r = if a.trace {
                explore::run(threads, window, 3, trace)
            } else {
                explore::run_in_children(threads, a.seed, window)
            };
            let p = explore_pass(&r, notes);
            layers.explore = Some(r);
            p
        }
    }
}

/// Mean ns per `HealthGauges::bump` with `threads` threads bumping
/// their own identities at once, median of 5 rounds.
fn gauge_bump_ns(threads: usize) -> f64 {
    const BUMPS: u64 = 200_000;
    let g = HealthGauges::new(threads + 1);
    let rounds: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            thread::scope(|s| {
                for pid in 0..threads {
                    let g = &g;
                    s.spawn(move || {
                        for _ in 0..BUMPS {
                            g.bump(ProcessId(pid), black_box(HealthEvent::Served));
                        }
                    });
                }
            });
            t.elapsed().as_nanos() as f64 / BUMPS as f64
        })
        .collect();
    median(&rounds)
}

/// Mean ns per `MetricsRegistry::snapshot` over the serve health
/// gauges, median of 5 rounds.
fn registry_snapshot_ns(threads: usize) -> f64 {
    const SNAPSHOTS: u32 = 20_000;
    let g = Arc::new(HealthGauges::new(threads + 1));
    let mut registry = MetricsRegistry::new();
    g.register_telemetry(&mut registry, "");
    let rounds: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..SNAPSHOTS {
                black_box(registry.snapshot());
            }
            t.elapsed().as_nanos() as f64 / f64::from(SNAPSHOTS)
        })
        .collect();
    median(&rounds)
}

/// Fills every per-layer metric from the layer passes.
fn layer_metrics(
    m: &mut Metrics,
    l: &Layers,
    a: &Args,
    threads: usize,
    tracer: &mut Tracer,
    notes: &mut Vec<String>,
) -> Vec<String> {
    let mut failures = Vec::new();
    let s = l.serve.as_ref().expect("serve layers measured");
    for (name, samples, p) in [
        ("client.first_request_p50_us", &s.first_us, 0.5),
        ("client.read_p50_us", &s.read_us, 0.5),
        ("client.read_p99_us", &s.read_us, 0.99),
        ("client.update_p50_us", &s.update_us, 0.5),
        ("client.update_p99_us", &s.update_us, 0.99),
    ] {
        m.set(name, q(samples, p, name, notes));
    }
    m.set("client.connects", s.connects as f64);
    m.set("client.retries", s.retries as f64);
    let t = Instant::now();
    let (req_ns, resp_ns) = serve::codec_ns(&s.codec, Duration::from_millis(100));
    tracer.record("proto.codec_replay", t, 0);
    m.set("proto.request_codec_ns", req_ns);
    m.set("proto.response_codec_ns", resp_ns);
    m.set("server.start_s", median(&s.start_s));
    m.set("server.shutdown_s", median(&s.shutdown_s));
    let h = &s.health;
    for (name, v) in [
        ("server.served", h.served),
        ("server.admitted", h.admitted),
        ("server.dedup_hits", h.dedup_hits),
        ("server.degraded_reads", h.degraded_reads),
        ("server.deadline_misses", h.deadline_misses),
        ("server.shed", h.shed),
        ("server.queue_depth_peak", h.queue_depth_peak),
        ("server.inflight_peak", h.inflight_peak),
        ("server.log_ops", s.log_ops),
    ] {
        m.set(name, v as f64);
    }
    m.set("audit.s", s.audit_s);
    m.set("audit.ops_per_s", s.log_ops as f64 / s.audit_s);
    failures.extend(s.failures.iter().cloned());

    let t = Instant::now();
    m.set("metrics.gauge_bump_ns", gauge_bump_ns(threads));
    tracer.record("metrics.gauge_bump", t, 0);
    let t = Instant::now();
    m.set(
        "metrics.registry_snapshot_ns",
        registry_snapshot_ns(threads),
    );
    tracer.record("metrics.registry_snapshot", t, 0);

    let o = l.objects.as_ref().expect("core layer measured");
    m.set(
        "core.read_heavy_mops",
        over_rounds(&o.rounds, |x| x.phase_rate[0]) / 1e6,
    );
    m.set(
        "core.update_heavy_mops",
        over_rounds(&o.rounds, |x| x.phase_rate[1]) / 1e6,
    );
    let t = Instant::now();
    let steps = objects::count_steps(a.seed, threads, 40);
    tracer.record("core.count_steps", t, 0);
    for (i, kind) in Kind::ALL.into_iter().enumerate() {
        let name = kind.core_name();
        let (calls, ns) = o.per_kind[i];
        if calls == 0 {
            failures.push(format!("{name}: no calls measured"));
        }
        m.set(&format!("{name}_ns"), ns as f64 / calls.max(1) as f64);
        let c = steps[i];
        m.set(
            &format!("{name}_steps"),
            c.steps as f64 / c.calls.max(1) as f64,
        );
        m.set(
            &format!("{name}_cas_ok_ratio"),
            // A call that attempts no CAS wastes none.
            if c.cas_ok + c.cas_fail == 0 {
                1.0
            } else {
                c.cas_ok as f64 / (c.cas_ok + c.cas_fail) as f64
            },
        );
    }
    failures.extend(o.failures.iter().cloned());

    let e = l.explore.as_ref().expect("explore layer measured");
    for name in [
        "schedules",
        "crash_branches",
        "pruned_branches",
        "executed_steps",
        "replay_steps_saved",
    ] {
        m.set(&format!("explore.{name}"), e.counter(name) as f64);
    }
    let parallel_s = median(&e.run_s);
    m.set("explore.parallel_s", parallel_s);
    let t = Instant::now();
    let serial = explore::serial_seconds();
    tracer.record("explore.serial", t, 0);
    match serial {
        Ok(serial) => {
            m.set("explore.serial_s", serial);
            m.set("explore.parallel_speedup", serial / parallel_s);
        }
        Err(err) => {
            failures.push(err);
            m.set("explore.serial_s", 0.0);
            m.set("explore.parallel_speedup", 0.0);
        }
    }
    failures.extend(e.failures.iter().cloned());
    failures
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Fixes glibc's mmap threshold at its 128 KiB default. Left dynamic,
/// the threshold rises after the first large free, later large buffers
/// (op logs, sample vectors) then come from arenas that keep their pages
/// after the buffers are freed, and peak RSS depends on allocation
/// history rather than on what was live.
fn fix_mmap_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: mallopt takes two ints and only adjusts allocator
        // tuning; it is called before any thread but this one exists.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 128 * 1024);
        }
    }
}

fn main() {
    fix_mmap_threshold();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> [--seconds <s>] [--trace <0|1>]",
                Workload::ALL.map(|(n, _)| n).join("|")
            );
            process::exit(2);
        }
    };
    if let Err(e) = explore::load_scope(1) {
        eprintln!("perfbench: run from the repository root: {e}");
        process::exit(2);
    }
    let nproc = thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nproc.min(MAX_THREADS);
    if let Some(runs) = args.explore_child {
        process::exit(explore::child(threads, runs));
    }
    let w = args.workload;
    let shape = match w {
        Workload::ServeReadHeavy | Workload::ServeIngest => format!(
            "\"connections\": {threads}, \"workers\": {}, \"read_pct\": {}, \"session_len\": {}, \"loop\": \"closed\"",
            serve::WORKERS,
            if w == Workload::ServeIngest { 10 } else { 90 },
            if w == Workload::ServeIngest { SESSION_LEN.to_string() } else { "\"whole run\"".into() },
        ),
        Workload::ObjectsN64 => format!(
            "\"threads\": {threads}, \"n\": {}, \"phases_read_pct\": [90, 10], \"batch_len\": {BATCH_LEN}",
            objects::N
        ),
        Workload::ExploreW9 => format!("\"scope\": \"{}\", \"workers\": {threads}", explore::SCOPE),
    };
    println!(
        "stamp {{\"available_parallelism\": {nproc}, \"rustc\": \"{}\", \"commit\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, {shape}}}",
        command_line("rustc", &["-V"]),
        command_line("git", &["rev-parse", "HEAD"]),
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );

    let window = Duration::from_secs(args.seconds);
    let mut notes = Vec::new();
    let mut m = Metrics::default();
    let (correct, attempted, failed, declared);
    if !args.trace {
        let p = run_pass(
            w,
            &args,
            threads,
            window,
            None,
            &mut Layers::default(),
            &mut notes,
        );
        m.set("setup_s", p.setup_s);
        m.set("throughput_rel", p.throughput_rel);
        m.set("p50_rel", p.p50_rel);
        m.set("p99_rel", p.p99_rel);
        m.set("peak_rss_mb", p.peak_rss_mb);
        notes.push(format!(
            "as measured: throughput_per_s = {} p50_us = {} p99_us = {}",
            p.throughput, p.p50_us, p.p99_us
        ));
        notes.extend(p.failures.iter().map(|f| format!("FAILED: {f}")));
        correct = p.failures.is_empty() && p.failed == 0;
        (attempted, failed) = (p.attempted, p.failed);
        declared = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect::<Vec<_>>();
    } else {
        let base = Instant::now();
        let half = window / 2;
        let untraced = run_pass(
            w,
            &args,
            threads,
            half,
            None,
            &mut Layers::default(),
            &mut notes,
        );
        let mut layers = Layers::default();
        let traced = run_pass(w, &args, threads, half, Some(base), &mut layers, &mut notes);
        m.set("traced.throughput_per_s", traced.throughput);
        m.set("traced.p50_us", traced.p50_us);
        m.set("traced.p99_us", traced.p99_us);
        // Each pass's ratio to its own baselines, so that the host's
        // drift between the two passes stays out of the overhead.
        m.set(
            "trace.overhead_ratio",
            untraced.throughput_rel / traced.throughput_rel,
        );
        notes.push(format!(
            "untraced: throughput_per_s = {} p50_us = {} throughput_rel = {}",
            untraced.throughput, untraced.p50_us, untraced.throughput_rel
        ));
        // Layers the main workload does not reach get a short pass of a
        // workload that does, so every traced run reports every layer.
        let short = Duration::from_secs(1);
        if layers.serve.is_none() {
            run_pass(
                Workload::ServeReadHeavy,
                &args,
                threads,
                short,
                Some(base),
                &mut layers,
                &mut notes,
            );
        }
        if layers.objects.is_none() {
            run_pass(
                Workload::ObjectsN64,
                &args,
                threads,
                short,
                Some(base),
                &mut layers,
                &mut notes,
            );
        }
        if layers.explore.is_none() {
            layers.explore = Some(explore::run(threads, Duration::ZERO, 1, Some(base)));
        }
        let mut tracer = Tracer::new(Some(base), 0);
        let mut failures = layer_metrics(&mut m, &layers, &args, threads, &mut tracer, &mut notes);
        failures.extend(untraced.failures.iter().cloned());
        failures.extend(traced.failures.iter().cloned());

        let mut all = tracer.take();
        for t in [
            layers.serve.map(|r| r.trace),
            layers.objects.map(|r| r.trace),
            layers.explore.map(|r| r.trace),
        ]
        .into_iter()
        .flatten()
        {
            all.merge(t);
        }
        for layer in SELF_LAYERS {
            let ns = all.self_ns.get(layer).copied().unwrap_or(0);
            m.set(&format!("self.{layer}_s"), ns as f64 * 1e-9);
        }
        m.set("trace.spans", all.recorded as f64);
        all.spans.sort_by_key(|s| (s.start, s.tid));
        let path = format!("{TRACE_DIR}/{}.trace.json", w.name());
        match std::fs::create_dir_all(TRACE_DIR)
            .and_then(|()| std::fs::write(&path, trace::to_chrome_trace(&all.spans)))
        {
            Ok(()) => notes.push(format!(
                "{} of {} spans written to {path}",
                all.spans.len(),
                all.recorded
            )),
            Err(e) => failures.push(format!("writing {path}: {e}")),
        }
        notes.extend(failures.iter().map(|f| format!("FAILED: {f}")));
        correct = failures.is_empty() && untraced.failed + traced.failed == 0;
        (attempted, failed) = (
            untraced.attempted + traced.attempted,
            untraced.failed + traced.failed,
        );
        declared = report::per_layer();
    }
    for n in &notes {
        println!("note {n}");
    }
    println!(
        "{}",
        m.result_line(&declared, correct, attempted.max(1), failed)
    );
    process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload objects_n64 --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::ObjectsN64, 7, 10, true)
        );
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload explore_w9 --seed 1 --trace 2").is_err());
        assert!(args("--workload explore_w9 --seed").is_err());
        let child = args("--workload explore_w9 --seed 1 --explore-child 2").unwrap();
        assert_eq!(child.explore_child, Some(2));
    }
}
