//! Experiment W5 — exhaustive-explorer smoke harness.
//!
//! Runs the canonical scaled scope (three `WriteMax`es — two dominated —
//! plus a `ReadMax` against the real Algorithm A on `N = 4` with the
//! § 4.5 root fast path) twice over identical inputs: once enumerating
//! every interleaving, once with sleep-set pruning. Both runs must
//! complete un-truncated with no violation; the harness reports schedule
//! counts, the pruning factor, replay-steps saved by incremental
//! execution, and wall-clock, and writes the results as
//! machine-readable JSON (`BENCH_explore.json` when run from the
//! repository root) so before/after comparisons are a `diff`.
//!
//! Since the scenario-engine refactor the scope lives in the checked-in
//! `scenarios/w5_explore_{full,pruned}.json` specs (embedded at compile
//! time), and [`ruo_scenario::run_explore`] drives the search — this
//! harness asserts the specs still describe the canonical scope and
//! formats the results.
//!
//! Each sample also explores the W9 N = 5 / two-crash scope
//! (`scenarios/w9_explore_n5_2crash.json`) twice: once with the spec's
//! workers and once sequentially, for the parallel speedup (of the
//! median times) and each worker's share of the schedules (last
//! sample).
//!
//! The harness is its own gate: after writing the JSON it exits 1
//! unless pruning cuts the W5 schedule count, both parallel searches
//! reproduce their sequential counters exactly, and the N = 5 scope
//! keeps its exact counts (229,176 schedules, 199,254 crash branches,
//! 30,020 pruned branches). Any violation or truncation aborts the run.
//!
//! CLI: `--quick` (1 timing sample instead of 3 — the CI smoke target),
//! `--out <path>` (default `BENCH_explore.json`).

use ruo_metrics::ExploreGauges;
use ruo_scenario::{run_explore, ScenarioReport, ScenarioSpec};
use ruo_sim::explore::ExploreStats;
use ruo_sim::ProcessId;

const FULL_SPEC: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../scenarios/w5_explore_full.json"
));
const PRUNED_SPEC: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../scenarios/w5_explore_pruned.json"
));
const N5_SPEC: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../scenarios/w9_explore_n5_2crash.json"
));

/// Worker count for the parallel re-run of the pruned scope.
const PARALLEL_WORKERS: usize = 4;

/// The N = 5 scope's exact counts: schedules, crash branches, pruned
/// branches.
const N5_COUNTS: (usize, usize, usize) = (229_176, 199_254, 30_020);

fn load(text: &str) -> ScenarioSpec {
    let spec = ScenarioSpec::parse(text).expect("checked-in W5 spec parses");
    assert_eq!(
        ScenarioSpec::parse(&spec.to_json()).as_ref(),
        Ok(&spec),
        "W5 spec round trip must be identity"
    );
    spec
}

/// The explorer counters a report carries, in `ExploreStats` shape (for
/// the metrics gauges).
fn stats_of(report: &ScenarioReport) -> ExploreStats {
    ExploreStats {
        schedules: report.counter("schedules").unwrap_or(0) as usize,
        pruned_branches: report.counter("pruned_branches").unwrap_or(0) as usize,
        executed_steps: report.counter("executed_steps").unwrap_or(0),
        replay_steps_saved: report.counter("replay_steps_saved").unwrap_or(0),
        peak_depth: report.counter("peak_depth").unwrap_or(0) as usize,
        crash_branches: report.counter("crash_branches").unwrap_or(0) as usize,
        reads: 0,
        writes: 0,
        cas_ok: 0,
        cas_fail: 0,
    }
}

/// One timed run; panics on any violation or truncation — this harness
/// is also the CI gate that the scopes stay exhaustively checkable.
fn run(spec: &ScenarioSpec) -> (ScenarioReport, f64) {
    let report = run_explore(spec, false).expect("W5 scope builds");
    assert!(report.ok, "W5 scope failed: {:?}", report.notes);
    let secs = report.metric("seconds").expect("explore reports seconds");
    (report, secs)
}

/// Each worker's schedule count, as `run_explore` reports them for a
/// parallel run (empty for a sequential one).
fn worker_shares(report: &ScenarioReport) -> Vec<u64> {
    (0..)
        .map_while(|w| report.counter(&format!("worker_{w}_schedules")))
        .collect()
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    samples[samples.len() / 2]
}

fn main() {
    let mut quick = false;
    let mut out = "BENCH_explore.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out = args.next().expect("--out requires a path"),
            a => panic!("unknown argument: {a}"),
        }
    }
    let samples = if quick { 1 } else { 3 };
    let full_spec = load(FULL_SPEC);
    let pruned_spec = load(PRUNED_SPEC);
    // The same pruned scope searched by parallel workers: the merged
    // stats must reproduce the sequential run exactly.
    let mut parallel_spec = pruned_spec.clone();
    parallel_spec
        .explore
        .as_mut()
        .expect("explore section")
        .workers = PARALLEL_WORKERS;
    let n5_spec = load(N5_SPEC);
    let mut n5_serial_spec = n5_spec.clone();
    n5_serial_spec
        .explore
        .as_mut()
        .expect("explore section")
        .workers = 1;
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());

    let gauges = ExploreGauges::new(3);
    let mut full_secs = Vec::new();
    let mut pruned_secs = Vec::new();
    let mut parallel_secs = Vec::new();
    let mut n5_secs = Vec::new();
    let mut n5_serial_secs = Vec::new();
    let mut full = None;
    let mut pruned = None;
    let mut parallel = None;
    let mut n5_report = None;
    let mut n5_serial_report = None;
    for _ in 0..samples {
        let (r, t) = run(&full_spec);
        gauges.record(ProcessId(0), &stats_of(&r));
        full_secs.push(t);
        full = Some(r);
        let (r, t) = run(&pruned_spec);
        gauges.record(ProcessId(1), &stats_of(&r));
        pruned_secs.push(t);
        pruned = Some(r);
        let (r, t) = run(&parallel_spec);
        gauges.record(ProcessId(2), &stats_of(&r));
        parallel_secs.push(t);
        parallel = Some(r);
        // The N=5 / 2-crash scope, parallel and sequential: small
        // enough to stay un-truncated (run() panics otherwise).
        let (r, t) = run(&n5_spec);
        n5_secs.push(t);
        n5_report = Some(r);
        let (r, t) = run(&n5_serial_spec);
        n5_serial_secs.push(t);
        n5_serial_report = Some(r);
    }
    let full = stats_of(&full.expect("at least one sample"));
    let pruned = stats_of(&pruned.expect("at least one sample"));
    let parallel = stats_of(&parallel.expect("at least one sample"));
    let n5_report = n5_report.expect("at least one sample");
    let n5 = stats_of(&n5_report);
    let n5_shares = worker_shares(&n5_report);
    let n5_serial = stats_of(&n5_serial_report.expect("at least one sample"));
    let n5_t = median(&mut n5_secs);
    let n5_serial_t = median(&mut n5_serial_secs);
    let n5_speedup = n5_serial_t / n5_t;
    let n5_workers = n5_spec.explore.as_ref().expect("explore section").workers;

    let mut failures = Vec::new();
    let mut gate = |ok: bool, what: String| {
        if !ok {
            failures.push(what);
        }
    };
    gate(
        pruned.schedules < full.schedules,
        format!(
            "pruning must cut schedules: {} pruned vs {} full",
            pruned.schedules, full.schedules
        ),
    );
    gate(
        parallel == pruned,
        format!(
            "W5 parallel search must reproduce the sequential counts: {parallel:?} vs {pruned:?}"
        ),
    );
    gate(
        n5 == n5_serial,
        format!(
            "N=5 parallel search must reproduce the sequential counts: {n5:?} vs {n5_serial:?}"
        ),
    );
    gate(
        (n5.schedules, n5.crash_branches, n5.pruned_branches) == N5_COUNTS,
        format!(
            "N=5 counts must stay {N5_COUNTS:?}: got ({}, {}, {})",
            n5.schedules, n5.crash_branches, n5.pruned_branches
        ),
    );
    gate(
        n5_shares.len() == n5_workers && n5_shares.iter().sum::<u64>() == n5.schedules as u64,
        format!("N=5 worker shares must cover every schedule: {n5_shares:?}"),
    );
    let full_t = median(&mut full_secs);
    let pruned_t = median(&mut pruned_secs);
    let parallel_t = median(&mut parallel_secs);
    let factor = full.schedules as f64 / pruned.schedules as f64;
    let replay_factor = pruned.replay_steps_saved as f64 / pruned.executed_steps as f64;

    println!("W5: exhaustive explorer, scaled scope (3 writers + 1 reader, N=4, § 4.5 fast path)");
    println!(
        "  full:   {:>6} schedules  {:>8.1} ms",
        full.schedules,
        full_t * 1e3
    );
    println!(
        "  pruned: {:>6} schedules  {:>8.1} ms  ({} branches cut, {:.1}x fewer schedules)",
        pruned.schedules,
        pruned_t * 1e3,
        pruned.pruned_branches,
        factor
    );
    println!(
        "  incremental replay: {} steps executed, {} replay steps saved ({:.1}x)",
        pruned.executed_steps, pruned.replay_steps_saved, replay_factor
    );
    println!(
        "  parallel ({} workers): {:>6} schedules  {:>8.1} ms  ({:.2}x vs sequential pruned)",
        PARALLEL_WORKERS,
        parallel.schedules,
        parallel_t * 1e3,
        pruned_t / parallel_t
    );
    println!(
        "  N=5 / 2-crash headroom: {} schedules ({} crash branches) in {:.1} ms, un-truncated",
        n5.schedules,
        n5.crash_branches,
        n5_t * 1e3
    );
    println!(
        "  N=5 parallel ({n5_workers} workers, {parallelism} available): {:.1} ms vs {:.1} ms \
         sequential ({n5_speedup:.2}x), worker schedules {n5_shares:?}",
        n5_t * 1e3,
        n5_serial_t * 1e3
    );
    println!("  gauges: {gauges:?}");

    let json = format!(
        "{{\n  \"schema\": \"ruo-explore-v1\",\n  \"experiment\": \"W5\",\n  \
         \"quick\": {quick},\n  \"samples\": {samples},\n  \
         \"available_parallelism\": {parallelism},\n  \"gates_ok\": {gates_ok},\n  \
         \"full\": {{ \"schedules\": {}, \"seconds\": {full_t:.6} }},\n  \
         \"pruned\": {{ \"schedules\": {}, \"seconds\": {pruned_t:.6}, \
         \"pruned_branches\": {}, \"executed_steps\": {}, \"replay_steps_saved\": {} }},\n  \
         \"parallel\": {{ \"workers\": {PARALLEL_WORKERS}, \"schedules\": {}, \
         \"seconds\": {parallel_t:.6}, \"speedup\": {speedup:.3}, \
         \"pruned_branches\": {}, \"executed_steps\": {}, \"replay_steps_saved\": {} }},\n  \
         \"n5_two_crash\": {{ \"workers\": {n5_workers}, \"schedules\": {}, \"crash_branches\": {}, \
         \"pruned_branches\": {}, \"seconds\": {n5_t:.6}, \"serial_seconds\": {n5_serial_t:.6}, \
         \"speedup\": {n5_speedup:.3}, \"worker_schedules\": [{}] }},\n  \
         \"pruning_factor\": {factor:.3},\n  \"replay_savings_factor\": {replay_factor:.3}\n}}\n",
        full.schedules,
        pruned.schedules,
        pruned.pruned_branches,
        pruned.executed_steps,
        pruned.replay_steps_saved,
        parallel.schedules,
        parallel.pruned_branches,
        parallel.executed_steps,
        parallel.replay_steps_saved,
        n5.schedules,
        n5.crash_branches,
        n5.pruned_branches,
        n5_shares
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", "),
        speedup = pruned_t / parallel_t,
        gates_ok = failures.is_empty(),
    );
    std::fs::write(&out, json).expect("write results JSON");
    println!("  wrote {out}");
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("explore_smoke: gate failed: {f}");
        }
        std::process::exit(1);
    }
}
