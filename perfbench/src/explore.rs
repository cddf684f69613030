//! `explore_w9`: the checked-in N = 5, two-crash model-checking scope,
//! explored through `ruo_scenario::run_explore`.

use std::fs;
use std::hint::black_box;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use ruo_scenario::{run_explore, ScenarioReport, ScenarioSpec};

use crate::baseline::{self, Baseline};
use crate::rss;
use crate::trace::{Trace, Tracer};

/// The scope, relative to the repository root the benchmark runs from.
pub const SCOPE: &str = "scenarios/w9_explore_n5_2crash.json";

/// Scope loads per run; `setup_s` is their median.
const SETUP_REPS: usize = 25;

/// Exact counts the scope must reproduce: schedules, crash branches,
/// pruned branches.
pub const EXPECTED: [(&str, u64); 3] = [
    ("schedules", 229_176),
    ("crash_branches", 199_254),
    ("pruned_branches", 30_020),
];

/// Reads and parses the scope and caps its workers at `workers`.
pub fn load_scope(workers: usize) -> Result<ScenarioSpec, String> {
    let text = fs::read_to_string(SCOPE).map_err(|e| format!("{SCOPE}: {e}"))?;
    let mut spec = ScenarioSpec::parse(&text).map_err(|e| format!("{SCOPE}: {e}"))?;
    let explore = spec
        .explore
        .as_mut()
        .ok_or_else(|| format!("{SCOPE} has no explore section"))?;
    explore.workers = explore.workers.min(workers).max(1);
    Ok(spec)
}

/// Everything one explore pass measured.
#[derive(Debug, Default)]
pub struct ExploreRun {
    /// Scope load-and-parse times, one per set-up repetition (s).
    pub setup_s: Vec<f64>,
    /// Wall time of each measured exploration (s).
    pub run_s: Vec<f64>,
    /// Peak RSS of each measured exploration (MB).
    pub peak_mb: Vec<f64>,
    /// The compute baseline around each measured exploration.
    pub base: Vec<Baseline>,
    /// The process each measured exploration ran in: 0 for this one,
    /// `i` for the `i`-th child.
    pub process: Vec<usize>,
    /// Counters of the last exploration.
    pub counters: Vec<(String, u64)>,
    /// Explorations measured.
    pub runs: u64,
    /// Child processes the explorations ran in (0: this process).
    pub children: usize,
    /// Explorations that found a violation or were truncated.
    pub bad_runs: u64,
    /// Failed checks.
    pub failures: Vec<String>,
    /// Spans recorded around the pass's calls.
    pub trace: Trace,
}

impl ExploreRun {
    /// A counter of the last exploration (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }
}

/// Checks one exploration's verdict and exact counts.
fn check(report: &ScenarioReport, failures: &mut Vec<String>) -> bool {
    let before = failures.len();
    for (name, want) in EXPECTED {
        let got = report.counter(name);
        if got != Some(want) {
            failures.push(format!("{name}: {got:?}, expected {want}"));
        }
    }
    let clean = report.counter("violation") == Some(0) && report.counter("truncated") == Some(0);
    if !report.ok || !clean {
        failures.push(format!("exploration failed: {:?}", report.notes));
    }
    failures.len() == before
}

/// Loads the scope `SETUP_REPS` times (timed: the set-up).
fn set_up(workers: usize, res: &mut ExploreRun) -> Option<ScenarioSpec> {
    let mut spec = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        match load_scope(workers) {
            Ok(s) => spec = Some(black_box(s)),
            Err(e) => {
                res.failures.push(e);
                return None;
            }
        }
        res.setup_s.push(t.elapsed().as_secs_f64());
    }
    spec
}

/// One measured exploration, with the compute baseline on `workers`
/// threads before and after it.
fn measure(spec: &ScenarioSpec, workers: usize, res: &mut ExploreRun, tracer: &mut Tracer) {
    let before = baseline::compute(workers);
    rss::reset_peak();
    let t = Instant::now();
    let report = run_explore(spec, false).expect("scope explores");
    res.run_s.push(t.elapsed().as_secs_f64());
    res.peak_mb.push(rss::peak_mb());
    res.base
        .push(Baseline::around(before, baseline::compute(workers)));
    res.process.push(0);
    tracer.record("explore.run_explore", t, 0);
    res.runs += 1;
    if !check(&report, &mut res.failures) {
        res.bad_runs += 1;
    }
    res.counters = report.counters.clone();
}

/// Loads the scope, explores it once untimed, then explores it
/// repeatedly until `window` has passed (at least `min_runs` times), all
/// in this process. `base` records a span per exploration.
pub fn run(workers: usize, window: Duration, min_runs: usize, base: Option<Instant>) -> ExploreRun {
    let mut res = ExploreRun::default();
    let Some(spec) = set_up(workers, &mut res) else {
        return res;
    };
    let mut tracer = Tracer::new(base, 200);
    let warm = run_explore(&spec, false).expect("scope explores");
    check(&warm, &mut res.failures);
    let t0 = Instant::now();
    while res.run_s.len() < min_runs || t0.elapsed() < window {
        measure(&spec, workers, &mut res, &mut tracer);
    }
    res.trace = tracer.take();
    res
}

/// Measured explorations per child process.
pub const CHILD_RUNS: u64 = 2;

/// Fewest child processes per pass.
const MIN_CHILDREN: usize = 3;

/// The child side of [`run_in_children`]: loads the scope, explores it
/// once untimed and `runs` times measured, and prints each measurement,
/// every failed check and the last exploration's counters on stdout.
/// Returns the exit code.
pub fn child(workers: usize, runs: u64) -> i32 {
    let mut res = ExploreRun::default();
    if let Some(spec) = set_up(workers, &mut res) {
        let warm = run_explore(&spec, false).expect("scope explores");
        check(&warm, &mut res.failures);
        let mut tracer = Tracer::new(None, 0);
        for _ in 0..runs {
            measure(&spec, workers, &mut res, &mut tracer);
        }
    }
    for ((s, mb), b) in res.run_s.iter().zip(&res.peak_mb).zip(&res.base) {
        println!("exploration {s} {mb} {} {} {}", b.rate, b.p50_s, b.p99_s);
    }
    println!("bad_runs {}", res.bad_runs);
    for (name, v) in &res.counters {
        println!("counter {name} {v}");
    }
    for f in &res.failures {
        println!("failure {f}");
    }
    i32::from(!res.failures.is_empty())
}

/// Adds the stdout of child `child` to `res`.
fn absorb(out: &str, child: usize, res: &mut ExploreRun) -> Result<(), String> {
    let num = |w: Option<&str>| -> Result<f64, String> {
        w.and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("bad child line: {out:?}"))
    };
    for line in out.lines() {
        let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
        let mut w = rest.split_whitespace();
        match tag {
            "exploration" => {
                res.run_s.push(num(w.next())?);
                res.peak_mb.push(num(w.next())?);
                res.base.push(Baseline {
                    rate: num(w.next())?,
                    p50_s: num(w.next())?,
                    p99_s: num(w.next())?,
                });
                res.process.push(child);
                res.runs += 1;
            }
            "bad_runs" => res.bad_runs += num(w.next())? as u64,
            "counter" => {
                let name = w.next().unwrap_or_default().to_string();
                let v = num(w.next())? as u64;
                match res.counters.iter_mut().find(|(n, _)| *n == name) {
                    Some(c) => c.1 = v,
                    None => res.counters.push((name, v)),
                }
            }
            "failure" => res.failures.push(rest.to_string()),
            _ => return Err(format!("unexpected child line {line:?}")),
        }
    }
    Ok(())
}

/// Loads the scope here (the set-up), then measures the explorations in
/// child processes of this binary, one after another, [`CHILD_RUNS`]
/// each after its own untimed exploration, until `window` has passed
/// (at least [`MIN_CHILDREN`] of them). An exploration's speed differs
/// from process to process by more than within one, so a run spreads
/// its explorations over several.
pub fn run_in_children(workers: usize, seed: u64, window: Duration) -> ExploreRun {
    let mut res = ExploreRun::default();
    if set_up(workers, &mut res).is_none() {
        return res;
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            res.failures.push(format!("finding this binary: {e}"));
            return res;
        }
    };
    let t0 = Instant::now();
    let mut children = 0;
    while children < MIN_CHILDREN || t0.elapsed() < window {
        children += 1;
        let out = Command::new(&exe)
            .args(["--workload", "explore_w9", "--seed", &seed.to_string()])
            .args(["--explore-child", &CHILD_RUNS.to_string()])
            .stderr(Stdio::inherit())
            .output();
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                res.failures.push(format!("starting a child: {e}"));
                return res;
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        if let Err(e) = absorb(&text, children, &mut res) {
            res.failures.push(e);
        }
        if !out.status.success() && res.failures.is_empty() {
            res.failures
                .push(format!("child exited with {}", out.status));
        }
        if !res.failures.is_empty() {
            break;
        }
    }
    res.children = children;
    res
}

/// Wall time of one exploration of the scope at a single worker (s).
pub fn serial_seconds() -> Result<f64, String> {
    let spec = load_scope(1)?;
    let t = Instant::now();
    let report = run_explore(&spec, false).map_err(|e| e.to_string())?;
    let s = t.elapsed().as_secs_f64();
    let mut failures = Vec::new();
    if check(&report, &mut failures) {
        Ok(s)
    } else {
        Err(failures.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorbs_what_a_child_prints() {
        let mut res = ExploreRun::default();
        let out = "exploration 2.5 169.25 1000 0.00001 0.00002\n\
                   exploration 2.25 170 1100 0.00001 0.00003\n\
                   bad_runs 0\n\
                   counter schedules 229176\n\
                   counter violation 0\n";
        absorb(out, 1, &mut res).unwrap();
        assert_eq!(res.run_s, [2.5, 2.25]);
        assert_eq!(res.peak_mb, [169.25, 170.0]);
        assert_eq!(res.base[1].rate, 1100.0);
        assert_eq!((res.runs, res.bad_runs), (2, 0));
        assert_eq!(res.process, [1, 1]);
        assert_eq!(res.counter("schedules"), 229_176);
        // A second child's counters replace the first's.
        absorb("counter schedules 7\nfailure no luck\n", 2, &mut res).unwrap();
        assert_eq!(res.counter("schedules"), 7);
        assert_eq!(res.failures, ["no luck"]);
    }

    #[test]
    fn refuses_what_a_child_never_prints() {
        let mut res = ExploreRun::default();
        assert!(absorb("exploration 1.0 x 1 1 1\n", 1, &mut res).is_err());
        assert!(absorb("hello\n", 1, &mut res).is_err());
    }
}
