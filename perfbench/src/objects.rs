//! `objects_n64`: the four served implementations in-process at
//! N = 64 processes, with no sockets.
//!
//! Every load thread owns a disjoint set of process identities and runs
//! batches of [`BATCH_LEN`] same-kind operations: first a 90%-read
//! phase, then a 90%-update phase of equal length. At N = 64 the f-array
//! increment and the tree `write_max` climb six levels, so this is the
//! workload where `ruo_core` does almost all the work.

use std::hint::black_box;
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use ruo_core::{Counter, MaxRegister, Snapshot};
use ruo_scenario::registry::{find, BuildParams, Family, RealObject};
use ruo_sim::stepcount::CountingMem;
use ruo_sim::ProcessId;

use crate::baseline::{self, Baseline};
use crate::ops::{pid_set, Kind, Op, OpGen, BATCH_LEN};
use crate::pin;
use crate::rss;
use crate::stats::{median, quantile, Reservoir};
use crate::trace::{Trace, Tracer};

/// Processes sharing every object.
pub const N: usize = 64;

/// Read percentage of the two phases, in order.
pub const PHASES: [u64; 2] = [90, 10];

/// Untimed warm-up before each phase of every round.
const WARMUP: Duration = Duration::from_millis(25);

/// Phase throughput is the median over slots of this length.
const SLOT: Duration = Duration::from_millis(100);

/// Batch latencies kept per load thread, phase and round. A fixed-size
/// sample keeps the benchmark's own memory, and so peak RSS, the same
/// however many batches a round gets through on the host of the moment;
/// every thread completes more than this many in each phase of a round.
const KEEP_BATCHES: usize = 8192;

/// The four objects, built through the registry.
pub struct Objects {
    hits: Box<dyn Counter>,
    sharded: Box<dyn Counter>,
    peak: Box<dyn MaxRegister>,
    segments: Box<dyn Snapshot>,
}

fn build(family: Family, id: &str) -> RealObject {
    find(family, id)
        .and_then(|e| {
            e.build_real(&BuildParams {
                n: N,
                capacity: 1 << 20,
                root_fast_path: false,
                accuracy_k: 1,
            })
        })
        .unwrap_or_else(|e| panic!("registry builds {family}/{id}: {e}"))
}

impl Objects {
    /// Builds `hits` (farray), `hits_sharded` (sharded), `peak` (tree)
    /// and `segments` (double_collect) at N = 64.
    pub fn build() -> Self {
        let (
            RealObject::Counter(hits),
            RealObject::Counter(sharded),
            RealObject::MaxReg(peak),
            RealObject::Snapshot(segments),
        ) = (
            build(Family::Counter, "farray"),
            build(Family::Counter, "sharded"),
            build(Family::MaxReg, "tree"),
            build(Family::Snapshot, "double_collect"),
        )
        else {
            unreachable!("registry families match their entries");
        };
        Objects {
            hits,
            sharded,
            peak,
            segments,
        }
    }

    /// Applies `op` as `pid`; returns the number of object calls made.
    fn apply(&self, op: Op, pid: ProcessId) -> u64 {
        match op {
            Op::ReadHits => {
                black_box(self.hits.read());
            }
            Op::ReadSharded => {
                black_box(self.sharded.read());
            }
            Op::ReadPeak => {
                black_box(self.peak.read_max());
            }
            Op::ScanSegments => {
                black_box(self.segments.scan());
            }
            Op::IncrHits(k) => {
                for _ in 0..k {
                    self.hits.increment(pid);
                }
                return k;
            }
            Op::IncrSharded => self.sharded.increment(pid),
            Op::WriteMax(v) => self.peak.write_max(pid, v),
            Op::Update(v) => self.segments.update(pid, v),
        }
        1
    }
}

/// What a thread applied, for the end-state check.
#[derive(Debug, Default)]
struct Applied {
    hits: u64,
    sharded: u64,
    max: u64,
    /// `(pid, last value)` for every pid the thread updated.
    last: Vec<(usize, u64)>,
}

impl Applied {
    fn note(&mut self, op: Op, pid: usize) {
        match op {
            Op::IncrHits(k) => self.hits += k,
            Op::IncrSharded => self.sharded += 1,
            Op::WriteMax(v) => self.max = self.max.max(v),
            Op::Update(v) => match self.last.iter_mut().find(|(p, _)| *p == pid) {
                Some(slot) => slot.1 = v,
                None => self.last.push((pid, v)),
            },
            _ => {}
        }
    }
}

/// Per-kind call count and time, indexed like [`Kind::ALL`].
pub type PerKind = [(u64, u64); 8];

fn kind_index(kind: Kind) -> usize {
    Kind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("kind listed")
}

/// One objects pass's shape.
#[derive(Debug, Clone, Copy)]
pub struct ObjectsLoad {
    /// Load threads.
    pub threads: usize,
    /// Measured length of each phase, split evenly over the rounds.
    pub phase: Duration,
    /// Run seed.
    pub seed: u64,
    /// Span base; `Some` records a span per batch.
    pub trace: Option<Instant>,
}

/// Everything one objects pass measured.
#[derive(Debug, Default)]
pub struct ObjectsRun {
    /// Object-construction time of every round (s).
    pub build_s: Vec<f64>,
    /// Each round's end-to-end figures.
    pub rounds: Vec<Round>,
    /// Object calls in the measured phases.
    pub calls: u64,
    /// Measured calls and ns per kind.
    pub per_kind: PerKind,
    /// Failed end-state checks.
    pub failures: Vec<String>,
    /// Spans recorded around the pass's calls.
    pub trace: Trace,
}

struct ThreadOut {
    applied: Applied,
    slots: [Vec<u64>; 2],
    /// Batch latencies of each phase (µs), a uniform sample of
    /// [`KEEP_BATCHES`] each.
    batch_us: [Reservoir; 2],
    per_kind: PerKind,
    trace: Trace,
}

/// Runs both phases of one round on load thread `t`. Phase `p` ends at
/// `ends[p]`; only batches that start after `timed[p]` count.
fn drive(
    objs: &Objects,
    load: &ObjectsLoad,
    (round, t): (usize, usize),
    phase: Duration,
    (timed, ends): ([Instant; 2], [Instant; 2]),
) -> ThreadOut {
    let pids = pid_set(t, load.threads, N);
    let mut next_pid = pids.start;
    let slots = (phase.as_nanos() / SLOT.as_nanos()).max(1) as usize;
    let mut out = ThreadOut {
        applied: Applied::default(),
        slots: [vec![0; slots], vec![0; slots]],
        batch_us: [0, 1].map(|p| {
            let stream = ((round * load.threads + t) * PHASES.len() + p) as u64;
            Reservoir::new(KEEP_BATCHES, load.seed ^ (stream << 32))
        }),
        per_kind: [(0, 0); 8],
        trace: Trace::default(),
    };
    let mut tracer = Tracer::new(load.trace, 100 + (round * load.threads + t) as u32);
    for (p, read_pct) in PHASES.into_iter().enumerate() {
        let stream = (round * load.threads + t) * PHASES.len() + p;
        let mut gen = OpGen::new(load.seed, stream as u64, read_pct);
        tracer.enter("core.phase", 0);
        loop {
            let batch = gen.batch();
            let kind = batch[0].kind();
            let start = Instant::now();
            if start >= ends[p] {
                break;
            }
            let mut calls = 0;
            for op in batch {
                calls += objs.apply(op, ProcessId(next_pid));
                out.applied.note(op, next_pid);
                next_pid = if next_pid + 1 == pids.end {
                    pids.start
                } else {
                    next_pid + 1
                };
            }
            let done = Instant::now();
            tracer.record(kind.core_name(), start, 0);
            if start >= timed[p] {
                let ns = done.duration_since(start).as_nanos() as u64;
                out.batch_us[p].push(ns as f64 / 1e3);
                let k = &mut out.per_kind[kind_index(kind)];
                k.0 += calls;
                k.1 += ns;
                let slot = (done.duration_since(timed[p]).as_nanos() / SLOT.as_nanos()) as usize;
                if let Some(s) = out.slots[p].get_mut(slot) {
                    *s += calls;
                }
            }
        }
        tracer.exit();
    }
    out.trace = tracer.take();
    out
}

/// One round's end-to-end figures.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    /// Calls per second in each phase, median over the round's slots.
    pub phase_rate: [f64; 2],
    /// Median batch latency of the read-heavy phase (µs). Batches are of
    /// one kind each, with latencies far apart, and pooled over both
    /// phases the median fell between kinds: which one it took moved
    /// with how fast each phase ran.
    pub p50_us: f64,
    /// 99th-percentile batch latency over both phases (µs).
    pub p99_us: f64,
    /// Batches the quantiles were taken over.
    pub samples: usize,
    /// Peak RSS over the round, from the build to the last batch (MB).
    pub peak_rss_mb: f64,
    /// The compute baseline around the round, on the load threads' CPUs.
    pub base: Baseline,
}

/// Runs one round per [`crate::ROUND`] of measured time (both phases).
/// Every round builds fresh objects (timed: the set-up) and fresh load
/// threads, runs both phases for its share of `load.phase` each,
/// measures the compute baseline and checks the end state. A round's
/// baseline is the mean of the one measured before it (after the
/// previous round) and the one after it.
pub fn run(load: &ObjectsLoad) -> ObjectsRun {
    let mut res = ObjectsRun::default();
    let rounds = crate::rounds(2 * load.phase);
    let mut before = baseline::compute(load.threads);
    for round in 0..rounds {
        before = run_round(load, (round, rounds), before, &mut res);
    }
    res.calls = res.per_kind.iter().map(|k| k.0).sum();
    res
}

/// One round; returns the baseline measured after it.
fn run_round(
    load: &ObjectsLoad,
    (round, rounds): (usize, usize),
    before: Baseline,
    res: &mut ObjectsRun,
) -> Baseline {
    rss::reset_peak();
    let t = Instant::now();
    let objs = black_box(Objects::build());
    res.build_s.push(t.elapsed().as_secs_f64());

    let phase = load.phase / rounds as u32;
    let timed0 = Instant::now() + WARMUP;
    let end0 = timed0 + phase;
    let timed1 = end0 + WARMUP;
    let timed = [timed0, timed1];
    let ends = [end0, timed1 + phase];
    let barrier = Barrier::new(load.threads);
    let outs: Vec<ThreadOut> = thread::scope(|s| {
        let handles: Vec<_> = (0..load.threads)
            .map(|t| {
                let (objs, barrier) = (&objs, &barrier);
                s.spawn(move || {
                    if load.threads > 1 {
                        pin::pin(t);
                    }
                    barrier.wait();
                    drive(objs, load, (round, t), phase, (timed, ends))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });

    let mut want = Applied::default();
    let mut last = vec![0u64; N];
    let mut slots = [Vec::new(), Vec::new()];
    let mut read_us = Vec::new();
    let mut round_us = Vec::new();
    for o in outs {
        want.hits += o.applied.hits;
        want.sharded += o.applied.sharded;
        want.max = want.max.max(o.applied.max);
        for (pid, v) in o.applied.last {
            last[pid] = v;
        }
        for (phase, counts) in slots.iter_mut().zip(&o.slots) {
            phase.resize(counts.len(), 0);
            for (sum, n) in phase.iter_mut().zip(counts) {
                *sum += n;
            }
        }
        let [read_heavy, update_heavy] = o.batch_us.map(|r| r.values);
        round_us.extend_from_slice(&read_heavy);
        round_us.extend(update_heavy);
        read_us.extend(read_heavy);
        for (sum, k) in res.per_kind.iter_mut().zip(o.per_kind) {
            sum.0 += k.0;
            sum.1 += k.1;
        }
        res.trace.merge(o.trace);
    }
    let rate = |p: usize| {
        let per_s: Vec<f64> = slots[p]
            .iter()
            .map(|&n| n as f64 / SLOT.as_secs_f64())
            .collect();
        median(&per_s)
    };
    let q = |p| quantile(&round_us, p).map_or(f64::NAN, |q| q.value);
    let peak_rss_mb = rss::peak_mb();
    let after = baseline::compute(load.threads);
    res.rounds.push(Round {
        phase_rate: [rate(0), rate(1)],
        p50_us: quantile(&read_us, 0.5).map_or(f64::NAN, |q| q.value),
        p99_us: q(0.99),
        samples: round_us.len(),
        peak_rss_mb,
        base: Baseline::around(before, after),
    });

    let checks = [
        ("hits", objs.hits.read(), want.hits),
        ("hits_sharded", objs.sharded.read(), want.sharded),
        ("peak", objs.peak.read_max(), want.max),
    ];
    for (name, got, expect) in checks {
        if got != expect {
            res.failures
                .push(format!("{name} ends at {got}, expected {expect}"));
        }
    }
    let scan = objs.segments.scan();
    if scan != last {
        let bad = scan.iter().zip(&last).filter(|(a, b)| a != b).count();
        res.failures.push(format!(
            "{bad} snapshot segments differ from their pid's last update"
        ));
    }
    after
}

/// Shared-memory events counted over the calls of one kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepCounts {
    /// Calls counted.
    pub calls: u64,
    /// Total shared-memory events.
    pub steps: u64,
    /// Successful CAS (and other read-modify-write) events.
    pub cas_ok: u64,
    /// Failed CAS events.
    pub cas_fail: u64,
}

/// Counts shared-memory events per call with `CountingMem`: `threads`
/// threads run `batches` batches of each phase on fresh objects.
/// Counting is process-wide, so nothing else may run meanwhile.
pub fn count_steps(seed: u64, threads: usize, batches: usize) -> [StepCounts; 8] {
    let objs = Objects::build();
    CountingMem::enable();
    let per_thread: Vec<[StepCounts; 8]> = thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let objs = &objs;
                s.spawn(move || {
                    let mut counts = [StepCounts::default(); 8];
                    let pids = pid_set(t, threads, N);
                    for (p, read_pct) in PHASES.into_iter().enumerate() {
                        let mut gen = OpGen::new(seed, (t * PHASES.len() + p) as u64, read_pct);
                        for i in 0..batches {
                            let batch = gen.batch();
                            let c = &mut counts[kind_index(batch[0].kind())];
                            for (j, op) in batch.into_iter().enumerate() {
                                let pid = pids.start + (i * BATCH_LEN + j) % pids.len();
                                // An `IncrHits(k)` is k calls; count each.
                                let single = match op {
                                    Op::IncrHits(k) => (k, Op::IncrHits(1)),
                                    op => (1, op),
                                };
                                for _ in 0..single.0 {
                                    CountingMem::begin_op();
                                    objs.apply(single.1, ProcessId(pid));
                                    let oc = CountingMem::take_op_counts();
                                    c.calls += 1;
                                    c.steps += oc.steps();
                                    c.cas_ok += oc.cas_ok;
                                    c.cas_fail += oc.cas_fail;
                                }
                            }
                        }
                    }
                    counts
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("counting thread panicked"))
            .collect()
    });
    CountingMem::disable();
    let mut total = [StepCounts::default(); 8];
    for counts in per_thread {
        for (sum, c) in total.iter_mut().zip(counts) {
            sum.calls += c.calls;
            sum.steps += c.steps;
            sum.cas_ok += c.cas_ok;
            sum.cas_fail += c.cas_fail;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_pass_keeps_end_state_and_counts_both_phases() {
        let load = ObjectsLoad {
            threads: 2,
            phase: Duration::from_millis(500),
            seed: 9,
            trace: Some(Instant::now()),
        };
        let res = run(&load);
        assert!(res.failures.is_empty(), "{:?}", res.failures);
        assert_eq!(res.rounds.len(), 1);
        assert!(res
            .rounds
            .iter()
            .all(|r| r.phase_rate.iter().all(|&x| x > 0.0)));
        assert!(
            res.per_kind.iter().all(|k| k.0 > 0),
            "a kind never ran: {:?}",
            res.per_kind
        );
        assert!(res.trace.recorded > 0 && res.trace.self_ns["core"] > 0);
    }

    #[test]
    fn step_counts_cover_every_kind() {
        let counts = count_steps(4, 2, 64);
        for (kind, c) in Kind::ALL.iter().zip(counts) {
            assert!(c.calls > 0 && c.steps > 0, "{kind:?}: {c:?}");
        }
        let farray_incr = counts[kind_index(Kind::IncrHits)];
        let farray_read = counts[kind_index(Kind::ReadHits)];
        assert!(
            farray_incr.steps / farray_incr.calls > farray_read.steps / farray_read.calls,
            "an f-array increment at N=64 climbs the tree; a read loads the root"
        );
    }
}
