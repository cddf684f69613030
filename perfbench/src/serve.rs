//! `serve_read_heavy` and `serve_ingest`: closed-loop TCP load against
//! an in-process server.
//!
//! Every load thread waits for each reply before sending its next
//! request, so a slower server receives less load. On `serve_read_heavy`
//! each thread keeps one connection per round; on `serve_ingest` each
//! thread opens a fresh connection per [`SESSION_LEN`]-request producer
//! session, which puts the accept path, the queue hand-off and the dedup
//! window on the request path.
//!
//! A round is a fixed amount of work, not a fixed time: every thread
//! sends the same number of requests, so the server's op log, and with
//! it the round's peak RSS, does not grow with the host's speed.

use std::hint::black_box;
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use ruo_metrics::HealthSnapshot;
use ruo_serve::{
    Client, ClientConfig, ClientError, ObjectDef, Request, Response, ServeConfig, Server,
};

use crate::baseline::{self, Baseline};
use crate::ops::{Kind, Op, OpGen, SESSION_LEN};
use crate::pin;
use crate::rss;
use crate::stats::quantile;
use crate::trace::{Trace, Tracer};

/// Worker threads of the served pool.
pub const WORKERS: usize = 2;

/// Requests per load thread and round, untimed warm-up then timed: on
/// the host the benchmark was built on, about 0.1 s and 1 s.
const READ_HEAVY_REQS: (usize, usize) = (4_000, 40_000);
const INGEST_REQS: (usize, usize) = (100 * SESSION_LEN, 900 * SESSION_LEN);

/// Request/response pairs kept per thread for the codec replay.
const CODEC_KEEP: usize = 1 << 16;

/// One serve pass's shape.
#[derive(Debug, Clone, Copy)]
pub struct ServeLoad {
    /// Fresh connection per session (`serve_ingest`) instead of one per
    /// thread.
    pub ingest: bool,
    /// Load threads = connections open at once.
    pub threads: usize,
    /// Measured time: rounds repeat until their timed requests have
    /// taken this long.
    pub window: Duration,
    /// Run seed.
    pub seed: u64,
    /// Span base; `Some` records a span around every client call.
    pub trace: Option<Instant>,
}

impl ServeLoad {
    /// Warm-up and timed requests per load thread and round; whole
    /// sessions on `serve_ingest`.
    pub fn requests(&self) -> (usize, usize) {
        if self.ingest {
            INGEST_REQS
        } else {
            READ_HEAVY_REQS
        }
    }

    /// Percentage of reads in the mix.
    pub fn read_pct(&self) -> u64 {
        if self.ingest {
            10
        } else {
            90
        }
    }
}

/// The four served objects.
pub fn object_defs() -> Vec<ObjectDef> {
    vec![
        ObjectDef::counter("hits", "farray"),
        ObjectDef::counter("hits_sharded", "sharded"),
        ObjectDef::maxreg("peak", "tree"),
        ObjectDef::snapshot("segments", "double_collect"),
    ]
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    }
}

/// Everything one serve pass measured.
#[derive(Debug, Default)]
pub struct ServeRun {
    /// `Server::start` time of every round (s).
    pub start_s: Vec<f64>,
    /// Each round's end-to-end figures.
    pub rounds: Vec<Round>,
    /// Read-request latencies in the windows (µs; traced passes only).
    pub read_us: Vec<f64>,
    /// Update-request latencies in the windows (µs; traced passes only).
    pub update_us: Vec<f64>,
    /// First request of every connection (µs; traced passes only).
    pub first_us: Vec<f64>,
    /// Requests issued in the window.
    pub attempted: u64,
    /// Requests in the window that failed after retries.
    pub failed: u64,
    /// Connections opened by clients (first connects and reconnects).
    pub connects: u64,
    /// Client retries, whole run.
    pub retries: u64,
    /// `Server::health()` just before each shutdown: counts summed
    /// and peaks maximised over rounds.
    pub health: HealthSnapshot,
    /// Time `Server::shutdown` took, every round (s).
    pub shutdown_s: Vec<f64>,
    /// Time `ServeSummary::audit` took, summed over rounds (s).
    pub audit_s: f64,
    /// Ops in the server's op logs (what the audit checked).
    pub log_ops: u64,
    /// Request/response pairs kept for the codec replay (traced only).
    pub codec: Vec<(Request, Response)>,
    /// Failed correctness checks.
    pub failures: Vec<String>,
    /// Spans recorded around the pass's calls.
    pub trace: Trace,
}

#[derive(Default)]
struct ThreadOut {
    read_us: Vec<f64>,
    update_us: Vec<f64>,
    first_us: Vec<f64>,
    /// When the thread's timed requests started and ended.
    timed: Option<(Instant, Instant)>,
    attempted: u64,
    failed: u64,
    connects: u64,
    retries: u64,
    degraded: u64,
    acked_hits: u64,
    acked_sharded: u64,
    codec: Vec<(Request, Response)>,
    errors: Vec<String>,
    trace: Trace,
}

fn span_name(kind: Kind) -> &'static str {
    match kind {
        Kind::ReadHits | Kind::ReadSharded | Kind::ReadPeak => "client.read",
        Kind::ScanSegments => "client.scan",
        Kind::IncrHits | Kind::IncrSharded => "client.incr",
        Kind::WriteMax => "client.write_max",
        Kind::Update => "client.update",
    }
}

/// Issues `op` through `client`; the response is rebuilt from the typed
/// result for the codec replay.
fn call(client: &mut Client, op: Op) -> Result<Response, ClientError> {
    let value = |r: ruo_serve::ReadResult| Response::Value {
        v: r.value,
        degraded: r.degraded,
    };
    Ok(match op {
        Op::ReadHits => value(client.read("hits")?),
        Op::ReadSharded => value(client.read("hits_sharded")?),
        Op::ReadPeak => value(client.read("peak")?),
        Op::ScanSegments => {
            let s = client.scan("segments")?;
            Response::Vector {
                vs: s.values,
                degraded: s.degraded,
            }
        }
        Op::IncrHits(k) => {
            client.incr("hits", k)?;
            Response::Ok
        }
        Op::IncrSharded => {
            client.incr("hits_sharded", 1)?;
            Response::Ok
        }
        Op::WriteMax(v) => {
            client.write_max("peak", v)?;
            Response::Ok
        }
        Op::Update(v) => {
            client.update("segments", v)?;
            Response::Ok
        }
    })
}

/// The request line `op` puts on the wire; `incr_seq` is the client's
/// increment count including this one (its idempotency token).
fn request(op: Op, client_id: u64, incr_seq: u64) -> Request {
    let token = || Some(format!("c{client_id}:{incr_seq}"));
    match op {
        Op::ReadHits => Request::Read { obj: "hits".into() },
        Op::ReadSharded => Request::Read {
            obj: "hits_sharded".into(),
        },
        Op::ReadPeak => Request::Read { obj: "peak".into() },
        Op::ScanSegments => Request::Scan {
            obj: "segments".into(),
        },
        Op::IncrHits(k) => Request::Incr {
            obj: "hits".into(),
            k,
            token: token(),
        },
        Op::IncrSharded => Request::Incr {
            obj: "hits_sharded".into(),
            k: 1,
            token: token(),
        },
        Op::WriteMax(v) => Request::WriteMax {
            obj: "peak".into(),
            v,
        },
        Op::Update(v) => Request::Update {
            obj: "segments".into(),
            v,
        },
    }
}

fn load_thread(load: &ServeLoad, cfg: &ClientConfig, t: usize, warm: &Barrier) -> ThreadOut {
    let mut out = ThreadOut::default();
    let mut gen = OpGen::new(load.seed, t as u64, load.read_pct());
    let mut tracer = Tracer::new(load.trace, 2 + t as u32);
    let (warmup, timed) = load.requests();
    // A producer session carries a fixed number of requests; a
    // read-heavy connection carries the whole round.
    let session_len = if load.ingest {
        SESSION_LEN
    } else {
        warmup + timed
    };
    let mut sent = 0usize;
    let mut session = 0u64;
    let mut req_id = 0u64;
    let mut timed_start = None;
    while sent < warmup + timed {
        let client_id = ((t as u64 + 1) << 32) | session;
        session += 1;
        let mut client = Client::new(cfg.clone(), client_id);
        out.connects += 1;
        tracer.enter("client.session", 0);
        let mut incr_seq = 0u64;
        for n in 0..session_len {
            if sent == warmup {
                // Both threads start their timed requests together.
                warm.wait();
                timed_start = Some(Instant::now());
            }
            let is_timed = sent >= warmup;
            sent += 1;
            let op = gen.next_op();
            let kind = op.kind();
            if matches!(kind, Kind::IncrHits | Kind::IncrSharded) {
                incr_seq += 1;
            }
            req_id += 1;
            let start = Instant::now();
            let result = call(&mut client, op);
            let done = Instant::now();
            tracer.record(span_name(kind), start, ((t as u64 + 1) << 40) | req_id);
            let us = done.duration_since(start).as_nanos() as f64 / 1e3;
            if n == 0 {
                out.first_us.push(us);
            }
            if is_timed {
                out.attempted += 1;
                out.timed = timed_start.map(|s| (s, done));
            }
            match result {
                Ok(resp) => {
                    match (op, &resp) {
                        (Op::IncrHits(k), _) => out.acked_hits += k,
                        (Op::IncrSharded, _) => out.acked_sharded += 1,
                        (_, Response::Value { degraded: true, .. })
                        | (_, Response::Vector { degraded: true, .. }) => out.degraded += 1,
                        _ => {}
                    }
                    if is_timed {
                        if kind.is_read() {
                            out.read_us.push(us);
                        } else {
                            out.update_us.push(us);
                        }
                    }
                    if tracer.on() && out.codec.len() < CODEC_KEEP {
                        out.codec.push((request(op, client_id, incr_seq), resp));
                    }
                }
                Err(e) => {
                    if is_timed {
                        out.failed += 1;
                    }
                    out.errors.push(format!("{op:?}: {e}"));
                }
            }
            if sent == warmup + timed {
                break;
            }
        }
        out.retries += client.stats().retries;
        out.connects += client.stats().reconnects;
        drop(client);
        tracer.exit();
    }
    out.trace = tracer.take();
    out
}

/// One round's end-to-end figures.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    /// Completed requests per second: the timed requests over the time
    /// from their common start to the last one's reply.
    pub throughput: f64,
    /// Median request latency (µs).
    pub p50_us: f64,
    /// 99th-percentile request latency (µs).
    pub p99_us: f64,
    /// Requests the p99 was taken over.
    pub samples: usize,
    /// Peak RSS over the round, server start to audit (MB).
    pub peak_rss_mb: f64,
    /// The echo baseline around the round, with the round's load shape
    /// on the server's CPU.
    pub base: Baseline,
}

/// The echo baseline with `load`'s shape on the server's CPU.
fn echo(load: &ServeLoad) -> Baseline {
    let session = if load.ingest { SESSION_LEN } else { usize::MAX };
    baseline::echo(load.threads, WORKERS, session, 0)
}

/// Runs rounds until their timed requests have taken `load.window`.
/// Every round starts a fresh server (timed: the set-up) and fresh load
/// threads, sends the warm-up and then the timed requests, shuts down,
/// audits the op log, measures the echo baseline and checks the end
/// state. A round's baseline is the mean of the one measured before it
/// (after the previous round) and the one after it.
pub fn run(load: &ServeLoad) -> ServeRun {
    let mut res = ServeRun::default();
    let mut tracer = Tracer::new(load.trace, 1);
    let mut before = echo(load);
    let (mut round, mut measured) = (0, Duration::ZERO);
    while measured < load.window {
        let (after, timed) = run_round(load, round, before, &mut res, &mut tracer);
        (before, round, measured) = (after, round + 1, measured + timed);
        if !res.failures.is_empty() {
            // The run is not correct; its figures will not be used.
            break;
        }
    }
    res.trace.merge(tracer.take());
    res
}

/// One round; returns the baseline measured after it and how long its
/// timed requests took.
fn run_round(
    load: &ServeLoad,
    round: usize,
    before: Baseline,
    res: &mut ServeRun,
    tracer: &mut Tracer,
) -> (Baseline, Duration) {
    rss::reset_peak();
    let t = Instant::now();
    let server = Server::start(serve_config(), &object_defs()).expect("server starts");
    res.start_s.push(t.elapsed().as_secs_f64());
    tracer.record("server.start", t, 0);
    // The server's threads (the acceptor and the workers, named
    // `serve-*`) and the load threads all share CPU 0: no request waits
    // for an idle core to wake, whose latency on a virtual CPU follows the
    // host's load, and the figures price the whole request path on one
    // core.
    pin::pin_threads("serve-", 0, WORKERS + 1);
    let cfg = ClientConfig::new(server.addr());

    let (start, warm) = (Barrier::new(load.threads), Barrier::new(load.threads));
    let outs: Vec<ThreadOut> = thread::scope(|s| {
        let handles: Vec<_> = (0..load.threads)
            .map(|t| {
                let (cfg, start, warm) = (&cfg, &start, &warm);
                s.spawn(move || {
                    pin::pin(0);
                    start.wait();
                    load_thread(load, cfg, round * load.threads + t, warm)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });

    let h = server.health();
    let t = Instant::now();
    let summary = server.shutdown();
    res.shutdown_s.push(t.elapsed().as_secs_f64());
    tracer.record("server.shutdown", t, 0);
    let t = Instant::now();
    let report = black_box(summary.audit());
    res.audit_s += t.elapsed().as_secs_f64();
    tracer.record("audit.run", t, 0);
    res.log_ops += summary.logs.iter().map(|l| l.ops.len() as u64).sum::<u64>();
    let sum = &mut res.health;
    sum.served += h.served;
    sum.admitted += h.admitted;
    sum.dedup_hits += h.dedup_hits;
    sum.degraded_reads += h.degraded_reads;
    sum.deadline_misses += h.deadline_misses;
    sum.shed += h.shed;
    sum.queue_depth_peak = sum.queue_depth_peak.max(h.queue_depth_peak);
    sum.inflight_peak = sum.inflight_peak.max(h.inflight_peak);

    let mut round_us = Vec::new();
    let (mut acked_hits, mut acked_sharded, mut degraded) = (0, 0, 0);
    let (mut first, mut last) = (None::<Instant>, None::<Instant>);
    for o in outs {
        if let Some((a, b)) = o.timed {
            first = Some(first.map_or(a, |f| f.min(a)));
            last = Some(last.map_or(b, |l| l.max(b)));
        }
        round_us.extend_from_slice(&o.read_us);
        round_us.extend_from_slice(&o.update_us);
        // Pooled samples feed only the per-layer figures; an untraced
        // run drops them with the round, so its peak RSS is one round's.
        if tracer.on() {
            res.read_us.extend(o.read_us);
            res.update_us.extend(o.update_us);
            res.first_us.extend(o.first_us);
        }
        res.attempted += o.attempted;
        res.failed += o.failed;
        res.connects += o.connects;
        res.retries += o.retries;
        res.codec.extend(o.codec);
        res.trace.merge(o.trace);
        acked_hits += o.acked_hits;
        acked_sharded += o.acked_sharded;
        degraded += o.degraded;
        res.failures.extend(o.errors.into_iter().take(3));
    }
    let timed = match (first, last) {
        (Some(a), Some(b)) => b.duration_since(a),
        _ => Duration::ZERO,
    };
    let q = |p| quantile(&round_us, p).map_or(f64::NAN, |q| q.value);
    let peak_rss_mb = rss::peak_mb();
    let after = echo(load);
    res.rounds.push(Round {
        throughput: round_us.len() as f64 / timed.as_secs_f64(),
        p50_us: q(0.5),
        p99_us: q(0.99),
        samples: round_us.len(),
        peak_rss_mb,
        base: Baseline::around(before, after),
    });

    if !report.ok() {
        res.failures.push(format!(
            "audit found {} violations: {report}",
            report.violations()
        ));
    }
    for (name, acked) in [("hits", acked_hits), ("hits_sharded", acked_sharded)] {
        let fin = summary.final_value(name);
        if fin != Some(acked) {
            res.failures.push(format!(
                "{name} ends at {fin:?}, acknowledged increments sum to {acked}"
            ));
        }
    }
    let h = &summary.health;
    for (what, n) in [
        ("degraded reads", h.degraded_reads.max(degraded)),
        ("deadline misses", h.deadline_misses),
        ("sheds", h.shed),
    ] {
        if n != 0 {
            res.failures.push(format!(
                "{n} {what}: latencies would mix in the overload tiers"
            ));
        }
    }
    (after, timed)
}

/// Mean ns to encode and parse each kept request, and each kept
/// response, replayed until at least `min` has passed per direction.
pub fn codec_ns(pairs: &[(Request, Response)], min: Duration) -> (f64, f64) {
    assert!(!pairs.is_empty(), "no request lines to replay");
    let time = |f: &dyn Fn() -> usize| {
        let t = Instant::now();
        let mut n = 0usize;
        while t.elapsed() < min {
            n += f();
        }
        t.elapsed().as_nanos() as f64 / n as f64
    };
    let req = time(&|| {
        for (r, _) in pairs {
            let line = r.encode();
            black_box(Request::parse(black_box(&line)).expect("own line parses"));
        }
        pairs.len()
    });
    let resp = time(&|| {
        for (_, r) in pairs {
            let line = r.encode();
            black_box(Response::parse(black_box(&line)).expect("own line parses"));
        }
        pairs.len()
    });
    (req, resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(ingest: bool) -> ServeRun {
        run(&ServeLoad {
            ingest,
            threads: 2,
            window: Duration::from_millis(1_500),
            seed: 5,
            trace: Some(Instant::now()),
        })
    }

    #[test]
    fn ingest_sessions_carry_sixteen_requests() {
        let r = pass(true);
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        assert_eq!(r.retries, 0);
        let (served, sessions) = (r.health.served, r.connects);
        // Rounds are whole sessions, so every session is full.
        assert_eq!(
            served,
            SESSION_LEN as u64 * sessions,
            "{served} requests in {sessions} sessions"
        );
        let (warmup, timed) = INGEST_REQS;
        assert_eq!(served, (2 * r.rounds.len() * (warmup + timed)) as u64);
        assert_eq!(r.first_us.len() as u64, sessions);
    }

    #[test]
    fn read_heavy_keeps_one_connection_per_thread_and_round() {
        let r = pass(false);
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        let rounds = r.rounds.len() as u64;
        assert!(rounds >= 1);
        assert_eq!(r.connects, 2 * rounds);
        assert_eq!(r.health.admitted, 2 * rounds);
        let reads = r.read_us.len() as f64;
        let share = reads / (reads + r.update_us.len() as f64);
        assert!((share - 0.9).abs() < 0.05, "read share {share}");
    }
}
