//! The host baseline: a fixed piece of work, outside the program under
//! test, timed on the workload's own CPUs right before and right after
//! every measured round.
//!
//! On a shared virtual machine the speed of the host drifts by tens of
//! percent over seconds to minutes, on every CPU at once, with no steal
//! time to show for it. A figure in seconds then moves with the host as
//! much as with the program. Dividing it by the baseline measured next
//! to it keeps what the program costs and drops most of what the host
//! did meanwhile, so the end-to-end figures are ratios to the baseline.
//!
//! Two baselines, each shaped like the workloads that use it:
//! - [`echo`]: a bare TCP echo over loopback with the serve workloads'
//!   load shape (connections, session length, CPU placement) and the
//!   serve layer's threading (an acceptor polling a non-blocking
//!   listener every millisecond, workers taking connections from a
//!   queue). Its unit is one round trip: the kernel's and the accept
//!   path's share of a request, without any of the program's code.
//! - [`compute`]: a fixed integer kernel (xorshift steps into a
//!   256-entry table, all in L1) on one thread per CPU. Its unit is
//!   [`UNIT_STEPS`] steps.

use std::collections::VecDeque;
use std::hint::black_box;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::pin;
use crate::stats::quantile;

/// How long one baseline measurement times its work.
pub const PROBE: Duration = Duration::from_millis(100);

/// Untimed lead-in of every baseline measurement.
const LEAD_IN: Duration = Duration::from_millis(10);

/// Steps of the compute kernel in one unit.
pub const UNIT_STEPS: u32 = 4096;

/// The request line the echo baseline sends: as long as a short read.
const ECHO_LINE: &[u8] = b"read hits_sharded\n";

/// How long the echo acceptor sleeps when no connection is waiting, as
/// the serve layer's acceptor does.
const ACCEPT_POLL: Duration = Duration::from_millis(1);

/// One baseline measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Baseline {
    /// Units completed per second, over all threads.
    pub rate: f64,
    /// Median time of one unit on one thread (s).
    pub p50_s: f64,
    /// 99th-percentile time of one unit on one thread (s).
    pub p99_s: f64,
}

impl Baseline {
    /// The mean of two measurements: the one before a round and the one
    /// after it.
    pub fn around(before: Baseline, after: Baseline) -> Baseline {
        Baseline {
            rate: (before.rate + after.rate) / 2.0,
            p50_s: (before.p50_s + after.p50_s) / 2.0,
            p99_s: (before.p99_s + after.p99_s) / 2.0,
        }
    }
}

/// Pooled per-thread results: units, elapsed time and unit times.
fn pool(parts: Vec<(u64, Duration, Vec<f64>)>) -> Baseline {
    let mut rate = 0.0;
    let mut units = Vec::new();
    for (n, elapsed, samples) in parts {
        rate += n as f64 / elapsed.as_secs_f64();
        units.extend(samples);
    }
    let q = |p| quantile(&units, p).map_or(f64::NAN, |q| q.value);
    Baseline {
        rate,
        p50_s: q(0.5),
        p99_s: q(0.99),
    }
}

/// Times `unit` back to back: untimed for [`LEAD_IN`], then for
/// [`PROBE`], every call a sample.
fn timed(mut unit: impl FnMut()) -> (u64, Duration, Vec<f64>) {
    let lead_in = Instant::now() + LEAD_IN;
    while Instant::now() < lead_in {
        unit();
    }
    let mut samples = Vec::with_capacity(1 << 14);
    let t0 = Instant::now();
    let mut last = t0;
    while last.duration_since(t0) < PROBE {
        unit();
        let now = Instant::now();
        samples.push(now.duration_since(last).as_secs_f64());
        last = now;
    }
    (samples.len() as u64, last.duration_since(t0), samples)
}

/// Echo server state shared by its acceptor and workers.
struct EchoServer {
    listener: TcpListener,
    queue: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
    stop: AtomicBool,
}

impl EchoServer {
    fn accept_loop(&self) {
        while !self.stop.load(Ordering::Relaxed) {
            match self.listener.accept() {
                Ok((c, _)) => {
                    c.set_nonblocking(false).expect("blocking stream");
                    c.set_nodelay(true).expect("nodelay");
                    self.queue.lock().unwrap().push_back(c);
                    self.ready.notify_one();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => thread::sleep(ACCEPT_POLL),
                Err(e) => panic!("echo accept: {e}"),
            }
        }
    }

    fn worker_loop(&self) {
        loop {
            let mut c = {
                let mut q = self.queue.lock().unwrap();
                loop {
                    if let Some(c) = q.pop_front() {
                        break c;
                    }
                    if self.stop.load(Ordering::Relaxed) {
                        return;
                    }
                    q = self
                        .ready
                        .wait_timeout(q, Duration::from_millis(5))
                        .unwrap()
                        .0;
                }
            };
            let mut buf = [0u8; 256];
            // Until the sender hangs up.
            while let Ok(n @ 1..) = c.read(&mut buf) {
                if c.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
        }
    }
}

/// One echo round trip of [`ECHO_LINE`] on `c`.
fn round_trip(c: &mut TcpStream) {
    let mut buf = [0u8; 256];
    c.write_all(ECHO_LINE).expect("echo write");
    let mut got = 0;
    while got < ECHO_LINE.len() {
        match c.read(&mut buf) {
            Ok(n @ 1..) => got += n,
            _ => panic!("echo closed early"),
        }
    }
}

/// Bare TCP echo: `conns` senders against an echo server with `workers`
/// workers, every thread pinned to CPU `cpu`. Each sender opens a fresh
/// connection every `session_len` round trips (`usize::MAX`: one for
/// the whole measurement); a session's first round trip includes its
/// connect, as a client's first call does.
pub fn echo(conns: usize, workers: usize, session_len: usize, cpu: usize) -> Baseline {
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback listener binds");
    listener
        .set_nonblocking(true)
        .expect("non-blocking listener");
    let addr = listener.local_addr().expect("listener has an address");
    let server = EchoServer {
        listener,
        queue: Mutex::new(VecDeque::new()),
        ready: Condvar::new(),
        stop: AtomicBool::new(false),
    };
    thread::scope(|s| {
        let server = &server;
        s.spawn(move || {
            pin::pin(cpu);
            server.accept_loop();
        });
        for _ in 0..workers {
            s.spawn(move || {
                pin::pin(cpu);
                server.worker_loop();
            });
        }
        let senders: Vec<_> = (0..conns)
            .map(|_| {
                s.spawn(move || {
                    pin::pin(cpu);
                    let mut conn: Option<(TcpStream, usize)> = None;
                    timed(|| {
                        let (c, sent) = conn.get_or_insert_with(|| {
                            let c = TcpStream::connect(addr).expect("echo connects");
                            c.set_nodelay(true).expect("nodelay");
                            (c, 0)
                        });
                        round_trip(c);
                        *sent += 1;
                        if *sent == session_len {
                            conn = None;
                        }
                    })
                })
            })
            .collect();
        let parts = senders
            .into_iter()
            .map(|h| h.join().expect("echo sender panicked"))
            .collect();
        server.stop.store(true, Ordering::Relaxed);
        server.ready.notify_all();
        pool(parts)
    })
}

/// [`UNIT_STEPS`] steps of the compute kernel.
fn compute_unit(x: &mut u64, table: &mut [u64; 256]) {
    for _ in 0..UNIT_STEPS {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        let i = (*x & 255) as usize;
        table[i] = table[i].wrapping_add(*x);
    }
}

/// The compute kernel on `threads` threads at once, pinned one per CPU
/// when there are several (as the `objects_n64` load threads are).
pub fn compute(threads: usize) -> Baseline {
    thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    if threads > 1 {
                        pin::pin(t);
                    }
                    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ t as u64;
                    let mut table = [0u64; 256];
                    let out = timed(|| compute_unit(&mut x, &mut table));
                    black_box(table);
                    out
                })
            })
            .collect();
        pool(
            handles
                .into_iter()
                .map(|h| h.join().expect("compute thread panicked"))
                .collect(),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sane(b: Baseline) {
        assert!(b.rate.is_finite() && b.rate > 0.0, "{b:?}");
        assert!(b.p50_s.is_finite() && b.p50_s > 0.0, "{b:?}");
        assert!(b.p99_s >= b.p50_s, "{b:?}");
    }

    #[test]
    fn echo_measures_round_trips() {
        let one = echo(1, 1, usize::MAX, 0);
        sane(one);
        // One sender waits for each reply: its rate is about one unit
        // per unit time.
        let implied = 1.0 / one.p50_s;
        assert!(
            one.rate > implied / 3.0 && one.rate < implied * 3.0,
            "{one:?}"
        );
        sane(echo(2, 2, usize::MAX, 0));
    }

    #[test]
    fn echo_sessions_wait_for_the_polling_acceptor() {
        let long = echo(2, 2, usize::MAX, 0);
        let short = echo(2, 2, 2, 0);
        sane(short);
        // Every other round trip waits for a connection to be accepted.
        assert!(short.rate < long.rate, "{short:?} vs {long:?}");
        assert!(short.p99_s > long.p50_s, "{short:?} vs {long:?}");
    }

    #[test]
    fn compute_measures_units() {
        let b = compute(2);
        sane(b);
        // Two threads, each at most one unit per unit time, on at most
        // two CPUs.
        assert!(b.rate < 3.0 * 2.0 / b.p50_s, "{b:?}");
    }

    #[test]
    fn around_is_the_mean() {
        let a = Baseline {
            rate: 10.0,
            p50_s: 1.0,
            p99_s: 2.0,
        };
        let b = Baseline {
            rate: 30.0,
            p50_s: 3.0,
            p99_s: 6.0,
        };
        assert_eq!(
            Baseline::around(a, b),
            Baseline {
                rate: 20.0,
                p50_s: 2.0,
                p99_s: 4.0,
            }
        );
    }
}
