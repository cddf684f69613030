//! CPU placement of the benchmark's threads.
//!
//! On a 2-core host the scheduler otherwise moves the client, worker
//! and object threads between cores from run to run, and each placement
//! is a different latency regime. Pinning fixes one placement per
//! workload. Linux only: `sched_setaffinity` through the C library std
//! already links, and thread names from `/proc/self/task`.

use std::fs;
use std::thread;
use std::time::{Duration, Instant};

extern "C" {
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pins thread `tid` (`0`: the calling thread) to CPU `cpu`; returns
/// whether the kernel accepted it.
fn pin_tid(tid: i32, cpu: usize) -> bool {
    let mask: u64 = 1 << (cpu % 64);
    // SAFETY: `mask` is a live u64 for the duration of the call and
    // `size` is its size in bytes; the kernel only reads it.
    unsafe { sched_setaffinity(tid, std::mem::size_of::<u64>(), &mask) == 0 }
}

/// Pins the calling thread to CPU `cpu` (best effort).
pub fn pin(cpu: usize) {
    if !pin_tid(0, cpu) {
        eprintln!("perfbench: could not pin a thread to cpu {cpu}");
    }
}

/// Pins the `expect` threads of this process whose names start with
/// `prefix` to CPU `cpu`. A thread names itself once it runs, so this
/// retries for up to a second until all `expect` are found.
pub fn pin_threads(prefix: &str, cpu: usize, expect: usize) {
    let deadline = Instant::now() + Duration::from_secs(1);
    while pin_named(prefix, cpu) < expect {
        if Instant::now() > deadline {
            eprintln!("perfbench: pinned fewer than {expect} `{prefix}` threads to cpu {cpu}");
            return;
        }
        thread::sleep(Duration::from_millis(1));
    }
}

/// Pins every thread of this process whose name starts with `prefix`
/// to CPU `cpu`; returns how many it pinned.
fn pin_named(prefix: &str, cpu: usize) -> usize {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter(|t| {
            fs::read_to_string(t.path().join("comm")).is_ok_and(|name| name.starts_with(prefix))
        })
        .filter_map(|t| t.file_name().to_str()?.parse::<i32>().ok())
        .filter(|&tid| pin_tid(tid, cpu))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_named_threads() {
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let (started_tx, started) = std::sync::mpsc::channel::<()>();
        // std names the thread from inside it, so wait until it runs.
        let t = std::thread::Builder::new()
            .name("pin-probe".into())
            .spawn(move || {
                started_tx.send(()).unwrap();
                rx.recv().ok()
            })
            .unwrap();
        started.recv().unwrap();
        assert_eq!(pin_named("pin-probe", 0), 1);
        assert_eq!(pin_named("no-such-thread", 0), 0);
        tx.send(()).unwrap();
        t.join().unwrap();
    }
}
