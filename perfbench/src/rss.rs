//! Peak resident memory per round.
//!
//! Linux keeps a process's peak RSS (`VmHWM`) and resets it when `5` is
//! written to `/proc/self/clear_refs`. Each round resets it first and
//! reads it last, so a run reports the median round's peak: the memory
//! one round of the workload needs, with the binary and everything
//! still resident counted, rather than the single highest round.

use std::fs;

/// Starts a new peak-RSS window; `false` if the kernel refused, in
/// which case [`peak_mb`] keeps reporting the process-lifetime peak.
pub fn reset_peak() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size since the last reset (or process start), MB.
pub fn peak_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_drops_the_peak_of_freed_memory() {
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        let with_big = peak_mb();
        drop(big);
        if reset_peak() {
            assert!(peak_mb() < with_big - 32.0, "{} vs {with_big}", peak_mb());
        }
    }
}
