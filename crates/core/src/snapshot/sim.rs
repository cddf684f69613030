//! Simulator step machines for snapshots.
//!
//! Only the double-collect snapshot is simulated: it is the snapshot
//! whose step behaviour the Theorem 1 / Corollary 1 experiments need
//! (an `O(1)`-update snapshot whose scans an adversary can stretch), and
//! it fits the model's single-word base objects. The Afek and
//! path-copying snapshots rely on wide registers / pointers and exist as
//! real-atomics implementations only (see `DESIGN.md`).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use ruo_sim::{done, read, write, Machine, Memory, ObjId, ProcessId, Step, Word};

/// A snapshot whose operations are simulator step machines.
///
/// Scan machines return a *token*; exchange it for the scanned vector
/// with [`take_scan_result`](SimSnapshot::take_scan_result) (the
/// executor's `OpSpec::vector` does this automatically).
pub trait SimSnapshot: Send + Sync {
    /// Number of segments.
    fn n(&self) -> usize;

    /// An `Update(v)` of `pid`'s segment as a step machine.
    fn update(&self, pid: ProcessId, v: u64) -> Machine;

    /// A `Scan` as a step machine; the machine's result is a token.
    fn scan(&self, pid: ProcessId) -> Machine;

    /// Exchanges a scan machine's token for the scanned vector.
    fn take_scan_result(&self, token: Word) -> Vec<u64>;
}

#[inline]
fn pack(seq: u32, val: u32) -> Word {
    (((seq as u64) << 32) | val as u64) as Word
}

#[inline]
fn unpack_val(word: Word) -> u64 {
    (word as u64) & 0xFFFF_FFFF
}

/// The vectors completed scans returned, behind their tokens.
#[derive(Debug, Default)]
struct ScanTable {
    /// Each token's vector.
    vectors: Vec<Vec<u64>>,
    /// Each vector's token.
    tokens: HashMap<Vec<u64>, Word>,
}

impl ScanTable {
    /// The token for `vals`. Equal vectors share one token, so a scan's
    /// completion is pure: run twice (say, on a cloned machine) it
    /// returns the same token and leaves the table as the first run did.
    fn token(&mut self, vals: Vec<u64>) -> Word {
        if let Some(&token) = self.tokens.get(&vals) {
            return token;
        }
        let token = self.vectors.len() as Word;
        self.vectors.push(vals.clone());
        self.tokens.insert(vals, token);
        token
    }
}

/// The double-collect snapshot as step machines: updates are exactly 2
/// steps; scans take `2N` steps per attempt and retry until a clean
/// double collect.
#[derive(Debug)]
pub struct SimDoubleCollectSnapshot {
    segments: Arc<Vec<ObjId>>,
    results: Arc<Mutex<ScanTable>>,
}

impl SimDoubleCollectSnapshot {
    /// Allocates `n` zeroed segments in `mem`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(mem: &mut Memory, n: usize) -> Self {
        assert!(n >= 1, "at least one segment required");
        SimDoubleCollectSnapshot {
            segments: Arc::new(mem.alloc_n(n, 0)),
            results: Arc::new(Mutex::new(ScanTable::default())),
        }
    }
}

/// A shared continuation receiving one collect's segment words.
type CollectK = Arc<dyn Fn(Vec<Word>) -> Step + Send + Sync>;

/// Reads segments `i..n` into `acc`, then continues with `k`.
pub(crate) fn collect(segments: Arc<Vec<ObjId>>, i: usize, acc: Vec<Word>, k: CollectK) -> Step {
    if i == segments.len() {
        return k(acc);
    }
    let seg = segments[i];
    read(seg, move |w| {
        let mut acc = acc.clone();
        acc.push(w);
        collect(Arc::clone(&segments), i + 1, acc, Arc::clone(&k))
    })
}

fn scan_attempt(
    segments: Arc<Vec<ObjId>>,
    prev: Option<Vec<Word>>,
    results: Arc<Mutex<ScanTable>>,
) -> Step {
    let segs = Arc::clone(&segments);
    collect(
        segments,
        0,
        Vec::new(),
        Arc::new(move |cur| {
            if prev.as_deref() == Some(cur.as_slice()) {
                let vals = cur.iter().map(|&w| unpack_val(w)).collect();
                done(results.lock().unwrap().token(vals))
            } else {
                scan_attempt(Arc::clone(&segs), Some(cur), Arc::clone(&results))
            }
        }),
    )
}

impl SimSnapshot for SimDoubleCollectSnapshot {
    fn n(&self) -> usize {
        self.segments.len()
    }

    /// # Panics
    ///
    /// Panics if `v` exceeds [`super::MAX_SEGMENT_VALUE`].
    fn update(&self, pid: ProcessId, v: u64) -> Machine {
        assert!(
            v <= super::MAX_SEGMENT_VALUE,
            "value {v} exceeds MAX_SEGMENT_VALUE"
        );
        let seg = self.segments[pid.index()];
        Machine::new(read(seg, move |w| {
            let seq = ((w as u64) >> 32) as u32;
            write(seg, pack(seq.wrapping_add(1), v as u32), || done(0))
        }))
    }

    fn scan(&self, _pid: ProcessId) -> Machine {
        Machine::new(scan_attempt(
            Arc::clone(&self.segments),
            None,
            Arc::clone(&self.results),
        ))
    }

    fn take_scan_result(&self, token: Word) -> Vec<u64> {
        self.results.lock().unwrap().vectors[token as usize].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruo_sim::run_solo;

    #[test]
    fn update_is_exactly_two_steps() {
        let mut mem = Memory::new();
        let s = SimDoubleCollectSnapshot::new(&mut mem, 4);
        let (_, steps) = run_solo(&mut mem, ProcessId(0), s.update(ProcessId(0), 9));
        assert_eq!(steps, 2);
    }

    #[test]
    fn solo_scan_takes_two_collects() {
        let mut mem = Memory::new();
        let n = 4;
        let s = SimDoubleCollectSnapshot::new(&mut mem, n);
        let (token, steps) = run_solo(&mut mem, ProcessId(0), s.scan(ProcessId(0)));
        assert_eq!(steps, 2 * n);
        assert_eq!(s.take_scan_result(token), vec![0; n]);
    }

    #[test]
    fn scan_sees_updates() {
        let mut mem = Memory::new();
        let s = SimDoubleCollectSnapshot::new(&mut mem, 3);
        run_solo(&mut mem, ProcessId(1), s.update(ProcessId(1), 5));
        run_solo(&mut mem, ProcessId(2), s.update(ProcessId(2), 7));
        let (token, _) = run_solo(&mut mem, ProcessId(0), s.scan(ProcessId(0)));
        assert_eq!(s.take_scan_result(token), vec![0, 5, 7]);
    }

    #[test]
    fn interfered_scan_retries() {
        // Interleave an update between the scan's two collects; the scan
        // must take extra rounds.
        let mut mem = Memory::new();
        let s = SimDoubleCollectSnapshot::new(&mut mem, 2);
        let mut scan = s.scan(ProcessId(0));
        // First collect (2 reads).
        for _ in 0..2 {
            let p = scan.enabled().unwrap();
            let r = mem.apply(ProcessId(0), p);
            scan.feed(r);
        }
        // Now p1 updates segment 1, invalidating the first collect.
        run_solo(&mut mem, ProcessId(1), s.update(ProcessId(1), 3));
        // Let the scan finish.
        while let Some(p) = scan.enabled() {
            let r = mem.apply(ProcessId(0), p);
            scan.feed(r);
        }
        assert!(scan.steps() > 4, "scan should have retried");
        let token = scan.result().unwrap();
        assert_eq!(s.take_scan_result(token), vec![0, 3]);
    }

    #[test]
    fn same_value_update_perturbs_scans() {
        // Sequence numbers make same-value rewrites visible.
        let mut mem = Memory::new();
        let s = SimDoubleCollectSnapshot::new(&mut mem, 1);
        run_solo(&mut mem, ProcessId(0), s.update(ProcessId(0), 5));
        let before = mem.peek(s.segments[0]);
        run_solo(&mut mem, ProcessId(0), s.update(ProcessId(0), 5));
        let after = mem.peek(s.segments[0]);
        assert_ne!(before, after);
        assert_eq!(unpack_val(before), unpack_val(after));
    }
}
