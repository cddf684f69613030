//! Seeded operation streams shared by every workload.
//!
//! One generator per load thread, seeded from the run's `--seed` and the
//! thread index, so a seed fixes every thread's op sequence. The same
//! mix drives the served objects and the in-process objects: reads go
//! to the two counters, the max register and the snapshot in the ratio
//! 6:3:1 (the counter share split 5:1 between the f-array `hits` and the
//! sharded `hits_sharded`), and updates are spread evenly over the four
//! update kinds.

use std::ops::Range;

use ruo_sim::SplitMix64;

/// Requests carried by one producer session on `serve_ingest`.
pub const SESSION_LEN: usize = 16;

/// Same-kind object operations per batch on `objects_n64`.
pub const BATCH_LEN: usize = 256;

/// Written values are uniform below this bound, so later `write_max`
/// calls are increasingly dominated, as in watermark use.
pub const VALUE_BOUND: u64 = 1 << 20;

/// What an operation does, without its arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// Read the f-array counter `hits`.
    ReadHits,
    /// Read the sharded counter `hits_sharded`.
    ReadSharded,
    /// Read the tree max register `peak`.
    ReadPeak,
    /// Scan the double-collect snapshot `segments`.
    ScanSegments,
    /// `k ∈ 1..=3` increments of `hits`.
    IncrHits,
    /// One increment of `hits_sharded`.
    IncrSharded,
    /// `write_max` on `peak`.
    WriteMax,
    /// Update the caller's segment of `segments`.
    Update,
}

impl Kind {
    /// Every kind, reads first.
    pub const ALL: [Kind; 8] = [
        Kind::ReadHits,
        Kind::ReadSharded,
        Kind::ReadPeak,
        Kind::ScanSegments,
        Kind::IncrHits,
        Kind::IncrSharded,
        Kind::WriteMax,
        Kind::Update,
    ];

    /// Whether the kind leaves the object unchanged.
    pub fn is_read(self) -> bool {
        matches!(
            self,
            Kind::ReadHits | Kind::ReadSharded | Kind::ReadPeak | Kind::ScanSegments
        )
    }

    /// `core.<impl>.<op>`: the registry implementation and operation the
    /// kind calls, naming its spans and its per-layer metrics.
    pub fn core_name(self) -> &'static str {
        match self {
            Kind::ReadHits => "core.farray.read",
            Kind::IncrHits => "core.farray.increment",
            Kind::ReadSharded => "core.sharded.read",
            Kind::IncrSharded => "core.sharded.increment",
            Kind::ReadPeak => "core.tree.read_max",
            Kind::WriteMax => "core.tree.write_max",
            Kind::ScanSegments => "core.double_collect.scan",
            Kind::Update => "core.double_collect.update",
        }
    }
}

/// One operation with its arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Read `hits`.
    ReadHits,
    /// Read `hits_sharded`.
    ReadSharded,
    /// Read `peak`.
    ReadPeak,
    /// Scan `segments`.
    ScanSegments,
    /// `k` increments of `hits`.
    IncrHits(u64),
    /// One increment of `hits_sharded`.
    IncrSharded,
    /// `write_max(v)` on `peak`.
    WriteMax(u64),
    /// `update(v)` on the caller's segment of `segments`.
    Update(u64),
}

impl Op {
    /// The operation's kind.
    pub fn kind(self) -> Kind {
        match self {
            Op::ReadHits => Kind::ReadHits,
            Op::ReadSharded => Kind::ReadSharded,
            Op::ReadPeak => Kind::ReadPeak,
            Op::ScanSegments => Kind::ScanSegments,
            Op::IncrHits(_) => Kind::IncrHits,
            Op::IncrSharded => Kind::IncrSharded,
            Op::WriteMax(_) => Kind::WriteMax,
            Op::Update(_) => Kind::Update,
        }
    }
}

/// Read weights out of 10 reads: `hits`, `hits_sharded`, `peak`, scan.
const READ_WEIGHTS: [(Kind, u64); 4] = [
    (Kind::ReadHits, 5),
    (Kind::ReadSharded, 1),
    (Kind::ReadPeak, 3),
    (Kind::ScanSegments, 1),
];

/// Update kinds, drawn uniformly.
const UPDATE_KINDS: [Kind; 4] = [
    Kind::IncrHits,
    Kind::IncrSharded,
    Kind::WriteMax,
    Kind::Update,
];

/// A seeded op stream with a fixed read percentage.
#[derive(Debug)]
pub struct OpGen {
    rng: SplitMix64,
    read_pct: u64,
}

impl OpGen {
    /// The stream of load thread `stream` under run seed `seed`.
    pub fn new(seed: u64, stream: u64, read_pct: u64) -> Self {
        assert!(read_pct <= 100, "read share above 100%");
        let mut mix = SplitMix64::new(seed ^ (stream + 1).wrapping_mul(0xA24B_AED4_963E_E407));
        OpGen {
            rng: SplitMix64::new(mix.next_u64()),
            read_pct,
        }
    }

    /// Draws the next kind from the mix.
    pub fn next_kind(&mut self) -> Kind {
        if self.rng.gen_below(100) < self.read_pct {
            let mut r = self.rng.gen_below(10);
            for (kind, w) in READ_WEIGHTS {
                if r < w {
                    return kind;
                }
                r -= w;
            }
            unreachable!("read weights sum to 10")
        } else {
            UPDATE_KINDS[self.rng.gen_index(UPDATE_KINDS.len())]
        }
    }

    /// Draws arguments for an operation of `kind`.
    pub fn op(&mut self, kind: Kind) -> Op {
        match kind {
            Kind::ReadHits => Op::ReadHits,
            Kind::ReadSharded => Op::ReadSharded,
            Kind::ReadPeak => Op::ReadPeak,
            Kind::ScanSegments => Op::ScanSegments,
            Kind::IncrHits => Op::IncrHits(self.rng.gen_range(1, 4)),
            Kind::IncrSharded => Op::IncrSharded,
            Kind::WriteMax => Op::WriteMax(self.rng.gen_below(VALUE_BOUND)),
            Kind::Update => Op::Update(self.rng.gen_below(VALUE_BOUND)),
        }
    }

    /// Draws the next operation.
    pub fn next_op(&mut self) -> Op {
        let kind = self.next_kind();
        self.op(kind)
    }

    /// One batch of same-kind object operations.
    pub fn batch(&mut self) -> [Op; BATCH_LEN] {
        let kind = self.next_kind();
        std::array::from_fn(|_| self.op(kind))
    }
}

/// The process identities load thread `thread` of `threads` owns on an
/// object shared by `n` processes. The sets are disjoint, so every pid
/// has a single writer.
pub fn pid_set(thread: usize, threads: usize, n: usize) -> Range<usize> {
    assert!(
        threads >= 1 && threads <= n,
        "{threads} threads for {n} pids"
    );
    let per = n / threads;
    let start = thread * per;
    let end = if thread + 1 == threads {
        n
    } else {
        start + per
    };
    start..end
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn ops(seed: u64, stream: u64, len: usize) -> Vec<Op> {
        let mut g = OpGen::new(seed, stream, 90);
        (0..len).map(|_| g.next_op()).collect()
    }

    #[test]
    fn same_seed_same_sequence_other_seed_other_sequence() {
        assert_eq!(ops(7, 0, 1000), ops(7, 0, 1000));
        assert_ne!(ops(7, 0, 1000), ops(8, 0, 1000));
        assert_ne!(ops(7, 0, 1000), ops(7, 1, 1000), "threads share a stream");
    }

    fn shares(read_pct: u64) -> HashMap<Kind, f64> {
        const DRAWS: usize = 200_000;
        let mut g = OpGen::new(3, 0, read_pct);
        let mut counts = HashMap::new();
        for _ in 0..DRAWS {
            *counts.entry(g.next_kind()).or_insert(0usize) += 1;
        }
        counts
            .into_iter()
            .map(|(k, c)| (k, c as f64 / DRAWS as f64))
            .collect()
    }

    #[test]
    fn mix_matches_declared_shares() {
        for read_pct in [90, 10] {
            let s = shares(read_pct);
            let reads: f64 = Kind::ALL.iter().filter(|k| k.is_read()).map(|k| s[k]).sum();
            let r = read_pct as f64 / 100.0;
            assert!((reads - r).abs() < 0.005, "reads {reads} vs {r}");
            for (kind, w) in READ_WEIGHTS {
                let want = r * w as f64 / 10.0;
                assert!(
                    (s[&kind] - want).abs() < 0.005,
                    "{kind:?} {} vs {want}",
                    s[&kind]
                );
            }
            for kind in UPDATE_KINDS {
                let want = (1.0 - r) / 4.0;
                assert!(
                    (s[&kind] - want).abs() < 0.005,
                    "{kind:?} {} vs {want}",
                    s[&kind]
                );
            }
        }
    }

    #[test]
    fn arguments_stay_in_range() {
        let mut g = OpGen::new(11, 0, 0);
        for _ in 0..10_000 {
            match g.next_op() {
                Op::IncrHits(k) => assert!((1..=3).contains(&k)),
                Op::WriteMax(v) | Op::Update(v) => assert!(v < VALUE_BOUND),
                op => assert!(!op.kind().is_read(), "{op:?} at 0% reads"),
            }
        }
    }

    #[test]
    fn batches_are_one_kind() {
        let mut g = OpGen::new(5, 2, 50);
        for _ in 0..200 {
            let b = g.batch();
            assert!(b.iter().all(|op| op.kind() == b[0].kind()));
        }
    }

    #[test]
    fn pid_sets_are_disjoint_and_cover_all_pids() {
        for (threads, n) in [(1, 64), (2, 64), (3, 64), (2, 2), (7, 64)] {
            let mut owner = vec![None; n];
            for t in 0..threads {
                let set = pid_set(t, threads, n);
                assert!(!set.is_empty());
                for pid in set {
                    assert_eq!(owner[pid], None, "pid {pid} owned twice");
                    owner[pid] = Some(t);
                }
            }
            assert!(
                owner.iter().all(Option::is_some),
                "{threads} threads leave a pid unowned"
            );
        }
    }
}
