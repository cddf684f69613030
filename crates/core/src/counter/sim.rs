//! Simulator step machines for the counters.
//!
//! The exact step counts measured here feed the Theorem 1 experiment:
//! the Lemma 1 adversary in `ruo-lowerbound` drives these machines one
//! enabled event at a time.

use std::sync::Arc;

use ruo_sim::{cas, done, read, write, BoxedStep, Machine, Memory, ObjId, ProcessId, Step, Word};

use crate::maxreg::aac::AacShape;
use crate::maxreg::sim::{aac_read_k, aac_write, ValueK};
use crate::shape::TreeShape;
use crate::snapshot::sim::collect;

/// A counter whose operations are simulator step machines.
pub trait SimCounter: Send + Sync {
    /// Number of processes the counter supports.
    fn n(&self) -> usize;

    /// A `CounterIncrement` by `pid` as a step machine.
    fn increment(&self, pid: ProcessId) -> Machine;

    /// A `CounterRead` as a step machine; the machine's result is the
    /// count.
    fn read(&self, pid: ProcessId) -> Machine;
}

/// One sum-propagation level: parent cell plus child cells.
#[derive(Clone, Copy, Debug)]
struct SumLevel {
    node: ObjId,
    left: Option<ObjId>,
    right: Option<ObjId>,
}

fn read_opt_zero(obj: Option<ObjId>, k: impl Fn(Word) -> Step + Send + Sync + 'static) -> Step {
    match obj {
        Some(o) => read(o, k),
        None => k(0),
    }
}

/// Double-CAS sum propagation (the f-array analogue of Algorithm A's
/// `Propagate`).
fn propagate_sum(levels: Arc<Vec<SumLevel>>, i: usize, attempt: u8) -> Step {
    if i == levels.len() {
        return done(0);
    }
    let lv = levels[i];
    read(lv.node, move |old| {
        let levels = Arc::clone(&levels);
        read_opt_zero(lv.left, move |l| {
            let levels = Arc::clone(&levels);
            read_opt_zero(lv.right, move |r| {
                let levels = Arc::clone(&levels);
                cas(lv.node, old, l + r, move |_| {
                    if attempt == 0 {
                        propagate_sum(Arc::clone(&levels), i, 1)
                    } else {
                        propagate_sum(Arc::clone(&levels), i + 1, 0)
                    }
                })
            })
        })
    })
}

/// The f-array counter as step machines: `CounterRead` is exactly one
/// step, `CounterIncrement` is `O(log N)`.
#[derive(Debug)]
pub struct SimFArrayCounter {
    shape: Arc<TreeShape>,
    root: usize,
    leaves: Vec<usize>,
    cells: Arc<Vec<ObjId>>,
}

impl SimFArrayCounter {
    /// Allocates the tree's cells (all `0`) in `mem` for `n` processes.
    pub fn new(mem: &mut Memory, n: usize) -> Self {
        assert!(n >= 1);
        let mut shape = TreeShape::new();
        let (root, leaves) = shape.build_complete(n);
        shape.fix_depths(root);
        let cells = mem.alloc_n(shape.len(), 0);
        SimFArrayCounter {
            shape: Arc::new(shape),
            root,
            leaves,
            cells: Arc::new(cells),
        }
    }
}

impl SimCounter for SimFArrayCounter {
    fn n(&self) -> usize {
        self.leaves.len()
    }

    fn increment(&self, pid: ProcessId) -> Machine {
        let leaf = self.leaves[pid.index()];
        let leaf_cell = self.cells[leaf];
        let levels: Vec<SumLevel> = self
            .shape
            .ancestors(leaf)
            .into_iter()
            .map(|a| {
                let info = self.shape.node(a);
                SumLevel {
                    node: self.cells[a],
                    left: info.left.map(|i| self.cells[i]),
                    right: info.right.map(|i| self.cells[i]),
                }
            })
            .collect();
        let levels = Arc::new(levels);
        Machine::new(read(leaf_cell, move |c| {
            let levels = Arc::clone(&levels);
            write(leaf_cell, c + 1, move || {
                propagate_sum(Arc::clone(&levels), 0, 0)
            })
        }))
    }

    fn read(&self, _pid: ProcessId) -> Machine {
        let root = self.cells[self.root];
        Machine::new(read(root, done))
    }
}

/// Reads `cells[i..]` one step at a time, accumulating the sum into
/// `acc`, then continues with the total.
fn collect_sum(cells: Arc<Vec<ObjId>>, i: usize, acc: Word, k: BoxedStep) -> Step {
    if i == cells.len() {
        return k(acc);
    }
    let cell = cells[i];
    read(cell, move |w| {
        collect_sum(Arc::clone(&cells), i + 1, acc + w, Arc::clone(&k))
    })
}

/// The combining counter's batch semantics as a *wait-free* step
/// machine: the publication array is modeled by one announce cell per
/// process (single-writer, monotone), and "combining" is an arity-`N`
/// f-array level — read the root, collect every announce cell, CAS the
/// whole batch sum in, twice. The root therefore jumps by whole batches
/// (several processes' pending increments land in one CAS), which is
/// exactly the batch-boundary behaviour the explorer must prove
/// harmless against the counter spec.
///
/// Unlike the real [`CombiningCounter`](crate::counter::CombiningCounter)
/// — whose waiters *block* on a combiner lock and therefore cannot be
/// driven under the explorer's step cap when the adversary stalls the
/// combiner forever — every operation here finishes in a bounded number
/// of its own steps: `CounterIncrement` is `2 + 2(N + 2)` steps,
/// `CounterRead` is 1. The double-collect-and-CAS discipline is sound by
/// the same covering argument as the f-array's two propagation attempts
/// (the argument is arity-independent).
#[derive(Debug)]
pub struct SimCombiningCounter {
    /// `announce[i]`: total increments announced by process `i`.
    announce: Arc<Vec<ObjId>>,
    /// The combined total — the only cell reads touch.
    root: ObjId,
}

impl SimCombiningCounter {
    /// Allocates the announce cells and the root (all `0`) in `mem`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(mem: &mut Memory, n: usize) -> Self {
        assert!(n >= 1);
        SimCombiningCounter {
            announce: Arc::new(mem.alloc_n(n, 0)),
            root: mem.alloc(0),
        }
    }
}

/// One combine attempt: read the root, collect the announce array, CAS
/// the batch sum in; `attempt` selects first or second try.
fn combine_install(announce: Arc<Vec<ObjId>>, root: ObjId, attempt: u8) -> Step {
    read(root, move |old| {
        let retry = Arc::clone(&announce);
        let install: BoxedStep = Arc::new(move |sum| {
            let retry = Arc::clone(&retry);
            cas(root, old, sum, move |_| {
                if attempt == 0 {
                    combine_install(Arc::clone(&retry), root, 1)
                } else {
                    done(0)
                }
            })
        });
        collect_sum(Arc::clone(&announce), 0, 0, install)
    })
}

impl SimCounter for SimCombiningCounter {
    fn n(&self) -> usize {
        self.announce.len()
    }

    fn increment(&self, pid: ProcessId) -> Machine {
        let cell = self.announce[pid.index()];
        let announce = Arc::clone(&self.announce);
        let root = self.root;
        Machine::new(read(cell, move |c| {
            let announce = Arc::clone(&announce);
            write(cell, c + 1, move || {
                combine_install(Arc::clone(&announce), root, 0)
            })
        }))
    }

    fn read(&self, _pid: ProcessId) -> Machine {
        Machine::new(read(self.root, done))
    }
}

/// The sharded counter as step machines: `CounterIncrement` writes the
/// caller's stripe (2 steps, wait-free), `CounterRead` collect-sums all
/// `N` stripes (a single pass — monotone single-writer stripes need no
/// double collect). The far write-optimal end of Theorem 1's curve.
#[derive(Debug)]
pub struct SimShardedCounter {
    stripes: Arc<Vec<ObjId>>,
}

impl SimShardedCounter {
    /// Allocates `n` zeroed stripes in `mem`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(mem: &mut Memory, n: usize) -> Self {
        assert!(n >= 1);
        SimShardedCounter {
            stripes: Arc::new(mem.alloc_n(n, 0)),
        }
    }
}

impl SimCounter for SimShardedCounter {
    fn n(&self) -> usize {
        self.stripes.len()
    }

    fn increment(&self, pid: ProcessId) -> Machine {
        let cell = self.stripes[pid.index()];
        Machine::new(read(cell, move |c| write(cell, c + 1, || done(0))))
    }

    fn read(&self, _pid: ProcessId) -> Machine {
        Machine::new(collect_sum(Arc::clone(&self.stripes), 0, 0, Arc::new(done)))
    }
}

/// What an internal node of the AAC counter tree reads below itself.
#[derive(Clone, Debug)]
enum Child {
    /// No child (padding in uneven trees).
    None,
    /// A single-writer leaf cell.
    Leaf(ObjId),
    /// An internal AAC max register (its switch cells).
    Reg(Arc<Vec<ObjId>>),
}

/// One level of the AAC counter's increment path.
#[derive(Clone, Debug)]
struct AacLevel {
    switches: Arc<Vec<ObjId>>,
    left: Child,
    right: Child,
}

fn read_child(shape: Arc<AacShape>, child: Child, k: ValueK) -> Step {
    match child {
        Child::None => k(0),
        Child::Leaf(cell) => read(cell, move |v| k(v as u64)),
        Child::Reg(switches) => {
            let root = shape.root();
            aac_read_k(shape, switches, root, 0, k)
        }
    }
}

fn aac_counter_up(shape: Arc<AacShape>, levels: Arc<Vec<AacLevel>>, i: usize) -> Step {
    if i == levels.len() {
        return done(0);
    }
    let AacLevel {
        switches,
        left,
        right,
    } = levels[i].clone();
    read_child(
        Arc::clone(&shape),
        left,
        Arc::new(move |l| {
            let (shape, levels, switches) = (
                Arc::clone(&shape),
                Arc::clone(&levels),
                Arc::clone(&switches),
            );
            read_child(
                Arc::clone(&shape),
                right.clone(),
                Arc::new(move |r| {
                    let (shape_next, levels) = (Arc::clone(&shape), Arc::clone(&levels));
                    aac_write(
                        Arc::clone(&shape),
                        Arc::clone(&switches),
                        shape.root(),
                        l + r,
                        Arc::new(move || {
                            aac_counter_up(Arc::clone(&shape_next), Arc::clone(&levels), i + 1)
                        }),
                    )
                }),
            )
        }),
    )
}

/// The AAC read/write-only counter as step machines: `CounterRead` is
/// `O(log M)`, `CounterIncrement` is `O(log N · log M)`.
#[derive(Debug)]
pub struct SimAacCounter {
    tree: Arc<TreeShape>,
    root: usize,
    leaves: Vec<usize>,
    /// Leaf node id -> its single-writer cell.
    leaf_cells: Vec<Option<ObjId>>,
    /// Internal node id -> its max register's switch cells.
    node_switches: Vec<Option<Arc<Vec<ObjId>>>>,
    reg_shape: Arc<AacShape>,
    max_increments: u64,
}

impl SimAacCounter {
    /// Allocates all cells in `mem` for `n` processes and at most
    /// `max_increments` total increments.
    pub fn new(mem: &mut Memory, n: usize, max_increments: u64) -> Self {
        assert!(n >= 1);
        assert!(max_increments >= 1);
        let mut tree = TreeShape::new();
        let (root, leaves) = tree.build_complete(n);
        tree.fix_depths(root);
        let reg_shape = Arc::new(AacShape::new(max_increments + 1));
        let mut leaf_cells = vec![None; tree.len()];
        let mut node_switches = vec![None; tree.len()];
        for idx in 0..tree.len() {
            if tree.node(idx).is_leaf() {
                leaf_cells[idx] = Some(mem.alloc(0));
            } else {
                node_switches[idx] = Some(Arc::new(mem.alloc_n(reg_shape.switch_count(), 0)));
            }
        }
        SimAacCounter {
            tree: Arc::new(tree),
            root,
            leaves,
            leaf_cells,
            node_switches,
            reg_shape,
            max_increments,
        }
    }

    /// The restricted-use bound on total increments.
    pub fn max_increments(&self) -> u64 {
        self.max_increments
    }

    fn child_of(&self, idx: Option<usize>) -> Child {
        match idx {
            None => Child::None,
            Some(i) => match (&self.leaf_cells[i], &self.node_switches[i]) {
                (Some(cell), _) => Child::Leaf(*cell),
                (None, Some(sw)) => Child::Reg(Arc::clone(sw)),
                _ => unreachable!("node is either leaf or internal"),
            },
        }
    }
}

impl SimCounter for SimAacCounter {
    fn n(&self) -> usize {
        self.leaves.len()
    }

    fn increment(&self, pid: ProcessId) -> Machine {
        let leaf = self.leaves[pid.index()];
        let leaf_cell = self.leaf_cells[leaf].expect("leaf has a cell");
        let levels: Vec<AacLevel> = self
            .tree
            .ancestors(leaf)
            .into_iter()
            .map(|a| {
                let info = self.tree.node(a);
                AacLevel {
                    switches: Arc::clone(self.node_switches[a].as_ref().expect("internal node")),
                    left: self.child_of(info.left),
                    right: self.child_of(info.right),
                }
            })
            .collect();
        let levels = Arc::new(levels);
        let shape = Arc::clone(&self.reg_shape);
        Machine::new(read(leaf_cell, move |c| {
            let (shape, levels) = (Arc::clone(&shape), Arc::clone(&levels));
            write(leaf_cell, c + 1, move || {
                aac_counter_up(Arc::clone(&shape), Arc::clone(&levels), 0)
            })
        }))
    }

    fn read(&self, _pid: ProcessId) -> Machine {
        match (&self.leaf_cells[self.root], &self.node_switches[self.root]) {
            (Some(cell), _) => {
                let cell = *cell;
                Machine::new(read(cell, done))
            }
            (None, Some(sw)) => {
                let shape = Arc::clone(&self.reg_shape);
                let switches = Arc::clone(sw);
                let root = shape.root();
                Machine::new(aac_read_k(
                    shape,
                    switches,
                    root,
                    0,
                    Arc::new(|v| done(v as Word)),
                ))
            }
            _ => unreachable!(),
        }
    }
}

/// The single-cell CAS-loop counter as step machines: both operations
/// `O(1)` solo, increments lock-free only.
#[derive(Debug)]
pub struct SimCasLoopCounter {
    cell: ObjId,
    n: usize,
}

impl SimCasLoopCounter {
    /// Allocates the cell (value `0`) in `mem`.
    pub fn new(mem: &mut Memory, n: usize) -> Self {
        SimCasLoopCounter {
            cell: mem.alloc(0),
            n,
        }
    }
}

fn cas_loop_incr(cell: ObjId) -> Step {
    read(cell, move |v| {
        cas(cell, v, v + 1, move |ok| {
            if ok == 1 {
                done(0)
            } else {
                cas_loop_incr(cell)
            }
        })
    })
}

impl SimCounter for SimCasLoopCounter {
    fn n(&self) -> usize {
        self.n
    }

    fn increment(&self, _pid: ProcessId) -> Machine {
        Machine::new(cas_loop_incr(self.cell))
    }

    fn read(&self, _pid: ProcessId) -> Machine {
        let cell = self.cell;
        Machine::new(read(cell, done))
    }
}

/// Corollary 1's reduction as step machines: a counter whose
/// `CounterIncrement` is a single snapshot `Update` (2 steps — the
/// process knows its own count) and whose `CounterRead` is a
/// double-collect `Scan` summed (`Ω(N)` steps, obstruction-free).
///
/// This is the *opposite* end of Theorem 1's tradeoff from the f-array:
/// `O(1)` updates bought with linear reads — and the vehicle by which
/// the paper transports the counter lower bound to snapshots.
#[derive(Debug)]
pub struct SimSnapshotCounter {
    /// Per-process segments packing `(seq << 32) | count`.
    segments: Arc<Vec<ObjId>>,
}

impl SimSnapshotCounter {
    /// Allocates `n` zeroed segments in `mem`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(mem: &mut Memory, n: usize) -> Self {
        assert!(n >= 1);
        SimSnapshotCounter {
            segments: Arc::new(mem.alloc_n(n, 0)),
        }
    }
}

fn snapcount_scan_sum(segments: Arc<Vec<ObjId>>, prev: Option<Vec<Word>>) -> Step {
    let segs = Arc::clone(&segments);
    collect(
        segments,
        0,
        Vec::new(),
        Arc::new(move |cur| {
            if prev.as_deref() == Some(cur.as_slice()) {
                let sum: Word = cur.iter().map(|&w| w & 0xFFFF_FFFF).sum();
                done(sum)
            } else {
                snapcount_scan_sum(Arc::clone(&segs), Some(cur))
            }
        }),
    )
}

impl SimCounter for SimSnapshotCounter {
    fn n(&self) -> usize {
        self.segments.len()
    }

    fn increment(&self, pid: ProcessId) -> Machine {
        let seg = self.segments[pid.index()];
        // Single-writer segment: read own (seq, count), write both
        // incremented — exactly one snapshot Update (Corollary 1).
        Machine::new(read(seg, move |w| {
            let seq = ((w as u64) >> 32) as u32;
            let count = (w as u64) as u32;
            let packed = (((seq.wrapping_add(1) as u64) << 32) | (count + 1) as u64) as Word;
            write(seg, packed, || done(0))
        }))
    }

    fn read(&self, _pid: ProcessId) -> Machine {
        Machine::new(snapcount_scan_sum(Arc::clone(&self.segments), None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruo_sim::run_solo;

    #[test]
    fn farray_read_is_one_step() {
        let mut mem = Memory::new();
        let c = SimFArrayCounter::new(&mut mem, 8);
        let (v, steps) = run_solo(&mut mem, ProcessId(0), c.read(ProcessId(0)));
        assert_eq!(v, 0);
        assert_eq!(steps, 1);
    }

    #[test]
    fn farray_counts_sequential_increments() {
        let mut mem = Memory::new();
        let c = SimFArrayCounter::new(&mut mem, 4);
        for i in 0..8usize {
            run_solo(&mut mem, ProcessId(i % 4), c.increment(ProcessId(i % 4)));
            let (v, _) = run_solo(&mut mem, ProcessId(0), c.read(ProcessId(0)));
            assert_eq!(v, i as Word + 1);
        }
    }

    #[test]
    fn farray_increment_is_logarithmic() {
        for n in [2usize, 8, 64, 256] {
            let mut mem = Memory::new();
            let c = SimFArrayCounter::new(&mut mem, n);
            let (_, steps) = run_solo(&mut mem, ProcessId(0), c.increment(ProcessId(0)));
            let depth = (n as f64).log2().ceil() as usize;
            assert!(
                steps <= 2 + 8 * depth,
                "n={n}: {steps} steps > bound {}",
                2 + 8 * depth
            );
            assert!(steps >= depth, "n={n}: suspiciously few steps {steps}");
        }
    }

    #[test]
    fn aac_counter_counts_sequential_increments() {
        let mut mem = Memory::new();
        let c = SimAacCounter::new(&mut mem, 4, 32);
        for i in 0..8usize {
            run_solo(&mut mem, ProcessId(i % 4), c.increment(ProcessId(i % 4)));
            let (v, _) = run_solo(&mut mem, ProcessId(0), c.read(ProcessId(0)));
            assert_eq!(v, i as Word + 1);
        }
    }

    #[test]
    fn aac_counter_read_is_logarithmic_in_bound() {
        let mut mem = Memory::new();
        let c = SimAacCounter::new(&mut mem, 8, (1 << 10) - 1);
        let (_, steps) = run_solo(&mut mem, ProcessId(0), c.read(ProcessId(0)));
        assert!((10..=11).contains(&steps), "read steps {steps}");
    }

    #[test]
    fn aac_counter_increment_is_log_n_times_log_m() {
        let n = 8usize;
        let m = (1 << 8) - 1;
        let mut mem = Memory::new();
        let c = SimAacCounter::new(&mut mem, n, m);
        let (_, steps) = run_solo(&mut mem, ProcessId(0), c.increment(ProcessId(0)));
        // 3 levels, each ~ two child reads + one WriteMax, all O(log M).
        let bound = 2 + 3 * 3 * 9;
        assert!(steps <= bound, "{steps} > {bound}");
        assert!(steps >= 9, "suspiciously few steps {steps}");
    }

    #[test]
    fn snapshot_counter_counts_and_has_linear_reads() {
        let n = 8;
        let mut mem = Memory::new();
        let c = SimSnapshotCounter::new(&mut mem, n);
        for i in 0..n {
            let (_, steps) = run_solo(&mut mem, ProcessId(i), c.increment(ProcessId(i)));
            assert_eq!(steps, 2, "increment is one snapshot Update");
        }
        let (v, steps) = run_solo(&mut mem, ProcessId(0), c.read(ProcessId(0)));
        assert_eq!(v, n as Word);
        assert_eq!(steps, 2 * n, "solo read is one clean double collect");
    }

    #[test]
    fn snapshot_counter_read_detects_interference() {
        let mut mem = Memory::new();
        let c = SimSnapshotCounter::new(&mut mem, 2);
        let mut rd = c.read(ProcessId(0));
        // First collect (2 reads).
        for _ in 0..2 {
            let p = rd.enabled().unwrap();
            let r = mem.apply(ProcessId(0), p);
            rd.feed(r);
        }
        // Concurrent increment invalidates the collect; the read retries.
        run_solo(&mut mem, ProcessId(1), c.increment(ProcessId(1)));
        while let Some(p) = rd.enabled() {
            let r = mem.apply(ProcessId(0), p);
            rd.feed(r);
        }
        assert!(rd.steps() > 4, "read should have retried");
        assert_eq!(rd.result(), Some(1));
    }

    #[test]
    fn snapshot_counter_same_count_reincrement_is_visible() {
        // The seq half of the word makes every increment visible even
        // when... counts always change here, but the seq also guards
        // against 2^32-wrap aliasing within a collect window.
        let mut mem = Memory::new();
        let c = SimSnapshotCounter::new(&mut mem, 1);
        run_solo(&mut mem, ProcessId(0), c.increment(ProcessId(0)));
        let w1 = mem.peek(c.segments[0]);
        run_solo(&mut mem, ProcessId(0), c.increment(ProcessId(0)));
        let w2 = mem.peek(c.segments[0]);
        assert_ne!(w1, w2);
        assert_ne!((w1 as u64) >> 32, (w2 as u64) >> 32);
    }

    #[test]
    fn combining_read_is_one_step_and_increment_is_bounded() {
        let n = 5;
        let mut mem = Memory::new();
        let c = SimCombiningCounter::new(&mut mem, n);
        let (_, steps) = run_solo(&mut mem, ProcessId(2), c.increment(ProcessId(2)));
        assert_eq!(steps, 2 + 2 * (n + 2), "wait-free bound must be exact solo");
        let (v, steps) = run_solo(&mut mem, ProcessId(0), c.read(ProcessId(0)));
        assert_eq!(v, 1);
        assert_eq!(steps, 1);
    }

    #[test]
    fn combining_counts_sequential_increments() {
        let mut mem = Memory::new();
        let c = SimCombiningCounter::new(&mut mem, 4);
        for i in 0..8usize {
            run_solo(&mut mem, ProcessId(i % 4), c.increment(ProcessId(i % 4)));
            let (v, _) = run_solo(&mut mem, ProcessId(0), c.read(ProcessId(0)));
            assert_eq!(v, i as Word + 1);
        }
    }

    #[test]
    fn combining_batches_land_together() {
        // Three processes announce, none has installed yet; the fourth's
        // combine sweeps the whole pending batch into the root in one
        // CAS — the root jumps straight from 0 to 4.
        let n = 4;
        let mut mem = Memory::new();
        let c = SimCombiningCounter::new(&mut mem, n);
        let mut stalled: Vec<Machine> = (0..3).map(|i| c.increment(ProcessId(i))).collect();
        for (i, m) in stalled.iter_mut().enumerate() {
            // Drive only the announce (read + write), stall before the
            // combine phase.
            for _ in 0..2 {
                let p = m.enabled().unwrap();
                let r = mem.apply(ProcessId(i), p);
                m.feed(r);
            }
        }
        assert_eq!(mem.peek(c.root), 0, "nothing installed yet");
        run_solo(&mut mem, ProcessId(3), c.increment(ProcessId(3)));
        let (v, _) = run_solo(&mut mem, ProcessId(0), c.read(ProcessId(0)));
        assert_eq!(v, 4, "one combine must sweep the whole pending batch");
    }

    #[test]
    fn interleaved_combining_increments_all_count() {
        let mut mem = Memory::new();
        let n = 4;
        let c = SimCombiningCounter::new(&mut mem, n);
        let mut machines: Vec<Machine> = (0..n).map(|i| c.increment(ProcessId(i))).collect();
        loop {
            let mut progressed = false;
            for (i, m) in machines.iter_mut().enumerate() {
                if let Some(p) = m.enabled() {
                    let r = mem.apply(ProcessId(i), p);
                    m.feed(r);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        let (v, _) = run_solo(&mut mem, ProcessId(0), c.read(ProcessId(0)));
        assert_eq!(v, n as Word);
    }

    #[test]
    fn sharded_increment_is_constant_and_read_is_linear() {
        let n = 8;
        let mut mem = Memory::new();
        let c = SimShardedCounter::new(&mut mem, n);
        for i in 0..n {
            let (_, steps) = run_solo(&mut mem, ProcessId(i), c.increment(ProcessId(i)));
            assert_eq!(steps, 2, "stripe bump is read + write");
        }
        let (v, steps) = run_solo(&mut mem, ProcessId(0), c.read(ProcessId(0)));
        assert_eq!(v, n as Word);
        assert_eq!(steps, n, "read is a single collect");
    }

    #[test]
    fn sharded_counts_sequential_increments() {
        let mut mem = Memory::new();
        let c = SimShardedCounter::new(&mut mem, 3);
        for i in 0..9usize {
            run_solo(&mut mem, ProcessId(i % 3), c.increment(ProcessId(i % 3)));
            let (v, _) = run_solo(&mut mem, ProcessId(1), c.read(ProcessId(1)));
            assert_eq!(v, i as Word + 1);
        }
    }

    #[test]
    fn cas_loop_counter_counts() {
        let mut mem = Memory::new();
        let c = SimCasLoopCounter::new(&mut mem, 2);
        run_solo(&mut mem, ProcessId(0), c.increment(ProcessId(0)));
        run_solo(&mut mem, ProcessId(1), c.increment(ProcessId(1)));
        let (v, steps) = run_solo(&mut mem, ProcessId(0), c.read(ProcessId(0)));
        assert_eq!(v, 2);
        assert_eq!(steps, 1);
    }

    #[test]
    fn single_process_counters_degenerate_gracefully() {
        let mut mem = Memory::new();
        let f = SimFArrayCounter::new(&mut mem, 1);
        run_solo(&mut mem, ProcessId(0), f.increment(ProcessId(0)));
        let (v, _) = run_solo(&mut mem, ProcessId(0), f.read(ProcessId(0)));
        assert_eq!(v, 1);

        let a = SimAacCounter::new(&mut mem, 1, 4);
        run_solo(&mut mem, ProcessId(0), a.increment(ProcessId(0)));
        let (v, _) = run_solo(&mut mem, ProcessId(0), a.read(ProcessId(0)));
        assert_eq!(v, 1);
    }

    #[test]
    fn interleaved_farray_increments_all_count() {
        let mut mem = Memory::new();
        let n = 4;
        let c = SimFArrayCounter::new(&mut mem, n);
        let mut machines: Vec<Machine> = (0..n).map(|i| c.increment(ProcessId(i))).collect();
        loop {
            let mut progressed = false;
            for (i, m) in machines.iter_mut().enumerate() {
                if let Some(p) = m.enabled() {
                    let r = mem.apply(ProcessId(i), p);
                    m.feed(r);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        let (v, _) = run_solo(&mut mem, ProcessId(0), c.read(ProcessId(0)));
        assert_eq!(v, n as Word);
    }
}
