//! Simulator step machines for the generic f-array.
//!
//! Mirrors [`crate::farray`] against [`ruo_sim`] base objects: the
//! aggregate read is exactly one step, a slot update is the leaf write
//! plus double-CAS propagation — so the substrate's step claims can be
//! measured (and adversarially scheduled) just like the paper's objects.

use std::marker::PhantomData;
use std::sync::Arc;

use ruo_sim::{cas, done, read, write, Machine, Memory, ObjId, ProcessId, Step, Word};

use crate::farray::Aggregation;
use crate::shape::TreeShape;

/// One propagation level for the generic aggregation.
#[derive(Clone, Copy, Debug)]
struct AggLevel {
    node: ObjId,
    left: Option<ObjId>,
    right: Option<ObjId>,
}

/// The generic f-array as simulator step machines.
#[derive(Debug)]
pub struct SimFArray<A: Aggregation> {
    shape: Arc<TreeShape>,
    root: usize,
    leaves: Vec<usize>,
    cells: Arc<Vec<ObjId>>,
    _agg: PhantomData<A>,
}

fn read_opt<A: Aggregation>(
    obj: Option<ObjId>,
    k: impl Fn(Word) -> Step + Send + Sync + 'static,
) -> Step {
    match obj {
        Some(o) => read(o, k),
        None => k(A::identity()),
    }
}

fn propagate_agg<A: Aggregation>(levels: Arc<Vec<AggLevel>>, i: usize, attempt: u8) -> Step {
    if i == levels.len() {
        return done(0);
    }
    let lv = levels[i];
    read(lv.node, move |old| {
        let levels = Arc::clone(&levels);
        read_opt::<A>(lv.left, move |l| {
            let levels = Arc::clone(&levels);
            read_opt::<A>(lv.right, move |r| {
                let levels = Arc::clone(&levels);
                cas(lv.node, old, A::combine(l, r), move |_| {
                    if attempt == 0 {
                        propagate_agg::<A>(Arc::clone(&levels), i, 1)
                    } else {
                        propagate_agg::<A>(Arc::clone(&levels), i + 1, 0)
                    }
                })
            })
        })
    })
}

impl<A: Aggregation> SimFArray<A> {
    /// Allocates the tree's cells (all at the identity) in `mem` for `n`
    /// slots.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(mem: &mut Memory, n: usize) -> Self {
        assert!(n >= 1, "at least one slot required");
        let mut shape = TreeShape::new();
        let (root, leaves) = shape.build_complete(n);
        shape.fix_depths(root);
        let cells = mem.alloc_n(shape.len(), A::identity());
        SimFArray {
            shape: Arc::new(shape),
            root,
            leaves,
            cells: Arc::new(cells),
            _agg: PhantomData,
        }
    }

    /// Number of slots.
    pub fn n(&self) -> usize {
        self.leaves.len()
    }

    /// A one-step read of the aggregate.
    pub fn read(&self) -> Machine {
        let root = self.cells[self.root];
        Machine::new(read(root, done))
    }

    /// The root cell, for wrappers that post-process the raw aggregate
    /// word (e.g. decoding `-∞` sentinels).
    pub fn root_cell(&self) -> ObjId {
        self.cells[self.root]
    }

    /// A monotone read-modify-write: reads `pid`'s slot, combines it
    /// with `value`, and — only if the slot actually changes —
    /// writes and propagates. A dominated merge costs exactly 1 step
    /// (the slot read); an effective one costs `O(log N)`.
    ///
    /// For `Max` this is a max-register `WriteMax`; for `Sum` it adds
    /// `value` to the slot; for `Min` it lowers the slot.
    pub fn merge(&self, pid: ProcessId, value: Word) -> Machine {
        let leaf = self.leaves[pid.index()];
        let leaf_cell = self.cells[leaf];
        let levels = self.levels_from(leaf);
        Machine::new(read(leaf_cell, move |old| {
            let new = A::combine(old, value);
            if new == old {
                done(0)
            } else {
                let levels = Arc::clone(&levels);
                write(leaf_cell, new, move || {
                    propagate_agg::<A>(Arc::clone(&levels), 0, 0)
                })
            }
        }))
    }

    fn levels_from(&self, leaf: usize) -> Arc<Vec<AggLevel>> {
        Arc::new(
            self.shape
                .ancestors(leaf)
                .into_iter()
                .map(|a| {
                    let info = self.shape.node(a);
                    AggLevel {
                        node: self.cells[a],
                        left: info.left.map(|i| self.cells[i]),
                        right: info.right.map(|i| self.cells[i]),
                    }
                })
                .collect(),
        )
    }

    /// An `O(log N)`-step update of `pid`'s slot to `value`.
    ///
    /// The machine asserts monotonicity against the slot's value at the
    /// moment of its leaf read (the same contract as the real
    /// implementation).
    ///
    /// # Panics
    ///
    /// The machine panics mid-run on a non-monotone update.
    pub fn update(&self, pid: ProcessId, value: Word) -> Machine {
        let leaf = self.leaves[pid.index()];
        let leaf_cell = self.cells[leaf];
        let levels = self.levels_from(leaf);
        Machine::new(read(leaf_cell, move |old| {
            assert!(
                A::advances(old, value),
                "non-monotone slot update {old} -> {value}"
            );
            let levels = Arc::clone(&levels);
            write(leaf_cell, value, move || {
                propagate_agg::<A>(Arc::clone(&levels), 0, 0)
            })
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::farray::{Max, Min, Sum};
    use ruo_sim::run_solo;

    #[test]
    fn read_is_one_step_for_every_aggregation() {
        let mut mem = Memory::new();
        let sum = SimFArray::<Sum>::new(&mut mem, 8);
        let max = SimFArray::<Max>::new(&mut mem, 8);
        let min = SimFArray::<Min>::new(&mut mem, 8);
        for m in [sum.read(), max.read(), min.read()] {
            let (_, steps) = run_solo(&mut mem, ProcessId(0), m);
            assert_eq!(steps, 1);
        }
    }

    #[test]
    fn sum_aggregates_updates() {
        let mut mem = Memory::new();
        let fa = SimFArray::<Sum>::new(&mut mem, 4);
        run_solo(&mut mem, ProcessId(0), fa.update(ProcessId(0), 3));
        run_solo(&mut mem, ProcessId(2), fa.update(ProcessId(2), 5));
        let (v, _) = run_solo(&mut mem, ProcessId(1), fa.read());
        assert_eq!(v, 8);
    }

    #[test]
    fn max_and_min_aggregate_correctly() {
        let mut mem = Memory::new();
        let max = SimFArray::<Max>::new(&mut mem, 3);
        run_solo(&mut mem, ProcessId(0), max.update(ProcessId(0), 7));
        run_solo(&mut mem, ProcessId(1), max.update(ProcessId(1), 4));
        let (v, _) = run_solo(&mut mem, ProcessId(2), max.read());
        assert_eq!(v, 7);

        let min = SimFArray::<Min>::new(&mut mem, 3);
        run_solo(&mut mem, ProcessId(0), min.update(ProcessId(0), 7));
        run_solo(&mut mem, ProcessId(1), min.update(ProcessId(1), 4));
        let (v, _) = run_solo(&mut mem, ProcessId(2), min.read());
        assert_eq!(v, 4);
    }

    #[test]
    fn update_cost_is_logarithmic() {
        for n in [2usize, 16, 128] {
            let mut mem = Memory::new();
            let fa = SimFArray::<Sum>::new(&mut mem, n);
            let (_, steps) = run_solo(&mut mem, ProcessId(0), fa.update(ProcessId(0), 1));
            let depth = (n as f64).log2().ceil() as usize;
            assert!(steps <= 2 + 8 * depth, "n={n}: {steps} steps");
        }
    }

    #[test]
    fn interleaved_updates_converge() {
        let mut mem = Memory::new();
        let n = 4;
        let fa = SimFArray::<Sum>::new(&mut mem, n);
        let mut machines: Vec<(ProcessId, Machine)> = (0..n)
            .map(|i| (ProcessId(i), fa.update(ProcessId(i), i as Word + 1)))
            .collect();
        // Lock-step interleaving.
        loop {
            let mut progressed = false;
            for (pid, m) in machines.iter_mut() {
                if let Some(prim) = m.enabled() {
                    let resp = mem.apply(*pid, prim);
                    m.feed(resp);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        let (v, _) = run_solo(&mut mem, ProcessId(0), fa.read());
        assert_eq!(v, (1..=n as Word).sum::<Word>());
    }

    #[test]
    fn non_monotone_update_panics_mid_run() {
        let mut mem = Memory::new();
        let fa = SimFArray::<Sum>::new(&mut mem, 2);
        run_solo(&mut mem, ProcessId(0), fa.update(ProcessId(0), 5));
        let mut m = fa.update(ProcessId(0), 3);
        let prim = m.enabled().unwrap();
        let resp = mem.apply(ProcessId(0), prim);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.feed(resp)));
        assert!(result.is_err());
    }
}
