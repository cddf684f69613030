//! Operations as step machines.
//!
//! Algorithms in the simulator are written in continuation-passing style:
//! each of [`read`], [`write`] and [`cas`] names the next shared-memory
//! event and a closure that receives its response and produces the rest
//! of the operation; [`done`] terminates with a result. This keeps
//! algorithm code close to the paper's pseudo-code while exposing exactly
//! one enabled event at a time — which is what the model requires ("if a
//! process has not completed its operation, it has exactly one enabled
//! event").
//!
//! Continuations are shared (`Arc`) and re-callable (`Fn`), so a
//! [`Step`] — and with it a [`Machine`] — is a cheap, cloneable value:
//! the explorer keeps the machine it stepped and puts it back on
//! backtrack. This makes one demand on algorithm code: **a continuation
//! must be pure.** Called twice with the same response it must return
//! the same next step, and it must not change state outside the machine
//! (a closure that captures an `Arc` clones it before nesting it in the
//! next closure rather than moving it out).
//!
//! ```
//! use ruo_sim::{read, cas, done, Machine, Memory, ProcessId, Step, ObjId, Word};
//!
//! /// `fetch_max(o, v)`: a CAS-loop that raises `o` to at least `v`.
//! fn fetch_max(o: ObjId, v: Word) -> Step {
//!     read(o, move |cur| {
//!         if cur >= v {
//!             done(cur)
//!         } else {
//!             cas(o, cur, v, move |ok| if ok == 1 { done(v) } else { fetch_max(o, v) })
//!         }
//!     })
//! }
//!
//! let mut mem = Memory::new();
//! let o = mem.alloc(0);
//! let mut m = Machine::new(fetch_max(o, 7));
//! while let Some(prim) = m.enabled() {
//!     let resp = mem.apply(ProcessId(0), prim);
//!     m.feed(resp);
//! }
//! assert_eq!(mem.peek(o), 7);
//! ```

use std::fmt;
use std::sync::Arc;

use crate::{ObjId, Prim, Word};

/// The continuation of an operation after one event's response: shared
/// and re-callable, so cloning a [`Step`] is one reference-count bump.
pub type BoxedStep = Arc<dyn Fn(Word) -> Step + Send + Sync>;

/// The state of an in-progress operation: either one enabled event plus a
/// continuation, or a completed operation with its result.
#[derive(Clone)]
pub enum Step {
    /// The operation's next (unique) enabled event, and what to do with
    /// its response.
    Pending {
        /// The enabled primitive.
        prim: Prim,
        /// Continuation receiving the primitive's response.
        k: BoxedStep,
    },
    /// The operation has completed with this result.
    Done(Word),
}

impl fmt::Debug for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Step::Pending { prim, .. } => f.debug_struct("Pending").field("prim", prim).finish(),
            Step::Done(v) => f.debug_tuple("Done").field(v).finish(),
        }
    }
}

/// A pending `read` event; `k` receives the value read.
pub fn read(obj: ObjId, k: impl Fn(Word) -> Step + Send + Sync + 'static) -> Step {
    Step::Pending {
        prim: Prim::Read(obj),
        k: Arc::new(k),
    }
}

/// A pending `write` event; `k` runs after the write is applied.
pub fn write(obj: ObjId, value: Word, k: impl Fn() -> Step + Send + Sync + 'static) -> Step {
    Step::Pending {
        prim: Prim::Write(obj, value),
        k: Arc::new(move |_| k()),
    }
}

/// A pending `CAS` event; `k` receives `1` if the swap succeeded, `0`
/// otherwise.
pub fn cas(
    obj: ObjId,
    expected: Word,
    new: Word,
    k: impl Fn(Word) -> Step + Send + Sync + 'static,
) -> Step {
    Step::Pending {
        prim: Prim::Cas { obj, expected, new },
        k: Arc::new(k),
    }
}

/// Completes the operation with `result`.
pub fn done(result: Word) -> Step {
    Step::Done(result)
}

/// Drives a [`Step`] chain event by event.
///
/// A `Machine` is one operation instance (e.g. one `WriteMax(v)` by one
/// process). The scheduler asks for the [`enabled`](Machine::enabled)
/// event, applies it to memory, and [`feed`](Machine::feed)s the response
/// back. The number of `feed` calls is the operation's step count.
///
/// Cloning a machine copies its state, not its history: the clone and the
/// original then advance independently, and feeding both the same
/// responses drives both through the same steps (continuations are pure;
/// see the module docs).
#[derive(Clone, Debug)]
pub struct Machine {
    state: Step,
    steps: usize,
}

impl Machine {
    /// Wraps an operation's initial step.
    pub fn new(initial: Step) -> Self {
        Machine {
            state: initial,
            steps: 0,
        }
    }

    /// A machine that is already done (for zero-step operations).
    pub fn completed(result: Word) -> Self {
        Machine::new(Step::Done(result))
    }

    /// The operation's unique enabled event, or `None` if it has
    /// completed.
    pub fn enabled(&self) -> Option<Prim> {
        match &self.state {
            Step::Pending { prim, .. } => Some(*prim),
            Step::Done(_) => None,
        }
    }

    /// Whether the operation has completed.
    pub fn is_done(&self) -> bool {
        matches!(self.state, Step::Done(_))
    }

    /// The operation's result, if completed.
    pub fn result(&self) -> Option<Word> {
        match self.state {
            Step::Done(v) => Some(v),
            Step::Pending { .. } => None,
        }
    }

    /// Number of shared-memory events this operation has issued.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Delivers the response of the enabled event, advancing the machine.
    ///
    /// Returns `true` if the operation completed as a result.
    ///
    /// # Panics
    ///
    /// Panics if the operation has already completed.
    pub fn feed(&mut self, resp: Word) -> bool {
        let Step::Pending { k, .. } = &self.state else {
            panic!("feed called on a completed operation");
        };
        self.state = k(resp);
        self.steps += 1;
        self.is_done()
    }
}

/// Drives a step machine to completion with no interference, returning
/// `(result, steps)` — the *solo step complexity* of the operation,
/// which is the measure used in all step-count tables.
///
/// This is the single shared driver for every sequential-sanity test and
/// solo-complexity measurement in the workspace; it lives here (rather
/// than in the bench crate) so that every crate can reach it without a
/// bench dependency.
pub fn run_solo(
    mem: &mut crate::Memory,
    pid: crate::ProcessId,
    mut machine: Machine,
) -> (Word, usize) {
    while let Some(prim) = machine.enabled() {
        let resp = mem.apply(pid, prim);
        machine.feed(resp);
    }
    (
        machine.result().expect("machine completed"),
        machine.steps(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Memory, ProcessId};

    #[test]
    fn straight_line_machine_counts_steps() {
        let mut mem = Memory::new();
        let a = mem.alloc(10);
        let b = mem.alloc(0);
        // read a; write a+1 to b; done(a)
        let m = Machine::new(read(a, move |v| write(b, v + 1, move || done(v))));
        let (result, steps) = run_solo(&mut mem, ProcessId(0), m);
        assert_eq!(result, 10);
        assert_eq!(steps, 2);
        assert_eq!(mem.peek(b), 11);
    }

    #[test]
    fn cas_loop_terminates_solo() {
        fn incr(o: ObjId) -> Step {
            read(o, move |v| {
                cas(
                    o,
                    v,
                    v + 1,
                    move |ok| if ok == 1 { done(v + 1) } else { incr(o) },
                )
            })
        }
        let mut mem = Memory::new();
        let o = mem.alloc(0);
        let (result, steps) = run_solo(&mut mem, ProcessId(0), Machine::new(incr(o)));
        assert_eq!(result, 1);
        assert_eq!(steps, 2);
    }

    #[test]
    fn completed_machine_has_no_enabled_event() {
        let m = Machine::completed(42);
        assert!(m.is_done());
        assert_eq!(m.enabled(), None);
        assert_eq!(m.result(), Some(42));
        assert_eq!(m.steps(), 0);
    }

    #[test]
    #[should_panic(expected = "completed operation")]
    fn feeding_a_done_machine_panics() {
        let mut m = Machine::completed(0);
        m.feed(0);
    }

    #[test]
    fn failed_cas_takes_the_retry_branch() {
        let mut mem = Memory::new();
        let o = mem.alloc(5);
        // CAS expecting 3 fails; fall back to reading the value.
        let m = Machine::new(cas(o, 3, 9, move |ok| {
            assert_eq!(ok, 0);
            read(o, done)
        }));
        let (result, steps) = run_solo(&mut mem, ProcessId(0), m);
        assert_eq!(result, 5);
        assert_eq!(steps, 2);
    }
}
