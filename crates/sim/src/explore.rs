//! Exhaustive small-scope schedule exploration.
//!
//! For a workload of one operation per process, [`explore`] walks every
//! interleaving of the operations' shared-memory events (up to a
//! schedule budget) and hands each complete execution's [`History`] to a
//! checker. This is bounded model checking for linearizability: if an
//! algorithm has a bad schedule within the scope, enumeration *will*
//! find it — no luck required, unlike random schedules.
//!
//! Two things keep the search scalable:
//!
//! * **Incremental execution.** The DFS never replays a prefix. Taking a
//!   step applies one primitive; backtracking undoes it with
//!   [`Memory::undo_last`] (`O(1)` — each [`Event`](crate::Event) logs
//!   the overwritten value) and rebuilds only the stepped machine by
//!   re-feeding its recorded responses into a fresh machine from a pool
//!   (continuations are `FnOnce`, so a consumed machine cannot be
//!   rewound directly). The pool is refilled by calling `setup` again
//!   and keeps at most a few spare machines per operation, so its size
//!   does not grow with the search. Legacy full-prefix replay cost
//!   `O(tree-size × depth)` memory events; the incremental scheme costs
//!   `O(tree-size)` plus the (per-process, usually much shorter) machine
//!   re-feeds.
//!
//! * **Independence-based pruning** (sleep sets, Godefroid-style),
//!   enabled via [`ExploreConfig::prune`]. Two steps by different
//!   processes are *independent* when they commute as memory actions
//!   (different cells, or both reads) **and** neither is an operation
//!   boundary adjacent to the other's boundary (see below). Schedules
//!   that differ only by swapping adjacent independent steps produce
//!   identical histories, so only one representative per equivalence
//!   class is explored. The opt-out (`prune: false`, the [`enumerate`]
//!   default) enumerates every interleaving — tests use it to prove the
//!   pruned search reaches the same verdicts and histories.
//!
//! # Why pruning is sound here
//!
//! A checker's verdict depends only on (a) each operation's output and
//! (b) the precedence relation `a.response <= b.invoke` between
//! operations (every built-in checker condition is expressible in those
//! terms). Swapping two adjacent steps that commute as memory actions
//! leaves every response — and hence every output and every machine's
//! subsequent behavior — unchanged. It can shift `invoke`/`response`
//! *ticks* by one, which changes the precedence relation only when the
//! earlier step is the **last** step of its operation and the later step
//! is the **first** step of its operation (completion-before-invocation
//! is exactly what `precedes` observes). The dependence relation
//! therefore additionally marks such boundary pairs dependent, which
//! restores history equality for all remaining swaps. Consequence: with
//! pruning enabled the checker must not distinguish histories beyond
//! outputs + precedence (raw-tick inspection may differ between
//! representatives); all checkers in [`crate::lin`] qualify.
//!
//! The number of interleavings is exponential (for two operations of
//! `a` and `b` steps it is `C(a+b, a)`); pruning typically removes the
//! commuting bulk, extending exhaustive scopes to 3–4 processes with
//! realistic operations (see `tests/exhaustive.rs` and EXPERIMENTS.md
//! § W5). The test suite uses this to verify Algorithm A exhaustively at
//! small sizes and to *rediscover* the counterexample schedule against
//! the single-CAS variant automatically — with pruning on and off.
//!
//! # Crash exploration
//!
//! [`ExploreConfig::max_crashes`] additionally enumerates schedules in
//! which up to `k` operations crash — halt permanently right after one
//! of their own events, leaving a *pending* operation (no response, no
//! output) in the history. Because a crash's only observable effect is
//! which of the process's events happened, crashing immediately after
//! each event is a canonical form covering every placement of the crash
//! in the global schedule. This turns the hand-crafted failure-injection
//! schedules of `tests/failure_injection.rs` into exhaustive
//! crash-tolerance proofs within the scope: every 1-crash schedule of
//! Algorithm A at N=4 is checked, and the single-CAS variant's
//! lost-write bug is found automatically (see
//! `tests/crash_exploration.rs` and EXPERIMENTS.md § W6).
//!
//! # Parallel search
//!
//! [`explore_parallel`] runs the same DFS on several workers that share a
//! queue of subtrees, each recorded as its prefix, sleep set and crash
//! state. The queue starts with the root. A worker that finds it empty
//! raises a flag; the first busy worker to see the flag hands every node
//! it has not yet entered below its own subtree's root to the queue.
//! A worker starts a subtree by replaying its prefix uncounted, so every
//! node is counted by exactly one worker and the merged counters equal
//! a sequential run's.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use crate::history::{History, OpOutput, OpRecord};
use crate::{Machine, Memory, ObjId, OpDesc, ProcessId, Word};

/// Hard per-operation step cap: a machine exceeding this many steps in
/// one schedule would make enumeration meaningless.
const STEP_CAP: usize = 10_000;

/// Most never-stepped machines the pool keeps per operation. A `setup`
/// call yields one machine for every operation while a rebuild consumes
/// one, so without a cap the surplus of rarely rebuilt operations would
/// grow with the search.
const SPARE_CAP: usize = 4;

/// One process's single operation for exploration: a description plus a
/// machine factory (invoked afresh for every schedule).
#[derive(Clone, Debug)]
pub struct ExploreOp {
    /// The process performing the operation.
    pub pid: ProcessId,
    /// What the operation is (recorded in histories).
    pub desc: OpDesc,
    /// Whether the machine's result is the operation's output value
    /// (reads) or meaningless (updates).
    pub returns_value: bool,
}

/// Search configuration for [`explore`].
#[derive(Clone, Copy, Debug)]
pub struct ExploreConfig {
    /// Schedule budget: the search stops (and reports
    /// [`ExploreSummary::truncated`]) once this many complete schedules
    /// have been checked and more remain.
    pub max_schedules: usize,
    /// Whether to prune trace-equivalent interleavings via sleep sets.
    /// Sound for checkers that depend only on operation outputs and the
    /// precedence relation (all of [`crate::lin`]); disable to enumerate
    /// every interleaving.
    pub prune: bool,
    /// Crash budget: in addition to plain interleavings, explore every
    /// schedule in which up to this many operations *crash* — halt
    /// permanently — right after one of their own events, leaving the
    /// operation pending in the history (no response, no output). `0`
    /// (the default) explores crash-free schedules only.
    ///
    /// Crash points are canonical: a process's crash is observable only
    /// through which of its own events happened, so crashing it
    /// immediately after its k-th event (for every `k ≥ 1`) covers every
    /// placement of the crash in the global schedule. Crashing *before*
    /// the first event is the same as exploring the scope without that
    /// operation, so it is not enumerated — cover it with a smaller
    /// scope if needed.
    ///
    /// Checkers must handle pending operations per the completion rule
    /// (all of [`crate::lin`] do).
    pub max_crashes: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_schedules: 1_000_000,
            prune: true,
            max_crashes: 0,
        }
    }
}

/// Counters describing how much work an exploration did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Complete schedules checked (same as [`ExploreSummary::schedules`]).
    pub schedules: usize,
    /// Branches skipped because the process was in the sleep set (each
    /// skip removes an entire subtree of interleavings).
    pub pruned_branches: usize,
    /// Shared-memory events actually executed during the search.
    pub executed_steps: u64,
    /// Memory events a full-prefix-replay explorer would have executed,
    /// minus this search's actual cost (forward steps are counted by
    /// `executed_steps`; machine re-feeds on backtrack are subtracted
    /// here). A direct measure of what snapshot/restore saves.
    pub replay_steps_saved: u64,
    /// Deepest DFS prefix reached (= longest schedule length).
    pub peak_depth: usize,
    /// Crash branches taken: DFS nodes where an operation was crashed
    /// right after one of its events ([`ExploreConfig::max_crashes`]).
    pub crash_branches: usize,
    /// `read` primitives among [`executed_steps`](ExploreStats::executed_steps).
    ///
    /// Like `executed_steps`, the primitive-kind tallies count forward
    /// executions only and never decrement on backtrack, so
    /// `reads + writes + cas_ok + cas_fail == executed_steps`.
    pub reads: u64,
    /// `write` primitives among executed steps.
    pub writes: u64,
    /// Successful CAS primitives among executed steps.
    pub cas_ok: u64,
    /// Failed CAS primitives among executed steps.
    pub cas_fail: u64,
}

/// Summary of an exploration run.
#[derive(Clone, Debug)]
pub struct ExploreSummary {
    /// Number of complete schedules enumerated.
    pub schedules: usize,
    /// Whether the schedule budget truncated the search (if `true`, the
    /// absence of violations is not exhaustive).
    pub truncated: bool,
    /// The first violating schedule found, if any: the order in which
    /// processes took steps.
    pub violation: Option<Vec<ProcessId>>,
    /// Processes that were crashed in the violating schedule (each after
    /// its last step in [`ExploreSummary::violation`]). Empty when the
    /// violation needed no crash, or when there is no violation.
    pub violation_crashed: Vec<ProcessId>,
    /// Work counters for the run.
    pub stats: ExploreStats,
    /// Schedules each worker checked, in worker order: one entry for
    /// [`explore`], `workers` entries (summing to
    /// [`schedules`](ExploreSummary::schedules)) for [`explore_parallel`].
    pub worker_schedules: Vec<usize>,
}

/// What the explorer remembers about one executed step, for undo and for
/// the independence relation.
#[derive(Clone, Copy, Debug)]
struct StepInfo {
    /// Index (into `ops`) of the process that stepped.
    idx: usize,
    /// The cell the primitive accessed.
    obj: ObjId,
    /// Whether the primitive was a read.
    is_read: bool,
    /// Whether this was the operation's first step.
    was_first: bool,
    /// Whether this step completed the operation.
    was_last: bool,
}

/// Memory-level commutativity: steps on different cells always commute;
/// steps on the same cell commute only if both are reads.
fn commutes(a_obj: ObjId, a_is_read: bool, b: &StepInfo) -> bool {
    a_obj != b.obj || (a_is_read && b.is_read)
}

/// Full independence between two *executed* steps (both boundary flags
/// known): they commute as memory actions and neither's last step
/// immediately precedes the other's first (which is the one swap that
/// can change the precedence relation — see the module docs).
fn independent(a: &StepInfo, b: &StepInfo) -> bool {
    commutes(a.obj, a.is_read, b) && !(a.was_last && b.was_first) && !(b.was_last && a.was_first)
}

/// Cross-worker coordination for [`explore_parallel`]: the global
/// schedule count (shared budget), a stop flag raised on the first
/// violation or on budget truncation, and the subtree queue. The
/// atomics are `Relaxed` — they gate *work*, never memory visibility
/// (each worker owns its memory and machines outright; subtrees pass
/// through the mutex).
#[derive(Default)]
struct SharedSearch {
    schedules: AtomicUsize,
    stop: AtomicBool,
    truncated: AtomicBool,
    /// Raised by a worker waiting on an empty queue; the first busy
    /// worker to see it lowers it and hands over its unexplored nodes.
    hungry: AtomicBool,
    queue: Mutex<Queue>,
    /// Signalled when subtrees arrive or the search ends.
    wake: Condvar,
}

/// The subtrees waiting for a worker.
#[derive(Default)]
struct Queue {
    subtrees: Vec<Subtree>,
    /// Workers waiting for a subtree.
    idle: usize,
    /// Set once no worker can produce more subtrees.
    done: bool,
}

impl SharedSearch {
    /// The next subtree to search, waiting while any of the other
    /// `workers - 1` workers is busy and may still hand some over.
    /// `None` once the search is over or stopped.
    fn next_subtree(&self, workers: usize) -> Option<Subtree> {
        let mut q = self.queue.lock().expect("explore queue poisoned");
        loop {
            if q.done || self.stop.load(Ordering::Relaxed) {
                q.done = true;
                self.wake.notify_all();
                return None;
            }
            if let Some(node) = q.subtrees.pop() {
                return Some(node);
            }
            if q.idle + 1 == workers {
                // Everyone else is waiting too: nothing is left.
                q.done = true;
                self.wake.notify_all();
                return None;
            }
            q.idle += 1;
            self.hungry.store(true, Ordering::Relaxed);
            q = self.wake.wait(q).expect("explore queue poisoned");
            q.idle -= 1;
        }
    }

    /// Queues subtrees a busy worker handed over.
    fn give(&self, nodes: Vec<Subtree>) {
        let mut q = self.queue.lock().expect("explore queue poisoned");
        q.subtrees.extend(nodes);
        self.wake.notify_all();
    }
}

/// A DFS node queued for [`explore_parallel`]'s workers: what `dfs`
/// needs to search the node's subtree exactly as the sequential search
/// does.
#[derive(Clone, Debug)]
struct Subtree {
    /// The schedule prefix leading to the node (operation indices).
    prefix: Vec<usize>,
    /// The node's sleep set.
    sleep: u64,
    /// Operations crashed on the path to the node.
    crashed: u64,
    /// Crash budget left at the node.
    crashes_left: usize,
}

/// Work counters as a search accumulates them. Replay savings are kept
/// as two plain sums — what full-prefix replay would have executed and
/// what machine re-feeds cost — and subtracted once in
/// [`Tally::finish`], so the workers of [`explore_parallel`] add up to
/// the sequential figure whatever order they searched in.
#[derive(Clone, Copy, Default)]
struct Tally {
    /// Every counter except `replay_steps_saved`.
    stats: ExploreStats,
    /// Memory events a full-prefix-replay explorer would have executed
    /// beyond the forward steps.
    full_replay: u64,
    /// Responses re-fed to rebuilt machines.
    refeeds: u64,
}

impl Tally {
    fn absorb(&mut self, other: &Tally) {
        let (s, o) = (&mut self.stats, &other.stats);
        s.schedules += o.schedules;
        s.pruned_branches += o.pruned_branches;
        s.executed_steps += o.executed_steps;
        s.peak_depth = s.peak_depth.max(o.peak_depth);
        s.crash_branches += o.crash_branches;
        s.reads += o.reads;
        s.writes += o.writes;
        s.cas_ok += o.cas_ok;
        s.cas_fail += o.cas_fail;
        self.full_replay += other.full_replay;
        self.refeeds += other.refeeds;
    }

    fn finish(self) -> ExploreStats {
        ExploreStats {
            replay_steps_saved: self.full_replay.saturating_sub(self.refeeds),
            ..self.stats
        }
    }
}

/// What one search (a sequential run or a parallel worker) found.
struct Outcome {
    tally: Tally,
    truncated: bool,
    violation: Option<Vec<ProcessId>>,
    violation_crashed: Vec<ProcessId>,
}

struct Explorer<'a> {
    setup: &'a dyn Fn() -> (Memory, Vec<Machine>),
    ops: &'a [ExploreOp],
    check: &'a mut dyn FnMut(&History) -> bool,
    cfg: ExploreConfig,
    /// Present only under [`explore_parallel`]: the shared budget and
    /// stop flag. `None` keeps the sequential search byte-identical.
    shared: Option<&'a SharedSearch>,
    /// The one memory being mutated and un-mutated in place.
    mem: Memory,
    /// Event-log length when exploration started (setups may pre-run
    /// seed operations; those events are never undone).
    base: usize,
    /// Current machine state per operation.
    machines: Vec<Machine>,
    /// Responses fed to each machine so far, for rebuild on backtrack.
    resp_log: Vec<Vec<Word>>,
    /// Pool of fresh (never-stepped) machines per operation, refilled by
    /// extra `setup` calls and capped at [`SPARE_CAP`] each.
    spare: Vec<Vec<Machine>>,
    /// Tick of each operation's first event, if it has stepped.
    first_step: Vec<Option<usize>>,
    /// Tick just after each operation's last event, if it completed by
    /// stepping (zero-step operations stay `None`).
    completed_at: Vec<Option<usize>>,
    /// The current schedule prefix (operation indices).
    prefix: Vec<usize>,
    /// Bitmask of operations crashed on the current DFS path.
    crashed: u64,
    /// Remaining crash budget on the current DFS path.
    crashes_left: usize,
    /// Depth of the root of the subtree being searched: nodes below it
    /// may be handed to idle workers.
    root_depth: usize,
    /// Whether `dfs` is recording every node it enters below
    /// `root_depth` in `handover` instead of searching it.
    handing_over: bool,
    /// Nodes recorded for other workers.
    handover: Vec<Subtree>,
    truncated: bool,
    violation: Option<Vec<ProcessId>>,
    violation_crashed: Vec<ProcessId>,
    tally: Tally,
}

impl<'a> Explorer<'a> {
    /// An explorer at the root of the scope `setup` builds.
    fn new(
        setup: &'a dyn Fn() -> (Memory, Vec<Machine>),
        ops: &'a [ExploreOp],
        check: &'a mut dyn FnMut(&History) -> bool,
        cfg: ExploreConfig,
        shared: Option<&'a SharedSearch>,
    ) -> Self {
        let (mem, machines) = setup();
        assert_eq!(machines.len(), ops.len(), "setup/ops arity mismatch");
        let n = machines.len();
        Explorer {
            setup,
            ops,
            check,
            cfg,
            shared,
            base: mem.steps(),
            mem,
            machines,
            resp_log: vec![Vec::new(); n],
            spare: (0..n).map(|_| Vec::new()).collect(),
            first_step: vec![None; n],
            completed_at: vec![None; n],
            prefix: Vec::new(),
            crashed: 0,
            crashes_left: cfg.max_crashes,
            root_depth: 0,
            handing_over: false,
            handover: Vec::new(),
            truncated: false,
            violation: None,
            violation_crashed: Vec::new(),
            tally: Tally::default(),
        }
    }

    fn into_outcome(self) -> Outcome {
        Outcome {
            tally: self.tally,
            truncated: self.truncated,
            violation: self.violation,
            violation_crashed: self.violation_crashed,
        }
    }

    /// Executes one step of operation `idx` against `mem`, recording
    /// everything needed to undo it.
    fn step_forward(&mut self, idx: usize) -> StepInfo {
        let prim = self.machines[idx].enabled().expect("runnable step exists");
        let was_first = self.first_step[idx].is_none();
        let t = self.mem.steps();
        let resp = self.mem.apply(self.ops[idx].pid, prim);
        let stats = &mut self.tally.stats;
        stats.executed_steps += 1;
        if prim.is_read() {
            stats.reads += 1;
        } else if prim.is_write() {
            stats.writes += 1;
        } else if resp == 1 {
            stats.cas_ok += 1;
        } else {
            stats.cas_fail += 1;
        }
        let finished = self.machines[idx].feed(resp);
        self.resp_log[idx].push(resp);
        if was_first {
            self.first_step[idx] = Some(t);
        }
        if finished {
            self.completed_at[idx] = Some(t + 1);
        }
        assert!(
            self.machines[idx].steps() <= STEP_CAP,
            "operation exceeded the exploration step cap"
        );
        self.prefix.push(idx);
        StepInfo {
            idx,
            obj: prim.obj(),
            is_read: prim.is_read(),
            was_first,
            was_last: finished,
        }
    }

    /// Undoes the step described by `info`: the memory event is reversed
    /// in `O(1)` and the stepped machine is rebuilt from a fresh machine
    /// by re-feeding its remaining recorded responses.
    fn step_back(&mut self, info: &StepInfo) {
        self.prefix.pop();
        let idx = info.idx;
        self.mem.undo_last();
        self.resp_log[idx].pop();
        if info.was_last {
            self.completed_at[idx] = None;
        }
        if info.was_first {
            self.first_step[idx] = None;
        }
        let mut m = self.fresh_machine(idx);
        for &resp in &self.resp_log[idx] {
            m.feed(resp);
        }
        self.tally.refeeds += self.resp_log[idx].len() as u64;
        self.machines[idx] = m;
    }

    /// A never-stepped machine for operation `idx`, from the pool —
    /// refilled by calling `setup` again (deterministic by contract; the
    /// memory it builds and any machine beyond [`SPARE_CAP`] per
    /// operation are dropped).
    fn fresh_machine(&mut self, idx: usize) -> Machine {
        if let Some(m) = self.spare[idx].pop() {
            return m;
        }
        let (_, machines) = (self.setup)();
        assert_eq!(machines.len(), self.ops.len(), "setup/ops arity mismatch");
        let mut fresh = None;
        for (j, m) in machines.into_iter().enumerate() {
            if j == idx {
                fresh = Some(m);
            } else if self.spare[j].len() < SPARE_CAP {
                self.spare[j].push(m);
            }
        }
        fresh.expect("setup provides one machine per op")
    }

    /// The child's sleep set after executing `info`: every process asleep
    /// at this node (inherited or an already-explored sibling) stays
    /// asleep iff its deferred step is independent of `info`.
    fn child_sleep(&self, asleep: u64, explored: &[StepInfo], info: &StepInfo) -> u64 {
        let mut out = 0u64;
        let mut explored_mask = 0u64;
        for s in explored {
            explored_mask |= 1 << s.idx;
            if independent(s, info) {
                out |= 1 << s.idx;
            }
        }
        let mut inherited = asleep & !explored_mask;
        while inherited != 0 {
            let q = inherited.trailing_zeros() as usize;
            inherited &= inherited - 1;
            let prim = self.machines[q].enabled().expect("sleeping op is enabled");
            // Whether q's deferred step would be its operation's *last*
            // is unknown without executing it — assume it could be
            // (conservative: waking a process early never loses a trace
            // class, it only explores more).
            let q_first = self.first_step[q].is_none();
            if commutes(prim.obj(), prim.is_read(), info)
                && !info.was_first
                && !(info.was_last && q_first)
            {
                out |= 1 << q;
            }
        }
        out
    }

    /// Builds the history of the (complete) current schedule. Crashed
    /// operations become *pending* records: invoked at their first
    /// event's tick, no response, no output (crash branches only fire
    /// after an operation's own event, so a crashed operation was always
    /// invoked).
    fn build_history(&self) -> History {
        let mut recs: Vec<OpRecord> = self
            .ops
            .iter()
            .enumerate()
            .map(|(i, op)| {
                let machine = &self.machines[i];
                if self.crashed & (1 << i) != 0 {
                    let invoke = self.first_step[i].expect("crashed op took an event");
                    debug_assert!(self.completed_at[i].is_none());
                    return OpRecord {
                        pid: op.pid,
                        desc: op.desc.clone(),
                        invoke,
                        response: None,
                        output: None,
                        steps: machine.steps(),
                    };
                }
                let output = if op.returns_value {
                    OpOutput::Value(machine.result().expect("complete schedule has results"))
                } else {
                    OpOutput::Unit
                };
                let invoke = self.first_step[i].unwrap_or(self.base);
                // Completion consumes a tick: a zero-step operation
                // occupies the virtual interval [invoke, invoke + 1], so
                // `response > invoke` holds for every record (see the
                // invariant on `OpRecord::invoke`).
                let response = self.completed_at[i].unwrap_or(invoke + 1);
                debug_assert!(response > invoke);
                OpRecord {
                    pid: op.pid,
                    desc: op.desc.clone(),
                    invoke,
                    response: Some(response),
                    output: Some(output),
                    steps: machine.steps(),
                }
            })
            .collect();
        recs.sort_by_key(|r| r.invoke);
        recs.into_iter().collect()
    }

    /// Whether another worker already stopped the search (violation or
    /// truncation elsewhere). Always `false` for sequential runs.
    fn stopped(&self) -> bool {
        self.shared.is_some_and(|s| s.stop.load(Ordering::Relaxed))
    }

    /// Whether the schedule budget is spent — against the shared global
    /// count under [`explore_parallel`], the local count otherwise.
    fn budget_exhausted(&self) -> bool {
        let done = match self.shared {
            Some(s) => s.schedules.load(Ordering::Relaxed),
            None => self.tally.stats.schedules,
        };
        done >= self.cfg.max_schedules
    }

    fn mark_truncated(&mut self) {
        self.truncated = true;
        if let Some(s) = self.shared {
            s.truncated.store(true, Ordering::Relaxed);
            s.stop.store(true, Ordering::Relaxed);
        }
    }

    /// Whether this search should stop: a violation or truncation here,
    /// or (under [`explore_parallel`]) in another worker.
    fn halted(&self) -> bool {
        self.violation.is_some() || self.truncated || self.stopped()
    }

    fn dfs(&mut self, sleep: u64) {
        if self.halted() {
            return;
        }
        if self.budget_exhausted() {
            self.mark_truncated();
            return;
        }
        let depth = self.prefix.len();
        if depth > self.root_depth && (self.handing_over || self.asked_to_hand_over()) {
            // Left for another worker, which counts the node when it
            // searches the subtree. Once handing over, every node this
            // search has not entered yet goes the same way.
            self.handing_over = true;
            self.handover.push(Subtree {
                prefix: self.prefix.clone(),
                sleep,
                crashed: self.crashed,
                crashes_left: self.crashes_left,
            });
            return;
        }
        self.tally.stats.peak_depth = self.tally.stats.peak_depth.max(depth);
        if depth > 0 {
            // A full-prefix-replay explorer re-executes the whole prefix
            // to reach this node; the incremental scheme paid one step.
            self.tally.full_replay += (depth - 1) as u64;
        }
        let runnable: Vec<usize> = (0..self.machines.len())
            .filter(|&i| !self.machines[i].is_done() && self.crashed & (1 << i) == 0)
            .collect();
        if runnable.is_empty() {
            // Complete schedule (every op done or crashed): build the
            // history and check it.
            self.tally.stats.schedules += 1;
            if let Some(s) = self.shared {
                s.schedules.fetch_add(1, Ordering::Relaxed);
            }
            let history = self.build_history();
            if !(self.check)(&history) {
                self.violation = Some(self.prefix.iter().map(|&i| self.ops[i].pid).collect());
                self.violation_crashed = (0..self.ops.len())
                    .filter(|&i| self.crashed & (1 << i) != 0)
                    .map(|i| self.ops[i].pid)
                    .collect();
                if let Some(s) = self.shared {
                    s.stop.store(true, Ordering::Relaxed);
                }
            }
            return;
        }
        let mut asleep = sleep;
        let mut explored: Vec<StepInfo> = Vec::new();
        for &idx in &runnable {
            if self.cfg.prune && asleep & (1 << idx) != 0 {
                self.tally.stats.pruned_branches += 1;
                continue;
            }
            let info = self.step_forward(idx);
            let child_sleep = if self.cfg.prune {
                self.child_sleep(asleep, &explored, &info)
            } else {
                0
            };
            self.dfs(child_sleep);
            // Crash branch: the same prefix, but idx halts permanently
            // right after the event it just took (canonical crash point;
            // see `ExploreConfig::max_crashes`). Crashing a *finished*
            // operation is a no-op, so only unfinished ops branch. The
            // child's sleep set is reset: earlier siblings were deferred
            // on the assumption that idx keeps stepping, which the crash
            // invalidates (conservative — only explores more).
            if self.crashes_left > 0
                && !info.was_last
                && self.violation.is_none()
                && !self.truncated
            {
                self.crashes_left -= 1;
                self.crashed |= 1 << idx;
                self.tally.stats.crash_branches += 1;
                self.dfs(0);
                self.crashed &= !(1 << idx);
                self.crashes_left += 1;
            }
            self.step_back(&info);
            if self.halted() {
                return;
            }
            // Subsequent siblings may defer idx's step until something
            // dependent on it executes.
            asleep |= 1 << idx;
            explored.push(info);
        }
    }

    /// Whether an idle worker is waiting for work this search should
    /// hand over (the first busy worker to see the request takes it).
    fn asked_to_hand_over(&self) -> bool {
        self.shared.is_some_and(|s| {
            s.hungry.load(Ordering::Relaxed) && s.hungry.swap(false, Ordering::Relaxed)
        })
    }

    /// Searches `node`'s subtree from the root state: replays the node's
    /// prefix, runs `dfs` there and returns to the root. Neither the
    /// replay nor the return is counted — the worker that recorded the
    /// node already counted the steps to it.
    fn search(&mut self, node: &Subtree) {
        let saved = self.tally;
        for &idx in &node.prefix {
            self.step_forward(idx);
        }
        self.tally = saved;
        self.crashed = node.crashed;
        self.crashes_left = node.crashes_left;
        self.root_depth = node.prefix.len();
        self.dfs(node.sleep);
        self.handing_over = false;
        self.reset_to_root();
    }

    /// Undoes every step of the current prefix at once: memory events
    /// are reversed and each stepped machine is replaced by a fresh one.
    fn reset_to_root(&mut self) {
        while self.mem.steps() > self.base {
            self.mem.undo_last();
        }
        for idx in 0..self.ops.len() {
            if !self.resp_log[idx].is_empty() {
                self.resp_log[idx].clear();
                self.machines[idx] = self.fresh_machine(idx);
            }
        }
        self.first_step.fill(None);
        self.completed_at.fill(None);
        self.prefix.clear();
        self.crashed = 0;
        self.crashes_left = self.cfg.max_crashes;
    }

    /// One [`explore_parallel`] worker: searches queued subtrees until
    /// the search is over, queueing any nodes it hands over.
    fn work(&mut self, shared: &SharedSearch, workers: usize) {
        while let Some(node) = shared.next_subtree(workers) {
            self.search(&node);
            if !self.handover.is_empty() {
                shared.give(std::mem::take(&mut self.handover));
            }
        }
    }
}

/// Explores interleavings of one-shot operations under `cfg`.
///
/// * `setup` — builds a fresh memory and machines; must be
///   deterministic (it is re-invoked to refill the machine pool). It may
///   pre-run seed operations solo before returning: exploration starts
///   from whatever state `setup` leaves, and recorded ticks are absolute
///   positions in that memory's event log. Explorers call it once per
///   machine rebuild at worst, so a scope with costly construction
///   should build once and clone (see `ruo_scenario::explore_parts`).
/// * `ops` — descriptions matching `setup`'s machines (same order).
/// * `check` — called with each complete execution's history; returning
///   `false` marks the schedule as a violation and stops the search.
///   With [`ExploreConfig::prune`] set, the verdict must depend only on
///   operation outputs and the precedence relation (see module docs).
///
/// Returns the summary; exploration stops at the first violation.
///
/// # Panics
///
/// Panics if `setup` returns a different number of machines than `ops`
/// describes, if there are more than 64 operations, or if any machine
/// exceeds `10_000` steps in one schedule.
pub fn explore(
    setup: &dyn Fn() -> (Memory, Vec<Machine>),
    ops: &[ExploreOp],
    check: &mut dyn FnMut(&History) -> bool,
    cfg: ExploreConfig,
) -> ExploreSummary {
    assert_op_count(ops);
    let mut explorer = Explorer::new(setup, ops, check, cfg, None);
    explorer.dfs(0);
    let outcome = explorer.into_outcome();
    ExploreSummary {
        schedules: outcome.tally.stats.schedules,
        truncated: outcome.truncated,
        worker_schedules: vec![outcome.tally.stats.schedules],
        violation: outcome.violation,
        violation_crashed: outcome.violation_crashed,
        stats: outcome.tally.finish(),
    }
}

fn assert_op_count(ops: &[ExploreOp]) {
    assert!(
        ops.len() <= 64,
        "explorer supports at most 64 operations, got {}",
        ops.len()
    );
}

/// Explores interleavings like [`explore`], spreading the search over
/// `workers` OS threads (`std::thread::scope`).
///
/// The workers, each with its own memory and machines from `setup`,
/// share a queue of subtrees; each queued subtree carries its prefix,
/// sleep set, crashed mask and crash budget. The queue starts with the
/// root. A worker that finds the queue empty raises a flag and waits;
/// the first busy worker to see the flag stops searching below its own
/// subtree's root and queues every node there it has not entered yet,
/// so work moves to idle workers however unevenly sleep sets and crash
/// branches shape the tree. A worker starts a subtree by replaying its
/// prefix uncounted. Every node is counted by exactly one worker, so the
/// merged [`ExploreStats`] (fields summed, `peak_depth` maxed) reproduce
/// a sequential [`explore`] of the same scope field-for-field — `tests`
/// assert this and the W5 benchmark gates on it.
/// [`ExploreSummary::worker_schedules`] reports each worker's share.
///
/// Differences from [`explore`]:
///
/// * `setup` and `check` must be `Sync` (`check` is `Fn`, not
///   `FnMut` — aggregate across schedules with atomics or a mutex).
/// * On truncation the shared budget may be overshot by up to
///   `workers - 1` schedules (each in-flight worker can complete one
///   before observing the stop flag).
/// * With multiple violating schedules, *which* violation is reported
///   depends on worker timing (the first found wins); whether one
///   exists does not.
///
/// `workers == 0` is treated as `1`. See [`explore`] for the remaining
/// parameter docs and panics.
pub fn explore_parallel(
    setup: &(dyn Fn() -> (Memory, Vec<Machine>) + Sync),
    ops: &[ExploreOp],
    check: &(dyn Fn(&History) -> bool + Sync),
    cfg: ExploreConfig,
    workers: usize,
) -> ExploreSummary {
    assert_op_count(ops);
    let workers = workers.max(1);
    let shared = SharedSearch::default();
    shared.give(vec![Subtree {
        prefix: Vec::new(),
        sleep: 0,
        crashed: 0,
        crashes_left: cfg.max_crashes,
    }]);
    let results: Vec<Outcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let shared = &shared;
                scope.spawn(move || {
                    let _wake_on_panic = StopOnPanic(shared);
                    let mut local_check = |h: &History| check(h);
                    let mut explorer =
                        Explorer::new(setup, ops, &mut local_check, cfg, Some(shared));
                    explorer.work(shared, workers);
                    explorer.into_outcome()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("explore worker panicked"))
            .collect()
    });
    let mut total = Tally::default();
    let mut worker_schedules = Vec::with_capacity(workers);
    let mut violation = None;
    let mut violation_crashed = Vec::new();
    for r in results {
        worker_schedules.push(r.tally.stats.schedules);
        total.absorb(&r.tally);
        if violation.is_none() && r.violation.is_some() {
            violation = r.violation;
            violation_crashed = r.violation_crashed;
        }
    }
    ExploreSummary {
        schedules: total.stats.schedules,
        truncated: shared.truncated.load(Ordering::Relaxed),
        violation,
        violation_crashed,
        stats: total.finish(),
        worker_schedules,
    }
}

/// Stops a parallel search when a worker panics, so the others do not
/// wait forever for subtrees it would have handed over.
struct StopOnPanic<'a>(&'a SharedSearch);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.stop.store(true, Ordering::Relaxed);
            let _q = self.0.queue.lock();
            self.0.wake.notify_all();
        }
    }
}

/// Enumerates *every* interleaving of one-shot operations (no pruning).
///
/// Equivalent to [`explore`] with [`ExploreConfig::prune`] off: schedule
/// counts are exact interleaving counts, and the checker may inspect raw
/// ticks. See [`explore`] for parameter docs and panics.
pub fn enumerate(
    setup: &dyn Fn() -> (Memory, Vec<Machine>),
    ops: &[ExploreOp],
    check: &mut dyn FnMut(&History) -> bool,
    max_schedules: usize,
) -> ExploreSummary {
    explore(
        setup,
        ops,
        check,
        ExploreConfig {
            max_schedules,
            prune: false,
            max_crashes: 0,
        },
    )
}

/// Sequentially-seeded helper: explores every interleaving of operations
/// that all *start together* and checks each history with `check`,
/// panicking with the violating schedule if one exists.
///
/// # Panics
///
/// Panics if a violating schedule is found, or if the budget truncates
/// the search (use [`enumerate`] directly to tolerate truncation).
pub fn assert_all_schedules_pass(
    setup: &dyn Fn() -> (Memory, Vec<Machine>),
    ops: &[ExploreOp],
    check: &mut dyn FnMut(&History) -> bool,
    max_schedules: usize,
) -> usize {
    let summary = enumerate(setup, ops, check, max_schedules);
    assert!(
        !summary.truncated,
        "exploration truncated after {} schedules — shrink the scope",
        summary.schedules
    );
    if let Some(schedule) = summary.violation {
        panic!(
            "violating schedule found after {} complete schedules: {:?}",
            summary.schedules, schedule
        );
    }
    summary.schedules
}

/// A quick history-validity predicate for exploration artifacts: every
/// operation completed strictly after it was invoked
/// (`invoke < response` — completion consumes a tick even for zero-step
/// operations) with an output present.
pub fn history_is_wellformed(history: &History) -> bool {
    history
        .ops()
        .iter()
        .all(|o| o.response.map(|r| r > o.invoke).unwrap_or(false) && o.output.is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lin::check_counter;
    use crate::{cas, done, read, write, ObjId, Step};

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

    fn counter_setup(n: usize) -> (impl Fn() -> (Memory, Vec<Machine>), Vec<ExploreOp>) {
        let setup = move || {
            let mut mem = Memory::new();
            let o = mem.alloc(0);
            let machines = (0..n).map(|_| Machine::new(incr(o))).collect();
            (mem, machines)
        };
        let ops = (0..n)
            .map(|i| ExploreOp {
                pid: ProcessId(i),
                desc: OpDesc::CounterIncrement,
                returns_value: false,
            })
            .collect();
        (setup, ops)
    }

    #[test]
    fn enumerates_all_interleavings_of_two_increments() {
        let (setup, ops) = counter_setup(2);
        let mut count_checks = 0usize;
        let summary = enumerate(
            &setup,
            &ops,
            &mut |h| {
                count_checks += 1;
                history_is_wellformed(h)
            },
            10_000,
        );
        assert!(!summary.truncated);
        assert!(summary.violation.is_none());
        assert_eq!(summary.schedules, count_checks);
        // Two CAS-loop increments: the contention-free interleavings of
        // 2-step ops plus retry paths; at least C(4,2)=6 schedules.
        assert!(summary.schedules >= 6, "{}", summary.schedules);
        // Unpruned enumeration never prunes.
        assert_eq!(summary.stats.pruned_branches, 0);
        assert_eq!(summary.stats.schedules, summary.schedules);
        assert!(summary.stats.peak_depth >= 4);
        assert!(summary.stats.executed_steps >= 4 * 6);
    }

    #[test]
    fn all_schedules_of_three_increments_count_correctly() {
        let (setup, ops) = counter_setup(3);
        let schedules = assert_all_schedules_pass(
            &setup,
            &ops,
            &mut |h| {
                // Completing history: counter checker accepts iff every
                // feasible read... no reads here, but the final count is
                // implicit: verify via history validity + count.
                check_counter(h).is_ok()
            },
            200_000,
        );
        assert!(schedules > 50);
    }

    #[test]
    fn final_count_is_exact_under_every_schedule() {
        let (setup, ops) = counter_setup(2);
        // Re-run enumeration but verify memory state via a read machine
        // appended after completion.
        let summary = enumerate(
            &setup,
            &ops,
            &mut |h| h.ops().iter().all(|o| o.is_complete()),
            10_000,
        );
        assert!(summary.violation.is_none());
    }

    #[test]
    fn budget_truncates_gracefully() {
        let (setup, ops) = counter_setup(3);
        let summary = enumerate(&setup, &ops, &mut |_| true, 5);
        assert!(summary.truncated);
        assert_eq!(summary.schedules, 5);
        assert!(summary.violation.is_none());
    }

    #[test]
    fn violation_reports_the_schedule() {
        let (setup, ops) = counter_setup(2);
        // A checker that rejects everything: the first complete schedule
        // is reported.
        let summary = enumerate(&setup, &ops, &mut |_| false, 10_000);
        let schedule = summary.violation.expect("violation reported");
        assert!(!schedule.is_empty());
        assert_eq!(summary.schedules, 1);
    }

    #[test]
    fn pruning_skips_commuting_interleavings() {
        // Two 2-step ops on *disjoint* cells: all interleavings are
        // trace-equivalent up to boundary effects; pruning must explore
        // strictly fewer than the C(4,2) = 6 full interleavings.
        let setup = || {
            let mut mem = Memory::new();
            let a = mem.alloc(0);
            let b = mem.alloc(0);
            let machines = vec![Machine::new(incr(a)), Machine::new(incr(b))];
            (mem, machines)
        };
        let ops: Vec<ExploreOp> = (0..2)
            .map(|i| ExploreOp {
                pid: ProcessId(i),
                desc: OpDesc::CounterIncrement,
                returns_value: false,
            })
            .collect();
        let full = enumerate(&setup, &ops, &mut |_| true, 10_000);
        assert_eq!(full.schedules, 6);
        let pruned = explore(
            &setup,
            &ops,
            &mut |_| true,
            ExploreConfig {
                max_schedules: 10_000,
                prune: true,
                max_crashes: 0,
            },
        );
        assert!(pruned.violation.is_none());
        assert!(!pruned.truncated);
        assert!(
            pruned.schedules < full.schedules,
            "pruned {} vs full {}",
            pruned.schedules,
            full.schedules
        );
        assert!(pruned.stats.pruned_branches > 0);
    }

    /// A history signature that is invariant across trace-equivalent
    /// schedules: per operation (in `ops` order) its output, step count,
    /// and precedence row against every other operation.
    type Signature = Vec<(Option<OpOutput>, usize, Vec<bool>)>;

    fn signature(ops: &[ExploreOp], h: &History) -> Signature {
        // Map history records (sorted by invoke) back to ops order by pid
        // (one op per process in these scopes).
        let by_pid = |pid: ProcessId| {
            h.ops()
                .iter()
                .find(|o| o.pid == pid)
                .expect("one record per process")
        };
        ops.iter()
            .map(|op| {
                let rec = by_pid(op.pid);
                let row = ops
                    .iter()
                    .map(|other| rec.precedes(by_pid(other.pid)))
                    .collect();
                (rec.output.clone(), rec.steps, row)
            })
            .collect()
    }

    /// The load-bearing soundness property: with pruning on, the *set* of
    /// distinct histories (outputs + step counts + precedence relation)
    /// is exactly the unpruned set — no history class is lost.
    #[test]
    fn pruning_preserves_the_set_of_histories() {
        use std::collections::BTreeSet;

        type Setup = Box<dyn Fn() -> (Memory, Vec<Machine>)>;

        // Scenarios mixing same-cell contention, disjoint cells, reads,
        // and a zero-step operation.
        let scenarios: Vec<(Setup, Vec<ExploreOp>)> = vec![
            // (a) two increments on one cell + read of another cell
            (
                Box::new(|| {
                    let mut mem = Memory::new();
                    let a = mem.alloc(0);
                    let b = mem.alloc(7);
                    let machines = vec![
                        Machine::new(incr(a)),
                        Machine::new(incr(a)),
                        Machine::new(read(b, done)),
                    ];
                    (mem, machines)
                }),
                vec![
                    ExploreOp {
                        pid: ProcessId(0),
                        desc: OpDesc::CounterIncrement,
                        returns_value: false,
                    },
                    ExploreOp {
                        pid: ProcessId(1),
                        desc: OpDesc::CounterIncrement,
                        returns_value: false,
                    },
                    ExploreOp {
                        pid: ProcessId(2),
                        desc: OpDesc::CounterRead,
                        returns_value: true,
                    },
                ],
            ),
            // (b) write/read race on one cell + independent writer
            (
                Box::new(|| {
                    let mut mem = Memory::new();
                    let a = mem.alloc(0);
                    let b = mem.alloc(0);
                    let machines = vec![
                        Machine::new(write(a, 5, || done(0))),
                        Machine::new(read(a, done)),
                        Machine::new(write(b, 9, || done(0))),
                    ];
                    (mem, machines)
                }),
                vec![
                    ExploreOp {
                        pid: ProcessId(0),
                        desc: OpDesc::WriteMax(5),
                        returns_value: false,
                    },
                    ExploreOp {
                        pid: ProcessId(1),
                        desc: OpDesc::ReadMax,
                        returns_value: true,
                    },
                    ExploreOp {
                        pid: ProcessId(2),
                        desc: OpDesc::WriteMax(9),
                        returns_value: false,
                    },
                ],
            ),
            // (c) a zero-step op racing a 2-step op and a 1-step reader
            (
                Box::new(|| {
                    let mut mem = Memory::new();
                    let a = mem.alloc(0);
                    let machines = vec![
                        Machine::completed(0),
                        Machine::new(incr(a)),
                        Machine::new(read(a, done)),
                    ];
                    (mem, machines)
                }),
                vec![
                    ExploreOp {
                        pid: ProcessId(0),
                        desc: OpDesc::WriteMax(0),
                        returns_value: false,
                    },
                    ExploreOp {
                        pid: ProcessId(1),
                        desc: OpDesc::CounterIncrement,
                        returns_value: false,
                    },
                    ExploreOp {
                        pid: ProcessId(2),
                        desc: OpDesc::CounterRead,
                        returns_value: true,
                    },
                ],
            ),
        ];

        for (i, (setup, ops)) in scenarios.iter().enumerate() {
            let mut full: BTreeSet<String> = BTreeSet::new();
            let s1 = enumerate(
                &**setup,
                ops,
                &mut |h| {
                    full.insert(format!("{:?}", signature(ops, h)));
                    true
                },
                1_000_000,
            );
            let mut pruned: BTreeSet<String> = BTreeSet::new();
            let s2 = explore(
                &**setup,
                ops,
                &mut |h| {
                    pruned.insert(format!("{:?}", signature(ops, h)));
                    true
                },
                ExploreConfig {
                    max_schedules: 1_000_000,
                    prune: true,
                    max_crashes: 0,
                },
            );
            assert!(!s1.truncated && !s2.truncated);
            assert!(
                s2.schedules <= s1.schedules,
                "scenario {i}: pruned explored more schedules"
            );
            assert_eq!(
                full, pruned,
                "scenario {i}: pruning changed the set of histories"
            );
        }
    }

    #[test]
    fn zero_step_ops_get_strictly_positive_width() {
        // A zero-step machine racing a stepped one: every history must
        // satisfy the strict invoke < response invariant.
        let setup = || {
            let mut mem = Memory::new();
            let a = mem.alloc(0);
            let machines = vec![Machine::completed(3), Machine::new(incr(a))];
            (mem, machines)
        };
        let ops = vec![
            ExploreOp {
                pid: ProcessId(0),
                desc: OpDesc::ReadMax,
                returns_value: true,
            },
            ExploreOp {
                pid: ProcessId(1),
                desc: OpDesc::CounterIncrement,
                returns_value: false,
            },
        ];
        let summary = enumerate(
            &setup,
            &ops,
            &mut |h| {
                history_is_wellformed(h) && h.ops().iter().all(|o| o.response.unwrap() > o.invoke)
            },
            10_000,
        );
        assert!(summary.violation.is_none());
        assert!(summary.schedules >= 1);
    }

    #[test]
    fn seeded_setup_records_absolute_ticks() {
        // The setup pre-runs a seed op solo; explored records must use
        // ticks past the seed's events.
        let setup = || {
            let mut mem = Memory::new();
            let a = mem.alloc(0);
            // Seed: two increments run to completion inside setup.
            for _ in 0..2 {
                let mut m = Machine::new(incr(a));
                while let Some(p) = m.enabled() {
                    let r = mem.apply(ProcessId(9), p);
                    m.feed(r);
                }
            }
            let machines = vec![Machine::new(incr(a))];
            (mem, machines)
        };
        let ops = vec![ExploreOp {
            pid: ProcessId(0),
            desc: OpDesc::CounterIncrement,
            returns_value: false,
        }];
        let summary = enumerate(
            &setup,
            &ops,
            &mut |h| {
                h.ops()
                    .iter()
                    .all(|o| o.invoke >= 4 && history_is_wellformed(h))
            },
            100,
        );
        assert!(summary.violation.is_none());
        assert_eq!(summary.schedules, 1);
    }

    #[test]
    fn pruned_search_still_finds_violations() {
        // A dirty-read bug: the "increment" writes the new value before
        // validating, so a concurrent reader can observe an overcount.
        // Pruning must still reach a violating schedule.
        fn sloppy_double_incr(o: ObjId) -> Step {
            read(o, move |v| {
                write(o, v + 2, move || write(o, v + 1, move || done(0)))
            })
        }
        let setup = || {
            let mut mem = Memory::new();
            let o = mem.alloc(0);
            let machines = vec![
                Machine::new(sloppy_double_incr(o)),
                Machine::new(read(o, done)),
            ];
            (mem, machines)
        };
        let ops = vec![
            ExploreOp {
                pid: ProcessId(0),
                desc: OpDesc::CounterIncrement,
                returns_value: false,
            },
            ExploreOp {
                pid: ProcessId(1),
                desc: OpDesc::CounterRead,
                returns_value: true,
            },
        ];
        // The read may see 0 or 1 (the final value); seeing the
        // transient 2 is the injected violation.
        let mut check = |h: &History| h.ops().iter().all(|o| o.output != Some(OpOutput::Value(2)));
        for prune in [false, true] {
            let summary = explore(
                &setup,
                &ops,
                &mut check,
                ExploreConfig {
                    max_schedules: 10_000,
                    prune,
                    max_crashes: 0,
                },
            );
            assert!(
                summary.violation.is_some(),
                "prune={prune}: dirty read not found"
            );
        }
    }

    #[test]
    fn crash_exploration_yields_pending_histories() {
        // Two CAS-loop increments with a 1-crash budget: some schedules
        // must contain exactly one pending increment, every history must
        // still satisfy the counter checker (completion rule), and the
        // crash-free schedules must still all be enumerated.
        let (setup, ops) = counter_setup(2);
        let mut pending_histories = 0usize;
        let mut complete_histories = 0usize;
        let summary = explore(
            &setup,
            &ops,
            &mut |h| {
                let pending = h.pending().count();
                assert!(pending <= 1, "crash budget is 1");
                if pending == 1 {
                    pending_histories += 1;
                    // The crashed increment has no response and no output.
                    let p = h.pending().next().unwrap();
                    assert!(p.output.is_none());
                    assert!(p.steps >= 1);
                } else {
                    complete_histories += 1;
                }
                check_counter(h).is_ok()
            },
            ExploreConfig {
                max_schedules: 100_000,
                prune: false,
                max_crashes: 1,
            },
        );
        assert!(!summary.truncated);
        assert!(summary.violation.is_none());
        assert!(summary.violation_crashed.is_empty());
        assert!(summary.stats.crash_branches > 0);
        assert_eq!(
            summary.stats.crash_branches, pending_histories,
            "each crash branch completes into exactly one schedule here"
        );
        // Crash-free schedules are unchanged by the crash budget: the
        // same scope without crashes enumerates exactly this many.
        let baseline = enumerate(&setup, &ops, &mut |_| true, 100_000);
        assert_eq!(complete_histories, baseline.schedules);
    }

    #[test]
    fn crash_budget_zero_changes_nothing() {
        let (setup, ops) = counter_setup(2);
        let a = enumerate(&setup, &ops, &mut |_| true, 100_000);
        let b = explore(
            &setup,
            &ops,
            &mut |_| true,
            ExploreConfig {
                max_schedules: 100_000,
                prune: false,
                max_crashes: 0,
            },
        );
        assert_eq!(a.schedules, b.schedules);
        assert_eq!(b.stats.crash_branches, 0);
    }

    #[test]
    fn crash_exploration_finds_crash_only_bugs() {
        // A two-phase "write-ahead increment": process 0 bumps a dirty
        // flag cell, then the real cell. If it crashes between the two
        // writes, a reader of the dirty cell sees a count the real cell
        // never reaches — a violation that NO crash-free schedule
        // exhibits (the checker below only fails when the crashed state
        // is observed). Crash exploration must find it automatically.
        fn two_phase(a: ObjId, b: ObjId) -> Step {
            write(a, 1, move || write(b, 1, move || done(0)))
        }
        let setup = move || {
            let mut mem = Memory::new();
            let a = mem.alloc(0);
            let b = mem.alloc(0);
            let machines = vec![
                Machine::new(two_phase(a, b)),
                Machine::new(read(a, move |va| read(b, move |vb| done(va - vb)))),
            ];
            (mem, machines)
        };
        let ops = vec![
            ExploreOp {
                pid: ProcessId(0),
                desc: OpDesc::CounterIncrement,
                returns_value: false,
            },
            ExploreOp {
                pid: ProcessId(1),
                desc: OpDesc::CounterRead,
                returns_value: true,
            },
        ];
        // "Violation": the reader observed a - b == 1 AND the writer is
        // pending — i.e. the torn intermediate state outlived the crash.
        let mut check = |h: &History| {
            let torn = h.ops().iter().any(|o| o.output == Some(OpOutput::Value(1)));
            let writer_crashed = h.pending().any(|o| o.desc == OpDesc::CounterIncrement);
            !(torn && writer_crashed)
        };
        // Without crashes the torn state is transient (the writer always
        // finishes): the schedule where the reader interleaves sees a=1,
        // b=0 too — but the writer completes, so `writer_crashed` is
        // false and no violation fires.
        let clean = explore(
            &setup,
            &ops,
            &mut check,
            ExploreConfig {
                max_schedules: 100_000,
                prune: false,
                max_crashes: 0,
            },
        );
        assert!(clean.violation.is_none());
        // With a 1-crash budget the explorer finds the bad crash point.
        for prune in [false, true] {
            let summary = explore(
                &setup,
                &ops,
                &mut check,
                ExploreConfig {
                    max_schedules: 100_000,
                    prune,
                    max_crashes: 1,
                },
            );
            assert!(
                summary.violation.is_some(),
                "prune={prune}: crash-only bug not found"
            );
            assert_eq!(
                summary.violation_crashed,
                vec![ProcessId(0)],
                "prune={prune}: the writer is the crashed process"
            );
        }
    }

    #[test]
    fn crash_exploration_respects_pruning_soundness() {
        // The pruned and unpruned crash explorations must agree on the
        // set of history classes (outputs + step counts + precedence),
        // mirroring `pruning_preserves_the_set_of_histories`.
        use std::collections::BTreeSet;
        let setup = || {
            let mut mem = Memory::new();
            let a = mem.alloc(0);
            let machines = vec![
                Machine::new(incr(a)),
                Machine::new(incr(a)),
                Machine::new(read(a, done)),
            ];
            (mem, machines)
        };
        let ops = vec![
            ExploreOp {
                pid: ProcessId(0),
                desc: OpDesc::CounterIncrement,
                returns_value: false,
            },
            ExploreOp {
                pid: ProcessId(1),
                desc: OpDesc::CounterIncrement,
                returns_value: false,
            },
            ExploreOp {
                pid: ProcessId(2),
                desc: OpDesc::CounterRead,
                returns_value: true,
            },
        ];
        // Signature tolerant of pending ops: output (None when pending),
        // completion flag, and the precedence row.
        let sig = |h: &History| {
            let by_pid = |pid: ProcessId| h.ops().iter().find(|o| o.pid == pid).unwrap();
            let rows: Vec<String> = ops
                .iter()
                .map(|op| {
                    let rec = by_pid(op.pid);
                    let row: Vec<bool> = ops
                        .iter()
                        .map(|other| rec.precedes(by_pid(other.pid)))
                        .collect();
                    format!("{:?}|{}|{:?}", rec.output, rec.is_complete(), row)
                })
                .collect();
            rows.join(";")
        };
        let collect = |prune: bool| {
            let mut set: BTreeSet<String> = BTreeSet::new();
            let summary = explore(
                &setup,
                &ops,
                &mut |h| {
                    set.insert(sig(h));
                    true
                },
                ExploreConfig {
                    max_schedules: 1_000_000,
                    prune,
                    max_crashes: 1,
                },
            );
            assert!(!summary.truncated);
            (set, summary.schedules)
        };
        let (full, full_n) = collect(false);
        let (pruned, pruned_n) = collect(true);
        assert!(pruned_n <= full_n);
        assert_eq!(full, pruned, "crash pruning changed the history set");
    }

    #[test]
    fn stats_replay_savings_accumulate() {
        let (setup, ops) = counter_setup(3);
        let summary = enumerate(&setup, &ops, &mut |_| true, 200_000);
        // Every DFS node below depth 1 saves replay work; with thousands
        // of schedules of depth >= 6, savings must be substantial.
        assert!(
            summary.stats.replay_steps_saved > summary.stats.executed_steps,
            "saved {} vs executed {}",
            summary.stats.replay_steps_saved,
            summary.stats.executed_steps
        );
    }

    #[test]
    fn stats_prim_kinds_partition_executed_steps() {
        let (setup, ops) = counter_setup(3);
        let summary = enumerate(&setup, &ops, &mut |_| true, 200_000);
        let s = &summary.stats;
        assert_eq!(
            s.reads + s.writes + s.cas_ok + s.cas_fail,
            s.executed_steps,
            "prim-kind tallies must partition executed_steps"
        );
        // The read-CAS increment loop issues reads and CASes, and with 3
        // contending processes some interleavings must fail a CAS.
        assert!(s.reads > 0 && s.cas_ok > 0 && s.cas_fail > 0);
        assert_eq!(s.writes, 0, "incr uses no write primitive");
    }

    /// Asserts two explorations did exactly the same work, field by
    /// field (parallel merges must reproduce the sequential counters).
    fn assert_stats_eq(a: &ExploreStats, b: &ExploreStats, ctx: &str) {
        assert_eq!(a.schedules, b.schedules, "{ctx}: schedules");
        assert_eq!(
            a.pruned_branches, b.pruned_branches,
            "{ctx}: pruned_branches"
        );
        assert_eq!(a.executed_steps, b.executed_steps, "{ctx}: executed_steps");
        assert_eq!(
            a.replay_steps_saved, b.replay_steps_saved,
            "{ctx}: replay_steps_saved"
        );
        assert_eq!(a.peak_depth, b.peak_depth, "{ctx}: peak_depth");
        assert_eq!(a.crash_branches, b.crash_branches, "{ctx}: crash_branches");
        assert_eq!(a.reads, b.reads, "{ctx}: reads");
        assert_eq!(a.writes, b.writes, "{ctx}: writes");
        assert_eq!(a.cas_ok, b.cas_ok, "{ctx}: cas_ok");
        assert_eq!(a.cas_fail, b.cas_fail, "{ctx}: cas_fail");
    }

    #[test]
    fn parallel_explorer_reproduces_sequential_counts() {
        // Across prune × crash-budget × worker-count, the merged
        // parallel stats must equal the sequential run field for field:
        // the workers together visit exactly the sequential node set,
        // each node counted once, whichever worker searched it.
        let (setup, ops) = counter_setup(3);
        for prune in [false, true] {
            for max_crashes in [0, 1] {
                let cfg = ExploreConfig {
                    max_schedules: 1_000_000,
                    prune,
                    max_crashes,
                };
                let sequential = explore(&setup, &ops, &mut |_| true, cfg);
                assert!(!sequential.truncated);
                for workers in [1, 2, 3, 4, 8] {
                    let parallel = explore_parallel(&setup, &ops, &|_| true, cfg, workers);
                    let ctx = format!("prune={prune} max_crashes={max_crashes} workers={workers}");
                    assert!(!parallel.truncated, "{ctx}: truncated");
                    assert!(parallel.violation.is_none(), "{ctx}: violation");
                    assert_eq!(parallel.schedules, sequential.schedules, "{ctx}");
                    assert_stats_eq(&parallel.stats, &sequential.stats, &ctx);
                    assert_eq!(parallel.worker_schedules.len(), workers, "{ctx}");
                    assert_eq!(
                        parallel.worker_schedules.iter().sum::<usize>(),
                        parallel.schedules,
                        "{ctx}: worker shares"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_explorer_finds_violations() {
        // Same dirty-read scenario as `pruning_reaches_violating_schedules`,
        // but searched in parallel: a transient overcount of 2 must still
        // be found regardless of which worker owns the violating branch.
        fn sloppy_double_incr(o: ObjId) -> Step {
            read(o, move |v| {
                write(o, v + 2, move || write(o, v + 1, move || done(0)))
            })
        }
        let setup = || {
            let mut mem = Memory::new();
            let o = mem.alloc(0);
            let machines = vec![
                Machine::new(sloppy_double_incr(o)),
                Machine::new(read(o, done)),
            ];
            (mem, machines)
        };
        let ops = vec![
            ExploreOp {
                pid: ProcessId(0),
                desc: OpDesc::CounterIncrement,
                returns_value: false,
            },
            ExploreOp {
                pid: ProcessId(1),
                desc: OpDesc::CounterRead,
                returns_value: true,
            },
        ];
        let check = |h: &History| h.ops().iter().all(|o| o.output != Some(OpOutput::Value(2)));
        for prune in [false, true] {
            for workers in [1, 2, 4] {
                let summary = explore_parallel(
                    &setup,
                    &ops,
                    &check,
                    ExploreConfig {
                        max_schedules: 10_000,
                        prune,
                        max_crashes: 0,
                    },
                    workers,
                );
                assert!(
                    summary.violation.is_some(),
                    "prune={prune} workers={workers}: dirty read not found"
                );
            }
        }
    }

    #[test]
    fn parallel_explorer_respects_the_shared_budget() {
        let (setup, ops) = counter_setup(3);
        let workers = 4;
        let budget = 5;
        let summary = explore_parallel(
            &setup,
            &ops,
            &|_| true,
            ExploreConfig {
                max_schedules: budget,
                prune: false,
                max_crashes: 0,
            },
            workers,
        );
        assert!(summary.truncated);
        // The budget is shared; each in-flight worker may complete at
        // most one extra schedule before it observes the stop flag.
        assert!(
            summary.schedules >= budget && summary.schedules < budget + workers,
            "schedules={} budget={budget} workers={workers}",
            summary.schedules
        );
    }

    #[test]
    fn spare_pools_stay_bounded() {
        // Three CAS-loop increments with a crash budget backtrack
        // thousands of times; every refill builds a machine for each
        // op, but the pool keeps at most `SPARE_CAP` per op.
        let (setup, ops) = counter_setup(3);
        let calls = AtomicUsize::new(0);
        let counting = || {
            calls.fetch_add(1, Ordering::Relaxed);
            setup()
        };
        let mut check = |_: &History| true;
        let cfg = ExploreConfig {
            max_schedules: 1_000_000,
            prune: false,
            max_crashes: 1,
        };
        let mut explorer = Explorer::new(&counting, &ops, &mut check, cfg, None);
        explorer.dfs(0);
        assert!(!explorer.truncated);
        assert!(explorer.tally.stats.crash_branches > 0);
        assert!(
            calls.load(Ordering::Relaxed) > 10 * SPARE_CAP,
            "the pool was refilled many times"
        );
        for pool in &explorer.spare {
            assert!(pool.len() <= SPARE_CAP, "pool of {} machines", pool.len());
        }
    }
}
