//! Exhaustive crash-tolerance proofs: bounded exploration over schedules
//! *with crash points* ([`ExploreConfig::max_crashes`]).
//!
//! Where `tests/failure_injection.rs` drives hand-crafted crash
//! schedules, these tests enumerate **every** schedule with up to one
//! crash inside the scope:
//!
//! * double-CAS Algorithm A survives every 1-crash schedule at `N = 4`
//!   (the crashed writer's value may or may not be visible — the
//!   completion rule — but no completed write is ever lost and reads
//!   stay monotone);
//! * the deliberately weakened single-CAS variant is caught
//!   automatically under the same crash exploration, with the fast
//!   checkers handling the pending operations crashes produce;
//! * sleep-set pruning remains sound in the presence of crash branches:
//!   the pruned and unpruned searches agree on the set of history
//!   classes;
//! * the checked-in N = 5 two-crash scope (W9) keeps its exact counts,
//!   and the parallel explorer reproduces the sequential run at any
//!   worker count.

use std::sync::Arc;

use ruo::core::maxreg::sim::{SimMaxRegister, SimTreeMaxRegister};
use ruo::core::shape::AlgorithmATree;
use ruo::metrics::ExploreGauges;
use ruo::scenario::{
    explore_parts, EngineKind, ExploreSpec, Family, OpKind, ScenarioOp, ScenarioSpec,
};
use ruo::sim::explore::{explore, explore_parallel, ExploreConfig, ExploreOp, ExploreStats};
use ruo::sim::lin::{check_exact, check_max_register};
use ruo::sim::spec::SeqSpec;
use ruo::sim::{
    cas, done, read, write, History, Machine, Memory, ObjId, OpDesc, ProcessId, Step, Word, NEG_INF,
};

/// The flagship crash-tolerance proof: the scaled `N = 4` scope from
/// `tests/exhaustive.rs` (one 27-step write, two dominated 1-step
/// writes, one read, seeded root of 3), now with a 1-crash budget. The
/// 27-step `WriteMax(4)` can crash after any of its events — mid leaf
/// write, between the two CASes of a level, after the root CAS — and in
/// every resulting schedule the fast checker must accept: the pending
/// write may be visible or not, but completed writes are never lost and
/// reads never go backwards.
#[test]
fn double_cas_survives_every_one_crash_schedule_at_n4() {
    // The scope is the declarative W5 spec with a 1-crash budget; the
    // scenario engine supplies the setup closure and op descriptors,
    // and the test layers its crash-accounting checker on top.
    let mut spec = ScenarioSpec::new(
        "n4-one-crash",
        Family::MaxReg,
        "tree",
        EngineKind::Explore,
        4,
    );
    spec.root_fast_path = true;
    spec.explore = Some(ExploreSpec {
        seed_update: Some(3),
        ops: vec![
            ScenarioOp {
                pid: 0,
                kind: OpKind::Update,
                value: 4,
            }, // 27 steps: the crash target
            ScenarioOp {
                pid: 1,
                kind: OpKind::Update,
                value: 2,
            }, // dominated: 1 root read
            ScenarioOp {
                pid: 2,
                kind: OpKind::Update,
                value: 3,
            }, // dominated: 1 root read
            ScenarioOp {
                pid: 3,
                kind: OpKind::Read,
                value: 0,
            },
        ],
        max_schedules: 2_000_000,
        prune: true,
        max_crashes: 1,
        workers: 1,
    });
    let parts = explore_parts(&spec).unwrap();
    assert_eq!(parts.initial, 3, "the seed update is the checker's initial");
    let mut crashed_histories = 0usize;
    let summary = explore(
        &*parts.setup,
        &parts.ops,
        &mut |h: &History| {
            let pending: Vec<_> = h.pending().collect();
            assert!(pending.len() <= 1, "crash budget is 1");
            if let Some(p) = pending.first() {
                // Only the 27-step write can crash (the other three ops
                // are single-step, and a crash needs a non-final event).
                assert_eq!(p.desc, OpDesc::WriteMax(4));
                assert!(p.output.is_none());
                crashed_histories += 1;
            }
            check_max_register(h, parts.initial).is_ok()
        },
        ExploreConfig {
            max_schedules: 2_000_000,
            prune: true,
            max_crashes: 1,
        },
    );
    assert!(
        summary.violation.is_none(),
        "1-crash schedule violated Algorithm A: {:?} (crashed: {:?})",
        summary.violation,
        summary.violation_crashed
    );
    assert!(!summary.truncated, "the 1-crash scope must be exhaustive");
    assert!(
        summary.stats.crash_branches > 0 && crashed_histories > 0,
        "crash branches must actually be explored"
    );

    // The crash exploration flows into the metrics layer like any run.
    let gauges = ExploreGauges::new(1);
    gauges.record(ProcessId(0), &summary.stats);
    assert_eq!(gauges.crash_branches(), summary.stats.crash_branches as u64);
    println!(
        "N=4 one-crash proof: {} schedules ({} crash branches, {} with a pending write)",
        summary.schedules, summary.stats.crash_branches, crashed_histories
    );
}

/// The single-CAS variant of Algorithm A, as in
/// `tests/exhaustive.rs::exploration_rediscovers_the_single_cas_bug` —
/// each level does one blind `CAS(node, old, max(children))` instead of
/// the algorithm's double CAS.
mod single_cas {
    use super::*;

    type Levels = Arc<Vec<(ObjId, Option<ObjId>, Option<ObjId>)>>;

    fn level(levels: Levels, i: usize) -> Step {
        if i == levels.len() {
            return done(0);
        }
        let (node, l, r) = levels[i];
        let rd = move |o: Option<ObjId>, k: Box<dyn FnOnce(Word) -> Step + Send>| match o {
            Some(o) => read(o, k),
            None => k(NEG_INF),
        };
        read(node, move |old| {
            rd(
                l,
                Box::new(move |lv| {
                    rd(
                        r,
                        Box::new(move |rv| {
                            cas(node, old, lv.max(rv), move |_| level(levels, i + 1))
                        }),
                    )
                }),
            )
        })
    }

    pub fn broken_write(
        tree: &Arc<AlgorithmATree>,
        cells: &Arc<Vec<ObjId>>,
        pid: usize,
        v: u64,
    ) -> Machine {
        let leaf = tree.leaf_for(pid, v);
        let shape = tree.shape();
        let levels: Levels = Arc::new(
            shape
                .ancestors(leaf)
                .into_iter()
                .map(|a| {
                    let info = shape.node(a);
                    (
                        cells[a],
                        info.left.map(|i| cells[i]),
                        info.right.map(|i| cells[i]),
                    )
                })
                .collect(),
        );
        let leaf_cell = cells[leaf];
        let w = v as Word;
        Machine::new(read(leaf_cell, move |old| {
            if w <= old {
                done(0)
            } else {
                write(leaf_cell, w, move || level(levels, 0))
            }
        }))
    }
}

/// Crash exploration re-finds the single-CAS lost-write bug with no
/// hand-crafted schedule: the same scope as the crash-free rediscovery
/// test, but searched *through* the 1-crash schedule space — so the fast
/// checker digests hundreds of pending-op histories on the way to the
/// violation, with pruning on and off.
#[test]
fn one_crash_exploration_rediscovers_the_single_cas_bug() {
    let setup = || {
        let mut mem = Memory::new();
        let tree = Arc::new(AlgorithmATree::new(2));
        let cells = Arc::new(mem.alloc_n(tree.shape().len(), NEG_INF));
        let root = cells[tree.root()];
        let machines = vec![
            single_cas::broken_write(&tree, &cells, 0, 2),
            single_cas::broken_write(&tree, &cells, 1, 3),
            Machine::new(read(root, |v| done(v.max(0)))),
        ];
        (mem, machines)
    };
    let ops = vec![
        ExploreOp {
            pid: ProcessId(0),
            desc: OpDesc::WriteMax(2),
            returns_value: false,
        },
        ExploreOp {
            pid: ProcessId(1),
            desc: OpDesc::WriteMax(3),
            returns_value: false,
        },
        ExploreOp {
            pid: ProcessId(2),
            desc: OpDesc::ReadMax,
            returns_value: true,
        },
    ];
    for prune in [false, true] {
        let mut pending_seen = 0usize;
        let summary = explore(
            &setup,
            &ops,
            &mut |h: &History| {
                pending_seen += h.pending().count();
                check_max_register(h, 0).is_ok()
            },
            ExploreConfig {
                max_schedules: 4_000_000,
                prune,
                max_crashes: 1,
            },
        );
        let schedule = summary
            .violation
            .unwrap_or_else(|| panic!("prune={prune}: single-CAS bug not found under crashes"));
        assert!(schedule.contains(&ProcessId(0)));
        assert!(schedule.contains(&ProcessId(1)));
        assert!(
            pending_seen > 0,
            "prune={prune}: the search must wade through pending-op histories"
        );
        println!(
            "single-CAS bug under 1-crash exploration (prune={prune}): \
             found after {} schedules, {} crash branches, crashed in violation: {:?}",
            summary.schedules, summary.stats.crash_branches, summary.violation_crashed
        );
    }
}

/// Pruning soundness under crashes, on the real object: the `N = 2`
/// Algorithm A scope (one 10-step write, two 1-step reads) explored with
/// a 1-crash budget, pruned and unpruned. Both searches must accept
/// every history (exact + fast checker agreement) and produce the same
/// set of history classes (outputs, completion flags, precedence).
#[test]
fn crash_pruning_preserves_algorithm_a_history_classes() {
    use std::collections::BTreeSet;

    let setup = || {
        let mut mem = Memory::new();
        let reg = SimTreeMaxRegister::new(&mut mem, 2);
        let machines = vec![
            reg.write_max(ProcessId(0), 1),
            reg.read_max(ProcessId(1)),
            reg.read_max(ProcessId(2)),
        ];
        (mem, machines)
    };
    let ops = vec![
        ExploreOp {
            pid: ProcessId(0),
            desc: OpDesc::WriteMax(1),
            returns_value: false,
        },
        ExploreOp {
            pid: ProcessId(1),
            desc: OpDesc::ReadMax,
            returns_value: true,
        },
        ExploreOp {
            pid: ProcessId(2),
            desc: OpDesc::ReadMax,
            returns_value: true,
        },
    ];
    let spec = SeqSpec::MaxRegister { initial: 0 };
    let signature = |h: &History| {
        let by_pid = |pid: ProcessId| {
            h.ops()
                .iter()
                .find(|o| o.pid == pid)
                .expect("one record per process")
        };
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
    let run = |prune: bool| {
        let mut classes: BTreeSet<String> = BTreeSet::new();
        let summary = explore(
            &setup,
            &ops,
            &mut |h: &History| {
                classes.insert(signature(h));
                check_exact(h, &spec).is_ok() && check_max_register(h, 0).is_ok()
            },
            ExploreConfig {
                max_schedules: 1_000_000,
                prune,
                max_crashes: 1,
            },
        );
        assert!(
            summary.violation.is_none(),
            "prune={prune}: violation {:?}",
            summary.violation
        );
        assert!(!summary.truncated);
        (classes, summary.schedules)
    };
    let (full, full_n) = run(false);
    let (pruned, pruned_n) = run(true);
    assert!(pruned_n <= full_n, "pruned {pruned_n} vs full {full_n}");
    assert_eq!(
        full, pruned,
        "crash pruning changed the set of Algorithm A history classes"
    );
    // A crash-free run of the same scope enumerates 132 interleavings;
    // the crash budget strictly grows the schedule space.
    assert!(full_n > 132, "crash schedules missing: {full_n}");
    println!("N=2 crash soundness: {full_n} full vs {pruned_n} pruned schedules");
}

/// The checked-in W9 scope: Algorithm A at N = 5 with the § 4.5 fast
/// path, a seeded root, three writers and two readers, two crashes.
const W9_SCOPE: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/scenarios/w9_explore_n5_2crash.json"
));

/// The W9 scope explored sequentially and by the parallel explorer at
/// 2, 3 and 5 workers: every run finds no violation, reproduces the
/// scope's exact counts, and the merged parallel counters equal the
/// sequential ones field for field (`peak_depth` merges by max).
#[test]
fn w9_scope_counts_are_exact_at_every_worker_count() {
    let spec = ScenarioSpec::parse(W9_SCOPE).expect("the W9 scope parses");
    let espec = spec.explore.as_ref().expect("explore section");
    let cfg = ExploreConfig {
        max_schedules: espec.max_schedules,
        prune: espec.prune,
        max_crashes: espec.max_crashes,
    };
    let parts = explore_parts(&spec).unwrap();
    let initial = parts.initial;
    let check = |h: &History| check_max_register(h, initial).is_ok();
    let sequential = explore(&*parts.setup, &parts.ops, &mut |h| check(h), cfg);
    let expect_clean = |stats: &ExploreStats, violation: bool, truncated: bool, ctx: &str| {
        assert!(!violation, "{ctx}: violation");
        assert!(!truncated, "{ctx}: truncated");
        assert_eq!(
            (stats.schedules, stats.crash_branches, stats.pruned_branches),
            (229_176, 199_254, 30_020),
            "{ctx}: schedules / crash branches / pruned branches"
        );
    };
    expect_clean(
        &sequential.stats,
        sequential.violation.is_some(),
        sequential.truncated,
        "sequential",
    );
    for workers in [2, 3, 5] {
        let parallel = explore_parallel(&*parts.setup, &parts.ops, &check, cfg, workers);
        let ctx = format!("{workers} workers");
        expect_clean(
            &parallel.stats,
            parallel.violation.is_some(),
            parallel.truncated,
            &ctx,
        );
        assert_eq!(parallel.stats, sequential.stats, "{ctx}: merged stats");
        assert_eq!(parallel.worker_schedules.len(), workers, "{ctx}");
        assert_eq!(
            parallel.worker_schedules.iter().sum::<usize>(),
            parallel.schedules,
            "{ctx}: worker shares"
        );
    }
}
