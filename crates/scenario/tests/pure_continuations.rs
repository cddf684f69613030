//! Step-machine continuations must be pure: the explorer clones a
//! machine before each step and puts the clone back on backtrack, so a
//! clone fed the same response as its original must take the same next
//! step, count the same steps and return the same result.
//!
//! For every registry implementation with a simulator face, this test
//! drives the machines under seeded random schedules, clones the
//! stepped machine at every step and feeds the clone and the original
//! the same response. Counters and max registers (k-accurate ones
//! included) come from `explore_parts`, the explorer's own scope
//! builder; snapshots, which the explorer cannot carry, come from the
//! registry constructor the executor uses, and their scan tokens must
//! name the same vector.

use ruo_scenario::{
    build_sim_object, explore_parts, registry, AccuracySpec, EngineKind, ExploreSpec, Family,
    OpKind, ScenarioOp, ScenarioSpec, SimObject,
};
use ruo_sim::{Machine, Memory, ProcessId, SplitMix64};

const N: usize = 4;
const SEEDS: u64 = 16;

/// Drives `machines` (one per process, `machines[i]` run by `ProcessId(i)`)
/// to completion under a schedule drawn from `seed`. At every step the
/// stepped machine is cloned and both copies are fed the response.
/// Returns each machine's result.
fn drive_with_twins(
    ctx: &str,
    mem: &mut Memory,
    mut machines: Vec<Machine>,
    seed: u64,
) -> Vec<i64> {
    let mut rng = SplitMix64::new(seed);
    loop {
        let runnable: Vec<usize> = (0..machines.len())
            .filter(|&i| !machines[i].is_done())
            .collect();
        if runnable.is_empty() {
            break;
        }
        let i = runnable[rng.gen_index(runnable.len())];
        let mut twin = machines[i].clone();
        let prim = machines[i].enabled().expect("runnable machine has a step");
        assert_eq!(twin.enabled(), Some(prim), "{ctx}: clone's enabled step");
        let resp = mem.apply(ProcessId(i), prim);
        let finished = machines[i].feed(resp);
        assert_eq!(
            twin.feed(resp),
            finished,
            "{ctx}: completion after {prim:?}"
        );
        let original = &machines[i];
        assert_eq!(twin.enabled(), original.enabled(), "{ctx}: next step");
        assert_eq!(twin.steps(), original.steps(), "{ctx}: step count");
        assert_eq!(twin.result(), original.result(), "{ctx}: result");
    }
    machines.iter().map(|m| m.result().expect("done")).collect()
}

/// A scope of `N - 1` updaters and one reader.
fn explore_spec(family: Family, id: &str, k: Option<u64>, root_fast_path: bool) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new("pure", family, id, EngineKind::Explore, N);
    spec.root_fast_path = root_fast_path;
    spec.accuracy = k.map(|k| AccuracySpec { k });
    spec.explore = Some(ExploreSpec {
        seed_update: (family == Family::MaxReg).then_some(3),
        ops: (0..N)
            .map(|pid| ScenarioOp {
                pid,
                kind: if pid + 1 < N {
                    OpKind::Update
                } else {
                    OpKind::Read
                },
                value: [5, 2, 3][pid % 3],
            })
            .collect(),
        max_schedules: 1,
        prune: true,
        max_crashes: 0,
        workers: 1,
    });
    spec
}

#[test]
fn cloned_counter_and_maxreg_machines_step_like_their_originals() {
    let mut checked = 0;
    for entry in registry() {
        if !entry.has_sim() || entry.family == Family::Snapshot {
            continue;
        }
        let ks: &[Option<u64>] = if entry.caps.accuracy.is_some() {
            &[None, Some(2)]
        } else {
            &[None]
        };
        for &k in ks {
            for root_fast_path in [false, true] {
                let spec = explore_spec(entry.family, entry.id, k, root_fast_path);
                let parts = explore_parts(&spec).expect("scope builds");
                for seed in 0..SEEDS {
                    let (mut mem, machines) = (parts.setup)();
                    let ctx = format!(
                        "{}/{} k={k:?} fast_path={root_fast_path} seed={seed}",
                        entry.family, entry.id
                    );
                    drive_with_twins(&ctx, &mut mem, machines, seed);
                }
            }
        }
        checked += 1;
    }
    assert!(checked >= 10, "only {checked} counter/maxreg sim faces");
}

#[test]
fn cloned_snapshot_machines_step_like_their_originals() {
    let mut checked = 0;
    for entry in registry() {
        if !entry.has_sim() || entry.family != Family::Snapshot {
            continue;
        }
        let spec = ScenarioSpec::new("pure", Family::Snapshot, entry.id, EngineKind::Sim, N);
        for seed in 0..SEEDS {
            let (mut mem, obj) = build_sim_object(&spec).expect("snapshot builds");
            let SimObject::Snapshot(snap) = obj else {
                panic!("{} built a non-snapshot", entry.id);
            };
            // Two scanners race two updaters, so scans retry.
            let machines = (0..N)
                .map(|pid| {
                    if pid % 2 == 0 {
                        snap.update(ProcessId(pid), 7 + pid as u64)
                    } else {
                        snap.scan(ProcessId(pid))
                    }
                })
                .collect();
            let ctx = format!("snapshot/{} seed={seed}", entry.id);
            let results = drive_with_twins(&ctx, &mut mem, machines, seed);
            for pid in (1..N).step_by(2) {
                let scanned = snap.take_scan_result(results[pid]);
                assert_eq!(scanned.len(), N, "{ctx}: scan width");
                for (seg, &v) in scanned.iter().enumerate() {
                    assert!(v == 0 || v == 7 + seg as u64, "{ctx}: segment {seg} = {v}");
                }
            }
        }
        checked += 1;
    }
    assert!(checked >= 1, "no snapshot sim face");
}
