//! The fast checkers run once per explored schedule (229,176 times in
//! one W9 exploration), so at `k = 1` they must not touch the heap once
//! their per-thread buffers have grown. A counting global allocator
//! tallies every `alloc`/`realloc` per thread; after one warm-up pass,
//! checking accepted max-register and counter histories of 5 and 64
//! operations, crash-pending updates included, must count zero, on the
//! test's own thread and on a freshly spawned one.
//!
//! The count is per thread, and the file holds one `#[test]` so that the
//! harness runs nothing else alongside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ruo_sim::history::{History, OpDesc, OpOutput, OpRecord};
use ruo_sim::lin::{check_counter_k, check_interval, check_max_register_k};
use ruo_sim::spec::SeqSpec;
use ruo_sim::{ProcessId, Word};

thread_local! {
    /// `alloc` + `realloc` calls made by this thread. A `const`,
    /// drop-free thread-local never allocates itself, so the allocator
    /// can bump it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards unchanged to `System`; counting has no
// effect on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn op(
    pid: usize,
    desc: OpDesc,
    invoke: usize,
    response: Option<usize>,
    out: Option<Word>,
) -> OpRecord {
    OpRecord {
        pid: ProcessId(pid),
        desc,
        invoke,
        response,
        output: response.map(|_| out.map_or(OpOutput::Unit, OpOutput::Value)),
        steps: 1,
    }
}

/// Five operations, as in one W9 schedule: a completed and a
/// crash-pending write, and reads that see the pending one.
fn max_register_5() -> History {
    [
        op(0, OpDesc::WriteMax(3), 0, Some(3), None),
        op(1, OpDesc::WriteMax(5), 1, None, None),
        op(2, OpDesc::ReadMax, 2, Some(5), Some(5)),
        op(0, OpDesc::ReadMax, 4, Some(7), Some(5)),
        op(2, OpDesc::WriteMax(4), 6, Some(8), None),
    ]
    .into_iter()
    .collect()
}

/// The counter analogue: the pending increment is counted by both reads.
fn counter_5() -> History {
    [
        op(0, OpDesc::CounterIncrement, 0, Some(3), None),
        op(1, OpDesc::CounterIncrement, 1, None, None),
        op(2, OpDesc::CounterRead, 2, Some(5), Some(2)),
        op(0, OpDesc::CounterIncrement, 4, Some(8), None),
        op(2, OpDesc::CounterRead, 6, Some(7), Some(2)),
    ]
    .into_iter()
    .collect()
}

/// 64 operations over 4 processes, each overlapping the next: updates
/// at even positions `t`, reads at odd ones seeing every update invoked
/// before them and returning `read_value(t)`.
fn overlapping_64(
    update: impl Fn(usize) -> OpDesc,
    read: OpDesc,
    read_value: impl Fn(usize) -> Word,
) -> History {
    (0..64)
        .map(|t| {
            if t % 2 == 0 {
                op(t % 4, update(t), 2 * t, Some(2 * t + 3), None)
            } else {
                op(
                    t % 4,
                    read.clone(),
                    2 * t,
                    Some(2 * t + 3),
                    Some(read_value(t)),
                )
            }
        })
        .collect()
}

struct Cases {
    max_registers: Vec<History>,
    counters: Vec<History>,
}

impl Cases {
    fn new() -> Self {
        Cases {
            max_registers: vec![
                max_register_5(),
                overlapping_64(
                    |t| OpDesc::WriteMax(t as Word),
                    OpDesc::ReadMax,
                    |t| (t - 1) as Word,
                ),
            ],
            counters: vec![
                counter_5(),
                overlapping_64(
                    |_| OpDesc::CounterIncrement,
                    OpDesc::CounterRead,
                    |t| t.div_ceil(2) as Word,
                ),
            ],
        }
    }

    /// Confirms every history is linearizable with the complete interval
    /// checker, then runs the fast checkers once so this thread's
    /// buffers reach their steady-state size.
    fn warm_up(&self) {
        for h in &self.max_registers {
            check_interval(h, &SeqSpec::MaxRegister { initial: -1 }).expect("accepted history");
        }
        for h in &self.counters {
            check_interval(h, &SeqSpec::Counter).expect("accepted history");
        }
        self.run_fast();
    }

    fn run_fast(&self) {
        for h in &self.max_registers {
            assert!(check_max_register_k(h, -1, 1).is_ok());
        }
        for h in &self.counters {
            assert!(check_counter_k(h, 1).is_ok());
        }
    }
}

/// Allocations this thread makes while `f` runs.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn fast_checkers_do_not_allocate_in_steady_state() {
    let cases = Cases::new();
    cases.warm_up();
    let on_main = allocations_during(|| {
        for _ in 0..3 {
            cases.run_fast();
        }
    });
    assert_eq!(on_main, 0, "allocations on the test thread after warm-up");

    let on_spawned = std::thread::spawn(move || {
        cases.warm_up();
        allocations_during(|| {
            for _ in 0..3 {
                cases.run_fast();
            }
        })
    })
    .join()
    .unwrap();
    assert_eq!(on_spawned, 0, "allocations on a fresh thread after warm-up");
}
