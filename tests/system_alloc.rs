//! The system driver allocates per run, never per cycle.
//!
//! A counting global allocator tallies the allocations this thread makes
//! inside `run_system`. Growing a kernel's trip count fourfold must not
//! change the tally: a window feed counts the words its BRAM read port
//! has issued and gathers each window from the BRAM's contents, and
//! output addresses are computed without a scratch vector. Both kernels
//! are feed forward and read only BRAMs, so their values are computed
//! ahead in 16-lane tiles; both trip counts of each case send at least 16
//! tiles and wrap the ring of computed rows several times, so that ring
//! is reused, not grown. Optimised
//! builds may elide a short-lived temporary allocation altogether, so the
//! check is strictest in the default (unoptimised) test profile.

use roccc_suite::roccc::{compile, CompileOptions, Compiled};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a const-initialised thread-local that never allocates.
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
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations this thread makes in one `Compiled::run` over `arrays`,
/// plus the cycles the run took.
fn run_allocs(hw: &Compiled, arrays: &HashMap<String, Vec<i64>>) -> (u64, u64) {
    let scalars = HashMap::new();
    let before = ALLOCS.with(Cell::get);
    let run = hw.run(arrays, &scalars).unwrap();
    let allocs = ALLOCS.with(Cell::get) - before;
    (allocs, run.cycles)
}

fn ramp(n: usize) -> Vec<i64> {
    (0..n as i64).map(|x| x * 7 % 61 - 30).collect()
}

#[test]
fn one_d_run_allocations_do_not_grow_with_trip_count() {
    let fir = |n: usize| {
        format!(
            "void fir(int16 A[{}], int16 Y[{n}]) {{ int i;
               for (i = 0; i < {n}; i = i + 1) {{
                 Y[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4]; }} }}",
            n + 4
        )
    };
    let mut tallies = Vec::new();
    for n in [256, 1024] {
        let hw = compile(&fir(n), "fir", &CompileOptions::default()).unwrap();
        assert!(!hw.sim_plan().unwrap().has_feedback(), "test premise");
        let arrays = HashMap::from([("A".to_string(), ramp(n + 4))]);
        tallies.push(run_allocs(&hw, &arrays));
    }
    let (small, big) = (tallies[0], tallies[1]);
    assert!(big.1 > 3 * small.1, "trip count did not grow: {tallies:?}");
    assert_eq!(
        small.0, big.0,
        "allocations grew with the trip count: {tallies:?}"
    );
}

#[test]
fn two_d_run_allocations_do_not_grow_with_trip_count() {
    let blur = |rows: usize| {
        format!(
            "void blur(int16 X[{rows}][12], int16 Y[{rows}][12]) {{
               int i; int j;
               for (i = 0; i < {}; i++) {{
                 for (j = 0; j < 10; j++) {{
                   Y[i][j] = X[i][j] + X[i][j+2] + X[i+1][j+1]
                           - X[i+2][j] - X[i+2][j+2];
                 }}
               }}
             }}",
            rows - 2
        )
    };
    let mut tallies = Vec::new();
    for rows in [30, 120] {
        let hw = compile(&blur(rows), "blur", &CompileOptions::default()).unwrap();
        assert!(!hw.sim_plan().unwrap().has_feedback(), "test premise");
        let arrays = HashMap::from([("X".to_string(), ramp(rows * 12))]);
        tallies.push(run_allocs(&hw, &arrays));
    }
    let (small, big) = (tallies[0], tallies[1]);
    assert!(big.1 > 3 * small.1, "trip count did not grow: {tallies:?}");
    assert_eq!(
        small.0, big.0,
        "allocations grew with the trip count: {tallies:?}"
    );
}
