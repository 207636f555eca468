//! Heap allocations of the placer's iteration.
//!
//! A one-test binary: the counting `#[global_allocator]` is process-wide
//! (the count itself is per thread, so the harness's own threads do not
//! disturb it).
//!
//! * `ElectrostaticDensity::update` owns its plans, grids and tables, so
//!   after construction a density solve allocates nothing.
//! * `GlobalPlacer::run` allocates per run (the optimizer vectors, the
//!   frozen cell data, the result), never per iteration: 40 and 80
//!   iterations cost the same number of allocations. The runs are serial
//!   (threads=1): a multi-threaded `parx` dispatch allocates its result
//!   slots and spawns scoped threads on every call, so only the serial
//!   iteration is allocation-free.
//! * The iteration budget is caller-chosen (a job's `max_iters`), so a run
//!   that converges early reserves memory for the iterations it runs, not
//!   for its budget.

use efficient_tdp::benchgen::{self, CircuitParams};
use efficient_tdp::placer::{ElectrostaticDensity, GlobalPlacer, MovableCells, PlacerConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn bump(bytes: usize) {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: defers every operation to `System`; the counters are
// const-initialized thread-local `Cell`s without a destructor, so touching
// them never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` performs on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Bytes `f` requests from the allocator on this thread.
fn bytes_requested<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

#[test]
fn placer_iteration_is_allocation_free() {
    let (design, pads) = benchgen::generate(&CircuitParams::small("alloc", 31));
    let placement = benchgen::scatter_placement(&design, &pads, 5);

    // The density solve, both entries, on a square and a non-square grid.
    for (nx, ny) in [(32, 32), (16, 64)] {
        let mut density = ElectrostaticDensity::new(&design, &pads, nx, ny, 1.0);
        let cells = MovableCells::new(&design, density.grid());
        let (_, n) = allocations(|| density.update(&design, &placement));
        assert_eq!(n, 0, "update allocated on a {nx}x{ny} grid");
        let (_, n) = allocations(|| density.update_frozen(&cells, &placement));
        assert_eq!(n, 0, "update_frozen allocated on a {nx}x{ny} grid");
    }

    // Whole runs: never stop early, serial kernels, so every allocation
    // lands on this thread.
    let run = |iterations: usize| {
        let config = PlacerConfig {
            max_iterations: iterations,
            min_iterations: iterations,
            stop_overflow: -1.0,
            threads: 1,
            ..PlacerConfig::default()
        };
        let mut placer = GlobalPlacer::new(&design, pads.clone(), config);
        let (result, n) = allocations(|| placer.run(&design));
        assert_eq!(result.iterations, iterations);
        n
    };
    let short = run(40);
    let long = run(80);
    assert_eq!(
        short, long,
        "40 iterations allocated {short} times, 80 iterations {long} times"
    );

    // A huge budget that the run never nears: what it allocates must not
    // grow with the budget (one trace row per budgeted iteration would be
    // 400 MB here).
    let budget = 10_000_000;
    let config = PlacerConfig {
        max_iterations: budget,
        min_iterations: 10,
        threads: 1,
        ..PlacerConfig::default()
    };
    let mut placer = GlobalPlacer::new(&design, pads.clone(), config);
    let (result, bytes) = bytes_requested(|| placer.run(&design));
    assert!(
        result.iterations < 2_000,
        "the run did not converge early: {} iterations",
        result.iterations
    );
    assert!(
        bytes < 16 << 20,
        "a run of {} iterations on a budget of {budget} requested {bytes} bytes",
        result.iterations
    );
}
