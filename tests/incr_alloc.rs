//! Heap allocations of the timing iteration's two `sta` calls.
//!
//! A one-test binary: the counting `#[global_allocator]` is process-wide
//! (the count itself is per thread, so the harness's own threads do not
//! disturb it).
//!
//! * A steady-state `analyze_incremental` keeps its dirty-net list and
//!   sweep bitset as scratch on the analyzer, so it performs a small
//!   constant number of allocations — the stable endpoint sort's buffer —
//!   however many nets are dirty and however many pins the sweep visits.
//! * `report_timing_endpoint(n, 1)` is a heap-free backtrace per
//!   endpoint: one allocation per returned path (its elements) plus the
//!   result vector and the few doublings of the shared scratch.

use efficient_tdp::benchgen::{self, CircuitParams, EcoStressParams};
use efficient_tdp::eco::rc_params_for;
use efficient_tdp::netlist::CellId;
use efficient_tdp::sta::Sta;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn bump() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: defers every operation to `System`; the counter is a
// const-initialized thread-local `Cell` without a destructor, so touching
// it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
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

#[test]
fn timing_iteration_allocations_do_not_scale_with_the_work() {
    let params = CircuitParams::deep_logic("alloc", 221);
    let (design, pads) = benchgen::generate(&params);
    let base = benchgen::scatter_placement(&design, &pads, 7);
    let mut sta = Sta::new(&design, rc_params_for(&params)).expect("acyclic");
    sta.analyze(&design, &base);

    // Two nudges two orders of magnitude apart, both on the sweep side of
    // the dirty-net guard.
    let nudge = |churn: f64| {
        let step = benchgen::eco_stress(
            &design,
            &base,
            &EcoStressParams {
                seed: 5,
                churn,
                steps: 1,
                resize_fraction: 0.0,
                move_span: 0.05,
            },
        )
        .remove(0);
        let mut placement = base.clone();
        for m in &step.moves {
            placement.set(m.cell, m.x, m.y);
        }
        let cells: Vec<CellId> = step.moves.iter().map(|m| m.cell).collect();
        (placement, cells)
    };
    let (small_placement, small_cells) = nudge(0.001);
    let (large_placement, large_cells) = nudge(0.05);
    assert!(large_cells.len() >= 50 * small_cells.len());

    // Warm the scratch with the larger update, return to the base.
    sta.analyze_incremental(&design, &large_placement, &large_cells);
    sta.analyze_incremental(&design, &base, &large_cells);

    let before = sta.incr_stats();
    let ((), small) = allocations(|| {
        sta.analyze_incremental(&design, &small_placement, &small_cells);
    });
    let small_pins = sta.incr_stats().since(before).pins_evaluated;
    sta.analyze_incremental(&design, &base, &small_cells);
    let before = sta.incr_stats();
    let ((), large) = allocations(|| {
        sta.analyze_incremental(&design, &large_placement, &large_cells);
    });
    let large_stats = sta.incr_stats().since(before);
    assert_eq!(large_stats.sweeps, 2, "the larger nudge must still sweep");
    assert!(
        large_stats.pins_evaluated > 4 * small_pins,
        "the two updates must differ in work: {small_pins} vs {} pins",
        large_stats.pins_evaluated
    );
    assert_eq!(
        small, large,
        "allocations must not depend on dirty nets or pins visited"
    );
    assert!(large <= 2, "steady-state update allocated {large} times");

    // Extraction at k = 1: the result vector, one element vector per
    // path, and the shared backtrace scratch doubling up to the longest
    // path.
    let failing = sta.failing_endpoints().len();
    assert!(
        failing > 100,
        "need a real extraction, got {failing} endpoints"
    );
    let (paths, extraction) = allocations(|| sta.report_timing_endpoint(&design, failing, 1));
    assert_eq!(paths.len(), failing);
    let longest = paths.iter().map(|p| p.len()).max().expect("paths");
    let scratch_doublings = u64::from(longest.next_power_of_two().trailing_zeros()) + 1;
    assert!(
        extraction <= 1 + failing as u64 + scratch_doublings,
        "{extraction} allocations for {failing} paths (longest {longest} pins)"
    );
}
