//! The ECO subsystem's differential guarantee: after any stream of
//! delta batches, the incremental session's answers are **bitwise
//! identical** to rebuilding the edited design from scratch — a fresh
//! timing graph, a fresh full STA, a fresh congestion analyzer, on a
//! design and placement reconstructed by independently replaying the
//! same deltas onto a fresh `benchgen::generate`. The reference design
//! is then built anew with `DesignBuilder` from the cells' final
//! masters, so it never goes through `Design::set_cell_type`: a resize
//! that leaves a pin slot's offset or cap stale shows up as a
//! divergence. Timing summary,
//! every endpoint slack, the congestion report (map hash included) and
//! the placement fingerprint must all agree, at 1 and 4 threads.
//!
//! The delta streams are the shared `benchgen::eco_stress` generator
//! (seeded moves + resizes) with a clock retarget spliced in, so the
//! test crosses all three delta kinds on every case.
//!
//! The change set every apply and revert hands the incremental analyses
//! is checked against an independent oracle too: the touched cells read
//! off the deltas, and the dirty nets recomputed net-major.

use efficient_tdp::benchgen::{self, CircuitParams, EcoStressParams};
use efficient_tdp::eco::{rc_params_for, DeltaBatch, EcoDelta, EcoSession};
use efficient_tdp::netlist::{CellId, Design, DirtySummary, NetId, Placement};
use efficient_tdp::sta::Sta;
use efficient_tdp::tdp_core::Session;
use efficient_tdp::tdp_route::{CongestionAnalyzer, RouteConfig};
use std::collections::BTreeSet;

mod common;

/// Replays the delta batches onto a freshly generated design and its
/// resident placement — deliberately sharing no code with
/// `EcoSession`'s mutation path: moves land in the placement and the
/// clock period in the SDC, and the design is then rebuilt from scratch
/// with the resized cells' final masters.
fn replay(params: &CircuitParams, batches: &[DeltaBatch]) -> (Design, Placement) {
    let (mut design, pads) = benchgen::generate(params);
    let mut placement = efficient_tdp::eco::resident_placement(&design, &pads);
    let mut retype = Vec::new();
    for batch in batches {
        for delta in batch.deltas() {
            match delta {
                EcoDelta::MoveCells(moves) => {
                    for m in moves {
                        placement.set(m.cell, m.x, m.y);
                    }
                }
                EcoDelta::ResizeCells(resizes) => retype.extend_from_slice(resizes),
                EcoDelta::RetargetClock(period) => design.sdc_mut().clock_period = *period,
            }
        }
    }
    (common::rebuilt_with(&design, &retype), placement)
}

/// The cells `batches` move or resize, read off the deltas.
fn touched_cells(batches: &[DeltaBatch]) -> BTreeSet<CellId> {
    let mut touched = BTreeSet::new();
    for delta in batches.iter().flat_map(DeltaBatch::deltas) {
        match delta {
            EcoDelta::MoveCells(moves) => touched.extend(moves.iter().map(|m| m.cell)),
            EcoDelta::ResizeCells(resizes) => touched.extend(resizes.iter().map(|&(c, _)| c)),
            EcoDelta::RetargetClock(_) => {}
        }
    }
    touched
}

/// Asserts `changes` lists exactly the `touched` cells and, recomputed
/// net-major, exactly the nets with a pin on one of them — sharing no
/// code with `DirtySummary`'s cell-major walk.
fn assert_change_set(
    design: &Design,
    changes: &DirtySummary,
    touched: &BTreeSet<CellId>,
    context: &str,
) {
    let cells: Vec<CellId> = touched.iter().copied().collect();
    assert_eq!(changes.moved_cells, cells, "{context}: moved cells");
    let nets: Vec<NetId> = design
        .net_ids()
        .filter(|&n| {
            design
                .net_pins(n)
                .iter()
                .any(|&p| touched.contains(&design.pin(p).cell))
        })
        .collect();
    assert_eq!(changes.dirty_nets, nets, "{context}: dirty nets");
}

/// Asserts the session's current answers equal a from-scratch rebuild
/// of the same edited state, bit for bit.
fn assert_matches_rebuild(
    eco: &mut EcoSession,
    params: &CircuitParams,
    batches: &[DeltaBatch],
    threads: usize,
    context: &str,
) {
    let (design, placement) = replay(params, batches);
    let mut sta = Sta::new(&design, rc_params_for(params)).expect("rebuild timing graph");
    sta.set_threads(threads);
    sta.analyze(&design, &placement);
    let mut congestion = CongestionAnalyzer::new(&design, RouteConfig::default());
    congestion.set_threads(threads);
    congestion.analyze(&design, &placement);

    let q = eco.query(0);
    let reference = sta.summary();
    assert_eq!(
        q.timing.wns.to_bits(),
        reference.wns.to_bits(),
        "{context}: wns diverged from rebuild"
    );
    assert_eq!(
        q.timing.tns.to_bits(),
        reference.tns.to_bits(),
        "{context}: tns diverged from rebuild"
    );
    assert_eq!(q.timing, reference, "{context}: timing summary diverged");

    let slacks = eco.endpoint_slacks();
    let rebuilt = sta.endpoint_slacks();
    assert_eq!(slacks.len(), rebuilt.len(), "{context}: endpoint count");
    for (a, b) in slacks.iter().zip(rebuilt) {
        assert_eq!(a.pin, b.pin, "{context}: endpoint order diverged");
        assert_eq!(
            a.slack.to_bits(),
            b.slack.to_bits(),
            "{context}: slack of {:?} diverged",
            a.pin
        );
    }

    let creport = congestion.summary();
    assert_eq!(
        q.congestion.map_hash, creport.map_hash,
        "{context}: congestion map diverged"
    );
    assert_eq!(
        q.congestion, creport,
        "{context}: congestion report diverged"
    );
    assert_eq!(
        q.placement_hash,
        placement.content_hash(),
        "{context}: placement diverged"
    );
    assert_eq!(
        q.clock_period.to_bits(),
        design.sdc().clock_period.to_bits(),
        "{context}: clock period diverged"
    );
}

/// Runs one case through a randomized delta stream at one thread count,
/// checking against a rebuild after every batch and after a revert.
fn run_case(name: &str, seed: u64, threads: usize) {
    let case = benchgen::case_by_name(name).expect("suite case");
    let (design, pads) = benchgen::generate(&case.params);
    let session = Session::builder(design, pads).build().expect("session");
    let mut eco = EcoSession::open(&session, rc_params_for(&case.params), threads);

    let stream = benchgen::eco_stress(
        eco.design(),
        eco.placement(),
        &EcoStressParams::at_churn(seed, 0.02, 3),
    );
    let mut applied: Vec<DeltaBatch> = Vec::new();
    for (i, step) in stream.iter().enumerate() {
        let mut batch = DeltaBatch::from_step(step);
        if i == 1 {
            // Splice a clock retarget into the middle batch so every
            // delta kind crosses the incremental path on every case.
            batch.push(EcoDelta::RetargetClock(
                eco.design().sdc().clock_period * 0.97,
            ));
        }
        let changes = eco.apply(&batch).expect("generated deltas are valid");
        let context = format!("{name}@{threads}t step {i}");
        assert_eq!(&changes, eco.last_changes(), "{context}");
        assert_change_set(
            eco.design(),
            &changes,
            &touched_cells(std::slice::from_ref(&batch)),
            &context,
        );
        applied.push(batch);
        assert_matches_rebuild(&mut eco, &case.params, &applied, threads, &context);
    }

    // A revert is just another edit: the rolled-back state must also
    // equal its from-scratch rebuild.
    eco.revert().expect("journal is non-empty");
    let reverted = applied.pop().expect("three batches applied");
    let context = format!("{name}@{threads}t after revert");
    assert_change_set(
        eco.design(),
        eco.last_changes(),
        &touched_cells(&[reverted]),
        &context,
    );
    assert_matches_rebuild(&mut eco, &case.params, &applied, threads, &context);
}

#[test]
fn sb1_incremental_matches_rebuild_at_1_and_4_threads() {
    run_case("sb1", 11, 1);
    run_case("sb1", 11, 4);
}

#[test]
fn sb4_incremental_matches_rebuild_at_1_and_4_threads() {
    run_case("sb4", 23, 1);
    run_case("sb4", 23, 4);
}

#[test]
fn mx1_incremental_matches_rebuild_at_1_and_4_threads() {
    run_case("mx1", 5, 1);
    run_case("mx1", 5, 4);
}

/// A resize-only batch, then its revert, on the deep-logic case: the
/// retyped gate arcs live in the copy-on-write timing graph and their
/// delays in the analyzer's slot order, so both the patch and the
/// checkpoint restore must land in the right places.
#[test]
fn dl1_resize_then_revert_matches_rebuild() {
    let name = "dl1";
    let case = benchgen::case_by_name(name).expect("suite case");
    let (design, pads) = benchgen::generate(&case.params);
    let session = Session::builder(design, pads).build().expect("session");
    for threads in [1, 4] {
        let mut eco = EcoSession::open(&session, rc_params_for(&case.params), threads);
        let step = benchgen::eco_stress(
            eco.design(),
            eco.placement(),
            &EcoStressParams {
                resize_fraction: 1.0,
                ..EcoStressParams::at_churn(17, 0.02, 1)
            },
        )
        .remove(0);
        assert!(step.resizes.len() >= 20, "the step must resize cells");
        let batch = DeltaBatch::from_step(&step);
        let touched = touched_cells(std::slice::from_ref(&batch));
        let changes = eco.apply(&batch).expect("generated deltas are valid");
        let context = format!("{name}@{threads}t resized");
        assert_change_set(eco.design(), &changes, &touched, &context);
        assert_matches_rebuild(
            &mut eco,
            &case.params,
            std::slice::from_ref(&batch),
            threads,
            &context,
        );
        eco.revert().expect("journal is non-empty");
        let context = format!("{name}@{threads}t after revert");
        assert_change_set(eco.design(), eco.last_changes(), &touched, &context);
        assert_matches_rebuild(&mut eco, &case.params, &[], threads, &context);
    }
}
