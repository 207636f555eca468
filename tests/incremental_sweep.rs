//! The incremental re-analysis against a fresh full analysis, across
//! both of its strategies.
//!
//! `Sta::analyze_incremental` re-propagates either with a dirty-bitset
//! sweep in rank order (local churn) or with the flat level-parallel
//! passes (a quarter of the nets or more are dirty). Whichever it picks,
//! arrival, required, the worst-predecessor tree, the endpoint order and
//! the summary must equal — bit for bit — what an analyzer that has never
//! seen an incremental update computes from scratch, round after
//! cumulative round and at every thread count. The sweep's work counters
//! must repeat exactly, which is what lets them carry a claim on a noisy
//! machine.
//!
//! Both entry points are held to that: `analyze_incremental` takes its
//! cell list in any order and with repeats (odd rounds pass it reversed
//! with one cell twice), and a twin analyzer fed the same round through
//! `analyze_changes` and a `DirtySummary` must match the same fresh
//! analysis and do the same work.

use efficient_tdp::benchgen::{self, CircuitParams, EcoStressParams};
use efficient_tdp::eco::rc_params_for;
use efficient_tdp::netlist::{CellId, Design, DirtySummary, Placement};
use efficient_tdp::sta::{IncrStats, Sta};
use std::collections::BTreeSet;

/// Churn levels of the cumulative rounds; the last one dirties more than
/// a quarter of the nets and crosses over to the flat passes.
const CHURNS: [f64; 4] = [0.001, 0.01, 0.05, 0.30];
const ROUNDS_PER_CHURN: usize = 3;

fn assert_same_state(design: &Design, incremental: &Sta, fresh: &Sta, context: &str) {
    for pin in design.pin_ids() {
        assert_eq!(
            incremental.arrival(pin).map(f64::to_bits),
            fresh.arrival(pin).map(f64::to_bits),
            "{context}: arrival at {}",
            design.pin_label(pin)
        );
        assert_eq!(
            incremental.required(pin).map(f64::to_bits),
            fresh.required(pin).map(f64::to_bits),
            "{context}: required at {}",
            design.pin_label(pin)
        );
        assert_eq!(
            incremental.worst_pred(pin),
            fresh.worst_pred(pin),
            "{context}: worst predecessor of {}",
            design.pin_label(pin)
        );
    }
    let (a, b) = (incremental.endpoint_slacks(), fresh.endpoint_slacks());
    assert_eq!(a.len(), b.len(), "{context}: endpoint count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.pin, y.pin, "{context}: endpoint order");
        assert_eq!(x.slack.to_bits(), y.slack.to_bits(), "{context}: slack");
    }
    let (s, t) = (incremental.summary(), fresh.summary());
    assert_eq!(s.wns.to_bits(), t.wns.to_bits(), "{context}: wns");
    assert_eq!(s.tns.to_bits(), t.tns.to_bits(), "{context}: tns");
    assert_eq!(s, t, "{context}: summary");
}

/// Whether the moved cells dirty a quarter of the nets — the guard
/// `analyze_incremental` selects its strategy by, recomputed here from
/// the netlist alone.
fn crosses_guard(design: &Design, moved: &[CellId]) -> bool {
    let dirty: BTreeSet<_> = moved
        .iter()
        .flat_map(|&c| design.cell_pins(c))
        .filter_map(|p| design.pin(p).net)
        .collect();
    dirty.len() * 4 >= design.num_nets()
}

/// Runs every churn level's rounds cumulatively on one analyzer and
/// returns each round's counters.
fn run(threads: usize) -> Vec<IncrStats> {
    let params = CircuitParams::deep_logic("sweep", 221);
    let (design, pads) = benchgen::generate(&params);
    let mut placement: Placement = benchgen::scatter_placement(&design, &pads, 7);
    let rc = rc_params_for(&params);
    let mut sta = Sta::new(&design, rc)
        .expect("acyclic")
        .with_threads(threads);
    sta.analyze(&design, &placement);
    let mut twin = Sta::new(&design, rc)
        .expect("acyclic")
        .with_threads(threads);
    twin.analyze(&design, &placement);

    let mut per_round = Vec::new();
    for (level, &churn) in CHURNS.iter().enumerate() {
        let stream = benchgen::eco_stress(
            &design,
            &placement,
            &EcoStressParams {
                seed: 31 + level as u64,
                churn,
                steps: ROUNDS_PER_CHURN,
                resize_fraction: 0.0,
                move_span: 0.05,
            },
        );
        for (round, step) in stream.iter().enumerate() {
            let context = format!("churn {churn} round {round} at {threads} threads");
            let mut moved: Vec<CellId> = step.moves.iter().map(|m| m.cell).collect();
            for m in &step.moves {
                placement.set(m.cell, m.x, m.y);
            }
            if per_round.len() % 2 == 1 {
                moved.reverse();
                moved.push(moved[0]);
            }
            let before = sta.incr_stats();
            sta.analyze_incremental(&design, &placement, &moved);
            let stats = sta.incr_stats().since(before);
            let before = twin.incr_stats();
            let changes = DirtySummary::from_moved_cells(&design, &moved);
            twin.analyze_changes(&design, &placement, &changes);
            assert_eq!(twin.incr_stats().since(before), stats, "{context}: twin");

            let mut fresh = Sta::new(&design, rc).expect("acyclic");
            fresh.analyze(&design, &placement);
            assert_same_state(&design, &sta, &fresh, &context);
            assert_same_state(&design, &twin, &fresh, &format!("{context} via changes"));

            let flat = crosses_guard(&design, &moved);
            assert_eq!(flat, churn == 0.30, "{context}: which side of the guard");
            if flat {
                assert_eq!((stats.sweeps, stats.flat_passes), (0, 2), "{context}");
                assert_eq!(stats.pins_evaluated, 0, "{context}");
            } else {
                assert_eq!((stats.sweeps, stats.flat_passes), (2, 0), "{context}");
                assert!(
                    stats.pins_changed > 0 && stats.pins_changed <= stats.pins_evaluated,
                    "{context}: {stats:?}"
                );
            }
            if churn == 0.01 {
                assert!(
                    (stats.pins_evaluated as usize) < design.num_pins() / 2,
                    "{context}: a 1% nudge evaluated {} of {} pins",
                    stats.pins_evaluated,
                    design.num_pins()
                );
            }
            per_round.push(stats);
        }
    }
    per_round
}

#[test]
fn sweep_and_flat_passes_match_a_fresh_full_analysis_bitwise() {
    let serial = run(1);
    assert_eq!(serial.len(), CHURNS.len() * ROUNDS_PER_CHURN);
    assert_eq!(serial, run(1), "counters must repeat exactly");
    assert_eq!(
        serial,
        run(2),
        "counters must not depend on the thread count"
    );
}
