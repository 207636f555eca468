//! Incremental timing updates.
//!
//! A full [`Sta::analyze`] rebuilds every net's RC tree, which dominates
//! analysis cost. Between placement iterations only some cells move, so
//! [`Sta::analyze_changes`] recomputes wire delays for the **dirty nets**
//! of a [`DirtySummary`] (nets with at least one pin on a moved cell)
//! plus the gate arcs whose load changed, then re-propagates. The result
//! is bit-identical to a full analysis.
//!
//! Re-propagation picks one of two strategies from something it can
//! observe, the share of dirty nets:
//!
//! * **a quarter of the nets or more** (the placer moves every cell every
//!   iteration): the flat level-parallel passes, as in a full analysis;
//! * **less** (ECO edits, a 1% nudge): a dirty-bitset sweep in rank order
//!   that re-evaluates only the cone the rewritten arcs reach.
//!
//! There used to be a third branch: the sweep's predecessor, a per-level
//! worklist, gave up and reran the flat pass once it had queued a quarter
//! of the pins — after doing the whole worklist. The sweep walks ranks in
//! memory order and touches each pin at most once, so its worst case *is*
//! a serial flat pass plus one bit test per pin; the budget and its
//! fallback are gone. [`Sta::incr_stats`] reports which strategy each
//! pass took and how many pins the sweeps evaluated.
//!
//! The summary's dirty-net list is sorted and deduplicated, so the
//! refresh order — and the chunk boundaries of the parallel RC rebuild —
//! never depend on the order cells were reported in.

use crate::analysis::Sta;
use netlist::{CellId, Design, DirtySummary, Placement};

impl Sta {
    /// Re-analyzes after the edits `changes` summarizes, reusing every
    /// other net's cached wire delays. Produces exactly the same state as
    /// [`Sta::analyze`] on the same placement.
    ///
    /// # Panics
    ///
    /// Panics if called before an initial full [`Sta::analyze`] (there is
    /// no cache to update incrementally).
    pub fn analyze_changes(
        &mut self,
        design: &Design,
        placement: &Placement,
        changes: &DirtySummary,
    ) {
        assert!(
            self.is_analyzed(),
            "run a full analyze() before an incremental one"
        );
        let _span = tdp_trace::span("sta.incremental", "sta");
        self.refresh_nets(design, placement, &changes.dirty_nets);
        self.repropagate_incremental(design, changes);
    }

    /// [`Sta::analyze_changes`] for moved cells in any order, possibly
    /// repeating, through a [`DirtySummary`] the analyzer reuses.
    pub fn analyze_incremental(
        &mut self,
        design: &Design,
        placement: &Placement,
        moved_cells: &[CellId],
    ) {
        let mut changes = std::mem::take(&mut self.changes);
        changes.rebuild(design, moved_cells);
        self.analyze_changes(design, placement, &changes);
        self.changes = changes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rctree::RcParams;
    use netlist::{CellLibrary, DesignBuilder, Rect, Sdc};

    /// Three-stage chain with a fanout in the middle.
    fn chain() -> (Design, Placement, Vec<CellId>) {
        let mut b = DesignBuilder::new(
            "inc",
            CellLibrary::standard(),
            Rect::new(0.0, 0.0, 500.0, 200.0),
            10.0,
        );
        b.set_sdc(Sdc::new(50.0));
        let pi = b.add_fixed_cell("pi", "IOPAD_IN", 0.0, 100.0).unwrap();
        let a = b.add_cell("a", "INV_X1").unwrap();
        let m = b.add_cell("m", "BUF_X1").unwrap();
        let c = b.add_cell("c", "INV_X1").unwrap();
        let po = b.add_fixed_cell("po", "IOPAD_OUT", 496.0, 100.0).unwrap();
        let po2 = b.add_fixed_cell("po2", "IOPAD_OUT", 496.0, 150.0).unwrap();
        b.add_net("n0", &[(pi, "PAD"), (a, "A")]).unwrap();
        b.add_net("n1", &[(a, "Y"), (m, "A"), (c, "A")]).unwrap();
        b.add_net("n2", &[(m, "Y"), (po, "PAD")]).unwrap();
        b.add_net("n3", &[(c, "Y"), (po2, "PAD")]).unwrap();
        let d = b.finish().unwrap();
        let mut p = Placement::new(&d);
        p.set(pi, 0.0, 100.0);
        p.set(a, 100.0, 100.0);
        p.set(m, 250.0, 100.0);
        p.set(c, 250.0, 150.0);
        p.set(po, 496.0, 100.0);
        p.set(po2, 496.0, 150.0);
        (d, p, vec![a, m, c])
    }

    fn assert_same_state(a: &Sta, b: &Sta, design: &Design) {
        for pin in design.pin_ids() {
            assert_eq!(
                a.arrival(pin),
                b.arrival(pin),
                "arrival at {}",
                design.pin_label(pin)
            );
            assert_eq!(
                a.required(pin),
                b.required(pin),
                "required at {}",
                design.pin_label(pin)
            );
        }
        assert_eq!(a.summary(), b.summary());
    }

    #[test]
    fn incremental_matches_full_analysis_after_single_move() {
        let (d, p0, cells) = chain();
        let rc = RcParams::default();
        let mut full = Sta::new(&d, rc).unwrap();
        let mut inc = Sta::new(&d, rc).unwrap();
        full.analyze(&d, &p0);
        inc.analyze(&d, &p0);

        let mut p1 = p0.clone();
        p1.set(cells[1], 350.0, 60.0);
        full.analyze(&d, &p1);
        inc.analyze_incremental(&d, &p1, &[cells[1]]);
        assert_same_state(&full, &inc, &d);
    }

    #[test]
    fn incremental_matches_after_many_sequential_moves() {
        let (d, p0, cells) = chain();
        let rc = RcParams::default();
        let mut full = Sta::new(&d, rc).unwrap();
        let mut inc = Sta::new(&d, rc).unwrap();
        full.analyze(&d, &p0);
        inc.analyze(&d, &p0);

        let mut p = p0.clone();
        let moves = [
            (0usize, 60.0, 130.0),
            (2, 420.0, 40.0),
            (1, 30.0, 20.0),
            (0, 400.0, 180.0),
        ];
        for (i, x, y) in moves {
            p.set(cells[i], x, y);
            full.analyze(&d, &p);
            inc.analyze_incremental(&d, &p, &[cells[i]]);
            assert_same_state(&full, &inc, &d);
        }
    }

    #[test]
    fn moving_an_unconnected_region_leaves_far_delays_alone() {
        let (d, p0, cells) = chain();
        let rc = RcParams::default();
        let mut sta = Sta::new(&d, rc).unwrap();
        sta.analyze(&d, &p0);
        // Arc delays on n2 (m -> po) before moving c (which is not on n2).
        let po_pin = d.cell_pin(d.find_cell("po").unwrap(), 0);
        let arc_into_po = sta.graph().in_arcs(po_pin).next().unwrap();
        let before = sta.arc_delay(arc_into_po);

        let mut p1 = p0.clone();
        p1.set(cells[2], 10.0, 10.0); // move c
        sta.analyze_incremental(&d, &p1, &[cells[2]]);
        assert_eq!(sta.arc_delay(arc_into_po), before);
    }

    #[test]
    #[should_panic(expected = "full analyze")]
    fn incremental_before_full_panics() {
        let (d, p, cells) = chain();
        let mut sta = Sta::new(&d, RcParams::default()).unwrap();
        sta.analyze_incremental(&d, &p, &[cells[0]]);
    }

    #[test]
    fn empty_move_set_is_a_noop_reanalysis() {
        let (d, p, _) = chain();
        let rc = RcParams::default();
        let mut sta = Sta::new(&d, rc).unwrap();
        sta.analyze(&d, &p);
        let before = sta.summary();
        sta.analyze_incremental(&d, &p, &[]);
        assert_eq!(sta.summary(), before);
    }
}
