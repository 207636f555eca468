//! Cell coordinates and derived geometry.

use crate::design::Design;
use crate::fnv;
use crate::ids::{CellId, NetId, PinId};

/// Cell lower-left coordinates, indexed by [`CellId`].
///
/// A `Placement` is intentionally separate from the [`Design`]: the placer
/// iterates over many candidate placements of one immutable design.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    x: Vec<f64>,
    y: Vec<f64>,
}

impl Placement {
    /// Creates an all-zero placement sized for `design`.
    pub fn new(design: &Design) -> Self {
        Self {
            x: vec![0.0; design.num_cells()],
            y: vec![0.0; design.num_cells()],
        }
    }

    /// Creates a placement from raw coordinate vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn from_coords(x: Vec<f64>, y: Vec<f64>) -> Self {
        assert_eq!(x.len(), y.len(), "coordinate vectors must match");
        Self { x, y }
    }

    /// Number of cells covered.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Whether the placement is empty.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Lower-left position of a cell.
    pub fn get(&self, cell: CellId) -> (f64, f64) {
        (self.x[cell.index()], self.y[cell.index()])
    }

    /// Sets the lower-left position of a cell.
    pub fn set(&mut self, cell: CellId, x: f64, y: f64) {
        self.x[cell.index()] = x;
        self.y[cell.index()] = y;
    }

    /// Raw x coordinates (cell order).
    pub fn xs(&self) -> &[f64] {
        &self.x
    }

    /// Raw y coordinates (cell order).
    pub fn ys(&self) -> &[f64] {
        &self.y
    }

    /// Mutable raw x coordinates.
    pub fn xs_mut(&mut self) -> &mut [f64] {
        &mut self.x
    }

    /// Mutable raw y coordinates.
    pub fn ys_mut(&mut self) -> &mut [f64] {
        &mut self.y
    }

    /// Center position of a cell given its master footprint.
    pub fn cell_center(&self, design: &Design, cell: CellId) -> (f64, f64) {
        let ty = design.cell_type(cell);
        (
            self.x[cell.index()] + ty.width / 2.0,
            self.y[cell.index()] + ty.height / 2.0,
        )
    }

    /// Absolute position of a pin: cell origin plus the master pin offset.
    pub fn pin_position(&self, design: &Design, pin: PinId) -> (f64, f64) {
        let p = design.pin(pin);
        let spec = design.pin_spec(pin);
        (
            self.x[p.cell.index()] + spec.dx,
            self.y[p.cell.index()] + spec.dy,
        )
    }

    /// Exact half-perimeter wirelength of one net.
    pub fn net_hpwl(&self, design: &Design, net: NetId) -> f64 {
        let topology = design.topology();
        let slots = topology.net_slots(net);
        if slots.len() < 2 {
            return 0.0;
        }
        let (cells, dx, dy) = (topology.slot_cell(), topology.slot_dx(), topology.slot_dy());
        let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
        for s in slots {
            let c = cells[s] as usize;
            let (px, py) = (self.x[c] + dx[s], self.y[c] + dy[s]);
            min_x = min_x.min(px);
            max_x = max_x.max(px);
            min_y = min_y.min(py);
            max_y = max_y.max(py);
        }
        (max_x - min_x) + (max_y - min_y)
    }

    /// Exact total half-perimeter wirelength over all nets.
    pub fn total_hpwl(&self, design: &Design) -> f64 {
        design.net_ids().map(|n| self.net_hpwl(design, n)).sum()
    }

    /// Manhattan distance between two pins.
    pub fn pin_manhattan(&self, design: &Design, a: PinId, b: PinId) -> f64 {
        let (ax, ay) = self.pin_position(design, a);
        let (bx, by) = self.pin_position(design, b);
        (ax - bx).abs() + (ay - by).abs()
    }

    /// Euclidean distance between two pins.
    pub fn pin_euclidean(&self, design: &Design, a: PinId, b: PinId) -> f64 {
        let (ax, ay) = self.pin_position(design, a);
        let (bx, by) = self.pin_position(design, b);
        ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()
    }

    /// A bitwise fingerprint of the placement: FNV-1a over the IEEE-754
    /// bit patterns of every coordinate in cell order.
    ///
    /// Two placements hash equal iff they are bit-identical (modulo hash
    /// collisions), so the fingerprint can stand in for the full
    /// coordinate vectors in differential guarantees — e.g. "a placement
    /// computed by the serve daemon matches a local run" — without
    /// shipping or retaining the placement itself. `-0.0` and `0.0` hash
    /// differently, as do different NaN payloads: this is equality of
    /// bits, not of numbers.
    pub fn content_hash(&self) -> u64 {
        self.x
            .iter()
            .chain(&self.y)
            .fold(fnv::OFFSET, |h, &v| fnv::mix_f64(h, v))
    }

    /// Clamps every movable cell inside the die (fixed cells untouched).
    pub fn clamp_to_die(&mut self, design: &Design) {
        let die = design.die();
        for cell in design.cell_ids() {
            if design.cell(cell).fixed {
                continue;
            }
            let ty = design.cell_type(cell);
            let i = cell.index();
            self.x[i] = self.x[i].clamp(die.lx, (die.ux - ty.width).max(die.lx));
            self.y[i] = self.y[i].clamp(die.ly, (die.uy - ty.height).max(die.ly));
        }
    }
}

/// Tracks which cells moved since a reference snapshot — the feed for
/// incremental timing analysis.
///
/// The placement engine hands the tracker to the timing objective, which
/// calls [`MoveTracker::take_changes`] every time it consumes the moved
/// set. A cell is reported iff its position differs from the one it had
/// when it was last taken (or at the snapshot), so every nonzero
/// displacement is reported and incremental analysis stays bit-identical
/// to a full one.
#[derive(Debug, Clone)]
pub struct MoveTracker {
    base_x: Vec<f64>,
    base_y: Vec<f64>,
}

impl MoveTracker {
    /// Snapshots `placement` as the reference state.
    pub fn new(placement: &Placement) -> Self {
        Self {
            base_x: placement.x.clone(),
            base_y: placement.y.clone(),
        }
    }

    /// Rebuilds `changes` in place from the cells displaced since they
    /// were last taken, and advances their references. One pass.
    ///
    /// # Panics
    ///
    /// Panics if `placement` covers a different cell count than the
    /// snapshot.
    pub fn take_changes(
        &mut self,
        design: &Design,
        placement: &Placement,
        changes: &mut DirtySummary,
    ) {
        assert_eq!(placement.len(), self.base_x.len(), "placement size changed");
        changes.moved_cells.clear();
        for i in 0..self.base_x.len() {
            let d =
                (placement.x[i] - self.base_x[i]).abs() + (placement.y[i] - self.base_y[i]).abs();
            if d > 0.0 {
                self.base_x[i] = placement.x[i];
                self.base_y[i] = placement.y[i];
                changes.moved_cells.push(CellId::new(i));
            }
        }
        changes.collect_dirty_nets(design);
    }
}

/// One requested cell relocation: the unit of ECO move batches.
///
/// Coordinates are absolute lower-left positions, like [`Placement::set`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellMove {
    /// The cell to move.
    pub cell: CellId,
    /// New lower-left x.
    pub x: f64,
    /// New lower-left y.
    pub y: f64,
}

/// What a batch of edits dirtied: the one change set every incremental
/// analysis consumes (`Sta::analyze_changes`,
/// `CongestionAnalyzer::analyze_changes`, the ECO session and the
/// placement engine's timing hook).
///
/// Both lists are sorted by index and deduplicated.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirtySummary {
    /// Cells whose coordinates or master changed (an ECO resize lists the
    /// retyped cell here too: its gate arcs must be re-timed), sorted by
    /// cell index, deduplicated.
    pub moved_cells: Vec<CellId>,
    /// Nets with at least one pin on a moved cell, sorted, deduplicated.
    pub dirty_nets: Vec<NetId>,
}

impl DirtySummary {
    /// Builds the summary for a set of moved cells: sorts and dedups the
    /// cells, then collects every net incident to them, sorted and deduped.
    pub fn from_moved_cells(design: &Design, moved: &[CellId]) -> Self {
        let mut summary = Self::default();
        summary.rebuild(design, moved);
        summary
    }

    /// [`DirtySummary::from_moved_cells`] in place: `moved` may be in any
    /// order and repeat cells; both lists keep their capacity, so a
    /// steady-state rebuild allocates nothing.
    pub fn rebuild(&mut self, design: &Design, moved: &[CellId]) {
        self.moved_cells.clear();
        self.moved_cells.extend_from_slice(moved);
        self.moved_cells.sort_unstable();
        self.moved_cells.dedup();
        self.collect_dirty_nets(design);
    }

    /// Recomputes `dirty_nets` from `moved_cells`.
    fn collect_dirty_nets(&mut self, design: &Design) {
        self.dirty_nets.clear();
        for &cell in &self.moved_cells {
            for pin in design.cell_pins(cell) {
                if let Some(net) = design.pin(pin).net {
                    self.dirty_nets.push(net);
                }
            }
        }
        self.dirty_nets.sort_unstable();
        self.dirty_nets.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{DesignBuilder, Rect};
    use crate::library::CellLibrary;

    fn two_inv_design() -> (Design, CellId, CellId) {
        let mut b = DesignBuilder::new(
            "t",
            CellLibrary::standard(),
            Rect::new(0.0, 0.0, 100.0, 100.0),
            10.0,
        );
        let pi = b.add_fixed_cell("pi", "IOPAD_IN", 0.0, 50.0).unwrap();
        let u1 = b.add_cell("u1", "INV_X1").unwrap();
        let u2 = b.add_cell("u2", "INV_X1").unwrap();
        let po = b.add_fixed_cell("po", "IOPAD_OUT", 96.0, 50.0).unwrap();
        b.add_net("n0", &[(pi, "PAD"), (u1, "A")]).unwrap();
        b.add_net("n1", &[(u1, "Y"), (u2, "A")]).unwrap();
        b.add_net("n2", &[(u2, "Y"), (po, "PAD")]).unwrap();
        (b.finish().unwrap(), u1, u2)
    }

    #[test]
    fn pin_positions_include_offsets() {
        let (d, u1, _) = two_inv_design();
        let mut p = Placement::new(&d);
        p.set(u1, 10.0, 20.0);
        let a = d.cell_pin(u1, 0);
        let y = d.cell_pin(u1, 1);
        assert_eq!(p.pin_position(&d, a), (10.0, 25.0)); // A at (0, h/2)
        assert_eq!(p.pin_position(&d, y), (12.0, 25.0)); // Y at (w, h/2)
    }

    #[test]
    fn hpwl_matches_hand_computation() {
        let (d, u1, u2) = two_inv_design();
        let mut p = Placement::new(&d);
        // pi fixed at (0,50), po at (96,50); pads PAD offset (2, 5).
        p.set(d.find_cell("pi").unwrap(), 0.0, 50.0);
        p.set(d.find_cell("po").unwrap(), 96.0, 50.0);
        p.set(u1, 30.0, 50.0);
        p.set(u2, 60.0, 50.0);
        // n0: pi PAD (2,55) -> u1 A (30,55): HPWL 28.
        let n0 = d.net(crate::ids::NetId::new(0));
        assert_eq!(n0.name, "n0");
        assert!((p.net_hpwl(&d, crate::ids::NetId::new(0)) - 28.0).abs() < 1e-12);
        // Total is the sum of per-net values.
        let total: f64 = d.net_ids().map(|n| p.net_hpwl(&d, n)).sum();
        assert!((p.total_hpwl(&d) - total).abs() < 1e-12);
    }

    #[test]
    fn distances_are_consistent() {
        let (d, u1, u2) = two_inv_design();
        let mut p = Placement::new(&d);
        p.set(u1, 0.0, 0.0);
        p.set(u2, 30.0, 40.0);
        let y1 = d.cell_pin(u1, 1);
        let a2 = d.cell_pin(u2, 0);
        let man = p.pin_manhattan(&d, y1, a2);
        let euc = p.pin_euclidean(&d, y1, a2);
        assert!(euc <= man + 1e-12);
        assert!(euc >= man / std::f64::consts::SQRT_2 - 1e-12);
    }

    #[test]
    fn move_tracker_reports_exactly_the_cells_moved_since_the_last_take() {
        let (d, u1, u2) = two_inv_design();
        let mut p = Placement::new(&d);
        p.set(u1, 10.0, 10.0);
        p.set(u2, 50.0, 50.0);
        let mut changes = DirtySummary::default();
        let mut take = |tracker: &mut MoveTracker, p: &Placement| {
            tracker.take_changes(&d, p, &mut changes);
            assert_eq!(
                changes,
                DirtySummary::from_moved_cells(&d, &changes.moved_cells)
            );
            changes.moved_cells.clone()
        };
        let mut tracker = MoveTracker::new(&p);
        assert!(take(&mut tracker, &p).is_empty());

        // Any nonzero displacement is reported, sorted; taking forgets it.
        p.set(u2, 50.0, 50.0 + 1e-12);
        p.set(u1, 10.0 - 1e-12, 10.0);
        assert_eq!(take(&mut tracker, &p), vec![u1, u2]);
        assert!(take(&mut tracker, &p).is_empty());

        // Moved away and back between two takes is not reported.
        p.set(u1, 30.0, 30.0);
        p.set(u1, 10.0 - 1e-12, 10.0);
        assert!(take(&mut tracker, &p).is_empty());
        // A move reported after being left untaken for several steps.
        p.set(u2, 60.0, 50.0);
        p.set(u2, 61.0, 50.0);
        assert_eq!(take(&mut tracker, &p), vec![u2]);
        assert!(take(&mut tracker, &p).is_empty());
    }

    #[test]
    fn dirty_summary_sorts_dedups_and_takes_exactly_the_incident_nets() {
        let (d, _, u2) = two_inv_design();
        let po = d.find_cell("po").unwrap();
        // Moved out of index order, with a repeat.
        let dirty = DirtySummary::from_moved_cells(&d, &[po, u2, po]);
        assert_eq!(dirty.moved_cells, vec![u2, po]);
        // u2 drives n2 and sinks n1; po sinks n2 again; n0 stays clean.
        let net = |name: &str| d.net_ids().find(|&n| d.net(n).name == name);
        assert_eq!(
            dirty.dirty_nets,
            vec![net("n1").unwrap(), net("n2").unwrap()]
        );
        // An in-place rebuild replaces both lists.
        let mut reused = dirty.clone();
        let u1 = d.find_cell("u1").unwrap();
        reused.rebuild(&d, &[u1]);
        assert_eq!(reused, DirtySummary::from_moved_cells(&d, &[u1]));
        assert_eq!(
            reused.dirty_nets,
            vec![net("n0").unwrap(), net("n1").unwrap()]
        );
    }

    #[test]
    fn content_hash_tracks_bit_level_changes() {
        let (d, u1, _) = two_inv_design();
        let mut p = Placement::new(&d);
        p.set(u1, 10.0, 20.0);
        let h0 = p.content_hash();
        assert_eq!(h0, p.clone().content_hash(), "clones hash equal");
        // The smallest representable nudge changes the hash.
        p.set(u1, f64::from_bits(10.0f64.to_bits() + 1), 20.0);
        assert_ne!(h0, p.content_hash());
        // Bit-equality, not numeric equality: -0.0 differs from 0.0.
        let mut a = Placement::new(&d);
        let mut b = Placement::new(&d);
        a.set(u1, 0.0, 0.0);
        b.set(u1, -0.0, 0.0);
        assert_ne!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn clamp_keeps_cells_inside() {
        let (d, u1, _) = two_inv_design();
        let mut p = Placement::new(&d);
        p.set(u1, -50.0, 1e6);
        p.clamp_to_die(&d);
        let (x, y) = p.get(u1);
        let ty = d.cell_type(u1);
        assert!(x >= 0.0 && x + ty.width <= 100.0);
        assert!(y >= 0.0 && y + ty.height <= 100.0);
        // Fixed cells are not clamped.
        let po = d.find_cell("po").unwrap();
        p.set(po, -5.0, -5.0);
        p.clamp_to_die(&d);
        assert_eq!(p.get(po), (-5.0, -5.0));
    }
}
