//! The net-major pin layout: the design's one copy of its connectivity.
//!
//! A [`Topology`] lists the connected pins of a [`Design`] as *slots*:
//! slot ids run net by net in net id order, and within a net the driver
//! comes first, then the sinks in the order [`crate::DesignBuilder::add_net`]
//! was given them. [`Design::net_pins`] is a window of this list. Each
//! slot also stores its owning cell, its master pin offset and its pin
//! capacitance, so a pin's position is `placement[slot_cell] +
//! slot_d{x,y}` — two loads instead of the pin → cell → master → pin-spec
//! chain of [`crate::Placement::pin_position`] — and a sink's load is one
//! load of `slot_cap`.
//!
//! The reverse map lists, for each cell, the slots of its connected pins
//! in [`Design::cell_pins`] order; unconnected pins have no slot. Kernels
//! that scatter per pin (net-major) and then gather per cell use it to
//! keep every per-cell sum in the same order as a walk over a cell's pins.
//!
//! [`crate::DesignBuilder`] appends each net's pins as it is added and
//! [`crate::DesignBuilder::finish`] lays out the rest, so every design has
//! its layout from construction on. Connectivity never changes afterwards;
//! the only mutation that moves a pin is a resize
//! ([`Design::set_cell_type`]), which patches the offsets and caps of the
//! resized cell's slots in place.

use crate::design::{Design, Pin};
use crate::ids::{CellId, NetId, PinId};
use crate::library::CellType;
use std::ops::Range;

/// Net-major pin slots of a [`Design`]; see the [module docs](self) for
/// the ordering rules. Costs 36 B per connected pin plus 4 B per net and
/// 4 B per cell.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    /// CSR over nets: net `n` owns slots `net_start[n]..net_start[n + 1]`.
    net_start: Vec<u32>,
    /// Pin of each slot.
    slot_pin: Vec<PinId>,
    /// Owning cell of each slot.
    slot_cell: Vec<u32>,
    /// Master pin x offset of each slot.
    slot_dx: Vec<f64>,
    /// Master pin y offset of each slot.
    slot_dy: Vec<f64>,
    /// Master pin capacitance of each slot.
    slot_cap: Vec<f64>,
    /// CSR over cells: cell `c`'s connected pins are the slots
    /// `cell_slot[cell_start[c]..cell_start[c + 1]]`.
    cell_start: Vec<u32>,
    /// Slot ids of each cell's connected pins, in pin order.
    cell_slot: Vec<u32>,
}

/// A `u32` layout index; panics past `u32::MAX` pins or cells.
pub(crate) fn idx(v: usize) -> u32 {
    u32::try_from(v).expect("topology index exceeds u32")
}

impl Topology {
    /// Lays out the per-slot cells, offsets and caps and the cell → slot map of
    /// `design` over the net CSR (`net_start`, `slot_pin`) its builder
    /// appended. Reads only the design's pins and masters.
    pub(crate) fn new(design: &Design, net_start: Vec<u32>, slot_pin: Vec<PinId>) -> Self {
        let num_slots = slot_pin.len();
        let mut slot_cell = Vec::with_capacity(num_slots);
        let mut slot_dx = Vec::with_capacity(num_slots);
        let mut slot_dy = Vec::with_capacity(num_slots);
        let mut slot_cap = Vec::with_capacity(num_slots);
        // Pin id → slot id, only needed to lay out the cell-major map.
        let mut pin_slot = vec![u32::MAX; design.num_pins()];
        for (s, &p) in slot_pin.iter().enumerate() {
            pin_slot[p.index()] = idx(s);
            let spec = design.pin_spec(p);
            slot_cell.push(idx(design.pin(p).cell.index()));
            slot_dx.push(spec.dx);
            slot_dy.push(spec.dy);
            slot_cap.push(spec.cap);
        }
        let mut cell_start = Vec::with_capacity(design.num_cells() + 1);
        let mut cell_slot = Vec::with_capacity(num_slots);
        cell_start.push(0);
        for cell in design.cell_ids() {
            cell_slot.extend(
                design
                    .cell_pins(cell)
                    .map(|p| pin_slot[p.index()])
                    .filter(|&s| s != u32::MAX),
            );
            cell_start.push(idx(cell_slot.len()));
        }
        Self {
            net_start,
            slot_pin,
            slot_cell,
            slot_dx,
            slot_dy,
            slot_cap,
            cell_start,
            cell_slot,
        }
    }

    /// Number of slots (connected pins).
    pub fn num_slots(&self) -> usize {
        self.slot_pin.len()
    }

    /// The slot range of one net: its driver's slot, then its sinks'.
    pub fn net_slots(&self, net: NetId) -> Range<usize> {
        let n = net.index();
        self.net_start[n] as usize..self.net_start[n + 1] as usize
    }

    /// The slots of one cell's connected pins, in pin order.
    pub fn cell_slots(&self, cell: CellId) -> &[u32] {
        let c = cell.index();
        &self.cell_slot[self.cell_start[c] as usize..self.cell_start[c + 1] as usize]
    }

    /// Pin of every slot.
    pub fn slot_pin(&self) -> &[PinId] {
        &self.slot_pin
    }

    /// Owning cell index of every slot.
    pub fn slot_cell(&self) -> &[u32] {
        &self.slot_cell
    }

    /// Master pin x offset of every slot.
    pub fn slot_dx(&self) -> &[f64] {
        &self.slot_dx
    }

    /// Master pin y offset of every slot.
    pub fn slot_dy(&self) -> &[f64] {
        &self.slot_dy
    }

    /// Master pin capacitance of every slot.
    pub fn slot_cap(&self) -> &[f64] {
        &self.slot_cap
    }

    /// Re-reads the pin offsets and caps of `cell`'s slots from its new
    /// master `ty` — the layout half of [`Design::set_cell_type`].
    pub(crate) fn patch_offsets(&mut self, cell: CellId, pins: &[Pin], ty: &CellType) {
        let c = cell.index();
        for &slot in &self.cell_slot[self.cell_start[c] as usize..self.cell_start[c + 1] as usize] {
            let s = slot as usize;
            let spec = &ty.pins[pins[self.slot_pin[s].index()].spec];
            self.slot_dx[s] = spec.dx;
            self.slot_dy[s] = spec.dy;
            self.slot_cap[s] = spec.cap;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{CellLibrary, DesignBuilder, Rect};

    #[test]
    fn slots_follow_net_and_cell_pin_order() {
        let mut b = DesignBuilder::new(
            "t",
            CellLibrary::standard(),
            Rect::new(0.0, 0.0, 100.0, 100.0),
            10.0,
        );
        let pi = b.add_fixed_cell("pi", "IOPAD_IN", 0.0, 50.0).unwrap();
        let u1 = b.add_cell("u1", "NAND2_X1").unwrap();
        let u2 = b.add_cell("u2", "INV_X1").unwrap();
        // u1/B stays unconnected; u2/Y drives a net with no sinks.
        b.add_net("n0", &[(u1, "A"), (pi, "PAD")]).unwrap();
        b.add_net("n1", &[(u2, "A"), (u1, "Y")]).unwrap();
        b.add_net("n2", &[(u2, "Y")]).unwrap();
        let d = b.finish().unwrap();
        let t = d.topology();
        assert_eq!(t.num_slots(), 5);
        for net in d.net_ids() {
            let slots = t.net_slots(net);
            assert_eq!(&t.slot_pin()[slots.clone()], d.net_pins(net));
            for (s, &p) in slots.zip(d.net_pins(net)) {
                assert_eq!(t.slot_cell()[s] as usize, d.pin(p).cell.index());
                assert_eq!(t.slot_dx()[s], d.pin_spec(p).dx);
                assert_eq!(t.slot_dy()[s], d.pin_spec(p).dy);
                assert_eq!(t.slot_cap()[s], d.pin_spec(p).cap);
            }
        }
        // n0 = [pi/PAD, u1/A], n1 = [u1/Y, u2/A], n2 = [u2/Y].
        assert_eq!(t.cell_slots(pi), &[0]);
        assert_eq!(t.cell_slots(u1), &[1, 2]);
        assert_eq!(t.cell_slots(u2), &[3, 4]);
    }
}
