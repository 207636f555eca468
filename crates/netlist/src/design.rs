//! The flat netlist: cells, nets, pins, die geometry and a validating builder.
//!
//! Connectivity is stored once. A cell's pins are consecutive pin ids in
//! master order ([`Design::cell_pins`]), and a net's pins are a window of
//! the net-major [`Topology`] ([`Design::net_pins`]), which
//! [`DesignBuilder`] fills as nets are added.

use crate::ids::{CellId, IdRange, NetId, PinId};
use crate::library::{CellLibrary, PinDirection};
use crate::sdc::Sdc;
use crate::topology::{idx, Topology};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// An axis-aligned rectangle, used for the die outline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Lower-left x.
    pub lx: f64,
    /// Lower-left y.
    pub ly: f64,
    /// Upper-right x.
    pub ux: f64,
    /// Upper-right y.
    pub uy: f64,
}

impl Rect {
    /// Creates a rectangle from its corners.
    ///
    /// # Panics
    ///
    /// Panics if the rectangle is inverted (`ux < lx` or `uy < ly`).
    pub fn new(lx: f64, ly: f64, ux: f64, uy: f64) -> Self {
        assert!(ux >= lx && uy >= ly, "inverted rectangle");
        Self { lx, ly, ux, uy }
    }

    /// Width of the rectangle.
    pub fn width(&self) -> f64 {
        self.ux - self.lx
    }

    /// Height of the rectangle.
    pub fn height(&self) -> f64 {
        self.uy - self.ly
    }

    /// Area of the rectangle.
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Whether a point lies inside (inclusive).
    pub fn contains(&self, x: f64, y: f64) -> bool {
        x >= self.lx && x <= self.ux && y >= self.ly && y <= self.uy
    }
}

/// A placement row: standard cells are legalized onto rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// Row lower-left y coordinate.
    pub y: f64,
    /// Row x start.
    pub lx: f64,
    /// Row x end.
    pub ux: f64,
    /// Row height (equals the standard cell height).
    pub height: f64,
}

/// A cell instance; its pins are [`Design::cell_pins`].
#[derive(Debug, Clone)]
pub struct Cell {
    /// Instance name, unique in the design.
    pub name: String,
    /// Master this instance instantiates.
    pub type_id: crate::ids::CellTypeId,
    /// Fixed cells (IO pads, macros) are not moved by the placer.
    pub fixed: bool,
}

/// A net connecting one driver pin to zero or more sink pins; its pins
/// are [`Design::net_pins`].
#[derive(Debug, Clone)]
pub struct Net {
    /// Net name, unique in the design.
    pub name: String,
}

/// A pin instance: which cell it belongs to, which master pin it
/// instantiates, and which net it connects to.
#[derive(Debug, Clone, Copy)]
pub struct Pin {
    /// Owning cell.
    pub cell: CellId,
    /// Index into the owning master's pin list.
    pub spec: usize,
    /// Connected net, if any (unconnected pins are allowed, e.g. unused
    /// gate inputs tied off by the generator).
    pub net: Option<NetId>,
}

/// Errors reported by [`DesignBuilder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A referenced cell master does not exist in the library.
    UnknownCellType(String),
    /// A referenced instance name does not exist.
    UnknownCell(String),
    /// A referenced pin name does not exist on the master.
    UnknownPin {
        /// Master name.
        cell_type: String,
        /// Offending pin name.
        pin: String,
    },
    /// Two cells or nets share a name.
    DuplicateName(String),
    /// A net has no driver or more than one driver.
    BadDriverCount {
        /// Offending net name.
        net: String,
        /// Number of output pins found on the net.
        drivers: usize,
    },
    /// A pin was connected to two nets.
    PinReconnected {
        /// Offending net name.
        net: String,
        /// Cell instance name.
        cell: String,
        /// Pin name.
        pin: String,
    },
    /// The finished design failed a structural check.
    Invalid(String),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::UnknownCellType(n) => write!(f, "unknown cell type {n:?}"),
            NetlistError::UnknownCell(n) => write!(f, "unknown cell instance {n:?}"),
            NetlistError::UnknownPin { cell_type, pin } => {
                write!(f, "unknown pin {pin:?} on cell type {cell_type:?}")
            }
            NetlistError::DuplicateName(n) => write!(f, "duplicate name {n:?}"),
            NetlistError::BadDriverCount { net, drivers } => {
                write!(f, "net {net:?} has {drivers} drivers, expected exactly 1")
            }
            NetlistError::PinReconnected { net, cell, pin } => {
                write!(f, "pin {cell}/{pin} reconnected by net {net:?}")
            }
            NetlistError::Invalid(msg) => write!(f, "invalid design: {msg}"),
        }
    }
}

impl Error for NetlistError {}

/// Aggregate structural statistics of a design, used by reports and the
/// benchmark generator's self-checks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignStats {
    /// Number of cell instances (movable + fixed).
    pub num_cells: usize,
    /// Number of movable cells.
    pub num_movable: usize,
    /// Number of fixed cells.
    pub num_fixed: usize,
    /// Number of nets.
    pub num_nets: usize,
    /// Number of pin instances.
    pub num_pins: usize,
    /// Number of sequential (flip-flop) instances.
    pub num_sequential: usize,
    /// Largest net degree.
    pub max_net_degree: usize,
    /// Mean net degree.
    pub avg_net_degree: f64,
    /// Total movable cell area divided by die area.
    pub utilization: f64,
}

/// A complete, validated netlist.
///
/// Construct one with [`DesignBuilder`]; all cross-references are guaranteed
/// consistent afterwards (every pin's net contains the pin, every net has
/// exactly one driver, and so on).
#[derive(Debug, Clone)]
pub struct Design {
    name: String,
    library: CellLibrary,
    cells: Vec<Cell>,
    nets: Vec<Net>,
    pins: Vec<Pin>,
    /// CSR over cells: cell `c` owns pins `cell_pin_start[c]..cell_pin_start[c + 1]`.
    cell_pin_start: Vec<u32>,
    die: Rect,
    row_height: f64,
    sdc: Sdc,
    topology: Topology,
}

impl Design {
    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The cell library the design instantiates from.
    pub fn library(&self) -> &CellLibrary {
        &self.library
    }

    /// Die outline.
    pub fn die(&self) -> Rect {
        self.die
    }

    /// Standard cell row height.
    pub fn row_height(&self) -> f64 {
        self.row_height
    }

    /// Timing constraints.
    pub fn sdc(&self) -> &Sdc {
        &self.sdc
    }

    /// Mutable access to the timing constraints (e.g. to tighten the clock).
    pub fn sdc_mut(&mut self) -> &mut Sdc {
        &mut self.sdc
    }

    /// Placement rows covering the die.
    pub fn rows(&self) -> Vec<Row> {
        let n = (self.die.height() / self.row_height).floor() as usize;
        (0..n)
            .map(|i| Row {
                y: self.die.ly + i as f64 * self.row_height,
                lx: self.die.lx,
                ux: self.die.ux,
                height: self.row_height,
            })
            .collect()
    }

    /// Cell accessor.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// Net accessor.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Pin accessor.
    pub fn pin(&self, id: PinId) -> &Pin {
        &self.pins[id.index()]
    }

    /// The pins of a cell, in master pin order.
    pub fn cell_pins(&self, id: CellId) -> IdRange<PinId> {
        let c = id.index();
        IdRange::new(self.cell_pin_start[c]..self.cell_pin_start[c + 1])
    }

    /// The pin instantiating master pin `spec` on a cell.
    ///
    /// # Panics
    ///
    /// Panics if the cell's master has no pin `spec`.
    pub fn cell_pin(&self, id: CellId, spec: usize) -> PinId {
        self.cell_pins(id).nth(spec).expect("pin spec out of range")
    }

    /// All pins on a net; the first is always the driver.
    pub fn net_pins(&self, id: NetId) -> &[PinId] {
        &self.topology.slot_pin()[self.topology.net_slots(id)]
    }

    /// The unique driver pin of a net.
    pub fn net_driver(&self, id: NetId) -> PinId {
        self.net_pins(id)[0]
    }

    /// Sink pins of a net (everything but the driver).
    pub fn net_sinks(&self, id: NetId) -> &[PinId] {
        &self.net_pins(id)[1..]
    }

    /// The net-major pin layout (see [`Topology`]).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Number of pins.
    pub fn num_pins(&self) -> usize {
        self.pins.len()
    }

    /// Iterates over all cell ids.
    pub fn cell_ids(&self) -> IdRange<CellId> {
        IdRange::new(0..idx(self.cells.len()))
    }

    /// Iterates over all net ids.
    pub fn net_ids(&self) -> IdRange<NetId> {
        IdRange::new(0..idx(self.nets.len()))
    }

    /// Iterates over all pin ids.
    pub fn pin_ids(&self) -> IdRange<PinId> {
        IdRange::new(0..idx(self.pins.len()))
    }

    /// The master type of a cell.
    pub fn cell_type(&self, id: CellId) -> &crate::library::CellType {
        self.library.get(self.cells[id.index()].type_id)
    }

    /// The master pin spec behind a pin instance.
    pub fn pin_spec(&self, id: PinId) -> &crate::library::PinSpec {
        let pin = &self.pins[id.index()];
        &self.cell_type(pin.cell).pins[pin.spec]
    }

    /// Direction of a pin instance.
    pub fn pin_direction(&self, id: PinId) -> PinDirection {
        self.pin_spec(id).direction
    }

    /// Human-readable `cell/pin` label for diagnostics.
    pub fn pin_label(&self, id: PinId) -> String {
        let pin = &self.pins[id.index()];
        format!(
            "{}/{}",
            self.cells[pin.cell.index()].name,
            self.cell_type(pin.cell).pins[pin.spec].name
        )
    }

    /// Looks a cell up by instance name (linear scan; intended for tests
    /// and examples, not hot paths).
    pub fn find_cell(&self, name: &str) -> Option<CellId> {
        self.cells
            .iter()
            .position(|c| c.name == name)
            .map(CellId::new)
    }

    /// Retypes a cell to a different master — the netlist half of an ECO
    /// resize. Connectivity (pins, nets) is untouched; only the master
    /// changes, which moves pin offsets, input capacitances and timing-arc
    /// parameters to the new variant's values.
    ///
    /// The new master must be pin-compatible with the old one (see
    /// [`crate::CellType::pin_compatible`]). Geometry (width, offsets) and
    /// electrical parameters (caps, arcs) may differ — that is the point
    /// of a resize. The cell's slots in the [`Topology`] get the new pin
    /// offsets and caps.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Invalid`] if the masters are not
    /// pin-compatible. The design is unchanged on error.
    pub fn set_cell_type(
        &mut self,
        cell: CellId,
        new_type: crate::ids::CellTypeId,
    ) -> Result<(), NetlistError> {
        let old = self.library.get(self.cells[cell.index()].type_id);
        let new = self.library.get(new_type);
        if !old.pin_compatible(new) {
            return Err(NetlistError::Invalid(format!(
                "resize {}: master {} is not pin-compatible with {}",
                self.cells[cell.index()].name,
                new.name,
                old.name
            )));
        }
        self.cells[cell.index()].type_id = new_type;
        self.topology.patch_offsets(cell, &self.pins, new);
        Ok(())
    }

    /// Computes aggregate structural statistics.
    pub fn stats(&self) -> DesignStats {
        let num_fixed = self.cells.iter().filter(|c| c.fixed).count();
        let num_sequential = self
            .cells
            .iter()
            .filter(|c| self.library.get(c.type_id).is_sequential)
            .count();
        let max_net_degree = self
            .net_ids()
            .map(|n| self.net_pins(n).len())
            .max()
            .unwrap_or(0);
        let total_degree = self.topology.num_slots();
        let movable_area: f64 = self
            .cells
            .iter()
            .filter(|c| !c.fixed)
            .map(|c| self.library.get(c.type_id).area())
            .sum();
        DesignStats {
            num_cells: self.cells.len(),
            num_movable: self.cells.len() - num_fixed,
            num_fixed,
            num_nets: self.nets.len(),
            num_pins: self.pins.len(),
            num_sequential,
            max_net_degree,
            avg_net_degree: if self.nets.is_empty() {
                0.0
            } else {
                total_degree as f64 / self.nets.len() as f64
            },
            utilization: movable_area / self.die.area(),
        }
    }

    /// Checks all cross-reference invariants. [`DesignBuilder::finish`]
    /// already runs this; it is public so mutated designs in tests can
    /// re-validate.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Invalid`] describing the first violated
    /// invariant.
    pub fn validate(&self) -> Result<(), NetlistError> {
        // Every listed pin names its net and is listed once; with the
        // final sweep, every connected pin is listed exactly once.
        let mut listed = vec![false; self.pins.len()];
        for (i, net) in self.nets.iter().enumerate() {
            let pins = self.net_pins(NetId::new(i));
            if pins.is_empty() {
                return Err(NetlistError::Invalid(format!("net {} empty", net.name)));
            }
            let drivers = pins
                .iter()
                .filter(|&&p| self.pin_direction(p) == PinDirection::Output)
                .count();
            if drivers != 1 || self.pin_direction(pins[0]) != PinDirection::Output {
                return Err(NetlistError::Invalid(format!(
                    "net {} driver invariant violated ({} drivers)",
                    net.name, drivers
                )));
            }
            for &p in pins {
                if self.pins[p.index()].net != Some(NetId::new(i)) {
                    return Err(NetlistError::Invalid(format!(
                        "pin {} back-reference mismatch on net {}",
                        self.pin_label(p),
                        net.name
                    )));
                }
                if std::mem::replace(&mut listed[p.index()], true) {
                    return Err(NetlistError::Invalid(format!(
                        "pin {} listed twice on net {}",
                        self.pin_label(p),
                        net.name
                    )));
                }
            }
        }
        for (i, pin) in self.pins.iter().enumerate() {
            if pin.net.is_some() && !listed[i] {
                return Err(NetlistError::Invalid(format!(
                    "pin {} not in its net's pin list",
                    self.pin_label(PinId::new(i))
                )));
            }
        }
        Ok(())
    }
}

/// Fixed-cell seed positions recorded by [`DesignBuilder::add_fixed_cell`].
pub type FixedPositions = Vec<(CellId, f64, f64)>;

/// Incrementally builds a [`Design`], validating as it goes.
///
/// See the crate-level example for typical usage.
#[derive(Debug)]
pub struct DesignBuilder {
    name: String,
    library: CellLibrary,
    cells: Vec<Cell>,
    nets: Vec<Net>,
    pins: Vec<Pin>,
    cell_pin_start: Vec<u32>,
    /// The net CSR of the [`Topology`] `finish` lays out.
    net_start: Vec<u32>,
    slot_pin: Vec<PinId>,
    die: Rect,
    row_height: f64,
    sdc: Sdc,
    cell_names: HashMap<String, CellId>,
    net_names: HashMap<String, NetId>,
    fixed_positions: Vec<(CellId, f64, f64)>,
}

impl DesignBuilder {
    /// Starts a new design over `library` with the given die outline and
    /// standard row height.
    pub fn new(name: impl Into<String>, library: CellLibrary, die: Rect, row_height: f64) -> Self {
        Self {
            name: name.into(),
            library,
            cells: Vec::new(),
            nets: Vec::new(),
            pins: Vec::new(),
            cell_pin_start: vec![0],
            net_start: vec![0],
            slot_pin: Vec::new(),
            die,
            row_height,
            sdc: Sdc::default(),
            cell_names: HashMap::new(),
            net_names: HashMap::new(),
            fixed_positions: Vec::new(),
        }
    }

    /// Sets the timing constraints.
    pub fn set_sdc(&mut self, sdc: Sdc) {
        self.sdc = sdc;
    }

    /// Adds a movable cell instance of master `type_name`.
    ///
    /// # Errors
    ///
    /// Returns an error if the master is unknown or the instance name is
    /// already taken.
    pub fn add_cell(&mut self, name: &str, type_name: &str) -> Result<CellId, NetlistError> {
        self.add_cell_inner(name, type_name, false)
    }

    /// Adds a fixed cell (IO pad, macro) pinned at `(x, y)`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DesignBuilder::add_cell`].
    pub fn add_fixed_cell(
        &mut self,
        name: &str,
        type_name: &str,
        x: f64,
        y: f64,
    ) -> Result<CellId, NetlistError> {
        let id = self.add_cell_inner(name, type_name, true)?;
        self.fixed_positions.push((id, x, y));
        Ok(id)
    }

    fn add_cell_inner(
        &mut self,
        name: &str,
        type_name: &str,
        fixed: bool,
    ) -> Result<CellId, NetlistError> {
        let type_id = self
            .library
            .by_name(type_name)
            .ok_or_else(|| NetlistError::UnknownCellType(type_name.to_string()))?;
        if self.cell_names.contains_key(name) {
            return Err(NetlistError::DuplicateName(name.to_string()));
        }
        let id = CellId::new(self.cells.len());
        let num_pins = self.library.get(type_id).pins.len();
        self.pins.extend((0..num_pins).map(|spec| Pin {
            cell: id,
            spec,
            net: None,
        }));
        self.cell_pin_start.push(idx(self.pins.len()));
        self.cells.push(Cell {
            name: name.to_string(),
            type_id,
            fixed,
        });
        self.cell_names.insert(name.to_string(), id);
        Ok(id)
    }

    /// Connects the listed `(cell, pin_name)` terminals with a new net.
    /// Exactly one terminal must be an output pin; it becomes the driver,
    /// and the sinks keep their order.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown pins, duplicate net names, wrong driver
    /// counts, or pins that already belong to a net (this one included).
    /// The builder is unchanged on error.
    pub fn add_net(
        &mut self,
        name: &str,
        terminals: &[(CellId, &str)],
    ) -> Result<NetId, NetlistError> {
        if self.net_names.contains_key(name) {
            return Err(NetlistError::DuplicateName(name.to_string()));
        }
        let net_id = NetId::new(self.nets.len());
        // Each pin is connected as it is appended, so a repeat is caught
        // like a reconnection; on error the appended pins are undone.
        let start = self.slot_pin.len();
        let appended = 'append: {
            let mut driver = None;
            for &(cell, pin_name) in terminals {
                let ty = self.library.get(self.cells[cell.index()].type_id);
                let Some(spec) = ty.pin_index(pin_name) else {
                    break 'append Err(NetlistError::UnknownPin {
                        cell_type: ty.name.clone(),
                        pin: pin_name.to_string(),
                    });
                };
                let pid = PinId::new(self.cell_pin_start[cell.index()] as usize + spec);
                let pin = &mut self.pins[pid.index()];
                if pin.net.is_some() {
                    break 'append Err(NetlistError::PinReconnected {
                        net: name.to_string(),
                        cell: self.cells[cell.index()].name.clone(),
                        pin: pin_name.to_string(),
                    });
                }
                pin.net = Some(net_id);
                self.slot_pin.push(pid);
                if ty.pins[spec].direction == PinDirection::Output {
                    if driver.is_some() {
                        break 'append Err(NetlistError::BadDriverCount {
                            net: name.to_string(),
                            drivers: 2,
                        });
                    }
                    driver = Some(self.slot_pin.len() - 1);
                }
            }
            driver.ok_or(NetlistError::BadDriverCount {
                net: name.to_string(),
                drivers: 0,
            })
        };
        let driver = match appended {
            Ok(driver) => driver,
            Err(e) => {
                for p in self.slot_pin.drain(start..) {
                    self.pins[p.index()].net = None;
                }
                return Err(e);
            }
        };
        self.slot_pin[start..=driver].rotate_right(1);
        self.net_start.push(idx(self.slot_pin.len()));
        self.nets.push(Net {
            name: name.to_string(),
        });
        self.net_names.insert(name.to_string(), net_id);
        Ok(net_id)
    }

    /// Finalizes the design, running full validation.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Invalid`] if any structural invariant fails.
    pub fn finish(self) -> Result<Design, NetlistError> {
        let mut design = Design {
            name: self.name,
            library: self.library,
            cells: self.cells,
            nets: self.nets,
            pins: self.pins,
            cell_pin_start: self.cell_pin_start,
            die: self.die,
            row_height: self.row_height,
            sdc: self.sdc,
            topology: Topology::default(),
        };
        design.topology = Topology::new(&design, self.net_start, self.slot_pin);
        design.validate()?;
        Ok(design)
    }

    /// The pinned positions registered via [`DesignBuilder::add_fixed_cell`],
    /// to seed an initial [`crate::Placement`].
    pub fn fixed_positions(&self) -> &[(CellId, f64, f64)] {
        &self.fixed_positions
    }

    /// Consumes the builder, returning the design and the fixed-cell
    /// positions together.
    ///
    /// # Errors
    ///
    /// Same as [`DesignBuilder::finish`].
    pub fn finish_with_positions(mut self) -> Result<(Design, FixedPositions), NetlistError> {
        let fixed = std::mem::take(&mut self.fixed_positions);
        let design = self.finish()?;
        Ok((design, fixed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::CellLibrary;

    fn small_builder() -> DesignBuilder {
        DesignBuilder::new(
            "t",
            CellLibrary::standard(),
            Rect::new(0.0, 0.0, 100.0, 100.0),
            10.0,
        )
    }

    #[test]
    fn build_and_validate_chain() {
        let mut b = small_builder();
        let pi = b.add_fixed_cell("pi", "IOPAD_IN", 0.0, 50.0).unwrap();
        let u1 = b.add_cell("u1", "INV_X1").unwrap();
        let po = b.add_fixed_cell("po", "IOPAD_OUT", 100.0, 50.0).unwrap();
        b.add_net("n0", &[(pi, "PAD"), (u1, "A")]).unwrap();
        b.add_net("n1", &[(u1, "Y"), (po, "PAD")]).unwrap();
        let d = b.finish().unwrap();
        assert_eq!(d.num_cells(), 3);
        assert_eq!(d.num_nets(), 2);
        let stats = d.stats();
        assert_eq!(stats.num_fixed, 2);
        assert_eq!(stats.num_movable, 1);
        assert_eq!(stats.max_net_degree, 2);
        assert!(d.validate().is_ok());
    }

    #[test]
    fn net_driver_is_first_pin() {
        let mut b = small_builder();
        let u1 = b.add_cell("u1", "INV_X1").unwrap();
        let u2 = b.add_cell("u2", "INV_X1").unwrap();
        // Sink listed before driver; builder must normalize.
        let n = b.add_net("n", &[(u2, "A"), (u1, "Y")]).unwrap();
        let d = {
            let pi = b.add_fixed_cell("pi", "IOPAD_IN", 0.0, 0.0).unwrap();
            let po = b.add_fixed_cell("po", "IOPAD_OUT", 0.0, 0.0).unwrap();
            b.add_net("ni", &[(pi, "PAD"), (u1, "A")]).unwrap();
            b.add_net("no", &[(u2, "Y"), (po, "PAD")]).unwrap();
            b.finish().unwrap()
        };
        assert_eq!(d.pin_direction(d.net_driver(n)), PinDirection::Output);
        assert_eq!(d.net_sinks(n), &[d.cell_pin(u2, 0)]);
    }

    #[test]
    fn error_cases() {
        let mut b = small_builder();
        assert!(matches!(
            b.add_cell("x", "NOPE"),
            Err(NetlistError::UnknownCellType(_))
        ));
        let u1 = b.add_cell("u1", "INV_X1").unwrap();
        assert!(matches!(
            b.add_cell("u1", "INV_X1"),
            Err(NetlistError::DuplicateName(_))
        ));
        assert!(matches!(
            b.add_net("n", &[(u1, "Z")]),
            Err(NetlistError::UnknownPin { .. })
        ));
        // No driver.
        assert!(matches!(
            b.add_net("n", &[(u1, "A")]),
            Err(NetlistError::BadDriverCount { drivers: 0, .. })
        ));
        // Two drivers.
        let u2 = b.add_cell("u2", "INV_X1").unwrap();
        assert!(matches!(
            b.add_net("n", &[(u1, "Y"), (u2, "Y")]),
            Err(NetlistError::BadDriverCount { drivers: 2, .. })
        ));
        // Reconnection.
        b.add_net("n1", &[(u1, "Y"), (u2, "A")]).unwrap();
        assert!(matches!(
            b.add_net("n2", &[(u1, "Y")]),
            Err(NetlistError::PinReconnected { .. })
        ));
    }

    #[test]
    fn repeated_terminals_are_rejected_by_add_net_and_validate() {
        let mut b = small_builder();
        let pi = b.add_fixed_cell("pi", "IOPAD_IN", 0.0, 50.0).unwrap();
        let u1 = b.add_cell("u1", "NAND2_X1").unwrap();
        let po = b.add_fixed_cell("po", "IOPAD_OUT", 100.0, 50.0).unwrap();
        assert_eq!(
            b.add_net("n0", &[(pi, "PAD"), (u1, "A"), (u1, "A")]),
            Err(NetlistError::PinReconnected {
                net: "n0".into(),
                cell: "u1".into(),
                pin: "A".into(),
            })
        );
        // The failed call left nothing behind: the same net without the
        // repeat connects both pins.
        let n0 = b.add_net("n0", &[(u1, "A"), (pi, "PAD")]).unwrap();
        b.add_net("n1", &[(u1, "Y"), (po, "PAD")]).unwrap();
        let mut d = b.finish().unwrap();
        let (pad, a, y, out) = (
            d.cell_pin(pi, 0),
            d.cell_pin(u1, 0),
            d.cell_pin(u1, 2),
            d.cell_pin(po, 0),
        );
        assert_eq!(d.net_pins(n0), &[pad, a]);
        assert_eq!(d.pin(d.cell_pin(u1, 1)).net, None);

        d.topology = Topology::new(&d, vec![0, 3, 5], vec![pad, a, a, y, out]);
        let err = d.validate().unwrap_err();
        assert!(err.to_string().contains("u1/A listed twice"), "{err}");
    }

    #[test]
    fn resizes_patch_offsets_and_incompatible_ones_change_nothing() {
        let mut b = small_builder();
        let pi = b.add_fixed_cell("pi", "IOPAD_IN", 0.0, 50.0).unwrap();
        let u1 = b.add_cell("u1", "INV_X1").unwrap();
        let po = b.add_fixed_cell("po", "IOPAD_OUT", 100.0, 50.0).unwrap();
        b.add_net("n0", &[(pi, "PAD"), (u1, "A")]).unwrap();
        b.add_net("n1", &[(u1, "Y"), (po, "PAD")]).unwrap();
        let mut d = b.finish().unwrap();
        let lib = d.library().clone();
        let offsets = |d: &Design| {
            (
                d.topology().slot_dx().to_vec(),
                d.topology().slot_dy().to_vec(),
                d.topology().slot_cap().to_vec(),
            )
        };
        let before = offsets(&d);

        let nand = lib.by_name("NAND2_X1").unwrap();
        let err = d.set_cell_type(u1, nand).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid design: resize u1: master NAND2_X1 is not pin-compatible with INV_X1"
        );
        assert_eq!(d.cell(u1).type_id, lib.by_name("INV_X1").unwrap());
        assert_eq!(offsets(&d), before);

        let x4 = lib.by_name("INV_X4").unwrap();
        d.set_cell_type(u1, x4).unwrap();
        for (slot, &p) in d.topology().slot_pin().iter().enumerate() {
            assert_eq!(d.topology().slot_dx()[slot], d.pin_spec(p).dx);
            assert_eq!(d.topology().slot_dy()[slot], d.pin_spec(p).dy);
            assert_eq!(d.topology().slot_cap()[slot], d.pin_spec(p).cap);
        }
        let after = offsets(&d);
        assert_ne!((&after.0, &after.1), (&before.0, &before.1));
        assert_ne!(
            after.2, before.2,
            "INV_X4's input cap differs from INV_X1's"
        );
    }

    #[test]
    fn rows_cover_die() {
        let mut b = small_builder();
        let pi = b.add_fixed_cell("pi", "IOPAD_IN", 0.0, 0.0).unwrap();
        let u = b.add_cell("u", "INV_X1").unwrap();
        b.add_net("n", &[(pi, "PAD"), (u, "A")]).unwrap();
        let po = b.add_fixed_cell("po", "IOPAD_OUT", 0.0, 0.0).unwrap();
        b.add_net("n2", &[(u, "Y"), (po, "PAD")]).unwrap();
        let d = b.finish().unwrap();
        let rows = d.rows();
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[0].y, 0.0);
        assert_eq!(rows[9].y, 90.0);
        for r in rows {
            assert_eq!(r.height, 10.0);
            assert_eq!(r.lx, 0.0);
            assert_eq!(r.ux, 100.0);
        }
    }

    #[test]
    fn error_display_is_informative() {
        let e = NetlistError::BadDriverCount {
            net: "n1".into(),
            drivers: 0,
        };
        assert!(e.to_string().contains("n1"));
        assert!(e.to_string().contains("0 drivers"));
    }
}
