//! The flat netlist: cells, nets, pins, die geometry and a validating builder.

use crate::ids::{CellId, IdRange, NetId, PinId};
use crate::library::{CellLibrary, PinDirection};
use crate::sdc::Sdc;
use crate::topology::Topology;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::OnceLock;

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

/// A cell instance.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Instance name, unique in the design.
    pub name: String,
    /// Master this instance instantiates.
    pub type_id: crate::ids::CellTypeId,
    /// Fixed cells (IO pads, macros) are not moved by the placer.
    pub fixed: bool,
    /// Pin instances of this cell, in master pin order.
    pub pins: Vec<PinId>,
}

/// A net connecting one driver pin to zero or more sink pins.
#[derive(Debug, Clone)]
pub struct Net {
    /// Net name, unique in the design.
    pub name: String,
    /// All pins on the net; `pins[0]` is always the driver.
    pub pins: Vec<PinId>,
}

impl Net {
    /// The unique driver pin of the net.
    pub fn driver(&self) -> PinId {
        self.pins[0]
    }

    /// Sink pins of the net (everything but the driver).
    pub fn sinks(&self) -> &[PinId] {
        &self.pins[1..]
    }

    /// Number of pins on the net.
    pub fn degree(&self) -> usize {
        self.pins.len()
    }
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
    die: Rect,
    row_height: f64,
    sdc: Sdc,
    /// Built on first use by [`Design::topology`], never at construction.
    topology: OnceLock<Topology>,
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

    /// The frozen net-major pin layout, built on the first call and
    /// shared by every later one (see [`Topology`]).
    pub fn topology(&self) -> &Topology {
        self.topology.get_or_init(|| Topology::new(self))
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
        IdRange::new(self.cells.len())
    }

    /// Iterates over all net ids.
    pub fn net_ids(&self) -> IdRange<NetId> {
        IdRange::new(self.nets.len())
    }

    /// Iterates over all pin ids.
    pub fn pin_ids(&self) -> IdRange<PinId> {
        IdRange::new(self.pins.len())
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
    /// The new master must be pin-compatible with the old one: the same
    /// number of pins, with matching names and directions in the same
    /// order, and the same sequential/clock-pin shape. Geometry (width,
    /// offsets) and electrical parameters (caps, arcs) may differ — that
    /// is the point of a resize. A [`Topology`] that is already built has
    /// the cell's pin offsets patched in place.
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
        if old.pins.len() != new.pins.len() {
            return Err(NetlistError::Invalid(format!(
                "resize {}: {} has {} pins, {} has {}",
                self.cells[cell.index()].name,
                old.name,
                old.pins.len(),
                new.name,
                new.pins.len()
            )));
        }
        for (a, b) in old.pins.iter().zip(&new.pins) {
            if a.name != b.name || a.direction != b.direction {
                return Err(NetlistError::Invalid(format!(
                    "resize {}: pin {}/{} incompatible with {}/{}",
                    self.cells[cell.index()].name,
                    old.name,
                    a.name,
                    new.name,
                    b.name
                )));
            }
        }
        if old.is_sequential != new.is_sequential || old.clock_pin != new.clock_pin {
            return Err(NetlistError::Invalid(format!(
                "resize {}: {} and {} differ in sequential shape",
                self.cells[cell.index()].name,
                old.name,
                new.name
            )));
        }
        self.cells[cell.index()].type_id = new_type;
        if let Some(mut topology) = self.topology.take() {
            topology.patch_offsets(self, cell);
            self.topology = OnceLock::from(topology);
        }
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
        let max_net_degree = self.nets.iter().map(Net::degree).max().unwrap_or(0);
        let total_degree: usize = self.nets.iter().map(Net::degree).sum();
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
        for (i, net) in self.nets.iter().enumerate() {
            if net.pins.is_empty() {
                return Err(NetlistError::Invalid(format!("net {} empty", net.name)));
            }
            let drivers = net
                .pins
                .iter()
                .filter(|&&p| self.pin_direction(p) == PinDirection::Output)
                .count();
            if drivers != 1 || self.pin_direction(net.pins[0]) != PinDirection::Output {
                return Err(NetlistError::Invalid(format!(
                    "net {} driver invariant violated ({} drivers)",
                    net.name, drivers
                )));
            }
            for &p in &net.pins {
                if self.pins[p.index()].net != Some(NetId::new(i)) {
                    return Err(NetlistError::Invalid(format!(
                        "pin {} back-reference mismatch on net {}",
                        self.pin_label(p),
                        net.name
                    )));
                }
            }
        }
        for (i, pin) in self.pins.iter().enumerate() {
            let cell = &self.cells[pin.cell.index()];
            if cell.pins[pin.spec] != PinId::new(i) {
                return Err(NetlistError::Invalid(format!(
                    "cell {} pin table mismatch",
                    cell.name
                )));
            }
            if let Some(net) = pin.net {
                if !self.nets[net.index()].pins.contains(&PinId::new(i)) {
                    return Err(NetlistError::Invalid(format!(
                        "pin {} not in its net's pin list",
                        self.pin_label(PinId::new(i))
                    )));
                }
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
        let mut pin_ids = Vec::with_capacity(num_pins);
        for spec in 0..num_pins {
            let pid = PinId::new(self.pins.len());
            self.pins.push(Pin {
                cell: id,
                spec,
                net: None,
            });
            pin_ids.push(pid);
        }
        self.cells.push(Cell {
            name: name.to_string(),
            type_id,
            fixed,
            pins: pin_ids,
        });
        self.cell_names.insert(name.to_string(), id);
        Ok(id)
    }

    /// Connects the listed `(cell, pin_name)` terminals with a new net.
    /// Exactly one terminal must be an output pin; it becomes the driver.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown pins, duplicate net names, wrong driver
    /// counts, or pins that already belong to another net.
    pub fn add_net(
        &mut self,
        name: &str,
        terminals: &[(CellId, &str)],
    ) -> Result<NetId, NetlistError> {
        if self.net_names.contains_key(name) {
            return Err(NetlistError::DuplicateName(name.to_string()));
        }
        let net_id = NetId::new(self.nets.len());
        let mut driver: Option<PinId> = None;
        let mut sinks: Vec<PinId> = Vec::with_capacity(terminals.len().saturating_sub(1));
        for &(cell, pin_name) in terminals {
            let ty = self.library.get(self.cells[cell.index()].type_id);
            let spec = ty
                .pin_index(pin_name)
                .ok_or_else(|| NetlistError::UnknownPin {
                    cell_type: ty.name.clone(),
                    pin: pin_name.to_string(),
                })?;
            let pid = self.cells[cell.index()].pins[spec];
            if self.pins[pid.index()].net.is_some() {
                return Err(NetlistError::PinReconnected {
                    net: name.to_string(),
                    cell: self.cells[cell.index()].name.clone(),
                    pin: pin_name.to_string(),
                });
            }
            if ty.pins[spec].direction == PinDirection::Output {
                if driver.is_some() {
                    return Err(NetlistError::BadDriverCount {
                        net: name.to_string(),
                        drivers: 2,
                    });
                }
                driver = Some(pid);
            } else {
                sinks.push(pid);
            }
        }
        let driver = driver.ok_or(NetlistError::BadDriverCount {
            net: name.to_string(),
            drivers: 0,
        })?;
        let mut pins = Vec::with_capacity(sinks.len() + 1);
        pins.push(driver);
        pins.extend(sinks);
        for &p in &pins {
            self.pins[p.index()].net = Some(net_id);
        }
        self.nets.push(Net {
            name: name.to_string(),
            pins,
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
        let design = Design {
            name: self.name,
            library: self.library,
            cells: self.cells,
            nets: self.nets,
            pins: self.pins,
            die: self.die,
            row_height: self.row_height,
            sdc: self.sdc,
            topology: OnceLock::new(),
        };
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
        let net = d.net(n);
        assert_eq!(d.pin_direction(net.driver()), PinDirection::Output);
        assert_eq!(net.sinks().len(), 1);
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
