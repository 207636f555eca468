//! Standard-cell library model.
//!
//! A [`CellType`] describes the geometry and timing of one master cell:
//! its footprint, pin offsets, input pin capacitances, and one
//! [`TimingArcSpec`] per input→output propagation arc. Delays follow the
//! linear drive model used throughout the reproduction:
//!
//! ```text
//! arc delay = intrinsic + drive_resistance × (downstream capacitance)
//! ```
//!
//! which, combined with the Elmore wire model in the `sta` crate, makes the
//! source→sink delay quadratic in wirelength — the property Sec. III-C of
//! the paper exploits with its quadratic distance loss.

use crate::ids::CellTypeId;
use std::collections::HashMap;
use std::fmt;

/// Signal direction of a pin on a cell master.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PinDirection {
    /// Pin receives a signal (net sink).
    Input,
    /// Pin drives a net.
    Output,
}

impl fmt::Display for PinDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PinDirection::Input => write!(f, "input"),
            PinDirection::Output => write!(f, "output"),
        }
    }
}

/// A pin on a cell master: name, direction, offset from the cell origin and
/// capacitive load it presents (inputs) in femtofarad-like units.
#[derive(Debug, Clone, PartialEq)]
pub struct PinSpec {
    /// Pin name, unique within the cell type (e.g. `"A"`, `"Y"`, `"CK"`).
    pub name: String,
    /// Signal direction.
    pub direction: PinDirection,
    /// Offset of the pin from the cell origin (lower-left corner), x.
    pub dx: f64,
    /// Offset of the pin from the cell origin (lower-left corner), y.
    pub dy: f64,
    /// Input capacitance; zero for outputs.
    pub cap: f64,
}

/// A combinational (or clock→output) propagation arc through a cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingArcSpec {
    /// Index of the source pin within [`CellType::pins`].
    pub from_pin: usize,
    /// Index of the destination (output) pin within [`CellType::pins`].
    pub to_pin: usize,
    /// Load-independent delay component.
    pub intrinsic: f64,
    /// Output drive resistance multiplied by downstream capacitance to get
    /// the load-dependent delay component.
    pub drive_resistance: f64,
}

/// A cell master: geometry, pins and timing arcs.
#[derive(Debug, Clone, PartialEq)]
pub struct CellType {
    /// Master name (e.g. `"NAND2_X1"`).
    pub name: String,
    /// Footprint width in placement units.
    pub width: f64,
    /// Footprint height in placement units (one row height for standard cells).
    pub height: f64,
    /// Pins of the master.
    pub pins: Vec<PinSpec>,
    /// Propagation arcs. For sequential cells these are clock→output arcs.
    pub arcs: Vec<TimingArcSpec>,
    /// Whether this master is a sequential element (flip-flop).
    pub is_sequential: bool,
    /// Index of the clock pin within [`CellType::pins`] for sequential cells.
    pub clock_pin: Option<usize>,
}

impl CellType {
    /// Looks up a pin index by name.
    pub fn pin_index(&self, name: &str) -> Option<usize> {
        self.pins.iter().position(|p| p.name == name)
    }

    /// Whether a cell of this master may be resized to `other` without
    /// touching its connectivity: the same pins with the same names and
    /// directions in the same order, and the same sequential/clock-pin
    /// shape. Geometry and electrical parameters may differ.
    pub fn pin_compatible(&self, other: &CellType) -> bool {
        self.pins.len() == other.pins.len()
            && self
                .pins
                .iter()
                .zip(&other.pins)
                .all(|(a, b)| a.name == b.name && a.direction == b.direction)
            && self.is_sequential == other.is_sequential
            && self.clock_pin == other.clock_pin
    }

    /// Returns the cell area.
    pub fn area(&self) -> f64 {
        self.width * self.height
    }

    /// Returns indices of all output pins.
    pub fn output_pins(&self) -> impl Iterator<Item = usize> + '_ {
        self.pins
            .iter()
            .enumerate()
            .filter(|(_, p)| p.direction == PinDirection::Output)
            .map(|(i, _)| i)
    }

    /// Returns indices of all input pins (including the clock pin).
    pub fn input_pins(&self) -> impl Iterator<Item = usize> + '_ {
        self.pins
            .iter()
            .enumerate()
            .filter(|(_, p)| p.direction == PinDirection::Input)
            .map(|(i, _)| i)
    }

    /// Index of the data input pin of a flip-flop (the input that is not the
    /// clock). Returns `None` for combinational cells.
    pub fn data_pin(&self) -> Option<usize> {
        if !self.is_sequential {
            return None;
        }
        self.input_pins().find(|&i| Some(i) != self.clock_pin)
    }
}

/// A collection of cell masters addressed by [`CellTypeId`] or name.
///
/// # Example
///
/// ```
/// use netlist::CellLibrary;
///
/// let lib = CellLibrary::standard();
/// let inv = lib.by_name("INV_X1").expect("standard lib has INV_X1");
/// assert_eq!(lib.get(inv).pins.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CellLibrary {
    types: Vec<CellType>,
    by_name: HashMap<String, CellTypeId>,
}

impl CellLibrary {
    /// Creates an empty library.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a cell master, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if a master with the same name already exists, or if any arc
    /// references an out-of-range pin or a non-output destination.
    pub fn add(&mut self, ty: CellType) -> CellTypeId {
        assert!(
            !self.by_name.contains_key(&ty.name),
            "duplicate cell type name {:?}",
            ty.name
        );
        for arc in &ty.arcs {
            assert!(arc.from_pin < ty.pins.len(), "arc from_pin out of range");
            assert!(arc.to_pin < ty.pins.len(), "arc to_pin out of range");
            assert_eq!(
                ty.pins[arc.to_pin].direction,
                PinDirection::Output,
                "arc destination must be an output pin"
            );
        }
        let id = CellTypeId::new(self.types.len());
        self.by_name.insert(ty.name.clone(), id);
        self.types.push(ty);
        id
    }

    /// Returns the master for an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn get(&self, id: CellTypeId) -> &CellType {
        &self.types[id.index()]
    }

    /// Looks a master up by name.
    pub fn by_name(&self, name: &str) -> Option<CellTypeId> {
        self.by_name.get(name).copied()
    }

    /// Number of masters in the library.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// Whether the library is empty.
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// Iterates over `(id, master)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (CellTypeId, &CellType)> {
        self.types
            .iter()
            .enumerate()
            .map(|(i, t)| (CellTypeId::new(i), t))
    }

    /// Builds the default standard library used by the synthetic benchmark
    /// suite: inverters, buffers, NAND/NOR/AOI gates in several drive
    /// strengths, a D flip-flop and IO pads.
    ///
    /// Geometry uses a site width of 1.0 and a row height of 10.0. Delay
    /// units are picosecond-like; capacitances femtofarad-like.
    pub fn standard() -> Self {
        let mut lib = CellLibrary::new();
        let row = 10.0;

        let inp = |name: &str, dx: f64, cap: f64| PinSpec {
            name: name.to_string(),
            direction: PinDirection::Input,
            dx,
            dy: row / 2.0,
            cap,
        };
        let outp = |name: &str, dx: f64| PinSpec {
            name: name.to_string(),
            direction: PinDirection::Output,
            dx,
            dy: row / 2.0,
            cap: 0.0,
        };

        // One-input gates in three drive strengths. Stronger cells have
        // lower drive resistance, higher input cap and a wider footprint.
        for (base, intrinsic) in [("INV", 8.0), ("BUF", 14.0)] {
            for (sx, scale) in [("X1", 1.0f64), ("X2", 2.0), ("X4", 4.0)] {
                let width = 2.0 * scale.sqrt().max(1.0);
                lib.add(CellType {
                    name: format!("{base}_{sx}"),
                    width,
                    height: row,
                    pins: vec![inp("A", 0.0, 1.0 * scale), outp("Y", width)],
                    arcs: vec![TimingArcSpec {
                        from_pin: 0,
                        to_pin: 1,
                        intrinsic,
                        drive_resistance: 12.0 / scale,
                    }],
                    is_sequential: false,
                    clock_pin: None,
                });
            }
        }

        // Two-input gates in two drive strengths.
        for (base, intrinsic) in [("NAND2", 12.0), ("NOR2", 14.0)] {
            for (sx, scale) in [("X1", 1.0f64), ("X2", 2.0)] {
                let width = 3.0 * scale.sqrt().max(1.0);
                lib.add(CellType {
                    name: format!("{base}_{sx}"),
                    width,
                    height: row,
                    pins: vec![
                        inp("A", 0.0, 1.2 * scale),
                        inp("B", width / 2.0, 1.2 * scale),
                        outp("Y", width),
                    ],
                    arcs: vec![
                        TimingArcSpec {
                            from_pin: 0,
                            to_pin: 2,
                            intrinsic,
                            drive_resistance: 14.0 / scale,
                        },
                        TimingArcSpec {
                            from_pin: 1,
                            to_pin: 2,
                            intrinsic: intrinsic + 2.0,
                            drive_resistance: 14.0 / scale,
                        },
                    ],
                    is_sequential: false,
                    clock_pin: None,
                });
            }
        }

        // Three-input and-or-invert gate.
        lib.add(CellType {
            name: "AOI21_X1".to_string(),
            width: 4.0,
            height: row,
            pins: vec![
                inp("A", 0.0, 1.4),
                inp("B", 1.5, 1.4),
                inp("C", 3.0, 1.4),
                outp("Y", 4.0),
            ],
            arcs: vec![
                TimingArcSpec {
                    from_pin: 0,
                    to_pin: 3,
                    intrinsic: 16.0,
                    drive_resistance: 16.0,
                },
                TimingArcSpec {
                    from_pin: 1,
                    to_pin: 3,
                    intrinsic: 17.0,
                    drive_resistance: 16.0,
                },
                TimingArcSpec {
                    from_pin: 2,
                    to_pin: 3,
                    intrinsic: 15.0,
                    drive_resistance: 16.0,
                },
            ],
            is_sequential: false,
            clock_pin: None,
        });

        // D flip-flop: CK, D inputs; Q output; clock→Q arc only (D is a
        // timing endpoint, Q launches the next stage).
        lib.add(CellType {
            name: "DFF_X1".to_string(),
            width: 5.0,
            height: row,
            pins: vec![inp("CK", 0.0, 1.0), inp("D", 2.0, 1.5), outp("Q", 5.0)],
            arcs: vec![TimingArcSpec {
                from_pin: 0,
                to_pin: 2,
                intrinsic: 25.0,
                drive_resistance: 10.0,
            }],
            is_sequential: true,
            clock_pin: Some(0),
        });

        // IO pads: a primary input drives a net through PAD (output pin);
        // a primary output receives a net at PAD (input pin).
        lib.add(CellType {
            name: "IOPAD_IN".to_string(),
            width: 4.0,
            height: row,
            pins: vec![outp("PAD", 2.0)],
            arcs: vec![],
            is_sequential: false,
            clock_pin: None,
        });
        lib.add(CellType {
            name: "IOPAD_OUT".to_string(),
            width: 4.0,
            height: row,
            pins: vec![inp("PAD", 2.0, 2.0)],
            arcs: vec![],
            is_sequential: false,
            clock_pin: None,
        });

        // Hard macro block: a fixed multi-row obstacle (RAM/IP stand-in)
        // spanning 4 rows. Its single input pin lets generated designs
        // route nets into it so macros participate in timing as
        // heavily-loaded endpoints, like a memory's data input would.
        lib.add(CellType {
            name: "MACRO_BLK".to_string(),
            width: 48.0,
            height: 4.0 * row,
            pins: vec![inp("PAD", 24.0, 6.0)],
            arcs: vec![],
            is_sequential: false,
            clock_pin: None,
        });

        lib
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_library_has_expected_masters() {
        let lib = CellLibrary::standard();
        for name in [
            "INV_X1",
            "INV_X2",
            "INV_X4",
            "BUF_X1",
            "NAND2_X1",
            "NAND2_X2",
            "NOR2_X1",
            "AOI21_X1",
            "DFF_X1",
            "IOPAD_IN",
            "IOPAD_OUT",
            "MACRO_BLK",
        ] {
            assert!(lib.by_name(name).is_some(), "missing {name}");
        }

        // The macro master is a multi-row obstacle.
        let blk = lib.get(lib.by_name("MACRO_BLK").unwrap());
        assert!(blk.height > 10.0 && blk.width > 10.0);
        assert!(lib.len() >= 11);
        assert!(!lib.is_empty());
    }

    #[test]
    fn dff_is_sequential_with_clock_and_data() {
        let lib = CellLibrary::standard();
        let dff = lib.get(lib.by_name("DFF_X1").unwrap());
        assert!(dff.is_sequential);
        assert_eq!(dff.clock_pin, Some(0));
        assert_eq!(dff.data_pin(), Some(1));
        assert_eq!(dff.pin_index("Q"), Some(2));
    }

    #[test]
    fn stronger_drive_has_lower_resistance() {
        let lib = CellLibrary::standard();
        let x1 = lib.get(lib.by_name("INV_X1").unwrap());
        let x4 = lib.get(lib.by_name("INV_X4").unwrap());
        assert!(x4.arcs[0].drive_resistance < x1.arcs[0].drive_resistance);
        assert!(x4.pins[0].cap > x1.pins[0].cap);
    }

    #[test]
    fn pin_compatibility_needs_the_same_pins_and_sequential_shape() {
        let lib = CellLibrary::standard();
        let ty = |name| lib.get(lib.by_name(name).unwrap());
        let inv = ty("INV_X1");
        assert!(inv.pin_compatible(ty("INV_X4")));
        assert!(ty("NAND2_X2").pin_compatible(ty("NAND2_X1")));
        assert!(!inv.pin_compatible(ty("NAND2_X1")), "pin count");
        let mut renamed = inv.clone();
        renamed.pins[0].name = "B".into();
        let mut flipped = inv.clone();
        flipped.pins[0].direction = PinDirection::Output;
        let mut sequential = inv.clone();
        sequential.is_sequential = true;
        let mut clocked = inv.clone();
        clocked.clock_pin = Some(0);
        for other in [&renamed, &flipped, &sequential, &clocked] {
            assert!(!inv.pin_compatible(other), "{other:?}");
            assert!(!other.pin_compatible(inv), "{other:?}");
        }
    }

    #[test]
    fn combinational_cells_have_no_data_pin() {
        let lib = CellLibrary::standard();
        let inv = lib.get(lib.by_name("INV_X1").unwrap());
        assert_eq!(inv.data_pin(), None);
        assert_eq!(inv.output_pins().collect::<Vec<_>>(), vec![1]);
        assert_eq!(inv.input_pins().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    #[should_panic(expected = "duplicate cell type")]
    fn duplicate_name_panics() {
        let mut lib = CellLibrary::standard();
        lib.add(CellType {
            name: "INV_X1".to_string(),
            width: 1.0,
            height: 1.0,
            pins: vec![],
            arcs: vec![],
            is_sequential: false,
            clock_pin: None,
        });
    }

    #[test]
    #[should_panic(expected = "destination must be an output")]
    fn arc_to_input_panics() {
        let mut lib = CellLibrary::new();
        lib.add(CellType {
            name: "BAD".to_string(),
            width: 1.0,
            height: 1.0,
            pins: vec![
                PinSpec {
                    name: "A".into(),
                    direction: PinDirection::Input,
                    dx: 0.0,
                    dy: 0.0,
                    cap: 1.0,
                },
                PinSpec {
                    name: "B".into(),
                    direction: PinDirection::Input,
                    dx: 0.0,
                    dy: 0.0,
                    cap: 1.0,
                },
            ],
            arcs: vec![TimingArcSpec {
                from_pin: 0,
                to_pin: 1,
                intrinsic: 1.0,
                drive_resistance: 1.0,
            }],
            is_sequential: false,
            clock_pin: None,
        });
    }
}
