//! Circuit data model for the Efficient-TDP reproduction.
//!
//! This crate provides the netlist substrate every other crate builds on:
//!
//! * [`ids`] — strongly-typed indices ([`CellId`], [`NetId`], [`PinId`],
//!   [`CellTypeId`]) so cells, nets and pins can never be confused.
//! * [`library`] — the standard-cell library model: cell geometry, pin
//!   offsets, input capacitances and a linear drive-resistance delay model
//!   per timing arc.
//! * [`design`] — the flat netlist itself ([`Design`]): cell instances,
//!   nets, pins, the die outline and placement rows, plus a validating
//!   [`DesignBuilder`].
//! * [`placement`] — cell coordinates ([`Placement`]) and derived pin
//!   positions and half-perimeter wirelength.
//! * [`topology`] — the frozen net-major pin layout ([`Topology`]) the
//!   wirelength kernels and HPWL iterate over; it is the design's one copy
//!   of its connectivity, built by [`DesignBuilder`].
//! * [`sdc`] — timing constraints: clock period, input arrival times and
//!   output required times.
//! * [`fnv`] — the FNV-1a fingerprint recipe every content hash and
//!   benchmark checksum in the workspace folds with.
//! * [`io`] — minimal Bookshelf-style text serialization for designs and
//!   placements (round-trip tested).
//!
//! # Example
//!
//! Build a two-inverter chain and compute its wirelength:
//!
//! ```
//! use netlist::{CellLibrary, DesignBuilder, Placement, Rect};
//!
//! # fn main() -> Result<(), netlist::NetlistError> {
//! let lib = CellLibrary::standard();
//! let mut b = DesignBuilder::new("chain", lib, Rect::new(0.0, 0.0, 100.0, 100.0), 10.0);
//! let pad_in = b.add_fixed_cell("pi", "IOPAD_IN", 0.0, 50.0)?;
//! let inv1 = b.add_cell("u1", "INV_X1")?;
//! let inv2 = b.add_cell("u2", "INV_X1")?;
//! let pad_out = b.add_fixed_cell("po", "IOPAD_OUT", 100.0, 50.0)?;
//! b.add_net("n0", &[(pad_in, "PAD"), (inv1, "A")])?;
//! b.add_net("n1", &[(inv1, "Y"), (inv2, "A")])?;
//! b.add_net("n2", &[(inv2, "Y"), (pad_out, "PAD")])?;
//! let design = b.finish()?;
//!
//! let mut placement = Placement::new(&design);
//! placement.set(inv1, 30.0, 50.0);
//! placement.set(inv2, 60.0, 50.0);
//! assert!(placement.total_hpwl(&design) > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod design;
pub mod fnv;
pub mod ids;
pub mod io;
pub mod library;
pub mod placement;
pub mod sdc;
pub mod topology;

pub use design::{Cell, Design, DesignBuilder, DesignStats, Net, NetlistError, Pin, Rect, Row};
pub use ids::{CellId, CellTypeId, NetId, PinId};
pub use io::ParseError;
pub use library::{CellLibrary, CellType, PinDirection, PinSpec, TimingArcSpec};
pub use placement::{CellMove, DirtySummary, MoveTracker, Placement};
pub use sdc::Sdc;
pub use topology::Topology;
