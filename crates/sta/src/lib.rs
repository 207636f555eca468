//! Static timing analysis for the Efficient-TDP reproduction.
//!
//! This crate is the in-repo replacement for OpenTimer. It models the
//! circuit as a directed acyclic timing graph over pins and provides:
//!
//! * [`graph`] — timing-graph construction from a [`netlist::Design`]
//!   (cell arcs and net arcs), topological levelization, source/endpoint
//!   classification, and the level-ordered **rank layout** everything
//!   placement-dependent is stored in.
//! * [`rctree`] — per-net RC trees built from pin positions (star or
//!   Steiner/MST topology) with Elmore delay and downstream capacitance,
//!   all nets' trees in one slab arena refreshed in place.
//! * [`analysis`] — forward arrival / backward required propagation,
//!   per-pin slack, endpoint slacks, WNS and TNS.
//! * [`incremental`] — re-analysis after some cells moved: dirty-net RC
//!   refresh, then either the flat passes or a dirty-bitset sweep.
//! * [`report`] — critical path enumeration: the OpenTimer-style
//!   [`Sta::report_timing`] (k worst paths globally, O(n²) when used the
//!   way DREAMPlace 4.0 does) and the paper's
//!   [`Sta::report_timing_endpoint`] (k worst paths *per failing endpoint*,
//!   O(n·k)) — Sec. III-B of the paper.
//!
//! # The rank layout
//!
//! The graph is levelized once; a pin's *rank* is its position in the
//! level-major order and an arc's *slot* its position among the arcs
//! sorted by destination rank. Arcs are struct-of-arrays in slot order
//! (`from`, `to` ranks; gate `intrinsic` / `drive_resistance` and net
//! `net` / sink index by arc id), and [`Sta`] keeps arrival, required and
//! the worst predecessor by rank and arc delays by slot. The forward pass
//! is therefore one walk over contiguous memory from rank 0 up, the
//! backward pass the same walk down, and path backtracing a chain of
//! slot → rank hops with no id translation. [`netlist::PinId`] and
//! [`ArcId`] stay the public currency: accessors translate through
//! `rank_of` / `slot_of`, arc ids keep their construction order, and a
//! pin's in- and out-arcs are still visited in ascending arc id, so every
//! `max` / `min` tie resolves as it always did.
//!
//! # Re-analysis strategies
//!
//! [`Sta::analyze_incremental`] refreshes the dirty nets and then picks,
//! from the share of nets that are dirty, one of two ways to run the one
//! per-pin kernel: the **flat passes** (every pin, level-parallel — the
//! placer's all-cells-move iterations) or the **dirty sweep** (a bitset
//! over ranks, lowest set bit first, successors marked on a bit-level
//! change — ECO edits and local nudges). A sweep touches each pin at most
//! once and in memory order, so it can never cost much more than a flat
//! pass, which is why no pin budget and no fall-back-to-full branch
//! guards it (see [`incremental`]). [`Sta::incr_stats`] says which strategy ran and how many pins the
//! sweeps evaluated — exact counts that repeat for a given input.
//!
//! # Example
//!
//! ```
//! use netlist::{CellLibrary, DesignBuilder, Placement, Rect, Sdc};
//! use sta::{RcParams, Sta};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lib = CellLibrary::standard();
//! let mut b = DesignBuilder::new("t", lib, Rect::new(0.0, 0.0, 200.0, 200.0), 10.0);
//! b.set_sdc(Sdc::new(60.0));
//! let pi = b.add_fixed_cell("pi", "IOPAD_IN", 0.0, 100.0)?;
//! let u1 = b.add_cell("u1", "INV_X1")?;
//! let po = b.add_fixed_cell("po", "IOPAD_OUT", 196.0, 100.0)?;
//! b.add_net("n0", &[(pi, "PAD"), (u1, "A")])?;
//! b.add_net("n1", &[(u1, "Y"), (po, "PAD")])?;
//! let design = b.finish()?;
//!
//! let mut placement = Placement::new(&design);
//! placement.set(pi, 0.0, 100.0);
//! placement.set(u1, 100.0, 100.0);
//! placement.set(po, 196.0, 100.0);
//!
//! let mut sta = Sta::new(&design, RcParams::default())?;
//! sta.analyze(&design, &placement);
//! let report = sta.report_timing(&design, 1);
//! assert_eq!(report.len(), 1);
//! # Ok(())
//! # }
//! ```

pub mod analysis;
pub mod graph;
pub mod incremental;
pub mod rctree;
pub mod report;

pub use analysis::{EndpointSlack, IncrStats, Sta, StaCheckpoint, TimingSummary};
pub use graph::{graph_build_count, ArcId, ArcKind, BuildGraphError, TimingArc, TimingGraph};
pub use rctree::{NetTopology, RcOpStats, RcParams, RcSkeleton};
pub use report::{PathElement, TimingPath};
