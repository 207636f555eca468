//! Analytical global placement for the Efficient-TDP reproduction.
//!
//! This crate is the in-repo replacement for the DREAMPlace placement
//! engine. It solves the unconstrained nonlinear formulation of Eq. 1:
//!
//! ```text
//! min_{x,y}  Σ_e  w_e · WL_e(x, y)  +  λ · D(x, y)  (+ pluggable timing terms)
//! ```
//!
//! * [`wirelength`] — weighted-average (WA) smoothed wirelength with
//!   analytic gradients, plus exact HPWL.
//! * [`density`] — ePlace-style electrostatic density: bin grid, spectral
//!   Poisson solver on a hand-rolled real FFT/DCT, per-cell field forces.
//! * [`optim`] — Nesterov accelerated gradient with Barzilai–Borwein step
//!   (the DREAMPlace optimizer).
//! * [`legalize`] — Abacus row legalization with a Tetris fallback.
//! * [`engine`] — the [`GlobalPlacer`] driver tying it all together, with a
//!   [`TimingObjective`] extension point the `tdp-core` crate plugs into.
//!
//! # Example
//!
//! ```no_run
//! use netlist::Placement;
//! use placer::{GlobalPlacer, PlacerConfig};
//! # fn get_design() -> (netlist::Design, Placement) { unimplemented!() }
//! // `initial` carries the fixed-cell (IO pad) positions.
//! let (design, initial) = get_design();
//! let config = PlacerConfig::default();
//! let mut placer = GlobalPlacer::new(&design, initial, config);
//! let result = placer.run(&design);
//! println!("HPWL {:.3e} after {} iterations", result.hpwl, result.iterations);
//! ```

pub mod density;
pub mod engine;
pub mod legalize;
pub mod optim;
pub mod wirelength;

pub use density::{BinGrid, ElectrostaticDensity, MovableCells};
pub use engine::{
    GlobalPlacer, IterationStats, NoTimingObjective, PlaceResult, PlacerConfig, TimingObjective,
};
pub use legalize::{abacus_legalize, free_segments, tetris_legalize, LegalizeStats, RowSegment};
pub use optim::NesterovOptimizer;
pub use wirelength::{WaScratch, WaWirelength};
