//! Density models: bin grid, spectral kernels and the electrostatic
//! (ePlace) penalty used by the global placer.

pub mod electrostatic;
pub mod fft;
pub mod grid;

pub use electrostatic::ElectrostaticDensity;
pub use grid::{BinGrid, MovableCells};
