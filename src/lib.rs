//! Facade crate re-exporting the Efficient-TDP workspace.
pub use batch;
pub use benchgen;
pub use eco;
pub use netlist;
pub use placer;
pub use serve;
pub use sta;
pub use tdp_core;
pub use tdp_jsonio;
pub use tdp_route;
pub use tdp_trace;

pub mod kernels;
