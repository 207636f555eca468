//! Efficient-TDP: timing-driven global placement by efficient critical
//! path extraction (Shi et al., DATE 2025).
//!
//! This crate implements the paper's contribution on top of the `placer`
//! and `sta` substrates:
//!
//! * [`pinpair`] — the maintained pin-pair set `P` with the path-sharing
//!   weight update of Eq. 9.
//! * [`loss`] — the pin-to-pin attraction losses: the paper's quadratic
//!   Euclidean distance (Eq. 8) plus the linear and HPWL ablation variants
//!   of Table 3 / Fig. 3.
//! * [`extraction`] — adapters from STA path reports to pin pairs, with
//!   the strategy axis of Table 1 (`report_timing(n)` vs
//!   `report_timing_endpoint(n, k)`).
//! * [`weighting`] — the net-weighting baselines: one
//!   [`NetWeightingObjective`] with DREAMPlace 4.0's momentum rule and a
//!   Differentiable-TDP-style smoothed-criticality rule.
//! * [`flow`] — the Fig. 1 flow: vanilla placement, then periodic STA +
//!   extraction + pin-pair weight updates feeding a `β·PP` gradient into
//!   the Nesterov loop, finished by Abacus legalization.
//! * [`metrics`] — the shared evaluation kit (exact HPWL + STA TNS/WNS on
//!   the legalized result), used identically for every method.
//! * [`session`] — the public front door: a reusable [`Session`] that
//!   owns the netlist and timing infrastructure and runs flows.
//! * [`spec`] — validated [`FlowSpec`]s built with [`FlowBuilder`].
//! * [`objective`] — the open objective surface: [`ObjectiveSpec`],
//!   [`ObjectiveFactory`], [`ObjectiveContext`] and [`SessionObjective`].
//! * [`observer`] — streaming [`Observer`] callbacks with early-stop; the
//!   run's hub behind `FlowOutcome::trace`.
//! * [`congestion`] — the congestion-aware objective: the paper's method
//!   plus a differentiable RUDY overflow penalty (`tdp-route`), exposed
//!   as [`ObjectiveSpec::CongestionAware`].
//! * [`error`] — [`FlowError`], the error surface of everything above.
//!
//! # Example
//!
//! ```no_run
//! use benchgen::{generate, CircuitParams};
//! use tdp_core::{FlowBuilder, ObjectiveSpec, Session};
//!
//! # fn main() -> Result<(), tdp_core::FlowError> {
//! let (design, pads) = generate(&CircuitParams::small("demo", 1));
//! // One session per design: the timing graph is built exactly once and
//! // shared by every run.
//! let mut session = Session::builder(design, pads).build()?;
//! let spec = FlowBuilder::new()
//!     .objective(ObjectiveSpec::EfficientTdp)
//!     .build()?;
//! let outcome = session.run(&spec)?;
//! println!(
//!     "TNS {:.1} WNS {:.1} HPWL {:.3e}",
//!     outcome.metrics.tns, outcome.metrics.wns, outcome.metrics.hpwl
//! );
//! # Ok(())
//! # }
//! ```

pub mod config;
pub mod congestion;
pub mod error;
pub mod extraction;
pub mod flow;
pub mod loss;
pub mod metrics;
pub mod objective;
pub mod observer;
pub mod pinpair;
pub mod session;
pub mod spec;
pub mod weighting;

pub use config::FlowConfig;
pub use congestion::{CongestionAwareObjective, DEFAULT_CONGESTION_WEIGHT};
pub use error::FlowError;
pub use extraction::{extract_pin_pairs, ExtractionStats, ExtractionStrategy};
pub use flow::{EcoStats, FlowOutcome, FlowTraceRow, RuntimeBreakdown};
pub use loss::PinPairLoss;
pub use metrics::{evaluate, evaluate_with, Metrics};
pub use objective::{ObjectiveContext, ObjectiveFactory, ObjectiveSpec, SessionObjective};
pub use observer::{FlowPhase, Observer, ObserverAction};
pub use pinpair::PinPairSet;
pub use session::{Session, SessionBuilder};
pub use spec::{FlowBuilder, FlowSpec};
pub use weighting::NetWeightingObjective;

// The routability layer's vocabulary types, re-exported so front ends
// that already depend on `tdp-core` (batch, serve) speak congestion
// without a direct `tdp-route` dependency.
pub use tdp_route::{CongestionMap, CongestionReport, RouteConfig};
