//! The four workloads. Each takes the run's options and fills a
//! [`Report`](crate::report::Report): end-to-end metrics from an
//! untraced run, per-layer metrics from a traced one.

pub mod batch_matrix;
pub mod place_scale;
pub mod serve_mix;
pub mod timing_loop;
