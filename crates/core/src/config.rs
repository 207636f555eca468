//! Flow hyperparameters.

use crate::error::FlowError;
use crate::extraction::ExtractionStrategy;
use crate::loss::PinPairLoss;
use placer::PlacerConfig;
use sta::{NetTopology, RcParams};
use tdp_route::RouteConfig;

/// Hyperparameters of the timing-driven placement flow.
///
/// Paper defaults (Sec. IV): `β = 2.5e-5`, `m = 15`, `w0 = 10`, `w1 = 0.2`,
/// timing optimization starting at iteration 500. Iteration counts are
/// scaled for CPU-sized designs; the β default (`5e-4`) is recalibrated
/// for the synthetic suite's die dimensions, and no sweep behind it is
/// recorded in the repository.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowConfig {
    /// Pin-to-pin attraction penalty multiplier β (Eq. 6).
    pub beta: f64,
    /// Timing-analysis period m: STA + extraction every `m` iterations.
    pub timing_interval: usize,
    /// Iteration at which timing optimization commences.
    pub timing_start: usize,
    /// Initial pin-pair weight w0 (Eq. 9).
    pub w0: f64,
    /// Pin-pair weight increment scale w1 (Eq. 9).
    pub w1: f64,
    /// Which pin-to-pin loss to use (Table 3 ablation axis).
    pub loss: PinPairLoss,
    /// How critical paths are extracted (Table 1 / Table 3 ablation axis).
    pub extraction: ExtractionStrategy,
    /// Wire parasitics for the in-loop STA.
    pub rc: RcParams,
    /// Underlying placer configuration.
    pub placer: PlacerConfig,
    /// Worker count for STA and the gradient kernels: `0` = one per
    /// hardware thread, `1` = serial. Results are bit-identical for
    /// every value — this is a speed knob only.
    pub threads: usize,
    /// Congestion-model knobs (bin grid, routing capacity, pin-density
    /// overlay) — consumed by the evaluation-time
    /// [`CongestionReport`](tdp_route::CongestionReport) on every run
    /// and by the
    /// [`ObjectiveSpec::CongestionAware`](crate::ObjectiveSpec)
    /// objective's in-loop estimator.
    pub route: RouteConfig,
}

impl Default for FlowConfig {
    fn default() -> Self {
        Self {
            beta: 5e-4,
            timing_interval: 15,
            timing_start: 250,
            w0: 10.0,
            w1: 0.2,
            loss: PinPairLoss::Quadratic,
            extraction: ExtractionStrategy::ReportTimingEndpoint { k: 1 },
            rc: RcParams {
                res_per_unit: 0.3,
                cap_per_unit: 0.01,
                topology: NetTopology::SteinerMst,
            },
            placer: PlacerConfig {
                grid: 32,
                max_iterations: 700,
                min_iterations: 400,
                stop_overflow: 0.08,
                ..PlacerConfig::default()
            },
            threads: 0,
            route: RouteConfig::default(),
        }
    }
}

impl FlowConfig {
    /// Minimum iteration count a timing-driven run needs so the schedule
    /// gets at least 6 timing intervals after `timing_start`. The session
    /// raises `placer.min_iterations` to this floor, and
    /// [`FlowSpec::new`](crate::FlowSpec::new) rejects specs whose
    /// `placer.max_iterations` cannot accommodate it.
    pub fn timing_iteration_floor(&self) -> usize {
        self.timing_interval
            .saturating_mul(6)
            .saturating_add(self.timing_start)
    }

    /// Whether iteration `iter` runs timing analysis: every
    /// `timing_interval`-th iteration from `timing_start` on. The one
    /// schedule all timing-driven builtin objectives share.
    pub(crate) fn is_timing_iteration(&self, iter: usize) -> bool {
        iter >= self.timing_start && (iter - self.timing_start).is_multiple_of(self.timing_interval)
    }

    /// Checks every hyperparameter combination that would otherwise fail
    /// somewhere deep inside the placer or the timing engine (FFT grid
    /// sizes, degenerate schedules, non-finite weights).
    ///
    /// [`FlowBuilder::build`](crate::FlowBuilder::build) calls this so a
    /// bad configuration is reported as a [`FlowError::Config`] at the API
    /// boundary instead of panicking mid-run.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Config`] naming the offending field.
    pub fn validate(&self) -> Result<(), FlowError> {
        fn finite_nonneg(name: &str, v: f64) -> Result<(), FlowError> {
            if !v.is_finite() || v < 0.0 {
                return Err(FlowError::Config(format!(
                    "{name} must be finite and non-negative (got {v})"
                )));
            }
            Ok(())
        }
        finite_nonneg("beta", self.beta)?;
        finite_nonneg("w0", self.w0)?;
        finite_nonneg("w1", self.w1)?;
        finite_nonneg("rc.res_per_unit", self.rc.res_per_unit)?;
        finite_nonneg("rc.cap_per_unit", self.rc.cap_per_unit)?;
        if self.timing_interval == 0 {
            return Err(FlowError::Config(
                "timing_interval must be at least 1".into(),
            ));
        }
        let p = &self.placer;
        if p.grid < 2 || !p.grid.is_power_of_two() {
            return Err(FlowError::Config(format!(
                "placer.grid must be a power of two >= 2 (got {}); the spectral density solver runs an FFT over the bin grid",
                p.grid
            )));
        }
        if p.max_iterations == 0 {
            return Err(FlowError::Config(
                "placer.max_iterations must be at least 1".into(),
            ));
        }
        if p.min_iterations > p.max_iterations {
            return Err(FlowError::Config(format!(
                "placer.min_iterations ({}) exceeds placer.max_iterations ({})",
                p.min_iterations, p.max_iterations
            )));
        }
        if !p.target_density.is_finite() || p.target_density <= 0.0 {
            return Err(FlowError::Config(format!(
                "placer.target_density must be positive (got {})",
                p.target_density
            )));
        }
        if !p.gamma_factor.is_finite() || p.gamma_factor <= 0.0 {
            return Err(FlowError::Config(format!(
                "placer.gamma_factor must be positive (got {})",
                p.gamma_factor
            )));
        }
        if !p.stop_overflow.is_finite() {
            return Err(FlowError::Config(format!(
                "placer.stop_overflow must be finite (got {})",
                p.stop_overflow
            )));
        }
        self.route.validate().map_err(FlowError::Config)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_hyperparameters() {
        let c = FlowConfig::default();
        assert_eq!(c.timing_interval, 15);
        assert_eq!(c.w0, 10.0);
        assert_eq!(c.w1, 0.2);
        assert_eq!(c.loss, PinPairLoss::Quadratic);
        assert!(matches!(
            c.extraction,
            ExtractionStrategy::ReportTimingEndpoint { k: 1 }
        ));
    }
}
