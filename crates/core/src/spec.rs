//! Validated flow descriptions: [`FlowSpec`] and its typed builder
//! [`FlowBuilder`].

use crate::config::FlowConfig;
use crate::error::FlowError;
use crate::objective::ObjectiveSpec;
use sta::RcParams;

/// A validated, runnable flow description: an objective plus a
/// [`FlowConfig`] that passed [`FlowConfig::validate`].
///
/// Built with [`FlowBuilder`]; consumed (by reference, reusable) by
/// [`Session::run`](crate::Session::run).
#[derive(Debug, Clone)]
pub struct FlowSpec {
    objective: ObjectiveSpec,
    config: FlowConfig,
}

impl FlowSpec {
    /// Validates `config` and pairs it with `objective`.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Config`] for invalid hyperparameter
    /// combinations, including combinations that are only invalid for
    /// this objective (e.g. a timing schedule that cannot fit inside the
    /// iteration budget).
    pub fn new(objective: ObjectiveSpec, config: FlowConfig) -> Result<Self, FlowError> {
        config.validate()?;
        if let ObjectiveSpec::CongestionAware { weight } = &objective {
            if !weight.is_finite() || *weight < 0.0 {
                return Err(FlowError::Config(format!(
                    "congestion weight must be finite and non-negative (got {weight})"
                )));
            }
        }
        if objective.is_timing_driven() {
            // The session raises min_iterations to this floor so timing
            // optimization gets at least 6 intervals; if the hard cap is
            // below it, the schedule would silently truncate.
            let needed = config.timing_iteration_floor();
            if needed > config.placer.max_iterations {
                return Err(FlowError::Config(format!(
                    "timing schedule does not fit: timing_start + 6*timing_interval = {needed} \
                     exceeds placer.max_iterations ({}); raise max_iterations or start timing \
                     earlier",
                    config.placer.max_iterations
                )));
            }
        }
        Ok(Self { objective, config })
    }

    /// The objective this spec runs.
    pub fn objective(&self) -> &ObjectiveSpec {
        &self.objective
    }

    /// The validated configuration.
    pub fn config(&self) -> &FlowConfig {
        &self.config
    }
}

/// Typed, validating construction of a [`FlowSpec`] — the replacement for
/// hand-assembling a 13-field [`FlowConfig`] literal.
///
/// Every setter is chainable; [`FlowBuilder::build`] runs
/// [`FlowConfig::validate`] and reports bad combinations as
/// [`FlowError::Config`] instead of letting them panic deep inside the
/// placer (e.g. a non-power-of-two density grid blowing up the FFT).
#[derive(Debug, Clone)]
pub struct FlowBuilder {
    objective: ObjectiveSpec,
    config: FlowConfig,
}

impl Default for FlowBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl FlowBuilder {
    /// Starts from the paper's defaults with the [`ObjectiveSpec::EfficientTdp`]
    /// objective.
    pub fn new() -> Self {
        Self {
            objective: ObjectiveSpec::EfficientTdp,
            config: FlowConfig::default(),
        }
    }

    /// Starts from an existing configuration (still validated at
    /// [`FlowBuilder::build`]).
    pub fn from_config(config: FlowConfig) -> Self {
        Self {
            objective: ObjectiveSpec::EfficientTdp,
            config,
        }
    }

    /// Selects the objective.
    pub fn objective(mut self, objective: ObjectiveSpec) -> Self {
        self.objective = objective;
        self
    }

    /// The configuration as currently accumulated — **not yet
    /// validated** (validation happens at [`FlowBuilder::build`]). Lets
    /// callers that layer overrides read the value a coupled setter
    /// (e.g. [`FlowBuilder::pair_weights`]) would otherwise clobber.
    pub fn config(&self) -> &FlowConfig {
        &self.config
    }

    /// Pin-to-pin attraction penalty multiplier β (Eq. 6).
    pub fn beta(mut self, beta: f64) -> Self {
        self.config.beta = beta;
        self
    }

    /// Timing-analysis period m: STA + extraction every `m` iterations.
    pub fn timing_interval(mut self, interval: usize) -> Self {
        self.config.timing_interval = interval;
        self
    }

    /// Iteration at which timing optimization commences.
    pub fn timing_start(mut self, start: usize) -> Self {
        self.config.timing_start = start;
        self
    }

    /// Initial pin-pair weight w0 and increment scale w1 (Eq. 9).
    pub fn pair_weights(mut self, w0: f64, w1: f64) -> Self {
        self.config.w0 = w0;
        self.config.w1 = w1;
        self
    }

    /// Wire parasitics for the in-loop STA.
    pub fn rc(mut self, rc: RcParams) -> Self {
        self.config.rc = rc;
        self
    }

    /// Worker count for STA and the gradient kernels (`0` = one per
    /// hardware thread, `1` = serial; bit-identical results either way).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Congestion-model knobs: bin grid, routing capacity per unit
    /// area, pin-density overlay (see [`tdp_route::RouteConfig`]).
    /// Consumed by every run's evaluation-time congestion report and by
    /// the [`ObjectiveSpec::CongestionAware`] in-loop estimator.
    pub fn route(mut self, route: tdp_route::RouteConfig) -> Self {
        self.config.route = route;
        self
    }

    /// Sets the congestion penalty weight **of an already-selected**
    /// [`ObjectiveSpec::CongestionAware`] objective. A no-op for every
    /// other objective (like `beta` on the wirelength baseline), so an
    /// `all` sweep can carry a `congestion_weight=` override that tunes
    /// only its congestion-aware member without hijacking the rest.
    pub fn congestion_weight(mut self, weight: f64) -> Self {
        if matches!(self.objective, ObjectiveSpec::CongestionAware { .. }) {
            self.objective = ObjectiveSpec::CongestionAware { weight };
        }
        self
    }

    /// Placement iteration bounds (`min` may be raised for timing-driven
    /// objectives so the loop survives past the timing start).
    pub fn iterations(mut self, min: usize, max: usize) -> Self {
        self.config.placer.min_iterations = min;
        self.config.placer.max_iterations = max;
        self
    }

    /// RNG seed for the initial cell spreading.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.placer.seed = seed;
        self
    }

    /// Validates the configuration and produces a reusable [`FlowSpec`].
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Config`] naming the first invalid field.
    pub fn build(self) -> Result<FlowSpec, FlowError> {
        FlowSpec::new(self.objective, self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{ObjectiveContext, ObjectiveFactory, SessionObjective};

    fn quick_builder() -> FlowBuilder {
        FlowBuilder::new()
            .iterations(60, 200)
            .timing_start(100)
            .timing_interval(10)
    }

    #[test]
    fn builder_rejects_bad_grid() {
        let mut cfg = FlowConfig::default();
        cfg.placer.grid = 33;
        let err = FlowBuilder::from_config(cfg).build().unwrap_err();
        assert!(matches!(err, FlowError::Config(_)), "{err}");
        assert!(err.to_string().contains("power of two"));
    }

    #[test]
    fn builder_rejects_non_finite_beta_and_zero_interval() {
        assert!(FlowBuilder::new().beta(f64::NAN).build().is_err());
        assert!(FlowBuilder::new().beta(-1.0).build().is_err());
        assert!(FlowBuilder::new().timing_interval(0).build().is_err());
        assert!(FlowBuilder::new()
            .iterations(500, 100)
            .build()
            .unwrap_err()
            .to_string()
            .contains("min_iterations"));
    }

    #[test]
    fn builder_rejects_timing_schedule_that_cannot_fit() {
        // 90 + 6*10 = 150 > max_iterations 100: the timing-driven run
        // would silently truncate, so the builder must reject it…
        let unfitting = FlowBuilder::new()
            .iterations(50, 100)
            .timing_start(90)
            .timing_interval(10);
        let err = unfitting.clone().build().unwrap_err();
        assert!(err.to_string().contains("timing schedule"), "{err}");
        // …but the same budget is fine for the non-timing baseline.
        assert!(unfitting
            .objective(ObjectiveSpec::DreamPlace)
            .build()
            .is_ok());
    }

    #[test]
    fn non_timing_custom_objectives_skip_the_schedule_check() {
        struct Noop;
        impl ObjectiveFactory for Noop {
            fn label(&self) -> String {
                "noop".into()
            }
            fn build(
                &self,
                _ctx: &ObjectiveContext<'_>,
            ) -> Result<Box<dyn SessionObjective>, FlowError> {
                Ok(Box::new(placer::NoTimingObjective))
            }
            fn is_timing_driven(&self) -> bool {
                false
            }
        }
        // 90 + 60 > 100 would fail for a timing-driven objective, but a
        // custom factory that declares itself non-timing is exempt.
        let spec = FlowBuilder::new()
            .objective(ObjectiveSpec::custom(Noop))
            .iterations(50, 100)
            .timing_start(90)
            .timing_interval(10)
            .build();
        assert!(spec.is_ok());
    }

    #[test]
    fn flow_specs_are_send_and_sync() {
        // Batch executors ship specs across worker threads; this must
        // hold for every variant, including `Custom` (whose factory trait
        // object carries the `Send + Sync` bound).
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ObjectiveSpec>();
        assert_send_sync::<FlowSpec>();
    }

    #[test]
    fn builder_accepts_the_defaults() {
        let spec = FlowBuilder::new().build().unwrap();
        assert!(matches!(spec.objective(), ObjectiveSpec::EfficientTdp));
        assert_eq!(spec.config().beta, FlowConfig::default().beta);
    }

    #[test]
    fn congestion_weight_is_validated() {
        let err = quick_builder()
            .objective(ObjectiveSpec::CongestionAware { weight: f64::NAN })
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("congestion weight"), "{err}");
        assert!(quick_builder()
            .objective(ObjectiveSpec::CongestionAware { weight: -1.0 })
            .build()
            .is_err());
        // The weight setter adjusts a congestion-aware objective in
        // place…
        let spec = quick_builder()
            .objective(ObjectiveSpec::congestion_aware())
            .congestion_weight(0.5)
            .build()
            .unwrap();
        assert!(
            matches!(spec.objective(), ObjectiveSpec::CongestionAware { weight } if *weight == 0.5)
        );
        // …and never hijacks another objective (so an `all` sweep can
        // carry the override harmlessly).
        let spec = quick_builder().congestion_weight(0.5).build().unwrap();
        assert!(matches!(spec.objective(), ObjectiveSpec::EfficientTdp));
    }
}
