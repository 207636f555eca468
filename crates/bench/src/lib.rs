//! Shared helpers for the experiment harness binaries.
//!
//! Each paper table/figure has a `bin` target that regenerates it:
//!
//! | Paper artifact | Binary |
//! |---|---|
//! | Table 1 (extraction statistics) | `table1_extraction` |
//! | Table 2 (main TNS/WNS/HPWL comparison) | `table2_main` |
//! | Table 3 (ablation) | `table3_ablation` |
//! | Table 4 (runtime) | `table4_runtime` |
//! | Fig. 3 (path under different losses) | `fig3_path_loss` |
//! | Fig. 4 (runtime breakdown) | `fig4_breakdown` |
//! | Fig. 5 (optimization curves) | `fig5_curves` |
//!
//! Run with `cargo run --release -p bench --bin <name>`.

use benchgen::SuiteCase;
use netlist::{Design, Placement};
use tdp_core::{FlowBuilder, FlowConfig, FlowSpec, Metrics, ObjectiveSpec, Session};

/// The flow configuration used for every suite run (paper Sec. IV
/// hyperparameters, with β recalibrated for the synthetic suite as
/// [`FlowConfig`] states).
pub fn suite_config(case: &SuiteCase) -> FlowConfig {
    let mut cfg = FlowConfig::default();
    cfg.rc.res_per_unit = case.params.res_per_unit;
    cfg.rc.cap_per_unit = case.params.cap_per_unit;
    // The paper harness reports single-core numbers (table4_runtime is
    // labeled so); the repo benchmark's `*_t1_ms` metrics cover threads.
    cfg.threads = 1;
    cfg
}

/// Generates a case's design and pad placement.
pub fn load_case(case: &SuiteCase) -> (Design, Placement) {
    benchgen::generate(&case.params)
}

/// Builds a reusable [`Session`] for one suite case. The harness binaries
/// run their whole method matrix through one session per case, so the
/// timing graph and RC data are constructed once, not once per method.
pub fn case_session(case: &SuiteCase) -> Session {
    let (design, pads) = load_case(case);
    Session::builder(design, pads)
        .build()
        .expect("generated designs are acyclic")
}

/// A validated spec running `objective` under `cfg`.
pub fn method_spec(cfg: &FlowConfig, objective: ObjectiveSpec) -> FlowSpec {
    FlowBuilder::from_config(cfg.clone())
        .objective(objective)
        .build()
        .expect("suite configuration is valid")
}

/// One row of a metric table: `(tns, wns, hpwl)` per method column.
#[derive(Debug, Clone, Default)]
pub struct RatioAccumulator {
    sums: Vec<(f64, f64, f64)>,
    rows: usize,
}

impl RatioAccumulator {
    /// Creates an accumulator over `columns` methods.
    pub fn new(columns: usize) -> Self {
        Self {
            sums: vec![(0.0, 0.0, 0.0); columns],
            rows: 0,
        }
    }

    /// Adds one benchmark row; `reference` is the column others are
    /// normalized by (the paper normalizes by "ours").
    pub fn add(&mut self, metrics: &[Metrics], reference: usize) {
        assert_eq!(metrics.len(), self.sums.len());
        let r = &metrics[reference];
        // Clamp to −1 so met-timing rows do not divide by zero; this
        // matches reporting a ratio against "effectively closed".
        let (rt, rw, rh) = (r.tns.min(-1.0), r.wns.min(-1.0), r.hpwl);
        for (s, m) in self.sums.iter_mut().zip(metrics) {
            s.0 += m.tns.min(-1.0) / rt;
            s.1 += m.wns.min(-1.0) / rw;
            s.2 += m.hpwl / rh;
        }
        self.rows += 1;
    }

    /// Average `(tns, wns, hpwl)` ratios per column.
    pub fn averages(&self) -> Vec<(f64, f64, f64)> {
        self.sums
            .iter()
            .map(|&(t, w, h)| {
                let n = self.rows.max(1) as f64;
                (t / n, w / n, h / n)
            })
            .collect()
    }
}

/// Formats a metrics triple in the paper's units: TNS ×10³ ps, WNS ×10³ ps,
/// HPWL ×10⁵ (the synthetic suite is ~100× smaller than superblue, so the
/// exponents are shifted accordingly).
pub fn fmt_metrics(m: &Metrics) -> String {
    format!(
        "{:>10.2} {:>8.2} {:>8.3}",
        m.tns / 1e3,
        m.wns / 1e3,
        m.hpwl / 1e5
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(tns: f64, wns: f64, hpwl: f64) -> Metrics {
        Metrics {
            tns,
            wns,
            hpwl,
            failing_endpoints: 0,
            total_endpoints: 1,
        }
    }

    #[test]
    fn ratios_normalize_by_reference() {
        let mut acc = RatioAccumulator::new(2);
        acc.add(&[m(-200.0, -20.0, 2.0), m(-100.0, -10.0, 1.0)], 1);
        acc.add(&[m(-300.0, -30.0, 3.0), m(-100.0, -10.0, 1.0)], 1);
        let avg = acc.averages();
        assert!((avg[0].0 - 2.5).abs() < 1e-12);
        assert!((avg[0].1 - 2.5).abs() < 1e-12);
        assert!((avg[0].2 - 2.5).abs() < 1e-12);
        assert!((avg[1].0 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn closed_timing_rows_do_not_divide_by_zero() {
        let mut acc = RatioAccumulator::new(2);
        acc.add(&[m(-50.0, -5.0, 1.0), m(0.0, 0.0, 1.0)], 1);
        let avg = acc.averages();
        assert!(avg[0].0.is_finite());
        assert!(avg[0].0 > 1.0);
    }

    #[test]
    fn suite_config_adopts_case_rc() {
        let case = &benchgen::suite()[0];
        let cfg = suite_config(case);
        assert_eq!(cfg.rc.res_per_unit, case.params.res_per_unit);
        assert_eq!(cfg.rc.cap_per_unit, case.params.cap_per_unit);
    }
}
