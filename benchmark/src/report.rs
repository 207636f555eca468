//! One run's results: named metrics, operation counts and failed output
//! checks, printed as a table and as the driver's result line.

use crate::catalog;
use crate::stats;
use std::collections::BTreeMap;

/// One reported metric. `spread` holds the quartiles when the value is a
/// median of `n` samples; counts and derived ratios carry none.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub n: usize,
    pub spread: Option<(f64, f64)>,
}

/// Everything a workload run reports.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, Metric>,
    attempted: u64,
    failed: u64,
    /// What failed, for the human reading the output.
    failures: Vec<String>,
}

impl Report {
    /// Records a timing as the median of `samples`, with quartiles.
    pub fn timing(&mut self, name: &'static str, samples: &[f64]) {
        let s = stats::summarize(samples);
        self.insert(
            name,
            Metric {
                value: s.median,
                n: s.n,
                spread: Some((s.q1, s.q3)),
            },
        );
    }

    /// Records a timing as the median of the quietest window of `window`
    /// consecutive `samples` ([`stats::quietest_window_median`]); the
    /// quartiles printed beside it are those of the whole run.
    pub fn quiet_timing(&mut self, name: &'static str, samples: &[f64], window: usize) {
        let s = stats::summarize(samples);
        self.insert(
            name,
            Metric {
                value: stats::quietest_window_median(samples, window),
                n: s.n,
                spread: Some((s.q1, s.q3)),
            },
        );
    }

    /// Records a single measured or derived value (a count, a ratio, a
    /// one-shot timing).
    pub fn value(&mut self, name: &'static str, value: f64) {
        self.insert(
            name,
            Metric {
                value,
                n: 1,
                spread: None,
            },
        );
    }

    fn insert(&mut self, name: &'static str, metric: Metric) {
        // Also rejects a name the catalog does not hold.
        catalog::unit_of(name);
        assert!(
            self.metrics.insert(name, metric).is_none(),
            "metric {name} reported twice"
        );
    }

    /// Counts `n` operations that completed and passed their checks.
    pub fn ops_ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one operation or output check; a failed one is recorded
    /// with `what` went wrong and fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            // The first failures explain a run; thousands of repeats do not.
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Whether every operation and output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Prints the metric table for `names` (catalog order) to stdout.
    /// A catalogued metric this workload does not exercise prints as
    /// such and reports 0.
    pub fn print_table(&self, names: &[&'static str]) {
        println!(
            "{:<28} {:>14} {:<6} {:>5}  {:>14} {:>14}",
            "metric", "value", "unit", "n", "q1", "q3"
        );
        for name in names {
            match self.metrics.get(name) {
                Some(m) => {
                    let (q1, q3) = match m.spread {
                        Some((q1, q3)) => (format!("{q1:.4}"), format!("{q3:.4}")),
                        None => ("-".to_string(), "-".to_string()),
                    };
                    println!(
                        "{:<28} {:>14.4} {:<6} {:>5}  {:>14} {:>14}",
                        name,
                        m.value,
                        catalog::unit_of(name),
                        m.n,
                        q1,
                        q3
                    );
                }
                None => println!(
                    "{:<28} {:>14} {:<6} {:>5}  (layer not exercised by this workload)",
                    name,
                    0,
                    catalog::unit_of(name),
                    0
                ),
            }
        }
        println!(
            "ops_attempted {}  ops_failed {}",
            self.attempted, self.failed
        );
        for f in &self.failures {
            println!("FAILED: {f}");
        }
    }

    /// The driver's result line: one JSON object with `correct`,
    /// `attempted`, `failed` and the metrics in `names`.
    pub fn result_line(&self, names: &[&'static str]) -> String {
        let mut s = String::from("{");
        s.push_str(&format!(
            "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        ));
        for (i, name) in names.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let value = self.metrics.get(name).map_or(0.0, |m| m.value);
            tdp_jsonio::push_escaped(&mut s, name);
            s.push_str(": {\"value\": ");
            // `{:?}` keeps every digit of the f64 and always reads back
            // as a JSON number for finite values.
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            s.push_str(&format!("{value:?}"));
            s.push_str(", \"unit\": ");
            tdp_jsonio::push_escaped(&mut s, catalog::unit_of(name));
            s.push('}');
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object_with_the_contract_keys() {
        let mut r = Report::default();
        r.timing("primary_op_ms", &[3.0, 1.0, 2.0]);
        r.value("setup_s", 0.25);
        r.ops_ok(7);
        r.check(true, || unreachable!());
        let line = r.result_line(&["primary_op_ms", "setup_s"]);
        assert!(!line.contains('\n'));
        let doc = tdp_jsonio::parse(&line).expect("result line parses");
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("attempted").unwrap().as_usize(), Some(8));
        let m = doc.get("metrics").unwrap();
        let op = m.get("primary_op_ms").unwrap();
        assert_eq!(op.get("value").unwrap().as_f64(), Some(2.0));
        assert_eq!(op.get("unit").unwrap().as_str(), Some("ms"));
    }

    #[test]
    fn a_failed_check_fails_the_run_and_is_counted() {
        let mut r = Report::default();
        r.check(false, || "hash mismatch".to_string());
        r.check(true, || unreachable!());
        assert!(!r.correct());
        let doc = tdp_jsonio::parse(&r.result_line(&[])).unwrap();
        assert_eq!(doc.get("failed").unwrap().as_usize(), Some(1));
        assert_eq!(doc.get("attempted").unwrap().as_usize(), Some(2));
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(false));
    }
}
