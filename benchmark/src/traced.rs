//! The traced run's bookkeeping: recording on and off, the Chrome trace
//! file, and the share metrics every workload reports from its roll-up.

use crate::harness::out_dir;
use crate::report::Report;
use crate::spans::{self, Lanes, Rollup};
use tdp_jsonio::JsonValue;
use tdp_trace::LaneChunk;

/// Starts recording spans, dropping whatever earlier phases left in the
/// recorder.
pub fn begin() {
    tdp_trace::take();
    tdp_trace::set_enabled(true);
}

/// Stops recording and returns everything recorded since [`begin`].
pub fn end() -> Vec<LaneChunk> {
    tdp_trace::set_enabled(false);
    tdp_trace::take()
}

/// Writes `benchmark/out/<workload>.trace.json` (overwriting the last
/// run's) and reports `trace.events`.
pub fn write_trace(report: &mut Report, workload: &str, doc: &JsonValue, events: usize) {
    let path = out_dir().join(format!("{workload}.trace.json"));
    std::fs::write(&path, doc.encode()).expect("trace file writes");
    println!("trace: {} ({events} events)", path.display());
    report.value("trace.events", events as f64);
}

/// Validates `chunks`, writes them as the workload's Chrome trace and
/// returns their lanes.
pub fn export_chunks(report: &mut Report, workload: &str, chunks: &[LaneChunk]) -> Lanes {
    let valid = tdp_trace::validate(chunks);
    report.check(valid.is_ok(), || {
        format!("trace fails validation: {}", valid.clone().unwrap_err())
    });
    let events = chunks.iter().map(|c| c.events.len()).sum();
    write_trace(report, workload, &tdp_trace::chrome_trace(chunks), events);
    spans::from_chunks(chunks)
}

const SHARE_METRICS: [(&str, &str); 9] = [
    ("placer", "share.placer"),
    ("sta", "share.sta"),
    ("core", "share.core"),
    ("route", "share.route"),
    ("eco", "share.eco"),
    ("batch", "share.batch"),
    ("serve", "share.serve"),
    ("journal", "share.journal"),
    ("other", "share.other"),
];

/// Rolls `lanes` up under the workload's root spans and reports the
/// layer shares and the `parx` kernel counts; returns the roll-up for
/// the workload's own span-derived metrics.
pub fn report_shares(report: &mut Report, lanes: &Lanes, is_root: impl Fn(&str) -> bool) -> Rollup {
    let rollup = spans::rollup(lanes, is_root).unwrap_or_else(|e| {
        report.check(false, || format!("trace is not properly nested: {e}"));
        Rollup::default()
    });
    report.check(rollup.roots > 0, || {
        "traced run recorded no root span".to_string()
    });
    for (layer, metric) in SHARE_METRICS {
        report.value(metric, rollup.share(layer));
    }
    let roots = rollup.roots.max(1) as f64;
    report.value("parx.kernel_calls", rollup.parx_calls as f64 / roots);
    report.value(
        "parx.kernel_share",
        rollup.parx_ns as f64 / rollup.root_ns.max(1) as f64,
    );
    rollup
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn share_metrics_cover_every_layer_in_order() {
        let layers: Vec<&str> = SHARE_METRICS.iter().map(|(l, _)| *l).collect();
        assert_eq!(layers, spans::LAYERS);
        for (layer, metric) in SHARE_METRICS {
            assert_eq!(metric, format!("share.{layer}"));
        }
    }
}
