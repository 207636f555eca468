//! Aggregated batch reports: JSONL for machines, Markdown for humans.
//!
//! Serialization goes through the workspace's shared JSON layer
//! ([`tdp_jsonio`]) — strings with escaping, numbers (NaN/∞ become
//! `null`, as JSON demands), bools. [`job_json`] is the one encoding of
//! a [`JobReport`]: the batch JSONL lines, the serve daemon's
//! `status`/`wait`/`finished` payloads and its journal's `finished`
//! records all carry the bytes it renders.

use crate::runner::{BatchResult, JobReport, JobStatus};
use std::fmt::Write as _;
use std::time::Duration;
use tdp_jsonio::{field_bool, field_hex, field_num, field_str};

/// Fleet-level accounting across one batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetTotals {
    /// Jobs in the batch.
    pub jobs: usize,
    /// Jobs that ran to completion.
    pub done: usize,
    /// Jobs stopped through their cancellation flag.
    pub canceled: usize,
    /// Jobs that failed to run.
    pub failed: usize,
    /// Sum of TNS over jobs with metrics (a fleet "how much timing debt
    /// remains" figure).
    pub tns_sum: f64,
    /// Worst WNS across jobs with metrics.
    pub wns_worst: f64,
    /// Sum of HPWL over jobs with metrics.
    pub hpwl_sum: f64,
    /// Failing / total endpoints summed over jobs with metrics.
    pub failing_endpoints: usize,
    /// Total timed endpoints over jobs with metrics.
    pub total_endpoints: usize,
    /// Worst congestion peak utilization across jobs with a congestion
    /// report (0 when none have one).
    pub congestion_peak_max: f64,
    /// Total congestion overflow summed over jobs with a congestion
    /// report — the fleet's "how much routing debt remains" figure.
    pub congestion_overflow_sum: f64,
    /// Sum of per-job flow runtimes (CPU-ish time; compare against
    /// `wall` for the concurrency win).
    pub runtime_sum: Duration,
    /// Nets refreshed by RC work summed over all jobs — the fleet's
    /// "how much RC arithmetic ran" figure.
    pub rc_nets_refreshed_sum: u64,
}

impl BatchResult {
    /// Computes the fleet totals of this result.
    pub fn fleet(&self) -> FleetTotals {
        let mut t = FleetTotals {
            jobs: self.reports.len(),
            done: 0,
            canceled: 0,
            failed: 0,
            tns_sum: 0.0,
            wns_worst: 0.0,
            hpwl_sum: 0.0,
            failing_endpoints: 0,
            total_endpoints: 0,
            congestion_peak_max: 0.0,
            congestion_overflow_sum: 0.0,
            runtime_sum: Duration::ZERO,
            rc_nets_refreshed_sum: 0,
        };
        for r in &self.reports {
            match r.status {
                JobStatus::Done => t.done += 1,
                JobStatus::Canceled => t.canceled += 1,
                JobStatus::Failed(_) => t.failed += 1,
            }
            if let Some(m) = r.metrics {
                t.tns_sum += m.tns;
                t.wns_worst = t.wns_worst.min(m.wns);
                t.hpwl_sum += m.hpwl;
                t.failing_endpoints += m.failing_endpoints;
                t.total_endpoints += m.total_endpoints;
            }
            if let Some(c) = r.congestion {
                t.congestion_peak_max = t.congestion_peak_max.max(c.peak);
                t.congestion_overflow_sum += c.overflow;
            }
            t.runtime_sum += r.runtime.total;
            t.rc_nets_refreshed_sum += r.runtime.rc.nets_refreshed;
        }
        t
    }

    /// The process exit code a CLI front end should report for this
    /// batch: `0` when every job completed (canceled jobs count as
    /// completed — someone asked for them to stop), `1` when any job
    /// `failed`. Centralized here so the guarantee is testable without
    /// spawning the binary.
    pub fn exit_code(&self) -> i32 {
        if self.fleet().failed > 0 {
            1
        } else {
            0
        }
    }

    /// One JSON object per job (id order), then one `fleet` object —
    /// newline-delimited.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.reports {
            out.push_str(&job_json(r));
            out.push('\n');
        }
        let f = self.fleet();
        let mut line = String::from("{\"record\":\"fleet\"");
        field_num(&mut line, "jobs", f.jobs as f64);
        field_num(&mut line, "done", f.done as f64);
        field_num(&mut line, "canceled", f.canceled as f64);
        field_num(&mut line, "failed", f.failed as f64);
        field_num(&mut line, "tns_sum", f.tns_sum);
        field_num(&mut line, "wns_worst", f.wns_worst);
        field_num(&mut line, "hpwl_sum", f.hpwl_sum);
        field_num(&mut line, "failing_endpoints", f.failing_endpoints as f64);
        field_num(&mut line, "total_endpoints", f.total_endpoints as f64);
        field_num(&mut line, "congestion_peak_max", f.congestion_peak_max);
        field_num(
            &mut line,
            "congestion_overflow_sum",
            f.congestion_overflow_sum,
        );
        field_num(&mut line, "runtime_sum_s", f.runtime_sum.as_secs_f64());
        field_num(
            &mut line,
            "rc_nets_refreshed_sum",
            f.rc_nets_refreshed_sum as f64,
        );
        field_num(&mut line, "wall_s", self.wall.as_secs_f64());
        field_num(&mut line, "workers", self.workers as f64);
        line.push('}');
        out.push_str(&line);
        out.push('\n');
        out
    }

    /// A Markdown report: per-job table, a fleet-totals section, and —
    /// when anything failed — a `Failed jobs` footer naming each failed
    /// job with its error, so a red batch is diagnosable from the
    /// summary alone instead of by scanning per-job rows.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("# Batch report\n\n");
        out.push_str(
            "| job | case | objective | cells | iters | TNS | WNS | HPWL | fail/total EP | cong peak | time (s) | status |\n",
        );
        out.push_str("|---|---|---|---|---|---|---|---|---|---|---|---|\n");
        for r in &self.reports {
            let (tns, wns, hpwl, ep) = match r.metrics {
                Some(m) => (
                    format!("{:.1}", m.tns),
                    format!("{:.1}", m.wns),
                    format!("{:.3e}", m.hpwl),
                    format!("{}/{}", m.failing_endpoints, m.total_endpoints),
                ),
                None => ("-".into(), "-".into(), "-".into(), "-".into()),
            };
            let cong = match r.congestion {
                Some(c) => format!("{:.2}", c.peak),
                None => "-".into(),
            };
            // Table cells must not contain '|' or newlines; failure
            // messages are arbitrary (panic payloads), so sanitize.
            let status = match &r.status {
                JobStatus::Failed(msg) => format!("failed: {}", sanitize_cell(msg)),
                s => s.label().to_string(),
            };
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {:.2} | {}{} |",
                r.job,
                r.case,
                r.objective,
                r.cells,
                r.iterations,
                tns,
                wns,
                hpwl,
                ep,
                cong,
                r.runtime.total.as_secs_f64(),
                status,
                if r.legal { "" } else { " (ILLEGAL)" },
            );
        }
        let f = self.fleet();
        out.push_str("\n## Fleet totals\n\n");
        let _ = writeln!(
            out,
            "- jobs: {} ({} done, {} canceled, {} failed)",
            f.jobs, f.done, f.canceled, f.failed
        );
        let _ = writeln!(
            out,
            "- ΣTNS: {:.1}   worst WNS: {:.1}",
            f.tns_sum, f.wns_worst
        );
        let _ = writeln!(
            out,
            "- ΣHPWL: {:.3e}   failing endpoints: {}/{}",
            f.hpwl_sum, f.failing_endpoints, f.total_endpoints
        );
        let _ = writeln!(
            out,
            "- congestion: peak {:.2}   Σ overflow {:.2}",
            f.congestion_peak_max, f.congestion_overflow_sum
        );
        let _ = writeln!(
            out,
            "- Σ job runtime: {:.2} s over {:.2} s wall on {} workers ({:.2}x)",
            f.runtime_sum.as_secs_f64(),
            self.wall.as_secs_f64(),
            self.workers,
            f.runtime_sum.as_secs_f64() / self.wall.as_secs_f64().max(1e-9),
        );
        if f.failed > 0 {
            out.push_str("\n## Failed jobs\n\n");
            for r in &self.reports {
                if let JobStatus::Failed(msg) = &r.status {
                    let _ = writeln!(
                        out,
                        "- job {}: {} × {} — {}",
                        r.job,
                        r.case,
                        r.objective,
                        sanitize_cell(msg)
                    );
                }
            }
            let _ = writeln!(out, "\n**Exit code: 1** ({} job(s) failed)", f.failed);
        }
        out
    }
}

/// Strips Markdown-hostile characters (pipes, newlines) out of an
/// arbitrary message so it can sit inside a table cell or list item.
fn sanitize_cell(msg: &str) -> String {
    msg.replace('|', "\\|").replace(['\n', '\r'], " ")
}

/// One job as a single-line JSON object (`{"record":"job",...}`) — the
/// one schema of a [`JobReport`]: the batch JSONL reports, the serve
/// protocol's `status`/`wait`/`finished` payloads and the serve
/// journal's `finished` records are all these bytes.
pub fn job_json(r: &JobReport) -> String {
    let mut out = String::from("{\"record\":\"job\"");
    let s = &mut out;
    field_num(s, "job", r.job as f64);
    field_str(s, "case", &r.case);
    field_str(s, "objective", &r.objective);
    field_num(s, "cells", r.cells as f64);
    field_num(s, "nets", r.nets as f64);
    field_str(s, "status", r.status.label());
    if let JobStatus::Failed(msg) = &r.status {
        field_str(s, "error", msg);
    }
    field_num(s, "iterations", r.iterations as f64);
    field_bool(s, "legal", r.legal);
    if let Some(m) = r.metrics {
        field_num(s, "tns", m.tns);
        field_num(s, "wns", m.wns);
        field_num(s, "hpwl", m.hpwl);
        field_num(s, "failing_endpoints", m.failing_endpoints as f64);
        field_num(s, "total_endpoints", m.total_endpoints as f64);
    }
    if let Some(c) = r.congestion {
        field_num(s, "congestion_peak", c.peak);
        field_num(s, "congestion_average", c.average);
        field_num(s, "congestion_overflow", c.overflow);
        field_num(s, "congestion_overflow_bins", c.overflow_bins as f64);
        // u64 map hash rendered like placement_hash: hex string.
        field_hex(s, "congestion_map_hash", c.map_hash);
    }
    // u64 does not fit losslessly in a JSON number; hex string instead.
    field_hex(s, "placement_hash", r.placement_hash);
    field_num(s, "runtime_s", r.runtime.total.as_secs_f64());
    field_num(s, "sta_s", r.runtime.timing_analysis.as_secs_f64());
    field_num(s, "weighting_s", r.runtime.weighting.as_secs_f64());
    field_num(s, "legalization_s", r.runtime.legalization.as_secs_f64());
    field_num(s, "congestion_s", r.runtime.congestion.as_secs_f64());
    // Self-audit of the breakdown: the sum of the wall-clock categories
    // and how far it sits from `runtime_s` (zero unless clocks skewed;
    // `RuntimeBreakdown::CONSISTENCY_TOLERANCE` bounds it in tests).
    field_num(
        s,
        "runtime_accounted_s",
        r.runtime.accounted().as_secs_f64(),
    );
    field_num(
        s,
        "runtime_consistency_error_s",
        r.runtime.consistency_error().as_secs_f64(),
    );
    field_num(s, "threads", r.runtime.threads as f64);
    // RC op counters (RuntimeBreakdown::rc): exact for a fixed call
    // sequence and the same for every thread count.
    field_num(s, "rc_refreshes", r.runtime.rc.refreshes as f64);
    field_num(s, "rc_nets_refreshed", r.runtime.rc.nets_refreshed as f64);
    field_num(s, "rc_scratch_reuses", r.runtime.rc.scratch_reuses as f64);
    s.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdp_core::{CongestionReport, Metrics, RuntimeBreakdown};

    fn report(job: usize, status: JobStatus, tns: f64) -> JobReport {
        JobReport {
            job,
            case: "sb1".into(),
            objective: "Efficient-TDP (ours)".into(),
            cells: 100,
            nets: 90,
            status,
            iterations: 42,
            legal: true,
            metrics: Some(Metrics {
                tns,
                wns: tns.min(0.0) / 2.0,
                hpwl: 1.5e5,
                failing_endpoints: 3,
                total_endpoints: 50,
            }),
            congestion: Some(CongestionReport {
                bins_x: 32,
                bins_y: 32,
                peak: 1.25,
                average: 0.5,
                overflow: 2.75,
                overflow_bins: 4,
                map_hash: 0xfeed_f00d,
            }),
            placement_hash: 0xdead_beef,
            runtime: RuntimeBreakdown::default(),
        }
    }

    fn result() -> BatchResult {
        BatchResult {
            reports: vec![
                report(0, JobStatus::Done, -120.0),
                report(1, JobStatus::Canceled, -30.0),
            ],
            wall: Duration::from_millis(500),
            workers: 2,
        }
    }

    #[test]
    fn fleet_totals_accumulate() {
        let f = result().fleet();
        assert_eq!((f.jobs, f.done, f.canceled, f.failed), (2, 1, 1, 0));
        assert_eq!(f.tns_sum, -150.0);
        assert_eq!(f.wns_worst, -60.0);
        assert_eq!(f.failing_endpoints, 6);
        assert_eq!(f.total_endpoints, 100);
    }

    #[test]
    fn jsonl_has_one_object_per_line_and_a_fleet_record() {
        let text = result().to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            // Every line is valid JSON by the shared parser's judgment.
            tdp_jsonio::parse(line).unwrap_or_else(|e| panic!("{e}\n{line}"));
        }
        assert!(lines[0].contains("\"record\":\"job\""));
        assert!(lines[0].contains("\"tns\":-120"));
        assert!(lines[0].contains("\"placement_hash\":\"0x00000000deadbeef\""));
        assert!(lines[0].contains("\"congestion_peak\":1.25"));
        assert!(lines[0].contains("\"congestion_map_hash\":\"0x00000000feedf00d\""));
        assert!(lines[1].contains("\"status\":\"canceled\""));
        assert!(lines[2].contains("\"record\":\"fleet\""));
        assert!(lines[2].contains("\"workers\":2"));
        assert!(lines[2].contains("\"congestion_peak_max\":1.25"));
        assert!(lines[2].contains("\"congestion_overflow_sum\":5.5"));
    }

    #[test]
    fn markdown_flags_failures_and_totals() {
        let mut r = result();
        r.reports.push(JobReport {
            metrics: None,
            congestion: None,
            legal: false,
            status: JobStatus::Failed("boom | with\npipe".into()),
            ..report(2, JobStatus::Done, 0.0)
        });
        let md = r.to_markdown();
        assert!(md.contains("| 0 | sb1 |"));
        // Message sanitized: no raw '|' or newline survives in the cell.
        assert!(md.contains("failed: boom \\| with pipe"));
        assert!(md.contains("Fleet totals"));
        assert!(md.contains("1 failed"));
    }

    #[test]
    fn markdown_footer_names_the_failed_jobs() {
        let mut r = result();
        r.reports.push(JobReport {
            metrics: None,
            congestion: None,
            legal: false,
            status: JobStatus::Failed("flow panicked: die too full".into()),
            case: "hu1".into(),
            ..report(2, JobStatus::Done, 0.0)
        });
        r.reports.push(JobReport {
            metrics: None,
            congestion: None,
            legal: false,
            status: JobStatus::Failed("objective failed to build".into()),
            case: "mx1".into(),
            ..report(3, JobStatus::Done, 0.0)
        });
        let md = r.to_markdown();
        assert!(md.contains("## Failed jobs"), "{md}");
        assert!(
            md.contains("- job 2: hu1 × Efficient-TDP (ours) — flow panicked: die too full"),
            "{md}"
        );
        assert!(md.contains("- job 3: mx1 ×"), "{md}");
        assert!(md.contains("**Exit code: 1** (2 job(s) failed)"), "{md}");
        assert_eq!(r.exit_code(), 1);
        // A green (or merely canceled) batch has no footer and exits 0.
        let green = result();
        assert!(!green.to_markdown().contains("Failed jobs"));
        assert_eq!(green.exit_code(), 0);
    }
}
