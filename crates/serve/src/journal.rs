//! The durable job journal: a JSONL write-ahead log that lets the
//! daemon survive restarts.
//!
//! Every `submit`, job state transition, event line and final
//! [`JobReport`] is appended as one single-line JSON record to
//! `<dir>/journal.jsonl`. Appends on *transition boundaries* (`submit`,
//! `running`, `finished`) are fsync'd; event lines ride along unsynced
//! and are made durable by the next transition's sync on the same file —
//! so a crash can lose at most the unsynced event suffix of jobs that
//! had not finished, never a terminal report.
//!
//! On startup the server replays the journal ([`Journal::open`] returns
//! the decoded records): finished jobs are restored with their reports
//! and complete event logs, unfinished jobs are re-enqueued (or marked
//! failed-by-restart under `--no-replay`). Because job execution is
//! deterministic, a re-run regenerates the *identical* event stream and
//! report, so a client resuming `events --from` across the restart sees
//! no gaps and no duplicates.
//!
//! # Record grammar
//!
//! ```text
//! {"rec":"submit","job":N,"name":CASE,"params":{…},"objective":O,
//!  "profile":P,"overrides":{…},"stride":K,"key":"0x…"}
//! {"rec":"state","job":N,"state":"running"}
//! {"rec":"event","job":N,"seq":I,"line":{…event object…}}
//! {"rec":"finished","job":N,"report":{…journal report form…}}
//! ```
//!
//! The `finished` record's report uses a *full-fidelity* serialization
//! ([`report_to_json`]/[`report_from_json`]), not the wire's
//! [`batch::job_json`] rendering: durations travel as integer
//! nanoseconds (exact in a JSON number below 2⁵³ ns ≈ 104 days) and
//! every [`RuntimeBreakdown`] field is present, so a restored report's
//! `job_json` rendering is **byte-identical** to the one the daemon
//! served before the crash — asserted by this module's tests and the
//! kill-and-restart integration test.
//!
//! # Crash consistency
//!
//! Replay stops at the first line that is torn (no trailing newline) or
//! unparseable and truncates the file there — standard WAL recovery.
//! Everything before that point is intact: each record goes out with its
//! newline in a single `write_all`, and a `finished` record's fsync
//! flushes all earlier writes on the same descriptor, so a parseable
//! `finished` record guarantees the job's complete event history
//! precedes it.
//!
//! # Compacted reads
//!
//! A job's records all lie between the start of its `submit` record and
//! the end of its `finished` record. [`Journal::append_at`] and
//! [`Journal::open`] report every record's byte range, the server keeps
//! that span on the job's compaction tombstone, and [`read_compacted`]
//! reads only it — a compacted `status`/`events` costs O(job), not
//! O(journal).

use batch::{JobReport, JobStatus};
use benchgen::CircuitParams;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;
use tdp_core::{CongestionReport, EcoStats, Metrics, RuntimeBreakdown};
use tdp_jsonio::{
    field_bool, field_hex, field_num, field_raw, field_str, parse_hex_u64, JsonValue,
};

use crate::protocol::{overrides_json, params_from_json, params_to_json};

/// One decoded journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A job was accepted (carries everything needed to rebuild it).
    Submit(Box<SubmitRecord>),
    /// A job changed scheduler state (currently only `"running"`).
    State {
        /// Job id.
        job: usize,
        /// State label.
        state: String,
    },
    /// One event-log line (re-encoded from the embedded object).
    Event {
        /// Job id.
        job: usize,
        /// The line's index in the job's event log.
        seq: usize,
        /// The event line, re-encoded.
        line: String,
    },
    /// A job reached a terminal state with this report.
    Finished {
        /// Job id.
        job: usize,
        /// The full-fidelity report.
        report: Box<JobReport>,
    },
}

/// A replayed record and the byte range its line occupies in the file.
pub type Located = (Range<u64>, Record);

/// The replayable payload of one `submit`: enough to rebuild the exact
/// [`batch::BatchJob`] through [`batch::make_jobs_for`].
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRecord {
    /// Job id.
    pub job: usize,
    /// Resolved case name (inline designs use their `params.name`).
    pub name: String,
    /// Full resolved generator parameters.
    pub params: CircuitParams,
    /// Objective name as submitted (wire vocabulary).
    pub objective: String,
    /// Profile name as submitted.
    pub profile: String,
    /// `key=value` overrides (string form, as the wire normalizes them).
    pub overrides: Vec<(String, String)>,
    /// Resolved event stride.
    pub stride: usize,
    /// The design's content key.
    pub key: u64,
}

/// The append half of the journal: a shared handle the submit path,
/// workers and finish path write through. Reads for replay happen once
/// in [`Journal::open`]; reads for compacted jobs re-read one job's byte
/// range via [`read_compacted`].
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    tail: Mutex<Tail>,
    appends: AtomicU64,
}

/// The append end of the file, under the journal lock.
#[derive(Debug)]
struct Tail {
    file: File,
    /// File length: the offset the next record lands at.
    len: u64,
    /// Reused per append: one record plus its newline, one `write_all`.
    buf: Vec<u8>,
}

impl Journal {
    /// Opens (creating the directory and file as needed) the journal at
    /// `dir/journal.jsonl`, replays the existing records, truncates any
    /// torn/corrupt tail, and positions the file for appending. Each
    /// record comes back with the byte range its line occupies.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory or opening the file.
    pub fn open(dir: &Path) -> std::io::Result<(Journal, Vec<Located>)> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("journal.jsonl");
        let mut records = Vec::new();
        // Everything past the clean prefix is a crash artifact and is
        // truncated before appending resumes.
        let clean = match std::fs::read(&path) {
            Ok(bytes) => scan(&bytes, |at, rec| records.push((at, rec))),
            Err(_) => 0,
        };
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(&path)?;
        file.set_len(clean)?;
        file.seek(SeekFrom::Start(clean))?;
        Ok((
            Journal {
                path,
                tail: Mutex::new(Tail {
                    file,
                    len: clean,
                    buf: Vec::new(),
                }),
                appends: AtomicU64::new(0),
            },
            records,
        ))
    }

    /// The journal file's path (compacted reads re-read it).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records appended by this instance (the `journal_appends` metric).
    pub fn appends(&self) -> u64 {
        self.appends.load(Ordering::Relaxed)
    }

    /// Appends one record line; `sync` forces it (and everything before
    /// it) to disk — true on transition boundaries, false for event
    /// lines.
    ///
    /// # Errors
    ///
    /// The underlying write or sync error.
    pub fn append(&self, record: &str, sync: bool) -> std::io::Result<()> {
        self.append_at(record, sync).map(drop)
    }

    /// [`Journal::append`], returning the byte range the record's line
    /// (newline included) occupies in the file.
    ///
    /// # Errors
    ///
    /// The underlying write or sync error.
    pub fn append_at(&self, record: &str, sync: bool) -> std::io::Result<Range<u64>> {
        let _span = tdp_trace::span("journal.append", "journal");
        let mut tail = self.tail.lock().expect("journal lock");
        let Tail { file, len, buf } = &mut *tail;
        buf.clear();
        buf.extend_from_slice(record.as_bytes());
        buf.push(b'\n');
        if let Err(e) = file.write_all(buf) {
            // A short write leaves part of the line behind; later ranges
            // must still start where their records really are.
            *len = file.stream_position().unwrap_or(*len);
            return Err(e);
        }
        let at = *len..*len + buf.len() as u64;
        *len = at.end;
        if sync {
            let _fsync = tdp_trace::span("journal.fsync", "journal");
            file.sync_data()?;
        }
        self.appends.fetch_add(1, Ordering::Relaxed);
        Ok(at)
    }
}

/// Decodes the clean prefix of `bytes` — complete (newline-terminated),
/// parseable records — passing each record and its byte range within
/// `bytes` to `each`; returns the prefix length. The first torn (no
/// trailing newline) or undecodable line ends the prefix: the WAL
/// recovery rule, shared by replay and compacted reads.
fn scan(bytes: &[u8], mut each: impl FnMut(Range<u64>, Record)) -> u64 {
    let mut clean = 0u64;
    for line in bytes.split_inclusive(|&b| b == b'\n') {
        if line.last() != Some(&b'\n') {
            break; // torn tail: the crash interrupted this write
        }
        let Ok(text) = std::str::from_utf8(line) else {
            break;
        };
        let at = clean..clean + line.len() as u64;
        let trimmed = text.trim();
        if !trimmed.is_empty() {
            let Some(rec) = tdp_jsonio::parse(trimmed)
                .ok()
                .and_then(|v| decode_record(&v).ok())
            else {
                break; // corrupt record: recover the prefix only
            };
            each(at.clone(), rec);
        }
        clean = at.end;
    }
    clean
}

/// Renders a `submit` record line.
pub fn submit_record(r: &SubmitRecord) -> String {
    let mut s = String::from("{\"rec\":\"submit\"");
    field_num(&mut s, "job", r.job as f64);
    field_str(&mut s, "name", &r.name);
    field_raw(&mut s, "params", &params_to_json(&r.params).encode());
    field_str(&mut s, "objective", &r.objective);
    field_str(&mut s, "profile", &r.profile);
    field_raw(&mut s, "overrides", &overrides_json(&r.overrides));
    field_num(&mut s, "stride", r.stride as f64);
    field_hex(&mut s, "key", r.key);
    s.push('}');
    s
}

/// Renders a `state` record line.
pub fn state_record(job: usize, state: &str) -> String {
    let mut s = String::from("{\"rec\":\"state\"");
    field_num(&mut s, "job", job as f64);
    field_str(&mut s, "state", state);
    s.push('}');
    s
}

/// Renders an `event` record line; `line` must be one already-rendered
/// event object.
pub fn event_record(job: usize, seq: usize, line: &str) -> String {
    let mut s = String::from("{\"rec\":\"event\"");
    field_num(&mut s, "job", job as f64);
    field_num(&mut s, "seq", seq as f64);
    field_raw(&mut s, "line", line);
    s.push('}');
    s
}

/// Renders a `finished` record line with the full-fidelity report.
pub fn finished_record(job: usize, report: &JobReport) -> String {
    let mut s = String::from("{\"rec\":\"finished\"");
    field_num(&mut s, "job", job as f64);
    field_raw(&mut s, "report", &report_to_json(report));
    s.push('}');
    s
}

/// Decodes one parsed journal line.
///
/// # Errors
///
/// A message naming the missing/ill-typed field.
pub fn decode_record(v: &JsonValue) -> Result<Record, String> {
    let rec = v
        .get("rec")
        .and_then(JsonValue::as_str)
        .ok_or("record lacks \"rec\"")?;
    let job = v
        .get("job")
        .and_then(JsonValue::as_usize)
        .ok_or("record lacks \"job\"")?;
    match rec {
        "submit" => {
            let name = req_str(v, "name")?.to_string();
            let params = params_from_json(v.get("params").ok_or("submit lacks \"params\"")?)
                .map_err(|e| e.to_string())?;
            let objective = req_str(v, "objective")?.to_string();
            let profile = req_str(v, "profile")?.to_string();
            let mut overrides = Vec::new();
            if let Some(members) = v.get("overrides").and_then(JsonValue::as_object) {
                for (k, val) in members {
                    let text = val
                        .as_str()
                        .ok_or_else(|| format!("override {k:?} must be a string"))?;
                    overrides.push((k.clone(), text.to_string()));
                }
            }
            let stride = v
                .get("stride")
                .and_then(JsonValue::as_usize)
                .ok_or("submit lacks \"stride\"")?;
            let key = v
                .get("key")
                .and_then(JsonValue::as_str)
                .and_then(parse_hex_u64)
                .ok_or("submit lacks hex \"key\"")?;
            Ok(Record::Submit(Box::new(SubmitRecord {
                job,
                name,
                params,
                objective,
                profile,
                overrides,
                stride,
                key,
            })))
        }
        "state" => Ok(Record::State {
            job,
            state: req_str(v, "state")?.to_string(),
        }),
        "event" => Ok(Record::Event {
            job,
            seq: v
                .get("seq")
                .and_then(JsonValue::as_usize)
                .ok_or("event lacks \"seq\"")?,
            // Re-encoding through the shared emitter is a fixpoint for
            // lines this workspace produced, so the restored line is
            // byte-identical to the one originally streamed.
            line: v.get("line").ok_or("event lacks \"line\"")?.encode(),
        }),
        "finished" => Ok(Record::Finished {
            job,
            report: Box::new(report_from_json(
                v.get("report").ok_or("finished lacks \"report\"")?,
            )?),
        }),
        other => Err(format!("unknown record kind {other:?}")),
    }
}

/// Everything the journal holds about one compacted job: its complete
/// event log (deduplicated across restart re-runs) and terminal report.
#[derive(Debug, Default)]
pub struct CompactedJob {
    /// Event lines in seq order.
    pub events: Vec<String>,
    /// The terminal report (always present for a job the server
    /// compacted — only journaled-finished jobs are compaction
    /// candidates).
    pub report: Option<Box<JobReport>>,
}

/// Re-reads one job's events and report from the journal file — the
/// serving path for `status`/`wait`/`events` on a compacted job. `span`
/// is the job's byte range (start of its `submit` record to end of its
/// `finished` record); only it is read.
///
/// # Errors
///
/// I/O errors reading the file (decode errors terminate the scan like
/// replay does, tolerating a torn tail).
pub fn read_compacted(path: &Path, job: usize, span: Range<u64>) -> std::io::Result<CompactedJob> {
    let mut file = File::open(path)?;
    file.seek(SeekFrom::Start(span.start))?;
    let mut bytes = Vec::new();
    file.take(span.end.saturating_sub(span.start))
        .read_to_end(&mut bytes)?;
    let mut out = CompactedJob::default();
    scan(&bytes, |_, rec| match rec {
        Record::Event {
            job: j,
            seq,
            line: l,
            // Same dedup rule as replay: a pre-crash attempt's partial
            // stream is a prefix of the re-run's (identical by
            // determinism); keep the first copy of each seq.
        } if j == job && seq == out.events.len() => out.events.push(l),
        Record::Finished { job: j, report } if j == job => out.report = Some(report),
        _ => {}
    });
    Ok(out)
}

fn req_str<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("record lacks string {key:?}"))
}

// ---------------------------------------------------------------------
// Full-fidelity report serialization
// ---------------------------------------------------------------------

/// Renders a report for the journal. Unlike the wire's
/// [`batch::job_json`] (which drops setup time, grid dimensions and the
/// unaccounted-gradient bucket, and renders durations as seconds), this
/// form carries **every** field, durations as exact integer nanoseconds
/// and hashes as hex strings, so [`report_from_json`] reconstructs a
/// [`JobReport`] that is value-identical — and whose `job_json`
/// rendering is byte-identical — to the original.
pub fn report_to_json(r: &JobReport) -> String {
    let mut s = String::from("{\"job\":");
    tdp_jsonio::push_num(&mut s, r.job as f64);
    field_str(&mut s, "case", &r.case);
    field_str(&mut s, "objective", &r.objective);
    field_num(&mut s, "cells", r.cells as f64);
    field_num(&mut s, "nets", r.nets as f64);
    field_str(&mut s, "status", r.status.label());
    if let JobStatus::Failed(msg) = &r.status {
        field_str(&mut s, "error", msg);
    }
    field_num(&mut s, "iterations", r.iterations as f64);
    field_bool(&mut s, "legal", r.legal);
    if let Some(m) = r.metrics {
        let mut o = String::from("{\"tns\":");
        tdp_jsonio::push_num(&mut o, m.tns);
        field_num(&mut o, "wns", m.wns);
        field_num(&mut o, "hpwl", m.hpwl);
        field_num(&mut o, "failing_endpoints", m.failing_endpoints as f64);
        field_num(&mut o, "total_endpoints", m.total_endpoints as f64);
        o.push('}');
        field_raw(&mut s, "metrics", &o);
    }
    if let Some(c) = r.congestion {
        let mut o = String::from("{\"bins_x\":");
        tdp_jsonio::push_num(&mut o, c.bins_x as f64);
        field_num(&mut o, "bins_y", c.bins_y as f64);
        field_num(&mut o, "peak", c.peak);
        field_num(&mut o, "average", c.average);
        field_num(&mut o, "overflow", c.overflow);
        field_num(&mut o, "overflow_bins", c.overflow_bins as f64);
        field_hex(&mut o, "map_hash", c.map_hash);
        o.push('}');
        field_raw(&mut s, "congestion", &o);
    }
    field_hex(&mut s, "placement_hash", r.placement_hash);
    let rt = &r.runtime;
    let mut o = String::from("{\"io_ns\":");
    let ns = |d: Duration| d.as_nanos().min(u128::from(u64::MAX)) as f64;
    tdp_jsonio::push_num(&mut o, ns(rt.io));
    field_num(&mut o, "sta_ns", ns(rt.timing_analysis));
    field_num(&mut o, "weighting_ns", ns(rt.weighting));
    field_num(&mut o, "legalization_ns", ns(rt.legalization));
    field_num(&mut o, "congestion_ns", ns(rt.congestion));
    field_num(&mut o, "gradient_ns", ns(rt.gradient_and_others));
    field_num(&mut o, "total_ns", ns(rt.total));
    field_num(&mut o, "threads", rt.threads as f64);
    field_num(&mut o, "rc_refreshes", rt.rc.refreshes as f64);
    field_num(&mut o, "rc_nets_refreshed", rt.rc.nets_refreshed as f64);
    field_num(&mut o, "rc_scratch_reuses", rt.rc.scratch_reuses as f64);
    field_num(&mut o, "rc_slab_bytes", rt.rc.slab_bytes as f64);
    field_num(&mut o, "eco_queries", rt.eco.queries as f64);
    field_num(&mut o, "eco_cells_moved", rt.eco.cells_moved as f64);
    field_num(&mut o, "eco_dirty_nets", rt.eco.dirty_nets as f64);
    field_num(&mut o, "eco_incremental_ns", rt.eco.incremental_ns as f64);
    field_num(&mut o, "eco_full_ns", rt.eco.full_ns as f64);
    o.push('}');
    field_raw(&mut s, "runtime", &o);
    s.push('}');
    s
}

/// Parses a journal-form report back into a [`JobReport`] — the inverse
/// of [`report_to_json`].
///
/// # Errors
///
/// A message naming the missing/ill-typed field.
pub fn report_from_json(v: &JsonValue) -> Result<JobReport, String> {
    let num = |key: &str| {
        v.get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("report lacks number {key:?}"))
    };
    let status = match req_str(v, "status")? {
        "done" => JobStatus::Done,
        "canceled" => JobStatus::Canceled,
        "failed" => JobStatus::Failed(
            v.get("error")
                .and_then(JsonValue::as_str)
                .unwrap_or("unknown failure")
                .to_string(),
        ),
        other => return Err(format!("unknown status {other:?}")),
    };
    let metrics = match v.get("metrics") {
        None => None,
        Some(m) => {
            let f = |key: &str| {
                m.get(key)
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("metrics lacks {key:?}"))
            };
            Some(Metrics {
                tns: f("tns")?,
                wns: f("wns")?,
                hpwl: f("hpwl")?,
                failing_endpoints: f("failing_endpoints")? as usize,
                total_endpoints: f("total_endpoints")? as usize,
            })
        }
    };
    let congestion = match v.get("congestion") {
        None => None,
        Some(c) => {
            let f = |key: &str| {
                c.get(key)
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("congestion lacks {key:?}"))
            };
            Some(CongestionReport {
                bins_x: f("bins_x")? as usize,
                bins_y: f("bins_y")? as usize,
                peak: f("peak")?,
                average: f("average")?,
                overflow: f("overflow")?,
                overflow_bins: f("overflow_bins")? as usize,
                map_hash: c
                    .get("map_hash")
                    .and_then(JsonValue::as_str)
                    .and_then(parse_hex_u64)
                    .ok_or("congestion lacks hex \"map_hash\"")?,
            })
        }
    };
    let rt = v.get("runtime").ok_or("report lacks \"runtime\"")?;
    let rtf = |key: &str| {
        rt.get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("runtime lacks {key:?}"))
    };
    let dur = |key: &str| rtf(key).map(|ns| Duration::from_nanos(ns as u64));
    let runtime = RuntimeBreakdown {
        io: dur("io_ns")?,
        timing_analysis: dur("sta_ns")?,
        weighting: dur("weighting_ns")?,
        legalization: dur("legalization_ns")?,
        congestion: dur("congestion_ns")?,
        gradient_and_others: dur("gradient_ns")?,
        total: dur("total_ns")?,
        threads: rtf("threads")? as usize,
        rc: sta::RcOpStats {
            refreshes: rtf("rc_refreshes")? as u64,
            nets_refreshed: rtf("rc_nets_refreshed")? as u64,
            scratch_reuses: rtf("rc_scratch_reuses")? as u64,
            slab_bytes: rtf("rc_slab_bytes")? as u64,
        },
        eco: EcoStats {
            queries: rtf("eco_queries")? as u64,
            cells_moved: rtf("eco_cells_moved")? as u64,
            dirty_nets: rtf("eco_dirty_nets")? as u64,
            incremental_ns: rtf("eco_incremental_ns")? as u64,
            full_ns: rtf("eco_full_ns")? as u64,
        },
    };
    Ok(JobReport {
        job: num("job")? as usize,
        case: req_str(v, "case")?.to_string(),
        objective: req_str(v, "objective")?.to_string(),
        cells: num("cells")? as usize,
        nets: num("nets")? as usize,
        status,
        iterations: num("iterations")? as usize,
        legal: v
            .get("legal")
            .and_then(JsonValue::as_bool)
            .ok_or("report lacks bool \"legal\"")?,
        metrics,
        congestion,
        placement_hash: v
            .get("placement_hash")
            .and_then(JsonValue::as_str)
            .and_then(parse_hex_u64)
            .ok_or("report lacks hex \"placement_hash\"")?,
        runtime,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use batch::job_json;

    fn sample_report() -> JobReport {
        JobReport {
            job: 3,
            case: "sb18".into(),
            objective: "Efficient-TDP (ours)".into(),
            cells: 1200,
            nets: 1100,
            status: JobStatus::Done,
            iterations: 57,
            legal: true,
            metrics: Some(Metrics {
                tns: -123.456789012345,
                wns: -7.000000000000013,
                hpwl: 1.5339e6,
                failing_endpoints: 9,
                total_endpoints: 200,
            }),
            congestion: Some(CongestionReport {
                bins_x: 32,
                bins_y: 24,
                peak: 1.2499999999999998,
                average: 0.333_333_333_333_333_3,
                overflow: 2.75,
                overflow_bins: 4,
                map_hash: 0xfeed_f00d_dead_beef,
            }),
            placement_hash: 0x0123_4567_89ab_cdef,
            runtime: RuntimeBreakdown {
                io: Duration::from_nanos(1_234_567),
                timing_analysis: Duration::from_nanos(987_654_321),
                weighting: Duration::from_nanos(42),
                legalization: Duration::from_nanos(7_000_000_001),
                congestion: Duration::from_nanos(3),
                gradient_and_others: Duration::from_nanos(555),
                total: Duration::from_nanos(8_001_222_333),
                threads: 4,
                rc: sta::RcOpStats {
                    refreshes: 12,
                    nets_refreshed: 13_200,
                    scratch_reuses: 11,
                    slab_bytes: 1 << 20,
                },
                eco: EcoStats::default(),
            },
        }
    }

    #[test]
    fn report_round_trip_is_value_and_rendering_exact() {
        for report in [
            sample_report(),
            JobReport {
                status: JobStatus::Failed("flow panicked: die too full".into()),
                metrics: None,
                congestion: None,
                legal: false,
                ..sample_report()
            },
            JobReport {
                status: JobStatus::Canceled,
                ..sample_report()
            },
        ] {
            let encoded = report_to_json(&report);
            let parsed = tdp_jsonio::parse(&encoded).expect("journal form parses");
            let back = report_from_json(&parsed).expect("journal form decodes");
            assert_eq!(back, report, "struct round-trip");
            // The wire rendering — what clients compare bitwise — must
            // be byte-identical after a journal round-trip.
            assert_eq!(job_json(&back), job_json(&report));
            // And the journal form itself is a fixpoint.
            assert_eq!(report_to_json(&back), encoded);
        }
    }

    #[test]
    fn records_round_trip_through_encode_and_decode() {
        let sub = SubmitRecord {
            job: 5,
            name: "sb18".into(),
            params: CircuitParams::small("sb18", 7),
            objective: "efficient-tdp".into(),
            profile: "quick".into(),
            overrides: vec![("seed".into(), "9".into())],
            stride: 4,
            key: 0xabcd_ef01_2345_6789,
        };
        for (line, want) in [
            (submit_record(&sub), Record::Submit(Box::new(sub.clone()))),
            (
                state_record(5, "running"),
                Record::State {
                    job: 5,
                    state: "running".into(),
                },
            ),
            (
                event_record(5, 2, "{\"event\":\"phase\",\"job\":5,\"phase\":\"setup\"}"),
                Record::Event {
                    job: 5,
                    seq: 2,
                    line: "{\"event\":\"phase\",\"job\":5,\"phase\":\"setup\"}".into(),
                },
            ),
            (
                finished_record(5, &sample_report()),
                Record::Finished {
                    job: 5,
                    report: Box::new(sample_report()),
                },
            ),
        ] {
            let v = tdp_jsonio::parse(&line).expect("record parses");
            assert_eq!(decode_record(&v).expect("record decodes"), want, "{line}");
        }
    }

    fn temp_journal_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "tdp-journal-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ))
    }

    #[test]
    fn open_replays_clean_records_and_truncates_torn_tail() {
        let dir = temp_journal_dir("test");
        std::fs::create_dir_all(&dir).unwrap();

        // First open on an empty dir: no records.
        let (journal, records) = Journal::open(&dir).unwrap();
        assert!(records.is_empty());
        let first = journal
            .append_at(&state_record(0, "running"), true)
            .unwrap();
        let second = journal
            .append_at(
                &event_record(0, 0, "{\"event\":\"started\",\"job\":0}"),
                false,
            )
            .unwrap();
        assert_eq!(journal.appends(), 2);
        assert_eq!(first, 0..state_record(0, "running").len() as u64 + 1);
        assert_eq!(second.start, first.end, "records are contiguous");
        drop(journal);

        // Simulate a crash mid-append: a torn (newline-less) tail.
        {
            let mut f = OpenOptions::new()
                .append(true)
                .open(dir.join("journal.jsonl"))
                .unwrap();
            f.write_all(b"{\"rec\":\"state\",\"job\":1,\"sta").unwrap();
        }
        let (journal, records) = Journal::open(&dir).unwrap();
        assert_eq!(records.len(), 2, "clean prefix survives, torn tail dropped");
        assert_eq!(
            records[0],
            (
                first,
                Record::State {
                    job: 0,
                    state: "running".into()
                }
            )
        );
        assert_eq!(records[1].0, second, "replay reports the append's range");
        // Appending after recovery lands where the torn tail was cut.
        let third = journal
            .append_at(&state_record(2, "running"), true)
            .unwrap();
        assert_eq!(third.start, second.end);
        drop(journal);
        let (_, records) = Journal::open(&dir).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(
            records[2],
            (
                third,
                Record::State {
                    job: 2,
                    state: "running".into()
                }
            )
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_compacted_collects_one_jobs_events_and_report() {
        let dir = temp_journal_dir("compact");
        let (journal, _) = Journal::open(&dir).unwrap();
        let append = |rec: &str, sync| journal.append_at(rec, sync).unwrap();
        let a = append(&event_record(0, 0, "{\"event\":\"a\",\"job\":0}"), false);
        let b = append(&event_record(1, 0, "{\"event\":\"b\",\"job\":1}"), false);
        append(&event_record(0, 1, "{\"event\":\"c\",\"job\":0}"), false);
        // A duplicate seq from a pre-crash attempt is kept-first.
        append(&event_record(0, 1, "{\"event\":\"c\",\"job\":0}"), false);
        let fin = append(&finished_record(0, &sample_report()), true);
        let compacted = read_compacted(journal.path(), 0, a.start..fin.end).unwrap();
        assert_eq!(
            compacted.events,
            vec![
                "{\"event\":\"a\",\"job\":0}".to_string(),
                "{\"event\":\"c\",\"job\":0}".to_string(),
            ]
        );
        assert_eq!(
            job_json(&compacted.report.expect("report present")),
            job_json(&sample_report())
        );
        let other = read_compacted(journal.path(), 1, b).unwrap();
        assert_eq!(other.events.len(), 1);
        assert!(other.report.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A job's byte range holds everything a whole-file scan finds for
    /// it — across a crash that tore a record and a re-run that
    /// re-journaled the interrupted job's event prefix.
    #[test]
    fn range_reads_equal_whole_file_scans_across_an_interrupted_rerun() {
        let dir = temp_journal_dir("ranges");
        let submit = |job| {
            submit_record(&SubmitRecord {
                job,
                name: "sb18".into(),
                params: CircuitParams::small("sb18", 7),
                objective: "efficient-tdp".into(),
                profile: "quick".into(),
                overrides: Vec::new(),
                stride: 4,
                key: 0xabcd,
            })
        };
        let event =
            |job, seq| event_record(job, seq, &format!("{{\"event\":\"e{seq}\",\"job\":{job}}}"));
        let finished = |job| {
            finished_record(
                job,
                &JobReport {
                    job,
                    ..sample_report()
                },
            )
        };
        {
            let (journal, _) = Journal::open(&dir).unwrap();
            for rec in [
                submit(0),
                state_record(0, "running"),
                event(0, 0),
                submit(1),
                event(0, 1),
                event(0, 2),
                finished(0),
                submit(2),
                state_record(1, "running"),
                event(1, 0),
                event(1, 1),
            ] {
                journal.append(&rec, false).unwrap();
            }
        }
        // The crash: job 1 was mid-run, its next record torn.
        OpenOptions::new()
            .append(true)
            .open(dir.join("journal.jsonl"))
            .unwrap()
            .write_all(b"{\"rec\":\"event\",\"job\":1,")
            .unwrap();
        {
            // The restarted daemon re-runs jobs 1 and 2, interleaved.
            let (journal, _) = Journal::open(&dir).unwrap();
            for rec in [
                state_record(1, "running"),
                event(1, 0),
                state_record(2, "running"),
                event(2, 0),
                event(1, 1),
                event(1, 2),
                event(2, 1),
                finished(1),
                event(2, 2),
                finished(2),
            ] {
                journal.append(&rec, false).unwrap();
            }
        }
        let (journal, records) = Journal::open(&dir).unwrap();
        let mut spans: std::collections::HashMap<usize, Range<u64>> = Default::default();
        for (at, rec) in &records {
            match rec {
                Record::Submit(sub) => {
                    spans.insert(sub.job, at.clone());
                }
                Record::Finished { job, .. } => spans.get_mut(job).unwrap().end = at.end,
                _ => {}
            }
        }
        for job in 0..3 {
            // The whole-file scan: every replayed record, same dedup.
            let mut events = Vec::new();
            let mut report = None;
            for (_, rec) in &records {
                match rec {
                    Record::Event { job: j, seq, line } if *j == job && *seq == events.len() => {
                        events.push(line.clone())
                    }
                    Record::Finished { job: j, report: r } if *j == job => report = Some(r),
                    _ => {}
                }
            }
            let ranged = read_compacted(journal.path(), job, spans[&job].clone()).unwrap();
            assert_eq!(ranged.events, events, "job {job} events");
            assert_eq!(events.len(), 3, "job {job}: deduped to one copy per seq");
            assert_eq!(
                ranged.report.map(|r| job_json(&r)),
                report.map(|r| job_json(r)),
                "job {job} report"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
