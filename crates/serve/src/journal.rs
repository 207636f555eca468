//! The durable job journal: a JSONL write-ahead log that lets the
//! daemon survive restarts.
//!
//! Every `submit`, job state transition, event line and final job
//! report is appended as one single-line JSON record to
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
//! {"rec":"finished","job":N,"report":{…batch::job_json object…}}
//! ```
//!
//! The `finished` record's report is the wire report, byte for byte:
//! the daemon renders [`batch::job_json`] once per finished job and
//! serves, streams and journals that one string. Decoding keeps the
//! embedded object as text ([`JsonValue::encode`], a fixpoint for
//! everything the shared emitter writes), so a restored job answers
//! `status`/`wait` with the bytes it served before the crash — asserted
//! by this module's tests and the kill-and-restart integration test.
//!
//! # Crash consistency
//!
//! Replay stops at the first line that is torn (no trailing newline) or
//! undecodable and truncates the file there — standard WAL recovery. An
//! undecodable line followed by a decodable one is not a crash tail but
//! mid-file corruption: [`Journal::open`] then fails with `InvalidData`
//! and leaves the file as it is, so the daemon refuses to start instead
//! of deleting finished jobs. Everything before that point is intact: each record goes out with its
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

use batch::JobReport;
use benchgen::CircuitParams;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use tdp_jsonio::{field_hex, field_num, field_raw, field_str, parse_hex_u64, JsonValue};

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
        /// The job's wire report and what is read back out of it.
        finished: FinishedJob,
    },
}

/// A finished job as the daemon holds, serves and journals it: its
/// report rendered once by [`batch::job_json`], plus the two things read
/// back out of it — the status label and the congestion pair the
/// `metrics` aggregates sum.
#[derive(Debug, Clone, PartialEq)]
pub struct FinishedJob {
    /// Terminal state label: `done`, `canceled` or `failed`.
    pub status: &'static str,
    /// The report's wire bytes, a `{"record":"job",…}` object.
    pub report: String,
    /// `(congestion_overflow, congestion_peak)` when the report has a
    /// congestion summary. A non-finite value travels as `null` and
    /// comes back from the journal as NaN.
    pub congestion: Option<(f64, f64)>,
}

impl FinishedJob {
    /// Renders `r` — the one [`batch::job_json`] call a finished job gets.
    pub fn new(r: &JobReport) -> Self {
        Self {
            status: r.status.label(),
            report: batch::job_json(r),
            congestion: r.congestion.map(|c| (c.overflow, c.peak)),
        }
    }

    /// Validates the report object of job `job`'s `finished` record and
    /// keeps it as text.
    fn decode(v: &JsonValue, job: usize) -> Result<Self, String> {
        if v.get("record").and_then(JsonValue::as_str) != Some("job") {
            return Err("finished report is not a {\"record\":\"job\"} object".into());
        }
        if v.get("job").and_then(JsonValue::as_usize) != Some(job) {
            return Err(format!("finished report is not job {job}'s"));
        }
        let status = req_str(v, "status")?;
        let status = ["done", "canceled", "failed"]
            .into_iter()
            .find(|&label| label == status)
            .ok_or_else(|| format!("unknown status {status:?}"))?;
        let num = |key: &str| match v.get(key) {
            None => Ok(None),
            Some(JsonValue::Null) => Ok(Some(f64::NAN)),
            Some(n) => n
                .as_f64()
                .map(Some)
                .ok_or_else(|| format!("report field {key:?} is not a number")),
        };
        let congestion = match (num("congestion_overflow")?, num("congestion_peak")?) {
            (Some(overflow), Some(peak)) => Some((overflow, peak)),
            (None, None) => None,
            _ => return Err("report has half a congestion summary".into()),
        };
        Ok(Self {
            status,
            report: v.encode(),
            congestion,
        })
    }
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
    /// `dir/journal.jsonl`, replays the existing records, truncates a
    /// torn or corrupt tail, and positions the file for appending. Each
    /// record comes back with the byte range its line occupies.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory or opening the file, and
    /// `InvalidData` when an undecodable record is followed by a
    /// decodable one (mid-file corruption, not a crash tail); the file
    /// is then left untouched.
    pub fn open(dir: &Path) -> std::io::Result<(Journal, Vec<Located>)> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("journal.jsonl");
        let mut records = Vec::new();
        // Everything past the clean prefix is a crash artifact and is
        // truncated before appending resumes.
        let clean = match std::fs::read(&path) {
            Ok(bytes) => scan(&bytes, 0, |at, rec| records.push((at, rec)))?,
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
/// decodable records — passing each record and its byte range to
/// `each`; returns the prefix length. Ranges and error offsets count
/// from `base`, the file offset `bytes` was read at. The first torn
/// (no trailing newline) or undecodable line ends the prefix: the WAL
/// recovery rule, shared by replay and compacted reads. An undecodable
/// line is only a crash tail when no later complete line decodes;
/// otherwise the journal is corrupt mid-file and dropping the later
/// records would lose finished jobs.
///
/// # Errors
///
/// `InvalidData` naming the undecodable line's byte offset when a later
/// complete line decodes.
fn scan(bytes: &[u8], base: u64, mut each: impl FnMut(Range<u64>, Record)) -> std::io::Result<u64> {
    let decode = |line: &[u8]| -> Option<Result<Record, String>> {
        let text = match std::str::from_utf8(line) {
            Ok(text) => text.trim(),
            Err(e) => return Some(Err(format!("not UTF-8: {e}"))),
        };
        if text.is_empty() {
            return None;
        }
        Some(
            tdp_jsonio::parse(text)
                .map_err(|e| e.to_string())
                .and_then(|v| decode_record(&v)),
        )
    };
    let mut clean = 0u64;
    let mut lines = bytes
        .split_inclusive(|&b| b == b'\n')
        .take_while(|line| line.last() == Some(&b'\n')); // a torn tail ends it
    for line in lines.by_ref() {
        let at = base + clean..base + clean + line.len() as u64;
        match decode(line) {
            None => {}
            Some(Ok(rec)) => each(at.clone(), rec),
            Some(Err(why)) => {
                if lines.any(|later| matches!(decode(later), Some(Ok(_)))) {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!(
                            "journal record at byte {} does not decode ({why}) but later records do",
                            at.start
                        ),
                    ));
                }
                break; // corrupt tail: recover the prefix only
            }
        }
        clean += line.len() as u64;
    }
    Ok(clean)
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

/// Renders a `finished` record line; `report` must be the job's
/// [`batch::job_json`] rendering ([`FinishedJob::report`]).
pub fn finished_record(job: usize, report: &str) -> String {
    let mut s = String::from("{\"rec\":\"finished\"");
    field_num(&mut s, "job", job as f64);
    field_raw(&mut s, "report", report);
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
            finished: FinishedJob::decode(
                v.get("report").ok_or("finished lacks \"report\"")?,
                job,
            )?,
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
    /// The terminal report's wire bytes (always present for a job the
    /// server compacted — only journaled-finished jobs are compaction
    /// candidates).
    pub report: Option<String>,
}

/// Re-reads one job's events and report from the journal file — the
/// serving path for `status`/`wait`/`events` on a compacted job. `span`
/// is the job's byte range (start of its `submit` record to end of its
/// `finished` record); only it is read.
///
/// # Errors
///
/// I/O errors reading the file, and the `InvalidData` error replay
/// reports for an undecodable record followed by a decodable one (a
/// torn or corrupt tail just ends the scan, as in replay).
pub fn read_compacted(path: &Path, job: usize, span: Range<u64>) -> std::io::Result<CompactedJob> {
    let mut file = File::open(path)?;
    file.seek(SeekFrom::Start(span.start))?;
    let mut bytes = Vec::new();
    file.take(span.end.saturating_sub(span.start))
        .read_to_end(&mut bytes)?;
    let mut out = CompactedJob::default();
    scan(&bytes, span.start, |_, rec| match rec {
        Record::Event {
            job: j,
            seq,
            line: l,
            // Same dedup rule as replay: a pre-crash attempt's partial
            // stream is a prefix of the re-run's (identical by
            // determinism); keep the first copy of each seq.
        } if j == job && seq == out.events.len() => out.events.push(l),
        Record::Finished { job: j, finished } if j == job => out.report = Some(finished.report),
        _ => {}
    })?;
    Ok(out)
}

fn req_str<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("record lacks string {key:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use batch::{job_json, JobStatus};
    use std::time::Duration;
    use tdp_core::{CongestionReport, EcoStats, Metrics, RuntimeBreakdown};

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
                },
                eco: EcoStats::default(),
            },
        }
    }

    /// Decodes one rendered record line.
    fn decode_line(line: &str) -> Result<Record, String> {
        decode_record(&tdp_jsonio::parse(line).map_err(|e| e.to_string())?)
    }

    #[test]
    fn finished_record_is_the_wire_report_exactly() {
        let edgy = JobReport {
            case: "sb\"18\"\nµ-größe ✓".into(),
            metrics: Some(Metrics {
                tns: f64::NAN,
                wns: -0.0,
                hpwl: 1.234_567_890_123_4e15,
                failing_endpoints: 0,
                total_endpoints: 200,
            }),
            placement_hash: u64::MAX,
            congestion: Some(CongestionReport {
                overflow: 3e17,
                map_hash: u64::MAX,
                ..sample_report().congestion.unwrap()
            }),
            ..sample_report()
        };
        for report in [
            sample_report(),
            edgy.clone(),
            JobReport {
                status: JobStatus::Failed("flow panicked: \"die\" too full\nat größe ✓".into()),
                metrics: None,
                congestion: None,
                legal: false,
                ..sample_report()
            },
            JobReport {
                status: JobStatus::Canceled,
                ..edgy
            },
        ] {
            let wire = job_json(&report);
            let line = finished_record(report.job, &wire);
            let Ok(Record::Finished { job, finished }) = decode_line(&line) else {
                panic!("{line} must decode as a finished record");
            };
            assert_eq!(job, report.job);
            assert_eq!(finished.report, wire, "journaled bytes are the wire bytes");
            assert_eq!(finished.status, report.status.label());
            assert_eq!(
                finished.congestion.map(|(o, p)| (o.to_bits(), p.to_bits())),
                report
                    .congestion
                    .map(|c| (c.overflow.to_bits(), c.peak.to_bits())),
                "the metrics aggregates read the same bits"
            );
        }
    }

    #[test]
    fn finished_record_rejects_reports_that_are_not_the_jobs_wire_report() {
        let wire = job_json(&sample_report());
        let pre_change = concat!(
            r#"{"rec":"finished","job":3,"report":{"job":3,"case":"sb18","#,
            r#""objective":"Efficient-TDP (ours)","cells":1200,"nets":1100,"#,
            r#""status":"done","iterations":57,"legal":true,"#,
            r#""placement_hash":"0x0123456789abcdef","runtime":{"io_ns":1234567,"#,
            r#""sta_ns":987654321,"total_ns":8001222333,"threads":4}}}"#
        );
        let rejected = [
            pre_change.to_string(),
            finished_record(4, &wire),
            finished_record(
                3,
                &wire.replace("\"status\":\"done\"", "\"status\":\"paused\""),
            ),
        ];
        for line in &rejected {
            assert!(decode_line(line).is_err(), "{line} must not decode");
        }
        let good = finished_record(3, &wire);
        for bad in &rejected {
            let dir = temp_journal_dir("reject");
            std::fs::create_dir_all(&dir).unwrap();
            let file = dir.join("journal.jsonl");
            // Followed by a decodable record, the rejected line is
            // mid-file corruption: open refuses, names the line's
            // offset, and leaves every byte in place.
            let corrupt = format!("{good}\n{bad}\n{good}\n");
            std::fs::write(&file, &corrupt).unwrap();
            let err = Journal::open(&dir).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{bad}");
            let offset = format!("at byte {} ", good.len() + 1);
            assert!(err.to_string().contains(&offset), "{err}");
            assert_eq!(std::fs::read(&file).unwrap(), corrupt.as_bytes());
            // A compacted read over the same bytes reports it too.
            let span = 0..corrupt.len() as u64;
            let err = read_compacted(&file, 3, span).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{bad}");
            assert!(err.to_string().contains(&offset), "{err}");
            // As the last complete line it is a crash tail: the clean
            // prefix survives and the rest of the file is truncated.
            std::fs::write(&file, format!("{good}\n{bad}\n")).unwrap();
            let (_, records) = Journal::open(&dir).unwrap();
            assert_eq!(records.len(), 1, "{bad}");
            assert_eq!(
                std::fs::read(&file).unwrap(),
                format!("{good}\n").as_bytes()
            );
            std::fs::remove_dir_all(&dir).ok();
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
                finished_record(3, &job_json(&sample_report())),
                Record::Finished {
                    job: 3,
                    finished: FinishedJob::new(&sample_report()),
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
        let report = job_json(&JobReport {
            job: 0,
            ..sample_report()
        });
        let fin = append(&finished_record(0, &report), true);
        let compacted = read_compacted(journal.path(), 0, a.start..fin.end).unwrap();
        assert_eq!(
            compacted.events,
            vec![
                "{\"event\":\"a\",\"job\":0}".to_string(),
                "{\"event\":\"c\",\"job\":0}".to_string(),
            ]
        );
        assert_eq!(compacted.report, Some(report));
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
                &job_json(&JobReport {
                    job,
                    ..sample_report()
                }),
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
                    Record::Finished { job: j, finished } if *j == job => {
                        report = Some(finished.report.clone())
                    }
                    _ => {}
                }
            }
            let ranged = read_compacted(journal.path(), job, spans[&job].clone()).unwrap();
            assert_eq!(ranged.events, events, "job {job} events");
            assert_eq!(events.len(), 3, "job {job}: deduped to one copy per seq");
            assert_eq!(ranged.report, report, "job {job} report");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
