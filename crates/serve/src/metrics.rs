//! Server-lifetime counters, exposed by the `metrics` request.
//!
//! All counters are relaxed atomics: they are observability, not
//! synchronization — the numbers a deterministic test asserts on
//! (cache hits/misses) are updated on the single submit path, in submit
//! order, so they *are* exact for sequential clients.

use crate::protocol::VERBS;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Upper bounds (seconds) of the per-verb request-latency histogram,
/// log-spaced two-per-decade (1, 5) from 100µs to 10s, each with its
/// canonical Prometheus `le` label so rendering is exact and stable.
/// A final implicit `+Inf` bucket catches everything slower.
pub const LATENCY_LE: [(f64, &str); 11] = [
    (0.0001, "0.0001"),
    (0.0005, "0.0005"),
    (0.001, "0.001"),
    (0.005, "0.005"),
    (0.01, "0.01"),
    (0.05, "0.05"),
    (0.1, "0.1"),
    (0.5, "0.5"),
    (1.0, "1"),
    (5.0, "5"),
    (10.0, "10"),
];

/// One verb's latency histogram: per-bucket (non-cumulative) relaxed
/// counters plus a running sum in nanoseconds. Cumulative `le` counts
/// are computed at render time.
#[derive(Debug)]
pub struct LatencyHisto {
    buckets: [AtomicU64; LATENCY_LE.len() + 1],
    sum_ns: AtomicU64,
}

impl LatencyHisto {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, seconds: f64) {
        let idx = LATENCY_LE
            .iter()
            .position(|&(bound, _)| seconds <= bound)
            .unwrap_or(LATENCY_LE.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_ns
            .fetch_add((seconds * 1e9).round() as u64, Ordering::Relaxed);
    }

    /// Cumulative bucket counts (the last entry is `+Inf` = total
    /// count) and the sum in seconds.
    fn snapshot(&self) -> ([u64; LATENCY_LE.len() + 1], f64) {
        let mut cum = [0u64; LATENCY_LE.len() + 1];
        let mut total = 0u64;
        for (slot, bucket) in cum.iter_mut().zip(&self.buckets) {
            total += bucket.load(Ordering::Relaxed);
            *slot = total;
        }
        (cum, self.sum_ns.load(Ordering::Relaxed) as f64 / 1e9)
    }
}

/// Whether a sample is a point-in-time value or a running total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Gauge,
    Counter,
}

/// One exported value: its `metrics` field name, its Prometheus name
/// (before the `tdp_serve_` prefix and a counter's `_total` suffix), its
/// kind and its value.
type Sample = (&'static str, &'static str, Kind, f64);

/// Counters for one server instance.
#[derive(Debug)]
pub struct ServeMetrics {
    started: Instant,
    /// Requests parsed (including ones that errored semantically).
    pub requests: AtomicU64,
    /// Submits accepted (a job was enqueued).
    pub submits: AtomicU64,
    /// Jobs that finished `done`.
    pub jobs_done: AtomicU64,
    /// Jobs that finished `canceled`.
    pub jobs_canceled: AtomicU64,
    /// Jobs that finished `failed`.
    pub jobs_failed: AtomicU64,
    /// Submits that found their design's session already cached.
    pub cache_hits: AtomicU64,
    /// Submits that allocated a new cache slot.
    pub cache_misses: AtomicU64,
    /// Sessions evicted to respect the cache capacity.
    pub cache_evictions: AtomicU64,
    /// `events` streams served.
    pub event_streams: AtomicU64,
    /// Session builds this server's cache slots attempted: one timing
    /// graph (and RC skeleton) each.
    pub graph_builds: AtomicU64,
    /// RC refresh passes run by this server's jobs and closed ECO
    /// sessions (folded from their analyzers' [`sta::RcOpStats`]).
    pub rc_refreshes: AtomicU64,
    /// Nets refreshed across those passes.
    pub rc_nets_refreshed: AtomicU64,
    /// RC scratch buffers those passes reused instead of allocating.
    pub rc_scratch_reuses: AtomicU64,
    /// ECO sessions opened (`eco_open` accepted).
    pub eco_opens: AtomicU64,
    /// Delta batches applied (`eco_apply` accepted).
    pub eco_applies: AtomicU64,
    /// ECO queries answered.
    pub eco_queries: AtomicU64,
    /// ECO reverts performed.
    pub eco_reverts: AtomicU64,
    /// Cells moved across all closed ECO sessions (folded from
    /// [`tdp_core::EcoStats`] when a session closes).
    pub eco_cells_moved: AtomicU64,
    /// Dirty nets re-analyzed across all closed ECO sessions.
    pub eco_dirty_nets: AtomicU64,
    /// Nanoseconds spent in incremental ECO analysis (closed sessions).
    pub eco_incremental_ns: AtomicU64,
    /// Nanoseconds spent in full ECO analysis (closed sessions).
    pub eco_full_ns: AtomicU64,
    /// Records appended to the job journal by this instance.
    pub journal_appends: AtomicU64,
    /// Records replayed from the journal at startup.
    pub journal_replays: AtomicU64,
    /// Jobs restored from the journal at startup (finished jobs
    /// re-materialized plus unfinished jobs re-enqueued).
    pub jobs_recovered: AtomicU64,
    /// Finished jobs whose in-memory event log was compacted away under
    /// the `--retain` cap (their state lives on in the journal).
    pub jobs_compacted: AtomicU64,
    /// Connection-handler threads reaped (joined) after their
    /// connections closed.
    pub conns_reaped: AtomicU64,
    /// Per-verb request latency histograms, indexed by
    /// [`Request::verb`](crate::Request::verb): wall-clock across parse
    /// and dispatch. Requests that fail to parse have no verb and are not
    /// observed (they still count in `requests`).
    pub latency: [LatencyHisto; VERBS.len()],
}

impl ServeMetrics {
    /// Fresh counters, all zero.
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
            requests: AtomicU64::new(0),
            submits: AtomicU64::new(0),
            jobs_done: AtomicU64::new(0),
            jobs_canceled: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            cache_evictions: AtomicU64::new(0),
            event_streams: AtomicU64::new(0),
            graph_builds: AtomicU64::new(0),
            rc_refreshes: AtomicU64::new(0),
            rc_nets_refreshed: AtomicU64::new(0),
            rc_scratch_reuses: AtomicU64::new(0),
            eco_opens: AtomicU64::new(0),
            eco_applies: AtomicU64::new(0),
            eco_queries: AtomicU64::new(0),
            eco_reverts: AtomicU64::new(0),
            eco_cells_moved: AtomicU64::new(0),
            eco_dirty_nets: AtomicU64::new(0),
            eco_incremental_ns: AtomicU64::new(0),
            eco_full_ns: AtomicU64::new(0),
            journal_appends: AtomicU64::new(0),
            journal_replays: AtomicU64::new(0),
            jobs_recovered: AtomicU64::new(0),
            jobs_compacted: AtomicU64::new(0),
            conns_reaped: AtomicU64::new(0),
            latency: std::array::from_fn(|_| LatencyHisto::new()),
        }
    }

    /// Bumps a counter by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds a closing ECO session's cumulative stats into the
    /// server-lifetime accumulators. `queries` is deliberately not
    /// folded: `eco_queries` counts answered requests live, at dispatch.
    pub fn fold_eco(&self, stats: &tdp_core::EcoStats) {
        self.eco_cells_moved
            .fetch_add(stats.cells_moved, Ordering::Relaxed);
        self.eco_dirty_nets
            .fetch_add(stats.dirty_nets, Ordering::Relaxed);
        self.eco_incremental_ns
            .fetch_add(stats.incremental_ns, Ordering::Relaxed);
        self.eco_full_ns.fetch_add(stats.full_ns, Ordering::Relaxed);
    }

    /// Folds one analyzer's RC work — a finished job's report or a
    /// closing ECO session — into the `rc_*` counters.
    pub fn fold_rc(&self, rc: &sta::RcOpStats) {
        self.rc_refreshes.fetch_add(rc.refreshes, Ordering::Relaxed);
        self.rc_nets_refreshed
            .fetch_add(rc.nets_refreshed, Ordering::Relaxed);
        self.rc_scratch_reuses
            .fetch_add(rc.scratch_reuses, Ordering::Relaxed);
    }

    /// Every gauge and counter, in `metrics` field order. Gauges and
    /// counters keep their relative order in both formats, so this one
    /// list drives both renderers.
    #[rustfmt::skip]
    fn samples(&self, g: &Gauges) -> [Sample; 34] {
        use Kind::{Counter as C, Gauge as G};
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed) as f64;
        [
            ("uptime_s", "uptime_seconds", G, self.started.elapsed().as_secs_f64()),
            ("workers", "workers", G, g.workers as f64),
            ("requests", "requests", C, get(&self.requests)),
            ("submits", "submits", C, get(&self.submits)),
            ("jobs", "jobs", G, g.jobs_total as f64),
            ("queued", "jobs_queued", G, g.jobs_queued as f64),
            ("running", "jobs_running", G, g.jobs_running as f64),
            ("done", "jobs_done", C, get(&self.jobs_done)),
            ("canceled", "jobs_canceled", C, get(&self.jobs_canceled)),
            ("failed", "jobs_failed", C, get(&self.jobs_failed)),
            ("cache_entries", "cache_entries", G, g.cache_entries as f64),
            ("cache_capacity", "cache_capacity", G, g.cache_capacity as f64),
            ("cache_hits", "cache_hits", C, get(&self.cache_hits)),
            ("cache_misses", "cache_misses", C, get(&self.cache_misses)),
            ("cache_evictions", "cache_evictions", C, get(&self.cache_evictions)),
            ("event_streams", "event_streams", C, get(&self.event_streams)),
            ("graph_builds", "graph_builds", C, get(&self.graph_builds)),
            ("rc_refreshes", "rc_refreshes", C, get(&self.rc_refreshes)),
            ("rc_nets_refreshed", "rc_nets_refreshed", C, get(&self.rc_nets_refreshed)),
            ("rc_scratch_reuses", "rc_scratch_reuses", C, get(&self.rc_scratch_reuses)),
            ("eco_opens", "eco_opens", C, get(&self.eco_opens)),
            ("eco_applies", "eco_applies", C, get(&self.eco_applies)),
            ("eco_queries", "eco_queries", C, get(&self.eco_queries)),
            ("eco_reverts", "eco_reverts", C, get(&self.eco_reverts)),
            ("eco_cells_moved", "eco_cells_moved", C, get(&self.eco_cells_moved)),
            ("eco_dirty_nets", "eco_dirty_nets", C, get(&self.eco_dirty_nets)),
            ("eco_incremental_ns", "eco_incremental_ns", C, get(&self.eco_incremental_ns)),
            ("eco_full_ns", "eco_full_ns", C, get(&self.eco_full_ns)),
            ("events_resident", "events_resident", G, g.events_resident as f64),
            ("journal_appends", "journal_appends", C, get(&self.journal_appends)),
            ("journal_replays", "journal_replays", C, get(&self.journal_replays)),
            ("jobs_recovered", "jobs_recovered", C, get(&self.jobs_recovered)),
            ("jobs_compacted", "jobs_compacted", C, get(&self.jobs_compacted)),
            ("conns_reaped", "conns_reaped", C, get(&self.conns_reaped)),
        ]
    }

    /// Renders the counters (plus the caller-supplied [`Gauges`]
    /// snapshot) as the fields of a `metrics` response. Documented
    /// field-by-field in the README's `tdp-serve` section.
    pub fn render(&self, out: &mut String, gauges: &Gauges) {
        for (name, _, _, value) in self.samples(gauges) {
            tdp_jsonio::field_num(out, name, value);
        }
        tdp_jsonio::field_raw(out, "request_seconds", &self.latency_json());
    }

    /// The `request_seconds` histogram as a JSON object: the shared
    /// `le` bounds once, then one `{count,sum_s,buckets}` entry per
    /// verb that has been observed (`buckets` are cumulative counts
    /// aligned with `le` plus a final `+Inf` total).
    fn latency_json(&self) -> String {
        let mut s = String::from("{\"le\":[");
        for (i, &(bound, _)) in LATENCY_LE.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&tdp_jsonio::format_num(bound));
        }
        s.push_str("],\"verbs\":{");
        let mut first = true;
        for ((verb, _), histo) in VERBS.iter().zip(&self.latency) {
            let (cum, sum_s) = histo.snapshot();
            let count = cum[cum.len() - 1];
            if count == 0 {
                continue;
            }
            if !first {
                s.push(',');
            }
            first = false;
            tdp_jsonio::push_escaped(&mut s, verb);
            s.push_str(":{\"count\":");
            s.push_str(&tdp_jsonio::format_num(count as f64));
            tdp_jsonio::field_num(&mut s, "sum_s", sum_s);
            s.push_str(",\"buckets\":[");
            for (i, c) in cum.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&tdp_jsonio::format_num(*c as f64));
            }
            s.push_str("]}");
        }
        s.push_str("}}");
        s
    }

    /// Renders the same counters and gauges in Prometheus text
    /// exposition format (the `metrics_text` verb): one `# TYPE` line
    /// per sample, names prefixed `tdp_serve_`, counters suffixed
    /// `_total`.
    pub fn render_prometheus(&self, gauges: &Gauges) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(2048);
        let samples = self.samples(gauges);
        for (kind, suffix, type_name) in [
            (Kind::Gauge, "", "gauge"),
            (Kind::Counter, "_total", "counter"),
        ] {
            for &(_, name, _, value) in samples.iter().filter(|s| s.2 == kind) {
                let _ = writeln!(out, "# TYPE tdp_serve_{name}{suffix} {type_name}");
                let value = tdp_jsonio::format_num(value);
                let _ = writeln!(out, "tdp_serve_{name}{suffix} {value}");
            }
        }
        let _ = writeln!(out, "# TYPE tdp_serve_request_seconds histogram");
        for ((verb, _), histo) in VERBS.iter().zip(&self.latency) {
            let (cum, sum_s) = histo.snapshot();
            let count = cum[cum.len() - 1];
            for (i, &(_, le)) in LATENCY_LE.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "tdp_serve_request_seconds_bucket{{verb=\"{verb}\",le=\"{le}\"}} {}",
                    cum[i]
                );
            }
            let _ = writeln!(
                out,
                "tdp_serve_request_seconds_bucket{{verb=\"{verb}\",le=\"+Inf\"}} {count}"
            );
            let _ = writeln!(
                out,
                "tdp_serve_request_seconds_sum{{verb=\"{verb}\"}} {}",
                tdp_jsonio::format_num(sum_s)
            );
            let _ = writeln!(
                out,
                "tdp_serve_request_seconds_count{{verb=\"{verb}\"}} {count}"
            );
        }
        out
    }
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

/// Point-in-time state the server snapshots for one `metrics` response —
/// values that live in the scheduler, not in the counters.
#[derive(Debug, Clone, Copy)]
pub struct Gauges {
    /// Resolved worker-thread count.
    pub workers: usize,
    /// Jobs ever submitted.
    pub jobs_total: usize,
    /// Jobs waiting for a worker.
    pub jobs_queued: usize,
    /// Jobs executing right now.
    pub jobs_running: usize,
    /// Designs currently cached.
    pub cache_entries: usize,
    /// Cache capacity.
    pub cache_capacity: usize,
    /// Event-log lines resident in memory across live jobs — the
    /// quantity `--retain` compaction bounds.
    pub events_resident: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_histograms_render_in_both_formats() {
        let m = ServeMetrics::new();
        let verb = |name: &str| VERBS.iter().position(|&(v, _)| v == name).unwrap();
        m.latency[verb("submit")].observe(0.003);
        m.latency[verb("submit")].observe(0.2);
        m.latency[verb("wait")].observe(42.0); // beyond the last bound: +Inf only
        let gauges = Gauges {
            workers: 2,
            jobs_total: 0,
            jobs_queued: 0,
            jobs_running: 0,
            cache_entries: 0,
            cache_capacity: 4,
            events_resident: 0,
        };

        let mut json = String::from("{\"ok\":true");
        m.render(&mut json, &gauges);
        json.push('}');
        let doc = tdp_jsonio::parse(&json).unwrap();
        let verbs = doc
            .get("request_seconds")
            .and_then(|h| h.get("verbs"))
            .expect("request_seconds.verbs");
        let submit = verbs.get("submit").expect("submit entry");
        assert_eq!(submit.get("count").and_then(|v| v.as_f64()), Some(2.0));
        let buckets = submit.get("buckets").and_then(|b| b.as_array()).unwrap();
        assert_eq!(buckets.len(), LATENCY_LE.len() + 1);
        // Cumulative counts: 0.003 lands at le=0.005, 0.2 at le=0.5.
        assert_eq!(buckets[2].as_f64(), Some(0.0));
        assert_eq!(buckets[3].as_f64(), Some(1.0));
        assert_eq!(buckets[7].as_f64(), Some(2.0));
        // Unobserved verbs are omitted from the JSON form.
        assert!(verbs.get("status").is_none());

        let text = m.render_prometheus(&gauges);
        assert!(text.contains("# TYPE tdp_serve_request_seconds histogram"));
        assert!(text.contains("tdp_serve_request_seconds_bucket{verb=\"submit\",le=\"0.005\"} 1"));
        assert!(text.contains("tdp_serve_request_seconds_bucket{verb=\"submit\",le=\"+Inf\"} 2"));
        assert!(text.contains("tdp_serve_request_seconds_sum{verb=\"submit\"}"));
        // The 42s wait overflows every finite bound but still counts.
        assert!(text.contains("tdp_serve_request_seconds_bucket{verb=\"wait\",le=\"10\"} 0"));
        assert!(text.contains("tdp_serve_request_seconds_count{verb=\"wait\"} 1"));
        // Unobserved verbs still emit a full (all-zero) series.
        assert!(text.contains("tdp_serve_request_seconds_count{verb=\"trace_dump\"} 0"));
    }
}
