//! Low-overhead span tracing for the tdp workspace.
//!
//! Every layer of the stack — `parx` kernels, `sta` propagation, the
//! `placer` engine loop, `route` rasterization, `eco` transactions, the
//! `batch` runner and the `serve` daemon — records *spans* (named begin/
//! end intervals) through this crate. The recorder is built so that
//! tracing is an observability layer and nothing else:
//!
//! * **Disabled means branch-only.** Every recording entry point starts
//!   with one `Relaxed` load of a global [`AtomicBool`]; when tracing is
//!   off the cost of an instrumented call site is that load plus an
//!   untaken branch. No clock is read, no thread-local is touched.
//! * **Results are bitwise identical with tracing on or off.** Recording
//!   only ever appends to thread-local buffers and reads a monotonic
//!   clock; it never synchronizes kernel threads with each other or
//!   perturbs chunk boundaries, iteration order or reduction order. The
//!   `trace_differential` integration test in the workspace root holds
//!   this contract down to the placement hash and report bytes.
//! * **Per-lane buffers, no sorting.** Each OS thread records into its
//!   own *lane* (thread-local `Vec`) in occurrence order. Scoped guards
//!   drop LIFO, so every lane's event stream is properly nested by
//!   construction — the exporter never has to sort or repair.
//! * **Deterministic span ids.** Each lane numbers its spans with a
//!   per-lane sequence counter (`seq` on the begin event); for a fixed
//!   workload and thread count the (lane-relative) ids are reproducible.
//!   Lane *ids* are assigned in first-use order, which is scheduling
//!   dependent — the determinism contract is about results and per-lane
//!   streams, not about which OS thread got lane 3.
//!
//! Buffers are flushed as balanced *chunks* (only at span depth zero, or
//! at thread exit after all guards have dropped) into a global finished
//! registry; [`take`] drains it. The [`chrome`] module renders chunks as
//! Chrome-trace-event JSON (loadable in Perfetto / `chrome://tracing`),
//! built on [`tdp_jsonio::JsonValue`] so the emitted text is an
//! encode→parse→encode fixpoint of the workspace's own JSON parser.
//! [`TraceRing`] is the bounded chunk ring `tdp-serve` keeps resident so
//! a live daemon can answer `trace_dump` without restarting.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub mod chrome;
mod ring;
pub use chrome::{chrome_trace, summarize, validate, SpanStat};
pub use ring::TraceRing;

/// The single global gate every recording entry point checks first.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether tracing is currently enabled (one `Relaxed` atomic load —
/// this is the entire cost of an instrumented call site when tracing is
/// off, beyond the untaken branch).
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off globally. Spans already open keep their
/// armed state, so a guard whose begin event was recorded always records
/// its end event and every chunk stays balanced.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The process-wide trace epoch: all timestamps are nanoseconds since
/// the first one was taken, from one monotonic clock.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Monotonic nanoseconds since the trace epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// One recorded event. `Begin`/`End` pairs bracket a span; `Instant`
/// marks a point (e.g. "job 17 was assigned by this request").
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Span opens: static name + category, the lane-relative span id
    /// (`seq`) and an optional correlated job id.
    Begin {
        name: &'static str,
        cat: &'static str,
        seq: u64,
        job: Option<u64>,
    },
    /// Span closes (pairs with the innermost open `Begin` on the lane).
    End,
    /// A point event with no duration.
    Instant {
        name: &'static str,
        cat: &'static str,
        arg: InstantArg,
    },
}

/// What a point event carries (one slot, so an [`Event`] stays the size
/// of a span's `Begin`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InstantArg {
    /// A bare mark.
    None,
    /// A mark correlated with a job id ([`mark`]).
    Job(u64),
    /// A sample of a named counter ([`count`]), attached to whichever
    /// span is open on the lane when it is taken.
    Count(u64),
}

/// An event plus its timestamp (nanoseconds since the trace epoch).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    pub ts_ns: u64,
    pub kind: EventKind,
}

/// A balanced slice of one lane's event stream: flushed only at span
/// depth zero (or thread exit), so every `Begin` in a chunk has its
/// `End` in the same chunk and depth never goes negative.
#[derive(Clone, Debug)]
pub struct LaneChunk {
    /// Lane (thread) id — the `tid` in the Chrome export.
    pub lane: u32,
    /// Human-readable lane name, if one was set (first chunk that names
    /// a lane wins in the export).
    pub name: Option<String>,
    /// The events, in occurrence order.
    pub events: Vec<Event>,
}

fn registry() -> &'static Mutex<Vec<LaneChunk>> {
    static REGISTRY: OnceLock<Mutex<Vec<LaneChunk>>> = OnceLock::new();
    REGISTRY.get_or_init(Mutex::default)
}

/// Auto-assigned lane ids count up from zero; lanes adopted by `parx`
/// workers live above [`WORKER_LANE_BASE`] so the two ranges never
/// collide.
static NEXT_LANE: AtomicU32 = AtomicU32::new(0);

/// Base of the lane-id range [`worker_lane`] computes into.
pub const WORKER_LANE_BASE: u32 = 1 << 20;

/// Workers per dispatching lane that [`worker_lane`] can distinguish
/// (matches the `parx` thread cap).
pub const WORKER_LANE_STRIDE: u32 = 64;

/// The lane id for worker `index` of a kernel dispatched from
/// `caller` — stable across sequential dispatches from the same caller
/// thread, disjoint across concurrent callers, so a whole run's parx
/// workers collapse onto a small fixed set of Perfetto tracks.
pub fn worker_lane(caller: u32, index: usize) -> u32 {
    WORKER_LANE_BASE
        .wrapping_add(caller.wrapping_mul(WORKER_LANE_STRIDE))
        .wrapping_add(index as u32)
}

struct LaneBuf {
    lane: u32,
    name: Option<String>,
    depth: u32,
    seq: u64,
    events: Vec<Event>,
}

impl LaneBuf {
    fn new() -> Self {
        LaneBuf {
            lane: NEXT_LANE.fetch_add(1, Ordering::Relaxed),
            name: None,
            depth: 0,
            seq: 0,
            events: Vec::new(),
        }
    }

    fn flush(&mut self) {
        if self.events.is_empty() {
            return;
        }
        let chunk = LaneChunk {
            lane: self.lane,
            name: self.name.clone(),
            events: std::mem::take(&mut self.events),
        };
        registry().lock().expect("trace registry lock").push(chunk);
    }
}

impl Drop for LaneBuf {
    // Thread exit: all stack guards have dropped, so depth is zero and
    // the final flush is balanced like every other one.
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LANE: RefCell<LaneBuf> = RefCell::new(LaneBuf::new());
}

/// This thread's lane id (allocating the lane on first use).
pub fn current_lane() -> u32 {
    LANE.with(|l| l.borrow().lane)
}

/// Names this thread's lane (shown as the Perfetto track name) —
/// idempotent, last call wins for future flushes.
pub fn set_lane_name(name: &str) {
    let _ = LANE.try_with(|l| l.borrow_mut().name = Some(name.to_string()));
}

/// Re-keys this thread's lane to an explicit id + name. `parx` workers
/// use this with [`worker_lane`] so short-lived scoped threads from
/// sequential kernel dispatches share one stable track per worker
/// index. Call before recording anything on the thread.
pub fn adopt_lane(lane: u32, name: &str) {
    let _ = LANE.try_with(|l| {
        let mut l = l.borrow_mut();
        l.lane = lane;
        l.name = Some(name.to_string());
    });
}

/// An RAII span: records `Begin` on creation (when tracing is enabled)
/// and the matching `End` on drop. Guards are stack-scoped, so drops are
/// LIFO and each lane's stream is properly nested by construction.
#[must_use = "a span guard records its end event when dropped"]
pub struct SpanGuard {
    armed: bool,
}

impl SpanGuard {
    /// A guard that records nothing (the disabled path).
    pub fn disarmed() -> Self {
        SpanGuard { armed: false }
    }
}

#[inline]
fn record_begin(name: &'static str, cat: &'static str, job: Option<u64>) -> SpanGuard {
    let ts_ns = now_ns();
    let armed = LANE
        .try_with(|l| {
            let mut l = l.borrow_mut();
            let seq = l.seq;
            l.seq += 1;
            l.depth += 1;
            l.events.push(Event {
                ts_ns,
                kind: EventKind::Begin {
                    name,
                    cat,
                    seq,
                    job,
                },
            });
        })
        .is_ok();
    SpanGuard { armed }
}

/// Opens a span named `name` in category `cat`. The hot-path entry
/// point: one relaxed load and a branch when tracing is off.
#[inline]
pub fn span(name: &'static str, cat: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard::disarmed();
    }
    record_begin(name, cat, None)
}

/// Opens a span carrying a correlated job id (`args.job` in the
/// export) — how serve requests and batch jobs tie spans to reports.
#[inline]
pub fn span_job(name: &'static str, cat: &'static str, job: u64) -> SpanGuard {
    if !enabled() {
        return SpanGuard::disarmed();
    }
    record_begin(name, cat, Some(job))
}

#[inline]
fn record_instant(name: &'static str, cat: &'static str, arg: InstantArg) {
    let ts_ns = now_ns();
    let _ = LANE.try_with(|l| {
        l.borrow_mut().events.push(Event {
            ts_ns,
            kind: EventKind::Instant { name, cat, arg },
        });
    });
}

/// Records a point event (no duration), optionally carrying a job id.
#[inline]
pub fn mark(name: &'static str, cat: &'static str, job: Option<u64>) {
    if enabled() {
        record_instant(name, cat, job.map_or(InstantArg::None, InstantArg::Job));
    }
}

/// Records a count measured inside the currently open span — work done,
/// not time spent (e.g. pins a sweep evaluated). Exported as a Chrome
/// counter (`"ph":"C"`) event; counts are exact, so unlike durations
/// they compare across noisy machines.
#[inline]
pub fn count(name: &'static str, cat: &'static str, value: u64) {
    if enabled() {
        record_instant(name, cat, InstantArg::Count(value));
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let ts_ns = now_ns();
        let _ = LANE.try_with(|l| {
            let mut l = l.borrow_mut();
            l.depth = l.depth.saturating_sub(1);
            l.events.push(Event {
                ts_ns,
                kind: EventKind::End,
            });
        });
    }
}

/// Opens a scoped span bound to the enclosing block:
/// `trace::span_scope!("sta.full", "sta");`.
#[macro_export]
macro_rules! span_scope {
    ($name:expr, $cat:expr) => {
        let _trace_span_guard = $crate::span($name, $cat);
    };
    ($name:expr, $cat:expr, job = $job:expr) => {
        let _trace_span_guard = $crate::span_job($name, $cat, $job);
    };
}

/// Flushes this thread's buffered events into the finished registry —
/// only if the thread is between spans (depth zero), so chunks stay
/// balanced. Long-lived pool threads (serve workers, connection
/// handlers) call this between work items; short-lived threads flush
/// automatically at exit.
pub fn flush_thread() {
    let _ = LANE.try_with(|l| {
        let mut l = l.borrow_mut();
        if l.depth == 0 {
            l.flush();
        }
    });
}

/// Drains every finished chunk (flushing the calling thread first).
/// Chunks appear in flush order; same-lane chunks are time-ordered
/// because a lane is only ever written by one thread at a time.
pub fn take() -> Vec<LaneChunk> {
    flush_thread();
    std::mem::take(&mut *registry().lock().expect("trace registry lock"))
}

#[cfg(test)]
mod tests {
    use super::*;

    // The recorder state is global, so the unit tests run under one
    // lock to keep their take() calls from stealing each other's chunks.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _guard = test_lock();
        set_enabled(false);
        let _ = take();
        {
            let _s = span("noop", "test");
            mark("noop.mark", "test", None);
        }
        assert!(take().is_empty());
    }

    #[test]
    fn spans_nest_and_chunks_balance() {
        let _guard = test_lock();
        let _ = take();
        set_enabled(true);
        {
            let _outer = span("outer", "test");
            {
                let _inner = span_job("inner", "test", 7);
            }
            mark("point", "test", Some(7));
        }
        set_enabled(false);
        let chunks = take();
        let spans = validate(&chunks).expect("balanced");
        assert_eq!(spans, 2);
        let all: Vec<&Event> = chunks.iter().flat_map(|c| &c.events).collect();
        assert_eq!(all.len(), 5, "B B E I E");
        // Per-lane seq ids are deterministic: 0 then 1.
        let seqs: Vec<u64> = all
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Begin { seq, .. } => Some(seq),
                _ => None,
            })
            .collect();
        assert_eq!(seqs, vec![0, 1]);
    }

    #[test]
    fn flush_between_spans_only() {
        let _guard = test_lock();
        let _ = take();
        set_enabled(true);
        let open = span("held", "test");
        flush_thread(); // depth 1: must not split the open span
        assert!(registry().lock().unwrap().is_empty());
        drop(open);
        set_enabled(false);
        let chunks = take();
        assert_eq!(validate(&chunks).expect("balanced"), 1);
    }

    #[test]
    fn worker_lanes_are_stable_and_disjoint() {
        assert_eq!(worker_lane(3, 0), worker_lane(3, 0));
        assert_ne!(worker_lane(3, 0), worker_lane(3, 1));
        assert_ne!(worker_lane(3, 0), worker_lane(4, 0));
        assert!(worker_lane(0, 0) >= WORKER_LANE_BASE);
    }
}
