//! Span self-time attribution: the share of a workload's root spans each
//! layer is busy for.
//!
//! A span's self time is its duration minus the part of that interval
//! its child spans (same lane, nested) cover. Under one root span the
//! self times of the root and all its descendants sum to the root's
//! duration exactly, so rolling them up by layer gives shares that sum
//! to 1. Spans outside any root — `parx` worker lanes helping a kernel,
//! the harness's own probes — are not on the blocking path of the root
//! and are left out.

use std::collections::BTreeMap;
use tdp_jsonio::JsonValue;
use tdp_trace::{EventKind, LaneChunk};

/// One begin or end event of a lane, in occurrence order.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    pub ts_ns: u64,
    /// `Some((name, category))` opens a span, `None` closes the
    /// innermost open one.
    pub begin: Option<(String, String)>,
}

/// Every lane's events, keyed by lane id.
pub type Lanes = BTreeMap<u32, Vec<SpanEvent>>;

/// Lanes from the recorder's chunks (same-lane chunks arrive in time
/// order, so appending keeps each lane ordered).
pub fn from_chunks(chunks: &[LaneChunk]) -> Lanes {
    let mut lanes = Lanes::new();
    for chunk in chunks {
        let lane = lanes.entry(chunk.lane).or_default();
        for event in &chunk.events {
            let begin = match event.kind {
                EventKind::Begin { name, cat, .. } => Some((name.to_string(), cat.to_string())),
                EventKind::End => None,
                EventKind::Instant { .. } => continue,
            };
            lane.push(SpanEvent {
                ts_ns: event.ts_ns,
                begin,
            });
        }
    }
    lanes
}

/// Lanes from a Chrome trace document (`{"traceEvents": [...]}`), the
/// form the daemon's `trace_dump` verb answers with.
///
/// # Errors
///
/// Returns a message when the document is not a trace-event object.
pub fn from_chrome(doc: &JsonValue) -> Result<Lanes, String> {
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or("trace document lacks a traceEvents array")?;
    let mut lanes = Lanes::new();
    for e in events {
        let ph = e.get("ph").and_then(JsonValue::as_str).unwrap_or("");
        if ph != "B" && ph != "E" {
            continue;
        }
        let lane = e
            .get("tid")
            .and_then(JsonValue::as_f64)
            .ok_or("duration event without tid")? as u32;
        let ts_us = e
            .get("ts")
            .and_then(JsonValue::as_f64)
            .ok_or("duration event without ts")?;
        let begin = (ph == "B").then(|| {
            let text = |key| {
                e.get(key)
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_string()
            };
            (text("name"), text("cat"))
        });
        lanes.entry(lane).or_default().push(SpanEvent {
            ts_ns: (ts_us * 1000.0).round() as u64,
            begin,
        });
    }
    Ok(lanes)
}

/// The layers shares are reported for, in `share.<layer>` order.
pub const LAYERS: [&str; 9] = [
    "placer", "sta", "core", "route", "eco", "batch", "serve", "journal", "other",
];

/// Maps a span name to its layer. Program spans are named
/// `<layer>.<what>` (`flow.*` is the flow driver in `core`, except
/// `flow.legalize`, which wraps the placer's legalizer and nothing
/// else); harness spans are named `bench.<layer>.<what>`.
pub fn layer_of(name: &str) -> &'static str {
    let name = name.strip_prefix("bench.").unwrap_or(name);
    if name == "flow.legalize" {
        return "placer";
    }
    let prefix = name.split('.').next().unwrap_or("");
    match prefix {
        "flow" | "core" => "core",
        other => LAYERS
            .iter()
            .copied()
            .find(|&l| l == other)
            .unwrap_or("other"),
    }
}

/// Self time under the root spans, rolled up.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Rollup {
    /// Root spans found.
    pub roots: usize,
    /// Summed duration of the root spans.
    pub root_ns: u64,
    /// Self time per layer (keys from [`LAYERS`]); sums to `root_ns`.
    pub layer_ns: BTreeMap<&'static str, u64>,
    /// Self time of `parx`-category spans (the caller's participation in
    /// parallel kernels), also counted under their layer above.
    pub parx_ns: u64,
    /// Number of `parx`-category spans under the roots (kernel
    /// dispatches seen from the calling lane).
    pub parx_calls: u64,
    /// `(count, self time, inclusive time)` per span name.
    pub name_ns: BTreeMap<String, (u64, u64, u64)>,
}

impl Rollup {
    /// Share of the root time spent in `layer`'s own code.
    pub fn share(&self, layer: &str) -> f64 {
        if self.root_ns == 0 {
            return 0.0;
        }
        self.layer_ns.get(layer).copied().unwrap_or(0) as f64 / self.root_ns as f64
    }

    /// `(count, summed self time, summed inclusive time)` of the spans
    /// named `name`.
    pub fn by_name(&self, name: &str) -> (u64, u64, u64) {
        self.name_ns.get(name).copied().unwrap_or((0, 0, 0))
    }
}

/// Rolls up self time under every outermost span for which `is_root`
/// holds. A root nested inside another root belongs to the outer one.
///
/// # Errors
///
/// Returns a message when a lane's events are not properly nested.
pub fn rollup(lanes: &Lanes, is_root: impl Fn(&str) -> bool) -> Result<Rollup, String> {
    struct Open {
        name: String,
        parx: bool,
        begin_ns: u64,
        child_ns: u64,
    }
    let mut out = Rollup::default();
    for (lane, events) in lanes {
        let mut stack: Vec<Open> = Vec::new();
        // Depth of the stack at which the current root sits, if any.
        let mut root_depth: Option<usize> = None;
        for event in events {
            match &event.begin {
                Some((name, cat)) => {
                    if root_depth.is_none() && is_root(name) {
                        root_depth = Some(stack.len());
                    }
                    stack.push(Open {
                        name: name.clone(),
                        parx: cat == "parx",
                        begin_ns: event.ts_ns,
                        child_ns: 0,
                    });
                }
                None => {
                    let open = stack
                        .pop()
                        .ok_or_else(|| format!("lane {lane}: end event with no open span"))?;
                    let dur = event.ts_ns.saturating_sub(open.begin_ns);
                    if let Some(parent) = stack.last_mut() {
                        parent.child_ns += dur;
                    }
                    let Some(depth) = root_depth else { continue };
                    let self_ns = dur.saturating_sub(open.child_ns);
                    *out.layer_ns.entry(layer_of(&open.name)).or_default() += self_ns;
                    let slot = out.name_ns.entry(open.name).or_default();
                    slot.0 += 1;
                    slot.1 += self_ns;
                    slot.2 += dur;
                    if open.parx {
                        out.parx_ns += self_ns;
                        out.parx_calls += 1;
                    }
                    if stack.len() == depth {
                        out.roots += 1;
                        out.root_ns += dur;
                        root_depth = None;
                    }
                }
            }
        }
        if !stack.is_empty() {
            return Err(format!(
                "lane {lane}: {} span(s) still open at the end",
                stack.len()
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(ts_ns: u64, name: &str, cat: &str) -> SpanEvent {
        SpanEvent {
            ts_ns,
            begin: Some((name.to_string(), cat.to_string())),
        }
    }

    fn e(ts_ns: u64) -> SpanEvent {
        SpanEvent { ts_ns, begin: None }
    }

    /// Lane 0: flow.run [0,100] ⊃ placer.iteration [10,70] ⊃
    /// placer.wl.net_coeffs (parx) [20,50]; ⊃ sta.full [70,90].
    /// Lane 7 (a parx worker): placer.wl.net_coeffs [22,48], outside
    /// any root. Lane 1: a second root, flow.run [0,40] ⊃ sta.full [5,15].
    fn synthetic() -> Lanes {
        let mut lanes = Lanes::new();
        lanes.insert(
            0,
            vec![
                b(0, "flow.run", "flow"),
                b(10, "placer.iteration", "placer"),
                b(20, "placer.wl.net_coeffs", "parx"),
                e(50),
                e(70),
                b(70, "sta.full", "sta"),
                e(90),
                e(100),
            ],
        );
        lanes.insert(7, vec![b(22, "placer.wl.net_coeffs", "parx"), e(48)]);
        lanes.insert(
            1,
            vec![
                b(0, "flow.run", "flow"),
                b(5, "sta.full", "sta"),
                e(15),
                e(40),
            ],
        );
        lanes
    }

    #[test]
    fn self_time_subtracts_children_per_lane_and_ignores_helper_lanes() {
        let r = rollup(&synthetic(), |n| n == "flow.run").unwrap();
        assert_eq!(r.roots, 2);
        assert_eq!(r.root_ns, 140);
        // flow.run self: (100 - 60 - 20) + (40 - 10) = 50 -> core.
        assert_eq!(r.layer_ns["core"], 50);
        // placer.iteration self 60 - 30 = 30, kernel self 30 -> placer 60.
        assert_eq!(r.layer_ns["placer"], 60);
        assert_eq!(r.layer_ns["sta"], 30);
        assert_eq!(r.by_name("sta.full"), (2, 30, 30));
        assert_eq!(r.by_name("placer.iteration"), (1, 30, 60));
        // Only the caller's participation counts; the worker lane's span
        // is outside every root.
        assert_eq!((r.parx_calls, r.parx_ns), (1, 30));
    }

    #[test]
    fn layer_shares_sum_to_one_with_other() {
        let mut lanes = synthetic();
        // An uncatalogued prefix and a harness span land in `other` / by
        // their `bench.<layer>` name.
        lanes.insert(
            2,
            vec![
                b(0, "flow.run", "flow"),
                b(1, "mystery.thing", "x"),
                e(4),
                b(4, "bench.sta.report_ept", "bench"),
                e(9),
                e(10),
            ],
        );
        let r = rollup(&lanes, |n| n == "flow.run").unwrap();
        let total: f64 = LAYERS.iter().map(|l| r.share(l)).sum();
        assert!((total - 1.0).abs() < 1e-12, "shares sum to {total}");
        assert_eq!(r.layer_ns["other"], 3);
        assert_eq!(r.layer_ns["sta"], 35);
        let summed: u64 = r.layer_ns.values().sum();
        assert_eq!(summed, r.root_ns);
    }

    #[test]
    fn prefixes_map_to_layers() {
        assert_eq!(layer_of("placer.gradient.wirelength"), "placer");
        assert_eq!(layer_of("flow.legalize"), "placer");
        assert_eq!(layer_of("flow.evaluate"), "core");
        assert_eq!(layer_of("journal.fsync"), "journal");
        assert_eq!(layer_of("serve.eco_apply"), "serve");
        assert_eq!(layer_of("batch.job"), "batch");
        assert_eq!(layer_of("bench.core.pinpair_grad"), "core");
        assert_eq!(layer_of("bench.netlist.nudge"), "other");
        assert_eq!(layer_of("noop"), "other");
    }

    #[test]
    fn unbalanced_lanes_are_rejected() {
        let mut lanes = Lanes::new();
        lanes.insert(0, vec![e(5)]);
        assert!(rollup(&lanes, |_| true).is_err());
        let mut lanes = Lanes::new();
        lanes.insert(0, vec![b(0, "flow.run", "flow")]);
        assert!(rollup(&lanes, |_| true).is_err());
    }

    #[test]
    fn chrome_documents_and_chunks_give_the_same_lanes() {
        tdp_trace::set_enabled(true);
        {
            let _outer = tdp_trace::span("bench.test.outer", "bench");
            let _inner = tdp_trace::span("bench.test.inner", "bench");
        }
        tdp_trace::set_enabled(false);
        let chunks: Vec<LaneChunk> = tdp_trace::take()
            .into_iter()
            .filter(|c| {
                c.events.iter().any(|e| {
                    matches!(e.kind, EventKind::Begin { name, .. } if name.starts_with("bench.test."))
                })
            })
            .collect();
        assert_eq!(chunks.len(), 1);
        let direct = from_chunks(&chunks);
        let doc = tdp_trace::chrome_trace(&chunks);
        let parsed = from_chrome(&tdp_jsonio::parse(&doc.encode()).unwrap()).unwrap();
        let names = |l: &Lanes| -> Vec<Option<String>> {
            l.values()
                .flatten()
                .map(|e| e.begin.as_ref().map(|(n, _)| n.clone()))
                .collect()
        };
        assert_eq!(names(&direct), names(&parsed));
        let r = rollup(&parsed, |n| n == "bench.test.outer").unwrap();
        assert_eq!(r.roots, 1);
        assert_eq!(r.by_name("bench.test.inner").0, 1);
    }
}
