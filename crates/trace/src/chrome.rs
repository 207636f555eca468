//! Chrome-trace-event export, validation and summarization.
//!
//! The export target is the Trace Event Format's JSON-object form:
//! `{"traceEvents":[...]}` with `B`/`E` duration events, `i` instants,
//! `C` counter samples and `M` `thread_name` metadata — the dialect Perfetto and
//! `chrome://tracing` both load. Timestamps are microseconds since the
//! trace epoch (fractional, from the nanosecond recording clock); the
//! lane id is the `tid`, and the whole document is built as a
//! [`JsonValue`] so the emitted text round-trips through
//! [`tdp_jsonio::parse`] to the identical encoding (the fixpoint
//! `tdp-trace --check` asserts).

use crate::{Event, EventKind, InstantArg, LaneChunk};
use tdp_jsonio::JsonValue;

/// The one process id in the export (the trace describes one process).
const PID: f64 = 1.0;

fn us(ts_ns: u64) -> JsonValue {
    JsonValue::Num(ts_ns as f64 / 1000.0)
}

fn event_json(lane: u32, event: &Event) -> JsonValue {
    let tid = JsonValue::Num(lane as f64);
    match &event.kind {
        EventKind::Begin {
            name,
            cat,
            seq,
            job,
        } => {
            let mut args = vec![("seq".to_string(), JsonValue::Num(*seq as f64))];
            if let Some(job) = job {
                args.push(("job".to_string(), JsonValue::Num(*job as f64)));
            }
            JsonValue::Obj(vec![
                ("name".to_string(), JsonValue::Str(name.to_string())),
                ("cat".to_string(), JsonValue::Str(cat.to_string())),
                ("ph".to_string(), JsonValue::Str("B".to_string())),
                ("ts".to_string(), us(event.ts_ns)),
                ("pid".to_string(), JsonValue::Num(PID)),
                ("tid".to_string(), tid),
                ("args".to_string(), JsonValue::Obj(args)),
            ])
        }
        EventKind::End => JsonValue::Obj(vec![
            ("ph".to_string(), JsonValue::Str("E".to_string())),
            ("ts".to_string(), us(event.ts_ns)),
            ("pid".to_string(), JsonValue::Num(PID)),
            ("tid".to_string(), tid),
        ]),
        EventKind::Instant {
            name,
            cat,
            arg: InstantArg::Count(count),
        } => JsonValue::Obj(vec![
            ("name".to_string(), JsonValue::Str(name.to_string())),
            ("cat".to_string(), JsonValue::Str(cat.to_string())),
            ("ph".to_string(), JsonValue::Str("C".to_string())),
            ("ts".to_string(), us(event.ts_ns)),
            ("pid".to_string(), JsonValue::Num(PID)),
            ("tid".to_string(), tid),
            (
                "args".to_string(),
                JsonValue::Obj(vec![("value".to_string(), JsonValue::Num(*count as f64))]),
            ),
        ]),
        EventKind::Instant { name, cat, arg } => {
            let mut members = vec![
                ("name".to_string(), JsonValue::Str(name.to_string())),
                ("cat".to_string(), JsonValue::Str(cat.to_string())),
                ("ph".to_string(), JsonValue::Str("i".to_string())),
                ("ts".to_string(), us(event.ts_ns)),
                ("pid".to_string(), JsonValue::Num(PID)),
                ("tid".to_string(), tid),
                ("s".to_string(), JsonValue::Str("t".to_string())),
            ];
            if let InstantArg::Job(job) = arg {
                members.push((
                    "args".to_string(),
                    JsonValue::Obj(vec![("job".to_string(), JsonValue::Num(*job as f64))]),
                ));
            }
            JsonValue::Obj(members)
        }
    }
}

fn thread_name_json(lane: u32, name: &str) -> JsonValue {
    JsonValue::Obj(vec![
        (
            "name".to_string(),
            JsonValue::Str("thread_name".to_string()),
        ),
        ("ph".to_string(), JsonValue::Str("M".to_string())),
        ("pid".to_string(), JsonValue::Num(PID)),
        ("tid".to_string(), JsonValue::Num(lane as f64)),
        (
            "args".to_string(),
            JsonValue::Obj(vec![("name".to_string(), JsonValue::Str(name.to_string()))]),
        ),
    ])
}

/// Renders chunks as a Chrome-trace JSON document. Lanes are ordered by
/// id (chunks within a lane keep their flush order, which is their time
/// order), each named lane gets one `thread_name` metadata event, and
/// every event carries `pid` 1 and its lane as `tid`.
pub fn chrome_trace(chunks: &[LaneChunk]) -> JsonValue {
    let mut order: Vec<usize> = (0..chunks.len()).collect();
    order.sort_by_key(|&i| chunks[i].lane); // stable: same-lane flush order survives
    let mut events = Vec::new();
    let mut named: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
    for &i in &order {
        let chunk = &chunks[i];
        if let Some(name) = &chunk.name {
            if named.insert(chunk.lane) {
                events.push(thread_name_json(chunk.lane, name));
            }
        }
        for event in &chunk.events {
            events.push(event_json(chunk.lane, event));
        }
    }
    JsonValue::Obj(vec![
        ("traceEvents".to_string(), JsonValue::Arr(events)),
        (
            "displayTimeUnit".to_string(),
            JsonValue::Str("ms".to_string()),
        ),
    ])
}

/// Checks the structural invariants the recorder guarantees: within
/// every chunk, `End` events only close an open `Begin` and the chunk
/// ends at depth zero (chunks flush only between spans). Returns the
/// number of complete spans on success.
pub fn validate(chunks: &[LaneChunk]) -> Result<usize, String> {
    let mut spans = 0usize;
    for chunk in chunks {
        let mut depth = 0usize;
        for event in &chunk.events {
            match event.kind {
                EventKind::Begin { .. } => depth += 1,
                EventKind::End => {
                    depth = depth
                        .checked_sub(1)
                        .ok_or_else(|| format!("lane {}: E event with no open span", chunk.lane))?;
                    spans += 1;
                }
                EventKind::Instant { .. } => {}
            }
        }
        if depth != 0 {
            return Err(format!(
                "lane {}: chunk ends with {depth} span(s) still open",
                chunk.lane
            ));
        }
    }
    Ok(spans)
}

/// Aggregate statistics for one span name across a set of chunks.
#[derive(Clone, Debug)]
pub struct SpanStat {
    pub name: &'static str,
    /// Completed spans with this name.
    pub count: u64,
    /// Summed inclusive wall time.
    pub total_ns: u64,
    /// Summed self time: inclusive time minus the time covered by spans
    /// nested directly inside it on the same lane.
    pub self_ns: u64,
    /// Longest single span.
    pub max_ns: u64,
}

/// Folds every completed span into per-name totals, sorted by total
/// inclusive time, descending (ties broken by name for determinism).
/// This is the `tdp-trace` summary table.
pub fn summarize(chunks: &[LaneChunk]) -> Vec<SpanStat> {
    let mut stats: std::collections::BTreeMap<&'static str, SpanStat> =
        std::collections::BTreeMap::new();
    for chunk in chunks {
        // Open spans: name, begin time, time covered by closed children.
        let mut stack: Vec<(&'static str, u64, u64)> = Vec::new();
        for event in &chunk.events {
            match event.kind {
                EventKind::Begin { name, .. } => stack.push((name, event.ts_ns, 0)),
                EventKind::End => {
                    if let Some((name, begin_ns, child_ns)) = stack.pop() {
                        let dur = event.ts_ns.saturating_sub(begin_ns);
                        if let Some(parent) = stack.last_mut() {
                            parent.2 += dur;
                        }
                        let stat = stats.entry(name).or_insert(SpanStat {
                            name,
                            count: 0,
                            total_ns: 0,
                            self_ns: 0,
                            max_ns: 0,
                        });
                        stat.count += 1;
                        stat.total_ns += dur;
                        stat.self_ns += dur.saturating_sub(child_ns);
                        stat.max_ns = stat.max_ns.max(dur);
                    }
                }
                EventKind::Instant { .. } => {}
            }
        }
    }
    let mut out: Vec<SpanStat> = stats.into_values().collect();
    out.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(b.name)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_chunks() -> Vec<LaneChunk> {
        let begin = |name, seq, ts| Event {
            ts_ns: ts,
            kind: EventKind::Begin {
                name,
                cat: "test",
                seq,
                job: Some(9),
            },
        };
        let end = |ts| Event {
            ts_ns: ts,
            kind: EventKind::End,
        };
        vec![
            LaneChunk {
                lane: 5,
                name: Some("worker".to_string()),
                events: vec![begin("inner", 0, 2_500), end(3_500)],
            },
            LaneChunk {
                lane: 0,
                name: Some("main".to_string()),
                events: vec![
                    begin("outer", 0, 1_000),
                    begin("inner", 1, 2_000),
                    end(4_000),
                    end(9_000),
                ],
            },
        ]
    }

    #[test]
    fn export_is_a_jsonio_fixpoint_and_lane_ordered() {
        let doc = chrome_trace(&sample_chunks());
        let text = doc.encode();
        let reparsed = tdp_jsonio::parse(&text).expect("own export parses");
        assert_eq!(reparsed.encode(), text, "encode→parse→encode fixpoint");
        // Lane 0's thread_name comes before lane 5's events.
        let events = doc.get("traceEvents").expect("traceEvents");
        let JsonValue::Arr(items) = events else {
            panic!("traceEvents is an array")
        };
        assert_eq!(items.len(), 2 + 6, "2 metadata + 6 events");
        let tids: Vec<f64> = items
            .iter()
            .filter_map(|e| e.get("tid").and_then(JsonValue::as_f64))
            .collect();
        let mut sorted = tids.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(tids, sorted, "events grouped by lane id");
    }

    #[test]
    fn counts_export_as_counter_events_inside_their_span() {
        let mut chunks = sample_chunks();
        chunks[1].events.insert(
            2,
            Event {
                ts_ns: 3_000,
                kind: EventKind::Instant {
                    name: "inner.pins",
                    cat: "t",
                    arg: InstantArg::Count(42),
                },
            },
        );
        assert_eq!(validate(&chunks).expect("counts leave nesting alone"), 3);
        let doc = chrome_trace(&chunks);
        let JsonValue::Arr(items) = doc.get("traceEvents").expect("traceEvents") else {
            panic!("traceEvents is an array")
        };
        let counter = items
            .iter()
            .find(|e| e.get("ph").and_then(JsonValue::as_str) == Some("C"))
            .expect("one counter event");
        assert_eq!(
            counter.get("name").and_then(JsonValue::as_str),
            Some("inner.pins")
        );
        let value = counter.get("args").and_then(|a| a.get("value"));
        assert_eq!(value.and_then(JsonValue::as_f64), Some(42.0));
    }

    #[test]
    fn validate_counts_and_rejects() {
        let chunks = sample_chunks();
        assert_eq!(validate(&chunks).expect("balanced"), 3);
        let mut broken = chunks.clone();
        broken[0].events.pop();
        assert!(validate(&broken).is_err(), "open span rejected");
        let mut orphan = chunks;
        orphan[0].events.insert(
            0,
            Event {
                ts_ns: 0,
                kind: EventKind::End,
            },
        );
        assert!(validate(&orphan).is_err(), "orphan E rejected");
    }

    #[test]
    fn summarize_orders_by_total_time() {
        let stats = summarize(&sample_chunks());
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].name, "outer");
        assert_eq!(stats[0].total_ns, 8_000);
        assert_eq!(stats[0].self_ns, 6_000, "minus its nested inner span");
        assert_eq!(stats[1].name, "inner");
        assert_eq!(stats[1].count, 2);
        assert_eq!(stats[1].total_ns, 3_000);
        assert_eq!(stats[1].self_ns, 3_000);
        assert_eq!(stats[1].max_ns, 2_000);
    }
}
