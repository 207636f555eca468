//! `TraceRing` stores events as compact slots and rebuilds the public
//! types on `snapshot()`. This model test holds it to the ring it
//! replaced: a `VecDeque<LaneChunk>` that appends whole chunks, then
//! evicts the oldest whole chunks while over its event budget, keeping
//! one oversized chunk alone rather than splitting it. For random chunk
//! streams — spans with and without job ids, marks, counts, named and
//! unnamed lanes, one chunk larger than the whole ring — every snapshot
//! must equal the model's chunk for chunk, and export to the same Chrome
//! trace bytes.

use efficient_tdp::tdp_trace::{chrome_trace, Event, EventKind, InstantArg, LaneChunk, TraceRing};
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};

const NAMES: [(&str, &str); 4] = [
    ("serve.eco_query", "serve"),
    ("sta.incremental", "sta"),
    ("journal.append", "journal"),
    ("sta.incremental.pins", "sta"),
];

/// The ring before compact storage.
struct Model {
    cap_events: usize,
    chunks: VecDeque<LaneChunk>,
    events: usize,
}

impl Model {
    fn absorb(&mut self, chunks: &[LaneChunk]) {
        for c in chunks {
            self.events += c.events.len();
            self.chunks.push_back(c.clone());
        }
        while self.events > self.cap_events && self.chunks.len() > 1 {
            let old = self.chunks.pop_front().expect("more than one chunk");
            self.events -= old.events.len();
        }
    }
}

/// Builds one balanced chunk the way the recorder would: ops `0`/`1`
/// open a span (`1` with a job id), `2` closes the innermost, `3`/`4`
/// mark (`4` with a job id), `5` counts; spans still open at the end
/// close. `Begin`s take consecutive `seq`s from the lane's counter.
fn chunk(
    lane: u32,
    name: usize,
    ops: &[u8],
    seqs: &mut HashMap<u32, u64>,
    ts: &mut u64,
) -> LaneChunk {
    let seq = seqs.entry(lane).or_insert(u64::from(lane) * 1000);
    let mut events = Vec::new();
    let mut depth = 0;
    let mut push = |kind| {
        *ts += 7;
        events.push(Event { ts_ns: *ts, kind });
    };
    for (i, &op) in ops.iter().enumerate() {
        let (name, cat) = NAMES[(i + usize::from(op)) % NAMES.len()];
        let job = i as u64 * 31 + u64::from(lane);
        match op {
            0 | 1 => {
                depth += 1;
                *seq += 1;
                push(EventKind::Begin {
                    name,
                    cat,
                    seq: *seq - 1,
                    job: (op == 1).then_some(job),
                });
            }
            2 if depth > 0 => {
                depth -= 1;
                push(EventKind::End);
            }
            5 => push(EventKind::Instant {
                name,
                cat,
                arg: InstantArg::Count(job * 3),
            }),
            _ => push(EventKind::Instant {
                name,
                cat,
                arg: if op == 4 {
                    InstantArg::Job(job)
                } else {
                    InstantArg::None
                },
            }),
        }
    }
    for _ in 0..depth {
        push(EventKind::End);
    }
    LaneChunk {
        lane,
        name: (name < 3).then(|| format!("lane-{lane}.{name}")),
        events,
    }
}

fn parts(chunks: &[LaneChunk]) -> Vec<(u32, Option<String>, Vec<Event>)> {
    chunks
        .iter()
        .map(|c| (c.lane, c.name.clone(), c.events.clone()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn compact_ring_snapshots_equal_the_vec_of_chunks_model(
        cap in 4usize..48,
        specs in prop::collection::vec(
            (0u32..4, 0usize..4, prop::collection::vec(0u8..6, 1..20)),
            1..40,
        ),
        batches in prop::collection::vec(1usize..5, 40),
        oversized_at in 0usize..40,
    ) {
        let (mut seqs, mut ts) = (HashMap::new(), 0u64);
        let mut chunks: Vec<LaneChunk> = specs
            .iter()
            .map(|(lane, name, ops)| chunk(*lane, *name, ops, &mut seqs, &mut ts))
            .collect();
        // One chunk larger than the whole ring.
        let big: Vec<u8> = (0..cap + 9).map(|i| [0, 3, 1, 5, 2, 4, 2][i % 7]).collect();
        let at = oversized_at.min(chunks.len());
        chunks.insert(at, chunk(1, 0, &big, &mut seqs, &mut ts));

        let ring = TraceRing::new(cap);
        let mut model = Model {
            cap_events: cap,
            chunks: VecDeque::new(),
            events: 0,
        };
        let mut rest = &chunks[..];
        for &n in batches.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (batch, tail) = rest.split_at(n.min(rest.len()));
            rest = tail;
            ring.absorb(batch.to_vec());
            model.absorb(batch);

            let snap = ring.snapshot();
            let want: Vec<LaneChunk> = model.chunks.iter().cloned().collect();
            prop_assert_eq!(parts(&snap), parts(&want));
            prop_assert_eq!(ring.len_events(), model.events);
            prop_assert_eq!(chrome_trace(&snap).encode(), chrome_trace(&want).encode());
        }
    }
}
