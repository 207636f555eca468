//! [`TraceRing`]: the bounded store of recent span chunks a resident
//! daemon keeps for `trace_dump`.
//!
//! A [`LaneChunk`] holds its events as `Vec<Event>` — 64 bytes per
//! event, one heap block per chunk. A daemon answering thousands of
//! requests a second flushes a chunk per request, so a full ring of that
//! shape is tens of thousands of small blocks spread over the
//! allocator's per-thread arenas. The ring instead stores each event as
//! one [`Slot`] of at most 24 bytes in a single buffer sized once for the
//! ring's capacity, and rebuilds the public types only in
//! [`TraceRing::snapshot`]:
//!
//! * `(name, cat)` pairs are interned in a ring-local table (the
//!   program's static span names: a bounded set, never evicted);
//! * a `Begin`'s `seq` is not stored — one chunk's `Begin`s are
//!   consecutive on its lane, so the chunk table keeps the first;
//! * the job id, instant argument or count rides in one `u64` payload.

use crate::{Event, EventKind, InstantArg, LaneChunk};
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::Mutex;

/// A bounded, thread-safe ring of recent [`LaneChunk`]s — the resident
/// store behind `tdp-serve`'s `trace_dump` verb. Eviction drops whole
/// chunks (oldest first), so a snapshot is always a set of balanced
/// chunks and exports cleanly. Resident size is ≈24 bytes per retained
/// event.
#[derive(Debug)]
pub struct TraceRing {
    cap_events: usize,
    state: Mutex<RingState>,
}

#[derive(Debug)]
struct RingState {
    /// Retained events, oldest first; chunk after chunk, in `chunks`
    /// order.
    slots: VecDeque<Slot>,
    /// One entry per retained chunk, oldest first.
    chunks: VecDeque<ChunkMeta>,
    names: Interner<(&'static str, &'static str)>,
    lane_names: Interner<String>,
}

/// One retained event, less what its chunk and the intern tables hold.
#[derive(Clone, Copy, Debug)]
struct Slot {
    ts_ns: u64,
    /// The `Begin`'s or instant's job id, or the count; 0 otherwise.
    payload: u64,
    /// Index into the ring's `(name, cat)` table (0, unused, for `End`).
    name: u32,
    tag: Tag,
}

/// Which [`EventKind`] (and [`InstantArg`]) a [`Slot`] stands for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tag {
    Begin,
    BeginJob,
    End,
    Mark,
    MarkJob,
    Count,
}

/// A retained chunk: its lane, and where its events' `seq`s start; its
/// events are the next `len` slots.
#[derive(Debug)]
struct ChunkMeta {
    lane: u32,
    /// Interned lane name.
    name: Option<u32>,
    /// `seq` of the chunk's first `Begin`; each later one is one more.
    first_seq: u64,
    len: usize,
}

/// A table of distinct values addressed by `u32` index.
#[derive(Debug)]
struct Interner<T> {
    items: Vec<T>,
    ids: HashMap<T, u32>,
}

impl<T> Default for Interner<T> {
    fn default() -> Self {
        Interner {
            items: Vec::new(),
            ids: HashMap::new(),
        }
    }
}

impl<T: Clone + Eq + Hash> Interner<T> {
    fn id(&mut self, item: T) -> u32 {
        if let Some(&id) = self.ids.get(&item) {
            return id;
        }
        let id = u32::try_from(self.items.len()).expect("fewer than 2^32 distinct trace names");
        self.items.push(item.clone());
        self.ids.insert(item, id);
        id
    }
}

impl TraceRing {
    /// A ring retaining roughly `cap_events` events (whole-chunk
    /// granularity; a single oversized chunk is kept alone rather than
    /// split).
    pub fn new(cap_events: usize) -> Self {
        TraceRing {
            cap_events,
            state: Mutex::new(RingState {
                slots: VecDeque::with_capacity(cap_events),
                chunks: VecDeque::new(),
                names: Interner::default(),
                lane_names: Interner::default(),
            }),
        }
    }

    /// Appends freshly [`take`](crate::take)n chunks, evicting the
    /// oldest whole chunks once the event budget is exceeded. Chunks are
    /// expected as the recorder flushes them: each chunk's `Begin`s carry
    /// consecutive `seq`s (the ring stores only the first).
    pub fn absorb(&self, chunks: Vec<LaneChunk>) {
        if chunks.is_empty() {
            return;
        }
        let mut s = self.state.lock().expect("trace ring lock");
        for chunk in chunks {
            s.push(chunk, self.cap_events);
        }
    }

    /// A copy of the resident chunks, oldest first (non-destructive —
    /// an operator can dump repeatedly).
    pub fn snapshot(&self) -> Vec<LaneChunk> {
        let s = self.state.lock().expect("trace ring lock");
        let mut slots = s.slots.iter();
        s.chunks
            .iter()
            .map(|meta| {
                let mut next_seq = meta.first_seq;
                LaneChunk {
                    lane: meta.lane,
                    name: meta.name.map(|id| s.lane_names.items[id as usize].clone()),
                    events: slots
                        .by_ref()
                        .take(meta.len)
                        .map(|slot| s.event(slot, &mut next_seq))
                        .collect(),
                }
            })
            .collect()
    }

    /// Number of events currently resident (for metrics).
    pub fn len_events(&self) -> usize {
        self.state.lock().expect("trace ring lock").slots.len()
    }
}

impl RingState {
    fn push(&mut self, chunk: LaneChunk, cap_events: usize) {
        // Evicting before storing leaves the same chunks as storing and
        // then evicting down to the budget, and the buffer never holds
        // more than `cap_events` slots unless one chunk alone does.
        while self.slots.len() + chunk.events.len() > cap_events {
            let Some(old) = self.chunks.pop_front() else {
                break;
            };
            self.slots.drain(..old.len);
        }
        let mut first_seq = None;
        let mut begins = 0u64;
        for event in &chunk.events {
            let (tag, name, payload) = match event.kind {
                EventKind::Begin {
                    name,
                    cat,
                    seq,
                    job,
                } => {
                    let first = *first_seq.get_or_insert(seq);
                    debug_assert_eq!(seq, first + begins, "a chunk's Begins number consecutively");
                    begins += 1;
                    let tag = if job.is_some() {
                        Tag::BeginJob
                    } else {
                        Tag::Begin
                    };
                    (tag, self.names.id((name, cat)), job.unwrap_or(0))
                }
                EventKind::End => (Tag::End, 0, 0),
                EventKind::Instant { name, cat, arg } => {
                    let (tag, payload) = match arg {
                        InstantArg::None => (Tag::Mark, 0),
                        InstantArg::Job(job) => (Tag::MarkJob, job),
                        InstantArg::Count(value) => (Tag::Count, value),
                    };
                    (tag, self.names.id((name, cat)), payload)
                }
            };
            self.slots.push_back(Slot {
                ts_ns: event.ts_ns,
                payload,
                name,
                tag,
            });
        }
        self.chunks.push_back(ChunkMeta {
            lane: chunk.lane,
            name: chunk.name.map(|name| self.lane_names.id(name)),
            first_seq: first_seq.unwrap_or(0),
            len: chunk.events.len(),
        });
    }

    /// Rebuilds one slot's event; `next_seq` is the `seq` the chunk's
    /// next `Begin` gets.
    fn event(&self, slot: &Slot, next_seq: &mut u64) -> Event {
        let (name, cat) = match slot.tag {
            Tag::End => ("", ""),
            _ => self.names.items[slot.name as usize],
        };
        let instant = |arg| EventKind::Instant { name, cat, arg };
        let kind = match slot.tag {
            Tag::End => EventKind::End,
            Tag::Begin | Tag::BeginJob => {
                let seq = *next_seq;
                *next_seq += 1;
                EventKind::Begin {
                    name,
                    cat,
                    seq,
                    job: (slot.tag == Tag::BeginJob).then_some(slot.payload),
                }
            }
            Tag::Mark => instant(InstantArg::None),
            Tag::MarkJob => instant(InstantArg::Job(slot.payload)),
            Tag::Count => instant(InstantArg::Count(slot.payload)),
        };
        Event {
            ts_ns: slot.ts_ns,
            kind,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_retained_event_costs_at_most_24_bytes() {
        assert!(std::mem::size_of::<Slot>() <= 24);
    }

    #[test]
    fn ring_evicts_whole_chunks_oldest_first() {
        let chunk = |lane: u32, n: usize| LaneChunk {
            lane,
            name: None,
            events: vec![
                Event {
                    ts_ns: 0,
                    kind: EventKind::Instant {
                        name: "x",
                        cat: "t",
                        arg: InstantArg::None,
                    },
                };
                n
            ],
        };
        let ring = TraceRing::new(10);
        ring.absorb(vec![chunk(0, 6), chunk(1, 6)]);
        // 12 events > 10: the oldest chunk goes, whole.
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].lane, 1);
        assert_eq!(ring.len_events(), 6);
        // One oversized chunk is kept alone rather than split.
        ring.absorb(vec![chunk(2, 100)]);
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].lane, 2);
    }
}
