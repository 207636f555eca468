//! Critical path enumeration.
//!
//! Both extraction interfaces from the paper (Sec. III-B) are implemented
//! on top of one lazy deviation enumeration (Eppstein-style sidetracks over
//! the worst-predecessor tree):
//!
//! * [`Sta::report_timing`] mimics OpenTimer's `report_timing(n)`: the `n`
//!   worst endpoints each enumerate up to `n` worst paths, and the global
//!   top `n` are returned — the O(n²) behaviour Table 1 measures.
//! * [`Sta::report_timing_endpoint`] is the paper's
//!   `report_timing_endpoint(n, k)`: the `n` most critical *failing*
//!   endpoints each contribute their `k` worst paths — O(n·k), covering
//!   every mentioned endpoint, which is what the TNS metric sums over.
//!
//! A path's rank is its arrival at the endpoint minus the endpoint's
//! required time (i.e. the negated path slack); enumeration is exact: the
//! i-th returned path per endpoint is the i-th latest path in the DAG.
//!
//! The enumeration does only the work the *requested* paths need. An
//! endpoint's first path is a plain backtrace along the worst-predecessor
//! tree — no heap, no deviation nodes, one allocation (the returned
//! path). The side inputs along a returned path are expanded into heap
//! candidates only when the *next* path of that endpoint is asked for, so
//! `k = 1` (what the Efficient-TDP flow requests every timing iteration)
//! never expands anything. Deviation chains live in an index-linked arena
//! and every buffer is scratch reused from endpoint to endpoint. All of
//! it runs in the analyzer's rank layout (see [`crate::TimingGraph`]).

use crate::analysis::Sta;
use crate::graph::{ArcId, ArcKind, NO_ARC};
use netlist::{Design, PinId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One pin along a reported path, with the arrival time accumulated along
/// *this* path (not the graph-worst arrival).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathElement {
    /// The pin.
    pub pin: PinId,
    /// Arrival along the reported path at this pin.
    pub arrival: f64,
    /// The arc used to reach this pin; `None` for the startpoint.
    pub arc: Option<ArcId>,
}

/// A reported timing path from a startpoint to an endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingPath {
    /// Pins from startpoint to endpoint.
    pub elements: Vec<PathElement>,
    /// Setup slack of this particular path: `required(endpoint) − arrival`.
    pub slack: f64,
}

impl TimingPath {
    /// The endpoint pin.
    pub fn endpoint(&self) -> PinId {
        self.elements.last().expect("paths are non-empty").pin
    }

    /// The startpoint pin.
    pub fn startpoint(&self) -> PinId {
        self.elements.first().expect("paths are non-empty").pin
    }

    /// Arrival time at the endpoint along this path.
    pub fn arrival(&self) -> f64 {
        self.elements.last().expect("paths are non-empty").arrival
    }

    /// Number of pins on the path.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Whether the path is degenerate (should not happen for valid graphs).
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// The driver→sink pin pairs of the net arcs along this path — the
    /// pairs the pin-to-pin attraction objective pulls together. Cell
    /// (gate-internal) arcs are excluded: the placer cannot shrink them.
    pub fn net_pin_pairs(&self, sta: &Sta) -> Vec<(PinId, PinId)> {
        // Net and cell arcs alternate along a path.
        let mut pairs = Vec::with_capacity(self.elements.len() / 2 + 1);
        for arc in self.elements.iter().filter_map(|el| el.arc) {
            let a = sta.graph().arc(arc);
            if a.kind == ArcKind::Net {
                pairs.push((a.from, a.to));
            }
        }
        pairs
    }

    /// Formats the path with pin labels for diagnostics.
    pub fn display(&self, design: &Design) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "path slack {:.2}", self.slack);
        for el in &self.elements {
            let _ = writeln!(out, "  {:>10.2}  {}", el.arrival, design.pin_label(el.pin));
        }
        out
    }
}

/// Marker for "no deviation" in [`Candidate::devs`] / [`Deviation::prev`].
const NO_DEV: u32 = u32::MAX;

/// A deviation from the worst-predecessor tree, shared structurally
/// between candidate paths through its index in [`PathScratch::devs`].
#[derive(Debug, Clone, Copy)]
struct Deviation {
    /// Slot of the non-best incoming arc taken.
    slot: u32,
    /// Previous deviation (closer to the endpoint), or [`NO_DEV`].
    prev: u32,
}

/// Heap candidate for one endpoint's enumeration, ordered by total
/// deviation cost (smaller = later arrival = more critical).
#[derive(Debug, Clone, Copy)]
struct Candidate {
    /// Sum of deviation costs; the path arrives this much earlier than
    /// the endpoint's worst arrival.
    dev_cost: f64,
    /// Deviation chain, most recent (furthest from endpoint) first.
    devs: u32,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.dev_cost == other.dev_cost
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on dev_cost via reversed comparison (BinaryHeap is max).
        other
            .dev_cost
            .partial_cmp(&self.dev_cost)
            .unwrap_or(Ordering::Equal)
    }
}

/// Buffers of the enumeration, reused from endpoint to endpoint within
/// one report call. An endpoint that asks for a single path touches only
/// `path_slots`.
#[derive(Default)]
struct PathScratch {
    heap: BinaryHeap<Candidate>,
    /// Deviation arena of the current endpoint.
    devs: Vec<Deviation>,
    /// One candidate's deviation slots, endpoint-first.
    dev_slots: Vec<u32>,
    /// One path's arc slots, endpoint-first.
    path_slots: Vec<u32>,
}

/// Per-endpoint lazy enumeration of the k latest paths.
struct EndpointEnumerator<'a> {
    sta: &'a Sta,
    scratch: &'a mut PathScratch,
    /// Rank of the endpoint pin.
    endpoint: usize,
    required: f64,
    /// The candidate returned last, whose children are not on the heap
    /// yet; `None` before the first path.
    unexpanded: Option<Candidate>,
}

impl<'a> EndpointEnumerator<'a> {
    /// Creates an enumerator; returns `None` when the endpoint has no
    /// defined arrival or required time.
    fn new(sta: &'a Sta, scratch: &'a mut PathScratch, endpoint: PinId) -> Option<Self> {
        sta.arrival(endpoint)?;
        let required = sta.required(endpoint)?;
        scratch.heap.clear();
        scratch.devs.clear();
        Some(Self {
            sta,
            scratch,
            endpoint: sta.graph().rank_of(endpoint),
            required,
            unexpanded: None,
        })
    }

    /// The next-latest path. The first is the worst-predecessor
    /// backtrace; every later one first expands the path returned before
    /// it, then pops the best candidate.
    fn next_path(&mut self) -> Option<TimingPath> {
        let cand = match self.unexpanded {
            None => Candidate {
                dev_cost: 0.0,
                devs: NO_DEV,
            },
            Some(previous) => {
                self.push_children(previous);
                self.scratch.heap.pop()?
            }
        };
        self.unexpanded = Some(cand);
        Some(self.materialize(cand))
    }

    /// Walks the candidate's arc sequence from the endpoint back to the
    /// startpoint, then annotates arrivals forward.
    fn materialize(&mut self, cand: Candidate) -> TimingPath {
        let graph = self.sta.graph();
        let PathScratch {
            devs,
            dev_slots,
            path_slots,
            ..
        } = &mut *self.scratch;
        // Collect pending deviations. They chain most-recent-first and the
        // most recent is the furthest from the endpoint, so reverse to get
        // endpoint-first order.
        dev_slots.clear();
        let mut cur = cand.devs;
        while cur != NO_DEV {
            dev_slots.push(devs[cur as usize].slot);
            cur = devs[cur as usize].prev;
        }
        dev_slots.reverse();

        path_slots.clear();
        let mut rank = self.endpoint;
        let mut pending = dev_slots.iter().copied().peekable();
        loop {
            let slot = match pending.next_if(|&s| graph.arc_to[s as usize] as usize == rank) {
                Some(deviation) => deviation,
                None => self.sta.worst_pred_slot(rank),
            };
            if slot == NO_ARC {
                break;
            }
            path_slots.push(slot);
            rank = graph.arc_from[slot as usize] as usize;
        }
        debug_assert!(pending.peek().is_none(), "unconsumed deviations");

        // Forward annotation.
        let mut arrival = self.sta.arrival_at_rank(rank).unwrap_or(0.0);
        let mut elements = Vec::with_capacity(path_slots.len() + 1);
        elements.push(PathElement {
            pin: graph.pin_at(rank),
            arrival,
            arc: None,
        });
        for &slot in path_slots.iter().rev() {
            arrival += self.sta.slot_delay(slot);
            elements.push(PathElement {
                pin: graph.pin_at(graph.arc_to[slot as usize] as usize),
                arrival,
                arc: Some(graph.arc_at(slot)),
            });
        }
        let slack = self.required - arrival;
        TimingPath { elements, slack }
    }

    /// Children of `cand`: deviate at any node on the best-predecessor
    /// chain that starts where `cand`'s last deviation landed (or at the
    /// endpoint for the root), taking any non-best incoming arc. The
    /// Lawler-style restriction makes each deviation sequence unique.
    fn push_children(&mut self, cand: Candidate) {
        let graph = self.sta.graph();
        let mut v = if cand.devs == NO_DEV {
            self.endpoint
        } else {
            graph.arc_from[self.scratch.devs[cand.devs as usize].slot as usize] as usize
        };
        loop {
            let best = self.sta.worst_pred_slot(v);
            let Some(arrival_v) = self.sta.arrival_at_rank(v) else {
                break;
            };
            for slot in graph.in_slots(v) {
                let slot = slot as u32;
                if slot == best {
                    continue;
                }
                let from = graph.arc_from[slot as usize] as usize;
                let Some(arr_from) = self.sta.arrival_at_rank(from) else {
                    continue;
                };
                // Cost of taking this arc instead of the best one.
                let delta = arrival_v - (arr_from + self.sta.slot_delay(slot));
                debug_assert!(delta >= -1e-9, "best predecessor not maximal");
                self.scratch.heap.push(Candidate {
                    dev_cost: cand.dev_cost + delta.max(0.0),
                    devs: self.scratch.devs.len() as u32,
                });
                self.scratch.devs.push(Deviation {
                    slot,
                    prev: cand.devs,
                });
            }
            if best == NO_ARC {
                break;
            }
            v = graph.arc_from[best as usize] as usize;
        }
    }
}

impl Sta {
    /// Up to `k` latest paths of each endpoint in `endpoints`, endpoint-
    /// major — the one enumeration every report below is a view of.
    fn enumerate_paths(
        &self,
        endpoints: impl ExactSizeIterator<Item = PinId>,
        k: usize,
    ) -> Vec<TimingPath> {
        let mut scratch = PathScratch::default();
        let mut all = Vec::with_capacity(endpoints.len());
        for ep in endpoints {
            let Some(mut e) = EndpointEnumerator::new(self, &mut scratch, ep) else {
                continue;
            };
            all.extend(std::iter::from_fn(|| e.next_path()).take(k));
        }
        all
    }

    /// OpenTimer-style `report_timing(n)`: considers the `n` worst
    /// endpoints, enumerates up to `n` latest paths for each, and returns
    /// the global `n` latest paths sorted most-critical first.
    ///
    /// This is intentionally the O(n²) formulation the paper's Table 1
    /// profiles; prefer [`Sta::report_timing_endpoint`] in optimization
    /// loops.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Sta::analyze`].
    pub fn report_timing(&self, design: &Design, n: usize) -> Vec<TimingPath> {
        assert!(self.is_analyzed(), "call analyze() before report_timing");
        let _ = design;
        let worst = &self.endpoint_slacks()[..n.min(self.endpoint_slacks().len())];
        let mut all = self.enumerate_paths(worst.iter().map(|e| e.pin), n);
        all.sort_by(|a, b| a.slack.partial_cmp(&b.slack).unwrap_or(Ordering::Equal));
        all.truncate(n);
        all
    }

    /// The paper's `report_timing_endpoint(n, k)`: for the `n` most
    /// critical **failing** endpoints, returns up to `k` latest paths per
    /// endpoint (fewer when an endpoint has fewer distinct paths), ordered
    /// endpoint-major, most-critical first.
    ///
    /// With `n` = number of failing endpoints and `k = 1` this is the
    /// extraction the Efficient-TDP flow runs every timing iteration.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Sta::analyze`].
    pub fn report_timing_endpoint(&self, design: &Design, n: usize, k: usize) -> Vec<TimingPath> {
        assert!(
            self.is_analyzed(),
            "call analyze() before report_timing_endpoint"
        );
        let _ = design;
        let failing = &self.failing_endpoints()[..n.min(self.failing_endpoints().len())];
        self.enumerate_paths(failing.iter().map(|e| e.pin), k)
    }

    /// The single most critical path, if any endpoint is reachable —
    /// `report_timing(1)` without the sort.
    pub fn worst_path(&self, design: &Design) -> Option<TimingPath> {
        let _ = design;
        let ep = self.endpoint_slacks().first()?.pin;
        self.enumerate_paths(std::iter::once(ep), 1).pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rctree::RcParams;
    use netlist::{CellLibrary, DesignBuilder, Placement, Rect, Sdc};

    /// A reconvergent diamond: pi -> inv -> {nand.A via short, nand.B via
    /// long buf chain} -> nand -> po. Two distinct paths to one endpoint.
    fn diamond() -> (netlist::Design, Placement) {
        let mut b = DesignBuilder::new(
            "d",
            CellLibrary::standard(),
            Rect::new(0.0, 0.0, 600.0, 200.0),
            10.0,
        );
        b.set_sdc(Sdc::new(20.0));
        let pi = b.add_fixed_cell("pi", "IOPAD_IN", 0.0, 100.0).unwrap();
        let inv = b.add_cell("inv", "INV_X1").unwrap();
        let buf = b.add_cell("buf", "BUF_X1").unwrap();
        let nand = b.add_cell("nand", "NAND2_X1").unwrap();
        let po = b.add_fixed_cell("po", "IOPAD_OUT", 596.0, 100.0).unwrap();
        b.add_net("n0", &[(pi, "PAD"), (inv, "A")]).unwrap();
        b.add_net("n1", &[(inv, "Y"), (nand, "A"), (buf, "A")])
            .unwrap();
        b.add_net("n2", &[(buf, "Y"), (nand, "B")]).unwrap();
        b.add_net("n3", &[(nand, "Y"), (po, "PAD")]).unwrap();
        let d = b.finish().unwrap();
        let mut p = Placement::new(&d);
        p.set(d.find_cell("pi").unwrap(), 0.0, 100.0);
        p.set(d.find_cell("inv").unwrap(), 100.0, 100.0);
        p.set(d.find_cell("buf").unwrap(), 250.0, 180.0);
        p.set(d.find_cell("nand").unwrap(), 400.0, 100.0);
        p.set(d.find_cell("po").unwrap(), 596.0, 100.0);
        (d, p)
    }

    fn analyzed(d: &netlist::Design, p: &Placement) -> Sta {
        let mut sta = Sta::new(d, RcParams::default()).unwrap();
        sta.analyze(d, p);
        sta
    }

    #[test]
    fn worst_path_matches_endpoint_slack() {
        let (d, p) = diamond();
        let sta = analyzed(&d, &p);
        let path = sta.worst_path(&d).unwrap();
        let ep_slack = sta.endpoint_slacks()[0].slack;
        assert!((path.slack - ep_slack).abs() < 1e-9);
        assert_eq!(path.endpoint(), sta.endpoint_slacks()[0].pin);
    }

    #[test]
    fn paths_per_endpoint_are_sorted_and_distinct() {
        let (d, p) = diamond();
        let sta = analyzed(&d, &p);
        let paths = sta.report_timing_endpoint(&d, 10, 10);
        // The diamond endpoint (po) has exactly two source→po paths
        // (through nand.A and through buf→nand.B); the FF-free design has
        // one endpoint.
        assert_eq!(paths.len(), 2);
        assert!(paths[0].slack <= paths[1].slack);
        assert_ne!(paths[0].elements, paths[1].elements);
        // The worse path goes through the buffer.
        let buf_y = d.cell_pin(d.find_cell("buf").unwrap(), 1);
        assert!(paths[0].elements.iter().any(|e| e.pin == buf_y));
    }

    #[test]
    fn path_arrival_is_consistent_with_arc_delays() {
        let (d, p) = diamond();
        let sta = analyzed(&d, &p);
        for path in sta.report_timing_endpoint(&d, 10, 10) {
            let mut arr = sta.arrival(path.startpoint()).unwrap();
            for el in &path.elements[1..] {
                arr += sta.arc_delay(el.arc.unwrap());
                assert!((el.arrival - arr).abs() < 1e-9);
            }
            // Path arrival never exceeds the graph-worst arrival.
            assert!(path.arrival() <= sta.arrival(path.endpoint()).unwrap() + 1e-9);
        }
    }

    #[test]
    fn report_timing_returns_global_worst() {
        let (d, p) = diamond();
        let sta = analyzed(&d, &p);
        let one = sta.report_timing(&d, 1);
        assert_eq!(one.len(), 1);
        let all = sta.report_timing(&d, 10);
        assert_eq!(all.len(), 2);
        assert!((one[0].slack - all[0].slack).abs() < 1e-12);
        for w in all.windows(2) {
            assert!(w[0].slack <= w[1].slack);
        }
    }

    #[test]
    fn net_pin_pairs_exclude_cell_arcs() {
        let (d, p) = diamond();
        let sta = analyzed(&d, &p);
        let path = sta.worst_path(&d).unwrap();
        let pairs = path.net_pin_pairs(&sta);
        // Every pair must be driver -> sink of some net.
        for (a, b) in &pairs {
            let net = d.pin(*a).net.unwrap();
            assert_eq!(d.net_driver(net), *a);
            assert!(d.net_sinks(net).contains(b));
        }
        // A path pi->inv->buf->nand->po crosses 4 nets; pi->inv->nand->po
        // crosses 3.
        assert!(pairs.len() == 3 || pairs.len() == 4);
    }

    #[test]
    fn endpoint_report_covers_all_failing_endpoints() {
        // Two failing endpoints: build two parallel diamonds.
        let mut b = DesignBuilder::new(
            "two",
            CellLibrary::standard(),
            Rect::new(0.0, 0.0, 900.0, 300.0),
            10.0,
        );
        b.set_sdc(Sdc::new(15.0));
        for i in 0..2 {
            let y = 100.0 + 100.0 * i as f64;
            let pi = b
                .add_fixed_cell(&format!("pi{i}"), "IOPAD_IN", 0.0, y)
                .unwrap();
            let inv = b.add_cell(&format!("inv{i}"), "INV_X1").unwrap();
            let po = b
                .add_fixed_cell(&format!("po{i}"), "IOPAD_OUT", 800.0, y)
                .unwrap();
            b.add_net(&format!("a{i}"), &[(pi, "PAD"), (inv, "A")])
                .unwrap();
            b.add_net(&format!("b{i}"), &[(inv, "Y"), (po, "PAD")])
                .unwrap();
        }
        let d = b.finish().unwrap();
        let mut p = Placement::new(&d);
        for i in 0..2 {
            let y = 100.0 + 100.0 * i as f64;
            p.set(d.find_cell(&format!("pi{i}")).unwrap(), 0.0, y);
            p.set(d.find_cell(&format!("inv{i}")).unwrap(), 400.0, y);
            p.set(d.find_cell(&format!("po{i}")).unwrap(), 800.0, y);
        }
        let sta = analyzed(&d, &p);
        assert_eq!(sta.failing_endpoints().len(), 2);
        let paths = sta.report_timing_endpoint(&d, usize::MAX, 1);
        assert_eq!(paths.len(), 2);
        let endpoints: std::collections::HashSet<_> = paths.iter().map(|p| p.endpoint()).collect();
        assert_eq!(endpoints.len(), 2);
    }

    #[test]
    fn k_one_is_pure_backtrace() {
        let (d, p) = diamond();
        let sta = analyzed(&d, &p);
        let paths = sta.report_timing_endpoint(&d, usize::MAX, 1);
        assert_eq!(paths.len(), 1);
        // Must equal the worst path.
        let worst = sta.worst_path(&d).unwrap();
        assert_eq!(paths[0].elements, worst.elements);
    }
}
