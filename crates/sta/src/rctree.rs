//! Per-net RC trees and Elmore delay.
//!
//! Each net's interconnect is modeled as a tree of resistive wire segments
//! with distributed capacitance, rooted at the driver pin. Wire resistance
//! and capacitance are both linear in segment length, so the Elmore delay of
//! a two-pin connection grows **quadratically** with distance — exactly the
//! property the paper's quadratic pin-to-pin loss (Sec. III-C, Eq. 7-8)
//! aligns with.
//!
//! Two topologies are provided:
//!
//! * [`NetTopology::Star`] — every sink connects straight to the driver;
//!   cheapest to build, used inside the placement loop.
//! * [`NetTopology::SteinerMst`] — Prim's minimum spanning tree under the
//!   Manhattan metric, a closer match to routed topology; used by the
//!   evaluation kit.
//!
//! A tree is scratch, not state: [`Sta`](crate::Sta)'s refresh builds
//! one net's tree from the design's pin slots ([`netlist::Topology`]),
//! solves it and writes the delays and the load straight into the
//! analyzer's own arrays. Each refresh chunk keeps one reusable scratch,
//! so a steady-state refresh allocates nothing, and no net's result
//! depends on another's, so a refresh is bit-identical for every worker
//! count. What a refresh costs is counted on the analyzer that ran it
//! ([`Sta::rc_stats`](crate::Sta::rc_stats)), never process-wide.

use netlist::{NetId, Placement, Topology};

/// Op counters for one analyzer's RC work, surfaced by the batch and
/// serve reports. Every counter is exact and a pure function of the
/// analyzer's call sequence, so it repeats for every thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RcOpStats {
    /// RC refresh passes run (one per full or incremental analysis).
    pub refreshes: u64,
    /// Nets refreshed, summed over all passes.
    pub nets_refreshed: u64,
    /// Per-chunk scratch buffers a refresh reused from an earlier
    /// refresh instead of creating.
    pub scratch_reuses: u64,
}

impl RcOpStats {
    /// Counters accumulated since `baseline` (same analyzer, earlier
    /// snapshot).
    #[must_use]
    pub fn since(self, baseline: RcOpStats) -> RcOpStats {
        RcOpStats {
            refreshes: self.refreshes.saturating_sub(baseline.refreshes),
            nets_refreshed: self.nets_refreshed.saturating_sub(baseline.nets_refreshed),
            scratch_reuses: self.scratch_reuses.saturating_sub(baseline.scratch_reuses),
        }
    }

    /// Combines two analyzers' stats: every counter adds.
    #[must_use]
    pub fn merged(self, other: RcOpStats) -> RcOpStats {
        RcOpStats {
            refreshes: self.refreshes + other.refreshes,
            nets_refreshed: self.nets_refreshed + other.nets_refreshed,
            scratch_reuses: self.scratch_reuses + other.scratch_reuses,
        }
    }
}

/// Wire parasitics per unit length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RcParams {
    /// Resistance per unit wirelength.
    pub res_per_unit: f64,
    /// Capacitance per unit wirelength.
    pub cap_per_unit: f64,
    /// Interconnect topology to construct.
    pub topology: NetTopology,
}

impl Default for RcParams {
    fn default() -> Self {
        Self {
            res_per_unit: 0.1,
            cap_per_unit: 0.2,
            topology: NetTopology::Star,
        }
    }
}

impl RcParams {
    /// Same parasitics with a different topology.
    pub fn with_topology(self, topology: NetTopology) -> Self {
        Self { topology, ..self }
    }
}

/// How a net's wire tree is constructed from pin positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetTopology {
    /// Direct driver→sink segments (a star rooted at the driver).
    Star,
    /// Rectilinear minimum spanning tree (Prim), rooted at the driver.
    SteinerMst,
}

/// Sentinel parent of the root node.
const NO_PARENT: u32 = u32::MAX;

/// Clears `v` and refills it with `n` copies of `value`.
fn refill<T: Copy>(v: &mut Vec<T>, n: usize, value: T) {
    v.clear();
    v.resize(n, value);
}

/// One refresh chunk's buffers for building a net's RC tree and solving
/// its Elmore delays, grown to the largest net the chunk has seen.
///
/// Node 0 of a tree is the net's driver and node `i` its sink `i − 1`.
/// Each non-root node stores its parent, the resistance of the edge to
/// the parent, and its node capacitance (half the wire capacitance of
/// each incident segment plus the sink pin cap). Every buffer is fully
/// rewritten per net, so the contents never influence results; keeping
/// them across refreshes only saves allocations.
#[derive(Debug, Clone, Default)]
pub(crate) struct RcScratch {
    /// Whether an earlier refresh already ran on this scratch.
    pub(crate) used: bool,
    /// Pin position per node.
    positions: Vec<(f64, f64)>,
    /// Parent node per node, local to the net (root: `NO_PARENT`).
    parent: Vec<u32>,
    /// Resistance of the edge to the parent, per node.
    edge_res: Vec<f64>,
    /// Node capacitance, per node.
    node_cap: Vec<f64>,
    /// Parents-before-children node order.
    topo: Vec<u32>,
    /// Prim frontier.
    in_tree: Vec<bool>,
    best_dist: Vec<f64>,
    best_from: Vec<u32>,
    /// Downstream capacitance per node.
    downstream: Vec<f64>,
    /// Elmore delay per node.
    delay: Vec<f64>,
}

impl RcScratch {
    /// Builds `net`'s tree from its pin slots in `topology` at
    /// `placement` and solves its Elmore delays. Returns the total
    /// downstream capacitance the driver sees; the sink delays are then
    /// [`RcScratch::sink_delays`].
    pub(crate) fn solve(
        &mut self,
        topology: &Topology,
        placement: &Placement,
        net: NetId,
        params: &RcParams,
    ) -> f64 {
        let slots = topology.net_slots(net);
        let (xs, ys) = (placement.xs(), placement.ys());
        let (cells, dx, dy) = (topology.slot_cell(), topology.slot_dx(), topology.slot_dy());
        self.positions.clear();
        self.positions.extend(slots.clone().map(|s| {
            let c = cells[s] as usize;
            (xs[c] + dx[s], ys[c] + dy[s])
        }));
        // A net's slots are its driver's, then its sinks' in order.
        let sink_caps = &topology.slot_cap()[slots.start + 1..slots.end];
        let n = slots.len();
        refill(&mut self.parent, n, NO_PARENT);
        refill(&mut self.edge_res, n, 0.0);
        refill(&mut self.node_cap, n, 0.0);
        refill(&mut self.topo, n, 0);
        match params.topology {
            NetTopology::Star => self.star(sink_caps, params),
            NetTopology::SteinerMst => self.prim(sink_caps, params),
        }
        let load = self.node_cap.iter().sum();
        self.elmore();
        load
    }

    /// Elmore delays of the last solved net's sinks, in
    /// `Design::net_sinks` order.
    pub(crate) fn sink_delays(&self) -> &[f64] {
        &self.delay[1..]
    }

    /// Star topology: every sink hangs off the driver.
    fn star(&mut self, sink_caps: &[f64], params: &RcParams) {
        let (dx, dy) = self.positions[0];
        for i in 1..self.positions.len() {
            let (sx, sy) = self.positions[i];
            let len = (sx - dx).abs() + (sy - dy).abs();
            self.parent[i] = 0;
            self.edge_res[i] = params.res_per_unit * len;
            let wire_cap = params.cap_per_unit * len;
            self.node_cap[0] += wire_cap / 2.0;
            self.node_cap[i] += wire_cap / 2.0 + sink_caps[i - 1];
            self.topo[i] = i as u32;
        }
    }

    /// Prim MST under the Manhattan metric, rooted at the driver. O(p²)
    /// per net, acceptable because real net degrees are small.
    fn prim(&mut self, sink_caps: &[f64], params: &RcParams) {
        let num_nodes = self.positions.len();
        for (i, &cap) in sink_caps.iter().enumerate() {
            self.node_cap[i + 1] += cap;
        }
        let positions = &self.positions;
        let manhattan = |a: usize, b: usize| {
            let (ax, ay) = positions[a];
            let (bx, by) = positions[b];
            (ax - bx).abs() + (ay - by).abs()
        };
        refill(&mut self.in_tree, num_nodes, false);
        refill(&mut self.best_dist, num_nodes, f64::INFINITY);
        refill(&mut self.best_from, num_nodes, 0);
        self.in_tree[0] = true;
        for (v, d) in self.best_dist.iter_mut().enumerate().skip(1) {
            *d = manhattan(0, v);
        }
        let mut placed = 1;
        for _ in 1..num_nodes {
            let mut pick = usize::MAX;
            let mut pick_dist = f64::INFINITY;
            for v in 1..num_nodes {
                if !self.in_tree[v] && self.best_dist[v] < pick_dist {
                    pick = v;
                    pick_dist = self.best_dist[v];
                }
            }
            if pick == usize::MAX {
                break;
            }
            self.in_tree[pick] = true;
            self.topo[placed] = pick as u32;
            placed += 1;
            let from = self.best_from[pick];
            self.parent[pick] = from;
            let len = pick_dist;
            self.edge_res[pick] = params.res_per_unit * len;
            let wire_cap = params.cap_per_unit * len;
            self.node_cap[from as usize] += wire_cap / 2.0;
            self.node_cap[pick] += wire_cap / 2.0;
            for v in 1..num_nodes {
                if !self.in_tree[v] {
                    let d = manhattan(pick, v);
                    if d < self.best_dist[v] {
                        self.best_dist[v] = d;
                        self.best_from[v] = pick as u32;
                    }
                }
            }
        }
        debug_assert_eq!(placed, num_nodes, "disconnected MST (non-finite position?)");
    }

    /// Elmore solve over the built tree: for each tree edge `e`, the
    /// delay contribution is `R_e × C_downstream(e)`; the delay to a sink
    /// is the sum over edges on the root→sink path.
    fn elmore(&mut self) {
        let n = self.parent.len();
        // `topo` lists parents before children; iterating it in reverse
        // is a valid post-order for downstream-cap accumulation.
        self.downstream.clear();
        self.downstream.extend_from_slice(&self.node_cap);
        for i in (1..n).rev() {
            let v = self.topo[i] as usize;
            let p = self.parent[v] as usize;
            self.downstream[p] += self.downstream[v];
        }
        refill(&mut self.delay, n, 0.0);
        for &node in &self.topo[1..n] {
            let v = node as usize;
            let p = self.parent[v] as usize;
            self.delay[v] = self.delay[p] + self.edge_res[v] * self.downstream[v];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sta;
    use netlist::{CellLibrary, Design, DesignBuilder, Rect};

    /// Builds a net with one driver and `sinks` INV loads at the given
    /// positions; returns design/placement/net plus the sink input cap.
    fn fanout_net(sinks: &[(f64, f64)]) -> (Design, Placement, NetId, f64) {
        let lib = CellLibrary::standard();
        let inv_cap = {
            let ty = lib.get(lib.by_name("INV_X1").unwrap());
            ty.pins[0].cap
        };
        let mut b = DesignBuilder::new("t", lib, Rect::new(0.0, 0.0, 1000.0, 1000.0), 10.0);
        let drv = b.add_cell("drv", "INV_X1").unwrap();
        let mut terms: Vec<(netlist::CellId, String)> = vec![(drv, "Y".to_string())];
        let mut cells = vec![];
        for i in 0..sinks.len() {
            let c = b.add_cell(&format!("s{i}"), "INV_X1").unwrap();
            cells.push(c);
            terms.push((c, "A".to_string()));
        }
        let terms_ref: Vec<(netlist::CellId, &str)> =
            terms.iter().map(|(c, s)| (*c, s.as_str())).collect();
        let net = b.add_net("n", &terms_ref).unwrap();
        // Tie off the sink outputs and driver input so the design validates.
        let pi = b.add_fixed_cell("pi", "IOPAD_IN", 0.0, 0.0).unwrap();
        b.add_net("nin", &[(pi, "PAD"), (drv, "A")]).unwrap();
        for (i, &c) in cells.iter().enumerate() {
            let po = b
                .add_fixed_cell(&format!("po{i}"), "IOPAD_OUT", 0.0, 0.0)
                .unwrap();
            b.add_net(&format!("no{i}"), &[(c, "Y"), (po, "PAD")])
                .unwrap();
        }
        let d = b.finish().unwrap();
        let mut p = Placement::new(&d);
        // Want driver OUTPUT pin at origin: INV_X1 Y offset is (2, 5).
        p.set(drv, -2.0, -5.0);
        for (i, &(x, y)) in sinks.iter().enumerate() {
            // Sink INPUT pin A offset is (0, 5).
            p.set(cells[i], x, y - 5.0);
        }
        (d, p, net, inv_cap)
    }

    /// `net`'s driver load and sink delays under `params`.
    fn solved(d: &Design, p: &Placement, net: NetId, params: &RcParams) -> (f64, Vec<f64>) {
        let mut scratch = RcScratch::default();
        let load = scratch.solve(d.topology(), p, net, params);
        (load, scratch.sink_delays().to_vec())
    }

    /// Wirelength of a tree with driver load `load`: each segment adds
    /// `cap_per_unit · length` to it on top of the `sinks` pin caps.
    fn wirelength(load: f64, sinks: usize, sink_cap: f64, params: &RcParams) -> f64 {
        (load - sinks as f64 * sink_cap) / params.cap_per_unit
    }

    #[test]
    fn star_two_pin_elmore_matches_hand_formula() {
        let (d, p, net, sink_cap) = fanout_net(&[(100.0, 0.0)]);
        let params = RcParams::default();
        let (load, delays) = solved(&d, &p, net, &params);
        assert_eq!(delays.len(), 1);
        let len = 100.0;
        let r = params.res_per_unit * len;
        let cw = params.cap_per_unit * len;
        // Elmore: R * (Cw/2 + Cpin) for the lumped pi model.
        let expected = r * (cw / 2.0 + sink_cap);
        assert!(
            (delays[0] - expected).abs() < 1e-9,
            "got {} expected {expected}",
            delays[0]
        );
        assert!((load - (cw + sink_cap)).abs() < 1e-9);
    }

    #[test]
    fn elmore_delay_is_quadratic_in_distance() {
        let params = RcParams::default();
        let delay_at = |dist: f64| {
            let (d, p, net, _) = fanout_net(&[(dist, 0.0)]);
            solved(&d, &p, net, &params).1[0]
        };
        let d1 = delay_at(100.0);
        let d2 = delay_at(200.0);
        // Doubling the distance should scale the wire term 4x; with the pin
        // cap the ratio lies strictly between 2 and 4.
        assert!(d2 / d1 > 2.5 && d2 / d1 <= 4.0, "ratio {}", d2 / d1);
    }

    #[test]
    fn mst_never_longer_than_star() {
        let sinks = [(100.0, 0.0), (110.0, 10.0), (120.0, -5.0), (-50.0, 30.0)];
        let (d, p, net, cap) = fanout_net(&sinks);
        let star = RcParams::default();
        let mst = RcParams::default().with_topology(NetTopology::SteinerMst);
        let (load_star, _) = solved(&d, &p, net, &star);
        let (load_mst, delays_mst) = solved(&d, &p, net, &mst);
        let wl_star = wirelength(load_star, sinks.len(), cap, &star);
        let wl_mst = wirelength(load_mst, sinks.len(), cap, &mst);
        assert!(wl_mst <= wl_star + 1e-9);
        // Clustered sinks make the MST strictly shorter.
        assert!(wl_mst < wl_star, "mst {wl_mst} vs star {wl_star}");
        assert_eq!(delays_mst.len(), sinks.len());
    }

    #[test]
    fn mst_chain_has_increasing_delays() {
        // Three sinks in a line: the farther sink accumulates delay through
        // the nearer ones in the MST topology.
        let (d, p, net, cap) = fanout_net(&[(100.0, 0.0), (200.0, 0.0), (300.0, 0.0)]);
        let params = RcParams::default().with_topology(NetTopology::SteinerMst);
        let (load, delays) = solved(&d, &p, net, &params);
        assert!(delays[0] < delays[1] && delays[1] < delays[2]);
        // Chain wirelength equals the span.
        assert!((wirelength(load, 3, cap, &params) - 300.0).abs() < 1e-9);
    }

    /// The RC stats after a fixed call sequence: two full analyses, an
    /// incremental one over a few cells (one refresh chunk), and a full
    /// one again.
    fn rc_stats_sequence(threads: usize) -> Vec<RcOpStats> {
        let (d, p) = benchgen::generate(&benchgen::CircuitParams::small("rc_reuse", 3));
        let mut sta = Sta::new(&d, RcParams::default())
            .unwrap()
            .with_threads(threads);
        let mut seen = Vec::new();
        sta.analyze(&d, &p);
        seen.push(sta.rc_stats());
        sta.analyze(&d, &p);
        seen.push(sta.rc_stats());
        let few: Vec<netlist::CellId> = d.cell_ids().take(3).collect();
        sta.analyze_incremental(&d, &p, &few);
        seen.push(sta.rc_stats());
        sta.analyze(&d, &p);
        seen.push(sta.rc_stats());
        seen
    }

    #[test]
    fn rc_scratch_reuses_depend_only_on_the_call_sequence() {
        let serial = rc_stats_sequence(1);
        assert!(
            serial[0].nets_refreshed >= 256,
            "the design must be large enough for a parallel refresh"
        );
        let reuses: Vec<u64> = serial.iter().map(|s| s.scratch_reuses).collect();
        // None on the first pass, every chunk on the second, the one
        // chunk of the incremental pass, and every chunk on the last:
        // the small pass keeps the other chunks' scratch.
        let chunks = reuses[1];
        assert!(chunks >= 4, "a full refresh runs {chunks} chunks");
        assert_eq!(reuses, [0, chunks, chunks + 1, 2 * chunks + 1]);
        assert_eq!(rc_stats_sequence(4), serial);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn refresh_rejects_a_repeated_net() {
        let (d, p, net, _) = fanout_net(&[(10.0, 0.0), (20.0, 5.0)]);
        let mut sta = Sta::new(&d, RcParams::default()).unwrap();
        sta.refresh_nets(&d, &p, &[net, net]);
    }

    #[test]
    fn zero_length_net_has_zero_wire_delay() {
        let (d, p, net, sink_cap) = fanout_net(&[(0.0, 0.0)]);
        let (load, delays) = solved(&d, &p, net, &RcParams::default());
        assert_eq!(delays[0], 0.0);
        assert!((load - sink_cap).abs() < 1e-12);
    }
}
