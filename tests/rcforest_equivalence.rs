//! The analyzer's slab-backed RC refresh must compute, bit for bit, what
//! a plain per-net RC tree computes: on every suite case, both
//! interconnect topologies and 1 and 4 analyzer threads, every net's
//! load, every wire-arc delay and every driving gate-arc delay
//! (`intrinsic + drive_resistance · load`) must equal the reference
//! below.
//!
//! The reference is test-local and allocates per net: a star or Prim
//! tree rooted at the driver and an Elmore solve, in the arithmetic order
//! of the per-net `RcTree` the slab arena replaced. It reads the sink
//! caps from the design, not from the analyzer's skeleton.

use netlist::{Design, NetId, Placement};
use placer::{GlobalPlacer, PlacerConfig};
use sta::{ArcKind, NetTopology, RcParams, Sta};

/// One net's RC tree: node 0 is the driver, node `i` is sink `i − 1`.
struct RefTree {
    parent: Vec<usize>,
    edge_res: Vec<f64>,
    node_cap: Vec<f64>,
    /// Every parent before its children, root first.
    topo: Vec<usize>,
}

impl RefTree {
    fn build(design: &Design, placement: &Placement, net: NetId, params: &RcParams) -> Self {
        let positions: Vec<(f64, f64)> = design
            .net(net)
            .pins
            .iter()
            .map(|&p| placement.pin_position(design, p))
            .collect();
        let sink_caps: Vec<f64> = design
            .net(net)
            .sinks()
            .iter()
            .map(|&p| design.pin_spec(p).cap)
            .collect();
        let n = positions.len();
        let mut tree = RefTree {
            parent: vec![usize::MAX; n],
            edge_res: vec![0.0; n],
            node_cap: vec![0.0; n],
            topo: vec![0; n],
        };
        if n > 0 {
            match params.topology {
                NetTopology::Star => tree.star(&positions, &sink_caps, params),
                NetTopology::SteinerMst => tree.prim(&positions, &sink_caps, params),
            }
        }
        tree
    }

    fn star(&mut self, positions: &[(f64, f64)], sink_caps: &[f64], params: &RcParams) {
        let (dx, dy) = positions[0];
        for i in 1..positions.len() {
            let (sx, sy) = positions[i];
            let len = (sx - dx).abs() + (sy - dy).abs();
            self.parent[i] = 0;
            self.edge_res[i] = params.res_per_unit * len;
            let wire_cap = params.cap_per_unit * len;
            self.node_cap[0] += wire_cap / 2.0;
            self.node_cap[i] += wire_cap / 2.0 + sink_caps[i - 1];
            self.topo[i] = i;
        }
    }

    /// Prim's rectilinear MST from the driver: the nearest outside node
    /// joins next, ties to the lowest index.
    fn prim(&mut self, positions: &[(f64, f64)], sink_caps: &[f64], params: &RcParams) {
        let n = positions.len();
        for (i, &cap) in sink_caps.iter().enumerate() {
            self.node_cap[i + 1] += cap;
        }
        let manhattan = |a: usize, b: usize| {
            let (ax, ay) = positions[a];
            let (bx, by) = positions[b];
            (ax - bx).abs() + (ay - by).abs()
        };
        let mut in_tree = vec![false; n];
        let mut best_dist: Vec<f64> = (0..n).map(|v| manhattan(0, v)).collect();
        let mut best_from = vec![0usize; n];
        in_tree[0] = true;
        for placed in 1..n {
            let mut pick = usize::MAX;
            let mut pick_dist = f64::INFINITY;
            for v in 1..n {
                if !in_tree[v] && best_dist[v] < pick_dist {
                    pick = v;
                    pick_dist = best_dist[v];
                }
            }
            assert_ne!(pick, usize::MAX, "disconnected tree");
            in_tree[pick] = true;
            self.topo[placed] = pick;
            let from = best_from[pick];
            self.parent[pick] = from;
            self.edge_res[pick] = params.res_per_unit * pick_dist;
            let wire_cap = params.cap_per_unit * pick_dist;
            self.node_cap[from] += wire_cap / 2.0;
            self.node_cap[pick] += wire_cap / 2.0;
            for v in 1..n {
                if !in_tree[v] {
                    let d = manhattan(pick, v);
                    if d < best_dist[v] {
                        best_dist[v] = d;
                        best_from[v] = pick;
                    }
                }
            }
        }
    }

    /// Total capacitance the driver sees.
    fn load(&self) -> f64 {
        self.node_cap.iter().sum()
    }

    /// Elmore delay from the driver to each sink, in `net.sinks()` order.
    fn sink_delays(&self) -> Vec<f64> {
        let n = self.parent.len();
        let mut downstream = self.node_cap.clone();
        for i in (1..n).rev() {
            let v = self.topo[i];
            downstream[self.parent[v]] += downstream[v];
        }
        let mut delay = vec![0.0; n];
        for &v in &self.topo[1..n.max(1)] {
            delay[v] = delay[self.parent[v]] + self.edge_res[v] * downstream[v];
        }
        delay.into_iter().skip(1).collect()
    }
}

#[test]
fn forest_refresh_matches_per_net_trees_on_every_suite_case() {
    for case in benchgen::full_suite() {
        let (design, pads) = benchgen::generate(&case.params);
        // The deterministic seeded-jitter start: every cell placed.
        let placer = GlobalPlacer::new(&design, pads, PlacerConfig::default());
        let placement = placer.placement().clone();

        for topology in [NetTopology::Star, NetTopology::SteinerMst] {
            let params = RcParams {
                res_per_unit: case.params.res_per_unit,
                cap_per_unit: case.params.cap_per_unit,
                topology,
            };
            let trees: Vec<RefTree> = design
                .net_ids()
                .map(|net| RefTree::build(&design, &placement, net, &params))
                .collect();
            for threads in [1, 4] {
                let mut sta = Sta::new(&design, params)
                    .expect("suite designs are acyclic")
                    .with_threads(threads);
                sta.refresh_rc(&design, &placement);
                let graph = sta.graph();
                let at = |what: &str, net: NetId| {
                    format!(
                        "{} {topology:?} {threads}t: net {net:?} {what} diverged",
                        case.name
                    )
                };

                for (net, tree) in design.net_ids().zip(&trees) {
                    let load = tree.load();
                    assert_eq!(
                        sta.net_load(net).to_bits(),
                        load.to_bits(),
                        "{}",
                        at("load", net)
                    );
                    let delays = tree.sink_delays();
                    let driver = design.net(net).driver();
                    let mut wire_arcs = 0;
                    for arc in graph.out_arcs(driver) {
                        if let ArcKind::Net { net: n, sink_index } = graph.arc(arc).kind {
                            if n == net {
                                wire_arcs += 1;
                                assert_eq!(
                                    sta.arc_delay(arc).to_bits(),
                                    delays[sink_index].to_bits(),
                                    "{}",
                                    at(&format!("sink {sink_index} delay"), net)
                                );
                            }
                        }
                    }
                    assert_eq!(wire_arcs, delays.len(), "{}", at("wire-arc count", net));
                    for arc in graph.in_arcs(driver) {
                        if let ArcKind::Cell {
                            intrinsic,
                            drive_resistance,
                        } = graph.arc(arc).kind
                        {
                            assert_eq!(
                                sta.arc_delay(arc).to_bits(),
                                (intrinsic + drive_resistance * load).to_bits(),
                                "{}",
                                at("gate-arc delay", net)
                            );
                        }
                    }
                }
            }
        }
    }
}
