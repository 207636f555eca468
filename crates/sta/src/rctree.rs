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
//! Every net's tree lives in one crate-private forest: flat SoA slabs
//! (`parent` / `edge_res` / `node_cap` / `topo`) with per-net CSR
//! offsets, laid out once per design and refreshed in place by
//! [`Sta`](crate::Sta). A full refresh performs **zero** per-net
//! allocations and is bit-identical for every worker count. What a
//! refresh costs is counted on the analyzer that ran it
//! ([`Sta::rc_stats`](crate::Sta::rc_stats)), never process-wide.

use netlist::{Design, NetId, Placement};
use parx::UnsafeSlice;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Allocation/op counters for one analyzer's RC work — the "how much did
/// the arena save" view that `tdp-perf` and the batch/serve reports
/// surface. Counters are exact and deterministic for a fixed workload;
/// `scratch_reuses` additionally depends on thread scheduling (like a
/// wall-clock field) because pool hits race under a parallel refresh.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RcOpStats {
    /// RC refresh passes run (one per full or incremental analysis).
    pub refreshes: u64,
    /// Nets refreshed, summed over all passes.
    pub nets_refreshed: u64,
    /// Scratch buffers reused from the forest pool instead of allocated.
    pub scratch_reuses: u64,
    /// Resident bytes of forest slab capacity (a gauge, not a counter).
    pub slab_bytes: u64,
}

impl RcOpStats {
    /// Counters accumulated since `baseline` (same analyzer, earlier
    /// snapshot); the `slab_bytes` gauge keeps its current value.
    #[must_use]
    pub fn since(self, baseline: RcOpStats) -> RcOpStats {
        RcOpStats {
            refreshes: self.refreshes.saturating_sub(baseline.refreshes),
            nets_refreshed: self.nets_refreshed.saturating_sub(baseline.nets_refreshed),
            scratch_reuses: self.scratch_reuses.saturating_sub(baseline.scratch_reuses),
            slab_bytes: self.slab_bytes,
        }
    }

    /// Combines two analyzers' stats: counters add, and so do the slab
    /// gauges (total resident arena bytes).
    #[must_use]
    pub fn merged(self, other: RcOpStats) -> RcOpStats {
        RcOpStats {
            refreshes: self.refreshes + other.refreshes,
            nets_refreshed: self.nets_refreshed + other.nets_refreshed,
            scratch_reuses: self.scratch_reuses + other.scratch_reuses,
            slab_bytes: self.slab_bytes + other.slab_bytes,
        }
    }
}

/// The placement-independent part of every net's RC tree: per-net sink
/// input capacitances, laid out contiguously in net order.
///
/// Built once per design by [`Sta::build_parts`](crate::Sta::build_parts)
/// and shared behind an `Arc` by every analyzer of that design, so
/// repeated analyses — and repeated flow runs — never re-read the caps
/// from the [`Design`].
#[derive(Debug, Clone)]
pub struct RcSkeleton {
    /// CSR offsets into `sink_caps`, one entry per net plus a sentinel.
    starts: Vec<u32>,
    /// Sink pin input capacitances, in `net.sinks()` order per net.
    sink_caps: Vec<f64>,
}

impl RcSkeleton {
    /// Extracts the static RC data from `design`.
    pub fn build(design: &Design) -> Self {
        let mut starts = Vec::with_capacity(design.num_nets() + 1);
        let mut sink_caps = Vec::new();
        starts.push(0);
        for net in design.net_ids() {
            for &sink in design.net(net).sinks() {
                sink_caps.push(design.pin_spec(sink).cap);
            }
            starts.push(sink_caps.len() as u32);
        }
        Self { starts, sink_caps }
    }

    /// Input capacitances of `net`'s sinks, in `net.sinks()` order.
    pub fn sink_caps(&self, net: NetId) -> &[f64] {
        let lo = self.starts[net.index()] as usize;
        let hi = self.starts[net.index() + 1] as usize;
        &self.sink_caps[lo..hi]
    }

    /// Re-reads the sink capacitances presented by one cell's input pins
    /// from the design — the skeleton half of an ECO resize after
    /// [`netlist::Design::set_cell_type`]. Connectivity must be unchanged
    /// (a resize never rewires), so only cap values move; no rebuild.
    ///
    /// # Panics
    ///
    /// Panics if a connected input pin of the cell is not among its net's
    /// sinks, which a validated design rules out.
    pub fn repatch_cell_caps(&mut self, design: &Design, cell: netlist::CellId) {
        for &pin in &design.cell(cell).pins {
            if design.pin_direction(pin) != netlist::PinDirection::Input {
                continue;
            }
            let Some(net) = design.pin(pin).net else {
                continue;
            };
            let pos = design
                .net(net)
                .sinks()
                .iter()
                .position(|&s| s == pin)
                .expect("input pin missing from its net's sink list");
            let slot = self.starts[net.index()] as usize + pos;
            self.sink_caps[slot] = design.pin_spec(pin).cap;
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

// ---------------------------------------------------------------------------
// Construction kernels, run over one net's slab segment.
// ---------------------------------------------------------------------------

/// Sentinel parent of the root node.
const NO_PARENT: u32 = u32::MAX;

/// Star topology: node 0 = driver, node i = sink i-1. All slices have
/// `positions.len()` elements.
fn star_into(
    positions: &[(f64, f64)],
    sink_caps: &[f64],
    params: &RcParams,
    parent: &mut [u32],
    edge_res: &mut [f64],
    node_cap: &mut [f64],
    topo: &mut [u32],
) {
    let num_nodes = positions.len();
    parent.fill(NO_PARENT);
    edge_res.fill(0.0);
    node_cap.fill(0.0);
    if num_nodes == 0 {
        return;
    }
    let (dx, dy) = positions[0];
    topo[0] = 0;
    for i in 1..num_nodes {
        let (sx, sy) = positions[i];
        let len = (sx - dx).abs() + (sy - dy).abs();
        parent[i] = 0;
        edge_res[i] = params.res_per_unit * len;
        let wire_cap = params.cap_per_unit * len;
        node_cap[0] += wire_cap / 2.0;
        node_cap[i] += wire_cap / 2.0 + sink_caps[i - 1];
        topo[i] = i as u32;
    }
}

/// Prim MST under the Manhattan metric, rooted at the driver (node 0).
/// O(p²) per net, acceptable because real net degrees are small. The
/// `in_tree`/`best_dist`/`best_from` slices are scratch (fully
/// reinitialized here); all slices have `positions.len()` elements.
#[allow(clippy::too_many_arguments)]
fn mst_into(
    positions: &[(f64, f64)],
    sink_caps: &[f64],
    params: &RcParams,
    parent: &mut [u32],
    edge_res: &mut [f64],
    node_cap: &mut [f64],
    topo: &mut [u32],
    in_tree: &mut [bool],
    best_dist: &mut [f64],
    best_from: &mut [u32],
) {
    let num_nodes = positions.len();
    parent.fill(NO_PARENT);
    edge_res.fill(0.0);
    node_cap.fill(0.0);
    if num_nodes == 0 {
        return;
    }
    for (i, &cap) in sink_caps.iter().enumerate() {
        node_cap[i + 1] += cap;
    }
    let manhattan = |a: usize, b: usize| {
        let (ax, ay) = positions[a];
        let (bx, by) = positions[b];
        (ax - bx).abs() + (ay - by).abs()
    };

    in_tree.fill(false);
    best_dist.fill(f64::INFINITY);
    best_from.fill(0);
    topo[0] = 0;
    in_tree[0] = true;
    for (v, d) in best_dist.iter_mut().enumerate().skip(1) {
        *d = manhattan(0, v);
    }
    let mut placed = 1;
    for _ in 1..num_nodes {
        let mut pick = usize::MAX;
        let mut pick_dist = f64::INFINITY;
        for v in 1..num_nodes {
            if !in_tree[v] && best_dist[v] < pick_dist {
                pick = v;
                pick_dist = best_dist[v];
            }
        }
        if pick == usize::MAX {
            break;
        }
        in_tree[pick] = true;
        topo[placed] = pick as u32;
        placed += 1;
        let from = best_from[pick];
        parent[pick] = from;
        let len = pick_dist;
        edge_res[pick] = params.res_per_unit * len;
        let wire_cap = params.cap_per_unit * len;
        node_cap[from as usize] += wire_cap / 2.0;
        node_cap[pick] += wire_cap / 2.0;
        for v in 1..num_nodes {
            if !in_tree[v] {
                let d = manhattan(pick, v);
                if d < best_dist[v] {
                    best_dist[v] = d;
                    best_from[v] = pick as u32;
                }
            }
        }
    }
    debug_assert_eq!(placed, num_nodes, "disconnected MST (non-finite position?)");
}

/// Elmore solve over an already-built tree: for each tree edge `e`, the
/// delay contribution is `R_e × C_downstream(e)`; the delay to a sink is
/// the sum over edges on the root→sink path. Sink `i` is node `i + 1`
/// in both topologies, so `sink_delay` (length `n − 1`) comes straight
/// off the node delays. `downstream`/`delay` are scratch.
fn elmore_into(
    parent: &[u32],
    edge_res: &[f64],
    node_cap: &[f64],
    topo: &[u32],
    downstream: &mut Vec<f64>,
    delay: &mut Vec<f64>,
    sink_delay: &mut [f64],
) {
    let n = parent.len();
    // `topo` lists parents before children; iterating it in reverse is a
    // valid post-order for downstream-cap accumulation.
    downstream.clear();
    downstream.extend_from_slice(node_cap);
    for i in (1..n).rev() {
        let v = topo[i] as usize;
        let p = parent[v] as usize;
        downstream[p] += downstream[v];
    }
    delay.clear();
    delay.resize(n, 0.0);
    for &node in &topo[1..n] {
        let v = node as usize;
        let p = parent[v] as usize;
        delay[v] = delay[p] + edge_res[v] * downstream[v];
    }
    sink_delay.copy_from_slice(&delay[1..n.max(1)]);
}

/// Collects a net's pin positions in `net.pins` order into `out`.
fn collect_positions(
    design: &Design,
    placement: &Placement,
    net: NetId,
    out: &mut Vec<(f64, f64)>,
) {
    out.clear();
    for &p in &design.net(net).pins {
        out.push(placement.pin_position(design, p));
    }
}

/// Reusable per-worker buffers for one net's tree construction and Elmore
/// solve: pin positions, the Prim frontier and the two solve arrays. The
/// contents never influence results — every field is fully reinitialized
/// per net — so pooling them across refreshes is a pure allocation saver.
#[derive(Debug, Default)]
struct RcScratch {
    positions: Vec<(f64, f64)>,
    in_tree: Vec<bool>,
    best_dist: Vec<f64>,
    best_from: Vec<u32>,
    downstream: Vec<f64>,
    delay: Vec<f64>,
}

/// Every net's RC tree in flat SoA slabs with per-net CSR offsets.
///
/// Node 0 of a net's tree is its driver and node `i` its sink `i − 1`.
/// Each non-root node stores its parent, the resistance of the edge to
/// the parent, and its node capacitance (half the wire capacitance of
/// each incident segment plus the sink pin cap). The node count equals
/// the net's pin count for both topologies and never depends on the
/// placement, so the layout is computed once per design
/// ([`RcForest::new`]) and a refresh — [`RcForest::refresh`] — rewrites
/// the slabs in place: O(1) allocations per pass (scratch-pool misses
/// only). Per-net slab segments are disjoint, so the refresh
/// parallelizes with the same chunking as every other deterministic
/// kernel in the workspace; results are bit-identical for every thread
/// count.
#[derive(Debug)]
pub(crate) struct RcForest {
    /// CSR offsets into the node slabs, one entry per net plus a sentinel.
    node_start: Vec<u32>,
    /// CSR offsets into `sink_delay` (per net: nodes − 1 sinks).
    sink_start: Vec<u32>,
    /// Parent node per node, local to the net (root: `u32::MAX`).
    parent: Vec<u32>,
    /// Resistance of the edge to the parent, per node.
    edge_res: Vec<f64>,
    /// Node capacitance, per node.
    node_cap: Vec<f64>,
    /// Parents-before-children node order, local to the net.
    topo: Vec<u32>,
    /// Elmore delay per sink, in `net.sinks()` order per net.
    sink_delay: Vec<f64>,
    /// Total downstream capacitance per net.
    net_load: Vec<f64>,
    /// Reusable construction scratch, popped by refresh workers.
    pool: Mutex<Vec<RcScratch>>,
    /// Scratch buffers served from the pool (vs freshly allocated).
    scratch_reuses: AtomicU64,
}

impl Clone for RcForest {
    /// Clones the slabs; the scratch pool starts empty (it refills on the
    /// clone's first refresh) and the reuse counter restarts at zero.
    fn clone(&self) -> Self {
        Self {
            node_start: self.node_start.clone(),
            sink_start: self.sink_start.clone(),
            parent: self.parent.clone(),
            edge_res: self.edge_res.clone(),
            node_cap: self.node_cap.clone(),
            topo: self.topo.clone(),
            sink_delay: self.sink_delay.clone(),
            net_load: self.net_load.clone(),
            pool: Mutex::new(Vec::new()),
            scratch_reuses: AtomicU64::new(0),
        }
    }
}

impl RcForest {
    /// Lays out the slabs for `design`: one tree node per pin of every
    /// net. Cheap (no RC math happens here); the slabs hold zeros until
    /// the first [`RcForest::refresh`].
    pub fn new(design: &Design) -> Self {
        let num_nets = design.num_nets();
        let mut node_start = Vec::with_capacity(num_nets + 1);
        let mut sink_start = Vec::with_capacity(num_nets + 1);
        node_start.push(0u32);
        sink_start.push(0u32);
        let mut nodes = 0u32;
        let mut sinks = 0u32;
        for net in design.net_ids() {
            let pins = design.net(net).pins.len() as u32;
            nodes += pins;
            sinks += pins.saturating_sub(1);
            node_start.push(nodes);
            sink_start.push(sinks);
        }
        Self {
            node_start,
            sink_start,
            parent: vec![NO_PARENT; nodes as usize],
            edge_res: vec![0.0; nodes as usize],
            node_cap: vec![0.0; nodes as usize],
            topo: vec![0; nodes as usize],
            sink_delay: vec![0.0; sinks as usize],
            net_load: vec![0.0; num_nets],
            pool: Mutex::new(Vec::new()),
            scratch_reuses: AtomicU64::new(0),
        }
    }

    /// Rebuilds the trees of `nets` in place from `placement` and solves
    /// their Elmore delays, on up to `workers` threads. Nets not listed
    /// keep their previous slabs — the incremental path. Bit-identical
    /// for every worker count (disjoint per-net slab segments, no
    /// cross-net arithmetic).
    ///
    /// # Panics
    ///
    /// Panics unless `nets` is strictly ascending: a repeated net would
    /// hand one slab segment to two workers at once.
    pub fn refresh(
        &mut self,
        design: &Design,
        placement: &Placement,
        nets: &[NetId],
        params: &RcParams,
        skeleton: &RcSkeleton,
        workers: usize,
    ) {
        assert!(
            nets.windows(2).all(|w| w[0] < w[1]),
            "RcForest::refresh needs strictly ascending net ids"
        );
        let node_start = &self.node_start;
        let sink_start = &self.sink_start;
        let parent = UnsafeSlice::new(&mut self.parent);
        let edge_res = UnsafeSlice::new(&mut self.edge_res);
        let node_cap = UnsafeSlice::new(&mut self.node_cap);
        let topo = UnsafeSlice::new(&mut self.topo);
        let sink_delay = UnsafeSlice::new(&mut self.sink_delay);
        let net_load = UnsafeSlice::new(&mut self.net_load);
        let pool = &self.pool;
        let reuses = &self.scratch_reuses;
        parx::par_for_named(workers, nets.len(), 32, "sta.rc_refresh.kernel", |range| {
            let mut scratch = pool.lock().expect("rc scratch pool").pop();
            if scratch.is_some() {
                reuses.fetch_add(1, Ordering::Relaxed);
            }
            let mut scratch = scratch.take().unwrap_or_default();
            for i in range {
                let net = nets[i];
                let lo = node_start[net.index()] as usize;
                let n = node_start[net.index() + 1] as usize - lo;
                let slo = sink_start[net.index()] as usize;
                let n_sinks = sink_start[net.index() + 1] as usize - slo;
                // SAFETY: each net's CSR segment belongs to exactly one
                // chunk (`nets` is strictly ascending, asserted above),
                // and chunks never overlap — all writes are disjoint.
                let load = unsafe {
                    refresh_net_into(
                        design,
                        placement,
                        net,
                        params,
                        skeleton.sink_caps(net),
                        parent.slice_mut(lo, n),
                        edge_res.slice_mut(lo, n),
                        node_cap.slice_mut(lo, n),
                        topo.slice_mut(lo, n),
                        sink_delay.slice_mut(slo, n_sinks),
                        &mut scratch,
                    )
                };
                // SAFETY: net slot written by this chunk alone.
                unsafe { net_load.write(net.index(), load) };
            }
            pool.lock().expect("rc scratch pool").push(scratch);
        });
    }

    /// Total downstream capacitance of `net`, as of the last refresh that
    /// listed it.
    pub fn net_load(&self, net: NetId) -> f64 {
        self.net_load[net.index()]
    }

    /// Elmore delays of `net`'s sinks in `net.sinks()` order, as of the
    /// last refresh that listed it.
    pub fn sink_delays(&self, net: NetId) -> &[f64] {
        let lo = self.sink_start[net.index()] as usize;
        let hi = self.sink_start[net.index() + 1] as usize;
        &self.sink_delay[lo..hi]
    }

    /// Resident slab capacity in bytes (CSR offsets + node slabs + per-net
    /// results) — the arena's whole footprint, visible in reports so the
    /// allocation trade is observable.
    pub fn slab_bytes(&self) -> u64 {
        use std::mem::size_of;
        ((self.node_start.capacity() + self.sink_start.capacity()) * size_of::<u32>()
            + (self.parent.capacity() + self.topo.capacity()) * size_of::<u32>()
            + (self.edge_res.capacity()
                + self.node_cap.capacity()
                + self.sink_delay.capacity()
                + self.net_load.capacity())
                * size_of::<f64>()) as u64
    }

    /// Scratch buffers this forest served from its pool instead of
    /// allocating fresh.
    pub fn scratch_reuses(&self) -> u64 {
        self.scratch_reuses.load(Ordering::Relaxed)
    }
}

/// Rebuilds one net's tree into its slab segment and solves its Elmore
/// delays; returns the driver load.
#[allow(clippy::too_many_arguments)]
fn refresh_net_into(
    design: &Design,
    placement: &Placement,
    net: NetId,
    params: &RcParams,
    sink_caps: &[f64],
    parent: &mut [u32],
    edge_res: &mut [f64],
    node_cap: &mut [f64],
    topo: &mut [u32],
    sink_delay: &mut [f64],
    scratch: &mut RcScratch,
) -> f64 {
    collect_positions(design, placement, net, &mut scratch.positions);
    let positions = &scratch.positions[..];
    match params.topology {
        NetTopology::Star => star_into(
            positions, sink_caps, params, parent, edge_res, node_cap, topo,
        ),
        NetTopology::SteinerMst => {
            let n = positions.len();
            scratch.in_tree.clear();
            scratch.in_tree.resize(n, false);
            scratch.best_dist.clear();
            scratch.best_dist.resize(n, f64::INFINITY);
            scratch.best_from.clear();
            scratch.best_from.resize(n, 0);
            mst_into(
                positions,
                sink_caps,
                params,
                parent,
                edge_res,
                node_cap,
                topo,
                &mut scratch.in_tree,
                &mut scratch.best_dist,
                &mut scratch.best_from,
            );
        }
    }
    let load = node_cap.iter().sum();
    elmore_into(
        parent,
        edge_res,
        node_cap,
        topo,
        &mut scratch.downstream,
        &mut scratch.delay,
        sink_delay,
    );
    load
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{CellLibrary, DesignBuilder, Rect};

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

    /// A forest with every net of `d` refreshed once under `params`.
    fn refreshed(d: &Design, p: &Placement, params: &RcParams) -> RcForest {
        let all: Vec<NetId> = d.net_ids().collect();
        let mut forest = RcForest::new(d);
        forest.refresh(d, p, &all, params, &RcSkeleton::build(d), 1);
        forest
    }

    /// Wirelength of `net`'s tree: each segment adds `cap_per_unit ·
    /// length` to the driver load on top of the `sinks` pin caps.
    fn wirelength(
        forest: &RcForest,
        net: NetId,
        sinks: usize,
        sink_cap: f64,
        params: &RcParams,
    ) -> f64 {
        (forest.net_load(net) - sinks as f64 * sink_cap) / params.cap_per_unit
    }

    #[test]
    fn star_two_pin_elmore_matches_hand_formula() {
        let (d, p, net, sink_cap) = fanout_net(&[(100.0, 0.0)]);
        let params = RcParams::default();
        let forest = refreshed(&d, &p, &params);
        let delays = forest.sink_delays(net);
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
        assert!((forest.net_load(net) - (cw + sink_cap)).abs() < 1e-9);
    }

    #[test]
    fn elmore_delay_is_quadratic_in_distance() {
        let params = RcParams::default();
        let delay_at = |dist: f64| {
            let (d, p, net, _) = fanout_net(&[(dist, 0.0)]);
            refreshed(&d, &p, &params).sink_delays(net)[0]
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
        let f_star = refreshed(&d, &p, &star);
        let f_mst = refreshed(&d, &p, &mst);
        let wl_star = wirelength(&f_star, net, sinks.len(), cap, &star);
        let wl_mst = wirelength(&f_mst, net, sinks.len(), cap, &mst);
        assert!(wl_mst <= wl_star + 1e-9);
        // Clustered sinks make the MST strictly shorter.
        assert!(wl_mst < wl_star, "mst {wl_mst} vs star {wl_star}");
        assert_eq!(f_mst.sink_delays(net).len(), sinks.len());
    }

    #[test]
    fn mst_chain_has_increasing_delays() {
        // Three sinks in a line: the farther sink accumulates delay through
        // the nearer ones in the MST topology.
        let (d, p, net, cap) = fanout_net(&[(100.0, 0.0), (200.0, 0.0), (300.0, 0.0)]);
        let params = RcParams::default().with_topology(NetTopology::SteinerMst);
        let forest = refreshed(&d, &p, &params);
        let delays = forest.sink_delays(net);
        assert!(delays[0] < delays[1] && delays[1] < delays[2]);
        // Chain wirelength equals the span.
        assert!((wirelength(&forest, net, 3, cap, &params) - 300.0).abs() < 1e-9);
    }

    #[test]
    fn zero_length_net_has_zero_wire_delay() {
        let (d, p, net, sink_cap) = fanout_net(&[(0.0, 0.0)]);
        let forest = refreshed(&d, &p, &RcParams::default());
        assert_eq!(forest.sink_delays(net)[0], 0.0);
        assert!((forest.net_load(net) - sink_cap).abs() < 1e-12);
    }

    #[test]
    fn forest_refresh_reuses_pooled_scratch() {
        let (d, p, _, _) = fanout_net(&[(10.0, 0.0), (20.0, 5.0)]);
        let skeleton = RcSkeleton::build(&d);
        let all: Vec<NetId> = d.net_ids().collect();
        let params = RcParams::default();
        let mut forest = RcForest::new(&d);
        forest.refresh(&d, &p, &all, &params, &skeleton, 1);
        assert_eq!(forest.scratch_reuses(), 0, "first pass allocates");
        forest.refresh(&d, &p, &all, &params, &skeleton, 1);
        assert_eq!(forest.scratch_reuses(), 1, "second pass hits the pool");
        assert!(forest.slab_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn refresh_rejects_a_repeated_net() {
        let (d, p, net, _) = fanout_net(&[(10.0, 0.0), (20.0, 5.0)]);
        let mut forest = RcForest::new(&d);
        let params = RcParams::default();
        forest.refresh(&d, &p, &[net, net], &params, &RcSkeleton::build(&d), 2);
    }
}
