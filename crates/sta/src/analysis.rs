//! Arrival / required propagation, slack, WNS and TNS.
//!
//! [`Sta`] owns the static [`TimingGraph`] plus the placement-dependent
//! state: per-arc delays, per-pin arrival and required times, slacks, and
//! the worst-predecessor tree used by path backtracing. Call
//! [`Sta::analyze`] after every placement change of interest, or
//! [`Sta::analyze_incremental`] when only some cells moved.
//!
//! All of that state is stored in the graph's **rank layout** (see
//! [`TimingGraph`]): arrival, required and the worst predecessor are
//! indexed by rank, arc delays by slot, so propagating forward is one walk
//! `0..num_pins` over contiguous memory and propagating backward is the
//! same walk reversed. The [`PinId`] / [`ArcId`] accessors translate.
//!
//! Both propagation passes are **pull kernels**: every pin computes its
//! own arrival (required) from its incoming (outgoing) arcs, so a pin's
//! value is a pure function of lower (higher) ranks. Two drivers run that
//! one per-pin computation:
//!
//! * the **flat pass** evaluates every pin, level by level, all pins of a
//!   level concurrently — bit-identical for every thread count, so
//!   [`Sta::set_threads`] is a pure speed knob, never a semantics knob;
//! * the **dirty sweep** (incremental re-analysis of local churn)
//!   evaluates only the pins whose bit is set in a rank-indexed bitset,
//!   lowest rank first, setting the successors' bits whenever a value
//!   changes by even one bit — the same values a flat pass would
//!   compute, for the cost of the cone that actually moved.

use crate::graph::{ArcId, BuildGraphError, EndpointKind, SourceKind, TimingGraph, NO_ARC};
use crate::rctree::{RcForest, RcOpStats, RcParams, RcSkeleton};
use netlist::{Design, NetId, PinId, Placement};
use parx::UnsafeSlice;
use std::sync::{Arc, Barrier};

/// Slack at one timing endpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndpointSlack {
    /// The endpoint pin (flip-flop D or primary-output pad).
    pub pin: PinId,
    /// Setup slack: required − arrival. Negative means a violation.
    pub slack: f64,
}

/// Design-level timing metrics after an analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingSummary {
    /// Worst negative slack: `min(0, min over endpoints of slack)`.
    pub wns: f64,
    /// Total negative slack: sum of negative endpoint slacks.
    pub tns: f64,
    /// Number of endpoints with negative slack.
    pub failing_endpoints: usize,
    /// Number of evaluated endpoints.
    pub total_endpoints: usize,
}

/// What [`Sta::analyze_incremental`] has done on one analyzer so far.
///
/// Every field is a pure function of the call sequence (designs,
/// placements, moved cells): the counts **repeat exactly** for a given
/// input, for every thread count and on every machine, so they can carry
/// a claim that wall-clock noise would drown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrStats {
    /// Propagation passes (arrival and required count separately) run as
    /// a dirty sweep.
    pub sweeps: u64,
    /// Propagation passes run as a flat pass over every pin: both passes
    /// of a near-total dirty set, or the required pass after a clock
    /// retarget.
    pub flat_passes: u64,
    /// Pins the sweeps re-evaluated (a flat pass evaluates every pin and
    /// is not counted here).
    pub pins_evaluated: u64,
    /// Re-evaluated pins whose value changed, i.e. whose neighbours were
    /// marked in turn.
    pub pins_changed: u64,
}

impl IncrStats {
    fn add(&mut self, other: Self) {
        self.sweeps += other.sweeps;
        self.flat_passes += other.flat_passes;
        self.pins_evaluated += other.pins_evaluated;
        self.pins_changed += other.pins_changed;
    }

    /// Counts accumulated since an `earlier` reading of the same analyzer.
    #[must_use]
    pub fn since(self, earlier: Self) -> Self {
        Self {
            sweeps: self.sweeps - earlier.sweeps,
            flat_passes: self.flat_passes - earlier.flat_passes,
            pins_evaluated: self.pins_evaluated - earlier.pins_evaluated,
            pins_changed: self.pins_changed - earlier.pins_changed,
        }
    }
}

/// A saved copy of an analyzer's placement-dependent state.
///
/// Produced by [`Sta::checkpoint`] and consumed by [`Sta::restore`]; the
/// timing graph and RC skeleton are shared behind [`Arc`]s and are not
/// part of the checkpoint.
#[derive(Debug, Clone)]
pub struct StaCheckpoint {
    arc_delay: Vec<f64>,
    net_load: Vec<f64>,
    arrival: Vec<f64>,
    required: Vec<f64>,
    worst_pred: Vec<u32>,
    endpoint_slacks: Vec<EndpointSlack>,
    seeded_period: f64,
    analyzed: bool,
}

/// The static timing analyzer.
///
/// See the [crate-level example](crate) for typical usage.
#[derive(Debug, Clone)]
pub struct Sta {
    /// The static timing graph, shared (not rebuilt) between analyzers
    /// created through [`Sta::from_parts`].
    graph: Arc<TimingGraph>,
    /// Placement-independent RC data, shared the same way.
    skeleton: Arc<RcSkeleton>,
    /// Slab-backed RC trees, refreshed in place — pure scratch whose
    /// results land in `arc_delay`/`net_load` (so checkpoints don't
    /// carry it).
    forest: RcForest,
    /// Every net id, cached so a full refresh doesn't re-collect it.
    all_nets: Vec<NetId>,
    params: RcParams,
    /// Delay per arc, indexed by the graph's slot.
    arc_delay: Vec<f64>,
    /// Cached total downstream capacitance per net.
    net_load: Vec<f64>,
    /// Arrival / required time per pin, indexed by rank.
    arrival: Vec<f64>,
    required: Vec<f64>,
    /// Slot of the worst (latest-arrival) incoming arc per rank, or
    /// [`NO_ARC`]; the tree path backtracing walks.
    worst_pred: Vec<u32>,
    endpoint_slacks: Vec<EndpointSlack>,
    /// Clock period the last required-time pass was seeded with. Every
    /// endpoint seed depends on it, so a retarget forces a flat backward
    /// pass (`NaN` until the first analysis).
    seeded_period: f64,
    /// Scratch of the incremental re-analysis, retained across calls so a
    /// steady-state update allocates nothing: the sorted dirty-net list
    /// and one bit per rank for the sweep.
    pub(crate) dirty_nets: Vec<NetId>,
    dirty_bits: Vec<u64>,
    incr_stats: IncrStats,
    analyzed: bool,
    /// Worker count for RC refresh and propagation (0 = auto). Results
    /// are bit-identical for every value; see the module docs.
    threads: usize,
    /// RC refresh passes this analyzer has run (see [`Sta::rc_stats`]).
    rc_refreshes: u64,
    /// Nets refreshed across all passes.
    rc_nets_refreshed: u64,
}

/// Below this pin count the barrier overhead of parallel propagation
/// outweighs the work; the kernels fall back to one thread.
const PARALLEL_PIN_THRESHOLD: usize = 2048;

/// Minimum average pins-per-level for parallel propagation: a deep,
/// narrow graph (e.g. a long chain) pays one barrier per level for a
/// handful of pins of work, so it runs serially no matter how many pins
/// it has in total.
const PARALLEL_MIN_AVG_LEVEL_WIDTH: usize = 16;

/// Below this many refreshed nets, RC-tree reconstruction runs serially.
const PARALLEL_NET_THRESHOLD: usize = 256;

/// The forward kernel's per-pin computation: the SDC seed of the pin at
/// rank `r`, then the max over its incoming arcs of
/// `arrival(from) + delay(arc)`, with the slot that achieved it. In-arcs
/// are visited in slot (= arc id) order and only a strictly later
/// candidate replaces the best, so ties always pick the same arc.
#[inline(always)]
fn pull_arrival(
    graph: &TimingGraph,
    design: &Design,
    delays: &[f64],
    r: usize,
    arrival: impl Fn(usize) -> f64,
) -> (f64, u32) {
    let mut best = match graph.source_kind(r) {
        None => f64::NEG_INFINITY,
        Some(SourceKind::ClockPin) => 0.0,
        Some(SourceKind::PrimaryInput) => design.sdc().arrival_at(design.pin(graph.pin_at(r)).cell),
    };
    let mut best_slot = NO_ARC;
    let slots = graph.in_slots(r);
    let first = slots.start;
    for (i, (&from, &delay)) in graph.arc_from[slots.clone()]
        .iter()
        .zip(&delays[slots])
        .enumerate()
    {
        let cand = arrival(from as usize) + delay;
        if cand > best {
            best = cand;
            best_slot = (first + i) as u32;
        }
    }
    (best, best_slot)
}

/// The backward kernel's per-pin computation, mirror image of
/// [`pull_arrival`]: the SDC seed, then the min over outgoing arcs of
/// `required(to) − delay(arc)`.
#[inline(always)]
fn pull_required(
    graph: &TimingGraph,
    design: &Design,
    delays: &[f64],
    r: usize,
    required: impl Fn(usize) -> f64,
) -> f64 {
    let mut best = match graph.endpoint_kind(r) {
        None => f64::INFINITY,
        Some(EndpointKind::FlipFlopData) => design.sdc().clock_period,
        Some(EndpointKind::PrimaryOutput) => design
            .sdc()
            .required_at_output(design.pin(graph.pin_at(r)).cell),
    };
    let entries = graph.out_entries(r);
    for (&to, &slot) in graph.out_to[entries.clone()]
        .iter()
        .zip(&graph.out_slot[entries])
    {
        let cand = required(to as usize) - delays[slot as usize];
        if cand < best {
            best = cand;
        }
    }
    best
}

#[inline(always)]
fn set_bit(bits: &mut [u64], rank: u32) {
    bits[(rank / 64) as usize] |= 1 << (rank % 64);
}

impl Sta {
    /// Builds an analyzer for `design` with the given wire parasitics.
    ///
    /// # Errors
    ///
    /// Returns [`BuildGraphError`] if the design's combinational logic is
    /// cyclic.
    pub fn new(design: &Design, params: RcParams) -> Result<Self, BuildGraphError> {
        let (graph, skeleton) = Self::build_parts(design)?;
        Ok(Self::from_parts(graph, skeleton, design, params))
    }

    /// Builds the placement-independent half of an analyzer: the timing
    /// graph and the RC skeleton, ready to share across analyzers through
    /// [`Sta::from_parts`]. [`Sta::new`] and every session build start
    /// here, so [`graph_build_count`](crate::graph_build_count) counts
    /// each pair once.
    ///
    /// # Errors
    ///
    /// Returns [`BuildGraphError`] if the design's combinational logic is
    /// cyclic.
    pub fn build_parts(
        design: &Design,
    ) -> Result<(Arc<TimingGraph>, Arc<RcSkeleton>), BuildGraphError> {
        let graph = Arc::new(TimingGraph::build(design)?);
        Ok((graph, Arc::new(RcSkeleton::build(design))))
    }

    /// Builds an analyzer around an already-constructed timing graph and
    /// RC skeleton (see [`Sta::build_parts`]) — the checkpoint/rollback
    /// entry point for session-style reuse. Unlike [`Sta::new`] this
    /// performs **no graph or skeleton construction** (and cannot fail):
    /// the analyzer starts from pristine, never-analyzed state, so
    /// analyzers created this way are bitwise equivalent to a freshly
    /// built one with the same `params`.
    pub fn from_parts(
        graph: Arc<TimingGraph>,
        skeleton: Arc<RcSkeleton>,
        design: &Design,
        params: RcParams,
    ) -> Self {
        let num_pins = graph.num_pins();
        let mut sta = Self {
            forest: RcForest::new(design),
            all_nets: design.net_ids().collect(),
            params,
            arc_delay: vec![0.0; graph.num_arcs()],
            net_load: vec![0.0; design.num_nets()],
            arrival: vec![f64::NEG_INFINITY; num_pins],
            required: vec![f64::INFINITY; num_pins],
            worst_pred: vec![NO_ARC; num_pins],
            endpoint_slacks: Vec::new(),
            seeded_period: f64::NAN,
            dirty_nets: Vec::new(),
            dirty_bits: vec![0; num_pins.div_ceil(64)],
            incr_stats: IncrStats::default(),
            analyzed: false,
            threads: 1,
            rc_refreshes: 0,
            rc_nets_refreshed: 0,
            graph,
            skeleton,
        };
        for arc in 0..sta.graph.num_cell_arcs() {
            sta.seed_unconnected_gate_arc(design, ArcId::new(arc));
        }
        sta
    }

    /// A gate arc driving an unconnected output never changes with the
    /// placement: its delay is the intrinsic component alone, and no
    /// per-net refresh ever visits it, so it is written here — at
    /// construction and again when a resize patches the arc.
    fn seed_unconnected_gate_arc(&mut self, design: &Design, arc: ArcId) {
        let slot = self.graph.slot_of(arc);
        let to = self.graph.pin_at(self.graph.arc_to[slot] as usize);
        if design.pin(to).net.is_none() {
            self.arc_delay[slot] = self.graph.intrinsic[arc.index()];
        }
    }

    /// The underlying timing graph.
    pub fn graph(&self) -> &TimingGraph {
        &self.graph
    }

    /// Shared handle to the timing graph, for building further analyzers
    /// via [`Sta::from_parts`] without reconstruction.
    pub fn graph_handle(&self) -> Arc<TimingGraph> {
        Arc::clone(&self.graph)
    }

    /// Shared handle to the placement-independent RC data.
    pub fn skeleton_handle(&self) -> Arc<RcSkeleton> {
        Arc::clone(&self.skeleton)
    }

    /// Captures the complete analysis state (arc delays, loads, arrivals,
    /// requireds, slacks) so a later [`Sta::restore`] can roll the
    /// analyzer back — e.g. to its pristine post-construction state
    /// between session runs. The graph and skeleton are shared, not
    /// copied.
    pub fn checkpoint(&self) -> StaCheckpoint {
        StaCheckpoint {
            arc_delay: self.arc_delay.clone(),
            net_load: self.net_load.clone(),
            arrival: self.arrival.clone(),
            required: self.required.clone(),
            worst_pred: self.worst_pred.clone(),
            endpoint_slacks: self.endpoint_slacks.clone(),
            seeded_period: self.seeded_period,
            analyzed: self.analyzed,
        }
    }

    /// Rolls the analysis state back to `checkpoint`, taken earlier from
    /// this analyzer (or one sharing the same graph, whose rank layout
    /// the saved arrays are in). Reuses the existing allocations.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint's dimensions do not match this analyzer's
    /// graph.
    pub fn restore(&mut self, checkpoint: &StaCheckpoint) {
        assert!(
            checkpoint.arc_delay.len() == self.arc_delay.len()
                && checkpoint.arrival.len() == self.arrival.len()
                && checkpoint.net_load.len() == self.net_load.len(),
            "checkpoint belongs to a different timing graph"
        );
        self.arc_delay.clone_from(&checkpoint.arc_delay);
        self.net_load.clone_from(&checkpoint.net_load);
        self.arrival.clone_from(&checkpoint.arrival);
        self.required.clone_from(&checkpoint.required);
        self.worst_pred.clone_from(&checkpoint.worst_pred);
        self.endpoint_slacks.clone_from(&checkpoint.endpoint_slacks);
        self.seeded_period = checkpoint.seeded_period;
        self.analyzed = checkpoint.analyzed;
    }

    /// The wire parasitics in use.
    pub fn params(&self) -> RcParams {
        self.params
    }

    /// Sets the worker count for RC refresh and propagation. `0` means
    /// "use the machine"; `1` (the default) runs serially. Any value
    /// produces bit-identical results.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads;
    }

    /// Builder-style [`Sta::set_threads`].
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The configured worker knob (0 = auto).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs a full setup-timing analysis against `placement`.
    ///
    /// Recomputes every net's RC tree, every arc delay, and both
    /// propagation passes. Deterministic for identical inputs and for
    /// any thread count.
    pub fn analyze(&mut self, design: &Design, placement: &Placement) {
        let _span = tdp_trace::span("sta.full", "sta");
        self.refresh_rc(design, placement);
        self.repropagate(design);
    }

    /// Refreshes every net's RC tree and arc delays from `placement`
    /// **without** rerunning the propagation passes — the RC half of a
    /// full [`Sta::analyze`], exposed on its own so `tdp-perf` can time
    /// the refresh kernel in isolation.
    pub fn refresh_rc(&mut self, design: &Design, placement: &Placement) {
        let all = std::mem::take(&mut self.all_nets);
        self.refresh_nets(design, placement, &all);
        self.all_nets = all;
    }

    /// Recomputes the RC trees, wire-arc delays, load cache and dependent
    /// gate-arc delays for the given nets (strictly ascending; the forest
    /// asserts it).
    ///
    /// The trees are rebuilt **in place** inside the slab-backed
    /// [`RcForest`] — each net owns a disjoint CSR segment, so the
    /// expensive construction and Elmore solve run in parallel with zero
    /// per-net allocations. The cheap application onto the shared
    /// arc-delay table then runs serially in `nets` order, keeping the
    /// state update deterministic for any thread count.
    pub(crate) fn refresh_nets(&mut self, design: &Design, placement: &Placement, nets: &[NetId]) {
        let _span = tdp_trace::span("sta.rc_refresh", "sta");
        let params = self.params;
        let workers = self.refresh_workers(nets.len());
        self.rc_refreshes += 1;
        self.rc_nets_refreshed += nets.len() as u64;
        self.forest
            .refresh(design, placement, nets, &params, &self.skeleton, workers);
        let graph = &*self.graph;
        for &net in nets {
            let load = self.forest.net_load(net);
            self.net_load[net.index()] = load;
            // Wire arcs of this net.
            for (&slot, &delay) in graph
                .net_arc_slots(net)
                .iter()
                .zip(self.forest.sink_delays(net))
            {
                self.arc_delay[slot as usize] = delay;
            }
            // The gate arc(s) driving this net see a new load.
            let driver = graph.rank_of(design.net(net).driver());
            for slot in graph.in_slots(driver) {
                let arc = graph.arc_id[slot] as usize;
                if arc < graph.num_cell_arcs() {
                    self.arc_delay[slot] =
                        graph.intrinsic[arc] + graph.drive_resistance[arc] * load;
                }
            }
        }
    }

    /// Absorbs an ECO resize of `cell` into this analyzer, after the
    /// caller retyped it with [`netlist::Design::set_cell_type`].
    ///
    /// Patches the gate-arc parameters in the timing graph and the sink
    /// capacitances in the RC skeleton to the new master's values, and
    /// re-seeds the constant delay of patched arcs that drive unconnected
    /// outputs (the one arc class the per-net refresh never revisits,
    /// mirroring [`Sta::from_parts`]). Both shared structures are updated
    /// copy-on-write ([`Arc::make_mut`]), so sibling analyzers sharing
    /// the handles — e.g. the cached session the ECO session wraps — keep
    /// seeing the original design, and no build counter moves. The copy
    /// keeps the rank layout, so this analyzer's rank- and slot-indexed
    /// state (and any checkpoint of it) stays valid.
    ///
    /// The patch alone does not recompute any delay that depends on a
    /// net: follow up with [`Sta::analyze_incremental`] passing `cell` as
    /// moved, which refreshes every incident net (the ones whose load or
    /// drive changed) and repropagates — bitwise identical to a
    /// from-scratch analyzer built on the retyped design.
    pub fn apply_resize(&mut self, design: &Design, cell: netlist::CellId) {
        let patched = Arc::make_mut(&mut self.graph).repatch_cell_arcs(design, cell);
        Arc::make_mut(&mut self.skeleton).repatch_cell_caps(design, cell);
        for arc in patched {
            self.seed_unconnected_gate_arc(design, arc);
        }
    }

    /// Allocation/op counters for this analyzer's RC work: refresh passes,
    /// nets refreshed, scratch-pool hits and resident slab bytes.
    pub fn rc_stats(&self) -> RcOpStats {
        RcOpStats {
            refreshes: self.rc_refreshes,
            nets_refreshed: self.rc_nets_refreshed,
            scratch_reuses: self.forest.scratch_reuses(),
            slab_bytes: self.forest.slab_bytes(),
        }
    }

    /// What the incremental re-analyses of this analyzer have done so
    /// far: which strategy each propagation pass took and how many pins
    /// the sweeps touched. See [`IncrStats`] — the counts repeat exactly.
    pub fn incr_stats(&self) -> IncrStats {
        self.incr_stats
    }

    /// Reruns both propagation passes and the endpoint-slack collection
    /// against the current arc delays.
    pub(crate) fn repropagate(&mut self, design: &Design) {
        self.propagate_arrival(design);
        self.propagate_required(design);
        self.collect_endpoint_slacks();
        self.analyzed = true;
    }

    /// The propagation half of [`Sta::analyze_incremental`], after
    /// [`Sta::refresh_nets`] rewrote the arcs of `self.dirty_nets` (and
    /// [`Sta::apply_resize`] possibly patched arcs of `moved_cells`).
    ///
    /// A near-total dirty set — the placer displaces most cells every
    /// iteration — reruns the flat passes, which spread over the worker
    /// threads. Local churn runs the dirty sweeps: only the pins
    /// downstream (arrival) and upstream (required) of a rewritten arc
    /// are re-evaluated, in rank order, each with exactly the flat
    /// kernel's per-pin computation against neighbour state the flat pass
    /// would also see — so both strategies leave the same bits. A sweep
    /// visits each pin at most once and in memory order, so even a cone
    /// that turns out to cover the whole graph costs about one serial
    /// flat pass; there is no budget to trip and nothing to fall back to.
    /// Only a changed clock period forces the flat backward pass: every
    /// endpoint seed depends on it.
    pub(crate) fn repropagate_incremental(
        &mut self,
        design: &Design,
        moved_cells: &[netlist::CellId],
    ) {
        let mut stats = IncrStats::default();
        if self.dirty_nets.len() * 4 >= design.num_nets().max(1) {
            self.propagate_arrival(design);
            self.propagate_required(design);
            stats.flat_passes = 2;
        } else {
            self.seed_sweep(design, moved_cells, false);
            self.sweep_arrival(design, &mut stats);
            if design.sdc().clock_period.to_bits() != self.seeded_period.to_bits() {
                self.propagate_required(design);
                stats.flat_passes = 1;
            } else {
                self.seed_sweep(design, moved_cells, true);
                self.sweep_required(design, &mut stats);
            }
        }
        self.collect_endpoint_slacks();
        self.analyzed = true;
        self.incr_stats.add(stats);
        if tdp_trace::enabled() {
            tdp_trace::count("sta.incremental.sweeps", "sta", stats.sweeps);
            tdp_trace::count("sta.incremental.flat_passes", "sta", stats.flat_passes);
            tdp_trace::count(
                "sta.incremental.pins_evaluated",
                "sta",
                stats.pins_evaluated,
            );
            tdp_trace::count("sta.incremental.pins_changed", "sta", stats.pins_changed);
        }
    }

    /// Sets the sweep bit of every pin adjacent to an arc the refresh may
    /// have rewritten — wire arcs of dirty nets, gate arcs into their
    /// drivers (load changed), and every arc into a pin of the
    /// moved/resized cells (intrinsic or drive changed): the arc's
    /// destination for the forward sweep, its source when `rev`.
    fn seed_sweep(&mut self, design: &Design, moved_cells: &[netlist::CellId], rev: bool) {
        let graph = &*self.graph;
        let bits = &mut self.dirty_bits[..];
        let seed_in_arcs = |bits: &mut [u64], rank: usize| {
            let slots = graph.in_slots(rank);
            if rev {
                for &from in &graph.arc_from[slots] {
                    set_bit(bits, from);
                }
            } else if !slots.is_empty() {
                set_bit(bits, rank as u32);
            }
        };
        for &net in &self.dirty_nets {
            let driver = graph.rank_of(design.net(net).driver());
            seed_in_arcs(bits, driver);
            let entries = graph.out_entries(driver);
            if !rev {
                for &to in &graph.out_to[entries] {
                    set_bit(bits, to);
                }
            } else if !entries.is_empty() {
                set_bit(bits, driver as u32);
            }
        }
        for &cell in moved_cells {
            for &pin in &design.cell(cell).pins {
                seed_in_arcs(bits, graph.rank_of(pin));
            }
        }
    }

    /// Forward dirty sweep: evaluates the set ranks in ascending order.
    /// A changed pin only ever sets bits of higher ranks, so re-reading
    /// the current word picks up successors that share it.
    fn sweep_arrival(&mut self, design: &Design, stats: &mut IncrStats) {
        let graph = &*self.graph;
        stats.sweeps += 1;
        for w in 0..self.dirty_bits.len() {
            while self.dirty_bits[w] != 0 {
                let word = self.dirty_bits[w];
                self.dirty_bits[w] = word & (word - 1);
                let r = w * 64 + word.trailing_zeros() as usize;
                let (best, slot) =
                    pull_arrival(graph, design, &self.arc_delay, r, |i| self.arrival[i]);
                let changed = best.to_bits() != self.arrival[r].to_bits();
                self.arrival[r] = best;
                self.worst_pred[r] = slot;
                stats.pins_evaluated += 1;
                if changed {
                    stats.pins_changed += 1;
                    for &to in &graph.out_to[graph.out_entries(r)] {
                        set_bit(&mut self.dirty_bits, to);
                    }
                }
            }
        }
    }

    /// Backward dirty sweep: the set ranks in descending order, marking
    /// the (lower-ranked) sources of a changed pin's incoming arcs.
    fn sweep_required(&mut self, design: &Design, stats: &mut IncrStats) {
        let graph = &*self.graph;
        stats.sweeps += 1;
        for w in (0..self.dirty_bits.len()).rev() {
            while self.dirty_bits[w] != 0 {
                let word = self.dirty_bits[w];
                let bit = 63 - word.leading_zeros() as usize;
                self.dirty_bits[w] = word & !(1 << bit);
                let r = w * 64 + bit;
                let best = pull_required(graph, design, &self.arc_delay, r, |i| self.required[i]);
                let changed = best.to_bits() != self.required[r].to_bits();
                self.required[r] = best;
                stats.pins_evaluated += 1;
                if changed {
                    stats.pins_changed += 1;
                    for &from in &graph.arc_from[graph.in_slots(r)] {
                        set_bit(&mut self.dirty_bits, from);
                    }
                }
            }
        }
    }

    /// Total downstream capacitance the driver of `net` sees, as of the
    /// last (full or incremental) analysis.
    pub fn net_load(&self, net: netlist::NetId) -> f64 {
        self.net_load[net.index()]
    }

    /// Worker count actually used for the propagation passes.
    fn propagation_workers(&self) -> usize {
        let pins = self.graph.num_pins();
        if pins < PARALLEL_PIN_THRESHOLD
            || pins / self.graph.num_levels().max(1) < PARALLEL_MIN_AVG_LEVEL_WIDTH
        {
            1
        } else {
            parx::resolve_threads(self.threads)
        }
    }

    /// Worker count actually used for an RC refresh over `num_nets` nets.
    pub(crate) fn refresh_workers(&self, num_nets: usize) -> usize {
        if num_nets < PARALLEL_NET_THRESHOLD {
            1
        } else {
            parx::resolve_threads(self.threads)
        }
    }

    /// Flat forward pass: [`pull_arrival`] for every pin. Pins within a
    /// topological level only read lower-level state, so a level's pins
    /// update concurrently; `max` over the same operands is exact in
    /// floating point, making the result independent of the worker
    /// count.
    fn propagate_arrival(&mut self, design: &Design) {
        let _span = tdp_trace::span("sta.arrival", "sta");
        let workers = self.propagation_workers();
        let graph = &*self.graph;
        let delays = &self.arc_delay;
        let arrival = UnsafeSlice::new(&mut self.arrival);
        let pred = UnsafeSlice::new(&mut self.worst_pred);
        run_levels(workers, graph, false, |r| {
            // SAFETY: rank `r` belongs to the current level and is
            // written only by this closure invocation; predecessors are
            // in lower levels, finalized before the level barrier.
            let (best, slot) =
                pull_arrival(graph, design, delays, r, |i| unsafe { arrival.read(i) });
            unsafe {
                arrival.write(r, best);
                pred.write(r, slot);
            }
        });
    }

    /// Flat backward pass: [`pull_required`] for every pin, levels in
    /// descending order; the same determinism argument as
    /// [`Sta::propagate_arrival`] applies.
    fn propagate_required(&mut self, design: &Design) {
        let _span = tdp_trace::span("sta.required", "sta");
        self.seeded_period = design.sdc().clock_period;
        let workers = self.propagation_workers();
        let graph = &*self.graph;
        let delays = &self.arc_delay;
        let required = UnsafeSlice::new(&mut self.required);
        run_levels(workers, graph, true, |r| {
            // SAFETY: mirror image of the forward pass — successors live
            // in higher levels, finalized before this one runs.
            let best = pull_required(graph, design, delays, r, |i| unsafe { required.read(i) });
            unsafe { required.write(r, best) };
        });
    }

    fn collect_endpoint_slacks(&mut self) {
        self.endpoint_slacks.clear();
        for &(pin, _) in self.graph.endpoints() {
            let slack = self.slack(pin);
            if let Some(slack) = slack {
                self.endpoint_slacks.push(EndpointSlack { pin, slack });
            }
        }
        // Stable: endpoints of equal slack keep their design order, which
        // every consumer's result bits depend on.
        self.endpoint_slacks
            .sort_by(|a, b| a.slack.partial_cmp(&b.slack).expect("finite slacks"));
    }

    /// Whether [`Sta::analyze`] has run at least once.
    pub fn is_analyzed(&self) -> bool {
        self.analyzed
    }

    /// Arrival time at a pin, if it is reachable from a source.
    pub fn arrival(&self, pin: PinId) -> Option<f64> {
        self.arrival_at_rank(self.graph.rank_of(pin))
    }

    /// [`Sta::arrival`] by rank.
    #[inline]
    pub(crate) fn arrival_at_rank(&self, rank: usize) -> Option<f64> {
        let a = self.arrival[rank];
        (a != f64::NEG_INFINITY).then_some(a)
    }

    /// Required time at a pin, if it reaches an endpoint.
    pub fn required(&self, pin: PinId) -> Option<f64> {
        let r = self.required[self.graph.rank_of(pin)];
        (r != f64::INFINITY).then_some(r)
    }

    /// Setup slack at a pin (`required − arrival`), if both are defined.
    pub fn slack(&self, pin: PinId) -> Option<f64> {
        match (self.arrival(pin), self.required(pin)) {
            (Some(a), Some(r)) => Some(r - a),
            _ => None,
        }
    }

    /// Delay currently assigned to an arc.
    pub fn arc_delay(&self, arc: ArcId) -> f64 {
        self.arc_delay[self.graph.slot_of(arc)]
    }

    /// Delay of the arc in `slot`.
    #[inline]
    pub(crate) fn slot_delay(&self, slot: u32) -> f64 {
        self.arc_delay[slot as usize]
    }

    /// The worst (latest) incoming arc of a pin, if any.
    pub fn worst_pred(&self, pin: PinId) -> Option<ArcId> {
        let slot = self.worst_pred[self.graph.rank_of(pin)];
        (slot != NO_ARC).then(|| self.graph.arc_at(slot))
    }

    /// Slot of the worst incoming arc of the pin at `rank`, or [`NO_ARC`].
    #[inline]
    pub(crate) fn worst_pred_slot(&self, rank: usize) -> u32 {
        self.worst_pred[rank]
    }

    /// Endpoint slacks sorted ascending (most critical first).
    pub fn endpoint_slacks(&self) -> &[EndpointSlack] {
        &self.endpoint_slacks
    }

    /// Endpoints with negative slack, most critical first.
    pub fn failing_endpoints(&self) -> &[EndpointSlack] {
        let cut = self.endpoint_slacks.partition_point(|e| e.slack < 0.0);
        &self.endpoint_slacks[..cut]
    }

    /// WNS / TNS summary of the last analysis.
    ///
    /// Matches the paper's Eq. 3–4: only violated endpoints contribute; an
    /// all-passing design reports zeros.
    pub fn summary(&self) -> TimingSummary {
        let failing = self.failing_endpoints();
        TimingSummary {
            wns: failing.first().map_or(0.0, |e| e.slack),
            tns: failing.iter().map(|e| e.slack).sum(),
            failing_endpoints: failing.len(),
            total_endpoints: self.endpoint_slacks.len(),
        }
    }
}

/// Executes `kernel` for every rank, one topological level at a time
/// (descending when `rev`), with all pins of a level processed
/// concurrently across `workers` threads.
///
/// Each worker takes a contiguous, statically computed slice of the
/// level's ranks; a barrier separates levels. With one worker the loop
/// runs inline over the whole rank order — same pins, same per-pin
/// computation, so the serial and parallel paths are the same algorithm
/// by construction.
///
/// A panic inside `kernel` is caught on whichever worker hit it, every
/// worker exits at the next barrier, and the payload is rethrown on the
/// caller's thread — without the catch, the surviving workers would
/// block forever on the non-poisoning [`Barrier`] and the process would
/// hang instead of crashing with the panic message.
fn run_levels<F>(workers: usize, graph: &TimingGraph, rev: bool, kernel: F)
where
    F: Fn(usize) + Sync,
{
    let num_levels = graph.num_levels();
    if workers <= 1 {
        if rev {
            (0..graph.num_pins()).rev().for_each(kernel);
        } else {
            (0..graph.num_pins()).for_each(kernel);
        }
        return;
    }
    let barrier = Barrier::new(workers);
    let panicked = std::sync::atomic::AtomicBool::new(false);
    let payload: std::sync::Mutex<Option<Box<dyn std::any::Any + Send>>> =
        std::sync::Mutex::new(None);
    let worker = |tid: usize| {
        for l in 0..num_levels {
            let l = if rev { num_levels - 1 - l } else { l };
            let ranks = graph.level_ranks(l);
            let per = ranks.len().div_ceil(workers);
            let lo = (ranks.start + tid * per).min(ranks.end);
            let hi = (lo + per).min(ranks.end);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                (lo..hi).for_each(&kernel);
            }));
            if let Err(p) = result {
                panicked.store(true, std::sync::atomic::Ordering::Release);
                payload.lock().unwrap().get_or_insert(p);
            }
            barrier.wait();
            if panicked.load(std::sync::atomic::Ordering::Acquire) {
                return;
            }
        }
    };
    std::thread::scope(|s| {
        for tid in 1..workers {
            let worker = &worker;
            s.spawn(move || worker(tid));
        }
        worker(0);
    });
    let caught = payload.lock().unwrap().take();
    if let Some(p) = caught {
        std::panic::resume_unwind(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{CellLibrary, DesignBuilder, Rect, Sdc};

    /// pi -> inv -> po straight line, pins spread over `span` units.
    fn line_design(span: f64, period: f64) -> (Design, Placement) {
        let mut b = DesignBuilder::new(
            "t",
            CellLibrary::standard(),
            Rect::new(0.0, 0.0, span.max(100.0), 100.0),
            10.0,
        );
        b.set_sdc(Sdc::new(period));
        let pi = b.add_fixed_cell("pi", "IOPAD_IN", 0.0, 50.0).unwrap();
        let inv = b.add_cell("inv", "INV_X1").unwrap();
        let po = b
            .add_fixed_cell("po", "IOPAD_OUT", span.max(100.0) - 4.0, 50.0)
            .unwrap();
        b.add_net("n0", &[(pi, "PAD"), (inv, "A")]).unwrap();
        b.add_net("n1", &[(inv, "Y"), (po, "PAD")]).unwrap();
        let d = b.finish().unwrap();
        let mut p = Placement::new(&d);
        p.set(d.find_cell("pi").unwrap(), 0.0, 50.0);
        p.set(d.find_cell("inv").unwrap(), span / 2.0, 50.0);
        p.set(d.find_cell("po").unwrap(), span.max(100.0) - 4.0, 50.0);
        (d, p)
    }

    #[test]
    fn slack_is_required_minus_arrival_everywhere() {
        let (d, p) = line_design(400.0, 100.0);
        let mut sta = Sta::new(&d, RcParams::default()).unwrap();
        sta.analyze(&d, &p);
        for pin in d.pin_ids() {
            if let (Some(a), Some(r), Some(s)) =
                (sta.arrival(pin), sta.required(pin), sta.slack(pin))
            {
                assert!((s - (r - a)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn tight_clock_fails_loose_clock_passes() {
        let (d, p) = line_design(400.0, 10.0);
        let mut sta = Sta::new(&d, RcParams::default()).unwrap();
        sta.analyze(&d, &p);
        let tight = sta.summary();
        assert!(tight.wns < 0.0);
        assert!(tight.tns <= tight.wns);
        assert_eq!(tight.failing_endpoints, 1);

        let (d2, p2) = line_design(400.0, 1e7);
        let mut sta2 = Sta::new(&d2, RcParams::default()).unwrap();
        sta2.analyze(&d2, &p2);
        let loose = sta2.summary();
        assert_eq!(loose.wns, 0.0);
        assert_eq!(loose.tns, 0.0);
        assert_eq!(loose.failing_endpoints, 0);
    }

    #[test]
    fn moving_cells_apart_increases_delay() {
        let arrival_at_po = |span: f64| {
            let (d, p) = line_design(span, 100.0);
            let mut sta = Sta::new(&d, RcParams::default()).unwrap();
            sta.analyze(&d, &p);
            let po = d.find_cell("po").unwrap();
            sta.arrival(d.cell(po).pins[0]).unwrap()
        };
        let near = arrival_at_po(100.0);
        let far = arrival_at_po(800.0);
        assert!(far > near * 2.0, "near {near} far {far}");
    }

    #[test]
    fn tns_is_sum_of_negative_endpoint_slacks() {
        // Two independent lines failing by different amounts.
        let mut b = DesignBuilder::new(
            "t2",
            CellLibrary::standard(),
            Rect::new(0.0, 0.0, 800.0, 100.0),
            10.0,
        );
        b.set_sdc(Sdc::new(30.0));
        for (i, span) in [300.0, 700.0].iter().enumerate() {
            let pi = b
                .add_fixed_cell(&format!("pi{i}"), "IOPAD_IN", 0.0, 20.0 + 30.0 * i as f64)
                .unwrap();
            let inv = b.add_cell(&format!("inv{i}"), "INV_X1").unwrap();
            let po = b
                .add_fixed_cell(
                    &format!("po{i}"),
                    "IOPAD_OUT",
                    *span,
                    20.0 + 30.0 * i as f64,
                )
                .unwrap();
            b.add_net(&format!("a{i}"), &[(pi, "PAD"), (inv, "A")])
                .unwrap();
            b.add_net(&format!("b{i}"), &[(inv, "Y"), (po, "PAD")])
                .unwrap();
        }
        let d = b.finish().unwrap();
        let mut p = Placement::new(&d);
        for c in d.cell_ids() {
            if d.cell(c).fixed {
                continue;
            }
            p.set(c, 150.0, 40.0);
        }
        p.set(d.find_cell("pi0").unwrap(), 0.0, 20.0);
        p.set(d.find_cell("po0").unwrap(), 300.0, 20.0);
        p.set(d.find_cell("pi1").unwrap(), 0.0, 50.0);
        p.set(d.find_cell("po1").unwrap(), 700.0, 50.0);
        let mut sta = Sta::new(&d, RcParams::default()).unwrap();
        sta.analyze(&d, &p);
        let s = sta.summary();
        assert_eq!(s.failing_endpoints, 2);
        let sum: f64 = sta.failing_endpoints().iter().map(|e| e.slack).sum();
        assert!((s.tns - sum).abs() < 1e-9);
        assert!((s.wns - sta.failing_endpoints()[0].slack).abs() < 1e-12);
        // Sorted most-critical first.
        assert!(sta.failing_endpoints()[0].slack <= sta.failing_endpoints()[1].slack);
    }

    #[test]
    fn worst_pred_traces_back_to_a_source() {
        let (d, p) = line_design(400.0, 10.0);
        let mut sta = Sta::new(&d, RcParams::default()).unwrap();
        sta.analyze(&d, &p);
        let ep = sta.failing_endpoints()[0].pin;
        let mut pin = ep;
        let mut hops = 0;
        while let Some(arc) = sta.worst_pred(pin) {
            pin = sta.graph().arc(arc).from;
            hops += 1;
            assert!(hops < 100, "backtrace does not terminate");
        }
        // The chain must end at a pin with a defined source arrival.
        assert!(sta.arrival(pin).is_some());
        assert_eq!(hops, 3); // pi.PAD -> inv.A -> inv.Y -> po.PAD has 3 arcs.
    }

    #[test]
    fn reanalysis_is_deterministic() {
        let (d, p) = line_design(400.0, 50.0);
        let mut sta = Sta::new(&d, RcParams::default()).unwrap();
        sta.analyze(&d, &p);
        let first = sta.summary();
        sta.analyze(&d, &p);
        let second = sta.summary();
        assert_eq!(first, second);
    }
}
