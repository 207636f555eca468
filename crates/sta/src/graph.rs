//! Timing graph construction and levelization.
//!
//! The timing graph has one node per pin and two kinds of directed arcs:
//!
//! * **cell arcs** — input pin → output pin through a gate, carrying the
//!   master's [`netlist::TimingArcSpec`] linear delay model (for flip-flops
//!   this is the clock→Q launch arc);
//! * **net arcs** — net driver pin → each sink pin, whose delay is the
//!   Elmore wire delay recomputed from the placement on every analysis.
//!
//! Sources are primary-input pads and flip-flop clock pins (ideal clock);
//! endpoints are flip-flop data pins and primary-output pads. The graph is
//! levelized once at construction; delays change with placement but the
//! topology does not. Because it does not, the graph is stored in the
//! order the propagation passes walk it — the level-ordered *rank layout*
//! described on [`TimingGraph`].

use netlist::{CellId, Design, NetId, PinDirection, PinId, Topology};
use std::error::Error;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Index of an arc in the timing graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArcId(u32);

impl ArcId {
    /// Creates an arc id from a dense index.
    pub fn new(index: usize) -> Self {
        assert!(index <= u32::MAX as usize, "arc index overflows u32");
        Self(index as u32)
    }

    /// Dense index for vector addressing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ArcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// What an arc models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArcKind {
    /// Gate propagation arc with the linear drive model parameters.
    Cell {
        /// Load-independent delay.
        intrinsic: f64,
        /// Multiplied by the driven net's downstream capacitance.
        drive_resistance: f64,
    },
    /// Wire arc from a net's driver to one sink; delay comes from the
    /// placement-dependent RC tree. Its net is the sink pin's net.
    Net,
}

/// A directed timing arc.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingArc {
    /// Source pin.
    pub from: PinId,
    /// Destination pin.
    pub to: PinId,
    /// Arc payload.
    pub kind: ArcKind,
}

/// Why a pin is a timing startpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SourceKind {
    /// Primary-input pad pin; arrival from the SDC.
    PrimaryInput,
    /// Flip-flop clock pin; ideal clock, arrival 0.
    ClockPin,
}

/// Why a pin is a timing endpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EndpointKind {
    /// Flip-flop data pin; required time = clock period.
    FlipFlopData,
    /// Primary-output pad pin; required time from the SDC.
    PrimaryOutput,
}

/// Errors from [`TimingGraph::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildGraphError {
    /// The combinational portion of the design contains a cycle.
    CombinationalCycle {
        /// A pin on the cycle, as a `cell/pin` label.
        pin: String,
    },
}

impl fmt::Display for BuildGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildGraphError::CombinationalCycle { pin } => {
                write!(f, "combinational cycle through pin {pin}")
            }
        }
    }
}

impl Error for BuildGraphError {}

/// Marker for "no arc" in slot-valued tables (e.g. a pin without a worst
/// predecessor).
pub(crate) const NO_ARC: u32 = u32::MAX;

// Per-rank role flags: which SDC seed a pin's arrival / required starts
// from. One byte per pin, read by both propagation kernels.
const ROLE_PRIMARY_INPUT: u8 = 1;
const ROLE_CLOCK_PIN: u8 = 2;
const ROLE_FLIP_FLOP_DATA: u8 = 4;
const ROLE_PRIMARY_OUTPUT: u8 = 8;

/// The static timing graph of a design.
///
/// Built once per design; placement changes only affect arc delays, which
/// live in [`crate::Sta`], not here.
///
/// # Layout
///
/// Everything the propagation kernels touch is stored in **rank order**.
/// A pin's *rank* is its position in the level-major pin order (levels
/// ascending, pin index ascending within a level), so every arc goes from
/// a lower rank to a higher one and "all pins in topological order" is
/// the loop `0..num_pins`. An arc's *slot* is its position in the arc
/// order sorted by destination rank (ties by [`ArcId`]): the arcs
/// entering rank `r` are the contiguous slots
/// `in_start[r]..in_start[r + 1]`, so a forward sweep over ranks reads
/// `arc_from`, the per-slot delays and the rank-indexed arrival array
/// front to back, and a backward sweep reads `out_to` / `out_slot` back
/// to front. The public [`PinId`] / [`ArcId`] accessors map through
/// `rank_of` / `slot_of`; [`ArcId`]s stay in construction order (cell
/// arcs first, then net arcs net by net), and within one pin both the
/// in-arc and the out-arc visiting order is ascending [`ArcId`].
#[derive(Debug, Clone)]
pub struct TimingGraph {
    /// Slot → rank of the arc's source pin.
    pub(crate) arc_from: Vec<u32>,
    /// Slot → rank of the arc's destination pin.
    pub(crate) arc_to: Vec<u32>,
    /// Slot → public arc id.
    pub(crate) arc_id: Vec<u32>,
    /// Public arc id → slot.
    pub(crate) slot_of: Vec<u32>,
    /// Gate-arc parameters, indexed by arc id (cell arcs come first).
    pub(crate) intrinsic: Vec<f64>,
    pub(crate) drive_resistance: Vec<f64>,
    /// Rank → first slot entering it (plus a sentinel).
    in_start: Vec<u32>,
    /// Rank → first entry of its out-arc list (plus a sentinel).
    out_start: Vec<u32>,
    /// Out-list entry → slot of the arc.
    pub(crate) out_slot: Vec<u32>,
    /// Out-list entry → rank of the arc's destination pin.
    pub(crate) out_to: Vec<u32>,
    /// Pin index → rank.
    rank_of: Vec<u32>,
    /// Rank → pin: pins grouped by level, sorted by pin index within a
    /// level. Also a topological order.
    pin_at: Vec<PinId>,
    /// Rank → `ROLE_*` flags.
    role: Vec<u8>,
    /// Offsets into the rank order, one entry per level plus a sentinel;
    /// a level is the unit of parallelism for level-synchronized
    /// propagation.
    level_starts: Vec<u32>,
    sources: Vec<(PinId, SourceKind)>,
    endpoints: Vec<(PinId, EndpointKind)>,
}

/// Process-wide count of [`TimingGraph::build`] calls.
///
/// Graph construction is the dominant setup cost the flow-level session
/// API amortizes across runs; tests use this counter to prove a reused
/// session builds the graph exactly once.
static BUILD_COUNT: AtomicUsize = AtomicUsize::new(0);

/// Number of timing graphs built by this process so far — one per
/// [`TimingGraph::build`], which every [`Sta::new`](crate::Sta::new) and
/// every session build runs once.
///
/// This is the only process-wide counter in this crate; RC work is
/// counted on the analyzer that did it
/// ([`Sta::rc_stats`](crate::Sta::rc_stats)). It stays process-wide
/// for the repo benchmark's `batch_matrix` workload, which counts the
/// session builds of a whole batch run, and for the tests that prove
/// session reuse. A caller that shares the process with other builders
/// (a second server, a local flow) sees their builds too.
pub fn graph_build_count() -> usize {
    BUILD_COUNT.load(Ordering::Relaxed)
}

impl TimingGraph {
    /// Builds the timing graph for `design`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildGraphError::CombinationalCycle`] if the combinational
    /// logic contains a loop (flip-flops legally break cycles because their
    /// D input has no arc to Q).
    pub fn build(design: &Design) -> Result<Self, BuildGraphError> {
        BUILD_COUNT.fetch_add(1, Ordering::Relaxed);
        let num_pins = design.num_pins();

        // Arc endpoints by pin index, in arc-id order: cell arcs, then net
        // arcs (driver -> each sink) net by net.
        let mut from_pin: Vec<u32> = Vec::new();
        let mut to_pin: Vec<u32> = Vec::new();
        let mut intrinsic = Vec::new();
        let mut drive_resistance = Vec::new();
        for cell in design.cell_ids() {
            for spec in &design.cell_type(cell).arcs {
                from_pin.push(design.cell_pin(cell, spec.from_pin).index() as u32);
                to_pin.push(design.cell_pin(cell, spec.to_pin).index() as u32);
                intrinsic.push(spec.intrinsic);
                drive_resistance.push(spec.drive_resistance);
            }
        }
        for net in design.net_ids() {
            let driver = design.net_driver(net).index() as u32;
            for &sink in design.net_sinks(net) {
                from_pin.push(driver);
                to_pin.push(sink.index() as u32);
            }
        }
        let num_arcs = from_pin.len();
        assert!(num_arcs < NO_ARC as usize, "arc count overflows u32");

        // Kahn levelization over a pin-indexed adjacency that only lives
        // until the ranks exist: `level_of` is 0 for pins with no incoming
        // arcs, otherwise `1 + max(level of predecessors)`.
        let mut indegree: Vec<u32> = vec![0; num_pins];
        for &t in &to_pin {
            indegree[t as usize] += 1;
        }
        let mut level_of: Vec<u32> = vec![0; num_pins];
        let mut queue: Vec<u32> = (0..num_pins as u32)
            .filter(|&p| indegree[p as usize] == 0)
            .collect();
        {
            let (start, table) = build_csr(num_pins, from_pin.iter().map(|&p| p as usize));
            let mut head = 0;
            while head < queue.len() {
                let p = queue[head] as usize;
                head += 1;
                for &a in &table[start[p] as usize..start[p + 1] as usize] {
                    let t = to_pin[a as usize] as usize;
                    level_of[t] = level_of[t].max(level_of[p] + 1);
                    indegree[t] -= 1;
                    if indegree[t] == 0 {
                        queue.push(t as u32);
                    }
                }
            }
        }
        if queue.len() != num_pins {
            let stuck = (0..num_pins).find(|&p| indegree[p] > 0).expect("cycle pin");
            return Err(BuildGraphError::CombinationalCycle {
                pin: design.pin_label(PinId::new(stuck)),
            });
        }

        // Rank pins by level (the counting sort keeps pins sorted by index
        // within a level, so the order is deterministic).
        let num_levels = level_of.iter().max().map_or(1, |&l| l as usize + 1);
        let (level_starts, by_level) = build_csr(num_levels, level_of.iter().map(|&l| l as usize));
        let mut rank_of = vec![0u32; num_pins];
        for (rank, &p) in by_level.iter().enumerate() {
            rank_of[p as usize] = rank as u32;
        }
        let pin_at: Vec<PinId> = by_level.iter().map(|&p| PinId::new(p as usize)).collect();

        // Slots: arcs sorted by destination rank, ascending arc id within
        // a pin. The out-lists are sorted by source rank the same way.
        let (in_start, arc_id) = build_csr(
            num_pins,
            to_pin.iter().map(|&p| rank_of[p as usize] as usize),
        );
        let mut slot_of = vec![0u32; num_arcs];
        for (slot, &a) in arc_id.iter().enumerate() {
            slot_of[a as usize] = slot as u32;
        }
        let arc_from: Vec<u32> = arc_id
            .iter()
            .map(|&a| rank_of[from_pin[a as usize] as usize])
            .collect();
        let arc_to: Vec<u32> = arc_id
            .iter()
            .map(|&a| rank_of[to_pin[a as usize] as usize])
            .collect();
        let (out_start, mut out_slot) = build_csr(
            num_pins,
            from_pin.iter().map(|&p| rank_of[p as usize] as usize),
        );
        for entry in &mut out_slot {
            *entry = slot_of[*entry as usize];
        }
        let out_to: Vec<u32> = out_slot.iter().map(|&s| arc_to[s as usize]).collect();

        // Sources and endpoints.
        let mut sources = Vec::new();
        let mut endpoints = Vec::new();
        for cell in design.cell_ids() {
            let ty = design.cell_type(cell);
            let pin = |spec| design.cell_pin(cell, spec);
            if ty.is_sequential {
                if let Some(ck) = ty.clock_pin {
                    sources.push((pin(ck), SourceKind::ClockPin));
                }
                if let Some(d) = ty.data_pin() {
                    endpoints.push((pin(d), EndpointKind::FlipFlopData));
                }
            } else if ty.arcs.is_empty() {
                // Pads: classify by pin direction.
                for (i, spec) in ty.pins.iter().enumerate() {
                    match spec.direction {
                        PinDirection::Output => sources.push((pin(i), SourceKind::PrimaryInput)),
                        PinDirection::Input => {
                            endpoints.push((pin(i), EndpointKind::PrimaryOutput))
                        }
                    }
                }
            }
        }
        let mut role = vec![0u8; num_pins];
        for &(pin, kind) in &sources {
            role[rank_of[pin.index()] as usize] |= match kind {
                SourceKind::PrimaryInput => ROLE_PRIMARY_INPUT,
                SourceKind::ClockPin => ROLE_CLOCK_PIN,
            };
        }
        for &(pin, kind) in &endpoints {
            role[rank_of[pin.index()] as usize] |= match kind {
                EndpointKind::FlipFlopData => ROLE_FLIP_FLOP_DATA,
                EndpointKind::PrimaryOutput => ROLE_PRIMARY_OUTPUT,
            };
        }

        Ok(Self {
            arc_from,
            arc_to,
            arc_id,
            slot_of,
            intrinsic,
            drive_resistance,
            in_start,
            out_start,
            out_slot,
            out_to,
            rank_of,
            pin_at,
            role,
            level_starts,
            sources,
            endpoints,
        })
    }

    /// Number of pins (graph nodes).
    pub fn num_pins(&self) -> usize {
        self.pin_at.len()
    }

    /// Number of arcs.
    pub fn num_arcs(&self) -> usize {
        self.arc_id.len()
    }

    /// Arc accessor.
    pub fn arc(&self, id: ArcId) -> TimingArc {
        let slot = self.slot_of[id.index()] as usize;
        let kind = if id.index() < self.num_cell_arcs() {
            ArcKind::Cell {
                intrinsic: self.intrinsic[id.index()],
                drive_resistance: self.drive_resistance[id.index()],
            }
        } else {
            ArcKind::Net
        };
        TimingArc {
            from: self.pin_at[self.arc_from[slot] as usize],
            to: self.pin_at[self.arc_to[slot] as usize],
            kind,
        }
    }

    /// All arcs in construction ([`ArcId`]) order.
    pub fn arcs(&self) -> impl ExactSizeIterator<Item = TimingArc> + '_ {
        (0..self.num_arcs()).map(|i| self.arc(ArcId(i as u32)))
    }

    /// Arcs leaving a pin.
    pub fn out_arcs(&self, pin: PinId) -> impl Iterator<Item = ArcId> + '_ {
        self.out_slot[self.out_entries(self.rank_of(pin))]
            .iter()
            .map(|&s| self.arc_at(s))
    }

    /// Arcs entering a pin.
    pub fn in_arcs(&self, pin: PinId) -> impl Iterator<Item = ArcId> + '_ {
        self.arc_id[self.in_slots(self.rank_of(pin))]
            .iter()
            .map(|&a| ArcId(a))
    }

    /// Pins in topological order (arc sources before destinations): the
    /// rank order.
    pub fn topo_order(&self) -> &[PinId] {
        &self.pin_at
    }

    /// Number of topological levels.
    pub fn num_levels(&self) -> usize {
        self.level_starts.len() - 1
    }

    /// Topological level of a pin (0 = no incoming arcs).
    pub fn level_of(&self, pin: PinId) -> u32 {
        let rank = self.rank_of[pin.index()];
        self.level_starts.partition_point(|&s| s <= rank) as u32 - 1
    }

    /// Pins of one level, sorted by pin index. Every arc into a level-`l`
    /// pin originates at a strictly lower level, so all pins of a level
    /// can be updated concurrently.
    pub fn level_pins(&self, level: usize) -> &[PinId] {
        &self.pin_at[self.level_ranks(level)]
    }

    /// Timing startpoints with their kinds.
    pub fn sources(&self) -> &[(PinId, SourceKind)] {
        &self.sources
    }

    /// Timing endpoints with their kinds.
    pub fn endpoints(&self) -> &[(PinId, EndpointKind)] {
        &self.endpoints
    }

    /// Number of gate arcs; they are the arc ids below this, net arcs the
    /// ids from it up.
    #[inline]
    pub(crate) fn num_cell_arcs(&self) -> usize {
        self.intrinsic.len()
    }

    /// Rank of a pin in the level-major order.
    #[inline]
    pub(crate) fn rank_of(&self, pin: PinId) -> usize {
        self.rank_of[pin.index()] as usize
    }

    /// The pin at a rank.
    #[inline]
    pub(crate) fn pin_at(&self, rank: usize) -> PinId {
        self.pin_at[rank]
    }

    /// The public id of the arc in `slot`.
    #[inline]
    pub(crate) fn arc_at(&self, slot: u32) -> ArcId {
        ArcId(self.arc_id[slot as usize])
    }

    /// The slot holding arc `id`.
    #[inline]
    pub(crate) fn slot_of(&self, id: ArcId) -> usize {
        self.slot_of[id.index()] as usize
    }

    /// Slots of the arcs entering `rank`.
    #[inline]
    pub(crate) fn in_slots(&self, rank: usize) -> Range<usize> {
        self.in_start[rank] as usize..self.in_start[rank + 1] as usize
    }

    /// Entries of `out_slot` / `out_to` for the arcs leaving `rank`.
    #[inline]
    pub(crate) fn out_entries(&self, rank: usize) -> Range<usize> {
        self.out_start[rank] as usize..self.out_start[rank + 1] as usize
    }

    /// Ranks of one level.
    #[inline]
    pub(crate) fn level_ranks(&self, level: usize) -> Range<usize> {
        self.level_starts[level] as usize..self.level_starts[level + 1] as usize
    }

    /// Slots of `net`'s wire arcs, in `Design::net_sinks` order, for the
    /// design whose `topology` the graph was built from.
    ///
    /// Net arcs are numbered net by net and sink by sink after the cell
    /// arcs, and every net's slots are its driver's and then its sinks',
    /// so the sinks of the nets before `net` number `net_slots.start −
    /// net`, and the sink in pin slot `s` of `net` has net arc
    /// `s − net − 1`.
    #[inline]
    pub(crate) fn net_arc_slots(&self, topology: &Topology, net: NetId) -> &[u32] {
        let slots = topology.net_slots(net);
        let first = self.num_cell_arcs() + slots.start - net.index();
        &self.slot_of[first..first + slots.len() - 1]
    }

    /// Why the pin at `rank` is a startpoint, if it is one.
    #[inline]
    pub(crate) fn source_kind(&self, rank: usize) -> Option<SourceKind> {
        let role = self.role[rank];
        if role & ROLE_PRIMARY_INPUT != 0 {
            Some(SourceKind::PrimaryInput)
        } else if role & ROLE_CLOCK_PIN != 0 {
            Some(SourceKind::ClockPin)
        } else {
            None
        }
    }

    /// Why the pin at `rank` is an endpoint, if it is one.
    #[inline]
    pub(crate) fn endpoint_kind(&self, rank: usize) -> Option<EndpointKind> {
        let role = self.role[rank];
        if role & ROLE_FLIP_FLOP_DATA != 0 {
            Some(EndpointKind::FlipFlopData)
        } else if role & ROLE_PRIMARY_OUTPUT != 0 {
            Some(EndpointKind::PrimaryOutput)
        } else {
            None
        }
    }

    /// Re-reads the gate-arc parameters of one cell from the design — the
    /// graph half of an ECO resize after [`netlist::Design::set_cell_type`].
    ///
    /// Only the `intrinsic` / `drive_resistance` payloads of the cell's
    /// [`ArcKind::Cell`] arcs change; topology, levelization and adjacency
    /// are untouched, so no rebuild (and no bump of
    /// [`graph_build_count`]) happens. Returns the patched arc ids.
    ///
    /// # Panics
    ///
    /// Panics if the cell's current master carries a different arc
    /// topology (pin-to-pin arc set) than the graph was built with —
    /// pin-compatible drive variants never do.
    pub fn repatch_cell_arcs(&mut self, design: &Design, cell: CellId) -> Vec<ArcId> {
        let ty = design.cell_type(cell);
        let num_cell_arcs = self.num_cell_arcs();
        let existing = design
            .cell_pins(cell)
            .flat_map(|p| self.out_arcs(p))
            .filter(|a| a.index() < num_cell_arcs)
            .count();
        assert_eq!(
            existing,
            ty.arcs.len(),
            "resize changed the arc topology of cell {}",
            design.cell(cell).name
        );
        let mut patched = Vec::with_capacity(ty.arcs.len());
        for spec in &ty.arcs {
            let to = self.rank_of[design.cell_pin(cell, spec.to_pin).index()];
            let arc = self
                .out_arcs(design.cell_pin(cell, spec.from_pin))
                .find(|&a| a.index() < num_cell_arcs && self.arc_to[self.slot_of(a)] == to)
                .expect("resize changed cell arc topology");
            self.intrinsic[arc.index()] = spec.intrinsic;
            self.drive_resistance[arc.index()] = spec.drive_resistance;
            patched.push(arc);
        }
        patched
    }
}

/// Builds a CSR adjacency table: for each node, the list of arc indices
/// whose key (from/to) equals the node.
fn build_csr(num_nodes: usize, keys: impl Iterator<Item = usize> + Clone) -> (Vec<u32>, Vec<u32>) {
    let mut start = vec![0u32; num_nodes + 1];
    for k in keys.clone() {
        start[k + 1] += 1;
    }
    for i in 0..num_nodes {
        start[i + 1] += start[i];
    }
    let mut cursor = start.clone();
    let mut table = vec![0u32; start[num_nodes] as usize];
    for (arc_idx, k) in keys.enumerate() {
        table[cursor[k] as usize] = arc_idx as u32;
        cursor[k] += 1;
    }
    (start, table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{CellLibrary, DesignBuilder, Rect};

    fn pipeline_design() -> Design {
        // pi -> inv -> DFF -> nand -> po, plus a second input to the nand.
        let mut b = DesignBuilder::new(
            "t",
            CellLibrary::standard(),
            Rect::new(0.0, 0.0, 100.0, 100.0),
            10.0,
        );
        let pi = b.add_fixed_cell("pi", "IOPAD_IN", 0.0, 50.0).unwrap();
        let pi2 = b.add_fixed_cell("pi2", "IOPAD_IN", 0.0, 70.0).unwrap();
        let inv = b.add_cell("inv", "INV_X1").unwrap();
        let ff = b.add_cell("ff", "DFF_X1").unwrap();
        let nand = b.add_cell("nand", "NAND2_X1").unwrap();
        let po = b.add_fixed_cell("po", "IOPAD_OUT", 96.0, 50.0).unwrap();
        b.add_net("n0", &[(pi, "PAD"), (inv, "A")]).unwrap();
        b.add_net("n1", &[(inv, "Y"), (ff, "D")]).unwrap();
        b.add_net("n2", &[(ff, "Q"), (nand, "A")]).unwrap();
        b.add_net("n3", &[(pi2, "PAD"), (nand, "B")]).unwrap();
        b.add_net("n4", &[(nand, "Y"), (po, "PAD")]).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn graph_counts_match_design() {
        let d = pipeline_design();
        let g = TimingGraph::build(&d).unwrap();
        assert_eq!(g.num_pins(), d.num_pins());
        // Cell arcs: inv(1) + dff(1) + nand(2) = 4; net arcs: 5 nets x1 sink.
        assert_eq!(g.num_arcs(), 9);
    }

    #[test]
    fn sources_and_endpoints_classified() {
        let d = pipeline_design();
        let g = TimingGraph::build(&d).unwrap();
        let src_kinds: Vec<_> = g.sources().iter().map(|&(_, k)| k).collect();
        assert_eq!(
            src_kinds
                .iter()
                .filter(|k| **k == SourceKind::PrimaryInput)
                .count(),
            2
        );
        assert_eq!(
            src_kinds
                .iter()
                .filter(|k| **k == SourceKind::ClockPin)
                .count(),
            1
        );
        let ep_kinds: Vec<_> = g.endpoints().iter().map(|&(_, k)| k).collect();
        assert_eq!(
            ep_kinds
                .iter()
                .filter(|k| **k == EndpointKind::FlipFlopData)
                .count(),
            1
        );
        assert_eq!(
            ep_kinds
                .iter()
                .filter(|k| **k == EndpointKind::PrimaryOutput)
                .count(),
            1
        );
    }

    #[test]
    fn topo_order_respects_arcs() {
        let d = pipeline_design();
        let g = TimingGraph::build(&d).unwrap();
        let mut position = vec![0usize; g.num_pins()];
        for (i, &p) in g.topo_order().iter().enumerate() {
            position[p.index()] = i;
        }
        for a in g.arcs() {
            assert!(
                position[a.from.index()] < position[a.to.index()],
                "arc {} -> {} violates topo order",
                d.pin_label(a.from),
                d.pin_label(a.to)
            );
        }
    }

    #[test]
    fn adjacency_is_consistent() {
        let d = pipeline_design();
        let g = TimingGraph::build(&d).unwrap();
        for pin in d.pin_ids() {
            for arc in g.out_arcs(pin) {
                assert_eq!(g.arc(arc).from, pin);
            }
            for arc in g.in_arcs(pin) {
                assert_eq!(g.arc(arc).to, pin);
            }
        }
        let total_out: usize = d.pin_ids().map(|p| g.out_arcs(p).count()).sum();
        assert_eq!(total_out, g.num_arcs());
    }

    #[test]
    fn flip_flop_breaks_cycles() {
        // inv1 -> ff -> inv2 -> back into inv1's net is illegal (two drivers),
        // but ff in a feedback loop through combinational logic is fine.
        let mut b = DesignBuilder::new(
            "loop",
            CellLibrary::standard(),
            Rect::new(0.0, 0.0, 100.0, 100.0),
            10.0,
        );
        let ff = b.add_cell("ff", "DFF_X1").unwrap();
        let inv = b.add_cell("inv", "INV_X1").unwrap();
        b.add_net("q", &[(ff, "Q"), (inv, "A")]).unwrap();
        b.add_net("d", &[(inv, "Y"), (ff, "D")]).unwrap();
        let d = b.finish().unwrap();
        assert!(TimingGraph::build(&d).is_ok());
    }

    #[test]
    fn levels_respect_arcs_and_partition_pins() {
        let d = pipeline_design();
        let g = TimingGraph::build(&d).unwrap();
        // Every arc crosses strictly upward in level.
        for a in g.arcs() {
            assert!(
                g.level_of(a.from) < g.level_of(a.to),
                "arc {} -> {} does not climb levels",
                d.pin_label(a.from),
                d.pin_label(a.to)
            );
        }
        // Levels partition the pin set, sorted by index within a level.
        let mut seen = vec![false; g.num_pins()];
        for l in 0..g.num_levels() {
            let pins = g.level_pins(l);
            for w in pins.windows(2) {
                assert!(w[0].index() < w[1].index());
            }
            for &p in pins {
                assert_eq!(g.level_of(p) as usize, l);
                assert!(!seen[p.index()], "pin in two levels");
                seen[p.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn csr_handles_empty_nodes() {
        let (start, table) = build_csr(4, [2usize, 2, 0].into_iter());
        assert_eq!(start, vec![0, 1, 1, 3, 3]);
        assert_eq!(table.len(), 3);
        // Node 2 owns arcs 0 and 1.
        assert_eq!(&table[start[2] as usize..start[3] as usize], &[0, 1]);
    }
}
