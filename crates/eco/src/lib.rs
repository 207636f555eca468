//! Interactive ECO: millisecond delta queries against resident designs.
//!
//! An engineering-change-order (ECO) loop edits a placed design in tiny
//! steps — nudge a handful of cells, swap a few drive strengths, try a
//! different clock target — and after every step wants fresh timing and
//! congestion numbers *now*, not after a from-scratch rebuild. This
//! crate provides that loop on top of the resident-session
//! infrastructure:
//!
//! * [`EcoDelta`] / [`DeltaBatch`] — the typed edit grammar: absolute
//!   cell relocations, drive-strength retypes and clock retargets, with
//!   a JSON wire form shared by the `tdp-eco` CLI and the `tdp-serve`
//!   protocol verbs.
//! * [`EcoSession`] — wraps a built [`Session`] (shared timing graph
//!   and RC skeleton, private design/placement/analyzer state), applies
//!   batches through the incremental STA and incremental RUDY paths,
//!   and journals inverse deltas so [`EcoSession::revert`] and
//!   [`EcoSession::revert_to`] restore earlier states exactly.
//! * [`EcoQueryResult`] — the per-query readout: WNS/TNS, worst paths
//!   through the dirty endpoints, congestion peak/overflow plus the
//!   touched-bin list, and the placement hash, with a content hash for
//!   bitwise comparisons.
//!
//! The load-bearing contract is the one the incremental analyzers
//! already pin: every answer is **bitwise identical** to rebuilding the
//! edited design from scratch. [`EcoMode::Full`] keeps that honest at
//! runtime — the same session can re-answer any query through the full
//! analysis path, and `tests/eco_differential.rs` compares both against
//! an actual rebuild over randomized delta streams.

use std::time::Instant;

use benchgen::{CircuitParams, EcoStep};
use netlist::{fnv, CellId, CellMove, CellTypeId, Design, DirtySummary, PinId, Placement};
use placer::{GlobalPlacer, PlacerConfig};
use sta::{EndpointSlack, RcParams, Sta, TimingSummary};
use tdp_core::{EcoStats, Session};
use tdp_jsonio::JsonValue;
use tdp_route::{CongestionAnalyzer, CongestionReport, RouteConfig};

/// Folds a `u64` into an FNV-1a accumulator as two 32-bit halves, low
/// half first — not [`netlist::fnv::mix_u64`]'s byte-wise recipe. It
/// feeds [`EcoQueryResult::content_hash`] (the `query_hash` on the wire
/// and the `eco_query_*` perf checksums), so its bits must not change.
fn mix_u64(h: u64, v: u64) -> u64 {
    let mut h = h;
    for shift in [0u32, 32] {
        h ^= (v >> shift) & 0xffff_ffff;
        h = h.wrapping_mul(fnv::PRIME);
    }
    h
}

fn mix_f64(h: u64, v: f64) -> u64 {
    mix_u64(h, v.to_bits())
}

/// One typed edit against a resident design.
#[derive(Debug, Clone, PartialEq)]
pub enum EcoDelta {
    /// Absolute relocations. A later move of the same cell wins.
    MoveCells(Vec<CellMove>),
    /// Drive-strength retypes `(cell, new master)`. The new master must
    /// be pin-compatible with the old one (same pin names, directions
    /// and order, same sequential classification).
    ResizeCells(Vec<(CellId, CellTypeId)>),
    /// Replaces the clock period of the design's SDC.
    RetargetClock(f64),
}

/// An ordered list of [`EcoDelta`]s applied atomically: the whole batch
/// is validated up front, applied, and answered by one re-analysis.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaBatch {
    deltas: Vec<EcoDelta>,
}

impl DeltaBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a delta.
    pub fn push(&mut self, delta: EcoDelta) -> &mut Self {
        self.deltas.push(delta);
        self
    }

    /// Builder form: appends a move delta.
    #[must_use]
    pub fn move_cells(mut self, moves: Vec<CellMove>) -> Self {
        self.deltas.push(EcoDelta::MoveCells(moves));
        self
    }

    /// Builder form: appends a resize delta.
    #[must_use]
    pub fn resize_cells(mut self, resizes: Vec<(CellId, CellTypeId)>) -> Self {
        self.deltas.push(EcoDelta::ResizeCells(resizes));
        self
    }

    /// Builder form: appends a clock retarget.
    #[must_use]
    pub fn retarget_clock(mut self, period: f64) -> Self {
        self.deltas.push(EcoDelta::RetargetClock(period));
        self
    }

    /// The deltas in application order.
    pub fn deltas(&self) -> &[EcoDelta] {
        &self.deltas
    }

    /// Number of deltas.
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// A batch holding one generated [`EcoStep`] (moves then resizes) —
    /// the bridge from the `benchgen` stress streams.
    pub fn from_step(step: &EcoStep) -> Self {
        let mut batch = Self::new();
        if !step.moves.is_empty() {
            batch.push(EcoDelta::MoveCells(step.moves.clone()));
        }
        if !step.resizes.is_empty() {
            batch.push(EcoDelta::ResizeCells(step.resizes.clone()));
        }
        batch
    }

    /// Encodes the batch in the wire grammar (see [`delta_batch_from_json`]).
    /// Resize masters travel by name, so the decoder does not need the
    /// sender's library ids.
    pub fn to_json(&self, design: &Design) -> JsonValue {
        let lib = design.library();
        let deltas = self
            .deltas
            .iter()
            .map(|d| match d {
                EcoDelta::MoveCells(moves) => JsonValue::Obj(vec![
                    ("op".into(), JsonValue::Str("move".into())),
                    (
                        "cells".into(),
                        JsonValue::Arr(
                            moves
                                .iter()
                                .map(|m| {
                                    JsonValue::Arr(vec![
                                        JsonValue::Num(m.cell.index() as f64),
                                        JsonValue::Num(m.x),
                                        JsonValue::Num(m.y),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
                EcoDelta::ResizeCells(resizes) => JsonValue::Obj(vec![
                    ("op".into(), JsonValue::Str("resize".into())),
                    (
                        "cells".into(),
                        JsonValue::Arr(
                            resizes
                                .iter()
                                .map(|&(c, ty)| {
                                    JsonValue::Arr(vec![
                                        JsonValue::Num(c.index() as f64),
                                        JsonValue::Str(lib.get(ty).name.clone()),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
                EcoDelta::RetargetClock(p) => JsonValue::Obj(vec![
                    ("op".into(), JsonValue::Str("retarget_clock".into())),
                    ("period".into(), JsonValue::Num(*p)),
                ]),
            })
            .collect();
        JsonValue::Arr(deltas)
    }
}

/// Decodes the wire delta grammar:
///
/// ```json
/// [{"op": "move", "cells": [[3, 10.5, 20.0]]},
///  {"op": "resize", "cells": [[7, "INV_X2"]]},
///  {"op": "retarget_clock", "period": 950.0}]
/// ```
///
/// Cells are dense indices into `design`; resize masters are library
/// cell names.
///
/// # Errors
///
/// Returns a message for malformed shapes, unknown ops, out-of-range
/// cell indices and unknown master names.
pub fn delta_batch_from_json(design: &Design, v: &JsonValue) -> Result<DeltaBatch, String> {
    let JsonValue::Arr(items) = v else {
        return Err("deltas must be an array".into());
    };
    let mut batch = DeltaBatch::new();
    for (i, item) in items.iter().enumerate() {
        let op = item
            .get("op")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("delta {i}: missing op"))?;
        match op {
            "move" => {
                let JsonValue::Arr(cells) = item
                    .get("cells")
                    .ok_or_else(|| format!("delta {i}: move needs cells"))?
                else {
                    return Err(format!("delta {i}: cells must be an array"));
                };
                let mut moves = Vec::with_capacity(cells.len());
                for entry in cells {
                    let JsonValue::Arr(triple) = entry else {
                        return Err(format!("delta {i}: move entries are [cell, x, y]"));
                    };
                    let [c, x, y] = triple.as_slice() else {
                        return Err(format!("delta {i}: move entries are [cell, x, y]"));
                    };
                    let cell = c
                        .as_usize()
                        .filter(|&c| c < design.num_cells())
                        .ok_or_else(|| format!("delta {i}: bad cell index"))?;
                    let (x, y) = match (x.as_f64(), y.as_f64()) {
                        (Some(x), Some(y)) => (x, y),
                        _ => return Err(format!("delta {i}: move coordinates must be numbers")),
                    };
                    moves.push(CellMove {
                        cell: CellId::new(cell),
                        x,
                        y,
                    });
                }
                batch.push(EcoDelta::MoveCells(moves));
            }
            "resize" => {
                let JsonValue::Arr(cells) = item
                    .get("cells")
                    .ok_or_else(|| format!("delta {i}: resize needs cells"))?
                else {
                    return Err(format!("delta {i}: cells must be an array"));
                };
                let mut resizes = Vec::with_capacity(cells.len());
                for entry in cells {
                    let JsonValue::Arr(pair) = entry else {
                        return Err(format!("delta {i}: resize entries are [cell, master]"));
                    };
                    let [c, name] = pair.as_slice() else {
                        return Err(format!("delta {i}: resize entries are [cell, master]"));
                    };
                    let cell = c
                        .as_usize()
                        .filter(|&c| c < design.num_cells())
                        .ok_or_else(|| format!("delta {i}: bad cell index"))?;
                    let name = name
                        .as_str()
                        .ok_or_else(|| format!("delta {i}: master must be a string"))?;
                    let ty = design
                        .library()
                        .by_name(name)
                        .ok_or_else(|| format!("delta {i}: unknown master {name:?}"))?;
                    resizes.push((CellId::new(cell), ty));
                }
                batch.push(EcoDelta::ResizeCells(resizes));
            }
            "retarget_clock" => {
                let period = item
                    .get("period")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("delta {i}: retarget_clock needs a period"))?;
                batch.push(EcoDelta::RetargetClock(period));
            }
            other => {
                return Err(format!(
                    "delta {i}: unknown op {other:?} (expected move, resize or retarget_clock)"
                ))
            }
        }
    }
    Ok(batch)
}

/// Rejection of a delta batch. Validation runs over the whole batch
/// before any state is touched, so a rejected batch leaves the session
/// exactly as it was.
#[derive(Debug, Clone, PartialEq)]
pub enum EcoError {
    /// A cell index is out of range for the resident design.
    UnknownCell(usize),
    /// The delta targets a fixed cell (pad or macro).
    FixedCell(String),
    /// A move coordinate is NaN or infinite.
    BadCoordinate(String),
    /// A resize master id is out of range for the library.
    UnknownType(usize),
    /// The resize would change the cell's interface (detailed reason).
    IncompatibleResize(String),
    /// The clock period is not finite and positive.
    BadClock(f64),
    /// `revert` on an empty journal, or `revert_to` past the journal head.
    BadCheckpoint { requested: usize, depth: usize },
}

impl std::fmt::Display for EcoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EcoError::UnknownCell(i) => write!(f, "cell index {i} out of range"),
            EcoError::FixedCell(name) => write!(f, "cell {name} is fixed"),
            EcoError::BadCoordinate(name) => {
                write!(f, "move target for cell {name} is not finite")
            }
            EcoError::UnknownType(i) => write!(f, "cell type index {i} out of range"),
            EcoError::IncompatibleResize(msg) => write!(f, "{msg}"),
            EcoError::BadClock(p) => write!(f, "clock period {p} must be finite and positive"),
            EcoError::BadCheckpoint { requested, depth } => {
                write!(
                    f,
                    "checkpoint {requested} does not exist (journal depth {depth})"
                )
            }
        }
    }
}

impl std::error::Error for EcoError {}

/// Which analysis path answers queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EcoMode {
    /// Incremental STA + incremental RUDY over the dirty sets (the
    /// default; this is the millisecond path).
    Incremental,
    /// Full re-analysis of the whole design — the reference path the
    /// incremental answers must match bitwise.
    Full,
}

/// One worst path in a query readout.
#[derive(Debug, Clone, PartialEq)]
pub struct EcoPath {
    /// Endpoint pin label (`cell/PIN`).
    pub endpoint: String,
    /// Startpoint pin label at the end of the worst-predecessor chain.
    pub startpoint: String,
    /// Endpoint setup slack.
    pub slack: f64,
    /// Endpoint arrival time.
    pub arrival: f64,
    /// Number of pins on the path.
    pub length: usize,
}

/// The readout a query returns: timing, congestion, placement
/// fingerprint, and the incremental-path artifacts (dirty nets,
/// touched bins).
#[derive(Debug, Clone, PartialEq)]
pub struct EcoQueryResult {
    /// WNS / TNS / endpoint counts of the current analysis.
    pub timing: TimingSummary,
    /// Congestion summary of the current RUDY map.
    pub congestion: CongestionReport,
    /// Worst paths through the endpoints the last batch dirtied (global
    /// worst endpoints when nothing is dirty).
    pub worst_paths: Vec<EcoPath>,
    /// Bins the last incremental congestion pass re-reduced (sorted,
    /// deduplicated; empty after a full pass). Diagnostic only —
    /// excluded from [`EcoQueryResult::content_hash`].
    pub touched_bins: Vec<u32>,
    /// [`Placement::content_hash`] of the resident placement.
    pub placement_hash: u64,
    /// Current clock period of the resident SDC.
    pub clock_period: f64,
    /// Nets dirtied by the last applied batch.
    pub dirty_nets: usize,
}

impl EcoQueryResult {
    /// FNV-1a fingerprint of everything the rebuild contract covers:
    /// timing summary, worst paths, congestion summary (including the
    /// map hash), placement hash and clock period. The incremental-path
    /// artifacts (`touched_bins`, `dirty_nets`) are excluded — they
    /// describe *how* the answer was computed, not the answer.
    pub fn content_hash(&self) -> u64 {
        let mut h = fnv::OFFSET;
        h = mix_f64(h, self.timing.wns);
        h = mix_f64(h, self.timing.tns);
        h = mix_u64(h, self.timing.failing_endpoints as u64);
        h = mix_u64(h, self.timing.total_endpoints as u64);
        h = mix_f64(h, self.congestion.peak);
        h = mix_f64(h, self.congestion.average);
        h = mix_f64(h, self.congestion.overflow);
        h = mix_u64(h, self.congestion.overflow_bins as u64);
        h = mix_u64(h, self.congestion.map_hash);
        h = mix_u64(h, self.placement_hash);
        h = mix_f64(h, self.clock_period);
        for p in &self.worst_paths {
            h = fnv::mix_bytes(h, p.endpoint.as_bytes());
            h = fnv::mix_bytes(h, p.startpoint.as_bytes());
            h = mix_f64(h, p.slack);
            h = mix_f64(h, p.arrival);
            h = mix_u64(h, p.length as u64);
        }
        h
    }

    /// Encodes the readout for the wire / JSONL reports. Hashes travel
    /// as hex strings (`Num` is an `f64` and cannot carry 64 hash bits).
    pub fn to_json(&self) -> JsonValue {
        let paths = self
            .worst_paths
            .iter()
            .map(|p| {
                JsonValue::Obj(vec![
                    ("endpoint".into(), JsonValue::Str(p.endpoint.clone())),
                    ("startpoint".into(), JsonValue::Str(p.startpoint.clone())),
                    ("slack".into(), JsonValue::Num(p.slack)),
                    ("arrival".into(), JsonValue::Num(p.arrival)),
                    ("length".into(), p.length.into()),
                ])
            })
            .collect();
        JsonValue::Obj(vec![
            ("wns".into(), JsonValue::Num(self.timing.wns)),
            ("tns".into(), JsonValue::Num(self.timing.tns)),
            (
                "failing_endpoints".into(),
                self.timing.failing_endpoints.into(),
            ),
            ("total_endpoints".into(), self.timing.total_endpoints.into()),
            (
                "congestion_peak".into(),
                JsonValue::Num(self.congestion.peak),
            ),
            (
                "congestion_overflow".into(),
                JsonValue::Num(self.congestion.overflow),
            ),
            ("overflow_bins".into(), self.congestion.overflow_bins.into()),
            (
                "map_hash".into(),
                JsonValue::Str(format!("{:#018x}", self.congestion.map_hash)),
            ),
            (
                "placement_hash".into(),
                JsonValue::Str(format!("{:#018x}", self.placement_hash)),
            ),
            ("clock_period".into(), JsonValue::Num(self.clock_period)),
            ("dirty_nets".into(), self.dirty_nets.into()),
            (
                "touched_bins".into(),
                JsonValue::Arr(
                    self.touched_bins
                        .iter()
                        .map(|&b| JsonValue::Num(b as f64))
                        .collect(),
                ),
            ),
            ("worst_paths".into(), JsonValue::Arr(paths)),
            (
                "query_hash".into(),
                JsonValue::Str(format!("{:#018x}", self.content_hash())),
            ),
        ])
    }
}

/// The deterministic resident placement every ECO front end starts
/// from: the seeded-jitter initial placement of [`GlobalPlacer::new`],
/// bitwise identical on every machine — the same recipe the perf
/// kernels pin.
pub fn resident_placement(design: &Design, pads: &Placement) -> Placement {
    GlobalPlacer::new(design, pads.clone(), PlacerConfig::default())
        .placement()
        .clone()
}

/// Wire parasitics for a generated case — the same derivation the batch
/// runner uses, so ECO timing matches what a batch run of the case
/// would report.
pub fn rc_params_for(params: &CircuitParams) -> RcParams {
    RcParams {
        res_per_unit: params.res_per_unit,
        cap_per_unit: params.cap_per_unit,
        ..tdp_core::FlowConfig::default().rc
    }
}

/// An interactive editing session against a resident design.
///
/// Opened from a built [`Session`], it shares the session's timing
/// graph and RC skeleton (copy-on-write: the first resize clones them,
/// leaving the cached session untouched) but owns its design, placement
/// and analyzer state, so concurrent batch runs against the same cached
/// session are unaffected.
#[derive(Debug)]
pub struct EcoSession {
    design: Design,
    placement: Placement,
    sta: Sta,
    congestion: CongestionAnalyzer,
    /// Inverse batches, one per applied batch, applied in reverse on
    /// revert.
    journal: Vec<Vec<EcoDelta>>,
    stats: EcoStats,
    last_dirty: DirtySummary,
    touched_bins: Vec<u32>,
    mode: EcoMode,
}

impl EcoSession {
    /// Opens an ECO session over `session`'s design with the given wire
    /// parasitics, running the initial full analysis. The resident
    /// placement is [`resident_placement`].
    pub fn open(session: &Session, rc: RcParams, threads: usize) -> Self {
        let design = session.design().clone();
        let placement = resident_placement(&design, session.pads());
        let mut sta = Sta::from_parts(
            session.graph_handle(),
            session.skeleton_handle(),
            &design,
            rc,
        )
        .with_threads(threads);
        sta.analyze(&design, &placement);
        let mut congestion = CongestionAnalyzer::new(&design, RouteConfig::default());
        congestion.set_threads(threads);
        congestion.analyze(&design, &placement);
        Self {
            design,
            placement,
            sta,
            congestion,
            journal: Vec::new(),
            stats: EcoStats::default(),
            last_dirty: DirtySummary::default(),
            touched_bins: Vec::new(),
            mode: EcoMode::Incremental,
        }
    }

    /// The resident design (reflecting applied resizes and retargets).
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// The resident placement (reflecting applied moves).
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Cumulative session statistics.
    pub fn stats(&self) -> EcoStats {
        self.stats
    }

    /// The resident analyzer's RC work since the session opened, its
    /// initial full analysis included.
    pub fn rc_stats(&self) -> sta::RcOpStats {
        self.sta.rc_stats()
    }

    /// Every constrained endpoint's slack, worst-first — the resident
    /// STA's full readout, exposed so the differential tests can
    /// compare incremental state against a from-scratch rebuild
    /// endpoint by endpoint, not just through summaries.
    pub fn endpoint_slacks(&self) -> &[EndpointSlack] {
        self.sta.endpoint_slacks()
    }

    /// Current analysis mode.
    pub fn mode(&self) -> EcoMode {
        self.mode
    }

    /// Switches the analysis path for subsequent applies and reverts.
    pub fn set_mode(&mut self, mode: EcoMode) {
        self.mode = mode;
    }

    /// Sets the worker count of both analyzers.
    pub fn set_threads(&mut self, threads: usize) {
        self.sta.set_threads(threads);
        self.congestion.set_threads(threads);
    }

    /// Journal depth; pass to [`EcoSession::revert_to`] to come back here.
    pub fn checkpoint(&self) -> usize {
        self.journal.len()
    }

    /// Validates the whole batch against the current state without
    /// touching anything.
    fn validate(&self, batch: &DeltaBatch) -> Result<(), EcoError> {
        for delta in batch.deltas() {
            match delta {
                EcoDelta::MoveCells(moves) => {
                    for m in moves {
                        if m.cell.index() >= self.design.num_cells() {
                            return Err(EcoError::UnknownCell(m.cell.index()));
                        }
                        let cell = self.design.cell(m.cell);
                        if cell.fixed {
                            return Err(EcoError::FixedCell(cell.name.clone()));
                        }
                        if !m.x.is_finite() || !m.y.is_finite() {
                            return Err(EcoError::BadCoordinate(cell.name.clone()));
                        }
                    }
                }
                EcoDelta::ResizeCells(resizes) => {
                    let lib = self.design.library();
                    for &(c, ty) in resizes {
                        if c.index() >= self.design.num_cells() {
                            return Err(EcoError::UnknownCell(c.index()));
                        }
                        let cell = self.design.cell(c);
                        if cell.fixed {
                            return Err(EcoError::FixedCell(cell.name.clone()));
                        }
                        if ty.index() >= lib.len() {
                            return Err(EcoError::UnknownType(ty.index()));
                        }
                        // Interface compatibility, checked before any
                        // mutation so a failing batch is a clean no-op
                        // (resizes never change pin names, so checking
                        // against the current master is order-independent
                        // within the batch).
                        let old = self.design.cell_type(c);
                        let new = lib.get(ty);
                        let compatible = old.pins.len() == new.pins.len()
                            && old
                                .pins
                                .iter()
                                .zip(&new.pins)
                                .all(|(a, b)| a.name == b.name && a.direction == b.direction)
                            && old.is_sequential == new.is_sequential
                            && old.clock_pin == new.clock_pin;
                        if !compatible {
                            return Err(EcoError::IncompatibleResize(format!(
                                "resize {}: master {} is not pin-compatible with {}",
                                cell.name, new.name, old.name
                            )));
                        }
                    }
                }
                EcoDelta::RetargetClock(p) => {
                    if !p.is_finite() || *p <= 0.0 {
                        return Err(EcoError::BadClock(*p));
                    }
                }
            }
        }
        Ok(())
    }

    /// Applies the deltas (no analysis), returning the inverse list and
    /// the union of touched cells. The inverse of each delta is
    /// recorded against the state *before* that delta, so replaying the
    /// list in reverse restores the starting state exactly (original
    /// coordinates are snapshotted, not deltas un-applied — float
    /// addition does not round-trip).
    fn mutate(&mut self, deltas: &[EcoDelta]) -> (Vec<EcoDelta>, Vec<CellId>) {
        let mut inverse = Vec::with_capacity(deltas.len());
        let mut touched: Vec<CellId> = Vec::new();
        for delta in deltas {
            match delta {
                EcoDelta::MoveCells(moves) => {
                    let undo = moves
                        .iter()
                        .map(|m| {
                            let (x, y) = self.placement.get(m.cell);
                            CellMove { cell: m.cell, x, y }
                        })
                        .collect();
                    inverse.push(EcoDelta::MoveCells(undo));
                    for m in moves {
                        self.placement.set(m.cell, m.x, m.y);
                        touched.push(m.cell);
                    }
                    self.stats.cells_moved += moves.len() as u64;
                }
                EcoDelta::ResizeCells(resizes) => {
                    let undo = resizes
                        .iter()
                        .map(|&(c, _)| {
                            (
                                c,
                                self.design
                                    .library()
                                    .by_name(&self.design.cell_type(c).name)
                                    .expect("current master is in the library"),
                            )
                        })
                        .collect();
                    inverse.push(EcoDelta::ResizeCells(undo));
                    for &(c, ty) in resizes {
                        self.design
                            .set_cell_type(c, ty)
                            .expect("batch validated before mutation");
                        self.sta.apply_resize(&self.design, c);
                        touched.push(c);
                    }
                }
                EcoDelta::RetargetClock(p) => {
                    inverse.push(EcoDelta::RetargetClock(self.design.sdc().clock_period));
                    self.design.sdc_mut().clock_period = *p;
                }
            }
        }
        touched.sort_unstable();
        touched.dedup();
        (inverse, touched)
    }

    /// One analysis pass over the current state in `mode`, timing it
    /// into the matching stats counter. `touched` is the union of cells
    /// the preceding mutations displaced or retyped.
    fn analyze_in(&mut self, mode: EcoMode, touched: &[CellId]) {
        let start = Instant::now();
        match mode {
            EcoMode::Incremental => {
                self.sta
                    .analyze_incremental(&self.design, &self.placement, touched);
                self.congestion
                    .analyze_incremental(&self.design, &self.placement, touched);
            }
            EcoMode::Full => {
                self.sta.analyze(&self.design, &self.placement);
                self.congestion.analyze(&self.design, &self.placement);
            }
        }
        let ns = start.elapsed().as_nanos() as u64;
        match mode {
            EcoMode::Incremental => self.stats.incremental_ns += ns,
            EcoMode::Full => self.stats.full_ns += ns,
        }
        self.touched_bins = self.congestion.last_dirty_bins().to_vec();
    }

    /// Applies one batch: validates it whole, journals the inverse,
    /// mutates, and re-analyzes once in the current mode. Returns the
    /// dirty summary of the batch.
    ///
    /// # Errors
    ///
    /// Returns the first validation failure; the session is untouched.
    pub fn apply(&mut self, batch: &DeltaBatch) -> Result<DirtySummary, EcoError> {
        let _span = tdp_trace::span("eco.apply", "eco");
        self.validate(batch)?;
        let (inverse, touched) = self.mutate(batch.deltas());
        self.journal.push(inverse);
        self.last_dirty = DirtySummary::from_moved_cells(&self.design, &touched);
        self.stats.dirty_nets += self.last_dirty.dirty_nets.len() as u64;
        self.analyze_in(self.mode, &touched);
        Ok(self.last_dirty.clone())
    }

    /// Reverts the most recent batch.
    ///
    /// # Errors
    ///
    /// [`EcoError::BadCheckpoint`] when the journal is empty.
    pub fn revert(&mut self) -> Result<(), EcoError> {
        let depth = self.journal.len();
        if depth == 0 {
            return Err(EcoError::BadCheckpoint {
                requested: 0,
                depth,
            });
        }
        self.revert_to(depth - 1)
    }

    /// Reverts every batch applied after `checkpoint` (a value from
    /// [`EcoSession::checkpoint`]), then re-analyzes once in the
    /// current mode.
    ///
    /// # Errors
    ///
    /// [`EcoError::BadCheckpoint`] when `checkpoint` exceeds the
    /// journal depth.
    pub fn revert_to(&mut self, checkpoint: usize) -> Result<(), EcoError> {
        let _span = tdp_trace::span("eco.revert", "eco");
        let depth = self.journal.len();
        if checkpoint > depth {
            return Err(EcoError::BadCheckpoint {
                requested: checkpoint,
                depth,
            });
        }
        let mut touched: Vec<CellId> = Vec::new();
        while self.journal.len() > checkpoint {
            let inverse = self.journal.pop().expect("depth checked");
            // Inverse deltas restore pre-batch state when applied in
            // reverse order.
            for delta in inverse.iter().rev() {
                match delta {
                    EcoDelta::MoveCells(moves) => {
                        for m in moves {
                            self.placement.set(m.cell, m.x, m.y);
                            touched.push(m.cell);
                        }
                    }
                    EcoDelta::ResizeCells(resizes) => {
                        for &(c, ty) in resizes {
                            self.design
                                .set_cell_type(c, ty)
                                .expect("inverse restores a master that fit before");
                            self.sta.apply_resize(&self.design, c);
                            touched.push(c);
                        }
                    }
                    EcoDelta::RetargetClock(p) => {
                        self.design.sdc_mut().clock_period = *p;
                    }
                }
            }
        }
        touched.sort_unstable();
        touched.dedup();
        self.last_dirty = DirtySummary::from_moved_cells(&self.design, &touched);
        self.analyze_in(self.mode, &touched);
        Ok(())
    }

    /// Re-answers from the current state through an explicit analysis
    /// path (e.g. a full-path cross-check of an incremental answer)
    /// without changing the session mode. Incremental re-analysis
    /// reuses the last batch's touched set.
    pub fn reanalyze(&mut self, mode: EcoMode) {
        let touched = self.last_dirty.moved_cells.clone();
        self.analyze_in(mode, &touched);
    }

    /// Reads out the current analysis: timing and congestion summaries,
    /// up to `max_paths` worst paths through the dirty endpoints, the
    /// touched-bin list and the placement hash. Pure readout — the
    /// analyzers are not re-run.
    pub fn query(&mut self, max_paths: usize) -> EcoQueryResult {
        let _span = tdp_trace::span("eco.query", "eco");
        self.stats.queries += 1;
        let dirty_nets = &self.last_dirty.dirty_nets;
        // Endpoints whose input net the last batch dirtied, most
        // critical first; the global worst endpoints when the batch
        // dirtied none (e.g. a pure clock retarget or a fresh session).
        let mut picked: Vec<&sta::EndpointSlack> = self
            .sta
            .endpoint_slacks()
            .iter()
            .filter(|e| {
                self.design
                    .pin(e.pin)
                    .net
                    .is_some_and(|n| dirty_nets.binary_search(&n).is_ok())
            })
            .take(max_paths)
            .collect();
        if picked.is_empty() {
            picked = self.sta.endpoint_slacks().iter().take(max_paths).collect();
        }
        let worst_paths = picked
            .into_iter()
            .map(|e| self.backtrace(e.pin, e.slack))
            .collect();
        EcoQueryResult {
            timing: self.sta.summary(),
            congestion: self.congestion.summary(),
            worst_paths,
            touched_bins: self.touched_bins.clone(),
            placement_hash: self.placement.content_hash(),
            clock_period: self.design.sdc().clock_period,
            dirty_nets: dirty_nets.len(),
        }
    }

    /// Walks the worst-predecessor chain from an endpoint to its
    /// startpoint.
    fn backtrace(&self, endpoint: PinId, slack: f64) -> EcoPath {
        let mut pin = endpoint;
        let mut length = 1usize;
        while let Some(arc) = self.sta.worst_pred(pin) {
            pin = self.sta.graph().arc(arc).from;
            length += 1;
        }
        EcoPath {
            endpoint: self.design.pin_label(endpoint),
            startpoint: self.design.pin_label(pin),
            slack,
            arrival: self.sta.arrival(endpoint).unwrap_or(f64::NEG_INFINITY),
            length,
        }
    }
}

/// Builds a [`Session`] for a generated case and opens an [`EcoSession`]
/// over it — the shared open path of the CLI, the differential tests
/// and the perf kernels.
///
/// # Errors
///
/// Returns the session-construction failure as a message.
pub fn open_case_session(params: &CircuitParams, threads: usize) -> Result<EcoSession, String> {
    let (design, pads) = benchgen::generate(params);
    let session = Session::builder(design, pads)
        .build()
        .map_err(|e| format!("session: {e}"))?;
    Ok(EcoSession::open(&session, rc_params_for(params), threads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use benchgen::{eco_stress, EcoStressParams};

    fn small_session() -> EcoSession {
        let params = CircuitParams::small("ecolib", 3);
        open_case_session(&params, 1).unwrap()
    }

    fn stream_for(eco: &EcoSession, seed: u64) -> Vec<DeltaBatch> {
        let params = EcoStressParams::at_churn(seed, 0.02, 3);
        eco_stress(eco.design(), eco.placement(), &params)
            .iter()
            .map(DeltaBatch::from_step)
            .collect()
    }

    #[test]
    fn apply_then_revert_restores_the_state_bitwise() {
        let mut eco = small_session();
        // Path selection follows the dirty sets (which a revert
        // legitimately changes), so restore equality is compared on the
        // path-free readout.
        let before = eco.query(0);
        let batches = stream_for(&eco, 7);
        for batch in &batches {
            eco.apply(batch).unwrap();
        }
        let edited = eco.query(0);
        assert_ne!(before.content_hash(), edited.content_hash());
        eco.revert_to(0).unwrap();
        let after = eco.query(0);
        assert_eq!(before.content_hash(), after.content_hash());
        assert_eq!(before.placement_hash, after.placement_hash);
        assert_eq!(before.congestion.map_hash, after.congestion.map_hash);
    }

    #[test]
    fn incremental_and_full_modes_agree_bitwise() {
        let mut inc = small_session();
        let mut full = small_session();
        full.set_mode(EcoMode::Full);
        let batches = stream_for(&inc, 11);
        let clock = inc.design().sdc().clock_period;
        for batch in &batches {
            let batch = batch.clone().retarget_clock(clock * 0.95);
            inc.apply(&batch).unwrap();
            full.apply(&batch).unwrap();
            // Exclude incremental-path artifacts, compare the answers.
            assert_eq!(inc.query(4).content_hash(), full.query(4).content_hash());
        }
        let stats = inc.stats();
        assert!(stats.incremental_ns > 0 && stats.full_ns == 0);
        assert_eq!(stats.queries, batches.len() as u64);
    }

    #[test]
    fn checkpoints_revert_to_intermediate_states() {
        let mut eco = small_session();
        let batches = stream_for(&eco, 13);
        eco.apply(&batches[0]).unwrap();
        let cp = eco.checkpoint();
        let at_cp = eco.query(0);
        eco.apply(&batches[1]).unwrap();
        eco.apply(&batches[2]).unwrap();
        eco.revert_to(cp).unwrap();
        assert_eq!(eco.query(0).content_hash(), at_cp.content_hash());
        // Reverting the remaining batch drains the journal; one more is
        // an error.
        eco.revert().unwrap();
        assert_eq!(eco.checkpoint(), 0);
        assert!(matches!(eco.revert(), Err(EcoError::BadCheckpoint { .. })));
    }

    #[test]
    fn delta_json_round_trips() {
        let eco = small_session();
        let design = eco.design();
        let batches = stream_for(&eco, 17);
        for batch in &batches {
            let batch = batch.clone().retarget_clock(812.5);
            let json = batch.to_json(design);
            let parsed = delta_batch_from_json(design, &json).unwrap();
            assert_eq!(batch, parsed);
        }
        assert!(delta_batch_from_json(design, &JsonValue::Num(3.0)).is_err());
        let bad = tdp_jsonio::parse(r#"[{"op": "explode"}]"#).unwrap();
        assert!(delta_batch_from_json(design, &bad)
            .unwrap_err()
            .contains("unknown op"));
    }

    #[test]
    fn invalid_batches_are_rejected_without_side_effects() {
        let mut eco = small_session();
        let before = eco.query(2);
        let fixed = eco
            .design()
            .cell_ids()
            .find(|&c| eco.design().cell(c).fixed)
            .unwrap();
        let bad_cases = [
            DeltaBatch::new().move_cells(vec![CellMove {
                cell: fixed,
                x: 1.0,
                y: 1.0,
            }]),
            DeltaBatch::new().move_cells(vec![CellMove {
                cell: CellId::new(eco.design().num_cells()),
                x: 1.0,
                y: 1.0,
            }]),
            DeltaBatch::new().retarget_clock(-1.0),
            DeltaBatch::new().retarget_clock(f64::NAN),
        ];
        for batch in &bad_cases {
            assert!(eco.apply(batch).is_err());
        }
        assert_eq!(eco.checkpoint(), 0);
        assert_eq!(eco.query(2).content_hash(), before.content_hash());
    }

    #[test]
    fn query_reports_dirty_state_and_paths() {
        let mut eco = small_session();
        let batches = stream_for(&eco, 23);
        let dirty = eco.apply(&batches[0]).unwrap();
        assert!(!dirty.dirty_nets.is_empty());
        let q = eco.query(3);
        assert_eq!(q.dirty_nets, dirty.dirty_nets.len());
        assert!(!q.worst_paths.is_empty());
        for p in &q.worst_paths {
            assert!(p.length >= 1);
            assert!(p.endpoint.contains('/'));
        }
        // The wire form parses back and carries the hex hashes.
        let json = q.to_json();
        let parsed = tdp_jsonio::parse(&json.encode()).unwrap();
        assert_eq!(
            parsed.get("query_hash").and_then(JsonValue::as_str),
            Some(format!("{:#018x}", q.content_hash()).as_str())
        );
    }
}
