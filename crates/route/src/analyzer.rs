//! The RUDY estimator as an incremental analyzer, in the mould of the
//! workspace's timing layer.
//!
//! Wire demand is summed in fixed point: each bin holds an `i64` count
//! of `2^-S` units, every net's amount is rounded once into it, and the
//! scale `2^S` is chosen from a bound no bin's demand can exceed (see
//! [`CongestionAnalyzer::new`]). The pin overlay is a per-bin pin count
//! times `pin_weight`. Integer addition is associative, so the order
//! contributions arrive in never matters, and:
//!
//! * [`CongestionAnalyzer::analyze`] computes every net's clamped box
//!   through a [`parx`] kernel and adds the boxes' demand in one serial
//!   pass; the map is **bit-identical for every thread count**;
//! * [`CongestionAnalyzer::analyze_changes`] re-walks the stored box of
//!   each dirty net with a minus sign (the same float operations on the
//!   same values, so its integers cancel exactly), adds the new box and
//!   moves the moved cells' pin counts; the incremental map is
//!   **bitwise identical** to a full analysis of the same placement.
//!
//! The per-net **exposure** ([`CongestionAnalyzer::exposures`]) condenses
//! the map back onto nets: the overflow a net's bounding box overlaps,
//! weighted by how much of the box lies in each bin. The congestion-aware
//! placement objective in `tdp-core` turns exposures into a
//! differentiable bounding-box shrink force.

use crate::geom::{half_perimeter, Geom, NetBox};
use crate::{CongestionMap, CongestionReport, RouteConfig};
use netlist::{CellId, Design, DirtySummary, NetId, Placement};
use parx::UnsafeSlice;

/// The fixed-point headroom: no bin's wire demand exceeds `2^62` units,
/// half of `i64::MAX`, which leaves room for the per-contribution
/// rounding.
const LIMIT: f64 = (1u64 << 62) as f64;

/// The RUDY congestion estimator: full and incremental rasterization of
/// a design's routing demand onto a [`CongestionMap`], bit-identical
/// across thread counts and across the full-vs-incremental axis.
#[derive(Debug)]
pub struct CongestionAnalyzer {
    cfg: RouteConfig,
    threads: usize,
    /// `2^S`: wire demand is stored in units of `1 / scale`.
    scale: f64,
    /// Per-net clamped box whose demand `wire` holds (unset for sub-2-pin
    /// nets).
    net_box: Vec<NetBox>,
    /// Per-net extent-floored half-perimeter (0 for sub-2-pin nets).
    net_perimeter: Vec<f64>,
    /// Per-pin bin of the pin overlay.
    pin_bin: Vec<u32>,
    /// Per-bin wire demand in units of `1 / scale`.
    wire: Vec<i64>,
    /// Per-bin pin count.
    pins: Vec<u32>,
    map: CongestionMap,
    exposure: Vec<f64>,
    /// The exposure vector is refreshed lazily: analyses mark it stale
    /// and [`CongestionAnalyzer::exposures`] recomputes it on demand, so
    /// callers that only read the map (the ECO query path) never pay the
    /// all-nets fold.
    exposure_stale: bool,
    /// Bins the last incremental pass touched (sorted, deduped); empty
    /// after a full analysis. See [`CongestionAnalyzer::last_dirty_bins`].
    last_dirty_bins: Vec<u32>,
    analyzed: bool,
}

impl CongestionAnalyzer {
    /// Builds an analyzer for `design` (no placement needed yet).
    ///
    /// The wire scale `2^S` is the largest power of two with
    /// `bound · 2^S ≤ 2^62`, where `bound = num_nets · (die_w + die_h)`
    /// (at least 1): a clamped, floored box has a half-perimeter of at
    /// most `die_w + die_h`, and its amounts sum to that half-perimeter,
    /// so no bin can hold more than `bound`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`RouteConfig::validate`] — analyzers are
    /// built from already-validated flow configurations; validate at the
    /// API boundary for hostile input — or if the die is not finite.
    pub fn new(design: &Design, cfg: RouteConfig) -> Self {
        cfg.validate().expect("validated route configuration");
        let geom = Geom::new(design, &cfg);
        let (num_pins, num_nets) = (design.num_pins(), design.num_nets());
        let die = design.die();
        let bound = (num_nets as f64 * (die.width() + die.height())).max(1.0);
        // bound · 2^s lies in [2^62, 2^63) up to log2's rounding; step
        // down until it fits.
        let mut s = 62 - bound.log2().floor() as i32;
        while bound * 2f64.powi(s) > LIMIT {
            s -= 1;
        }
        let scale = 2f64.powi(s);
        assert!(bound * scale <= LIMIT, "route demand bound overflows i64");
        Self {
            threads: 1,
            scale,
            net_box: vec![[0.0; 4]; num_nets],
            net_perimeter: vec![0.0; num_nets],
            pin_bin: vec![0; num_pins],
            wire: vec![0; geom.num_bins()],
            pins: vec![0; geom.num_bins()],
            map: CongestionMap::empty(geom, cfg.capacity),
            exposure: vec![0.0; num_nets],
            exposure_stale: false,
            last_dirty_bins: Vec::new(),
            analyzed: false,
            cfg,
        }
    }

    /// Sets the worker count for the net-box, summary and exposure
    /// kernels (`0` = one per hardware thread; results are bit-identical
    /// for every value).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// [`CongestionAnalyzer::with_threads`] in place, for analyzers
    /// cached across runs with different thread knobs.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads;
    }

    /// The configuration the analyzer was built with.
    pub fn config(&self) -> &RouteConfig {
        &self.cfg
    }

    /// Whether a map has been computed yet.
    pub fn is_analyzed(&self) -> bool {
        self.analyzed
    }

    /// The current congestion map.
    ///
    /// # Panics
    ///
    /// Panics if no analysis has run yet.
    pub fn map(&self) -> &CongestionMap {
        assert!(self.analyzed, "no congestion analysis has run");
        &self.map
    }

    /// The current map's summary (computed with the analyzer's worker
    /// count; bit-identical to a serial reduction).
    ///
    /// # Panics
    ///
    /// Panics if no analysis has run yet.
    pub fn summary(&self) -> CongestionReport {
        self.map().summary_with_threads(self.threads)
    }

    /// Per-net congestion exposure: for net `e`,
    /// `Σ_b max(0, utilization_b − 1) · overlap_frac(e, b)` over the bins
    /// its bounding box covers. Zero for nets clear of overflow.
    ///
    /// Recomputed lazily from the current map on first read after an
    /// analysis — a pure fold over per-net state, so the values are
    /// bitwise identical to an eager refresh for any thread count.
    ///
    /// # Panics
    ///
    /// Panics if no analysis has run yet.
    pub fn exposures(&mut self) -> &[f64] {
        assert!(self.analyzed, "no congestion analysis has run");
        if self.exposure_stale {
            self.refresh_exposure(parx::resolve_threads(self.threads));
            self.exposure_stale = false;
        }
        &self.exposure
    }

    /// Full analysis: computes every net's box and every pin's bin,
    /// then sums them per bin.
    pub fn analyze(&mut self, design: &Design, placement: &Placement) {
        let _span = tdp_trace::span("route.analyze", "route");
        let (geom, min_extent) = (self.map.geom, self.cfg.min_extent);
        let boxes = UnsafeSlice::new(&mut self.net_box);
        let perimeters = UnsafeSlice::new(&mut self.net_perimeter);
        let (workers, n) = (parx::resolve_threads(self.threads), design.num_nets());
        parx::par_for_named(workers, n, 32, "route.rasterize.nets", |range| {
            for e in range {
                let net_box = geom.net_box(min_extent, design, placement, NetId::new(e));
                // SAFETY: slot `e` belongs to this chunk alone.
                unsafe {
                    perimeters.write(e, net_box.as_ref().map_or(0.0, half_perimeter));
                    boxes.write(e, net_box.unwrap_or_default());
                }
            }
        });
        self.wire.fill(0);
        for (net_box, &perimeter) in self.net_box.iter().zip(&self.net_perimeter) {
            if perimeter > 0.0 {
                add_demand(&geom, self.scale, net_box, 1, &mut self.wire, None);
            }
        }
        self.pins.fill(0);
        for (p, bin) in design.pin_ids().zip(&mut self.pin_bin) {
            let (x, y) = placement.pin_position(design, p);
            *bin = geom.bin_of(x, y);
            self.pins[*bin as usize] += 1;
        }
        self.refresh_blockage(design, placement);
        for b in 0..geom.num_bins() {
            self.refresh_demand(b);
        }
        self.exposure_stale = true;
        self.last_dirty_bins.clear();
        self.analyzed = true;
    }

    /// Bin indices (row-major) the last [`CongestionAnalyzer::analyze_changes`]
    /// touched, sorted ascending and deduplicated — the "touched bins" of
    /// an ECO delta: every bin a dirty net's old or new box puts demand
    /// on, plus (when `pin_weight > 0`) every old and new bin of a moved
    /// cell's pins. Empty after a full [`CongestionAnalyzer::analyze`]
    /// (which touches every bin) and after a no-op incremental pass.
    pub fn last_dirty_bins(&self) -> &[u32] {
        &self.last_dirty_bins
    }

    /// Incremental analysis: replaces the demand of the dirty nets and
    /// the moved cells' pins of `changes`, and recomputes only the
    /// touched bins. Bitwise identical to [`CongestionAnalyzer::analyze`]
    /// of the same placement: a purely runtime optimization, exactly like
    /// the incremental STA.
    ///
    /// Falls back to a full analysis when none has run yet.
    pub fn analyze_changes(
        &mut self,
        design: &Design,
        placement: &Placement,
        changes: &DirtySummary,
    ) {
        if !self.analyzed {
            return self.analyze(design, placement);
        }
        let (nets, cells) = (&changes.dirty_nets[..], &changes.moved_cells[..]);
        self.last_dirty_bins.clear();
        if cells.is_empty() {
            return;
        }
        let mut touched = std::mem::take(&mut self.last_dirty_bins);
        let _span = tdp_trace::span("route.incremental", "route");
        let (geom, scale) = (self.map.geom, self.scale);
        for &net in nets {
            let e = net.index();
            if self.net_perimeter[e] > 0.0 {
                let old = &self.net_box[e];
                add_demand(&geom, scale, old, -1, &mut self.wire, Some(&mut touched));
            }
            let net_box = geom.net_box(self.cfg.min_extent, design, placement, net);
            if let Some(net_box) = &net_box {
                add_demand(&geom, scale, net_box, 1, &mut self.wire, Some(&mut touched));
            }
            self.net_perimeter[e] = net_box.as_ref().map_or(0.0, half_perimeter);
            self.net_box[e] = net_box.unwrap_or_default();
        }
        for &cell in cells {
            for p in design.cell_pins(cell) {
                let (x, y) = placement.pin_position(design, p);
                let bin = geom.bin_of(x, y);
                let old = std::mem::replace(&mut self.pin_bin[p.index()], bin);
                self.pins[old as usize] -= 1;
                self.pins[bin as usize] += 1;
                if self.cfg.pin_weight > 0.0 {
                    touched.extend([old, bin]);
                }
            }
        }
        touched.sort_unstable();
        touched.dedup();

        // Fixed cells never move in a placement flow, so blockage is
        // normally untouched here — but a caller that relocates one must
        // still get a correct (and full-equivalent) map.
        if cells.iter().any(|&c| design.cell(c).fixed) {
            self.refresh_blockage(design, placement);
        }
        for &b in &touched {
            self.refresh_demand(b as usize);
        }
        self.exposure_stale = true;
        self.last_dirty_bins = touched;
    }

    /// [`CongestionAnalyzer::analyze_changes`] for a plain list of moved
    /// cells; `moved` may be in any order and repeat cells.
    pub fn analyze_incremental(
        &mut self,
        design: &Design,
        placement: &Placement,
        moved: &[CellId],
    ) {
        let changes = DirtySummary::from_moved_cells(design, moved);
        self.analyze_changes(design, placement, &changes);
    }

    /// Recomputes the effective per-bin capacity from the fixed-cell
    /// footprints in `placement`: each bin loses `macro_blockage` of its
    /// capacity per unit of covered area. Serial in cell order —
    /// deterministic, and cheap (fixed cells are few).
    fn refresh_blockage(&mut self, design: &Design, placement: &Placement) {
        let geom = self.map.geom;
        let bin_area = geom.bin_w * geom.bin_h;
        let mut covered = vec![0.0f64; geom.num_bins()];
        if self.cfg.macro_blockage > 0.0 {
            for c in design.cell_ids() {
                if !design.cell(c).fixed {
                    continue;
                }
                let (x, y) = placement.get(c);
                let ty = design.cell_type(c);
                let x0 = x.clamp(geom.lx, geom.ux);
                let x1 = (x + ty.width).clamp(geom.lx, geom.ux);
                let y0 = y.clamp(geom.ly, geom.uy);
                let y1 = (y + ty.height).clamp(geom.ly, geom.uy);
                if x1 <= x0 || y1 <= y0 {
                    continue;
                }
                geom.for_each_overlap(x0, y0, x1, y1, |b, _, _, ox, oy| covered[b] += ox * oy);
            }
        }
        for (b, &area) in covered.iter().enumerate() {
            let frac = (area / bin_area).min(1.0);
            self.map.cap[b] = self.map.base_capacity * (1.0 - self.cfg.macro_blockage * frac);
        }
    }

    /// Converts bin `b`'s fixed-point wire sum and pin count into the
    /// map's demand.
    fn refresh_demand(&mut self, b: usize) {
        self.map.demand[b] =
            self.wire[b] as f64 / self.scale + f64::from(self.pins[b]) * self.cfg.pin_weight;
    }

    /// Recomputes every net's exposure from the current map (slot-
    /// disjoint per net; each net re-walks its stored box).
    fn refresh_exposure(&mut self, workers: usize) {
        let geom = self.map.geom;
        let (cap, demand) = (&self.map.cap, &self.map.demand);
        let (net_box, net_perimeter) = (&self.net_box, &self.net_perimeter);
        let slots = UnsafeSlice::new(&mut self.exposure);
        parx::par_for(workers, net_box.len(), 64, |range| {
            for e in range {
                let perimeter = net_perimeter[e];
                let mut acc = 0.0f64;
                if perimeter > 0.0 {
                    geom.for_each_demand(&net_box[e], |bin, amount| {
                        let over = demand[bin] / cap[bin] - 1.0;
                        if over > 0.0 {
                            // amount / perimeter is the fraction of the
                            // net's bbox area inside this bin.
                            acc += over * (amount / perimeter);
                        }
                    });
                }
                // SAFETY: slot `e` is written by this chunk alone.
                unsafe { slots.write(e, acc) };
            }
        });
    }
}

/// Adds `sign` times one net box's demand to `wire`, each amount rounded
/// once to units of `1 / scale`, and records the bins it covers in
/// `touched`.
fn add_demand(
    geom: &Geom,
    scale: f64,
    net_box: &NetBox,
    sign: i64,
    wire: &mut [i64],
    mut touched: Option<&mut Vec<u32>>,
) {
    geom.for_each_demand(net_box, |bin, amount| {
        wire[bin] += sign * (amount * scale).round() as i64;
        if let Some(touched) = touched.as_deref_mut() {
            touched.push(bin as u32);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{cfg, toy};
    use netlist::{CellLibrary, DesignBuilder, Rect};

    #[test]
    fn fixed_footprints_block_capacity() {
        let (d, p, _) = toy();
        let mut a = CongestionAnalyzer::new(&d, cfg());
        a.analyze(&d, &p);
        let map = a.map();
        // The input pad sits at (0, 50): the bin containing it must have
        // lost capacity; an empty interior bin keeps the base.
        let pad_bin_cap = map.capacity(0, 4);
        assert!(
            pad_bin_cap < map.capacity_per_bin(),
            "pad bin {} vs base {}",
            pad_bin_cap,
            map.capacity_per_bin()
        );
        assert!(pad_bin_cap > 0.0, "blockage < 1 keeps capacity positive");
        assert_eq!(map.capacity(4, 0), map.capacity_per_bin());
        // Blockage raises utilization, never demand.
        let mut clear = CongestionAnalyzer::new(
            &d,
            RouteConfig {
                macro_blockage: 0.0,
                ..cfg()
            },
        );
        clear.analyze(&d, &p);
        assert_eq!(
            clear.map().content_hash(),
            map.content_hash(),
            "demand is blockage-independent"
        );
        assert!(clear.summary().peak <= a.summary().peak);
    }

    /// A plain `f64` RUDY reference: every net box's amounts summed per
    /// bin in net id order (boxes from `pin_position`), the number of amounts
    /// each bin received, and the pin overlay.
    fn reference(
        design: &Design,
        placement: &Placement,
        cfg: RouteConfig,
    ) -> (Vec<f64>, Vec<usize>) {
        let geom = Geom::new(design, &cfg);
        let mut demand = vec![0.0; geom.num_bins()];
        let mut amounts = vec![0usize; geom.num_bins()];
        for net in design.net_ids() {
            let pins = design.net_pins(net);
            if pins.len() < 2 {
                continue;
            }
            let (mut x0, mut x1) = (f64::INFINITY, f64::NEG_INFINITY);
            let (mut y0, mut y1) = (f64::INFINITY, f64::NEG_INFINITY);
            for &p in pins {
                let (px, py) = placement.pin_position(design, p);
                x0 = x0.min(px);
                x1 = x1.max(px);
                y0 = y0.min(py);
                y1 = y1.max(py);
            }
            let [(x0, x1, _), (y0, y1, _)] = geom.clamp_box(x0, y0, x1, y1, cfg.min_extent);
            let (w, h) = (x1 - x0, y1 - y0);
            let density = (w + h) / (w * h);
            geom.for_each_overlap(x0, y0, x1, y1, |b, _, _, ox, oy| {
                let amount = density * ox * oy;
                if amount > 0.0 {
                    demand[b] += amount;
                    amounts[b] += 1;
                }
            });
        }
        for p in design.pin_ids() {
            let (x, y) = placement.pin_position(design, p);
            demand[geom.bin_of(x, y) as usize] += cfg.pin_weight;
        }
        (demand, amounts)
    }

    /// One suite case (`sb18`) with its movable cells spread over the
    /// die along two irrational strides, so its boxes span many bins.
    fn suite_case() -> (Design, Placement) {
        let case = benchgen::case_by_name("sb18").expect("suite case");
        let (design, mut placement) = benchgen::generate(&case.params);
        let die = design.die();
        for (i, c) in design.cell_ids().enumerate() {
            if !design.cell(c).fixed {
                let (fx, fy) = (
                    (i as f64 * 0.618_034).fract(),
                    (i as f64 * 0.414_214).fract(),
                );
                let x = die.lx + fx * (die.width() - 8.0);
                placement.set(c, x, die.ly + fy * (die.height() - 10.0));
            }
        }
        (design, placement)
    }

    /// Heap bytes of the analyzer's own state (capacity × element size),
    /// without the map snapshot it hands out (capacity and demand, 16 B
    /// a bin, sized by the grid alone).
    fn bytes(a: &CongestionAnalyzer) -> usize {
        fn of<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        of(&a.net_box)
            + of(&a.net_perimeter)
            + of(&a.pin_bin)
            + of(&a.wire)
            + of(&a.pins)
            + of(&a.exposure)
            + of(&a.last_dirty_bins)
    }

    #[test]
    fn demand_is_conserved() {
        let (toy_design, toy_placement, _) = toy();
        let (sb_design, sb_placement) = suite_case();
        for (d, p, cfg) in [
            (&toy_design, &toy_placement, cfg()),
            (&sb_design, &sb_placement, RouteConfig::default()),
        ] {
            let mut a = CongestionAnalyzer::new(d, cfg);
            a.analyze(d, p);
            // Every bin matches the float reference within half a unit
            // per rounded amount, plus the reference's own float error.
            let (want, amounts) = reference(d, p, cfg);
            let unit = 1.0 / a.scale;
            for (b, (&want, &n)) in want.iter().zip(&amounts).enumerate() {
                let got = a.map.demand[b];
                let tol = n as f64 * 0.5 * unit + 4.0 * (n + 2) as f64 * f64::EPSILON * want;
                assert!(
                    (got - want).abs() <= tol,
                    "bin {b}: {got} vs {want} (±{tol})"
                );
            }
            // Wire demand sums to the floored half-perimeters; pin demand
            // is pin count times the weight.
            let wire = a.wire.iter().sum::<i64>() as f64 * unit;
            let expected_wire: f64 = a.net_perimeter.iter().sum();
            assert!(
                (wire - expected_wire).abs() <= 1e-9 * expected_wire.max(1.0),
                "wire {wire} vs Σ perimeters {expected_wire}"
            );
            assert_eq!(a.pins.iter().sum::<u32>() as usize, d.num_pins());
        }
    }

    #[test]
    fn analyzer_bytes_grow_by_at_most_twelve_per_bin() {
        let (d, p) = suite_case();
        let at = |bins: usize| {
            let cfg = RouteConfig {
                bins_x: bins,
                bins_y: bins,
                ..RouteConfig::default()
            };
            let mut a = CongestionAnalyzer::new(&d, cfg);
            a.analyze(&d, &p);
            bytes(&a)
        };
        let (coarse, fine) = (at(32), at(128));
        let added_bins = 128 * 128 - 32 * 32;
        assert!(
            fine <= coarse + 12 * added_bins,
            "{coarse} B at 32×32, {fine} B at 128×128: more than 12 B per added bin"
        );
    }

    #[test]
    fn a_billion_unit_die_stays_in_range_and_incremental_matches_full() {
        let mut b = DesignBuilder::new(
            "wide",
            CellLibrary::standard(),
            Rect::new(0.0, 0.0, 1e9, 1e9),
            10.0,
        );
        let u1 = b.add_cell("u1", "INV_X1").unwrap();
        let u2 = b.add_cell("u2", "INV_X1").unwrap();
        let u3 = b.add_cell("u3", "NAND2_X1").unwrap();
        b.add_net("n0", &[(u1, "Y"), (u2, "A"), (u3, "A")]).unwrap();
        b.add_net("n1", &[(u2, "Y"), (u3, "B")]).unwrap();
        let d = b.finish().unwrap();
        let mut p = Placement::new(&d);
        p.set(u1, 1.0e8, 2.0e8);
        p.set(u2, 9.0e8, 3.0e8);
        p.set(u3, 4.0e8, 9.9e8);
        let mut inc = CongestionAnalyzer::new(&d, cfg());
        let bound = d.num_nets() as f64 * 2e9;
        assert!(bound * inc.scale <= (1u64 << 62) as f64);
        inc.analyze(&d, &p);
        assert!(inc.map().total_demand().is_finite());
        p.set(u2, 5.0e8, 5.0e8);
        inc.analyze_incremental(&d, &p, &[u2]);
        let mut full = CongestionAnalyzer::new(&d, cfg());
        full.analyze(&d, &p);
        assert!(full.map().total_demand().is_finite());
        assert_eq!(full.map().content_hash(), inc.map().content_hash());
        for (a, b) in full.exposures().iter().zip(inc.exposures()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn summary_reports_overflow() {
        let (d, p, _) = toy();
        // Absurdly low capacity: everything overflows.
        let mut a = CongestionAnalyzer::new(
            &d,
            RouteConfig {
                capacity: 1e-6,
                ..cfg()
            },
        );
        a.analyze(&d, &p);
        let s = a.summary();
        assert!(s.peak > 1.0);
        assert!(s.overflow > 0.0);
        assert!(s.overflow_bins > 0);
        assert!(s.average <= s.peak);
        assert_eq!(s.map_hash, a.map().content_hash());
        // Generous capacity: nothing overflows, exposures are all zero.
        let mut b = CongestionAnalyzer::new(
            &d,
            RouteConfig {
                capacity: 1e6,
                ..cfg()
            },
        );
        b.analyze(&d, &p);
        assert_eq!(b.summary().overflow_bins, 0);
        assert!(b.exposures().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn thread_count_does_not_change_a_single_bit() {
        let (d, p, _) = toy();
        let mut serial = CongestionAnalyzer::new(&d, cfg()).with_threads(1);
        serial.analyze(&d, &p);
        for threads in [2, 7] {
            let mut par = CongestionAnalyzer::new(&d, cfg()).with_threads(threads);
            par.analyze(&d, &p);
            assert_eq!(
                serial.map().content_hash(),
                par.map().content_hash(),
                "threads={threads}"
            );
            for (a, b) in serial.exposures().iter().zip(par.exposures()) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn incremental_matches_full_bitwise() {
        let (d, mut p, movable) = toy();
        let mut inc = CongestionAnalyzer::new(&d, cfg());
        inc.analyze(&d, &p);
        // Move two cells, update incrementally, compare against a cold
        // full analysis of the new placement.
        p.set(movable[0], 75.0, 15.0);
        p.set(movable[2], 10.0, 80.0);
        inc.analyze_incremental(&d, &p, &[movable[0], movable[2]]);
        let mut full = CongestionAnalyzer::new(&d, cfg());
        full.analyze(&d, &p);
        assert_eq!(full.map().content_hash(), inc.map().content_hash());
        for (a, b) in full.exposures().iter().zip(inc.exposures()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // An empty moved set is a no-op.
        let before = inc.map().content_hash();
        inc.analyze_incremental(&d, &p, &[]);
        assert_eq!(before, inc.map().content_hash());
    }

    #[test]
    fn degenerate_nets_get_floored_extents() {
        // Two pins at the same point: the bbox is floored to
        // min_extent², demand stays finite and positive.
        let (d, mut p, movable) = toy();
        for &c in &movable {
            p.set(c, 50.0, 50.0);
        }
        let mut a = CongestionAnalyzer::new(&d, cfg());
        a.analyze(&d, &p);
        assert!(a.map().total_demand().is_finite());
        assert!(a.net_perimeter.iter().all(|&x| x == 0.0 || x >= 4.0));
    }
}
