//! The RUDY estimator as an incremental analyzer, in the mould of the
//! workspace's timing layer.
//!
//! * [`CongestionAnalyzer::analyze`] rasterizes every net (and every
//!   cell's pins) through [`parx`] kernels — per-net work is partitioned
//!   into thread-count-independent chunks and every per-bin reduction
//!   sums its contributions in net order, so the resulting map is
//!   **bit-identical for every thread count**.
//! * [`CongestionAnalyzer::analyze_changes`] re-rasterizes only the
//!   dirty nets and moved cells of a [`DirtySummary`] (the same change
//!   set the incremental STA consumes) and recomputes only the affected
//!   bins — again summing per bin in net order, so the incremental map
//!   is **bitwise identical** to a full analysis of the same placement.
//!
//! Both passes share one rasterization kernel and one reduction kernel;
//! they differ only in phase 2, which rebuilds the per-bin lists: the
//! full pass scatters every raster in id order, the incremental pass
//! splices just the touched bins.
//!
//! The per-net **exposure** ([`CongestionAnalyzer::exposures`]) condenses
//! the map back onto nets: the overflow a net's bounding box overlaps,
//! weighted by how much of the box lies in each bin. The congestion-aware
//! placement objective in `tdp-core` turns exposures into a
//! differentiable bounding-box shrink force.

use crate::geom::Geom;
use crate::layer::Layer;
use crate::{CongestionMap, CongestionReport, RouteConfig};
use netlist::{CellId, Design, DirtySummary, NetId, Placement};
use parx::UnsafeSlice;

/// Runs `body(id, &mut slots[id])` through one named [`parx`] kernel on
/// up to `threads` workers for every id in `ids` (every slot when `None`),
/// `slot` mapping an id to its index.
///
/// # Panics
///
/// Panics unless `ids` is strictly ascending and in bounds — the
/// condition that hands each slot to one chunk alone.
fn for_each_slot<T: Send, I: Copy + Ord + Sync>(
    threads: usize,
    slots: &mut [T],
    ids: Option<&[I]>,
    slot: fn(I) -> usize,
    min_chunk: usize,
    name: &'static str,
    body: impl Fn(usize, &mut T) + Sync,
) {
    if let Some(ids) = ids {
        assert!(
            ids.windows(2).all(|w| w[0] < w[1])
                && ids.last().is_none_or(|&id| slot(id) < slots.len()),
            "slot ids must be strictly ascending and in bounds"
        );
    }
    let n = ids.map_or(slots.len(), <[I]>::len);
    let slots = UnsafeSlice::new(slots);
    let workers = parx::resolve_threads(threads);
    parx::par_for_named(workers, n, min_chunk, name, |range| {
        for k in range {
            let id = ids.map_or(k, |ids| slot(ids[k]));
            // SAFETY: `id` is in bounds and, ids being distinct (checked
            // above), no other chunk touches slot `id`.
            body(id, unsafe { &mut slots.slice_mut(id, 1)[0] });
        }
    });
}

/// The RUDY congestion estimator: full and incremental rasterization of
/// a design's routing demand onto a [`CongestionMap`], bit-identical
/// across thread counts and across the full-vs-incremental axis.
#[derive(Debug)]
pub struct CongestionAnalyzer {
    cfg: RouteConfig,
    threads: usize,
    /// Wire demand, one raster per net.
    nets: Layer,
    /// Per-net extent-floored half-perimeter (0 for sub-2-pin nets).
    net_perimeter: Vec<f64>,
    /// Pin-overlay demand, one raster per cell.
    cells: Layer,
    map: CongestionMap,
    exposure: Vec<f64>,
    /// The exposure vector is refreshed lazily: analyses mark it stale
    /// and [`CongestionAnalyzer::exposures`] recomputes it on demand, so
    /// callers that only read the map (the ECO query path) never pay the
    /// all-nets fold.
    exposure_stale: bool,
    /// Bins re-reduced by the last incremental pass (sorted, deduped);
    /// empty after a full analysis. See
    /// [`CongestionAnalyzer::last_dirty_bins`].
    last_dirty_bins: Vec<u32>,
    analyzed: bool,
}

impl CongestionAnalyzer {
    /// Builds an analyzer for `design` (no placement needed yet).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`RouteConfig::validate`] — analyzers are
    /// built from already-validated flow configurations; validate at the
    /// API boundary for hostile input.
    pub fn new(design: &Design, cfg: RouteConfig) -> Self {
        cfg.validate().expect("validated route configuration");
        let geom = Geom::new(design, &cfg);
        let (num_cells, num_nets) = (design.num_cells(), design.num_nets());
        Self {
            threads: 1,
            nets: Layer::new(num_nets, geom.num_bins()),
            net_perimeter: vec![0.0; num_nets],
            cells: Layer::new(num_cells, geom.num_bins()),
            map: CongestionMap::empty(geom, cfg.capacity),
            exposure: vec![0.0; num_nets],
            exposure_stale: false,
            last_dirty_bins: Vec::new(),
            analyzed: false,
            cfg,
        }
    }

    /// Sets the worker count for the rasterization and reduction kernels
    /// (`0` = one per hardware thread; results are bit-identical for
    /// every value).
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

    /// Full analysis: rasterizes every net and every cell's pins, then
    /// reduces per bin.
    pub fn analyze(&mut self, design: &Design, placement: &Placement) {
        let _span = tdp_trace::span("route.analyze", "route");
        self.rasterize(design, placement, None);
        // Phase 2: scatter into per-bin lists in id order — the
        // canonical summation order the incremental splice preserves.
        self.nets.scatter();
        self.cells.scatter();
        self.refresh_blockage(design, placement);
        self.reduce_bins(None);
        self.exposure_stale = true;
        self.last_dirty_bins.clear();
        self.analyzed = true;
    }

    /// Bin indices (row-major) the last [`CongestionAnalyzer::analyze_changes`]
    /// re-reduced, sorted ascending and deduplicated — the "touched bins"
    /// of an ECO delta. Empty after a full [`CongestionAnalyzer::analyze`]
    /// (which touches every bin) and after a no-op incremental pass.
    pub fn last_dirty_bins(&self) -> &[u32] {
        &self.last_dirty_bins
    }

    /// Incremental analysis: re-rasterizes only the dirty nets and the
    /// moved cells' pin overlays of `changes`, splices the per-bin lists,
    /// and re-reduces only the affected bins. Bitwise identical to
    /// [`CongestionAnalyzer::analyze`] of the same placement: a purely
    /// runtime optimization, exactly like the incremental STA.
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
        if cells.is_empty() {
            self.last_dirty_bins.clear();
            return;
        }
        let _span = tdp_trace::span("route.incremental", "route");

        // Touched bins: covered by a dirty raster before or after phase 1.
        let mut touched: Vec<u32> = Vec::new();
        self.nets.push_bins(nets, &mut touched);
        self.cells.push_bins(cells, &mut touched);
        self.rasterize(design, placement, Some((nets, cells)));
        self.nets.push_bins(nets, &mut touched);
        self.cells.push_bins(cells, &mut touched);
        touched.sort_unstable();
        touched.dedup();
        self.nets.splice(nets, &touched);
        self.cells.splice(cells, &touched);

        // Fixed cells never move in a placement flow, so blockage is
        // normally untouched here — but a caller that relocates one must
        // still get a correct (and full-equivalent) map.
        if cells.iter().any(|&c| design.cell(c).fixed) {
            self.refresh_blockage(design, placement);
        }
        self.reduce_bins(Some(&touched));
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

    /// Phase 1: rasterizes the nets and cells listed in `dirty` (every
    /// one when `None`) into their own rasters, one slot per id, so the
    /// rasters are identical for every thread count.
    fn rasterize(
        &mut self,
        design: &Design,
        placement: &Placement,
        dirty: Option<(&[NetId], &[CellId])>,
    ) {
        let (geom, cfg) = (self.map.geom, self.cfg);
        let perimeters = UnsafeSlice::new(&mut self.net_perimeter);
        let (nets, cells) = dirty.unzip();
        for_each_slot(
            self.threads,
            &mut self.nets.entries,
            nets,
            NetId::index,
            32,
            "route.rasterize.nets",
            |e, out| {
                let perimeter =
                    geom.rasterize_net(cfg.min_extent, design, placement, NetId::new(e), out);
                // SAFETY: slot `e` belongs to this net's chunk alone.
                unsafe { perimeters.write(e, perimeter) };
            },
        );
        for_each_slot(
            self.threads,
            &mut self.cells.entries,
            cells,
            CellId::index,
            64,
            "route.rasterize.cells",
            |c, out| geom.rasterize_cell(cfg.pin_weight, design, placement, CellId::new(c), out),
        );
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

    /// Phase 3: sums each bin's wire and pin lists in list (id) order
    /// into its demand. `Some(bins)` restricts the work to those bins
    /// (the incremental path); `None` covers the whole grid.
    fn reduce_bins(&mut self, bins: Option<&[u32]>) {
        let _span = tdp_trace::span("route.reduce", "route");
        let (wire, pins) = (&self.nets.bins, &self.cells.bins);
        // In list order from +0.0 (`Iterator::sum` starts from -0.0).
        let sum = |list: &[(u32, f64)]| list.iter().fold(0.0, |s, &(_, amount)| s + amount);
        for_each_slot(
            self.threads,
            &mut self.map.demand,
            bins,
            |bin| bin as usize,
            64,
            "route.reduce.bins",
            |b, demand| *demand = sum(&wire[b]) + sum(&pins[b]),
        );
    }

    /// Recomputes every net's exposure from the current map (slot-
    /// disjoint per net; each net folds its own bins in entry order).
    fn refresh_exposure(&mut self, workers: usize) {
        let cap = &self.map.cap;
        let demand = &self.map.demand;
        let net_entries = &self.nets.entries;
        let net_perimeter = &self.net_perimeter;
        let slots = UnsafeSlice::new(&mut self.exposure);
        parx::par_for(workers, net_entries.len(), 64, |range| {
            for e in range {
                let perimeter = net_perimeter[e];
                let mut acc = 0.0f64;
                if perimeter > 0.0 {
                    for &(bin, amount) in &net_entries[e] {
                        let over = demand[bin as usize] / cap[bin as usize] - 1.0;
                        if over > 0.0 {
                            // amount / perimeter is the fraction of the
                            // net's bbox area inside this bin.
                            acc += over * (amount / perimeter);
                        }
                    }
                }
                // SAFETY: slot `e` is written by this chunk alone.
                unsafe { slots.write(e, acc) };
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{cfg, toy};

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

    #[test]
    fn demand_is_conserved() {
        let (d, p, _) = toy();
        let mut a = CongestionAnalyzer::new(&d, cfg());
        a.analyze(&d, &p);
        // Total wire demand equals the sum of floored half-perimeters;
        // pin demand equals pin count times the weight.
        let layer_total =
            |layer: &Layer| -> f64 { layer.bins.iter().flatten().map(|&(_, amount)| amount).sum() };
        let expected_wire: f64 = a.net_perimeter.iter().sum();
        let wire = layer_total(&a.nets);
        assert!(
            (wire - expected_wire).abs() <= 1e-9 * expected_wire.max(1.0),
            "wire {wire} vs Σ perimeters {expected_wire}"
        );
        let pins = layer_total(&a.cells);
        assert!((pins - d.num_pins() as f64 * 0.5).abs() < 1e-9);
        assert!(
            (a.map().total_demand() - (wire + pins)).abs() < 1e-9,
            "demand layers must add up"
        );
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
