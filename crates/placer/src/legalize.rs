//! Row legalization.
//!
//! [`abacus_legalize`] is the algorithm the paper's flow uses (Fig. 1):
//! cells are processed left-to-right; each cell is inserted into the best
//! nearby row, and within a row cells are packed by the Abacus cluster
//! dynamic program, which minimizes total squared displacement subject to
//! no overlap. [`tetris_legalize`] is a cruder greedy fallback used by
//! tests as a displacement upper bound.
//!
//! Both legalizers (and [`check_legal`]) are fixed-obstacle aware: every
//! fixed cell's footprint — IO pads sitting on boundary rows as well as
//! multi-row hard macros in the core area — is subtracted from the rows
//! it covers, and cells are packed into the remaining free
//! [`RowSegment`]s. A legal placement therefore overlaps neither other
//! movable cells nor any fixed block.

use netlist::{CellId, Design, Placement};

/// A maximal obstacle-free interval of one placement row: the unit the
/// legalizers pack cells into. Produced by [`free_segments`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowSegment {
    /// Index of the row this segment belongs to (into `design.rows()`).
    pub row: usize,
    /// Row y coordinate.
    pub y: f64,
    /// Segment x start.
    pub lx: f64,
    /// Segment x end.
    pub ux: f64,
}

/// Computes the free segments of every row after subtracting the
/// footprints of all fixed cells (at their `placement` positions). A
/// fixed cell blocks a row when its y-span overlaps the row's by more
/// than a hair; the blocked x-intervals are merged and the gaps between
/// them become segments. Zero-width gaps are dropped.
///
/// Deterministic: depends only on the design and the fixed positions.
pub fn free_segments(design: &Design, placement: &Placement) -> Vec<RowSegment> {
    const EPS: f64 = 1e-9;
    let rows = design.rows();
    let row_h = design.row_height();
    let mut blocked: Vec<Vec<(f64, f64)>> = vec![Vec::new(); rows.len()];
    for cell in design.cell_ids() {
        if !design.cell(cell).fixed {
            continue;
        }
        let (x, y) = placement.get(cell);
        let ty = design.cell_type(cell);
        let (x0, x1) = (x, x + ty.width);
        let (y0, y1) = (y, y + ty.height);
        if rows.is_empty() || x1 <= x0 {
            continue;
        }
        // Rows whose y-span genuinely overlaps [y0, y1).
        let first = ((y0 - rows[0].y) / row_h).floor().max(0.0) as usize;
        for (ri, row) in rows.iter().enumerate().skip(first) {
            if row.y >= y1 - EPS {
                break;
            }
            if row.y + row.height > y0 + EPS {
                // Clamp into the row's x-range; a footprint entirely
                // left or right of it clamps to an empty (inverted)
                // interval and must be dropped, not pushed — an
                // inverted interval would fabricate a bogus free
                // segment past the row end.
                let (b0, b1) = (x0.max(row.lx), x1.min(row.ux));
                if b1 > b0 + EPS {
                    blocked[ri].push((b0, b1));
                }
            }
        }
    }
    let mut segments = Vec::new();
    for (ri, row) in rows.iter().enumerate() {
        let intervals = &mut blocked[ri];
        intervals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        let mut cursor = row.lx;
        let mut push = |lx: f64, ux: f64| {
            if ux - lx > EPS {
                segments.push(RowSegment {
                    row: ri,
                    y: row.y,
                    lx,
                    ux,
                });
            }
        };
        for &(b0, b1) in intervals.iter() {
            if b0 > cursor {
                push(cursor, b0);
            }
            cursor = cursor.max(b1);
        }
        push(cursor, row.ux);
    }
    segments
}

/// Displacement statistics reported by the legalizers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LegalizeStats {
    /// Total Manhattan displacement over movable cells.
    pub total_displacement: f64,
    /// Largest single-cell Manhattan displacement.
    pub max_displacement: f64,
    /// Number of cells moved to a different row than their nearest.
    pub row_spills: usize,
}

/// One Abacus cluster: a maximal group of touching cells in a row.
#[derive(Debug, Clone)]
struct Cluster {
    /// Total weight (Abacus `e`): number of cells (unit weights).
    e: f64,
    /// Weighted target sum (Abacus `q`): Σ e_i (x_i' − offset_i).
    q: f64,
    /// Total width.
    w: f64,
    /// Optimal position (left edge).
    x: f64,
    /// First cell index in the row order covered by this cluster.
    first: usize,
}

/// Per-row state during Abacus.
#[derive(Debug, Clone)]
struct RowState {
    y: f64,
    lx: f64,
    ux: f64,
    /// Cells placed in this row, in insertion (x-sorted) order.
    cells: Vec<CellId>,
    /// Clusters in row order; each covers the cells from its `first` up
    /// to the next cluster's `first`.
    clusters: Vec<Cluster>,
    used_width: f64,
}

/// Work done by [`abacus_legalize`], counted for the scaling tests.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct LegalizeWork {
    /// Trial insertions that ran the collapse.
    pub(crate) trials: u64,
    /// Clusters read by the collapse (trials and commits) and by the
    /// final write-back.
    pub(crate) walked: u64,
}

impl RowState {
    /// Trial-inserts `cell` (width `w`, target `x`) and returns the cost
    /// and resulting x position without committing.
    fn trial(
        &self,
        design: &Design,
        cell: CellId,
        target_x: f64,
        work: &mut LegalizeWork,
    ) -> Option<(f64, f64)> {
        let w = design.cell_type(cell).width;
        if self.used_width + w > self.ux - self.lx {
            return None;
        }
        work.trials += 1;
        let (c, _) = self.collapse(target_x, w, &mut work.walked);
        let x = c.x + c.w - w;
        Some(((x - target_x).abs(), x))
    }

    /// Commits the insertion, returning the legal x of the new cell.
    fn insert(
        &mut self,
        design: &Design,
        cell: CellId,
        target_x: f64,
        work: &mut LegalizeWork,
    ) -> f64 {
        let w = design.cell_type(cell).width;
        let (c, absorbed) = self.collapse(target_x, w, &mut work.walked);
        self.cells.push(cell);
        self.used_width += w;
        let x = c.x + c.w - w;
        self.clusters.truncate(self.clusters.len() - absorbed);
        self.clusters.push(c);
        x
    }

    /// Core Abacus collapse, shared by [`RowState::trial`] and
    /// [`RowState::insert`]: the cluster that appending a unit-weight
    /// cell with target `target_x` and width `w` ends in, and how many
    /// clusters at the tail of the row it absorbs. Reads only those
    /// clusters and the one before them; modifies nothing.
    fn collapse(&self, target_x: f64, w: f64, walked: &mut u64) -> (Cluster, usize) {
        let (row_lx, row_ux) = (self.lx, self.ux);
        let mut c = Cluster {
            e: 1.0,
            q: target_x,
            w,
            x: target_x,
            first: self.cells.len(),
        };
        // Clamp the fresh cluster into the row.
        c.x = c.x.clamp(row_lx, (row_ux - c.w).max(row_lx));
        // Merge while overlapping the previous cluster.
        let mut absorbed = 0;
        for prev in self.clusters.iter().rev() {
            *walked += 1;
            if prev.x + prev.w > c.x {
                let mut m = Cluster {
                    e: prev.e + c.e,
                    q: prev.q + c.q - c.e * prev.w,
                    w: prev.w + c.w,
                    x: 0.0,
                    first: prev.first,
                };
                m.x = (m.q / m.e).clamp(row_lx, (row_ux - m.w).max(row_lx));
                c = m;
                absorbed += 1;
            } else {
                break;
            }
        }
        (c, absorbed)
    }

    /// Final positions of all cells in the row after all insertions.
    fn final_positions(&self, design: &Design, walked: &mut u64) -> Vec<(CellId, f64)> {
        let mut out = Vec::with_capacity(self.cells.len());
        for (k, cl) in self.clusters.iter().enumerate() {
            *walked += 1;
            let end = self
                .clusters
                .get(k + 1)
                .map_or(self.cells.len(), |next| next.first);
            let mut x = cl.x;
            for &cell in &self.cells[cl.first..end] {
                out.push((cell, x));
                x += design.cell_type(cell).width;
            }
        }
        debug_assert_eq!(out.len(), self.cells.len());
        out
    }
}

/// Abacus legalization: snaps every movable cell onto rows without overlap,
/// minimizing squared displacement within each row. Fixed cells are left in
/// place and their footprints (pads, multi-row macros) are excluded from
/// the packable space via [`free_segments`].
///
/// Cost: a sort of the movable cells by x, then per cell one trial
/// insertion into each free segment of the rows searched outward from the
/// nearest row (the search stops once the row distance alone exceeds the
/// best cost, so it widens with the displacement the input needs). A
/// trial reads only the clusters the cell would merge with
/// and the one before them, never the whole row, and the write-back
/// visits every cluster once.
///
/// Returns the statistics; `placement` is updated in place.
pub fn abacus_legalize(design: &Design, placement: &mut Placement) -> LegalizeStats {
    abacus_legalize_counted(design, placement, &mut LegalizeWork::default())
}

/// [`abacus_legalize`], adding its work to `work`.
pub(crate) fn abacus_legalize_counted(
    design: &Design,
    placement: &mut Placement,
    work: &mut LegalizeWork,
) -> LegalizeStats {
    let rows = design.rows();
    assert!(!rows.is_empty(), "design has no rows");
    let segments = free_segments(design, placement);
    let mut states: Vec<RowState> = segments
        .iter()
        .map(|s| RowState {
            y: s.y,
            lx: s.lx,
            ux: s.ux,
            cells: Vec::new(),
            clusters: Vec::new(),
            used_width: 0.0,
        })
        .collect();
    // Row index → indices of its segments' states.
    let mut row_states: Vec<Vec<usize>> = vec![Vec::new(); rows.len()];
    for (si, seg) in segments.iter().enumerate() {
        row_states[seg.row].push(si);
    }

    // Cells sorted by target x (the Abacus processing order).
    let mut movable: Vec<CellId> = design
        .cell_ids()
        .filter(|&c| !design.cell(c).fixed)
        .collect();
    movable.sort_by(|&a, &b| {
        placement
            .get(a)
            .0
            .partial_cmp(&placement.get(b).0)
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let row_h = design.row_height();
    let mut spills = 0usize;
    for &cell in &movable {
        let (tx, ty) = placement.get(cell);
        // Nearest row index.
        let nearest = (((ty - rows[0].y) / row_h).round() as isize)
            .clamp(0, rows.len() as isize - 1) as usize;
        // Search outward from the nearest row; stop when the row distance
        // alone exceeds the best cost so far.
        let mut best: Option<(f64, usize, f64)> = None;
        for radius in 0..rows.len() {
            // The row `radius` below the nearest, then the one above.
            let below = nearest.checked_sub(radius);
            let above = Some(nearest + radius).filter(|&r| radius > 0 && r < rows.len());
            if below.is_none() && above.is_none() {
                break;
            }
            let y_penalty = radius as f64 * row_h;
            if let Some((bc, _, _)) = best {
                if y_penalty - row_h > bc {
                    break;
                }
            }
            for r in below.into_iter().chain(above) {
                for &si in &row_states[r] {
                    let dy = (states[si].y - ty).abs();
                    if let Some((cost, x)) = states[si].trial(design, cell, tx, work) {
                        let total = cost + dy;
                        if best.is_none_or(|(bc, _, _)| total < bc) {
                            best = Some((total, si, x));
                        }
                    }
                }
            }
        }
        let (_, si, _) = best.expect("no free row segment can accommodate the cell; die too full");
        if segments[si].row != nearest {
            spills += 1;
        }
        states[si].insert(design, cell, tx, work);
    }

    // Write back final positions.
    let mut total_disp = 0.0;
    let mut max_disp: f64 = 0.0;
    for st in &states {
        for (cell, x) in st.final_positions(design, &mut work.walked) {
            let (ox, oy) = placement.get(cell);
            let d = (x - ox).abs() + (st.y - oy).abs();
            total_disp += d;
            max_disp = max_disp.max(d);
            placement.set(cell, x, st.y);
        }
    }
    LegalizeStats {
        total_displacement: total_disp,
        max_displacement: max_disp,
        row_spills: spills,
    }
}

/// Tetris-style greedy legalization: cells sorted by x take the leftmost
/// free slot in the best row. Cruder than Abacus; kept as a baseline and a
/// fallback for pathological inputs.
pub fn tetris_legalize(design: &Design, placement: &mut Placement) -> LegalizeStats {
    let rows = design.rows();
    assert!(!rows.is_empty(), "design has no rows");
    let segments = free_segments(design, placement);
    let mut frontier: Vec<f64> = segments.iter().map(|s| s.lx).collect();
    let mut movable: Vec<CellId> = design
        .cell_ids()
        .filter(|&c| !design.cell(c).fixed)
        .collect();
    movable.sort_by(|&a, &b| {
        placement
            .get(a)
            .0
            .partial_cmp(&placement.get(b).0)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut total_disp = 0.0;
    let mut max_disp: f64 = 0.0;
    let mut spills = 0usize;
    let row_h = design.row_height();
    for &cell in &movable {
        let (tx, ty) = placement.get(cell);
        let w = design.cell_type(cell).width;
        let nearest = (((ty - rows[0].y) / row_h).round() as isize)
            .clamp(0, rows.len() as isize - 1) as usize;
        let mut best: Option<(f64, usize, f64)> = None;
        for (si, seg) in segments.iter().enumerate() {
            if frontier[si] + w > seg.ux {
                continue;
            }
            let x = frontier[si].max(tx.min(seg.ux - w));
            let x = x.max(frontier[si]);
            let cost = (x - tx).abs() + (seg.y - ty).abs();
            if best.is_none_or(|(bc, _, _)| cost < bc) {
                best = Some((cost, si, x));
            }
        }
        let (cost, si, x) = best.expect("no free row segment can accommodate the cell");
        if segments[si].row != nearest {
            spills += 1;
        }
        frontier[si] = x + w;
        total_disp += cost;
        max_disp = max_disp.max(cost);
        placement.set(cell, x, segments[si].y);
    }
    LegalizeStats {
        total_displacement: total_disp,
        max_displacement: max_disp,
        row_spills: spills,
    }
}

/// Checks that no two movable cells overlap, all sit on rows inside the
/// die, and none intrudes into a fixed cell's footprint (pad or macro).
/// Returns a description of the first violation found.
pub fn check_legal(design: &Design, placement: &Placement) -> Result<(), String> {
    let rows = design.rows();
    let row_h = design.row_height();
    let segments = free_segments(design, placement);
    let mut row_segs: Vec<Vec<&RowSegment>> = vec![Vec::new(); rows.len()];
    for seg in &segments {
        row_segs[seg.row].push(seg);
    }
    let mut per_row: Vec<Vec<(f64, f64, CellId)>> = vec![Vec::new(); rows.len()];
    for cell in design.cell_ids() {
        if design.cell(cell).fixed {
            continue;
        }
        let (x, y) = placement.get(cell);
        let w = design.cell_type(cell).width;
        let ri = ((y - rows[0].y) / row_h).round();
        let ri_usize = ri as usize;
        if ri < 0.0 || ri_usize >= rows.len() || (y - (rows[0].y + ri * row_h)).abs() > 1e-6 {
            return Err(format!(
                "cell {} not on a row (y = {y})",
                design.cell(cell).name
            ));
        }
        // The cell must fit entirely inside one obstacle-free segment of
        // its row; anything else either leaves the row's x-range or
        // overlaps a fixed footprint.
        let inside_free = row_segs[ri_usize]
            .iter()
            .any(|s| x >= s.lx - 1e-6 && x + w <= s.ux + 1e-6);
        if !inside_free {
            return Err(format!(
                "cell {} outside the free row space (x = {x}, row {ri_usize}): \
                 off the row or overlapping a fixed cell",
                design.cell(cell).name
            ));
        }
        per_row[ri_usize].push((x, x + w, cell));
    }
    for (ri, row) in per_row.iter_mut().enumerate() {
        row.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        for pair in row.windows(2) {
            if pair[0].1 > pair[1].0 + 1e-6 {
                return Err(format!(
                    "overlap in row {ri}: {} and {}",
                    design.cell(pair[0].2).name,
                    design.cell(pair[1].2).name
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{CellLibrary, DesignBuilder, Rect};

    fn design_with_invs(n: usize, die: f64) -> netlist::Design {
        let mut b = DesignBuilder::new(
            "l",
            CellLibrary::standard(),
            Rect::new(0.0, 0.0, die, die),
            10.0,
        );
        let pi = b.add_fixed_cell("pi", "IOPAD_IN", 0.0, 0.0).unwrap();
        let mut prev = pi;
        let mut pin = "PAD".to_string();
        for i in 0..n {
            let c = b.add_cell(&format!("u{i}"), "INV_X1").unwrap();
            b.add_net(&format!("n{i}"), &[(prev, pin.as_str()), (c, "A")])
                .unwrap();
            prev = c;
            pin = "Y".to_string();
        }
        let po = b.add_fixed_cell("po", "IOPAD_OUT", die - 4.0, 0.0).unwrap();
        b.add_net("ne", &[(prev, pin.as_str()), (po, "PAD")])
            .unwrap();
        b.finish().unwrap()
    }

    fn jittered_placement(d: &netlist::Design, seed: u64) -> Placement {
        let mut p = Placement::new(d);
        let mut s = seed.max(1);
        let die = d.die();
        for c in d.cell_ids() {
            if d.cell(c).fixed {
                continue;
            }
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let x = (s % 1000) as f64 / 1000.0 * (die.width() - 4.0);
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let y = (s % 1000) as f64 / 1000.0 * (die.height() - 10.0);
            p.set(c, x, y);
        }
        p
    }

    #[test]
    fn abacus_produces_legal_placement() {
        let d = design_with_invs(60, 100.0);
        let mut p = jittered_placement(&d, 17);
        let stats = abacus_legalize(&d, &mut p);
        check_legal(&d, &p).unwrap();
        assert!(stats.total_displacement > 0.0);
        assert!(stats.max_displacement <= stats.total_displacement);
    }

    #[test]
    fn tetris_produces_legal_placement() {
        let d = design_with_invs(60, 100.0);
        let mut p = jittered_placement(&d, 23);
        tetris_legalize(&d, &mut p);
        check_legal(&d, &p).unwrap();
    }

    #[test]
    fn abacus_beats_tetris_on_displacement() {
        let d = design_with_invs(80, 100.0);
        let base = jittered_placement(&d, 5);
        let mut pa = base.clone();
        let mut pt = base.clone();
        let sa = abacus_legalize(&d, &mut pa);
        let st = tetris_legalize(&d, &mut pt);
        assert!(
            sa.total_displacement <= st.total_displacement * 1.05,
            "abacus {} tetris {}",
            sa.total_displacement,
            st.total_displacement
        );
    }

    #[test]
    fn already_legal_placement_is_unchanged() {
        let d = design_with_invs(5, 100.0);
        let mut p = Placement::new(&d);
        let mut x = 0.0;
        for c in d.cell_ids() {
            if d.cell(c).fixed {
                continue;
            }
            p.set(c, x, 50.0);
            x += d.cell_type(c).width + 1.0;
        }
        let before = p.clone();
        let stats = abacus_legalize(&d, &mut p);
        check_legal(&d, &p).unwrap();
        assert!(
            stats.total_displacement < 1e-9,
            "unexpected displacement {}",
            stats.total_displacement
        );
        for c in d.cell_ids() {
            assert_eq!(p.get(c), before.get(c));
        }
    }

    #[test]
    fn overlapping_cells_get_separated() {
        let d = design_with_invs(10, 100.0);
        let mut p = Placement::new(&d);
        for c in d.cell_ids() {
            if !d.cell(c).fixed {
                p.set(c, 50.0, 50.0);
            }
        }
        abacus_legalize(&d, &mut p);
        check_legal(&d, &p).unwrap();
    }

    fn design_with_macro(n: usize, die: f64) -> (netlist::Design, Placement) {
        let mut b = DesignBuilder::new(
            "m",
            CellLibrary::standard(),
            Rect::new(0.0, 0.0, die, die),
            10.0,
        );
        let pi = b.add_fixed_cell("pi", "IOPAD_IN", 0.0, 0.0).unwrap();
        // A 48x40 macro in the middle of the die, row-aligned.
        let blk = b.add_fixed_cell("blk", "MACRO_BLK", 40.0, 40.0).unwrap();
        let mut prev = pi;
        let mut pin = "PAD".to_string();
        for i in 0..n {
            let c = b.add_cell(&format!("u{i}"), "INV_X1").unwrap();
            b.add_net(&format!("n{i}"), &[(prev, pin.as_str()), (c, "A")])
                .unwrap();
            prev = c;
            pin = "Y".to_string();
        }
        b.add_net("nm", &[(prev, pin.as_str()), (blk, "PAD")])
            .unwrap();
        let (d, fixed) = b.finish_with_positions().unwrap();
        let mut p = Placement::new(&d);
        for (c, x, y) in fixed {
            p.set(c, x, y);
        }
        (d, p)
    }

    #[test]
    fn free_segments_exclude_macro_footprints() {
        let (d, p) = design_with_macro(4, 120.0);
        let segs = free_segments(&d, &p);
        // Rows 4..8 (y in [40, 80)) are split around the macro's x-span
        // [40, 88): no segment there may intersect it.
        for s in &segs {
            if s.y >= 40.0 - 1e-9 && s.y < 80.0 - 1e-9 {
                assert!(
                    s.ux <= 40.0 + 1e-9 || s.lx >= 88.0 - 1e-9,
                    "segment {s:?} intersects the macro"
                );
            }
        }
        // Rows clear of the macro and the pad span the full die width.
        assert!(segs
            .iter()
            .any(|s| s.y >= 80.0 && (s.ux - s.lx - 120.0).abs() < 1e-9));
    }

    #[test]
    fn legalizers_avoid_macro_footprints() {
        let (d, pads) = design_with_macro(60, 120.0);
        for seed in [3u64, 11] {
            let mut pa = pads.clone();
            let mut pt = pads.clone();
            for c in d.cell_ids() {
                if !d.cell(c).fixed {
                    // Jitter everything ON the macro to force evictions.
                    let (jx, jy) = jittered_placement(&d, seed).get(c);
                    pa.set(c, 40.0 + jx * 0.4, 40.0 + jy * 0.3);
                    pt.set(c, 40.0 + jx * 0.4, 40.0 + jy * 0.3);
                }
            }
            abacus_legalize(&d, &mut pa);
            check_legal(&d, &pa).unwrap();
            tetris_legalize(&d, &mut pt);
            check_legal(&d, &pt).unwrap();
        }
    }

    #[test]
    fn fixed_cells_outside_row_x_range_do_not_fabricate_segments() {
        // A fixed cell whose x-span lies entirely right of the die still
        // overlaps rows in y; its clamped blocked interval is empty and
        // must not produce a free segment extending past the row end.
        let (d, mut p) = design_with_macro(1, 120.0);
        let blk = d
            .cell_ids()
            .find(|&c| d.cell(c).name.starts_with("blk"))
            .unwrap();
        p.set(blk, 150.0, 40.0); // right of the die's [0, 120) rows
        for s in free_segments(&d, &p) {
            assert!(s.ux <= 120.0 + 1e-9, "segment {s:?} escapes the row");
            assert!(s.lx >= 0.0 - 1e-9);
            assert!(s.ux > s.lx);
        }
    }

    #[test]
    fn check_legal_detects_overlap_with_fixed_macro() {
        let (d, mut p) = design_with_macro(1, 120.0);
        let c = d.cell_ids().find(|&c| !d.cell(c).fixed).unwrap();
        // Dead center of the macro, on a row.
        p.set(c, 60.0, 50.0);
        let err = check_legal(&d, &p).unwrap_err();
        assert!(err.contains("free row space"), "{err}");
    }

    #[test]
    fn check_legal_detects_overlap() {
        let d = design_with_invs(2, 100.0);
        let mut p = Placement::new(&d);
        let cells: Vec<_> = d.cell_ids().filter(|&c| !d.cell(c).fixed).collect();
        p.set(cells[0], 10.0, 50.0);
        p.set(cells[1], 10.5, 50.0);
        assert!(check_legal(&d, &p).is_err());
    }

    #[test]
    fn abacus_bits_are_pinned() {
        let cases = [
            (
                benchgen::CircuitParams::medium("md", 3),
                0xfcf8_b2dd_c40b_7c8e_u64,
                [0x40c2_a59d_0ec1_3066_u64, 0x4024_d545_3442_83d4, 131],
            ),
            (
                benchgen::CircuitParams::macro_heavy("mx", 5),
                0x9516_9b93_812b_5dc2,
                [0x40c1_a309_edb4_a353, 0x403b_dbab_61a1_fdc8, 163],
            ),
        ];
        for (params, want_hash, want_stats) in cases {
            let (d, pads) = benchgen::generate(&params);
            let mut p = benchgen::scatter_placement(&d, &pads, 7);
            let s = abacus_legalize(&d, &mut p);
            let got_stats = [
                s.total_displacement.to_bits(),
                s.max_displacement.to_bits(),
                s.row_spills as u64,
            ];
            assert_eq!(
                (p.content_hash(), got_stats),
                (want_hash, want_stats),
                "{}: legalized bits moved: {:#x} {got_stats:#x?}",
                params.name,
                p.content_hash()
            );
        }
    }

    /// Trial insertions and clusters walked per legalized cell are flat
    /// from ~5k to ~40k cells: the row search stays local, and no trial
    /// or write-back walks a whole row.
    #[test]
    fn scaling_counts_abacus_walks_are_flat() {
        let per_cell: Vec<(f64, f64)> = [4_500, 9_000, 18_000, 36_000]
            .into_iter()
            .map(|num_comb| {
                let params = benchgen::CircuitParams {
                    num_comb,
                    num_ff: num_comb / 10,
                    num_pi: 100,
                    num_po: 100,
                    ..benchgen::CircuitParams::medium("rung", 3)
                };
                let (d, pads) = benchgen::generate(&params);
                let mut p = benchgen::scatter_placement(&d, &pads, 7);
                let mut work = LegalizeWork::default();
                abacus_legalize_counted(&d, &mut p, &mut work);
                let cells = d.cell_ids().filter(|&c| !d.cell(c).fixed).count() as f64;
                (work.trials as f64 / cells, work.walked as f64 / cells)
            })
            .collect();
        let (trials0, walked0) = per_cell[0];
        for &(trials, walked) in &per_cell[1..] {
            assert!(
                trials <= 1.2 * trials0 && walked <= 1.2 * walked0,
                "(trials, clusters walked) per cell grows: {per_cell:?}"
            );
        }
    }

    #[test]
    fn check_legal_detects_off_row() {
        let d = design_with_invs(1, 100.0);
        let mut p = Placement::new(&d);
        let c = d.cell_ids().find(|&c| !d.cell(c).fixed).unwrap();
        p.set(c, 10.0, 53.0);
        assert!(check_legal(&d, &p).is_err());
    }
}
