//! Bin grid: density accumulation and overflow.

use netlist::{CellId, Design, Placement, Rect};

/// A regular grid of density bins over the die.
///
/// Cells are splatted by area overlap; cells narrower than a bin are
/// expanded to the bin dimension with a compensating density scale so the
/// total deposited area is preserved (the standard ePlace smoothing).
#[derive(Debug, Clone)]
pub struct BinGrid {
    nx: usize,
    ny: usize,
    bin_w: f64,
    bin_h: f64,
    die: Rect,
    /// Deposited area per bin, row-major `[y * nx + x]`.
    pub density: Vec<f64>,
    /// Area contributed by fixed cells, accumulated once.
    fixed_density: Vec<f64>,
    /// Summed master area of the cells the last accumulation deposited,
    /// in cell order: the overflow's divisor.
    movable_area: f64,
}

impl BinGrid {
    /// Creates an `nx × ny` grid over the die; dimensions must be powers of
    /// two for the spectral solver.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero or not a power of two.
    pub fn new(die: Rect, nx: usize, ny: usize) -> Self {
        assert!(
            nx.is_power_of_two() && ny.is_power_of_two(),
            "grid dims must be powers of two"
        );
        Self {
            nx,
            ny,
            bin_w: die.width() / nx as f64,
            bin_h: die.height() / ny as f64,
            die,
            density: vec![0.0; nx * ny],
            fixed_density: vec![0.0; nx * ny],
            movable_area: 0.0,
        }
    }

    /// Grid width in bins.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid height in bins.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Bin width in placement units.
    pub fn bin_w(&self) -> f64 {
        self.bin_w
    }

    /// Bin height in placement units.
    pub fn bin_h(&self) -> f64 {
        self.bin_h
    }

    /// Area of one bin.
    pub fn bin_area(&self) -> f64 {
        self.bin_w * self.bin_h
    }

    /// Pre-accumulates fixed-cell area (call once per design).
    pub fn set_fixed(&mut self, design: &Design, placement: &Placement) {
        self.fixed_density.iter_mut().for_each(|v| *v = 0.0);
        for cell in design.cell_ids() {
            if !design.cell(cell).fixed {
                continue;
            }
            let ty = design.cell_type(cell);
            let (x, y) = placement.get(cell);
            accumulate_rect(
                &mut self.fixed_density,
                self.nx,
                self.ny,
                self.die,
                self.bin_w,
                self.bin_h,
                x,
                y,
                ty.width,
                ty.height,
            );
        }
    }

    /// Recomputes the density map for the movable cells of `placement`,
    /// starting from the fixed-cell base. Reads each cell's master from
    /// `design` on every call; a placement run accumulates over its
    /// [`MovableCells`] instead.
    pub fn accumulate(&mut self, design: &Design, placement: &Placement) {
        self.begin_accumulate();
        for cell in design.cell_ids() {
            if design.cell(cell).fixed {
                continue;
            }
            let ty = design.cell_type(cell);
            let scale = self.splat_scale(ty.width, ty.height);
            self.deposit(placement.get(cell), ty.width, ty.height, scale);
        }
    }

    /// [`BinGrid::accumulate`] over footprints frozen by
    /// [`MovableCells::freeze`]: the same cells in the same order with the
    /// same arithmetic, so the map is bit-identical, without a master
    /// lookup per cell.
    ///
    /// # Panics
    ///
    /// Panics if `cells` was frozen for a grid with other bin dimensions.
    pub(crate) fn accumulate_frozen(&mut self, cells: &MovableCells, placement: &Placement) {
        assert!(
            cells.bin_w == self.bin_w && cells.bin_h == self.bin_h,
            "cells frozen for another grid"
        );
        self.begin_accumulate();
        for cell in &cells.cells {
            self.deposit(placement.get(cell.id), cell.w, cell.h, cell.scale);
        }
    }

    /// Resets the map to the fixed-cell base and the movable area to zero.
    fn begin_accumulate(&mut self) {
        self.density.copy_from_slice(&self.fixed_density);
        self.movable_area = 0.0;
    }

    /// Splats one movable cell of extent `w × h` whose origin is at
    /// `(x, y)`, and adds its area (its master's `area()`) to the
    /// overflow's divisor.
    fn deposit(&mut self, (x, y): (f64, f64), w: f64, h: f64, scale: f64) {
        self.movable_area += w * h;
        let (ex, ew) = expand(x, w, self.bin_w);
        let (ey, eh) = expand(y, h, self.bin_h);
        accumulate_rect_scaled(
            &mut self.density,
            self.nx,
            self.ny,
            self.die,
            self.bin_w,
            self.bin_h,
            ex,
            ey,
            ew,
            eh,
            scale,
        );
    }

    /// Density scale compensating the expansion of a `w × h` footprint's
    /// sub-bin extents.
    fn splat_scale(&self, w: f64, h: f64) -> f64 {
        expand_scale(w, self.bin_w) * expand_scale(h, self.bin_h)
    }

    /// Density overflow of the last accumulation:
    /// `Σ_b max(0, ρ_b − target·A_b) / Σ movable area`. The standard ePlace
    /// convergence metric (0 = perfectly spread).
    pub fn overflow(&self, target_density: f64) -> f64 {
        if self.movable_area == 0.0 {
            return 0.0;
        }
        let bin_area = self.bin_area();
        let excess: f64 = self
            .density
            .iter()
            .map(|&d| (d - target_density * bin_area).max(0.0))
            .sum();
        excess / self.movable_area
    }

    /// Total deposited area (diagnostic; equals movable + fixed overlap with
    /// the die up to clipping).
    pub fn total_area(&self) -> f64 {
        self.density.iter().sum()
    }

    /// Bin index containing a point (clamped to the grid).
    pub fn bin_at(&self, x: f64, y: f64) -> (usize, usize) {
        let bx = (((x - self.die.lx) / self.bin_w).floor() as isize).clamp(0, self.nx as isize - 1)
            as usize;
        let by = (((y - self.die.ly) / self.bin_h).floor() as isize).clamp(0, self.ny as isize - 1)
            as usize;
        (bx, by)
    }
}

/// The movable cells, frozen for one placement run: per cell (in cell
/// order) its master's extent, its pin count and the density splat's
/// compensating scale. 32 B per movable cell.
///
/// A resize ([`netlist::Design::set_cell_type`]) changes a cell's
/// footprint, so the owner refreezes before every run; the design-reading
/// [`BinGrid::accumulate`] never goes stale.
#[derive(Debug, Clone, Default)]
pub struct MovableCells {
    bin_w: f64,
    bin_h: f64,
    cells: Vec<FrozenCell>,
}

impl MovableCells {
    /// Freezes the movable cells of `design` for `grid`.
    pub fn new(design: &Design, grid: &BinGrid) -> Self {
        let mut cells = Self::default();
        cells.freeze(design, grid);
        cells
    }

    /// Refreezes in place, reusing the buffer.
    pub fn freeze(&mut self, design: &Design, grid: &BinGrid) {
        self.bin_w = grid.bin_w;
        self.bin_h = grid.bin_h;
        self.cells.clear();
        self.cells.extend(
            design
                .cell_ids()
                .filter(|&c| !design.cell(c).fixed)
                .map(|c| {
                    let ty = design.cell_type(c);
                    FrozenCell {
                        id: c,
                        pins: design.cell_pins(c).len() as u32,
                        w: ty.width,
                        h: ty.height,
                        scale: grid.splat_scale(ty.width, ty.height),
                    }
                }),
        );
    }

    /// The frozen cells, in cell order.
    pub(crate) fn cells(&self) -> &[FrozenCell] {
        &self.cells
    }
}

/// One movable cell's frozen master data.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrozenCell {
    pub(crate) id: CellId,
    /// Pin count (the engine's wirelength preconditioner term).
    pub(crate) pins: u32,
    /// Master extent.
    pub(crate) w: f64,
    pub(crate) h: f64,
    /// Density scale compensating the expansion of sub-bin extents.
    scale: f64,
}

/// Expands a 1-d extent to at least one bin, returning the new origin and
/// extent; [`expand_scale`] is the compensating density scale.
fn expand(origin: f64, extent: f64, bin: f64) -> (f64, f64) {
    if extent >= bin {
        (origin, extent)
    } else {
        let center = origin + extent / 2.0;
        (center - bin / 2.0, bin)
    }
}

fn expand_scale(extent: f64, bin: f64) -> f64 {
    if extent >= bin {
        1.0
    } else {
        extent / bin
    }
}

#[allow(clippy::too_many_arguments)]
fn accumulate_rect(
    density: &mut [f64],
    nx: usize,
    ny: usize,
    die: Rect,
    bin_w: f64,
    bin_h: f64,
    x: f64,
    y: f64,
    w: f64,
    h: f64,
) {
    accumulate_rect_scaled(density, nx, ny, die, bin_w, bin_h, x, y, w, h, 1.0);
}

#[allow(clippy::too_many_arguments)]
fn accumulate_rect_scaled(
    density: &mut [f64],
    nx: usize,
    ny: usize,
    die: Rect,
    bin_w: f64,
    bin_h: f64,
    x: f64,
    y: f64,
    w: f64,
    h: f64,
    scale: f64,
) {
    let x0 = (x - die.lx).max(0.0);
    let y0 = (y - die.ly).max(0.0);
    let x1 = (x + w - die.lx).min(die.width());
    let y1 = (y + h - die.ly).min(die.height());
    if x1 <= x0 || y1 <= y0 {
        return;
    }
    let bx0 = (x0 / bin_w).floor() as usize;
    let bx1 = ((x1 / bin_w).ceil() as usize).min(nx);
    let by0 = (y0 / bin_h).floor() as usize;
    let by1 = ((y1 / bin_h).ceil() as usize).min(ny);
    for by in by0..by1 {
        let blo = by as f64 * bin_h;
        let bhi = blo + bin_h;
        let oy = (y1.min(bhi) - y0.max(blo)).max(0.0);
        if oy == 0.0 {
            continue;
        }
        for bx in bx0..bx1 {
            let alo = bx as f64 * bin_w;
            let ahi = alo + bin_w;
            let ox = (x1.min(ahi) - x0.max(alo)).max(0.0);
            if ox > 0.0 {
                density[by * nx + bx] += ox * oy * scale;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{CellLibrary, DesignBuilder};

    fn design_with_cells(n: usize) -> netlist::Design {
        let mut b = DesignBuilder::new(
            "g",
            CellLibrary::standard(),
            Rect::new(0.0, 0.0, 64.0, 64.0),
            10.0,
        );
        let pi = b.add_fixed_cell("pi", "IOPAD_IN", 0.0, 0.0).unwrap();
        let mut prev = pi;
        let mut prev_pin = "PAD".to_string();
        for i in 0..n {
            let c = b.add_cell(&format!("u{i}"), "INV_X1").unwrap();
            b.add_net(&format!("n{i}"), &[(prev, prev_pin.as_str()), (c, "A")])
                .unwrap();
            prev = c;
            prev_pin = "Y".to_string();
        }
        let po = b.add_fixed_cell("po", "IOPAD_OUT", 60.0, 0.0).unwrap();
        b.add_net("nend", &[(prev, prev_pin.as_str()), (po, "PAD")])
            .unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn deposited_area_is_preserved() {
        let d = design_with_cells(5);
        let mut p = Placement::new(&d);
        // Scatter movable cells inside the die.
        for (i, c) in d.cell_ids().enumerate() {
            if d.cell(c).fixed {
                continue;
            }
            p.set(c, 5.0 + 7.0 * i as f64, 13.0 + 5.0 * i as f64);
        }
        let mut g = BinGrid::new(d.die(), 8, 8);
        g.set_fixed(&d, &p);
        g.accumulate(&d, &p);
        let expected: f64 = d.cell_ids().map(|c| d.cell_type(c).area()).sum();
        assert!(
            (g.total_area() - expected).abs() < 1e-6,
            "deposited {} expected {expected}",
            g.total_area()
        );
    }

    #[test]
    fn clustered_cells_overflow_spread_cells_do_not() {
        let d = design_with_cells(20);
        let mut clustered = Placement::new(&d);
        let mut spread = Placement::new(&d);
        let mut i = 0;
        for c in d.cell_ids() {
            if d.cell(c).fixed {
                continue;
            }
            clustered.set(c, 32.0, 32.0);
            spread.set(c, (i % 5) as f64 * 12.0 + 2.0, (i / 5) as f64 * 14.0 + 2.0);
            i += 1;
        }
        let mut g = BinGrid::new(d.die(), 8, 8);
        g.set_fixed(&d, &clustered);
        g.accumulate(&d, &clustered);
        let of_clustered = g.overflow(1.0);
        g.accumulate(&d, &spread);
        let of_spread = g.overflow(1.0);
        assert!(
            of_clustered > of_spread * 2.0,
            "clustered {of_clustered} spread {of_spread}"
        );
    }

    #[test]
    fn small_cell_expansion_preserves_area() {
        // INV_X1 is 2x10, bins are 8x8: expanded in x only.
        let (ex, ew) = expand(10.0, 2.0, 8.0);
        assert_eq!(ew, 8.0);
        assert!((expand_scale(2.0, 8.0) - 0.25).abs() < 1e-12);
        assert!((ex - (11.0 - 4.0)).abs() < 1e-12);
        let (_, eh) = expand(0.0, 10.0, 8.0);
        assert_eq!(eh, 10.0);
        assert_eq!(expand_scale(10.0, 8.0), 1.0);
    }

    #[test]
    fn bin_at_clamps() {
        let d = design_with_cells(1);
        let g = BinGrid::new(d.die(), 8, 8);
        assert_eq!(g.bin_at(-5.0, -5.0), (0, 0));
        assert_eq!(g.bin_at(1e9, 1e9), (7, 7));
        assert_eq!(g.bin_at(33.0, 1.0), (4, 0));
    }

    #[test]
    fn fixed_cells_persist_across_accumulate() {
        let d = design_with_cells(2);
        let mut p = Placement::new(&d);
        p.set(d.find_cell("pi").unwrap(), 0.0, 0.0);
        p.set(d.find_cell("po").unwrap(), 60.0, 0.0);
        let mut g = BinGrid::new(d.die(), 8, 8);
        g.set_fixed(&d, &p);
        g.accumulate(&d, &p);
        let with_fixed = g.density[0];
        assert!(with_fixed > 0.0, "fixed pad area must appear in bin 0");
    }
}
