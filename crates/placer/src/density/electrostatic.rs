//! ePlace-style electrostatic density penalty.
//!
//! Cells are charged particles (charge = area); the bin density map ρ acts
//! as a charge distribution. Solving the Poisson equation ∇²ψ = −ρ with
//! Neumann boundaries via a cosine (DCT) expansion gives a potential ψ and
//! an electric field ξ = −∇ψ; each movable cell feels the force `q_i·ξ`
//! pulling it from dense into sparse regions. The penalty value is the
//! system energy `½·Σ_b ρ_b·ψ_b`.
//!
//! The spectral solve matches DREAMPlace's `dct2_fft2` operator:
//!
//! ```text
//! a_uv  = DCT2D(ρ)                       (cosine coefficients)
//! ψ     = IDCT2D( a_uv / (w_u² + w_v²) ) (w = π·u/N)
//! ξ_x   = IDXST_x( IDCT_y( a_uv · w_u / (w_u²+w_v²) ) )
//! ξ_y   = IDCT_x( IDXST_y( a_uv · w_v / (w_u²+w_v²) ) )
//! ```
//!
//! The model owns every buffer the solve touches: a transform [`Plan`] per
//! axis (twiddles plus work rows), the normalized density `ρ`, its cosine
//! coefficients, the `w_u`/`w_v`/`w²` tables and the three output grids,
//! which double as the coefficient grids of their inverse transforms. The
//! transforms run in place on those grids, so after construction
//! [`ElectrostaticDensity::update`] allocates nothing.

use super::fft::Plan;
use super::grid::{BinGrid, MovableCells};
use netlist::{Design, Placement};

/// Electrostatic density model: owns the grid and the spectral scratch.
#[derive(Debug, Clone)]
pub struct ElectrostaticDensity {
    grid: BinGrid,
    /// The separable 2-d transforms.
    transform: Transform2d,
    /// Normalized density `ρ` per bin.
    rho: Vec<f64>,
    /// Cosine coefficients `a_uv` of `ρ`.
    coef: Vec<f64>,
    /// `w_u = π·u/nx` and `w_v = π·v/ny`.
    w_u: Vec<f64>,
    w_v: Vec<f64>,
    /// `w_u² + w_v²` per coefficient.
    w2: Vec<f64>,
    /// Electric field per bin, x component.
    field_x: Vec<f64>,
    /// Electric field per bin, y component.
    field_y: Vec<f64>,
    /// Potential per bin.
    potential: Vec<f64>,
    target_density: f64,
}

impl ElectrostaticDensity {
    /// Creates the model over an `nx × ny` grid.
    pub fn new(
        design: &Design,
        placement_with_fixed: &Placement,
        nx: usize,
        ny: usize,
        target_density: f64,
    ) -> Self {
        let mut grid = BinGrid::new(design.die(), nx, ny);
        grid.set_fixed(design, placement_with_fixed);
        let bins = nx * ny;
        let w_u: Vec<f64> = (0..nx)
            .map(|u| std::f64::consts::PI * u as f64 / nx as f64)
            .collect();
        let w_v: Vec<f64> = (0..ny)
            .map(|v| std::f64::consts::PI * v as f64 / ny as f64)
            .collect();
        let w2 = (0..bins)
            .map(|i| {
                let (u, v) = (i % nx, i / nx);
                w_u[u] * w_u[u] + w_v[v] * w_v[v]
            })
            .collect();
        Self {
            grid,
            transform: Transform2d::new(nx, ny),
            rho: vec![0.0; bins],
            coef: vec![0.0; bins],
            w_u,
            w_v,
            w2,
            field_x: vec![0.0; bins],
            field_y: vec![0.0; bins],
            potential: vec![0.0; bins],
            target_density,
        }
    }

    /// The underlying bin grid.
    pub fn grid(&self) -> &BinGrid {
        &self.grid
    }

    /// Target (allowed) density used by the overflow metric.
    pub fn target_density(&self) -> f64 {
        self.target_density
    }

    /// Recomputes density, potential and field for `placement`; returns the
    /// electrostatic energy (the density penalty value `D(x, y)`).
    pub fn update(&mut self, design: &Design, placement: &Placement) -> f64 {
        self.grid.accumulate(design, placement);
        self.solve()
    }

    /// [`ElectrostaticDensity::update`] over footprints frozen for this
    /// model's grid ([`MovableCells::new`] with [`Self::grid`]);
    /// bit-identical while the design is unchanged.
    pub fn update_frozen(&mut self, cells: &MovableCells, placement: &Placement) -> f64 {
        self.grid.accumulate_frozen(cells, placement);
        self.solve()
    }

    /// The spectral solve over the accumulated density map.
    fn solve(&mut self) -> f64 {
        let nx = self.grid.nx();
        let ny = self.grid.ny();
        let bin_area = self.grid.bin_area();

        // Normalized density: charge per bin relative to a uniform fill.
        // Subtracting the mean removes the DC term (w=0 mode is undefined).
        let n_bins = (nx * ny) as f64;
        let mean = self.grid.density.iter().sum::<f64>() / n_bins;
        for (r, &d) in self.rho.iter_mut().zip(&self.grid.density) {
            *r = (d - mean) / bin_area;
        }

        // 2D DCT: rows (x direction) then columns (y direction). dct2 is
        // unnormalized; the inverses carry the 2/N factors, so a round
        // trip is exact.
        self.coef.copy_from_slice(&self.rho);
        self.transform.apply(&mut self.coef, Plan::dct2, Plan::dct2);

        for v in 0..ny {
            for u in 0..nx {
                let i = v * nx + u;
                let w2 = self.w2[i];
                if w2 == 0.0 {
                    self.potential[i] = 0.0;
                    self.field_x[i] = 0.0;
                    self.field_y[i] = 0.0;
                    continue;
                }
                let a = self.coef[i] / w2;
                self.potential[i] = a;
                self.field_x[i] = a * self.w_u[u];
                self.field_y[i] = a * self.w_v[v];
            }
        }

        // Potential: inverse DCT in both axes.
        self.transform
            .apply(&mut self.potential, Plan::idct, Plan::idct);
        // Field x: IDXST along x, IDCT along y.
        self.transform
            .apply(&mut self.field_x, Plan::idxst, Plan::idct);
        // Field y: IDCT along x, IDXST along y.
        self.transform
            .apply(&mut self.field_y, Plan::idct, Plan::idxst);

        // Energy = ½ Σ ρ ψ (per-bin charge times potential).
        0.5 * self
            .rho
            .iter()
            .zip(self.potential.iter())
            .map(|(&r, &p)| r * p)
            .sum::<f64>()
            * bin_area
    }

    /// Density overflow of the last [`ElectrostaticDensity::update`] or
    /// [`ElectrostaticDensity::update_frozen`], over the cells it
    /// deposited.
    pub fn overflow(&self) -> f64 {
        self.grid.overflow(self.target_density)
    }

    /// Accumulates the density gradient (−force) for every movable cell:
    /// `∂D/∂x_i = −q_i·⟨ξ_x⟩`, where `⟨ξ⟩` is the electric field averaged
    /// over the bins the (expanded) cell footprint overlaps, weighted by
    /// overlap area — the same splatting the density accumulation uses, so
    /// the force is consistent with the discretized energy.
    ///
    /// The caller scales by λ.
    pub fn accumulate_gradient(
        &self,
        design: &Design,
        placement: &Placement,
        lambda: f64,
        grad_x: &mut [f64],
        grad_y: &mut [f64],
    ) {
        self.accumulate_gradient_threads(design, placement, lambda, grad_x, grad_y, 1);
    }

    /// [`ElectrostaticDensity::accumulate_gradient`] on up to `threads`
    /// workers (0 = auto). Each cell's force is a pure function of the
    /// (read-only) field map and lands in the cell's own gradient slot,
    /// so the result is bit-identical for every thread count.
    pub fn accumulate_gradient_threads(
        &self,
        design: &Design,
        placement: &Placement,
        lambda: f64,
        grad_x: &mut [f64],
        grad_y: &mut [f64],
        threads: usize,
    ) {
        assert_eq!(grad_x.len(), design.num_cells());
        assert_eq!(grad_y.len(), design.num_cells());
        let nx = self.grid.nx();
        let ny = self.grid.ny();
        let bin_w = self.grid.bin_w();
        let bin_h = self.grid.bin_h();
        let die = design.die();
        let workers = parx::resolve_threads(threads);
        let gx_slots = parx::UnsafeSlice::new(grad_x);
        let gy_slots = parx::UnsafeSlice::new(grad_y);
        parx::par_for_named(
            workers,
            design.num_cells(),
            128,
            "placer.density.field",
            |range| {
                for c in range {
                    let cell = netlist::CellId::new(c);
                    if design.cell(cell).fixed {
                        continue;
                    }
                    let ty = design.cell_type(cell);
                    let q = ty.area();
                    let (x, y) = placement.get(cell);
                    // Expand small cells to a bin, as the density splat does.
                    let (cx, cy) = (x + ty.width / 2.0, y + ty.height / 2.0);
                    let w = ty.width.max(bin_w);
                    let h = ty.height.max(bin_h);
                    let x0 = (cx - w / 2.0 - die.lx).max(0.0);
                    let y0 = (cy - h / 2.0 - die.ly).max(0.0);
                    let x1 = (cx + w / 2.0 - die.lx).min(die.width());
                    let y1 = (cy + h / 2.0 - die.ly).min(die.height());
                    if x1 <= x0 || y1 <= y0 {
                        continue;
                    }
                    let bx0 = (x0 / bin_w).floor() as usize;
                    let bx1 = ((x1 / bin_w).ceil() as usize).min(nx);
                    let by0 = (y0 / bin_h).floor() as usize;
                    let by1 = ((y1 / bin_h).ceil() as usize).min(ny);
                    let mut fx = 0.0;
                    let mut fy = 0.0;
                    let mut total = 0.0;
                    for by in by0..by1 {
                        let blo = by as f64 * bin_h;
                        let oy = (y1.min(blo + bin_h) - y0.max(blo)).max(0.0);
                        if oy == 0.0 {
                            continue;
                        }
                        for bx in bx0..bx1 {
                            let alo = bx as f64 * bin_w;
                            let ox = (x1.min(alo + bin_w) - x0.max(alo)).max(0.0);
                            if ox == 0.0 {
                                continue;
                            }
                            let wgt = ox * oy;
                            let idx = by * nx + bx;
                            fx += wgt * self.field_x[idx];
                            fy += wgt * self.field_y[idx];
                            total += wgt;
                        }
                    }
                    if total > 0.0 {
                        // Force is q·⟨ξ⟩; the penalty gradient is the negative.
                        // SAFETY: slot `c` is written by this chunk alone.
                        unsafe {
                            gx_slots.write(c, gx_slots.read(c) - lambda * q * fx / total);
                            gy_slots.write(c, gy_slots.read(c) - lambda * q * fy / total);
                        }
                    }
                }
            },
        );
    }

    /// Electric field at a bin (diagnostics/tests).
    pub fn field_at(&self, bx: usize, by: usize) -> (f64, f64) {
        let idx = by * self.grid.nx() + bx;
        (self.field_x[idx], self.field_y[idx])
    }

    /// Potential at a bin (diagnostics/tests).
    pub fn potential_at(&self, bx: usize, by: usize) -> f64 {
        self.potential[by * self.grid.nx() + bx]
    }
}

/// A 1-d transform applied in place to a row of its plan's length.
type RowOp = fn(&mut Plan, &mut [f64]);

/// Separable 2-d transforms of a row-major `nx × ny` map: one plan per
/// axis and the column the y-axis pass gathers into.
#[derive(Debug, Clone)]
struct Transform2d {
    x: Plan,
    y: Plan,
    column: Vec<f64>,
}

impl Transform2d {
    fn new(nx: usize, ny: usize) -> Self {
        Self {
            x: Plan::new(nx),
            y: Plan::new(ny),
            column: vec![0.0; ny],
        }
    }

    /// Applies `along_x` to every row, then `along_y` to every column.
    fn apply(&mut self, data: &mut [f64], along_x: RowOp, along_y: RowOp) {
        let nx = self.x.len();
        for row in data.chunks_exact_mut(nx) {
            along_x(&mut self.x, row);
        }
        for x in 0..nx {
            for (y, c) in self.column.iter_mut().enumerate() {
                *c = data[y * nx + x];
            }
            along_y(&mut self.y, &mut self.column);
            for (y, &c) in self.column.iter().enumerate() {
                data[y * nx + x] = c;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{CellLibrary, DesignBuilder, Rect};

    fn cluster_design(n: usize) -> (netlist::Design, Placement) {
        let mut b = DesignBuilder::new(
            "e",
            CellLibrary::standard(),
            Rect::new(0.0, 0.0, 128.0, 128.0),
            10.0,
        );
        let pi = b.add_fixed_cell("pi", "IOPAD_IN", 0.0, 0.0).unwrap();
        let mut prev = pi;
        let mut prev_pin = "PAD".to_string();
        for i in 0..n {
            let c = b.add_cell(&format!("u{i}"), "INV_X4").unwrap();
            b.add_net(&format!("n{i}"), &[(prev, prev_pin.as_str()), (c, "A")])
                .unwrap();
            prev = c;
            prev_pin = "Y".to_string();
        }
        let po = b.add_fixed_cell("po", "IOPAD_OUT", 124.0, 0.0).unwrap();
        b.add_net("ne", &[(prev, prev_pin.as_str()), (po, "PAD")])
            .unwrap();
        let d = b.finish().unwrap();
        let mut p = Placement::new(&d);
        p.set(d.find_cell("pi").unwrap(), 0.0, 0.0);
        p.set(d.find_cell("po").unwrap(), 124.0, 0.0);
        (d, p)
    }

    /// All cells piled at one point: the field everywhere must point away
    /// from the pile (cells are pushed outward).
    #[test]
    fn field_pushes_away_from_cluster() {
        let (d, mut p) = cluster_design(40);
        for c in d.cell_ids() {
            if !d.cell(c).fixed {
                p.set(c, 30.0, 30.0);
            }
        }
        let mut e = ElectrostaticDensity::new(&d, &p, 16, 16, 1.0);
        e.update(&d, &p);
        // Sample a bin to the right of the cluster: force_x should be
        // positive (pointing away), so gradient (-q·ξ) is negative there.
        let (fx_right, _) = e.field_at(10, 3);
        let (fx_left, _) = e.field_at(0, 3);
        assert!(
            fx_right > 0.0,
            "field right of cluster should point right, got {fx_right}"
        );
        assert!(
            fx_left < 0.0,
            "field left of cluster should point left, got {fx_left}"
        );
        let (_, fy_above) = e.field_at(3, 10);
        assert!(fy_above > 0.0, "field above cluster should point up");
    }

    #[test]
    fn gradient_moves_cells_apart() {
        // Cluster well off-center so the field at the cluster is nonzero,
        // spread over a few bins so the sampled forces are informative.
        let (d, mut p) = cluster_design(40);
        let mut i = 0;
        for c in d.cell_ids() {
            if !d.cell(c).fixed {
                p.set(c, 24.0 + 3.0 * (i % 5) as f64, 80.0 + 3.0 * (i / 5) as f64);
                i += 1;
            }
        }
        let mut e = ElectrostaticDensity::new(&d, &p, 16, 16, 1.0);
        let energy0 = e.update(&d, &p);
        let mut gx = vec![0.0; d.num_cells()];
        let mut gy = vec![0.0; d.num_cells()];
        e.accumulate_gradient(&d, &p, 1.0, &mut gx, &mut gy);
        // Descend with a max cell displacement of a quarter bin so the
        // first-order model stays valid.
        let gmax = gx
            .iter()
            .chain(gy.iter())
            .fold(0.0f64, |m, g| m.max(g.abs()));
        assert!(gmax > 0.0, "zero gradient on a clustered placement");
        let step = 2.0 / gmax;
        let mut q = p.clone();
        for c in d.cell_ids() {
            if d.cell(c).fixed {
                continue;
            }
            let (x, y) = q.get(c);
            q.set(c, x - step * gx[c.index()], y - step * gy[c.index()]);
        }
        let energy1 = e.update(&d, &q);
        assert!(
            energy1 < energy0,
            "energy did not decrease: {energy0} -> {energy1}"
        );
    }

    #[test]
    fn uniform_density_has_negligible_field() {
        let (d, mut p) = cluster_design(16);
        // Spread cells on a regular grid (near-uniform density).
        let mut i = 0;
        for c in d.cell_ids() {
            if d.cell(c).fixed {
                continue;
            }
            let x = 8.0 + (i % 4) as f64 * 30.0;
            let y = 8.0 + (i / 4) as f64 * 30.0;
            p.set(c, x, y);
            i += 1;
        }
        let mut e = ElectrostaticDensity::new(&d, &p, 16, 16, 1.0);
        e.update(&d, &p);
        // Compare the field norm against the clustered version.
        let spread_norm: f64 = (0..16)
            .flat_map(|y| (0..16).map(move |x| (x, y)))
            .map(|(x, y)| {
                let (fx, fy) = e.field_at(x, y);
                fx * fx + fy * fy
            })
            .sum::<f64>()
            .sqrt();
        let mut clustered = p.clone();
        for c in d.cell_ids() {
            if !d.cell(c).fixed {
                clustered.set(c, 64.0, 64.0);
            }
        }
        e.update(&d, &clustered);
        let cluster_norm: f64 = (0..16)
            .flat_map(|y| (0..16).map(move |x| (x, y)))
            .map(|(x, y)| {
                let (fx, fy) = e.field_at(x, y);
                fx * fx + fy * fy
            })
            .sum::<f64>()
            .sqrt();
        assert!(
            cluster_norm > spread_norm * 3.0,
            "cluster {cluster_norm} vs spread {spread_norm}"
        );
    }

    /// The spectral solve must satisfy the Poisson equation term-by-term:
    /// applying the analytic Laplacian to ψ's coefficients reproduces ρ's
    /// coefficients (up to the removed DC term).
    #[test]
    fn potential_solves_poisson_spectrally() {
        let (d, mut p) = cluster_design(30);
        for c in d.cell_ids() {
            if !d.cell(c).fixed {
                p.set(c, 40.0, 80.0);
            }
        }
        let nx = 16;
        let ny = 16;
        let mut e = ElectrostaticDensity::new(&d, &p, nx, ny, 1.0);
        e.update(&d, &p);
        // Reconstruct rho from psi: rho_hat = psi_hat * w².
        let mut psi_hat = e.potential.clone();
        let mut transform = Transform2d::new(nx, ny);
        transform.apply(&mut psi_hat, Plan::dct2, Plan::dct2);
        // Forward dct2 twice leaves scaling of (N/2)... verify against the
        // density map instead: round-trip idct of (psi_hat * w²).
        let wu = |u: usize| std::f64::consts::PI * u as f64 / nx as f64;
        let wv = |v: usize| std::f64::consts::PI * v as f64 / ny as f64;
        let mut rho_hat = vec![0.0; nx * ny];
        for v in 0..ny {
            for u in 0..nx {
                rho_hat[v * nx + u] = psi_hat[v * nx + u] * (wu(u).powi(2) + wv(v).powi(2));
            }
        }
        let mut rho_rec = rho_hat;
        transform.apply(&mut rho_rec, Plan::idct, Plan::idct);
        // Compare against the actual normalized density (mean removed).
        let bin_area = e.grid().bin_area();
        let mean = e.grid().density.iter().sum::<f64>() / (nx * ny) as f64;
        #[allow(clippy::needless_range_loop)] // lockstep over two maps
        for i in 0..nx * ny {
            let expected = (e.grid().density[i] - mean) / bin_area;
            assert!(
                (rho_rec[i] - expected).abs() < 1e-6,
                "bin {i}: reconstructed {} expected {expected}",
                rho_rec[i]
            );
        }
    }
}
