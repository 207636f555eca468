//! Bit-for-bit guard for the table-driven spectral solve.
//!
//! `reference` below is the per-call implementation the placer used before
//! transforms ran through `placer::density::fft::Plan`: every transform
//! recomputes its `sin`/`cos` and returns a fresh `Vec`, the 2-d passes go
//! through `fn(&[f64]) -> Vec<f64>`, and the density splat reads each
//! cell's master. The tests assert that the plans, the owned-buffer
//! `ElectrostaticDensity::update` and the frozen-footprint accumulation
//! reproduce it to the last bit — no tolerance anywhere.

use efficient_tdp::benchgen;
use efficient_tdp::netlist::{CellLibrary, Design, DesignBuilder, Placement, Rect};
use efficient_tdp::placer::density::fft::Plan;
use efficient_tdp::placer::{ElectrostaticDensity, MovableCells, PlacerConfig};

mod reference {
    use efficient_tdp::netlist::{Design, Placement, Rect};
    use std::f64::consts::PI;

    pub fn fft(re: &mut [f64], im: &mut [f64]) {
        let n = re.len();
        assert_eq!(n, im.len(), "re/im length mismatch");
        assert!(n.is_power_of_two(), "FFT length must be a power of two");
        if n <= 1 {
            return;
        }
        let bits = n.trailing_zeros();
        for i in 0..n {
            let j = (i as u32).reverse_bits() >> (32 - bits);
            let j = j as usize;
            if i < j {
                re.swap(i, j);
                im.swap(i, j);
            }
        }
        let mut len = 2;
        while len <= n {
            let ang = -2.0 * PI / len as f64;
            let (wr, wi) = (ang.cos(), ang.sin());
            for start in (0..n).step_by(len) {
                let mut cur_r = 1.0;
                let mut cur_i = 0.0;
                for k in 0..len / 2 {
                    let a = start + k;
                    let b = start + k + len / 2;
                    let tr = re[b] * cur_r - im[b] * cur_i;
                    let ti = re[b] * cur_i + im[b] * cur_r;
                    re[b] = re[a] - tr;
                    im[b] = im[a] - ti;
                    re[a] += tr;
                    im[a] += ti;
                    let next_r = cur_r * wr - cur_i * wi;
                    cur_i = cur_r * wi + cur_i * wr;
                    cur_r = next_r;
                }
            }
            len <<= 1;
        }
    }

    pub fn ifft(re: &mut [f64], im: &mut [f64]) {
        for v in im.iter_mut() {
            *v = -*v;
        }
        fft(re, im);
        let n = re.len() as f64;
        for (r, i) in re.iter_mut().zip(im.iter_mut()) {
            *r /= n;
            *i = -*i / n;
        }
    }

    pub fn dct2(x: &[f64]) -> Vec<f64> {
        let n = x.len();
        if n == 1 {
            return vec![x[0]];
        }
        let mut re = vec![0.0; n];
        let mut im = vec![0.0; n];
        for k in 0..n / 2 {
            re[k] = x[2 * k];
            re[n - 1 - k] = x[2 * k + 1];
        }
        fft(&mut re, &mut im);
        let mut out = vec![0.0; n];
        for (k, o) in out.iter_mut().enumerate() {
            let ang = -PI * k as f64 / (2.0 * n as f64);
            *o = re[k] * ang.cos() - im[k] * ang.sin();
        }
        out
    }

    pub fn idct(x: &[f64]) -> Vec<f64> {
        let n = x.len();
        if n == 1 {
            return vec![x[0]];
        }
        let mut re = vec![0.0; n];
        let mut im = vec![0.0; n];
        for k in 0..n {
            let xk = x[k];
            let xnk = if k == 0 { 0.0 } else { x[n - k] };
            let ang = PI * k as f64 / (2.0 * n as f64);
            let (c, s) = (ang.cos(), ang.sin());
            re[k] = xk * c + xnk * s;
            im[k] = -xnk * c + xk * s;
        }
        ifft(&mut re, &mut im);
        let mut out = vec![0.0; n];
        for k in 0..n / 2 {
            out[2 * k] = re[k];
            out[2 * k + 1] = re[n - 1 - k];
        }
        out
    }

    pub fn idxst(x: &[f64]) -> Vec<f64> {
        let n = x.len();
        let mut d = vec![0.0; n];
        for k in 1..n {
            d[k] = x[n - k];
        }
        let mut out = idct(&d);
        for (i, v) in out.iter_mut().enumerate() {
            if i % 2 == 1 {
                *v = -*v;
            }
        }
        out
    }

    fn transform_rows(data: &[f64], nx: usize, ny: usize, f: fn(&[f64]) -> Vec<f64>) -> Vec<f64> {
        let mut out = vec![0.0; nx * ny];
        for y in 0..ny {
            let row = &data[y * nx..(y + 1) * nx];
            out[y * nx..(y + 1) * nx].copy_from_slice(&f(row));
        }
        out
    }

    fn transform_cols(data: &[f64], nx: usize, ny: usize, f: fn(&[f64]) -> Vec<f64>) -> Vec<f64> {
        let mut out = vec![0.0; nx * ny];
        let mut col = vec![0.0; ny];
        for x in 0..nx {
            for y in 0..ny {
                col[y] = data[y * nx + x];
            }
            let t = f(&col);
            for y in 0..ny {
                out[y * nx + x] = t[y];
            }
        }
        out
    }

    /// The solve's outputs: potential, field x, field y, energy.
    pub struct Solved {
        pub potential: Vec<f64>,
        pub field_x: Vec<f64>,
        pub field_y: Vec<f64>,
        pub energy: f64,
    }

    /// The spectral solve over an accumulated density map.
    pub fn solve(density: &[f64], nx: usize, ny: usize, bin_area: f64) -> Solved {
        let n_bins = (nx * ny) as f64;
        let mean = density.iter().sum::<f64>() / n_bins;
        let rho: Vec<f64> = density.iter().map(|&d| (d - mean) / bin_area).collect();
        let mut coef = transform_rows(&rho, nx, ny, dct2);
        coef = transform_cols(&coef, nx, ny, dct2);
        let wu = |u: usize| PI * u as f64 / nx as f64;
        let wv = |v: usize| PI * v as f64 / ny as f64;
        let mut psi_coef = vec![0.0; nx * ny];
        let mut ex_coef = vec![0.0; nx * ny];
        let mut ey_coef = vec![0.0; nx * ny];
        for v in 0..ny {
            for u in 0..nx {
                let w2 = wu(u) * wu(u) + wv(v) * wv(v);
                if w2 == 0.0 {
                    continue;
                }
                let a = coef[v * nx + u] / w2;
                psi_coef[v * nx + u] = a;
                ex_coef[v * nx + u] = a * wu(u);
                ey_coef[v * nx + u] = a * wv(v);
            }
        }
        let potential = transform_cols(&transform_rows(&psi_coef, nx, ny, idct), nx, ny, idct);
        let field_x = transform_cols(&transform_rows(&ex_coef, nx, ny, idxst), nx, ny, idct);
        let field_y = transform_cols(&transform_rows(&ey_coef, nx, ny, idct), nx, ny, idxst);
        let energy = 0.5
            * rho
                .iter()
                .zip(potential.iter())
                .map(|(&r, &p)| r * p)
                .sum::<f64>()
            * bin_area;
        Solved {
            potential,
            field_x,
            field_y,
            energy,
        }
    }

    fn expand(origin: f64, extent: f64, bin: f64) -> (f64, f64, f64) {
        if extent >= bin {
            (origin, extent, 1.0)
        } else {
            let center = origin + extent / 2.0;
            (center - bin / 2.0, bin, extent / bin)
        }
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

    /// The density map: fixed cells from `pads` (unscaled), then every
    /// movable cell of `placement` with the ePlace expansion.
    pub fn accumulate(
        design: &Design,
        pads: &Placement,
        placement: &Placement,
        nx: usize,
        ny: usize,
    ) -> Vec<f64> {
        let die = design.die();
        let bin_w = die.width() / nx as f64;
        let bin_h = die.height() / ny as f64;
        let mut density = vec![0.0; nx * ny];
        for cell in design.cell_ids().filter(|&c| design.cell(c).fixed) {
            let ty = design.cell_type(cell);
            let (x, y) = pads.get(cell);
            accumulate_rect_scaled(
                &mut density,
                nx,
                ny,
                die,
                bin_w,
                bin_h,
                x,
                y,
                ty.width,
                ty.height,
                1.0,
            );
        }
        for cell in design.cell_ids().filter(|&c| !design.cell(c).fixed) {
            let ty = design.cell_type(cell);
            let (x, y) = placement.get(cell);
            let (ex, ew, sx) = expand(x, ty.width, bin_w);
            let (ey, eh, sy) = expand(y, ty.height, bin_h);
            accumulate_rect_scaled(
                &mut density,
                nx,
                ny,
                die,
                bin_w,
                bin_h,
                ex,
                ey,
                ew,
                eh,
                sx * sy,
            );
        }
        density
    }

    /// The overflow metric with the movable area summed from the design.
    pub fn overflow(density: &[f64], design: &Design, bin_area: f64, target: f64) -> f64 {
        let movable_area: f64 = design
            .cell_ids()
            .filter(|&c| !design.cell(c).fixed)
            .map(|c| design.cell_type(c).area())
            .sum();
        let excess: f64 = density
            .iter()
            .map(|&d| (d - target * bin_area).max(0.0))
            .sum();
        excess / movable_area
    }
}

/// xorshift rows spanning several magnitudes and both signs.
fn random_row(n: usize, seed: u64) -> Vec<f64> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let mantissa = (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            mantissa * 10f64.powi((s % 7) as i32 - 3)
        })
        .collect()
}

fn assert_bits(what: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i}]: {g:e} vs {w:e}");
    }
}

/// An in-place plan transform and its per-call reference.
type Planned = fn(&mut Plan, &mut [f64]);
type PerCall = fn(&[f64]) -> Vec<f64>;

#[test]
fn plan_transforms_match_the_per_call_reference() {
    for log_n in 0..=9 {
        let n = 1usize << log_n;
        let mut plan = Plan::new(n);
        for rep in 0..8 {
            let x = random_row(n, 0x9E37 + 131 * n as u64 + rep);
            let ops: [(&str, Planned, PerCall); 3] = [
                ("dct2", Plan::dct2, reference::dct2),
                ("idct", Plan::idct, reference::idct),
                ("idxst", Plan::idxst, reference::idxst),
            ];
            for (name, planned, per_call) in ops {
                let mut got = x.clone();
                planned(&mut plan, &mut got);
                assert_bits(&format!("{name} n={n} rep={rep}"), &got, &per_call(&x));
            }
            let y = random_row(n, 0x51ED + 17 * n as u64 + rep);
            let (mut re, mut im) = (x.clone(), y.clone());
            let (mut want_re, mut want_im) = (x.clone(), y.clone());
            plan.fft(&mut re, &mut im);
            reference::fft(&mut want_re, &mut want_im);
            assert_bits(&format!("fft.re n={n}"), &re, &want_re);
            assert_bits(&format!("fft.im n={n}"), &im, &want_im);
            plan.ifft(&mut re, &mut im);
            reference::ifft(&mut want_re, &mut want_im);
            assert_bits(&format!("ifft.re n={n}"), &re, &want_re);
            assert_bits(&format!("ifft.im n={n}"), &im, &want_im);
        }
    }
}

/// Runs `update` and `update_frozen` on fresh models and checks the
/// density, potential, both fields, energy and overflow against the
/// reference.
fn assert_update_matches(
    label: &str,
    design: &Design,
    pads: &Placement,
    placement: &Placement,
    nx: usize,
    ny: usize,
) {
    let target = PlacerConfig::default().target_density;
    let die = design.die();
    let bin_area = (die.width() / nx as f64) * (die.height() / ny as f64);
    let density = reference::accumulate(design, pads, placement, nx, ny);
    let want = reference::solve(&density, nx, ny, bin_area);
    let want_overflow = reference::overflow(&density, design, bin_area, target);

    let mut model = ElectrostaticDensity::new(design, pads, nx, ny, target);
    let cells = MovableCells::new(design, model.grid());
    for frozen in [false, true] {
        let label = format!("{label} {nx}x{ny} frozen={frozen}");
        let energy = if frozen {
            model.update_frozen(&cells, placement)
        } else {
            model.update(design, placement)
        };
        let overflow = model.overflow();
        assert_bits(&format!("{label} density"), &model.grid().density, &density);
        let bins = |f: &dyn Fn(usize, usize) -> f64| -> Vec<f64> {
            (0..ny)
                .flat_map(|by| (0..nx).map(move |bx| (bx, by)))
                .map(|(bx, by)| f(bx, by))
                .collect()
        };
        assert_bits(
            &format!("{label} potential"),
            &bins(&|bx, by| model.potential_at(bx, by)),
            &want.potential,
        );
        assert_bits(
            &format!("{label} field_x"),
            &bins(&|bx, by| model.field_at(bx, by).0),
            &want.field_x,
        );
        assert_bits(
            &format!("{label} field_y"),
            &bins(&|bx, by| model.field_at(bx, by).1),
            &want.field_y,
        );
        assert_eq!(energy.to_bits(), want.energy.to_bits(), "{label} energy");
        assert_eq!(
            overflow.to_bits(),
            want_overflow.to_bits(),
            "{label} overflow"
        );
    }
}

#[test]
fn density_update_matches_the_per_call_reference_on_suite_cases() {
    let grid = PlacerConfig::default().grid;
    for name in ["sb18", "cg1", "mx1"] {
        let params = benchgen::case_by_name(name).expect("suite case").params;
        let (design, pads) = benchgen::generate(&params);
        let scattered = benchgen::scatter_placement(&design, &pads, 3);
        assert_update_matches(name, &design, &pads, &scattered, grid, grid);
        assert_update_matches(name, &design, &pads, &scattered, 16, 64);
    }
}

/// A movable macro wider and taller than a bin, standard cells narrower
/// than one, and cells hanging off every die edge.
fn edge_design() -> (Design, Placement, Placement) {
    let mut b = DesignBuilder::new(
        "edges",
        CellLibrary::standard(),
        Rect::new(0.0, 0.0, 128.0, 128.0),
        10.0,
    );
    let pi = b.add_fixed_cell("pi", "IOPAD_IN", 0.0, 0.0).unwrap();
    let mut prev = (pi, "PAD");
    let masters = ["INV_X1", "NAND2_X1", "INV_X4", "BUF_X2", "INV_X1"];
    for (i, master) in masters.iter().cycle().take(24).enumerate() {
        let c = b.add_cell(&format!("u{i}"), master).unwrap();
        b.add_net(&format!("n{i}"), &[prev, (c, "A")]).unwrap();
        prev = (c, "Y");
    }
    let blk = b.add_cell("blk", "MACRO_BLK").unwrap();
    b.add_net("nblk", &[prev, (blk, "PAD")]).unwrap();
    let design = b.finish().unwrap();
    let mut pads = Placement::new(&design);
    pads.set(pi, 0.0, 0.0);
    let mut placement = pads.clone();
    let spots = [
        (-3.0, 40.0),
        (127.0, 60.0),
        (50.0, -6.5),
        (70.0, 123.0),
        (-1.0, -1.0),
        (126.5, 125.0),
        (140.0, 10.0),
    ];
    for (i, c) in design
        .cell_ids()
        .filter(|&c| !design.cell(c).fixed)
        .enumerate()
    {
        let (x, y) = spots
            .get(i)
            .copied()
            .unwrap_or((5.3 * i as f64, 4.9 * i as f64 + 1.7));
        placement.set(c, x, y);
    }
    placement.set(design.find_cell("blk").unwrap(), 100.0, 90.0);
    (design, pads, placement)
}

#[test]
fn frozen_accumulate_matches_the_per_call_reference_at_die_edges() {
    let (design, pads, placement) = edge_design();
    let blk = design.cell_type(design.find_cell("blk").unwrap());
    for (nx, ny) in [(16, 16), (8, 32), (64, 4)] {
        assert!(blk.width > 128.0 / nx as f64 || blk.height > 128.0 / ny as f64);
        assert_update_matches("edges", &design, &pads, &placement, nx, ny);
    }
}
