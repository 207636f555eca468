//! Differential guarantee of the net-major pin layout
//! (`netlist::Topology`): the WA wirelength kernel and the exact HPWL
//! that read it must equal, bit for bit, the same arithmetic walked over
//! `Placement::pin_position` — at every thread count, for all-ones and
//! non-uniform net weights, on designs with macros, fixed pads,
//! driver-only nets and floating pins, and after ECO resizes (which
//! patch the layout in place, and restore it bitwise when undone).

use efficient_tdp::benchgen::{self, case_by_name, next_drive_variant};
use efficient_tdp::netlist::{
    CellId, CellLibrary, CellTypeId, Design, DesignBuilder, NetId, Placement, Rect,
};
use efficient_tdp::placer::{WaScratch, WaWirelength};

mod common;

/// The two-phase WA kernel as it was written before the layout existed:
/// phase 1 forms each net's softmax sums from `pin_position`, phase 2
/// walks every cell's pins, re-looks up each position and recomputes the
/// `exp`s. The value folds per-chunk partials in net order over the
/// parallel kernel's thread-independent chunks (`parx::chunk_size` with a
/// 64-net minimum).
fn reference_wa(
    design: &Design,
    placement: &Placement,
    gamma: f64,
    weights: &[f64],
    grad_x: &mut [f64],
    grad_y: &mut [f64],
) -> f64 {
    struct Axis {
        max: f64,
        min: f64,
        s_pos: f64,
        s_neg: f64,
        wa_max: f64,
        wa_min: f64,
    }
    fn axis(coords: &[f64], gamma: f64) -> Axis {
        let mut max = f64::NEG_INFINITY;
        let mut min = f64::INFINITY;
        for &x in coords {
            max = max.max(x);
            min = min.min(x);
        }
        let (mut s_pos, mut sx_pos, mut s_neg, mut sx_neg) = (0.0, 0.0, 0.0, 0.0);
        for &x in coords {
            let ep = ((x - max) / gamma).exp();
            let en = (-(x - min) / gamma).exp();
            s_pos += ep;
            sx_pos += x * ep;
            s_neg += en;
            sx_neg += x * en;
        }
        Axis {
            max,
            min,
            s_pos,
            s_neg,
            wa_max: sx_pos / s_pos,
            wa_min: sx_neg / s_neg,
        }
    }
    fn pin_gradient(a: &Axis, x: f64, gamma: f64) -> f64 {
        let ep = ((x - a.max) / gamma).exp();
        let en = (-(x - a.min) / gamma).exp();
        let d_max = ep * (1.0 + (x - a.wa_max) / gamma) / a.s_pos;
        let d_min = en * (1.0 - (x - a.wa_min) / gamma) / a.s_neg;
        d_max - d_min
    }
    let weight = |n: usize| if weights.is_empty() { 1.0 } else { weights[n] };

    // Phase 1: the softmax sums of every net with at least two pins.
    let coeffs: Vec<Option<(Axis, Axis)>> = design
        .net_ids()
        .map(|net| {
            let pins = design.net_pins(net);
            (pins.len() >= 2).then(|| {
                let (xs, ys): (Vec<f64>, Vec<f64>) = pins
                    .iter()
                    .map(|&p| placement.pin_position(design, p))
                    .unzip();
                (axis(&xs, gamma), axis(&ys, gamma))
            })
        })
        .collect();
    let chunk = (design.num_nets() / 32).max(64);
    let mut total = 0.0f64;
    for (c, nets) in coeffs.chunks(chunk).enumerate() {
        let mut partial = 0.0f64;
        for (k, coeff) in nets.iter().enumerate() {
            if let Some((ax, ay)) = coeff {
                partial +=
                    weight(c * chunk + k) * ((ax.wa_max - ax.wa_min) + (ay.wa_max - ay.wa_min));
            }
        }
        total += partial;
    }
    // Phase 2: every cell pulls the gradient of its pins, in pin order.
    for c in design.cell_ids() {
        let (mut sx, mut sy) = (0.0, 0.0);
        for p in design.cell_pins(c) {
            let Some(net) = design.pin(p).net else {
                continue;
            };
            let Some((ax, ay)) = &coeffs[net.index()] else {
                continue;
            };
            let w = weight(net.index());
            let (px, py) = placement.pin_position(design, p);
            sx += w * pin_gradient(ax, px, gamma);
            sy += w * pin_gradient(ay, py, gamma);
        }
        grad_x[c.index()] += sx;
        grad_y[c.index()] += sy;
    }
    total
}

/// Exact HPWL of one net folded over `pin_position`.
fn reference_net_hpwl(design: &Design, placement: &Placement, net: NetId) -> f64 {
    let pins = design.net_pins(net);
    if pins.len() < 2 {
        return 0.0;
    }
    let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
    for &p in pins {
        let (px, py) = placement.pin_position(design, p);
        min_x = min_x.min(px);
        max_x = max_x.max(px);
        min_y = min_y.min(py);
        max_y = max_y.max(py);
    }
    (max_x - min_x) + (max_y - min_y)
}

fn xorshift(s: &mut u64) -> f64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    (*s % 10_007) as f64 / 10_007.0
}

/// A nonzero starting gradient, so the kernel's accumulate-into path is
/// compared too.
fn seeded_grad(n: usize, seed: u64) -> Vec<f64> {
    let mut s = seed | 1;
    (0..n).map(|_| xorshift(&mut s) - 0.5).collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Asserts the layout-backed WA kernel (threads 1 and 2, with a fresh
/// scratch and with `reused`, which callers carry across designs of
/// other sizes) and HPWL equal the references bit for bit, under all-ones
/// (empty and explicit) and seeded weights. Returns the bits of every
/// reference output, for cross-design comparisons.
fn assert_kernel_matches_reference(
    design: &Design,
    placement: &Placement,
    reused: &mut WaScratch,
    context: &str,
) -> Vec<u64> {
    let mut s = 0x9e37_79b9_7f4a_7c15u64;
    let seeded: Vec<f64> = (0..design.num_nets())
        .map(|_| 0.5 + 2.0 * xorshift(&mut s))
        .collect();
    let ones = vec![1.0; design.num_nets()];
    let mut fingerprint = Vec::new();
    for gamma in [0.7, 12.0] {
        let wl = WaWirelength::new(gamma);
        for (label, weights) in [("empty", &[][..]), ("ones", &ones), ("seeded", &seeded)] {
            let (mut rx, mut ry) = (
                seeded_grad(design.num_cells(), 3),
                seeded_grad(design.num_cells(), 5),
            );
            let rv = reference_wa(design, placement, gamma, weights, &mut rx, &mut ry);
            for threads in [1, 2] {
                for fresh in [true, false] {
                    let mut own = WaScratch::default();
                    let scratch = if fresh { &mut own } else { &mut *reused };
                    let (mut gx, mut gy) = (
                        seeded_grad(design.num_cells(), 3),
                        seeded_grad(design.num_cells(), 5),
                    );
                    let v = wl.accumulate_gradient_threads(
                        design, placement, weights, &mut gx, &mut gy, threads, scratch,
                    );
                    let at = format!("{context}: gamma {gamma}, {label} weights, threads {threads}, fresh scratch {fresh}");
                    assert_eq!(v.to_bits(), rv.to_bits(), "{at}: value");
                    assert_eq!(bits(&gx), bits(&rx), "{at}: grad_x");
                    assert_eq!(bits(&gy), bits(&ry), "{at}: grad_y");
                }
            }
            fingerprint.push(rv.to_bits());
            fingerprint.extend(bits(&rx));
            fingerprint.extend(bits(&ry));
        }
    }
    let want_total: f64 = design
        .net_ids()
        .map(|net| {
            let want = reference_net_hpwl(design, placement, net);
            assert_eq!(
                placement.net_hpwl(design, net).to_bits(),
                want.to_bits(),
                "{context}: net_hpwl of net {}",
                net.index()
            );
            want
        })
        .sum();
    assert_eq!(
        placement.total_hpwl(design).to_bits(),
        want_total.to_bits(),
        "{context}: total_hpwl"
    );
    fingerprint.push(want_total.to_bits());
    fingerprint
}

fn generated_case(name: &str) -> (Design, Placement) {
    let case = case_by_name(name).expect("catalog case");
    let (design, pads) = benchgen::generate(&case.params);
    let placement = benchgen::scatter_placement(&design, &pads, 77);
    (design, placement)
}

#[test]
fn wa_and_hpwl_match_the_pin_position_reference_on_catalog_cases() {
    // sb18 is the superblue-like baseline, mx1 adds macros, cg1 the
    // congestion-stress family; all carry fixed IO pads.
    let mut reused = WaScratch::default();
    for name in ["sb18", "mx1", "cg1"] {
        let (design, placement) = generated_case(name);
        assert_kernel_matches_reference(&design, &placement, &mut reused, name);
    }
}

/// Two pads around three gates where `u1/B` floats, `u3/Y` drives a net
/// with no sinks, and `n1` has three pins.
fn corner_design(u2_master: &str) -> (Design, Placement) {
    let mut b = DesignBuilder::new(
        "corners",
        CellLibrary::standard(),
        Rect::new(0.0, 0.0, 100.0, 100.0),
        10.0,
    );
    let pi = b.add_fixed_cell("pi", "IOPAD_IN", 0.0, 40.0).unwrap();
    let u1 = b.add_cell("u1", "NAND2_X1").unwrap();
    let u2 = b.add_cell("u2", u2_master).unwrap();
    let u3 = b.add_cell("u3", "INV_X1").unwrap();
    let po = b.add_fixed_cell("po", "IOPAD_OUT", 96.0, 60.0).unwrap();
    b.add_net("n0", &[(pi, "PAD"), (u1, "A")]).unwrap();
    b.add_net("n1", &[(u1, "Y"), (u2, "A"), (u3, "A")]).unwrap();
    b.add_net("n2", &[(u2, "Y"), (po, "PAD")]).unwrap();
    b.add_net("dangling", &[(u3, "Y")]).unwrap();
    let (design, fixed) = b.finish_with_positions().unwrap();
    let mut placement = Placement::new(&design);
    for (c, x, y) in fixed {
        placement.set(c, x, y);
    }
    placement.set(u1, 21.5, 33.0);
    placement.set(u2, 64.25, 71.0);
    placement.set(u3, 40.0, 12.75);
    (design, placement)
}

#[test]
fn wa_and_hpwl_match_the_reference_with_dangling_nets_and_floating_pins() {
    let (design, placement) = corner_design("INV_X1");
    let u1 = design.find_cell("u1").unwrap();
    let u3 = design.find_cell("u3").unwrap();
    let floating = design.cell_pin(u1, 1);
    assert!(design.pin(floating).net.is_none());
    let dangling = design.pin(design.cell_pin(u3, 1)).net.unwrap();
    assert_eq!(design.net_pins(dangling).len(), 1);
    let mut reused = WaScratch::default();
    assert_kernel_matches_reference(&design, &placement, &mut reused, "corners");
}

/// Resizes `design` per `retype` and asserts the patched layout equals
/// the same netlist built with the new masters from the start, which
/// differs from the unresized design; then resizes every cell back (the
/// ECO revert path) and asserts the slot offsets and caps equal the
/// original ones bit for bit.
fn assert_resize_keeps_layout_consistent(
    design: Design,
    placement: &Placement,
    retype: &[(CellId, CellTypeId)],
    context: &str,
) {
    let mut reused = WaScratch::default();
    let fresh = common::rebuilt_with(&design, retype);
    let want = assert_kernel_matches_reference(&fresh, placement, &mut reused, context);

    let original = design.clone();
    let before = assert_kernel_matches_reference(&original, placement, &mut reused, context);
    assert!(before != want, "{context}: the resizes move no pin");
    let mut resized = design;
    for &(c, t) in retype {
        resized.set_cell_type(c, t).unwrap();
    }
    let got = assert_kernel_matches_reference(
        &resized,
        placement,
        &mut reused,
        &format!("{context}: resized"),
    );
    assert!(
        got == want,
        "{context}: resized differs from a fresh design"
    );
    assert_eq!(
        bits(resized.topology().slot_cap()),
        bits(fresh.topology().slot_cap()),
        "{context}: resized, slot_cap"
    );

    for &(c, _) in retype.iter().rev() {
        resized.set_cell_type(c, original.cell(c).type_id).unwrap();
    }
    let (a, b) = (original.topology(), resized.topology());
    assert_eq!(
        bits(a.slot_dx()),
        bits(b.slot_dx()),
        "{context}: resized back, slot_dx"
    );
    assert_eq!(
        bits(a.slot_dy()),
        bits(b.slot_dy()),
        "{context}: resized back, slot_dy"
    );
    assert_eq!(
        bits(a.slot_cap()),
        bits(b.slot_cap()),
        "{context}: resized back, slot_cap"
    );
}

#[test]
fn resizes_patch_a_built_layout_and_match_a_design_built_with_the_new_masters() {
    let (design, placement) = corner_design("INV_X1");
    let u2 = design.find_cell("u2").unwrap();
    let x4 = design.library().by_name("INV_X4").unwrap();
    assert_resize_keeps_layout_consistent(design, &placement, &[(u2, x4)], "corners");

    // Every seventh movable cell with a drive variant.
    let (design, placement) = generated_case("sb18");
    let retype: Vec<(CellId, CellTypeId)> = design
        .cell_ids()
        .filter(|&c| !design.cell(c).fixed && c.index() % 7 == 0)
        .filter_map(|c| next_drive_variant(&design, c).map(|t| (c, t)))
        .collect();
    assert!(!retype.is_empty(), "sb18 has no resizable cell");
    assert_resize_keeps_layout_consistent(design, &placement, &retype, "sb18");
}
