//! Property-based tests for the placement kernels.

use netlist::{CellLibrary, DesignBuilder, Placement, Rect};
use placer::density::fft::Plan;
use placer::legalize::{abacus_legalize, check_legal, tetris_legalize};
use placer::wirelength::wa_span_grad;
use proptest::prelude::*;

fn coord() -> impl Strategy<Value = f64> {
    (-1000.0f64..1000.0).prop_map(|v| (v * 16.0).round() / 16.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// WA span is a lower bound on the exact span and tightens with γ.
    #[test]
    fn wa_bounds_and_tightens(coords in prop::collection::vec(coord(), 2..12)) {
        let span = coords.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - coords.iter().cloned().fold(f64::INFINITY, f64::min);
        let mut grad = vec![0.0; coords.len()];
        let loose = wa_span_grad(&coords, 50.0, &mut grad);
        let tight = wa_span_grad(&coords, 0.5, &mut grad);
        prop_assert!(loose <= span + 1e-6);
        prop_assert!(tight <= span + 1e-6);
        prop_assert!(tight >= loose - 1e-6);
    }

    /// The WA gradient sums to ~0 (translation invariance of the span).
    #[test]
    fn wa_gradient_translation_invariant(
        coords in prop::collection::vec(coord(), 2..12),
        gamma in 0.5f64..20.0,
    ) {
        let mut grad = vec![0.0; coords.len()];
        wa_span_grad(&coords, gamma, &mut grad);
        let sum: f64 = grad.iter().sum();
        prop_assert!(sum.abs() < 1e-7, "gradient sum {sum}");
    }

    /// FFT followed by inverse FFT reproduces the input.
    #[test]
    fn fft_round_trip(
        _xs in prop::collection::vec(-100.0f64..100.0, 1..5usize)
            .prop_map(|_| ()),
        n_pow in 1u32..7,
        seed in 1u64..1_000_000,
    ) {
        let n = 1usize << n_pow;
        let mut s = seed;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 10_000) as f64 / 100.0 - 50.0
        };
        let re0: Vec<f64> = (0..n).map(|_| next()).collect();
        let im0: Vec<f64> = (0..n).map(|_| next()).collect();
        let mut re = re0.clone();
        let mut im = im0.clone();
        let plan = Plan::new(n);
        plan.fft(&mut re, &mut im);
        plan.ifft(&mut re, &mut im);
        for i in 0..n {
            prop_assert!((re[i] - re0[i]).abs() < 1e-8);
            prop_assert!((im[i] - im0[i]).abs() < 1e-8);
        }
    }

    /// IDCT inverts DCT-II for any power-of-two length.
    #[test]
    fn dct_round_trip(n_pow in 1u32..8, seed in 1u64..1_000_000) {
        let n = 1usize << n_pow;
        let mut s = seed;
        let x: Vec<f64> = (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s % 10_000) as f64 / 100.0 - 50.0
            })
            .collect();
        let mut plan = Plan::new(n);
        let mut back = x.clone();
        plan.dct2(&mut back);
        plan.idct(&mut back);
        for i in 0..n {
            prop_assert!((back[i] - x[i]).abs() < 1e-8, "i={i}");
        }
    }

    /// The shifted sine transform is linear: idxst(a+b) = idxst(a)+idxst(b).
    #[test]
    fn idxst_is_linear(n_pow in 1u32..6, seed in 1u64..1_000_000) {
        let n = 1usize << n_pow;
        let mut s = seed;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 10_000) as f64 / 100.0 - 50.0
        };
        let a: Vec<f64> = (0..n).map(|_| next()).collect();
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let mut plan = Plan::new(n);
        let (mut lhs, mut ra, mut rb) = (sum, a, b);
        plan.idxst(&mut lhs);
        plan.idxst(&mut ra);
        plan.idxst(&mut rb);
        for i in 0..n {
            prop_assert!((lhs[i] - (ra[i] + rb[i])).abs() < 1e-8);
        }
    }
}

/// Builds a chain design with `n` movable inverters on a 200x200 die.
fn chain_design(n: usize) -> netlist::Design {
    let mut b = DesignBuilder::new(
        "p",
        CellLibrary::standard(),
        Rect::new(0.0, 0.0, 200.0, 200.0),
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
    let po = b.add_fixed_cell("po", "IOPAD_OUT", 196.0, 0.0).unwrap();
    b.add_net("ne", &[(prev, pin.as_str()), (po, "PAD")])
        .unwrap();
    b.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Both legalizers produce legal placements from arbitrary starting
    /// points, and Abacus never displaces more than Tetris by much.
    #[test]
    fn legalizers_always_produce_legal_rows(
        seed in 1u64..100_000,
        n in 5usize..60,
    ) {
        let design = chain_design(n);
        let mut p = Placement::new(&design);
        let mut s = seed;
        for c in design.cell_ids() {
            if design.cell(c).fixed {
                continue;
            }
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let x = (s % 1000) as f64 / 1000.0 * 190.0;
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let y = (s % 1000) as f64 / 1000.0 * 190.0;
            p.set(c, x, y);
        }
        let mut pa = p.clone();
        let mut pt = p.clone();
        let sa = abacus_legalize(&design, &mut pa);
        tetris_legalize(&design, &mut pt);
        prop_assert!(check_legal(&design, &pa).is_ok());
        prop_assert!(check_legal(&design, &pt).is_ok());
        prop_assert!(sa.total_displacement.is_finite());
        prop_assert!(sa.max_displacement <= sa.total_displacement + 1e-9);
    }
}
