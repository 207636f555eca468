//! Property-based tests for the netlist data model and serialization.

use netlist::{io, CellLibrary, DesignBuilder, Placement, Rect};
use proptest::prelude::*;

/// Builds a randomized fan-in/fan-out structure: `n` inverters in a chain
/// with taps, always structurally valid.
fn chain(n: usize) -> netlist::Design {
    let mut b = DesignBuilder::new(
        "c",
        CellLibrary::standard(),
        Rect::new(0.0, 0.0, 400.0, 400.0),
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
    let po = b.add_fixed_cell("po", "IOPAD_OUT", 396.0, 0.0).unwrap();
    b.add_net("no", &[(prev, pin.as_str()), (po, "PAD")])
        .unwrap();
    b.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `.pl` serialization round-trips arbitrary finite coordinates.
    #[test]
    fn pl_round_trips_arbitrary_coordinates(
        n in 1usize..30,
        coords in prop::collection::vec((-1e6f64..1e6, -1e6f64..1e6), 32),
    ) {
        let design = chain(n);
        let mut p = Placement::new(&design);
        for (i, c) in design.cell_ids().enumerate() {
            let (x, y) = coords[i % coords.len()];
            p.set(c, x, y);
        }
        let text = io::write_pl(&design, &p);
        let back = io::read_pl(&design, &text, None).unwrap();
        for c in design.cell_ids() {
            let (ax, ay) = p.get(c);
            let (bx, by) = back.get(c);
            prop_assert!((ax - bx).abs() < 1e-5);
            prop_assert!((ay - by).abs() < 1e-5);
        }
    }

    /// HPWL is non-negative, translation invariant, and scales linearly.
    #[test]
    fn hpwl_geometry_properties(
        n in 2usize..20,
        seed in 1u64..1_000_000,
        dx in -100.0f64..100.0,
        dy in -100.0f64..100.0,
        scale in 0.1f64..10.0,
    ) {
        let design = chain(n);
        let mut p = Placement::new(&design);
        let mut s = seed;
        for c in design.cell_ids() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let x = (s % 1000) as f64;
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let y = (s % 1000) as f64;
            p.set(c, x, y);
        }
        let base = p.total_hpwl(&design);
        prop_assert!(base >= 0.0);

        // Translation invariance.
        let mut shifted = p.clone();
        for c in design.cell_ids() {
            let (x, y) = p.get(c);
            shifted.set(c, x + dx, y + dy);
        }
        prop_assert!((shifted.total_hpwl(&design) - base).abs() < 1e-6 * base.max(1.0));

        // Linear scaling (pin offsets also scale in effect only if
        // positions dominate; use a pure-position check via per-net span
        // of cell origins instead of exact equality).
        let mut scaled = p.clone();
        for c in design.cell_ids() {
            let (x, y) = p.get(c);
            scaled.set(c, x * scale, y * scale);
        }
        let scaled_hpwl = scaled.total_hpwl(&design);
        // Pin offsets are constant, so scaled HPWL is within the offset
        // slack of the linear prediction.
        let offset_budget = 20.0 * design.num_nets() as f64;
        prop_assert!((scaled_hpwl - base * scale).abs() <= offset_budget * (1.0 + scale));
    }

    /// Validation accepts every design the builder finishes, and the
    /// structural invariants hold.
    #[test]
    fn built_designs_always_validate(n in 1usize..40) {
        let design = chain(n);
        prop_assert!(design.validate().is_ok());
        let stats = design.stats();
        prop_assert_eq!(stats.num_cells, n + 2);
        prop_assert_eq!(stats.num_nets, n + 1);
        prop_assert_eq!(stats.num_fixed, 2);
        // A cell's pins name the cell and their master pin by offset.
        for cell in design.cell_ids() {
            for (offset, p) in design.cell_pins(cell).enumerate() {
                prop_assert_eq!(design.pin(p).cell, cell);
                prop_assert_eq!(design.pin(p).spec, offset);
                prop_assert_eq!(design.cell_pin(cell, offset), p);
            }
        }
        // A net's pins name the net, and the one driver comes first.
        for net in design.net_ids() {
            let pins = design.net_pins(net);
            for &p in pins {
                prop_assert_eq!(design.pin(p).net, Some(net));
            }
            let d = design.net_driver(net);
            prop_assert_eq!(d, pins[0]);
            prop_assert_eq!(
                design.pin_direction(d),
                netlist::PinDirection::Output
            );
            for &p in design.net_sinks(net) {
                prop_assert_eq!(design.pin_direction(p), netlist::PinDirection::Input);
            }
        }
    }

    /// Manhattan dominates Euclidean distance for all pin pairs.
    #[test]
    fn manhattan_dominates_euclidean(seed in 1u64..1_000_000) {
        let design = chain(6);
        let mut p = Placement::new(&design);
        let mut s = seed;
        for c in design.cell_ids() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            p.set(c, (s % 500) as f64, (s % 499) as f64);
        }
        let pins: Vec<_> = design.pin_ids().collect();
        for w in pins.windows(2) {
            let man = p.pin_manhattan(&design, w[0], w[1]);
            let euc = p.pin_euclidean(&design, w[0], w[1]);
            prop_assert!(euc <= man + 1e-9);
            prop_assert!(man <= euc * std::f64::consts::SQRT_2 + 1e-9);
        }
    }
}
