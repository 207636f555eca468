//! Property-based tests for the STA engine: Elmore physics, propagation
//! invariants and path-enumeration exactness on randomized placements.

use netlist::{CellLibrary, Design, DesignBuilder, Placement, Rect, Sdc};
use proptest::prelude::*;
use sta::{NetTopology, RcParams, Sta};

/// A reconvergent ladder: pi feeds `n` parallel buffer chains of differing
/// lengths that reconverge through NAND trees into one output.
fn ladder(nchains: usize, depth: usize) -> Design {
    let mut b = DesignBuilder::new(
        "ladder",
        CellLibrary::standard(),
        Rect::new(0.0, 0.0, 800.0, 800.0),
        10.0,
    );
    b.set_sdc(Sdc::new(100.0));
    let pi = b.add_fixed_cell("pi", "IOPAD_IN", 0.0, 400.0).unwrap();
    // One fanout net from the pad to the first buffer of every chain (a
    // pin drives exactly one net, which may have many sinks).
    let heads: Vec<_> = (0..nchains)
        .map(|c| b.add_cell(&format!("h{c}"), "BUF_X1").unwrap())
        .collect();
    let mut root_terms: Vec<(netlist::CellId, &str)> = vec![(pi, "PAD")];
    for &h in &heads {
        root_terms.push((h, "A"));
    }
    b.add_net("nroot", &root_terms).unwrap();
    let mut tails = Vec::new();
    for (c, &head) in heads.iter().enumerate() {
        let mut prev = head;
        let mut pin = "Y".to_string();
        for d in 0..c.min(depth) {
            let cell = b.add_cell(&format!("b{c}_{d}"), "BUF_X1").unwrap();
            b.add_net(&format!("n{c}_{d}"), &[(prev, pin.as_str()), (cell, "A")])
                .unwrap();
            prev = cell;
            pin = "Y".to_string();
        }
        tails.push((prev, pin));
    }
    // Reconverge pairwise with NAND2s.
    let mut level = 0usize;
    while tails.len() > 1 {
        let mut next = Vec::new();
        for (i, pair) in tails.chunks(2).enumerate() {
            if pair.len() == 1 {
                next.push(pair[0].clone());
                continue;
            }
            let g = b.add_cell(&format!("m{level}_{i}"), "NAND2_X1").unwrap();
            b.add_net(
                &format!("ma{level}_{i}"),
                &[(pair[0].0, pair[0].1.as_str()), (g, "A")],
            )
            .unwrap();
            b.add_net(
                &format!("mb{level}_{i}"),
                &[(pair[1].0, pair[1].1.as_str()), (g, "B")],
            )
            .unwrap();
            next.push((g, "Y".to_string()));
        }
        tails = next;
        level += 1;
    }
    let po = b.add_fixed_cell("po", "IOPAD_OUT", 796.0, 400.0).unwrap();
    b.add_net("no", &[(tails[0].0, tails[0].1.as_str()), (po, "PAD")])
        .unwrap();
    b.finish().unwrap()
}

fn scatter(design: &Design, seed: u64) -> Placement {
    let mut p = Placement::new(design);
    let die = design.die();
    let mut s = seed.max(1);
    for c in design.cell_ids() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let x = (s % 9973) as f64 / 9973.0 * (die.width() - 8.0);
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let y = (s % 9973) as f64 / 9973.0 * (die.height() - 10.0);
        if !design.cell(c).fixed {
            p.set(c, x, y);
        }
    }
    p.set(design.find_cell("pi").unwrap(), 0.0, 400.0);
    p.set(design.find_cell("po").unwrap(), 796.0, 400.0);
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Slack = required − arrival at every pin where both are defined,
    /// for both wire topologies, on arbitrary placements.
    #[test]
    fn slack_identity_holds_everywhere(
        seed in 1u64..1_000_000,
        nchains in 2usize..6,
        star in any::<bool>(),
    ) {
        let design = ladder(nchains, 4);
        let placement = scatter(&design, seed);
        let topology = if star { NetTopology::Star } else { NetTopology::SteinerMst };
        let rc = RcParams::default().with_topology(topology);
        let mut sta = Sta::new(&design, rc).unwrap();
        sta.analyze(&design, &placement);
        for pin in design.pin_ids() {
            if let (Some(a), Some(r), Some(s)) =
                (sta.arrival(pin), sta.required(pin), sta.slack(pin))
            {
                prop_assert!((s - (r - a)).abs() < 1e-9);
            }
        }
        let summary = sta.summary();
        prop_assert!(summary.tns <= summary.wns + 1e-9);
        prop_assert!(summary.wns <= 0.0);
    }

    /// TNS equals the sum of negative endpoint slacks exactly.
    #[test]
    fn tns_is_sum_of_failing_endpoint_slacks(seed in 1u64..1_000_000) {
        let design = ladder(5, 4);
        let placement = scatter(&design, seed);
        let mut sta = Sta::new(&design, RcParams::default()).unwrap();
        sta.analyze(&design, &placement);
        let sum: f64 = sta
            .endpoint_slacks()
            .iter()
            .filter(|e| e.slack < 0.0)
            .map(|e| e.slack)
            .sum();
        prop_assert!((sta.summary().tns - sum).abs() < 1e-9);
    }

    /// Worst arrival never decreases when a cell moves farther from its
    /// fan-in (monotonicity of the Elmore model in distance).
    #[test]
    fn stretching_a_two_pin_net_never_speeds_it_up(
        base in 10.0f64..200.0,
        stretch in 1.0f64..200.0,
    ) {
        let mut b = DesignBuilder::new(
            "two",
            CellLibrary::standard(),
            Rect::new(0.0, 0.0, 800.0, 100.0),
            10.0,
        );
        b.set_sdc(Sdc::new(10.0));
        let pi = b.add_fixed_cell("pi", "IOPAD_IN", 0.0, 50.0).unwrap();
        let inv = b.add_cell("inv", "INV_X1").unwrap();
        let po = b.add_fixed_cell("po", "IOPAD_OUT", 796.0, 50.0).unwrap();
        b.add_net("a", &[(pi, "PAD"), (inv, "A")]).unwrap();
        b.add_net("b", &[(inv, "Y"), (po, "PAD")]).unwrap();
        let design = b.finish().unwrap();
        let mut p = Placement::new(&design);
        p.set(design.find_cell("pi").unwrap(), 0.0, 50.0);
        p.set(design.find_cell("po").unwrap(), 796.0, 50.0);
        let ep = design.cell_pin(design.find_cell("po").unwrap(), 0);

        let arrival_at = |x: f64| {
            let mut q = p.clone();
            q.set(design.find_cell("inv").unwrap(), x, 50.0);
            let mut sta = Sta::new(&design, RcParams::default()).unwrap();
            sta.analyze(&design, &q);
            sta.arrival(ep).unwrap()
        };
        // Move the inverter from `base` toward the left edge: the input
        // net shortens, the output net lengthens more than it shortens
        // (po is on the right), so past the midpoint arrival grows.
        let near = arrival_at(400.0 - base.min(390.0));
        let far = arrival_at(400.0 - (base + stretch).min(395.0));
        prop_assert!(far >= near - 1e-6, "far {far} near {near}");
    }

    /// Path enumeration: paths per endpoint are distinct, sorted by
    /// arrival, and each path's recomputed arrival matches its elements.
    #[test]
    fn enumeration_is_sorted_distinct_consistent(seed in 1u64..1_000_000) {
        let design = ladder(6, 5);
        let placement = scatter(&design, seed);
        let mut sta = Sta::new(&design, RcParams::default()).unwrap();
        sta.analyze(&design, &placement);
        let paths = sta.report_timing_endpoint(&design, usize::MAX, 8);
        let mut by_ep: std::collections::HashMap<_, Vec<&sta::TimingPath>> = Default::default();
        for p in &paths {
            by_ep.entry(p.endpoint()).or_default().push(p);
        }
        for (_, group) in by_ep {
            for w in group.windows(2) {
                prop_assert!(w[0].arrival() >= w[1].arrival() - 1e-9);
                prop_assert!(w[0].elements != w[1].elements, "duplicate path");
            }
            for p in group {
                let mut arr = sta.arrival(p.startpoint()).unwrap();
                for el in &p.elements[1..] {
                    arr += sta.arc_delay(el.arc.unwrap());
                }
                prop_assert!((arr - p.arrival()).abs() < 1e-9);
            }
        }
    }
}
