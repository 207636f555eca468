//! Property-based verification of the congestion subsystem, over
//! randomized generator parameters and placements:
//!
//! * **conservation** — the wire demand summed over every bin equals the
//!   sum of per-net (extent-floored) half-perimeters, and the pin
//!   overlay equals `pin_weight · num_pins`;
//! * **thread invariance** — the map and the per-net exposures are
//!   bit-identical for every worker count;
//! * **full == incremental** — updating an analyzer with a moved-cell
//!   set (in any order, with repeats) or with the `DirtySummary` built
//!   from it produces the bit-identical map a cold full analysis of the
//!   new placement computes (the same contract the incremental STA
//!   honors);
//! * **objective invariants** — `ObjectiveSpec::CongestionAware` ends in
//!   a legal placement with a well-formed congestion report, bit-
//!   reproducibly;
//! * **one die bound** — the penalty gradient clamps boxes to the same
//!   die edge rasterization does, on grids whose bin width does not
//!   divide the die exactly;
//! * **golden route bits** — capacity after macro blockage, the per-net
//!   exposures and `box_overflow` are pinned on two suite cases, so a
//!   refactor that moves any of them fails here (the `rudy` kernel
//!   checksum covers demand only).
//!
//! The `proptest` shim draws from a deterministic SplitMix64 stream
//! (seeded by test name + case index), so every CI run explores the
//! identical sweep and failures reproduce exactly.

use efficient_tdp::benchgen::{generate, CircuitParams};
use efficient_tdp::kernels::load_case;
use efficient_tdp::netlist::fnv::{mix_f64, mix_u64, OFFSET};
use efficient_tdp::netlist::{
    CellId, CellLibrary, Design, DesignBuilder, DirtySummary, Placement, Rect,
};
use efficient_tdp::placer::legalize::check_legal;
use efficient_tdp::tdp_core::{FlowBuilder, ObjectiveSpec, Session};
use proptest::prelude::*;
use tdp_route::{CongestionAnalyzer, RouteConfig};

/// Randomized, always-generatable circuit parameters (tiny designs —
/// the analyzer runs many times per case).
fn params_from((seed, num_comb, levels, num_macros): (u64, usize, usize, usize)) -> CircuitParams {
    CircuitParams {
        num_comb,
        num_ff: 10 + num_comb / 12,
        num_pi: 6,
        num_po: 6,
        levels,
        num_macros,
        clock_period: 1100.0 + 90.0 * levels as f64,
        ..CircuitParams::small("congprop", seed)
    }
}

fn route_cfg(bins: usize) -> RouteConfig {
    RouteConfig {
        bins_x: bins,
        bins_y: bins,
        capacity: 1.0,
        ..RouteConfig::default()
    }
}

/// A deterministic pseudo-random spread of the movable cells (the
/// analyzer must handle arbitrary, not just optimized, placements).
fn scatter(design: &Design, placement: &mut Placement, salt: u64) {
    let die = design.die();
    let mut state = salt.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for c in design.cell_ids() {
        if design.cell(c).fixed {
            continue;
        }
        let x = die.lx + next() * die.width();
        let y = die.ly + next() * die.height();
        placement.set(c, x, y);
        placement.clamp_to_die(design);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Demand conservation plus bitwise thread invariance of the map,
    /// the summary and the exposures.
    #[test]
    fn demand_is_conserved_and_thread_invariant(
        raw in (1u64..10_000, 60usize..200, 3usize..9, 0usize..4),
        bins in 4usize..48,
    ) {
        let params = params_from(raw);
        let (design, mut placement) = generate(&params);
        scatter(&design, &mut placement, raw.0 ^ 0xabcdef);
        let cfg = route_cfg(bins);

        let mut serial = CongestionAnalyzer::new(&design, cfg).with_threads(1);
        serial.analyze(&design, &placement);

        // Conservation: wire demand only (blockage affects capacity,
        // never demand), pin overlay exactly pins × weight.
        let map = serial.map();
        let mut wire_total = 0.0;
        let mut demand_total = 0.0;
        for iy in 0..map.bins_y() {
            for ix in 0..map.bins_x() {
                demand_total += map.demand(ix, iy);
            }
        }
        let mut perimeters = 0.0;
        for net in design.net_ids() {
            let pins = design.net_pins(net);
            if pins.len() < 2 {
                continue;
            }
            // Recompute the extent-floored half-perimeter the analyzer
            // models (clamped into the die, each extent >= min_extent).
            let die = design.die();
            let (mut x0, mut x1) = (f64::INFINITY, f64::NEG_INFINITY);
            let (mut y0, mut y1) = (f64::INFINITY, f64::NEG_INFINITY);
            for &p in pins {
                let (px, py) = placement.pin_position(&design, p);
                x0 = x0.min(px);
                x1 = x1.max(px);
                y0 = y0.min(py);
                y1 = y1.max(py);
            }
            let w = (x1.clamp(die.lx, die.ux) - x0.clamp(die.lx, die.ux))
                .max(cfg.min_extent.min(die.width()));
            let h = (y1.clamp(die.ly, die.uy) - y0.clamp(die.ly, die.uy))
                .max(cfg.min_extent.min(die.height()));
            perimeters += w + h;
        }
        wire_total += perimeters;
        let pin_total = design.num_pins() as f64 * cfg.pin_weight;
        let expected = wire_total + pin_total;
        prop_assert!(
            (demand_total - expected).abs() <= 1e-6 * expected.max(1.0),
            "total demand {demand_total} vs Σ perimeters + pins {expected}"
        );

        // Thread invariance, bit for bit.
        let h1 = serial.map().content_hash();
        let s1 = serial.summary();
        for threads in [2, 5] {
            let mut par = CongestionAnalyzer::new(&design, cfg).with_threads(threads);
            par.analyze(&design, &placement);
            prop_assert_eq!(h1, par.map().content_hash(), "threads={}", threads);
            let sp = par.summary();
            prop_assert_eq!(s1.peak.to_bits(), sp.peak.to_bits());
            prop_assert_eq!(s1.average.to_bits(), sp.average.to_bits());
            prop_assert_eq!(s1.overflow.to_bits(), sp.overflow.to_bits());
            prop_assert_eq!(s1.overflow_bins, sp.overflow_bins);
            for (a, b) in serial.exposures().iter().zip(par.exposures()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// The incremental path is bitwise equivalent to a cold full
    /// analysis after every batch of moves, across several rounds —
    /// through both entry points, and with odd rounds handing
    /// `analyze_incremental` its cells reversed and with a repeat.
    #[test]
    fn incremental_updates_match_full_analyses_bitwise(
        raw in (1u64..10_000, 60usize..160, 3usize..8, 0usize..3),
        bins in 4usize..32,
        rounds in 1usize..4,
    ) {
        let params = params_from(raw);
        let (design, mut placement) = generate(&params);
        scatter(&design, &mut placement, raw.0 ^ 0x5eed);
        let cfg = route_cfg(bins);
        let mut inc = CongestionAnalyzer::new(&design, cfg).with_threads(2);
        inc.analyze(&design, &placement);
        let mut twin = CongestionAnalyzer::new(&design, cfg).with_threads(2);
        twin.analyze(&design, &placement);

        let movable: Vec<CellId> = design
            .cell_ids()
            .filter(|&c| !design.cell(c).fixed)
            .collect();
        let mut state = raw.0 ^ 0xfeed;
        for round in 0..rounds {
            // Move a deterministic subset of cells.
            let mut moved = Vec::new();
            for (k, &c) in movable.iter().enumerate() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if state >> 60 < 3 {
                    let (x, y) = placement.get(c);
                    let die = design.die();
                    let nx = (x + ((state >> 13) % 97) as f64 - 48.0).clamp(die.lx, die.ux - 4.0);
                    let ny = (y + ((state >> 31) % 71) as f64 - 35.0).clamp(die.ly, die.uy - 10.0);
                    placement.set(c, nx, ny);
                    moved.push(c);
                } else if k == 0 {
                    // Always move at least one cell per round.
                    moved.push(c);
                }
            }
            let changes = DirtySummary::from_moved_cells(&design, &moved);
            if round % 2 == 1 {
                moved.reverse();
                moved.push(moved[0]);
            }
            inc.analyze_incremental(&design, &placement, &moved);
            twin.analyze_changes(&design, &placement, &changes);
            let mut full = CongestionAnalyzer::new(&design, cfg).with_threads(1);
            full.analyze(&design, &placement);
            for analyzer in [&mut inc, &mut twin] {
                prop_assert_eq!(
                    analyzer.map().content_hash(),
                    full.map().content_hash(),
                    "round {} diverged",
                    round
                );
                for (a, b) in analyzer.exposures().iter().zip(full.exposures()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            prop_assert_eq!(inc.last_dirty_bins(), twin.last_dirty_bins());
        }
    }

    /// The congestion-aware objective produces legal placements with a
    /// well-formed congestion report on randomized designs, and two
    /// identical runs agree bit for bit.
    #[test]
    fn congestion_aware_is_legal_and_deterministic(
        raw in (1u64..10_000, 60usize..140, 3usize..8, 0usize..3),
    ) {
        let params = params_from(raw);
        let (design, pads) = generate(&params);
        let mut session = Session::builder(design, pads)
            .build()
            .expect("generated designs are acyclic");
        let spec = FlowBuilder::new()
            .objective(ObjectiveSpec::congestion_aware())
            .iterations(24, 60)
            .timing_start(16)
            .timing_interval(4)
            .threads(1)
            .build()
            .expect("quick schedule is valid");
        let a = session.run(&spec).expect("builtin objective builds");
        check_legal(session.design(), &a.placement)
            .unwrap_or_else(|e| panic!("{raw:?}: {e}"));
        prop_assert!(a.congestion.peak.is_finite() && a.congestion.peak >= 0.0);
        prop_assert!(a.congestion.average <= a.congestion.peak);
        prop_assert!(a.congestion.map_hash != 0);
        let b = session.run(&spec).expect("builtin objective builds");
        prop_assert_eq!(a.placement.content_hash(), b.placement.content_hash());
        prop_assert_eq!(a.congestion.map_hash, b.congestion.map_hash);
        prop_assert_eq!(a.congestion.peak.to_bits(), b.congestion.peak.to_bits());
    }
}

/// Rasterization clamps a net's box to `lx + die.width()`; the penalty
/// gradient must clamp to the same edge, bit for bit. On a 1000-wide die
/// cut into 30 bins, `bin_w · 30` misses the die width by one ulp, so a
/// bound derived from the grid would disagree.
#[test]
fn box_overflow_clamps_to_the_rasterization_die_edge() {
    let mut b = DesignBuilder::new(
        "edge",
        CellLibrary::standard(),
        Rect::new(0.0, 0.0, 1000.0, 1000.0),
        10.0,
    );
    let u1 = b.add_cell("u1", "INV_X1").unwrap();
    let u2 = b.add_cell("u2", "INV_X1").unwrap();
    b.add_net("n0", &[(u1, "Y"), (u2, "A")]).unwrap();
    let design = b.finish().unwrap();
    let mut placement = Placement::new(&design);
    placement.set(u1, 100.0, 100.0);
    placement.set(u2, 500.0, 500.0);
    let n = 30;
    let die = design.die();
    assert_ne!(
        die.width() / n as f64 * n as f64,
        die.width(),
        "the grid must not tile the die exactly for this check to bite"
    );
    let cfg = RouteConfig {
        bins_x: n,
        bins_y: n,
        ..RouteConfig::default()
    };
    let mut analyzer = CongestionAnalyzer::new(&design, cfg);
    analyzer.analyze(&design, &placement);
    // The rasterization rule: clamp into [lx, lx + width] × [ly, ly + height].
    let (ux, uy) = (die.lx + die.width(), die.ly + die.height());
    let (x0, y0) = (900.0, 880.0);
    let o = analyzer
        .map()
        .box_overflow(x0, y0, 1500.0, 1700.0, cfg.min_extent);
    assert_eq!(o.w.to_bits(), (ux - x0).to_bits(), "w {}", o.w);
    assert_eq!(o.h.to_bits(), (uy - y0).to_bits(), "h {}", o.h);
}

/// One case's pinned route bits (f64 fields as IEEE-754 bits).
struct Golden {
    case: &'static str,
    peak: u64,
    average: u64,
    overflow: u64,
    overflow_bins: usize,
    map_hash: u64,
    exposures: u64,
    boxes: u64,
}

/// Pins, across commits, the route results no recorded checksum covers:
/// the `CongestionReport` (capacity after macro blockage drives `peak`,
/// `average` and `overflow`), an FNV-1a of the exposure bits, and an
/// FNV-1a of `box_overflow` over every net's pin bounding box. `cg1`
/// has 9 macros, `sb18` none; both use the default 32×32 grid on the
/// seeded initial placement the kernel checksums use. Every operation
/// involved is an add, mul, div, min, max or cast, so the bits are
/// portable across machines.
#[test]
fn route_bits_are_pinned_on_suite_cases() {
    let golden = [
        Golden {
            case: "cg1",
            peak: 0x4058b88c39b85900,
            average: 0x3ff3a5ff5f28362b,
            overflow: 0x409219b0d753872f,
            overflow_bins: 36,
            map_hash: 0x19702fc112d5af29,
            exposures: 0xa657c171eb16fedd,
            boxes: 0x9e02f2334460abca,
        },
        Golden {
            case: "sb18",
            peak: 0x403179c99e2e1d4d,
            average: 0x3fd8c87dcd098993,
            overflow: 0x4073eb183e6d00bc,
            overflow_bins: 36,
            map_hash: 0xa66e88dcb46a9ef3,
            exposures: 0x47c71f0f4b43d126,
            boxes: 0x60b99cf0cc295055,
        },
    ];
    for g in golden {
        let name = g.case;
        let case = load_case(name).expect("suite case");
        let (design, placement) = (&case.design, &case.placement);
        let cfg = RouteConfig::default();
        let mut analyzer = CongestionAnalyzer::new(design, cfg);
        analyzer.analyze(design, placement);
        let s = analyzer.summary();
        let got_exposure = analyzer
            .exposures()
            .iter()
            .fold(OFFSET, |h, &x| mix_f64(h, x));
        let map = analyzer.map();
        let mut got_boxes = OFFSET;
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
            let o = map.box_overflow(x0, y0, x1, y1, cfg.min_extent);
            for v in [o.mean, o.w, o.h, o.d_x0, o.d_x1, o.d_y0, o.d_y1] {
                got_boxes = mix_f64(got_boxes, v);
            }
            got_boxes = mix_u64(got_boxes, o.x_live as u64 | (o.y_live as u64) << 1);
        }
        assert_eq!((s.bins_x, s.bins_y), (32, 32), "{name}: grid");
        assert_eq!(s.peak.to_bits(), g.peak, "{name}: peak {}", s.peak);
        assert_eq!(s.average.to_bits(), g.average, "{name}: average");
        assert_eq!(s.overflow.to_bits(), g.overflow, "{name}: overflow");
        assert_eq!(s.overflow_bins, g.overflow_bins, "{name}: overflow bins");
        assert_eq!(s.map_hash, g.map_hash, "{name}: map hash");
        assert_eq!(got_exposure, g.exposures, "{name}: exposures");
        assert_eq!(got_boxes, g.boxes, "{name}: box_overflow");
    }
}
