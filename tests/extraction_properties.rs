//! Cross-crate integration tests for the critical-path extraction claims
//! of Sec. III-B / Table 1.

use efficient_tdp::benchgen::{generate, CircuitParams};
use efficient_tdp::sta::{RcParams, Sta, TimingPath};
use efficient_tdp::tdp_core::{extraction::extraction_stats, ExtractionStrategy};

fn analyzed(seed: u64) -> (efficient_tdp::netlist::Design, Sta) {
    let params = CircuitParams::small("xprop", seed);
    let (design, mut placement) = generate(&params);
    let die = design.die();
    let mut s = seed.wrapping_mul(2654435761).max(1);
    for c in design.cell_ids() {
        if design.cell(c).fixed {
            continue;
        }
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let x = (s % 9973) as f64 / 9973.0 * (die.width() - 8.0);
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let y = (s % 9973) as f64 / 9973.0 * (die.height() - 10.0);
        placement.set(c, x, y);
    }
    let rc = RcParams {
        res_per_unit: params.res_per_unit,
        cap_per_unit: params.cap_per_unit,
        ..RcParams::default()
    };
    let mut sta = Sta::new(&design, rc).expect("acyclic");
    sta.analyze(&design, &placement);
    let _ = placement;
    (design, sta)
}

#[test]
fn endpoint_extraction_covers_all_failing_endpoints_on_every_seed() {
    for seed in [1u64, 7, 42] {
        let (design, sta) = analyzed(seed);
        let n = sta.failing_endpoints().len();
        assert!(n > 0, "seed {seed}: no failing endpoints");
        let stats = extraction_stats(
            &sta,
            &design,
            ExtractionStrategy::ReportTimingEndpoint { k: 1 },
        );
        assert_eq!(stats.num_endpoints, n, "seed {seed}");
        assert_eq!(stats.num_paths, n, "seed {seed}");
    }
}

#[test]
fn global_extraction_is_endpoint_concentrated() {
    // The Table 1 phenomenon: with the same path budget, report_timing
    // covers no more (usually far fewer) endpoints than the per-endpoint
    // command, while both stay within the budget.
    let (design, sta) = analyzed(3);
    let global = extraction_stats(
        &sta,
        &design,
        ExtractionStrategy::ReportTiming { factor: 1 },
    );
    let per_ep = extraction_stats(
        &sta,
        &design,
        ExtractionStrategy::ReportTimingEndpoint { k: 1 },
    );
    assert!(global.num_endpoints <= per_ep.num_endpoints);
    assert!(global.num_paths <= per_ep.num_paths);
    assert!(per_ep.num_pin_pairs >= global.num_pin_pairs / 2);
}

#[test]
fn deeper_per_endpoint_extraction_is_monotone() {
    let (design, sta) = analyzed(11);
    let mut prev_paths = 0usize;
    let mut prev_pairs = 0usize;
    for k in [1usize, 2, 5, 10] {
        let s = extraction_stats(
            &sta,
            &design,
            ExtractionStrategy::ReportTimingEndpoint { k },
        );
        assert!(s.num_paths >= prev_paths, "k={k}");
        assert!(s.num_pin_pairs >= prev_pairs, "k={k}");
        prev_paths = s.num_paths;
        prev_pairs = s.num_pin_pairs;
    }
}

#[test]
fn extracted_paths_are_exact_worst_paths() {
    // The k-th reported path per endpoint must be no later than the
    // (k-1)-th and the first must match the graph-worst arrival.
    let (design, sta) = analyzed(19);
    let paths = sta.report_timing_endpoint(&design, 20, 5);
    let mut per_endpoint: std::collections::HashMap<_, Vec<f64>> = Default::default();
    for p in &paths {
        per_endpoint
            .entry(p.endpoint())
            .or_default()
            .push(p.arrival());
    }
    for (ep, arrivals) in per_endpoint {
        assert!(
            (arrivals[0] - sta.arrival(ep).unwrap()).abs() < 1e-9,
            "first path must be the graph-worst arrival"
        );
        for w in arrivals.windows(2) {
            assert!(w[0] >= w[1] - 1e-9, "paths out of order at {ep:?}");
        }
    }
    let _ = design;
}

#[test]
fn pin_pairs_follow_net_direction() {
    let (design, sta) = analyzed(23);
    for path in sta.report_timing_endpoint(&design, 50, 1) {
        for (a, b) in path.net_pin_pairs(&sta) {
            let net = design.pin(a).net.expect("pair pins are connected");
            assert_eq!(design.net_driver(net), a);
            assert!(design.net_sinks(net).contains(&b));
        }
    }
}

/// Two reported paths are the same path, down to the bits.
fn assert_same_path(a: &TimingPath, b: &TimingPath, context: &str) {
    assert_eq!(a.slack.to_bits(), b.slack.to_bits(), "{context}: slack");
    assert_eq!(a.len(), b.len(), "{context}: length");
    for (x, y) in a.elements.iter().zip(&b.elements) {
        assert_eq!((x.pin, x.arc), (y.pin, y.arc), "{context}: pins and arcs");
        assert_eq!(
            x.arrival.to_bits(),
            y.arrival.to_bits(),
            "{context}: arrival"
        );
    }
}

#[test]
fn asking_for_more_paths_never_changes_the_earlier_ones() {
    // The enumeration expands a returned path's side inputs only when the
    // next path is requested, so what it returns for (n, j) must be the
    // per-endpoint prefix of what it returns for (n, k), k >= j.
    for seed in [5u64, 19] {
        let (design, sta) = analyzed(seed);
        let n = sta.failing_endpoints().len();
        assert!(n > 0, "seed {seed}: no failing endpoints");
        let per_endpoint = |k: usize| {
            let mut groups: Vec<Vec<TimingPath>> = Vec::new();
            for path in sta.report_timing_endpoint(&design, n, k) {
                match groups.last_mut() {
                    Some(g) if g[0].endpoint() == path.endpoint() => g.push(path),
                    _ => groups.push(vec![path]),
                }
            }
            assert_eq!(groups.len(), n, "seed {seed} k={k}: one group per endpoint");
            groups
        };
        let depths = [1usize, 2, 5, 10];
        let reports: Vec<_> = depths.iter().map(|&k| per_endpoint(k)).collect();
        for (ki, &k) in depths.iter().enumerate() {
            for (ji, &j) in depths[..=ki].iter().enumerate() {
                for (deep, shallow) in reports[ki].iter().zip(&reports[ji]) {
                    let prefix = &deep[..j.min(deep.len())];
                    assert_eq!(prefix.len(), shallow.len(), "seed {seed} k={k} j={j}");
                    for (i, (a, b)) in prefix.iter().zip(shallow).enumerate() {
                        assert_same_path(a, b, &format!("seed {seed} k={k} j={j} path {i}"));
                    }
                }
            }
        }

        // report_timing(m) is the same enumeration, globally sorted and
        // truncated (m failing endpoints are also the m worst overall).
        let m = n.min(12);
        let mut merged = sta.report_timing_endpoint(&design, m, m);
        merged.sort_by(|a, b| a.slack.partial_cmp(&b.slack).expect("finite slacks"));
        merged.truncate(m);
        let global = sta.report_timing(&design, m);
        assert_eq!(global.len(), merged.len(), "seed {seed}");
        for (i, (a, b)) in global.iter().zip(&merged).enumerate() {
            assert_same_path(a, b, &format!("seed {seed} report_timing path {i}"));
        }
    }
}
