//! The benchmark's own designs and how a run's `--seed` reaches them.
//!
//! `scale50k` and `deep100k` are `benchgen` designs built here from
//! plain [`CircuitParams`] (the generator itself is untouched). Their
//! clock period is not a constant: the share of endpoints a placement
//! fails swings from ~15% to ~45% between seeds under any fixed period,
//! and the cost of a timing iteration follows the failing-endpoint
//! count. [`calibrate`] therefore places the design once,
//! wirelength-only, and sets the period so that [`FAIL_FRACTION`] of the
//! endpoints fail after that placement — the regime the paper's loop
//! works in, on every seed.

use benchgen::CircuitParams;
use netlist::Placement;
use sta::Sta;
use tdp_core::{FlowSpec, ObjectiveSpec, Session};

/// Share of endpoints that fail after the wirelength-only placement.
pub const FAIL_FRACTION: f64 = 0.2;

/// SplitMix64 of `seed + salt`: independent, well-mixed sub-seeds (one
/// per design, delta stream and job) from the one `--seed`. Kept to 53
/// bits: inline designs travel to the daemon as JSON numbers, which
/// carry no larger integer exactly.
pub fn sub_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) >> 11
}

fn suite_like(
    name: &str,
    seed: u64,
    comb: usize,
    ff: usize,
    io: usize,
    levels: usize,
) -> CircuitParams {
    CircuitParams {
        name: name.to_string(),
        seed,
        num_comb: comb,
        num_ff: ff,
        num_pi: io,
        num_po: io,
        levels,
        max_fanout: 16,
        high_fanout_fraction: 0.02,
        utilization: 0.42,
        num_macros: 0,
        // Loose until calibrated: nothing fails.
        clock_period: 1e9,
        res_per_unit: 0.3,
        cap_per_unit: 0.01,
    }
}

/// ≈55k cells, 14 levels, the suite's utilization and fanout mix: large
/// enough that kernels outweigh `parx` dispatch.
pub fn scale50k(seed: u64) -> CircuitParams {
    suite_like("scale50k", sub_seed(seed, 1), 50_000, 5_500, 220, 14)
}

/// ≈110k cells, 20 levels: deep paths, one dispatch per level per pass.
pub fn deep100k(seed: u64) -> CircuitParams {
    suite_like("deep100k", sub_seed(seed, 2), 100_000, 10_000, 300, 20)
}

/// A catalog case re-seeded from the run's seed: same shape and clock,
/// a different netlist per `--seed`.
///
/// # Panics
///
/// Panics on a name outside `benchgen::full_suite`.
pub fn reseeded_case(name: &str, seed: u64, salt: u64) -> CircuitParams {
    let case = benchgen::case_by_name(name).unwrap_or_else(|| panic!("unknown suite case {name}"));
    CircuitParams {
        seed: sub_seed(seed, salt),
        ..case.params
    }
}

/// The quick schedule (`batch::Profile::Quick`: 60–200 iterations,
/// timing from 100 every 10) for `objective` on `params` at `threads`,
/// with the iteration count pinned so every seed and rep does the same
/// amount of placement work: the timing floor (160) for timing-driven
/// objectives, the 60-iteration minimum for wirelength-only
/// `DreamPlace` (which otherwise stops wherever density converges).
pub fn quick_spec(params: &CircuitParams, objective: ObjectiveSpec, threads: usize) -> FlowSpec {
    let wirelength_only = matches!(objective, ObjectiveSpec::DreamPlace);
    let builder = batch::Profile::Quick
        .builder_for(params)
        .objective(objective)
        .threads(threads);
    let iterations = if wirelength_only {
        builder.config().placer.min_iterations
    } else {
        builder.config().timing_iteration_floor()
    };
    builder
        .iterations(iterations, iterations)
        .build()
        .expect("the quick schedule is a valid spec")
}

/// A design with its clock calibrated, and the placement it was
/// calibrated on.
pub struct Calibrated {
    /// `params` with `clock_period` set so [`FAIL_FRACTION`] fails.
    pub params: CircuitParams,
    /// The legalized wirelength-only placement (`DreamPlace`, quick
    /// schedule) the period was read from.
    pub placement: Placement,
    /// Share of endpoints failing on `placement` under the new period.
    pub failing_fraction: f64,
}

/// Places `params`' design wirelength-only (quick `DreamPlace` at
/// `threads`) and returns the parameters with the clock period at which
/// [`FAIL_FRACTION`] of the endpoints fail on that placement. Every
/// endpoint's required time moves one-for-one with the period, so the
/// new period is the old one minus the slack at that quantile.
///
/// # Panics
///
/// Panics if the generated design is cyclic or has no endpoints — a
/// generator bug, not an input error.
pub fn calibrate(params: CircuitParams, threads: usize) -> Calibrated {
    let (design, pads) = benchgen::generate(&params);
    let mut session = Session::builder(design, pads)
        .build()
        .expect("generated designs are acyclic");
    let spec = quick_spec(&params, ObjectiveSpec::DreamPlace, threads);
    let placement = session
        .run(&spec)
        .expect("builtin objectives always build")
        .placement;
    let design = session.design();
    let mut sta = Sta::new(design, eco::rc_params_for(&params))
        .expect("generated designs are acyclic")
        .with_threads(threads);
    sta.analyze(design, &placement);
    let slacks = sta.endpoint_slacks();
    assert!(!slacks.is_empty(), "design has no timing endpoints");
    let cut = ((slacks.len() as f64 * FAIL_FRACTION) as usize).min(slacks.len() - 1);
    let clock_period = params.clock_period - slacks[cut].slack;
    // Endpoints strictly worse than the cut fail; ties with it pass.
    let failing = slacks.partition_point(|e| e.slack < slacks[cut].slack);
    Calibrated {
        params: CircuitParams {
            clock_period,
            ..params
        },
        placement,
        failing_fraction: failing as f64 / slacks.len() as f64,
    }
}

impl Calibrated {
    /// Output check of the calibration itself: 10–30% of the endpoints
    /// fail on the calibration placement.
    pub fn check(&self, report: &mut crate::report::Report) {
        let share = self.failing_fraction;
        report.check((0.10..=0.30).contains(&share), || {
            format!(
                "{}: {share} of the endpoints fail after calibration, outside 10-30%",
                self.params.name
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serve::design_key;

    /// Failing share of `placement` under `params`' own clock, from a
    /// fresh analyzer on a freshly generated design.
    fn failing_share(params: &CircuitParams, placement: &Placement) -> f64 {
        let (design, _) = benchgen::generate(params);
        let mut sta = Sta::new(&design, eco::rc_params_for(params)).unwrap();
        sta.analyze(&design, placement);
        let s = sta.summary();
        s.failing_endpoints as f64 / s.total_endpoints as f64
    }

    #[test]
    fn calibrated_clocks_fail_ten_to_thirty_percent_on_every_seed() {
        for seed in [1, 2] {
            let c = calibrate(scale50k(seed), 2);
            let share = failing_share(&c.params, &c.placement);
            assert!(
                (0.10..=0.30).contains(&share),
                "scale50k seed {seed}: {share} of endpoints fail"
            );
            assert!((share - c.failing_fraction).abs() < 0.01);
        }
        let c = calibrate(deep100k(3), 2);
        let share = failing_share(&c.params, &c.placement);
        assert!(
            (0.10..=0.30).contains(&share),
            "deep100k: {share} of endpoints fail"
        );
    }

    #[test]
    fn designs_are_deterministic_per_seed_and_differ_between_seeds() {
        for make in [scale50k, deep100k] {
            assert_eq!(make(7), make(7));
            assert_ne!(design_key(&make(7)), design_key(&make(8)));
        }
        assert_ne!(design_key(&scale50k(7)), design_key(&deep100k(7)));
        // Same seed, same netlist and same calibrated clock, bit for bit.
        let small = |seed| CircuitParams {
            num_comb: 2_000,
            num_ff: 220,
            ..scale50k(seed)
        };
        let (a, b) = (calibrate(small(5), 1), calibrate(small(5), 2));
        assert_eq!(a.params, b.params, "thread count must not move the clock");
        assert_eq!(a.placement.content_hash(), b.placement.content_hash());
        assert_ne!(
            a.params.clock_period,
            calibrate(small(6), 1).params.clock_period
        );
        let reseeded = reseeded_case("sb18", 5, 0);
        assert_eq!(reseeded, reseeded_case("sb18", 5, 0));
        assert_ne!(reseeded.seed, reseeded_case("sb18", 6, 0).seed);
        assert_ne!(reseeded.seed, reseeded_case("sb18", 5, 1).seed);
    }

    #[test]
    fn sizes_match_their_names() {
        let cells = |p: &CircuitParams| p.num_comb + p.num_ff + p.num_pi + p.num_po;
        assert!((50_000..60_000).contains(&cells(&scale50k(1))));
        assert!((105_000..115_000).contains(&cells(&deep100k(1))));
        assert_eq!((scale50k(1).levels, deep100k(1).levels), (14, 20));
    }
}
