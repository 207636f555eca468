//! Layered synthetic circuit generation.
//!
//! Construction (acyclic by design):
//!
//! 1. Primary-input pads and flip-flop Q outputs form signal sources at
//!    logic level 0.
//! 2. Combinational gates are assigned levels `1..=levels`; every gate
//!    input connects to a driver from a strictly lower level, so no cycles
//!    can form.
//! 3. Flip-flop D pins and primary-output pads consume drivers from the
//!    upper levels, keeping almost every cone observable (every driver is
//!    a potential critical-path segment).
//! 4. Fanout is drawn from a geometric-flavoured distribution with a
//!    small fraction of deliberately high-fanout nets (clock-less buffers,
//!    reset-like distribution), mirroring the statistics the paper's
//!    Fig. 2 discussion assumes.

use netlist::{CellId, CellLibrary, Design, DesignBuilder, Placement, Rect, Sdc};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for one synthetic design.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitParams {
    /// Design name.
    pub name: String,
    /// RNG seed; same seed ⇒ identical design.
    pub seed: u64,
    /// Number of combinational gates.
    pub num_comb: usize,
    /// Number of flip-flops.
    pub num_ff: usize,
    /// Number of primary-input pads.
    pub num_pi: usize,
    /// Number of primary-output pads.
    pub num_po: usize,
    /// Combinational depth (logic levels between registers).
    pub levels: usize,
    /// Hard cap on net fanout.
    pub max_fanout: usize,
    /// Fraction of nets allowed to grow toward `max_fanout`.
    pub high_fanout_fraction: f64,
    /// Movable area / free die area. The die is sized so the movable
    /// cells reach this density on the area left over after macros.
    pub utilization: f64,
    /// Number of fixed `MACRO_BLK` hard macros placed on a deterministic
    /// grid in the core area. Each macro's input pin sinks one deep cone,
    /// so macros participate in timing as heavily-loaded endpoints.
    pub num_macros: usize,
    /// Clock period (paper units ≈ ps).
    pub clock_period: f64,
    /// Wire resistance per unit length (consumed by the STA layer).
    pub res_per_unit: f64,
    /// Wire capacitance per unit length (consumed by the STA layer).
    pub cap_per_unit: f64,
}

impl CircuitParams {
    /// A small smoke-test circuit (a few hundred cells).
    pub fn small(name: &str, seed: u64) -> Self {
        Self {
            name: name.to_string(),
            seed,
            num_comb: 300,
            num_ff: 40,
            num_pi: 12,
            num_po: 12,
            levels: 8,
            max_fanout: 12,
            high_fanout_fraction: 0.03,
            utilization: 0.4,
            num_macros: 0,
            clock_period: 1500.0,
            res_per_unit: 0.3,
            cap_per_unit: 0.01,
        }
    }

    /// A medium circuit (a few thousand cells) for integration tests.
    pub fn medium(name: &str, seed: u64) -> Self {
        Self {
            num_comb: 2500,
            num_ff: 300,
            num_pi: 32,
            num_po: 32,
            levels: 12,
            clock_period: 2600.0,
            ..Self::small(name, seed)
        }
    }

    /// The **high-utilization** family (`hu*`): the same layered logic as
    /// [`CircuitParams::medium`] squeezed onto a die with 68% of the free
    /// area covered by movable cells (vs the suite's 42%). Dense designs
    /// stress the density force, give legalization almost no slack to
    /// absorb displacement, and make the timing-vs-wirelength trade
    /// visibly harder — the regime where row spills and long detours
    /// appear.
    pub fn high_util(name: &str, seed: u64) -> Self {
        Self {
            num_comb: 2200,
            num_ff: 260,
            num_pi: 28,
            num_po: 28,
            levels: 10,
            max_fanout: 14,
            utilization: 0.68,
            clock_period: 2250.0,
            ..Self::small(name, seed)
        }
    }

    /// The **macro-heavy** family (`mx*`): six fixed `MACRO_BLK` hard
    /// macros on a deterministic grid in the core area. Macros carve the
    /// rows into segments (the legalizers must pack around them), act as
    /// density obstacles for global placement, and each sinks one deep
    /// cone through a high-capacitance input — the floorplan-dominated
    /// regime of SoC blocks with RAMs/IP.
    pub fn macro_heavy(name: &str, seed: u64) -> Self {
        Self {
            num_comb: 1800,
            num_ff: 220,
            num_pi: 24,
            num_po: 24,
            levels: 11,
            num_macros: 6,
            clock_period: 2750.0,
            ..Self::small(name, seed)
        }
    }

    /// The **congestion-stress** family (`cg*`): a 3×3 grid of fixed
    /// `MACRO_BLK` hard macros carves the core into narrow routing
    /// channels, and an aggressive fanout distribution (wide nets, a
    /// high share of high-fanout drivers) funnels many crossing nets
    /// through them at elevated utilization. Wire demand concentrates in
    /// the channels between macros, so the RUDY congestion map shows
    /// genuine overflow — the workload the congestion-aware objective
    /// exists to relieve, and a stress case for the routability
    /// reporting path end to end.
    pub fn congestion_stress(name: &str, seed: u64) -> Self {
        Self {
            num_comb: 1500,
            num_ff: 180,
            num_pi: 20,
            num_po: 20,
            levels: 10,
            max_fanout: 24,
            high_fanout_fraction: 0.10,
            utilization: 0.55,
            num_macros: 9,
            clock_period: 2600.0,
            ..Self::small(name, seed)
        }
    }

    /// The **deep-logic tight-clock** family (`dl*`): 26 combinational
    /// levels between registers (vs the suite's 9–15) under a clock
    /// period that leaves almost no slack per level. Long multi-gate
    /// paths dominate, so critical-path extraction sees deep, heavily
    /// shared paths — the regime the paper's path-sharing weight update
    /// (Eq. 9) targets.
    pub fn deep_logic(name: &str, seed: u64) -> Self {
        Self {
            num_comb: 2000,
            num_ff: 240,
            num_pi: 24,
            num_po: 24,
            levels: 26,
            max_fanout: 10,
            clock_period: 3950.0,
            ..Self::small(name, seed)
        }
    }
}

/// Deterministically generates the design plus a placement holding the
/// fixed IO-pad positions (movable cells at the origin; the placer
/// initializes them).
///
/// Cost: linear in the design size, apart from the sort of the gates by
/// level and one O(log n) binary search per driver pick (see
/// `pick_driver`).
///
/// # Panics
///
/// Panics if the parameters are degenerate (no sources, no levels) — the
/// generator is for test harnesses, not hostile input.
pub fn generate(params: &CircuitParams) -> (Design, Placement) {
    generate_counted(params, &mut PickWork::default())
}

/// [`generate`], adding the driver picks' work to `work`.
pub(crate) fn generate_counted(params: &CircuitParams, work: &mut PickWork) -> (Design, Placement) {
    assert!(params.levels >= 1, "need at least one logic level");
    assert!(params.num_pi + params.num_ff > 0, "need signal sources");
    assert!(params.num_po + params.num_ff > 0, "need signal sinks");
    let mut rng = StdRng::seed_from_u64(params.seed);
    let lib = CellLibrary::standard();

    // Die sizing: the movable cells reach `utilization` on the area left
    // over after the macro footprints, rounded to whole rows. With
    // macros, the die is additionally grown (if needed) until the macro
    // grid fits with clearance — so small designs with macros stay
    // legalizable rather than degenerate.
    let row_h = 10.0;
    let avg_gate_area = 28.0; // representative for the standard library
    let (macro_w, macro_h) = (48.0, 40.0); // MACRO_BLK footprint
    let macro_margin = 3.0 * row_h; // clearance to the boundary pads
    let macro_gap = 2.0 * row_h; // clearance between macros
    let macro_cols = (params.num_macros as f64).sqrt().ceil() as usize;
    let macro_rows = if macro_cols == 0 {
        0
    } else {
        params.num_macros.div_ceil(macro_cols)
    };
    let total_area = (params.num_comb + params.num_ff) as f64 * avg_gate_area;
    let macro_area = params.num_macros as f64 * macro_w * macro_h;
    let mut side = (total_area / params.utilization + macro_area).sqrt();
    if params.num_macros > 0 {
        let need_x = 2.0 * macro_margin + macro_cols as f64 * (macro_w + macro_gap) - macro_gap;
        let need_y = 2.0 * macro_margin + macro_rows as f64 * (macro_h + macro_gap) - macro_gap;
        side = side.max(need_x).max(need_y);
    }
    let side = (side / row_h).ceil() * row_h;
    let die = Rect::new(0.0, 0.0, side, side);

    let mut b = DesignBuilder::new(params.name.clone(), lib, die, row_h);
    b.set_sdc(Sdc::new(params.clock_period));

    // --- IO pads on the boundary --------------------------------------
    let mut pis: Vec<CellId> = Vec::with_capacity(params.num_pi);
    let mut pos: Vec<CellId> = Vec::with_capacity(params.num_po);
    let mut pad_positions: Vec<(CellId, f64, f64)> = Vec::new();
    for i in 0..params.num_pi {
        // Input pads on the left and top edges.
        let frac = (i as f64 + 0.5) / params.num_pi as f64;
        let (x, y) = if i % 2 == 0 {
            (0.0, frac * (side - row_h))
        } else {
            (frac * (side - 8.0), side - row_h)
        };
        let c = b
            .add_fixed_cell(&format!("pi{i}"), "IOPAD_IN", x, y)
            .expect("unique pad name");
        pad_positions.push((c, x, y));
        pis.push(c);
    }
    for i in 0..params.num_po {
        // Output pads on the right and bottom edges.
        let frac = (i as f64 + 0.5) / params.num_po as f64;
        let (x, y) = if i % 2 == 0 {
            (side - 4.0, frac * (side - row_h))
        } else {
            (frac * (side - 8.0), 0.0)
        };
        let c = b
            .add_fixed_cell(&format!("po{i}"), "IOPAD_OUT", x, y)
            .expect("unique pad name");
        pad_positions.push((c, x, y));
        pos.push(c);
    }

    // --- hard macros on a deterministic interior grid -------------------
    // Positions are RNG-free so zero-macro parameter sets generate the
    // exact designs they did before macros existed.
    let mut macros: Vec<CellId> = Vec::with_capacity(params.num_macros);
    if params.num_macros > 0 {
        let margin = macro_margin;
        let (cols, rows_m) = (macro_cols, macro_rows);
        let span_x = (side - 2.0 * margin - macro_w).max(0.0);
        let span_y = (side - 2.0 * margin - macro_h).max(0.0);
        for i in 0..params.num_macros {
            let (ci, ri) = (i % cols, i / cols);
            let fx = if cols > 1 {
                ci as f64 / (cols - 1) as f64
            } else {
                0.5
            };
            let fy = if rows_m > 1 {
                ri as f64 / (rows_m - 1) as f64
            } else {
                0.5
            };
            let x = margin + fx * span_x;
            // Row-aligned y so the macro blocks whole rows exactly.
            let y = ((margin + fy * span_y) / row_h).round() * row_h;
            let c = b
                .add_fixed_cell(&format!("blk{i}"), "MACRO_BLK", x, y)
                .expect("unique macro name");
            pad_positions.push((c, x, y));
            macros.push(c);
        }
    }

    // --- flip-flops and combinational gates ----------------------------
    let mut ffs: Vec<CellId> = Vec::with_capacity(params.num_ff);
    for i in 0..params.num_ff {
        ffs.push(
            b.add_cell(&format!("ff{i}"), "DFF_X1")
                .expect("unique name"),
        );
    }
    // Weighted gate-type mix; drive strengths skew toward X1.
    const GATES: &[(&str, u32)] = &[
        ("INV_X1", 14),
        ("INV_X2", 5),
        ("INV_X4", 2),
        ("BUF_X1", 6),
        ("BUF_X2", 3),
        ("NAND2_X1", 20),
        ("NAND2_X2", 6),
        ("NOR2_X1", 16),
        ("NOR2_X2", 5),
        ("AOI21_X1", 10),
    ];
    let gate_total: u32 = GATES.iter().map(|&(_, w)| w).sum();
    let pick_gate = |rng: &mut StdRng| {
        let mut t = rng.gen_range(0..gate_total);
        for &(name, w) in GATES {
            if t < w {
                return name;
            }
            t -= w;
        }
        unreachable!("weights cover the range")
    };

    // Level assignment: roughly uniform with a slight bias toward middle
    // levels so cones widen then narrow.
    let mut comb: Vec<(CellId, usize, &'static str)> = Vec::with_capacity(params.num_comb);
    for i in 0..params.num_comb {
        let gate = pick_gate(&mut rng);
        let level = 1 + rng.gen_range(0..params.levels);
        let c = b.add_cell(&format!("g{i}"), gate).expect("unique name");
        comb.push((c, level, gate));
    }
    comb.sort_by_key(|&(_, level, _)| level);

    // --- connectivity ---------------------------------------------------
    let mut drivers: Vec<Driver> = Vec::new();
    let geometric_fanout = |rng: &mut StdRng, high: bool, max: usize| -> usize {
        // Geometric-ish: P(f >= k+1 | f >= k) = p.
        let p = if high { 0.85 } else { 0.45 };
        let mut f = 1usize;
        while f < max && rng.gen_bool(p) {
            f += 1;
        }
        f
    };
    for &pi in &pis {
        let high = rng.gen_bool(params.high_fanout_fraction * 4.0);
        drivers.push(Driver {
            cell: pi,
            pin: "PAD",
            level: 0,
            fanout: 0,
            cap: geometric_fanout(&mut rng, high, params.max_fanout),
        });
    }
    for &ff in &ffs {
        let high = rng.gen_bool(params.high_fanout_fraction * 2.0);
        drivers.push(Driver {
            cell: ff,
            pin: "Q",
            level: 0,
            fanout: 0,
            cap: geometric_fanout(&mut rng, high, params.max_fanout),
        });
    }

    // For each gate input, pick a driver from a strictly lower level,
    // preferring the upper third of the eligible drivers and those under
    // their fanout cap.
    let mut sink_assignments: Vec<(usize, CellId, &'static str)> = Vec::new(); // (driver idx, sink cell, sink pin)
    let gate_inputs = |gate: &str| -> &'static [&'static str] {
        match gate {
            g if g.starts_with("INV") || g.starts_with("BUF") => &["A"],
            g if g.starts_with("NAND") || g.starts_with("NOR") => &["A", "B"],
            g if g.starts_with("AOI21") => &["A", "B", "C"],
            other => panic!("unknown gate {other}"),
        }
    };
    // Every driver before `first_open` is saturated (see `pick_driver`).
    let mut first_open = 0usize;
    for &(cell, level, gate) in &comb {
        for &inp in gate_inputs(gate) {
            let di = pick_driver(&mut rng, &drivers, level, &mut first_open, work);
            drivers[di].fanout += 1;
            sink_assignments.push((di, cell, inp));
        }
        // Register this gate's output as a driver for higher levels.
        let high = rng.gen_bool(params.high_fanout_fraction);
        drivers.push(Driver {
            cell,
            pin: "Y",
            level,
            fanout: 0,
            cap: geometric_fanout(&mut rng, high, params.max_fanout),
        });
    }
    // Flip-flop D inputs and primary outputs consume the deepest cones.
    for &ff in &ffs {
        let di = pick_driver(&mut rng, &drivers, params.levels + 1, &mut first_open, work);
        drivers[di].fanout += 1;
        sink_assignments.push((di, ff, "D"));
    }
    for &po in &pos {
        let di = pick_driver(&mut rng, &drivers, params.levels + 1, &mut first_open, work);
        drivers[di].fanout += 1;
        sink_assignments.push((di, po, "PAD"));
    }
    // Each macro's input sinks one deep cone (a RAM data input): the
    // high pin capacitance makes these paths genuinely hard to close.
    // No RNG draws happen here when `num_macros == 0`.
    for &blk in &macros {
        let di = pick_driver(&mut rng, &drivers, params.levels + 1, &mut first_open, work);
        drivers[di].fanout += 1;
        sink_assignments.push((di, blk, "PAD"));
    }
    // Give every dangling driver (fanout 0) one sink so all logic is
    // observable: route it to a random already-driven gate input? That
    // would double-drive. Instead attach dangling combinational outputs to
    // extra primary outputs only if within a small budget; otherwise they
    // remain dangling (harmless: they simply do not time).
    // Group sinks by driver and emit nets.
    let mut per_driver: Vec<Vec<(CellId, &'static str)>> = vec![Vec::new(); drivers.len()];
    for (di, cell, pin) in sink_assignments {
        per_driver[di].push((cell, pin));
    }
    for (di, sinks) in per_driver.iter().enumerate() {
        if sinks.is_empty() {
            continue;
        }
        let d = &drivers[di];
        let mut terms: Vec<(CellId, &str)> = Vec::with_capacity(sinks.len() + 1);
        terms.push((d.cell, d.pin));
        for &(cell, pin) in sinks {
            terms.push((cell, pin));
        }
        b.add_net(&format!("n{di}"), &terms).expect("valid net");
    }

    let design = b.finish().expect("generated design is valid");
    let mut placement = Placement::new(&design);
    for (c, x, y) in pad_positions {
        placement.set(c, x, y);
    }
    (design, placement)
}

/// An output pin available as a net driver during generation.
struct Driver {
    cell: CellId,
    pin: &'static str,
    level: usize,
    fanout: usize,
    cap: usize,
}

/// Work done by [`pick_driver`], counted for the scaling tests.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct PickWork {
    /// Driver picks (gate inputs, FF D pins, PO pads, macro inputs).
    pub(crate) picks: u64,
    /// Drivers whose headroom was tested: random draws and cursor steps.
    pub(crate) examined: u64,
    /// Picks where every draw hit a saturated driver.
    pub(crate) fallbacks: u64,
}

/// Picks a driver index with level < `level`, favouring the upper third
/// of the eligible drivers and drivers still under their fanout cap.
///
/// Up to 16 random draws: each takes, with probability 0.7, one of the
/// last `eligible_end / 3` eligible drivers (the highest levels below
/// `level`, since drivers are appended in level order), otherwise any
/// eligible driver, and returns it if it has headroom. If all 16 hit saturated
/// drivers, the first eligible driver with headroom is taken, else a
/// random one is overloaded (the cap is soft).
///
/// Cost: a binary search over the drivers (O(log n)), at most 16 draws,
/// and the forward steps of `first_open`, which add up to at most the
/// number of drivers over a whole [`generate`]. `first_open` is the caller's
/// cursor: every driver before it is saturated. That stays true because
/// a driver's fanout only grows and its cap never changes, and new
/// drivers are appended after the cursor.
fn pick_driver(
    rng: &mut StdRng,
    drivers: &[Driver],
    level: usize,
    first_open: &mut usize,
    work: &mut PickWork,
) -> usize {
    // Eligible: strictly lower level. Drivers are appended in
    // nondecreasing level order, so the eligible drivers are a prefix.
    let eligible_end = drivers.partition_point(|d| d.level < level);
    assert!(eligible_end > 0, "level > 0 always has sources");
    work.picks += 1;
    for _ in 0..16 {
        let idx = if rng.gen_bool(0.7) && eligible_end > 1 {
            let window = (eligible_end / 3).max(1);
            eligible_end - 1 - rng.gen_range(0..window)
        } else {
            rng.gen_range(0..eligible_end)
        };
        work.examined += 1;
        if drivers[idx].fanout < drivers[idx].cap {
            return idx;
        }
    }
    // Every draw hit a saturated driver: the first eligible driver with
    // headroom, else overload a random one.
    work.fallbacks += 1;
    while *first_open < eligible_end {
        work.examined += 1;
        let d = &drivers[*first_open];
        if d.fanout < d.cap {
            return *first_open;
        }
        *first_open += 1;
    }
    rng.gen_range(0..eligible_end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{fnv, io};

    /// FNV-1a of the design's `.nodes` and `.nets` serializations: every
    /// cell, master, net and pin order the generator emits.
    fn design_hash(params: &CircuitParams) -> u64 {
        let (d, _) = generate(params);
        let h = fnv::mix_bytes(fnv::OFFSET, io::write_nodes(&d).as_bytes());
        fnv::mix_bytes(h, io::write_nets(&d).as_bytes())
    }

    /// deep100k's shape (20 levels, the suite's fanout mix) at `num_comb`
    /// gates: the first-level gates exhaust the level-0 drivers, so the
    /// saturated fallback fires.
    fn deep_shape(num_comb: usize, seed: u64) -> CircuitParams {
        CircuitParams {
            name: "deep".to_string(),
            seed,
            num_comb,
            num_ff: num_comb / 10,
            num_pi: 100,
            num_po: 100,
            levels: 20,
            max_fanout: 16,
            high_fanout_fraction: 0.02,
            utilization: 0.42,
            num_macros: 0,
            clock_period: 1e9,
            res_per_unit: 0.3,
            cap_per_unit: 0.01,
        }
    }

    #[test]
    fn generated_bits_are_pinned() {
        let cases = [
            (CircuitParams::small("s", 1), 0x0c00_eec7_1bd0_587c_u64),
            (CircuitParams::deep_logic("dl", 4), 0xf98d_304a_8cd3_2fd5),
            (CircuitParams::macro_heavy("mx", 2), 0x4749_b147_4f02_48f4),
            (deep_shape(18_000, 7), 0x9de7_9d95_09c8_8279),
        ];
        let got: Vec<u64> = cases.iter().map(|(p, _)| design_hash(p)).collect();
        let want: Vec<u64> = cases.iter().map(|&(_, h)| h).collect();
        assert_eq!(got, want, "generator output bits moved: {got:#x?}");
    }

    /// Drivers examined per pick is flat from ~5k to ~40k cells: no
    /// stage of the pick walks a share of the driver list.
    #[test]
    fn scaling_counts_driver_picks_are_flat() {
        let per_pick: Vec<f64> = [4_500, 9_000, 18_000, 36_000]
            .into_iter()
            .map(|num_comb| {
                let mut work = PickWork::default();
                generate_counted(&deep_shape(num_comb, 7), &mut work);
                assert!(work.fallbacks > 0, "{num_comb}: the fallback never fired");
                work.examined as f64 / work.picks as f64
            })
            .collect();
        for &p in &per_pick[1..] {
            assert!(
                p <= 1.2 * per_pick[0],
                "drivers examined per pick grows: {per_pick:?}"
            );
        }
    }

    #[test]
    fn generated_design_validates() {
        let (d, _) = generate(&CircuitParams::small("t", 1));
        d.validate().unwrap();
        let stats = d.stats();
        assert_eq!(stats.num_sequential, 40);
        assert!(stats.num_cells >= 300 + 40 + 24);
        assert!(stats.utilization > 0.2 && stats.utilization < 0.6);
    }

    #[test]
    fn generation_is_deterministic() {
        let p = CircuitParams::small("t", 99);
        let (d1, pl1) = generate(&p);
        let (d2, pl2) = generate(&p);
        assert_eq!(d1.num_cells(), d2.num_cells());
        assert_eq!(d1.num_nets(), d2.num_nets());
        for n in d1.net_ids() {
            assert_eq!(d1.net_pins(n), d2.net_pins(n));
        }
        for c in d1.cell_ids() {
            assert_eq!(pl1.get(c), pl2.get(c));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let (d1, _) = generate(&CircuitParams::small("t", 1));
        let (d2, _) = generate(&CircuitParams::small("t", 2));
        let nets_equal = d1.num_nets() == d2.num_nets()
            && d1.net_ids().all(|n| d1.net_pins(n) == d2.net_pins(n));
        assert!(!nets_equal, "seeds 1 and 2 produced identical netlists");
    }

    #[test]
    fn fanout_respects_cap_softly() {
        let p = CircuitParams::small("t", 5);
        let (d, _) = generate(&p);
        let max_degree = d.stats().max_net_degree;
        // Degree = fanout + 1 driver; the cap is soft but should rarely
        // blow past 2x.
        assert!(
            max_degree <= 2 * p.max_fanout + 1,
            "max degree {max_degree}"
        );
    }

    #[test]
    fn pads_are_on_the_boundary() {
        let p = CircuitParams::small("t", 3);
        let (d, pl) = generate(&p);
        let die = d.die();
        for c in d.cell_ids() {
            if !d.cell(c).fixed {
                continue;
            }
            let (x, y) = pl.get(c);
            let on_edge =
                x <= die.lx + 1e-9 || x >= die.ux - 8.0 || y <= die.ly + 1e-9 || y >= die.uy - 10.0;
            assert!(
                on_edge,
                "pad {} at ({x},{y}) not on boundary",
                d.cell(c).name
            );
        }
    }

    #[test]
    fn timing_graph_is_acyclic() {
        // The layered construction must never create combinational loops;
        // verified through the netlist validity plus a topological check in
        // the sta crate's integration tests. Here: every gate input's
        // driver is at a strictly lower level by construction, so a simple
        // stand-in: the design builds and validates.
        let (d, _) = generate(&CircuitParams::medium("m", 11));
        d.validate().unwrap();
        assert!(d.num_cells() > 2500);
    }
}
