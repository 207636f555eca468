//! The eight kernels whose checksums `BENCH_*.json` records, rebuilt on
//! the quick profile's exact inputs.
//!
//! The kernels are the paper flow's hot paths: the RC refresh, full and
//! incremental STA, the weighted-average wirelength and electrostatic
//! density gradients, the RUDY map and the interactive ECO round-trip,
//! incremental and full. [`load_case`] builds a suite case's inputs (the
//! generated design, the seeded initial placement of
//! [`GlobalPlacer::new`], star RC from the case parameters) and
//! [`kernel`] returns one kernel's evaluation as a state-restoring
//! operation, so calling it again on the same state must give back the
//! same checksum. `tests/kernel_checksums.rs` compares every recorded
//! row against these kernels at 1 and 2 threads.
//!
//! A checksum is an FNV-1a ([`netlist::fnv`]) over the kernel's output
//! bits.

use eco::{DeltaBatch, EcoMode, EcoSession};
use netlist::fnv::{mix_f64, mix_u64, OFFSET};
use netlist::{CellId, Design, Placement};
use placer::{ElectrostaticDensity, GlobalPlacer, PlacerConfig, WaScratch, WaWirelength};
use sta::{NetTopology, RcParams, Sta};
use tdp_core::Session;
use tdp_route::{CongestionAnalyzer, RouteConfig};

/// The quick profile: its cases, kernels and pinned thread counts, in
/// the record's row order.
pub const CASES: [&str; 3] = ["sb18", "hu1", "cg1"];
pub const KERNELS: [&str; 8] = [
    "rc_refresh_full",
    "sta_full",
    "sta_incremental",
    "wl_grad",
    "density_grad",
    "rudy",
    "eco_query_incremental",
    "eco_query_full",
];
pub const THREADS: [usize; 2] = [1, 2];

/// ECO batch: 0.5% of movable cells per step (the smallest pinned
/// `benchgen::CHURN_LEVELS` entry), seed 7, 4 worst paths per query.
const ECO_CHURN: f64 = 0.005;
const ECO_SEED: u64 = 7;
const ECO_PATHS: usize = 4;

/// One suite case's kernel inputs.
pub struct Case {
    pub design: Design,
    /// The generator placement: pads and fixed cells at their final
    /// positions.
    pub pads: Placement,
    /// Every cell placed, bitwise identical on every machine.
    pub placement: Placement,
    pub rc: RcParams,
}

/// Generates suite case `name`; an unknown name is a message.
pub fn load_case(name: &str) -> Result<Case, String> {
    let params = benchgen::case_by_name(name)
        .ok_or_else(|| format!("unknown case {name:?}"))?
        .params;
    let (design, pads) = benchgen::generate(&params);
    let placement = GlobalPlacer::new(&design, pads.clone(), PlacerConfig::default())
        .placement()
        .clone();
    let rc = RcParams {
        res_per_unit: params.res_per_unit,
        cap_per_unit: params.cap_per_unit,
        topology: NetTopology::Star,
    };
    Ok(Case {
        design,
        pads,
        placement,
        rc,
    })
}

/// Every net load, then every arc delay in arc-source-pin order.
fn rc_state_checksum(design: &Design, sta: &Sta) -> u64 {
    let mut h = OFFSET;
    for net in design.net_ids() {
        h = mix_f64(h, sta.net_load(net));
    }
    let graph = sta.graph();
    for pin in design.pin_ids() {
        for arc in graph.out_arcs(pin) {
            h = mix_f64(h, sta.arc_delay(arc));
        }
    }
    h
}

/// [`rc_state_checksum`] plus every arrival time (an unconstrained pin
/// mixes a marker, not a float).
fn sta_checksum(design: &Design, sta: &Sta) -> u64 {
    let mut h = rc_state_checksum(design, sta);
    for pin in design.pin_ids() {
        h = match sta.arrival(pin) {
            Some(a) => mix_f64(h, a),
            None => mix_u64(h, 1),
        };
    }
    h
}

fn grad_checksum(value: f64, grad_x: &[f64], grad_y: &[f64]) -> u64 {
    grad_x
        .iter()
        .chain(grad_y)
        .fold(mix_f64(OFFSET, value), |h, &v| mix_f64(h, v))
}

fn new_sta(case: &Case, threads: usize) -> Sta {
    let mut sta = Sta::new(&case.design, case.rc).expect("suite designs are acyclic");
    sta.set_threads(threads);
    sta
}

/// One kernel evaluation: restores the state it ran on and returns its
/// result checksum.
pub type KernelOp<'a> = Box<dyn FnMut() -> u64 + 'a>;

/// Builds kernel `name`'s state on `case`; an unknown name is a message.
pub fn kernel<'a>(case: &'a Case, name: &str, threads: usize) -> Result<KernelOp<'a>, String> {
    let design = &case.design;
    let op: KernelOp<'a> = match name {
        "rc_refresh_full" => {
            let mut sta = new_sta(case, threads);
            Box::new(move || {
                sta.refresh_rc(design, &case.placement);
                rc_state_checksum(design, &sta)
            })
        }
        "sta_full" => {
            let mut sta = new_sta(case, threads);
            Box::new(move || {
                sta.analyze(design, &case.placement);
                sta_checksum(design, &sta)
            })
        }
        // Move every 50th movable cell by (+3.5, -1.25), re-time, then
        // write the original coordinates back (float addition does not
        // round-trip) and re-time again.
        "sta_incremental" => {
            let mut placement = case.placement.clone();
            let mut sta = new_sta(case, threads);
            sta.analyze(design, &placement);
            let moved: Vec<CellId> = design
                .cell_ids()
                .filter(|&c| !design.cell(c).fixed)
                .step_by(50)
                .collect();
            let original: Vec<(f64, f64)> = moved.iter().map(|&c| placement.get(c)).collect();
            Box::new(move || {
                for (&c, &(x, y)) in moved.iter().zip(&original) {
                    placement.set(c, x + 3.5, y - 1.25);
                }
                sta.analyze_incremental(design, &placement, &moved);
                let h = sta_checksum(design, &sta);
                for (&c, &(x, y)) in moved.iter().zip(&original) {
                    placement.set(c, x, y);
                }
                sta.analyze_incremental(design, &placement, &moved);
                h
            })
        }
        // All-ones net weights, at the engine's base gamma:
        // gamma_factor × mean bin dimension.
        "wl_grad" => {
            let config = PlacerConfig::default();
            let die = design.die();
            let bin = (die.width() / config.grid as f64 + die.height() / config.grid as f64) / 2.0;
            let wl = WaWirelength::new(config.gamma_factor * bin);
            let mut grad_x = vec![0.0; design.num_cells()];
            let mut grad_y = vec![0.0; design.num_cells()];
            let mut scratch = WaScratch::default();
            Box::new(move || {
                grad_x.fill(0.0);
                grad_y.fill(0.0);
                let value = wl.accumulate_gradient_threads(
                    design,
                    &case.placement,
                    &[],
                    &mut grad_x,
                    &mut grad_y,
                    threads,
                    &mut scratch,
                );
                grad_checksum(value, &grad_x, &grad_y)
            })
        }
        "density_grad" => {
            let config = PlacerConfig::default();
            let mut density = ElectrostaticDensity::new(
                design,
                &case.pads,
                config.grid,
                config.grid,
                config.target_density,
            );
            let mut grad_x = vec![0.0; design.num_cells()];
            let mut grad_y = vec![0.0; design.num_cells()];
            Box::new(move || {
                let energy = density.update(design, &case.placement);
                grad_x.fill(0.0);
                grad_y.fill(0.0);
                density.accumulate_gradient_threads(
                    design,
                    &case.placement,
                    1.0,
                    &mut grad_x,
                    &mut grad_y,
                    threads,
                );
                grad_checksum(energy, &grad_x, &grad_y)
            })
        }
        "rudy" => {
            let mut analyzer = CongestionAnalyzer::new(design, RouteConfig::default());
            analyzer.set_threads(threads);
            Box::new(move || {
                analyzer.analyze(design, &case.placement);
                analyzer.summary().map_hash
            })
        }
        // Apply one generated delta batch, answer the query, revert. The
        // mode is the only difference between the two kernels, so their
        // recorded checksums are equal.
        "eco_query_incremental" | "eco_query_full" => {
            let session = Session::builder(design.clone(), case.pads.clone())
                .build()
                .expect("suite sessions build");
            let mut eco = EcoSession::open(&session, case.rc, threads);
            eco.set_mode(if name == "eco_query_full" {
                EcoMode::Full
            } else {
                EcoMode::Incremental
            });
            let stress = benchgen::eco_stress(
                eco.design(),
                eco.placement(),
                &benchgen::EcoStressParams::at_churn(ECO_SEED, ECO_CHURN, 1),
            );
            let batch = DeltaBatch::from_step(&stress[0]);
            Box::new(move || {
                eco.apply(&batch).expect("generated deltas are valid");
                let h = eco.query(ECO_PATHS).content_hash();
                eco.revert().expect("journal is non-empty after an apply");
                h
            })
        }
        other => return Err(format!("unknown kernel {other:?}")),
    };
    Ok(op)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `name` twice on one state at `threads` and returns the
    /// checksum both runs agree on.
    fn checksum(case: &Case, name: &str, threads: usize) -> u64 {
        let mut op = kernel(case, name, threads).unwrap();
        let first = op();
        assert_eq!(first, op(), "{name}@{threads}t did not restore its state");
        first
    }

    #[test]
    fn unknown_case_and_kernel_are_messages_not_panics() {
        assert!(load_case("nope").err().unwrap().contains("unknown case"));
        let case = load_case("sb18").unwrap();
        assert!(kernel(&case, "nope", 1)
            .err()
            .unwrap()
            .contains("unknown kernel"));
    }

    #[test]
    fn sta_kernels_are_deterministic_across_threads() {
        let case = load_case("sb18").unwrap();
        for name in ["sta_full", "sta_incremental", "rudy"] {
            assert_eq!(
                checksum(&case, name, 1),
                checksum(&case, name, 2),
                "{name} diverged across threads"
            );
        }
    }

    #[test]
    fn eco_kernels_agree_bitwise_across_modes_and_threads() {
        let case = load_case("sb18").unwrap();
        let inc_1t = checksum(&case, "eco_query_incremental", 1);
        assert_eq!(
            inc_1t,
            checksum(&case, "eco_query_full", 1),
            "incremental query diverged from the full rebuild"
        );
        assert_eq!(
            inc_1t,
            checksum(&case, "eco_query_incremental", 2),
            "eco query diverged across threads"
        );
    }
}
