//! The pinned benchmark kernels.
//!
//! Each kernel is a deterministic, state-restoring operation that
//! returns a result checksum: the same bits on every repetition and at
//! every thread count, so [`measure`] doubles as a
//! correctness assertion. The inputs are pinned too: a suite case's
//! generated design plus the deterministic seeded-jitter initial
//! placement [`GlobalPlacer::new`] produces, so two machines benchmark
//! literally the same netlist and coordinates.
//!
//! `rc_refresh_legacy` deserves a note: it is a faithful emulation of
//! the pre-arena RC refresh (one [`RcTree`] — five `Vec`s — per net per
//! pass, plus two collects for the load/delay hand-off), kept as a
//! benchmark so the recorded trajectory shows what the slab-backed
//! [`sta::RcForest`] bought. It computes its checksum over the same
//! values in the same order as `rc_refresh_full`, so the two kernels'
//! checksums must be **bitwise equal** — the CLI asserts exactly that.

use crate::{measure, mix_f64, mix_u64, Sample, FNV_OFFSET};
use benchgen::CircuitParams;
use netlist::{CellId, Design, Placement};
use placer::{ElectrostaticDensity, GlobalPlacer, PlacerConfig, WaScratch, WaWirelength};
use sta::{ArcKind, NetTopology, RcParams, RcSkeleton, RcTree, Sta, TimingGraph};
use tdp_core::{FlowBuilder, ObjectiveSpec, Session};
use tdp_route::{CongestionAnalyzer, RouteConfig};

/// Kernels measured at every pinned thread count of the profile.
pub const MICRO_KERNELS: &[&str] = &[
    "rc_refresh_legacy",
    "rc_refresh_full",
    "sta_full",
    "sta_incremental",
    "wl_grad",
    "density_grad",
    "rudy",
    "eco_query_incremental",
    "eco_query_full",
];

/// End-to-end kernels (full profile only): a warm session re-run and a
/// small concurrent batch.
pub const E2E_KERNELS: &[&str] = &["session_warm", "batch_throughput"];

/// Whether `kernel` is measured at `threads` workers. Single-threaded by
/// construction: the legacy RC loop (the serial baseline the speedup is
/// quoted against) and the warm session (per-run kernels default to one
/// thread). The batch kernel owns its worker pool, so it is recorded
/// once, under the pinned pool size.
pub fn runs_at(kernel: &str, threads: usize) -> bool {
    match kernel {
        "rc_refresh_legacy" | "session_warm" => threads == 1,
        "batch_throughput" => threads == BATCH_WORKERS,
        _ => true,
    }
}

/// Worker-pool size the `batch_throughput` kernel is pinned to.
pub const BATCH_WORKERS: usize = 2;

/// One loaded suite case: the generated design plus the two placements
/// the kernels consume.
#[derive(Debug)]
pub struct Case {
    /// Suite case name.
    pub name: String,
    /// Generator parameters (reused verbatim by the batch kernel).
    pub params: CircuitParams,
    /// The generated design.
    pub design: Design,
    /// Generator placement: pads/fixed cells at their final positions.
    pub pads: Placement,
    /// Benchmark placement: the deterministic seeded-jitter initial
    /// placement of [`GlobalPlacer::new`] — every cell placed, bitwise
    /// identical on every machine.
    pub placement: Placement,
    /// Wire parasitics from the case parameters (star topology — the
    /// optimization-loop model, the hot path the arena serves).
    pub rc: RcParams,
}

/// Generates a suite case and derives the pinned benchmark placement.
///
/// # Errors
///
/// Returns the unknown case name (with the catalog) as a message.
pub fn load_case(name: &str) -> Result<Case, String> {
    let case = benchgen::case_by_name(name).ok_or_else(|| {
        let names: Vec<&str> = benchgen::full_suite().iter().map(|c| c.name).collect();
        format!(
            "unknown case {name:?} (expected one of {})",
            names.join(", ")
        )
    })?;
    let (design, pads) = benchgen::generate(&case.params);
    let placer = GlobalPlacer::new(&design, pads.clone(), PlacerConfig::default());
    let placement = placer.placement().clone();
    let rc = RcParams {
        res_per_unit: case.params.res_per_unit,
        cap_per_unit: case.params.cap_per_unit,
        topology: NetTopology::Star,
    };
    Ok(Case {
        name: case.name.to_string(),
        params: case.params,
        design,
        pads,
        placement,
        rc,
    })
}

/// Checksum of an analyzer's RC state: every net load, then every arc
/// delay in arc-source-pin order. Add/mul only — portable across
/// machines.
fn rc_state_checksum(design: &Design, sta: &Sta) -> u64 {
    let mut h = FNV_OFFSET;
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

/// [`rc_state_checksum`] plus every propagated arrival time (absent
/// arrivals — unconstrained pins — mix a marker, not a float).
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

/// Runs one kernel on one case at one thread count.
///
/// Returns `Ok(None)` when the kernel does not run at `threads` (see
/// [`runs_at`]).
///
/// # Errors
///
/// Returns a message for unknown kernels and design-construction
/// failures; kernel-internal contract violations (checksum drift
/// between reps) panic instead, because they mean a determinism bug.
pub fn run_kernel(
    case: &Case,
    kernel: &str,
    threads: usize,
    warmup: usize,
    reps: usize,
) -> Result<Option<Sample>, String> {
    if !runs_at(kernel, threads) {
        return Ok(None);
    }
    let sample = match kernel {
        "rc_refresh_full" => rc_refresh_full(case, threads, warmup, reps)?,
        "rc_refresh_legacy" => rc_refresh_legacy(case, warmup, reps)?,
        "sta_full" => sta_full(case, threads, warmup, reps)?,
        "sta_incremental" => sta_incremental(case, threads, warmup, reps)?,
        "wl_grad" => wl_grad(case, threads, warmup, reps),
        "density_grad" => density_grad(case, threads, warmup, reps),
        "rudy" => rudy(case, threads, warmup, reps),
        "eco_query_incremental" => {
            eco_query(case, eco::EcoMode::Incremental, threads, warmup, reps)?
        }
        "eco_query_full" => eco_query(case, eco::EcoMode::Full, threads, warmup, reps)?,
        "session_warm" => session_warm(case, warmup, reps)?,
        "batch_throughput" => batch_throughput(case, warmup, reps)?,
        other => return Err(format!("unknown kernel {other:?}")),
    };
    Ok(Some(sample))
}

fn new_sta(case: &Case, threads: usize) -> Result<Sta, String> {
    let mut sta =
        Sta::new(&case.design, case.rc).map_err(|e| format!("{}: timing graph: {e}", case.name))?;
    sta.set_threads(threads);
    Ok(sta)
}

/// One full RC refresh through the slab-backed [`sta::RcForest`]: the
/// kernel the arena pass optimized, and the one the `BENCH` trajectory
/// tracks against `rc_refresh_legacy`.
fn rc_refresh_full(
    case: &Case,
    threads: usize,
    warmup: usize,
    reps: usize,
) -> Result<Sample, String> {
    let design = &case.design;
    let mut sta = new_sta(case, threads)?;
    Ok(measure(warmup, reps, || {
        sta.refresh_rc(design, &case.placement);
        rc_state_checksum(design, &sta)
    }))
}

/// The pre-arena refresh, reproduced allocation-for-allocation: one
/// [`RcTree`] (five `Vec`s) per net per pass collected into per-net
/// slots, then the apply loop copying loads and delays into the flat
/// delay array. Serial, like the code it preserves. Its checksum is
/// computed over the same values in the same order as
/// `rc_refresh_full`, so the two must agree bitwise.
fn rc_refresh_legacy(case: &Case, warmup: usize, reps: usize) -> Result<Sample, String> {
    let design = &case.design;
    let placement = &case.placement;
    let graph =
        TimingGraph::build(design).map_err(|e| format!("{}: timing graph: {e}", case.name))?;
    let skeleton = RcSkeleton::build(design);
    let mut net_load = vec![0.0; design.num_nets()];
    // Same seed state as `Sta::from_parts`: gate arcs driving
    // unconnected outputs carry their intrinsic delay and are never
    // rewritten by a refresh.
    let mut arc_delay = vec![0.0; graph.num_arcs()];
    for (i, arc) in graph.arcs().enumerate() {
        if let ArcKind::Cell { intrinsic, .. } = arc.kind {
            if design.pin(arc.to).net.is_none() {
                arc_delay[i] = intrinsic;
            }
        }
    }
    Ok(measure(warmup, reps, || {
        let mut slots: Vec<Option<(f64, Vec<f64>)>> = vec![None; design.num_nets()];
        for net in design.net_ids() {
            let tree = RcTree::build_with(design, placement, net, &case.rc, &skeleton);
            slots[net.index()] = Some((tree.total_load(), tree.elmore_delays()));
        }
        for net in design.net_ids() {
            let (load, delays) = slots[net.index()].take().expect("every net refreshed");
            net_load[net.index()] = load;
            let driver = design.net(net).driver();
            for arc in graph.out_arcs(driver) {
                if let ArcKind::Net { net: n, sink_index } = graph.arc(arc).kind {
                    if n == net {
                        arc_delay[arc.index()] = delays[sink_index];
                    }
                }
            }
            for arc in graph.in_arcs(driver) {
                if let ArcKind::Cell {
                    intrinsic,
                    drive_resistance,
                } = graph.arc(arc).kind
                {
                    arc_delay[arc.index()] = intrinsic + drive_resistance * load;
                }
            }
        }
        let mut h = FNV_OFFSET;
        for net in design.net_ids() {
            h = mix_f64(h, net_load[net.index()]);
        }
        for pin in design.pin_ids() {
            for arc in graph.out_arcs(pin) {
                h = mix_f64(h, arc_delay[arc.index()]);
            }
        }
        h
    }))
}

/// Full timing analysis: RC refresh plus arrival/required propagation.
fn sta_full(case: &Case, threads: usize, warmup: usize, reps: usize) -> Result<Sample, String> {
    let design = &case.design;
    let mut sta = new_sta(case, threads)?;
    Ok(measure(warmup, reps, || {
        sta.analyze(design, &case.placement);
        sta_checksum(design, &sta)
    }))
}

/// Incremental re-analysis after moving every 50th movable cell, then
/// an exact restore (original coordinates written back, not deltas
/// un-applied — float addition does not round-trip) so every rep starts
/// from the same state. One op = two incremental updates.
fn sta_incremental(
    case: &Case,
    threads: usize,
    warmup: usize,
    reps: usize,
) -> Result<Sample, String> {
    let design = &case.design;
    let mut placement = case.placement.clone();
    let mut sta = new_sta(case, threads)?;
    sta.analyze(design, &placement);
    let moved: Vec<CellId> = design
        .cell_ids()
        .filter(|&c| !design.cell(c).fixed)
        .step_by(50)
        .collect();
    let original: Vec<(f64, f64)> = moved.iter().map(|&c| placement.get(c)).collect();
    Ok(measure(warmup, reps, || {
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
    }))
}

/// Weighted-average wirelength value + gradient (all-ones net weights).
/// `exp`-based, so its checksum is only comparable on one machine.
fn wl_grad(case: &Case, threads: usize, warmup: usize, reps: usize) -> Sample {
    let design = &case.design;
    let config = PlacerConfig::default();
    let die = design.die();
    // The engine's base gamma: gamma_factor × mean bin dimension.
    let bin = (die.width() / config.grid as f64 + die.height() / config.grid as f64) / 2.0;
    let wl = WaWirelength::new(config.gamma_factor * bin);
    let n = design.num_cells();
    let mut grad_x = vec![0.0; n];
    let mut grad_y = vec![0.0; n];
    let mut scratch = WaScratch::default();
    measure(warmup, reps, || {
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
        let mut h = mix_f64(FNV_OFFSET, value);
        for v in grad_x.iter().chain(grad_y.iter()) {
            h = mix_f64(h, *v);
        }
        h
    })
}

/// Electrostatic density energy + gradient on the default grid. FFT
/// trig inside, so its checksum is only comparable on one machine.
fn density_grad(case: &Case, threads: usize, warmup: usize, reps: usize) -> Sample {
    let design = &case.design;
    let config = PlacerConfig::default();
    let mut density = ElectrostaticDensity::new(
        design,
        &case.pads,
        config.grid,
        config.grid,
        config.target_density,
    );
    let n = design.num_cells();
    let mut grad_x = vec![0.0; n];
    let mut grad_y = vec![0.0; n];
    measure(warmup, reps, || {
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
        let mut h = mix_f64(FNV_OFFSET, energy);
        for v in grad_x.iter().chain(grad_y.iter()) {
            h = mix_f64(h, *v);
        }
        h
    })
}

/// RUDY congestion map rebuild; the checksum is the report's own
/// bitwise `map_hash` (portable: add/mul/min/max only).
fn rudy(case: &Case, threads: usize, warmup: usize, reps: usize) -> Sample {
    let design = &case.design;
    let mut analyzer = CongestionAnalyzer::new(design, RouteConfig::default());
    analyzer.set_threads(threads);
    measure(warmup, reps, || {
        analyzer.analyze(design, &case.placement);
        analyzer.summary().map_hash
    })
}

/// Churn level of the pinned ECO kernel batch: 0.5% of movable cells
/// per step — the smallest pinned [`benchgen::CHURN_LEVELS`] entry,
/// matching the interactive workload (a handful of cells per edit).
const ECO_CHURN: f64 = 0.005;
/// Seed of the pinned delta stream.
const ECO_SEED: u64 = 7;
/// Worst paths per query.
const ECO_PATHS: usize = 4;

/// One interactive ECO round-trip: apply a pinned [`ECO_CHURN`] delta batch
/// (moves + resizes from [`benchgen::eco_stress`]), answer the query,
/// revert. `mode` selects the analysis path and is the *only*
/// difference between `eco_query_incremental` and `eco_query_full`, so
/// the two kernels' checksums must be bitwise equal — the incremental
/// == rebuild contract, re-proved by every perf run — and their ns/op
/// ratio is the speedup the `BENCH` trajectory records.
fn eco_query(
    case: &Case,
    mode: eco::EcoMode,
    threads: usize,
    warmup: usize,
    reps: usize,
) -> Result<Sample, String> {
    let session = Session::builder(case.design.clone(), case.pads.clone())
        .build()
        .map_err(|e| format!("{}: session: {e}", case.name))?;
    let mut eco = eco::EcoSession::open(&session, case.rc, threads);
    eco.set_mode(mode);
    let stress = benchgen::eco_stress(
        eco.design(),
        eco.placement(),
        &benchgen::EcoStressParams::at_churn(ECO_SEED, ECO_CHURN, 1),
    );
    let batch = eco::DeltaBatch::from_step(&stress[0]);
    Ok(measure(warmup, reps, || {
        eco.apply(&batch).expect("generated deltas are valid");
        let h = eco.query(ECO_PATHS).content_hash();
        eco.revert().expect("journal is non-empty after an apply");
        h
    }))
}

/// The flow spec the session/batch kernels run: the paper objective on
/// a short schedule — long enough to cross a timing analysis and a net
/// reweighting, short enough to benchmark.
const E2E_MAX_ITERS: usize = 48;
const E2E_TIMING_START: usize = 6;
const E2E_TIMING_INTERVAL: usize = 6;

/// One warm [`Session::run`]: every run after the first reuses the
/// session's cached graph, skeleton and analyzer, so this measures the
/// steady-state cost a resident server pays per request. The cold==warm
/// contract is what makes the per-rep checksums identical.
fn session_warm(case: &Case, warmup: usize, reps: usize) -> Result<Sample, String> {
    let mut session = Session::builder(case.design.clone(), case.pads.clone())
        .build()
        .map_err(|e| format!("{}: session: {e}", case.name))?;
    let spec = FlowBuilder::new()
        .objective(ObjectiveSpec::EfficientTdp)
        .rc(case.rc)
        .iterations(4, E2E_MAX_ITERS)
        .timing_start(E2E_TIMING_START)
        .timing_interval(E2E_TIMING_INTERVAL)
        .threads(1)
        .build()
        .map_err(|e| format!("{}: flow spec: {e}", case.name))?;
    // At least one warmup so the timed reps are all-warm.
    Ok(measure(warmup.max(1), reps, || {
        let out = session.run(&spec).expect("benchmark flow runs");
        mix_u64(
            mix_u64(FNV_OFFSET, out.placement.content_hash()),
            out.iterations as u64,
        )
    }))
}

/// A small concurrent batch ([`BATCH_WORKERS`] workers) over this case:
/// plan construction, session building and the runs themselves. The
/// checksum folds every job's placement hash — the workers==serial
/// determinism contract, re-proved per rep.
fn batch_throughput(case: &Case, warmup: usize, reps: usize) -> Result<Sample, String> {
    let overrides: Vec<(String, String)> = [
        ("min_iters", "8".to_string()),
        ("max_iters", E2E_MAX_ITERS.to_string()),
        ("timing_start", E2E_TIMING_START.to_string()),
        ("timing_interval", E2E_TIMING_INTERVAL.to_string()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    let make_jobs = || {
        batch::make_jobs_for(
            &case.name,
            &case.params,
            None,
            batch::Profile::Quick,
            &overrides,
        )
    };
    // Validate the overrides once, eagerly, so errors surface as
    // messages instead of per-rep panics.
    make_jobs().map_err(|e| format!("{}: batch jobs: {e}", case.name))?;
    let cfg = batch::BatchRunConfig {
        workers: BATCH_WORKERS,
        iteration_stride: 16,
    };
    Ok(measure(warmup, reps, || {
        let plan = batch::BatchPlan::new(make_jobs().expect("validated above"));
        let result = batch::run_batch(&plan, &cfg, &batch::NullSink);
        let mut h = FNV_OFFSET;
        for report in &result.reports {
            h = mix_u64(h, report.placement_hash);
        }
        h
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_case_and_kernel_are_messages_not_panics() {
        assert!(load_case("nope").unwrap_err().contains("unknown case"));
        let case = load_case("sb18").unwrap();
        assert!(run_kernel(&case, "nope", 1, 0, 1)
            .unwrap_err()
            .contains("unknown kernel"));
    }

    #[test]
    fn thread_gating_skips_serial_only_kernels() {
        let case = load_case("sb18").unwrap();
        assert!(run_kernel(&case, "rc_refresh_legacy", 2, 0, 1)
            .unwrap()
            .is_none());
        assert!(!runs_at("session_warm", 2));
        assert!(!runs_at("batch_throughput", 1));
        assert!(runs_at("rc_refresh_full", 4));
    }

    #[test]
    fn arena_and_legacy_refresh_agree_bitwise_and_across_threads() {
        let case = load_case("sb18").unwrap();
        let legacy = run_kernel(&case, "rc_refresh_legacy", 1, 0, 1)
            .unwrap()
            .unwrap();
        let full_1t = run_kernel(&case, "rc_refresh_full", 1, 0, 1)
            .unwrap()
            .unwrap();
        let full_4t = run_kernel(&case, "rc_refresh_full", 4, 0, 1)
            .unwrap()
            .unwrap();
        assert_eq!(legacy.checksum, full_1t.checksum);
        assert_eq!(full_1t.checksum, full_4t.checksum);
    }

    #[test]
    fn sta_kernels_are_deterministic_across_threads() {
        let case = load_case("sb18").unwrap();
        for kernel in ["sta_full", "sta_incremental", "rudy"] {
            let t1 = run_kernel(&case, kernel, 1, 0, 2).unwrap().unwrap();
            let t2 = run_kernel(&case, kernel, 2, 0, 2).unwrap().unwrap();
            assert_eq!(t1.checksum, t2.checksum, "{kernel} diverged across threads");
        }
    }

    #[test]
    fn eco_kernels_agree_bitwise_across_modes_and_threads() {
        let case = load_case("sb18").unwrap();
        let inc_1t = run_kernel(&case, "eco_query_incremental", 1, 0, 2)
            .unwrap()
            .unwrap();
        let inc_2t = run_kernel(&case, "eco_query_incremental", 2, 0, 2)
            .unwrap()
            .unwrap();
        let full_1t = run_kernel(&case, "eco_query_full", 1, 0, 2)
            .unwrap()
            .unwrap();
        assert_eq!(
            inc_1t.checksum, full_1t.checksum,
            "incremental query diverged from the full rebuild"
        );
        assert_eq!(
            inc_1t.checksum, inc_2t.checksum,
            "eco query diverged across threads"
        );
    }
}
