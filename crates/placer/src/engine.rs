//! The global placement driver.
//!
//! [`GlobalPlacer`] minimizes `Σ_e w_e·WL_e + λ·D` (Eq. 1/5) with Nesterov
//! descent, growing λ each iteration until the density overflow target is
//! met — the ePlace/DREAMPlace recipe. A [`TimingObjective`] can inject
//! extra gradient terms and per-net weights; that is the hook the
//! `tdp-core` crate uses to add the pin-to-pin attraction of Eq. 6.
//!
//! # Per-run frozen data
//!
//! At the start of every run the engine freezes what the iteration would
//! otherwise look up in the cell library per cell per iteration: the
//! movable cells in cell order (the order of the optimizer vector's
//! halves), each one's extent (die-clamp bounds, and `w·h` is its area for
//! the Jacobi preconditioner and the overflow's divisor), pin count and
//! density splat scale — one [`MovableCells`], 32 B per movable cell. The
//! freeze lives in the engine's scratch and is redone by the next run,
//! because [`netlist::Design::set_cell_type`] may resize a cell between
//! runs; the public density entries that take a `Design` keep reading
//! masters on every call. Each frozen value feeds the expression the
//! per-iteration lookup fed, so no bit moves.
//!
//! The lookahead fill and its die clamp are one pass, as are the major
//! solution's clamp and its publication into the engine placement.
//!
//! # What stays serial
//!
//! The WA wirelength and density-field gradients run on `parx` workers.
//! The rest of the iteration stays on the calling thread, each part for
//! a measured reason: the density accumulation's bit-identical parallel
//! variants were no faster than the serial scatter; one 32-point row
//! pass of the spectral solve costs less than a `parx` dispatch; and the
//! element-wise passes (preconditioner, optimizer step, clamps) moved the
//! flow by less than its run-to-run spread. The optimizer's
//! Barzilai–Borwein dot products are sums whose order fixes their bits,
//! so they stay one serial loop in index order.

use crate::density::grid::FrozenCell;
use crate::density::{ElectrostaticDensity, MovableCells};
use crate::optim::NesterovOptimizer;
use crate::wirelength::WaWirelength;
use netlist::{Design, MoveTracker, Placement};

/// Extension point for timing-driven terms in the objective.
///
/// The engine calls the methods in this order every iteration:
/// 1. [`TimingObjective::begin_iteration`] with the current major solution
///    and the engine's [`MoveTracker`];
/// 2. [`TimingObjective::net_weights`] when building the wirelength
///    gradient;
/// 3. [`TimingObjective::accumulate_gradient`] with the lookahead solution
///    to add extra gradient terms.
///
/// The tracker reports which cells moved since they were last taken. An
/// objective that runs incremental timing calls
/// [`MoveTracker::take_changes`] whenever it consumes the set, getting the
/// moved cells and their dirty nets as one [`netlist::DirtySummary`];
/// objectives that run full analyses (or none) simply ignore it, and moves
/// keep accumulating until somebody takes them.
pub trait TimingObjective {
    /// Observes the solution at the start of iteration `iter`; a good place
    /// to run STA every m-th iteration.
    fn begin_iteration(
        &mut self,
        iter: usize,
        design: &Design,
        placement: &Placement,
        moves: &mut MoveTracker,
    );

    /// Multiplicative per-net wirelength weights; return `None` for all-ones.
    fn net_weights(&mut self, design: &Design) -> Option<&[f64]>;

    /// Adds gradient contributions at the gradient query point; returns the
    /// added loss value (for the trace).
    fn accumulate_gradient(
        &mut self,
        design: &Design,
        placement: &Placement,
        grad_x: &mut [f64],
        grad_y: &mut [f64],
    ) -> f64;
}

/// The identity objective: plain wirelength-driven placement (DREAMPlace).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoTimingObjective;

impl TimingObjective for NoTimingObjective {
    fn begin_iteration(
        &mut self,
        _iter: usize,
        _design: &Design,
        _placement: &Placement,
        _moves: &mut MoveTracker,
    ) {
    }
    fn net_weights(&mut self, _design: &Design) -> Option<&[f64]> {
        None
    }
    fn accumulate_gradient(
        &mut self,
        _design: &Design,
        _placement: &Placement,
        _grad_x: &mut [f64],
        _grad_y: &mut [f64],
    ) -> f64 {
        0.0
    }
}

/// Global placer hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacerConfig {
    /// Density grid dimension (bins per axis, power of two).
    pub grid: usize,
    /// Allowed bin fill ratio (ePlace target density).
    pub target_density: f64,
    /// WA smoothing as a multiple of the bin dimension.
    pub gamma_factor: f64,
    /// Hard iteration cap.
    pub max_iterations: usize,
    /// Do not stop before this many iterations even if overflow is met.
    pub min_iterations: usize,
    /// Stop once overflow falls below this value (after `min_iterations`).
    pub stop_overflow: f64,
    /// RNG seed for the initial cell spreading.
    pub seed: u64,
    /// Worker count for the gradient kernels (0 = auto, 1 = serial).
    /// Any value produces bit-identical placements. `Session::run`
    /// overwrites it with `FlowConfig::threads`.
    pub threads: usize,
}

impl Default for PlacerConfig {
    fn default() -> Self {
        Self {
            grid: 32,
            target_density: 1.0,
            gamma_factor: 4.0,
            max_iterations: 1000,
            min_iterations: 100,
            stop_overflow: 0.07,
            seed: 1,
            threads: 1,
        }
    }
}

/// Multiplier applied to λ every iteration while overflow is above target.
const LAMBDA_MULT: f64 = 1.05;
/// Scale on the initial λ balance.
const LAMBDA_INIT_FACTOR: f64 = 1.0;
/// Initial optimizer step (placement units); BB adapts it afterwards.
const INITIAL_STEP: f64 = 1.0;
/// Most trace rows reserved up front (the default iteration budget): a
/// run that converges early must not reserve its whole, caller-chosen
/// `max_iterations`, and a longer one grows the trace as it goes.
const TRACE_RESERVE: usize = 1000;

/// Per-iteration trace entry (drives the Fig. 5 curves).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationStats {
    /// Iteration index (0-based).
    pub iter: usize,
    /// Exact HPWL of the major solution.
    pub hpwl: f64,
    /// Density overflow of the major solution.
    pub overflow: f64,
    /// Current density multiplier λ.
    pub lambda: f64,
    /// Extra (timing) loss reported by the objective.
    pub timing_loss: f64,
}

/// Output of a placement run.
#[derive(Debug, Clone)]
pub struct PlaceResult {
    /// Final (global, not legalized) placement.
    pub placement: Placement,
    /// Exact HPWL of the final placement.
    pub hpwl: f64,
    /// Final density overflow.
    pub overflow: f64,
    /// Number of iterations executed.
    pub iterations: usize,
    /// Per-iteration statistics.
    pub trace: Vec<IterationStats>,
}

/// Reusable buffers for the iteration loop: the two gradient fields, the
/// flattened optimizer gradient, the λ-init fields, the lookahead
/// placement, the wirelength workspace and the run's frozen cell data.
/// Taken out of the engine at the start of [`GlobalPlacer::run_observed`]
/// and put back at the end, so with serial kernels (threads=1) the loop
/// body — and repeated runs on one engine — allocate nothing per
/// iteration; a multi-threaded `parx` dispatch still allocates its result
/// slots and spawns its scoped threads on every call.
#[derive(Debug, Default)]
struct EngineScratch {
    grad_x: Vec<f64>,
    grad_y: Vec<f64>,
    flat_grad: Vec<f64>,
    dx: Vec<f64>,
    dy: Vec<f64>,
    /// Gradient-query-point placement. Movable cells are fully rewritten
    /// by the lookahead fill each iteration and fixed cells never move, so
    /// reusing it across iterations (and runs) is exact.
    lookahead: Option<Placement>,
    wl: crate::wirelength::WaScratch,
    /// The movable cells' masters, frozen at the start of every run (in
    /// the order of the optimizer vector's halves). A resize between runs
    /// ([`netlist::Design::set_cell_type`]) changes them, so nothing here
    /// outlives the run that froze it.
    cells: MovableCells,
}

/// The nonlinear global placement engine.
#[derive(Debug)]
pub struct GlobalPlacer {
    config: PlacerConfig,
    /// Current placement (fixed cells keep their seed positions).
    placement: Placement,
    density: ElectrostaticDensity,
    lambda: f64,
    scratch: EngineScratch,
}

impl GlobalPlacer {
    /// Creates an engine. `initial` must hold the fixed-cell positions;
    /// movable cells are (re)initialized near the die center with a
    /// deterministic jitter derived from `config.seed`.
    pub fn new(design: &Design, initial: Placement, config: PlacerConfig) -> Self {
        let mut placement = initial;
        let die = design.die();
        let (cx, cy) = (die.lx + die.width() / 2.0, die.ly + die.height() / 2.0);
        let mut rng = SplitMix::new(config.seed);
        for c in design.cell_ids().filter(|&c| !design.cell(c).fixed) {
            let jx = (rng.next_f64() - 0.5) * die.width() * 0.2;
            let jy = (rng.next_f64() - 0.5) * die.height() * 0.2;
            let ty = design.cell_type(c);
            placement.set(c, cx - ty.width / 2.0 + jx, cy - ty.height / 2.0 + jy);
        }
        placement.clamp_to_die(design);
        let density = ElectrostaticDensity::new(
            design,
            &placement,
            config.grid,
            config.grid,
            config.target_density,
        );
        Self {
            config,
            placement,
            density,
            lambda: 0.0,
            scratch: EngineScratch::default(),
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &PlacerConfig {
        &self.config
    }

    /// Runs wirelength-driven placement (no timing terms).
    pub fn run(&mut self, design: &Design) -> PlaceResult {
        self.run_with(design, &mut NoTimingObjective)
    }

    /// Runs placement with a timing objective plugged in.
    pub fn run_with(&mut self, design: &Design, timing: &mut dyn TimingObjective) -> PlaceResult {
        self.run_observed(design, timing, &mut |_| true)
    }

    /// [`GlobalPlacer::run_with`] with a per-iteration observer callback.
    ///
    /// `on_iteration` is invoked after every iteration with the stats just
    /// pushed onto the trace; returning `false` stops the run early. The
    /// result is still well-formed — the placement reflects the last
    /// completed iteration and the trace covers every executed iteration —
    /// so callers can legalize and evaluate a partial run. With a callback
    /// that always returns `true` this is exactly [`GlobalPlacer::run_with`].
    pub fn run_observed(
        &mut self,
        design: &Design,
        timing: &mut dyn TimingObjective,
        on_iteration: &mut dyn FnMut(&IterationStats) -> bool,
    ) -> PlaceResult {
        let die = design.die();
        let bin = (self.density.grid().bin_w() + self.density.grid().bin_h()) / 2.0;
        let base_gamma = self.config.gamma_factor * bin;

        let mut bufs = std::mem::take(&mut self.scratch);
        bufs.cells.freeze(design, self.density.grid());
        let cells = &bufs.cells;
        let n = cells.cells().len();

        // Flatten movable coordinates into the optimizer vector [xs, ys].
        let mut x0 = Vec::with_capacity(2 * n);
        for s in cells.cells() {
            x0.push(self.placement.get(s.id).0);
        }
        for s in cells.cells() {
            x0.push(self.placement.get(s.id).1);
        }
        let mut opt = NesterovOptimizer::new(x0, INITIAL_STEP);
        // Trust region: never move a cell more than one bin per iteration.
        opt.set_max_move(bin.max(1.0));

        bufs.grad_x.clear();
        bufs.grad_x.resize(design.num_cells(), 0.0);
        bufs.grad_y.clear();
        bufs.grad_y.resize(design.num_cells(), 0.0);
        bufs.flat_grad.clear();
        bufs.flat_grad.resize(2 * n, 0.0);
        let grad_x = &mut bufs.grad_x;
        let grad_y = &mut bufs.grad_y;
        let flat_grad = &mut bufs.flat_grad;
        let mut trace = Vec::with_capacity(self.config.max_iterations.min(TRACE_RESERVE));
        let mut scratch = bufs
            .lookahead
            .take()
            .unwrap_or_else(|| self.placement.clone());
        let mut iterations = 0;
        let threads = self.config.threads;
        // Seeded from the initial solution (the optimizer's start vector
        // was read from `self.placement`); the timing objective takes the
        // change set from it whenever it consumes the moved cells.
        let mut moves = MoveTracker::new(&self.placement);
        let wl_scratch = &mut bufs.wl;

        for iter in 0..self.config.max_iterations {
            let _iter_span = tdp_trace::span("placer.iteration", "placer");
            iterations = iter + 1;
            // `self.placement` holds the major solution: the optimizer
            // started from it, and every iteration publishes its step.
            {
                // Timing analysis + net reweighting (the objective's
                // begin-of-iteration work — the RuntimeBreakdown
                // `timing_analysis`/`weighting` categories).
                let _span = tdp_trace::span("placer.weighting", "placer");
                timing.begin_iteration(iter, design, &self.placement, &mut moves);
            }

            // Evaluate gradients at the lookahead point, clamped into the
            // die as it is filled.
            {
                let v = opt.query_point();
                for (k, s) in cells.cells().iter().enumerate() {
                    let (hi_x, hi_y) = clamp_bounds(die, s);
                    scratch.set(s.id, v[k].clamp(die.lx, hi_x), v[n + k].clamp(die.ly, hi_y));
                }
            }

            let overflow = {
                let _span = tdp_trace::span("placer.density_update", "placer");
                self.density.update_frozen(cells, &scratch);
                self.density.overflow()
            };
            // DREAMPlace-style γ annealing: smooth while unspread, sharp at
            // convergence.
            let gamma = base_gamma * 10.0f64.powf(2.0 * overflow - 1.0);
            let wl = WaWirelength::new(gamma.max(1e-3));

            grad_x.iter_mut().for_each(|g| *g = 0.0);
            grad_y.iter_mut().for_each(|g| *g = 0.0);
            // Borrow the objective's weights in place; an empty slice
            // means all-ones to the wirelength kernel.
            let weights: &[f64] = timing.net_weights(design).unwrap_or(&[]);
            {
                let _span = tdp_trace::span("placer.gradient.wirelength", "placer");
                wl.accumulate_gradient_threads(
                    design, &scratch, weights, grad_x, grad_y, threads, wl_scratch,
                );
            }

            if self.lambda == 0.0 {
                // ePlace λ₀: balance the two gradient field magnitudes.
                let wl_norm: f64 = cells
                    .cells()
                    .iter()
                    .map(|s| grad_x[s.id.index()].abs() + grad_y[s.id.index()].abs())
                    .sum();
                bufs.dx.clear();
                bufs.dx.resize(design.num_cells(), 0.0);
                bufs.dy.clear();
                bufs.dy.resize(design.num_cells(), 0.0);
                self.density.accumulate_gradient_threads(
                    design,
                    &scratch,
                    1.0,
                    &mut bufs.dx,
                    &mut bufs.dy,
                    threads,
                );
                let d_norm: f64 = cells
                    .cells()
                    .iter()
                    .map(|s| bufs.dx[s.id.index()].abs() + bufs.dy[s.id.index()].abs())
                    .sum();
                self.lambda = if d_norm > 0.0 {
                    LAMBDA_INIT_FACTOR * wl_norm / d_norm
                } else {
                    1e-4
                };
            }
            {
                let _span = tdp_trace::span("placer.gradient.density", "placer");
                self.density.accumulate_gradient_threads(
                    design,
                    &scratch,
                    self.lambda,
                    grad_x,
                    grad_y,
                    threads,
                );
            }
            let timing_loss = {
                let _span = tdp_trace::span("placer.gradient.timing", "placer");
                timing.accumulate_gradient(design, &scratch, grad_x, grad_y)
            };

            // Jacobi preconditioning: normalize by pin count + λ·area.
            for (k, s) in cells.cells().iter().enumerate() {
                let i = s.id.index();
                // `w * h` is the master's `area()`.
                let h = (f64::from(s.pins) + self.lambda * (s.w * s.h)).max(1.0);
                flat_grad[k] = grad_x[i] / h;
                flat_grad[n + k] = grad_y[i] / h;
            }
            opt.step(flat_grad);

            // Clamp the major solution into the die and publish it.
            {
                let sol = opt.solution_mut();
                for (k, s) in cells.cells().iter().enumerate() {
                    let (hi_x, hi_y) = clamp_bounds(die, s);
                    let x = sol[k].clamp(die.lx, hi_x);
                    let y = sol[n + k].clamp(die.ly, hi_y);
                    sol[k] = x;
                    sol[n + k] = y;
                    self.placement.set(s.id, x, y);
                }
            }
            let hpwl = self.placement.total_hpwl(design);
            trace.push(IterationStats {
                iter,
                hpwl,
                overflow,
                lambda: self.lambda,
                timing_loss,
            });
            if !on_iteration(trace.last().expect("just pushed")) {
                break;
            }

            // Grow the density multiplier only while the overflow target is
            // unmet; afterwards hold it, so extended (timing) iterations
            // refine a stable placement instead of fighting a runaway
            // density force.
            if overflow > self.config.stop_overflow {
                self.lambda *= LAMBDA_MULT;
            }
            if overflow < self.config.stop_overflow && iter + 1 >= self.config.min_iterations {
                break;
            }
        }

        // Every exit from the loop follows a publish, so `self.placement`
        // already holds the final solution.
        self.density.update_frozen(cells, &self.placement);
        let overflow = self.density.overflow();
        bufs.lookahead = Some(scratch);
        self.scratch = bufs;
        PlaceResult {
            placement: self.placement.clone(),
            hpwl: self.placement.total_hpwl(design),
            overflow,
            iterations,
            trace,
        }
    }

    /// The current placement (fixed positions plus the latest solution).
    pub fn placement(&self) -> &Placement {
        &self.placement
    }
}

/// Upper die-clamp bounds of a frozen cell's origin, as
/// [`Placement::clamp_to_die`] computes them.
fn clamp_bounds(die: netlist::Rect, s: &FrozenCell) -> (f64, f64) {
    ((die.ux - s.w).max(die.lx), (die.uy - s.h).max(die.ly))
}

/// SplitMix64: tiny deterministic RNG for the initial jitter.
#[derive(Debug, Clone)]
struct SplitMix {
    state: u64,
}

impl SplitMix {
    fn new(seed: u64) -> Self {
        Self {
            state: seed.wrapping_add(0x9E3779B97F4A7C15),
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::legalize::{abacus_legalize, check_legal};
    use netlist::{CellLibrary, DesignBuilder, Rect};

    /// A grid of small combinational clusters between IO pads — enough
    /// structure for the placer to have something to optimize.
    fn mesh_design(chains: usize, chain_len: usize) -> (netlist::Design, Placement) {
        let die = 256.0;
        let mut b = DesignBuilder::new(
            "mesh",
            CellLibrary::standard(),
            Rect::new(0.0, 0.0, die, die),
            10.0,
        );
        let mut fixed = Vec::new();
        for i in 0..chains {
            let frac = (i as f64 + 0.5) / chains as f64;
            let pi = b
                .add_fixed_cell(&format!("pi{i}"), "IOPAD_IN", 0.0, frac * (die - 10.0))
                .unwrap();
            fixed.push((pi, 0.0, frac * (die - 10.0)));
            let mut prev = pi;
            let mut pin = "PAD".to_string();
            for j in 0..chain_len {
                let c = b.add_cell(&format!("u{i}_{j}"), "INV_X1").unwrap();
                b.add_net(&format!("n{i}_{j}"), &[(prev, pin.as_str()), (c, "A")])
                    .unwrap();
                prev = c;
                pin = "Y".to_string();
            }
            let po = b
                .add_fixed_cell(
                    &format!("po{i}"),
                    "IOPAD_OUT",
                    die - 4.0,
                    frac * (die - 10.0),
                )
                .unwrap();
            fixed.push((po, die - 4.0, frac * (die - 10.0)));
            b.add_net(&format!("ne{i}"), &[(prev, pin.as_str()), (po, "PAD")])
                .unwrap();
        }
        let d = b.finish().unwrap();
        let mut p = Placement::new(&d);
        for (c, x, y) in fixed {
            p.set(c, x, y);
        }
        (d, p)
    }

    #[test]
    fn placement_reduces_overflow_and_spreads_cells() {
        let (d, init) = mesh_design(8, 12);
        let config = PlacerConfig {
            max_iterations: 300,
            min_iterations: 30,
            ..Default::default()
        };
        let mut placer = GlobalPlacer::new(&d, init, config);
        let result = placer.run(&d);
        assert!(
            result.overflow < 0.2,
            "final overflow too high: {}",
            result.overflow
        );
        // Overflow must broadly decrease from start to finish.
        let first = result.trace.first().unwrap().overflow;
        assert!(result.overflow < first, "no spreading happened");
    }

    #[test]
    fn placement_is_deterministic_for_fixed_seed() {
        let (d, init) = mesh_design(4, 8);
        let config = PlacerConfig {
            max_iterations: 50,
            min_iterations: 10,
            ..Default::default()
        };
        let r1 = GlobalPlacer::new(&d, init.clone(), config).run(&d);
        let r2 = GlobalPlacer::new(&d, init, config).run(&d);
        assert_eq!(r1.hpwl, r2.hpwl);
        for c in d.cell_ids() {
            assert_eq!(r1.placement.get(c), r2.placement.get(c));
        }
    }

    #[test]
    fn different_seeds_give_different_initializations() {
        let (d, init) = mesh_design(4, 8);
        let c1 = PlacerConfig {
            seed: 1,
            ..Default::default()
        };
        let c2 = PlacerConfig {
            seed: 2,
            ..Default::default()
        };
        let p1 = GlobalPlacer::new(&d, init.clone(), c1);
        let p2 = GlobalPlacer::new(&d, init, c2);
        let movable = d.cell_ids().find(|&c| !d.cell(c).fixed).unwrap();
        assert_ne!(p1.placement().get(movable), p2.placement().get(movable));
    }

    #[test]
    fn result_legalizes_cleanly() {
        let (d, init) = mesh_design(6, 10);
        let config = PlacerConfig {
            max_iterations: 200,
            min_iterations: 20,
            ..Default::default()
        };
        let mut placer = GlobalPlacer::new(&d, init, config);
        let mut result = placer.run(&d);
        abacus_legalize(&d, &mut result.placement);
        check_legal(&d, &result.placement).unwrap();
    }

    #[test]
    fn timing_objective_hooks_are_called() {
        #[derive(Default)]
        struct Probe {
            begins: usize,
            grads: usize,
        }
        impl TimingObjective for Probe {
            fn begin_iteration(
                &mut self,
                _i: usize,
                _d: &Design,
                _p: &Placement,
                _m: &mut MoveTracker,
            ) {
                self.begins += 1;
            }
            fn net_weights(&mut self, _d: &Design) -> Option<&[f64]> {
                None
            }
            fn accumulate_gradient(
                &mut self,
                _d: &Design,
                _p: &Placement,
                _gx: &mut [f64],
                _gy: &mut [f64],
            ) -> f64 {
                self.grads += 1;
                1.25
            }
        }
        let (d, init) = mesh_design(2, 4);
        let config = PlacerConfig {
            max_iterations: 5,
            min_iterations: 1,
            stop_overflow: -1.0, // never stop early
            ..Default::default()
        };
        let mut placer = GlobalPlacer::new(&d, init, config);
        let mut probe = Probe::default();
        let result = placer.run_with(&d, &mut probe);
        assert_eq!(probe.begins, 5);
        assert_eq!(probe.grads, 5);
        assert!(result.trace.iter().all(|t| t.timing_loss == 1.25));
    }
}
