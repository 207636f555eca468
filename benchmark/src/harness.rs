//! Shared plumbing of the workloads: run options, timed layer calls,
//! the nudge stream, the pin-pair loss loop and process-level readings.

use netlist::{CellId, CellMove, Design, Placement};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use tdp_core::{PinPairLoss, PinPairSet};

/// Kernel threads, batch workers and client connections are all pinned
/// to this — never "auto" — so a run means the same thing on any box.
pub const THREADS: usize = 2;

/// Options of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Runs `f` inside a `bench`-category span named `span` (recorded only
/// while tracing is on) and returns its result with the wall time in
/// milliseconds.
pub fn timed<R>(span: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let _span = tdp_trace::span(span, "bench");
    let t = Instant::now();
    let r = black_box(f());
    (r, t.elapsed().as_secs_f64() * 1e3)
}

/// [`timed`] `reps` times; the samples in milliseconds.
pub fn timed_reps(span: &'static str, reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..reps).map(|_| timed(span, &mut f).1).collect()
}

/// `f` timed `reps` times without a span, in microseconds — for calls
/// so short that recording the span would be part of the reading.
pub fn micros(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

/// The Eq. 9 pin-pair weights `(w0, w1)` the flow runs with by default.
pub fn pair_weights() -> (f64, f64) {
    let cfg = tdp_core::FlowConfig::default();
    (cfg.w0, cfg.w1)
}

/// Runs `setup` `reps` times, dropping each result before the next
/// set-up starts (a daemon must release its port and journal), and
/// returns the last one with every set-up's seconds.
pub fn repeat_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut seconds = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        seconds.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), seconds)
}

/// A measured phase's clock: operations start while it has time left,
/// and the one in flight finishes.
pub struct Phase {
    start: Instant,
    budget: Duration,
}

impl Phase {
    pub fn start(seconds: f64) -> Self {
        Self {
            start: Instant::now(),
            budget: Duration::from_secs_f64(seconds),
        }
    }

    pub fn running(&self) -> bool {
        self.start.elapsed() < self.budget
    }

    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// `benchmark/out`, where traces and the daemon's journal go. Inside the
/// checkout the binary was built from.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    std::fs::create_dir_all(&dir).expect("benchmark/out is creatable");
    dir
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// A periodic stream of bounded cell nudges: `steps` cumulative
/// `eco_stress` move batches forward, then the same batches undone in
/// reverse (exact original coordinates written back), and again. Every
/// step moves `churn` of the movable cells, and the placement returns to
/// its base every `2·steps` steps, so the cost of a step does not drift
/// with how many a run fits into its seconds.
pub struct NudgeStream {
    forward: Vec<Vec<CellMove>>,
    backward: Vec<Vec<CellMove>>,
    next: usize,
}

impl NudgeStream {
    pub fn new(design: &Design, base: &Placement, seed: u64, churn: f64, steps: usize) -> Self {
        let params = benchgen::EcoStressParams {
            seed,
            churn,
            steps,
            resize_fraction: 0.0,
            move_span: 0.01,
        };
        let forward: Vec<Vec<CellMove>> = benchgen::eco_stress(design, base, &params)
            .into_iter()
            .map(|s| s.moves)
            .collect();
        let mut at = base.clone();
        let mut backward = Vec::with_capacity(forward.len());
        for step in &forward {
            backward.push(
                step.iter()
                    .map(|m| {
                        let (x, y) = at.get(m.cell);
                        CellMove { cell: m.cell, x, y }
                    })
                    .collect::<Vec<_>>(),
            );
            for m in step {
                at.set(m.cell, m.x, m.y);
            }
        }
        Self {
            forward,
            backward,
            next: 0,
        }
    }

    /// Applies the next step to `placement`; returns the moved cells.
    pub fn apply_next(&mut self, placement: &mut Placement) -> Vec<CellId> {
        let n = self.forward.len();
        let phase = self.next % (2 * n);
        let moves = if phase < n {
            &self.forward[phase]
        } else {
            &self.backward[2 * n - 1 - phase]
        };
        self.next += 1;
        for m in moves {
            placement.set(m.cell, m.x, m.y);
        }
        moves.iter().map(|m| m.cell).collect()
    }
}

/// `Σ w·L` over `pairs` and its gradient added into `grad_x`/`grad_y`
/// (by cell), through the public loss functions — the arithmetic of the
/// flow's pin-to-pin attraction term (Eq. 6–8) without its β, serial.
pub fn pin_pair_gradient(
    design: &Design,
    placement: &Placement,
    pairs: &PinPairSet,
    loss: PinPairLoss,
    grad_x: &mut [f64],
    grad_y: &mut [f64],
) -> f64 {
    let mut total = 0.0;
    for (&(i, j), &w) in pairs.iter() {
        let (xi, yi) = placement.pin_position(design, i);
        let (xj, yj) = placement.pin_position(design, j);
        let (dx, dy) = (xi - xj, yi - yj);
        total += w * loss.value(dx, dy);
        let (gx, gy) = loss.gradient(dx, dy);
        let (ci, cj) = (design.pin(i).cell.index(), design.pin(j).cell.index());
        grad_x[ci] += w * gx;
        grad_y[ci] += w * gy;
        grad_x[cj] -= w * gx;
        grad_y[cj] -= w * gy;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use benchgen::CircuitParams;

    #[test]
    fn nudge_stream_is_periodic_and_moves_the_requested_share() {
        let (design, pads) = benchgen::generate(&CircuitParams::small("n", 3));
        let base = eco::resident_placement(&design, &pads);
        let mut stream = NudgeStream::new(&design, &base, 9, 0.05, 4);
        let mut p = base.clone();
        let movable = design.cell_ids().filter(|&c| !design.cell(c).fixed).count();
        for step in 0..8 {
            let moved = stream.apply_next(&mut p);
            assert_eq!(moved.len(), (movable as f64 * 0.05).round() as usize);
            if step < 7 {
                assert_ne!(p.content_hash(), base.content_hash(), "step {step}");
            }
        }
        assert_eq!(p.content_hash(), base.content_hash(), "period is 2·steps");
        stream.apply_next(&mut p);
        assert_ne!(p.content_hash(), base.content_hash());
    }

    #[test]
    fn repeat_setup_times_every_set_up_and_keeps_the_last() {
        let mut calls = 0;
        let (last, seconds) = repeat_setup(3, || {
            calls += 1;
            calls
        });
        assert_eq!((last, seconds.len()), (3, 3));
    }
}
