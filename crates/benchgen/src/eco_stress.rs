//! Deterministic ECO delta-stream generator.
//!
//! Every consumer of the interactive ECO path — the differential tests,
//! the `eco_query_*` perf kernels and the CI smoke job — needs the same
//! thing: a reproducible sequence of small edits against a resident
//! design. [`eco_stress`] produces one from a seed and a churn level,
//! using the same xorshift recipe as [`crate::scatter_placement`], so
//! "the 2% stream for cg1 at seed 7" means the identical edits in every
//! harness.
//!
//! A stream is a list of [`EcoStep`]s. Each step churns a fixed fraction
//! of the movable cells: most get a **bounded displacement** around
//! their current position — ECOs nudge cells, they don't teleport them
//! across the die — and a deterministic subset instead gets a
//! drive-strength resize to the next `_X1 → _X2 → _X4 → _X1` variant
//! their master family provides. Cells without a sibling variant (pads,
//! macros, flip-flops in the standard library) are moved instead, so
//! every requested churn slot yields an edit. Positions evolve across
//! steps: step `n+1` displaces from wherever step `n` put each cell.

use netlist::{CellId, CellMove, CellTypeId, Design, Placement};

/// Configuration of one delta stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EcoStressParams {
    /// Stream seed; equal seeds give bitwise-equal streams.
    pub seed: u64,
    /// Fraction of the movable cells churned per step (e.g. `0.02`).
    pub churn: f64,
    /// Number of steps in the stream.
    pub steps: usize,
    /// Fraction of each step's churned cells that are resized rather
    /// than moved (subject to a variant existing).
    pub resize_fraction: f64,
    /// Maximum displacement per move, as a fraction of each die extent:
    /// a moved cell lands uniformly in the `±move_span · die_extent`
    /// box around its current position (clamped to the die interior).
    pub move_span: f64,
}

impl EcoStressParams {
    /// A stream at one of the pinned churn levels with the default
    /// resize share and displacement bound.
    pub fn at_churn(seed: u64, churn: f64, steps: usize) -> Self {
        Self {
            seed,
            churn,
            steps,
            resize_fraction: 0.25,
            move_span: 0.05,
        }
    }
}

/// The pinned churn levels the repo quotes speedups at.
pub const CHURN_LEVELS: [f64; 3] = [0.005, 0.02, 0.10];

/// One generated delta batch: apply the moves and the resizes together,
/// then query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EcoStep {
    /// Absolute cell relocations.
    pub moves: Vec<CellMove>,
    /// Drive-strength retypes (cell, new master).
    pub resizes: Vec<(CellId, CellTypeId)>,
}

/// Advances the xorshift state (the [`crate::scatter_placement`] recipe).
fn next(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// The next drive variant of a master, if its family has one: `_X1 →
/// _X2 → _X4 → _X1`. Returns `None` for single-variant masters and for
/// variants that would not be pin-compatible.
pub fn next_drive_variant(design: &Design, cell: CellId) -> Option<CellTypeId> {
    let lib = design.library();
    let current = design.cell_type(cell);
    let (base, suffix) = current.name.rsplit_once("_X")?;
    let order = ["1", "2", "4"];
    let pos = order.iter().position(|&s| s == suffix)?;
    for step in 1..order.len() {
        let candidate = format!("{base}_X{}", order[(pos + step) % order.len()]);
        if let Some(id) = lib.by_name(&candidate) {
            if current.pin_compatible(lib.get(id)) {
                return Some(id);
            }
        }
    }
    None
}

/// Generates a deterministic delta stream for `design`, displacing from
/// `placement` (the resident positions the first step edits).
///
/// Each step selects `max(1, round(churn × movable))` distinct movable
/// cells by partial Fisher–Yates over a persistent index array (so
/// selection is deterministic and repetition-free within a step), then
/// turns the first `resize_fraction` of them into resizes where a drive
/// variant exists and bounded displacements otherwise: each moved cell
/// lands uniformly in the `±move_span` box around its current position
/// (quantized exactly like [`crate::scatter_placement`], clamped to the
/// die interior), and later steps displace from the evolved positions.
pub fn eco_stress(
    design: &Design,
    placement: &Placement,
    params: &EcoStressParams,
) -> Vec<EcoStep> {
    assert!(
        params.churn > 0.0 && params.churn <= 1.0,
        "churn must be in (0, 1]"
    );
    assert!(
        (0.0..=1.0).contains(&params.resize_fraction),
        "resize fraction must be in [0, 1]"
    );
    assert!(params.move_span > 0.0, "move span must be positive");
    let die = design.die();
    let span_x = die.width() * params.move_span;
    let span_y = die.height() * params.move_span;
    let mut movable: Vec<CellId> = design
        .cell_ids()
        .filter(|&c| !design.cell(c).fixed)
        .collect();
    if movable.is_empty() {
        return vec![EcoStep::default(); params.steps];
    }
    // Evolving positions: step `n+1` displaces from step `n`'s targets.
    let mut pos: Vec<(f64, f64)> = design.cell_ids().map(|c| placement.get(c)).collect();
    let per_step = ((movable.len() as f64 * params.churn).round() as usize).clamp(1, movable.len());
    let mut s = params.seed.max(1);
    let mut steps = Vec::with_capacity(params.steps);
    for _ in 0..params.steps {
        // Partial Fisher–Yates: the first `per_step` slots end up holding
        // a uniform, distinct sample of the movable cells.
        for i in 0..per_step {
            let j = i + (next(&mut s) as usize) % (movable.len() - i);
            movable.swap(i, j);
        }
        let resizes_wanted = (per_step as f64 * params.resize_fraction).round() as usize;
        let mut step = EcoStep::default();
        for (k, &cell) in movable[..per_step].iter().enumerate() {
            let variant = if k < resizes_wanted {
                next_drive_variant(design, cell)
            } else {
                None
            };
            match variant {
                Some(ty) => step.resizes.push((cell, ty)),
                None => {
                    let (cx, cy) = pos[cell.index()];
                    let dx = ((next(&mut s) % 9973) as f64 / 9973.0 * 2.0 - 1.0) * span_x;
                    let dy = ((next(&mut s) % 9973) as f64 / 9973.0 * 2.0 - 1.0) * span_y;
                    let x = (cx + dx).clamp(die.lx, die.ux - 8.0);
                    let y = (cy + dy).clamp(die.ly, die.uy - 10.0);
                    pos[cell.index()] = (x, y);
                    step.moves.push(CellMove { cell, x, y });
                }
            }
        }
        steps.push(step);
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, CircuitParams};

    #[test]
    fn streams_are_deterministic_and_sized() {
        let (design, pads) = generate(&CircuitParams::small("ecostress", 3));
        let placement = crate::scatter_placement(&design, &pads, 3);
        let params = EcoStressParams::at_churn(7, 0.02, 4);
        let a = eco_stress(&design, &placement, &params);
        let b = eco_stress(&design, &placement, &params);
        assert_eq!(a, b, "same seed, same stream");
        assert_eq!(a.len(), 4);
        let movable = design.stats().num_movable;
        let per_step = ((movable as f64 * 0.02).round() as usize).max(1);
        for step in &a {
            assert_eq!(step.moves.len() + step.resizes.len(), per_step);
            // Distinct cells within a step.
            let mut cells: Vec<CellId> = step
                .moves
                .iter()
                .map(|m| m.cell)
                .chain(step.resizes.iter().map(|&(c, _)| c))
                .collect();
            cells.sort_unstable();
            cells.dedup();
            assert_eq!(cells.len(), per_step);
            // All targets are inside the die; no fixed cell is touched.
            let die = design.die();
            for m in &step.moves {
                assert!(!design.cell(m.cell).fixed);
                assert!(m.x >= die.lx && m.x <= die.ux);
                assert!(m.y >= die.ly && m.y <= die.uy);
            }
        }
        // A different seed produces a different stream.
        let c = eco_stress(&design, &placement, &EcoStressParams::at_churn(8, 0.02, 4));
        assert_ne!(a, c);
    }

    #[test]
    fn resizes_are_pin_compatible_variants() {
        let (design, pads) = generate(&CircuitParams::small("ecoresize", 5));
        let placement = crate::scatter_placement(&design, &pads, 5);
        let params = EcoStressParams {
            seed: 11,
            churn: 0.10,
            steps: 2,
            resize_fraction: 1.0,
            move_span: 0.05,
        };
        let steps = eco_stress(&design, &placement, &params);
        let lib = design.library();
        let mut saw_resize = false;
        for step in &steps {
            for &(cell, ty) in &step.resizes {
                saw_resize = true;
                let old = design.cell_type(cell);
                let new = lib.get(ty);
                assert_ne!(old.name, new.name);
                assert!(old.pin_compatible(new), "{} -> {}", old.name, new.name);
            }
        }
        assert!(saw_resize, "generated circuits carry resizable masters");
    }

    #[test]
    fn churn_levels_are_pinned() {
        assert_eq!(CHURN_LEVELS, [0.005, 0.02, 0.10]);
    }
}
