//! Synthetic benchmark suite for the Efficient-TDP reproduction.
//!
//! The paper evaluates on the ICCAD-2015 `superblue` designs, which are not
//! redistributable and far too large for a single-core reproduction. This
//! crate generates deterministic, structurally similar circuits instead:
//! flip-flop-bounded layered combinational logic with a realistic fanout
//! distribution, IO pads fixed on the die boundary, and a clock period
//! tight enough that a coarse placement fails timing on many endpoints —
//! the regime the paper's optimization operates in.
//!
//! * [`circuit`] — the generator itself ([`CircuitParams`], [`generate`]).
//! * [`mod@suite`] — the eight named benchmark cases (`sb1` … `sb18`) used by
//!   every table and figure harness.
//! * [`mod@eco_stress`] — deterministic ECO delta streams (seeded
//!   move/resize sequences at pinned churn levels), shared by the
//!   differential tests, the perf kernels and the CI smoke job.
//!
//! # Example
//!
//! ```
//! use benchgen::{CircuitParams, generate};
//!
//! let params = CircuitParams::small("demo", 7);
//! let (design, placement) = generate(&params);
//! assert!(design.num_cells() > 100);
//! assert!(design.stats().num_sequential > 0);
//! let _ = placement;
//! // Regenerating with the same seed gives the identical design.
//! let (design2, _) = generate(&params);
//! assert_eq!(design.num_cells(), design2.num_cells());
//! ```

pub mod circuit;
pub mod eco_stress;
pub mod suite;

pub use circuit::{generate, CircuitParams};
pub use eco_stress::{eco_stress, next_drive_variant, EcoStep, EcoStressParams, CHURN_LEVELS};
pub use suite::{case_by_name, full_suite, suite, SuiteCase};

use netlist::{Design, Placement};

/// Deterministic xorshift scatter of the movable cells across the die —
/// the shared "mid-flow placement" stand-in the equivalence tests and
/// the ECO stress streams measure against. Fixed cells keep their
/// `pads` positions.
pub fn scatter_placement(design: &Design, pads: &Placement, seed: u64) -> Placement {
    let mut p = pads.clone();
    let die = design.die();
    let mut s = seed.max(1);
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
        p.set(c, x, y);
    }
    p
}
