//! Table 4: runtime comparison of DREAMPlace, DREAMPlace 4.0 and ours.
//!
//! Absolute seconds are single-core CPU figures (the paper used a GPU);
//! the reproduction target is the *ratio* structure: the pure wirelength
//! placer is far faster than either timing-driven flow, and ours is
//! competitive with DREAMPlace 4.0 thanks to the O(n·k) extraction.
//!
//! ```text
//! cargo run --release -p bench --bin table4_runtime
//! ```

use bench::{case_session, method_spec, suite_config};
use tdp_core::ObjectiveSpec;

fn main() {
    let methods = [
        ObjectiveSpec::DreamPlace,
        ObjectiveSpec::DreamPlace4,
        ObjectiveSpec::EfficientTdp,
    ];
    println!("# Table 4 — runtime (seconds, single-core)");
    println!(
        "{:<6} {:>12} {:>16} {:>12}",
        "case", "DREAMPlace", "DREAMPlace 4.0", "Ours"
    );
    let mut sums = [0.0f64; 3];
    let mut ref_sum = 0.0f64;
    for case in benchgen::suite() {
        let mut session = case_session(&case);
        let cfg = suite_config(&case);
        let mut secs = [0.0f64; 3];
        for (i, m) in methods.iter().enumerate() {
            let out = session
                .run(&method_spec(&cfg, m.clone()))
                .expect("valid spec");
            secs[i] = out.runtime.total.as_secs_f64();
        }
        println!(
            "{:<6} {:>12.2} {:>16.2} {:>12.2}",
            case.name, secs[0], secs[1], secs[2]
        );
        for i in 0..3 {
            sums[i] += secs[i] / secs[2];
        }
        ref_sum += 1.0;
    }
    println!(
        "{:<6} {:>12.2} {:>16.2} {:>12.2}",
        "ratio",
        sums[0] / ref_sum,
        sums[1] / ref_sum,
        sums[2] / ref_sum
    );
    println!("\n(paper Table IV ratios: 0.20, 1.04, 1.00)");
}
