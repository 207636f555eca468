//! Fig. 4: runtime breakdown of DREAMPlace 4.0 vs ours on `sb1`,
//! normalized by the DREAMPlace 4.0 total.
//!
//! ```text
//! cargo run --release -p bench --bin fig4_breakdown
//! ```

use bench::{case_session, method_spec, suite_config};
use tdp_core::{ObjectiveSpec, RuntimeBreakdown};

fn print_breakdown(label: &str, r: &RuntimeBreakdown, norm: f64) {
    let pct = |d: std::time::Duration| 100.0 * d.as_secs_f64() / norm;
    println!(
        "## {label} (total {:.2}s = {:.1}% of DREAMPlace 4.0)",
        r.total.as_secs_f64(),
        100.0 * r.total.as_secs_f64() / norm
    );
    println!("  IO/setup          {:6.1}%", pct(r.io));
    println!("  Timing analysis   {:6.1}%", pct(r.timing_analysis));
    println!("  Weighting         {:6.1}%", pct(r.weighting));
    println!("  Legalization      {:6.1}%", pct(r.legalization));
    println!("  Congestion        {:6.1}%", pct(r.congestion));
    println!("  Gradient + others {:6.1}%", pct(r.gradient_and_others));
}

fn main() {
    let case = benchgen::suite()
        .into_iter()
        .find(|c| c.name == "sb1")
        .expect("suite has sb1");
    let mut session = case_session(&case);
    let cfg = suite_config(&case);
    println!("# Fig. 4 — runtime breakdown on {}", case.name);

    let dp4 = session
        .run(&method_spec(&cfg, ObjectiveSpec::DreamPlace4))
        .expect("valid spec");
    let ours = session
        .run(&method_spec(&cfg, ObjectiveSpec::EfficientTdp))
        .expect("valid spec");
    let norm = dp4.runtime.total.as_secs_f64();
    print_breakdown("DREAMPlace 4.0", &dp4.runtime, norm);
    print_breakdown("Ours", &ours.runtime, norm);
    println!("\n(paper Fig. 4: ours totals 84.9% of DREAMPlace 4.0; STA and weighting are the components that shrink)");
}
