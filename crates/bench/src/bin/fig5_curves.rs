//! Fig. 5: HPWL, overflow, TNS and WNS over the placement iterations for
//! DREAMPlace 4.0 and ours on `sb1`. Prints aligned series (one row per
//! sampled iteration), ready to plot.
//!
//! ```text
//! cargo run --release -p bench --bin fig5_curves
//! ```

use bench::{case_session, method_spec, suite_config};
use tdp_core::ObjectiveSpec;

fn main() {
    let case = benchgen::suite()
        .into_iter()
        .find(|c| c.name == "sb1")
        .expect("suite has sb1");
    let mut session = case_session(&case);
    let cfg = suite_config(&case);
    println!(
        "# Fig. 5 — optimization curves on {} (timing starts at iteration {})",
        case.name, cfg.timing_start
    );

    let dp4 = session
        .run(&method_spec(&cfg, ObjectiveSpec::DreamPlace4))
        .expect("valid spec");
    let ours = session
        .run(&method_spec(&cfg, ObjectiveSpec::EfficientTdp))
        .expect("valid spec");

    println!(
        "{:>5} | {:>10} {:>8} {:>10} {:>8} | {:>10} {:>8} {:>10} {:>8}",
        "iter",
        "dp4.hpwl",
        "dp4.ovf",
        "dp4.tns",
        "dp4.wns",
        "our.hpwl",
        "our.ovf",
        "our.tns",
        "our.wns"
    );
    let len = dp4.trace.len().max(ours.trace.len());
    for i in (0..len).step_by(10) {
        let d = dp4.trace.get(i);
        let o = ours.trace.get(i);
        let f = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.0}"));
        println!(
            "{:>5} | {:>10} {:>8} {:>10} {:>8} | {:>10} {:>8} {:>10} {:>8}",
            i,
            f(d.map(|r| r.hpwl)),
            d.map_or("-".into(), |r| format!("{:.3}", r.overflow)),
            f(d.map(|r| r.tns.abs())),
            f(d.map(|r| r.wns.abs())),
            f(o.map(|r| r.hpwl)),
            o.map_or("-".into(), |r| format!("{:.3}", r.overflow)),
            f(o.map(|r| r.tns.abs())),
            f(o.map(|r| r.wns.abs())),
        );
    }
    println!("\n(TNS/WNS are absolute values as in the paper's figure; '-'/NaN before the first timing analysis)");
}
