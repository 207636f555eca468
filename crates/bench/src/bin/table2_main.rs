//! Table 2: TNS / WNS / HPWL comparison of the four placement methods on
//! the eight-case suite, with the paper's average-ratio row (normalized by
//! ours). Distribution-TDP is not reproduced: the paper itself borrows its
//! numbers instead of running it.
//!
//! The 8 × 4 matrix runs through the `batch` executor — one reusable
//! session per case, jobs sharded over workers. Metrics are bitwise
//! identical for every worker count, so `TDP_WORKERS` (default: all
//! hardware threads) is purely a wall-clock knob.
//!
//! ```text
//! cargo run --release -p bench --bin table2_main
//! TDP_WORKERS=4 cargo run --release -p bench --bin table2_main
//! ```

use batch::{make_jobs, run_batch, BatchPlan, BatchRunConfig, NullSink, Profile};
use bench::{fmt_metrics, RatioAccumulator};
use tdp_core::ObjectiveSpec;

fn main() {
    let methods = [
        ObjectiveSpec::DreamPlace,
        ObjectiveSpec::DreamPlace4,
        ObjectiveSpec::DifferentiableTdp,
        ObjectiveSpec::EfficientTdp,
    ];
    let cases = benchgen::suite();
    let mut jobs = Vec::new();
    for case in &cases {
        // Exactly the paper's four methods in table order (the `all`
        // sweep now also carries the congestion-aware extension, which
        // Table 2 does not compare); the paper profile is the tables'
        // schedule.
        for method in &methods {
            jobs.extend(
                make_jobs(case, Some(method), Profile::Paper, &[]).expect("suite jobs are valid"),
            );
        }
    }
    let plan = BatchPlan::new(jobs);
    let workers = match std::env::var("TDP_WORKERS") {
        Ok(raw) => raw.parse().unwrap_or_else(|_| {
            eprintln!("table2_main: TDP_WORKERS={raw:?} is not a non-negative integer");
            std::process::exit(2);
        }),
        Err(_) => 0,
    };
    let result = run_batch(
        &plan,
        &BatchRunConfig {
            workers,
            iteration_stride: 256,
        },
        &NullSink,
    );

    println!("# Table 2 — TNS (x10^3 ps), WNS (x10^3 ps), HPWL (x10^5) per method");
    print!("{:<6}", "case");
    for m in &methods {
        print!(" | {:^28}", m.label());
    }
    println!();
    print!("{:<6}", "");
    for _ in &methods {
        print!(" | {:>10} {:>8} {:>8}", "TNS", "WNS", "HPWL");
    }
    println!();

    let mut acc = RatioAccumulator::new(methods.len());
    for (case, row) in cases.iter().zip(result.reports.chunks_exact(methods.len())) {
        print!("{:<6}", case.name);
        let mut row_metrics = Vec::with_capacity(methods.len());
        for report in row {
            let metrics = report
                .metrics
                .unwrap_or_else(|| panic!("{} × {} failed", report.case, report.objective));
            print!(" | {}", fmt_metrics(&metrics));
            row_metrics.push(metrics);
        }
        println!();
        acc.add(&row_metrics, methods.len() - 1);
    }
    print!("{:<6}", "ratio");
    for (t, w, h) in acc.averages() {
        print!(" | {t:>10.2} {w:>8.2} {h:>8.3}");
    }
    println!();
    println!("\n(ratios are averages of per-case method/ours; paper Table II reports 6.90/2.07/1.004, 2.75/1.40/1.06, 2.00/1.09/1.02, 1.00/1.00/1.00)");
    println!(
        "(matrix ran on {} workers in {:.1}s wall)",
        result.workers,
        result.wall.as_secs_f64()
    );
}
