//! Table 3: ablation study — loss function and extraction strategy
//! variants of the Efficient-TDP flow, plus the "w/o Path Extraction"
//! setting (DREAMPlace 4.0's pin-level momentum weighting).
//!
//! ```text
//! cargo run --release -p bench --bin table3_ablation
//! ```

use bench::{case_session, method_spec, suite_config, RatioAccumulator};
use tdp_core::{ExtractionStrategy, FlowConfig, Metrics, ObjectiveSpec, PinPairLoss};

/// One ablation column: a label plus a config/method mutation.
struct Variant {
    label: &'static str,
    method: ObjectiveSpec,
    mutate: fn(&mut FlowConfig),
}

fn main() {
    let variants: [Variant; 6] = [
        Variant {
            label: "w/ HPWL Loss",
            method: ObjectiveSpec::EfficientTdp,
            // Direction-only gradients need a recalibrated β (the paper
            // tunes each loss variant; no sweep behind 0.3 is recorded).
            mutate: |c| {
                c.loss = PinPairLoss::Hpwl;
                c.beta = 0.3;
            },
        },
        Variant {
            label: "w/ Linear Loss",
            method: ObjectiveSpec::EfficientTdp,
            mutate: |c| {
                c.loss = PinPairLoss::LinearEuclidean;
                c.beta = 0.3;
            },
        },
        Variant {
            label: "w/ rpt_timing(n*10)",
            method: ObjectiveSpec::EfficientTdp,
            mutate: |c| c.extraction = ExtractionStrategy::ReportTiming { factor: 10 },
        },
        Variant {
            label: "w/ rpt_timing_ept(n,10)",
            method: ObjectiveSpec::EfficientTdp,
            mutate: |c| c.extraction = ExtractionStrategy::ReportTimingEndpoint { k: 10 },
        },
        Variant {
            label: "w/o Path Extraction",
            method: ObjectiveSpec::DreamPlace4,
            mutate: |_| {},
        },
        Variant {
            label: "Our Method",
            method: ObjectiveSpec::EfficientTdp,
            mutate: |_| {},
        },
    ];

    println!("# Table 3 — ablation: TNS (x10^3 ps) and WNS (x10^3 ps)");
    print!("{:<6}", "case");
    for v in &variants {
        print!(" | {:^23}", v.label);
    }
    println!();

    let mut acc = RatioAccumulator::new(variants.len());
    for case in benchgen::suite() {
        // One session per case covers every ablation column.
        let mut session = case_session(&case);
        print!("{:<6}", case.name);
        let mut row: Vec<Metrics> = Vec::with_capacity(variants.len());
        for v in &variants {
            let mut cfg = suite_config(&case);
            (v.mutate)(&mut cfg);
            let out = session
                .run(&method_spec(&cfg, v.method.clone()))
                .expect("valid spec");
            print!(
                " | {:>12.2} {:>10.2}",
                out.metrics.tns / 1e3,
                out.metrics.wns / 1e3
            );
            row.push(out.metrics);
        }
        println!();
        acc.add(&row, variants.len() - 1);
    }
    print!("{:<6}", "ratio");
    for (t, w, _) in acc.averages() {
        print!(" | {t:>12.2} {w:>10.2}");
    }
    println!();
    println!("\n(paper Table III ratios: 2.33/1.39, 2.31/1.39, 1.97/1.07, 0.95/1.12, 0.99/1.25, 1.00/1.00)");
}
