//! Fig. 3: the most critical path of `sb16` before timing optimization and
//! after optimizing with each distance loss. Prints the per-pin
//! coordinates of the path (plot-ready) and its slack under each loss.
//!
//! ```text
//! cargo run --release -p bench --bin fig3_path_loss
//! ```

use bench::{case_session, method_spec, suite_config};
use netlist::{Design, Placement};
use sta::{RcParams, Sta, TimingPath};
use tdp_core::{ObjectiveSpec, PinPairLoss, Session};

/// A report analyzer sharing the session's timing graph — no
/// reconstruction, matching the session's own setup amortization.
fn report_sta(session: &Session, placement: &Placement, rc: RcParams) -> Sta {
    let mut sta = Sta::from_parts(session.graph_handle(), session.design(), rc);
    sta.analyze(session.design(), placement);
    sta
}

fn print_path(tag: &str, design: &Design, placement: &Placement, path: &TimingPath) {
    println!("## {tag}: slack {:.0} ps, {} pins", path.slack, path.len());
    for el in &path.elements {
        let (x, y) = placement.pin_position(design, el.pin);
        println!("  {:8.1} {:8.1}  {}", x, y, design.pin_label(el.pin));
    }
}

fn main() {
    let case = benchgen::suite()
        .into_iter()
        .find(|c| c.name == "sb16")
        .expect("suite has sb16");
    let mut session = case_session(&case);
    let cfg = suite_config(&case);

    println!(
        "# Fig. 3 — one critical path optimized with different distance losses ({})",
        case.name
    );

    // (a) Before timing optimization: wirelength-driven placement.
    let before = session
        .run(&method_spec(&cfg, ObjectiveSpec::DreamPlace))
        .expect("valid spec");
    let path0 = report_sta(&session, &before.placement, cfg.rc)
        .worst_path(session.design())
        .expect("design has at least one endpoint");
    let endpoint = path0.endpoint();
    print_path(
        "(a) before optimization",
        session.design(),
        &before.placement,
        &path0,
    );

    // (b)-(d): the flow with each loss; report the same endpoint's worst
    // path afterwards.
    for (tag, loss) in [
        ("(b) HPWL loss", PinPairLoss::Hpwl),
        ("(c) linear loss", PinPairLoss::LinearEuclidean),
        ("(d) quadratic loss", PinPairLoss::Quadratic),
    ] {
        let mut c = cfg.clone();
        c.loss = loss;
        if loss != PinPairLoss::Quadratic {
            // Direction-only gradients need the recalibrated β.
            c.beta = 0.3;
        }
        let out = session
            .run(&method_spec(&c, ObjectiveSpec::EfficientTdp))
            .expect("valid spec");
        let sta = report_sta(&session, &out.placement, c.rc);
        let design = session.design();
        // Track the original endpoint so the figure compares like-for-like.
        let slack = sta.slack(endpoint).unwrap_or(f64::NAN);
        let paths = sta.report_timing_endpoint(design, usize::MAX, 1);
        let same = paths.iter().find(|p| p.endpoint() == endpoint);
        match same {
            Some(p) => print_path(tag, design, &out.placement, p),
            None => println!("## {tag}: endpoint now meets timing (slack {slack:.0} ps)"),
        }
    }
}
