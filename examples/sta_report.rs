//! Standalone STA usage: generate a design, scatter it, and print a
//! classic timing report — the worst paths with per-pin arrivals, plus the
//! endpoint-coverage difference between the two extraction commands.
//!
//! Also demonstrates the graph-sharing primitives the flow-level
//! `Session` is built on: `Sta::from_parts` makes a second analyzer
//! without rebuilding the timing graph, and `checkpoint`/`restore` roll
//! analysis state back between uses.
//!
//! ```text
//! cargo run --release --example sta_report
//! ```

use netlist::Placement;
use sta::{NetTopology, RcParams, Sta};

fn main() {
    let case = benchgen::suite()
        .into_iter()
        .find(|c| c.name == "sb18")
        .expect("suite has sb18");
    let (design, pads) = benchgen::generate(&case.params);

    // Deterministic scatter (no placer needed for a timing report demo).
    let mut placement: Placement = pads;
    let die = design.die();
    let mut s = 2024u64;
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
        placement.set(c, x, y);
    }

    let rc = RcParams {
        res_per_unit: case.params.res_per_unit,
        cap_per_unit: case.params.cap_per_unit,
        topology: NetTopology::SteinerMst,
    };
    let mut sta = Sta::new(&design, rc).expect("generated designs are acyclic");
    sta.analyze(&design, &placement);

    let summary = sta.summary();
    println!(
        "design {}: WNS {:.1} ps, TNS {:.1} ps, {}/{} endpoints failing (clock {} ps)",
        design.name(),
        summary.wns,
        summary.tns,
        summary.failing_endpoints,
        summary.total_endpoints,
        design.sdc().clock_period
    );

    println!("\n== two worst paths (report_timing(2)) ==");
    for path in sta.report_timing(&design, 2) {
        print!("{}", path.display(&design));
    }

    let n = summary.failing_endpoints;
    let global = sta.report_timing(&design, n);
    let per_ep = sta.report_timing_endpoint(&design, n, 1);
    let unique = |paths: &[sta::TimingPath]| {
        paths
            .iter()
            .map(|p| p.endpoint())
            .collect::<std::collections::HashSet<_>>()
            .len()
    };
    println!(
        "== endpoint coverage with a budget of {n} paths ==\n  report_timing(n):            {} unique endpoints\n  report_timing_endpoint(n,1): {} unique endpoints",
        unique(&global),
        unique(&per_ep)
    );

    // Graph sharing, as the flow Session does it: a second analyzer from
    // the same graph (no reconstruction), checkpointed pristine,
    // analyzed, and rolled back.
    let mut shared = sta::Sta::from_parts(sta.graph_handle(), &design, rc);
    let pristine = shared.checkpoint();
    shared.analyze(&design, &placement);
    assert_eq!(shared.summary(), summary);
    shared.restore(&pristine);
    println!(
        "\n== shared-graph analyzer ==\n  re-analysis matches: yes; rolled back to pristine: analyzed = {}",
        shared.is_analyzed()
    );
}
