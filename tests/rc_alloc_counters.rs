//! Allocation-counter proof for the RC arena pass: a full flow run —
//! the hot path — constructs **zero** per-net `RcTree`s (refreshes go
//! through the slab-backed forest), while the one-off diagnostic path
//! still counts its builds honestly. Also pins the `RuntimeBreakdown`
//! RC op-stats wiring end to end.
//!
//! This file holds a single test on purpose: the construction counters
//! are process-wide, so no other test may run in this binary.

use efficient_tdp::benchgen::{generate, CircuitParams};
use efficient_tdp::sta::{rc_tree_build_count, RcParams, RcTree};
use efficient_tdp::tdp_core::{FlowBuilder, ObjectiveSpec, Session};

#[test]
fn flow_runs_build_no_per_net_rc_trees() {
    let (design, pads) = generate(&CircuitParams::small("arena", 71));
    let spec = FlowBuilder::new()
        .objective(ObjectiveSpec::EfficientTdp)
        .iterations(20, 60)
        .timing_start(6)
        .timing_interval(6)
        .build()
        .unwrap();

    let before = rc_tree_build_count();
    let mut session = Session::builder(design.clone(), pads).build().unwrap();
    let outcome = session.run(&spec).unwrap();
    assert_eq!(
        rc_tree_build_count() - before,
        0,
        "a flow run must never construct per-net RcTrees — refreshes go \
         through the RcForest slabs"
    );

    // The run's RC op stats made it into the runtime breakdown: the
    // objective's timing analyses plus the final evaluation refresh.
    let rc = outcome.runtime.rc;
    assert!(
        rc.refreshes >= 2,
        "expected objective + evaluation refreshes, got {rc:?}"
    );
    assert!(
        rc.nets_refreshed >= rc.refreshes,
        "every refresh touches at least one net: {rc:?}"
    );
    assert!(
        rc.slab_bytes > 0,
        "forest slabs must be resident after a run: {rc:?}"
    );

    // The diagnostic path still counts: one direct build, one bump.
    let placement = &outcome.placement;
    let net = design.net_ids().next().expect("design has nets");
    let before = rc_tree_build_count();
    let tree = RcTree::build(&design, placement, net, &RcParams::default());
    assert!(tree.total_load() > 0.0);
    assert_eq!(rc_tree_build_count() - before, 1);
}
