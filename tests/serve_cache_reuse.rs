//! Session-cache amortization proof, counter-verified: two sequential
//! daemon requests for the same design build the STA timing graph
//! exactly **once** — the second request reuses the cached session, the
//! same way a batch group or a reused local session does, but across
//! connections and across time.
//!
//! This file holds a single test on purpose: the construction counters
//! ([`sta::graph_build_count`]) are process-wide, so no other test may
//! run in this binary.

use efficient_tdp::serve::{Client, Server, ServerConfig, SubmitRequest};
use efficient_tdp::sta::graph_build_count;
use std::time::Duration;
use tdp_jsonio::JsonValue;

#[test]
fn two_requests_for_one_design_build_the_graph_once() {
    let graphs_before = graph_build_count();

    let handle = Server::start(ServerConfig::default()).expect("server starts");

    // Two requests for the same design, different objectives, issued
    // over two *separate connections* (a CLI invocation each, in daemon
    // terms) and in sequence.
    for objective in ["efficient-tdp", "dreamplace4"] {
        let mut client = Client::connect(handle.addr(), Duration::from_secs(5)).expect("connect");
        let job = client
            .submit(&SubmitRequest::case("sb18", objective))
            .expect("submit");
        let done = client.wait(job).expect("wait");
        assert_eq!(
            done.get("state").and_then(JsonValue::as_str),
            Some("done"),
            "{}",
            done.encode()
        );
    }

    assert_eq!(
        graph_build_count() - graphs_before,
        1,
        "the daemon must build the timing graph exactly once for two \
         requests on one design"
    );

    // The server's own accounting agrees, and it attributes the one
    // build to itself.
    let mut client = Client::connect(handle.addr(), Duration::from_secs(5)).expect("connect");
    let metrics = client.metrics().expect("metrics");
    let field = |k: &str| metrics.get(k).and_then(JsonValue::as_usize);
    assert_eq!(field("cache_hits"), Some(1), "{}", metrics.encode());
    assert_eq!(field("cache_misses"), Some(1));
    assert_eq!(field("cache_entries"), Some(1));
    assert_eq!(field("graph_builds"), Some(1));
    assert_eq!(field("done"), Some(2));

    client.shutdown().expect("shutdown ack");
    handle.join();
}
