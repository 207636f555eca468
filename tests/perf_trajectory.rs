//! The recorded perf trajectory is history with a contract: the
//! checked-in `BENCH_<n>.json` files must stay canonical under the
//! workspace's one JSON implementation, internally consistent, and must
//! keep the speedups they were recorded for. `BENCH_0` records an
//! at-least-1.5× arena-over-legacy RC refresh on every case; `BENCH_1`
//! adds the interactive ECO kernels and a ≥5× incremental-over-full
//! round-trip on every case at 1 thread; `BENCH_2` re-records the
//! fixed-point route demand. `tests/kernel_checksums.rs` recomputes
//! `BENCH_2`'s checksums.

use efficient_tdp::tdp_jsonio::{self, JsonValue};

/// One recorded measurement.
struct Row {
    case: String,
    kernel: String,
    threads: usize,
    ns_per_op: f64,
    checksum: u64,
}

/// The file's text and its rows, read through [`tdp_jsonio`].
fn load(name: &str) -> (String, Vec<Row>) {
    let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name} is checked in: {e}"));
    let doc = tdp_jsonio::parse(&text).unwrap_or_else(|e| panic!("{name} parses: {e}"));
    assert_eq!(
        doc.get("profile").and_then(JsonValue::as_str),
        Some("quick"),
        "{name}: profile"
    );
    let rows = doc
        .get("results")
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("{name}: no results"))
        .iter()
        .map(|r| {
            let text = |k: &str| r.get(k).and_then(JsonValue::as_str).expect(k).to_string();
            let num = |k: &str| r.get(k).and_then(JsonValue::as_f64).expect(k);
            Row {
                case: text("case"),
                kernel: text("kernel"),
                threads: num("threads") as usize,
                ns_per_op: num("ns_per_op"),
                checksum: tdp_jsonio::parse_hex_u64(&text("checksum")).expect("hex checksum"),
            }
        })
        .collect();
    (text, rows)
}

fn seed() -> (String, Vec<Row>) {
    load("BENCH_0.json")
}

fn find<'a>(rows: &'a [Row], case: &str, kernel: &str, threads: usize) -> Option<&'a Row> {
    rows.iter()
        .find(|r| r.case == case && r.kernel == kernel && r.threads == threads)
}

/// The file is the canonical one-line encoding of its own parse.
fn assert_canonical(text: &str) {
    let doc = tdp_jsonio::parse(text).expect("parses");
    assert_eq!(doc.encode() + "\n", text);
}

/// Within one file, a `(case, kernel)` pair records the same checksum
/// at every thread count: serial == parallel.
fn assert_thread_consistent(rows: &[Row]) {
    for r in rows {
        let first = rows
            .iter()
            .find(|o| o.case == r.case && o.kernel == r.kernel)
            .expect("r itself matches");
        assert_eq!(
            r.checksum, first.checksum,
            "{}/{}: checksum at {}t differs from {}t",
            r.case, r.kernel, r.threads, first.threads
        );
    }
}

#[test]
fn bench_seed_is_an_encode_fixpoint() {
    assert_canonical(&seed().0);
}

#[test]
fn bench_seed_records_the_arena_speedup() {
    let (_, rows) = seed();
    let legacies: Vec<_> = rows
        .iter()
        .filter(|r| r.kernel == "rc_refresh_legacy")
        .collect();
    assert!(!legacies.is_empty(), "seed must measure the legacy kernel");
    for legacy in legacies {
        let arena = find(&rows, &legacy.case, "rc_refresh_full", 1)
            .expect("every legacy measurement has an arena counterpart");
        // The arena refactor's headline number, on the record itself.
        let speedup = legacy.ns_per_op / arena.ns_per_op;
        assert!(
            speedup >= 1.5,
            "{}: arena refresh only {speedup:.2}x over legacy",
            legacy.case
        );
        // The speedup is only meaningful because both computed the
        // same bits.
        assert_eq!(
            legacy.checksum, arena.checksum,
            "{}: legacy and arena refresh disagree",
            legacy.case
        );
    }
}

#[test]
fn bench_seed_checksums_are_thread_consistent() {
    assert_thread_consistent(&seed().1);
}

#[test]
fn bench_1_is_a_consistent_encode_fixpoint() {
    let (text, rows) = load("BENCH_1.json");
    assert_canonical(&text);
    assert_thread_consistent(&rows);
}

#[test]
fn bench_2_is_a_consistent_encode_fixpoint() {
    let (text, rows) = load("BENCH_2.json");
    assert_canonical(&text);
    assert_thread_consistent(&rows);
}

#[test]
fn bench_1_records_the_eco_speedup() {
    let (_, rows) = load("BENCH_1.json");
    let fulls: Vec<_> = rows
        .iter()
        .filter(|r| r.kernel == "eco_query_full" && r.threads == 1)
        .collect();
    assert!(!fulls.is_empty(), "BENCH_1 must measure the ECO kernels");
    for full in fulls {
        let inc = find(&rows, &full.case, "eco_query_incremental", 1)
            .expect("every full ECO measurement has an incremental counterpart");
        // The speedup is only meaningful because both round-trips
        // produced the same bits: the incremental == rebuild contract.
        assert_eq!(
            full.checksum, inc.checksum,
            "{}: incremental and full ECO answers disagree",
            full.case
        );
        // The subsystem's headline: every case answers delta queries
        // ≥5× faster incrementally.
        let speedup = full.ns_per_op / inc.ns_per_op;
        assert!(
            speedup >= 5.0,
            "{}: ECO speedup on record is only {speedup:.2}x",
            full.case
        );
    }
}
