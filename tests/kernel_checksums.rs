//! The bit gate: every kernel checksum recorded in [`RECORD`] is
//! recomputed here and must come out identical.
//!
//! Each of the eight [`efficient_tdp::kernels`] runs on each quick
//! profile case (`sb18`, `hu1`, `cg1`) at the thread count of its row.
//! Each runs **twice** on the same state, so the ECO revert and the
//! incremental STA restore must give back every bit, and both runs must
//! equal the recorded row. `exp` and the FFT's trig go into the
//! `wl_grad` and `density_grad` checksums; `tests/session_equivalence.rs`
//! already pins full-flow hashes through the same functions, so every
//! row is compared on every machine.
//!
//! A deliberate change of result bits re-records: run
//! `cargo test --release --test kernel_checksums -- --ignored --nocapture print_record`,
//! save the printed line as the next `BENCH_<n>.json`, point [`RECORD`]
//! at it and say why in `CHANGES.md`.

use efficient_tdp::kernels::{kernel, load_case, CASES, KERNELS, THREADS};
use efficient_tdp::tdp_jsonio::{self, JsonValue};
use std::time::Instant;

/// The trajectory point the gate compares against.
const RECORD: &str = "BENCH_2.json";
/// Recorded, but its kernel (the per-net tree refresh the RC arena
/// replaced) is deleted; `rc_refresh_full` holds the same checksums.
const RETIRED: &str = "rc_refresh_legacy";

fn str_field<'a>(row: &'a JsonValue, field: &str) -> &'a str {
    row.get(field)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("{RECORD}: no string `{field}`"))
}

fn read_record() -> JsonValue {
    let path = format!("{}/{RECORD}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect("the record is checked in");
    tdp_jsonio::parse(&text).expect("the record parses")
}

#[test]
fn recorded_checksums_are_recomputed_bit_for_bit() {
    let record = read_record();
    let rows = record
        .get("results")
        .and_then(JsonValue::as_array)
        .expect("the record has results");
    let cases: Vec<_> = CASES
        .iter()
        .map(|&n| (n, load_case(n).expect("suite case")))
        .collect();
    let mut compared = 0;
    let mut mismatches = Vec::new();
    for row in rows {
        let (case_name, kernel_name) = (str_field(row, "case"), str_field(row, "kernel"));
        if kernel_name == RETIRED {
            continue;
        }
        let threads = row
            .get("threads")
            .and_then(JsonValue::as_usize)
            .expect("row has threads");
        let recorded = tdp_jsonio::parse_hex_u64(str_field(row, "checksum")).expect("hex checksum");
        let case = &cases
            .iter()
            .find(|(n, _)| *n == case_name)
            .unwrap_or_else(|| panic!("{RECORD}: unknown case {case_name:?}"))
            .1;
        let mut op = kernel(case, kernel_name, threads).unwrap_or_else(|e| panic!("{RECORD}: {e}"));
        let (first, second) = (op(), op());
        if first != recorded || second != recorded {
            mismatches.push(format!(
                "{case_name}/{kernel_name}@{threads}t: recomputed {first:#018x} \
                 then {second:#018x}, recorded {recorded:#018x}"
            ));
        }
        compared += 1;
    }
    assert!(
        mismatches.is_empty(),
        "{} of {compared} kernel checksums differ from {RECORD}:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
    assert_eq!(
        compared,
        CASES.len() * KERNELS.len() * THREADS.len(),
        "{RECORD} must hold one row per case, kernel and thread count"
    );
}

/// Prints the quick profile, recomputed, as one `BENCH_<n>.json` line
/// under [`RECORD`]'s schema; `ns_per_op` is one timed evaluation after
/// the kernel's state is built.
#[test]
#[ignore = "record path for a stated re-record; prints, asserts nothing"]
fn print_record() {
    let str_val = |s: &str| JsonValue::Str(s.to_string());
    let obj = |fields: Vec<(&str, JsonValue)>| {
        JsonValue::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    let mut results = Vec::new();
    for name in CASES {
        let case = load_case(name).expect("suite case");
        for kernel_name in KERNELS {
            for threads in THREADS {
                let mut op = kernel(&case, kernel_name, threads).expect("profile kernel");
                let start = Instant::now();
                let checksum = op();
                let ns = start.elapsed().as_nanos() as f64;
                results.push(obj(vec![
                    ("case", str_val(name)),
                    ("kernel", str_val(kernel_name)),
                    ("threads", JsonValue::Num(threads as f64)),
                    ("ns_per_op", JsonValue::Num(ns)),
                    ("iters", JsonValue::Num(1.0)),
                    ("checksum", str_val(&format!("{checksum:#018x}"))),
                ]));
            }
        }
    }
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let machine = format!(
        "{}-{}-{cpus}cpu",
        std::env::consts::OS,
        std::env::consts::ARCH
    );
    let record = read_record();
    let doc = obj(vec![
        ("schema", str_val(str_field(&record, "schema"))),
        ("machine", str_val(&machine)),
        ("profile", str_val(str_field(&record, "profile"))),
        ("results", JsonValue::Arr(results)),
    ]);
    println!("{}", doc.encode());
}
