//! `tdp-perf`: the repo's recorded performance trajectory.
//!
//! Every speed claim in this workspace is supposed to be **checkable**:
//! this crate runs a pinned suite of kernel and end-to-end benchmarks
//! (RC refresh, full/incremental STA, wirelength/density/RUDY kernels at
//! pinned thread counts, session warm-runs, batch throughput) with
//! warmup + median-of-K timing and writes the measurements as a
//! `BENCH_<n>.json` file through [`tdp_jsonio`]. Each measurement
//! carries a **checksum of the kernel's result**, so a perf run doubles
//! as a correctness run: a "faster" kernel that computes different bits
//! fails loudly, and the serial==parallel contract is re-proved on every
//! benchmark invocation.
//!
//! [`compare`] implements the `--baseline BENCH_<m>.json --max-regress
//! X%` gate: per-key ns/op deltas, nonzero exit on regression, checksum
//! equality enforced for portable (exp/trig-free) kernels even across
//! machines.
//!
//! Thread counts are pinned (1, 2, and 4 in the full profile — never
//! "auto") so the checksums and the recorded trajectory are comparable
//! across machines.

pub mod kernels;

use std::time::Instant;
use tdp_jsonio::JsonValue;

/// Schema tag written into every BENCH file.
pub const SCHEMA: &str = "tdp-perf-v1";

/// The checksum recipe: [`netlist::fnv`]'s FNV-1a, under the names the
/// kernels and the BENCH tooling use.
pub use netlist::fnv::{mix_f64, mix_u64, OFFSET as FNV_OFFSET};

/// One timed measurement: the median over K reps, after warmup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Median wall-clock nanoseconds per op.
    pub ns_per_op: f64,
    /// Timed repetitions the median was taken over.
    pub iters: u64,
    /// The kernel's result checksum — identical on every rep, asserted.
    pub checksum: u64,
}

/// Runs `op` `warmup` untimed times then `reps` timed times and returns
/// the median ns/op. Every repetition must return the same checksum —
/// the operation is required to be deterministic and state-restoring —
/// so the measurement is also a correctness assertion.
///
/// # Panics
///
/// Panics if `reps == 0` or any repetition's checksum differs from the
/// first.
pub fn measure<F: FnMut() -> u64>(warmup: usize, reps: usize, mut op: F) -> Sample {
    assert!(reps >= 1, "need at least one timed rep");
    let mut checksum: Option<u64> = None;
    let mut check = |c: u64| match checksum {
        None => checksum = Some(c),
        Some(expect) => assert_eq!(
            c, expect,
            "kernel checksum changed between reps: {c:#018x} vs {expect:#018x}"
        ),
    };
    for _ in 0..warmup {
        check(op());
    }
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let c = op();
        times.push(t.elapsed().as_nanos() as u64);
        check(c);
    }
    times.sort_unstable();
    let mid = times.len() / 2;
    let median = if times.len() % 2 == 1 {
        times[mid] as f64
    } else {
        (times[mid - 1] as f64 + times[mid] as f64) / 2.0
    };
    Sample {
        ns_per_op: median,
        iters: reps as u64,
        checksum: checksum.expect("at least one rep ran"),
    }
}

/// One benchmark measurement, keyed by `(case, kernel, threads)`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Suite case name (`sb18`, `hu1`, …).
    pub case: String,
    /// Kernel name (`rc_refresh_full`, `sta_incremental`, …).
    pub kernel: String,
    /// Pinned worker count the kernel ran with.
    pub threads: usize,
    /// Median wall-clock nanoseconds per op.
    pub ns_per_op: f64,
    /// Timed repetitions behind the median.
    pub iters: u64,
    /// Result checksum (see [`Sample::checksum`]).
    pub checksum: u64,
}

/// A whole benchmark run — what one `BENCH_<n>.json` holds.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRun {
    /// Coarse machine id (`os-arch-Ncpu`), for cross-machine caution.
    pub machine: String,
    /// Profile the run used (`quick` / `full`).
    pub profile: String,
    /// All measurements, in suite order.
    pub results: Vec<BenchResult>,
}

/// Coarse machine identifier: OS, architecture and logical CPU count.
/// Enough to tell "same machine class" from "different hardware" when
/// comparing trajectories; no hostnames or serials.
pub fn machine_id() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{}-{}-{}cpu",
        std::env::consts::OS,
        std::env::consts::ARCH,
        cpus
    )
}

fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Renders a run as the `BENCH_<n>.json` document (single line; field
/// order is part of the schema, and `encode(parse(encode(x)))` is a
/// fixpoint by [`tdp_jsonio`]'s contract).
pub fn encode(run: &BenchRun) -> String {
    let results = run
        .results
        .iter()
        .map(|r| {
            obj(vec![
                ("case", JsonValue::Str(r.case.clone())),
                ("kernel", JsonValue::Str(r.kernel.clone())),
                ("threads", JsonValue::Num(r.threads as f64)),
                ("ns_per_op", JsonValue::Num(r.ns_per_op)),
                ("iters", JsonValue::Num(r.iters as f64)),
                // u64 does not fit losslessly in a JSON number; hex
                // string, like every hash this workspace serializes.
                ("checksum", JsonValue::Str(format!("{:#018x}", r.checksum))),
            ])
        })
        .collect();
    obj(vec![
        ("schema", JsonValue::Str(SCHEMA.to_string())),
        ("machine", JsonValue::Str(run.machine.clone())),
        ("profile", JsonValue::Str(run.profile.clone())),
        ("results", JsonValue::Arr(results)),
    ])
    .encode()
}

fn field<'a>(o: &'a JsonValue, key: &str, what: &str) -> Result<&'a JsonValue, String> {
    o.get(key).ok_or_else(|| format!("{what}: missing `{key}`"))
}

fn str_field(o: &JsonValue, key: &str, what: &str) -> Result<String, String> {
    field(o, key, what)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{what}: `{key}` is not a string"))
}

fn num_field(o: &JsonValue, key: &str, what: &str) -> Result<f64, String> {
    field(o, key, what)?
        .as_f64()
        .ok_or_else(|| format!("{what}: `{key}` is not a number"))
}

/// Parses a `BENCH_<n>.json` document.
///
/// # Errors
///
/// Returns a description of the first JSON or schema violation.
pub fn parse_run(text: &str) -> Result<BenchRun, String> {
    let root = tdp_jsonio::parse(text).map_err(|e| e.to_string())?;
    let schema = str_field(&root, "schema", "run")?;
    if schema != SCHEMA {
        return Err(format!(
            "unsupported schema {schema:?} (expected {SCHEMA:?})"
        ));
    }
    let machine = str_field(&root, "machine", "run")?;
    let profile = str_field(&root, "profile", "run")?;
    let raw = field(&root, "results", "run")?
        .as_array()
        .ok_or("run: `results` is not an array")?;
    let mut results = Vec::with_capacity(raw.len());
    for (i, r) in raw.iter().enumerate() {
        let what = format!("results[{i}]");
        let hex = str_field(r, "checksum", &what)?;
        let digits = hex
            .strip_prefix("0x")
            .ok_or_else(|| format!("{what}: checksum {hex:?} lacks 0x prefix"))?;
        let checksum = u64::from_str_radix(digits, 16)
            .map_err(|e| format!("{what}: bad checksum {hex:?}: {e}"))?;
        results.push(BenchResult {
            case: str_field(r, "case", &what)?,
            kernel: str_field(r, "kernel", &what)?,
            threads: num_field(r, "threads", &what)? as usize,
            ns_per_op: num_field(r, "ns_per_op", &what)?,
            iters: num_field(r, "iters", &what)? as u64,
            checksum,
        });
    }
    Ok(BenchRun {
        machine,
        profile,
        results,
    })
}

/// Whether a kernel's arithmetic is portable enough that its checksum
/// must match **across machines**: add/mul/abs/min/max only. The WA
/// wirelength kernel (`exp`) and the density kernel (trig inside the
/// FFT) may differ between libm builds, so their checksums are only
/// compared when the machine ids match.
pub fn portable_kernel(kernel: &str) -> bool {
    kernel.starts_with("rc_")
        || kernel.starts_with("sta_")
        || kernel.starts_with("eco_")
        || kernel == "rudy"
}

/// The verdict of a baseline comparison.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// One human-readable delta line per key present in both runs.
    pub lines: Vec<String>,
    /// Keys whose ns/op regressed beyond the tolerance.
    pub regressions: Vec<String>,
    /// Keys whose checksum differs where equality was required.
    pub mismatches: Vec<String>,
    /// Baseline keys the current run did not measure (warned, not fatal:
    /// profiles legitimately differ).
    pub missing: Vec<String>,
}

impl Comparison {
    /// Whether the gate passes (no regressions, no checksum mismatches).
    pub fn ok(&self) -> bool {
        self.regressions.is_empty() && self.mismatches.is_empty()
    }
}

/// Compares `current` against `baseline`: a key regresses when its
/// ns/op exceeds the baseline by more than `max_regress_pct` percent.
/// Checksums must match for [`portable_kernel`]s always, and for every
/// kernel when the two runs share a machine id.
pub fn compare(baseline: &BenchRun, current: &BenchRun, max_regress_pct: f64) -> Comparison {
    let mut cmp = Comparison::default();
    let same_machine = baseline.machine == current.machine;
    for b in &baseline.results {
        let key = format!("{}/{}@{}t", b.case, b.kernel, b.threads);
        let Some(c) = current
            .results
            .iter()
            .find(|c| c.case == b.case && c.kernel == b.kernel && c.threads == b.threads)
        else {
            cmp.missing.push(key);
            continue;
        };
        let ratio = if b.ns_per_op > 0.0 {
            c.ns_per_op / b.ns_per_op
        } else {
            1.0
        };
        let delta_pct = (ratio - 1.0) * 100.0;
        let regressed = delta_pct > max_regress_pct;
        let must_match = portable_kernel(&b.kernel) || same_machine;
        let mismatched = must_match && c.checksum != b.checksum;
        cmp.lines.push(format!(
            "{key}: {:.0} -> {:.0} ns/op ({delta_pct:+.1}%){}{}",
            b.ns_per_op,
            c.ns_per_op,
            if regressed { "  REGRESSION" } else { "" },
            if mismatched {
                "  CHECKSUM MISMATCH"
            } else {
                ""
            },
        ));
        if regressed {
            cmp.regressions.push(key.clone());
        }
        if mismatched {
            cmp.mismatches.push(format!(
                "{key}: {:#018x} vs baseline {:#018x}",
                c.checksum, b.checksum
            ));
        }
    }
    cmp
}

/// In-run consistency check: within one run, a `(case, kernel)` pair
/// must report the same checksum at every thread count — the
/// serial==parallel contract, re-proved from the recorded file alone.
/// Returns the violations (empty = consistent).
pub fn thread_consistency(run: &BenchRun) -> Vec<String> {
    let mut bad = Vec::new();
    for r in &run.results {
        if let Some(first) = run
            .results
            .iter()
            .find(|o| o.case == r.case && o.kernel == r.kernel)
        {
            if first.checksum != r.checksum {
                bad.push(format!(
                    "{}/{}: checksum {:#018x} at {}t differs from {:#018x} at {}t",
                    r.case, r.kernel, r.checksum, r.threads, first.checksum, first.threads
                ));
            }
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_with(results: Vec<BenchResult>) -> BenchRun {
        BenchRun {
            machine: "linux-x86_64-8cpu".into(),
            profile: "quick".into(),
            results,
        }
    }

    fn result(case: &str, kernel: &str, threads: usize, ns: f64, checksum: u64) -> BenchResult {
        BenchResult {
            case: case.into(),
            kernel: kernel.into(),
            threads,
            ns_per_op: ns,
            iters: 5,
            checksum,
        }
    }

    #[test]
    fn encode_parse_encode_is_a_fixpoint() {
        let run = run_with(vec![
            result("sb18", "rc_refresh_full", 1, 12345.5, 0xdead_beef),
            result("sb18", "rc_refresh_full", 2, 7000.0, 0xdead_beef),
            result("hu1", "wl_grad", 1, 98765.0, 0x1234_5678_9abc_def0),
        ]);
        let text = encode(&run);
        let parsed = parse_run(&text).unwrap();
        assert_eq!(parsed, run);
        assert_eq!(encode(&parsed), text);
    }

    #[test]
    fn parse_rejects_wrong_schema_and_bad_checksums() {
        let text = encode(&run_with(vec![]));
        let wrong = text.replace(SCHEMA, "tdp-perf-v0");
        assert!(parse_run(&wrong)
            .unwrap_err()
            .contains("unsupported schema"));
        let run = run_with(vec![result("sb18", "rudy", 1, 1.0, 7)]);
        let bad = encode(&run).replace("0x0000000000000007", "no-prefix");
        assert!(parse_run(&bad).unwrap_err().contains("0x prefix"));
    }

    #[test]
    fn measure_returns_median_and_stable_checksum() {
        let mut calls = 0u64;
        let s = measure(2, 5, || {
            calls += 1;
            42
        });
        assert_eq!(calls, 7);
        assert_eq!(s.iters, 5);
        assert_eq!(s.checksum, 42);
        assert!(s.ns_per_op >= 0.0);
    }

    #[test]
    #[should_panic(expected = "checksum changed")]
    fn measure_panics_on_nondeterministic_kernel() {
        let mut calls = 0u64;
        measure(0, 3, || {
            calls += 1;
            calls
        });
    }

    #[test]
    fn compare_detects_regression_and_tolerates_noise() {
        let base = run_with(vec![result("sb18", "rc_refresh_full", 1, 1000.0, 1)]);
        // +10% within a 25% gate: passes.
        let ok = run_with(vec![result("sb18", "rc_refresh_full", 1, 1100.0, 1)]);
        assert!(compare(&base, &ok, 25.0).ok());
        // +60% over a 25% gate: regression.
        let slow = run_with(vec![result("sb18", "rc_refresh_full", 1, 1600.0, 1)]);
        let cmp = compare(&base, &slow, 25.0);
        assert!(!cmp.ok());
        assert_eq!(cmp.regressions, vec!["sb18/rc_refresh_full@1t"]);
        // An improvement is never a regression, whatever its size.
        let fast = run_with(vec![result("sb18", "rc_refresh_full", 1, 10.0, 1)]);
        assert!(compare(&base, &fast, 0.0).ok());
    }

    #[test]
    fn compare_enforces_checksums_for_portable_kernels_only() {
        let mut base = run_with(vec![
            result("sb18", "rc_refresh_full", 1, 1000.0, 1),
            result("sb18", "wl_grad", 1, 1000.0, 10),
        ]);
        let mut other = run_with(vec![
            result("sb18", "rc_refresh_full", 1, 1000.0, 2),
            result("sb18", "wl_grad", 1, 1000.0, 20),
        ]);
        // Different machines: only the portable rc_ kernel must match.
        other.machine = "linux-aarch64-4cpu".into();
        let cmp = compare(&base, &other, 50.0);
        assert_eq!(cmp.mismatches.len(), 1);
        assert!(cmp.mismatches[0].contains("rc_refresh_full"));
        // Same machine: every kernel must match.
        other.machine = base.machine.clone();
        let cmp = compare(&base, &other, 50.0);
        assert_eq!(cmp.mismatches.len(), 2);
        // Missing keys are warnings, not failures.
        base.results
            .push(result("hu1", "rc_refresh_full", 1, 1.0, 1));
        other.results.truncate(0);
        let cmp = compare(&base, &other, 50.0);
        assert_eq!(cmp.missing.len(), 3);
        assert!(cmp.ok());
    }

    #[test]
    fn thread_consistency_flags_divergent_checksums() {
        let good = run_with(vec![
            result("sb18", "rudy", 1, 1.0, 5),
            result("sb18", "rudy", 2, 1.0, 5),
        ]);
        assert!(thread_consistency(&good).is_empty());
        let bad = run_with(vec![
            result("sb18", "rudy", 1, 1.0, 5),
            result("sb18", "rudy", 2, 1.0, 6),
        ]);
        assert_eq!(thread_consistency(&bad).len(), 1);
    }

    #[test]
    fn fnv_mixing_is_order_sensitive() {
        let a = mix_f64(mix_f64(FNV_OFFSET, 1.0), 2.0);
        let b = mix_f64(mix_f64(FNV_OFFSET, 2.0), 1.0);
        assert_ne!(a, b);
        assert_ne!(mix_u64(FNV_OFFSET, 0), FNV_OFFSET);
    }
}
