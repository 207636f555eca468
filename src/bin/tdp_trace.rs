//! `tdp-trace` — run one placement flow with the span recorder on and
//! emit a Chrome trace of it.
//!
//! ```text
//! tdp-trace --case sb18 --objective efficient-tdp [--profile paper|quick]
//!           [--threads N] [--set key=value ...] [--out FILE] [--top N]
//!           [--check]
//! ```
//!
//! Loads a suite case, enables the workspace tracer
//! ([`tdp_trace::set_enabled`]), runs the selected objective through a
//! [`Session`] (the exact batch/serve execution path) and writes the
//! recorded spans as a Chrome trace-event JSON document (loadable in
//! Perfetto or `chrome://tracing`; schema in the README) to `--out` or
//! `<case>.trace.json`. A top-spans summary table (count, self, total
//! and max per span name, sorted by self time — the span's own work,
//! not that of the spans nested in it) prints on stderr. `--check` verifies the trace
//! structurally — every lane's events nest (every `B` has its `E`) —
//! and that the emitted JSON re-parses through `tdp-jsonio` to the
//! identical encoding (the encode→parse→encode fixpoint CI asserts).
//!
//! Tracing never changes results: the recorder only appends to
//! thread-local buffers, so the placement this run produces is bitwise
//! identical to an untraced run of the same spec (asserted by the trace
//! differential test at the workspace root).

use batch::{make_jobs_for, parse_objective, BatchError, Profile};
use tdp_core::Session;

const USAGE: &str = "usage: tdp-trace [options]
  --case NAME           suite case to place (see `tdp-batch --list`)
  --objective NAME      dreamplace, dreamplace4, differentiable-tdp,
                        efficient-tdp or congestion-aware
  --profile paper|quick base schedule (default: quick)
  --threads N           kernel threads; 0 = one per hardware thread
                        (default: 2, so parx worker lanes appear)
  --set key=value       job-file override (repeatable): beta, seed, ...
  --out FILE            write the trace JSON here
                        (default: <case>.trace.json)
  --top N               summary rows to print on stderr (default: 12)
  --check               verify span nesting and the JSON
                        encode-parse-encode fixpoint, then report
                        `check ok`";

struct Args {
    case: String,
    objective: String,
    profile: Profile,
    threads: usize,
    overrides: Vec<(String, String)>,
    out: Option<String>,
    top: usize,
    check: bool,
}

fn parse_args() -> Result<Args, BatchError> {
    let mut args = Args {
        case: String::new(),
        objective: String::new(),
        profile: Profile::Quick,
        threads: 2,
        overrides: Vec::new(),
        out: None,
        top: 12,
        check: false,
    };
    let usage = |msg: String| BatchError::Usage(msg);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| usage(format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--case" => args.case = value("--case")?,
            "--objective" => args.objective = value("--objective")?,
            "--profile" => args.profile = Profile::parse(&value("--profile")?)?,
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|_| usage("--threads expects a non-negative integer".into()))?
            }
            "--set" => {
                let raw = value("--set")?;
                let Some((k, v)) = raw.split_once('=') else {
                    return Err(usage(format!("--set expects key=value (got {raw:?})")));
                };
                args.overrides.push((k.to_string(), v.to_string()));
            }
            "--out" => args.out = Some(value("--out")?),
            "--top" => {
                args.top = value("--top")?
                    .parse()
                    .map_err(|_| usage("--top expects a non-negative integer".into()))?
            }
            "--check" => args.check = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(usage(format!("unknown flag {other:?}\n{USAGE}"))),
        }
    }
    if args.case.is_empty() || args.objective.is_empty() {
        return Err(usage(format!(
            "--case and --objective are required\n{USAGE}"
        )));
    }
    Ok(args)
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

fn run() -> Result<i32, BatchError> {
    let args = parse_args()?;
    let case = benchgen::case_by_name(&args.case).ok_or_else(|| {
        let known: Vec<&str> = benchgen::full_suite().iter().map(|c| c.name).collect();
        BatchError::Usage(format!(
            "unknown case {:?} (available: {})",
            args.case,
            known.join(", ")
        ))
    })?;
    let objective = parse_objective(&args.objective)?.ok_or_else(|| {
        BatchError::Usage("objective `all` is not valid here; pick one".to_string())
    })?;

    // The exact spec-construction path batch and serve use, so the
    // trace describes the run those front ends would execute.
    let mut overrides = vec![("threads".to_string(), args.threads.to_string())];
    overrides.extend(args.overrides.iter().cloned());
    let jobs = make_jobs_for(
        case.name,
        &case.params,
        Some(&objective),
        args.profile,
        &overrides,
    )?;
    let job = &jobs[0];

    tdp_trace::set_enabled(true);
    tdp_trace::set_lane_name("main");
    let (design, pads) = benchgen::generate(&case.params);
    let mut session = Session::builder(design, pads)
        .build()
        .map_err(BatchError::Flow)?;
    let outcome = session.run(&job.spec).map_err(BatchError::Flow)?;
    let chunks = tdp_trace::take();

    let doc = tdp_trace::chrome_trace(&chunks);
    let text = doc.encode();
    let out_path = args
        .out
        .clone()
        .unwrap_or_else(|| format!("{}.trace.json", case.name));
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(&out_path, format!("{text}\n"))?;

    let events: usize = chunks.iter().map(|c| c.events.len()).sum();
    let lanes: std::collections::BTreeSet<u32> = chunks.iter().map(|c| c.lane).collect();
    eprintln!(
        "{} × {}: {} events across {} lanes → {} ({} iterations, hash {:#018x})",
        case.name,
        outcome.method,
        events,
        lanes.len(),
        out_path,
        outcome.iterations,
        outcome.placement.content_hash(),
    );
    let mut stats = tdp_trace::summarize(&chunks);
    stats.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
    if args.top > 0 && !stats.is_empty() {
        eprintln!(
            "{:<28} {:>8} {:>12} {:>12} {:>12}",
            "span", "count", "self_ms", "total_ms", "max_ms"
        );
        for stat in stats.iter().take(args.top) {
            eprintln!(
                "{:<28} {:>8} {:>12} {:>12} {:>12}",
                stat.name,
                stat.count,
                fmt_ms(stat.self_ns),
                fmt_ms(stat.total_ns),
                fmt_ms(stat.max_ns),
            );
        }
    }

    if args.check {
        // 1. Every lane's events must nest: each B closed by its E.
        let spans = match tdp_trace::validate(&chunks) {
            Ok(spans) => spans,
            Err(msg) => {
                eprintln!("tdp-trace: check failed: {msg}");
                return Ok(1);
            }
        };
        // 2. The emitted JSON must re-parse to the identical encoding.
        let parsed = tdp_jsonio::parse(&text)
            .map_err(|e| BatchError::Usage(format!("check failed: emitted JSON rejected: {e}")))?;
        if parsed.encode() != text {
            eprintln!("tdp-trace: check failed: encode→parse→encode is not a fixpoint");
            return Ok(1);
        }
        println!("check ok: {spans} spans nest + fixpoint");
    }
    Ok(0)
}

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(BatchError::Usage(msg)) => {
            eprintln!("tdp-trace: {msg}");
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("tdp-trace: {e}");
            std::process::exit(1);
        }
    }
}
