//! `tdp-route` — run one placement flow and emit its congestion heatmap.
//!
//! ```text
//! tdp-route --case sb18 --objective efficient-tdp [--profile paper|quick]
//!           [--threads N] [--set key=value ...] [--out FILE] [--ascii]
//!           [--check]
//! ```
//!
//! Loads a suite case, runs the selected objective through a
//! [`Session`] (the exact batch/serve execution path), rasterizes the
//! legalized placement's RUDY congestion map and
//! writes the heatmap JSON (schema documented in the README) to `--out`
//! or stdout. `--ascii` renders the map as terminal art on stderr;
//! `--check` verifies the emitted JSON re-parses through `tdp-jsonio` to
//! the identical encoding (the encode→parse→encode fixpoint CI asserts)
//! and cross-checks the flow outcome's congestion summary against the
//! emitted map.

use batch::{make_jobs_for, parse_objective, BatchError, Profile};
use tdp_core::{RouteConfig, Session};
use tdp_jsonio::JsonValue;
use tdp_route::CongestionAnalyzer;

const USAGE: &str = "usage: tdp-route [options]
  --case NAME           suite case to place (see `tdp-batch --list`)
  --objective NAME      dreamplace, dreamplace4, differentiable-tdp,
                        efficient-tdp or congestion-aware
  --profile paper|quick base schedule (default: quick)
  --threads N           kernel threads; 0 = one per hardware thread
                        (default: 1)
  --set key=value       job-file override (repeatable): beta, seed,
                        route_bins, route_capacity, route_pin_weight, ...
  --out FILE            write the heatmap JSON here (default: stdout)
  --ascii               render the map as ASCII art on stderr
  --check               verify the JSON encode-parse-encode fixpoint and
                        the summary consistency, then report `check ok`";

struct Args {
    case: String,
    objective: String,
    profile: Profile,
    threads: usize,
    overrides: Vec<(String, String)>,
    out: Option<String>,
    ascii: bool,
    check: bool,
}

fn parse_args() -> Result<Args, BatchError> {
    let mut args = Args {
        case: String::new(),
        objective: String::new(),
        profile: Profile::Quick,
        threads: 1,
        overrides: Vec::new(),
        out: None,
        ascii: false,
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
            "--ascii" => args.ascii = true,
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
    // heatmap describes the placement those front ends would produce.
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

    let (design, pads) = benchgen::generate(&case.params);
    let mut session = Session::builder(design, pads)
        .build()
        .map_err(BatchError::Flow)?;
    let outcome = session.run(&job.spec).map_err(BatchError::Flow)?;
    let legal = placer::legalize::check_legal(session.design(), &outcome.placement).is_ok();

    // Rasterize the legalized placement with the run's route knobs.
    let route: RouteConfig = job.spec.config().route;
    let mut analyzer = CongestionAnalyzer::new(session.design(), route).with_threads(args.threads);
    analyzer.analyze(session.design(), &outcome.placement);
    let map = analyzer.map();

    // Heatmap JSON: run identity + the map (summary, hash, rows).
    let mut members = vec![
        ("case".to_string(), JsonValue::Str(case.name.to_string())),
        (
            "objective".to_string(),
            JsonValue::Str(outcome.method.clone()),
        ),
        ("legal".to_string(), JsonValue::Bool(legal)),
        ("iterations".to_string(), outcome.iterations.into()),
        ("tns".to_string(), JsonValue::Num(outcome.metrics.tns)),
        ("wns".to_string(), JsonValue::Num(outcome.metrics.wns)),
        ("hpwl".to_string(), JsonValue::Num(outcome.metrics.hpwl)),
    ];
    let JsonValue::Obj(map_members) = map.heatmap_json() else {
        unreachable!("heatmap_json returns an object");
    };
    members.extend(map_members);
    let doc = JsonValue::Obj(members);
    let text = doc.encode();

    match &args.out {
        Some(path) => {
            if let Some(dir) = std::path::Path::new(path).parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir)?;
                }
            }
            std::fs::write(path, format!("{text}\n"))?;
        }
        None => println!("{text}"),
    }

    let summary = map.summary();
    eprintln!(
        "{} × {}: peak {:.3}  avg {:.3}  overflow {:.3} over {} bins  map {:#018x}{}",
        case.name,
        outcome.method,
        summary.peak,
        summary.average,
        summary.overflow,
        summary.overflow_bins,
        summary.map_hash,
        if legal { "" } else { "  (ILLEGAL)" },
    );
    if args.ascii {
        eprint!("{}", map.ascii());
    }

    if args.check {
        // 1. The emitted JSON must re-parse to the identical encoding.
        let parsed = tdp_jsonio::parse(&text)
            .map_err(|e| BatchError::Usage(format!("check failed: emitted JSON rejected: {e}")))?;
        if parsed.encode() != text {
            eprintln!("tdp-route: check failed: encode→parse→encode is not a fixpoint");
            return Ok(1);
        }
        // 2. The flow outcome's congestion report (computed inside the
        //    session's evaluation step) must describe the same map.
        if outcome.congestion.map_hash != summary.map_hash
            || outcome.congestion.peak.to_bits() != summary.peak.to_bits()
        {
            eprintln!(
                "tdp-route: check failed: outcome congestion {:#018x} != emitted map {:#018x}",
                outcome.congestion.map_hash, summary.map_hash
            );
            return Ok(1);
        }
        println!("check ok: fixpoint + summary consistent");
    }
    Ok(if legal { 0 } else { 1 })
}

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(BatchError::Usage(msg)) => {
            eprintln!("tdp-route: {msg}");
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("tdp-route: {e}");
            std::process::exit(1);
        }
    }
}
