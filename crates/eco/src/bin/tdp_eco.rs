//! `tdp-eco` — interactive delta queries against a resident design.
//!
//! ```text
//! tdp-eco --case cg1 [--threads N] [--mode incremental|full] [--paths K]
//!         (--stress CHURN[,STEPS[,SEED]] | --script FILE)
//! ```
//!
//! Opens a suite case resident (timing graph, RUDY analyzer and the
//! deterministic initial placement), then drives it
//! with ECO delta batches and reports one JSONL line per answered
//! query. `--stress` generates a pinned `benchgen` delta stream;
//! `--script` replays JSONL commands (`-` = stdin):
//!
//! ```text
//! {"apply": [{"op": "move", "cells": [[3, 10.5, 20.0]]}]}
//! {"query": 4}
//! {"checkpoint": null}
//! {"revert": null}        // or {"revert": N} for a checkpoint
//! ```
//!
//! Every `apply`, `query` and `revert` answers with the query readout
//! (WNS/TNS, worst paths, congestion, touched bins, hex hashes); the
//! final line reports the session's cumulative [`tdp_core::EcoStats`].

use eco::{delta_batch_from_json, DeltaBatch, EcoMode, EcoSession};
use std::io::Write;
use tdp_jsonio::JsonValue;

const USAGE: &str = "usage: tdp-eco [options]
  --case NAME       suite case to open resident (see `tdp-batch --list`)
  --threads N       analyzer threads; 0 = one per hardware thread
                    (default: 1)
  --mode MODE       analysis path: incremental or full
                    (default: incremental)
  --paths K         worst paths per query (default: 4)
  --stress SPEC     apply a generated delta stream CHURN[,STEPS[,SEED]]
                    (e.g. 0.02,4,7), one JSONL result line per step
  --script FILE     replay JSONL commands from FILE ('-' = stdin)";

struct Args {
    case: String,
    threads: usize,
    mode: EcoMode,
    paths: usize,
    stress: Option<(f64, usize, u64)>,
    script: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        case: String::new(),
        threads: 1,
        mode: EcoMode::Incremental,
        paths: 4,
        stress: None,
        script: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--case" => args.case = value("--case")?,
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|_| "--threads expects a non-negative integer".to_string())?
            }
            "--mode" => {
                args.mode = match value("--mode")?.as_str() {
                    "incremental" => EcoMode::Incremental,
                    "full" => EcoMode::Full,
                    other => {
                        return Err(format!(
                            "unknown mode {other:?} (expected incremental or full)"
                        ))
                    }
                }
            }
            "--paths" => {
                args.paths = value("--paths")?
                    .parse()
                    .map_err(|_| "--paths expects a non-negative integer".to_string())?
            }
            "--stress" => {
                let raw = value("--stress")?;
                let mut parts = raw.split(',');
                let churn: f64 = parts.next().and_then(|s| s.parse().ok()).ok_or_else(|| {
                    format!("--stress expects CHURN[,STEPS[,SEED]] (got {raw:?})")
                })?;
                let steps: usize = match parts.next() {
                    Some(s) => s
                        .parse()
                        .map_err(|_| format!("--stress: bad step count in {raw:?}"))?,
                    None => 1,
                };
                let seed: u64 = match parts.next() {
                    Some(s) => s
                        .parse()
                        .map_err(|_| format!("--stress: bad seed in {raw:?}"))?,
                    None => 1,
                };
                if parts.next().is_some() {
                    return Err(format!(
                        "--stress expects CHURN[,STEPS[,SEED]] (got {raw:?})"
                    ));
                }
                args.stress = Some((churn, steps, seed));
            }
            "--script" => args.script = Some(value("--script")?),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    if args.case.is_empty() {
        return Err(format!("--case is required\n{USAGE}"));
    }
    if args.stress.is_none() && args.script.is_none() {
        return Err(format!("one of --stress or --script is required\n{USAGE}"));
    }
    Ok(args)
}

/// Prints one query readout tagged with the event that produced it.
fn emit(out: &mut impl Write, event: &str, step: usize, result: &JsonValue) {
    let mut line = format!("{{\"event\":\"{event}\",\"step\":{step},");
    let body = result.encode();
    line.push_str(&body[1..]);
    writeln!(out, "{line}").expect("stdout writable");
}

fn stats_line(eco: &EcoSession) -> String {
    let s = eco.stats();
    let mut line = String::from("{\"event\":\"stats\"");
    tdp_jsonio::field_num(&mut line, "queries", s.queries as f64);
    tdp_jsonio::field_num(&mut line, "cells_moved", s.cells_moved as f64);
    tdp_jsonio::field_num(&mut line, "dirty_nets", s.dirty_nets as f64);
    tdp_jsonio::field_num(&mut line, "incremental_ns", s.incremental_ns as f64);
    tdp_jsonio::field_num(&mut line, "full_ns", s.full_ns as f64);
    line.push('}');
    line
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let case = benchgen::case_by_name(&args.case).ok_or_else(|| {
        let names: Vec<&str> = benchgen::full_suite().iter().map(|c| c.name).collect();
        format!(
            "unknown case {:?} (expected one of {})",
            args.case,
            names.join(", ")
        )
    })?;
    let mut eco = eco::open_case_session(&case.params, args.threads)?;
    eco.set_mode(args.mode);
    let stdout = std::io::stdout();
    let mut out = stdout.lock();

    if let Some((churn, steps, seed)) = args.stress {
        let params = benchgen::EcoStressParams::at_churn(seed, churn, steps);
        let stream = benchgen::eco_stress(eco.design(), eco.placement(), &params);
        for (i, step) in stream.iter().enumerate() {
            let batch = DeltaBatch::from_step(step);
            eco.apply(&batch).map_err(|e| format!("step {i}: {e}"))?;
            let result = eco.query(args.paths).to_json();
            emit(&mut out, "apply", i, &result);
        }
    }

    if let Some(path) = &args.script {
        let text = if path == "-" {
            let mut buf = String::new();
            std::io::Read::read_to_string(&mut std::io::stdin().lock(), &mut buf)
                .map_err(|e| format!("stdin: {e}"))?;
            buf
        } else {
            std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?
        };
        for (i, line) in text
            .lines()
            .map(str::trim)
            .enumerate()
            .filter(|(_, l)| !l.is_empty())
        {
            let cmd = tdp_jsonio::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            if let Some(deltas) = cmd.get("apply") {
                let batch = delta_batch_from_json(eco.design(), deltas)
                    .map_err(|e| format!("line {}: {e}", i + 1))?;
                eco.apply(&batch)
                    .map_err(|e| format!("line {}: {e}", i + 1))?;
                let result = eco.query(args.paths).to_json();
                emit(&mut out, "apply", i, &result);
            } else if let Some(q) = cmd.get("query") {
                let paths = q.as_usize().unwrap_or(args.paths);
                let result = eco.query(paths).to_json();
                emit(&mut out, "query", i, &result);
            } else if let Some(to) = cmd.get("revert") {
                match to.as_usize() {
                    Some(cp) => eco.revert_to(cp),
                    None => eco.revert(),
                }
                .map_err(|e| format!("line {}: {e}", i + 1))?;
                let result = eco.query(args.paths).to_json();
                emit(&mut out, "revert", i, &result);
            } else if cmd.get("checkpoint").is_some() {
                writeln!(
                    out,
                    "{{\"event\":\"checkpoint\",\"at\":{}}}",
                    eco.checkpoint()
                )
                .expect("stdout writable");
            } else {
                return Err(format!(
                    "line {}: unknown command (expected apply, query, revert or checkpoint)",
                    i + 1
                ));
            }
        }
    }

    writeln!(out, "{}", stats_line(&eco)).expect("stdout writable");
    Ok(())
}

fn main() {
    if let Err(msg) = run() {
        eprintln!("tdp-eco: {msg}");
        std::process::exit(2);
    }
}
