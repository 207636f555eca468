//! The repository benchmark. One process runs one workload
//! (`--workload NAME`), checks its outputs and prints its metrics; the
//! last line of standard output is the result object the benchmark
//! driver reads. `--all` and `--aa` run every workload in fresh
//! processes. See `benchmark/README.md`.

mod catalog;
mod designs;
mod harness;
mod probe;
mod report;
mod spans;
mod stats;
mod traced;
mod workloads;

use catalog::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use harness::RunOpts;
use report::Report;
use std::process::{Command, ExitCode, Stdio};
use tdp_jsonio::JsonValue;

const USAGE: &str = "usage: tdp-benchmark --workload NAME [--seed N] [--seconds S] [--trace [0|1]]
       tdp-benchmark --all [--seed N] [--seconds S] [--trace [0|1]]
       tdp-benchmark --aa [--seed N] [--seconds S]
       tdp-benchmark --print-benchmark-json
workloads: place_scale, timing_loop, batch_matrix, serve_mix";

enum Mode {
    Workload(String),
    All,
    AA,
    PrintBenchmarkJson,
}

struct Cli {
    mode: Mode,
    opts: RunOpts,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut mode = None;
    let mut opts = RunOpts {
        seed: catalog::DEFAULT_SEED,
        seconds: catalog::RUN_SECONDS as f64,
        trace: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}"))
                .cloned()
        };
        match arg.as_str() {
            "--workload" => mode = Some(Mode::Workload(value("a workload name")?)),
            "--all" => mode = Some(Mode::All),
            "--aa" => mode = Some(Mode::AA),
            "--print-benchmark-json" => mode = Some(Mode::PrintBenchmarkJson),
            "--seed" => {
                opts.seed = value("an unsigned integer")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                opts.seconds = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                // `--trace` alone turns tracing on; the driver passes 0 or 1.
                opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let mode = mode.ok_or("one of --workload, --all, --aa is required")?;
    if let Mode::Workload(name) = &mode {
        if !WORKLOADS.iter().any(|w| w.name == name) {
            return Err(format!("unknown workload {name:?}"));
        }
    }
    Ok(Cli { mode, opts })
}

fn metric_names(trace: bool) -> Vec<&'static str> {
    if trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    }
}

/// Runs one workload in this process; the result line is the last line
/// printed.
fn run_workload(name: &str, opts: &RunOpts) -> ExitCode {
    println!(
        "workload {name}  seed {}  seconds {}  trace {}  threads {}  hardware threads {}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        harness::THREADS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let mut report = Report::default();
    match name {
        "place_scale" => workloads::place_scale::run(opts, &mut report),
        "timing_loop" => workloads::timing_loop::run(opts, &mut report),
        "batch_matrix" => workloads::batch_matrix::run(opts, &mut report),
        "serve_mix" => workloads::serve_mix::run(opts, &mut report),
        _ => unreachable!("workload names are checked while parsing"),
    }
    let names = metric_names(opts.trace);
    report.print_table(&names);
    println!("{}", report.result_line(&names));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `workload` in a fresh process (so `peak_rss_mb` is that
/// workload's own), echoes its output and returns its parsed result
/// line, or `None` if it failed.
fn spawn_workload(workload: &str, opts: &RunOpts) -> Option<JsonValue> {
    let exe = std::env::current_exe().expect("own executable path");
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .expect("child process starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for line in &lines {
        println!("{line}");
    }
    if !output.status.success() {
        println!("{workload}: FAILED ({})", output.status);
        return None;
    }
    tdp_jsonio::parse(last).ok()
}

fn run_all(opts: &RunOpts) -> ExitCode {
    let mut ok = true;
    for w in &WORKLOADS {
        println!("\n== {} ==", w.name);
        ok &= spawn_workload(w.name, opts).is_some();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn metric_value(result: &JsonValue, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// A/A check: every workload twice, same code, same seed, fresh
/// processes. The second run may not read worse than the first by more
/// than a metric's own bound.
fn run_aa(opts: &RunOpts) -> ExitCode {
    let opts = RunOpts {
        trace: false,
        ..*opts
    };
    let mut ok = true;
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        println!("\n== {} (A/A) ==", w.name);
        let (Some(first), Some(second)) =
            (spawn_workload(w.name, &opts), spawn_workload(w.name, &opts))
        else {
            ok = false;
            continue;
        };
        for m in &END_TO_END {
            let (Some(a), Some(b)) = (metric_value(&first, m.name), metric_value(&second, m.name))
            else {
                ok = false;
                continue;
            };
            let worse = match m.better {
                Better::Lower => (b - a) / a,
                Better::Higher => (a - b) / a,
            };
            let within = worse.abs() <= m.bound;
            ok &= within;
            rows.push(format!(
                "{:<14} {:<16} {:>14.4} {:>14.4} {:>+8.2}%  bound {:>4.0}%  {}",
                w.name,
                m.name,
                a,
                b,
                worse * 100.0,
                m.bound * 100.0,
                if within { "ok" } else { "EXCEEDED" }
            ));
        }
    }
    println!(
        "\n{:<14} {:<16} {:>14} {:>14} {:>9}",
        "workload", "metric", "first", "second", "worse by"
    );
    for row in rows {
        println!("{row}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &cli.mode {
        Mode::Workload(name) => run_workload(name, &cli.opts),
        Mode::All => run_all(&cli.opts),
        Mode::AA => run_aa(&cli.opts),
        Mode::PrintBenchmarkJson => {
            print!("{}", catalog::benchmark_json());
            ExitCode::SUCCESS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let cli = parse_args(&args(
            "--workload serve_mix --seed 42 --seconds 10 --trace 0",
        ))
        .unwrap();
        assert!(matches!(cli.mode, Mode::Workload(ref n) if n == "serve_mix"));
        assert_eq!(
            (cli.opts.seed, cli.opts.seconds, cli.opts.trace),
            (42, 10.0, false)
        );
        let cli = parse_args(&args("--workload place_scale --trace 1 --seed 7")).unwrap();
        assert!(cli.opts.trace);
        assert_eq!(cli.opts.seed, 7);
        // A bare `--trace` means on, also in front of another flag.
        assert!(
            parse_args(&args("--all --trace --seed 3"))
                .unwrap()
                .opts
                .trace
        );
        assert!(parse_args(&args("--all --trace")).unwrap().opts.trace);
    }

    #[test]
    fn bad_command_lines_are_rejected() {
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
        assert!(parse_args(&args("--all --seconds 0")).is_err());
        assert!(parse_args(&args("--all --seed x")).is_err());
        assert!(parse_args(&args("--all --frobnicate")).is_err());
    }

    #[test]
    fn each_mode_reports_its_own_metric_list() {
        assert!(metric_names(false).contains(&"setup_s"));
        assert!(metric_names(true).contains(&"share.placer"));
        assert_eq!(metric_names(true).len(), PER_LAYER.len());
    }
}
