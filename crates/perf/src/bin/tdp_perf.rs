//! `tdp-perf` — record and gate the workspace's performance trajectory.
//!
//! ```text
//! tdp-perf [--profile quick|full] [--cases a,b,c] [--threads 1,2,4]
//!          [--warmup N] [--reps K] [--out FILE]
//!          [--baseline FILE] [--max-regress PCT] [--check] [--list]
//! ```
//!
//! Runs the pinned benchmark suite (see [`perf::kernels`]) and writes
//! the measurements as one `BENCH_<n>.json` line. Checksums make every
//! perf run a correctness run: within one invocation the incremental ECO
//! query must agree bitwise with the full rebuild, and every kernel must
//! agree with itself across the pinned thread counts — either failure
//! exits 2, fast kernels notwithstanding. With
//! `--baseline`, ns/op deltas against an earlier `BENCH` file are
//! printed and any regression beyond `--max-regress` percent also
//! exits 2.

use perf::kernels::{self, BATCH_WORKERS};
use perf::{BenchResult, BenchRun};

const USAGE: &str = "usage: tdp-perf [options]
  --profile quick|full  quick: micro kernels at 1,2 threads (default);
                        full: adds 4 threads and the end-to-end kernels
                        (warm session re-run, concurrent batch)
  --cases a,b,c         suite cases to measure (default: sb18,hu1,cg1)
  --threads 1,2,4       override the pinned thread counts
  --warmup N            untimed repetitions per kernel (default: 1)
  --reps K              timed repetitions per kernel; the recorded
                        ns/op is their median (default: 5)
  --out FILE            write the BENCH JSON here (default: stdout)
  --baseline FILE       compare against an earlier BENCH file
  --max-regress PCT     regression tolerance in percent (default: 50)
  --check               verify the encode\u{2192}parse\u{2192}encode fixpoint of the
                        emitted document and re-verify thread-count
                        checksum consistency from it
  --list                list cases and kernels, then exit";

struct Args {
    profile: String,
    cases: Vec<String>,
    threads: Option<Vec<usize>>,
    warmup: usize,
    reps: usize,
    out: Option<String>,
    baseline: Option<String>,
    max_regress: f64,
    check: bool,
    list: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        profile: "quick".to_string(),
        cases: vec!["sb18".into(), "hu1".into(), "cg1".into()],
        threads: None,
        warmup: 1,
        reps: 5,
        out: None,
        baseline: None,
        max_regress: 50.0,
        check: false,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--profile" => {
                let p = value("--profile")?;
                if p != "quick" && p != "full" {
                    return Err(format!("unknown profile {p:?} (expected quick or full)"));
                }
                args.profile = p;
            }
            "--cases" => {
                args.cases = value("--cases")?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
                if args.cases.is_empty() {
                    return Err("--cases expects a comma-separated list".into());
                }
            }
            "--threads" => {
                let list: Result<Vec<usize>, _> =
                    value("--threads")?.split(',').map(str::parse).collect();
                let list =
                    list.map_err(|_| "--threads expects comma-separated positive integers")?;
                if list.is_empty() || list.contains(&0) {
                    return Err("--threads counts must be pinned (nonzero)".into());
                }
                args.threads = Some(list);
            }
            "--warmup" => {
                args.warmup = value("--warmup")?
                    .parse()
                    .map_err(|_| "--warmup expects a non-negative integer")?;
            }
            "--reps" => {
                args.reps = value("--reps")?
                    .parse()
                    .map_err(|_| "--reps expects a positive integer")?;
                if args.reps == 0 {
                    return Err("--reps must be at least 1".into());
                }
            }
            "--out" => args.out = Some(value("--out")?),
            "--baseline" => args.baseline = Some(value("--baseline")?),
            "--max-regress" => {
                args.max_regress = value("--max-regress")?
                    .parse()
                    .map_err(|_| "--max-regress expects a number (percent)")?;
            }
            "--check" => args.check = true,
            "--list" => args.list = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn list() {
    println!("cases:");
    for c in benchgen::full_suite() {
        println!("  {}", c.name);
    }
    println!("kernels (1,2[,4] threads):");
    for k in kernels::MICRO_KERNELS {
        println!("  {k}");
    }
    println!("kernels (full profile only):");
    for k in kernels::E2E_KERNELS {
        println!("  {k}");
    }
}

fn run() -> Result<i32, String> {
    let args = parse_args()?;
    if args.list {
        list();
        return Ok(0);
    }

    let threads: Vec<usize> = match &args.threads {
        Some(t) => t.clone(),
        // Pinned — never "auto" — so checksums and ns/op keys are
        // comparable across machines and over time.
        None if args.profile == "full" => vec![1, 2, 4],
        None => vec![1, 2],
    };
    let mut kernel_names: Vec<&str> = kernels::MICRO_KERNELS.to_vec();
    if args.profile == "full" {
        kernel_names.extend_from_slice(kernels::E2E_KERNELS);
    }

    let mut run = BenchRun {
        machine: perf::machine_id(),
        profile: args.profile.clone(),
        results: Vec::new(),
    };
    for name in &args.cases {
        let case = kernels::load_case(name)?;
        for kernel in &kernel_names {
            // The serial-only kernels must see their pinned count even
            // if --threads excludes it; e2e reps are capped to keep a
            // widened --reps from exploding the wall clock.
            let counts: &[usize] = match *kernel {
                "session_warm" => &[1],
                "batch_throughput" => &[BATCH_WORKERS],
                _ => &threads,
            };
            let (warmup, reps) = if kernels::E2E_KERNELS.contains(kernel) {
                (args.warmup.min(1), args.reps.min(3))
            } else {
                (args.warmup, args.reps)
            };
            for &t in counts {
                let Some(sample) = kernels::run_kernel(&case, kernel, t, warmup, reps)? else {
                    continue;
                };
                eprintln!(
                    "{name}/{kernel}@{t}t: {:.0} ns/op  checksum {:#018x}",
                    sample.ns_per_op, sample.checksum
                );
                run.results.push(BenchResult {
                    case: name.clone(),
                    kernel: kernel.to_string(),
                    threads: t,
                    ns_per_op: sample.ns_per_op,
                    iters: sample.iters,
                    checksum: sample.checksum,
                });
            }
        }
    }

    let mut failures = Vec::new();

    // The incremental ECO query must answer with the same bits as a
    // full rebuild — only then is its speedup a result rather than an
    // approximation. The headline pair the trajectory records.
    for name in &args.cases {
        let find = |kernel: &str| {
            run.results
                .iter()
                .find(|r| &r.case == name && r.kernel == kernel && r.threads == 1)
        };
        if let (Some(inc), Some(full)) = (find("eco_query_incremental"), find("eco_query_full")) {
            if inc.checksum != full.checksum {
                failures.push(format!(
                    "{name}: eco_query_incremental checksum {:#018x} != full {:#018x}",
                    inc.checksum, full.checksum
                ));
            } else if inc.ns_per_op > 0.0 {
                eprintln!(
                    "{name}: eco query speedup {:.2}x (full {:.0} ns -> incremental {:.0} ns, 1 thread)",
                    full.ns_per_op / inc.ns_per_op,
                    full.ns_per_op,
                    inc.ns_per_op
                );
            }
        }
    }

    // Serial==parallel, re-proved from the recorded results alone.
    failures.extend(perf::thread_consistency(&run));

    let text = perf::encode(&run);
    match &args.out {
        Some(path) => {
            if let Some(dir) = std::path::Path::new(path).parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir).map_err(|e| format!("{path}: {e}"))?;
                }
            }
            std::fs::write(path, format!("{text}\n")).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("wrote {} results to {path}", run.results.len());
        }
        None => println!("{text}"),
    }

    if args.check {
        let reparsed = perf::parse_run(&text)
            .map_err(|e| format!("check failed: emitted BENCH rejected: {e}"))?;
        if perf::encode(&reparsed) != text {
            failures.push("check: encode\u{2192}parse\u{2192}encode is not a fixpoint".into());
        }
        failures.extend(perf::thread_consistency(&reparsed));
        if failures.is_empty() {
            eprintln!("check ok: fixpoint + thread-consistent checksums");
        }
    }

    if let Some(path) = &args.baseline {
        let base_text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let baseline = perf::parse_run(&base_text).map_err(|e| format!("{path}: {e}"))?;
        let cmp = perf::compare(&baseline, &run, args.max_regress);
        for line in &cmp.lines {
            eprintln!("{line}");
        }
        for key in &cmp.missing {
            eprintln!("note: baseline key {key} not measured in this run");
        }
        if baseline.machine != run.machine {
            eprintln!(
                "note: baseline machine {} != {} — non-portable checksums not compared",
                baseline.machine, run.machine
            );
        }
        for m in &cmp.mismatches {
            failures.push(format!("baseline checksum mismatch: {m}"));
        }
        for r in &cmp.regressions {
            failures.push(format!("perf regression (> {}%): {r}", args.max_regress));
        }
    }

    if failures.is_empty() {
        Ok(0)
    } else {
        for f in &failures {
            eprintln!("tdp-perf: {f}");
        }
        Ok(2)
    }
}

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(msg) => {
            eprintln!("tdp-perf: {msg}");
            std::process::exit(1);
        }
    }
}
