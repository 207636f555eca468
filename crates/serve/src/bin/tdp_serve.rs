//! `tdp-serve` — the resident placement daemon.
//!
//! ```text
//! tdp-serve [--addr HOST:PORT] [--workers N] [--cache-capacity N]
//!           [--stride K] [--journal DIR] [--no-replay] [--retain N]
//!           [--trace-ring N] [--quiet]
//! ```
//!
//! Binds, prints the bound address (port 0 resolves to an ephemeral
//! port), and serves until a wire `shutdown` request arrives. With
//! `--journal DIR` every job is written through to a JSONL write-ahead
//! log and replayed on restart: finished jobs come back with their
//! reports and event logs, unfinished jobs re-run (or resolve as failed
//! under `--no-replay`). `--retain N` bounds in-memory state to the N
//! most recent finished jobs, re-serving older ones from the journal.
//! See the README's `tdp-serve` section for the protocol grammar and
//! the journal record schema.

use serve::{Server, ServerConfig};

const USAGE: &str = "usage: tdp-serve [options]
  --addr HOST:PORT     bind address (default: 127.0.0.1:7171; port 0 =
                       ephemeral, printed at startup)
  --workers N          job worker threads; 0 = one per hardware thread
                       (default: 2)
  --cache-capacity N   sessions kept hot in the LRU cache (default: 8)
  --stride K           default event stride for submits (default: 16)
  --journal DIR        append every submit/state/event/report to a JSONL
                       write-ahead log in DIR and replay it on startup
  --no-replay          on restart, mark journaled unfinished jobs failed
                       instead of re-running them
  --retain N           keep at most N finished jobs in memory; older ones
                       are re-served from the journal (requires --journal)
  --trace-ring N       keep the last N trace span events resident for the
                       trace_dump verb; 0 disables tracing
                       (default: 65536)
  --quiet              suppress the startup banner";

/// The value following `flag`.
fn value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

/// The integer following `flag`; `what` names its range in the error.
fn number(it: &mut impl Iterator<Item = String>, flag: &str, what: &str) -> Result<usize, String> {
    let bad = |_| format!("{flag} expects a {what} integer");
    value(it, flag)?.parse().map_err(bad)
}

fn parse_args() -> Result<(ServerConfig, bool), String> {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:7171".to_string(),
        ..ServerConfig::default()
    };
    let mut quiet = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => cfg.addr = value(&mut it, &flag)?,
            "--workers" => cfg.workers = number(&mut it, &flag, "non-negative")?,
            "--cache-capacity" => cfg.cache_capacity = number(&mut it, &flag, "positive")?,
            "--stride" => cfg.default_stride = number(&mut it, &flag, "positive")?,
            "--journal" => cfg.journal = Some(value(&mut it, &flag)?.into()),
            "--no-replay" => cfg.replay = false,
            "--retain" => cfg.retain = number(&mut it, &flag, "positive")?,
            "--trace-ring" => cfg.trace_ring = number(&mut it, &flag, "non-negative")?,
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    if cfg.retain > 0 && cfg.journal.is_none() {
        return Err("--retain requires --journal (compacted jobs are re-served \
                    from the journal)"
            .to_string());
    }
    Ok((cfg, quiet))
}

fn main() {
    let (cfg, quiet) = match parse_args() {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("tdp-serve: {msg}");
            std::process::exit(2);
        }
    };
    let workers = cfg.workers;
    let cache = cfg.cache_capacity;
    let handle = match Server::start(cfg) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("tdp-serve: startup failed: {e}");
            std::process::exit(1);
        }
    };
    if !quiet {
        println!(
            "tdp-serve listening on {} ({} workers, cache {})",
            handle.addr(),
            if workers == 0 {
                "auto".to_string()
            } else {
                workers.to_string()
            },
            cache,
        );
    }
    handle.join();
    if !quiet {
        println!("tdp-serve: shut down cleanly");
    }
}
