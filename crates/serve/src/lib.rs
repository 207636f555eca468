//! `tdp-serve`: the placement flow as a resident service.
//!
//! Every earlier entry point in this workspace — the table harnesses,
//! `tdp-batch`, the examples — is a run-to-completion process: it pays
//! binary startup, design generation and the full STA setup on every
//! invocation, then exits and throws the warm state away. This crate
//! fronts the same execution core with a long-lived daemon, the way
//! production query engines front theirs:
//!
//! * [`server`] — the [`Server`]: a std-only TCP listener (no external
//!   deps), a worker pool on [`parx::TaskQueue`], and per-connection
//!   handler threads speaking newline-delimited JSON. It splits along
//!   its seams: `server/mod.rs` (config, start, acceptor, handler
//!   reaping, shutdown), `server/jobs.rs` (job table, event logs,
//!   retention compaction, journal replay, workers), `server/conn.rs`
//!   (the TCP read loop with its [`server::MAX_REQUEST_BYTES`] line cap,
//!   and one write per message) and `server/dispatch.rs` ([`Connection`]:
//!   one handler per verb, no socket — a test drives it with lines and a
//!   `Vec<u8>`, the TCP handler with a stream, through the same code).
//! * [`protocol`] — the wire grammar, whose fourteen verbs
//!   ([`protocol::VERBS`]) are `submit`, `status`, `wait`, `events`,
//!   `cancel`, `metrics`, `metrics_text`, `shutdown`, `eco_open`,
//!   `eco_apply`, `eco_query`, `eco_revert`, `eco_close` and
//!   `trace_dump`; plus the canonical [`protocol::design_key`] content
//!   hash.
//! * [`cache`] — the LRU [`SessionCache`]: repeat requests for one
//!   design (by catalog name or bit-identical inline parameters, across
//!   connections and across time) reuse one built
//!   [`Session`](tdp_core::Session), so the timing graph is constructed
//!   exactly once per design per residency — the batch
//!   runner's amortization, promoted from per-plan to per-daemon.
//! * [`metrics`] — counters behind the `metrics` request, plus the
//!   Prometheus text renderer behind `metrics_text`.
//! * [`journal`] — the durable JSONL write-ahead log: with `--journal`
//!   every submit, state transition, event line and final report is
//!   appended (fsync'd on transition boundaries), the daemon replays it
//!   on startup, and `--retain` compacts old finished jobs out of
//!   memory, re-serving them from the journal byte-identically.
//! * [`client`] — the [`Client`] library used by `tdp-client`, the CI
//!   smoke job and the differential tests.
//!
//! A daemon-served result is bitwise identical — metrics and placement
//! fingerprint — to the same spec run through a local
//! [`Session`](tdp_core::Session): the daemon runs the batch crate's own
//! spec construction and execution, and adds scheduling, caching and
//! streaming around the flow, never arithmetic inside it (see
//! [`server`]; `tests/serve_differential.rs` asserts it over the wire).

pub mod cache;
pub mod client;
pub mod journal;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use cache::{SessionCache, SessionSlot};
pub use client::{Client, ClientError};
pub use journal::Journal;
pub use metrics::{Gauges, ServeMetrics};
pub use protocol::{design_key, DesignRef, ProtoError, Request, SubmitRequest};
pub use server::{Connection, Server, ServerConfig, ServerHandle};
