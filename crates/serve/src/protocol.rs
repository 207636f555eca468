//! The wire protocol: newline-delimited JSON, one request or response
//! object per line.
//!
//! # Requests
//!
//! ```text
//! {"cmd":"submit","case":"sb18","objective":"efficient-tdp",
//!  "profile":"quick","overrides":{"seed":7},"stride":8}
//! {"cmd":"submit","params":{"name":"d","seed":3,"num_comb":400},...}
//! {"cmd":"status","job":0}
//! {"cmd":"wait","job":0}
//! {"cmd":"events","job":0,"from":0}
//! {"cmd":"cancel","job":0}
//! {"cmd":"metrics"}
//! {"cmd":"metrics_text"}
//! {"cmd":"shutdown"}
//! {"cmd":"eco_open","case":"cg1"}
//! {"cmd":"eco_apply","deltas":[{"op":"move","cells":[[3,10.5,20.0]]}]}
//! {"cmd":"eco_query","mode":"full","paths":4}
//! {"cmd":"eco_revert","to":0}
//! {"cmd":"eco_close"}
//! {"cmd":"trace_dump"}
//! ```
//!
//! The five `eco_*` verbs drive an interactive ECO session bound to the
//! connection: `eco_open` pins a cached design resident (one per
//! connection; the LRU cache will not evict it while pinned),
//! `eco_apply` applies a delta batch in the [`eco`] wire grammar and
//! re-analyzes incrementally, `eco_query` reads the answer back
//! (optionally forcing `"mode":"incremental"` or `"full"` re-analysis),
//! `eco_revert` rolls back to a checkpoint (or one batch without
//! `"to"`), and `eco_close` releases the pin and reports the session's
//! cumulative stats. Closing the connection auto-closes the session.
//!
//! A submit names its design either by `case` (a [`benchgen::full_suite`]
//! name) or inline by `params` (generator parameters; absent fields
//! default from [`CircuitParams::small`] seeded with the given
//! `name`/`seed`). `objective` is a single objective name as accepted by
//! [`batch::parse_objective`] (`all` is not valid on the wire — submit
//! one job per objective). `overrides` take the job-file `key=value`
//! vocabulary; values may be JSON numbers or strings.
//!
//! # Responses
//!
//! Every response carries `"ok"` and echoes `"cmd"`. Errors are
//! `{"ok":false,"error":"...",["line":L,"col":C]}` with the line/column
//! present for JSON syntax errors (as reported by [`tdp_jsonio::parse`]).
//!
//! The module also owns the **design key**: a canonical content hash of
//! the generator parameters ([`design_key`]) under which the daemon
//! caches sessions. A `case` reference and an inline `params` submission
//! that resolve to equal parameters hash identically and therefore share
//! one cached session.

use benchgen::CircuitParams;
use std::fmt;
use tdp_jsonio::{parse, push_escaped, push_num, JsonError, JsonValue};

/// How a submit names its design.
#[derive(Debug, Clone, PartialEq)]
pub enum DesignRef {
    /// A named case from the widened 14-case suite.
    Case(String),
    /// Inline generator parameters.
    Inline(CircuitParams),
}

/// One decoded `submit` request.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    /// The design to place.
    pub design: DesignRef,
    /// Objective name (single; `all` is rejected).
    pub objective: String,
    /// Base schedule, `paper` or `quick`.
    pub profile: String,
    /// `key=value` overrides in job-file vocabulary.
    pub overrides: Vec<(String, String)>,
    /// Event stride override (`None` = server default).
    pub stride: Option<usize>,
}

impl SubmitRequest {
    /// A quick-profile request for a named case with no overrides.
    pub fn case(case: &str, objective: &str) -> Self {
        Self {
            design: DesignRef::Case(case.to_string()),
            objective: objective.to_string(),
            profile: "quick".to_string(),
            overrides: Vec::new(),
            stride: None,
        }
    }

    /// Renders the request as one wire line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut s = String::from("{\"cmd\":\"submit\"");
        match &self.design {
            DesignRef::Case(name) => tdp_jsonio::field_str(&mut s, "case", name),
            DesignRef::Inline(params) => {
                tdp_jsonio::field_raw(&mut s, "params", &params_to_json(params).encode())
            }
        }
        tdp_jsonio::field_str(&mut s, "objective", &self.objective);
        tdp_jsonio::field_str(&mut s, "profile", &self.profile);
        if !self.overrides.is_empty() {
            tdp_jsonio::field_raw(&mut s, "overrides", &overrides_json(&self.overrides));
        }
        if let Some(stride) = self.stride {
            tdp_jsonio::field_num(&mut s, "stride", stride as f64);
        }
        s.push('}');
        s
    }
}

/// Renders `key=value` overrides as a JSON object of strings — the form
/// a submit line and its journal record both carry.
pub(crate) fn overrides_json(overrides: &[(String, String)]) -> String {
    let members = overrides
        .iter()
        .map(|(k, v)| (k.clone(), JsonValue::Str(v.clone())));
    JsonValue::Obj(members.collect()).encode()
}

/// One decoded request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Enqueue a job.
    Submit(Box<SubmitRequest>),
    /// Non-blocking job state poll.
    Status {
        /// Job id.
        job: usize,
    },
    /// Block until the job is terminal, then answer like `status`.
    Wait {
        /// Job id.
        job: usize,
    },
    /// Stream the job's progress events from index `from` until the job
    /// finishes.
    Events {
        /// Job id.
        job: usize,
        /// First event index to replay (0 = from the beginning).
        from: usize,
    },
    /// Request cancellation of a queued or running job.
    Cancel {
        /// Job id.
        job: usize,
    },
    /// Server counters.
    Metrics,
    /// Server counters in Prometheus text exposition format (the
    /// response carries the scrape body in its `"text"` field).
    MetricsText,
    /// Stop accepting work, cancel in-flight jobs, exit cleanly.
    Shutdown,
    /// Pin a design resident and open an ECO session on this connection.
    EcoOpen {
        /// The design to hold resident.
        design: DesignRef,
    },
    /// Apply a delta batch to the connection's ECO session.
    EcoApply {
        /// Raw delta-batch JSON (decoded against the open design by
        /// [`eco::delta_batch_from_json`] at dispatch time).
        deltas: JsonValue,
    },
    /// Read timing/congestion state back from the ECO session.
    EcoQuery {
        /// `Some(true)` forces a full re-analysis before the readout,
        /// `Some(false)` an incremental one; `None` reads the current
        /// state without re-analyzing.
        full: Option<bool>,
        /// Worst paths to include.
        paths: usize,
    },
    /// Roll the ECO session back to a checkpoint (or one batch).
    EcoRevert {
        /// Checkpoint depth (`None` = revert the latest batch).
        to: Option<usize>,
    },
    /// Close the ECO session and release the cache pin.
    EcoClose,
    /// Dump the daemon's resident span ring as a Chrome trace document
    /// (the response carries it in its `"trace"` field).
    TraceDump,
}

/// Every wire verb and the span name its requests are traced under, in
/// protocol order — the one spelling of the verb set. [`Request::verb`]
/// indexes it; the `request_seconds` histograms, the unknown-`cmd` error
/// and every reply's `"cmd"` echo read their names from it.
pub const VERBS: [(&str, &str); 14] = [
    ("submit", "serve.submit"),
    ("status", "serve.status"),
    ("wait", "serve.wait"),
    ("events", "serve.events"),
    ("cancel", "serve.cancel"),
    ("metrics", "serve.metrics"),
    ("metrics_text", "serve.metrics_text"),
    ("shutdown", "serve.shutdown"),
    ("eco_open", "serve.eco_open"),
    ("eco_apply", "serve.eco_apply"),
    ("eco_query", "serve.eco_query"),
    ("eco_revert", "serve.eco_revert"),
    ("eco_close", "serve.eco_close"),
    ("trace_dump", "serve.trace_dump"),
];

impl Request {
    /// This request's row in [`VERBS`].
    pub fn verb(&self) -> usize {
        match self {
            Request::Submit(_) => 0,
            Request::Status { .. } => 1,
            Request::Wait { .. } => 2,
            Request::Events { .. } => 3,
            Request::Cancel { .. } => 4,
            Request::Metrics => 5,
            Request::MetricsText => 6,
            Request::Shutdown => 7,
            Request::EcoOpen { .. } => 8,
            Request::EcoApply { .. } => 9,
            Request::EcoQuery { .. } => 10,
            Request::EcoRevert { .. } => 11,
            Request::EcoClose => 12,
            Request::TraceDump => 13,
        }
    }
}

/// Why a request line was rejected.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtoError {
    /// Human-readable reason.
    pub msg: String,
    /// Line/column for JSON syntax errors.
    pub at: Option<(usize, usize)>,
}

impl ProtoError {
    /// A semantic (non-syntax) protocol error.
    pub fn new(msg: impl Into<String>) -> Self {
        Self {
            msg: msg.into(),
            at: None,
        }
    }

    /// Renders the error as one response line.
    pub fn to_response(&self) -> String {
        let mut s = String::from("{\"ok\":false");
        tdp_jsonio::field_str(&mut s, "error", &self.msg);
        if let Some((line, col)) = self.at {
            tdp_jsonio::field_num(&mut s, "line", line as f64);
            tdp_jsonio::field_num(&mut s, "col", col as f64);
        }
        s.push('}');
        s
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.at {
            Some((line, col)) => write!(f, "{} (at line {line} col {col})", self.msg),
            None => write!(f, "{}", self.msg),
        }
    }
}

impl From<JsonError> for ProtoError {
    fn from(e: JsonError) -> Self {
        Self {
            msg: format!("malformed JSON: {}", e.msg),
            at: Some((e.line, e.col)),
        }
    }
}

/// Decodes one request line.
///
/// # Errors
///
/// Returns [`ProtoError`] with position info for JSON syntax errors and
/// without for semantic ones (unknown command, missing fields, bad
/// types).
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let doc = parse(line)?;
    if doc.as_object().is_none() {
        return Err(ProtoError::new("request must be a JSON object"));
    }
    let cmd = doc
        .get("cmd")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| ProtoError::new("missing string field \"cmd\""))?;
    match cmd {
        "submit" => Ok(Request::Submit(Box::new(parse_submit(&doc)?))),
        "status" => Ok(Request::Status { job: job_id(&doc)? }),
        "wait" => Ok(Request::Wait { job: job_id(&doc)? }),
        "events" => Ok(Request::Events {
            job: job_id(&doc)?,
            from: opt_usize(&doc, "from")?.unwrap_or(0),
        }),
        "cancel" => Ok(Request::Cancel { job: job_id(&doc)? }),
        "metrics" => Ok(Request::Metrics),
        "metrics_text" => Ok(Request::MetricsText),
        "shutdown" => Ok(Request::Shutdown),
        "eco_open" => Ok(Request::EcoOpen {
            design: parse_design(&doc, "eco_open")?,
        }),
        "eco_apply" => Ok(Request::EcoApply {
            deltas: doc
                .get("deltas")
                .cloned()
                .ok_or_else(|| ProtoError::new("eco_apply needs a \"deltas\" array"))?,
        }),
        "eco_query" => Ok(Request::EcoQuery {
            full: match doc.get("mode").map(JsonValue::as_str) {
                None => None,
                Some(Some("full")) => Some(true),
                Some(Some("incremental")) => Some(false),
                Some(other) => {
                    return Err(ProtoError::new(format!(
                        "\"mode\" must be \"incremental\" or \"full\" (got {:?})",
                        other.unwrap_or("<non-string>")
                    )))
                }
            },
            paths: opt_usize(&doc, "paths")?.unwrap_or(4),
        }),
        "eco_revert" => Ok(Request::EcoRevert {
            to: opt_usize(&doc, "to")?,
        }),
        "eco_close" => Ok(Request::EcoClose),
        "trace_dump" => Ok(Request::TraceDump),
        other => {
            let (last, rest) = VERBS.split_last().expect("the verb set is not empty");
            let rest: Vec<&str> = rest.iter().map(|&(verb, _)| verb).collect();
            Err(ProtoError::new(format!(
                "unknown cmd {other:?} (expected {} or {})",
                rest.join(", "),
                last.0
            )))
        }
    }
}

/// An optional non-negative integer field.
fn opt_usize(doc: &JsonValue, key: &str) -> Result<Option<usize>, ProtoError> {
    let bad = || ProtoError::new(format!("\"{key}\" must be a non-negative integer"));
    doc.get(key)
        .map(|v| v.as_usize().ok_or_else(bad))
        .transpose()
}

fn job_id(doc: &JsonValue) -> Result<usize, ProtoError> {
    doc.get("job")
        .and_then(JsonValue::as_usize)
        .ok_or_else(|| ProtoError::new("missing non-negative integer field \"job\""))
}

/// Decodes the shared `case`/`params` design naming used by `submit`
/// and `eco_open`.
fn parse_design(doc: &JsonValue, cmd: &str) -> Result<DesignRef, ProtoError> {
    match (doc.get("case"), doc.get("params")) {
        (Some(c), None) => Ok(DesignRef::Case(
            c.as_str()
                .ok_or_else(|| ProtoError::new("\"case\" must be a string"))?
                .to_string(),
        )),
        (None, Some(p)) => Ok(DesignRef::Inline(params_from_json(p)?)),
        (Some(_), Some(_)) => Err(ProtoError::new(
            "give either \"case\" or \"params\", not both",
        )),
        (None, None) => Err(ProtoError::new(format!(
            "{cmd} needs a design: \"case\" (catalog name) or \"params\" (inline)"
        ))),
    }
}

fn parse_submit(doc: &JsonValue) -> Result<SubmitRequest, ProtoError> {
    let design = parse_design(doc, "submit")?;
    let objective = doc
        .get("objective")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| ProtoError::new("missing string field \"objective\""))?
        .to_string();
    let profile = match doc.get("profile") {
        None => "paper".to_string(),
        Some(p) => p
            .as_str()
            .ok_or_else(|| ProtoError::new("\"profile\" must be a string"))?
            .to_string(),
    };
    let mut overrides = Vec::new();
    if let Some(o) = doc.get("overrides") {
        let members = o
            .as_object()
            .ok_or_else(|| ProtoError::new("\"overrides\" must be an object"))?;
        for (key, value) in members {
            let text = match value {
                JsonValue::Str(s) => s.clone(),
                JsonValue::Num(n) => tdp_jsonio::format_num(*n),
                _ => {
                    return Err(ProtoError::new(format!(
                        "override {key:?} must be a string or number"
                    )))
                }
            };
            overrides.push((key.clone(), text));
        }
    }
    let bad_stride = || ProtoError::new("\"stride\" must be a positive integer");
    let stride = doc
        .get("stride")
        .map(|v| v.as_usize().filter(|&s| s > 0).ok_or_else(bad_stride));
    Ok(SubmitRequest {
        design,
        objective,
        profile,
        overrides,
        stride: stride.transpose()?,
    })
}

/// Encodes generator parameters as a JSON object (full field set — the
/// inverse of [`params_from_json`]).
pub fn params_to_json(p: &CircuitParams) -> JsonValue {
    JsonValue::Obj(vec![
        ("name".into(), JsonValue::Str(p.name.clone())),
        ("seed".into(), JsonValue::Num(p.seed as f64)),
        ("num_comb".into(), p.num_comb.into()),
        ("num_ff".into(), p.num_ff.into()),
        ("num_pi".into(), p.num_pi.into()),
        ("num_po".into(), p.num_po.into()),
        ("levels".into(), p.levels.into()),
        ("max_fanout".into(), p.max_fanout.into()),
        (
            "high_fanout_fraction".into(),
            JsonValue::Num(p.high_fanout_fraction),
        ),
        ("utilization".into(), JsonValue::Num(p.utilization)),
        ("num_macros".into(), p.num_macros.into()),
        ("clock_period".into(), JsonValue::Num(p.clock_period)),
        ("res_per_unit".into(), JsonValue::Num(p.res_per_unit)),
        ("cap_per_unit".into(), JsonValue::Num(p.cap_per_unit)),
    ])
}

/// Decodes inline generator parameters. `name` and `seed` are required;
/// every other field defaults from [`CircuitParams::small`] with that
/// name and seed, so small probes stay terse while full specifications
/// round-trip exactly.
///
/// # Errors
///
/// Returns [`ProtoError`] for missing/ill-typed fields and unknown keys
/// (unknown keys are rejected so typos cannot silently fall back to
/// defaults — a wrong design would cache under a wrong key).
pub fn params_from_json(v: &JsonValue) -> Result<CircuitParams, ProtoError> {
    let members = v
        .as_object()
        .ok_or_else(|| ProtoError::new("\"params\" must be an object"))?;
    let name = v
        .get("name")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| ProtoError::new("params: missing string field \"name\""))?;
    let seed = v
        .get("seed")
        .and_then(JsonValue::as_usize)
        .ok_or_else(|| ProtoError::new("params: missing non-negative integer \"seed\""))?;
    let mut p = CircuitParams::small(name, seed as u64);
    for (key, value) in members {
        let bad_usize =
            || ProtoError::new(format!("params: {key:?} must be a non-negative integer"));
        let bad_f64 = || ProtoError::new(format!("params: {key:?} must be a finite number"));
        let as_usize = || value.as_usize().ok_or_else(bad_usize);
        let as_f64 = || value.as_f64().filter(|f| f.is_finite()).ok_or_else(bad_f64);
        match key.as_str() {
            "name" | "seed" => {}
            "num_comb" => p.num_comb = as_usize()?,
            "num_ff" => p.num_ff = as_usize()?,
            "num_pi" => p.num_pi = as_usize()?,
            "num_po" => p.num_po = as_usize()?,
            "levels" => p.levels = as_usize()?,
            "max_fanout" => p.max_fanout = as_usize()?,
            "high_fanout_fraction" => p.high_fanout_fraction = as_f64()?,
            "utilization" => p.utilization = as_f64()?,
            "num_macros" => p.num_macros = as_usize()?,
            "clock_period" => p.clock_period = as_f64()?,
            "res_per_unit" => p.res_per_unit = as_f64()?,
            "cap_per_unit" => p.cap_per_unit = as_f64()?,
            other => return Err(ProtoError::new(format!("params: unknown field {other:?}"))),
        }
    }
    Ok(p)
}

/// The canonical content key of a design: FNV-1a over a canonical
/// rendering of the generator parameters (floats by IEEE-754 bits, so
/// the key is exact, not formatting-dependent). Equal parameters — by
/// name or inline — always produce equal keys; the session cache is
/// keyed by this.
pub fn design_key(p: &CircuitParams) -> u64 {
    let mut canon = String::with_capacity(256);
    canon.push_str("name=");
    canon.push_str(&p.name);
    let mut field = |key: &str, v: u64| {
        canon.push(';');
        canon.push_str(key);
        let _ = std::fmt::Write::write_fmt(&mut canon, format_args!("={v:x}"));
    };
    field("seed", p.seed);
    field("num_comb", p.num_comb as u64);
    field("num_ff", p.num_ff as u64);
    field("num_pi", p.num_pi as u64);
    field("num_po", p.num_po as u64);
    field("levels", p.levels as u64);
    field("max_fanout", p.max_fanout as u64);
    field("high_fanout_fraction", p.high_fanout_fraction.to_bits());
    field("utilization", p.utilization.to_bits());
    field("num_macros", p.num_macros as u64);
    field("clock_period", p.clock_period.to_bits());
    field("res_per_unit", p.res_per_unit.to_bits());
    field("cap_per_unit", p.cap_per_unit.to_bits());
    netlist::fnv::mix_bytes(netlist::fnv::OFFSET, canon.as_bytes())
}

/// Renders a `{"ok":true,"cmd":...}` response prefix; the caller appends
/// fields and the closing `}`.
pub fn ok_prefix(cmd: &str) -> String {
    let mut s = String::from("{\"ok\":true");
    tdp_jsonio::field_str(&mut s, "cmd", cmd);
    s
}

/// Renders one job progress event as a wire line.
pub fn event_line(kind: &str, job: usize, fields: impl FnOnce(&mut String)) -> String {
    let mut s = String::from("{\"event\":");
    push_escaped(&mut s, kind);
    s.push_str(",\"job\":");
    push_num(&mut s, job as f64);
    fields(&mut s);
    s.push('}');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_round_trips_through_encode_and_parse() {
        let mut req = SubmitRequest::case("sb18", "efficient-tdp");
        req.overrides.push(("seed".into(), "9".into()));
        req.stride = Some(4);
        let line = req.encode();
        let Request::Submit(back) = parse_request(&line).unwrap() else {
            panic!("expected submit");
        };
        assert_eq!(*back, req);
    }

    #[test]
    fn inline_params_round_trip_and_share_keys_with_cases() {
        let case = benchgen::case_by_name("mx1").unwrap();
        let req = SubmitRequest {
            design: DesignRef::Inline(case.params.clone()),
            objective: "dreamplace4".into(),
            profile: "paper".into(),
            overrides: vec![],
            stride: None,
        };
        let Request::Submit(back) = parse_request(&req.encode()).unwrap() else {
            panic!("expected submit");
        };
        let DesignRef::Inline(params) = &back.design else {
            panic!("expected inline design");
        };
        assert_eq!(params, &case.params);
        // The content key is reference-independent.
        assert_eq!(design_key(params), design_key(&case.params));
        // And sensitive to any parameter change.
        let mut other = case.params.clone();
        other.clock_period += 1.0;
        assert_ne!(design_key(&other), design_key(&case.params));
    }

    #[test]
    fn inline_params_default_from_small_and_reject_unknown_keys() {
        let v = parse("{\"name\":\"d\",\"seed\":3,\"num_comb\":400}").unwrap();
        let p = params_from_json(&v).unwrap();
        assert_eq!(p.num_comb, 400);
        assert_eq!(p.num_ff, CircuitParams::small("d", 3).num_ff);

        let bad = parse("{\"name\":\"d\",\"seed\":3,\"num_cmb\":400}").unwrap();
        let err = params_from_json(&bad).unwrap_err();
        assert!(err.msg.contains("num_cmb"), "{err}");
    }

    #[test]
    fn overrides_accept_numbers_and_strings() {
        let line = "{\"cmd\":\"submit\",\"case\":\"sb18\",\"objective\":\"ours\",\
                    \"overrides\":{\"seed\":7,\"beta\":\"1e-3\"}}";
        let Request::Submit(req) = parse_request(line).unwrap() else {
            panic!("expected submit");
        };
        assert_eq!(
            req.overrides,
            vec![
                ("seed".to_string(), "7".to_string()),
                ("beta".to_string(), "1e-3".to_string()),
            ]
        );
    }

    #[test]
    fn syntax_errors_carry_positions_and_semantic_errors_do_not() {
        let err = parse_request("{\"cmd\": nope}").unwrap_err();
        assert_eq!(err.at, Some((1, 9)), "{err}");
        assert!(err.to_response().contains("\"line\":1"));

        let err = parse_request("{\"cmd\":\"warp\"}").unwrap_err();
        assert_eq!(err.at, None);
        assert!(err.msg.contains("warp"), "{err}");

        let err = parse_request("{\"cmd\":\"status\"}").unwrap_err();
        assert!(err.msg.contains("job"), "{err}");

        let err = parse_request("{\"cmd\":\"submit\",\"objective\":\"ours\"}").unwrap_err();
        assert!(err.msg.contains("design"), "{err}");
    }

    #[test]
    fn eco_requests_parse_with_defaults_and_reject_bad_modes() {
        assert_eq!(
            parse_request("{\"cmd\":\"eco_open\",\"case\":\"cg1\"}").unwrap(),
            Request::EcoOpen {
                design: DesignRef::Case("cg1".into())
            }
        );
        let err = parse_request("{\"cmd\":\"eco_open\"}").unwrap_err();
        assert!(err.msg.contains("eco_open needs a design"), "{err}");

        let Request::EcoApply { deltas } = parse_request(
            "{\"cmd\":\"eco_apply\",\"deltas\":[{\"op\":\"retarget_clock\",\"period\":900.0}]}",
        )
        .unwrap() else {
            panic!("expected eco_apply");
        };
        assert_eq!(deltas.as_array().map(<[JsonValue]>::len), Some(1));
        let err = parse_request("{\"cmd\":\"eco_apply\"}").unwrap_err();
        assert!(err.msg.contains("deltas"), "{err}");

        assert_eq!(
            parse_request("{\"cmd\":\"eco_query\"}").unwrap(),
            Request::EcoQuery {
                full: None,
                paths: 4
            }
        );
        assert_eq!(
            parse_request("{\"cmd\":\"eco_query\",\"mode\":\"full\",\"paths\":0}").unwrap(),
            Request::EcoQuery {
                full: Some(true),
                paths: 0
            }
        );
        let err = parse_request("{\"cmd\":\"eco_query\",\"mode\":\"warp\"}").unwrap_err();
        assert!(err.msg.contains("incremental"), "{err}");

        assert_eq!(
            parse_request("{\"cmd\":\"eco_revert\"}").unwrap(),
            Request::EcoRevert { to: None }
        );
        assert_eq!(
            parse_request("{\"cmd\":\"eco_revert\",\"to\":2}").unwrap(),
            Request::EcoRevert { to: Some(2) }
        );
        assert_eq!(
            parse_request("{\"cmd\":\"eco_close\"}").unwrap(),
            Request::EcoClose
        );
    }

    #[test]
    fn verbs_index_the_table_in_protocol_order() {
        let lines = [
            "{\"cmd\":\"submit\",\"case\":\"sb18\",\"objective\":\"ours\"}",
            "{\"cmd\":\"status\",\"job\":0}",
            "{\"cmd\":\"wait\",\"job\":0}",
            "{\"cmd\":\"events\",\"job\":0}",
            "{\"cmd\":\"cancel\",\"job\":0}",
            "{\"cmd\":\"metrics\"}",
            "{\"cmd\":\"metrics_text\"}",
            "{\"cmd\":\"shutdown\"}",
            "{\"cmd\":\"eco_open\",\"case\":\"cg1\"}",
            "{\"cmd\":\"eco_apply\",\"deltas\":[]}",
            "{\"cmd\":\"eco_query\"}",
            "{\"cmd\":\"eco_revert\"}",
            "{\"cmd\":\"eco_close\"}",
            "{\"cmd\":\"trace_dump\"}",
        ];
        assert_eq!(lines.len(), VERBS.len());
        for (i, line) in lines.iter().enumerate() {
            let verb = parse_request(line).unwrap().verb();
            assert_eq!(verb, i, "{line}");
            let (name, span) = VERBS[verb];
            assert!(line.contains(&format!("\"{name}\"")), "{line}");
            assert_eq!(span, format!("serve.{name}"));
        }
        let err = parse_request("{\"cmd\":\"warp\"}").unwrap_err();
        assert_eq!(
            err.msg,
            "unknown cmd \"warp\" (expected submit, status, wait, events, cancel, metrics, \
             metrics_text, shutdown, eco_open, eco_apply, eco_query, eco_revert, eco_close \
             or trace_dump)"
        );
    }

    #[test]
    fn requests_without_payload_parse() {
        assert_eq!(
            parse_request("{\"cmd\":\"metrics\"}").unwrap(),
            Request::Metrics
        );
        assert_eq!(
            parse_request("{\"cmd\":\"metrics_text\"}").unwrap(),
            Request::MetricsText
        );
        assert_eq!(
            parse_request("{\"cmd\":\"shutdown\"}").unwrap(),
            Request::Shutdown
        );
        assert_eq!(
            parse_request("{\"cmd\":\"events\",\"job\":2}").unwrap(),
            Request::Events { job: 2, from: 0 }
        );
        assert_eq!(
            parse_request("{\"cmd\":\"trace_dump\"}").unwrap(),
            Request::TraceDump
        );
    }
}
