//! Batch job descriptions and the job-file format.
//!
//! A [`BatchJob`] is a *description* of one flow run: a named design
//! (generator parameters) plus a validated [`FlowSpec`]. Descriptions are
//! `Send + Sync` plain data — the runner ships them across worker
//! threads and builds the heavyweight state (design, session, objective)
//! locally on whichever worker executes the job.
//!
//! # Job-file format
//!
//! One job (or objective sweep) per line:
//!
//! ```text
//! # comment (blank lines are ignored too)
//! <case> <objective> [key=value ...]
//! sb1    efficient-tdp
//! mx1    all           beta=1e-3 threads=2
//! dl1    dreamplace4   seed=7 timing_start=80 timing_interval=8
//! ```
//!
//! * `<case>` — a name from [`benchgen::full_suite`] (`sb1` … `cg2`).
//! * `<objective>` — `dreamplace`, `dreamplace4`, `differentiable-tdp`,
//!   `efficient-tdp`, `congestion-aware`, or `all` to sweep the five
//!   builtin objectives.
//! * `key=value` overrides, applied on top of the selected
//!   [`Profile`]: `beta`, `w0`, `w1`, `seed`, `threads`,
//!   `timing_start`, `timing_interval`, `min_iters`, `max_iters`,
//!   `route_bins`, `route_capacity`, `route_pin_weight`,
//!   `congestion_weight` (tunes the `congestion-aware` objective —
//!   including that member of an `all` sweep — and is a no-op for the
//!   others, like `beta` on `dreamplace`).
//!
//! Malformed lines are reported with their 1-based line number; unknown
//! cases list the available catalog.

use crate::BatchError;
use benchgen::{CircuitParams, SuiteCase};
use tdp_core::{FlowBuilder, FlowSpec, ObjectiveSpec};

/// The five builtin objectives — the paper's four in table order, then
/// the congestion-aware extension — the sweep `all` expands to.
pub const BUILTIN_OBJECTIVES: [ObjectiveSpec; 5] = [
    ObjectiveSpec::DreamPlace,
    ObjectiveSpec::DreamPlace4,
    ObjectiveSpec::DifferentiableTdp,
    ObjectiveSpec::EfficientTdp,
    ObjectiveSpec::CongestionAware {
        weight: tdp_core::DEFAULT_CONGESTION_WEIGHT,
    },
];

/// The canonical CLI/wire names of [`BUILTIN_OBJECTIVES`], in the same
/// order — the single source every `all` sweep expands from
/// (`tdp-batch` job files server-side, `tdp-client` client-side). Each
/// name parses back through [`parse_objective`].
pub const BUILTIN_OBJECTIVE_NAMES: [&str; 5] = [
    "dreamplace",
    "dreamplace4",
    "differentiable-tdp",
    "efficient-tdp",
    "congestion-aware",
];

/// One schedulable unit of batch work: a design plus a validated flow
/// spec. Plain data, cheap to clone, `Send + Sync`.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// Case name (used in reports).
    pub case: String,
    /// Generator parameters of the design this job places. Jobs with
    /// equal parameters share one session (and its STA setup) at run
    /// time.
    pub params: CircuitParams,
    /// The validated flow to run.
    pub spec: FlowSpec,
}

/// Base flow configuration a batch derives its specs from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// The paper's full schedule (700 iteration cap, timing from 250) —
    /// what the tables run.
    Paper,
    /// A shortened schedule (200 iteration cap, timing from 100) for
    /// smoke tests and CI: same code paths, a fraction of the wall
    /// clock.
    Quick,
}

impl Profile {
    /// Parses `paper` / `quick`.
    pub fn parse(s: &str) -> Result<Self, BatchError> {
        match s {
            "paper" => Ok(Profile::Paper),
            "quick" => Ok(Profile::Quick),
            other => Err(BatchError::Usage(format!(
                "unknown profile {other:?} (expected `paper` or `quick`)"
            ))),
        }
    }

    /// The builder seeded with this profile's schedule and `case`'s wire
    /// parasitics. Per-run kernels default to a single thread: batch
    /// parallelism comes from running jobs concurrently, and stacking
    /// intra-run threads on top oversubscribes the machine (override
    /// with the `threads=` key when a batch is smaller than the
    /// machine).
    pub fn builder(self, case: &SuiteCase) -> FlowBuilder {
        self.builder_for(&case.params)
    }

    /// [`Profile::builder`] from bare generator parameters — for designs
    /// that are not catalog entries (e.g. inline designs submitted to
    /// the serve daemon). Same construction path, so a spec built from
    /// parameters equal to a catalog case's is identical to the
    /// catalog-built one.
    pub fn builder_for(self, params: &CircuitParams) -> FlowBuilder {
        let b = FlowBuilder::new().rc(sta_params(params)).threads(1);
        match self {
            Profile::Paper => b,
            Profile::Quick => b.iterations(60, 200).timing_start(100).timing_interval(10),
        }
    }
}

/// The run's wire parasitics from the generator parameters (the same
/// coupling the table harnesses use).
fn sta_params(p: &CircuitParams) -> sta::RcParams {
    sta::RcParams {
        res_per_unit: p.res_per_unit,
        cap_per_unit: p.cap_per_unit,
        ..tdp_core::FlowConfig::default().rc
    }
}

/// Parses an objective name; `all` yields `None` (sweep).
pub fn parse_objective(s: &str) -> Result<Option<ObjectiveSpec>, BatchError> {
    Ok(match s {
        "all" => None,
        "dreamplace" | "dp" => Some(ObjectiveSpec::DreamPlace),
        "dreamplace4" | "dp4" => Some(ObjectiveSpec::DreamPlace4),
        "differentiable-tdp" | "dtdp" => Some(ObjectiveSpec::DifferentiableTdp),
        "efficient-tdp" | "ours" => Some(ObjectiveSpec::EfficientTdp),
        "congestion-aware" | "ca" => Some(ObjectiveSpec::CongestionAware {
            weight: tdp_core::DEFAULT_CONGESTION_WEIGHT,
        }),
        other => {
            return Err(BatchError::Usage(format!(
                "unknown objective {other:?} (expected dreamplace, dreamplace4, \
                 differentiable-tdp, efficient-tdp, congestion-aware or all)"
            )))
        }
    })
}

/// Builds the jobs for `case` × `objective` (or × all four when
/// `objective` is `None`), applying `overrides` on top of `profile`.
pub fn make_jobs(
    case: &SuiteCase,
    objective: Option<&ObjectiveSpec>,
    profile: Profile,
    overrides: &[(String, String)],
) -> Result<Vec<BatchJob>, BatchError> {
    make_jobs_for(case.name, &case.params, objective, profile, overrides)
}

/// [`make_jobs`] from a bare `(name, params)` pair instead of a catalog
/// case — the construction path wire front ends use for inline designs.
/// Specs built here from parameters equal to a catalog case's are
/// identical to [`make_jobs`]-built ones, which is what makes a daemon
/// run bitwise-comparable to a local one.
pub fn make_jobs_for(
    name: &str,
    params: &CircuitParams,
    objective: Option<&ObjectiveSpec>,
    profile: Profile,
    overrides: &[(String, String)],
) -> Result<Vec<BatchJob>, BatchError> {
    let objectives: Vec<ObjectiveSpec> = match objective {
        Some(o) => vec![o.clone()],
        None => BUILTIN_OBJECTIVES.to_vec(),
    };
    let mut jobs = Vec::with_capacity(objectives.len());
    for obj in objectives {
        let mut b = profile.builder_for(params).objective(obj);
        for (key, value) in overrides {
            b = apply_override(b, key, value)?;
        }
        let spec = b.build().map_err(BatchError::Flow)?;
        jobs.push(BatchJob {
            case: name.to_string(),
            params: params.clone(),
            spec,
        });
    }
    Ok(jobs)
}

fn apply_override(b: FlowBuilder, key: &str, value: &str) -> Result<FlowBuilder, BatchError> {
    let bad = |what: &str| BatchError::Usage(format!("override {key}={value}: expected {what}"));
    let as_f64 = || value.parse::<f64>().map_err(|_| bad("a number"));
    let as_usize = || {
        value
            .parse::<usize>()
            .map_err(|_| bad("a non-negative integer"))
    };
    let as_u64 = || {
        value
            .parse::<u64>()
            .map_err(|_| bad("a non-negative integer"))
    };
    Ok(match key {
        "beta" => b.beta(as_f64()?),
        "w0" => {
            let (w0, w1) = (as_f64()?, b.config().w1);
            b.pair_weights(w0, w1)
        }
        "w1" => {
            let (w0, w1) = (b.config().w0, as_f64()?);
            b.pair_weights(w0, w1)
        }
        "seed" => b.seed(as_u64()?),
        "threads" => b.threads(as_usize()?),
        "timing_start" => b.timing_start(as_usize()?),
        "timing_interval" => b.timing_interval(as_usize()?),
        "min_iters" => {
            let (min, max) = (as_usize()?, b.config().placer.max_iterations);
            b.iterations(min, max)
        }
        "max_iters" => {
            let (min, max) = (b.config().placer.min_iterations, as_usize()?);
            b.iterations(min, max)
        }
        "route_bins" => {
            let bins = as_usize()?;
            let route = tdp_core::RouteConfig {
                bins_x: bins,
                bins_y: bins,
                ..b.config().route
            };
            b.route(route)
        }
        "route_capacity" => {
            let route = tdp_core::RouteConfig {
                capacity: as_f64()?,
                ..b.config().route
            };
            b.route(route)
        }
        "route_pin_weight" => {
            let route = tdp_core::RouteConfig {
                pin_weight: as_f64()?,
                ..b.config().route
            };
            b.route(route)
        }
        "congestion_weight" => b.congestion_weight(as_f64()?),
        _ => {
            return Err(BatchError::Usage(format!(
                "unknown override key {key:?} (expected beta, w0, w1, seed, threads, \
                 timing_start, timing_interval, min_iters, max_iters, route_bins, \
                 route_capacity, route_pin_weight or congestion_weight)"
            )))
        }
    })
}

/// Splits one job-file line into `(case, objective, overrides)` without
/// resolving anything — the shared lexical layer of the job-file
/// grammar, used by [`parse_job_file`] here and by `tdp-client` for
/// wire submissions (one grammar, not two drifting copies). Returns
/// `Ok(None)` for blank and comment-only lines.
///
/// # Errors
///
/// Returns a message (without line-number prefix; callers add their own
/// location) for lines missing the objective field or carrying stray
/// non-`key=value` fields.
#[allow(clippy::type_complexity)]
pub fn split_job_line(raw: &str) -> Result<Option<(&str, &str, Vec<(String, String)>)>, String> {
    let line = raw.split('#').next().unwrap_or("").trim();
    if line.is_empty() {
        return Ok(None);
    }
    let mut fields = line.split_whitespace();
    let case = fields.next().expect("non-empty line has a first field");
    let Some(objective) = fields.next() else {
        return Err("expected `<case> <objective> [key=value ...]`".to_string());
    };
    let mut overrides = Vec::new();
    for field in fields {
        let Some((k, v)) = field.split_once('=') else {
            return Err(format!("stray field {field:?} (overrides are key=value)"));
        };
        overrides.push((k.to_string(), v.to_string()));
    }
    Ok(Some((case, objective, overrides)))
}

/// Parses a job file (see the [module docs](self) for the grammar)
/// against `catalog`, expanding `all` sweeps. `base_overrides` (e.g. a
/// CLI-wide `threads=N`) apply to every line, before the line's own
/// `key=value` fields — so a line-level key always wins.
pub fn parse_job_file(
    text: &str,
    catalog: &[SuiteCase],
    profile: Profile,
    base_overrides: &[(String, String)],
) -> Result<Vec<BatchJob>, BatchError> {
    let mut jobs = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let at_line = |e: BatchError| match e {
            BatchError::Usage(msg) => BatchError::Usage(format!("line {lineno}: {msg}")),
            other => other,
        };
        let Some((case_name, objective_name, line_overrides)) = split_job_line(raw)
            .map_err(|msg| BatchError::Usage(format!("line {lineno}: {msg}")))?
        else {
            continue;
        };
        let case = find_case(catalog, case_name).map_err(at_line)?;
        let objective = parse_objective(objective_name).map_err(at_line)?;
        let mut overrides = base_overrides.to_vec();
        overrides.extend(line_overrides);
        jobs.extend(make_jobs(case, objective.as_ref(), profile, &overrides).map_err(at_line)?);
    }
    Ok(jobs)
}

/// Looks a case up by name, or errors listing the catalog.
pub fn find_case<'a>(catalog: &'a [SuiteCase], name: &str) -> Result<&'a SuiteCase, BatchError> {
    catalog.iter().find(|c| c.name == name).ok_or_else(|| {
        let known: Vec<&str> = catalog.iter().map(|c| c.name).collect();
        BatchError::Usage(format!(
            "unknown case {name:?} (available: {})",
            known.join(", ")
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Vec<SuiteCase> {
        benchgen::full_suite()
    }

    #[test]
    fn all_expands_to_every_builtin_objective() {
        let cat = catalog();
        let case = find_case(&cat, "sb18").unwrap();
        let jobs = make_jobs(case, None, Profile::Quick, &[]).unwrap();
        assert_eq!(jobs.len(), BUILTIN_OBJECTIVES.len());
        let labels: Vec<String> = jobs.iter().map(|j| j.spec.objective().label()).collect();
        assert!(labels.iter().any(|l| l.contains("DREAMPlace")));
        assert!(labels.iter().any(|l| l.contains("Efficient-TDP")));
        assert!(labels.iter().any(|l| l.contains("Congestion-Aware")));
        // Every canonical name parses back to its sweep position.
        for (name, spec) in BUILTIN_OBJECTIVE_NAMES.iter().zip(&BUILTIN_OBJECTIVES) {
            let parsed = parse_objective(name).unwrap().unwrap();
            assert_eq!(parsed.label(), spec.label());
        }
    }

    #[test]
    fn congestion_weight_override_never_hijacks_the_objective() {
        let cat = catalog();
        let case = find_case(&cat, "sb18").unwrap();
        let w = vec![("congestion_weight".to_string(), "0.7".to_string())];
        // On the congestion-aware objective the weight is applied…
        let jobs = make_jobs(
            case,
            Some(&parse_objective("congestion-aware").unwrap().unwrap()),
            Profile::Quick,
            &w,
        )
        .unwrap();
        assert!(matches!(
            jobs[0].spec.objective(),
            tdp_core::ObjectiveSpec::CongestionAware { weight } if *weight == 0.7
        ));
        // …on any other objective it is a harmless no-op…
        let jobs = make_jobs(
            case,
            Some(&parse_objective("efficient-tdp").unwrap().unwrap()),
            Profile::Quick,
            &w,
        )
        .unwrap();
        assert!(matches!(
            jobs[0].spec.objective(),
            tdp_core::ObjectiveSpec::EfficientTdp
        ));
        // …and an `all` sweep keeps all five objectives, with only the
        // congestion-aware member tuned.
        let jobs = make_jobs(case, None, Profile::Quick, &w).unwrap();
        assert_eq!(jobs.len(), BUILTIN_OBJECTIVES.len());
        let tuned = jobs
            .iter()
            .filter(|j| {
                matches!(
                    j.spec.objective(),
                    tdp_core::ObjectiveSpec::CongestionAware { weight } if *weight == 0.7
                )
            })
            .count();
        assert_eq!(tuned, 1);
    }

    #[test]
    fn route_overrides_set_exactly_their_route_config_fields() {
        let cat = catalog();
        let case = find_case(&cat, "sb18").unwrap();
        let job = |overrides: &[(&str, &str)]| {
            let overrides: Vec<(String, String)> = overrides
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect();
            make_jobs(
                case,
                Some(&ObjectiveSpec::EfficientTdp),
                Profile::Quick,
                &overrides,
            )
            .map(|mut jobs| jobs.remove(0))
        };
        let base = job(&[]).unwrap().spec.config().clone();
        assert_eq!(base.route, tdp_core::RouteConfig::default());
        let tuned = job(&[
            ("route_bins", "30"),
            ("route_capacity", "2.5"),
            ("route_pin_weight", "0"),
        ])
        .unwrap();
        let config = tuned.spec.config();
        assert_eq!(
            config.route,
            tdp_core::RouteConfig {
                bins_x: 30,
                bins_y: 30,
                capacity: 2.5,
                pin_weight: 0.0,
                ..tdp_core::RouteConfig::default()
            }
        );
        // Nothing outside the route config moves.
        assert_eq!(
            tdp_core::FlowConfig {
                route: base.route,
                ..config.clone()
            },
            base
        );
        for (key, value) in [
            ("route_bins", "thirty"),
            ("route_bins", "-1"),
            ("route_capacity", "wide"),
            ("route_pin_weight", ""),
        ] {
            let err = job(&[(key, value)]).unwrap_err();
            assert!(matches!(err, BatchError::Usage(_)), "{key}={value}: {err}");
            assert!(err.to_string().contains(key), "{err}");
        }
    }

    #[test]
    fn job_file_parses_comments_overrides_and_sweeps() {
        let text = "\n# header comment\nsb18 efficient-tdp beta=1e-3 seed=9\nmx1 all # sweep\n";
        let jobs = parse_job_file(text, &catalog(), Profile::Quick, &[]).unwrap();
        assert_eq!(jobs.len(), 1 + BUILTIN_OBJECTIVES.len());
        assert_eq!(jobs[0].case, "sb18");
        assert_eq!(jobs[0].spec.config().beta, 1e-3);
        assert_eq!(jobs[0].spec.config().placer.seed, 9);
        assert!(jobs[1..].iter().all(|j| j.case == "mx1"));
    }

    #[test]
    fn job_file_errors_carry_line_numbers() {
        let err = parse_job_file(
            "sb18 efficient-tdp\nnope all\n",
            &catalog(),
            Profile::Quick,
            &[],
        )
        .unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(err.to_string().contains("nope"), "{err}");

        let err = parse_job_file("sb18 warp-speed", &catalog(), Profile::Quick, &[]).unwrap_err();
        assert!(err.to_string().contains("warp-speed"), "{err}");

        let err = parse_job_file("sb18 all stray", &catalog(), Profile::Quick, &[]).unwrap_err();
        assert!(err.to_string().contains("key=value"), "{err}");
    }

    #[test]
    fn quick_profile_shortens_the_schedule() {
        let cat = catalog();
        let case = find_case(&cat, "sb18").unwrap();
        let quick = make_jobs(
            case,
            Some(&ObjectiveSpec::EfficientTdp),
            Profile::Quick,
            &[],
        )
        .unwrap()
        .remove(0);
        let paper = make_jobs(
            case,
            Some(&ObjectiveSpec::EfficientTdp),
            Profile::Paper,
            &[],
        )
        .unwrap()
        .remove(0);
        assert!(
            quick.spec.config().placer.max_iterations < paper.spec.config().placer.max_iterations
        );
        // Both carry the case's parasitics.
        assert_eq!(
            quick.spec.config().rc.res_per_unit,
            case.params.res_per_unit
        );
    }
}
