//! Request payloads, their validation into the deterministic job
//! representations `hetmem-xplore` executes, and the async job registry
//! behind `GET /v1/jobs/<id>`.
//!
//! Every endpoint's body is parsed with the workspace's own JSON module
//! and validated with the same `parse_kernel` / `parse_system` /
//! `parse_space` vocabulary the CLI uses, so a request that works on the
//! command line works over HTTP with the same spelling — and produces
//! the same bytes.

use crate::metrics::Metrics;
use hetmem_cluster::ClusterNode;
use hetmem_core::experiment::ExperimentConfig;
use hetmem_core::AddressSpace;
use hetmem_search::{
    run_search, Objective, ProgressHook, SearchConfig, SearchOptions, SearchProgress, SearchSpace,
    Strategy,
};
use hetmem_sim::{EventTrace, ExecMode};
use hetmem_xplore::dispatch::{decode_part, render_part_records};
use hetmem_xplore::{
    check_reports_to_jsonl, content_key_with, execute_job_observed, fix_reports_to_jsonl,
    parse_kernel, parse_space, parse_system, report_to_json, run_jobs, DiskCache, Job,
    JobDispatcher, JobKind, Json, SweepOptions, SweepSpec,
};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Trace scale used when a request omits `"scale"` — small enough for an
/// interactive round-trip, large enough to exercise every phase.
pub const DEFAULT_SCALE: u32 = 64;

fn parse_body(body: &str) -> Result<Json, String> {
    hetmem_xplore::json::parse(body).map_err(|e| format!("malformed JSON body: {e}"))
}

fn opt_u64(v: &Json, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(field) => field
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("field {key:?} must be a non-negative integer")),
    }
}

/// Parses the shared optional `"mode"` field (`"accurate"`, or
/// `"sampled"` also under its label `"sampled:1536:512"`), defaulting to
/// accurate — the same vocabulary as the CLI's `--mode` flag.
fn opt_mode(v: &Json) -> Result<ExecMode, String> {
    match v.get("mode") {
        None => Ok(ExecMode::Accurate),
        Some(field) => ExecMode::parse(
            field
                .as_str()
                .ok_or_else(|| "field \"mode\" must be a string".to_owned())?,
        ),
    }
}

fn req_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("field {key:?} is required and must be a string"))
}

fn opt_str_list(v: &Json, key: &str) -> Result<Option<Vec<String>>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(Json::Arr(items)) => items
            .iter()
            .map(|item| {
                item.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| format!("field {key:?} must contain only strings"))
            })
            .collect::<Result<Vec<_>, _>>()
            .map(Some),
        Some(_) => Err(format!("field {key:?} must be an array of strings")),
    }
}

/// `POST /v1/sim`: one kernel on one evaluated system.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimRequest {
    /// The kernel to trace (Table III name or alias).
    pub kernel: hetmem_trace::kernels::Kernel,
    /// The evaluated system to run it on (Figure 5/6 label or alias).
    pub system: hetmem_core::EvaluatedSystem,
    /// Trace scale divisor.
    pub scale: u32,
    /// Execution mode (accurate by default).
    pub mode: ExecMode,
    /// Optional deadline: the job must *start* within this budget or the
    /// service answers 504 instead of running it.
    pub deadline_ms: Option<u64>,
}

/// Parses and validates a `/v1/sim` body:
/// `{"kernel": "...", "system": "...", "scale"?: N, "mode"?: "...",
///   "deadline_ms"?: N}`.
///
/// # Errors
///
/// Returns a one-line message (rendered as a 400) on malformed JSON,
/// missing fields, or unknown kernel/system names.
pub fn parse_sim_request(body: &str) -> Result<SimRequest, String> {
    let v = parse_body(body)?;
    let kernel = parse_kernel(req_str(&v, "kernel")?)?;
    let system = parse_system(req_str(&v, "system")?)?;
    let scale = match opt_u64(&v, "scale")? {
        None => DEFAULT_SCALE,
        Some(0) => return Err("field \"scale\" must be positive".to_owned()),
        Some(n) => u32::try_from(n).map_err(|_| "field \"scale\" is out of range".to_owned())?,
    };
    Ok(SimRequest {
        kernel,
        system,
        scale,
        mode: opt_mode(&v)?,
        deadline_ms: opt_u64(&v, "deadline_ms")?,
    })
}

impl SimRequest {
    /// The xplore job and configuration this request denotes. The
    /// configuration is the CLI's default (Table II baseline, Table IV
    /// costs), so the response body is byte-identical to
    /// `hetmem sim <trace> <system> --format json` at the same scale.
    #[must_use]
    pub fn job(&self) -> (Job, ExperimentConfig) {
        (
            Job {
                id: 0,
                kernel: self.kernel,
                kind: JobKind::CaseStudy {
                    system: self.system,
                },
                scale: self.scale,
            },
            ExperimentConfig::scaled(self.scale),
        )
    }

    /// The content key addressing this request in the shared result
    /// cache — the same key a sweep over the same cell (in the same
    /// execution mode) would use.
    #[must_use]
    pub fn content_key(&self) -> String {
        let (job, config) = self.job();
        content_key_with(&job, &config, None, self.mode)
    }
}

/// Executes one sim request: answered from `cache` when the content key
/// is present, and otherwise simulated live (with event counts folded
/// into `metrics`) and written back to `cache`. Returns the response
/// body — the CLI's JSON object plus trailing newline.
///
/// The answer depends only on the request and the cache, so the
/// cluster argument is ignored; it stays in the signature for existing
/// callers, which pass `None`.
///
/// # Errors
///
/// Returns a one-line message (rendered as a 500) when the simulation
/// fails.
pub fn run_sim(
    req: &SimRequest,
    cache: Option<&DiskCache>,
    _cluster: Option<&ClusterNode>,
    metrics: &Metrics,
) -> Result<String, String> {
    let (job, config) = req.job();
    let key = req.content_key();
    let record = match cache.and_then(|c| c.get(&key)) {
        Some(record) => {
            metrics.bump(&metrics.cache_hits);
            record
        }
        None => {
            metrics.bump(&metrics.cache_misses);
            let trace = hetmem_xplore::job_trace(&job);
            // A single-slot ring: the exact totals survive eviction,
            // and the service only keeps the totals.
            let (record, events) = execute_job_observed(
                &job,
                &config,
                &trace,
                EventTrace::with_capacity(1),
                req.mode,
            )
            .map_err(|e| e.to_string())?;
            metrics.absorb_events(events.counts());
            if let Some(c) = cache {
                if let Err(e) = c.put(&key, &record) {
                    eprintln!("warning: cache write failed: {e}");
                }
            }
            record
        }
    };
    let value = Json::obj(vec![
        ("system", Json::Str(record.target.clone())),
        ("total_ticks", Json::UInt(record.report.total_ticks())),
        ("report", report_to_json(&record.report)),
    ]);
    Ok(format!("{}\n", value.render()))
}

/// `POST /v1/sweep`: a declarative grid, executed asynchronously.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepRequest {
    /// The axes to cover; omitted axes default to the paper's full set.
    pub spec: SweepSpec,
    /// Execution mode for every job (accurate by default).
    pub mode: ExecMode,
    /// Optional start deadline, as for [`SimRequest::deadline_ms`].
    pub deadline_ms: Option<u64>,
}

/// Parses and validates a `/v1/sweep` body:
/// `{"kernels"?: [...], "systems"?: [...], "spaces"?: [...],
///   "scales"?: [N, ...], "mode"?: "...", "deadline_ms"?: N}`.
/// Omitted axes cover the full paper grid at [`DEFAULT_SCALE`]; an
/// explicitly empty `"systems"` or `"spaces"` array skips that family.
///
/// # Errors
///
/// Returns a one-line message (rendered as a 400) on malformed JSON,
/// unknown names, or an empty expansion.
pub fn parse_sweep_request(body: &str) -> Result<SweepRequest, String> {
    let v = parse_body(body)?;
    let spec = parse_axes(&v)?;
    if spec.expand().is_empty() {
        return Err("the requested sweep expands to zero jobs".to_owned());
    }
    Ok(SweepRequest {
        spec,
        mode: opt_mode(&v)?,
        deadline_ms: opt_u64(&v, "deadline_ms")?,
    })
}

/// Parses the shared `kernels`/`systems`/`spaces`/`scales` axes used by
/// both `/v1/sweep` and `/v1/search` bodies.
fn parse_axes(v: &Json) -> Result<SweepSpec, String> {
    let full = SweepSpec::full(DEFAULT_SCALE);
    let kernels = match opt_str_list(v, "kernels")? {
        None => full.kernels,
        Some(names) => names
            .iter()
            .map(|n| parse_kernel(n))
            .collect::<Result<_, _>>()?,
    };
    let systems = match opt_str_list(v, "systems")? {
        None => full.systems,
        Some(names) => names
            .iter()
            .map(|n| parse_system(n))
            .collect::<Result<_, _>>()?,
    };
    let spaces = match opt_str_list(v, "spaces")? {
        None => full.spaces,
        Some(names) => names
            .iter()
            .map(|n| parse_space(n))
            .collect::<Result<_, _>>()?,
    };
    let scales = match v.get("scales") {
        None => vec![DEFAULT_SCALE],
        Some(Json::Arr(items)) => items
            .iter()
            .map(|item| match item.as_u64() {
                Some(n) if n > 0 => u32::try_from(n).map_err(|_| "scale out of range".to_owned()),
                _ => Err("field \"scales\" must contain positive integers".to_owned()),
            })
            .collect::<Result<_, _>>()?,
        Some(_) => return Err("field \"scales\" must be an array of integers".to_owned()),
    };
    Ok(SweepSpec {
        kernels,
        systems,
        spaces,
        scales,
    })
}

impl SweepRequest {
    /// The coalescing key: two requests with the same expansion under
    /// the same configuration share one execution.
    #[must_use]
    pub fn coalesce_key(&self) -> String {
        // Job identities pin the expansion; the scale list pins the
        // configuration (ExperimentConfig::scaled per scale); the mode pins
        // the execution semantics. Per-job hardware fingerprints live in
        // the per-job cache keys.
        let ids: Vec<String> = self.spec.expand().iter().map(Job::identity).collect();
        format!("sweep|{}|{}", self.mode.label(), ids.join(","))
    }
}

/// Executes a sweep request on one engine worker, with per-job results
/// flowing through the shared disk cache. Returns the response body:
/// `{"records": [...], "stats": {...}}`.
///
/// The single inner worker is deliberate: the service's parallelism is
/// the pool's shard count, and one shard must not oversubscribe the
/// host by spawning its own pool.
///
/// # Errors
///
/// Returns a one-line message (rendered as a 500, or a cancellation
/// notice during shutdown) when the sweep fails.
pub fn run_sweep_request(
    req: &SweepRequest,
    cache_dir: Option<PathBuf>,
    cancel: Arc<AtomicBool>,
    metrics: &Metrics,
    dispatcher: Option<Arc<dyn JobDispatcher>>,
) -> Result<String, String> {
    // The CLI `sweep` configuration: per-job scales come from the spec,
    // the hardware/cost point is the paper baseline.
    let config = ExperimentConfig::paper();
    let opts = SweepOptions::builder()
        .workers(1)
        .cache_dir(cache_dir)
        .cancel(Some(cancel))
        .mode(req.mode)
        .dispatcher(dispatcher)
        .build();
    let out = run_jobs(&req.spec.expand(), &config, &opts).map_err(|e| e.to_string())?;
    for _ in 0..out.stats.cache_hits {
        metrics.bump(&metrics.cache_hits);
    }
    for _ in 0..out.stats.cache_misses {
        metrics.bump(&metrics.cache_misses);
    }
    let body = Json::obj(vec![
        (
            "records",
            Json::Arr(out.records.iter().map(|r| r.to_json()).collect()),
        ),
        (
            "stats",
            Json::obj(vec![
                ("jobs", Json::UInt(out.stats.jobs as u64)),
                ("cache_hits", Json::UInt(out.stats.cache_hits)),
                ("cache_misses", Json::UInt(out.stats.cache_misses)),
                (
                    "wall_ms",
                    Json::UInt(u64::try_from(out.stats.wall.as_millis()).unwrap_or(u64::MAX)),
                ),
            ]),
        ),
    ]);
    Ok(body.render())
}

/// Executes one scattered sweep partition — the owner side of a
/// distributed sweep. The part's jobs run on this node's engine with
/// `workers` threads, through the shared disk cache, and the records
/// come back framed by the exact-round-trip part serialization.
///
/// Unlike every HTTP job this does **not** run on the request pool: a
/// part arrives while the entry node's own pool worker is already held
/// by the sweep that scattered it, so routing parts through the pool
/// could deadlock two entry nodes scattering at each other. The server's
/// cluster executor bounds concurrent parts instead.
///
/// # Errors
///
/// Returns a one-line message on a malformed part body or a failed job.
pub fn run_sweep_part(
    body: &str,
    cache_dir: Option<PathBuf>,
    workers: usize,
    metrics: &Metrics,
) -> Result<String, String> {
    let part = decode_part(&parse_body(body)?)?;
    let opts = SweepOptions::builder()
        .workers(workers.max(1))
        .cache_dir(cache_dir)
        .mode(part.mode)
        .build();
    let out = run_jobs(&part.jobs, &part.config, &opts).map_err(|e| e.to_string())?;
    metrics
        .cache_hits
        .fetch_add(out.stats.cache_hits, Ordering::Relaxed);
    metrics
        .cache_misses
        .fetch_add(out.stats.cache_misses, Ordering::Relaxed);
    Ok(render_part_records(&out.records))
}

/// `POST /v1/search`: a guided multi-objective search over the design
/// space, executed asynchronously with frontier-so-far progress.
#[derive(Debug)]
pub struct SearchRequest {
    /// The full search configuration (space, objectives, strategy,
    /// budget, seed).
    pub config: SearchConfig,
    /// Optional start deadline, as for [`SimRequest::deadline_ms`].
    pub deadline_ms: Option<u64>,
}

/// Parses and validates a `/v1/search` body:
/// `{"kernels"?: [...], "systems"?: [...], "spaces"?: [...],
///   "scales"?: [N, ...], "budget"?: N, "seed"?: N,
///   "objectives"?: [...], "strategy"?: "...", "mode"?: "...",
///   "deadline_ms"?: N}`.
/// Axes default as for `/v1/sweep`; the budget defaults to a quarter of
/// the exhaustive sweep, the strategy to successive halving, and the
/// seed to 0.
///
/// # Errors
///
/// Returns a one-line message (rendered as a 400) on malformed JSON,
/// unknown names, duplicate objectives, a zero budget, or an empty
/// space.
pub fn parse_search_request(body: &str) -> Result<SearchRequest, String> {
    let v = parse_body(body)?;
    let space = SearchSpace::from_spec(&parse_axes(&v)?);
    if space.is_empty() || space.kernels.is_empty() {
        return Err("the requested search space is empty".to_owned());
    }
    let objectives = match opt_str_list(&v, "objectives")? {
        None => Objective::ALL.to_vec(),
        Some(names) => {
            let mut objectives = Vec::with_capacity(names.len());
            for name in &names {
                let objective = Objective::parse(name)?;
                if objectives.contains(&objective) {
                    return Err(format!("duplicate objective {:?}", objective.name()));
                }
                objectives.push(objective);
            }
            objectives
        }
    };
    let strategy = match v.get("strategy") {
        None => Strategy::Halving,
        Some(field) => Strategy::parse(
            field
                .as_str()
                .ok_or_else(|| "field \"strategy\" must be a string".to_owned())?,
        )?,
    };
    let budget = match opt_u64(&v, "budget")? {
        None => (space.exhaustive_jobs() / 4).max(space.jobs_per_candidate()),
        Some(0) => return Err("field \"budget\" must be positive".to_owned()),
        Some(n) => usize::try_from(n).map_err(|_| "field \"budget\" is out of range".to_owned())?,
    };
    Ok(SearchRequest {
        config: SearchConfig {
            space,
            objectives,
            strategy,
            budget,
            seed: opt_u64(&v, "seed")?.unwrap_or(0),
            mode: opt_mode(&v)?,
        },
        deadline_ms: opt_u64(&v, "deadline_ms")?,
    })
}

impl SearchRequest {
    /// The coalescing key: identical concurrent searches (same space,
    /// objectives, strategy, budget, and seed) share one execution —
    /// their trajectories are byte-identical by construction.
    #[must_use]
    pub fn coalesce_key(&self) -> String {
        let c = &self.config;
        let kernels: Vec<&str> = c.space.kernels.iter().map(|k| k.name()).collect();
        let targets: Vec<&str> = c.space.targets.iter().map(|t| t.name()).collect();
        let scales: Vec<String> = c.space.scales.iter().map(u32::to_string).collect();
        let objectives: Vec<&str> = c.objectives.iter().map(|o| o.name()).collect();
        format!(
            "search|{}|{}|{}|{}|{}|{}|{}|{}",
            c.strategy.name(),
            c.mode.label(),
            c.seed,
            c.budget,
            objectives.join(","),
            kernels.join(","),
            targets.join(","),
            scales.join(","),
        )
    }
}

/// Renders one [`SearchProgress`] snapshot as the `progress` object the
/// registry splices into a running job's status body.
#[must_use]
pub fn search_progress_json(progress: &SearchProgress) -> Json {
    Json::obj(vec![
        ("round", Json::UInt(progress.round as u64)),
        ("evaluations", Json::UInt(progress.evaluations as u64)),
        ("jobs_submitted", Json::UInt(progress.jobs_submitted as u64)),
        (
            "frontier",
            Json::Arr(
                progress
                    .frontier
                    .iter()
                    .map(|label| Json::Str(label.clone()))
                    .collect(),
            ),
        ),
    ])
}

/// Executes a search request on one engine worker, sharing the sweep's
/// disk cache. Returns the response body: the deterministic
/// [`hetmem_search::SearchResult::to_json`] report.
///
/// The execution counters flow into `metrics` (cache traffic plus the
/// search-specific frontier counters), never into the body — the body is
/// pinned byte-identical across cache states.
///
/// # Errors
///
/// Returns a one-line message (rendered as a 500, or a cancellation
/// notice during shutdown) when the search fails.
pub fn run_search_request(
    req: &SearchRequest,
    cache_dir: Option<PathBuf>,
    cancel: Arc<AtomicBool>,
    metrics: &Metrics,
    on_round: Option<ProgressHook>,
    dispatcher: Option<Arc<dyn JobDispatcher>>,
) -> Result<String, String> {
    let opts = SearchOptions {
        workers: 1,
        cache_dir,
        cancel: Some(cancel),
        on_round,
        dispatcher,
    };
    let result = run_search(&req.config, opts).map_err(|e| e.to_string())?;
    metrics
        .cache_hits
        .fetch_add(result.stats.cache_hits, Ordering::Relaxed);
    metrics
        .cache_misses
        .fetch_add(result.stats.live_executions, Ordering::Relaxed);
    metrics.bump(&metrics.searches_completed);
    metrics
        .search_evaluations
        .fetch_add(result.stats.evaluations as u64, Ordering::Relaxed);
    metrics
        .frontier_points
        .fetch_add(result.frontier.len() as u64, Ordering::Relaxed);
    Ok(result.to_json().render())
}

/// `POST /v1/check`: static memory-model verification of built-in
/// kernels under one or more address-space models.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckRequest {
    /// Built-in kernel names to check.
    pub targets: Vec<String>,
    /// Models to check under; defaults to all four.
    pub models: Vec<AddressSpace>,
    /// Optional start deadline.
    pub deadline_ms: Option<u64>,
}

/// Parses and validates a `/v1/check` body:
/// `{"targets": ["..."], "models"?: ["..."], "deadline_ms"?: N}`.
///
/// # Errors
///
/// Returns a one-line message (rendered as a 400) on malformed JSON or
/// unknown model names. Unknown *targets* are reported at execution.
pub fn parse_check_request(body: &str) -> Result<CheckRequest, String> {
    let v = parse_body(body)?;
    let targets = opt_str_list(&v, "targets")?
        .filter(|t| !t.is_empty())
        .ok_or_else(|| "field \"targets\" must be a non-empty array of kernel names".to_owned())?;
    let models = match opt_str_list(&v, "models")? {
        None => AddressSpace::ALL.to_vec(),
        Some(names) => names
            .iter()
            .map(|n| parse_space(n))
            .collect::<Result<_, _>>()?,
    };
    Ok(CheckRequest {
        targets,
        models,
        deadline_ms: opt_u64(&v, "deadline_ms")?,
    })
}

impl CheckRequest {
    /// The coalescing key for identical concurrent check requests.
    #[must_use]
    pub fn coalesce_key(&self) -> String {
        let models: Vec<String> = self.models.iter().map(|m| m.abbrev().to_owned()).collect();
        format!("check|{}|{}", self.targets.join(","), models.join(","))
    }
}

/// Runs the checker over every target × model combination and renders
/// the same JSONL stream as `hetmem check --format json`.
///
/// # Errors
///
/// Returns a one-line message (rendered as a 500) when a target names no
/// built-in kernel.
pub fn run_check_request(req: &CheckRequest) -> Result<String, String> {
    let mut reports = Vec::new();
    for target in &req.targets {
        let program = hetmem_dsl::programs::find(target)
            .ok_or_else(|| format!("unknown kernel {target:?}"))?;
        for &model in &req.models {
            reports.push(hetmem_dsl::check(&program, model));
        }
    }
    Ok(check_reports_to_jsonl(&reports))
}

/// `POST /v1/fix`: checker-driven communication optimization of built-in
/// kernels under one or more address-space models.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FixRequest {
    /// Built-in kernel names to fix.
    pub targets: Vec<String>,
    /// Models to fix under; defaults to all four.
    pub models: Vec<AddressSpace>,
    /// Optional start deadline.
    pub deadline_ms: Option<u64>,
}

/// Parses and validates a `/v1/fix` body:
/// `{"targets": ["..."], "models"?: ["..."], "deadline_ms"?: N}`.
///
/// # Errors
///
/// Returns a one-line message (rendered as a 400) on malformed JSON or
/// unknown model names. Unknown *targets* are reported at execution.
pub fn parse_fix_request(body: &str) -> Result<FixRequest, String> {
    let v = parse_body(body)?;
    let targets = opt_str_list(&v, "targets")?
        .filter(|t| !t.is_empty())
        .ok_or_else(|| "field \"targets\" must be a non-empty array of kernel names".to_owned())?;
    let models = match opt_str_list(&v, "models")? {
        None => AddressSpace::ALL.to_vec(),
        Some(names) => names
            .iter()
            .map(|n| parse_space(n))
            .collect::<Result<_, _>>()?,
    };
    Ok(FixRequest {
        targets,
        models,
        deadline_ms: opt_u64(&v, "deadline_ms")?,
    })
}

impl FixRequest {
    /// The coalescing key for identical concurrent fix requests.
    #[must_use]
    pub fn coalesce_key(&self) -> String {
        let models: Vec<String> = self.models.iter().map(|m| m.abbrev().to_owned()).collect();
        format!("fix|{}|{}", self.targets.join(","), models.join(","))
    }
}

/// Runs the optimizer over every target × model combination, bumps the
/// fix metrics, and renders the same JSONL stream as
/// `hetmem fix --format json`.
///
/// # Errors
///
/// Returns a one-line message (rendered as a 500) when a target names no
/// built-in kernel.
pub fn run_fix_request(req: &FixRequest, metrics: &Metrics) -> Result<String, String> {
    let mut reports = Vec::new();
    for target in &req.targets {
        let program = hetmem_dsl::programs::find(target)
            .ok_or_else(|| format!("unknown kernel {target:?}"))?;
        for &model in &req.models {
            reports.push(hetmem_dsl::fix(&program, model));
        }
    }
    for report in &reports {
        metrics.bump(&metrics.fixes_completed);
        metrics
            .transfers_removed
            .fetch_add(report.removed.len() as u64, Ordering::Relaxed);
        metrics
            .transfers_inserted
            .fetch_add(report.inserted.len() as u64, Ordering::Relaxed);
    }
    Ok(fix_reports_to_jsonl(&reports))
}

/// Lifecycle of an asynchronously submitted job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is executing it. Long-running jobs (searches) publish a
    /// rendered-JSON progress object here so `GET /v1/jobs/<id>` can
    /// answer with the frontier-so-far before the job finishes.
    Running {
        /// Rendered JSON progress object, when the job reports any.
        progress: Option<String>,
    },
    /// Finished; `result` is the rendered JSON result body.
    Done {
        /// The job's rendered JSON result.
        result: String,
    },
    /// Execution failed.
    Failed {
        /// The failure message.
        error: String,
    },
    /// The deadline expired before a worker could start it.
    TimedOut {
        /// Milliseconds the job waited before expiry was discovered.
        waited_ms: u64,
    },
}

impl JobState {
    /// The status word exposed by the API.
    #[must_use]
    pub fn status(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running { .. } => "running",
            JobState::Done { .. } => "done",
            JobState::Failed { .. } => "failed",
            JobState::TimedOut { .. } => "timeout",
        }
    }
}

/// The table behind `GET /v1/jobs/<id>`. Ids are dense and start at 1.
#[derive(Debug, Default)]
pub struct Registry {
    next: AtomicU64,
    jobs: Mutex<HashMap<u64, JobState>>,
}

impl Registry {
    /// Registers a new job in [`JobState::Queued`] and returns its id.
    pub fn create(&self) -> u64 {
        let id = self.next.fetch_add(1, Ordering::Relaxed) + 1;
        self.jobs
            .lock()
            .expect("registry lock")
            .insert(id, JobState::Queued);
        id
    }

    /// Replaces a job's state.
    pub fn set(&self, id: u64, state: JobState) {
        self.jobs.lock().expect("registry lock").insert(id, state);
    }

    /// A snapshot of a job's state.
    #[must_use]
    pub fn get(&self, id: u64) -> Option<JobState> {
        self.jobs.lock().expect("registry lock").get(&id).cloned()
    }

    /// Forgets a job that was rejected before acceptance; its id never
    /// reaches a client.
    pub fn remove(&self, id: u64) {
        self.jobs.lock().expect("registry lock").remove(&id);
    }

    /// The rendered `GET /v1/jobs/<id>` body, or `None` for an unknown
    /// id. `Done` results are spliced in verbatim — they are already
    /// rendered JSON.
    #[must_use]
    pub fn status_body(&self, id: u64) -> Option<String> {
        let state = self.get(id)?;
        let head = format!(
            "{{\"job\":{id},\"status\":{}",
            Json::Str(state.status().to_owned()).render()
        );
        Some(match state {
            JobState::Queued | JobState::Running { progress: None } => format!("{head}}}\n"),
            JobState::Running {
                progress: Some(progress),
            } => format!("{head},\"progress\":{progress}}}\n"),
            JobState::Done { result } => format!("{head},\"result\":{result}}}\n"),
            JobState::Failed { error } => {
                format!("{head},\"error\":{}}}\n", Json::Str(error).render())
            }
            JobState::TimedOut { waited_ms } => {
                format!("{head},\"waited_ms\":{waited_ms}}}\n")
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetmem_core::EvaluatedSystem;
    use hetmem_trace::kernels::Kernel;
    use hetmem_xplore::json::parse;

    #[test]
    fn sim_request_parses_with_defaults_and_aliases() {
        let req =
            parse_sim_request("{\"kernel\":\"reduction\",\"system\":\"fusion\"}").expect("parses");
        assert_eq!(req.kernel, Kernel::Reduction);
        assert_eq!(req.system, EvaluatedSystem::Fusion);
        assert_eq!(req.scale, DEFAULT_SCALE);
        assert_eq!(req.deadline_ms, None);

        let req = parse_sim_request(
            "{\"kernel\":\"dct\",\"system\":\"CUDA\",\"scale\":8,\"deadline_ms\":0}",
        )
        .expect("parses");
        assert_eq!(req.system, EvaluatedSystem::CpuGpuCuda);
        assert_eq!(req.scale, 8);
        assert_eq!(req.deadline_ms, Some(0));
    }

    #[test]
    fn sim_request_rejects_bad_bodies() {
        assert!(parse_sim_request("not json").is_err());
        assert!(parse_sim_request("{}").is_err());
        assert!(parse_sim_request("{\"kernel\":\"reduction\"}").is_err());
        assert!(parse_sim_request("{\"kernel\":\"nope\",\"system\":\"fusion\"}").is_err());
        assert!(
            parse_sim_request("{\"kernel\":\"dct\",\"system\":\"fusion\",\"scale\":0}").is_err()
        );
    }

    #[test]
    fn sim_keys_match_the_sweep_engine() {
        let req =
            parse_sim_request("{\"kernel\":\"reduction\",\"system\":\"fusion\",\"scale\":16}")
                .expect("parses");
        let (job, config) = req.job();
        assert_eq!(req.content_key(), hetmem_xplore::content_key(&job, &config));
        // Identical requests share a key; different systems do not.
        let other =
            parse_sim_request("{\"kernel\":\"reduction\",\"system\":\"gmac\",\"scale\":16}")
                .expect("parses");
        assert_ne!(req.content_key(), other.content_key());
    }

    #[test]
    fn run_sim_renders_the_cli_shape_and_counts_cache_traffic() {
        let req =
            parse_sim_request("{\"kernel\":\"reduction\",\"system\":\"fusion\",\"scale\":512}")
                .expect("parses");
        let metrics = Metrics::default();
        let body = run_sim(&req, None, None, &metrics).expect("runs");
        assert!(body.ends_with('\n'));
        let v = parse(body.trim_end()).expect("valid json");
        assert_eq!(v.get("system").and_then(Json::as_str), Some("Fusion"));
        assert!(v.get("total_ticks").and_then(Json::as_u64).is_some());
        assert!(v.get("report").is_some());
        assert_eq!(metrics.cache_misses.load(Ordering::Relaxed), 1);
        // The live run contributed event counts to the aggregate.
        assert!(metrics.sim_events().phase_starts > 0);

        // Same request through a cache: one miss to fill, one hit, same bytes.
        let dir =
            std::env::temp_dir().join(format!("hetmem-serve-jobs-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = DiskCache::open(&dir).expect("open");
        let metrics = Metrics::default();
        let cold = run_sim(&req, Some(&cache), None, &metrics).expect("runs");
        let warm = run_sim(&req, Some(&cache), None, &metrics).expect("runs");
        assert_eq!(cold, warm);
        assert_eq!(cold, body);
        assert_eq!(metrics.cache_misses.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.cache_hits.load(Ordering::Relaxed), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mode_field_parses_keys_and_rejects_garbage() {
        let plain =
            parse_sim_request("{\"kernel\":\"reduction\",\"system\":\"fusion\"}").expect("parses");
        assert_eq!(plain.mode, ExecMode::Accurate);
        let sampled = parse_sim_request(
            "{\"kernel\":\"reduction\",\"system\":\"fusion\",\"mode\":\"sampled\"}",
        )
        .expect("parses");
        assert_eq!(sampled.mode, ExecMode::sampled_default());
        // Modes address separate cache entries.
        assert_ne!(plain.content_key(), sampled.content_key());
        for gone in ["warp-speed", "event-driven"] {
            let err = parse_sim_request(&format!(
                "{{\"kernel\":\"reduction\",\"system\":\"fusion\",\"mode\":\"{gone}\"}}"
            ))
            .expect_err("unknown mode");
            assert!(err.contains("accurate"), "{err}");
        }
        assert!(
            parse_sim_request("{\"kernel\":\"reduction\",\"system\":\"fusion\",\"mode\":7}")
                .is_err()
        );

        // Sweeps and searches with different modes never coalesce.
        let a = parse_sweep_request("{\"kernels\":[\"dct\"],\"spaces\":[]}").expect("parses");
        let b = parse_sweep_request("{\"kernels\":[\"dct\"],\"spaces\":[],\"mode\":\"sampled\"}")
            .expect("parses");
        assert_ne!(a.coalesce_key(), b.coalesce_key());
        let c = parse_search_request("{\"seed\":1}").expect("parses");
        let d = parse_search_request("{\"seed\":1,\"mode\":\"sampled:1536:512\"}").expect("parses");
        assert_eq!(d.config.mode, ExecMode::Sampled);
        assert_ne!(c.coalesce_key(), d.coalesce_key());
        let err = parse_search_request("{\"seed\":1,\"mode\":\"sampled:1000:100\"}")
            .expect_err("a foreign geometry");
        assert!(err.contains("accurate|sampled"), "{err}");
    }

    #[test]
    fn sampled_sim_reports_its_fast_forward_to_the_metrics() {
        // Sampled runs serialize the extrapolated span next to the report
        // and feed it into the service aggregate; accurate runs do neither.
        // (dct, unlike reduction, is long enough at scale 256 to skip.)
        let accurate =
            parse_sim_request("{\"kernel\":\"dct\",\"system\":\"fusion\",\"scale\":256}")
                .expect("parses");
        let sampled = parse_sim_request(
            "{\"kernel\":\"dct\",\"system\":\"fusion\",\"scale\":256,\
             \"mode\":\"sampled\"}",
        )
        .expect("parses");
        let metrics = Metrics::default();
        let a = run_sim(&accurate, None, None, &metrics).expect("runs");
        assert_eq!(metrics.sim_events().fast_forward_ticks, 0);
        let s = run_sim(&sampled, None, None, &metrics).expect("runs");
        assert!(!a.contains("fast_forwarded_ticks"));
        assert!(s.contains("fast_forwarded_ticks"), "{s}");
        assert!(metrics.sim_events().fast_forward_ticks > 0);
    }

    #[test]
    fn sweep_request_defaults_cover_the_full_grid() {
        let req = parse_sweep_request("{}").expect("parses");
        assert_eq!(req.spec.expand().len(), 6 * 9);
        let filtered = parse_sweep_request(
            "{\"kernels\":[\"reduction\"],\"systems\":[\"fusion\"],\"spaces\":[],\"scales\":[512]}",
        )
        .expect("parses");
        assert_eq!(filtered.spec.expand().len(), 1);
        assert!(parse_sweep_request(
            "{\"kernels\":[],\"systems\":[],\"spaces\":[],\"scales\":[8]}"
        )
        .is_err());
        assert!(parse_sweep_request("{\"scales\":[0]}").is_err());
        assert!(parse_sweep_request("{\"systems\":[\"not-a-system\"]}").is_err());
    }

    #[test]
    fn sweep_coalesce_keys_track_the_expansion() {
        let a = parse_sweep_request("{\"kernels\":[\"reduction\"],\"spaces\":[],\"scales\":[16]}")
            .expect("parses");
        let b = parse_sweep_request("{\"kernels\":[\"reduction\"],\"spaces\":[],\"scales\":[16]}")
            .expect("parses");
        let c = parse_sweep_request("{\"kernels\":[\"dct\"],\"spaces\":[],\"scales\":[16]}")
            .expect("parses");
        assert_eq!(a.coalesce_key(), b.coalesce_key());
        assert_ne!(a.coalesce_key(), c.coalesce_key());
    }

    #[test]
    fn sweep_execution_returns_records_and_stats() {
        let req = parse_sweep_request(
            "{\"kernels\":[\"reduction\"],\"systems\":[\"fusion\"],\"spaces\":[],\"scales\":[512]}",
        )
        .expect("parses");
        let metrics = Metrics::default();
        let body = run_sweep_request(&req, None, Arc::new(AtomicBool::new(false)), &metrics, None)
            .expect("runs");
        let v = parse(&body).expect("valid json");
        let Some(Json::Arr(records)) = v.get("records").cloned() else {
            panic!("records array");
        };
        assert_eq!(records.len(), 1);
        assert_eq!(
            v.get("stats")
                .and_then(|s| s.get("jobs"))
                .and_then(Json::as_u64),
            Some(1)
        );

        // A pre-set cancel flag aborts with the typed error's message.
        let err = run_sweep_request(&req, None, Arc::new(AtomicBool::new(true)), &metrics, None)
            .expect_err("cancelled");
        assert!(err.contains("cancelled"), "{err}");
    }

    #[test]
    fn search_request_parses_with_defaults_and_rejects_bad_knobs() {
        let req = parse_search_request("{}").expect("parses");
        assert_eq!(req.config.space.len(), 9);
        assert_eq!(req.config.space.exhaustive_jobs(), 54);
        assert_eq!(req.config.budget, 13); // a quarter of the exhaustive sweep
        assert_eq!(req.config.seed, 0);
        assert_eq!(req.config.strategy, Strategy::Halving);
        assert_eq!(req.config.objectives, Objective::ALL.to_vec());

        let req = parse_search_request(
            "{\"kernels\":[\"reduction\"],\"systems\":[\"fusion\",\"cuda\"],\"spaces\":[],\
             \"scales\":[512],\"budget\":2,\"seed\":9,\"objectives\":[\"perf\",\"hw\"],\
             \"strategy\":\"random\",\"deadline_ms\":50}",
        )
        .expect("parses");
        assert_eq!(req.config.space.len(), 2);
        assert_eq!(req.config.budget, 2);
        assert_eq!(req.config.seed, 9);
        assert_eq!(req.config.strategy, Strategy::Random);
        assert_eq!(
            req.config.objectives,
            vec![Objective::Cycles, Objective::Hw]
        );
        assert_eq!(req.deadline_ms, Some(50));

        assert!(parse_search_request("not json").is_err());
        assert!(parse_search_request("{\"budget\":0}").is_err());
        assert!(parse_search_request("{\"objectives\":[\"hw\",\"hw\"]}").is_err());
        assert!(parse_search_request("{\"objectives\":[\"speed\"]}").is_err());
        assert!(parse_search_request("{\"strategy\":\"bayes\"}").is_err());
        let removed = parse_search_request("{\"strategy\":\"evolve\"}").expect_err("removed");
        assert!(removed.contains("random|halving"), "{removed}");
        assert!(parse_search_request("{\"systems\":[],\"spaces\":[]}").is_err());
    }

    #[test]
    fn search_coalesce_keys_track_every_knob() {
        let a = parse_search_request("{\"seed\":1}").expect("parses");
        let b = parse_search_request("{\"seed\":1}").expect("parses");
        let c = parse_search_request("{\"seed\":2}").expect("parses");
        let d = parse_search_request("{\"seed\":1,\"strategy\":\"random\"}").expect("parses");
        assert_eq!(a.coalesce_key(), b.coalesce_key());
        assert_ne!(a.coalesce_key(), c.coalesce_key());
        assert_ne!(a.coalesce_key(), d.coalesce_key());
    }

    #[test]
    fn search_execution_reports_progress_and_deterministic_bodies() {
        let body = "{\"kernels\":[\"reduction\"],\"systems\":[\"fusion\",\"cuda\"],\
                    \"spaces\":[],\"scales\":[512],\"budget\":2,\"strategy\":\"random\"}";
        let req = parse_search_request(body).expect("parses");
        let metrics = Metrics::default();
        let rounds = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&rounds);
        let on_round: Box<dyn FnMut(&SearchProgress) + Send> = Box::new(move |p| {
            sink.lock()
                .expect("lock")
                .push(search_progress_json(p).render());
        });
        let cold = run_search_request(
            &req,
            None,
            Arc::new(AtomicBool::new(false)),
            &metrics,
            Some(on_round),
            None,
        )
        .expect("runs");
        let v = parse(&cold).expect("valid json");
        assert!(v.get("frontier").is_some());
        assert!(!cold.contains("cache_hits"), "stats stay out of the body");
        let rounds = rounds.lock().expect("lock");
        assert!(!rounds.is_empty());
        let progress = parse(&rounds[0]).expect("valid progress json");
        assert_eq!(progress.get("round").and_then(Json::as_u64), Some(1));
        assert!(progress.get("frontier").is_some());
        assert_eq!(metrics.searches_completed.load(Ordering::Relaxed), 1);
        assert!(metrics.search_evaluations.load(Ordering::Relaxed) >= 1);
        assert!(metrics.frontier_points.load(Ordering::Relaxed) >= 1);

        // A second run with the same knobs renders the same bytes.
        let req2 = parse_search_request(body).expect("parses");
        let warm = run_search_request(
            &req2,
            None,
            Arc::new(AtomicBool::new(false)),
            &metrics,
            None,
            None,
        )
        .expect("runs");
        assert_eq!(cold, warm);
    }

    #[test]
    fn check_request_parses_runs_and_reports_unknown_targets() {
        let req = parse_check_request("{\"targets\":[\"k-means\"],\"models\":[\"pas\"]}")
            .expect("parses");
        assert_eq!(req.models, vec![AddressSpace::PartiallyShared]);
        let jsonl = run_check_request(&req).expect("runs");
        let last = jsonl.lines().last().expect("summary");
        let v = parse(last).expect("valid json");
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("summary"));
        assert_eq!(v.get("checked").and_then(Json::as_u64), Some(1));

        assert!(parse_check_request("{\"targets\":[]}").is_err());
        assert!(parse_check_request("{}").is_err());
        let bad = parse_check_request("{\"targets\":[\"no-such-kernel\"]}").expect("parses");
        assert!(run_check_request(&bad).is_err());
    }

    #[test]
    fn fix_request_parses_runs_and_bumps_the_fix_metrics() {
        let metrics = Metrics::default();
        let req =
            parse_fix_request("{\"targets\":[\"k-means\"],\"models\":[\"pas\"]}").expect("parses");
        assert_eq!(req.models, vec![AddressSpace::PartiallyShared]);
        assert_eq!(req.coalesce_key(), "fix|k-means|PAS");
        let jsonl = run_fix_request(&req, &metrics).expect("runs");
        let last = jsonl.lines().last().expect("summary");
        let v = parse(last).expect("valid json");
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("summary"));
        assert_eq!(v.get("fixed").and_then(Json::as_u64), Some(1));
        // k-mean under PAS loses four ownership statements, and the
        // metrics see every edit.
        assert_eq!(v.get("transfers_removed").and_then(Json::as_u64), Some(4));
        assert_eq!(metrics.fixes_completed.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.transfers_removed.load(Ordering::Relaxed), 4);
        assert_eq!(metrics.transfers_inserted.load(Ordering::Relaxed), 0);

        assert!(parse_fix_request("{\"targets\":[]}").is_err());
        assert!(parse_fix_request("{}").is_err());
        let bad = parse_fix_request("{\"targets\":[\"no-such-kernel\"]}").expect("parses");
        assert!(run_fix_request(&bad, &metrics).is_err());
    }

    #[test]
    fn registry_tracks_lifecycle_and_renders_valid_json() {
        let reg = Registry::default();
        let id = reg.create();
        assert_eq!(reg.get(id), Some(JobState::Queued));
        assert_eq!(
            reg.status_body(id).expect("body"),
            format!("{{\"job\":{id},\"status\":\"queued\"}}\n")
        );
        reg.set(id, JobState::Running { progress: None });
        assert!(reg.status_body(id).expect("body").contains("running"));
        reg.set(
            id,
            JobState::Running {
                progress: Some("{\"round\":1,\"frontier\":[\"CPU+GPU@512\"]}".to_owned()),
            },
        );
        let v = parse(reg.status_body(id).expect("body").trim_end()).expect("valid");
        assert_eq!(v.get("status").and_then(Json::as_str), Some("running"));
        assert_eq!(
            v.get("progress")
                .and_then(|p| p.get("round"))
                .and_then(Json::as_u64),
            Some(1)
        );
        reg.set(
            id,
            JobState::Done {
                result: "{\"records\":[]}".to_owned(),
            },
        );
        let body = reg.status_body(id).expect("body");
        let v = parse(body.trim_end()).expect("spliced body is valid json");
        assert_eq!(v.get("status").and_then(Json::as_str), Some("done"));
        assert!(v.get("result").is_some());
        reg.set(id, JobState::TimedOut { waited_ms: 3 });
        let v = parse(reg.status_body(id).expect("body").trim_end()).expect("valid");
        assert_eq!(v.get("status").and_then(Json::as_str), Some("timeout"));
        assert_eq!(v.get("waited_ms").and_then(Json::as_u64), Some(3));
        assert_eq!(reg.status_body(id + 999), None);
        // Ids are unique and dense.
        assert_eq!(reg.create(), id + 1);
    }
}
