//! The sweep executor: a `std::thread` worker pool over a shared job
//! queue, with optional content-addressed result caching.
//!
//! The pool's unit of work is the set of jobs of one (kernel, scale). They
//! share one generated trace (kept in a small in-memory store) and differ
//! only in the communication model, so a unit simulates the trace's compute
//! once and replays it for the other models ([`Simulation::run_group`]).
//! Workers pull units from an atomic cursor and results are written back
//! into per-job slots, making the collected output identical for any
//! worker count.

use crate::cache::DiskCache;
use crate::dispatch::{DispatchContext, JobDispatcher, JobPart};
use crate::ser::SweepRecord;
use crate::spec::{Job, JobKind, SweepSpec};
use hetmem_core::experiment::{
    CaseStudyRun, ExperimentConfig, PageSizeRow, PartitionRow, SpaceRun,
};
use hetmem_core::{EvaluatedSystem, IdealSpaceComm};
use hetmem_sim::{
    CommModel, ExecMode, NullObserver, RunReport, SimError, SimObserver, Simulation, System,
};
use hetmem_trace::kernels::{Kernel, KernelParams};
use hetmem_trace::PhasedTrace;
use std::cell::Cell;
use std::collections::HashMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Execution knobs for a sweep.
#[derive(Clone, Default)]
pub struct SweepOptions {
    /// Worker threads; `0` uses the host's available parallelism.
    pub workers: usize,
    /// Cache directory; `None` disables memoization.
    pub cache_dir: Option<PathBuf>,
    /// Emit a live progress line on stderr.
    pub progress: bool,
    /// Cooperative cancellation: when the flag is set, workers stop
    /// pulling jobs (the one each is simulating still finishes) and the
    /// sweep returns [`SimError::Cancelled`]. Long-lived callers — the
    /// `hetmem-serve` service — use this to abandon sweeps whose clients
    /// are gone without killing the worker pool.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Execution mode for every job ([`ExecMode::Accurate`] by default).
    /// Non-accurate modes address separate cache entries — see
    /// [`content_key_with`].
    pub mode: ExecMode,
    /// Remote execution: parts of the job list this dispatcher claims run
    /// elsewhere (a cluster, typically), concurrently with the local
    /// share; everything it fails comes back to the local pool. `None`
    /// (the default) runs every job locally. Never changes the output —
    /// records land in their ordinal slots wherever they executed.
    pub dispatcher: Option<Arc<dyn JobDispatcher>>,
}

impl std::fmt::Debug for SweepOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepOptions")
            .field("workers", &self.workers)
            .field("cache_dir", &self.cache_dir)
            .field("progress", &self.progress)
            .field("cancel", &self.cancel)
            .field("mode", &self.mode)
            .field("dispatcher", &self.dispatcher.as_ref().map(|_| ".."))
            .finish()
    }
}

impl SweepOptions {
    /// Starts fluent construction. Prefer this over struct literals: new
    /// knobs get a defaulted setter instead of breaking every call site.
    #[must_use]
    pub fn builder() -> SweepOptionsBuilder {
        SweepOptionsBuilder::default()
    }

    /// Options with `n` workers and no cache.
    #[must_use]
    pub fn with_workers(n: usize) -> SweepOptions {
        SweepOptions::builder().workers(n).build()
    }
}

/// Fluent construction for [`SweepOptions`], mirroring
/// `Simulation::builder()`. Every knob defaults to off; call only the
/// setters you need:
///
/// ```
/// use hetmem_xplore::SweepOptions;
/// let opts = SweepOptions::builder().workers(4).progress(true).build();
/// assert_eq!(opts.workers, 4);
/// assert!(opts.cache_dir.is_none());
/// ```
#[derive(Clone, Debug, Default)]
pub struct SweepOptionsBuilder {
    opts: SweepOptions,
}

impl SweepOptionsBuilder {
    /// Worker threads; `0` (the default) uses the host's parallelism.
    #[must_use]
    pub fn workers(mut self, n: usize) -> SweepOptionsBuilder {
        self.opts.workers = n;
        self
    }

    /// Memoizes results under `dir`; `None` (the default) disables caching.
    #[must_use]
    pub fn cache_dir(mut self, dir: Option<PathBuf>) -> SweepOptionsBuilder {
        self.opts.cache_dir = dir;
        self
    }

    /// Emits a live progress line on stderr.
    #[must_use]
    pub fn progress(mut self, on: bool) -> SweepOptionsBuilder {
        self.opts.progress = on;
        self
    }

    /// Installs a cooperative cancellation flag.
    #[must_use]
    pub fn cancel(mut self, flag: Option<Arc<AtomicBool>>) -> SweepOptionsBuilder {
        self.opts.cancel = flag;
        self
    }

    /// Runs every job under `mode` ([`ExecMode::Accurate`] by default).
    #[must_use]
    pub fn mode(mut self, mode: ExecMode) -> SweepOptionsBuilder {
        self.opts.mode = mode;
        self
    }

    /// Installs a remote-execution dispatcher; `None` (the default) runs
    /// every job on the local pool.
    #[must_use]
    pub fn dispatcher(mut self, dispatcher: Option<Arc<dyn JobDispatcher>>) -> SweepOptionsBuilder {
        self.opts.dispatcher = dispatcher;
        self
    }

    /// Finishes construction.
    #[must_use]
    pub fn build(self) -> SweepOptions {
        self.opts
    }
}

/// What a finished sweep did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepStats {
    /// Jobs executed (including cache hits).
    pub jobs: usize,
    /// Threads the local pool ran: at most one per (kernel, scale) work
    /// unit, and 0 when every job ran remotely.
    pub workers: usize,
    /// Jobs answered from the cache.
    pub cache_hits: u64,
    /// Jobs computed live (simulated or replayed).
    pub cache_misses: u64,
    /// Live jobs whose compute was replayed from another job of the same
    /// (kernel, scale) rather than simulated; see [`run_jobs`].
    pub replayed: u64,
    /// Wall-clock duration of the whole sweep.
    pub wall: Duration,
}

impl std::fmt::Display for SweepStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} jobs on {} workers in {:.2} s ({} cache hits, {} misses, {} replayed)",
            self.jobs,
            self.workers,
            self.wall.as_secs_f64(),
            self.cache_hits,
            self.cache_misses,
            self.replayed
        )
    }
}

/// A finished sweep: records sorted by job ordinal, plus run statistics.
#[derive(Clone, Debug)]
pub struct SweepOutput {
    /// One record per job, sorted by `id`.
    pub records: Vec<SweepRecord>,
    /// Execution statistics.
    pub stats: SweepStats,
}

/// Shares generated traces between jobs of the same (kernel, scale).
#[derive(Default)]
struct TraceStore {
    map: Mutex<HashMap<(&'static str, u32), Arc<PhasedTrace>>>,
}

/// Coarse bound on memoized traces. Generation is deterministic per
/// (kernel, scale), so eviction only costs regeneration; the bound exists
/// so a long-lived service fed many distinct scales cannot hoard memory.
/// It holds the 42 traces of the six kernels at scales 8 through 512, so a
/// sweep over all of them never clears the store mid-run.
const TRACE_STORE_CAP: usize = 64;

impl TraceStore {
    /// The process-wide store. Traces are immutable and deterministic, so
    /// one memo serves every sweep, service request, and bench in the
    /// process — repeated sweeps stop regenerating their kernels.
    fn global() -> &'static TraceStore {
        static STORE: std::sync::OnceLock<TraceStore> = std::sync::OnceLock::new();
        STORE.get_or_init(TraceStore::default)
    }

    fn get(&self, job: &Job) -> Arc<PhasedTrace> {
        let key = (job.kernel.name(), job.scale);
        if let Some(t) = self.map.lock().expect("trace store lock").get(&key) {
            return Arc::clone(t);
        }
        // Generate outside the lock so other kernels proceed; a racing
        // duplicate generation is wasted work but still deterministic.
        let trace = Arc::new(job.kernel.generate(&KernelParams::scaled(job.scale)));
        let mut map = self.map.lock().expect("trace store lock");
        if map.len() >= TRACE_STORE_CAP {
            map.clear();
        }
        Arc::clone(map.entry(key).or_insert(trace))
    }
}

/// The (memoized) generated trace for `job`'s kernel at `job`'s scale —
/// the same store [`run_jobs`] uses, exposed so single-job callers (the
/// simulation service) share it.
#[must_use]
pub fn job_trace(job: &Job) -> Arc<PhasedTrace> {
    TraceStore::global().get(job)
}

/// The content key addressing one job's cache entry: everything that
/// influences its result — job coordinates, the full hardware and cost
/// configuration, and the crate version.
#[must_use]
pub fn content_key(job: &Job, config: &ExperimentConfig) -> String {
    content_key_with(job, config, None, ExecMode::Accurate)
}

/// [`content_key`] extended with the execution mode. Under
/// [`ExecMode::Accurate`] the key is byte-identical to [`content_key`], so
/// default sweeps keep hitting entries written before modes existed; a
/// sampled run changes the record's content and therefore addresses a
/// separate entry.
///
/// `_timeline_interval` is ignored: no sweep embeds a timeline in its
/// records, so none can change a key. It stays in the signature for
/// existing callers, which pass `None`.
#[must_use]
pub fn content_key_with(
    job: &Job,
    config: &ExperimentConfig,
    _timeline_interval: Option<u64>,
    mode: ExecMode,
) -> String {
    keyed(format_args!("{}", job.identity()), config, mode)
}

/// The key that places `job`'s work unit on a cluster ring: the content
/// key without the job's target. Every job of one (kernel, scale) — the
/// unit [`run_jobs`] simulates once and replays for the other
/// communication models — shares it, so a fleet that routes by it sends
/// each unit whole to one node. Cache entries stay addressed by
/// [`content_key_with`]; this key only decides where they live.
#[must_use]
pub fn placement_key(job: &Job, config: &ExperimentConfig, mode: ExecMode) -> String {
    keyed(
        format_args!("unit:{}:scale={}", job.kernel.name(), job.scale),
        config,
        mode,
    )
}

/// `coordinates` framed by everything else that decides a result: the
/// crate version, the hardware and cost configuration, and the mode.
fn keyed(
    coordinates: std::fmt::Arguments<'_>,
    config: &ExperimentConfig,
    mode: ExecMode,
) -> String {
    use std::fmt::Write as _;
    let mut key = format!(
        "hetmem-xplore v{} | {coordinates} | system={:?} | costs={:?}",
        env!("CARGO_PKG_VERSION"),
        config.system,
        config.costs,
    );
    if let Some(tag) = mode.cache_tag() {
        let _ = write!(key, " | mode={tag}");
    }
    key
}

/// Groups `indices` into work units: the jobs of one (kernel, scale),
/// which share a generated trace and a [`placement_key`]. Units appear in
/// the order their first job does; indices keep their order within a
/// unit.
#[must_use]
pub fn work_units(jobs: &[Job], indices: impl IntoIterator<Item = usize>) -> Vec<Vec<usize>> {
    let mut units: Vec<Vec<usize>> = Vec::new();
    let mut unit_of = HashMap::new();
    for index in indices {
        let job = &jobs[index];
        let slot = *unit_of
            .entry((job.kernel.name(), job.scale))
            .or_insert(units.len());
        if slot == units.len() {
            units.push(Vec::new());
        }
        units[slot].push(index);
    }
    units
}

/// Simulates one job on a pre-generated trace.
///
/// # Errors
///
/// Returns [`SimError`] when the hardware configuration is invalid or the
/// trace is malformed.
pub fn execute_job(
    job: &Job,
    config: &ExperimentConfig,
    trace: &PhasedTrace,
) -> Result<SweepRecord, SimError> {
    execute_job_observed(job, config, trace, NullObserver, ExecMode::Accurate)
        .map(|(record, _)| record)
}

/// Simulates one job with `observer` attached under `mode`, returning the
/// record and the filled observer. The record's `timeline` field is left
/// `None`.
///
/// # Errors
///
/// Returns [`SimError`] when the hardware configuration is invalid or the
/// trace is malformed.
pub fn execute_job_observed<O: SimObserver>(
    job: &Job,
    config: &ExperimentConfig,
    trace: &PhasedTrace,
    observer: O,
    mode: ExecMode,
) -> Result<(SweepRecord, O), SimError> {
    let mut sim = Simulation::builder()
        .config(config.system)
        .costs(config.costs)
        .mode(mode)
        .recycle(take_pooled_engine(config))
        .observer(observer)
        .comm_model(comm_model(job, config))
        .build()?;
    let report = sim.run(trace)?;
    let (system, observer) = sim.into_parts();
    return_pooled_engine(system);
    Ok((job_record(job, mode, report), observer))
}

/// Simulates `group` — jobs of one (kernel, scale), sharing `trace` —
/// under `mode`. The first job's compute is simulated once and every other
/// job replays it under its own communication model (see
/// [`Simulation::run_group`]); the records equal [`execute_job`]'s. Checks
/// `cancelled` before each job after the first and stops there. Returns the
/// results of the jobs that ran, in order, and how many were replayed.
fn execute_group(
    group: &[&Job],
    config: &ExperimentConfig,
    trace: &PhasedTrace,
    mode: ExecMode,
    cancelled: &dyn Fn() -> bool,
) -> (Vec<Result<SweepRecord, SimError>>, u64) {
    let (leader, others) = group.split_first().expect("a group has a leader");
    let runs = Simulation::builder()
        .config(config.system)
        .costs(config.costs)
        .mode(mode)
        .recycle(take_pooled_engine(config))
        .comm_model(comm_model(leader, config))
        .build()
        .and_then(|mut sim| {
            let members = others
                .iter()
                .take_while(|_| !cancelled())
                .map(|job| move || comm_model(job, config));
            let runs = sim.run_group(trace, members);
            return_pooled_engine(sim.into_parts().0);
            runs
        });
    match runs {
        Ok(runs) => {
            let replayed = runs.iter().filter(|run| run.replayed).count() as u64;
            let records = group
                .iter()
                .zip(runs)
                .map(|(job, run)| Ok(job_record(job, mode, run.report)))
                .collect();
            (records, replayed)
        }
        // Every job of the group shares the configuration and the trace,
        // so each would have failed the same way.
        Err(e) => (vec![Err(e); group.len()], 0),
    }
}

/// The communication model `job` evaluates.
fn comm_model(job: &Job, config: &ExperimentConfig) -> Box<dyn CommModel> {
    match job.kind {
        JobKind::CaseStudy { system } => Box::new(system.comm_model(config.costs)),
        JobKind::AddressSpace { space } => Box::new(IdealSpaceComm::new(space, config.costs)),
    }
}

fn job_record(job: &Job, mode: ExecMode, report: RunReport) -> SweepRecord {
    SweepRecord {
        id: job.id,
        kind: job.kind_name().to_owned(),
        kernel: job.kernel.name().to_owned(),
        target: job.target_name().to_owned(),
        scale: job.scale,
        design_point: job.design_point_label(),
        mode,
        report,
        timeline: None,
    }
}

/// Engines this worker thread has finished with, kept for recycling.
/// Building a system zeroes megabytes of cache arrays (~300 µs);
/// [`System::reset`] on a recycled one touches kilobytes. Since every job in
/// a sweep shares the hardware point, the pool effectively makes engine
/// construction a once-per-thread cost. Bounded so pathological callers that
/// interleave many hardware points cannot hoard memory.
const ENGINE_POOL_CAP: usize = 4;

thread_local! {
    static ENGINE_POOL: std::cell::RefCell<Vec<System>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

fn take_pooled_engine(config: &ExperimentConfig) -> Option<System> {
    ENGINE_POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        pool.iter()
            .position(|s| s.matches(&config.system, &config.costs, true))
            .map(|i| pool.swap_remove(i))
    })
}

fn return_pooled_engine(system: System) {
    ENGINE_POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        if pool.len() < ENGINE_POOL_CAP {
            pool.push(system);
        }
    });
}

/// Expands `spec` and runs every job. See [`run_jobs`].
///
/// # Errors
///
/// Returns [`SimError`] when the cache directory cannot be opened, the
/// hardware configuration is invalid, or a trace is malformed.
pub fn run_sweep(
    spec: &SweepSpec,
    config: &ExperimentConfig,
    opts: &SweepOptions,
) -> Result<SweepOutput, SimError> {
    run_jobs(&spec.expand(), config, opts)
}

/// Runs `jobs` on the worker pool. The returned records are sorted by job
/// ordinal and are bit-identical for any worker count and any cache state.
///
/// The cache misses of one (kernel, scale) run as one group: the first is
/// simulated and the others replay its compute timeline under their own
/// communication models, falling back to a full simulation where a replay
/// would not be exact (see [`Simulation::run_group`]). Every record equals [`execute_job`]'s, and
/// each one counts as a cache miss and is stored in the cache.
///
/// # Errors
///
/// Returns [`SimError`] when the cache directory cannot be opened, the
/// hardware configuration is invalid, or a trace is malformed. On a failed
/// job the lowest-ordinal error is returned, so the outcome is deterministic
/// for any worker count.
///
/// # Panics
///
/// Panics if a worker thread panics (propagated by `std::thread::scope`).
pub fn run_jobs(
    jobs: &[Job],
    config: &ExperimentConfig,
    opts: &SweepOptions,
) -> Result<SweepOutput, SimError> {
    let start = Instant::now();
    let cache =
        match &opts.cache_dir {
            Some(dir) => Some(DiskCache::open(dir).map_err(|e| {
                SimError::Io(format!("cannot open cache dir {}: {e}", dir.display()))
            })?),
            None => None,
        };
    let workers = if opts.workers == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        opts.workers
    };

    let traces = TraceStore::global();
    let cancelled = || {
        opts.cancel
            .as_deref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
    };
    let replayed = AtomicU64::new(0);
    // Runs the jobs at `unit` (all of one (kernel, scale)), handing each
    // (index, record) pair to `sink` as it finishes.
    let run_unit = |unit: &[usize], sink: &mut dyn FnMut(usize, Result<SweepRecord, SimError>)| {
        let cache = cache.as_ref();
        let mut misses: Vec<(usize, Option<String>)> = Vec::new();
        for &index in unit {
            if cancelled() {
                return;
            }
            let job = &jobs[index];
            // The content key Debug-formats the full hardware and cost
            // configuration — skip it entirely on uncached sweeps, where it
            // would otherwise rival the simulation itself on small per-job
            // traces.
            let key = cache.map(|_| content_key_with(job, config, None, opts.mode));
            match cache.zip(key.as_deref()).and_then(|(c, key)| c.get(key)) {
                Some(mut cached) => {
                    // Ordinals belong to this sweep, not the cache entry (a
                    // differently-filtered sweep may have stored it).
                    cached.id = job.id;
                    sink(index, Ok(cached));
                }
                None => misses.push((index, key)),
            }
        }
        let Some(&(first, _)) = misses.first() else {
            return;
        };
        let trace = traces.get(&jobs[first]);
        let mut finish = |(index, key): &(usize, Option<String>), result| {
            if let (Ok(record), Some(c), Some(key)) = (&result, cache, key) {
                if let Err(e) = c.put(key, record) {
                    eprintln!("warning: cache write failed: {e}");
                }
            }
            sink(*index, result);
        };
        let group: Vec<&Job> = misses.iter().map(|&(index, _)| &jobs[index]).collect();
        let (results, n) = execute_group(&group, config, &trace, opts.mode, &cancelled);
        replayed.fetch_add(n, Ordering::Relaxed);
        for (miss, result) in misses.iter().zip(results) {
            finish(miss, result);
        }
    };
    let done = AtomicUsize::new(0);
    let progress = |record: &Result<SweepRecord, SimError>| {
        let finished = done.fetch_add(1, Ordering::Relaxed);
        if let (true, Ok(record)) = (opts.progress, record) {
            let mut err = std::io::stderr().lock();
            let _ = write!(
                err,
                "\r[{:>width$}/{}] {} {}/{}        ",
                finished + 1,
                jobs.len(),
                record.kind,
                record.kernel,
                record.target,
                width = jobs.len().to_string().len(),
            );
            let _ = err.flush();
        }
    };

    // Splits `indices` into work units, each of which simulates its
    // compute once. Units run longest first, estimated from the kernel's
    // Table III instruction count over the scale, so the biggest
    // simulation does not start last and leave the other workers idle.
    let units = |indices: &[usize]| -> Vec<Vec<usize>> {
        let mut units = work_units(jobs, indices.iter().copied());
        units.sort_by_cached_key(|unit| {
            let job = &jobs[unit[0]];
            let insts = job.kernel.paper_characteristics().total_instructions();
            std::cmp::Reverse(insts / job.scale.max(1) as usize)
        });
        units
    };

    // The most threads any local batch ran, for the stats.
    let threads = Cell::new(0);

    // Executes `indices` on up to `workers` local threads, one unit at a
    // time, handing each finished (index, record) pair to `sink` on the
    // calling thread. Single-worker batches (the service's per-shard path,
    // benches, and `--jobs 1`) run inline: no spawn, no channel, and —
    // because the engine pool is thread-local — recycled engines survive
    // from one sweep to the next. Generating a job's trace still uses one
    // helper thread per parallel segment (`TraceBuilder::parallel`).
    let run_local =
        |indices: &[usize], sink: &mut dyn FnMut(usize, Result<SweepRecord, SimError>)| {
            let units = units(indices);
            let n = workers.min(units.len());
            threads.set(threads.get().max(n));
            if n <= 1 {
                for unit in &units {
                    run_unit(unit, sink);
                }
                return;
            }
            let cursor = AtomicUsize::new(0);
            let (tx, rx) = mpsc::channel::<(usize, Result<SweepRecord, SimError>)>();
            std::thread::scope(|scope| {
                for _ in 0..n {
                    let tx = tx.clone();
                    let (cursor, units, run_unit) = (&cursor, &units, &run_unit);
                    scope.spawn(move || {
                        // The receiver drains until every worker is done,
                        // so a send cannot fail.
                        let mut send = |index, record| drop(tx.send((index, record)));
                        while let Some(unit) = units.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                            run_unit(unit, &mut send);
                        }
                    });
                }
                drop(tx);
                for (index, record) in rx {
                    sink(index, record);
                }
            });
        };

    // Partition: parts the dispatcher claims execute remotely, everything
    // else (plus whatever the dispatcher fails) runs on the local pool.
    // Claims are sanitized — out-of-range or doubly-claimed indices are
    // dropped — so a buggy dispatcher degrades to local execution rather
    // than corrupting the merge.
    let ctx = DispatchContext {
        config,
        timeline_interval: None,
        mode: opts.mode,
    };
    let mut claimed = vec![false; jobs.len()];
    let parts: Vec<JobPart> = match &opts.dispatcher {
        None => Vec::new(),
        Some(dispatcher) => dispatcher
            .partition(jobs, &ctx)
            .into_iter()
            .map(|part| JobPart {
                owner: part.owner,
                indices: part
                    .indices
                    .into_iter()
                    .filter(|&i| i < jobs.len() && !std::mem::replace(&mut claimed[i], true))
                    .collect(),
            })
            .filter(|part| !part.indices.is_empty())
            .collect(),
    };
    let local: Vec<usize> = (0..jobs.len()).filter(|&i| !claimed[i]).collect();

    let mut slots: Vec<Option<Result<SweepRecord, SimError>>> = Vec::new();
    slots.resize_with(jobs.len(), || None);

    if parts.is_empty() {
        let mut sink = |index: usize, record: Result<SweepRecord, SimError>| {
            progress(&record);
            slots[index] = Some(record);
        };
        run_local(&local, &mut sink);
    } else {
        let dispatcher = opts.dispatcher.as_ref().expect("parts imply a dispatcher");
        // Scatter: remote parts execute concurrently with the local
        // share, one thread per owner sending that owner's parts one
        // after another, since an owner serves only as many parts at once
        // as it has part slots. A part whose owner is unreachable,
        // draining, or answers garbage falls back onto the local pool
        // afterwards — failover costs latency, never correctness.
        let mut parts = parts;
        // Stable, so each owner's parts keep their order.
        parts.sort_by(|a, b| a.owner.cmp(&b.owner));
        let owners: Vec<&[JobPart]> = parts.chunk_by(|a, b| a.owner == b.owner).collect();
        let mut fallback: Vec<usize> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = owners
                .iter()
                .map(|&owned| {
                    let ctx = &ctx;
                    scope.spawn(move || {
                        owned
                            .iter()
                            .map(|part| dispatcher.execute(jobs, part, ctx))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let mut sink = |index: usize, record: Result<SweepRecord, SimError>| {
                progress(&record);
                slots[index] = Some(record);
            };
            run_local(&local, &mut sink);
            for (owned, handle) in owners.iter().zip(handles) {
                // A panicking owner thread fails every one of its parts.
                let mut outcomes = handle.join().unwrap_or_default().into_iter();
                for part in *owned {
                    match outcomes.next() {
                        Some(Ok(records))
                            if records.len() == part.indices.len()
                                && records
                                    .iter()
                                    .zip(&part.indices)
                                    .all(|(r, &i)| r.id == jobs[i].id) =>
                        {
                            // Merge in ordinal slots: remote records are
                            // indistinguishable from local ones downstream.
                            for (&index, record) in part.indices.iter().zip(records) {
                                let record = Ok(record);
                                progress(&record);
                                slots[index] = Some(record);
                            }
                        }
                        _ => fallback.extend_from_slice(&part.indices),
                    }
                }
            }
        });
        if !fallback.is_empty() {
            fallback.sort_unstable();
            let mut sink = |index: usize, record: Result<SweepRecord, SimError>| {
                progress(&record);
                slots[index] = Some(record);
            };
            run_local(&fallback, &mut sink);
        }
    }
    if opts.progress {
        eprintln!();
    }

    let mut records = Vec::with_capacity(jobs.len());
    // Ordinal order, so a failing sweep reports the same (lowest-ordinal)
    // error for any worker count. An empty slot means a worker stopped
    // pulling — only possible via the cancellation flag.
    for slot in slots {
        match slot {
            Some(record) => records.push(record?),
            None => return Err(SimError::Cancelled),
        }
    }
    // Slots are already ordinal-ordered; the sort is a cheap invariant
    // guard for callers that concatenate job lists.
    records.sort_by_key(|r| r.id);

    let (cache_hits, cache_misses) = match &cache {
        Some(c) => (c.hits(), c.misses()),
        None => (0, u64::try_from(jobs.len()).expect("job count fits")),
    };
    Ok(SweepOutput {
        records,
        stats: SweepStats {
            jobs: jobs.len(),
            workers: threads.get(),
            cache_hits,
            cache_misses,
            replayed: replayed.into_inner(),
            wall: start.elapsed(),
        },
    })
}

/// The Figure 5/6 grid (every kernel × evaluated system) at `scale`
/// through the engine: parallel and, when a cache directory is given,
/// memoized. Runs
/// are ordered by kernel, then by system, each axis in its `ALL` order
/// ([`Kernel::ALL`](hetmem_trace::kernels::Kernel::ALL),
/// [`EvaluatedSystem::ALL`](hetmem_core::EvaluatedSystem::ALL)). Each
/// report equals [`execute_job`]'s for its cell.
///
/// # Errors
///
/// Returns [`SimError`] when the cache directory cannot be opened or a job
/// fails (see [`run_jobs`]).
pub fn run_case_studies(
    scale: u32,
    config: &ExperimentConfig,
    opts: &SweepOptions,
) -> Result<(Vec<CaseStudyRun>, SweepStats), SimError> {
    let spec = SweepSpec {
        spaces: vec![],
        ..SweepSpec::full(scale)
    };
    run_grid(&spec, config, opts, |job, report| {
        let JobKind::CaseStudy { system } = job.kind else {
            unreachable!("spec contains only case-study jobs")
        };
        CaseStudyRun {
            system,
            kernel: job.kernel,
            report,
        }
    })
}

/// The Figure 7 grid (every kernel × address space) at `scale` through
/// the engine. Runs are ordered by kernel, then by address space, each axis in its
/// `ALL` order ([`Kernel::ALL`](hetmem_trace::kernels::Kernel::ALL),
/// [`AddressSpace::ALL`](hetmem_core::AddressSpace::ALL)). Each report
/// equals [`execute_job`]'s for its cell.
///
/// # Errors
///
/// Returns [`SimError`] when the cache directory cannot be opened or a job
/// fails (see [`run_jobs`]).
pub fn run_address_spaces(
    scale: u32,
    config: &ExperimentConfig,
    opts: &SweepOptions,
) -> Result<(Vec<SpaceRun>, SweepStats), SimError> {
    let spec = SweepSpec {
        systems: vec![],
        ..SweepSpec::full(scale)
    };
    run_grid(&spec, config, opts, |job, report| {
        let JobKind::AddressSpace { space } = job.kind else {
            unreachable!("spec contains only address-space jobs")
        };
        SpaceRun {
            space,
            kernel: job.kernel,
            report,
        }
    })
}

/// The GPU page-size study (§II-A1: per-PU page-size freedom is one of
/// the design options a non-physically-unified space buys): each of
/// `kernels` at `scale` on IDEAL-HETERO, with `config`'s GPU page size
/// set to each of `gpu_page_sizes` in turn. One [`run_jobs`] pass per
/// size; the variant's configuration is part of every content key, so
/// its results never alias the baseline's. Rows are ordered by kernel,
/// then by page size.
///
/// # Errors
///
/// Returns [`SimError`] when a size is not a power of two (the TLB's
/// requirement) or a job fails.
pub fn run_page_size_study(
    kernels: &[Kernel],
    scale: u32,
    config: &ExperimentConfig,
    gpu_page_sizes: &[u64],
) -> Result<Vec<PageSizeRow>, SimError> {
    let spec = SweepSpec {
        kernels: kernels.to_vec(),
        systems: vec![EvaluatedSystem::IdealHetero],
        spaces: vec![],
        scales: vec![scale],
    };
    let jobs = spec.expand();
    let mut reports = Vec::with_capacity(gpu_page_sizes.len());
    for &gpu_page_bytes in gpu_page_sizes {
        let mut variant = *config;
        variant.system.mmu.gpu_page_bytes = gpu_page_bytes;
        reports.push(run_jobs(&jobs, &variant, &SweepOptions::default())?.records);
    }
    Ok(jobs
        .iter()
        .enumerate()
        .flat_map(|(i, job)| {
            gpu_page_sizes
                .iter()
                .zip(&reports)
                .map(move |(&gpu_page_bytes, records)| {
                    let report = &records[i].report;
                    PageSizeRow {
                        kernel: job.kernel,
                        gpu_page_bytes,
                        total_ticks: report.total_ticks(),
                        gpu_tlb_miss_rate: report.hierarchy.gpu_tlb.miss_rate(),
                    }
                })
        })
        .collect())
}

/// The work-partitioning sweep: `kernel` at `scale` on `system`, with
/// each of `shares` percent of the parallel work on the GPU. The paper
/// divides work evenly and defers optimal partitioning to Qilin-style
/// systems (§IV-B); this sweep finds the empirically best split on our
/// substrate. Each share generates its own trace, so each runs through
/// [`execute_job`].
///
/// # Errors
///
/// Returns [`SimError`] when the hardware configuration is invalid or a
/// job fails.
pub fn run_partition_sweep(
    system: EvaluatedSystem,
    kernel: Kernel,
    scale: u32,
    config: &ExperimentConfig,
    shares: &[u32],
) -> Result<Vec<PartitionRow>, SimError> {
    let job = Job {
        id: 0,
        kernel,
        kind: JobKind::CaseStudy { system },
        scale,
    };
    shares
        .iter()
        .map(|&gpu_share_pct| {
            let trace = kernel.generate(&KernelParams::scaled(scale).with_gpu_share(gpu_share_pct));
            Ok(PartitionRow {
                gpu_share_pct,
                total_ticks: execute_job(&job, config, &trace)?.report.total_ticks(),
            })
        })
        .collect()
}

/// Runs `spec`'s jobs and turns each job and its report into a run, in
/// job order.
fn run_grid<T>(
    spec: &SweepSpec,
    config: &ExperimentConfig,
    opts: &SweepOptions,
    run: impl Fn(&Job, RunReport) -> T,
) -> Result<(Vec<T>, SweepStats), SimError> {
    let jobs = spec.expand();
    let output = run_jobs(&jobs, config, opts)?;
    let runs = jobs
        .iter()
        .zip(output.records)
        .map(|(job, record)| run(job, record.report))
        .collect();
    Ok((runs, output.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetmem_core::{AddressSpace, EvaluatedSystem};
    use hetmem_trace::kernels::Kernel;

    const SCALE: u32 = 512;

    fn cfg() -> ExperimentConfig {
        ExperimentConfig::paper()
    }

    fn small_spec() -> SweepSpec {
        SweepSpec {
            kernels: vec![Kernel::Reduction, Kernel::Dct],
            systems: vec![EvaluatedSystem::Fusion, EvaluatedSystem::IdealHetero],
            spaces: vec![AddressSpace::Unified],
            scales: vec![512],
        }
    }

    #[test]
    fn trace_store_keeps_every_trace_of_a_multi_scale_sweep() {
        let store = TraceStore::default();
        let jobs = SweepSpec {
            scales: vec![8, 16, 32, 64, 128, 256, 512],
            ..SweepSpec::full(1)
        }
        .expand();
        let first = store.get(&jobs[0]);
        for job in &jobs {
            let _ = store.get(job);
        }
        assert_eq!(store.map.lock().expect("trace store lock").len(), 42);
        assert!(Arc::ptr_eq(&first, &store.get(&jobs[0])));
    }

    /// One engine cell against [`execute_job`]: one un-replayed
    /// simulation of the same job on the same trace.
    fn assert_matches_execute_job(kernel: Kernel, kind: JobKind, report: &RunReport) {
        let job = Job {
            id: 0,
            kernel,
            kind,
            scale: SCALE,
        };
        let reference = execute_job(&job, &cfg(), &job_trace(&job)).expect("runs");
        assert_eq!(*report, reference.report, "{}", job.identity());
    }

    #[test]
    fn engine_matches_per_job_simulation() {
        let (runs, _) =
            run_case_studies(SCALE, &cfg(), &SweepOptions::with_workers(4)).expect("runs");
        assert_eq!(runs.len(), Kernel::ALL.len() * EvaluatedSystem::ALL.len());
        for run in &runs {
            let kind = JobKind::CaseStudy { system: run.system };
            assert_matches_execute_job(run.kernel, kind, &run.report);
        }
    }

    #[test]
    fn space_engine_matches_per_job_simulation() {
        let (runs, _) =
            run_address_spaces(SCALE, &cfg(), &SweepOptions::with_workers(4)).expect("runs");
        assert_eq!(runs.len(), Kernel::ALL.len() * AddressSpace::ALL.len());
        for run in &runs {
            let kind = JobKind::AddressSpace { space: run.space };
            assert_matches_execute_job(run.kernel, kind, &run.report);
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let config = cfg();
        let spec = small_spec();
        let one = run_sweep(&spec, &config, &SweepOptions::with_workers(1)).expect("runs");
        let many = run_sweep(&spec, &config, &SweepOptions::with_workers(8)).expect("runs");
        assert_eq!(one.records, many.records);
        assert_eq!(one.stats.workers, 1);
        // Two kernels at one scale make two work units: two threads.
        assert_eq!(many.stats.workers, 2);
    }

    #[test]
    fn content_keys_separate_configs_and_jobs() {
        let spec = small_spec();
        let jobs = spec.expand();
        let a = content_key(&jobs[0], &cfg());
        let b = content_key(&jobs[1], &cfg());
        assert_ne!(a, b, "different jobs must have different keys");
        let mut other = cfg();
        other.costs.api_acq_cycles += 1;
        assert_ne!(content_key(&jobs[0], &cfg()), content_key(&jobs[0], &other));
    }

    #[test]
    fn jobs_of_one_unit_share_a_placement_key() {
        let jobs = SweepSpec {
            scales: vec![256, 512],
            ..small_spec()
        }
        .expand();
        let units = work_units(&jobs, 0..jobs.len());
        assert_eq!(units.len(), 4, "two kernels at two scales");
        let key = |i: usize| placement_key(&jobs[i], &cfg(), ExecMode::Accurate);
        for unit in &units {
            assert_eq!(unit.len(), 3, "two systems and one space per unit");
            assert!(unit.iter().all(|&i| key(i) == key(unit[0])));
        }
        let mut keys: Vec<String> = units.iter().map(|unit| key(unit[0])).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), units.len(), "units must not share a key");
        // Everything but the target still separates placements.
        let mut other = cfg();
        other.costs.api_acq_cycles += 1;
        assert_ne!(key(0), placement_key(&jobs[0], &other, ExecMode::Accurate));
        let sampled = placement_key(&jobs[0], &cfg(), ExecMode::sampled_default());
        assert_ne!(key(0), sampled);
    }

    #[test]
    fn the_timeline_argument_does_not_change_the_key() {
        let jobs = small_spec().expand();
        let plain = content_key(&jobs[0], &cfg());
        assert_eq!(
            plain,
            content_key_with(&jobs[0], &cfg(), Some(1_000_000), ExecMode::Accurate)
        );
        assert!(!plain.contains("timeline"), "{plain}");
    }

    #[test]
    fn execution_mode_addresses_a_separate_cache_entry() {
        let jobs = small_spec().expand();
        let plain = content_key(&jobs[0], &cfg());
        let sampled = content_key_with(&jobs[0], &cfg(), None, ExecMode::sampled_default());
        assert_ne!(plain, sampled);
        assert!(sampled.contains("mode=sampled:1536:512"), "{sampled}");
    }

    #[test]
    fn preset_cancel_flag_aborts_the_sweep() {
        let flag = Arc::new(AtomicBool::new(true));
        let opts = SweepOptions::builder()
            .workers(2)
            .cancel(Some(Arc::clone(&flag)))
            .build();
        let err = run_sweep(&small_spec(), &cfg(), &opts).expect_err("cancelled");
        assert_eq!(err, SimError::Cancelled);

        // An unset flag changes nothing.
        flag.store(false, Ordering::Relaxed);
        let out = run_sweep(&small_spec(), &cfg(), &opts).expect("runs");
        let plain = run_sweep(&small_spec(), &cfg(), &SweepOptions::with_workers(2)).expect("runs");
        assert_eq!(out.records, plain.records);
    }

    #[test]
    fn cache_round_trip_hits_every_job() {
        let dir =
            std::env::temp_dir().join(format!("hetmem-xplore-engine-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = SweepOptions::builder()
            .workers(2)
            .cache_dir(Some(dir.clone()))
            .build();
        let config = cfg();
        let spec = small_spec();
        let cold = run_sweep(&spec, &config, &opts).expect("cold run");
        assert_eq!(cold.stats.cache_hits, 0);
        assert_eq!(cold.stats.cache_misses as usize, cold.stats.jobs);

        let warm = run_sweep(&spec, &config, &opts).expect("warm run");
        assert_eq!(warm.stats.cache_misses, 0);
        assert_eq!(warm.stats.cache_hits as usize, warm.stats.jobs);
        assert_eq!(cold.records, warm.records);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Claims the even-ordinal jobs as two parts for one owner and
    /// "remotely" executes each through a nested local `run_jobs` — the
    /// cluster dispatcher in miniature. Like a node with one part slot, it
    /// refuses a part while another is in flight.
    #[derive(Default)]
    struct EchoDispatcher {
        calls: AtomicUsize,
        in_flight: AtomicUsize,
        refused: AtomicUsize,
    }

    impl JobDispatcher for EchoDispatcher {
        fn partition(&self, jobs: &[Job], _ctx: &DispatchContext<'_>) -> Vec<JobPart> {
            let even: Vec<usize> = (0..jobs.len()).step_by(2).collect();
            let (first, second) = even.split_at(even.len() / 2);
            [first, second]
                .map(|indices| JobPart {
                    owner: "loopback".to_owned(),
                    indices: indices.to_vec(),
                })
                .to_vec()
        }

        fn execute(
            &self,
            jobs: &[Job],
            part: &JobPart,
            ctx: &DispatchContext<'_>,
        ) -> Result<Vec<SweepRecord>, SimError> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            if self.in_flight.fetch_add(1, Ordering::SeqCst) > 0 {
                self.in_flight.fetch_sub(1, Ordering::SeqCst);
                self.refused.fetch_add(1, Ordering::SeqCst);
                let peer = part.owner.clone();
                return Err(SimError::PeerUnavailable { peer });
            }
            // Hold the slot long enough for a concurrent part to collide.
            std::thread::sleep(Duration::from_millis(50));
            let subset: Vec<Job> = part.indices.iter().map(|&i| jobs[i]).collect();
            let opts = SweepOptions::builder().workers(1).mode(ctx.mode).build();
            let records = run_jobs(&subset, ctx.config, &opts).map(|out| out.records);
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            records
        }
    }

    /// Always claims everything and always fails — the unreachable-owner
    /// case. The sweep must fall back to purely local execution.
    struct DeadDispatcher;

    impl JobDispatcher for DeadDispatcher {
        fn partition(&self, jobs: &[Job], _ctx: &DispatchContext<'_>) -> Vec<JobPart> {
            vec![JobPart {
                owner: "gone".to_owned(),
                indices: (0..jobs.len()).collect(),
            }]
        }

        fn execute(
            &self,
            _jobs: &[Job],
            _part: &JobPart,
            _ctx: &DispatchContext<'_>,
        ) -> Result<Vec<SweepRecord>, SimError> {
            Err(SimError::PeerUnavailable {
                peer: "gone".to_owned(),
            })
        }
    }

    /// Claims everything but answers with wrong-id records — the engine
    /// must reject the merge and re-run the part locally.
    struct LyingDispatcher;

    impl JobDispatcher for LyingDispatcher {
        fn partition(&self, jobs: &[Job], _ctx: &DispatchContext<'_>) -> Vec<JobPart> {
            vec![JobPart {
                owner: "liar".to_owned(),
                // Doubly-claimed and out-of-range indices exercise the
                // sanitizer too.
                indices: (0..jobs.len()).chain([0, jobs.len() + 7]).collect(),
            }]
        }

        fn execute(
            &self,
            jobs: &[Job],
            part: &JobPart,
            ctx: &DispatchContext<'_>,
        ) -> Result<Vec<SweepRecord>, SimError> {
            let subset: Vec<Job> = part.indices.iter().map(|&i| jobs[i]).collect();
            let opts = SweepOptions::builder().workers(1).mode(ctx.mode).build();
            let mut records = run_jobs(&subset, ctx.config, &opts)?.records;
            for record in &mut records {
                record.id += 1000;
            }
            Ok(records)
        }
    }

    #[test]
    fn dispatcher_merge_is_byte_identical_to_local() {
        let config = cfg();
        let spec = small_spec();
        let local = run_sweep(&spec, &config, &SweepOptions::with_workers(2)).expect("local");
        let echo = Arc::new(EchoDispatcher::default());
        let opts = SweepOptions::builder()
            .workers(2)
            .dispatcher(Some(Arc::clone(&echo) as Arc<dyn JobDispatcher>))
            .build();
        let scattered = run_sweep(&spec, &config, &opts).expect("scattered");
        assert_eq!(echo.calls.load(Ordering::SeqCst), 2, "both parts scatter");
        // A refusal is the only way this dispatcher fails a part, so the
        // only way a claimed job would fall back to the local pool.
        assert_eq!(echo.refused.load(Ordering::SeqCst), 0, "parts overlapped");
        assert_eq!(
            crate::to_jsonl(&local.records),
            crate::to_jsonl(&scattered.records),
            "scatter-gather must be byte-identical to a local run"
        );
    }

    #[test]
    fn dead_and_lying_dispatchers_fall_back_to_local_execution() {
        let config = cfg();
        let spec = small_spec();
        let local = run_sweep(&spec, &config, &SweepOptions::with_workers(2)).expect("local");
        for dispatcher in [
            Arc::new(DeadDispatcher) as Arc<dyn JobDispatcher>,
            Arc::new(LyingDispatcher) as Arc<dyn JobDispatcher>,
        ] {
            let opts = SweepOptions::builder()
                .workers(2)
                .dispatcher(Some(dispatcher))
                .build();
            let out = run_sweep(&spec, &config, &opts).expect("failover");
            assert_eq!(
                crate::to_jsonl(&local.records),
                crate::to_jsonl(&out.records),
                "failover must reproduce the local run exactly"
            );
        }
    }
}
