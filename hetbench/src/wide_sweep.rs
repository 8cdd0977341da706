//! `wide-sweep`: the 54-point grid at seven scales (378 small jobs), run
//! (a) in-process through `run_jobs` with one `DiskCache` and (b)
//! scattered over a 3-node loopback fleet through `FleetDispatcher`, each
//! cold and then warm. Cold passes are per-job overhead on many small
//! sims plus cache writes; warm passes are cache reads, the record codec
//! and cluster frame hops.

use crate::spans::Tracer;
use crate::stats::median;
use crate::{host, http};
use crate::{Ctx, Report};
use hetmem_cluster::{proto, FleetDispatcher};
use hetmem_core::experiment::ExperimentConfig;
use hetmem_serve::{ServeOptions, Server};
use hetmem_sim::{ExecMode, SimError};
use hetmem_trace::kernels::{Kernel, KernelParams};
use hetmem_xplore::dispatch::{decode_part, encode_part, parse_part_records, render_part_records};
use hetmem_xplore::json::{self, Json};
use hetmem_xplore::{
    content_key_with, execute_job, job_trace, run_jobs, to_jsonl, DiskCache, DispatchContext, Job,
    JobDispatcher, JobPart, SweepOptions, SweepOutput, SweepRecord, SweepSpec,
};
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const SCALES: [u32; 7] = [8, 16, 32, 64, 128, 256, 512];
const NODES: usize = 3;
const SETUP_REPS: usize = 7;
/// Control-frame round trips timed after each campaign.
const RTT_PROBES: usize = 25;
/// The median control-frame round trip must stay below this: far above
/// the usual 0.1 ms, far below a 40 ms delayed-ACK stall.
const FRAME_STALL_MS: f64 = 10.0;

/// Nominal seconds per campaign on the reference host: `--seconds` buys
/// a fixed number of campaigns, so every run does the same work and the
/// process's memory growth across campaigns is comparable run to run.
const CAMPAIGN_SECONDS: u64 = 5;

fn campaigns(ctx: &Ctx) -> u64 {
    (ctx.seconds.as_secs() / CAMPAIGN_SECONDS).max(1)
}

fn jobs() -> Vec<Job> {
    SweepSpec {
        scales: SCALES.to_vec(),
        ..SweepSpec::full(1)
    }
    .expand()
}

/// Generates every (kernel, scale) trace of the sweep. The first call
/// fills the process-wide store; later calls generate and drop.
fn warm_traces(jobs: &[Job], into_store: bool) {
    for scale in SCALES {
        for kernel in Kernel::ALL {
            if into_store {
                let job = jobs
                    .iter()
                    .find(|j| j.kernel == kernel && j.scale == scale)
                    .expect("grid covers every kernel and scale");
                black_box(job_trace(job));
            } else {
                black_box(kernel.generate(&KernelParams::scaled(scale)));
            }
        }
    }
}

/// Three loopback serve nodes, one worker and one cache directory each.
struct Fleet {
    nodes: Vec<Server>,
    dirs: Vec<PathBuf>,
    seed_http: SocketAddr,
    seed_cluster: String,
    membership: Duration,
    dispatcher: Arc<TimedDispatcher>,
}

impl Fleet {
    fn start(root: &Path) -> Result<Fleet, String> {
        let dirs: Vec<PathBuf> = (0..NODES).map(|i| root.join(format!("node{i}"))).collect();
        let options = |i: usize| ServeOptions {
            addr: "127.0.0.1:0".to_owned(),
            workers: 1,
            queue_depth: 32,
            cache_dir: Some(dirs[i].clone()),
            heartbeat_ms: 100,
            ..ServeOptions::default()
        };
        let err = |e: SimError| format!("fleet node failed to start: {e}");
        let seed = Server::start(&ServeOptions {
            advertise: Some("127.0.0.1:0".to_owned()),
            ..options(0)
        })
        .map_err(err)?;
        let seed_cluster = seed
            .cluster_addr()
            .ok_or("seed node has no cluster address")?
            .to_string();
        let seed_http = seed.local_addr();
        let mut nodes = vec![seed];
        let joined = Instant::now();
        for i in 1..NODES {
            nodes.push(
                Server::start(&ServeOptions {
                    join: Some(seed_cluster.clone()),
                    ..options(i)
                })
                .map_err(err)?,
            );
        }
        let deadline = joined + Duration::from_secs(30);
        let dispatcher = loop {
            let fleet = FleetDispatcher::connect(&seed_cluster).map_err(err)?;
            if fleet.nodes() == NODES {
                break fleet;
            }
            if Instant::now() > deadline {
                return Err("fleet membership never reached 3 nodes".to_owned());
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        Ok(Fleet {
            nodes,
            dirs,
            seed_http,
            seed_cluster,
            membership: joined.elapsed(),
            dispatcher: Arc::new(TimedDispatcher {
                inner: dispatcher,
                parts: Mutex::new(Vec::new()),
                failures: AtomicU64::new(0),
            }),
        })
    }

    fn stop(self) {
        for node in &self.nodes {
            node.shutdown();
        }
        for node in self.nodes {
            node.wait();
        }
    }

    /// Empties every node's result cache, so the next pass is cold.
    fn clear_caches(&self) -> Result<(), String> {
        for dir in &self.dirs {
            for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())? {
                std::fs::remove_file(entry.map_err(|e| e.to_string())?.path())
                    .map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    }

    /// The fleet-wide merged `/metrics` document.
    fn merged_metrics(&self) -> Result<Json, String> {
        let reply = http::request(self.seed_http, "GET", "/metrics?cluster=1", "")
            .map_err(|e| format!("GET /metrics?cluster=1: {e}"))?;
        let doc = json::parse(&reply.body).map_err(|e| format!("/metrics: {e:?}"))?;
        doc.get("merged")
            .cloned()
            .ok_or_else(|| "/metrics?cluster=1 has no merged section".to_owned())
    }
}

/// One `proto::call` of a `peers` control frame to the seed node.
fn frame_round_trip(fleet: &Fleet) -> Result<Duration, String> {
    let peers = Json::obj(vec![("kind", Json::Str("peers".to_owned()))]);
    let start = Instant::now();
    proto::call(&fleet.seed_cluster, &peers, proto::CONNECT_TIMEOUT)
        .map_err(|e| format!("peers frame: {e}"))?;
    Ok(start.elapsed())
}

/// A counter from a merged metrics document (`path` is `a.b` nesting).
fn counter(doc: &Json, path: &str) -> u64 {
    path.split('.')
        .try_fold(doc, |v, key| v.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// The fleet's [`FleetDispatcher`], with every remote part timed and
/// counted from the outside.
struct TimedDispatcher {
    inner: FleetDispatcher,
    parts: Mutex<Vec<(Instant, Instant)>>,
    failures: AtomicU64,
}

impl JobDispatcher for TimedDispatcher {
    fn partition(&self, jobs: &[Job], ctx: &DispatchContext<'_>) -> Vec<JobPart> {
        self.inner.partition(jobs, ctx)
    }

    fn execute(
        &self,
        jobs: &[Job],
        part: &JobPart,
        ctx: &DispatchContext<'_>,
    ) -> Result<Vec<SweepRecord>, SimError> {
        let start = Instant::now();
        let out = self.inner.execute(jobs, part, ctx);
        self.parts
            .lock()
            .expect("part spans")
            .push((start, Instant::now()));
        if out.is_err() {
            self.failures.fetch_add(1, Ordering::Relaxed);
        }
        out
    }
}

/// One timed `run_jobs` call. Counts its jobs as operations.
fn pass(
    jobs: &[Job],
    opts: &SweepOptions,
    report: &mut Report,
) -> Result<(SweepOutput, f64), String> {
    let start = Instant::now();
    let out = run_jobs(jobs, &ExperimentConfig::paper(), opts);
    let wall = start.elapsed().as_secs_f64();
    match out {
        Ok(out) => {
            report.ops(jobs.len() as u64, 0);
            Ok((out, wall))
        }
        Err(e) => {
            report.ops(jobs.len() as u64, jobs.len() as u64);
            Err(format!("wide-sweep run_jobs failed: {e}"))
        }
    }
}

fn local_opts(workers: usize, dir: &Path) -> SweepOptions {
    SweepOptions::builder()
        .workers(workers)
        .cache_dir(Some(dir.to_owned()))
        .build()
}

fn fleet_opts(fleet: &Fleet) -> SweepOptions {
    SweepOptions::builder()
        .workers(1)
        .dispatcher(Some(Arc::clone(&fleet.dispatcher) as Arc<dyn JobDispatcher>))
        .build()
}

/// Timings of one cold + warm campaign, local then fleet, in seconds.
struct Campaign {
    local_cold: f64,
    local_warm: f64,
    fleet_cold: f64,
    fleet_warm: f64,
}

/// Runs one campaign with every output check.
fn campaign(
    ctx: &Ctx,
    jobs: &[Job],
    fleet: &Fleet,
    rep: usize,
    report: &mut Report,
) -> Result<Campaign, String> {
    let n = jobs.len() as u64;
    let dir = ctx.scratch(&format!("local{rep}"))?;
    let (cold, local_cold) = pass(jobs, &local_opts(ctx.nproc, &dir), report)?;
    let reference = to_jsonl(&cold.records);
    let (warm, local_warm) = pass(jobs, &local_opts(ctx.nproc, &dir), report)?;
    report.check(
        "local cold pass simulates every job",
        cold.stats.cache_misses == n,
    );
    report.check(
        "local warm pass is 100% cache hits",
        warm.stats.cache_hits == n,
    );
    report.check(
        "local warm records equal local cold records",
        to_jsonl(&warm.records) == reference,
    );

    fleet.clear_caches()?;
    let before = fleet.merged_metrics()?;
    let (cold, fleet_cold) = pass(jobs, &fleet_opts(fleet), report)?;
    let between = fleet.merged_metrics()?;
    let (warm, fleet_warm) = pass(jobs, &fleet_opts(fleet), report)?;
    let after = fleet.merged_metrics()?;
    let delta = |a: &Json, b: &Json, path: &str| counter(b, path) - counter(a, path);
    report.check(
        "fleet records are byte-identical to local records",
        to_jsonl(&cold.records) == reference && to_jsonl(&warm.records) == reference,
    );
    report.check(
        "fleet cold pass simulates every job on the nodes",
        delta(&before, &between, "cache_misses") == n,
    );
    report.check(
        "fleet warm pass is 100% cache hits",
        delta(&between, &after, "cache_hits") == n && delta(&between, &after, "cache_misses") == 0,
    );
    report.check(
        "no fleet part failed over",
        delta(&before, &after, "cluster.sweep_part_failovers") == 0
            && fleet.dispatcher.failures.load(Ordering::Relaxed) == 0,
    );
    std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    Ok(Campaign {
        local_cold,
        local_warm,
        fleet_cold,
        fleet_warm,
    })
}

/// Set-up: trace warm-up plus three nodes up until the dispatcher sees
/// them all, repeated; the last fleet is kept.
fn setup(ctx: &Ctx, jobs: &[Job], report: &mut Report) -> Result<Fleet, String> {
    let (mut setup, mut membership) = (Vec::new(), Vec::new());
    for rep in 0..SETUP_REPS {
        let dir = ctx.scratch(&format!("fleet{rep}"))?;
        let clock = host::Stopwatch::start()?;
        warm_traces(jobs, rep == 0);
        let fleet = Fleet::start(&dir)?;
        setup.push(clock.elapsed()?);
        membership.push(fleet.membership.as_secs_f64() * 1e3);
        if rep + 1 == SETUP_REPS {
            report.samples("fleet_membership_ms", "ms", &membership);
            report.setup(&setup);
            return Ok(fleet);
        }
        fleet.stop();
    }
    unreachable!("the last repetition returns")
}

/// Untraced end-to-end measurement.
///
/// # Errors
///
/// Returns a message when a pass fails or the fleet cannot form.
pub fn measure(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    if ctx.nproc < NODES {
        report.notes.push(format!(
            "fleet timings on {} cores are not scaling evidence: 3 nodes need >= 3 cores",
            ctx.nproc
        ));
    }
    let jobs = jobs();
    let fleet = setup(ctx, &jobs, report)?;
    host::reset_peak_rss()?;
    let (mut runs, mut cpus, mut rtts) = (Vec::new(), Vec::new(), Vec::new());
    let outcome = (|| {
        for _ in 0..campaigns(ctx) {
            let clock = host::Stopwatch::start()?;
            let c = campaign(ctx, &jobs, &fleet, runs.len(), report)?;
            cpus.push(clock.elapsed()?.1 * 1e3);
            runs.push(c);
            for _ in 0..RTT_PROBES {
                rtts.push(frame_round_trip(&fleet)?.as_secs_f64() * 1e3);
            }
        }
        Ok::<(), String>(())
    })();
    fleet.stop();
    outcome?;
    // Stalls cost no CPU, so `cpu_ms` cannot see them. A control frame's
    // round trip is about 0.1 ms; a frame held back by Nagle's algorithm
    // against a delayed ACK takes about 40 ms.
    let rtt_ms = report.samples("cluster_frame_rtt_ms", "ms", &rtts);
    report.check(
        &format!("a cluster control frame round trip is under {FRAME_STALL_MS} ms"),
        rtt_ms < FRAME_STALL_MS,
    );
    let col = |f: fn(&Campaign) -> f64| runs.iter().map(f).collect::<Vec<f64>>();
    report.samples("sweep_local_cold_s", "s", &col(|c| c.local_cold));
    let local_warm = report.samples("sweep_local_warm_ms", "ms", &col(|c| c.local_warm * 1e3));
    report.samples("sweep_fleet_cold_s", "s", &col(|c| c.fleet_cold));
    let fleet_warm = report.samples("sweep_fleet_warm_ms", "ms", &col(|c| c.fleet_warm * 1e3));
    report.notes.push(format!(
        "fleet warm pass / local warm pass: {:.2}",
        fleet_warm / local_warm
    ));
    report.samples(
        "campaign_ms",
        "ms",
        &col(|c| (c.local_cold + c.local_warm + c.fleet_cold + c.fleet_warm) * 1e3),
    );
    let cpu_ms = report.samples("campaign_cpu_ms", "ms", &cpus);
    report.metric("cpu_ms", cpu_ms, "ms");
    report.stat("peak_rss_mb", "MiB", "VmHWM", host::peak_rss_mb()?, 1);
    Ok(())
}

/// The per-call replica of [`layers`] again, over a fresh cache with
/// spans off, for the tracing-overhead comparison. Returns its wall time
/// in seconds.
///
/// # Errors
///
/// Returns a message when a call fails.
pub fn untraced_pass(ctx: &Ctx, report: &mut Report) -> Result<f64, String> {
    let jobs = jobs();
    let dir = ctx.scratch("untraced")?;
    let (_, wall, _) = replica(&Tracer::disabled(), &jobs, &ExperimentConfig::paper(), &dir)?;
    report.ops(jobs.len() as u64, 0);
    Ok(wall)
}

/// The traced xplore + dispatch + cluster layer pass. Returns the wall
/// time of the traced one-worker cold replica of `run_jobs`, which
/// [`untraced_pass`] repeats with spans off.
///
/// # Errors
///
/// Returns a message when a call fails or the fleet cannot form.
pub fn layers(ctx: &Ctx, tracer: &Tracer, report: &mut Report) -> Result<f64, String> {
    let jobs = jobs();
    warm_traces(&jobs, true);
    let config = ExperimentConfig::paper();

    // xplore: run_jobs at one worker, then a replica of its per-job calls
    // with a span around each. Two rounds; the first warms the page cache
    // and the allocator, the second is the one compared.
    let mut round = None;
    for r in 0..2 {
        let engine_dir = ctx.scratch(&format!("engine{r}"))?;
        let (cold, engine_wall) = pass(&jobs, &local_opts(1, &engine_dir), report)?;
        let (warm, _) = pass(&jobs, &local_opts(1, &engine_dir), report)?;
        let timed_before = replica_timed(tracer);
        let cache_dir = ctx.scratch(&format!("replica{r}"))?;
        let (records, traced_wall, cache) = replica(tracer, &jobs, &config, &cache_dir)?;
        report.ops(jobs.len() as u64, 0);
        let timed = replica_timed(tracer) - timed_before;
        round = Some((cold, warm, engine_wall, records, traced_wall, cache, timed));
    }
    let (cold, warm, engine_wall, records, traced_wall, cache, timed) =
        round.expect("two rounds ran");
    report.metric(
        "xplore.engine_overhead_ms",
        (engine_wall - timed) * 1e3,
        "ms",
    );
    report.metric(
        "xplore.warm_hit_ratio",
        warm.stats.cache_hits as f64 / jobs.len() as f64,
        "ratio",
    );
    let reference = to_jsonl(&cold.records);
    report.check(
        "replica records equal run_jobs records",
        to_jsonl(&records) == reference,
    );

    let mut hits = 0u64;
    for job in &jobs {
        let key = content_key_with(job, &config, None, ExecMode::Accurate);
        hits += u64::from(
            tracer
                .time("xplore.cache_get", None, || cache.get(&key))
                .is_some(),
        );
    }
    report.check(
        "replica warm pass is 100% cache hits",
        hits == jobs.len() as u64,
    );
    for record in &records {
        let text = tracer.time("xplore.record_render", None, || record.to_json().render());
        let parsed = tracer.time("xplore.record_parse", None, || {
            json::parse(&text).map(|v| SweepRecord::from_json(&v))
        });
        if !matches!(parsed, Ok(Ok(ref r)) if r.to_json().render() == text) {
            return Err("record render/parse round trip changed the record".to_owned());
        }
    }
    let us = |name: &str| median(&tracer.seconds(name)) * 1e6;
    for name in [
        "execute_job",
        "content_key",
        "cache_put",
        "cache_get",
        "record_render",
        "record_parse",
    ] {
        report.metric(
            &format!("xplore.{name}_us"),
            us(&format!("xplore.{name}")),
            "us",
        );
    }

    // dispatch: the wire codec on the parts the fleet would receive.
    let fleet = Fleet::start(&ctx.scratch("fleet")?)?;
    let outcome = fleet_layers(ctx, tracer, report, &jobs, &fleet, &records, &reference);
    fleet.stop();
    outcome?;
    Ok(traced_wall)
}

/// The spans [`replica`] takes, summed: the calls `run_jobs` makes per job.
const REPLICA_CALLS: [&str; 5] = [
    "xplore.content_key",
    "xplore.cache_miss",
    "xplore.job_trace",
    "xplore.execute_job",
    "xplore.cache_put",
];

fn replica_timed(tracer: &Tracer) -> f64 {
    REPLICA_CALLS.iter().map(|n| tracer.total(n)).sum()
}

/// `run_jobs`' cold per-job calls at one worker, each in a span, over a
/// fresh cache in `dir`. Returns the records, the wall time and the cache.
fn replica(
    tracer: &Tracer,
    jobs: &[Job],
    config: &ExperimentConfig,
    dir: &Path,
) -> Result<(Vec<SweepRecord>, f64, DiskCache), String> {
    let cache = DiskCache::open(dir).map_err(|e| e.to_string())?;
    let start = Instant::now();
    let mut records = Vec::new();
    for job in jobs {
        let key = tracer.time("xplore.content_key", None, || {
            content_key_with(job, config, None, ExecMode::Accurate)
        });
        if tracer
            .time("xplore.cache_miss", None, || cache.get(&key))
            .is_some()
        {
            return Err("replica cache was not empty".to_owned());
        }
        let trace = tracer.time("xplore.job_trace", None, || job_trace(job));
        let record = tracer
            .time("xplore.execute_job", None, || {
                execute_job(job, config, &trace)
            })
            .map_err(|e| e.to_string())?;
        tracer
            .time("xplore.cache_put", None, || cache.put(&key, &record))
            .map_err(|e| e.to_string())?;
        records.push(record);
    }
    Ok((records, start.elapsed().as_secs_f64(), cache))
}

fn fleet_layers(
    ctx: &Ctx,
    tracer: &Tracer,
    report: &mut Report,
    jobs: &[Job],
    fleet: &Fleet,
    records: &[SweepRecord],
    reference: &str,
) -> Result<(), String> {
    let config = ExperimentConfig::paper();
    report.metric(
        "cluster.membership_ms",
        fleet.membership.as_secs_f64() * 1e3,
        "ms",
    );
    let dctx = DispatchContext {
        config: &config,
        timeline_interval: None,
        mode: ExecMode::Accurate,
    };
    let mut part_bytes = 0usize;
    for part in fleet.dispatcher.partition(jobs, &dctx) {
        let body = tracer
            .time("dispatch.encode_part", None, || {
                encode_part(jobs, &part.indices, &dctx)
            })
            .render();
        let value = json::parse(&body).map_err(|e| format!("part body: {e:?}"))?;
        tracer
            .time("dispatch.decode_part", None, || decode_part(&value))
            .map_err(|e| format!("decode_part: {e}"))?;
        let share: Vec<SweepRecord> = part.indices.iter().map(|&i| records[i].clone()).collect();
        let text = tracer.time("dispatch.render_part_records", None, || {
            render_part_records(&share)
        });
        tracer
            .time("dispatch.parse_part_records", None, || {
                parse_part_records(&text)
            })
            .map_err(|e| format!("parse_part_records: {e}"))?;
        part_bytes += body.len() + text.len();
    }
    let us = |name: &str| median(&tracer.seconds(name)) * 1e6;
    for name in [
        "encode_part",
        "decode_part",
        "render_part_records",
        "parse_part_records",
    ] {
        report.metric(
            &format!("dispatch.{name}_us"),
            us(&format!("dispatch.{name}")),
            "us",
        );
    }

    // cluster: a small control frame's round trip.
    for _ in 0..200 {
        let rtt = frame_round_trip(fleet)?;
        let end = Instant::now();
        tracer.record(tracer.id(), None, "cluster.frame_rtt", end - rtt, end);
    }
    report.metric("cluster.frame_rtt_us", us("cluster.frame_rtt"), "us");

    // The fleet passes, each part timed, against a local warm pass.
    let local_dir = ctx.scratch("local-warm")?;
    pass(jobs, &local_opts(ctx.nproc, &local_dir), report)?;
    let (_, local_warm) = pass(jobs, &local_opts(ctx.nproc, &local_dir), report)?;
    let before = fleet.merged_metrics()?;
    let (cold, _) = pass(jobs, &fleet_opts(fleet), report)?;
    let (warm, fleet_warm) = pass(jobs, &fleet_opts(fleet), report)?;
    let after = fleet.merged_metrics()?;
    report.check(
        "traced fleet records are byte-identical to local records",
        to_jsonl(&cold.records) == reference && to_jsonl(&warm.records) == reference,
    );
    let parts = std::mem::take(&mut *fleet.dispatcher.parts.lock().expect("part spans"));
    for (start, end) in &parts {
        tracer.record(tracer.id(), None, "cluster.part", *start, *end);
    }
    let delta = |path: &str| (counter(&after, path) - counter(&before, path)) as f64;
    let failovers = delta("cluster.sweep_part_failovers")
        + fleet.dispatcher.failures.load(Ordering::Relaxed) as f64;
    report.check("no traced fleet part failed over", failovers == 0.0);
    report.metric(
        "cluster.fleet_overhead_ms",
        (fleet_warm - local_warm) * 1e3,
        "ms",
    );
    report.metric("cluster.parts_out", parts.len() as f64, "count");
    report.metric("cluster.parts_in", delta("cluster.sweep_parts_in"), "count");
    report.metric("cluster.part_failovers", failovers, "count");
    report.metric("cluster.part_bytes", part_bytes as f64, "bytes");
    Ok(())
}
