//! `serve-open`: seeded open-loop HTTP traffic against a warm in-process
//! `hetmem_serve::Server`. Poisson arrivals; 90 % `/v1/sim` drawn Zipf
//! over 180 cached cells, 5 % `/v1/check` and 5 % `/v1/fix` over the six
//! paper programs × four models; one connection per request. A rate
//! ladder of 1000 … 6000 req/s finds where queueing starts.

use crate::host;
use crate::http::{self, Reply};
use crate::loadgen::{poisson_schedule, run_open_loop, Arrival, Outcome, Rng, Zipf};
use crate::spans::Tracer;
use crate::stats::{median, percentile};
use crate::{Ctx, Report};
use hetmem_core::hash::fnv1a;
use hetmem_core::{AddressSpace, EvaluatedSystem};
use hetmem_serve::{
    parse_check_request, parse_fix_request, parse_sim_request, run_check_request, run_fix_request,
    run_sim, Metrics, ServeOptions, Server,
};
use hetmem_sim::ExecMode;
use hetmem_trace::kernels::Kernel;
use hetmem_xplore::json::{self, Json};
use hetmem_xplore::DiskCache;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const SCALES: [u32; 3] = [256, 512, 1024];
const RATES: [u32; 6] = [1000, 2000, 3000, 4000, 5000, 6000];
/// Stage order: 1000 req/s, whose median is the gated latency, runs in
/// five blocks spread over the run, so a short noisy spell on the host
/// moves at most two block medians.
const LADDER: [u32; 10] = [1000, 2000, 1000, 3000, 1000, 4000, 1000, 5000, 1000, 6000];
const ZIPF_EXPONENT: f64 = 1.1;
/// Goodput's latency limit on p99.
const P99_LIMIT_MS: f64 = 5.0;
/// A stage's backlog "grows" when its last quarter starts this much later
/// than its first.
const LAG_GROWTH_LIMIT: Duration = Duration::from_millis(1);
/// The r1000 median from due time must stay below this: far above the
/// usual 0.5 ms, below a 40 ms delayed-ACK stall on every exchange.
const STALL_LIMIT_MS: f64 = 20.0;
/// One server takes at most this many one-shot connections. Its
/// `accept_loop` keeps every finished connection thread's `JoinHandle`
/// until drain, and at about 16 k of them the process reaches
/// `vm.max_map_count` and aborts.
const MAX_SERVER_CONNECTIONS: usize = 14_000;
/// A stage is planned to send at most this many requests, which leaves
/// room under [`MAX_SERVER_CONNECTIONS`] for readiness probes and for
/// Poisson variation. Stages at high rates are shortened to stay within it.
const MAX_STAGE_REQUESTS: u32 = 12_000;
/// Set-ups timed before each stage. Each is short (about 3 ms), so the
/// median of `setup_s` is taken over twenty of them, spread over the run.
const SETUPS_PER_STAGE: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Route {
    Sim,
    Check,
    Fix,
}

/// One distinct request the generator can send.
struct Item {
    route: Route,
    body: String,
    /// FNV-1a of the in-process answer: `run_sim` on an empty cache (a
    /// live simulation), `run_check_request` or `run_fix_request`.
    expected: u64,
}

impl Item {
    fn path(&self) -> &'static str {
        match self.route {
            Route::Sim => "/v1/sim",
            Route::Check => "/v1/check",
            Route::Fix => "/v1/fix",
        }
    }
}

/// The request catalogue: sim cells first, then checks, then fixes.
struct Catalogue {
    items: Vec<Item>,
    sims: usize,
    checks: usize,
    /// Sim cells in Zipf rank order (a seeded permutation).
    sim_rank: Vec<usize>,
    /// A result cache holding every sim cell, written while the expected
    /// answers were simulated; set-up links it into a server's cache.
    golden: PathBuf,
}

/// Builds the catalogue for `ctx.seed`: every request, its expected
/// answer, and the golden cache of sim results.
fn catalogue(ctx: &Ctx) -> Result<Catalogue, String> {
    let modes = [ExecMode::Accurate, ExecMode::sampled_default()];
    let golden = ctx.scratch("golden")?;
    let cache = DiskCache::open(&golden).map_err(|e| e.to_string())?;
    let mut items = Vec::new();
    for kernel in Kernel::ALL {
        for system in EvaluatedSystem::ALL {
            for scale in SCALES {
                for mode in modes {
                    let body = format!(
                        "{{\"kernel\":\"{}\",\"system\":\"{}\",\"scale\":{scale},\"mode\":\"{}\"}}",
                        kernel.name(),
                        system.name(),
                        mode.label()
                    );
                    let req = parse_sim_request(&body)?;
                    // The cache starts empty, so this is a live simulation.
                    let answer = run_sim(&req, Some(&cache), None, &Metrics::default())?;
                    items.push(Item {
                        route: Route::Sim,
                        body,
                        expected: fnv1a(answer.as_bytes()),
                    });
                }
            }
        }
    }
    let sims = items.len();
    for route in [Route::Check, Route::Fix] {
        for program in hetmem_dsl::programs::all() {
            for model in AddressSpace::ALL {
                let body = format!(
                    "{{\"targets\":[\"{}\"],\"models\":[\"{}\"]}}",
                    program.name,
                    model.abbrev()
                );
                let answer = match route {
                    Route::Check => run_check_request(&parse_check_request(&body)?)?,
                    _ => run_fix_request(&parse_fix_request(&body)?, &Metrics::default())?,
                };
                items.push(Item {
                    route,
                    body,
                    expected: fnv1a(answer.as_bytes()),
                });
            }
        }
    }
    let checks = (items.len() - sims) / 2;
    let mut sim_rank: Vec<usize> = (0..sims).collect();
    Rng::new(ctx.seed).shuffle(&mut sim_rank);
    Ok(Catalogue {
        items,
        sims,
        checks,
        sim_rank,
        golden,
    })
}

impl Catalogue {
    /// The seeded schedule for ladder stage `index`, at `rate`.
    fn schedule(&self, seed: u64, index: usize, rate: u32, length: Duration) -> Vec<Arrival> {
        let zipf = Zipf::new(self.sims, ZIPF_EXPONENT);
        let stream = (index as u64) << 32 | u64::from(rate);
        let mut rng = Rng::new(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        poisson_schedule(&mut rng, f64::from(rate), length, |r| {
            let u = r.next_f64();
            if u < 0.90 {
                self.sim_rank[zipf.sample(r)]
            } else if u < 0.95 {
                self.sims + r.below(self.checks)
            } else {
                self.sims + self.checks + r.below(self.checks)
            }
        })
    }
}

/// A running service over a cache directory.
struct Service {
    server: Server,
    addr: SocketAddr,
    cache_dir: PathBuf,
}

impl Service {
    /// Starts a server on `cache_dir` and waits until it reports ready.
    fn start(ctx: &Ctx, cache_dir: PathBuf) -> Result<Service, String> {
        let server = Server::start(&ServeOptions {
            addr: "127.0.0.1:0".to_owned(),
            workers: ctx.nproc,
            cache_dir: Some(cache_dir.clone()),
            ..ServeOptions::default()
        })
        .map_err(|e| format!("serve failed to start: {e}"))?;
        let addr = server.local_addr();
        let service = Service {
            server,
            addr,
            cache_dir,
        };
        match http::wait_ready(addr, Duration::from_secs(30)) {
            Ok(()) => Ok(service),
            Err(e) => {
                service.stop();
                Err(e)
            }
        }
    }

    fn stop(self) {
        self.server.shutdown();
        self.server.wait();
    }

    fn metrics(&self) -> Result<Json, String> {
        let reply = http::request(self.addr, "GET", "/metrics", "")
            .map_err(|e| format!("GET /metrics: {e}"))?;
        json::parse(&reply.body).map_err(|e| format!("/metrics: {e:?}"))
    }

    /// Fills this server's cache with the golden cache's entries, so it
    /// holds every sim cell.
    fn prefill(&self, cat: &Catalogue) -> Result<(), String> {
        link_tree(&cat.golden, &self.cache_dir).map_err(|e| format!("cache pre-fill: {e}"))
    }
}

/// Recreates the tree under `from` inside `to`, with a hard link for
/// every file. Links, not copies: copying writes the data again, and on
/// a 2-vCPU VM that made set-up drift from 5 ms to 22 ms over six
/// consecutive runs as dirty pages built up, while links held 2.3–3.2 ms.
fn link_tree(from: &Path, to: &Path) -> std::io::Result<()> {
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            std::fs::create_dir_all(&target)?;
            link_tree(&entry.path(), &target)?;
        } else {
            std::fs::hard_link(entry.path(), target)?;
        }
    }
    Ok(())
}

/// Set-up: `Server::start` until `/v1/health` is ready, plus the cache
/// pre-fill, into a fresh directory. Returns the warm, running service and
/// the set-up's `(wall, cpu)` seconds.
fn setup_once(ctx: &Ctx, cat: &Catalogue, name: &str) -> Result<(Service, (f64, f64)), String> {
    let dir = ctx.scratch(name)?;
    let clock = host::Stopwatch::start()?;
    let svc = Service::start(ctx, dir)?;
    let filled = svc.prefill(cat);
    let elapsed = clock.elapsed()?;
    match filled {
        Ok(()) => Ok((svc, elapsed)),
        Err(e) => {
            svc.stop();
            Err(e)
        }
    }
}

/// What one ladder stage measured.
struct Stage {
    outcomes: Vec<Outcome>,
    /// With `keep`: each successful exchange and when it was sent.
    replies: Vec<Option<(Instant, Reply)>>,
    wrong: u64,
    /// Process CPU time (server and generator) the stage used.
    cpu_s: f64,
}

impl Stage {
    /// Latencies from due time, in ms; failed requests count as infinite.
    fn latencies_ms(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .map(|o| {
                if o.ok {
                    o.latency().as_secs_f64() * 1e3
                } else {
                    f64::INFINITY
                }
            })
            .collect()
    }

    fn failed(&self) -> u64 {
        self.outcomes.iter().filter(|o| !o.ok).count() as u64
    }

    /// Whether the generator fell further behind as the stage went on.
    fn lag_grows(&self) -> bool {
        let q = self.outcomes.len() / 4;
        if q == 0 {
            return false;
        }
        let lag =
            |os: &[Outcome]| median(&os.iter().map(|o| o.lag().as_secs_f64()).collect::<Vec<_>>());
        let (first, last) = (
            &self.outcomes[..q],
            &self.outcomes[self.outcomes.len() - q..],
        );
        lag(last) > lag(first) + LAG_GROWTH_LIMIT.as_secs_f64()
    }
}

/// Runs one open-loop stage. Every response body is compared, by digest,
/// to the in-process answer for its request.
fn stage(
    ctx: &Ctx,
    cat: &Catalogue,
    svc: &Service,
    index: usize,
    rate: u32,
    keep: bool,
) -> Result<Stage, String> {
    let schedule = cat.schedule(ctx.seed, index, rate, stage_length(ctx, rate));
    if schedule.len() >= MAX_SERVER_CONNECTIONS {
        return Err(format!(
            "stage r{rate} would send {} requests; one server takes at most {MAX_SERVER_CONNECTIONS} connections",
            schedule.len()
        ));
    }
    let cpu = host::cpu_s()?;
    let wrong = AtomicU64::new(0);
    let replies: Mutex<Vec<Option<(Instant, Reply)>>> =
        Mutex::new(vec![None; if keep { schedule.len() } else { 0 }]);
    let outcomes = run_open_loop(&schedule, ctx.nproc, |i| {
        let it = &cat.items[schedule[i].item];
        let sent = Instant::now();
        let reply = http::request(svc.addr, "POST", it.path(), &it.body);
        let ok = matches!(&reply, Ok(r) if r.status == 200);
        if ok
            && reply
                .as_ref()
                .is_ok_and(|r| fnv1a(r.body.as_bytes()) != it.expected)
        {
            wrong.fetch_add(1, Ordering::Relaxed);
        }
        if keep {
            replies.lock().expect("replies")[i] = reply.ok().map(|r| (sent, r));
        }
        ok
    });
    Ok(Stage {
        outcomes,
        replies: replies.into_inner().expect("replies"),
        wrong: wrong.into_inner(),
        cpu_s: host::cpu_s()? - cpu,
    })
}

/// A stage's share of `--seconds`, shortened at high rates so that it
/// plans at most [`MAX_STAGE_REQUESTS`] requests.
fn stage_length(ctx: &Ctx, rate: u32) -> Duration {
    let cap = Duration::from_secs_f64(f64::from(MAX_STAGE_REQUESTS) / f64::from(rate));
    (ctx.seconds / LADDER.len() as u32).min(cap)
}

/// A finished stage's service, stopped, and its cache directory removed.
fn retire(svc: Service) -> Result<(), String> {
    let dir = svc.cache_dir.clone();
    svc.stop();
    std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))
}

/// Runs one stage on a freshly set-up server. Appends the `(wall, cpu)`
/// seconds of its [`SETUPS_PER_STAGE`] set-ups to `setups` (the last
/// one's server serves the stage). Returns the stage and how many memory
/// mappings the process gained while serving it.
fn served_stage(
    ctx: &Ctx,
    cat: &Catalogue,
    index: usize,
    rate: u32,
    setups: &mut Vec<(f64, f64)>,
) -> Result<(Stage, i64), String> {
    for _ in 1..SETUPS_PER_STAGE {
        let (svc, setup) = setup_once(ctx, cat, &format!("stage{index}"))?;
        setups.push(setup);
        retire(svc)?;
    }
    let (svc, setup) = setup_once(ctx, cat, &format!("stage{index}"))?;
    setups.push(setup);
    let maps = host::map_count();
    let st = stage(ctx, cat, &svc, index, rate, false);
    let grown = host::map_count() - maps;
    retire(svc)?;
    Ok((st?, grown))
}

/// Untraced end-to-end measurement: the full rate ladder.
///
/// # Errors
///
/// Returns a message when the service cannot start or the catalogue
/// cannot be built.
pub fn measure(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let cat = catalogue(ctx)?;
    host::reset_peak_rss()?;
    let mut stages: Vec<(u32, Stage)> = Vec::new();
    let mut setups = Vec::new();
    for (index, rate) in LADDER.into_iter().enumerate() {
        let (st, maps) = served_stage(ctx, &cat, index, rate, &mut setups)?;
        if stage_length(ctx, rate) < stage_length(ctx, RATES[0]) {
            report.notes.push(format!(
                "stage {index} r{rate} shortened to {:?} to plan at most {MAX_STAGE_REQUESTS} requests",
                stage_length(ctx, rate)
            ));
        }
        report.notes.push(format!(
            "stage {index} r{rate}: {maps} memory mappings retained after {} one-shot connections",
            st.outcomes.len()
        ));
        report.ops(st.outcomes.len() as u64, st.failed());
        report.check(
            "every response body equals the in-process answer",
            st.wrong == 0,
        );
        stages.push((rate, st));
    }
    report.setup(&setups);
    report.stat("peak_rss_mb", "MiB", "VmHWM", host::peak_rss_mb()?, 1);
    let mut goodput = 0;
    for rate in RATES {
        let blocks: Vec<&Stage> = stages
            .iter()
            .filter(|(r, _)| *r == rate)
            .map(|(_, st)| st)
            .collect();
        let mut pooled: Vec<f64> = blocks.iter().flat_map(|st| st.latencies_ms()).collect();
        pooled.sort_by(f64::total_cmp);
        let block_p50: Vec<f64> = blocks.iter().map(|st| median(&st.latencies_ms())).collect();
        let (p50, p99) = (median(&block_p50), percentile(&pooled, 99.0));
        report.stat(
            &format!("serve_p50_ms.r{rate}"),
            "ms",
            "p50",
            p50,
            pooled.len(),
        );
        report.stat(
            &format!("serve_p99_ms.r{rate}"),
            "ms",
            "p99",
            p99,
            pooled.len(),
        );
        if rate == RATES[0] {
            report
                .notes
                .push(format!("r{rate} block medians (ms): {block_p50:.4?}"));
            // Stalls cost no CPU, so `cpu_ms` cannot see them; this can.
            report.check(
                &format!("r{rate} median latency from due time is under {STALL_LIMIT_MS} ms"),
                p50 < STALL_LIMIT_MS,
            );
            let per_request: Vec<f64> = blocks
                .iter()
                .map(|st| st.cpu_s * 1e3 / st.outcomes.len().max(1) as f64)
                .collect();
            let cpu_ms = report.samples("serve_cpu_ms_per_req.r1000", "ms", &per_request);
            report.metric("cpu_ms", cpu_ms, "ms");
        }
        let clean = blocks.iter().all(|st| st.failed() == 0 && !st.lag_grows());
        if p99 <= P99_LIMIT_MS && clean && goodput + 1000 == rate {
            goodput = rate;
        }
    }
    report.stat(
        "serve_goodput_rps",
        "req/s",
        "value",
        f64::from(goodput),
        RATES.len(),
    );
    Ok(())
}

/// Passes of [`in_process_calls`] over the catalogue.
const CALL_PASSES: usize = 5;

/// Calls the service's request functions in-process, each in a span, on
/// every catalogue item against the warm cache: `parse_sim_request` and
/// `run_sim`, `run_check_request`, `run_fix_request`. Returns the wall
/// time in seconds.
fn in_process_calls(
    tracer: &Tracer,
    cat: &Catalogue,
    cache: &DiskCache,
    metrics: &Metrics,
) -> Result<f64, String> {
    let start = Instant::now();
    for _ in 0..CALL_PASSES {
        for it in &cat.items {
            match it.route {
                Route::Sim => {
                    let req =
                        tracer.time("serve.parse_sim", None, || parse_sim_request(&it.body))?;
                    tracer.time("serve.run_sim_hit", None, || {
                        run_sim(&req, Some(cache), None, metrics)
                    })?;
                }
                Route::Check => {
                    let req = parse_check_request(&it.body)?;
                    tracer.time("dsl.check", None, || run_check_request(&req))?;
                }
                Route::Fix => {
                    let req = parse_fix_request(&it.body)?;
                    tracer.time("dsl.fix", None, || run_fix_request(&req, metrics))?;
                }
            }
        }
    }
    Ok(start.elapsed().as_secs_f64())
}

/// The in-process calls of [`layers`] again, with spans off, for the
/// tracing-overhead comparison. Returns their wall time in seconds.
///
/// # Errors
///
/// Returns a message when a call fails.
pub fn untraced_pass(ctx: &Ctx, report: &mut Report) -> Result<f64, String> {
    let cat = catalogue(ctx)?;
    let cache = DiskCache::open(&cat.golden).map_err(|e| e.to_string())?;
    let wall = in_process_calls(&Tracer::disabled(), &cat, &cache, &Metrics::default())?;
    report.ops((CALL_PASSES * cat.items.len()) as u64, 0);
    Ok(wall)
}

/// The traced serve + dsl + loadgen layer pass at 1000 req/s. Returns the
/// wall time of its in-process calls, which [`untraced_pass`] repeats with
/// spans off. The client-side spans are built after the stage from each
/// exchange's timings, so they add nothing to what the stage measures.
///
/// # Errors
///
/// Returns a message when the service cannot start.
pub fn layers(ctx: &Ctx, tracer: &Tracer, report: &mut Report) -> Result<f64, String> {
    let cat = catalogue(ctx)?;
    let (svc, _) = setup_once(ctx, &cat, "serve-traced")?;
    let before = svc.metrics()?;
    let st = stage(ctx, &cat, &svc, 0, RATES[0], true)?;
    let after = svc.metrics()?;
    report.ops(st.outcomes.len() as u64, st.failed());
    report.check(
        "traced r1000 bodies equal the in-process answers",
        st.wrong == 0,
    );

    // Client-side spans, from each exchange's send instant and timings.
    let (mut connect, mut ttfb, mut rtt) = (Vec::new(), Vec::new(), Vec::new());
    for (sent, r) in st.replies.iter().flatten() {
        let (sent, id) = (*sent, tracer.id());
        tracer.record(id, None, "serve.rtt", sent, sent + r.total);
        tracer.record(
            tracer.id(),
            Some(id),
            "serve.connect",
            sent,
            sent + r.connect,
        );
        tracer.record(tracer.id(), Some(id), "serve.ttfb", sent, sent + r.ttfb);
        connect.push(r.connect.as_secs_f64() * 1e6);
        ttfb.push(r.ttfb.as_secs_f64() * 1e6);
        rtt.push(r.total.as_secs_f64() * 1e6);
    }
    let rtt_us = median(&rtt);
    report.metric("serve.connect_us", median(&connect), "us");
    report.metric("serve.ttfb_us", median(&ttfb), "us");
    report.metric("serve.rtt_us", rtt_us, "us");

    let delta = |path: &[&str]| {
        let get = |doc: &Json| {
            path.iter()
                .try_fold(doc, |v, k| v.get(k))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        (get(&after) - get(&before)) as f64
    };
    let served = delta(&["latency", "count"]);
    report.metric(
        "serve.server_mean_us",
        delta(&["latency", "total_us"]) / served.max(1.0),
        "us",
    );
    let lookups = delta(&["cache_hits"]) + delta(&["cache_misses"]);
    report.metric(
        "serve.cache_hit_ratio",
        delta(&["cache_hits"]) / lookups.max(1.0),
        "ratio",
    );
    report.metric("serve.coalesced", delta(&["coalesced_jobs"]), "count");
    report.metric(
        "serve.rejected",
        delta(&["queue_rejections"]) + delta(&["drain_rejections"]),
        "count",
    );
    report.metric("serve.timed_out", delta(&["deadline_timeouts"]), "count");

    retire(svc)?;

    // In-process calls on the same inputs, on the golden cache the
    // server's cache was linked from.
    let metrics = Metrics::default();
    let cache = DiskCache::open(&cat.golden).map_err(|e| e.to_string())?;
    let calls_s = in_process_calls(tracer, &cat, &cache, &metrics)?;
    report.check(
        "in-process run_sim on the warm cache never simulates",
        metrics.cache_misses.load(Ordering::Relaxed) == 0,
    );
    let us = |name: &str| median(&tracer.seconds(name)) * 1e6;
    let hit_us = us("serve.run_sim_hit");
    report.metric("serve.parse_sim_us", us("serve.parse_sim"), "us");
    report.metric("serve.run_sim_hit_us", hit_us, "us");
    report.metric("serve.transport_us", rtt_us - hit_us, "us");
    report.metric("dsl.check_us", us("dsl.check"), "us");
    report.metric("dsl.fix_us", us("dsl.fix"), "us");

    let lags: Vec<f64> = st
        .outcomes
        .iter()
        .map(|o| o.lag().as_secs_f64() * 1e3)
        .collect();
    let mut sorted = lags.clone();
    sorted.sort_by(f64::total_cmp);
    report.metric("loadgen.lag_p99_ms", percentile(&sorted, 99.0), "ms");
    report.metric("loadgen.sent", st.outcomes.len() as f64, "count");
    Ok(calls_s)
}
