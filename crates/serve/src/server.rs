//! The service itself: socket handling, routing, admission, and the
//! graceful-drain shutdown sequence.
//!
//! Threading model: one accept thread, one handler thread per
//! connection (requests are short — a queue wait plus one simulation),
//! and the sharded worker pool doing the actual work. Shutdown is an
//! endpoint (`POST /v1/shutdown`) because a std-only binary cannot trap
//! signals: the handler answers, wakes the accept loop with a loopback
//! connection, and the accept thread then joins every handler, drains
//! the pool (completing all accepted jobs), joins the async waiters,
//! and finally leaves the cluster ring (when clustering is enabled).
//!
//! Clustering (`--advertise` / `--join`) adds a [`ClusterNode`] next to
//! the HTTP listener: `/v1/sim` and `/v1/check` requests whose content
//! key hashes to another node are forwarded there (so the fleet shards
//! its result cache instead of duplicating it), and `/metrics?cluster=1`
//! fans out and merges every member's counters. The owner answers a
//! forwarded request through the same local path a client of its own
//! hits (`answer_locally`); the entry node relays that answer as it
//! is, or runs the request itself when the owner is busy, draining or
//! unreachable.

use crate::http::{query_flag, read_request, HttpError, Request, Response, CONN_TIMEOUT};
use crate::jobs::{
    parse_check_request, parse_fix_request, parse_search_request, parse_sim_request,
    parse_sweep_request, run_check_request, run_fix_request, run_search_request, run_sim,
    run_sweep_part, run_sweep_request, search_progress_json, DslRequest, JobState, Registry,
    SimRequest,
};
use crate::metrics::{merge_metrics, Metrics};
use crate::pool::{panic_message, Outcome, Rejected, ShardedPool, Ticket};
use hetmem_cluster::{ClusterConfig, ClusterNode, Hooks, NodeDispatcher, Reply};
use hetmem_search::ProgressHook;
use hetmem_sim::SimError;
use hetmem_xplore::{DiskCache, JobDispatcher, Json};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::{Duration, Instant};

/// What a worker hands back through the pool: a rendered response body
/// or a one-line error.
pub type JobResult = Result<String, String>;

/// Configuration for [`Server::start`].
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Bind address, `HOST:PORT` (port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker threads / shards; `0` uses the host's parallelism.
    pub workers: usize,
    /// Per-shard queue bound; submissions beyond it are answered 429.
    pub queue_depth: usize,
    /// Result-cache directory shared with `hetmem sweep --cache-dir`.
    pub cache_dir: Option<PathBuf>,
    /// Cluster listener bind address (`HOST:PORT`, port 0 ephemeral).
    /// Setting this (or [`ServeOptions::join`]) enables clustering.
    pub advertise: Option<String>,
    /// Cluster address of an existing member to join.
    pub join: Option<String>,
    /// Cluster heartbeat period in milliseconds.
    pub heartbeat_ms: u64,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1:7878".to_owned(),
            workers: 0,
            queue_depth: 32,
            cache_dir: None,
            advertise: None,
            join: None,
            heartbeat_ms: 500,
        }
    }
}

/// Shared server state.
struct State {
    pool: ShardedPool<JobResult>,
    registry: Registry,
    metrics: Arc<Metrics>,
    cache: Option<Arc<DiskCache>>,
    cache_dir: Option<PathBuf>,
    /// Set by `/v1/shutdown`; refuses new job submissions.
    draining: AtomicBool,
    /// Cancels in-flight sweeps only on abandonment, never on graceful
    /// drain (drain completes accepted jobs).
    cancel: Arc<AtomicBool>,
    waiters: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// The cluster membership layer, set once after the HTTP listener
    /// is live (the join handshake probes `/v1/health` back). `None`
    /// for a standalone server.
    cluster: OnceLock<Arc<ClusterNode>>,
    /// Scattered sweep parts currently executing on this node. Parts
    /// bypass the request pool (see [`part_locally`]), so this counter
    /// is their only admission control: at `pool.workers()` concurrent
    /// parts the node answers 429 and the entry node runs the partition
    /// itself.
    parts_active: AtomicUsize,
}

impl State {
    fn error_body(message: &str) -> String {
        format!(
            "{}\n",
            Json::obj(vec![("error", Json::Str(message.to_owned()))]).render()
        )
    }

    /// The `503` a draining node answers, counted as a drain rejection.
    /// Draining is transient like a full queue: the client should retry
    /// (against a peer, or here after a restart), so it carries
    /// Retry-After exactly as the 429 path does.
    fn draining_response(&self) -> Response {
        self.metrics.bump(&self.metrics.drain_rejections);
        Response::json(503, State::error_body("the service is draining"))
            .with_header("retry-after", "1")
    }

    /// Admits a job onto the pool and renders rejections.
    fn admit(
        &self,
        key: &str,
        deadline_ms: Option<u64>,
        work: impl FnOnce() -> JobResult + Send + 'static,
    ) -> Result<Ticket<JobResult>, Response> {
        if self.draining.load(Ordering::SeqCst) {
            return Err(self.draining_response());
        }
        let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
        self.pool.submit(key, deadline, work).map_err(|r| match r {
            Rejected::QueueFull { depth } => {
                self.metrics.bump(&self.metrics.queue_rejections);
                Response::json(
                    429,
                    State::error_body(&format!("queue full (depth {depth})")),
                )
                .with_header("retry-after", "1")
            }
            Rejected::Draining => self.draining_response(),
        })
    }

    /// Renders a synchronous job's outcome.
    fn render_outcome(&self, outcome: Outcome<JobResult>) -> Response {
        match outcome {
            Outcome::Done(Ok(body)) => Response::json(200, body),
            Outcome::Done(Err(error)) => {
                self.metrics.bump(&self.metrics.jobs_failed);
                Response::json(500, State::error_body(&error))
            }
            Outcome::Panicked { message } => {
                Response::json(500, State::error_body(&format!("job panicked: {message}")))
            }
            Outcome::DeadlineExceeded { waited_ms } => Response::json(
                504,
                format!(
                    "{}\n",
                    Json::obj(vec![
                        (
                            "error",
                            Json::Str(SimError::DeadlineExceeded { waited_ms }.to_string()),
                        ),
                        ("waited_ms", Json::UInt(waited_ms)),
                    ])
                    .render()
                ),
            ),
        }
    }

    /// Renders the outcome of a job whose success body is JSONL.
    fn render_jsonl(&self, outcome: Outcome<JobResult>) -> Response {
        match outcome {
            Outcome::Done(Ok(jsonl)) => Response {
                status: 200,
                headers: Vec::new(),
                body: jsonl,
                content_type: NDJSON,
            },
            other => self.render_outcome(other),
        }
    }
}

/// `Content-Type` of the JSONL endpoints' success bodies.
const NDJSON: &str = "application/x-ndjson";

/// Runs a sim request on this node's pool.
fn sim_locally(state: &Arc<State>, sim: SimRequest, key: &str) -> Response {
    let deadline = sim.deadline_ms;
    let metrics = Arc::clone(&state.metrics);
    let cache = state.cache.clone();
    let work = move || run_sim(&sim, cache.as_deref(), None, &metrics);
    match state.admit(key, deadline, work) {
        Err(response) => response,
        Ok(ticket) => state.render_outcome(ticket.wait()),
    }
}

/// Runs a check request on this node's pool.
fn check_locally(state: &Arc<State>, check: DslRequest, key: &str) -> Response {
    let deadline = check.deadline_ms;
    let work = move || run_check_request(&check);
    match state.admit(key, deadline, work) {
        Err(response) => response,
        Ok(ticket) => state.render_jsonl(ticket.wait()),
    }
}

/// Runs one scattered sweep partition directly on the calling
/// frame-handler thread, NOT on the request pool: the entry node's pool
/// worker is already held by the sweep that scattered this part, so two
/// entry nodes scattering at each other would deadlock in a circular
/// wait if parts queued behind pool workers. `parts_active` bounds
/// concurrency to the pool's width; beyond it the node answers 429 and
/// the entry node runs the partition itself.
fn part_locally(state: &Arc<State>, body: &str) -> Response {
    run_part(state, |workers| {
        run_sweep_part(body, state.cache_dir.clone(), workers, &state.metrics)
    })
}

/// Runs `work` (handed the part's worker count) in one of the
/// `parts_active` slots. A panicking part is caught the way a pool
/// worker catches a job — a typed 500, counted in `worker_panics` — so
/// its slot is always released; a leaked slot is never reclaimed, and
/// after `workers` leaks the node would answer 429 to every part.
fn run_part(state: &State, work: impl FnOnce(usize) -> JobResult) -> Response {
    if state.draining.load(Ordering::SeqCst) {
        return state.draining_response();
    }
    let workers = usize::try_from(state.pool.workers()).unwrap_or(1).max(1);
    if state.parts_active.fetch_add(1, Ordering::SeqCst) >= workers {
        state.parts_active.fetch_sub(1, Ordering::SeqCst);
        state.metrics.bump(&state.metrics.queue_rejections);
        return Response::json(
            429,
            State::error_body(&format!("sweep part slots full ({workers})")),
        )
        .with_header("retry-after", "1");
    }
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| work(workers)));
    state.parts_active.fetch_sub(1, Ordering::SeqCst);
    let outcome = match result {
        Ok(result) => Outcome::Done(result),
        Err(payload) => {
            state.metrics.bump(&state.metrics.worker_panics);
            Outcome::Panicked {
                message: panic_message(payload.as_ref()),
            }
        }
    };
    state.render_outcome(outcome)
}

/// Answers one request body on a local endpoint exactly as a client of
/// this node would be answered, without forwarding it — the owner side
/// of cluster forwarding and scatter-gather. Forwarded requests enter
/// the pool under the same content key a local client would use, so
/// identical requests arriving via different entry nodes coalesce here
/// into one execution.
fn answer_locally(state: &Arc<State>, endpoint: &str, body: &str) -> Response {
    match endpoint {
        "/v1/sim" => match parse_sim_request(body) {
            Err(message) => bad_request(state, &message),
            Ok(sim) => {
                let key = sim.content_key();
                sim_locally(state, sim, &key)
            }
        },
        "/v1/check" => match parse_check_request(body) {
            Err(message) => bad_request(state, &message),
            Ok(check) => {
                let key = check.coalesce_key();
                check_locally(state, check, &key)
            }
        },
        "/v1/sweep-part" => part_locally(state, body),
        _ => Response::json(404, State::error_body("no such endpoint")),
    }
}

/// The entry side of cluster forwarding. When another node owns the
/// key `placement` returns, runs the request there and relays the
/// owner's answer as it is; a success body carries `content_type`,
/// every other status is the JSON error shape the local path renders.
/// Returns `None` when this node should answer itself: it is standalone
/// (and then never computes the key) or owns the key, or the owner was
/// busy, draining or unreachable (the reactive steal).
fn forward(
    state: &Arc<State>,
    endpoint: &str,
    body: &str,
    placement: impl FnOnce() -> String,
    content_type: &'static str,
) -> Option<Response> {
    let node = state.cluster.get()?;
    let reply = node.forward(&placement(), endpoint, body)?;
    Some(Response {
        content_type: if reply.status == 200 {
            content_type
        } else {
            "application/json"
        },
        status: reply.status,
        headers: Vec::new(),
        body: reply.body,
    })
}

/// The dispatcher a sweep/search job on this node scatters through:
/// the cluster's [`NodeDispatcher`] when clustering is on, else `None`
/// (purely local execution). Built per-job so a sweep submitted before
/// the cluster layer finished starting still runs — just locally.
fn cluster_dispatcher(state: &Arc<State>) -> Option<Arc<dyn JobDispatcher>> {
    state
        .cluster
        .get()
        .map(|node| Arc::new(NodeDispatcher::new(node)) as Arc<dyn JobDispatcher>)
}

/// Appends the node's cluster status block to a local metrics
/// document, so both the plain `/metrics` body and every document fed
/// into the fleet merge carry the cluster counters.
fn append_cluster(local: Json, node: &ClusterNode) -> Json {
    match local {
        Json::Obj(mut pairs) => {
            pairs.push(("cluster".to_owned(), node.status_json()));
            Json::Obj(pairs)
        }
        other => other,
    }
}

/// Starts the cluster layer for `opts`, wiring its hooks to `state`
/// through a weak reference (the node must not keep the state alive).
fn start_cluster(
    opts: &ServeOptions,
    http_addr: SocketAddr,
    state: &Arc<State>,
) -> Result<Arc<ClusterNode>, SimError> {
    let exec_state: Weak<State> = Arc::downgrade(state);
    let metrics_state: Weak<State> = Arc::downgrade(state);
    let hooks = Hooks {
        executor: Arc::new(move |endpoint, body| match exec_state.upgrade() {
            Some(state) => {
                let response = answer_locally(&state, endpoint, body);
                Reply {
                    status: response.status,
                    body: response.body,
                }
            }
            None => Reply {
                status: 503,
                body: State::error_body("the service is draining"),
            },
        }),
        metrics: Arc::new(move || match metrics_state.upgrade() {
            Some(state) => {
                let local = state.metrics.to_json(
                    state.pool.queued(),
                    state.pool.busy(),
                    state.pool.workers(),
                );
                match state.cluster.get() {
                    Some(node) => append_cluster(local, node),
                    None => local,
                }
            }
            None => Json::obj(vec![]),
        }),
    };
    ClusterNode::start(
        ClusterConfig {
            advertise: opts.advertise.clone(),
            join: opts.join.clone(),
            http_addr: http_addr.to_string(),
            heartbeat_ms: opts.heartbeat_ms.max(1),
            peers_path: opts
                .cache_dir
                .as_ref()
                .map(|dir| dir.join("cluster-peers.json")),
        },
        hooks,
    )
}

/// Routes one parsed request. Split from the socket layer so tests can
/// drive the full API without a live connection.
fn handle(state: &Arc<State>, req: &Request) -> Response {
    state.metrics.bump(&state.metrics.requests_total);
    let started = Instant::now();
    let response = route(state, req);
    state.metrics.latency.record(started.elapsed());
    response
}

fn route(state: &Arc<State>, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/v1/health") => {
            // Liveness vs readiness: the process is live as long as it
            // answers at all; it is ready only while it still admits
            // jobs. Peers probe this during the join handshake; probes
            // and load balancers use it to take a draining node out of
            // rotation.
            let draining = state.draining.load(Ordering::SeqCst);
            let body = format!(
                "{}\n",
                Json::obj(vec![
                    (
                        "status",
                        Json::Str(if draining { "draining" } else { "ok" }.to_owned()),
                    ),
                    ("live", Json::Bool(true)),
                    ("ready", Json::Bool(!draining)),
                ])
                .render()
            );
            if draining {
                Response::json(503, body).with_header("retry-after", "1")
            } else {
                Response::json(200, body)
            }
        }
        ("GET", "/metrics") => {
            let local =
                state
                    .metrics
                    .to_json(state.pool.queued(), state.pool.busy(), state.pool.workers());
            let body = match state.cluster.get() {
                None => local,
                Some(node) if query_flag(req.query.as_deref(), "cluster") => {
                    // Fan out to every live peer and merge: one document
                    // describing the whole fleet, plus the member list so
                    // a dashboard can see who answered. Every document
                    // (including the local one) carries its node's
                    // cluster block, so degradation counters like
                    // `peer_failures` survive the merge.
                    let peers = node.peer_metrics();
                    let mut members = vec![Json::Str(node.self_addr().to_owned())];
                    let mut docs = vec![append_cluster(local, node)];
                    for (addr, doc) in peers {
                        members.push(Json::Str(addr));
                        docs.push(doc);
                    }
                    Json::obj(vec![
                        ("nodes", Json::UInt(docs.len() as u64)),
                        ("members", Json::Arr(members)),
                        ("merged", merge_metrics(&docs)),
                        ("cluster", node.status_json()),
                    ])
                }
                Some(node) => append_cluster(local, node),
            };
            Response::json(200, format!("{}\n", body.render()))
        }
        ("POST", "/v1/sim") => match parse_sim_request(&req.body) {
            Err(message) => bad_request(state, &message),
            Ok(sim) => {
                let key = sim.content_key();
                forward(
                    state,
                    "/v1/sim",
                    &req.body,
                    || sim.placement_key(),
                    "application/json",
                )
                .unwrap_or_else(|| sim_locally(state, sim, &key))
            }
        },
        ("POST", "/v1/check") => match parse_check_request(&req.body) {
            Err(message) => bad_request(state, &message),
            Ok(check) => {
                let key = check.coalesce_key();
                forward(state, "/v1/check", &req.body, || key.clone(), NDJSON)
                    .unwrap_or_else(|| check_locally(state, check, &key))
            }
        },
        ("POST", "/v1/fix") => match parse_fix_request(&req.body) {
            Err(message) => bad_request(state, &message),
            Ok(fix) => {
                let key = fix.coalesce_key();
                let deadline = fix.deadline_ms;
                let metrics = Arc::clone(&state.metrics);
                let work = move || run_fix_request(&fix, &metrics);
                match state.admit(&key, deadline, work) {
                    Err(response) => response,
                    Ok(ticket) => state.render_jsonl(ticket.wait()),
                }
            }
        },
        ("POST", "/v1/sweep") => match parse_sweep_request(&req.body) {
            Err(message) => bad_request(state, &message),
            Ok(sweep) => {
                let key = sweep.coalesce_key();
                let deadline = sweep.deadline_ms;
                let metrics = Arc::clone(&state.metrics);
                let cache_dir = state.cache_dir.clone();
                let cancel = Arc::clone(&state.cancel);
                let dispatcher = cluster_dispatcher(state);
                let id = state.registry.create();
                let runner_state = Arc::clone(state);
                let work = move || {
                    runner_state
                        .registry
                        .set(id, JobState::Running { progress: None });
                    run_sweep_request(&sweep, cache_dir, cancel, &metrics, dispatcher)
                };
                submit_async(state, id, &key, deadline, work)
            }
        },
        ("POST", "/v1/search") => match parse_search_request(&req.body) {
            Err(message) => bad_request(state, &message),
            Ok(search) => {
                let key = search.coalesce_key();
                let deadline = search.deadline_ms;
                let metrics = Arc::clone(&state.metrics);
                let cache_dir = state.cache_dir.clone();
                let cancel = Arc::clone(&state.cancel);
                let dispatcher = cluster_dispatcher(state);
                let id = state.registry.create();
                let runner_state = Arc::clone(state);
                let work = move || {
                    runner_state
                        .registry
                        .set(id, JobState::Running { progress: None });
                    let progress_state = Arc::clone(&runner_state);
                    let on_round: ProgressHook = Box::new(move |p| {
                        progress_state.registry.set(
                            id,
                            JobState::Running {
                                progress: Some(search_progress_json(p).render()),
                            },
                        );
                    });
                    run_search_request(
                        &search,
                        cache_dir,
                        cancel,
                        &metrics,
                        Some(on_round),
                        dispatcher,
                    )
                };
                submit_async(state, id, &key, deadline, work)
            }
        },
        ("GET", path) if path.starts_with("/v1/jobs/") => {
            let id = path["/v1/jobs/".len()..].parse::<u64>().ok();
            match id.and_then(|id| state.registry.status_body(id)) {
                Some(body) => Response::json(200, body),
                None => {
                    // Job ids are per-node: a fleet client that polls
                    // the wrong member gets told which peers could be
                    // the entry node, instead of a bare 404.
                    let peers: Vec<Json> = state
                        .cluster
                        .get()
                        .map(|node| node.peer_http_addrs().into_iter().map(Json::Str).collect())
                        .unwrap_or_default();
                    let body = format!(
                        "{}\n",
                        Json::obj(vec![
                            ("error", Json::Str("no such job on this node".to_owned())),
                            (
                                "hint",
                                Json::Str(
                                    "job ids are issued by the entry node; re-poll the node \
                                     that answered 202"
                                        .to_owned(),
                                ),
                            ),
                            ("peers", Json::Arr(peers)),
                        ])
                        .render()
                    );
                    Response::json(404, body)
                }
            }
        }
        ("POST", "/v1/shutdown") => {
            state.draining.store(true, Ordering::SeqCst);
            Response::json(
                200,
                format!(
                    "{}\n",
                    Json::obj(vec![("status", Json::Str("draining".to_owned()))]).render()
                ),
            )
        }
        (_, "/v1/health" | "/metrics" | "/v1/jobs" | "/v1/shutdown")
        | (
            "GET" | "PUT" | "DELETE",
            "/v1/sim" | "/v1/sweep" | "/v1/check" | "/v1/fix" | "/v1/search",
        ) => Response::json(405, State::error_body("method not allowed")),
        _ => Response::json(404, State::error_body("no such endpoint")),
    }
}

/// Admits an async job, spawns the waiter thread that resolves its
/// registry entry, and renders the `202` acceptance (or the rejection).
fn submit_async(
    state: &Arc<State>,
    id: u64,
    key: &str,
    deadline: Option<u64>,
    work: impl FnOnce() -> JobResult + Send + 'static,
) -> Response {
    match state.admit(key, deadline, work) {
        Err(response) => {
            // Rejected before acceptance: the id never names an accepted
            // job.
            state.registry.remove(id);
            response
        }
        Ok(ticket) => {
            let waiter_state = Arc::clone(state);
            let waiter = std::thread::Builder::new()
                .name(format!("hetmem-serve-waiter-{id}"))
                .spawn(move || {
                    let state = waiter_state;
                    match ticket.wait() {
                        Outcome::Done(Ok(result)) => {
                            state.registry.set(id, JobState::Done { result });
                        }
                        Outcome::Done(Err(error)) => {
                            state.metrics.bump(&state.metrics.jobs_failed);
                            state.registry.set(id, JobState::Failed { error });
                        }
                        Outcome::Panicked { message } => {
                            let error = format!("job panicked: {message}");
                            state.registry.set(id, JobState::Failed { error });
                        }
                        Outcome::DeadlineExceeded { waited_ms } => {
                            state.registry.set(id, JobState::TimedOut { waited_ms });
                        }
                    }
                })
                .expect("spawn waiter");
            let mut waiters = state.waiters.lock().expect("waiters lock");
            // Reap finished waiters now, as `accept_connections` reaps
            // handlers: an unjoined thread keeps its stack mapped, so
            // keeping every handle until drain leaks one per async job.
            for finished in waiters.extract_if(.., |waiter| waiter.is_finished()) {
                let _ = finished.join();
            }
            waiters.push(waiter);
            drop(waiters);
            Response::json(
                202,
                format!(
                    "{}\n",
                    Json::obj(vec![
                        ("job", Json::UInt(id)),
                        ("status", Json::Str("queued".to_owned())),
                        ("poll", Json::Str(format!("/v1/jobs/{id}"))),
                    ])
                    .render()
                ),
            )
        }
    }
}

fn bad_request(state: &Arc<State>, message: &str) -> Response {
    state.metrics.bump(&state.metrics.bad_requests);
    Response::json(400, State::error_body(message))
}

/// A running service bound to a socket.
pub struct Server {
    state: Arc<State>,
    addr: SocketAddr,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the pool and the accept thread, and returns the
    /// running server.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Io`] when the address cannot be bound or the
    /// cache directory cannot be opened.
    pub fn start(opts: &ServeOptions) -> Result<Server, SimError> {
        let listener = TcpListener::bind(&opts.addr)
            .map_err(|e| SimError::Io(format!("cannot bind {}: {e}", opts.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| SimError::Io(format!("cannot read bound address: {e}")))?;
        let cache = match &opts.cache_dir {
            Some(dir) => Some(Arc::new(DiskCache::open(dir).map_err(|e| {
                SimError::Io(format!("cannot open cache dir {}: {e}", dir.display()))
            })?)),
            None => None,
        };
        let workers = if opts.workers == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            opts.workers
        };
        let metrics = Arc::new(Metrics::default());
        let state = Arc::new(State {
            pool: ShardedPool::start(workers, opts.queue_depth.max(1), Arc::clone(&metrics)),
            registry: Registry::default(),
            metrics,
            cache,
            cache_dir: opts.cache_dir.clone(),
            draining: AtomicBool::new(false),
            cancel: Arc::new(AtomicBool::new(false)),
            waiters: Mutex::new(Vec::new()),
            cluster: OnceLock::new(),
            parts_active: AtomicUsize::new(0),
        });
        let accept_state = Arc::clone(&state);
        let accept = std::thread::Builder::new()
            .name("hetmem-serve-accept".to_owned())
            .spawn(move || accept_loop(&listener, &accept_state))
            .map_err(|e| SimError::Io(format!("cannot spawn accept thread: {e}")))?;
        // Clustering starts after the HTTP accept thread: the join
        // handshake requires the seed to probe this node's /v1/health.
        if opts.advertise.is_some() || opts.join.is_some() {
            match start_cluster(opts, addr, &state) {
                Ok(node) => {
                    let _ = state.cluster.set(node);
                }
                Err(err) => {
                    state.draining.store(true, Ordering::SeqCst);
                    wake_accept(addr);
                    let _ = accept.join();
                    return Err(err);
                }
            }
        }
        Ok(Server {
            state,
            addr,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port 0 to the ephemeral port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The cluster listener's address, when clustering is enabled —
    /// what `--join` on another node should name.
    #[must_use]
    pub fn cluster_addr(&self) -> Option<SocketAddr> {
        self.state.cluster.get().map(|node| node.listen_addr())
    }

    /// Asks the server to drain and stop, as `POST /v1/shutdown` does.
    pub fn shutdown(&self) {
        self.state.draining.store(true, Ordering::SeqCst);
        wake_accept(self.addr);
    }

    /// Blocks until the accept thread has finished the drain sequence.
    /// Returns the final metrics snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the accept thread panicked.
    pub fn wait(mut self) -> Arc<Metrics> {
        if let Some(handle) = self.accept.take() {
            handle.join().expect("accept thread");
        }
        Arc::clone(&self.state.metrics)
    }
}

/// Wakes a blocking `accept` with a throwaway loopback connection.
fn wake_accept(addr: SocketAddr) {
    if let Ok(stream) = TcpStream::connect(addr) {
        drop(stream);
    }
}

fn accept_loop(listener: &TcpListener, state: &Arc<State>) {
    let handlers = accept_connections(listener, state);
    drain(state, handlers);
}

/// Accepts connections until the server starts draining, spawning one
/// handler thread per connection. Returns the handles of the handler
/// threads that may still be running.
fn accept_connections(
    listener: &TcpListener,
    state: &Arc<State>,
) -> Vec<std::thread::JoinHandle<()>> {
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        let Ok((stream, _)) = listener.accept() else {
            break;
        };
        // The wake-up connection (or a late client) is still handled, so a
        // late client gets a 503; then accepting stops.
        let draining = state.draining.load(Ordering::SeqCst);
        // Reap finished connections now: an unjoined thread keeps its
        // stack mapped, so a long-lived server that kept every handle until
        // drain would run out of mappings after ~16 k connections.
        for finished in handlers.extract_if(.., |handler| handler.is_finished()) {
            let _ = finished.join();
        }
        let conn_state = Arc::clone(state);
        handlers.push(spawn_handler(stream, conn_state));
        if draining {
            break;
        }
    }
    handlers
}

/// The drain sequence, run once no new connections are accepted.
fn drain(state: &Arc<State>, handlers: Vec<std::thread::JoinHandle<()>>) {
    // 1. Every connection already accepted runs to completion (their
    //    jobs are in the pool, which is still live).
    for handler in handlers {
        let _ = handler.join();
    }
    // 2. The pool finishes every accepted job and stops.
    state.pool.drain();
    // 3. Async waiters observe their (now fulfilled) tickets.
    let waiters = std::mem::take(&mut *state.waiters.lock().expect("waiters lock"));
    for waiter in waiters {
        let _ = waiter.join();
    }
    // 4. Leave the cluster ring (peers rehash immediately) and stop the
    //    membership threads.
    if let Some(node) = state.cluster.get() {
        node.shutdown();
    }
    eprintln!(
        "hetmem-serve: drained ({} jobs completed, {} coalesced, {} rejected, {} timed out)",
        state.metrics.jobs_completed.load(Ordering::Relaxed),
        state.metrics.coalesced_jobs.load(Ordering::Relaxed),
        state.metrics.queue_rejections.load(Ordering::Relaxed),
        state.metrics.deadline_timeouts.load(Ordering::Relaxed),
    );
}

fn spawn_handler(mut stream: TcpStream, state: Arc<State>) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("hetmem-serve-conn".to_owned())
        .spawn(move || {
            // An idle or stalled client must not pin this thread: the
            // drain joins every handler before it can finish.
            let _ = stream.set_read_timeout(Some(CONN_TIMEOUT));
            let _ = stream.set_write_timeout(Some(CONN_TIMEOUT));
            let response = match read_request(&mut stream) {
                Ok(request) => {
                    let response = handle(&state, &request);
                    let shutdown = request.method == "POST" && request.path == "/v1/shutdown";
                    response.send(&mut stream);
                    if shutdown {
                        // Wake the accept loop after answering so the
                        // client sees the 200 before the drain starts.
                        if let Ok(addr) = stream.local_addr() {
                            wake_accept(addr);
                        }
                    }
                    return;
                }
                Err(HttpError::Io(_)) => return, // wake-up or dropped client
                Err(HttpError::TooLarge(n)) => Response::json(
                    413,
                    State::error_body(&format!("body of {n} bytes exceeds limit")),
                ),
                Err(HttpError::BadRequest(message)) => {
                    state.metrics.bump(&state.metrics.bad_requests);
                    Response::json(400, State::error_body(&message))
                }
            };
            response.send(&mut stream);
        })
        .expect("spawn handler")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let opts = ServeOptions::default();
        assert_eq!(opts.queue_depth, 32);
        assert!(opts.cache_dir.is_none());
        assert!(opts.addr.contains(':'));
        assert!(opts.advertise.is_none());
        assert!(opts.join.is_none());
        assert_eq!(opts.heartbeat_ms, 500);
    }

    fn draining_state() -> Arc<State> {
        let state = state_with_workers(1);
        state.draining.store(true, Ordering::SeqCst);
        state
    }

    fn state_with_workers(workers: usize) -> Arc<State> {
        let metrics = Arc::new(Metrics::default());
        Arc::new(State {
            pool: ShardedPool::start(workers, 1, Arc::clone(&metrics)),
            registry: Registry::default(),
            metrics,
            cache: None,
            cache_dir: None,
            draining: AtomicBool::new(false),
            cancel: Arc::new(AtomicBool::new(false)),
            waiters: Mutex::new(Vec::new()),
            cluster: OnceLock::new(),
            parts_active: AtomicUsize::new(0),
        })
    }

    #[test]
    fn finished_connection_threads_are_reaped_and_drain_completes() {
        use std::io::{Read as _, Write as _};
        let state = state_with_workers(1);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let accept_state = Arc::clone(&state);
        let acceptor = std::thread::spawn(move || accept_connections(&listener, &accept_state));
        let connections = 300;
        for _ in 0..connections {
            let mut conn = TcpStream::connect(addr).expect("connect");
            conn.write_all(b"GET /v1/health HTTP/1.1\r\n\r\n")
                .expect("write");
            let mut reply = String::new();
            conn.read_to_string(&mut reply).expect("read");
            assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        }
        state.draining.store(true, Ordering::SeqCst);
        wake_accept(addr);
        let handlers = acceptor.join().expect("accept thread");
        // Sequential clients leave at most a few handler threads unfinished
        // at any accept; every finished one was reaped along the way.
        assert!(
            handlers.len() <= 8,
            "{} of {connections} handles retained",
            handlers.len()
        );
        drain(&state, handlers);
        assert_eq!(state.metrics.requests_total.load(Ordering::Relaxed), 300);
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".to_owned(),
            path: path.to_owned(),
            query: None,
            headers: Vec::new(),
            body: String::new(),
        }
    }

    #[test]
    fn finished_async_waiters_are_reaped_and_drain_completes() {
        let state = state_with_workers(1);
        let sweeps = 200;
        for _ in 0..sweeps {
            let submit = Request {
                method: "POST".to_owned(),
                path: "/v1/sweep".to_owned(),
                query: None,
                headers: Vec::new(),
                body: "{\"kernels\":[\"reduction\"],\"systems\":[\"fusion\"],\
                       \"spaces\":[],\"scales\":[1024]}"
                    .to_owned(),
            };
            let accepted = route(&state, &submit);
            assert_eq!(accepted.status, 202, "{}", accepted.body);
            let id = hetmem_xplore::json::parse(&accepted.body)
                .ok()
                .and_then(|v| v.get("job").and_then(Json::as_u64))
                .expect("a job id");
            let poll = get(&format!("/v1/jobs/{id}"));
            while !route(&state, &poll).body.contains("\"status\":\"done\"") {
                std::thread::yield_now();
            }
        }
        // Sequential jobs leave at most a few waiters unfinished at any
        // submit; every finished one was reaped along the way.
        let retained = state.waiters.lock().expect("waiters lock").len();
        assert!(
            retained <= 8,
            "{retained} of {sweeps} waiter handles retained"
        );
        drain(&state, Vec::new());
        assert!(state.waiters.lock().expect("waiters lock").is_empty());
    }

    #[test]
    fn health_reports_not_ready_while_draining() {
        let state = draining_state();
        let response = route(&state, &get("/v1/health"));
        assert_eq!(response.status, 503);
        assert!(response.body.contains("\"live\":true"), "{}", response.body);
        assert!(
            response.body.contains("\"ready\":false"),
            "{}",
            response.body
        );
        assert!(
            response
                .headers
                .contains(&("retry-after".to_owned(), "1".to_owned())),
            "503 must tell the client when to retry"
        );
        state.pool.drain();
    }

    #[test]
    fn drain_rejections_carry_retry_after() {
        let state = draining_state();
        let request = Request {
            method: "POST".to_owned(),
            path: "/v1/sim".to_owned(),
            query: None,
            headers: Vec::new(),
            body: "{\"kernel\":\"reduction\",\"system\":\"fusion\",\"scale\":512}".to_owned(),
        };
        let response = route(&state, &request);
        assert_eq!(response.status, 503);
        assert!(
            response
                .headers
                .contains(&("retry-after".to_owned(), "1".to_owned())),
            "the drain 503 must carry Retry-After like the 429 path"
        );
        state.pool.drain();
    }

    #[test]
    fn a_panicking_sweep_part_releases_its_slot() {
        use std::sync::Barrier;
        let workers = 2;
        let state = state_with_workers(workers);
        // More panics than slots: each one must hand its slot back.
        for _ in 0..=workers {
            let response = run_part(&state, |_| panic!("part blew up"));
            assert_eq!(response.status, 500);
            assert!(
                response.body.contains("job panicked: part blew up"),
                "{}",
                response.body
            );
        }
        let panics = state.metrics.worker_panics.load(Ordering::Relaxed);
        assert_eq!(panics, workers as u64 + 1);
        assert_eq!(state.parts_active.load(Ordering::SeqCst), 0);

        // The node still admits `workers` concurrent parts, and no more.
        let entered = Arc::new(Barrier::new(workers + 1));
        let release = Arc::new(Barrier::new(workers + 1));
        let parts: Vec<_> = (0..workers)
            .map(|_| {
                let (state, entered, release) = (
                    Arc::clone(&state),
                    Arc::clone(&entered),
                    Arc::clone(&release),
                );
                std::thread::spawn(move || {
                    run_part(&state, |_| {
                        entered.wait();
                        release.wait();
                        Ok("{}\n".to_owned())
                    })
                    .status
                })
            })
            .collect();
        entered.wait();
        assert_eq!(run_part(&state, |_| Ok(String::new())).status, 429);
        release.wait();
        for part in parts {
            assert_eq!(part.join().expect("part thread"), 200);
        }
        assert_eq!(state.parts_active.load(Ordering::SeqCst), 0);
        state.pool.drain();
    }
}
