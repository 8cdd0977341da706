//! End-to-end tests of `hetmem-serve` over real loopback sockets: an
//! in-process [`Server`] driven by raw `TcpStream` clients, plus the
//! `hetmem` binary for the byte-identity and cross-process cache checks.

use hetmem_serve::http::CONN_TIMEOUT;
use hetmem_serve::{ServeOptions, Server};
use hetmem_xplore::json::{parse, Json};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;

// ---------- a tiny HTTP/1.1 client ----------

struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn json(&self) -> Json {
        parse(self.body.trim_end()).unwrap_or_else(|e| panic!("body is JSON ({e}): {}", self.body))
    }
}

fn send(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> Reply {
    let mut conn = TcpStream::connect(addr).expect("connect");
    let mut request = format!("{method} {path} HTTP/1.1\r\nhost: test\r\n");
    if let Some(body) = body {
        request.push_str(&format!(
            "content-type: application/json\r\ncontent-length: {}\r\n",
            body.len()
        ));
    }
    request.push_str("\r\n");
    if let Some(body) = body {
        request.push_str(body);
    }
    conn.write_all(request.as_bytes()).expect("write request");
    // The server answers `connection: close`, so EOF delimits the reply.
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read reply");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let mut lines = head.lines();
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("status line in {head:?}"));
    let headers = lines
        .map(|line| {
            let (k, v) = line.split_once(':').expect("header line");
            (k.trim().to_ascii_lowercase(), v.trim().to_owned())
        })
        .collect();
    Reply {
        status,
        headers,
        body: body.to_owned(),
    }
}

fn start(workers: usize, queue_depth: usize, cache_dir: Option<PathBuf>) -> Server {
    Server::start(&ServeOptions {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        queue_depth,
        cache_dir,
        ..ServeOptions::default()
    })
    .expect("server starts")
}

fn counter(metrics: &Json, name: &str) -> u64 {
    metrics
        .get(name)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("metric {name} in {metrics:?}"))
}

// ---------- plumbing: health, metrics, routing ----------

#[test]
fn healthz_metrics_and_routing_errors() {
    let server = start(2, 32, None);
    let addr = server.local_addr();

    let health = send(addr, "GET", "/v1/health", None);
    assert_eq!(health.status, 200);
    assert_eq!(health.header("content-type"), Some("application/json"));
    assert_eq!(
        health.json().get("status").and_then(Json::as_str),
        Some("ok")
    );

    assert_eq!(send(addr, "GET", "/no-such-endpoint", None).status, 404);
    // The pre-versioned liveness route is gone; only /v1/health answers.
    assert_eq!(send(addr, "GET", "/healthz", None).status, 404);
    assert_eq!(send(addr, "GET", "/v1/sim", None).status, 405);
    let bad = send(addr, "POST", "/v1/sim", Some("{\"kernel\":\"nope\"}"));
    assert_eq!(bad.status, 400);
    assert!(bad.body.contains("error"), "{}", bad.body);
    // A removed execution mode is a typed rejection naming what remains.
    let removed = send(
        addr,
        "POST",
        "/v1/sim",
        Some("{\"kernel\":\"reduction\",\"system\":\"fusion\",\"mode\":\"event-driven\"}"),
    );
    assert_eq!(removed.status, 400);
    assert!(removed.body.contains("accurate"), "{}", removed.body);

    let metrics = send(addr, "GET", "/metrics", None);
    assert_eq!(metrics.status, 200);
    let v = metrics.json();
    // Six requests so far plus this one, which counts itself.
    assert_eq!(counter(&v, "requests_total"), 7);
    assert_eq!(counter(&v, "bad_requests"), 2);
    assert_eq!(counter(&v, "workers"), 2);
    assert!(v.get("latency").is_some());
    assert!(v.get("sim_events").is_some());

    server.shutdown();
    server.wait();
}

#[test]
fn a_foreign_sampling_geometry_is_a_400_and_the_sampled_label_round_trips() {
    let server = start(2, 32, None);
    let addr = server.local_addr();
    let sim = |mode: &str| {
        send(
            addr,
            "POST",
            "/v1/sim",
            Some(&format!(
                "{{\"kernel\":\"reduction\",\"system\":\"fusion\",\"scale\":64,\"mode\":\"{mode}\"}}"
            )),
        )
    };
    let foreign = sim("sampled:1000:100");
    assert_eq!(foreign.status, 400);
    assert!(
        foreign.body.contains("accurate|sampled"),
        "{}",
        foreign.body
    );
    let search = |mode: &str| {
        send(
            addr,
            "POST",
            "/v1/search",
            Some(&format!(
                "{{\"kernels\":[\"reduction\"],\"systems\":[\"fusion\"],\"spaces\":[],\
                 \"scales\":[512],\"budget\":1,\"seed\":7,\"mode\":\"{mode}\"}}"
            )),
        )
    };
    let foreign = search("sampled:1000:100");
    assert_eq!(foreign.status, 400);
    assert!(
        foreign.body.contains("accurate|sampled"),
        "{}",
        foreign.body
    );

    // The label still names the one sampled mode.
    let labelled = sim("sampled:1536:512");
    assert_eq!(labelled.status, 200);
    assert_eq!(labelled.body, sim("sampled").body);
    assert!(
        !labelled.body.contains("\"fast_forwarded_ticks\":0,"),
        "{}",
        labelled.body
    );
    assert_eq!(search("sampled:1536:512").status, 202);
    server.shutdown();
    server.wait();
}

#[test]
fn v1_health_reports_live_and_ready() {
    let server = start(1, 8, None);
    let health = send(server.local_addr(), "GET", "/v1/health", None);
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"live\":true"), "{}", health.body);
    assert!(health.body.contains("\"ready\":true"), "{}", health.body);
    server.shutdown();
    server.wait();
}

// ---------- /v1/sim is byte-identical to the CLI ----------

#[test]
fn sim_response_matches_cli_json_byte_for_byte() {
    // The CLI path: dump the trace, then simulate it with --format json.
    let trace = std::process::Command::new(env!("CARGO_BIN_EXE_hetmem"))
        .args(["trace", "dct", "--scale", "512"])
        .output()
        .expect("trace runs");
    assert!(trace.status.success());
    let dir = std::env::temp_dir().join(format!("hetmem-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("dct.hmt");
    std::fs::write(&path, &trace.stdout).expect("write trace");
    let cli = std::process::Command::new(env!("CARGO_BIN_EXE_hetmem"))
        .args([
            "sim",
            path.to_str().expect("utf8"),
            "gmac",
            "--format",
            "json",
        ])
        .output()
        .expect("sim runs");
    assert!(
        cli.status.success(),
        "{}",
        String::from_utf8_lossy(&cli.stderr)
    );

    // The service path: same cell, one POST.
    let server = start(2, 32, None);
    let reply = send(
        server.local_addr(),
        "POST",
        "/v1/sim",
        Some("{\"kernel\":\"dct\",\"system\":\"gmac\",\"scale\":512}"),
    );
    assert_eq!(reply.status, 200);
    assert_eq!(reply.header("content-type"), Some("application/json"));
    assert_eq!(
        reply.body.as_bytes(),
        cli.stdout.as_slice(),
        "service body must be byte-identical to `hetmem sim --format json`"
    );
    server.shutdown();
    server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------- the content-addressed cache is shared and observable ----------

#[test]
fn repeated_requests_hit_the_cache_shared_with_cli_sweeps() {
    let dir = std::env::temp_dir().join(format!("hetmem-serve-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = start(2, 32, Some(dir.clone()));
    let addr = server.local_addr();
    let body = "{\"kernel\":\"reduction\",\"system\":\"fusion\",\"scale\":512}";

    let cold = send(addr, "POST", "/v1/sim", Some(body));
    let warm = send(addr, "POST", "/v1/sim", Some(body));
    assert_eq!(cold.status, 200);
    assert_eq!(warm.status, 200);
    assert_eq!(cold.body, warm.body, "cache hits reproduce live bytes");

    let v = send(addr, "GET", "/metrics", None).json();
    assert_eq!(counter(&v, "cache_misses"), 1, "first request simulates");
    assert_eq!(
        counter(&v, "cache_hits"),
        1,
        "second request is served from cache"
    );
    assert_eq!(counter(&v, "jobs_completed"), 2);
    // Only the live run feeds the event aggregate; the hit adds nothing.
    let dram = v
        .get("sim_events")
        .and_then(|e| e.get("dram_requests"))
        .and_then(Json::as_u64)
        .expect("dram_requests");
    assert!(dram > 0, "live run contributed simulator events");

    server.shutdown();
    server.wait();

    // The same directory warm-starts a CLI sweep over the same cell: the
    // service and `hetmem sweep --cache-dir` share one content-addressed
    // result space.
    let sweep = std::process::Command::new(env!("CARGO_BIN_EXE_hetmem"))
        .args([
            "sweep",
            "--kernel",
            "reduction",
            "--system",
            "fusion",
            "--scale",
            "512",
            "--cache-dir",
            dir.to_str().expect("utf8"),
            "--format",
            "json",
        ])
        .output()
        .expect("sweep runs");
    assert!(sweep.status.success());
    let stats = String::from_utf8_lossy(&sweep.stderr).into_owned();
    assert!(
        stats.contains("1 cache hits, 0 misses"),
        "the CLI sweep must reuse the service's cached record: {stats}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------- deadlines ----------

#[test]
fn expired_deadline_is_answered_with_a_typed_504() {
    let server = start(1, 4, None);
    let reply = send(
        server.local_addr(),
        "POST",
        "/v1/sim",
        Some("{\"kernel\":\"reduction\",\"system\":\"fusion\",\"scale\":512,\"deadline_ms\":0}"),
    );
    assert_eq!(reply.status, 504);
    let v = reply.json();
    let message = v.get("error").and_then(Json::as_str).expect("error field");
    assert!(message.contains("deadline exceeded"), "{message}");
    assert!(v.get("waited_ms").and_then(Json::as_u64).is_some());

    let v = send(server.local_addr(), "GET", "/metrics", None).json();
    assert_eq!(counter(&v, "deadline_timeouts"), 1);
    assert_eq!(counter(&v, "jobs_completed"), 0, "the job never executed");
    server.shutdown();
    server.wait();
}

// ---------- the static verifier endpoint ----------

#[test]
fn check_endpoint_streams_the_verifier_jsonl() {
    let server = start(1, 4, None);
    let reply = send(
        server.local_addr(),
        "POST",
        "/v1/check",
        Some("{\"targets\":[\"reduction\",\"k-mean\"],\"models\":[\"dis\",\"pas\"]}"),
    );
    assert_eq!(reply.status, 200);
    assert_eq!(reply.header("content-type"), Some("application/x-ndjson"));
    let summary = parse(reply.body.lines().last().expect("summary line")).expect("valid json");
    assert_eq!(summary.get("kind").and_then(Json::as_str), Some("summary"));
    assert_eq!(
        summary.get("checked").and_then(Json::as_u64),
        Some(4),
        "two targets under two models"
    );

    let unknown = send(
        server.local_addr(),
        "POST",
        "/v1/check",
        Some("{\"targets\":[\"no-such-kernel\"]}"),
    );
    assert_eq!(unknown.status, 500, "unknown targets fail at execution");
    server.shutdown();
    server.wait();
}

// ---------- the guided-search endpoint ----------

#[test]
fn search_endpoint_runs_async_and_reports_the_frontier() {
    let server = start(2, 32, None);
    let addr = server.local_addr();
    let body = "{\"kernels\":[\"reduction\"],\"systems\":[\"fusion\",\"cuda\"],\"spaces\":[],\
                \"scales\":[512],\"budget\":2,\"seed\":7,\"strategy\":\"random\"}";
    let accepted = send(addr, "POST", "/v1/search", Some(body));
    assert_eq!(accepted.status, 202);
    let id = accepted
        .json()
        .get("job")
        .and_then(Json::as_u64)
        .expect("job id");

    // Poll to completion; running states may carry a progress object with
    // the frontier-so-far.
    let poll = format!("/v1/jobs/{id}");
    let result = loop {
        let status = send(addr, "GET", &poll, None).json();
        match status.get("status").and_then(Json::as_str) {
            Some("done") => break status.get("result").cloned().expect("result"),
            Some("running") => {
                if let Some(progress) = status.get("progress") {
                    assert!(progress.get("frontier").is_some(), "{progress:?}");
                }
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            Some("queued") => std::thread::sleep(std::time::Duration::from_millis(2)),
            other => panic!("unexpected search state: {other:?}"),
        }
    };
    assert_eq!(
        result
            .get("search")
            .and_then(|s| s.get("seed"))
            .and_then(Json::as_u64),
        Some(7)
    );
    let Some(Json::Arr(frontier)) = result.get("frontier").cloned() else {
        panic!("frontier array in {result:?}");
    };
    assert!(!frontier.is_empty());

    // Contract errors: malformed bodies are 400, wrong methods 405.
    assert_eq!(
        send(addr, "POST", "/v1/search", Some("{\"budget\":0}")).status,
        400
    );
    // A removed strategy is a typed rejection naming what remains.
    let removed = send(
        addr,
        "POST",
        "/v1/search",
        Some("{\"strategy\":\"evolve\"}"),
    );
    assert_eq!(removed.status, 400);
    assert!(removed.body.contains("random|halving"), "{}", removed.body);
    assert_eq!(send(addr, "GET", "/v1/search", None).status, 405);

    let v = send(addr, "GET", "/metrics", None).json();
    assert_eq!(counter(&v, "searches_completed"), 1);
    assert_eq!(counter(&v, "search_evaluations"), 2);
    assert!(counter(&v, "frontier_points") >= 1);

    server.shutdown();
    server.wait();
}

#[test]
fn an_explicitly_empty_objective_list_is_a_400() {
    let server = start(1, 4, None);
    let reply = send(
        server.local_addr(),
        "POST",
        "/v1/search",
        Some("{\"objectives\":[]}"),
    );
    assert_eq!(reply.status, 400, "{}", reply.body);
    assert!(reply.body.contains("no objectives given"), "{}", reply.body);
    server.shutdown();
    server.wait();
}

// ---------- admission control, coalescing, graceful drain ----------

/// One worker, queue depth one. A long sweep occupies the worker; an
/// identical pair of short sweeps shows coalescing (the second consumes
/// no queue slot); a sim submitted while the slot is taken is answered
/// 429 with `Retry-After`; and the drain completes every accepted job.
#[test]
fn burst_is_rejected_jobs_coalesce_and_drain_completes_accepted_work() {
    let server = start(1, 1, None);
    let addr = server.local_addr();

    // Scale 1 is the full-size k-means input: seconds of work, enough to
    // hold the single worker while the rest of the test runs.
    let heavy = "{\"kernels\":[\"kmeans\"],\"systems\":[\"fusion\"],\"spaces\":[],\"scales\":[1]}";
    let accepted = send(addr, "POST", "/v1/sweep", Some(heavy));
    assert_eq!(accepted.status, 202);
    let v = accepted.json();
    let heavy_id = v.get("job").and_then(Json::as_u64).expect("job id");
    assert_eq!(v.get("status").and_then(Json::as_str), Some("queued"));
    assert_eq!(
        v.get("poll").and_then(Json::as_str),
        Some(format!("/v1/jobs/{heavy_id}").as_str())
    );

    // Wait until the worker has actually started it (observable state,
    // not a timing guess).
    let poll = format!("/v1/jobs/{heavy_id}");
    loop {
        let status = send(addr, "GET", &poll, None).json();
        match status.get("status").and_then(Json::as_str) {
            Some("running") => break,
            Some("queued") => std::thread::sleep(std::time::Duration::from_millis(2)),
            other => panic!("unexpected state before drain: {other:?}"),
        }
    }

    // The queue's single slot takes one short sweep...
    let small = "{\"kernels\":[\"dct\"],\"systems\":[\"fusion\"],\"spaces\":[],\"scales\":[512]}";
    let queued = send(addr, "POST", "/v1/sweep", Some(small));
    assert_eq!(queued.status, 202);
    let queued_id = queued.json().get("job").and_then(Json::as_u64).expect("id");

    // ...an identical submission coalesces onto it (no second slot)...
    let twin = send(addr, "POST", "/v1/sweep", Some(small));
    assert_eq!(twin.status, 202);
    let twin_id = twin.json().get("job").and_then(Json::as_u64).expect("id");
    assert_ne!(queued_id, twin_id, "coalesced jobs keep distinct ids");

    // ...and a distinct job now bursts past the depth: 429, Retry-After,
    // nothing queued.
    let rejected = send(
        addr,
        "POST",
        "/v1/sim",
        Some("{\"kernel\":\"mergesort\",\"system\":\"gmac\",\"scale\":512}"),
    );
    assert_eq!(rejected.status, 429);
    assert_eq!(rejected.header("retry-after"), Some("1"));
    assert!(rejected.body.contains("queue full"), "{}", rejected.body);

    assert_eq!(send(addr, "GET", "/v1/jobs/999", None).status, 404);
    let v = send(addr, "GET", "/metrics", None).json();
    assert_eq!(counter(&v, "coalesced_jobs"), 1);
    assert_eq!(counter(&v, "queue_rejections"), 1);

    // Graceful drain: the shutdown is acknowledged while work is still
    // in flight, and wait() returns only after every accepted job ran.
    let bye = send(addr, "POST", "/v1/shutdown", None);
    assert_eq!(bye.status, 200);
    assert_eq!(
        bye.json().get("status").and_then(Json::as_str),
        Some("draining")
    );
    let metrics = server.wait();
    use std::sync::atomic::Ordering;
    assert_eq!(
        metrics.jobs_completed.load(Ordering::Relaxed),
        2,
        "the heavy sweep and the (single) coalesced pair both completed"
    );
    assert_eq!(metrics.coalesced_jobs.load(Ordering::Relaxed), 1);
    assert_eq!(metrics.queue_rejections.load(Ordering::Relaxed), 1);
    assert_eq!(metrics.jobs_failed.load(Ordering::Relaxed), 0);
}

/// A client that connects and never sends a byte is dropped after the
/// connection timeout, so it cannot hold `/v1/shutdown`'s drain open.
#[test]
fn an_idle_connection_cannot_hold_the_drain() {
    let server = start(1, 4, None);
    let addr = server.local_addr();
    // Accepted before the shutdown request, so the drain must join its
    // handler thread.
    let mut idle = TcpStream::connect(addr).expect("idle client connects");
    assert_eq!(send(addr, "POST", "/v1/shutdown", None).status, 200);
    let (done, drained) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.wait();
        let _ = done.send(());
    });
    let limit = CONN_TIMEOUT + std::time::Duration::from_secs(10);
    assert!(
        drained.recv_timeout(limit).is_ok(),
        "an idle client held the drain past {limit:?}"
    );
    // The server hung up on the idle client without answering it.
    let mut rest = Vec::new();
    let _ = idle.read_to_end(&mut rest);
    assert!(rest.is_empty(), "{}", String::from_utf8_lossy(&rest));
}

#[test]
fn fix_endpoint_streams_the_optimizer_jsonl_and_bumps_the_fix_metrics() {
    let server = start(1, 4, None);
    let addr = server.local_addr();
    let reply = send(
        addr,
        "POST",
        "/v1/fix",
        Some("{\"targets\":[\"reduction\",\"k-mean\"],\"models\":[\"dis\",\"pas\"]}"),
    );
    assert_eq!(reply.status, 200);
    assert_eq!(reply.header("content-type"), Some("application/x-ndjson"));
    let summary = parse(reply.body.lines().last().expect("summary line")).expect("valid json");
    assert_eq!(summary.get("kind").and_then(Json::as_str), Some("summary"));
    assert_eq!(
        summary.get("fixed").and_then(Json::as_u64),
        Some(4),
        "two targets under two models"
    );
    // k-mean under PAS is the pair with removable ownership round-trips.
    assert_eq!(
        summary.get("transfers_removed").and_then(Json::as_u64),
        Some(4)
    );

    let metrics = send(addr, "GET", "/metrics", None).json();
    assert_eq!(counter(&metrics, "fixes_completed"), 4);
    assert_eq!(counter(&metrics, "transfers_removed"), 4);

    assert_eq!(send(addr, "GET", "/v1/fix", None).status, 405);
    let unknown = send(
        addr,
        "POST",
        "/v1/fix",
        Some("{\"targets\":[\"no-such-kernel\"]}"),
    );
    assert_eq!(unknown.status, 500, "unknown targets fail at execution");
    let malformed = send(addr, "POST", "/v1/fix", Some("{\"targets\":[]}"));
    assert_eq!(malformed.status, 400);
    server.shutdown();
    server.wait();
}
