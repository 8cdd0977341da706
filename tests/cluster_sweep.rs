//! Distributed sweep/search differentials: a design-space batch scattered
//! across a loopback fleet must merge to bytes identical to a single-node
//! run — for any node count, any worker count, cold or warm caches, and
//! even when an owner node is killed mid-fleet. Distribution is proven
//! through the nodes' own `sweep_parts_in` counters, not assumed.

use hetmem_cluster::FleetDispatcher;
use hetmem_search::{run_search, Objective, SearchConfig, SearchOptions, SearchSpace, Strategy};
use hetmem_serve::{ServeOptions, Server};
use hetmem_xplore::json::{parse, Json};
use hetmem_xplore::{run_jobs, to_jsonl, work_units, Job, JobDispatcher, SweepOptions, SweepSpec};
use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hetmem::core::experiment::ExperimentConfig;

// ---------- a tiny HTTP/1.1 client ----------

struct Reply {
    status: u16,
    body: String,
}

impl Reply {
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
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read reply");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let status = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("status line in {head:?}"));
    Reply {
        status,
        body: body.to_owned(),
    }
}

/// A node's cluster counter, read off the plain `/metrics` body.
fn cluster_counter(addr: SocketAddr, name: &str) -> u64 {
    let v = send(addr, "GET", "/metrics", None).json();
    v.get("cluster")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("cluster counter {name}"))
}

fn node_counter(addr: SocketAddr, name: &str) -> u64 {
    let v = send(addr, "GET", "/metrics", None).json();
    v.get(name)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("counter {name}"))
}

// ---------- fleet plumbing ----------

fn temp_dir(tag: &str, i: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hetmem-clsweep-{tag}-{}-{i}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn options(workers: usize, cache: Option<PathBuf>) -> ServeOptions {
    ServeOptions {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        queue_depth: 32,
        heartbeat_ms: 100,
        cache_dir: cache,
        ..ServeOptions::default()
    }
}

fn seed_node(opts: ServeOptions) -> Server {
    Server::start(&ServeOptions {
        advertise: Some("127.0.0.1:0".to_owned()),
        ..opts
    })
    .expect("seed node starts")
}

fn join_node(seed: &Server, opts: ServeOptions) -> Server {
    let seed_addr = seed.cluster_addr().expect("seed is clustered").to_string();
    Server::start(&ServeOptions {
        join: Some(seed_addr),
        ..opts
    })
    .expect("joining node starts")
}

fn wait_until(what: &str, mut probe: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !probe() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn wait_for_membership(nodes: &[&Server], n: u64) {
    for node in nodes {
        let http = node.local_addr();
        wait_until(&format!("{http} to see {n} members"), || {
            let v = send(http, "GET", "/metrics?cluster=1", None).json();
            v.get("nodes").and_then(Json::as_u64) == Some(n)
        });
    }
}

/// Starts `n` clustered serve nodes, each with its own fresh disk cache.
fn start_fleet(tag: &str, n: usize, workers: usize) -> (Vec<Server>, Vec<PathBuf>) {
    let dirs: Vec<PathBuf> = (0..n).map(|i| temp_dir(tag, i)).collect();
    let mut nodes = vec![seed_node(options(workers, Some(dirs[0].clone())))];
    for dir in dirs.iter().skip(1) {
        let next = join_node(&nodes[0], options(workers, Some(dir.clone())));
        nodes.push(next);
    }
    let refs: Vec<&Server> = nodes.iter().collect();
    wait_for_membership(&refs, n as u64);
    (nodes, dirs)
}

fn shutdown_all(nodes: Vec<Server>, dirs: Vec<PathBuf>) {
    for node in &nodes {
        node.shutdown();
    }
    for node in nodes {
        node.wait();
    }
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

fn fleet_dispatcher(seed: &Server) -> Arc<dyn JobDispatcher> {
    let addr = seed.cluster_addr().expect("clustered").to_string();
    Arc::new(FleetDispatcher::connect(&addr).expect("fleet connect"))
}

/// The full kernel x model grid at seven small trace scales: 42
/// (kernel, scale) units. The ring places whole units, so one scale's
/// six units leave some owner of a 3-node fleet empty in about a third of
/// port draws; 42 units reach every owner.
fn grid() -> Vec<Job> {
    SweepSpec {
        scales: vec![8, 16, 32, 64, 128, 256, 512],
        ..SweepSpec::full(512)
    }
    .expand()
}

/// Asserts that every node of the fleet executed at least one part.
fn assert_every_owner_got_a_part(nodes: &[Server]) {
    for node in nodes {
        let parts = cluster_counter(node.local_addr(), "sweep_parts_in");
        assert!(parts >= 1, "owner {} received no part", node.local_addr());
    }
}

fn run_distributed(jobs: &[Job], workers: usize, dispatcher: Arc<dyn JobDispatcher>) -> String {
    let opts = SweepOptions::builder()
        .workers(workers)
        .dispatcher(Some(dispatcher))
        .build();
    let out = run_jobs(jobs, &ExperimentConfig::paper(), &opts).expect("distributed sweep");
    to_jsonl(&out.records)
}

fn run_local(jobs: &[Job], workers: usize) -> String {
    let opts = SweepOptions::builder().workers(workers).build();
    let out = run_jobs(jobs, &ExperimentConfig::paper(), &opts).expect("local sweep");
    to_jsonl(&out.records)
}

// ---------- sweep byte identity across fleet sizes and cache state ----------

#[test]
fn distributed_sweep_bytes_match_single_node_for_any_fleet_shape() {
    let jobs = grid();
    let baseline = run_local(&jobs, 1);
    assert_eq!(
        baseline,
        run_local(&jobs, 4),
        "local worker count must not move bytes"
    );

    // 2 nodes x 1 serve worker: cold scatter (4 entry workers), then a
    // warm rerun (1 entry worker) answered from the owners' disk caches.
    let (nodes, dirs) = start_fleet("two", 2, 1);
    let dispatcher = fleet_dispatcher(&nodes[0]);
    assert_eq!(run_distributed(&jobs, 4, Arc::clone(&dispatcher)), baseline);
    assert_every_owner_got_a_part(&nodes);
    assert_eq!(run_distributed(&jobs, 1, dispatcher), baseline);
    let hits: u64 = nodes
        .iter()
        .map(|n| node_counter(n.local_addr(), "cache_hits"))
        .sum();
    assert!(hits >= 1, "the warm rerun must hit remote disk caches");
    shutdown_all(nodes, dirs);

    // 3 nodes x 4 serve workers: cold with 1 entry worker, warm with 4.
    let (nodes, dirs) = start_fleet("three", 3, 4);
    let dispatcher = fleet_dispatcher(&nodes[0]);
    assert_eq!(run_distributed(&jobs, 1, Arc::clone(&dispatcher)), baseline);
    assert_every_owner_got_a_part(&nodes);
    // Each unit went whole to one owner, which simulated its compute once
    // and replayed it for the unit's other jobs.
    let live: u64 = nodes
        .iter()
        .map(|n| {
            node_counter(n.local_addr(), "cache_misses") - node_counter(n.local_addr(), "replayed")
        })
        .sum();
    assert_eq!(live, work_units(&jobs, 0..jobs.len()).len() as u64);
    assert_eq!(run_distributed(&jobs, 4, dispatcher), baseline);
    shutdown_all(nodes, dirs);
}

// ---------- search byte identity and trajectory stability ----------

#[test]
fn distributed_search_matches_single_node_bytes_and_trajectory() {
    let mut space = SearchSpace::full(512);
    space.kernels.truncate(2);
    let cfg = SearchConfig {
        space,
        objectives: Objective::ALL.to_vec(),
        strategy: Strategy::Halving,
        budget: 8,
        seed: 7,
        mode: hetmem::sim::ExecMode::Accurate,
    };

    let local = run_search(&cfg, SearchOptions::default()).expect("local search");

    let (nodes, dirs) = start_fleet("search", 3, 1);
    let opts = SearchOptions {
        dispatcher: Some(fleet_dispatcher(&nodes[0])),
        ..SearchOptions::default()
    };
    let fleet = run_search(&cfg, opts).expect("distributed search");

    assert_eq!(
        local.to_json().render(),
        fleet.to_json().render(),
        "scattering must not move a byte of the search report"
    );
    assert_eq!(
        local.stats.jobs_submitted, fleet.stats.jobs_submitted,
        "placement must never touch the budget accounting"
    );
    let parts: u64 = nodes
        .iter()
        .map(|n| cluster_counter(n.local_addr(), "sweep_parts_in"))
        .sum();
    assert!(parts >= 1, "search rounds must actually scatter");
    shutdown_all(nodes, dirs);
}

// ---------- killing an owner mid-sweep: silent failover ----------

#[test]
fn sweep_scatter_survives_a_killed_owner() {
    let jobs = grid();
    let baseline = run_local(&jobs, 1);

    let a = seed_node(options(1, None));
    let b = join_node(&a, options(1, None));
    let seed_addr = a.cluster_addr().expect("clustered").to_string();

    // The third member is a real `hetmem serve` subprocess, so the test
    // can kill it without cooperation.
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_hetmem"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--join",
            &seed_addr,
            "--heartbeat-ms",
            "100",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn hetmem serve");
    let mut lines = BufReader::new(child.stdout.take().expect("child stdout")).lines();
    for tag in ["listening on", "cluster on"] {
        let line = lines.next().expect("child line").expect("child readable");
        assert!(line.contains(tag), "expected {tag:?} in {line:?}");
    }
    wait_for_membership(&[&a, &b], 3);

    // Snapshot the 3-member ring into the dispatcher, then kill one
    // owner: its partition must fail over to local execution with the
    // merged output still byte-identical.
    let dispatcher = fleet_dispatcher(&a);
    child.kill().expect("kill child");
    let _ = child.wait();

    assert_eq!(
        run_distributed(&jobs, 2, dispatcher),
        baseline,
        "a dead owner's partition must fall back without moving bytes"
    );
    let parts = cluster_counter(a.local_addr(), "sweep_parts_in")
        + cluster_counter(b.local_addr(), "sweep_parts_in");
    assert!(parts >= 1, "the survivors must still execute their parts");

    for node in [&b, &a] {
        node.shutdown();
    }
    a.wait();
    b.wait();
}

// ---------- the HTTP surface: /v1/sweep scatters, 404s are typed ----------

#[test]
fn http_sweep_scatters_and_wrong_node_job_polls_name_their_peers() {
    // A standalone reference server answers the same sweep locally.
    let solo = Server::start(&options(1, None)).expect("standalone server");
    // 24 (kernel, scale) units: the entry node cannot own them all.
    let body = "{\"scales\":[64,128,256,512]}";
    let accepted = send(solo.local_addr(), "POST", "/v1/sweep", Some(body));
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let solo_id = accepted.json().get("job").and_then(Json::as_u64).unwrap();
    let solo_records = poll_records(solo.local_addr(), solo_id);
    solo.shutdown();
    solo.wait();

    let (nodes, dirs) = start_fleet("http", 3, 1);
    let entry = nodes[0].local_addr();
    let accepted = send(entry, "POST", "/v1/sweep", Some(body));
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let id = accepted.json().get("job").and_then(Json::as_u64).unwrap();

    // Polling the wrong member is a typed error naming entry candidates,
    // not an empty 404.
    let wrong = send(
        nodes[1].local_addr(),
        "GET",
        &format!("/v1/jobs/{id}"),
        None,
    );
    assert_eq!(wrong.status, 404);
    let v = wrong.json();
    assert_eq!(
        v.get("error").and_then(Json::as_str),
        Some("no such job on this node")
    );
    assert!(v.get("hint").and_then(Json::as_str).is_some());
    let peers = match v.get("peers") {
        Some(Json::Arr(items)) => items.len(),
        other => panic!("peers array, got {other:?}"),
    };
    assert_eq!(peers, 2, "both other members are entry candidates");

    let fleet_records = poll_records(entry, id);
    assert_eq!(
        fleet_records, solo_records,
        "the fleet's merged records must match the standalone bytes"
    );
    let parts: u64 = nodes
        .iter()
        .skip(1)
        .map(|n| cluster_counter(n.local_addr(), "sweep_parts_in"))
        .sum();
    assert!(parts >= 1, "the entry node must scatter to its peers");
    shutdown_all(nodes, dirs);
}

/// Polls `/v1/jobs/<id>` until done and returns the rendered `records`
/// array (the stats block carries wall-clock, so it is excluded).
fn poll_records(addr: SocketAddr, id: u64) -> String {
    let path = format!("/v1/jobs/{id}");
    let mut records = None;
    wait_until("the sweep job to finish", || {
        let v = send(addr, "GET", &path, None).json();
        match v.get("status").and_then(Json::as_str) {
            Some("done") => {
                let result = v.get("result").expect("done jobs carry a result");
                records = Some(result.get("records").expect("records array").render());
                true
            }
            Some("failed") => panic!("sweep job failed: {}", v.render()),
            _ => false,
        }
    });
    records.expect("records captured")
}

// ---------- the CLI surface: `hetmem sweep --join` ----------

#[test]
fn cli_sweep_join_is_byte_identical_to_a_local_run() {
    let run = |extra: &[&str]| -> String {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_hetmem"))
            .args(["sweep", "--scale", "512", "--format", "json"])
            .args(extra)
            .output()
            .expect("run hetmem sweep");
        assert!(
            out.status.success(),
            "sweep failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf8 stdout")
    };

    let local = run(&[]);
    let (nodes, dirs) = start_fleet("cli", 2, 2);
    let join = nodes[0].cluster_addr().expect("clustered").to_string();
    let fleet = run(&["--join", &join]);
    assert_eq!(fleet, local, "--join must not move a byte of sweep output");
    let parts: u64 = nodes
        .iter()
        .map(|n| cluster_counter(n.local_addr(), "sweep_parts_in"))
        .sum();
    assert!(parts >= 1, "the CLI run must have scattered to the fleet");
    shutdown_all(nodes, dirs);
}
