//! Multi-node fleet tests over real loopback sockets: three in-process
//! [`Server`]s joined into one cluster (plus, for the failover test, a
//! `hetmem serve` subprocess that gets killed mid-fleet). Each test
//! drives the fleet through plain HTTP, exactly as a client would, and
//! proves the cross-node behaviour through the metric counters.

use hetmem::core::experiment::ExperimentConfig;
use hetmem_cluster::{FleetDispatcher, Ring};
use hetmem_serve::{parse_sim_request, ServeOptions, Server};
use hetmem_xplore::json::{parse, Json};
use hetmem_xplore::{report_to_json, run_jobs, SweepOptions, SweepSpec};
use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------- a tiny HTTP/1.1 client ----------

struct Reply {
    status: u16,
    content_type: String,
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
    let content_type = head
        .lines()
        .find_map(|l| l.strip_prefix("content-type: "))
        .unwrap_or_else(|| panic!("content-type in {head:?}"))
        .to_owned();
    Reply {
        status,
        content_type,
        body: body.to_owned(),
    }
}

fn counter(metrics: &Json, name: &str) -> u64 {
    metrics
        .get(name)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("counter {name} in {}", metrics.render()))
}

/// A node's own cluster counter, read off the plain `/metrics` body.
fn cluster_counter(addr: SocketAddr, name: &str) -> u64 {
    let v = send(addr, "GET", "/metrics", None).json();
    let cluster = v.get("cluster").expect("cluster block in /metrics");
    counter(cluster, name)
}

fn node_counter(addr: SocketAddr, name: &str) -> u64 {
    counter(&send(addr, "GET", "/metrics", None).json(), name)
}

// ---------- fleet plumbing ----------

fn options() -> ServeOptions {
    ServeOptions {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        queue_depth: 32,
        heartbeat_ms: 100,
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
    let deadline = Instant::now() + Duration::from_secs(30);
    while !probe() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Waits until every listed node sees a fleet of `n` (itself + peers).
fn wait_for_membership(nodes: &[&Server], n: u64) {
    for node in nodes {
        let http = node.local_addr();
        wait_until(&format!("{http} to see {n} members"), || {
            let v = send(http, "GET", "/metrics?cluster=1", None).json();
            v.get("nodes").and_then(Json::as_u64) == Some(n)
        });
    }
}

/// The ring member a sim body is placed on.
fn sim_owner<'r>(ring: &'r Ring, body: &str) -> &'r str {
    let key = parse_sim_request(body)
        .expect("valid sim body")
        .placement_key();
    ring.owner(&key).expect("a non-empty ring")
}

/// Finds sim bodies that `owner` owns on the given ring, varying only the
/// scale so every body stays cheap to execute.
fn sim_bodies_owned_by(ring: &Ring, owner: &str, wanted: usize) -> Vec<String> {
    let mut found = Vec::new();
    for scale in (64..=4096).step_by(16) {
        let body = format!("{{\"kernel\":\"reduction\",\"system\":\"fusion\",\"scale\":{scale}}}");
        if sim_owner(ring, &body) == owner {
            found.push(body);
            if found.len() == wanted {
                return found;
            }
        }
    }
    panic!("no scale in range maps to {owner}");
}

/// Starts a three-node fleet, each node with a fresh disk cache under a
/// temp directory named by `tag`, and waits until every node sees all
/// three. Returns the nodes (seed first) and their cache directories.
fn cached_fleet(tag: &str) -> ([Server; 3], Vec<PathBuf>) {
    let dirs: Vec<PathBuf> = (0..3)
        .map(|i| {
            let dir = std::env::temp_dir()
                .join(format!("hetmem-cluster-{tag}-{}-{i}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        })
        .collect();
    let with_cache = |i: usize| ServeOptions {
        cache_dir: Some(dirs[i].clone()),
        ..options()
    };
    let a = seed_node(with_cache(0));
    let b = join_node(&a, with_cache(1));
    let c = join_node(&a, with_cache(2));
    wait_for_membership(&[&a, &b, &c], 3);
    ([a, b, c], dirs)
}

fn shutdown_all(nodes: Vec<Server>) {
    for node in &nodes {
        node.shutdown();
    }
    for node in nodes {
        node.wait();
    }
}

// ---------- byte identity from any entry node ----------

#[test]
fn any_entry_node_answers_byte_identically() {
    let a = seed_node(options());
    let b = join_node(&a, options());
    let c = join_node(&a, options());
    wait_for_membership(&[&a, &b, &c], 3);

    let sim = "{\"kernel\":\"mergesort\",\"system\":\"gmac\",\"scale\":96}";
    let replies: Vec<Reply> = [&a, &b, &c]
        .iter()
        .map(|node| send(node.local_addr(), "POST", "/v1/sim", Some(sim)))
        .collect();
    for reply in &replies {
        assert_eq!(reply.status, 200, "{}", reply.body);
        assert_eq!(reply.body, replies[0].body, "sim bodies must be identical");
    }

    let check = "{\"targets\":[\"reduction\"],\"models\":[\"dis\",\"pas\"]}";
    let replies: Vec<Reply> = [&a, &b, &c]
        .iter()
        .map(|node| send(node.local_addr(), "POST", "/v1/check", Some(check)))
        .collect();
    for reply in &replies {
        assert_eq!(reply.status, 200, "{}", reply.body);
        assert_eq!(reply.body, replies[0].body, "check JSONL must be identical");
        // Relayed answers keep the local path's content type.
        assert_eq!(reply.content_type, "application/x-ndjson");
    }

    // An expired deadline answers the local 504 shape from every entry
    // node. The deadline is not part of the content key, so the sim's
    // owner expires all three requests and the other two entry nodes
    // relay its answer rather than running the job.
    let late = sim.replace('}', ",\"deadline_ms\":0}");
    for node in [&a, &b, &c] {
        let reply = send(node.local_addr(), "POST", "/v1/sim", Some(&late));
        assert_eq!(reply.status, 504, "{}", reply.body);
        assert_eq!(reply.content_type, "application/json");
        let v = reply.json();
        let message = v.get("error").and_then(Json::as_str).expect("error field");
        assert!(message.contains("deadline exceeded"), "{message}");
        assert!(v.get("waited_ms").and_then(Json::as_u64).is_some());
    }
    let mut timeouts: Vec<u64> = [&a, &b, &c]
        .iter()
        .map(|node| node_counter(node.local_addr(), "deadline_timeouts"))
        .collect();
    timeouts.sort_unstable();
    assert_eq!(timeouts, [0, 0, 3], "only the owner expires the job");

    // The merged view names every member and sums their counters.
    let v = send(a.local_addr(), "GET", "/metrics?cluster=1", None).json();
    assert_eq!(v.get("nodes").and_then(Json::as_u64), Some(3));
    let members = match v.get("members") {
        Some(Json::Arr(items)) => items.len(),
        other => panic!("members array, got {other:?}"),
    };
    assert_eq!(members, 3);
    let merged = v.get("merged").expect("merged metrics");
    assert!(
        counter(merged, "requests_total") >= 6,
        "{}",
        merged.render()
    );
    // Each key has one owner, so two of the three entries forwarded
    // each of the three requests.
    let forwarded = merged.get("cluster").expect("merged cluster block");
    assert_eq!(counter(forwarded, "forwards_in"), 6, "{}", merged.render());
    assert_eq!(counter(forwarded, "work_steals"), 0, "{}", merged.render());

    shutdown_all(vec![c, b, a]);
}

// ---------- cross-node cache hits ----------

#[test]
fn cache_hits_cross_nodes() {
    let ([a, b, c], dirs) = cached_fleet("cache");

    let addrs: Vec<String> = [&a, &b, &c]
        .iter()
        .map(|node| node.cluster_addr().expect("clustered").to_string())
        .collect();
    let ring = Ring::new(&addrs);
    let owned = sim_bodies_owned_by(&ring, &addrs[0], 1);
    let body = &owned[0];

    // First request enters through b, is forwarded to its owner a,
    // misses a's cache, and executes there.
    let first = send(b.local_addr(), "POST", "/v1/sim", Some(body));
    assert_eq!(first.status, 200, "{}", first.body);
    assert_eq!(node_counter(a.local_addr(), "cache_misses"), 1);
    assert_eq!(node_counter(a.local_addr(), "cache_hits"), 0);
    assert!(cluster_counter(b.local_addr(), "forwards_out") >= 1);
    assert!(cluster_counter(a.local_addr(), "forwards_in") >= 1);

    // Second request enters through c: the owner answers it from its
    // disk cache — a counter-proven cross-node cache hit, and the body
    // is byte-identical to the first answer.
    let second = send(c.local_addr(), "POST", "/v1/sim", Some(body));
    assert_eq!(second.status, 200);
    assert_eq!(second.body, first.body);
    assert_eq!(node_counter(a.local_addr(), "cache_hits"), 1);
    assert_eq!(node_counter(a.local_addr(), "cache_misses"), 1);

    shutdown_all(vec![c, b, a]);
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

// ---------- sweeps and single requests share placement ----------

#[test]
fn a_sim_after_a_fleet_sweep_is_answered_from_the_owners_cache() {
    let ([a, b, c], dirs) = cached_fleet("xpath");
    let nodes = [&a, &b, &c];

    // A cold fleet sweep, driven from outside the ring, fills the owners'
    // disk caches.
    let seed = a.cluster_addr().expect("clustered").to_string();
    let dispatcher = FleetDispatcher::connect(&seed).expect("fleet connect");
    let jobs = SweepSpec::full(512).expand();
    let opts = SweepOptions::builder()
        .workers(1)
        .dispatcher(Some(Arc::new(dispatcher)))
        .build();
    let swept = run_jobs(&jobs, &ExperimentConfig::paper(), &opts).expect("fleet sweep");
    let merged_misses = || {
        let v = send(a.local_addr(), "GET", "/metrics?cluster=1", None).json();
        counter(v.get("merged").expect("merged metrics"), "cache_misses")
    };
    let misses = merged_misses();
    assert_eq!(misses, jobs.len() as u64, "the sweep ran on the fleet");

    // One of the sweep's cells, entering through a node that does not own
    // it, is forwarded to its owner and answered from that disk cache.
    let body = "{\"kernel\":\"reduction\",\"system\":\"fusion\",\"scale\":512}";
    let addrs: Vec<String> = nodes
        .iter()
        .map(|node| node.cluster_addr().expect("clustered").to_string())
        .collect();
    let ring = Ring::new(&addrs);
    let owner = sim_owner(&ring, body);
    let at = addrs.iter().position(|a| a == owner).expect("a member");
    let owner_http = nodes[at].local_addr();
    let entry = nodes[(at + 1) % nodes.len()];
    let hits = node_counter(owner_http, "cache_hits");
    let reply = send(entry.local_addr(), "POST", "/v1/sim", Some(body));
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_eq!(node_counter(owner_http, "cache_hits"), hits + 1);
    assert_eq!(merged_misses(), misses, "no node simulated the cell again");
    let record = swept
        .records
        .iter()
        .find(|r| r.kernel == "reduction" && r.target == "Fusion")
        .expect("the cell is in the sweep");
    assert_eq!(
        reply.json().get("report").map(Json::render),
        Some(report_to_json(&record.report).render()),
        "the answer is the sweep's record"
    );

    shutdown_all(vec![c, b, a]);
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

// ---------- owner-side coalescing and work stealing ----------

#[test]
fn remote_requests_coalesce_and_busy_owners_are_stolen_from() {
    // The owner gets one worker and a two-slot queue so the test can
    // saturate it deterministically.
    let a = seed_node(ServeOptions {
        queue_depth: 2,
        ..options()
    });
    let b = join_node(&a, options());
    let c = join_node(&a, options());
    wait_for_membership(&[&a, &b, &c], 3);

    let addrs: Vec<String> = [&a, &b, &c]
        .iter()
        .map(|node| node.cluster_addr().expect("clustered").to_string())
        .collect();
    let ring = Ring::new(&addrs);
    let owned = sim_bodies_owned_by(&ring, &addrs[0], 2);

    // Occupy a's single worker with a heavy local sweep (sweeps are
    // never forwarded): scale 1 is the full-size k-means input.
    let heavy = "{\"kernels\":[\"kmeans\"],\"systems\":[\"fusion\"],\"spaces\":[],\"scales\":[1]}";
    let accepted = send(a.local_addr(), "POST", "/v1/sweep", Some(heavy));
    assert_eq!(accepted.status, 202);
    let id = accepted
        .json()
        .get("job")
        .and_then(Json::as_u64)
        .expect("job id");
    let poll = format!("/v1/jobs/{id}");
    wait_until("the heavy sweep to start", || {
        let v = send(a.local_addr(), "GET", &poll, None).json();
        v.get("status").and_then(Json::as_str) == Some("running")
    });

    // Three identical a-owned requests: two through the same entry node
    // b, one through c. Entry nodes forward every one of them; the twins
    // coalesce onto the first in a's queue.
    let same = owned[0].clone();
    let spawn_sim = |addr: SocketAddr| {
        let body = same.clone();
        std::thread::spawn(move || send(addr, "POST", "/v1/sim", Some(&body)))
    };
    let via_b = spawn_sim(b.local_addr());
    wait_until("the first forwarded job to queue on a", || {
        node_counter(a.local_addr(), "queue_depth") >= 1
    });
    let via_b_again = spawn_sim(b.local_addr());
    wait_until("the owner to coalesce the same-entry twin", || {
        node_counter(a.local_addr(), "coalesced_jobs") >= 1
    });
    let via_c = spawn_sim(c.local_addr());
    wait_until("the owner to coalesce the other-entry twin", || {
        node_counter(a.local_addr(), "coalesced_jobs") >= 2
    });
    assert_eq!(cluster_counter(b.local_addr(), "forwards_out"), 2);

    // Fill a's remaining queue slot, then forward a distinct a-owned
    // job: the owner answers busy, and the entry node runs it locally.
    let filler = "{\"kernels\":[\"dct\"],\"systems\":[\"fusion\"],\"spaces\":[],\"scales\":[512]}";
    assert_eq!(
        send(a.local_addr(), "POST", "/v1/sweep", Some(filler)).status,
        202
    );
    let stolen = send(b.local_addr(), "POST", "/v1/sim", Some(&owned[1]));
    assert_eq!(stolen.status, 200, "{}", stolen.body);
    assert_eq!(cluster_counter(b.local_addr(), "work_steals"), 1);

    let first = via_b.join().expect("entry b reply");
    for twin in [via_b_again, via_c] {
        let twin = twin.join().expect("twin reply");
        assert_eq!(twin.status, 200, "{}", twin.body);
        assert_eq!(twin.body, first.body);
    }
    assert_eq!(first.status, 200, "{}", first.body);
    // One execution served all three.
    assert_eq!(node_counter(a.local_addr(), "coalesced_jobs"), 2);

    shutdown_all(vec![c, b, a]);
}

// ---------- killing a node: failover and visible degradation ----------

#[test]
fn fleet_survives_a_killed_node() {
    let a = seed_node(options());
    let b = join_node(&a, options());
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
    let mut stdout_addr = |tag: &str| -> String {
        let line = lines
            .next()
            .expect("child stdout line")
            .expect("child stdout readable");
        assert!(line.contains(tag), "expected {tag:?} in {line:?}");
        line.rsplit(' ').next().expect("address").to_owned()
    };
    let _child_http = stdout_addr("listening on");
    let child_cluster = stdout_addr("cluster on");
    wait_for_membership(&[&a, &b], 3);

    let addrs = vec![
        a.cluster_addr().expect("clustered").to_string(),
        b.cluster_addr().expect("clustered").to_string(),
        child_cluster.clone(),
    ];
    let ring = Ring::new(&addrs);
    let owned = sim_bodies_owned_by(&ring, &child_cluster, 1);

    child.kill().expect("kill child");
    let _ = child.wait();

    // A request for a key the dead node owned still succeeds: the entry
    // node notes the failure and executes it locally.
    let reply = send(a.local_addr(), "POST", "/v1/sim", Some(&owned[0]));
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert!(cluster_counter(a.local_addr(), "work_steals") >= 1);
    assert!(cluster_counter(a.local_addr(), "peer_failures") >= 1);

    // Death detection: once the miss window expires the survivors drop
    // the dead member and the merged view reports the degradation.
    wait_until("both survivors to drop the dead member", || {
        cluster_counter(a.local_addr(), "peers_removed") >= 1
            && cluster_counter(b.local_addr(), "peers_removed") >= 1
    });
    wait_for_membership(&[&a, &b], 2);
    let v = send(b.local_addr(), "GET", "/metrics?cluster=1", None).json();
    assert_eq!(v.get("nodes").and_then(Json::as_u64), Some(2));
    let merged = v
        .get("merged")
        .and_then(|m| m.get("cluster"))
        .expect("cluster block inside merged metrics");
    assert!(counter(merged, "peers_removed") >= 1, "{}", merged.render());
    assert!(counter(merged, "peer_failures") >= 1, "{}", merged.render());

    // And the same key is now answerable again from either survivor.
    let again = send(b.local_addr(), "POST", "/v1/sim", Some(&owned[0]));
    assert_eq!(again.status, 200);
    assert_eq!(again.body, reply.body);

    shutdown_all(vec![b, a]);
}
