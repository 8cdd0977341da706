//! Form a three-node `hetmem serve` fleet in one process and watch the
//! cluster layer work: a request entering any node is forwarded to the
//! ring owner of its placement key, a repeat through a different entry
//! node is answered from the owner's cache, and `/metrics?cluster=1`
//! merges every member's counters into one fleet-wide document.
//!
//! Run with `cargo run --release --example cluster_fleet`.

use hetmem::serve::{ServeOptions, Server};
use hetmem::xplore::json::Json;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One HTTP/1.1 exchange; the server closes the connection, so EOF
/// delimits the reply. Returns (status, body).
fn send(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    let mut request = format!("{method} {path} HTTP/1.1\r\nhost: example\r\n");
    if let Some(body) = body {
        request.push_str(&format!("content-length: {}\r\n", body.len()));
    }
    request.push_str("\r\n");
    request.push_str(body.unwrap_or(""));
    conn.write_all(request.as_bytes()).expect("write");
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read");
    let (head, body) = raw.split_once("\r\n\r\n").expect("framed reply");
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, body.to_owned())
}

fn main() {
    let cache_root = std::env::temp_dir().join("hetmem-cluster-fleet-example");
    let _ = std::fs::remove_dir_all(&cache_root);
    let node_options = |i: usize| ServeOptions {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        cache_dir: Some(cache_root.join(format!("node-{i}"))),
        heartbeat_ms: 100,
        ..ServeOptions::default()
    };

    // The seed advertises a cluster listener; the others join it.
    let seed = Server::start(&ServeOptions {
        advertise: Some("127.0.0.1:0".to_owned()),
        ..node_options(0)
    })
    .expect("seed starts");
    let seed_cluster = seed.cluster_addr().expect("seed is clustered");
    println!(
        "seed     http {} / cluster {seed_cluster}",
        seed.local_addr()
    );
    let mut fleet = vec![seed];
    for i in 1..3 {
        let node = Server::start(&ServeOptions {
            join: Some(seed_cluster.to_string()),
            ..node_options(i)
        })
        .expect("node joins");
        println!(
            "member {i} http {} / cluster {}",
            node.local_addr(),
            node.cluster_addr().expect("clustered")
        );
        fleet.push(node);
    }

    // Heartbeats gossip the full member list; wait until every node
    // answers the fleet-wide metrics fan-out with all three members.
    for node in &fleet {
        loop {
            let (_, body) = send(node.local_addr(), "GET", "/metrics?cluster=1", None);
            let v = hetmem::xplore::json::parse(body.trim_end()).expect("metrics json");
            if v.get("nodes").and_then(Json::as_u64) == Some(3) {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    println!("fleet formed: every node sees 3 members");

    // The same request through two different entry nodes: the first
    // executes on the key's ring owner, the second is a cross-node
    // cache hit — byte-identical either way.
    let sim = "{\"kernel\":\"reduction\",\"system\":\"fusion\",\"scale\":256}";
    let (status, cold) = send(fleet[1].local_addr(), "POST", "/v1/sim", Some(sim));
    println!("sim via member 1: {status} ({} bytes, cold)", cold.len());
    let (status, warm) = send(fleet[2].local_addr(), "POST", "/v1/sim", Some(sim));
    println!("sim via member 2: {status} ({} bytes, cached)", warm.len());
    assert_eq!(cold, warm, "any entry node answers byte-identically");

    // The merged fleet view: summed counters plus the member list.
    let (_, body) = send(fleet[0].local_addr(), "GET", "/metrics?cluster=1", None);
    let v = hetmem::xplore::json::parse(body.trim_end()).expect("metrics json");
    let merged = v.get("merged").expect("merged block");
    for key in [
        "requests_total",
        "cache_hits",
        "cache_misses",
        "jobs_completed",
    ] {
        let n = merged.get(key).and_then(Json::as_u64).unwrap_or(0);
        println!("fleet {key}: {n}");
    }

    for node in &fleet {
        node.shutdown();
    }
    for node in fleet {
        node.wait();
    }
    let _ = std::fs::remove_dir_all(&cache_root);
    println!("fleet drained");
}
