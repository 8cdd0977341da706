//! Emits the distributed-sweep scaling baseline as JSON — the snapshot
//! committed as `BENCH_cluster.json` at the repo root.
//!
//! Regenerate with:
//!
//! ```text
//! cargo run --release --example bench_cluster > BENCH_cluster.json
//! ```
//!
//! Pass `--check` to also enforce the scaling guard: the 3-node
//! distributed sweep must be at least 2x faster than the single-node
//! run, and byte-identical to it. Wall-clock scaling needs parallel
//! hardware — three loopback nodes on one core serialize every part,
//! so the speedup bound is enforced only on hosts with at least three
//! cores; below that the guard still demands byte identity and bounds
//! the scatter overhead (distributed may not be worse than 3x the
//! single-node run). The measured workload is the full
//! kernel x model grid at trace scale 512 with cold caches throughout
//! (no cache directory anywhere, so every job simulates live). The
//! single-node side runs the plain in-process engine with one worker;
//! the fleet side scatters the same jobs across three loopback serve
//! nodes with one worker each, so the speedup isolates what the
//! scatter-gather path adds: ring partitioning, frame round-trips, and
//! remote execution overlap. Timings are wall-clock on whatever host
//! runs this, so the committed file is a point of comparison, not a
//! promise.

use hetmem_cluster::FleetDispatcher;
use hetmem_core::experiment::ExperimentConfig;
use hetmem_serve::{ServeOptions, Server};
use hetmem_xplore::json::Json;
use hetmem_xplore::{run_jobs, to_jsonl, Job, SweepOptions, SweepSpec};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The benchmark workload: every kernel x system x space point at trace
/// scale 512 — the same grid the differential tests scatter.
fn grid() -> Vec<Job> {
    SweepSpec::full(512).expand()
}

fn single_node(jobs: &[Job]) -> (Duration, String) {
    let opts = SweepOptions::builder().workers(1).build();
    let start = Instant::now();
    let out = run_jobs(jobs, &ExperimentConfig::paper(), &opts).expect("single-node sweep");
    (start.elapsed(), to_jsonl(&out.records))
}

fn three_node(jobs: &[Job]) -> (Duration, String) {
    let base = ServeOptions {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        queue_depth: 32,
        heartbeat_ms: 100,
        ..ServeOptions::default()
    };
    let seed = Server::start(&ServeOptions {
        advertise: Some("127.0.0.1:0".to_owned()),
        ..base.clone()
    })
    .expect("seed node");
    let seed_addr = seed.cluster_addr().expect("clustered").to_string();
    let join = |addr: &str| {
        Server::start(&ServeOptions {
            join: Some(addr.to_owned()),
            ..base.clone()
        })
        .expect("joining node")
    };
    let b = join(&seed_addr);
    let c = join(&seed_addr);
    let nodes = [&seed, &b, &c];

    // Wait until the seed reports three members before timing: the
    // dispatcher snapshot doubles as the membership probe.
    let deadline = Instant::now() + Duration::from_secs(30);
    let dispatcher = loop {
        let fleet = FleetDispatcher::connect(&seed_addr).expect("fleet connect");
        if fleet.nodes() == 3 {
            break Arc::new(fleet);
        }
        assert!(Instant::now() < deadline, "fleet membership never settled");
        std::thread::sleep(Duration::from_millis(20));
    };
    let opts = SweepOptions::builder()
        .workers(1)
        .dispatcher(Some(dispatcher as Arc<dyn hetmem_xplore::JobDispatcher>))
        .build();
    let start = Instant::now();
    let out = run_jobs(jobs, &ExperimentConfig::paper(), &opts).expect("distributed sweep");
    let taken = start.elapsed();

    for node in nodes {
        node.shutdown();
    }
    for node in [seed, b, c] {
        node.wait();
    }
    (taken, to_jsonl(&out.records))
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let jobs = grid();

    // Warm the global trace store so neither side pays first-touch
    // generation, then take the best of three cold-cache runs each.
    let _ = single_node(&jobs);
    let (mut solo, mut fleet) = (Duration::MAX, Duration::MAX);
    let (mut solo_bytes, mut fleet_bytes) = (String::new(), String::new());
    for _ in 0..3 {
        let (t, bytes) = single_node(&jobs);
        if t < solo {
            solo = t;
        }
        solo_bytes = bytes;
        let (t, bytes) = three_node(&jobs);
        if t < fleet {
            fleet = t;
        }
        fleet_bytes = bytes;
    }

    assert_eq!(
        solo_bytes, fleet_bytes,
        "distributed records must be byte-identical to single-node"
    );
    let speedup = solo.as_secs_f64() / fleet.as_secs_f64().max(f64::EPSILON);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let guard = if cores >= 3 {
        "speedup >= 2.0"
    } else {
        "overhead <= 3.0x (fewer than 3 cores: parts serialize)"
    };

    let ms = |d: Duration| Json::UInt(u64::try_from(d.as_millis()).unwrap_or(u64::MAX));
    let out = Json::obj(vec![
        ("baseline", Json::Str("cluster-sweep-scaling".to_owned())),
        (
            "crate_version",
            Json::Str(env!("CARGO_PKG_VERSION").to_owned()),
        ),
        (
            "profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .to_owned(),
            ),
        ),
        ("scale", Json::UInt(512)),
        ("jobs", Json::UInt(jobs.len() as u64)),
        ("cores", Json::UInt(cores as u64)),
        ("single_node_ms", ms(solo)),
        ("three_node_ms", ms(fleet)),
        (
            "speedup",
            Json::Str(format!("{:.2}", (speedup * 100.0).round() / 100.0)),
        ),
        ("guard", Json::Str(guard.to_owned())),
        ("byte_identical", Json::Bool(true)),
    ]);
    println!("{}", out.render());

    if check {
        if cores >= 3 && speedup < 2.0 {
            eprintln!("FAIL: 3-node speedup {speedup:.2}x is below the 2x guard");
            std::process::exit(1);
        }
        if cores < 3 && fleet.as_secs_f64() > solo.as_secs_f64() * 3.0 {
            eprintln!(
                "FAIL: scatter overhead {:.2}x exceeds the 3x bound",
                1.0 / speedup
            );
            std::process::exit(1);
        }
    }
}
