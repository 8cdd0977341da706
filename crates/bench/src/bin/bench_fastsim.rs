//! Quantifies the sampled simulation mode against the accurate one — the
//! snapshot committed as `BENCH_fastsim.json` at the repo root.
//!
//! Regenerate with:
//!
//! ```text
//! cargo run --release -p hetmem-bench --bin bench_fastsim > BENCH_fastsim.json
//! ```
//!
//! Guard mode (used by CI) re-measures on the current host and fails when
//! a machine-independent mode-vs-mode ratio regressed more than 20 %
//! against the committed snapshot:
//!
//! ```text
//! cargo run --release -p hetmem-bench --bin bench_fastsim -- --check BENCH_fastsim.json
//! ```
//!
//! Three benchmark families:
//!
//! * `live_sim_scale512_*` — the service's live (cache-miss) request at
//!   scale 512 per `ExecMode`.
//! * `sweep_scale1024_*` — the full kernel × target grid at scale 1024
//!   through `run_sweep` (one worker, no cache), reported per job.
//!   `per_job_ns` is the best of the timed passes (noise on a shared host
//!   is strictly one-sided) and feeds `speedup_vs_accurate`;
//!   `per_job_mean_ns` is also recorded.
//! * `trace_matmul_scale8_*` — one big trace (~2.1 M instructions) where
//!   the cycle loop, not setup, dominates. `speedup_vs_accurate` is the
//!   machine-independent ratio the `--check` guard enforces.
//!
//! Ratios below `GUARD_MIN_RATIO` (1.5×) are recorded but not guarded: they are
//! dominated by host noise, not by the fast path.

use hetmem_core::experiment::ExperimentConfig;
use hetmem_core::{AddressSpace, IdealSpaceComm};
use hetmem_serve::{parse_sim_request, run_sim, Metrics};
use hetmem_sim::{CommCosts, ExecMode, SimulationBuilder};
use hetmem_trace::kernels::{Kernel, KernelParams};
use hetmem_xplore::{json, run_sweep, Json, SweepOptions, SweepSpec};
use std::time::{Duration, Instant};

/// Fraction of a committed ratio a fresh measurement must reach in
/// `--check` mode (a >20 % regression fails).
const GUARD_FRACTION: f64 = 0.8;

/// Guarded ratios must be comfortably above noise; smaller committed
/// ratios are informational only.
const GUARD_MIN_RATIO: f64 = 1.5;

/// The engine modes under test, with the labels used in bench names.
const MODES: [(ExecMode, &str); 2] = [
    (ExecMode::Accurate, "accurate"),
    (
        ExecMode::Sampled {
            warm_interval: hetmem_sim::DEFAULT_WARM_INTERVAL,
            detail_window: hetmem_sim::DEFAULT_DETAIL_WINDOW,
        },
        "sampled",
    ),
];

struct Timing {
    samples: u64,
    min_ns: u64,
    mean_ns: u64,
    max_ns: u64,
}

/// Warms up for `warm`, then runs up to `samples` timed calls bounded by
/// `budget` of wall clock.
fn measure(warm: Duration, budget: Duration, samples: usize, mut f: impl FnMut()) -> Timing {
    let warm_clock = Instant::now();
    while warm_clock.elapsed() < warm {
        f();
    }
    let mut taken: Vec<u128> = Vec::new();
    let budget_clock = Instant::now();
    for _ in 0..samples {
        let t = Instant::now();
        f();
        taken.push(t.elapsed().as_nanos());
        if budget_clock.elapsed() >= budget {
            break;
        }
    }
    let ns = |v: u128| u64::try_from(v).unwrap_or(u64::MAX);
    Timing {
        samples: taken.len() as u64,
        min_ns: ns(*taken.iter().min().expect("at least one sample")),
        mean_ns: ns(taken.iter().sum::<u128>() / taken.len() as u128),
        max_ns: ns(*taken.iter().max().expect("at least one sample")),
    }
}

fn timing_fields(t: &Timing) -> Vec<(&'static str, Json)> {
    vec![
        ("samples", Json::UInt(t.samples)),
        ("min_ns", Json::UInt(t.min_ns)),
        ("mean_ns", Json::UInt(t.mean_ns)),
        ("max_ns", Json::UInt(t.max_ns)),
    ]
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        // Two decimal places: these are committed and diffed.
        (numerator as f64 / denominator as f64 * 100.0).round() / 100.0
    }
}

/// Runs every benchmark family. `quick` trims warmup and sample counts to
/// CI-friendly durations; ratios stay comparable because both sides of
/// every guarded ratio shrink together.
fn run_benches(quick: bool) -> Vec<Json> {
    let warm = Duration::from_millis(if quick { 50 } else { 200 });
    let budget = Duration::from_secs(if quick { 1 } else { 2 });
    let mut benches = Vec::new();

    // Family 1: the serve live request path, per mode.
    let metrics = Metrics::default();
    for (_, label) in MODES {
        let body = format!(
            "{{\"kernel\":\"reduction\",\"system\":\"fusion\",\"scale\":512,\"mode\":\"{label}\"}}"
        );
        let req = parse_sim_request(&body).expect("request parses");
        let t = measure(warm, budget, if quick { 20 } else { 60 }, || {
            std::hint::black_box(run_sim(&req, None, None, &metrics).expect("live run"));
        });
        let mut fields = vec![("name", Json::Str(format!("live_sim_scale512_{label}")))];
        fields.extend(timing_fields(&t));
        benches.push(Json::obj(fields));
    }

    // Family 2: the full design grid at scale 1024, per mode.
    let spec = SweepSpec::full(1024);
    let jobs = spec.expand().len() as u64;
    let config = ExperimentConfig::paper();
    let mut accurate_per_job = 0u64;
    for (mode, label) in MODES {
        let opts = SweepOptions::builder().workers(1).mode(mode).build();
        let t = measure(warm, budget, if quick { 5 } else { 20 }, || {
            std::hint::black_box(run_sweep(&spec, &config, &opts).expect("sweep runs"));
        });
        let per_job = t.min_ns / jobs;
        let per_job_mean = t.mean_ns / jobs;
        if label == "accurate" {
            accurate_per_job = per_job;
        }
        let mut fields = vec![
            ("name", Json::Str(format!("sweep_scale1024_{label}"))),
            ("jobs", Json::UInt(jobs)),
            ("per_job_ns", Json::UInt(per_job)),
            ("per_job_mean_ns", Json::UInt(per_job_mean)),
        ];
        fields.extend(timing_fields(&t));
        if label != "accurate" {
            fields.push((
                "speedup_vs_accurate",
                Json::Float(ratio(accurate_per_job, per_job)),
            ));
        }
        benches.push(Json::obj(fields));
    }

    // Family 3: one cycle-loop-dominated trace, per mode.
    let trace = Kernel::MatrixMul.generate(&KernelParams::scaled(8));
    let mut accurate_mean = 0u64;
    for (mode, label) in MODES {
        let t = measure(
            if quick { Duration::ZERO } else { warm },
            Duration::from_secs(if quick { 2 } else { 4 }),
            if quick { 3 } else { 8 },
            || {
                let mut sim = SimulationBuilder::new()
                    .comm_model(IdealSpaceComm::new(
                        AddressSpace::Unified,
                        CommCosts::paper(),
                    ))
                    .mode(mode)
                    .build()
                    .expect("baseline config is valid");
                std::hint::black_box(sim.run(&trace).expect("well-formed trace"));
            },
        );
        if label == "accurate" {
            accurate_mean = t.mean_ns;
        }
        let mut fields = vec![("name", Json::Str(format!("trace_matmul_scale8_{label}")))];
        fields.extend(timing_fields(&t));
        if label != "accurate" {
            fields.push((
                "speedup_vs_accurate",
                Json::Float(ratio(accurate_mean, t.mean_ns)),
            ));
        }
        benches.push(Json::obj(fields));
    }

    benches
}

fn render(benches: Vec<Json>) -> String {
    Json::obj(vec![
        ("baseline", Json::Str("fastsim-modes".to_owned())),
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
        (
            "method",
            Json::Str(
                "per_job_ns and sweep speedups use the best timed pass; \
                 speedup_vs_accurate ratios are same-host and machine-independent"
                    .to_owned(),
            ),
        ),
        ("benches", Json::Arr(benches)),
    ])
    .render()
}

/// Compares freshly measured `speedup_vs_accurate` ratios against the
/// committed snapshot; returns the list of regressions.
fn check(committed: &Json, fresh: &[Json]) -> Vec<String> {
    let Some(Json::Arr(committed_benches)) = committed.get("benches") else {
        return vec!["committed snapshot has no benches array".to_owned()];
    };
    let mut failures = Vec::new();
    let mut guarded = 0;
    for was in committed_benches {
        let Some(name) = was.get("name").and_then(Json::as_str) else {
            continue;
        };
        let Some(old) = was.get("speedup_vs_accurate").and_then(Json::as_f64) else {
            continue;
        };
        if old < GUARD_MIN_RATIO {
            continue;
        }
        guarded += 1;
        let Some(new) = fresh
            .iter()
            .find(|b| b.get("name").and_then(Json::as_str) == Some(name))
            .and_then(|b| b.get("speedup_vs_accurate"))
            .and_then(Json::as_f64)
        else {
            failures.push(format!("{name}: guarded bench missing from fresh run"));
            continue;
        };
        if new < old * GUARD_FRACTION {
            failures.push(format!(
                "{name}: speedup_vs_accurate {new:.2}x is below 80% of committed {old:.2}x"
            ));
        } else {
            eprintln!("ok {name}: {new:.2}x vs committed {old:.2}x");
        }
    }
    if guarded == 0 {
        failures.push("committed snapshot guards no ratios >= 1.5x".to_owned());
    }
    failures
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--check") => {
            let path = args
                .get(1)
                .map(String::as_str)
                .unwrap_or("BENCH_fastsim.json");
            let text =
                std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
            let committed =
                json::parse(&text).unwrap_or_else(|e| panic!("cannot parse {path}: {e:?}"));
            let fresh = run_benches(true);
            let failures = check(&committed, &fresh);
            if failures.is_empty() {
                eprintln!("bench guard passed");
            } else {
                for f in &failures {
                    eprintln!("REGRESSION {f}");
                }
                std::process::exit(1);
            }
        }
        Some(other) => {
            eprintln!("unknown argument {other}; usage: bench_fastsim [--check <path>]");
            std::process::exit(2);
        }
        None => println!("{}", render(run_benches(false))),
    }
}
