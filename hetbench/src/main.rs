//! hetbench: the hetmem benchmark.
//!
//! ```text
//! hetbench --workload paper-grid|serve-open|wide-sweep --seed N --seconds S \
//!          --trace 0|1 --grid-digest HEX
//! ```
//!
//! `--trace 0` measures the workload's end-to-end metrics untraced.
//! `--trace 1` makes the separate traced run: every layer pass (trace, sim,
//! xplore, dispatch + cluster, serve, dsl, loadgen) with spans recorded
//! here around public calls into the hetmem crates, plus the tracing
//! overhead on the named workload. Either way the human-readable report
//! goes to stdout first and one JSON result object is the last line.
//! Any failed output check exits with code 1.

mod host;
mod http;
mod loadgen;
mod paper_grid;
mod serve_open;
mod spans;
mod stats;
mod wide_sweep;

use hetmem_xplore::json::{self, Json};
use stats::Summary;
use std::path::PathBuf;
use std::time::Duration;

/// The workloads, by command-line name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fig 5/6/7 data at scale 1 through `run_jobs`.
    PaperGrid,
    /// Open-loop HTTP traffic against a warm service.
    ServeOpen,
    /// 378-job multi-scale sweep, local and on a 3-node fleet.
    WideSweep,
}

impl Workload {
    fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "paper-grid" => Ok(Workload::PaperGrid),
            "serve-open" => Ok(Workload::ServeOpen),
            "wide-sweep" => Ok(Workload::WideSweep),
            other => Err(format!(
                "unknown workload {other:?} (paper-grid|serve-open|wide-sweep)"
            )),
        }
    }
}

/// Everything a workload needs from the command line.
pub struct Ctx {
    /// Which workload the process runs.
    pub workload: Workload,
    /// Seed for every generated input.
    pub seed: u64,
    /// Measuring budget.
    pub seconds: Duration,
    /// Expected FNV-1a digest of the scale-1 grid's JSONL records.
    pub grid_digest: u64,
    /// Scratch directory for the run's caches, removed at exit.
    pub work: PathBuf,
    /// Generator threads and connections: the host's parallelism.
    pub nproc: usize,
}

impl Ctx {
    /// A fresh, empty scratch subdirectory.
    ///
    /// # Errors
    ///
    /// Returns a message when it cannot be created.
    pub fn scratch(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.work.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// What a run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (jobs and requests).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Output checks, by name.
    pub checks: Vec<(String, bool)>,
    /// Result metrics: name, value, unit.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines: name, unit, statistic label, summary, and the
    /// raw samples when there are few.
    pub table: Vec<(String, &'static str, &'static str, Summary, Vec<f64>)>,
    /// Human-readable notes.
    pub notes: Vec<String>,
}

impl Report {
    /// Records an output check; a check repeated under one name passes
    /// only if every repetition does.
    pub fn check(&mut self, name: &str, ok: bool) {
        match self.checks.iter_mut().find(|(n, _)| n == name) {
            Some((_, all)) => *all &= ok,
            None => self.checks.push((name.to_owned(), ok)),
        }
    }

    /// Records a result metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// Records a sample set for the human-readable table and returns its
    /// median.
    pub fn samples(&mut self, name: &str, unit: &'static str, samples: &[f64]) -> f64 {
        let summary = stats::summarize(samples);
        let few = if samples.len() <= 10 {
            samples.to_vec()
        } else {
            Vec::new()
        };
        self.table
            .push((name.to_owned(), unit, "median", summary, few));
        summary.median
    }

    /// Records one derived statistic (`label`, e.g. `p99`) taken over `n`
    /// samples for the human-readable table.
    pub fn stat(
        &mut self,
        name: &str,
        unit: &'static str,
        label: &'static str,
        value: f64,
        n: usize,
    ) {
        let summary = Summary {
            n,
            median: value,
            tail: None,
        };
        self.table
            .push((name.to_owned(), unit, label, summary, Vec::new()));
    }

    /// Reports set-up repetitions given as `(wall, cpu)` seconds:
    /// `setup_s` is the median wall time, and the CPU time is printed
    /// beside it.
    pub fn setup(&mut self, times: &[(f64, f64)]) {
        let walls: Vec<f64> = times.iter().map(|t| t.0).collect();
        let cpus: Vec<f64> = times.iter().map(|t| t.1).collect();
        let setup_s = self.samples("setup_s", "s", &walls);
        self.samples("setup_cpu_s", "s", &cpus);
        self.metric("setup_s", setup_s, "s");
    }

    /// Counts `n` operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }
}

fn parse_args() -> Result<(Ctx, bool), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut digest) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => match number()? {
                0 => trace = Some(false),
                1 => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            "--grid-digest" => {
                digest = Some(
                    u64::from_str_radix(&value, 16)
                        .map_err(|_| format!("--grid-digest: bad hex {value:?}"))?,
                );
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let missing = |name: &str| format!("missing {name}");
    let seconds = seconds.ok_or_else(|| missing("--seconds"))?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_owned());
    }
    let ctx = Ctx {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: Duration::from_secs(seconds),
        grid_digest: digest.ok_or_else(|| missing("--grid-digest"))?,
        work: PathBuf::from("hetbench-out").join(format!("run-{}", std::process::id())),
        nproc: host::nproc(),
    };
    Ok((ctx, trace.unwrap_or(false)))
}

/// The metric names and units `BENCHMARK.json` declares for this mode.
fn declared_metrics(traced: bool) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let key = if traced { "per_layer" } else { "end_to_end" };
    let Some(Json::Arr(list)) = doc.get(key) else {
        return Err(format!("BENCHMARK.json has no {key} list"));
    };
    list.iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).map(str::to_owned);
            field("name")
                .zip(field("unit"))
                .ok_or_else(|| format!("BENCHMARK.json: malformed {key} entry"))
        })
        .collect()
}

fn run(ctx: &Ctx, traced: bool, report: &mut Report) -> Result<(), String> {
    if !traced {
        match ctx.workload {
            Workload::PaperGrid => paper_grid::measure(ctx, report)?,
            Workload::ServeOpen => serve_open::measure(ctx, report)?,
            Workload::WideSweep => wide_sweep::measure(ctx, report)?,
        }
        return Ok(());
    }
    let tracer = spans::Tracer::default();
    // Each layer pass returns the wall time of a traced section. The
    // named workload's section is then repeated at once, on the same code
    // path with spans off, to price the spans.
    for workload in [
        Workload::PaperGrid,
        Workload::WideSweep,
        Workload::ServeOpen,
    ] {
        let traced_s = match workload {
            Workload::PaperGrid => paper_grid::layers(ctx, &tracer, report)?,
            Workload::WideSweep => wide_sweep::layers(ctx, &tracer, report)?,
            Workload::ServeOpen => serve_open::layers(ctx, &tracer, report)?,
        };
        if workload != ctx.workload {
            continue;
        }
        let untraced_s = match workload {
            Workload::PaperGrid => paper_grid::untraced_pass(ctx, report)?,
            Workload::WideSweep => wide_sweep::untraced_pass(ctx, report)?,
            Workload::ServeOpen => serve_open::untraced_pass(ctx, report)?,
        };
        report.metric(
            "bench.trace_overhead_pct",
            (traced_s - untraced_s) / untraced_s * 100.0,
            "%",
        );
    }
    let spans = PathBuf::from("hetbench-out").join("spans.jsonl");
    tracer
        .write_jsonl(&spans)
        .map_err(|e| format!("{}: {e}", spans.display()))?;
    report
        .notes
        .push(format!("spans written to {}", spans.display()));
    Ok(())
}

fn print_report(ctx: &Ctx, traced: bool, report: &Report) {
    println!(
        "hetbench workload={:?} seed={} seconds={} trace={} {}",
        ctx.workload,
        ctx.seed,
        ctx.seconds.as_secs(),
        u8::from(traced),
        host::provenance()
    );
    for note in &report.notes {
        println!("  note: {note}");
    }
    for (name, unit, label, s, few) in &report.table {
        let tail = match (label, s.tail) {
            (&"median", Some((p, v))) => format!("  p{p} {v:.4}"),
            (&"median", None) => "  (no tail: <20 samples)".to_owned(),
            _ => String::new(),
        };
        let raw = few.iter().map(|v| format!("{v:.4}")).collect::<Vec<_>>();
        let raw = if raw.is_empty() {
            String::new()
        } else {
            format!("  [{}]", raw.join(" "))
        };
        println!(
            "  {name:<28} {:>12.4} {unit:<6} {label}{tail}  n={}{raw}",
            s.median, s.n
        );
    }
    let ratio = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "  {:<28} {ratio:>12.4} ratio  ({} failed of {} attempted)",
        "fail_ratio", report.failed, report.attempted
    );
    for (name, ok) in &report.checks {
        println!("  check {name}: {}", if *ok { "ok" } else { "FAILED" });
    }
}

fn main() {
    let (ctx, traced) = match parse_args() {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("hetbench: {message}");
            std::process::exit(2);
        }
    };
    let declared = match declared_metrics(traced) {
        Ok(declared) => declared,
        Err(message) => {
            eprintln!("hetbench: {message}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    let outcome = std::fs::create_dir_all(&ctx.work)
        .map_err(|e| format!("{}: {e}", ctx.work.display()))
        .and_then(|()| run(&ctx, traced, &mut report));
    let _ = std::fs::remove_dir_all(&ctx.work);
    if let Err(message) = outcome {
        eprintln!("hetbench: {message}");
        std::process::exit(1);
    }
    print_report(&ctx, traced, &report);

    // The result must carry exactly the metrics BENCHMARK.json declares.
    let mut emitted: Vec<(String, String)> = report
        .metrics
        .iter()
        .map(|(n, _, u)| (n.clone(), (*u).to_owned()))
        .collect();
    let mut wanted = declared;
    emitted.sort();
    wanted.sort();
    if emitted != wanted {
        eprintln!("hetbench: emitted metrics {emitted:?} differ from BENCHMARK.json {wanted:?}");
        std::process::exit(1);
    }
    if let Some((name, v, _)) = report.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("hetbench: metric {name} is not finite ({v})");
        std::process::exit(1);
    }
    let correct = report.checks.iter().all(|(_, ok)| *ok);
    let metrics = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.attempted, report.failed
    );
    if !correct {
        std::process::exit(1);
    }
}
