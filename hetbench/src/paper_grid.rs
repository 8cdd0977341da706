//! `paper-grid`: the data behind `hetmem fig 5/6/7 --scale 1` — every
//! kernel on every evaluated system and address space at full trace size,
//! through `run_jobs` with no cache. The cycle loop dominates it; serve,
//! cluster and the result cache do no work here.

use crate::host;
use crate::spans::Tracer;
use crate::{Ctx, Report};
use hetmem_core::experiment::ExperimentConfig;
use hetmem_core::hash::fnv1a;
use hetmem_core::IdealSpaceComm;
use hetmem_sim::{Simulation, SimulationBuilder};
use hetmem_trace::kernels::{Kernel, KernelParams};
use hetmem_trace::PuKind;
use hetmem_xplore::{
    job_trace, run_jobs, to_jsonl, Job, JobKind, SweepOptions, SweepRecord, SweepSpec,
};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

const SCALE: u32 = 1;

/// Set-ups timed per run; the median is reported.
const SETUP_REPS: usize = 3;

/// Nominal seconds per grid pass on the reference host: `--seconds` buys
/// a fixed number of passes, so every run does the same work.
const PASS_SECONDS: u64 = 10;

/// With two or more workers, a grid pass must keep at least this many
/// cores busy on average. It measures about 2.0 on 2 cores; a pass that
/// lost its parallelism would measure about 1.0.
const MIN_BUSY_CORES: f64 = 1.25;

fn grid() -> Vec<Job> {
    SweepSpec::full(SCALE).expand()
}

/// One job of each kernel, for trace warm-up.
fn one_job_per_kernel(jobs: &[Job]) -> Vec<&Job> {
    Kernel::ALL
        .iter()
        .filter_map(|k| jobs.iter().find(|j| j.kernel == *k))
        .collect()
}

/// A kernel's name as a metric-name component.
fn slug(kernel: Kernel) -> String {
    kernel.name().replace(' ', "_")
}

/// One `run_jobs` pass over the grid on `nproc` workers, checked
/// against the committed digest.
fn grid_pass(ctx: &Ctx, jobs: &[Job], report: &mut Report) -> Result<(), String> {
    let opts = SweepOptions::builder().workers(ctx.nproc).build();
    let out = run_jobs(jobs, &ExperimentConfig::paper(), &opts);
    let out = out.map_err(|e| {
        report.ops(jobs.len() as u64, jobs.len() as u64);
        format!("paper-grid run_jobs failed: {e}")
    })?;
    report.ops(jobs.len() as u64, 0);
    let digest = fnv1a(to_jsonl(&out.records).as_bytes());
    if digest != ctx.grid_digest {
        report
            .notes
            .push(format!("paper-grid records digest to {digest:016x}"));
    }
    report.check(
        "paper-grid records match the committed digest",
        digest == ctx.grid_digest,
    );
    Ok(())
}

/// Untraced end-to-end measurement.
///
/// # Errors
///
/// Returns a message when a job fails.
pub fn measure(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let jobs = grid();
    // Set-up is trace generation. The first repetitions generate and
    // drop; the last fills the process-wide store the grid reads from.
    let mut setup = Vec::new();
    for rep in 0..SETUP_REPS {
        let clock = host::Stopwatch::start()?;
        if rep + 1 < SETUP_REPS {
            for kernel in Kernel::ALL {
                black_box(kernel.generate(&KernelParams::scaled(SCALE)));
            }
        } else {
            for job in one_job_per_kernel(&jobs) {
                black_box(job_trace(job));
            }
        }
        setup.push(clock.elapsed()?);
    }
    report.setup(&setup);

    host::reset_peak_rss()?;
    let passes = (ctx.seconds.as_secs() / PASS_SECONDS).max(1);
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    for _ in 0..passes {
        let clock = host::Stopwatch::start()?;
        grid_pass(ctx, &jobs, report)?;
        let (wall, cpu) = clock.elapsed()?;
        walls.push(wall);
        cpus.push(cpu * 1e3);
    }
    let wall_s = report.samples("grid_wall_s", "s", &walls);
    let grid_cpu_ms = report.samples("grid_cpu_ms", "ms", &cpus);
    report.metric("cpu_ms", grid_cpu_ms, "ms");
    // A change that loses parallelism costs no CPU, so `cpu_ms` cannot
    // see it; the workers' busy share of the wall time can.
    if ctx.nproc >= 2 {
        let busy = grid_cpu_ms / 1e3 / wall_s;
        report
            .notes
            .push(format!("grid pass busy cores (CPU / wall): {busy:.2}"));
        report.check(
            &format!("grid pass keeps more than one core busy (CPU / wall >= {MIN_BUSY_CORES})"),
            busy >= MIN_BUSY_CORES,
        );
    }
    report.stat("peak_rss_mb", "MiB", "VmHWM", host::peak_rss_mb()?, 1);
    Ok(())
}

/// The traced grid of [`layers`] again, with spans off, for the
/// tracing-overhead comparison. Returns its wall time in seconds.
///
/// # Errors
///
/// Returns a message when a job fails.
pub fn untraced_pass(ctx: &Ctx, report: &mut Report) -> Result<f64, String> {
    let (records, wall) = builder_grid(ctx, &Tracer::disabled(), &grid())?;
    report.ops(records.len() as u64, 0);
    report.check(
        "untraced builder/run records match the committed digest",
        fnv1a(to_jsonl(&records).as_bytes()) == ctx.grid_digest,
    );
    Ok(wall)
}

fn builder(job: &Job, config: &ExperimentConfig) -> SimulationBuilder {
    let b = Simulation::builder()
        .config(config.system)
        .costs(config.costs);
    match job.kind {
        JobKind::CaseStudy { system } => b.comm_model(system.comm_model(config.costs)),
        JobKind::AddressSpace { space } => b.comm_model(IdealSpaceComm::new(space, config.costs)),
    }
}

/// Simulates one job through the public builder, with spans around
/// `build()` (fresh and recycled) and `run()`.
fn traced_job(
    tracer: &Tracer,
    job: &Job,
    config: &ExperimentConfig,
) -> Result<SweepRecord, String> {
    let trace = job_trace(job);
    let parent = tracer.id();
    let start = Instant::now();
    let mut sim = tracer
        .time("sim.build_fresh", Some(parent), || {
            builder(job, config).build()
        })
        .map_err(|e| e.to_string())?;
    let name = format!("sim.run.{}", slug(job.kernel));
    let report = tracer
        .time(&name, Some(parent), || sim.run(&trace))
        .map_err(|e| e.to_string())?;
    let (system, _) = sim.into_parts();
    tracer
        .time("sim.build_recycled", Some(parent), || {
            builder(job, config).recycle(Some(system)).build()
        })
        .map_err(|e| e.to_string())?;
    tracer.record(parent, None, "sim.job", start, Instant::now());
    Ok(SweepRecord {
        id: job.id,
        kind: job.kind_name().to_owned(),
        kernel: job.kernel.name().to_owned(),
        target: job.target_name().to_owned(),
        scale: job.scale,
        design_point: job.design_point_label(),
        mode: hetmem_sim::ExecMode::Accurate,
        report,
        timeline: None,
    })
}

/// Every grid job through the public builder on `nproc` threads, with
/// `tracer`'s spans around each call. Returns the records in job order and
/// the wall time in seconds.
fn builder_grid(
    ctx: &Ctx,
    tracer: &Tracer,
    jobs: &[Job],
) -> Result<(Vec<SweepRecord>, f64), String> {
    for job in one_job_per_kernel(jobs) {
        black_box(job_trace(job));
    }
    let config = ExperimentConfig::paper();
    let next = AtomicUsize::new(0);
    let records: Mutex<Vec<Result<SweepRecord, String>>> = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..ctx.nproc {
            scope.spawn(|| {
                while let Some(job) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let record = traced_job(tracer, job, &config);
                    records.lock().expect("records").push(record);
                }
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let mut records = records
        .into_inner()
        .expect("records")
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    records.sort_by_key(|r| r.id);
    Ok((records, wall))
}

/// The traced trace + sim layer pass. Returns the wall time of the traced
/// grid, which [`untraced_pass`] repeats with spans off.
///
/// # Errors
///
/// Returns a message when a job fails.
pub fn layers(ctx: &Ctx, tracer: &Tracer, report: &mut Report) -> Result<f64, String> {
    let mut insts = 0u64;
    for kernel in Kernel::ALL {
        let trace = tracer.time("trace.generate", None, || {
            kernel.generate(&KernelParams::scaled(SCALE))
        });
        insts += (trace.pu_len(PuKind::Cpu) + trace.pu_len(PuKind::Gpu)) as u64;
    }
    report.metric("trace.generate_s", tracer.total("trace.generate"), "s");
    report.metric("trace.insts", insts as f64, "count");

    let jobs = grid();
    let (records, wall) = builder_grid(ctx, tracer, &jobs)?;
    report.ops(jobs.len() as u64, 0);
    report.check(
        "traced builder/run records match the committed digest",
        fnv1a(to_jsonl(&records).as_bytes()) == ctx.grid_digest,
    );

    let mut run_s = 0.0;
    for kernel in Kernel::ALL {
        let s = tracer.total(&format!("sim.run.{}", slug(kernel)));
        run_s += s;
        report.metric(&format!("sim.run_s.{}", slug(kernel)), s, "s");
    }
    let sum = |f: fn(&SweepRecord) -> u64| records.iter().map(f).sum::<u64>() as f64;
    let sim_insts = sum(|r| r.report.cpu.instructions + r.report.gpu.instructions);
    let ticks = sum(|r| r.report.total_ticks());
    report.metric("sim.run_s", run_s, "s");
    report.metric("sim.minst_per_s", sim_insts / run_s / 1e6, "Minst/s");
    report.metric("sim.host_ns_per_tick", run_s * 1e9 / ticks, "ns");
    let us = |name: &str| crate::stats::median(&tracer.seconds(name)) * 1e6;
    report.metric("sim.build_fresh_us", us("sim.build_fresh"), "us");
    report.metric("sim.build_recycled_us", us("sim.build_recycled"), "us");
    report.metric("sim.insts", sim_insts, "count");
    report.metric("sim.ticks", ticks, "count");
    report.metric(
        "sim.comm_ticks",
        sum(|r| r.report.communication_ticks),
        "count",
    );
    report.metric(
        "sim.llc_misses",
        sum(|r| r.report.hierarchy.llc.misses),
        "count",
    );
    report.metric(
        "sim.dram_reads",
        sum(|r| r.report.hierarchy.dram.reads),
        "count",
    );
    report.metric(
        "sim.dram_writes",
        sum(|r| r.report.hierarchy.dram.writes),
        "count",
    );
    Ok(wall)
}
