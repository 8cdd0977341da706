//! Command-line interface: argument parsing and command execution for the
//! `hetmem` binary.
//!
//! ```text
//! hetmem tables                         # regenerate Tables I–V
//! hetmem fig 5 [--scale N]              # regenerate Figure 5 (also 6, 7)
//! hetmem sweep [filters]                # parallel, cached design-space sweep
//! hetmem search [--budget N --seed S]   # guided multi-objective search
//! hetmem loc <program.hdsl>             # programmability of a DSL source file
//! hetmem check <kernel|--all>           # memory-model static verifier
//! hetmem lower <program.hdsl> <model>   # print one lowering (uni|pas|dis|adsm)
//! hetmem trace <kernel> [--scale N]     # dump a kernel trace (.hmt) to stdout
//! hetmem sim <trace.hmt> <system>       # simulate a trace file on a system
//! hetmem serve [--addr HOST:PORT]       # batched simulation service (HTTP)
//! hetmem catalog                        # the Table I survey
//! hetmem study <name> [--scale N]       # a study beyond the paper
//! ```
//!
//! Argument contract: unknown commands and unknown flags are errors — the
//! binary prints a one-line `hetmem: ...` diagnostic plus usage on stderr
//! and exits with status 2. Runtime failures (unreadable files, malformed
//! traces) exit with status 1.

use hetmem_cluster::FleetDispatcher;
use hetmem_core::experiment::{best_partition, ExperimentConfig};
use hetmem_core::report::{render_figure5, render_figure6, render_figure7, TextTable};
use hetmem_core::{evaluate_energy, evaluate_systems, run_locality_study, EvaluatedSystem};
use hetmem_dsl::AddressSpace;
use hetmem_search::{
    system_frontier_table, Objective, SearchConfig, SearchOptions, SearchSpace, Strategy,
};
use hetmem_sim::{
    ClockDomain, CommCosts, EventTrace, ExecMode, FabricKind, IntervalProfiler, Recorder, SimError,
    Simulation, SystemConfig,
};
use hetmem_trace::kernels::{Kernel, KernelParams};
use hetmem_trace::TransferDirection;
use hetmem_xplore::{
    job_trace, parse_kernel, parse_space, parse_system, Job, JobDispatcher, JobKind, OutputFormat,
    SweepOptions, SweepSpec,
};
use std::path::PathBuf;
use std::sync::Arc;

/// Writes part of a command's output to stdout, the one writer all of it
/// goes through. A reader that closes the pipe early (`hetmem tables |
/// head -1`) has read all it wants, so the process ends quietly with
/// status 0 instead of panicking.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    if let Err(err) = std::io::stdout().lock().write_fmt(args) {
        if err.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {err}");
    }
}

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Timeline window size (in ticks) when `--timeline` gives no `:interval`
/// suffix: about 24 µs of simulated time, a few hundred windows for the
/// bundled kernels at small scales.
pub const DEFAULT_TIMELINE_INTERVAL: u64 = 1_000_000;

/// A parsed command.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Regenerate Tables I–V.
    Tables,
    /// Regenerate Figure `number` at `scale`.
    Fig {
        /// 5, 6, or 7.
        number: u8,
        /// Trace scale divisor.
        scale: u32,
        /// Output format (`Table` renders the paper's figure).
        format: OutputFormat,
        /// Worker threads (0 = auto).
        jobs: usize,
        /// Optional result cache directory.
        cache_dir: Option<PathBuf>,
    },
    /// Run a parallel, cached sweep over the design-space grid.
    Sweep {
        /// The axes to cover.
        spec: SweepSpec,
        /// Output format.
        format: OutputFormat,
        /// Worker threads (0 = auto).
        jobs: usize,
        /// Optional result cache directory.
        cache_dir: Option<PathBuf>,
        /// Execution mode for every job.
        mode: ExecMode,
        /// Cluster address of a serve-fleet member to scatter jobs to.
        join: Option<String>,
    },
    /// Run a guided multi-objective search over the design-space grid.
    Search {
        /// The space, objectives, strategy, budget, and seed.
        config: SearchConfig,
        /// Output format (`json` is the pinned byte-identical report).
        format: OutputFormat,
        /// Worker threads (0 = auto).
        jobs: usize,
        /// Optional result cache directory (shared with `sweep`).
        cache_dir: Option<PathBuf>,
        /// Cluster address of a serve-fleet member to scatter jobs to.
        join: Option<String>,
    },
    /// Report the Table V row for a DSL source file.
    Loc {
        /// Path to the `.hdsl` source.
        path: String,
    },
    /// Print one lowering of a DSL source file.
    Lower {
        /// Path to the `.hdsl` source.
        path: String,
        /// Which memory model.
        model: AddressSpace,
    },
    /// Dump a generated kernel trace in `.hmt` form.
    Trace {
        /// Which kernel.
        kernel: Kernel,
        /// Trace scale divisor.
        scale: u32,
    },
    /// Simulate an `.hmt` trace file on an evaluated system.
    Sim {
        /// Path to the trace file.
        path: String,
        /// Which system.
        system: EvaluatedSystem,
        /// Output format (`Table` is the one-line human report).
        format: OutputFormat,
        /// Write the event trace as JSON Lines to this path.
        events: Option<String>,
        /// Write a counter timeline as JSON Lines to `(path, interval)`.
        timeline: Option<(String, u64)>,
        /// Execution mode for the run.
        mode: ExecMode,
    },
    /// Run the memory-model static verifier over built-in kernels or
    /// `.hdsl` files.
    Check {
        /// Kernel names or `.hdsl` paths to check (empty with `all`).
        targets: Vec<String>,
        /// Check every built-in program instead of named targets.
        all: bool,
        /// Address-space models to check under (empty = all four).
        models: Vec<AddressSpace>,
        /// Output format (`Table` renders rustc-style text, `Json` emits
        /// one diagnostic per line plus a summary line).
        format: OutputFormat,
        /// Least-severe severity that fails the run (default
        /// [`hetmem_dsl::Severity::Error`]; `--deny warnings|notes`
        /// escalates, rustc `-D`-style).
        deny: hetmem_dsl::Severity,
        /// Print the explanation for one diagnostic code instead of
        /// checking anything (`--explain HM0101`, rustc-style).
        explain: Option<String>,
    },
    /// Rewrite programs to the minimal communication set the checker can
    /// certify sufficient.
    Fix {
        /// Kernel names or `.hdsl` paths to fix (empty with `all`).
        targets: Vec<String>,
        /// Fix every built-in program instead of named targets.
        all: bool,
        /// Address-space models to fix under (empty = all four).
        models: Vec<AddressSpace>,
        /// Output format.
        format: FixFormat,
        /// Exit 1 when the optimizer changes nothing (`--deny
        /// unchanged`).
        deny_unchanged: bool,
    },
    /// Run the batched simulation service until it is asked to drain.
    Serve {
        /// Bind address, `HOST:PORT` (port 0 picks an ephemeral port).
        addr: String,
        /// Worker threads / shards (0 = auto).
        workers: usize,
        /// Per-shard queue bound; submissions beyond it are answered
        /// 429.
        queue_depth: usize,
        /// Result-cache directory shared with `sweep --cache-dir`.
        cache_dir: Option<PathBuf>,
        /// Cluster listener bind address; enables clustering.
        advertise: Option<String>,
        /// Cluster address of an existing member to join.
        join: Option<String>,
        /// Cluster heartbeat period in milliseconds.
        heartbeat_ms: u64,
    },
    /// Print the Table I survey.
    Catalog,
    /// Run one study beyond the paper's measurements.
    Study {
        /// Which study.
        study: Study,
        /// Trace scale divisor.
        scale: u32,
    },
    /// Print usage.
    Help,
}

/// A study beyond the paper's measurements, run by `hetmem study`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Study {
    /// §V-D locality management: implicit vs explicit push vs the push
    /// with the hybrid locality bit ignored.
    Locality,
    /// §VII energy: per-component estimates for every case-study cell.
    Energy,
    /// §II-A1 GPU page size: 4 KB vs 64 KB vs 2 MB pages.
    PageSize,
    /// §IV-B work split: the time-optimal CPU/GPU share per kernel.
    Partition,
    /// §VII efficiency metrics and the Pareto frontier over the systems.
    Pareto,
}

impl Study {
    fn parse(name: &str) -> Result<Study, String> {
        match name {
            "locality" => Ok(Study::Locality),
            "energy" => Ok(Study::Energy),
            "page-size" => Ok(Study::PageSize),
            "partition" => Ok(Study::Partition),
            "pareto" => Ok(Study::Pareto),
            other => Err(format!(
                "unknown study {other:?} (locality|energy|page-size|partition|pareto)"
            )),
        }
    }

    /// The scale a study runs at without `--scale`: the paper's full-size
    /// traces, except for the partition sweep, which simulates eight
    /// splits of every kernel.
    fn default_scale(self) -> u32 {
        match self {
            Study::Partition => 4,
            _ => 1,
        }
    }
}

/// Usage text.
pub const USAGE: &str = "usage: hetmem <command>
flags take one value; --kernel, --system, --space, --model, --objectives
and sweep/search --scale also take comma lists and repeat; every other
flag takes its value verbatim and may appear once
commands:
  tables                        regenerate Tables I-V
  fig <5|6|7> [--scale N] [--format json|csv|table] [--jobs N] [--cache-dir D]
                                regenerate a figure (default full scale)
  sweep [--kernel K] [--system S] [--space A] [--scale N] [--jobs N]
        [--cache-dir D] [--format json|csv|table] [--mode M] [--join H:P]
                                parallel cached sweep over the design space
                                (filters repeat or take comma lists; default
                                covers every kernel x system x space at scale 1;
                                --join scatters jobs across a serve fleet)
  search [--budget N] [--seed S] [--objectives cycles,energy,loc,hw,saved]
         [--strategy random|halving] [--kernel K] [--system S]
         [--space A] [--scale N] [--jobs N] [--cache-dir D]
         [--format json|table] [--mode M] [--join H:P]
                                guided multi-objective design-space search:
                                spends a simulator-job budget (default: a
                                quarter of the exhaustive sweep) through a
                                seeded strategy and reports the Pareto
                                frontier; same seed + same spec gives a
                                byte-identical JSON report
  loc <program.hdsl>            programmability (Table V row) of a DSL file
  check <kernel|file.hdsl ...|--all> [--model M] [--format json|table]
        [--deny warnings|notes]
                                memory-model static verifier over the lowered
                                program(s); --model repeats or takes a comma
                                list (default: all four); findings at Error
                                severity (or above --deny) exit 1
  check --explain HM0xxx        print what a diagnostic code means
  fix <kernel|file.hdsl ...|--all> [--model M]
      [--format pretty|json|diff] [--deny unchanged]
                                rewrite program(s) to the minimal communication
                                set the checker certifies: deletes provably
                                redundant transfers from the lowering;
                                --deny unchanged exits 1 when nothing changed
  lower <program.hdsl> <model>  print a lowering (uni|pas|dis|adsm)
  trace <kernel> [--scale N]    dump a kernel trace (.hmt) to stdout
  sim <trace.hmt> <system> [--format json|table] [--events F.jsonl]
      [--timeline F.jsonl[:interval]] [--mode M]
                                simulate a trace (cpu+gpu|lrb|gmac|fusion|ideal);
                                --events/--timeline write observability JSONL;
                                --mode M is accurate (default) or sampled
                                (SMARTS-style, <2% cycles error at
                                scale >= 256)
  serve [--addr H:P] [--workers N] [--queue-depth D] [--cache-dir DIR]
        [--advertise H:P] [--join H:P] [--heartbeat-ms MS]
                                HTTP simulation service: POST /v1/sim,
                                /v1/sweep, /v1/check, /v1/fix; GET /v1/health,
                                /metrics, /v1/jobs/<id>;
                                POST /v1/shutdown drains; --advertise or
                                --join forms a multi-node fleet that shards
                                the result cache
                                (/metrics?cluster=1 merges the fleet)
  catalog                       the Table I survey
  study <locality|energy|page-size|partition|pareto> [--scale N]
                                a study beyond the paper's measurements
                                (default full scale; partition 4)
  help                          this message";

/// Recognized `--flag value` occurrences, in argument order.
type Flags<'a> = Vec<(&'a str, &'a str)>;

/// Splits `args` into positionals and recognized `--flag value` pairs.
/// Unknown flags are errors; every listed flag takes one value.
fn split_flags<'a>(
    args: &'a [String],
    allowed: &[&str],
) -> Result<(Vec<&'a str>, Flags<'a>), String> {
    let mut positionals = Vec::new();
    let mut flags = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if let Some(name) = arg.strip_prefix("--") {
            if !allowed.contains(&name) {
                return Err(format!("unknown flag --{name}"));
            }
            let value = args
                .get(i + 1)
                .filter(|v| !v.is_empty())
                .ok_or_else(|| format!("--{name} needs a value"))?
                .as_str();
            flags.push((name, value));
            i += 2;
        } else if arg.starts_with('-') && arg.len() > 1 {
            return Err(format!("unknown flag {arg}"));
        } else {
            positionals.push(arg);
            i += 1;
        }
    }
    Ok((positionals, flags))
}

/// Values of every occurrence of the list flag `name`, with comma lists
/// split. Only list flags (`--kernel`, `--system`, `--space`, `--model`,
/// `--objectives`, and `--scale` on `sweep`/`search`) read this way.
fn flag_values<'a>(flags: &[(&'a str, &'a str)], name: &str) -> Vec<&'a str> {
    flags
        .iter()
        .filter(|(n, _)| *n == name)
        .flat_map(|(_, v)| v.split(','))
        .filter(|v| !v.is_empty())
        .collect()
}

/// A single-valued flag parsed by `parse` from its verbatim value, or
/// `default` when absent; a repeat is an error.
fn single_flag<T>(
    flags: &[(&str, &str)],
    name: &str,
    default: T,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Result<T, String> {
    let mut values = flags.iter().filter(|(n, _)| *n == name);
    match (values.next(), values.next()) {
        (None, _) => Ok(default),
        (Some((_, v)), None) => parse(v),
        (Some(_), Some(_)) => Err(format!("--{name} given more than once")),
    }
}

/// An optional single-valued flag kept as its verbatim value.
fn optional_flag(flags: &[(&str, &str)], name: &str) -> Result<Option<String>, String> {
    single_flag(flags, name, None, |v| Ok(Some(v.to_owned())))
}

/// The value of `--NAME`, which must be a positive integer.
fn positive<T: std::str::FromStr + PartialOrd + From<u8>>(
    name: &str,
    v: &str,
) -> Result<T, String> {
    v.parse::<T>()
        .ok()
        .filter(|n| *n > T::from(0))
        .ok_or_else(|| format!("--{name} needs a positive integer"))
}

/// The value of `--NAME`, which must be a `HOST:PORT` address.
fn host_port(name: &str, v: &str) -> Result<String, String> {
    if v.contains(':') {
        Ok(v.to_owned())
    } else {
        Err(format!("--{name} needs HOST:PORT, not {v:?}"))
    }
}

/// An optional `HOST:PORT` flag (`--join`, `--advertise`).
fn optional_host_port(flags: &[(&str, &str)], name: &str) -> Result<Option<String>, String> {
    single_flag(flags, name, None, |v| host_port(name, v).map(Some))
}

fn parse_single_scale(flags: &[(&str, &str)], default: u32) -> Result<u32, String> {
    single_flag(flags, "scale", default, |v| positive("scale", v))
}

fn parse_jobs(flags: &[(&str, &str)]) -> Result<usize, String> {
    single_flag(flags, "jobs", 0, |v| positive("jobs", v))
}

fn parse_format(flags: &[(&str, &str)]) -> Result<OutputFormat, String> {
    single_flag(flags, "format", OutputFormat::Table, OutputFormat::parse)
}

/// The `--format` path for commands without a CSV rendering (search, sim,
/// check). CSV is rejected here at parse time, so every malformed-format
/// diagnostic flows through the same usage-error path and exits 2.
fn parse_format_no_csv(flags: &[(&str, &str)], command: &str) -> Result<OutputFormat, String> {
    match parse_format(flags)? {
        OutputFormat::Csv => Err(format!("{command} supports --format json|table")),
        format => Ok(format),
    }
}

/// Output format for `hetmem fix`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FixFormat {
    /// One summary line per program × model pair, then the fixed source.
    Pretty,
    /// JSON Lines: one `"fix"` object per pair plus a summary line.
    Json,
    /// Unified-style line diff between the original and fixed lowerings.
    Diff,
}

impl FixFormat {
    fn parse(v: &str) -> Result<FixFormat, String> {
        match v {
            "pretty" => Ok(FixFormat::Pretty),
            "json" => Ok(FixFormat::Json),
            "diff" => Ok(FixFormat::Diff),
            other => Err(format!(
                "fix supports --format pretty|json|diff, not {other:?}"
            )),
        }
    }
}

/// The `--mode` execution-mode flag shared by `sweep`, `search`, and
/// `sim`.
fn parse_mode(flags: &[(&str, &str)]) -> Result<ExecMode, String> {
    single_flag(flags, "mode", ExecMode::Accurate, ExecMode::parse)
}

fn parse_cache_dir(flags: &[(&str, &str)]) -> Result<Option<PathBuf>, String> {
    Ok(optional_flag(flags, "cache-dir")?.map(PathBuf::from))
}

/// Parses a `--timeline` value of the form `path[:interval]`. A numeric
/// suffix after the last `:` is the window size in ticks; without one the
/// whole value is the path and [`DEFAULT_TIMELINE_INTERVAL`] applies.
fn parse_timeline_value(value: &str) -> Result<(String, u64), String> {
    if let Some((path, suffix)) = value.rsplit_once(':') {
        if !suffix.is_empty() && suffix.bytes().all(|b| b.is_ascii_digit()) {
            let interval = suffix
                .parse::<u64>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| "--timeline interval must be a positive integer".to_owned())?;
            if path.is_empty() {
                return Err("--timeline needs a path before the interval".to_owned());
            }
            return Ok((path.to_owned(), interval));
        }
    }
    Ok((value.to_owned(), DEFAULT_TIMELINE_INTERVAL))
}

fn parse_list<T>(
    values: &[&str],
    parse: impl Fn(&str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    values.iter().map(|v| parse(v)).collect()
}

/// Strips the bare `--all` switch used by `check` and `fix`. Unlike the
/// value-taking flags [`split_flags`] handles, it takes no value, so it is
/// removed first; returns whether it was given and the other arguments.
fn take_all_switch(args: &[String]) -> (bool, Vec<String>) {
    let all = args.iter().any(|a| a == "--all");
    let remaining = args.iter().filter(|a| *a != "--all").cloned().collect();
    (all, remaining)
}

fn expect_no_positionals(positionals: &[&str], command: &str) -> Result<(), String> {
    match positionals.first() {
        None => Ok(()),
        Some(extra) => Err(format!("unexpected argument {extra:?} for {command}")),
    }
}

fn parse_sweep(args: &[String]) -> Result<Command, String> {
    let (positionals, flags) = split_flags(
        args,
        &[
            "kernel",
            "system",
            "space",
            "scale",
            "jobs",
            "cache-dir",
            "format",
            "mode",
            "join",
        ],
    )?;
    expect_no_positionals(&positionals, "sweep")?;

    Ok(Command::Sweep {
        spec: parse_axes(&flags)?,
        format: parse_format(&flags)?,
        jobs: parse_jobs(&flags)?,
        cache_dir: parse_cache_dir(&flags)?,
        mode: parse_mode(&flags)?,
        join: optional_host_port(&flags, "join")?,
    })
}

/// The spec axes shared by `sweep` and `search`: kernels, systems,
/// spaces, and scales, with the same defaults and family-narrowing rules.
fn parse_axes(flags: &[(&str, &str)]) -> Result<SweepSpec, String> {
    let kernel_names = flag_values(flags, "kernel");
    let kernels = if kernel_names.is_empty() {
        Kernel::ALL.to_vec()
    } else {
        parse_list(&kernel_names, parse_kernel)?
    };

    let system_names = flag_values(flags, "system");
    let space_names = flag_values(flags, "space");
    // With no target filter, cover both families; a filter on one family
    // narrows to it unless the other is filtered too.
    let (systems, spaces) = if system_names.is_empty() && space_names.is_empty() {
        (EvaluatedSystem::ALL.to_vec(), AddressSpace::ALL.to_vec())
    } else {
        (
            parse_list(&system_names, parse_system)?,
            parse_list(&space_names, parse_space)?,
        )
    };

    let scale_values = flag_values(flags, "scale");
    let scales = if scale_values.is_empty() {
        vec![1]
    } else {
        parse_list(&scale_values, |v| positive("scale", v))?
    };

    Ok(SweepSpec {
        kernels,
        systems,
        spaces,
        scales,
    })
}

fn parse_search(args: &[String]) -> Result<Command, String> {
    let (positionals, flags) = split_flags(
        args,
        &[
            "budget",
            "seed",
            "objectives",
            "strategy",
            "kernel",
            "system",
            "space",
            "scale",
            "jobs",
            "cache-dir",
            "format",
            "mode",
            "join",
        ],
    )?;
    expect_no_positionals(&positionals, "search")?;

    let space = SearchSpace::from_spec(&parse_axes(&flags)?);
    let objectives = if flags.iter().any(|(n, _)| *n == "objectives") {
        Objective::parse_list(&flag_values(&flags, "objectives"))?
    } else {
        Objective::ALL.to_vec()
    };
    Ok(Command::Search {
        config: SearchConfig {
            objectives,
            strategy: single_flag(&flags, "strategy", Strategy::Halving, Strategy::parse)?,
            budget: single_flag(&flags, "budget", space.default_budget(), |v| {
                positive("budget", v)
            })?,
            seed: single_flag(&flags, "seed", 0, |v| {
                v.parse::<u64>()
                    .map_err(|_| "--seed needs a non-negative integer".to_owned())
            })?,
            mode: parse_mode(&flags)?,
            space,
        },
        format: parse_format_no_csv(&flags, "search")?,
        jobs: parse_jobs(&flags)?,
        cache_dir: parse_cache_dir(&flags)?,
        join: optional_host_port(&flags, "join")?,
    })
}

/// Parses command-line arguments (without the program name).
///
/// # Errors
///
/// Returns a one-line message on malformed input; the binary prints it
/// with usage and exits 2.
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "tables" => {
            expect_no_positionals(&split_flags(rest, &[])?.0, "tables")?;
            Ok(Command::Tables)
        }
        "fig" => {
            let (positionals, flags) =
                split_flags(rest, &["scale", "format", "jobs", "cache-dir"])?;
            let number = positionals
                .first()
                .and_then(|v| v.parse::<u8>().ok())
                .filter(|n| matches!(n, 5..=7))
                .ok_or_else(|| "fig needs a figure number: 5, 6, or 7".to_owned())?;
            expect_no_positionals(&positionals[1..], "fig")?;
            Ok(Command::Fig {
                number,
                scale: parse_single_scale(&flags, 1)?,
                format: parse_format(&flags)?,
                jobs: parse_jobs(&flags)?,
                cache_dir: parse_cache_dir(&flags)?,
            })
        }
        "sweep" => parse_sweep(rest),
        "search" => parse_search(rest),
        "loc" => {
            let (positionals, _) = split_flags(rest, &[])?;
            let path = positionals
                .first()
                .map(|s| (*s).to_owned())
                .ok_or_else(|| "loc needs a source path".to_owned())?;
            expect_no_positionals(&positionals[1..], "loc")?;
            Ok(Command::Loc { path })
        }
        "check" => {
            let (all, remaining) = take_all_switch(rest);
            let (positionals, flags) =
                split_flags(&remaining, &["model", "format", "deny", "explain"])?;
            let targets: Vec<String> = positionals.iter().map(|s| (*s).to_owned()).collect();
            let explain = optional_flag(&flags, "explain")?;
            if all && !targets.is_empty() {
                return Err("check takes either --all or explicit targets, not both".to_owned());
            }
            if explain.is_some() && (all || !targets.is_empty()) {
                return Err("check --explain takes no targets".to_owned());
            }
            if explain.is_none() && !all && targets.is_empty() {
                return Err("check needs a kernel name, an .hdsl path, or --all".to_owned());
            }
            let models = parse_list(&flag_values(&flags, "model"), parse_space)?;
            let deny = single_flag(&flags, "deny", hetmem_dsl::Severity::Error, |v| match v {
                "warnings" | "warning" => Ok(hetmem_dsl::Severity::Warning),
                "notes" | "note" => Ok(hetmem_dsl::Severity::Note),
                other => Err(format!("--deny takes warnings|notes, not {other:?}")),
            })?;
            Ok(Command::Check {
                targets,
                all,
                models,
                format: parse_format_no_csv(&flags, "check")?,
                deny,
                explain,
            })
        }
        "fix" => {
            let (all, remaining) = take_all_switch(rest);
            let (positionals, flags) = split_flags(&remaining, &["model", "format", "deny"])?;
            let targets: Vec<String> = positionals.iter().map(|s| (*s).to_owned()).collect();
            if all && !targets.is_empty() {
                return Err("fix takes either --all or explicit targets, not both".to_owned());
            }
            if !all && targets.is_empty() {
                return Err("fix needs a kernel name, an .hdsl path, or --all".to_owned());
            }
            let deny_unchanged = single_flag(&flags, "deny", false, |v| match v {
                "unchanged" => Ok(true),
                other => Err(format!("fix --deny takes unchanged, not {other:?}")),
            })?;
            Ok(Command::Fix {
                targets,
                all,
                models: parse_list(&flag_values(&flags, "model"), parse_space)?,
                format: single_flag(&flags, "format", FixFormat::Pretty, FixFormat::parse)?,
                deny_unchanged,
            })
        }
        "lower" => {
            let (positionals, _) = split_flags(rest, &[])?;
            let path = positionals
                .first()
                .map(|s| (*s).to_owned())
                .ok_or_else(|| "lower needs a source path".to_owned())?;
            let model = parse_space(
                positionals
                    .get(1)
                    .ok_or_else(|| "lower needs a model (uni|pas|dis|adsm)".to_owned())?,
            )?;
            expect_no_positionals(&positionals[2..], "lower")?;
            Ok(Command::Lower { path, model })
        }
        "trace" => {
            let (positionals, flags) = split_flags(rest, &["scale"])?;
            let kernel = parse_kernel(
                positionals
                    .first()
                    .ok_or_else(|| "trace needs a kernel name".to_owned())?,
            )?;
            expect_no_positionals(&positionals[1..], "trace")?;
            Ok(Command::Trace {
                kernel,
                scale: parse_single_scale(&flags, 1)?,
            })
        }
        "sim" => {
            let (positionals, flags) =
                split_flags(rest, &["format", "events", "timeline", "mode"])?;
            let path = positionals
                .first()
                .map(|s| (*s).to_owned())
                .ok_or_else(|| "sim needs a trace path".to_owned())?;
            let system = parse_system(
                positionals
                    .get(1)
                    .ok_or_else(|| "sim needs a system name".to_owned())?,
            )?;
            expect_no_positionals(&positionals[2..], "sim")?;
            Ok(Command::Sim {
                path,
                system,
                format: parse_format_no_csv(&flags, "sim")?,
                events: optional_flag(&flags, "events")?,
                timeline: single_flag(&flags, "timeline", None, |v| {
                    parse_timeline_value(v).map(Some)
                })?,
                mode: parse_mode(&flags)?,
            })
        }
        "serve" => {
            let (positionals, flags) = split_flags(
                rest,
                &[
                    "addr",
                    "workers",
                    "queue-depth",
                    "cache-dir",
                    "advertise",
                    "join",
                    "heartbeat-ms",
                ],
            )?;
            expect_no_positionals(&positionals, "serve")?;
            let addr = single_flag(&flags, "addr", "127.0.0.1:7878".to_owned(), |v| {
                host_port("addr", v)
            })?;
            let workers = single_flag(&flags, "workers", 0, |v| positive("workers", v))?;
            let queue_depth =
                single_flag(&flags, "queue-depth", 32, |v| positive("queue-depth", v))?;
            let advertise = optional_host_port(&flags, "advertise")?;
            let join = optional_host_port(&flags, "join")?;
            let heartbeat_ms =
                single_flag(&flags, "heartbeat-ms", 500, |v| positive("heartbeat-ms", v))?;
            Ok(Command::Serve {
                addr,
                workers,
                queue_depth,
                cache_dir: parse_cache_dir(&flags)?,
                advertise,
                join,
                heartbeat_ms,
            })
        }
        "catalog" => {
            expect_no_positionals(&split_flags(rest, &[])?.0, "catalog")?;
            Ok(Command::Catalog)
        }
        "study" => {
            let (positionals, flags) = split_flags(rest, &["scale"])?;
            let study = Study::parse(positionals.first().ok_or_else(|| {
                "study needs a name: locality|energy|page-size|partition|pareto".to_owned()
            })?)?;
            expect_no_positionals(&positionals[1..], "study")?;
            Ok(Command::Study {
                study,
                scale: parse_single_scale(&flags, study.default_scale())?,
            })
        }
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(format!("unknown command {other:?}")),
    }
}

/// Connects to a serve fleet when `--join` was given and returns a
/// dispatcher that scatters sweep/search jobs across the member ring.
fn fleet_dispatcher(join: Option<&str>) -> Result<Option<Arc<dyn JobDispatcher>>, SimError> {
    let Some(addr) = join else { return Ok(None) };
    let fleet = FleetDispatcher::connect(addr)?;
    eprintln!("joined fleet via {addr}: {} node(s)", fleet.nodes());
    Ok(Some(Arc::new(fleet)))
}

/// Executes a parsed command, writing human-readable output to stdout.
///
/// # Errors
///
/// Returns a [`SimError`] on I/O failures, unparsable inputs, or malformed
/// trace/DSL files. The binary maps it to an exit code uniformly:
/// [`SimError::exit_code`] gives 2 for usage errors and 1 for everything
/// else.
pub fn execute(command: &Command) -> Result<(), SimError> {
    match command {
        Command::Help => outln!("{USAGE}"),
        Command::Tables => {
            print_catalog();
            print_config();
            print_characteristics();
            print_comm_params();
            print_loc_table();
        }
        Command::Catalog => print_catalog(),
        Command::Study { study, scale } => {
            let config = ExperimentConfig::paper();
            match study {
                Study::Locality => print_study_locality(*scale, &config),
                Study::Energy => print_study_energy(*scale, &config)?,
                Study::PageSize => print_study_page_size(*scale, &config)?,
                Study::Partition => print_study_partition(*scale, &config)?,
                Study::Pareto => print_study_pareto(*scale, &config)?,
            }
        }
        Command::Fig {
            number,
            scale,
            format,
            jobs,
            cache_dir,
        } => {
            execute_fig(*number, *scale, *format, *jobs, cache_dir.clone())?;
        }
        Command::Sweep {
            spec,
            format,
            jobs,
            cache_dir,
            mode,
            join,
        } => {
            let config = ExperimentConfig::paper();
            let opts = SweepOptions::builder()
                .workers(*jobs)
                .cache_dir(cache_dir.clone())
                .progress(true)
                .mode(*mode)
                .dispatcher(fleet_dispatcher(join.as_deref())?)
                .build();
            let out = hetmem_xplore::run_sweep(spec, &config, &opts)?;
            out!("{}", format.render(&out.records));
            eprintln!("sweep: {}", out.stats);
        }
        Command::Search {
            config,
            format,
            jobs,
            cache_dir,
            join,
        } => {
            let opts = SearchOptions {
                workers: *jobs,
                cache_dir: cache_dir.clone(),
                dispatcher: fleet_dispatcher(join.as_deref())?,
                ..SearchOptions::default()
            };
            let result = hetmem_search::run_search(config, opts)?;
            // Stdout carries only the deterministic report (byte-identical
            // for a fixed seed + spec, cold or warm cache); execution
            // counters go to stderr like the sweep's.
            match format {
                OutputFormat::Json => outln!("{}", result.to_json().render()),
                OutputFormat::Table => outln!("{}", result.render_table()),
                OutputFormat::Csv => unreachable!("rejected at parse time"),
            }
            eprintln!("search: {}", result.stats);
        }
        Command::Loc { path } => {
            let program = load_program(path)?;
            outln!("{}: {} compute lines", program.name, program.compute_lines);
            for model in AddressSpace::ALL {
                outln!(
                    "  {:<4} {:>3} communication-handling lines",
                    model.abbrev(),
                    hetmem_dsl::lower(&program, model).comm_overhead_lines()
                );
            }
        }
        Command::Check {
            targets,
            all,
            models,
            format,
            deny,
            explain,
        } => match explain {
            Some(code) => execute_explain(code)?,
            None => execute_check(targets, *all, models, *format, *deny)?,
        },
        Command::Fix {
            targets,
            all,
            models,
            format,
            deny_unchanged,
        } => execute_fix(targets, *all, models, *format, *deny_unchanged)?,
        Command::Lower { path, model } => {
            let program = load_program(path)?;
            outln!(
                "{}",
                hetmem_dsl::render(&hetmem_dsl::lower(&program, *model))
            );
        }
        Command::Trace { kernel, scale } => {
            let trace = kernel.generate(&KernelParams::scaled(*scale));
            out!("{}", hetmem_trace::write_trace(&trace));
        }
        Command::Sim {
            path,
            system,
            format,
            events,
            timeline,
            mode,
        } => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| SimError::Io(format!("cannot read {path}: {e}")))?;
            let trace = hetmem_trace::parse_trace(&text)
                .map_err(|e| SimError::MalformedTrace(e.to_string()))?;
            let recorder = Recorder::new(
                events.as_ref().map(|_| EventTrace::new()),
                timeline
                    .as_ref()
                    .map(|&(_, interval)| IntervalProfiler::new(interval)),
            );
            let mut sim = Simulation::builder()
                .comm_model(system.comm_model(hetmem_sim::CommCosts::paper()))
                .mode(*mode)
                .observer(recorder)
                .build()?;
            let report = sim.run(&trace)?;
            let recorder = sim.into_observer();
            if let (Some(out_path), Some(event_trace)) = (events, &recorder.events) {
                std::fs::write(out_path, hetmem_xplore::events_to_jsonl(event_trace))
                    .map_err(|e| SimError::Io(format!("cannot write {out_path}: {e}")))?;
            }
            if let (Some((out_path, _)), Some(profiler)) = (timeline, &recorder.timeline) {
                std::fs::write(out_path, hetmem_xplore::timeline_to_jsonl(profiler))
                    .map_err(|e| SimError::Io(format!("cannot write {out_path}: {e}")))?;
            }
            match format {
                OutputFormat::Table => outln!("{}: {report}", system.name()),
                OutputFormat::Json => {
                    let answer = hetmem_xplore::sim_answer_to_json(system.name(), &report);
                    outln!("{}", answer.render());
                }
                OutputFormat::Csv => unreachable!("rejected at parse time"),
            }
        }
        Command::Serve {
            addr,
            workers,
            queue_depth,
            cache_dir,
            advertise,
            join,
            heartbeat_ms,
        } => {
            let server = hetmem_serve::Server::start(&hetmem_serve::ServeOptions {
                addr: addr.clone(),
                workers: *workers,
                queue_depth: *queue_depth,
                cache_dir: cache_dir.clone(),
                advertise: advertise.clone(),
                join: join.clone(),
                heartbeat_ms: *heartbeat_ms,
            })?;
            // The resolved addresses on stdout first, so scripts binding
            // port 0 can discover the ephemeral ports.
            outln!("hetmem-serve listening on http://{}", server.local_addr());
            if let Some(cluster) = server.cluster_addr() {
                outln!("hetmem-serve cluster on {cluster}");
            }
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            server.wait();
        }
    }
    Ok(())
}

/// Figures 5–7 through the sweep engine: parallel and optionally cached.
fn execute_fig(
    number: u8,
    scale: u32,
    format: OutputFormat,
    jobs: usize,
    cache_dir: Option<PathBuf>,
) -> Result<(), SimError> {
    let config = ExperimentConfig::paper();
    let opts = SweepOptions::builder()
        .workers(jobs)
        .cache_dir(cache_dir)
        .build();
    // The table format renders the paper's figure; json/csv emit the raw
    // sweep records for scripting.
    if format == OutputFormat::Table {
        match number {
            5 => {
                let (runs, _) = hetmem_xplore::run_case_studies(scale, &config, &opts)?;
                outln!("{}", render_figure5(&runs));
            }
            6 => {
                let (runs, _) = hetmem_xplore::run_case_studies(scale, &config, &opts)?;
                outln!("{}", render_figure6(&runs));
            }
            7 => {
                let (runs, _) = hetmem_xplore::run_address_spaces(scale, &config, &opts)?;
                outln!("{}", render_figure7(&runs));
            }
            _ => unreachable!("validated at parse time"),
        }
        return Ok(());
    }
    let spec = match number {
        5 | 6 => SweepSpec {
            spaces: vec![],
            ..SweepSpec::full(scale)
        },
        7 => SweepSpec {
            systems: vec![],
            ..SweepSpec::full(scale)
        },
        _ => unreachable!("validated at parse time"),
    };
    let out = hetmem_xplore::run_sweep(&spec, &config, &opts)?;
    out!("{}", format.render(&out.records));
    Ok(())
}

/// Resolves a `check` target: an `.hdsl` path loads a source file, any
/// other word looks up a built-in program by (normalized) name.
fn resolve_check_target(target: &str) -> Result<hetmem_dsl::Program, SimError> {
    if target.ends_with(".hdsl") {
        return load_program(target);
    }
    hetmem_dsl::programs::find(target).ok_or_else(|| {
        SimError::Usage(format!(
            "unknown kernel {target:?} (use a built-in kernel name, an .hdsl path, or --all)"
        ))
    })
}

/// Runs `pass` (the checker or the fixer) over the programs × models a
/// `check` or `fix` run covers, program by program: every built-in
/// program (the paper's kernels, then the extras) with `all`, otherwise
/// the resolved targets; under `models`, or all four when none are given.
fn run_dsl_pass<R>(
    targets: &[String],
    all: bool,
    models: &[AddressSpace],
    pass: impl Fn(&hetmem_dsl::Program, AddressSpace) -> R,
) -> Result<Vec<R>, SimError> {
    let models = if models.is_empty() {
        &AddressSpace::ALL[..]
    } else {
        models
    };
    let programs: Vec<hetmem_dsl::Program> = if all {
        let mut v = hetmem_dsl::programs::all();
        v.extend(hetmem_dsl::programs::extra::all());
        v
    } else {
        targets
            .iter()
            .map(|t| resolve_check_target(t))
            .collect::<Result<_, _>>()?
    };
    Ok(programs
        .iter()
        .flat_map(|program| models.iter().map(|&model| pass(program, model)))
        .collect())
}

/// Runs the memory-model verifier over the selected programs × models,
/// printing reports (or JSONL) and mapping Error findings to exit 1.
fn execute_check(
    targets: &[String],
    all: bool,
    models: &[AddressSpace],
    format: OutputFormat,
    deny: hetmem_dsl::Severity,
) -> Result<(), SimError> {
    let reports = run_dsl_pass(targets, all, models, hetmem_dsl::check)?;
    match format {
        OutputFormat::Table => {
            for report in &reports {
                outln!("{report}");
            }
        }
        OutputFormat::Json => out!("{}", hetmem_xplore::check_reports_to_jsonl(&reports)),
        OutputFormat::Csv => unreachable!("rejected at parse time"),
    }
    // Severity orders most-severe-first, so `<= deny` selects everything
    // at or above the denied threshold.
    let errors: usize = reports
        .iter()
        .flat_map(|r| &r.diagnostics)
        .filter(|d| d.severity <= deny)
        .count();
    if errors > 0 {
        return Err(SimError::CheckFailed { errors });
    }
    Ok(())
}

/// Prints the `rustc --explain`-style paragraph for one diagnostic code.
/// Unknown codes are usage errors (exit 2).
fn execute_explain(text: &str) -> Result<(), SimError> {
    let code = hetmem_dsl::Code::parse(text).ok_or_else(|| {
        SimError::Usage(format!(
            "unknown diagnostic code {text:?} (codes run HM0001-HM0005 and HM0101-HM0106)"
        ))
    })?;
    outln!("{}: {}", code, code.name());
    outln!("{}", code.explanation());
    Ok(())
}

/// Runs the checker-driven communication optimizer over the selected
/// programs × models and prints each outcome in the requested format.
fn execute_fix(
    targets: &[String],
    all: bool,
    models: &[AddressSpace],
    format: FixFormat,
    deny_unchanged: bool,
) -> Result<(), SimError> {
    let reports = run_dsl_pass(targets, all, models, hetmem_dsl::fix)?;
    match format {
        FixFormat::Pretty => {
            for report in &reports {
                outln!("{report}");
                outln!("{}", hetmem_dsl::render(&report.fixed));
            }
        }
        FixFormat::Json => out!("{}", hetmem_xplore::fix_reports_to_jsonl(&reports)),
        FixFormat::Diff => {
            for report in &reports {
                let id = format!("{}/{}", report.original.program_name, report.original.model);
                outln!("--- {id} (original)");
                outln!("+++ {id} (fixed)");
                out!("{}", report.diff());
            }
        }
    }
    if deny_unchanged && !reports.iter().any(hetmem_dsl::FixReport::changed) {
        return Err(SimError::FixUnchanged {
            pairs: reports.len(),
        });
    }
    Ok(())
}

fn load_program(path: &str) -> Result<hetmem_dsl::Program, SimError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| SimError::Io(format!("cannot read {path}: {e}")))?;
    hetmem_dsl::parse_program(&text).map_err(|e| SimError::Io(e.to_string()))
}

fn print_catalog() {
    let mut table = TextTable::new(&[
        "scheme",
        "address space",
        "connection",
        "coherence",
        "shared data",
        "consistency",
        "synchronization",
        "locality",
    ]);
    for e in hetmem_core::catalog() {
        table.row(vec![
            e.name.to_owned(),
            e.space_label().to_owned(),
            e.connection.to_string(),
            e.coherence.to_owned(),
            e.shared_data.to_owned(),
            e.consistency.to_string(),
            e.synchronization.to_owned(),
            e.locality.to_owned(),
        ]);
    }
    outln!(
        "Table I: summary of heterogeneous computing memory systems\n{}",
        table.render()
    );
}

fn print_config() {
    let c = SystemConfig::baseline();
    outln!("Table II: baseline system configuration");
    outln!(
        "CPU: 1 core, {:.1} GHz, out-of-order, gshare",
        ClockDomain::CPU.frequency_hz() as f64 / 1e9
    );
    outln!(
        "  issue width {}, ROB {} entries, mispredict penalty {} cycles",
        c.cpu.issue_width,
        c.cpu.rob_entries,
        c.cpu.mispredict_penalty
    );
    outln!(
        "  L1D: {}-way {} KB ({}-cycle)   L2: {}-way {} KB ({}-cycle)",
        c.cpu.l1d.associativity,
        c.cpu.l1d.capacity_bytes / 1024,
        c.cpu.l1d.latency_cycles,
        c.cpu.l2.associativity,
        c.cpu.l2.capacity_bytes / 1024,
        c.cpu.l2.latency_cycles
    );
    outln!(
        "GPU: 1 core, {:.1} GHz, in-order, {}-wide SIMD, stall on branch ({} cycles)",
        ClockDomain::GPU.frequency_hz() as f64 / 1e9,
        c.gpu.simd_width,
        c.gpu.branch_stall_cycles
    );
    outln!(
        "  L1D: {}-way {} KB ({}-cycle)   scratchpad: {} KB s/w managed ({}-cycle)",
        c.gpu.l1d.associativity,
        c.gpu.l1d.capacity_bytes / 1024,
        c.gpu.l1d.latency_cycles,
        c.gpu.scratchpad_bytes / 1024,
        c.gpu.scratchpad_latency
    );
    outln!(
        "L3: {}-way {} MB total ({} tiles, {}-cycle), ring-bus network ({} cycles/hop)",
        c.llc.tile.associativity,
        u64::from(c.llc.tiles) * c.llc.tile.capacity_bytes / (1024 * 1024),
        c.llc.tiles,
        c.llc.tile.latency_cycles,
        c.noc.hop_cycles
    );
    outln!(
        "DRAM: DDR3-1333, {} controllers, {:?} scheduling, {} banks/channel, {} KB rows",
        c.dram.channels,
        c.dram.policy,
        c.dram.banks_per_channel,
        c.dram.row_bytes / 1024
    );
    outln!(
        "MMU: {} KB CPU pages / {} KB GPU pages, {}-entry TLBs, {}-cycle walks\n",
        c.mmu.cpu_page_bytes / 1024,
        c.mmu.gpu_page_bytes / 1024,
        c.mmu.tlb_entries,
        c.mmu.walk_cycles
    );
}

/// Table III, measured from each kernel's full-scale generated trace.
fn print_characteristics() {
    let mut table = TextTable::new(&["kernel", "CPU", "GPU", "serial", "comms", "initial B"]);
    for k in Kernel::ALL {
        let c = k.generate(&KernelParams::full()).characteristics();
        table.row(vec![
            k.name().to_owned(),
            c.cpu_instructions.to_string(),
            c.gpu_instructions.to_string(),
            c.serial_instructions.to_string(),
            c.communications.to_string(),
            c.initial_transfer_bytes.to_string(),
        ]);
    }
    outln!(
        "Table III: benchmark characteristics (measured from generated traces)\n{}",
        table.render()
    );
}

/// Table IV, followed by what its parameters cost end to end on each
/// fabric for the reduction kernel's 320 512-byte input.
fn print_comm_params() {
    let c = CommCosts::paper();
    let mut table = TextTable::new(&["name", "description", "system", "latency (CPU cycles)"]);
    for (name, description, system, latency) in [
        (
            "api-pci",
            "mem copy using PCI-E",
            "CPU+GPU, GMAC",
            format!("{}+trans_rate", c.api_pci_cycles),
        ),
        (
            "api-acq",
            "acquire action",
            "LRB",
            c.api_acq_cycles.to_string(),
        ),
        (
            "api-tr",
            "data transfer",
            "LRB",
            c.api_tr_cycles.to_string(),
        ),
        ("lib-pf", "page fault", "LRB", c.lib_pf_cycles.to_string()),
    ] {
        table.row(vec![
            name.into(),
            description.into(),
            system.into(),
            latency,
        ]);
    }
    outln!(
        "Table IV: parameters of modeling communication overhead\n{}",
        table.render()
    );
    outln!(
        "trans_rate = {} GB/s (PCI-E 2.0)\n",
        c.pci_bytes_per_sec as f64 / 1e9
    );
    let mut derived = TextTable::new(&["fabric", "ticks", "microseconds"]);
    for f in FabricKind::ALL {
        let ticks = f.transfer_ticks(320_512, &c);
        derived.row(vec![
            f.to_string(),
            ticks.to_string(),
            format!("{:.2}", hetmem_sim::ticks_to_ns(ticks) / 1000.0),
        ]);
    }
    outln!(
        "Derived transfer costs (320512 B, the reduction input)\n{}",
        derived.render()
    );
}

fn print_loc_table() {
    let mut table = TextTable::new(&["kernel", "Comp", "UNI", "PAS", "DIS", "ADSM"]);
    for row in hetmem_dsl::loc_table() {
        table.row(vec![
            row.kernel.clone(),
            row.comp.to_string(),
            row.uni.to_string(),
            row.pas.to_string(),
            row.dis.to_string(),
            row.adsm.to_string(),
        ]);
    }
    outln!(
        "Table V: source lines to handle data communication\n{}",
        table.render()
    );
}

/// Prints a study's `=== title ===` section header.
fn print_section(title: &str) {
    outln!("\n=== {title} ===\n");
}

/// The locality-management study §V-D says it could not perform: implicit
/// shared-cache management against the explicit `push` with the hybrid
/// locality bit (§II-B5), and against the same pushes with the bit
/// ignored.
fn print_study_locality(scale: u32, config: &ExperimentConfig) {
    print_section(&format!(
        "Locality study: shared-table reuse under streaming pressure (scale {scale})"
    ));
    let rows = run_locality_study(scale, config);
    let base = rows[0].total_ticks as f64;
    let mut table = TextTable::new(&["variant", "total ticks", "vs implicit", "LLC miss rate"]);
    for r in &rows {
        table.row(vec![
            r.variant.to_string(),
            r.total_ticks.to_string(),
            format!("{:.3}x", r.total_ticks as f64 / base),
            format!("{:.1}%", 100.0 * r.llc_miss_rate),
        ]);
    }
    outln!("{}", table.render());
    outln!("The hybrid locality bit lets the pinned shared table survive both PUs'");
    outln!("streaming floods; ignoring the bit (plain LRU) throws the push away.");
}

/// The energy side of the design-space comparison (§VII motivates the
/// partially shared space with power/energy opportunities): per-component
/// estimates for every case-study cell.
fn print_study_energy(scale: u32, config: &ExperimentConfig) -> Result<(), SimError> {
    print_section(&format!(
        "Energy study: per-component estimates for the evaluated systems (scale {scale})"
    ));
    let (runs, _) = hetmem_xplore::run_case_studies(scale, config, &SweepOptions::default())?;
    // The grid's own traces, still in the engine's trace store.
    let comm_bytes: Vec<(Kernel, u64, u64)> = Kernel::ALL
        .iter()
        .map(|&kernel| {
            let system = EvaluatedSystem::Fusion;
            let kind = JobKind::CaseStudy { system };
            let trace = job_trace(&Job {
                id: 0,
                kernel,
                kind,
                scale,
            });
            let h2d = trace.comm_bytes_in(TransferDirection::HostToDevice);
            (kernel, h2d, trace.comm_bytes())
        })
        .collect();
    let evals = evaluate_energy(&runs, &comm_bytes);
    let mut table = TextTable::new(&[
        "kernel",
        "system",
        "total (µJ)",
        "cores",
        "caches",
        "DRAM",
        "comm",
        "static",
    ]);
    for kernel in Kernel::ALL {
        for system in EvaluatedSystem::ALL {
            if let Some(e) = evals
                .iter()
                .find(|e| e.kernel == kernel && e.system == system)
            {
                let b = &e.breakdown;
                table.row(vec![
                    kernel.name().to_owned(),
                    system.name().to_owned(),
                    format!("{:.1}", b.total_uj()),
                    format!("{:.1}", b.cores_uj),
                    format!("{:.1}", b.caches_uj),
                    format!("{:.1}", b.dram_uj),
                    format!("{:.2}", b.comm_uj),
                    format!("{:.1}", b.static_uj),
                ]);
            }
        }
    }
    outln!("{}", table.render());
    outln!("Shared-window systems (LRB, GMAC) save link energy by never moving results;");
    outln!("Fusion replaces the PCI link's per-byte cost with cheap on-die copies.");
    Ok(())
}

/// §II-A1 notes that a virtually unified (or partially shared) address
/// space lets each PU choose its own page size — "GPUs can have large
/// page size to accommodate high stream locality". Quantifies that option
/// on every kernel.
fn print_study_page_size(scale: u32, config: &ExperimentConfig) -> Result<(), SimError> {
    print_section(&format!(
        "GPU page-size study: 4 KB vs 64 KB vs 2 MB pages (scale {scale})"
    ));
    let sizes = [4_096u64, 64 * 1024, 2 * 1024 * 1024];
    let mut table = TextTable::new(&[
        "kernel",
        "page size",
        "total ticks",
        "vs 4KB",
        "GPU TLB miss rate",
    ]);
    let rows = hetmem_xplore::run_page_size_study(&Kernel::ALL, scale, config, &sizes)?;
    for rows in rows.chunks(sizes.len()) {
        let base = rows[0].total_ticks as f64;
        for r in rows {
            table.row(vec![
                r.kernel.name().to_owned(),
                if r.gpu_page_bytes >= 1024 * 1024 {
                    format!("{} MB", r.gpu_page_bytes / (1024 * 1024))
                } else {
                    format!("{} KB", r.gpu_page_bytes / 1024)
                },
                r.total_ticks.to_string(),
                format!("{:.4}x", r.total_ticks as f64 / base),
                format!("{:.2}%", 100.0 * r.gpu_tlb_miss_rate),
            ]);
        }
    }
    outln!("{}", table.render());
    outln!("Larger GPU pages eliminate page walks on streaming kernels — one of the");
    outln!("hardware design options the paper credits to non-physically-unified");
    outln!("address spaces (each PU keeps its own page-table format).");
    Ok(())
}

/// The work-partitioning sweep the paper delegates to Qilin-style systems
/// (§IV-B — "we simply divide the computational work evenly"): the
/// time-optimal CPU/GPU split per kernel on the ideal system, and how much
/// the even split leaves on the table.
fn print_study_partition(scale: u32, config: &ExperimentConfig) -> Result<(), SimError> {
    print_section(&format!(
        "Work-partitioning sweep on IDEAL-HETERO (scale {scale})"
    ));
    let shares = [1u32, 2, 5, 10, 25, 50, 75, 90];
    let mut table = TextTable::new(&[
        "kernel",
        "best GPU share %",
        "best total (ticks)",
        "even-split total",
        "even/best",
    ]);
    for kernel in Kernel::ALL {
        let rows = hetmem_xplore::run_partition_sweep(
            EvaluatedSystem::IdealHetero,
            kernel,
            scale,
            config,
            &shares,
        )?;
        let best = best_partition(&rows);
        let even = rows
            .iter()
            .find(|r| r.gpu_share_pct == 50)
            .expect("50 is among the swept shares")
            .total_ticks;
        table.row(vec![
            kernel.name().to_owned(),
            best.gpu_share_pct.to_string(),
            best.total_ticks.to_string(),
            even.to_string(),
            format!("{:.2}x", even as f64 / best.total_ticks as f64),
        ]);
    }
    outln!("{}", table.render());
    outln!("The in-order SIMD GPU retires these instruction streams more slowly than");
    outln!("the out-of-order CPU, so the time-balanced split is CPU-leaning — the even");
    outln!("division of the paper's methodology leaves the GPU as the parallel-phase");
    outln!("critical path (visible in Figure 5's GPU-bound parallel bars).");
    Ok(())
}

/// Efficiency metrics for the evaluated systems and the resulting Pareto
/// frontier (the paper's §VII future work), in `hetmem-search`'s shared
/// table.
fn print_study_pareto(scale: u32, config: &ExperimentConfig) -> Result<(), SimError> {
    print_section(&format!(
        "Efficiency metrics & Pareto frontier over the evaluated systems (scale {scale})"
    ));
    let (runs, _) = hetmem_xplore::run_case_studies(scale, config, &SweepOptions::default())?;
    outln!("{}", system_frontier_table(&evaluate_systems(&runs)));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_every_command_form() {
        assert_eq!(parse_args(&args(&["tables"])), Ok(Command::Tables));
        assert_eq!(parse_args(&args(&["catalog"])), Ok(Command::Catalog));
        assert_eq!(parse_args(&args(&[])), Ok(Command::Help));
        assert_eq!(parse_args(&args(&["help"])), Ok(Command::Help));
        assert_eq!(
            parse_args(&args(&["fig", "5"])),
            Ok(Command::Fig {
                number: 5,
                scale: 1,
                format: OutputFormat::Table,
                jobs: 0,
                cache_dir: None
            })
        );
        assert_eq!(
            parse_args(&args(&["fig", "7", "--scale", "64", "--format", "json"])),
            Ok(Command::Fig {
                number: 7,
                scale: 64,
                format: OutputFormat::Json,
                jobs: 0,
                cache_dir: None
            })
        );
        assert_eq!(
            parse_args(&args(&["trace", "reduction", "--scale", "8"])),
            Ok(Command::Trace {
                kernel: Kernel::Reduction,
                scale: 8
            })
        );
        assert_eq!(
            parse_args(&args(&["sim", "t.hmt", "fusion"])),
            Ok(Command::Sim {
                path: "t.hmt".into(),
                system: EvaluatedSystem::Fusion,
                format: OutputFormat::Table,
                events: None,
                timeline: None,
                mode: ExecMode::Accurate,
            })
        );
        assert_eq!(
            parse_args(&args(&[
                "sim",
                "t.hmt",
                "gmac",
                "--events",
                "ev.jsonl",
                "--timeline",
                "tl.jsonl:500000",
            ])),
            Ok(Command::Sim {
                path: "t.hmt".into(),
                system: EvaluatedSystem::Gmac,
                format: OutputFormat::Table,
                events: Some("ev.jsonl".into()),
                timeline: Some(("tl.jsonl".into(), 500_000)),
                mode: ExecMode::Accurate,
            })
        );
        assert_eq!(
            parse_args(&args(&["lower", "p.hdsl", "adsm"])),
            Ok(Command::Lower {
                path: "p.hdsl".into(),
                model: AddressSpace::Adsm
            })
        );
        assert_eq!(
            parse_args(&args(&["loc", "p.hdsl"])),
            Ok(Command::Loc {
                path: "p.hdsl".into()
            })
        );
        assert_eq!(
            parse_args(&args(&["check", "--all"])),
            Ok(Command::Check {
                targets: vec![],
                all: true,
                models: vec![],
                format: OutputFormat::Table,
                deny: hetmem_dsl::Severity::Error,
                explain: None,
            })
        );
        assert_eq!(
            parse_args(&args(&["check", "--explain", "HM0101"])),
            Ok(Command::Check {
                targets: vec![],
                all: false,
                models: vec![],
                format: OutputFormat::Table,
                deny: hetmem_dsl::Severity::Error,
                explain: Some("HM0101".into()),
            })
        );
        assert_eq!(
            parse_args(&args(&["fix", "--all"])),
            Ok(Command::Fix {
                targets: vec![],
                all: true,
                models: vec![],
                format: FixFormat::Pretty,
                deny_unchanged: false,
            })
        );
        assert_eq!(
            parse_args(&args(&[
                "fix",
                "kmeans",
                "--model",
                "pas",
                "--format",
                "diff",
                "--deny",
                "unchanged"
            ])),
            Ok(Command::Fix {
                targets: vec!["kmeans".into()],
                all: false,
                models: vec![AddressSpace::PartiallyShared],
                format: FixFormat::Diff,
                deny_unchanged: true,
            })
        );
        assert_eq!(
            parse_args(&args(&[
                "check",
                "reduction",
                "p.hdsl",
                "--model",
                "dis,adsm",
                "--format",
                "json"
            ])),
            Ok(Command::Check {
                targets: vec!["reduction".into(), "p.hdsl".into()],
                all: false,
                models: vec![AddressSpace::Disjoint, AddressSpace::Adsm],
                format: OutputFormat::Json,
                deny: hetmem_dsl::Severity::Error,
                explain: None,
            })
        );
        // Single-valued flags take their value verbatim, commas included.
        assert_eq!(
            parse_args(&args(&["fig", "6", "--cache-dir", "a,b"])),
            Ok(Command::Fig {
                number: 6,
                scale: 1,
                format: OutputFormat::Table,
                jobs: 0,
                cache_dir: Some(PathBuf::from("a,b"))
            })
        );
        assert_eq!(
            parse_args(&args(&[
                "sim",
                "t.hmt",
                "ideal",
                "--events",
                "e,v.jsonl",
                "--timeline",
                "t,l.jsonl:500",
            ])),
            Ok(Command::Sim {
                path: "t.hmt".into(),
                system: EvaluatedSystem::IdealHetero,
                format: OutputFormat::Table,
                events: Some("e,v.jsonl".into()),
                timeline: Some(("t,l.jsonl".into(), 500)),
                mode: ExecMode::Accurate,
            })
        );
        assert_eq!(
            parse_args(&args(&["serve", "--cache-dir", "c,d"])),
            Ok(Command::Serve {
                addr: "127.0.0.1:7878".into(),
                workers: 0,
                queue_depth: 32,
                cache_dir: Some(PathBuf::from("c,d")),
                advertise: None,
                join: None,
                heartbeat_ms: 500,
            })
        );
        for (name, study, scale) in [
            ("locality", Study::Locality, 1),
            ("energy", Study::Energy, 1),
            ("page-size", Study::PageSize, 1),
            ("partition", Study::Partition, 4),
            ("pareto", Study::Pareto, 1),
        ] {
            assert_eq!(
                parse_args(&args(&["study", name])),
                Ok(Command::Study { study, scale })
            );
        }
        assert_eq!(
            parse_args(&args(&["study", "partition", "--scale", "64"])),
            Ok(Command::Study {
                study: Study::Partition,
                scale: 64
            })
        );
    }

    #[test]
    fn check_rejects_contradictory_and_empty_forms() {
        assert!(parse_args(&args(&["check"])).is_err());
        assert!(parse_args(&args(&["check", "--all", "reduction"])).is_err());
        assert!(parse_args(&args(&["check", "reduction", "--bogus", "1"])).is_err());
        assert!(parse_args(&args(&["check", "reduction", "--model", "weird"])).is_err());
        assert!(parse_args(&args(&["check", "reduction", "--deny", "everything"])).is_err());
        let Ok(Command::Check { deny, .. }) =
            parse_args(&args(&["check", "reduction", "--deny", "warnings"]))
        else {
            panic!("--deny warnings must parse");
        };
        assert_eq!(deny, hetmem_dsl::Severity::Warning);
        assert!(parse_args(&args(&["check", "reduction", "--explain", "HM0101"])).is_err());
        assert!(parse_args(&args(&["check", "--all", "--explain", "HM0101"])).is_err());
    }

    #[test]
    fn fix_rejects_contradictory_and_empty_forms() {
        assert!(parse_args(&args(&["fix"])).is_err());
        assert!(parse_args(&args(&["fix", "--all", "reduction"])).is_err());
        assert!(parse_args(&args(&["fix", "reduction", "--deny", "warnings"])).is_err());
        assert!(parse_args(&args(&["fix", "reduction", "--format", "csv"])).is_err());
        assert!(parse_args(&args(&["fix", "reduction", "--model", "weird"])).is_err());
    }

    #[test]
    fn parses_sweep_defaults_and_filters() {
        let Ok(Command::Sweep {
            spec,
            format,
            jobs,
            cache_dir,
            mode,
            join,
        }) = parse_args(&args(&["sweep"]))
        else {
            panic!("sweep must parse");
        };
        assert_eq!(spec, SweepSpec::full(1));
        assert_eq!(format, OutputFormat::Table);
        assert_eq!(jobs, 0);
        assert_eq!(cache_dir, None);
        assert_eq!(mode, ExecMode::Accurate);
        assert_eq!(join, None);

        let Ok(Command::Sweep {
            spec,
            format,
            jobs,
            cache_dir,
            ..
        }) = parse_args(&args(&[
            "sweep",
            "--kernel",
            "kmeans,dct",
            "--system",
            "fusion",
            "--scale",
            "64",
            "--jobs",
            "8",
            "--cache-dir",
            "/tmp/c",
            "--format",
            "csv",
        ]))
        else {
            panic!("filtered sweep must parse");
        };
        assert_eq!(spec.kernels, vec![Kernel::KMeans, Kernel::Dct]);
        assert_eq!(spec.systems, vec![EvaluatedSystem::Fusion]);
        assert!(
            spec.spaces.is_empty(),
            "a system filter narrows to case studies"
        );
        assert_eq!(spec.scales, vec![64]);
        assert_eq!(format, OutputFormat::Csv);
        assert_eq!(jobs, 8);
        assert_eq!(cache_dir, Some(PathBuf::from("/tmp/c")));
    }

    #[test]
    fn parses_join_flag_and_rejects_bad_addresses() {
        let Ok(Command::Sweep { join, .. }) =
            parse_args(&args(&["sweep", "--join", "127.0.0.1:7070"]))
        else {
            panic!("sweep --join must parse");
        };
        assert_eq!(join.as_deref(), Some("127.0.0.1:7070"));

        let Ok(Command::Search { join, .. }) =
            parse_args(&args(&["search", "--join", "127.0.0.1:7070"]))
        else {
            panic!("search --join must parse");
        };
        assert_eq!(join.as_deref(), Some("127.0.0.1:7070"));

        assert!(parse_args(&args(&["sweep", "--join", "no-port"])).is_err());
        assert!(parse_args(&args(&["sweep", "--join", "a:1", "--join", "b:2"])).is_err());
    }

    #[test]
    fn parses_search_defaults_and_filters() {
        let Ok(Command::Search {
            config,
            format,
            jobs,
            cache_dir,
            join,
        }) = parse_args(&args(&["search"]))
        else {
            panic!("search must parse");
        };
        assert_eq!(join, None);
        assert_eq!(config.space, SearchSpace::full(1));
        assert_eq!(config.objectives, Objective::ALL.to_vec());
        assert_eq!(config.strategy, Strategy::Halving);
        // A quarter of the 54-job exhaustive sweep.
        assert_eq!(config.budget, 13);
        assert_eq!(config.seed, 0);
        assert_eq!(config.mode, ExecMode::Accurate);
        assert_eq!(format, OutputFormat::Table);
        assert_eq!(jobs, 0);
        assert_eq!(cache_dir, None);

        let Ok(Command::Search { config, format, .. }) = parse_args(&args(&[
            "search",
            "--budget",
            "20",
            "--seed",
            "9",
            "--objectives",
            "perf,hw",
            "--strategy",
            "random",
            "--system",
            "fusion,ideal",
            "--scale",
            "64",
            "--format",
            "json",
        ])) else {
            panic!("filtered search must parse");
        };
        assert_eq!(config.budget, 20);
        assert_eq!(config.seed, 9);
        assert_eq!(config.objectives, vec![Objective::Cycles, Objective::Hw]);
        assert_eq!(config.strategy, Strategy::Random);
        assert_eq!(config.space.targets.len(), 2);
        assert_eq!(config.space.scales, vec![64]);
        assert_eq!(format, OutputFormat::Json);
    }

    #[test]
    fn mode_flag_parses_on_every_command_that_takes_it() {
        let Ok(Command::Sweep { mode, .. }) = parse_args(&args(&["sweep", "--mode", "sampled"]))
        else {
            panic!("sweep --mode must parse");
        };
        assert_eq!(mode, ExecMode::Sampled);

        let Ok(Command::Sim { mode, .. }) = parse_args(&args(&[
            "sim",
            "t.hmt",
            "fusion",
            "--mode",
            "sampled:1536:512",
        ])) else {
            panic!("sim --mode sampled:1536:512 must parse");
        };
        assert_eq!(mode, ExecMode::Sampled);
        assert!(parse_args(&args(&["sweep", "--mode", "sampled:2048:256"])).is_err());

        let Ok(Command::Search { config, .. }) =
            parse_args(&args(&["search", "--mode", "sampled"]))
        else {
            panic!("search --mode must parse");
        };
        assert_eq!(config.mode, ExecMode::sampled_default());

        assert!(parse_args(&args(&["sweep", "--mode", "turbo"])).is_err());
        assert!(parse_args(&args(&[
            "sim", "t.hmt", "fusion", "--mode", "accurate", "--mode", "accurate"
        ]))
        .is_err());
        // Commands without an execution mode reject the flag outright.
        assert!(parse_args(&args(&["fig", "5", "--mode", "sampled"])).is_err());
    }

    #[test]
    fn csv_is_rejected_at_parse_time_where_unsupported() {
        assert!(parse_args(&args(&["sim", "t.hmt", "fusion", "--format", "csv"])).is_err());
        assert!(parse_args(&args(&["search", "--format", "csv"])).is_err());
        assert!(parse_args(&args(&["check", "--all", "--format", "csv"])).is_err());
        // Sweep and fig render CSV, so it still parses there.
        assert!(parse_args(&args(&["sweep", "--format", "csv"])).is_ok());
        assert!(parse_args(&args(&["fig", "5", "--format", "csv"])).is_ok());
    }

    #[test]
    fn search_rejects_malformed_flags() {
        assert!(parse_args(&args(&["search", "--budget", "0"])).is_err());
        assert!(parse_args(&args(&["search", "--seed", "minus-one"])).is_err());
        assert!(parse_args(&args(&["search", "--objectives", "speed"])).is_err());
        assert!(parse_args(&args(&["search", "--objectives", "hw,hw"])).is_err());
        assert!(parse_args(&args(&["search", "--strategy", "bayes"])).is_err());
        for removed in ["evolve", "evolutionary", "mutate"] {
            let err = parse_args(&args(&["search", "--strategy", removed]))
                .expect_err("the evolutionary strategy was removed");
            assert!(err.contains("random|halving"), "{err}");
        }
        assert!(parse_args(&args(&["search", "--bogus", "1"])).is_err());
        assert!(parse_args(&args(&["search", "extra"])).is_err());
    }

    #[test]
    fn sweep_space_filter_selects_isolation_family() {
        let Ok(Command::Sweep { spec, .. }) = parse_args(&args(&["sweep", "--space", "uni,adsm"]))
        else {
            panic!("sweep must parse");
        };
        assert!(spec.systems.is_empty());
        assert_eq!(spec.spaces, vec![AddressSpace::Unified, AddressSpace::Adsm]);
    }

    #[test]
    fn timeline_values_split_path_and_interval() {
        assert_eq!(
            parse_timeline_value("t.jsonl"),
            Ok(("t.jsonl".to_owned(), DEFAULT_TIMELINE_INTERVAL))
        );
        assert_eq!(
            parse_timeline_value("t.jsonl:250000"),
            Ok(("t.jsonl".to_owned(), 250_000))
        );
        // A colon in the path without a numeric suffix stays in the path.
        assert_eq!(
            parse_timeline_value("dir:with:colons/t.jsonl"),
            Ok((
                "dir:with:colons/t.jsonl".to_owned(),
                DEFAULT_TIMELINE_INTERVAL
            ))
        );
        assert!(parse_timeline_value("t.jsonl:0").is_err());
        assert!(parse_timeline_value(":250000").is_err());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_args(&args(&["fig"])).is_err());
        assert!(parse_args(&args(&["fig", "4"])).is_err());
        assert!(parse_args(&args(&["fig", "5", "--scale", "0"])).is_err());
        assert!(parse_args(&args(&["trace", "not-a-kernel"])).is_err());
        assert!(parse_args(&args(&["sim", "t.hmt", "not-a-system"])).is_err());
        assert!(parse_args(&args(&["lower", "p.hdsl", "weird"])).is_err());
        assert!(parse_args(&args(&["study"])).is_err());
        assert!(parse_args(&args(&["study", "bogus"])).is_err());
        assert!(parse_args(&args(&["study", "locality", "--scale", "0"])).is_err());
        assert!(parse_args(&args(&["study", "locality", "extra"])).is_err());
        assert!(parse_args(&args(&["frobnicate"])).is_err());
        // Every single-valued flag may appear once, and takes no list.
        for argv in [
            &["fig", "5", "--cache-dir", "a", "--cache-dir", "b"][..],
            &["sweep", "--cache-dir", "a", "--cache-dir", "b"],
            &["search", "--cache-dir", "a", "--cache-dir", "b"],
            &["serve", "--cache-dir", "a", "--cache-dir", "b"],
            &["sim", "t.hmt", "fusion", "--events", "a", "--events", "b"],
            &[
                "sim",
                "t.hmt",
                "fusion",
                "--timeline",
                "a",
                "--timeline",
                "b",
            ],
            &["serve", "--addr", "a:1", "--addr", "b:2"],
            &["sweep", "--jobs", "4,"],
            &["fig", "5", "--scale", "8,16"],
        ] {
            let err = parse_args(&args(argv)).expect_err("a repeated or listed single flag");
            assert!(
                err.contains("given more than once") || err.contains("positive integer"),
                "{argv:?}: {err}"
            );
        }
        let err = parse_args(&args(&["search", "--objectives", ","])).expect_err("empty list");
        assert!(err.contains("no objectives given"), "{err}");
    }

    #[test]
    fn rejects_unknown_flags_and_extra_arguments() {
        assert!(parse_args(&args(&["fig", "5", "--bogus", "1"])).is_err());
        assert!(parse_args(&args(&["sweep", "--turbo", "on"])).is_err());
        assert!(parse_args(&args(&["sweep", "extra"])).is_err());
        assert!(parse_args(&args(&["tables", "--scale", "2"])).is_err());
        assert!(parse_args(&args(&["sweep", "--jobs", "0"])).is_err());
        assert!(parse_args(&args(&["sweep", "--jobs"])).is_err());
        assert!(parse_args(&args(&["sweep", "--format", "yaml"])).is_err());
        assert!(parse_args(&args(&["sim", "t.hmt", "fusion", "extra"])).is_err());
    }

    #[test]
    fn system_and_model_aliases() {
        assert_eq!(parse_system("CUDA"), Ok(EvaluatedSystem::CpuGpuCuda));
        assert_eq!(
            parse_system("ideal-hetero"),
            Ok(EvaluatedSystem::IdealHetero)
        );
        assert_eq!(
            parse_space("partially-shared"),
            Ok(AddressSpace::PartiallyShared)
        );
        assert_eq!(parse_space("UNIFIED"), Ok(AddressSpace::Unified));
    }
}
