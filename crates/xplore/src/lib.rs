//! # hetmem-xplore
//!
//! A parallel, cached design-space sweep engine for the hetmem
//! reproduction — the scaling layer the paper's evaluation grid grows
//! into.
//!
//! * [`SweepSpec`] — a declarative description of the axes to cover
//!   (kernels × evaluated systems × address spaces × scales) expanding
//!   deterministically into ordinally-numbered [`Job`]s.
//! * [`run_sweep`] / [`run_jobs`] — a `std::thread` worker pool over a
//!   shared job queue; each job is one single-threaded simulation, so jobs
//!   shard perfectly and results are bit-identical for any worker count.
//! * [`run_case_studies`] / [`run_address_spaces`] — the Figure 5/6 and
//!   Figure 7 grids; [`run_page_size_study`] / [`run_partition_sweep`] —
//!   the GPU page-size and work-split studies. All are engine runs of
//!   [`Job`]s under an [`ExperimentConfig`](hetmem_core::experiment::ExperimentConfig),
//!   the one way a simulated design point is named and run.
//! * [`DiskCache`] — content-addressed on-disk memoization keyed by a
//!   stable hash of (job coordinates, hardware/cost configuration, crate
//!   version); warm re-runs skip simulation entirely.
//! * [`SweepRecord`] / [`OutputFormat`] — full-fidelity result records
//!   (the complete [`hetmem_sim::RunReport`]) with JSON-lines, CSV, and
//!   text-table emission built on an in-repo exact-round-trip JSON module
//!   ([`json`]).
//!
//! ## Example
//!
//! ```
//! use hetmem_core::experiment::ExperimentConfig;
//! use hetmem_xplore::{run_sweep, OutputFormat, SweepOptions, SweepSpec};
//!
//! let spec = SweepSpec::full(512); // tiny traces for the example
//! let config = ExperimentConfig::paper();
//! let out = run_sweep(&spec, &config, &SweepOptions::with_workers(2)).expect("sweep");
//! assert_eq!(out.records.len(), 6 * 9);
//! let jsonl = OutputFormat::Json.render(&out.records);
//! assert_eq!(jsonl.lines().count(), out.records.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod check;
pub mod dispatch;
pub mod emit;
pub mod engine;
pub mod fix;
pub mod json;
pub mod obs;
pub mod ser;
pub mod spec;

pub use cache::DiskCache;
pub use check::{check_reports_to_jsonl, diagnostic_to_json};
pub use dispatch::{DispatchContext, JobDispatcher, JobPart};
pub use emit::{to_csv, to_jsonl, to_table, OutputFormat};
pub use engine::{
    content_key, content_key_with, execute_job, execute_job_observed, job_trace, placement_key,
    run_address_spaces, run_case_studies, run_jobs, run_page_size_study, run_partition_sweep,
    run_sweep, work_units, SweepOptions, SweepOptionsBuilder, SweepOutput, SweepStats,
};
pub use fix::{fix_report_to_json, fix_reports_to_jsonl};
pub use json::Json;
pub use obs::{events_to_jsonl, timeline_to_jsonl};
pub use ser::{
    report_from_json, report_to_json, sim_answer_to_json, timeline_from_json, timeline_to_json,
    SweepRecord, CSV_HEADER,
};
pub use spec::{parse_kernel, parse_space, parse_system, Job, JobKind, SweepSpec};
