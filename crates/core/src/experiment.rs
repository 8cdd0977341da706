//! Experiment data: the configuration every simulated design point runs
//! under, and the rows the figures and studies render.
//!
//! [`CaseStudyRun`] (a Figure 5/6 cell) and [`SpaceRun`] (a Figure 7
//! cell) are what the figure renderers and the evaluations in
//! [`crate::metrics`] consume; [`PageSizeRow`] and [`PartitionRow`] are
//! the page-size and work-partitioning studies' results.
//! `hetmem-xplore`'s engine produces all of them; core runs no
//! simulation for them.

use crate::presets::EvaluatedSystem;
use hetmem_dsl::AddressSpace;
use hetmem_sim::{CommCosts, RunReport, SystemConfig};
use hetmem_trace::kernels::Kernel;

/// The hardware and cost configuration a design point runs under. The
/// trace scale belongs to each job, not to the configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExperimentConfig {
    /// The baseline hardware configuration (Table II).
    pub system: SystemConfig,
    /// Communication / programming-model latencies (Table IV).
    pub costs: CommCosts,
}

impl ExperimentConfig {
    /// The paper's configuration: Table II hardware, Table IV costs.
    #[must_use]
    pub fn paper() -> ExperimentConfig {
        ExperimentConfig {
            system: SystemConfig::baseline(),
            costs: CommCosts::paper(),
        }
    }
}

/// One Figure 5/6 measurement: a kernel on an evaluated system.
#[derive(Clone, Debug, PartialEq)]
pub struct CaseStudyRun {
    /// The system configuration.
    pub system: EvaluatedSystem,
    /// The kernel.
    pub kernel: Kernel,
    /// The simulator's report.
    pub report: RunReport,
}

/// One Figure 7 measurement: a kernel under an address-space option with
/// idealized communication (shared cache, free transfers — only the API
/// instruction overhead remains).
#[derive(Clone, Debug, PartialEq)]
pub struct SpaceRun {
    /// The address-space option.
    pub space: AddressSpace,
    /// The kernel.
    pub kernel: Kernel,
    /// The simulator's report.
    pub report: RunReport,
}

/// One row of the GPU page-size study (§II-A1: a virtually unified or
/// partially shared space lets the GPU use large pages for stream
/// locality).
#[derive(Clone, Debug, PartialEq)]
pub struct PageSizeRow {
    /// The kernel.
    pub kernel: Kernel,
    /// GPU page size in bytes.
    pub gpu_page_bytes: u64,
    /// Total execution ticks.
    pub total_ticks: u64,
    /// GPU TLB miss rate over the run.
    pub gpu_tlb_miss_rate: f64,
}

/// One row of the work-partitioning sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionRow {
    /// Percentage of the parallel work on the GPU.
    pub gpu_share_pct: u32,
    /// Total execution ticks.
    pub total_ticks: u64,
}

/// The share minimizing total time in a sweep result.
///
/// # Panics
///
/// Panics on an empty sweep.
#[must_use]
pub fn best_partition(rows: &[PartitionRow]) -> &PartitionRow {
    rows.iter()
        .min_by_key(|r| r.total_ticks)
        .expect("non-empty sweep")
}
