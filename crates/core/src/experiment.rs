//! Experiment data and the studies beyond the paper's grids.
//!
//! [`CaseStudyRun`] (a Figure 5/6 cell) and [`SpaceRun`] (a Figure 7
//! cell) are what the figure renderers and the evaluations in
//! [`crate::metrics`] consume; `hetmem-xplore`'s engine produces them. The
//! page-size and work-partitioning studies vary the hardware
//! configuration and the kernel parameters, so they simulate here.

use crate::presets::EvaluatedSystem;
use hetmem_dsl::AddressSpace;
use hetmem_sim::{CommCosts, CommModel, RunReport, Simulation, SystemConfig};
use hetmem_trace::kernels::{Kernel, KernelParams};
use hetmem_trace::PhasedTrace;

/// Runs `trace` on `system` hardware with `comm` communication via the
/// builder API. Experiment configurations are constructed from validated
/// presets, so failures here are programmer errors.
fn simulate(
    system: &SystemConfig,
    costs: CommCosts,
    comm: impl CommModel + 'static,
    trace: &PhasedTrace,
) -> RunReport {
    Simulation::builder()
        .config(*system)
        .costs(costs)
        .comm_model(comm)
        .build()
        .expect("experiment system configuration is valid")
        .run(trace)
        .expect("generated traces are well-formed")
}

/// Common knobs for all experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExperimentConfig {
    /// Trace scale divisor: 1 reproduces the paper's full-size traces,
    /// larger values run proportionally smaller inputs (for quick runs and
    /// micro-benchmarks).
    pub scale: u32,
    /// The baseline hardware configuration (Table II).
    pub system: SystemConfig,
    /// Communication / programming-model latencies (Table IV).
    pub costs: CommCosts,
}

impl ExperimentConfig {
    /// Full-size paper configuration.
    #[must_use]
    pub fn paper() -> ExperimentConfig {
        ExperimentConfig {
            scale: 1,
            system: SystemConfig::baseline(),
            costs: CommCosts::paper(),
        }
    }

    /// Down-scaled configuration for fast runs.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is zero.
    #[must_use]
    pub fn scaled(scale: u32) -> ExperimentConfig {
        assert!(scale > 0, "scale must be non-zero");
        ExperimentConfig {
            scale,
            ..ExperimentConfig::paper()
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
    /// GPU page size in bytes.
    pub gpu_page_bytes: u64,
    /// Total execution ticks.
    pub total_ticks: u64,
    /// GPU TLB miss rate over the run.
    pub gpu_tlb_miss_rate: f64,
}

/// Runs `kernel` under an ideal fabric with each GPU page size — the
/// quantitative side of §II-A1's observation that per-PU page-size freedom
/// is one of the design options a non-physically-unified space buys.
///
/// # Panics
///
/// Panics if any size is not a power of two (TLB requirement).
#[must_use]
pub fn run_page_size_study(
    kernel: Kernel,
    config: &ExperimentConfig,
    gpu_page_sizes: &[u64],
) -> Vec<PageSizeRow> {
    use hetmem_sim::{FabricKind, SynchronousFabric};
    let trace = kernel.generate(&KernelParams::scaled(config.scale));
    gpu_page_sizes
        .iter()
        .map(|&gpu_page_bytes| {
            let mut system = config.system;
            system.mmu.gpu_page_bytes = gpu_page_bytes;
            let report = simulate(
                &system,
                config.costs,
                SynchronousFabric::new(FabricKind::Ideal, config.costs),
                &trace,
            );
            PageSizeRow {
                gpu_page_bytes,
                total_ticks: report.total_ticks(),
                gpu_tlb_miss_rate: report.hierarchy.gpu_tlb.miss_rate(),
            }
        })
        .collect()
}

/// One row of the work-partitioning sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionRow {
    /// Percentage of the parallel work on the GPU.
    pub gpu_share_pct: u32,
    /// Total execution ticks.
    pub total_ticks: u64,
}

/// Sweeps the CPU/GPU work split for `kernel` on `system`. The paper
/// divides work evenly and defers optimal partitioning to Qilin-style
/// systems (§IV-B); this sweep finds the empirically best split on our
/// substrate.
#[must_use]
pub fn run_partition_sweep(
    system: EvaluatedSystem,
    kernel: Kernel,
    config: &ExperimentConfig,
    shares: &[u32],
) -> Vec<PartitionRow> {
    shares
        .iter()
        .map(|&gpu_share_pct| {
            let params = KernelParams::scaled(config.scale).with_gpu_share(gpu_share_pct);
            let trace = kernel.generate(&params);
            let report = simulate(
                &config.system,
                config.costs,
                system.comm_model(config.costs),
                &trace,
            );
            PartitionRow {
                gpu_share_pct,
                total_ticks: report.total_ticks(),
            }
        })
        .collect()
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_sweep_prefers_cpu_leaning_splits() {
        // On this substrate the in-order SIMD GPU retires the kernels'
        // instruction streams more slowly than the 4-wide OoO CPU, so the
        // time-balanced split leans CPU-ward — the even division the paper
        // uses (and its Figure 5, where the parallel phase is GPU-bound)
        // leaves the GPU as the critical path. The sweep must find that.
        let rows = run_partition_sweep(
            EvaluatedSystem::IdealHetero,
            Kernel::Dct,
            &ExperimentConfig::scaled(32),
            &[1, 5, 25, 50, 75, 95],
        );
        assert_eq!(rows.len(), 6);
        let best = best_partition(&rows);
        assert!(
            best.gpu_share_pct <= 25,
            "best share {} of {rows:?}",
            best.gpu_share_pct
        );
        // Once the GPU is the bottleneck, more GPU work is strictly worse.
        let ticks: Vec<u64> = rows
            .iter()
            .filter(|r| r.gpu_share_pct >= 25)
            .map(|r| r.total_ticks)
            .collect();
        assert!(ticks.windows(2).all(|w| w[0] < w[1]), "{rows:?}");
        let worst = rows.iter().map(|r| r.total_ticks).max().expect("non-empty");
        assert!(
            worst > best.total_ticks * 2,
            "sweep must discriminate strongly"
        );
    }

    #[test]
    fn larger_gpu_pages_reduce_tlb_misses_and_never_hurt() {
        // §II-A1: GPUs can use large pages for stream locality.
        let rows = run_page_size_study(
            Kernel::Dct,
            &ExperimentConfig::scaled(16),
            &[4096, 2 * 1024 * 1024],
        );
        assert_eq!(rows.len(), 2);
        assert!(
            rows[1].gpu_tlb_miss_rate < rows[0].gpu_tlb_miss_rate,
            "2MB: {} vs 4KB: {}",
            rows[1].gpu_tlb_miss_rate,
            rows[0].gpu_tlb_miss_rate
        );
        assert!(rows[1].total_ticks <= rows[0].total_ticks);
    }
}
