//! Cell-level checks of the Figure 5–7 grids and their text renderers, on
//! grids built by the sweep engine.

use hetmem::core::experiment::{CaseStudyRun, ExperimentConfig};
use hetmem::core::report::{render_figure5, render_figure6, render_figure7};
use hetmem::core::{AddressSpace, EvaluatedSystem};
use hetmem::sim::RunReport;
use hetmem::trace::kernels::Kernel;
use hetmem::trace::Phase;
use hetmem::xplore::{run_address_spaces, run_case_studies, run_sweep, SweepOptions, SweepSpec};

fn cases(scale: u32) -> Vec<CaseStudyRun> {
    run_case_studies(scale, &ExperimentConfig::paper(), &SweepOptions::default())
        .expect("grid runs")
        .0
}

fn cell(runs: &[CaseStudyRun], system: EvaluatedSystem, kernel: Kernel) -> &RunReport {
    runs.iter()
        .find(|r| r.system == system && r.kernel == kernel)
        .map(|r| &r.report)
        .expect("cell present")
}

#[test]
fn ideal_hetero_is_never_slower() {
    // Figure 5's shape: IDEAL-HETERO lower-bounds every system.
    let runs = cases(64);
    for kernel in [Kernel::Reduction, Kernel::MergeSort] {
        let ideal = cell(&runs, EvaluatedSystem::IdealHetero, kernel).total_ticks();
        for sys in EvaluatedSystem::ALL {
            let t = cell(&runs, sys, kernel).total_ticks();
            assert!(t >= ideal, "{sys}/{kernel}: {t} < ideal {ideal}");
        }
    }
}

#[test]
fn pci_systems_slower_than_fusion_and_ideal() {
    // "CPU+GPU, LRB and GMAC have a longer execution time than those of
    // IDEAL-HETERO and Fusion."
    let runs = cases(64);
    let comm = |sys| cell(&runs, sys, Kernel::MergeSort).communication_ticks;
    let fusion = comm(EvaluatedSystem::Fusion);
    let ideal = comm(EvaluatedSystem::IdealHetero);
    for pci in [
        EvaluatedSystem::CpuGpuCuda,
        EvaluatedSystem::Lrb,
        EvaluatedSystem::Gmac,
    ] {
        let c = comm(pci);
        assert!(c > fusion, "{pci} comm {c} <= Fusion {fusion}");
        assert!(c > ideal, "{pci} comm {c} <= ideal {ideal}");
    }
}

#[test]
fn gmac_hides_communication_relative_to_cuda() {
    let runs = cases(64);
    let cuda = cell(&runs, EvaluatedSystem::CpuGpuCuda, Kernel::Reduction);
    let gmac = cell(&runs, EvaluatedSystem::Gmac, Kernel::Reduction);
    assert!(
        gmac.communication_ticks < cuda.communication_ticks,
        "gmac {} vs cuda {}",
        gmac.communication_ticks,
        cuda.communication_ticks
    );
}

#[test]
fn lrb_beats_cuda_by_skipping_result_transfers() {
    let runs = cases(256);
    let cuda = cell(&runs, EvaluatedSystem::CpuGpuCuda, Kernel::MatrixMul);
    let lrb = cell(&runs, EvaluatedSystem::Lrb, Kernel::MatrixMul);
    assert!(lrb.communication_ticks < cuda.communication_ticks);
}

#[test]
fn figure7_spaces_are_within_noise() {
    // "There is almost no performance difference between options." The
    // API overheads are fixed while compute scales with input size, so
    // this property is about realistic inputs — use a mild scale.
    let spec = SweepSpec {
        kernels: vec![Kernel::Convolution],
        systems: vec![],
        spaces: AddressSpace::ALL.to_vec(),
        scales: vec![4],
    };
    let out =
        run_sweep(&spec, &ExperimentConfig::paper(), &SweepOptions::default()).expect("sweep runs");
    let totals: Vec<u64> = out.records.iter().map(|r| r.report.total_ticks()).collect();
    let max = *totals.iter().max().expect("non-empty");
    let min = *totals.iter().min().expect("non-empty");
    let spread = (max - min) as f64 / max as f64;
    assert!(spread < 0.02, "spread {totals:?} exceeds 2 %");
}

#[test]
fn grid_covers_all_cells() {
    let config = ExperimentConfig::paper();
    let grid = cases(512);
    assert_eq!(grid.len(), 6 * 5);
    let (spaces, _) =
        run_address_spaces(512, &config, &SweepOptions::default()).expect("grid runs");
    assert_eq!(spaces.len(), 6 * 4);
    for run in &grid {
        assert!(run.report.total_ticks() > 0);
        assert!(run.report.phase_ticks(Phase::Parallel) > 0);
    }
}

#[test]
fn figure5_normalization_is_bounded_by_one() {
    let runs = cases(512);
    let f5 = render_figure5(&runs);
    for line in f5.lines().skip(2) {
        let cols: Vec<&str> = line.split_whitespace().collect();
        // kernel may be two words; "norm" is the 4th column from the end
        // of [total, norm, seq, par, comm].
        let norm: f64 = cols[cols.len() - 4].parse().expect("norm parses");
        assert!(norm > 0.0 && norm <= 1.0, "{line}");
    }
}

#[test]
fn figure_renderers_cover_all_rows() {
    let config = ExperimentConfig::paper();
    let runs = cases(512);
    let f5 = render_figure5(&runs);
    assert_eq!(f5.lines().count(), 2 + 30, "6 kernels × 5 systems");
    let f6 = render_figure6(&runs);
    assert_eq!(f6.lines().count(), 2 + 30);
    let (spaces, _) =
        run_address_spaces(512, &config, &SweepOptions::default()).expect("grid runs");
    let f7 = render_figure7(&spaces);
    assert_eq!(f7.lines().count(), 2 + 6);
    assert!(f7.contains("reduction"));
}
