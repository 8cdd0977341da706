//! End-to-end coverage of the beyond-the-paper studies (see DESIGN.md §3
//! and EXPERIMENTS.md): each study must run, discriminate, and point the
//! direction its write-up claims.

use hetmem::core::experiment::{best_partition, CaseStudyRun, ExperimentConfig};
use hetmem::core::metrics::dominates;
use hetmem::core::{
    evaluate_energy, evaluate_systems, pareto_frontier, run_locality_study, EnergyEval,
    EvaluatedSystem, Evaluation, SharedLocalityVariant,
};
use hetmem::trace::kernels::{Kernel, KernelParams};
use hetmem::trace::TransferDirection;
use hetmem::xplore::{run_case_studies, run_page_size_study, run_partition_sweep, SweepOptions};

/// The Figure 5/6 grid at `scale`, built by the sweep engine.
fn cases(scale: u32) -> Vec<CaseStudyRun> {
    run_case_studies(scale, &ExperimentConfig::paper(), &SweepOptions::default())
        .expect("grid runs")
        .0
}

/// [`evaluate_energy`] over the grid at `scale`, with each kernel's
/// communication bytes read from its trace.
fn energy(scale: u32) -> Vec<EnergyEval> {
    let comm_bytes: Vec<(Kernel, u64, u64)> = Kernel::ALL
        .iter()
        .map(|&kernel| {
            let trace = kernel.generate(&KernelParams::scaled(scale));
            let h2d = trace.comm_bytes_in(TransferDirection::HostToDevice);
            (kernel, h2d, trace.comm_bytes())
        })
        .collect();
    evaluate_energy(&cases(scale), &comm_bytes)
}

/// The three minimized axes of an evaluation.
fn objectives(e: &Evaluation) -> Vec<f64> {
    vec![
        e.perf_ticks,
        f64::from(e.hardware_cost),
        e.programmer_burden,
    ]
}

#[test]
fn locality_study_orders_variants() {
    let rows = run_locality_study(16, &ExperimentConfig::paper());
    assert_eq!(rows.len(), 3);
    let get = |v| {
        rows.iter()
            .find(|r| r.variant == v)
            .expect("variant present")
    };
    let implicit = get(SharedLocalityVariant::Implicit);
    let hybrid = get(SharedLocalityVariant::ExplicitHybrid);
    let ignored = get(SharedLocalityVariant::ExplicitIgnored);
    assert!(hybrid.total_ticks < implicit.total_ticks);
    assert!(hybrid.total_ticks < ignored.total_ticks);
    assert!(hybrid.llc_miss_rate < implicit.llc_miss_rate);
}

#[test]
fn pareto_study_is_consistent() {
    let evals = evaluate_systems(&cases(64));
    assert_eq!(evals.len(), 5);
    let frontier = pareto_frontier(&evals);
    assert!(!frontier.is_empty());
    // IDEAL-HETERO has the best performance, so it is always on the
    // frontier despite its maximal hardware cost.
    let ideal = evals
        .iter()
        .position(|e| e.system == EvaluatedSystem::IdealHetero)
        .expect("present");
    assert!(frontier.contains(&ideal));
    // And it really is the fastest.
    assert!(evals
        .iter()
        .all(|e| e.perf_ticks >= evals[ideal].perf_ticks));
}

#[test]
fn energy_study_covers_the_grid_with_sane_totals() {
    let evals = energy(64);
    assert_eq!(evals.len(), 30);
    for e in &evals {
        let b = &e.breakdown;
        assert!(b.total_uj() > 0.0);
        assert!(b.total_uj().is_finite());
        assert!(b.comm_uj >= 0.0);
    }
    // The ideal system never spends communication energy.
    assert!(evals
        .iter()
        .filter(|e| e.system == EvaluatedSystem::IdealHetero)
        .all(|e| e.breakdown.comm_uj == 0.0));
}

#[test]
fn partition_study_beats_the_even_split() {
    let rows = run_partition_sweep(
        EvaluatedSystem::IdealHetero,
        Kernel::MergeSort,
        16,
        &ExperimentConfig::paper(),
        &[1, 5, 10, 25, 50, 75, 95],
    )
    .expect("sweep runs");
    let best = best_partition(&rows);
    let even = rows
        .iter()
        .find(|r| r.gpu_share_pct == 50)
        .expect("50 swept");
    assert!(best.total_ticks < even.total_ticks, "{rows:?}");
    // Once the GPU is the parallel phase's bottleneck, more GPU work is
    // strictly worse, and the sweep discriminates strongly.
    let gpu_bound: Vec<u64> = rows
        .iter()
        .filter(|r| r.gpu_share_pct >= 25)
        .map(|r| r.total_ticks)
        .collect();
    assert!(gpu_bound.windows(2).all(|w| w[0] < w[1]), "{rows:?}");
    let worst = rows.iter().map(|r| r.total_ticks).max().expect("non-empty");
    assert!(worst > best.total_ticks * 2, "{rows:?}");
}

#[test]
fn page_size_study_is_monotone_in_tlb_misses() {
    let rows = run_page_size_study(
        &[Kernel::Reduction, Kernel::Dct],
        16,
        &ExperimentConfig::paper(),
        &[4_096, 65_536, 2 * 1024 * 1024],
    )
    .expect("study runs");
    assert_eq!(rows.len(), 6);
    for kernel in rows.chunks(3) {
        assert!(kernel
            .windows(2)
            .all(|w| w[1].gpu_tlb_miss_rate <= w[0].gpu_tlb_miss_rate + 1e-12));
        // §II-A1: 2 MB pages are never slower than 4 KB pages.
        assert!(kernel[2].total_ticks <= kernel[0].total_ticks, "{kernel:?}");
    }
}

#[test]
fn frontier_has_no_dominated_points_and_is_nonempty() {
    let evals = evaluate_systems(&cases(128));
    let frontier = pareto_frontier(&evals);
    assert!(!frontier.is_empty());
    for &i in &frontier {
        for (j, e) in evals.iter().enumerate() {
            if j != i {
                assert!(
                    !dominates(&objectives(e), &objectives(&evals[i])),
                    "{} dominated by {}",
                    evals[i].system,
                    e.system
                );
            }
        }
    }
    // Every non-frontier point is dominated by someone.
    for i in 0..evals.len() {
        if !frontier.contains(&i) {
            assert!(
                evals
                    .iter()
                    .any(|e| dominates(&objectives(e), &objectives(&evals[i]))),
                "{}",
                evals[i].system
            );
        }
    }
}

#[test]
fn energy_follows_runtime_and_fabric() {
    let evals = energy(64);
    assert_eq!(evals.len(), 30);
    for e in &evals {
        assert!(e.breakdown.total_uj() > 0.0, "{}/{}", e.system, e.kernel);
    }
    // On any kernel, the ideal system's communication energy is zero
    // and CUDA's is the largest of the PCI systems.
    let get = |sys| {
        evals
            .iter()
            .find(|e| e.system == sys && e.kernel == Kernel::Reduction)
            .map(|e| e.breakdown.comm_uj)
            .expect("cell present")
    };
    assert_eq!(get(EvaluatedSystem::IdealHetero), 0.0);
    assert!(get(EvaluatedSystem::CpuGpuCuda) > get(EvaluatedSystem::Lrb));
    assert!(get(EvaluatedSystem::CpuGpuCuda) > get(EvaluatedSystem::Fusion));
}

#[test]
fn cuda_is_pareto_optimal_on_hardware_cost() {
    // The disjoint PCI-E system has the minimum hardware cost, so
    // nothing can dominate it.
    let evals = evaluate_systems(&cases(128));
    let frontier = pareto_frontier(&evals);
    let cuda_idx = evals
        .iter()
        .position(|e| e.system == EvaluatedSystem::CpuGpuCuda)
        .expect("present");
    assert!(frontier.contains(&cuda_idx));
}
