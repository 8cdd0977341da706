//! Efficiency metrics for design options — the paper's stated future work
//! ("we will develop metrics to measure the efficiency of design options to
//! provide guidelines for future programming languages and future hardware
//! system development", §VII).
//!
//! Three axes, one per trade-off the paper studies:
//!
//! * **performance** — simulated execution time (geometric mean over the six
//!   kernels), from `hetmem-sim`;
//! * **hardware cost** — an abstract score rating the silicon/verification
//!   burden of the design point (coherence machinery, duplicated page
//!   tables, fabric integration, replacement-logic changes), with the
//!   rubric documented per component;
//! * **programmer burden** — the mean extra source lines of Table V for the
//!   point's address space.
//!
//! [`pareto_frontier`] then reports which evaluated systems are
//! efficiency-optimal: no other point is at least as good on every axis and
//! better on one. Its dominance test, [`dominates`] over objective vectors,
//! is the workspace's one implementation: `hetmem-search` re-exports it and
//! [`pareto_indices`] for its guided search.

use crate::design_space::{CoherenceOption, DesignPoint};
use crate::experiment::{run_case_studies, ExperimentConfig};
use crate::locality::SharedLocality;
use crate::presets::EvaluatedSystem;
use hetmem_dsl::{paper_loc_table, AddressSpace};
use hetmem_sim::FabricKind;

/// Abstract hardware-cost score of a design point (higher = more silicon,
/// design, and verification effort). The rubric:
///
/// | component | score | why |
/// |---|---|---|
/// | unified address space | 30 | page tables + TLB shoot-downs on both PUs spanning all memory |
/// | partially shared space | 15 | duplicated mappings for the window only |
/// | ADSM | 10 | one-sided mappings; accelerator memory system untouched |
/// | disjoint | 0 | nothing shared |
/// | hardware coherence | 25 | cross-PU directory + protocol verification |
/// | ownership coherence | 8 | ownership table + fault on violation |
/// | software coherence | 5 | runtime only |
/// | no coherence | 0 | — |
/// | memory-controller fabric | 12 | on-die integration of both PUs |
/// | PCI aperture | 6 | pinned window + aperture DMA |
/// | PCI-E | 3 | commodity link |
/// | ideal fabric | 40 | (an analysis device: free communication is the most expensive hardware of all) |
/// | hybrid shared locality | 6 | tag bit + replacement-logic change (§II-B5) |
/// | explicit shared locality | 4 | push datapath into the shared cache |
/// | implicit / none | 0 | — |
#[must_use]
pub fn hardware_cost(point: &DesignPoint) -> u32 {
    let space = match point.address_space {
        AddressSpace::Unified => 30,
        AddressSpace::PartiallyShared => 15,
        AddressSpace::Adsm => 10,
        AddressSpace::Disjoint => 0,
    };
    let coherence = match point.coherence {
        CoherenceOption::Hardware => 25,
        CoherenceOption::Ownership => 8,
        CoherenceOption::Software => 5,
        CoherenceOption::None => 0,
    };
    let fabric = match point.fabric {
        FabricKind::Ideal => 40,
        FabricKind::MemoryController => 12,
        FabricKind::PciAperture => 6,
        FabricKind::PciExpress => 3,
    };
    let locality = match point.locality.shared {
        Some(SharedLocality::Hybrid) => 6,
        Some(SharedLocality::Explicit) => 4,
        Some(SharedLocality::Implicit) | None => 0,
    };
    space + coherence + fabric + locality
}

/// Mean extra source lines (Table V) a programmer pays under `space`.
#[must_use]
pub fn programmer_burden(space: AddressSpace) -> f64 {
    let table = paper_loc_table();
    let sum: u32 = table.iter().map(|r| r.overhead(space)).sum();
    f64::from(sum) / table.len() as f64
}

/// One evaluated point on all three axes.
#[derive(Clone, Debug, PartialEq)]
pub struct Evaluation {
    /// The system evaluated.
    pub system: EvaluatedSystem,
    /// Geometric-mean total execution ticks over the six kernels.
    pub perf_ticks: f64,
    /// Abstract hardware-cost score.
    pub hardware_cost: u32,
    /// Mean Table V overhead lines.
    pub programmer_burden: f64,
}

impl Evaluation {
    /// The three minimized axes as one objective vector.
    fn objectives(&self) -> Vec<f64> {
        vec![
            self.perf_ticks,
            f64::from(self.hardware_cost),
            self.programmer_burden,
        ]
    }
}

/// Whether objective vector `a` dominates `b`: at least as good on every
/// axis and strictly better on at least one (all axes minimized).
///
/// # Panics
///
/// Panics if the vectors disagree on length — callers compare points from
/// one objective space.
#[must_use]
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    assert_eq!(a.len(), b.len(), "objective vectors must align");
    let mut strictly = false;
    for (x, y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strictly = true;
        }
    }
    strictly
}

/// Indices of the Pareto-optimal points (no other point dominates them),
/// in input order. Duplicate points are all kept: neither dominates the
/// other.
#[must_use]
pub fn pareto_indices(points: &[Vec<f64>]) -> Vec<usize> {
    (0..points.len())
        .filter(|&i| {
            !points
                .iter()
                .enumerate()
                .any(|(j, p)| j != i && dominates(p, &points[i]))
        })
        .collect()
}

/// The canonical [`DesignPoint`] for an evaluated system (used for the
/// hardware-cost score).
#[must_use]
pub fn design_point_of(system: EvaluatedSystem) -> DesignPoint {
    use crate::locality::{LocalityControl, LocalityScheme};
    let coherence = match system {
        EvaluatedSystem::CpuGpuCuda | EvaluatedSystem::Fusion => CoherenceOption::None,
        EvaluatedSystem::Lrb => CoherenceOption::Ownership,
        EvaluatedSystem::Gmac => CoherenceOption::Software,
        EvaluatedSystem::IdealHetero => CoherenceOption::Hardware,
    };
    let locality = if system.address_space() == AddressSpace::Disjoint {
        LocalityScheme {
            cpu_private: LocalityControl::Implicit,
            gpu_private: LocalityControl::Explicit,
            shared: None,
        }
    } else {
        LocalityScheme::all_implicit()
    };
    DesignPoint {
        address_space: system.address_space(),
        fabric: system.fabric(),
        locality,
        coherence,
    }
}

/// Evaluates the five case-study systems on all three axes.
#[must_use]
pub fn evaluate_systems(config: &ExperimentConfig) -> Vec<Evaluation> {
    let runs = run_case_studies(config);
    EvaluatedSystem::ALL
        .iter()
        .map(|&system| {
            let totals: Vec<f64> = runs
                .iter()
                .filter(|r| r.system == system)
                .map(|r| r.report.total_ticks() as f64)
                .collect();
            let geomean = (totals.iter().map(|t| t.ln()).sum::<f64>() / totals.len() as f64).exp();
            Evaluation {
                system,
                perf_ticks: geomean,
                hardware_cost: hardware_cost(&design_point_of(system)),
                programmer_burden: programmer_burden(system.address_space()),
            }
        })
        .collect()
}

/// Indices of the Pareto-optimal evaluations (no other point dominates
/// them), in input order.
#[must_use]
pub fn pareto_frontier(evals: &[Evaluation]) -> Vec<usize> {
    let points: Vec<Vec<f64>> = evals.iter().map(Evaluation::objectives).collect();
    pareto_indices(&points)
}

/// One system × kernel energy estimate.
#[derive(Clone, Debug, PartialEq)]
pub struct EnergyEval {
    /// The system.
    pub system: EvaluatedSystem,
    /// The kernel.
    pub kernel: hetmem_trace::kernels::Kernel,
    /// The component breakdown.
    pub breakdown: hetmem_sim::EnergyBreakdown,
}

/// Estimates energy for every case-study cell. The fabric traffic follows
/// each system's actual transfer behaviour: the PCI-attached systems move
/// bytes over the link (LRB and GMAC skip the result direction thanks to
/// their shared windows), Fusion copies through the memory controllers,
/// and IDEAL-HETERO moves nothing.
#[must_use]
pub fn evaluate_energy(config: &ExperimentConfig) -> Vec<EnergyEval> {
    use hetmem_sim::{estimate_energy, CommTraffic, EnergyParams};
    use hetmem_trace::kernels::{Kernel, KernelParams};
    use hetmem_trace::TransferDirection;

    let params = EnergyParams::default();
    let mut out = Vec::new();
    for kernel in Kernel::ALL {
        let trace = kernel.generate(&KernelParams::scaled(config.scale));
        let h2d = trace.comm_bytes_in(TransferDirection::HostToDevice);
        let total = trace.comm_bytes();
        for system in EvaluatedSystem::ALL {
            let report = hetmem_sim::Simulation::builder()
                .config(config.system)
                .costs(config.costs)
                .comm_model(system.comm_model(config.costs))
                .build()
                .expect("experiment system configuration is valid")
                .run(&trace)
                .expect("generated traces are well-formed");
            let traffic = match system {
                EvaluatedSystem::CpuGpuCuda => CommTraffic {
                    pci_bytes: total,
                    memctl_bytes: 0,
                },
                // Shared windows: results stay in place, only inputs move.
                EvaluatedSystem::Lrb | EvaluatedSystem::Gmac => CommTraffic {
                    pci_bytes: h2d,
                    memctl_bytes: 0,
                },
                EvaluatedSystem::Fusion => CommTraffic {
                    pci_bytes: 0,
                    memctl_bytes: total,
                },
                EvaluatedSystem::IdealHetero => CommTraffic::default(),
            };
            out.push(EnergyEval {
                system,
                kernel,
                breakdown: estimate_energy(&report, traffic, &params),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hardware_cost_rubric_orders_sensibly() {
        // Disjoint PCI-E CUDA system is the cheapest hardware; the ideal
        // unified coherent system is the most expensive.
        let cuda = hardware_cost(&design_point_of(EvaluatedSystem::CpuGpuCuda));
        let lrb = hardware_cost(&design_point_of(EvaluatedSystem::Lrb));
        let gmac = hardware_cost(&design_point_of(EvaluatedSystem::Gmac));
        let fusion = hardware_cost(&design_point_of(EvaluatedSystem::Fusion));
        let ideal = hardware_cost(&design_point_of(EvaluatedSystem::IdealHetero));
        assert!(cuda < lrb && cuda < gmac && cuda < fusion);
        for other in [cuda, lrb, gmac, fusion] {
            assert!(ideal > other, "ideal ({ideal}) must top {other}");
        }
    }

    #[test]
    fn programmer_burden_follows_table_v_ordering() {
        let uni = programmer_burden(AddressSpace::Unified);
        let pas = programmer_burden(AddressSpace::PartiallyShared);
        let adsm = programmer_burden(AddressSpace::Adsm);
        let dis = programmer_burden(AddressSpace::Disjoint);
        assert_eq!(uni, 0.0);
        assert!(
            uni < pas && pas < adsm && adsm < dis,
            "{uni} {pas} {adsm} {dis}"
        );
    }

    #[test]
    fn dominance_is_irreflexive_and_antisymmetric() {
        let a = [100.0, 5.0, 7.0];
        let b = [90.0, 5.0, 7.0];
        assert!(!dominates(&a, &a));
        assert!(dominates(&b, &a));
        assert!(!dominates(&a, &b));
    }

    #[test]
    fn dominance_requires_strict_improvement() {
        assert!(dominates(&[1.0, 2.0], &[1.0, 3.0]));
        assert!(!dominates(&[1.0, 2.0], &[1.0, 2.0]));
        assert!(!dominates(&[1.0, 4.0], &[2.0, 3.0]));
    }

    #[test]
    fn frontier_keeps_input_order_and_duplicates() {
        let points = vec![
            vec![1.0, 3.0],
            vec![3.0, 1.0],
            vec![2.0, 2.0],
            vec![3.0, 3.0], // dominated by the previous point
            vec![1.0, 3.0], // duplicate of the first: kept
        ];
        assert_eq!(pareto_indices(&points), vec![0, 1, 2, 4]);
    }

    #[test]
    fn empty_and_singleton_spaces() {
        assert!(pareto_indices(&[]).is_empty());
        assert_eq!(pareto_indices(&[vec![5.0]]), vec![0]);
    }

    #[test]
    fn frontier_has_no_dominated_points_and_is_nonempty() {
        let evals = evaluate_systems(&ExperimentConfig::scaled(128));
        let frontier = pareto_frontier(&evals);
        assert!(!frontier.is_empty());
        for &i in &frontier {
            for (j, e) in evals.iter().enumerate() {
                if j != i {
                    assert!(
                        !dominates(&e.objectives(), &evals[i].objectives()),
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
                        .any(|e| dominates(&e.objectives(), &evals[i].objectives())),
                    "{}",
                    evals[i].system
                );
            }
        }
    }

    #[test]
    fn energy_follows_runtime_and_fabric() {
        let evals = evaluate_energy(&ExperimentConfig::scaled(64));
        assert_eq!(evals.len(), 30);
        for e in &evals {
            assert!(e.breakdown.total_uj() > 0.0, "{}/{}", e.system, e.kernel);
        }
        // On any kernel, the ideal system's communication energy is zero
        // and CUDA's is the largest of the PCI systems.
        use hetmem_trace::kernels::Kernel;
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
        let evals = evaluate_systems(&ExperimentConfig::scaled(128));
        let frontier = pareto_frontier(&evals);
        let cuda_idx = evals
            .iter()
            .position(|e| e.system == EvaluatedSystem::CpuGpuCuda)
            .expect("present");
        assert!(frontier.contains(&cuda_idx));
    }
}
