//! The searchable design space: candidates over the sweep axes.
//!
//! A **candidate** is one (target, scale) pair; a **target** is a
//! [`JobKind`]: either an evaluated system (the Fig 5/6 case-study axis)
//! or an address-space option under idealized communication (the Fig 7
//! isolation axis) — exactly the axes [`hetmem_xplore::SweepSpec`]
//! expands. Evaluating a candidate costs one simulator job per kernel,
//! executed through the cached sweep engine, so the search's unit of
//! budget is the job.
//!
//! Candidate enumeration is scale-major then target, mirroring the sweep's
//! own expansion order, and is the deterministic index space every
//! optimizer works in.

use hetmem_trace::kernels::Kernel;
use hetmem_xplore::{Job, JobKind, SweepSpec};

/// The candidate space a search explores: kernels fixed per evaluation,
/// targets × scales enumerable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SearchSpace {
    /// Kernels every candidate is evaluated on (Table III order).
    pub kernels: Vec<Kernel>,
    /// The target axis, in sweep order (systems first, then spaces).
    pub targets: Vec<JobKind>,
    /// The scale axis.
    pub scales: Vec<u32>,
}

impl SearchSpace {
    /// The full paper grid at one scale: every kernel, all five systems
    /// plus all four isolated spaces.
    #[must_use]
    pub fn full(scale: u32) -> SearchSpace {
        SearchSpace::from_spec(&SweepSpec::full(scale))
    }

    /// The search view of a sweep spec: the spec's system and space lists
    /// concatenate (systems first) into the target axis.
    #[must_use]
    pub fn from_spec(spec: &SweepSpec) -> SearchSpace {
        let targets = spec
            .systems
            .iter()
            .copied()
            .map(|system| JobKind::CaseStudy { system })
            .chain(
                spec.spaces
                    .iter()
                    .map(|&space| JobKind::AddressSpace { space }),
            )
            .collect();
        SearchSpace {
            kernels: spec.kernels.clone(),
            targets,
            scales: spec.scales.clone(),
        }
    }

    /// Number of candidates (targets × scales).
    #[must_use]
    pub fn len(&self) -> usize {
        self.targets.len() * self.scales.len()
    }

    /// Whether the space has no candidates.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Simulator jobs one candidate evaluation costs.
    #[must_use]
    pub fn jobs_per_candidate(&self) -> usize {
        self.kernels.len()
    }

    /// Jobs an exhaustive sweep of the whole space would run — the
    /// baseline guided search is measured against.
    #[must_use]
    pub fn exhaustive_jobs(&self) -> usize {
        self.len() * self.jobs_per_candidate()
    }

    /// The simulator-job budget a search spends when none is given: a
    /// quarter of the exhaustive sweep, but never less than one candidate
    /// evaluation.
    #[must_use]
    pub fn default_budget(&self) -> usize {
        (self.exhaustive_jobs() / 4).max(self.jobs_per_candidate())
    }

    /// Decomposes a candidate index into (target index, scale index).
    /// Enumeration is scale-major then target, like the sweep expansion.
    ///
    /// # Panics
    ///
    /// Panics if `candidate` is out of range.
    #[must_use]
    pub fn coords(&self, candidate: usize) -> (usize, usize) {
        assert!(candidate < self.len(), "candidate {candidate} out of range");
        (
            candidate % self.targets.len(),
            candidate / self.targets.len(),
        )
    }

    /// The candidate index for (target index, scale index).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn index_of(&self, target: usize, scale: usize) -> usize {
        assert!(target < self.targets.len() && scale < self.scales.len());
        scale * self.targets.len() + target
    }

    /// The candidate's target.
    #[must_use]
    pub fn target(&self, candidate: usize) -> JobKind {
        self.targets[self.coords(candidate).0]
    }

    /// The candidate's scale.
    #[must_use]
    pub fn scale(&self, candidate: usize) -> u32 {
        self.scales[self.coords(candidate).1]
    }

    /// A short human label, `target@scale`.
    #[must_use]
    pub fn label(&self, candidate: usize) -> String {
        format!(
            "{}@{}",
            self.target(candidate).target_name(),
            self.scale(candidate)
        )
    }

    /// The sweep jobs evaluating `candidate`, with ids starting at
    /// `first_id` (batch callers keep ids unique across one submission).
    #[must_use]
    pub fn jobs_for(&self, candidate: usize, first_id: u64) -> Vec<Job> {
        let kind = self.target(candidate);
        let scale = self.scale(candidate);
        self.kernels
            .iter()
            .enumerate()
            .map(|(i, &kernel)| Job {
                id: first_id + i as u64,
                kernel,
                kind,
                scale,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetmem_core::{hardware_cost, AddressSpace, EvaluatedSystem};

    #[test]
    fn full_space_covers_the_paper_grid() {
        let space = SearchSpace::full(64);
        assert_eq!(space.len(), 9);
        assert_eq!(space.jobs_per_candidate(), 6);
        assert_eq!(space.exhaustive_jobs(), 54);
        assert_eq!(space.default_budget(), 13);
        assert_eq!(space.label(0), "CPU+GPU@64");
        assert_eq!(space.label(8), "ADSM@64");
    }

    #[test]
    fn coords_round_trip() {
        let mut space = SearchSpace::full(64);
        space.scales = vec![64, 32, 16];
        for c in 0..space.len() {
            let (t, s) = space.coords(c);
            assert_eq!(space.index_of(t, s), c);
        }
        // Scale-major: the second scale's first candidate follows all
        // targets of the first scale.
        assert_eq!(space.coords(space.targets.len()), (0, 1));
    }

    #[test]
    fn jobs_match_sweep_expansion_semantics() {
        let space = SearchSpace::full(32);
        let jobs = space.jobs_for(3, 10); // Fusion
        assert_eq!(jobs.len(), 6);
        assert_eq!(jobs[0].id, 10);
        assert_eq!(jobs[5].id, 15);
        for job in &jobs {
            assert_eq!(job.target_name(), "Fusion");
            assert_eq!(job.scale, 32);
        }
    }

    #[test]
    fn space_design_points_are_valid_and_priced() {
        for space in AddressSpace::ALL {
            let point = JobKind::AddressSpace { space }.design_point();
            assert!(point.is_valid(), "{space:?}: {point:?}");
            // The ideal fabric's 40-point price puts every isolated
            // space above the PCI-E CUDA system.
            let cuda = JobKind::CaseStudy {
                system: EvaluatedSystem::CpuGpuCuda,
            }
            .design_point();
            assert!(hardware_cost(&point) > hardware_cost(&cuda));
        }
    }

    #[test]
    fn cuda_has_the_unique_minimum_hardware_cost() {
        let space = SearchSpace::full(64);
        let costs: Vec<u32> = space
            .targets
            .iter()
            .map(|t| hardware_cost(&t.design_point()))
            .collect();
        let min = *costs.iter().min().expect("nonempty");
        let argmins: Vec<usize> = (0..costs.len()).filter(|&i| costs[i] == min).collect();
        assert_eq!(argmins, vec![0], "{costs:?}");
        assert_eq!(
            space.targets[0],
            JobKind::CaseStudy {
                system: EvaluatedSystem::CpuGpuCuda
            }
        );
    }
}
