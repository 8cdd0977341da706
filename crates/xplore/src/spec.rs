//! Declarative sweep specifications and their deterministic expansion into
//! job lists.
//!
//! A [`SweepSpec`] names the axes to cover — kernels, evaluated systems
//! (the Fig 5/6 case-study axis), address-space options under idealized
//! communication (the Fig 7 isolation axis), and trace scales — and
//! [`SweepSpec::expand`] produces the cross product as ordinally-numbered
//! [`Job`]s. Expansion order is fixed (scale → kernel → systems → spaces),
//! so job ids are stable regardless of how many workers later execute them.

use hetmem_core::metrics::{design_point_of, isolated_design_point};
use hetmem_core::{AddressSpace, DesignPoint, EvaluatedSystem};
use hetmem_trace::kernels::Kernel;

/// What one job simulates: a point on the target axis that sweeps expand
/// and searches explore.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// One Figure 5/6 cell: a kernel on an evaluated system.
    CaseStudy {
        /// The system preset.
        system: EvaluatedSystem,
    },
    /// One Figure 7 cell: a kernel under an address-space option with
    /// idealized communication.
    AddressSpace {
        /// The address-space option.
        space: AddressSpace,
    },
}

impl JobKind {
    /// The system name or address-space abbreviation.
    #[must_use]
    pub fn target_name(self) -> &'static str {
        match self {
            JobKind::CaseStudy { system } => system.name(),
            JobKind::AddressSpace { space } => space.abbrev(),
        }
    }

    /// The address space a programmer sees on this target — the axis the
    /// programmability (LoC) objective depends on.
    #[must_use]
    pub fn address_space(self) -> AddressSpace {
        match self {
            JobKind::CaseStudy { system } => system.address_space(),
            JobKind::AddressSpace { space } => space,
        }
    }

    /// The canonical design point scored by the hardware-cost objective:
    /// the evaluated system's published point, or the isolated space
    /// under the ideal fabric ([`isolated_design_point`]).
    #[must_use]
    pub fn design_point(self) -> DesignPoint {
        match self {
            JobKind::CaseStudy { system } => design_point_of(system),
            JobKind::AddressSpace { space } => isolated_design_point(space),
        }
    }
}

/// One unit of work: a kernel × target × scale cell with a stable ordinal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Job {
    /// Ordinal within the expanded sweep; results are sorted by this.
    pub id: u64,
    /// The kernel to trace.
    pub kernel: Kernel,
    /// What to run it on.
    pub kind: JobKind,
    /// Trace scale divisor.
    pub scale: u32,
}

impl Job {
    /// `"case-study"` or `"address-space"`.
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self.kind {
            JobKind::CaseStudy { .. } => "case-study",
            JobKind::AddressSpace { .. } => "address-space",
        }
    }

    /// The system name or address-space abbreviation this job targets.
    #[must_use]
    pub fn target_name(&self) -> &'static str {
        self.kind.target_name()
    }

    /// The design-space coordinates of the target: the evaluated system's
    /// full design point, or the isolated address space under the ideal
    /// fabric.
    #[must_use]
    pub fn design_point_label(&self) -> String {
        match self.kind {
            JobKind::CaseStudy { system } => design_point_of(system).to_string(),
            JobKind::AddressSpace { space } => format!("{space} / ideal fabric"),
        }
    }

    /// A stable, human-readable identity string — the cache key input.
    /// Everything that changes the simulation result must appear here (the
    /// engine appends the hardware/cost configuration fingerprint).
    #[must_use]
    pub fn identity(&self) -> String {
        format!(
            "{}:{}:{}:scale={}",
            self.kind_name(),
            self.kernel.name(),
            self.target_name(),
            self.scale
        )
    }
}

/// The declarative description of a sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepSpec {
    /// Kernels to trace (Table III order).
    pub kernels: Vec<Kernel>,
    /// Evaluated systems for case-study jobs; empty skips the family.
    pub systems: Vec<EvaluatedSystem>,
    /// Address-space options for isolation jobs; empty skips the family.
    pub spaces: Vec<AddressSpace>,
    /// Trace scales; each multiplies the whole grid.
    pub scales: Vec<u32>,
}

impl SweepSpec {
    /// The full grid the paper's evaluation covers: every kernel on every
    /// evaluated system plus every address-space isolation, at `scale`.
    #[must_use]
    pub fn full(scale: u32) -> SweepSpec {
        SweepSpec {
            kernels: Kernel::ALL.to_vec(),
            systems: EvaluatedSystem::ALL.to_vec(),
            spaces: AddressSpace::ALL.to_vec(),
            scales: vec![scale],
        }
    }

    /// Expands the spec into the deterministic job list. Order is
    /// scale-major, then kernel, then the system axis, then the space axis;
    /// ids are assigned in that order starting from zero.
    #[must_use]
    pub fn expand(&self) -> Vec<Job> {
        let mut jobs = Vec::new();
        let mut id = 0;
        let mut push = |kernel, kind, scale, jobs: &mut Vec<Job>| {
            jobs.push(Job {
                id,
                kernel,
                kind,
                scale,
            });
            id += 1;
        };
        for &scale in &self.scales {
            for &kernel in &self.kernels {
                for &system in &self.systems {
                    push(kernel, JobKind::CaseStudy { system }, scale, &mut jobs);
                }
                for &space in &self.spaces {
                    push(kernel, JobKind::AddressSpace { space }, scale, &mut jobs);
                }
            }
        }
        jobs
    }
}

/// Parses a kernel name (Table III names or their common aliases).
///
/// # Errors
///
/// Returns a one-line message listing valid names.
pub fn parse_kernel(s: &str) -> Result<Kernel, String> {
    s.parse().map_err(|e| format!("{e}"))
}

/// Parses an evaluated-system name (Figure 5/6 labels or aliases).
///
/// # Errors
///
/// Returns a one-line message listing valid names.
pub fn parse_system(s: &str) -> Result<EvaluatedSystem, String> {
    match s.to_ascii_lowercase().as_str() {
        "cpu+gpu" | "cuda" | "cpugpu" => Ok(EvaluatedSystem::CpuGpuCuda),
        "lrb" => Ok(EvaluatedSystem::Lrb),
        "gmac" => Ok(EvaluatedSystem::Gmac),
        "fusion" => Ok(EvaluatedSystem::Fusion),
        "ideal" | "ideal-hetero" => Ok(EvaluatedSystem::IdealHetero),
        other => Err(format!(
            "unknown system {other:?} (cpu+gpu|lrb|gmac|fusion|ideal)"
        )),
    }
}

/// Parses an address-space option (Figure 7 abbreviations or aliases).
///
/// # Errors
///
/// Returns a one-line message listing valid names.
pub fn parse_space(s: &str) -> Result<AddressSpace, String> {
    match s.to_ascii_lowercase().as_str() {
        "uni" | "unified" => Ok(AddressSpace::Unified),
        "pas" | "partial" | "partially-shared" => Ok(AddressSpace::PartiallyShared),
        "dis" | "disjoint" => Ok(AddressSpace::Disjoint),
        "adsm" => Ok(AddressSpace::Adsm),
        other => Err(format!("unknown model {other:?} (uni|pas|dis|adsm)")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_grid_covers_every_paper_cell() {
        let jobs = SweepSpec::full(64).expand();
        // 6 kernels × (5 systems + 4 spaces).
        assert_eq!(jobs.len(), 6 * 9);
        let case_studies = jobs
            .iter()
            .filter(|j| j.kind_name() == "case-study")
            .count();
        assert_eq!(case_studies, 30);
        // Ids are the ordinals.
        for (i, job) in jobs.iter().enumerate() {
            assert_eq!(job.id, i as u64);
        }
    }

    #[test]
    fn expansion_is_deterministic() {
        let spec = SweepSpec::full(16);
        assert_eq!(spec.expand(), spec.expand());
    }

    #[test]
    fn filters_shrink_the_grid() {
        let spec = SweepSpec {
            kernels: vec![Kernel::Reduction],
            systems: vec![EvaluatedSystem::Fusion],
            spaces: vec![],
            scales: vec![8, 16],
        };
        let jobs = spec.expand();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].scale, 8);
        assert_eq!(jobs[1].scale, 16);
        assert_eq!(jobs[0].target_name(), "Fusion");
    }

    #[test]
    fn identities_are_unique_within_a_sweep() {
        let jobs = SweepSpec::full(4).expand();
        let mut ids: Vec<String> = jobs.iter().map(Job::identity).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), jobs.len());
    }

    #[test]
    fn parsers_accept_paper_aliases() {
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
        assert!(parse_kernel("reduction").is_ok());
        assert!(parse_kernel("not-a-kernel").is_err());
        assert!(parse_system("not-a-system").is_err());
        assert!(parse_space("weird").is_err());
    }

    #[test]
    fn design_point_labels_are_informative() {
        let jobs = SweepSpec::full(1).expand();
        for job in jobs {
            let label = job.design_point_label();
            assert!(!label.is_empty(), "{job:?}");
        }
    }
}
