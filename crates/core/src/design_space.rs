//! Enumeration of the full memory-model design space: address space ×
//! communication fabric × locality scheme × coherence option, with the
//! validity constraints the paper discusses.

use crate::locality::LocalityScheme;
use hetmem_dsl::AddressSpace;
use hetmem_sim::FabricKind;

/// Who keeps shared data coherent.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CoherenceOption {
    /// No coherence between PUs (software copies everything).
    None,
    /// Hardware coherence across both PUs' caches.
    Hardware,
    /// A software/runtime protocol (GMAC-style).
    Software,
    /// Ownership transfer makes coherence unnecessary (LRB-style).
    Ownership,
}

impl CoherenceOption {
    /// All options.
    pub const ALL: [CoherenceOption; 4] = [
        CoherenceOption::None,
        CoherenceOption::Hardware,
        CoherenceOption::Software,
        CoherenceOption::Ownership,
    ];
}

impl std::fmt::Display for CoherenceOption {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoherenceOption::None => f.write_str("none"),
            CoherenceOption::Hardware => f.write_str("hardware"),
            CoherenceOption::Software => f.write_str("software"),
            CoherenceOption::Ownership => f.write_str("ownership"),
        }
    }
}

/// One point in the design space.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DesignPoint {
    /// Address-space organization.
    pub address_space: AddressSpace,
    /// Hardware communication mechanism.
    pub fabric: FabricKind,
    /// Locality-management scheme.
    pub locality: LocalityScheme,
    /// Coherence responsibility.
    pub coherence: CoherenceOption,
}

impl DesignPoint {
    /// Whether this combination is self-consistent:
    ///
    /// * the locality scheme must be available under the address space
    ///   (§II-B);
    /// * the PCI aperture exists to implement a (partially) shared window —
    ///   it is meaningless for fully disjoint spaces;
    /// * ownership-based coherence requires a shared window to own
    ///   (partially shared or ADSM);
    /// * disjoint spaces have nothing to keep coherent;
    /// * a unified space must keep shared data coherent somehow (hardware
    ///   or software), or gate it by ownership — `None` would break the
    ///   single-space illusion;
    /// * the ideal fabric is an analysis device, valid anywhere.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        if !self.locality.is_valid_for(self.address_space) {
            return false;
        }
        if self.fabric == FabricKind::PciAperture && self.address_space == AddressSpace::Disjoint {
            return false;
        }
        match self.address_space {
            AddressSpace::Disjoint => self.coherence == CoherenceOption::None,
            AddressSpace::Unified => self.coherence != CoherenceOption::None,
            AddressSpace::PartiallyShared => true,
            AddressSpace::Adsm => {
                // ADSM's definition: one side (the CPU/runtime) maintains
                // coherent state — software or ownership, not symmetric
                // hardware coherence, and not nothing.
                matches!(
                    self.coherence,
                    CoherenceOption::Software | CoherenceOption::Ownership
                )
            }
        }
    }

    /// Every valid design point.
    #[must_use]
    pub fn enumerate() -> Vec<DesignPoint> {
        let mut out = Vec::new();
        for address_space in AddressSpace::ALL {
            for fabric in FabricKind::ALL {
                for locality in LocalityScheme::all() {
                    for coherence in CoherenceOption::ALL {
                        let p = DesignPoint {
                            address_space,
                            fabric,
                            locality,
                            coherence,
                        };
                        if p.is_valid() {
                            out.push(p);
                        }
                    }
                }
            }
        }
        out
    }

    /// Valid design points per address space — the quantitative form of the
    /// paper's conclusion that the partially shared space offers the most
    /// design options.
    #[must_use]
    pub fn options_per_space() -> Vec<(AddressSpace, usize)> {
        AddressSpace::ALL
            .iter()
            .map(|&s| {
                let n = DesignPoint::enumerate()
                    .into_iter()
                    .filter(|p| p.address_space == s)
                    .count();
                (s, n)
            })
            .collect()
    }
}

impl std::fmt::Display for DesignPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} / {} / {} / {} coherence",
            self.address_space, self.fabric, self.locality, self.coherence
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumeration_is_nonempty_and_all_valid() {
        let points = DesignPoint::enumerate();
        assert!(points.len() > 50, "got {}", points.len());
        assert!(points.iter().all(DesignPoint::is_valid));
    }

    #[test]
    fn partially_shared_has_the_most_design_options() {
        let counts = DesignPoint::options_per_space();
        let pas = counts
            .iter()
            .find(|(s, _)| *s == AddressSpace::PartiallyShared)
            .map(|(_, n)| *n)
            .expect("PAS counted");
        for (space, n) in counts {
            if space != AddressSpace::PartiallyShared {
                assert!(pas > n, "PAS ({pas}) must beat {space} ({n})");
            }
        }
    }

    #[test]
    fn aperture_requires_a_shared_window() {
        let p = DesignPoint {
            address_space: AddressSpace::Disjoint,
            fabric: FabricKind::PciAperture,
            locality: LocalityScheme {
                cpu_private: crate::locality::LocalityControl::Implicit,
                gpu_private: crate::locality::LocalityControl::Implicit,
                shared: None,
            },
            coherence: CoherenceOption::None,
        };
        assert!(!p.is_valid());
    }

    #[test]
    fn disjoint_has_no_coherence() {
        for p in DesignPoint::enumerate() {
            if p.address_space == AddressSpace::Disjoint {
                assert_eq!(p.coherence, CoherenceOption::None);
            }
        }
    }

    #[test]
    fn unified_requires_some_coherence_mechanism() {
        for p in DesignPoint::enumerate() {
            if p.address_space == AddressSpace::Unified {
                assert_ne!(p.coherence, CoherenceOption::None);
            }
        }
    }

    #[test]
    fn evaluated_presets_are_valid_points() {
        for sys in crate::presets::EvaluatedSystem::ALL {
            let p = crate::metrics::design_point_of(sys);
            assert!(p.is_valid(), "{sys}: {p}");
        }
    }
}
