//! The survey of existing heterogeneous-computing memory systems —
//! Table I of the paper, as queryable data.

use hetmem_dsl::AddressSpace;

/// Hardware connection between the PUs (Table I "Connection").
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Connection {
    /// PCI-Express link.
    PciE,
    /// Shared memory controller.
    MemoryController,
    /// On-chip interconnection network.
    Interconnection,
    /// Shared cache / front-side bus (Xbox 360).
    CacheFsb,
    /// A system bus (CUBA).
    Bus,
    /// Not fixed by the programming model (CUDA 4.0, OpenCL).
    Unspecified,
}

impl std::fmt::Display for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Connection::PciE => f.write_str("PCI-E"),
            Connection::MemoryController => f.write_str("memory controller"),
            Connection::Interconnection => f.write_str("interconnection"),
            Connection::CacheFsb => f.write_str("cache/FSB"),
            Connection::Bus => f.write_str("bus"),
            Connection::Unspecified => f.write_str("-"),
        }
    }
}

/// Consistency model (Table I "consistency").
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Consistency {
    /// Weak consistency.
    Weak,
    /// Strong (sequential) consistency — notable by its absence from the
    /// survey.
    Strong,
    /// Centralized release consistency (COMIC).
    CentralizedRelease,
    /// Not stated.
    Unspecified,
}

impl std::fmt::Display for Consistency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Consistency::Weak => f.write_str("weak"),
            Consistency::Strong => f.write_str("strong"),
            Consistency::CentralizedRelease => f.write_str("centralized release"),
            Consistency::Unspecified => f.write_str("-"),
        }
    }
}

/// One surveyed system — a row of Table I.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SystemEntry {
    /// System or programming-model name.
    pub name: &'static str,
    /// Address-space organization. The survey includes one homogeneous
    /// accelerator, Rigel, whose "unified" space is within a single
    /// architecture.
    pub space: AddressSpace,
    /// PU-to-PU connection.
    pub connection: Connection,
    /// Coherence support, as described in the paper.
    pub coherence: &'static str,
    /// How shared data is used.
    pub shared_data: &'static str,
    /// Consistency model.
    pub consistency: Consistency,
    /// Synchronization mechanism.
    pub synchronization: &'static str,
    /// Locality-management classification.
    pub locality: &'static str,
    /// Whether the entry provides full hardware coherence across PUs.
    pub fully_coherent: bool,
}

impl SystemEntry {
    /// The entry's address space in Table I's words ("unified",
    /// "disjoint", "partially shared", "ADSM").
    #[must_use]
    pub fn space_label(&self) -> &'static str {
        match self.space {
            AddressSpace::Unified => "unified",
            AddressSpace::Disjoint => "disjoint",
            AddressSpace::PartiallyShared => "partially shared",
            AddressSpace::Adsm => "ADSM",
        }
    }
}

/// Table I verbatim (13 rows; Rigel is the homogeneous comparison point).
#[must_use]
pub fn catalog() -> Vec<SystemEntry> {
    let e = |name,
             space,
             connection,
             coherence,
             shared_data,
             consistency,
             synchronization,
             locality,
             fully_coherent| SystemEntry {
        name,
        space,
        connection,
        coherence,
        shared_data,
        consistency,
        synchronization,
        locality,
        fully_coherent,
    };
    vec![
        e(
            "CPU+CUDA*",
            AddressSpace::Disjoint,
            Connection::PciE,
            "-",
            "NA",
            Consistency::Weak,
            "-",
            "impl-pri-expl-pri",
            false,
        ),
        e(
            "EXOCHI",
            AddressSpace::Unified,
            Connection::MemoryController,
            "can be coherent",
            "CHI runtime API",
            Consistency::Weak,
            "unknown",
            "impl-pri",
            false,
        ),
        e(
            "CPU+LRB",
            AddressSpace::PartiallyShared,
            Connection::PciE,
            "coherent only in LRB/CPU",
            "type qualifier, ownership",
            Consistency::Weak,
            "APIs",
            "impl-pri",
            false,
        ),
        e(
            "COMIC",
            AddressSpace::Unified,
            Connection::Interconnection,
            "directory",
            "COMIC API functions",
            Consistency::CentralizedRelease,
            "barrier function",
            "expl-pri-impl-pri-impl-shared",
            false,
        ),
        e(
            "Rigel",
            AddressSpace::Unified,
            Connection::Interconnection,
            "HW/SW",
            "global memory operation",
            Consistency::Weak,
            "implicit barrier/Rigel LPI",
            "expl",
            false,
        ),
        e(
            "GMAC",
            AddressSpace::Adsm,
            Connection::PciE,
            "GMAC protocol",
            "global memory operation",
            Consistency::Weak,
            "sync API",
            "expl-private-impl-shared",
            false,
        ),
        e(
            "Sandy Bridge",
            AddressSpace::Disjoint,
            Connection::MemoryController,
            "-",
            "-",
            Consistency::Weak,
            "-",
            "impl-priv-exp-priv",
            false,
        ),
        e(
            "Fusion",
            AddressSpace::Disjoint,
            Connection::MemoryController,
            "-",
            "-",
            Consistency::Unspecified,
            "-",
            "-",
            false,
        ),
        e(
            "IBM Cell",
            AddressSpace::Disjoint,
            Connection::Interconnection,
            "-",
            "-",
            Consistency::Weak,
            "-",
            "expl-pri-impl-priv-impl-shared",
            false,
        ),
        e(
            "Xbox 360",
            AddressSpace::Disjoint,
            Connection::CacheFsb,
            "-",
            "Lock-set cache, copy",
            Consistency::Unspecified,
            "-",
            "impl-priv-exp-shared",
            false,
        ),
        e(
            "CUBA",
            AddressSpace::Disjoint,
            Connection::Bus,
            "-",
            "direct access to local storage",
            Consistency::Weak,
            "-",
            "exp-priv",
            false,
        ),
        e(
            "CUDA 4.0",
            AddressSpace::Unified,
            Connection::Unspecified,
            "-",
            "explicit copy",
            Consistency::Weak,
            "-",
            "exp-priv",
            false,
        ),
        e(
            "OpenCL",
            AddressSpace::Unified,
            Connection::Unspecified,
            "-",
            "explicit copy",
            Consistency::Weak,
            "-",
            "exp-priv",
            false,
        ),
    ]
}

/// Entries using a given address-space organization.
#[must_use]
pub fn by_space(space: AddressSpace) -> Vec<SystemEntry> {
    catalog().into_iter().filter(|e| e.space == space).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirteen_rows_like_table_i() {
        assert_eq!(catalog().len(), 13);
    }

    #[test]
    fn no_unified_fully_coherent_strong_system_exists() {
        // "The summary shows that none of the heterogeneous computing
        // systems has employed a unified, fully-coherent, strong-consistent
        // memory system yet."
        let offending = catalog().into_iter().filter(|e| {
            e.space == AddressSpace::Unified
                && e.fully_coherent
                && e.consistency == Consistency::Strong
        });
        assert_eq!(offending.count(), 0);
    }

    #[test]
    fn most_systems_are_disjoint() {
        // "Most proposed/existing systems have disjoint memory systems."
        let disjoint = by_space(AddressSpace::Disjoint).len();
        for s in [
            AddressSpace::Unified,
            AddressSpace::PartiallyShared,
            AddressSpace::Adsm,
        ] {
            assert!(disjoint >= by_space(s).len());
        }
        assert_eq!(disjoint, 6);
    }

    #[test]
    fn known_rows_spot_check() {
        let cat = catalog();
        let gmac = cat.iter().find(|e| e.name == "GMAC").expect("GMAC present");
        assert_eq!(gmac.space, AddressSpace::Adsm);
        assert_eq!(gmac.connection, Connection::PciE);
        let lrb = cat
            .iter()
            .find(|e| e.name == "CPU+LRB")
            .expect("LRB present");
        assert_eq!(lrb.space, AddressSpace::PartiallyShared);
        let comic = cat
            .iter()
            .find(|e| e.name == "COMIC")
            .expect("COMIC present");
        assert_eq!(comic.consistency, Consistency::CentralizedRelease);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = catalog().into_iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 13);
    }
}
