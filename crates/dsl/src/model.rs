//! The four memory-address-space design options of §II-A.

/// A memory-address-space design option (Figure 1 of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AddressSpace {
    /// One address space spans both PUs; no explicit transfers
    /// (§II-A1). Maximum programmability, maximum hardware burden.
    Unified,
    /// Each PU has a private space; explicit transfers required for all
    /// shared data (§II-A2). Minimum hardware cost, maximum programmer
    /// burden.
    Disjoint,
    /// A subset of the space is shared, with ownership control in the style
    /// of the LRB programming model (§II-A3).
    PartiallyShared,
    /// Asymmetric distributed shared memory: the CPU sees everything, the
    /// GPU only its own space (GMAC, §II-A4).
    Adsm,
}

impl AddressSpace {
    /// All options, in the paper's presentation order.
    pub const ALL: [AddressSpace; 4] = [
        AddressSpace::Unified,
        AddressSpace::Disjoint,
        AddressSpace::PartiallyShared,
        AddressSpace::Adsm,
    ];

    /// The abbreviation used in the paper's Figure 7 and Table V.
    #[must_use]
    pub fn abbrev(self) -> &'static str {
        match self {
            AddressSpace::Unified => "UNI",
            AddressSpace::Disjoint => "DIS",
            AddressSpace::PartiallyShared => "PAS",
            AddressSpace::Adsm => "ADSM",
        }
    }
}

impl std::fmt::Display for AddressSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.abbrev())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abbrevs_match_paper() {
        let abbrevs: Vec<_> = AddressSpace::ALL.iter().map(|m| m.abbrev()).collect();
        assert_eq!(abbrevs, vec!["UNI", "DIS", "PAS", "ADSM"]);
    }
}
