//! The multi-objective space a guided search optimizes over.
//!
//! Four axes, one per trade-off the paper studies, all minimized:
//!
//! * **cycles** — simulated execution time (geometric-mean total ticks over
//!   the candidate's kernels), from the cached `hetmem-xplore` records;
//! * **energy** — a communication-energy proxy: mean communication ticks
//!   plus DRAM bus-busy ticks. Both counters live inside the cached
//!   [`hetmem_sim::RunReport`], so warm restarts never re-simulate to
//!   recompute energy;
//! * **loc** — programmability: mean extra source lines the candidate's
//!   address space forces (the Table V metric, computed by the DSL
//!   lowering);
//! * **hw** — the abstract hardware-cost score of the candidate's design
//!   point ([`hetmem_core::hardware_cost`]);
//! * **saved** — lowering quality: mean communication lines the
//!   checker-driven `fix` optimizer can still delete from the candidate's
//!   canonical lowerings. Zero means the address space's lowering is
//!   already provably minimal; higher means the model forces
//!   communication boilerplate the checker can prove redundant.

/// One optimization axis. All axes are minimized.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Geometric-mean total execution ticks.
    Cycles,
    /// Communication + DRAM bus traffic proxy for energy.
    Energy,
    /// Mean extra source lines (Table V) under the address space.
    Loc,
    /// Abstract hardware-cost score of the design point.
    Hw,
    /// Mean communication lines the fix pass proves removable from the
    /// canonical lowerings (residual redundancy of the address space).
    Saved,
}

impl Objective {
    /// Every axis, in canonical order.
    pub const ALL: [Objective; 5] = [
        Objective::Cycles,
        Objective::Energy,
        Objective::Loc,
        Objective::Hw,
        Objective::Saved,
    ];

    /// Canonical lower-case name (the CLI/JSON spelling).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Objective::Cycles => "cycles",
            Objective::Energy => "energy",
            Objective::Loc => "loc",
            Objective::Hw => "hw",
            Objective::Saved => "saved",
        }
    }

    /// Parses one objective name or alias.
    ///
    /// # Errors
    ///
    /// Returns a one-line message listing valid names.
    pub fn parse(s: &str) -> Result<Objective, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "cycles" | "perf" | "performance" => Ok(Objective::Cycles),
            "energy" | "comm" | "traffic" => Ok(Objective::Energy),
            "loc" | "programmability" | "burden" => Ok(Objective::Loc),
            "hw" | "hardware" | "cost" => Ok(Objective::Hw),
            "saved" | "redundancy" | "fixable" => Ok(Objective::Saved),
            other => Err(format!(
                "unknown objective {other:?} (cycles|energy|loc|hw|saved)"
            )),
        }
    }

    /// Parses an objective list from its already-split names (the CLI's
    /// comma list, the service's JSON array), rejecting duplicates and an
    /// empty list. An omitted list means [`Objective::ALL`]; that default
    /// is the caller's.
    ///
    /// # Errors
    ///
    /// Returns a one-line message naming the offending entry.
    pub fn parse_list<S: AsRef<str>>(names: &[S]) -> Result<Vec<Objective>, String> {
        if names.is_empty() {
            return Err("no objectives given (cycles|energy|loc|hw|saved)".to_owned());
        }
        let mut out = Vec::with_capacity(names.len());
        for name in names {
            let objective = Objective::parse(name.as_ref())?;
            if out.contains(&objective) {
                return Err(format!("duplicate objective {:?}", objective.name()));
            }
            out.push(objective);
        }
        Ok(out)
    }
}

impl std::fmt::Display for Objective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aliases_parse() {
        assert_eq!(Objective::parse("PERF"), Ok(Objective::Cycles));
        assert_eq!(Objective::parse("comm"), Ok(Objective::Energy));
        assert_eq!(Objective::parse("programmability"), Ok(Objective::Loc));
        assert_eq!(Objective::parse("hardware"), Ok(Objective::Hw));
        assert_eq!(Objective::parse("redundancy"), Ok(Objective::Saved));
        assert!(Objective::parse("speed").is_err());
    }

    #[test]
    fn list_parses_and_rejects_duplicates() {
        assert_eq!(
            Objective::parse_list(&["cycles", "energy", "loc", "hw", "saved"]),
            Ok(Objective::ALL.to_vec())
        );
        assert_eq!(
            Objective::parse_list(&["perf", " hw"]),
            Ok(vec![Objective::Cycles, Objective::Hw])
        );
        let duplicate = Objective::parse_list(&["cycles", "perf"]).expect_err("duplicate");
        assert_eq!(duplicate, "duplicate objective \"cycles\"");
        let empty = Objective::parse_list::<&str>(&[]).expect_err("empty");
        assert!(empty.starts_with("no objectives given"), "{empty}");
    }

    #[test]
    fn names_round_trip() {
        for o in Objective::ALL {
            assert_eq!(Objective::parse(o.name()), Ok(o));
        }
    }
}
