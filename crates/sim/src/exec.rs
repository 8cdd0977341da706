//! Execution modes: how much per-tick detail the engine simulates.
//!
//! The accurate loop arbitrates between the CPU and GPU run at every step,
//! so a parallel phase costs one global comparison per issued instruction.
//! [`ExecMode`] lets callers trade that detail for speed under an explicit
//! accuracy contract:
//!
//! * [`ExecMode::Accurate`] — the reference tick-every-component loop.
//! * [`ExecMode::Sampled`] — SMARTS-style sampled simulation: periodic
//!   detailed windows of 512 instructions alternate with functional
//!   fast-forwarding over 1 536 instructions whose cost is extrapolated
//!   from the measured ticks-per-instruction so far. Programming-model
//!   special operations inside skipped spans are still executed in detail
//!   (they mutate scratchpad/LLC mappings and serialize). Timing is
//!   approximate: the tolerance test pins the error at <2% of total cycles
//!   for scales ≥ 256.
//!
//! Both modes run the same compute loop; accurate is its case of one
//! unbounded detailed window. The mode travels with the experiment
//! identity: sweep cache keys, sweep and search records, and the serve
//! request schema all carry it, so artifacts produced under different modes
//! never alias.

/// Instructions each core simulates in full detail per sampled window.
const DETAIL_WINDOW: usize = 512;

/// Instructions each core skips between sampled windows: 3 parts warming
/// to 1 part detail. Chosen empirically over the paper grid — against
/// longer warm spans it both tightens worst-case error (0.5-0.6% at scales
/// 256-512, ~3.6% at scale 64, versus >200% at scale 64 for 15:1) and
/// speeds up mixed sweeps, because the post-skip cold-cache transient a
/// detail window must absorb grows with the span it skipped.
const WARM_INTERVAL: usize = 1_536;

/// The sampled mode's canonical label: `sampled:WARM:DETAIL`. Records,
/// cache keys and cluster frames written before the geometry became fixed
/// carry it, so it stays the label.
const SAMPLED_LABEL: &str = "sampled:1536:512";

/// How the engine executes a trace. Each variant states its accuracy
/// contract.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Reference mode: arbitrate every component at every step.
    #[default]
    Accurate,
    /// Sampled simulation: detailed windows of 512 instructions alternate
    /// with fast-forwarding over 1 536 instructions whose cost is
    /// extrapolated. Special operations inside skipped spans still run in
    /// detail. Total cycles stay within 2% of [`ExecMode::Accurate`] at
    /// scales ≥ 256.
    Sampled,
}

impl ExecMode {
    /// The sampled mode.
    #[must_use]
    pub fn sampled_default() -> ExecMode {
        ExecMode::Sampled
    }

    /// Parses a mode name as accepted by `--mode` and the serve schema:
    /// `accurate`, or `sampled` (also under its label `sampled:1536:512`).
    ///
    /// # Errors
    ///
    /// Returns a one-line diagnostic naming `accurate|sampled` for any
    /// other name, including a `sampled:` label with another geometry.
    pub fn parse(text: &str) -> Result<ExecMode, String> {
        match text {
            "accurate" => Ok(ExecMode::Accurate),
            "sampled" | SAMPLED_LABEL => Ok(ExecMode::Sampled),
            _ if text.starts_with("sampled:") => Err(format!(
                "mode {text:?}: the sampling geometry is fixed at {SAMPLED_LABEL} \
                 (accurate|sampled)"
            )),
            _ => Err(format!("unknown mode {text:?} (accurate|sampled)")),
        }
    }

    /// Canonical machine-readable label, parseable by [`ExecMode::parse`].
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ExecMode::Accurate => "accurate",
            ExecMode::Sampled => SAMPLED_LABEL,
        }
    }

    /// The cache-key component for this mode: `None` for
    /// [`ExecMode::Accurate`] (preserving every pre-mode cache key and
    /// serialized record byte-for-byte), the label otherwise.
    #[must_use]
    pub fn cache_tag(&self) -> Option<&'static str> {
        match self {
            ExecMode::Accurate => None,
            other => Some(other.label()),
        }
    }

    /// The compute loop's geometry in this mode, as `(warm, window)`:
    /// instructions each core skips between detailed windows, and each
    /// window's length per core. Accurate is one unbounded window.
    pub(crate) fn windows(self) -> (usize, usize) {
        match self {
            ExecMode::Accurate => (0, usize::MAX),
            ExecMode::Sampled => (WARM_INTERVAL, DETAIL_WINDOW),
        }
    }
}

impl std::fmt::Display for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_canonical_and_alias_names() {
        assert_eq!(ExecMode::parse("accurate"), Ok(ExecMode::Accurate));
        assert_eq!(ExecMode::parse("sampled"), Ok(ExecMode::Sampled));
        assert_eq!(ExecMode::parse("sampled:1536:512"), Ok(ExecMode::Sampled));
    }

    #[test]
    fn parse_rejects_malformed_modes() {
        for bad in [
            "fast",
            "Accurate",
            "sampled:",
            "sampled:100",
            "sampled:0:100",
            "sampled:100:0",
            "sampled:x:y",
            "sampled:100:100:100",
            "sampled:1000:100",
            "sampled:1536:512:1",
        ] {
            let err = ExecMode::parse(bad).expect_err(bad);
            assert!(err.contains("accurate|sampled"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn labels_round_trip_through_parse() {
        for mode in [ExecMode::Accurate, ExecMode::Sampled] {
            assert_eq!(ExecMode::parse(mode.label()), Ok(mode));
        }
    }

    #[test]
    fn the_sampled_label_spells_the_geometry() {
        assert_eq!(
            SAMPLED_LABEL,
            format!("sampled:{WARM_INTERVAL}:{DETAIL_WINDOW}")
        );
    }

    #[test]
    fn only_accurate_has_no_cache_tag() {
        assert_eq!(ExecMode::Accurate.cache_tag(), None);
        assert_eq!(ExecMode::Sampled.cache_tag(), Some("sampled:1536:512"));
    }
}
