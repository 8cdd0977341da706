//! Execution modes: how much per-tick detail the engine simulates.
//!
//! The accurate loop arbitrates between the CPU and GPU run at every step,
//! so a parallel phase costs one global comparison per issued instruction.
//! [`ExecMode`] lets callers trade that detail for speed under an explicit
//! accuracy contract:
//!
//! * [`ExecMode::Accurate`] — the reference tick-every-component loop.
//! * [`ExecMode::Sampled`] — SMARTS-style sampled simulation: periodic
//!   detailed windows of `detail_window` instructions alternate with
//!   functional fast-forwarding over `warm_interval` instructions whose
//!   cost is extrapolated from the measured ticks-per-instruction so far.
//!   Programming-model special operations inside skipped spans are still
//!   executed in detail (they mutate scratchpad/LLC mappings and
//!   serialize). Timing is approximate: the tolerance test pins the error
//!   at <2% of total cycles for scales ≥ 256.
//!
//! The mode travels with the experiment identity: sweep cache keys, sweep
//! and search records, and the serve request schema all carry it, so
//! artifacts produced under different modes never alias.

/// Default detailed-window length (instructions) for [`ExecMode::Sampled`].
pub const DEFAULT_DETAIL_WINDOW: u64 = 512;

/// Default functional-warming span (instructions) between detailed windows
/// for [`ExecMode::Sampled`]: 3 parts warming to 1 part detail. Chosen
/// empirically over the paper grid — against longer warm spans it both
/// tightens worst-case error (0.5-0.6% at scales 256-512, ~3.6% at scale
/// 64, versus >200% at scale 64 for 15:1) and speeds up mixed sweeps,
/// because the post-skip cold-cache transient a detail window must absorb
/// grows with the span it skipped.
pub const DEFAULT_WARM_INTERVAL: u64 = 1_536;

/// How the engine executes a trace. See the [module docs](self) for the
/// accuracy contract of each mode.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Reference mode: arbitrate every component at every step.
    #[default]
    Accurate,
    /// Sampled simulation: detailed windows + extrapolated warming.
    Sampled {
        /// Instructions functionally warmed (skipped in detail) between
        /// detailed windows.
        warm_interval: u64,
        /// Instructions simulated in full detail per window.
        detail_window: u64,
    },
}

impl ExecMode {
    /// The sampled mode with the default window geometry
    /// ([`DEFAULT_WARM_INTERVAL`] / [`DEFAULT_DETAIL_WINDOW`]).
    #[must_use]
    pub fn sampled_default() -> ExecMode {
        ExecMode::Sampled {
            warm_interval: DEFAULT_WARM_INTERVAL,
            detail_window: DEFAULT_DETAIL_WINDOW,
        }
    }

    /// Parses a mode name as accepted by `--mode` and the serve schema:
    /// `accurate`, `sampled` (default geometry), or `sampled:WARM:DETAIL`
    /// with explicit instruction counts.
    ///
    /// # Errors
    ///
    /// Returns a one-line diagnostic for unknown names or malformed
    /// `sampled:` geometry (both counts must be positive integers).
    pub fn parse(text: &str) -> Result<ExecMode, String> {
        match text {
            "accurate" => return Ok(ExecMode::Accurate),
            "sampled" => return Ok(ExecMode::sampled_default()),
            _ => {}
        }
        if let Some(rest) = text.strip_prefix("sampled:") {
            let mut parts = rest.splitn(2, ':');
            let warm = parts.next().unwrap_or("");
            let detail = parts.next().ok_or_else(|| {
                format!("mode {text:?} is missing the detail window (sampled:WARM:DETAIL)")
            })?;
            let warm_interval: u64 = warm
                .parse()
                .map_err(|_| format!("bad warm interval {warm:?} in mode {text:?}"))?;
            let detail_window: u64 = detail
                .parse()
                .map_err(|_| format!("bad detail window {detail:?} in mode {text:?}"))?;
            if warm_interval == 0 || detail_window == 0 {
                return Err(format!("mode {text:?}: window sizes must be positive"));
            }
            return Ok(ExecMode::Sampled {
                warm_interval,
                detail_window,
            });
        }
        Err(format!(
            "unknown mode {text:?} (accurate|sampled[:WARM:DETAIL])"
        ))
    }

    /// Canonical machine-readable label, parseable by [`ExecMode::parse`].
    #[must_use]
    pub fn label(&self) -> String {
        match *self {
            ExecMode::Accurate => "accurate".to_owned(),
            ExecMode::Sampled {
                warm_interval,
                detail_window,
            } => format!("sampled:{warm_interval}:{detail_window}"),
        }
    }

    /// The cache-key component for this mode: `None` for
    /// [`ExecMode::Accurate`] (preserving every pre-mode cache key and
    /// serialized record byte-for-byte), the label otherwise.
    #[must_use]
    pub fn cache_tag(&self) -> Option<String> {
        match self {
            ExecMode::Accurate => None,
            other => Some(other.label()),
        }
    }
}

impl std::fmt::Display for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_canonical_and_alias_names() {
        assert_eq!(ExecMode::parse("accurate"), Ok(ExecMode::Accurate));
        assert_eq!(ExecMode::parse("sampled"), Ok(ExecMode::sampled_default()));
        assert_eq!(
            ExecMode::parse("sampled:1000:100"),
            Ok(ExecMode::Sampled {
                warm_interval: 1000,
                detail_window: 100,
            })
        );
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
        ] {
            assert!(ExecMode::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn labels_round_trip_through_parse() {
        for mode in [
            ExecMode::Accurate,
            ExecMode::sampled_default(),
            ExecMode::Sampled {
                warm_interval: 9,
                detail_window: 3,
            },
        ] {
            assert_eq!(ExecMode::parse(&mode.label()), Ok(mode));
        }
    }

    #[test]
    fn only_accurate_has_no_cache_tag() {
        assert_eq!(ExecMode::Accurate.cache_tag(), None);
        assert_eq!(
            ExecMode::sampled_default().cache_tag().as_deref(),
            Some("sampled:1536:512")
        );
    }
}
