//! Pluggable black-box search strategies.
//!
//! An [`Optimizer`] proposes the next batch of candidate indices from what
//! has been evaluated so far; the driver executes them through the cached
//! sweep engine and feeds results back. Strategies are pure functions of
//! (seed, space, evaluation history), so a search trajectory is
//! byte-reproducible — no wall-clock, thread order, or host entropy
//! reaches a decision.
//!
//! Two strategies ship:
//!
//! * **random** — the honesty baseline: a seeded shuffle of the candidate
//!   space, consumed in order.
//! * **halving** — successive halving over the scale axis as fidelity
//!   rungs: every target is screened at the cheapest (most-divided) scale,
//!   and only the least-dominated half advances to each costlier rung.
//!   With a single scale it degenerates to a deterministic front-to-back
//!   screen of the target axis.

use crate::dominates;
use crate::rng::SearchRng;
use crate::space::SearchSpace;

/// Which search strategy to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Seeded random order — the baseline.
    Random,
    /// Successive halving over scale rungs.
    Halving,
}

impl Strategy {
    /// Every strategy, in canonical order.
    pub const ALL: [Strategy; 2] = [Strategy::Random, Strategy::Halving];

    /// Canonical lower-case name (the CLI/JSON spelling).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Random => "random",
            Strategy::Halving => "halving",
        }
    }

    /// Parses a strategy name or alias.
    ///
    /// # Errors
    ///
    /// Returns a one-line message listing valid names.
    pub fn parse(s: &str) -> Result<Strategy, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "random" | "rand" => Ok(Strategy::Random),
            "halving" | "sha" | "successive-halving" => Ok(Strategy::Halving),
            other => Err(format!("unknown strategy {other:?} (random|halving)")),
        }
    }

    /// Builds the optimizer implementing this strategy.
    #[must_use]
    pub fn build(self, seed: u64, space: &SearchSpace) -> Box<dyn Optimizer + Send> {
        match self {
            Strategy::Random => Box::new(RandomSearch::new(seed, space)),
            Strategy::Halving => Box::new(SuccessiveHalving::new(space)),
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What an optimizer sees between rounds.
pub struct SearchState<'a> {
    /// The candidate space.
    pub space: &'a SearchSpace,
    /// Per-candidate objective vectors; `None` = not yet evaluated.
    pub evaluated: &'a [Option<Vec<f64>>],
}

impl SearchState<'_> {
    fn is_evaluated(&self, candidate: usize) -> bool {
        self.evaluated[candidate].is_some()
    }
}

/// A black-box search strategy: proposes the next batch of candidate
/// indices (at most `max`, none already evaluated). An empty proposal
/// ends the search.
pub trait Optimizer {
    /// The next candidates to evaluate, in priority order.
    fn propose(&mut self, state: &SearchState<'_>, max: usize) -> Vec<usize>;
}

/// Seeded random order over the whole candidate space.
struct RandomSearch {
    order: Vec<usize>,
    cursor: usize,
}

impl RandomSearch {
    fn new(seed: u64, space: &SearchSpace) -> RandomSearch {
        let mut order: Vec<usize> = (0..space.len()).collect();
        SearchRng::new(seed).shuffle(&mut order);
        RandomSearch { order, cursor: 0 }
    }
}

impl Optimizer for RandomSearch {
    fn propose(&mut self, state: &SearchState<'_>, max: usize) -> Vec<usize> {
        let mut batch = Vec::new();
        while batch.len() < max && self.cursor < self.order.len() {
            let candidate = self.order[self.cursor];
            self.cursor += 1;
            if !state.is_evaluated(candidate) {
                batch.push(candidate);
            }
        }
        batch
    }
}

/// Successive halving: scales ordered cheapest-first (a larger divisor
/// means a smaller trace) form fidelity rungs; each rung keeps the
/// least-dominated half of the targets that survived the previous rung.
struct SuccessiveHalving {
    /// Scale-axis indices, cheapest rung first.
    rungs: Vec<usize>,
    /// Position in `rungs` of the rung currently screening.
    rung: usize,
    /// Target-axis indices still alive, in deterministic order.
    alive: Vec<usize>,
    /// Candidates proposed for the current rung, awaiting results.
    pending: Vec<usize>,
}

impl SuccessiveHalving {
    fn new(space: &SearchSpace) -> SuccessiveHalving {
        let mut rungs: Vec<usize> = (0..space.scales.len()).collect();
        // Cheapest (largest divisor) first; stable tie-break on axis order.
        rungs.sort_by_key(|&i| std::cmp::Reverse(space.scales[i]));
        SuccessiveHalving {
            rungs,
            rung: 0,
            alive: (0..space.targets.len()).collect(),
            pending: Vec::new(),
        }
    }

    /// Ranks the rung cohort: ascending domination count, then
    /// lexicographic objective vector, then target index — a total,
    /// deterministic order.
    fn promote(&mut self, state: &SearchState<'_>) {
        let rung_scale = self.rungs[self.rung];
        let cohort: Vec<(usize, &Vec<f64>)> = self
            .alive
            .iter()
            .filter_map(|&t| {
                let candidate = state.space.index_of(t, rung_scale);
                state.evaluated[candidate].as_ref().map(|v| (t, v))
            })
            .collect();
        let mut ranked: Vec<(usize, usize, &Vec<f64>)> = cohort
            .iter()
            .map(|&(t, v)| {
                let dominated_by = cohort.iter().filter(|&&(_, o)| dominates(o, v)).count();
                (dominated_by, t, v)
            })
            .collect();
        ranked.sort_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| a.2.partial_cmp(b.2).unwrap_or(std::cmp::Ordering::Equal))
                .then_with(|| a.1.cmp(&b.1))
        });
        let keep = ranked.len().div_ceil(2);
        let mut survivors: Vec<usize> = ranked[..keep].iter().map(|&(_, t, _)| t).collect();
        survivors.sort_unstable(); // back to axis order for stable batches
        self.alive = survivors;
        self.rung += 1;
        self.pending.clear();
    }
}

impl Optimizer for SuccessiveHalving {
    fn propose(&mut self, state: &SearchState<'_>, max: usize) -> Vec<usize> {
        loop {
            if self.rung >= self.rungs.len() || self.alive.is_empty() {
                return Vec::new();
            }
            let rung_scale = self.rungs[self.rung];
            let wanted: Vec<usize> = self
                .alive
                .iter()
                .map(|&t| state.space.index_of(t, rung_scale))
                .filter(|&c| !state.is_evaluated(c))
                .collect();
            if wanted.is_empty() {
                // Rung fully screened (this round or by the cache of an
                // earlier search): promote and move on.
                self.promote(state);
                continue;
            }
            return wanted.into_iter().take(max).collect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> SearchSpace {
        let mut s = SearchSpace::full(64);
        s.scales = vec![64, 16];
        s
    }

    fn state<'a>(space: &'a SearchSpace, evaluated: &'a [Option<Vec<f64>>]) -> SearchState<'a> {
        SearchState { space, evaluated }
    }

    #[test]
    fn strategy_names_round_trip() {
        for s in Strategy::ALL {
            assert_eq!(Strategy::parse(s.name()), Ok(s));
        }
        assert_eq!(Strategy::parse("SHA"), Ok(Strategy::Halving));
        assert!(Strategy::parse("bayes").is_err());
        // The deleted evolutionary strategy is unknown under every alias,
        // and the message names the strategies that remain.
        for removed in ["evolve", "evolutionary", "mutate"] {
            let err = Strategy::parse(removed).expect_err(removed);
            assert!(err.contains("random|halving"), "{err}");
        }
    }

    #[test]
    fn random_covers_the_space_without_repeats() {
        let space = space();
        let evaluated = vec![None; space.len()];
        let mut opt = RandomSearch::new(9, &space);
        let mut seen = Vec::new();
        loop {
            let batch = opt.propose(&state(&space, &evaluated), 5);
            if batch.is_empty() {
                break;
            }
            seen.extend(batch);
        }
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), space.len());
    }

    #[test]
    fn halving_screens_cheapest_rung_first_then_halves() {
        let space = space(); // scales [64, 16]: 64 divides more = cheaper
        let mut evaluated: Vec<Option<Vec<f64>>> = vec![None; space.len()];
        let mut opt = SuccessiveHalving::new(&space);

        let first = opt.propose(&state(&space, &evaluated), usize::MAX);
        assert_eq!(first.len(), space.targets.len());
        for &c in &first {
            assert_eq!(space.scale(c), 64, "cheapest rung first");
        }
        // Give target i objective value i: lower index = better.
        for &c in &first {
            let (t, _) = space.coords(c);
            evaluated[c] = Some(vec![t as f64]);
        }
        let second = opt.propose(&state(&space, &evaluated), usize::MAX);
        assert_eq!(second.len(), space.targets.len().div_ceil(2));
        for &c in &second {
            assert_eq!(space.scale(c), 16, "promoted rung is costlier");
            let (t, _) = space.coords(c);
            assert!(t < space.targets.len().div_ceil(2), "best half promoted");
        }
    }

    #[test]
    fn proposals_are_deterministic_per_seed() {
        let space = space();
        let evaluated = vec![None; space.len()];
        for strategy in Strategy::ALL {
            let mut a = strategy.build(5, &space);
            let mut b = strategy.build(5, &space);
            assert_eq!(
                a.propose(&state(&space, &evaluated), 4),
                b.propose(&state(&space, &evaluated), 4),
                "{strategy}"
            );
        }
    }
}
