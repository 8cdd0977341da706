//! The search driver: a budgeted evaluate–update loop over the cached
//! sweep engine.
//!
//! Each round the strategy proposes a batch of candidates, the driver
//! expands them into sweep jobs and runs them through
//! [`hetmem_xplore::run_jobs`] (so the content-addressed cache serves warm
//! restarts for free), scores the records on the requested objectives, and
//! recomputes the Pareto frontier. The budget counts jobs *submitted* —
//! what a cold run would simulate — not cache misses, so a warm cache
//! changes wall-clock but never the trajectory: same seed + same spec ⇒
//! byte-identical [`SearchResult::to_json`].

use crate::objective::Objective;
use crate::space::SearchSpace;
use crate::strategy::{SearchState, Strategy};
use crate::{pareto_indices, Json};
use hetmem_core::experiment::ExperimentConfig;
use hetmem_core::report::TextTable;
use hetmem_core::{hardware_cost, programmer_burden};
use hetmem_dsl::kernel_overhead;
use hetmem_sim::{ExecMode, SimError};
use hetmem_xplore::{run_jobs, Job, JobDispatcher, SweepOptions, SweepRecord};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// What to search: the space, the axes to minimize, the strategy, and the
/// reproducibility knobs.
#[derive(Clone, Debug, PartialEq)]
pub struct SearchConfig {
    /// The candidate space.
    pub space: SearchSpace,
    /// Objectives to minimize, in report order.
    pub objectives: Vec<Objective>,
    /// The black-box strategy proposing batches.
    pub strategy: Strategy,
    /// Maximum simulator jobs to submit (cold-run equivalents). Clamped
    /// up so at least one candidate is always evaluated.
    pub budget: usize,
    /// PRNG seed; the whole trajectory is a pure function of
    /// (seed, space, objectives, strategy, budget, mode).
    pub seed: u64,
    /// Execution mode for every candidate evaluation. Part of the config —
    /// not [`SearchOptions`] — because sampled scores steer the optimizer,
    /// so the mode is part of the trajectory's identity.
    pub mode: ExecMode,
}

/// Live progress handed to [`SearchOptions::on_round`] after every round.
#[derive(Clone, Debug)]
pub struct SearchProgress {
    /// Rounds completed so far.
    pub round: usize,
    /// Candidates evaluated so far.
    pub evaluations: usize,
    /// Jobs submitted so far.
    pub jobs_submitted: usize,
    /// Labels of the current frontier, in evaluation order.
    pub frontier: Vec<String>,
}

/// Per-round progress callback, invoked with the frontier-so-far.
pub type ProgressHook = Box<dyn FnMut(&SearchProgress) + Send>;

/// Execution knobs (nothing here may influence the trajectory).
#[derive(Default)]
pub struct SearchOptions {
    /// Worker threads per batch; `0` uses the host's parallelism.
    pub workers: usize,
    /// Sweep cache directory; `None` disables memoization.
    pub cache_dir: Option<PathBuf>,
    /// Cooperative cancellation (checked between jobs, like the sweep's).
    pub cancel: Option<Arc<AtomicBool>>,
    /// Called after every round with frontier-so-far progress.
    pub on_round: Option<ProgressHook>,
    /// Remote execution for each round's job batch (a cluster,
    /// typically); `None` runs every job locally. Execution placement
    /// never touches the trajectory: records land in ordinal order
    /// wherever they ran, so scores — and therefore the whole search —
    /// stay byte-stable.
    pub dispatcher: Option<Arc<dyn JobDispatcher>>,
}

impl SearchOptions {
    /// Options with `n` workers and no cache.
    #[must_use]
    pub fn with_workers(n: usize) -> SearchOptions {
        SearchOptions {
            workers: n,
            ..SearchOptions::default()
        }
    }
}

/// One evaluated candidate.
#[derive(Clone, Debug, PartialEq)]
pub struct CandidateEval {
    /// Index into the search space.
    pub candidate: usize,
    /// `target@scale` label.
    pub label: String,
    /// Target display name.
    pub target: String,
    /// Trace scale divisor.
    pub scale: u32,
    /// Objective values, aligned with [`SearchConfig::objectives`].
    pub values: Vec<f64>,
}

/// One round of the trajectory.
#[derive(Clone, Debug, PartialEq)]
pub struct RoundLog {
    /// Round ordinal, from zero.
    pub round: usize,
    /// Candidate indices evaluated this round, in proposal order.
    pub evaluated: Vec<usize>,
    /// Jobs this round submitted.
    pub jobs: usize,
    /// Candidate indices on the frontier after this round, in evaluation
    /// order.
    pub frontier: Vec<usize>,
}

/// Execution counters (deliberately excluded from [`SearchResult::to_json`]
/// — cache hits differ between cold and warm runs, and the JSON output is
/// pinned byte-identical).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Rounds run.
    pub rounds: usize,
    /// Candidates evaluated.
    pub evaluations: usize,
    /// Jobs submitted (cold-run equivalents) — the budget currency.
    pub jobs_submitted: usize,
    /// Jobs answered by the sweep cache.
    pub cache_hits: u64,
    /// Jobs computed live: simulated, or replayed from another job of
    /// the same (kernel, scale) in their batch.
    pub live_executions: u64,
    /// Live jobs whose compute was replayed rather than simulated, so
    /// `live_executions - replayed` counts the simulations run.
    pub replayed: u64,
    /// The configured budget.
    pub budget: usize,
    /// Jobs an exhaustive sweep of the space would submit.
    pub exhaustive_jobs: usize,
}

impl std::fmt::Display for SearchStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} candidates in {} rounds, {} of {} exhaustive jobs submitted \
             ({} cache hits, {} live, {} replayed), budget {}",
            self.evaluations,
            self.rounds,
            self.jobs_submitted,
            self.exhaustive_jobs,
            self.cache_hits,
            self.live_executions,
            self.replayed,
            self.budget
        )
    }
}

/// A finished search.
#[derive(Debug)]
pub struct SearchResult {
    /// The configuration that produced it.
    pub config: SearchConfig,
    /// Every evaluated candidate, in evaluation order.
    pub evals: Vec<CandidateEval>,
    /// The per-round trajectory.
    pub trajectory: Vec<RoundLog>,
    /// Indices into [`SearchResult::evals`] on the final Pareto frontier,
    /// in evaluation order.
    pub frontier: Vec<usize>,
    /// Execution counters (never serialized into the deterministic JSON).
    pub stats: SearchStats,
}

/// Scores one candidate's sweep records on `objectives`. Records must be
/// the candidate's kernels in expansion order.
#[must_use]
pub fn score(
    space: &SearchSpace,
    candidate: usize,
    records: &[SweepRecord],
    objectives: &[Objective],
) -> Vec<f64> {
    let n = records.len().max(1) as f64;
    objectives
        .iter()
        .map(|&objective| match objective {
            Objective::Cycles => {
                // Geometric mean of total ticks, matching the core metric.
                let sum_ln: f64 = records
                    .iter()
                    .map(|r| (r.report.total_ticks() as f64).ln())
                    .sum();
                (sum_ln / n).exp()
            }
            Objective::Energy => {
                // Communication + DRAM bus traffic, straight from the
                // cached report — no re-simulation on warm restarts.
                let sum: u64 = records
                    .iter()
                    .map(|r| r.report.communication_ticks + r.report.hierarchy.dram.bus_busy_ticks)
                    .sum();
                sum as f64 / n
            }
            Objective::Loc => {
                let model = space.target(candidate).address_space();
                let sum: f64 = space
                    .kernels
                    .iter()
                    .map(|k| {
                        kernel_overhead(k.name(), model)
                            .map_or_else(|| programmer_burden(model), f64::from)
                    })
                    .sum();
                sum / space.kernels.len().max(1) as f64
            }
            Objective::Hw => f64::from(hardware_cost(&space.target(candidate).design_point())),
            Objective::Saved => {
                // Residual redundancy: communication lines the fix pass
                // can still prove removable from the canonical lowering.
                // Zero means the model's lowering is already minimal.
                let model = space.target(candidate).address_space();
                let sum: f64 = space
                    .kernels
                    .iter()
                    .map(|k| {
                        hetmem_dsl::programs::find(k.name())
                            .map_or(0.0, |p| f64::from(hetmem_dsl::fix(&p, model).lines_saved()))
                    })
                    .sum();
                sum / space.kernels.len().max(1) as f64
            }
        })
        .collect()
}

/// Runs a guided search to completion (budget exhausted or strategy done).
///
/// # Errors
///
/// Returns [`SimError`] when the cache directory cannot be opened, a
/// simulation fails, or the search is cancelled.
///
/// # Panics
///
/// Panics if the search space has no kernels or no candidates.
pub fn run_search(
    config: &SearchConfig,
    mut opts: SearchOptions,
) -> Result<SearchResult, SimError> {
    let space = &config.space;
    assert!(
        !space.is_empty() && !space.kernels.is_empty(),
        "search space must have candidates and kernels"
    );
    let cost = space.jobs_per_candidate();
    let sim_config = ExperimentConfig::paper();
    let mut optimizer = config.strategy.build(config.seed, space);

    let mut evaluated: Vec<Option<Vec<f64>>> = vec![None; space.len()];
    let mut evals: Vec<CandidateEval> = Vec::new();
    let mut trajectory: Vec<RoundLog> = Vec::new();
    let mut stats = SearchStats {
        budget: config.budget,
        exhaustive_jobs: space.exhaustive_jobs(),
        ..SearchStats::default()
    };

    loop {
        let remaining = config.budget.saturating_sub(stats.jobs_submitted);
        let mut max_candidates = remaining / cost;
        if max_candidates == 0 {
            // Always evaluate at least one candidate, even under a budget
            // smaller than one evaluation — an empty search answers
            // nothing.
            if evals.is_empty() {
                max_candidates = 1;
            } else {
                break;
            }
        }
        let batch = {
            let state = SearchState {
                space,
                evaluated: &evaluated,
            };
            optimizer.propose(&state, max_candidates)
        };
        let batch: Vec<usize> = batch
            .into_iter()
            .filter(|&c| evaluated[c].is_none())
            .take(max_candidates)
            .collect();
        if batch.is_empty() {
            break;
        }

        let mut jobs: Vec<Job> = Vec::with_capacity(batch.len() * cost);
        for &candidate in &batch {
            jobs.extend(space.jobs_for(candidate, jobs.len() as u64));
        }
        let sweep_opts = SweepOptions::builder()
            .workers(opts.workers)
            .cache_dir(opts.cache_dir.clone())
            .cancel(opts.cancel.clone())
            .mode(config.mode)
            .dispatcher(opts.dispatcher.clone())
            .build();
        let out = run_jobs(&jobs, &sim_config, &sweep_opts)?;
        stats.jobs_submitted += jobs.len();
        stats.cache_hits += out.stats.cache_hits;
        stats.live_executions += out.stats.cache_misses;
        stats.replayed += out.stats.replayed;

        for (i, &candidate) in batch.iter().enumerate() {
            let records = &out.records[i * cost..(i + 1) * cost];
            let values = score(space, candidate, records, &config.objectives);
            evaluated[candidate] = Some(values.clone());
            evals.push(CandidateEval {
                candidate,
                label: space.label(candidate),
                target: space.target(candidate).target_name().to_owned(),
                scale: space.scale(candidate),
                values,
            });
        }
        stats.evaluations = evals.len();

        let points: Vec<Vec<f64>> = evals.iter().map(|e| e.values.clone()).collect();
        let frontier_evals = pareto_indices(&points);
        let frontier_candidates: Vec<usize> =
            frontier_evals.iter().map(|&i| evals[i].candidate).collect();
        trajectory.push(RoundLog {
            round: stats.rounds,
            evaluated: batch,
            jobs: jobs.len(),
            frontier: frontier_candidates.clone(),
        });
        stats.rounds += 1;

        if let Some(on_round) = opts.on_round.as_mut() {
            on_round(&SearchProgress {
                round: stats.rounds,
                evaluations: evals.len(),
                jobs_submitted: stats.jobs_submitted,
                frontier: frontier_candidates
                    .iter()
                    .map(|&c| space.label(c))
                    .collect(),
            });
        }
    }

    let points: Vec<Vec<f64>> = evals.iter().map(|e| e.values.clone()).collect();
    let frontier = pareto_indices(&points);
    Ok(SearchResult {
        config: config.clone(),
        evals,
        trajectory,
        frontier,
        stats,
    })
}

impl SearchResult {
    fn objective_obj(&self, values: &[f64]) -> Json {
        Json::Obj(
            self.config
                .objectives
                .iter()
                .zip(values)
                .map(|(o, &v)| (o.name().to_owned(), Json::Float(v)))
                .collect(),
        )
    }

    fn eval_obj(&self, eval: &CandidateEval) -> Json {
        Json::obj(vec![
            ("candidate", Json::Str(eval.label.clone())),
            ("target", Json::Str(eval.target.clone())),
            ("scale", Json::UInt(u64::from(eval.scale))),
            ("objectives", self.objective_obj(&eval.values)),
        ])
    }

    /// The deterministic report: same seed + same spec ⇒ byte-identical
    /// output, cold or warm cache. Execution counters live in
    /// [`SearchResult::stats`] and are deliberately absent here.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let space = &self.config.space;
        let mut search_pairs = vec![
            (
                "strategy",
                Json::Str(self.config.strategy.name().to_owned()),
            ),
            ("seed", Json::UInt(self.config.seed)),
            ("budget", Json::UInt(self.config.budget as u64)),
            (
                "objectives",
                Json::Arr(
                    self.config
                        .objectives
                        .iter()
                        .map(|o| Json::Str(o.name().to_owned()))
                        .collect(),
                ),
            ),
        ];
        // Accurate reports stay byte-identical to pre-mode reports.
        if self.config.mode != ExecMode::Accurate {
            search_pairs.push(("mode", Json::Str(self.config.mode.label().to_owned())));
        }
        let search = Json::obj(search_pairs);
        let space_obj = Json::obj(vec![
            (
                "kernels",
                Json::Arr(
                    space
                        .kernels
                        .iter()
                        .map(|k| Json::Str(k.name().to_owned()))
                        .collect(),
                ),
            ),
            (
                "targets",
                Json::Arr(
                    space
                        .targets
                        .iter()
                        .map(|t| Json::Str(t.target_name().to_owned()))
                        .collect(),
                ),
            ),
            (
                "scales",
                Json::Arr(
                    space
                        .scales
                        .iter()
                        .map(|&s| Json::UInt(u64::from(s)))
                        .collect(),
                ),
            ),
            ("candidates", Json::UInt(space.len() as u64)),
            (
                "exhaustive_jobs",
                Json::UInt(space.exhaustive_jobs() as u64),
            ),
        ]);
        let trajectory = Json::Arr(
            self.trajectory
                .iter()
                .map(|r| {
                    Json::obj(vec![
                        ("round", Json::UInt(r.round as u64)),
                        (
                            "evaluated",
                            Json::Arr(
                                r.evaluated
                                    .iter()
                                    .map(|&c| Json::Str(space.label(c)))
                                    .collect(),
                            ),
                        ),
                        ("jobs", Json::UInt(r.jobs as u64)),
                        (
                            "frontier",
                            Json::Arr(
                                r.frontier
                                    .iter()
                                    .map(|&c| Json::Str(space.label(c)))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        Json::obj(vec![
            ("search", search),
            ("space", space_obj),
            (
                "evaluations",
                Json::Arr(self.evals.iter().map(|e| self.eval_obj(e)).collect()),
            ),
            ("trajectory", trajectory),
            (
                "frontier",
                Json::Arr(
                    self.frontier
                        .iter()
                        .map(|&i| self.eval_obj(&self.evals[i]))
                        .collect(),
                ),
            ),
        ])
    }

    /// A human-readable table of every evaluated candidate with frontier
    /// markers.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut headers: Vec<&str> = vec!["candidate"];
        headers.extend(self.config.objectives.iter().map(|o| o.name()));
        headers.push("Pareto-optimal");
        let mut table = TextTable::new(&headers);
        for (i, eval) in self.evals.iter().enumerate() {
            let mut row = vec![eval.label.clone()];
            row.extend(eval.values.iter().map(|v| format!("{v:.1}")));
            row.push(
                if self.frontier.contains(&i) {
                    "yes"
                } else {
                    ""
                }
                .to_owned(),
            );
            table.row(row);
        }
        table.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(strategy: Strategy, budget: usize) -> SearchConfig {
        let mut space = SearchSpace::full(512);
        space.kernels.truncate(2);
        SearchConfig {
            space,
            objectives: Objective::ALL.to_vec(),
            strategy,
            budget,
            seed: 7,
            mode: ExecMode::Accurate,
        }
    }

    #[test]
    fn full_budget_evaluates_everything_once() {
        let config = tiny_config(Strategy::Random, usize::MAX);
        let result = run_search(&config, SearchOptions::with_workers(2)).expect("search");
        assert_eq!(result.evals.len(), config.space.len());
        assert_eq!(result.stats.jobs_submitted, config.space.exhaustive_jobs());
        let mut seen: Vec<usize> = result.evals.iter().map(|e| e.candidate).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), config.space.len(), "no candidate repeats");
    }

    #[test]
    fn budget_bounds_submitted_jobs() {
        let config = tiny_config(Strategy::Halving, 6);
        let result = run_search(&config, SearchOptions::with_workers(2)).expect("search");
        assert!(result.stats.jobs_submitted <= 6);
        assert_eq!(result.evals.len(), 3);
    }

    #[test]
    fn sub_evaluation_budget_still_answers() {
        let config = tiny_config(Strategy::Random, 1);
        let result = run_search(&config, SearchOptions::with_workers(1)).expect("search");
        assert_eq!(result.evals.len(), 1);
        assert_eq!(result.frontier, vec![0]);
    }

    #[test]
    fn json_is_reproducible_and_stats_free() {
        let config = tiny_config(Strategy::Random, 8);
        let a = run_search(&config, SearchOptions::with_workers(1)).expect("search");
        let b = run_search(&config, SearchOptions::with_workers(4)).expect("search");
        let ja = a.to_json().render();
        assert_eq!(ja, b.to_json().render(), "worker count must not matter");
        assert!(
            !ja.contains("cache_hits"),
            "stats must stay out of the JSON"
        );
        assert!(ja.contains("\"frontier\""));
    }

    #[test]
    fn table_marks_frontier_rows() {
        let config = tiny_config(Strategy::Random, usize::MAX);
        let result = run_search(&config, SearchOptions::with_workers(2)).expect("search");
        let table = result.render_table();
        assert!(table.contains("yes"), "{table}");
        assert!(table.contains("CPU+GPU@512"), "{table}");
    }

    #[test]
    fn progress_callback_sees_monotone_rounds() {
        let config = tiny_config(Strategy::Halving, usize::MAX);
        let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = std::sync::Arc::clone(&seen);
        let opts = SearchOptions {
            workers: 2,
            on_round: Some(Box::new(move |p: &SearchProgress| {
                sink.lock().expect("lock").push((p.round, p.frontier.len()));
            })),
            ..SearchOptions::default()
        };
        let result = run_search(&config, opts).expect("search");
        let seen = seen.lock().expect("lock");
        assert_eq!(seen.len(), result.stats.rounds);
        for (i, &(round, frontier)) in seen.iter().enumerate() {
            assert_eq!(round, i + 1);
            assert!(frontier >= 1);
        }
    }
}
