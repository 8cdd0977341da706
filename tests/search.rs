//! End-to-end tests of the guided design-space search: fixed-seed
//! reproducibility (byte-identical JSON), frontier exactness against
//! brute force, warm-cache restarts issuing zero simulator executions,
//! the budget contract — the reference frontier point is reached in at
//! most a quarter of the exhaustive sweep's simulator executions — and
//! successive halving's edge over the seeded random baseline.

use hetmem::cli::{parse_args, Command};
use hetmem_search::{
    dominates, run_search, Objective, SearchConfig, SearchOptions, SearchResult, SearchSpace,
    Strategy,
};
use std::path::PathBuf;

fn tiny_space() -> SearchSpace {
    let mut space = SearchSpace::full(512);
    space.kernels.truncate(2);
    space
}

fn config(strategy: Strategy, budget: usize, seed: u64) -> SearchConfig {
    SearchConfig {
        space: tiny_space(),
        objectives: Objective::ALL.to_vec(),
        strategy,
        budget,
        seed,
        mode: hetmem::sim::ExecMode::Accurate,
    }
}

fn temp_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hetmem-search-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---------- fixed-seed trajectory snapshot ----------

#[test]
fn same_seed_renders_byte_identical_json_and_seeds_diverge() {
    let cfg = config(Strategy::Random, 8, 7);
    let a = run_search(&cfg, SearchOptions::with_workers(1)).expect("search");
    let b = run_search(&cfg, SearchOptions::with_workers(4)).expect("search");
    assert_eq!(
        a.to_json().render(),
        b.to_json().render(),
        "same seed + same spec must be byte-identical, any worker count"
    );

    let other = run_search(
        &config(Strategy::Random, 8, 8),
        SearchOptions::with_workers(1),
    )
    .expect("search");
    let visited_a: Vec<usize> = a.evals.iter().map(|e| e.candidate).collect();
    let visited_other: Vec<usize> = other.evals.iter().map(|e| e.candidate).collect();
    assert_ne!(
        visited_a, visited_other,
        "different seeds must explore in a different order"
    );
}

#[test]
fn cli_search_output_is_reproducible() {
    let run = |seed: &str| {
        std::process::Command::new(env!("CARGO_BIN_EXE_hetmem"))
            .args([
                "search", "--budget", "13", "--seed", seed, "--scale", "512", "--format", "json",
            ])
            .output()
            .expect("search runs")
    };
    let first = run("7");
    let second = run("7");
    assert!(
        first.status.success(),
        "{}",
        String::from_utf8_lossy(&first.stderr)
    );
    assert_eq!(
        first.stdout, second.stdout,
        "CLI search must render identical bytes for identical invocations"
    );
    let text = String::from_utf8_lossy(&first.stdout).into_owned();
    assert!(text.contains("\"frontier\""), "{text}");
    // Execution stats stay on stderr, never in the deterministic body.
    assert!(!text.contains("cache_hits"), "{text}");
    assert!(String::from_utf8_lossy(&first.stderr).contains("search:"));
}

// ---------- frontier exactness ----------

#[test]
fn exhausted_search_finds_the_brute_force_frontier() {
    for strategy in Strategy::ALL {
        let cfg = config(strategy, usize::MAX, 3);
        let result = run_search(&cfg, SearchOptions::with_workers(2)).expect("search");
        assert_eq!(
            result.evals.len(),
            cfg.space.len(),
            "{strategy:?} must cover the whole space under an unlimited budget"
        );

        // Brute force: a candidate is Pareto-optimal iff no other
        // evaluated point dominates it.
        let mut expected: Vec<usize> = Vec::new();
        for (i, e) in result.evals.iter().enumerate() {
            let dominated = result
                .evals
                .iter()
                .enumerate()
                .any(|(j, o)| j != i && dominates(&o.values, &e.values));
            if !dominated {
                expected.push(e.candidate);
            }
        }
        let mut found: Vec<usize> = result
            .frontier
            .iter()
            .map(|&i| result.evals[i].candidate)
            .collect();
        expected.sort_unstable();
        found.sort_unstable();
        assert_eq!(found, expected, "{strategy:?} frontier must be exact");
    }
}

// ---------- warm cache ----------

#[test]
fn warm_rerun_issues_zero_simulator_executions_and_identical_bytes() {
    let dir = temp_cache("warm");
    let cfg = config(Strategy::Halving, 8, 7);
    let opts = |dir: &PathBuf| SearchOptions {
        workers: 2,
        cache_dir: Some(dir.clone()),
        ..SearchOptions::default()
    };

    let cold = run_search(&cfg, opts(&dir)).expect("cold search");
    assert_eq!(
        cold.stats.live_executions, cold.stats.jobs_submitted as u64,
        "a cold cache simulates every submitted job"
    );

    let warm = run_search(&cfg, opts(&dir)).expect("warm search");
    assert_eq!(
        warm.stats.live_executions, 0,
        "a warm re-run must issue zero new simulator executions"
    );
    assert_eq!(warm.stats.cache_hits, warm.stats.jobs_submitted as u64);
    assert_eq!(
        cold.stats.jobs_submitted, warm.stats.jobs_submitted,
        "budget counts submissions, so cache state must not move the trajectory"
    );
    assert_eq!(
        cold.to_json().render(),
        warm.to_json().render(),
        "cold and warm runs must render identical bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------- the budget contract ----------

/// The acceptance bar: guided search reaches a reference frontier point
/// (CPU+GPU, the unique hardware-cost minimum of the space, so it sits on
/// the true frontier of ANY evaluated subset containing it) within 25% of
/// the exhaustive sweep's simulator executions — proven by the driver's
/// own execution counters against a cold cache.
#[test]
fn quarter_budget_reaches_a_true_frontier_point() {
    let dir = temp_cache("budget");
    let space = SearchSpace::full(512);
    let exhaustive = space.exhaustive_jobs();
    let cfg = SearchConfig {
        budget: exhaustive / 4,
        space,
        objectives: Objective::ALL.to_vec(),
        strategy: Strategy::Halving,
        seed: 7,
        mode: hetmem::sim::ExecMode::Accurate,
    };
    let opts = SearchOptions {
        workers: 2,
        cache_dir: Some(dir.clone()),
        ..SearchOptions::default()
    };
    let result = run_search(&cfg, opts).expect("search");

    assert!(
        result.stats.jobs_submitted * 4 <= exhaustive,
        "{} jobs submitted exceeds a quarter of the {exhaustive}-job sweep",
        result.stats.jobs_submitted
    );
    assert_eq!(
        result.stats.live_executions, result.stats.jobs_submitted as u64,
        "cold-cache counters prove every submission actually executed"
    );
    let frontier: Vec<&str> = result
        .frontier
        .iter()
        .map(|&i| result.evals[i].label.as_str())
        .collect();
    assert!(
        frontier.contains(&"CPU+GPU@512"),
        "the reference frontier point must be found within budget: {frontier:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------- halving pays for itself ----------

/// The space `hetmem search --scale 256,512` explores: 9 targets at two
/// scales, 18 candidates, 108 exhaustive jobs.
fn two_rung_config() -> SearchConfig {
    let argv: Vec<String> = ["search", "--scale", "256,512"]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
    match parse_args(&argv) {
        Ok(Command::Search { config, .. }) => config,
        other => panic!("search must parse: {other:?}"),
    }
}

/// At budgets of a quarter and a half of the exhaustive sweep,
/// successive halving evaluates more points of the true Pareto frontier
/// than the seeded random baseline does under ANY of seeds 0-9. Every
/// run shares one cache, which the exhaustive pass fills first.
#[test]
fn halving_beats_every_random_seed_on_true_frontier_hits() {
    let dir = temp_cache("edge");
    let run = |strategy: Strategy, budget: usize, seed: u64| {
        let cfg = SearchConfig {
            strategy,
            budget,
            seed,
            ..two_rung_config()
        };
        let opts = SearchOptions {
            workers: 2,
            cache_dir: Some(dir.clone()),
            ..SearchOptions::default()
        };
        run_search(&cfg, opts).expect("search")
    };

    let exhaustive = run(Strategy::Random, usize::MAX, 0);
    assert_eq!(exhaustive.evals.len(), 18);
    let truth: Vec<usize> = exhaustive
        .frontier
        .iter()
        .map(|&i| exhaustive.evals[i].candidate)
        .collect();
    // A true-frontier point is non-dominated in every evaluated subset
    // that contains it, so evaluating it is finding it.
    let hits = |r: &SearchResult| {
        r.evals
            .iter()
            .filter(|e| truth.contains(&e.candidate))
            .count()
    };

    for budget in [27, 54] {
        let halving = hits(&run(Strategy::Halving, budget, 0));
        let random: Vec<usize> = (0..10)
            .map(|seed| hits(&run(Strategy::Random, budget, seed)))
            .collect();
        let best_random = random.iter().copied().max().unwrap_or(0);
        assert!(
            halving > best_random,
            "budget {budget}: halving found {halving}, random up to {best_random} ({random:?})"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
