//! Efficiency metrics and the Pareto frontier over the five evaluated
//! systems — the paper's stated future work (§VII), implemented.
//!
//! The frontier extraction and table rendering live in `hetmem-search`
//! ([`hetmem_search::system_frontier_table`]), the same engine the
//! guided `hetmem search` subcommand uses; this example is a thin caller.
//!
//! Run with `cargo run --release --example pareto_frontier`.

use hetmem::core::evaluate_systems;
use hetmem::core::experiment::ExperimentConfig;
use hetmem::xplore::{run_case_studies, SweepOptions};
use hetmem_search::system_frontier_table;

fn main() {
    // Scale 16 keeps the example quick; the shape is scale-stable.
    let config = ExperimentConfig::paper();
    let (runs, _) = run_case_studies(16, &config, &SweepOptions::default()).expect("grid runs");
    let evals = evaluate_systems(&runs);
    println!("{}", system_frontier_table(&evals));

    println!("Axes: lower is better everywhere. A system is Pareto-optimal when no");
    println!("other system is at least as good on performance, hardware cost, AND");
    println!("programmability at once. The partially shared and ADSM systems trade a");
    println!("little performance and modest hardware for most of the unified space's");
    println!("programmability — the quantitative form of the paper's conclusion.");
}
