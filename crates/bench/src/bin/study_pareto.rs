//! Beyond the paper: efficiency metrics for the evaluated systems and the
//! resulting Pareto frontier (the paper's §VII future work).
//!
//! The frontier logic is `hetmem-search`'s — this bin only evaluates the
//! systems and prints the shared table.

use hetmem_core::evaluate_systems;
use hetmem_core::experiment::ExperimentConfig;
use hetmem_search::system_frontier_table;
use hetmem_xplore::{run_case_studies, SweepOptions};

fn main() {
    let scale = hetmem_bench::scale_arg(1);
    hetmem_bench::section(&format!(
        "Efficiency metrics & Pareto frontier over the evaluated systems (scale {scale})"
    ));
    let config = ExperimentConfig::scaled(scale);
    let (runs, _) = run_case_studies(&config, &SweepOptions::default()).expect("grid runs");
    let evals = evaluate_systems(&runs);
    println!("{}", system_frontier_table(&evals));
}
