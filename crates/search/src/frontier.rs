//! The evaluated-systems frontier table. Dominance itself lives in
//! [`hetmem_core::metrics`] ([`dominates`](crate::dominates) and
//! [`pareto_indices`](crate::pareto_indices), re-exported by this crate),
//! so the search driver, the `pareto_frontier` example and the bench
//! study all filter through one implementation.

use hetmem_core::report::TextTable;
use hetmem_core::{pareto_frontier, Evaluation};

/// Renders the evaluated-systems frontier as the shared text table the
/// `pareto_frontier` example and `hetmem study pareto` both print
/// (perf in µs at the simulator's 42 GHz tick rate, hardware-cost score,
/// Table V burden, and a frontier marker).
#[must_use]
pub fn system_frontier_table(evals: &[Evaluation]) -> String {
    let frontier = pareto_frontier(evals);
    let mut table = TextTable::new(&[
        "system",
        "perf geomean (µs)",
        "hw cost",
        "programmer burden (LoC)",
        "Pareto-optimal",
    ]);
    for (i, e) in evals.iter().enumerate() {
        table.row(vec![
            e.system.name().to_owned(),
            format!("{:.1}", e.perf_ticks / 42_000.0),
            e.hardware_cost.to_string(),
            format!("{:.1}", e.programmer_burden),
            if frontier.contains(&i) { "yes" } else { "" }.to_owned(),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetmem_core::experiment::ExperimentConfig;
    use hetmem_core::{evaluate_systems, EvaluatedSystem};
    use hetmem_xplore::{run_case_studies, SweepOptions};

    #[test]
    fn table_marks_the_cheapest_system() {
        let config = ExperimentConfig::paper();
        let (runs, _) =
            run_case_studies(256, &config, &SweepOptions::default()).expect("grid runs");
        let evals = evaluate_systems(&runs);
        let table = system_frontier_table(&evals);
        // CUDA has the unique minimum hardware cost, so it is always
        // Pareto-optimal and its row carries the marker.
        let cuda_row = table
            .lines()
            .find(|l| l.contains(EvaluatedSystem::CpuGpuCuda.name()))
            .expect("row present");
        assert!(cuda_row.contains("yes"), "{table}");
    }
}
