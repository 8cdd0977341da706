//! Beyond the paper's measurements: the energy side of the design-space
//! comparison (§VII motivates the partially shared space with power/energy
//! opportunities). Estimates per-component energy for every case-study
//! cell.

use hetmem_core::experiment::ExperimentConfig;
use hetmem_core::report::TextTable;
use hetmem_core::{evaluate_energy, EvaluatedSystem};
use hetmem_trace::kernels::Kernel;
use hetmem_trace::TransferDirection;
use hetmem_xplore::{job_trace, run_case_studies, Job, JobKind, SweepOptions};

fn main() {
    let scale = hetmem_bench::scale_arg(1);
    hetmem_bench::section(&format!(
        "Energy study: per-component estimates for the evaluated systems (scale {scale})"
    ));
    let config = ExperimentConfig::scaled(scale);
    let (runs, _) = run_case_studies(&config, &SweepOptions::default()).expect("grid runs");
    // The grid's own traces, still in the engine's trace store.
    let comm_bytes: Vec<(Kernel, u64, u64)> = Kernel::ALL
        .iter()
        .map(|&kernel| {
            let system = EvaluatedSystem::Fusion;
            let kind = JobKind::CaseStudy { system };
            let trace = job_trace(&Job {
                id: 0,
                kernel,
                kind,
                scale,
            });
            let h2d = trace.comm_bytes_in(TransferDirection::HostToDevice);
            (kernel, h2d, trace.comm_bytes())
        })
        .collect();
    let evals = evaluate_energy(&runs, &comm_bytes);
    let mut table = TextTable::new(&[
        "kernel",
        "system",
        "total (µJ)",
        "cores",
        "caches",
        "DRAM",
        "comm",
        "static",
    ]);
    for kernel in Kernel::ALL {
        for system in EvaluatedSystem::ALL {
            if let Some(e) = evals
                .iter()
                .find(|e| e.kernel == kernel && e.system == system)
            {
                let b = &e.breakdown;
                table.row(vec![
                    kernel.name().to_owned(),
                    system.name().to_owned(),
                    format!("{:.1}", b.total_uj()),
                    format!("{:.1}", b.cores_uj),
                    format!("{:.1}", b.caches_uj),
                    format!("{:.1}", b.dram_uj),
                    format!("{:.2}", b.comm_uj),
                    format!("{:.1}", b.static_uj),
                ]);
            }
        }
    }
    println!("{}", table.render());
    println!("Shared-window systems (LRB, GMAC) save link energy by never moving results;");
    println!("Fusion replaces the PCI link's per-byte cost with cheap on-die copies.");
}
