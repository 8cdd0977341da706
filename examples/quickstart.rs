//! Quickstart: simulate one kernel on two systems and compare.
//!
//! Run with `cargo run --release --example quickstart`.

use hetmem::core::experiment::ExperimentConfig;
use hetmem::core::EvaluatedSystem;
use hetmem::trace::kernels::Kernel;
use hetmem::trace::Phase;
use hetmem::xplore::{execute_job, job_trace, Job, JobKind};

fn main() {
    // Use the paper's full-size reduction trace (Table III: 70006 CPU +
    // 70001 GPU parallel instructions, 99996 serial, 320512 B initial
    // transfer).
    let cfg = ExperimentConfig::paper();
    let kernel = Kernel::Reduction;

    println!("kernel: {kernel} ({})\n", kernel.compute_pattern());

    for system in [EvaluatedSystem::CpuGpuCuda, EvaluatedSystem::Fusion] {
        let job = Job {
            id: 0,
            kernel,
            kind: JobKind::CaseStudy { system },
            scale: 1,
        };
        let record = execute_job(&job, &cfg, &job_trace(&job)).expect("simulation runs");
        let r = &record.report;
        println!("{:>12}: {r}", system.name());
        println!(
            "{:>12}  communication alone: {:.1} µs ({:.1}% of total)",
            "",
            r.communication_ns() / 1000.0,
            100.0 * r.phase_fraction(Phase::Communication)
        );
        println!(
            "{:>12}  CPU: {} instructions, {} mispredicts; GPU: {} instructions",
            "", r.cpu.instructions, r.cpu.mispredictions, r.gpu.instructions
        );
        println!(
            "{:>12}  memory: L1D miss rate {:.1}%, DRAM row-hit rate {:.1}%\n",
            "",
            100.0 * r.hierarchy.cpu_l1d.miss_rate(),
            100.0 * r.hierarchy.dram.row_hit_rate()
        );
    }

    println!("Moving the same kernel from PCI-E to an on-chip memory controller removes");
    println!("most of the communication cost — the paper's Figure 5/6 observation.");
}
