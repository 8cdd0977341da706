//! Sweep the whole memory-model design space: enumerate every valid design
//! point, count options per address space, and run a quick performance
//! sweep across the five evaluated systems.
//!
//! Run with `cargo run --release --example design_space_sweep`.

use hetmem::core::experiment::ExperimentConfig;
use hetmem::core::report::render_figure5;
use hetmem::core::{AddressSpace, DesignPoint, LocalityScheme};
use hetmem::xplore::{run_case_studies, SweepOptions};

fn main() {
    // 1. The qualitative design space.
    println!("Valid design points (address space x fabric x locality x coherence):\n");
    for (space, count) in DesignPoint::options_per_space() {
        let locality = LocalityScheme::options_for(space).len();
        println!(
            "  {:<17} {count:>3} design points   ({locality:>2} locality schemes)",
            space.to_string()
        );
    }
    let total = DesignPoint::enumerate().len();
    println!("  {:<17} {total:>3} total\n", "");

    println!("The partially shared space offers the most options — the paper's");
    println!("conclusion 3. A few example points:\n");
    for p in DesignPoint::enumerate()
        .into_iter()
        .filter(|p| p.address_space == AddressSpace::PartiallyShared)
        .take(4)
    {
        println!("  - {p}");
    }

    // 2. A quick quantitative sweep (scale 32 to keep this example fast).
    println!("\nCase-study sweep at scale 32 (use the fig5 harness for full size):\n");
    let config = ExperimentConfig::paper();
    let (runs, _) = run_case_studies(32, &config, &SweepOptions::default()).expect("grid runs");
    println!("{}", render_figure5(&runs));
}
