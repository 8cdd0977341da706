//! Run the full paper evaluation grid through the parallel, cached sweep
//! engine — twice — and show that the warm run answers every cell from the
//! on-disk cache with byte-identical output.
//!
//! Run with `cargo run --release --example parallel_sweep`.

use hetmem::core::experiment::ExperimentConfig;
use hetmem::xplore::{run_sweep, OutputFormat, SweepOptions, SweepSpec};

fn main() {
    // Keep the example quick: divide every kernel's input by 64.
    let scale = 64;
    let spec = SweepSpec::full(scale);
    let config = ExperimentConfig::paper();
    let cache = std::env::temp_dir().join("hetmem-parallel-sweep-example");
    let _ = std::fs::remove_dir_all(&cache);
    let opts = SweepOptions {
        workers: 4,
        cache_dir: Some(cache.clone()),
        ..SweepOptions::default()
    };

    println!(
        "Sweeping {} jobs (6 kernels x 5 systems + 6 x 4 spaces)...\n",
        spec.expand().len()
    );

    let cold = run_sweep(&spec, &config, &opts).expect("cold sweep");
    println!("cold: {}", cold.stats);

    let warm = run_sweep(&spec, &config, &opts).expect("warm sweep");
    println!("warm: {}\n", warm.stats);

    let cold_json = OutputFormat::Json.render(&cold.records);
    let warm_json = OutputFormat::Json.render(&warm.records);
    assert_eq!(cold_json, warm_json, "warm output is byte-identical");
    println!(
        "warm JSON is byte-identical to the cold run ({} bytes).\n",
        cold_json.len()
    );

    // Slice the records: communication share per system, averaged over kernels.
    println!("Mean communication share by target:");
    let mut targets: Vec<&str> = Vec::new();
    for r in &cold.records {
        if !targets.contains(&r.target.as_str()) {
            targets.push(&r.target);
        }
    }
    for target in targets {
        let shares: Vec<f64> = cold
            .records
            .iter()
            .filter(|r| r.target == target)
            .map(|r| {
                100.0 * r.report.communication_ticks as f64 / r.report.total_ticks().max(1) as f64
            })
            .collect();
        let mean = shares.iter().sum::<f64>() / shares.len() as f64;
        println!("  {target:<14} {mean:>5.1} %");
    }

    let _ = std::fs::remove_dir_all(&cache);
}
