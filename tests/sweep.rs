//! Integration tests of the sweep engine through the `hetmem::xplore`
//! facade: determinism across worker counts and cache round-trips at the
//! library level (the CLI-level twins live in `tests/cli.rs`).

use hetmem::core::experiment::ExperimentConfig;
use hetmem::xplore::{run_sweep, OutputFormat, SweepOptions, SweepSpec};

const SCALE: u32 = 512;

#[test]
fn worker_count_never_changes_rendered_output() {
    let spec = SweepSpec::full(SCALE);
    let config = ExperimentConfig::paper();
    let serial = run_sweep(&spec, &config, &SweepOptions::with_workers(1)).expect("serial sweep");
    let threaded =
        run_sweep(&spec, &config, &SweepOptions::with_workers(8)).expect("threaded sweep");
    for format in [OutputFormat::Json, OutputFormat::Csv, OutputFormat::Table] {
        assert_eq!(
            format.render(&serial.records),
            format.render(&threaded.records),
            "{format:?} output must not depend on --jobs"
        );
    }
    assert_eq!(serial.stats.cache_misses, serial.records.len() as u64);
}

#[test]
fn warm_cache_answers_every_job_with_identical_records() {
    let dir = std::env::temp_dir().join(format!("hetmem-sweep-test-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let spec = SweepSpec::full(SCALE);
    let config = ExperimentConfig::paper();
    let opts = SweepOptions {
        workers: 4,
        cache_dir: Some(dir.clone()),
        ..SweepOptions::default()
    };
    let cold = run_sweep(&spec, &config, &opts).expect("cold sweep");
    assert_eq!(cold.stats.cache_hits, 0);
    assert_eq!(cold.stats.cache_misses, cold.records.len() as u64);

    let warm = run_sweep(&spec, &config, &opts).expect("warm sweep");
    assert_eq!(warm.stats.cache_hits, warm.records.len() as u64);
    assert_eq!(warm.stats.cache_misses, 0);
    assert_eq!(cold.records, warm.records);
    assert_eq!(
        OutputFormat::Json.render(&cold.records),
        OutputFormat::Json.render(&warm.records),
        "warm JSON must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scale_axis_multiplies_the_grid() {
    let spec = SweepSpec {
        scales: vec![SCALE, SCALE * 2],
        ..SweepSpec::full(SCALE)
    };
    let config = ExperimentConfig::paper();
    let out = run_sweep(&spec, &config, &SweepOptions::default()).expect("sweep");
    assert_eq!(out.records.len(), 2 * 6 * 9);
    // Records come back sorted by ordinal regardless of completion order.
    let ids: Vec<u64> = out.records.iter().map(|r| r.id).collect();
    assert_eq!(ids, (0..out.records.len() as u64).collect::<Vec<_>>());
}
