//! Whole-stack determinism: identical inputs must produce bit-identical
//! traces, simulations, and reports — the property that makes the
//! regenerated tables and figures reproducible.

use hetmem::core::experiment::{run_case_studies, run_case_study, ExperimentConfig};
use hetmem::core::hash::fnv1a;
use hetmem::core::EvaluatedSystem;
use hetmem::dsl::{generate_trace, lower, programs, AddressSpace};
use hetmem::sim::ExecMode;
use hetmem::trace::kernels::{Kernel, KernelParams};
use hetmem::xplore::{run_jobs, to_jsonl, SweepOptions, SweepSpec};

#[test]
fn kernel_generation_is_deterministic() {
    for kernel in Kernel::ALL {
        let a = kernel.generate(&KernelParams::scaled(32));
        let b = kernel.generate(&KernelParams::scaled(32));
        assert_eq!(a, b, "{kernel}");
    }
}

#[test]
fn case_studies_are_deterministic() {
    let cfg = ExperimentConfig::scaled(64);
    let a = run_case_study(EvaluatedSystem::Lrb, Kernel::KMeans, &cfg);
    let b = run_case_study(EvaluatedSystem::Lrb, Kernel::KMeans, &cfg);
    assert_eq!(a.report, b.report);
}

#[test]
fn full_grid_is_deterministic() {
    let cfg = ExperimentConfig::scaled(256);
    let a: Vec<u64> = run_case_studies(&cfg)
        .iter()
        .map(|r| r.report.total_ticks())
        .collect();
    let b: Vec<u64> = run_case_studies(&cfg)
        .iter()
        .map(|r| r.report.total_ticks())
        .collect();
    assert_eq!(a, b);
}

#[test]
fn lowering_and_codegen_are_deterministic() {
    for program in programs::all() {
        for model in AddressSpace::ALL {
            let a = lower(&program, model);
            let b = lower(&program, model);
            assert_eq!(a, b, "{} / {model}", program.name);
            assert_eq!(
                generate_trace(&a),
                generate_trace(&b),
                "{} / {model}",
                program.name
            );
        }
    }
}

/// FNV-1a digest of the full 54-job grid's JSONL records at scale 64,
/// recorded before the memory-hierarchy lookups were rewritten for speed.
/// Any change to a simulated number, counter or record field moves it.
const FULL_GRID_SCALE_64_DIGEST: u64 = 0x2ac5_5b66_9fe1_0429;

/// The 378-record accurate grid over scales 8, 16, …, 512, recorded before
/// sweeps shared each trace's compute between communication models.
const GRID_SCALES_8_TO_512_DIGEST: u64 = 0x9f6e_f962_281a_3697;

/// The scale-64 grid under the default sampled mode, recorded at the same
/// point.
const SAMPLED_GRID_SCALE_64_DIGEST: u64 = 0x4fea_3d77_5641_116f;

/// The 378-record grid over scales 8, 16, …, 512 under the default sampled
/// mode, recorded before the four compute-segment loops became one.
const SAMPLED_GRID_SCALES_8_TO_512_DIGEST: u64 = 0x3f50_2ecc_63ed_0897;

fn grid_digest(scales: Vec<u32>, mode: ExecMode) -> u64 {
    let jobs = SweepSpec {
        scales,
        ..SweepSpec::full(1)
    }
    .expand();
    let opts = SweepOptions::builder().workers(2).mode(mode).build();
    let out = run_jobs(&jobs, &ExperimentConfig::paper(), &opts).expect("paper grid runs");
    fnv1a(to_jsonl(&out.records).as_bytes())
}

#[test]
fn full_grid_records_match_the_pinned_digest() {
    let digest = grid_digest(vec![64], ExecMode::Accurate);
    assert_eq!(
        digest, FULL_GRID_SCALE_64_DIGEST,
        "grid records digest to {digest:#018x}"
    );
}

#[test]
fn multi_scale_grid_records_match_the_pinned_digest() {
    let digest = grid_digest(vec![8, 16, 32, 64, 128, 256, 512], ExecMode::Accurate);
    assert_eq!(
        digest, GRID_SCALES_8_TO_512_DIGEST,
        "grid records digest to {digest:#018x}"
    );
}

#[test]
fn sampled_grid_records_match_the_pinned_digest() {
    let digest = grid_digest(vec![64], ExecMode::sampled_default());
    assert_eq!(
        digest, SAMPLED_GRID_SCALE_64_DIGEST,
        "grid records digest to {digest:#018x}"
    );
}

#[test]
fn sampled_multi_scale_grid_records_match_the_pinned_digest() {
    let digest = grid_digest(
        vec![8, 16, 32, 64, 128, 256, 512],
        ExecMode::sampled_default(),
    );
    assert_eq!(
        digest, SAMPLED_GRID_SCALES_8_TO_512_DIGEST,
        "grid records digest to {digest:#018x}"
    );
}
