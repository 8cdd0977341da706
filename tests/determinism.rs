//! Whole-stack determinism: identical inputs must produce bit-identical
//! traces, simulations, and reports — the property that makes the
//! regenerated tables and figures reproducible.

use hetmem::core::experiment::{run_case_studies, run_case_study, ExperimentConfig};
use hetmem::core::hash::fnv1a;
use hetmem::core::EvaluatedSystem;
use hetmem::dsl::{generate_trace, lower, programs, AddressSpace};
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

#[test]
fn full_grid_records_match_the_pinned_digest() {
    let jobs = SweepSpec::full(64).expand();
    let opts = SweepOptions::builder().workers(2).build();
    let out = run_jobs(&jobs, &ExperimentConfig::paper(), &opts).expect("paper grid runs");
    let digest = fnv1a(to_jsonl(&out.records).as_bytes());
    assert_eq!(
        digest, FULL_GRID_SCALE_64_DIGEST,
        "grid records digest to {digest:#018x}"
    );
}
