//! Whole-stack determinism: identical inputs must produce bit-identical
//! traces, simulations, and reports — the property that makes the
//! regenerated tables and figures reproducible.

use hetmem::core::experiment::ExperimentConfig;
use hetmem::core::hash::fnv1a;
use hetmem::core::EvaluatedSystem;
use hetmem::dsl::{generate_trace, lower, programs, AddressSpace};
use hetmem::sim::ExecMode;
use hetmem::trace::kernels::{Kernel, KernelParams};
use hetmem::trace::write_trace;
use hetmem::xplore::{
    execute_job, job_trace, run_jobs, to_jsonl, Job, JobKind, SweepOptions, SweepSpec,
};

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
    let cfg = ExperimentConfig::paper();
    let job = Job {
        id: 0,
        kernel: Kernel::KMeans,
        kind: JobKind::CaseStudy {
            system: EvaluatedSystem::Lrb,
        },
        scale: 64,
    };
    let a = execute_job(&job, &cfg, &job.kernel.generate(&KernelParams::scaled(64)));
    let b = execute_job(&job, &cfg, &job_trace(&job));
    assert_eq!(a.expect("runs").report, b.expect("runs").report);
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

/// FNV-1a digests of each kernel's `.hmt` text at scale 64 (what `hetmem
/// trace K --scale 64` prints), recorded while traces still stored one full
/// `Inst` per entry. Any change to an emitted instruction, its order or the
/// text encoding moves one of them.
const KERNEL_TRACE_SCALE_64_DIGESTS: [(Kernel, u64); 6] = [
    (Kernel::Reduction, 0x6139_3a2b_de13_8d21),
    (Kernel::MatrixMul, 0x6b23_a8a3_e20a_ac8b),
    (Kernel::Convolution, 0x6135_7bb7_f269_0062),
    (Kernel::Dct, 0x08e5_a9af_65d0_ac5a),
    (Kernel::MergeSort, 0x5c48_5592_65aa_29e0),
    (Kernel::KMeans, 0x2e3d_f22e_3d50_6497),
];

/// FNV-1a digests of the `.hmt` text of traces in other shapes: GPU shares of
/// 10 % and 90 % at scale 64 (uneven streams), and scale 7 (streams ending
/// mid-body). Recorded while each parallel segment's CPU and GPU streams were
/// still emitted one after the other on one thread.
const KERNEL_TRACE_SHAPE_DIGESTS: [(Kernel, u32, Option<u32>, u64); 18] = [
    (Kernel::Reduction, 64, Some(10), 0x6d14_4280_9139_5481),
    (Kernel::Reduction, 64, Some(90), 0xa1d4_0744_249c_23fa),
    (Kernel::Reduction, 7, None, 0x9402_b070_fcf0_6f79),
    (Kernel::MatrixMul, 64, Some(10), 0xe82f_bb02_39e1_9026),
    (Kernel::MatrixMul, 64, Some(90), 0xa1fc_df1c_0b0c_a9ee),
    (Kernel::MatrixMul, 7, None, 0xbca9_898c_3ba1_e15f),
    (Kernel::Convolution, 64, Some(10), 0x66ba_a9eb_34bd_0b6e),
    (Kernel::Convolution, 64, Some(90), 0xba6f_6d78_09b4_24a7),
    (Kernel::Convolution, 7, None, 0xf5b2_c33d_2177_9d97),
    (Kernel::Dct, 64, Some(10), 0xe90b_e00f_f58f_28d2),
    (Kernel::Dct, 64, Some(90), 0x4f0c_1257_9a12_0ceb),
    (Kernel::Dct, 7, None, 0x0c3a_642e_f920_4bd3),
    (Kernel::MergeSort, 64, Some(10), 0xec5a_42b7_f76e_0658),
    (Kernel::MergeSort, 64, Some(90), 0x9e37_4567_1b91_ba29),
    (Kernel::MergeSort, 7, None, 0xe33d_23ae_ff32_8f59),
    (Kernel::KMeans, 64, Some(10), 0x1c0a_506e_7ec3_e467),
    (Kernel::KMeans, 64, Some(90), 0x6c8b_77e6_f50c_458d),
    (Kernel::KMeans, 7, None, 0x7730_01fa_5f87_2e4c),
];

#[test]
fn kernel_traces_match_the_pinned_digests() {
    let scale_64 = KERNEL_TRACE_SCALE_64_DIGESTS.map(|(kernel, want)| (kernel, 64, None, want));
    for (kernel, scale, gpu_share, want) in scale_64.into_iter().chain(KERNEL_TRACE_SHAPE_DIGESTS) {
        let params = KernelParams::scaled(scale);
        let params = match gpu_share {
            Some(pct) => params.with_gpu_share(pct),
            None => params,
        };
        let text = write_trace(&kernel.generate(&params));
        let digest = fnv1a(text.as_bytes());
        assert_eq!(
            digest, want,
            "{kernel} at scale {scale}, GPU share {gpu_share:?}, digests to {digest:#018x}"
        );
    }
}
