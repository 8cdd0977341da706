//! Synthetic generators for the paper's six evaluation kernels.
//!
//! Each generator reproduces the kernel's Table III characteristics exactly
//! at scale 1: parallel-phase CPU/GPU instruction counts, serial instruction
//! count, number of communications, and initial transfer size. Address
//! streams follow each kernel's documented access pattern (streaming for
//! reduction, row/column for matrix multiply, sliding window for
//! convolution, butterfly for DCT, data-dependent for merge sort and
//! k-means) so the cache hierarchy sees plausible locality.
//!
//! The paper's methodology (§IV-B) divides the computational work evenly
//! between CPU and GPU, allocates input on the CPU, and transfers results
//! back after GPU kernels finish; the generators encode exactly that
//! structure as phase segments.

mod convolution;
mod dct;
mod kmeans;
mod matmul;
mod mergesort;
mod reduction;

use crate::characteristics::Characteristics;
use crate::phase::PhasedTrace;

/// Logical base addresses of the modelled data regions.
///
/// Parallel-phase CPU work touches the CPU region, GPU work the GPU region;
/// the shared region is used by design points that place data in a (partially)
/// shared space.
pub mod layout {
    use crate::inst::Addr;

    /// Base of the CPU-private data region.
    pub const CPU_BASE: Addr = 0x1000_0000;
    /// Base of the GPU-private data region.
    pub const GPU_BASE: Addr = 0x2000_0000;
    /// Base of the shared data region.
    pub const SHARED_BASE: Addr = 0x3000_0000;
}

/// The six kernels evaluated in the paper (Table III).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kernel {
    /// Parallel → merge → sequential tree reduction.
    Reduction,
    /// Fully parallel dense matrix multiplication.
    MatrixMul,
    /// Parallel → merge → parallel separable convolution.
    Convolution,
    /// Fully parallel discrete cosine transform.
    Dct,
    /// Parallel → merge → sequential merge sort.
    MergeSort,
    /// Repeated parallel → merge → sequential k-means clustering.
    KMeans,
}

impl Kernel {
    /// All kernels, in the paper's Table III order.
    pub const ALL: [Kernel; 6] = [
        Kernel::Reduction,
        Kernel::MatrixMul,
        Kernel::Convolution,
        Kernel::Dct,
        Kernel::MergeSort,
        Kernel::KMeans,
    ];

    /// The kernel's name as used in the paper's tables and figures.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Reduction => "reduction",
            Kernel::MatrixMul => "matrix mul",
            Kernel::Convolution => "convolution",
            Kernel::Dct => "dct",
            Kernel::MergeSort => "merge sort",
            Kernel::KMeans => "k-mean",
        }
    }

    /// The compute pattern as described in Table III.
    #[must_use]
    pub fn compute_pattern(self) -> &'static str {
        match self {
            Kernel::Reduction => "parallel -> merge -> sequential",
            Kernel::MatrixMul => "fully parallel, no comm during computation",
            Kernel::Convolution => "parallel -> merge -> parallel",
            Kernel::Dct => "fully parallel, no comm. during computation",
            Kernel::MergeSort => "parallel -> merge -> sequential",
            Kernel::KMeans => "parallel -> merge -> sequential (repeated)",
        }
    }

    /// The characteristics the paper reports for this kernel in Table III.
    ///
    /// Note: the paper prints 262244 B for the dct initial transfer, almost
    /// certainly a typo for 262144 (= 256 KiB); we reproduce the printed
    /// value so that regenerated tables match the paper byte-for-byte.
    #[must_use]
    pub fn paper_characteristics(self) -> Characteristics {
        let (cpu, gpu, serial, comms, initial) = match self {
            Kernel::Reduction => (70_006, 70_001, 99_996, 2, 320_512),
            Kernel::MatrixMul => (8_585_229, 8_585_228, 16_384, 2, 524_288),
            Kernel::Convolution => (448_260, 448_259, 65_536, 3, 65_536),
            Kernel::Dct => (2_359_298, 2_359_298, 262_144, 2, 262_244),
            Kernel::MergeSort => (161_233, 157_233, 97_668, 2, 39_936),
            Kernel::KMeans => (1_847_765, 1_844_981, 36_784, 6, 136_192),
        };
        Characteristics {
            name: self.name().to_owned(),
            cpu_instructions: cpu,
            gpu_instructions: gpu,
            serial_instructions: serial,
            communications: comms,
            initial_transfer_bytes: initial,
        }
    }

    /// Generates the kernel's phase-structured trace.
    ///
    /// At [`KernelParams::full`] the trace's [`Characteristics`] equal
    /// [`Kernel::paper_characteristics`] exactly; larger scales divide the
    /// instruction counts and transfer sizes proportionally while keeping
    /// the phase structure and communication count intact.
    #[must_use]
    pub fn generate(self, params: &KernelParams) -> PhasedTrace {
        match self {
            Kernel::Reduction => reduction::generate(params),
            Kernel::MatrixMul => matmul::generate(params),
            Kernel::Convolution => convolution::generate(params),
            Kernel::Dct => dct::generate(params),
            Kernel::MergeSort => mergesort::generate(params),
            Kernel::KMeans => kmeans::generate(params),
        }
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing a kernel name fails.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseKernelError {
    input: String,
}

impl std::fmt::Display for ParseKernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown kernel name: {:?}", self.input)
    }
}

impl std::error::Error for ParseKernelError {}

impl std::str::FromStr for Kernel {
    type Err = ParseKernelError;

    /// Accepts the paper's names plus common aliases
    /// (`matmul`, `mergesort`, `kmeans`, …), case-insensitively.
    fn from_str(s: &str) -> Result<Kernel, ParseKernelError> {
        let k = s.to_ascii_lowercase().replace([' ', '-', '_'], "");
        match k.as_str() {
            "reduction" | "reduce" => Ok(Kernel::Reduction),
            "matrixmul" | "matmul" | "mm" => Ok(Kernel::MatrixMul),
            "convolution" | "conv" => Ok(Kernel::Convolution),
            "dct" => Ok(Kernel::Dct),
            "mergesort" | "msort" => Ok(Kernel::MergeSort),
            "kmean" | "kmeans" => Ok(Kernel::KMeans),
            _ => Err(ParseKernelError {
                input: s.to_owned(),
            }),
        }
    }
}

/// Generation parameters for kernel traces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelParams {
    /// Divides all instruction counts and transfer sizes. `1` reproduces the
    /// paper's full-size traces; larger values generate proportionally
    /// smaller traces for fast tests and micro-benchmarks.
    pub scale: u32,
    /// Optional work-partitioning override: the percentage of the parallel
    /// work assigned to the GPU (1–99). `None` keeps the paper's even
    /// division with its exact Table III instruction counts. The paper
    /// explicitly leaves optimal partitioning to Qilin-style systems
    /// (§IV-B); this knob enables that sweep as an extension.
    pub gpu_share_pct: Option<u32>,
}

impl KernelParams {
    /// Full-size generation (`scale == 1`), matching Table III exactly.
    #[must_use]
    pub fn full() -> KernelParams {
        KernelParams {
            scale: 1,
            gpu_share_pct: None,
        }
    }

    /// Down-scaled generation.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is zero.
    #[must_use]
    pub fn scaled(scale: u32) -> KernelParams {
        assert!(scale > 0, "scale must be non-zero");
        KernelParams {
            scale,
            gpu_share_pct: None,
        }
    }

    /// Sets the GPU's share of the parallel work.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= pct <= 99`.
    #[must_use]
    pub fn with_gpu_share(mut self, pct: u32) -> KernelParams {
        assert!(
            (1..=99).contains(&pct),
            "gpu share must be within 1..=99, got {pct}"
        );
        self.gpu_share_pct = Some(pct);
        self
    }

    /// Applies the scale to an instruction count (keeps at least one
    /// instruction so phase structure survives aggressive scaling).
    #[must_use]
    pub(crate) fn count(&self, full: usize) -> usize {
        (full / self.scale as usize).max(1)
    }

    /// Scales and partitions the parallel-phase instruction counts. With no
    /// partitioning override the paper's own per-PU counts are preserved
    /// exactly; with one, the combined work is re-divided.
    pub(crate) fn partition(&self, cpu_full: usize, gpu_full: usize) -> (usize, usize) {
        match self.gpu_share_pct {
            None => (self.count(cpu_full), self.count(gpu_full)),
            Some(pct) => {
                let total = self.count(cpu_full) + self.count(gpu_full);
                let gpu = (total * pct as usize / 100).max(1);
                (total.saturating_sub(gpu).max(1), gpu)
            }
        }
    }

    /// Applies the scale to a byte size (keeps at least one 64-byte line).
    #[must_use]
    pub(crate) fn bytes(&self, full: u64) -> u64 {
        (full / u64::from(self.scale)).max(64)
    }
}

impl Default for KernelParams {
    fn default() -> KernelParams {
        KernelParams::full()
    }
}

/// Splits `total` into `parts` near-equal pieces that sum exactly to `total`.
pub(crate) fn split(total: usize, parts: usize) -> Vec<usize> {
    assert!(parts > 0);
    let base = total / parts;
    let rem = total % parts;
    (0..parts).map(|i| base + usize::from(i < rem)).collect()
}

/// Every kernel-specific instruction mix the generators emit with; the
/// other sequential phases use [`InstMix::serial`](crate::InstMix::serial).
#[cfg(test)]
pub(crate) const MIXES: [crate::InstMix; 13] = [
    reduction::CPU_MIX,
    reduction::GPU_MIX,
    matmul::CPU_MIX,
    matmul::GPU_MIX,
    convolution::CPU_MIX,
    convolution::GPU_MIX,
    dct::CPU_MIX,
    dct::GPU_MIX,
    mergesort::CPU_MIX,
    mergesort::GPU_MIX,
    mergesort::SERIAL_MIX,
    kmeans::CPU_MIX,
    kmeans::GPU_MIX,
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PuKind;

    #[test]
    fn all_kernels_match_table_iii_at_full_scale() {
        for k in Kernel::ALL {
            let trace = k.generate(&KernelParams::full());
            let got = trace.characteristics();
            let want = k.paper_characteristics();
            assert_eq!(got, want, "kernel {k}");
        }
    }

    #[test]
    fn all_traces_are_well_formed() {
        for k in Kernel::ALL {
            let trace = k.generate(&KernelParams::scaled(64));
            assert_eq!(trace.validate(), Ok(()), "kernel {k}");
        }
    }

    #[test]
    fn scaling_divides_instruction_counts() {
        for k in Kernel::ALL {
            let full = k.generate(&KernelParams::scaled(16));
            let half = k.generate(&KernelParams::scaled(32));
            let f = full.pu_len(PuKind::Cpu) + full.pu_len(PuKind::Gpu);
            let h = half.pu_len(PuKind::Cpu) + half.pu_len(PuKind::Gpu);
            // Halving the size should roughly halve the instruction count.
            assert!(
                h * 2 <= f + 16 && f <= h * 2 + f / 4,
                "kernel {k}: {f} vs {h}"
            );
        }
    }

    #[test]
    fn scaling_preserves_comm_count() {
        for k in Kernel::ALL {
            let want = k.paper_characteristics().communications;
            for s in [1u32, 8, 64, 1024] {
                // Full-scale generation is slow for matmul; skip scale 1 here
                // (covered by all_kernels_match_table_iii_at_full_scale).
                if s == 1 && k == Kernel::MatrixMul {
                    continue;
                }
                let got = k.generate(&KernelParams::scaled(s)).comm_count();
                assert_eq!(got, want, "kernel {k} scale {s}");
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for k in Kernel::ALL {
            let a = k.generate(&KernelParams::scaled(128));
            let b = k.generate(&KernelParams::scaled(128));
            assert_eq!(a, b, "kernel {k}");
        }
    }

    #[test]
    fn partitioning_moves_work_between_pus() {
        for k in Kernel::ALL {
            let base = KernelParams::scaled(64);
            let even = k.generate(&base).characteristics();
            let gpu_heavy = k.generate(&base.with_gpu_share(90)).characteristics();
            let cpu_heavy = k.generate(&base.with_gpu_share(10)).characteristics();
            let total = even.cpu_instructions + even.gpu_instructions;
            // Total parallel work is preserved (±rounding across loop splits).
            let gh_total = gpu_heavy.cpu_instructions + gpu_heavy.gpu_instructions;
            assert!(gh_total.abs_diff(total) <= 4, "{k}: {gh_total} vs {total}");
            assert!(
                gpu_heavy.gpu_instructions > 3 * gpu_heavy.cpu_instructions,
                "{k}"
            );
            assert!(
                cpu_heavy.cpu_instructions > 3 * cpu_heavy.gpu_instructions,
                "{k}"
            );
            // Phase structure and communication are unaffected.
            assert_eq!(gpu_heavy.communications, even.communications, "{k}");
        }
    }

    #[test]
    #[should_panic(expected = "gpu share must be within")]
    fn zero_gpu_share_rejected() {
        let _ = KernelParams::full().with_gpu_share(0);
    }

    #[test]
    fn kernel_names_round_trip_through_fromstr() {
        for k in Kernel::ALL {
            let parsed: Kernel = k.name().parse().expect("paper name parses");
            assert_eq!(parsed, k);
        }
        assert!("frobnicate".parse::<Kernel>().is_err());
    }

    #[test]
    fn split_sums_and_balances() {
        assert_eq!(split(10, 3), vec![4, 3, 3]);
        assert_eq!(split(9, 3), vec![3, 3, 3]);
        assert_eq!(split(0, 2), vec![0, 0]);
        for (t, p) in [(12345usize, 7usize), (1, 3), (100, 1)] {
            let v = split(t, p);
            assert_eq!(v.iter().sum::<usize>(), t);
            assert!(v.iter().max().unwrap() - v.iter().min().unwrap() <= 1);
        }
    }
}
