//! K-means clustering: `(parallel → merge → sequential)` repeated for three
//! iterations, with the most communication events of any kernel.
//!
//! Per iteration each PU computes distances for its half of the points, the
//! GPU returns partial sums, the host updates centroids sequentially, and —
//! except after the final iteration — broadcasts the new centroids back to
//! the GPU. Communication events: 1 initial + 3 partial returns + 2
//! broadcasts = 6 (Table III). CPU 1847765, GPU 1844981, serial 36784,
//! initial transfer 136192 B.

use super::{layout, split, KernelParams};
use crate::builder::{AddressPattern, InstMix, TraceBuilder};
use crate::inst::{CommEvent, CommKind, TransferDirection};
use crate::phase::PhasedTrace;

/// Number of k-means iterations in the paper's run.
const ITERATIONS: usize = 3;
/// Bytes of the GPU's point set at full scale (Table III).
const INITIAL_BYTES: u64 = 136_192;
/// Bytes of per-iteration partial sums returned by the GPU.
const PARTIAL_BYTES: u64 = 4_096;
/// Bytes of the centroid broadcast sent back to the GPU.
const CENTROID_BYTES: u64 = 2_048;

/// Distance computation: point loads are clustered (irregular within the
/// assigned cluster's working set), FP-heavy.
pub(super) const CPU_MIX: InstMix = InstMix {
    loads: 2,
    int_ops: 1,
    fp_ops: 3,
    stores: 0,
    branches: 1,
    simd: false,
    access_bytes: 4,
    branch_taken_pct: 92,
};

/// The GPU's SIMD counterpart of [`CPU_MIX`].
pub(super) const GPU_MIX: InstMix = InstMix {
    loads: 2,
    int_ops: 1,
    fp_ops: 4,
    stores: 0,
    branches: 1,
    simd: true,
    access_bytes: 32,
    branch_taken_pct: 95,
};

pub(super) fn generate(params: &KernelParams) -> PhasedTrace {
    let (cpu_par, gpu_par) = params.partition(1_847_765, 1_844_981);
    let cpu_iters = split(cpu_par, ITERATIONS);
    let gpu_iters = split(gpu_par, ITERATIONS);
    let serial_iters = split(params.count(36_784), ITERATIONS);
    let input = params.bytes(INITIAL_BYTES);

    let mut b = TraceBuilder::new("k-mean", 0x5EED_0006);
    b.communication([CommEvent {
        direction: TransferDirection::HostToDevice,
        bytes: input,
        kind: CommKind::InitialInput,
        addr: layout::CPU_BASE,
    }]);
    for iter in 0..ITERATIONS {
        b.parallel(
            cpu_iters[iter],
            CPU_MIX,
            AddressPattern::Irregular {
                base: layout::CPU_BASE,
                len: input,
                elem: 4,
                seed: 0xC1D0 + iter as u64,
            },
            gpu_iters[iter],
            GPU_MIX,
            AddressPattern::Irregular {
                base: layout::GPU_BASE,
                len: input,
                elem: 4,
                seed: 0xD1E0 + iter as u64,
            },
        );
        // The GPU returns its partial cluster sums...
        let kind = if iter + 1 == ITERATIONS {
            CommKind::ResultReturn
        } else {
            CommKind::Intermediate
        };
        b.communication([CommEvent {
            direction: TransferDirection::DeviceToHost,
            bytes: params.bytes(PARTIAL_BYTES),
            kind,
            addr: layout::GPU_BASE,
        }]);
        // ...the host merges them and updates centroids sequentially...
        b.sequential(
            serial_iters[iter],
            InstMix::serial(),
            AddressPattern::Stream {
                base: layout::CPU_BASE,
                len: params.bytes(CENTROID_BYTES) * 2,
                stride: 8,
            },
        );
        // ...and broadcasts the new centroids unless this was the last pass.
        if iter + 1 != ITERATIONS {
            b.communication([CommEvent {
                direction: TransferDirection::HostToDevice,
                bytes: params.bytes(CENTROID_BYTES),
                kind: CommKind::Intermediate,
                addr: layout::CPU_BASE,
            }]);
        }
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::Kernel;
    use crate::Phase;

    #[test]
    fn matches_paper_characteristics() {
        let t = generate(&KernelParams::full());
        assert_eq!(t.characteristics(), Kernel::KMeans.paper_characteristics());
    }

    #[test]
    fn has_six_communications_in_iterated_shape() {
        let t = generate(&KernelParams::scaled(32));
        assert_eq!(t.comm_count(), 6);
        let parallels = t
            .segments()
            .iter()
            .filter(|s| s.phase() == Phase::Parallel)
            .count();
        let sequentials = t
            .segments()
            .iter()
            .filter(|s| s.phase() == Phase::Sequential)
            .count();
        assert_eq!(parallels, ITERATIONS);
        assert_eq!(sequentials, ITERATIONS);
    }

    #[test]
    fn iteration_splits_sum_to_totals() {
        let t = generate(&KernelParams::full());
        let c = t.characteristics();
        assert_eq!(c.cpu_instructions, 1_847_765);
        assert_eq!(c.gpu_instructions, 1_844_981);
        assert_eq!(c.serial_instructions, 36_784);
    }
}
