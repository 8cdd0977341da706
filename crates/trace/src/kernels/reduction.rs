//! Tree reduction: `parallel → merge → sequential`.
//!
//! Each PU sums its half of the input with a streaming access pattern; the
//! GPU's partial result returns to the host, which finishes sequentially.
//! Table III: CPU 70006, GPU 70001, serial 99996, 2 communications, initial
//! transfer 320512 B.

use super::{layout, KernelParams};
use crate::builder::{AddressPattern, InstMix, TraceBuilder};
use crate::inst::{CommEvent, CommKind, TransferDirection};
use crate::phase::PhasedTrace;

/// Bytes of the GPU's input half at full scale (Table III).
const INITIAL_BYTES: u64 = 320_512;
/// Bytes of the GPU's partial-sum result returned to the host.
const RESULT_BYTES: u64 = 64;

/// Reduction of 4-byte integers: two loads feed one add; the loop-back
/// branch is highly biased.
pub(super) const CPU_MIX: InstMix = InstMix {
    loads: 2,
    int_ops: 2,
    fp_ops: 0,
    stores: 0,
    branches: 1,
    simd: false,
    access_bytes: 4,
    branch_taken_pct: 95,
};

/// The GPU's SIMD counterpart of [`CPU_MIX`].
pub(super) const GPU_MIX: InstMix = InstMix {
    loads: 2,
    int_ops: 1,
    fp_ops: 2, // SIMD partial sums
    stores: 0,
    branches: 1,
    simd: true,
    access_bytes: 32,
    branch_taken_pct: 97,
};

pub(super) fn generate(params: &KernelParams) -> PhasedTrace {
    let (cpu_par, gpu_par) = params.partition(70_006, 70_001);
    let serial = params.count(99_996);
    let input = params.bytes(INITIAL_BYTES);

    let mut b = TraceBuilder::new("reduction", 0x5EED_0001);
    b.communication([CommEvent {
        direction: TransferDirection::HostToDevice,
        bytes: input,
        kind: CommKind::InitialInput,
        addr: layout::CPU_BASE,
    }]);
    b.parallel(
        cpu_par,
        CPU_MIX,
        AddressPattern::Stream {
            base: layout::CPU_BASE,
            len: input,
            stride: 4,
        },
        gpu_par,
        GPU_MIX,
        AddressPattern::Stream {
            base: layout::GPU_BASE,
            len: input,
            stride: 32,
        },
    );
    b.communication([CommEvent {
        direction: TransferDirection::DeviceToHost,
        bytes: RESULT_BYTES,
        kind: CommKind::ResultReturn,
        addr: layout::GPU_BASE,
    }]);
    b.sequential(
        serial,
        InstMix::serial(),
        AddressPattern::Stream {
            base: layout::CPU_BASE,
            len: input,
            stride: 8,
        },
    );
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::Kernel;
    use crate::{InstClass, Phase, PuKind};

    #[test]
    fn matches_paper_characteristics() {
        let t = generate(&KernelParams::full());
        assert_eq!(
            t.characteristics(),
            Kernel::Reduction.paper_characteristics()
        );
    }

    #[test]
    fn shape_is_comm_par_comm_seq() {
        let t = generate(&KernelParams::scaled(16));
        let phases: Vec<_> = t.segments().iter().map(|s| s.phase()).collect();
        assert_eq!(
            phases,
            vec![
                Phase::Communication,
                Phase::Parallel,
                Phase::Communication,
                Phase::Sequential
            ]
        );
    }

    #[test]
    fn reduction_has_no_parallel_stores() {
        // A pure reduction never writes the input array.
        let t = generate(&KernelParams::scaled(16));
        let par = &t.segments()[1];
        assert_eq!(par.stream(PuKind::Cpu).class_count(InstClass::Store), 0);
        assert_eq!(par.stream(PuKind::Gpu).class_count(InstClass::Store), 0);
    }
}
