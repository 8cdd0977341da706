//! Discrete cosine transform: fully parallel, butterfly access pattern.
//!
//! Table III: CPU 2359298, GPU 2359298, serial 262144, 2 communications,
//! initial transfer 262244 B (as printed in the paper; almost certainly a
//! typo for 262144 — we reproduce the printed value).

use super::{layout, KernelParams};
use crate::builder::{AddressPattern, InstMix, TraceBuilder};
use crate::inst::{CommEvent, CommKind, TransferDirection};
use crate::phase::PhasedTrace;

/// Bytes of the GPU's input half at full scale (Table III, as printed).
const INITIAL_BYTES: u64 = 262_244;
/// Bytes of the GPU's transformed half returned to the host.
const RESULT_BYTES: u64 = 131_072;
/// log2 of the butterfly span in elements (256 Ki f32 / 4 = 64 Ki elements).
const LOG2_N: u32 = 16;

/// FP-heavy butterfly: two loads, four FP ops (twiddle multiply-add),
/// two stores.
pub(super) const CPU_MIX: InstMix = InstMix {
    loads: 2,
    int_ops: 1,
    fp_ops: 4,
    stores: 2,
    branches: 1,
    simd: false,
    access_bytes: 4,
    branch_taken_pct: 96,
};

/// The GPU's SIMD counterpart of [`CPU_MIX`].
pub(super) const GPU_MIX: InstMix = InstMix {
    loads: 2,
    int_ops: 1,
    fp_ops: 4,
    stores: 2,
    branches: 1,
    simd: true,
    access_bytes: 32,
    branch_taken_pct: 98,
};

pub(super) fn generate(params: &KernelParams) -> PhasedTrace {
    let (cpu_par, gpu_par) = params.partition(2_359_298, 2_359_298);
    let serial = params.count(262_144);
    let input = params.bytes(INITIAL_BYTES);
    // Butterfly spans shrink with the scale so addresses stay in the region.
    let log2_n = LOG2_N.saturating_sub(params.scale.ilog2().min(LOG2_N - 4));

    let mut b = TraceBuilder::new("dct", 0x5EED_0004);
    b.communication([CommEvent {
        direction: TransferDirection::HostToDevice,
        bytes: input,
        kind: CommKind::InitialInput,
        addr: layout::CPU_BASE,
    }]);
    b.parallel(
        cpu_par,
        CPU_MIX,
        AddressPattern::Butterfly {
            base: layout::CPU_BASE,
            log2_n,
            elem: 4,
        },
        gpu_par,
        GPU_MIX,
        AddressPattern::Butterfly {
            base: layout::GPU_BASE,
            log2_n,
            elem: 4,
        },
    );
    b.communication([CommEvent {
        direction: TransferDirection::DeviceToHost,
        bytes: params.bytes(RESULT_BYTES),
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

    #[test]
    fn matches_paper_characteristics() {
        let t = generate(&KernelParams::full());
        assert_eq!(t.characteristics(), Kernel::Dct.paper_characteristics());
    }

    #[test]
    fn cpu_and_gpu_do_equal_work() {
        // The paper's dct splits exactly evenly.
        let t = generate(&KernelParams::scaled(8));
        let c = t.characteristics();
        assert_eq!(c.cpu_instructions, c.gpu_instructions);
    }
}
