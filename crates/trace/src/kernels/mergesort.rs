//! Merge sort: `parallel → merge → sequential`, with data-dependent
//! branching and irregular accesses during merges.
//!
//! Table III: CPU 161233, GPU 157233, serial 97668, 2 communications,
//! initial transfer 39936 B.

use super::{layout, KernelParams};
use crate::builder::{AddressPattern, InstMix, TraceBuilder};
use crate::inst::{CommEvent, CommKind, TransferDirection};
use crate::phase::PhasedTrace;

/// Bytes of the GPU's input half at full scale (Table III).
const INITIAL_BYTES: u64 = 39_936;
/// Bytes of the GPU's sorted half returned to the host.
const RESULT_BYTES: u64 = 39_936;

/// Compare-and-move loops: branches are data-dependent (~55 % taken), so
/// the CPU's gshare predictor suffers and the GPU serializes on them.
pub(super) const CPU_MIX: InstMix = InstMix {
    loads: 2,
    int_ops: 2,
    fp_ops: 0,
    stores: 1,
    branches: 2,
    simd: false,
    access_bytes: 4,
    branch_taken_pct: 55,
};

/// The GPU's SIMD counterpart of [`CPU_MIX`].
pub(super) const GPU_MIX: InstMix = InstMix {
    loads: 2,
    int_ops: 3,
    fp_ops: 0,
    stores: 1,
    branches: 2,
    simd: true,
    access_bytes: 32,
    branch_taken_pct: 55,
};

/// The final sequential merge streams two sorted runs but writes with
/// data-dependent interleaving.
pub(super) const SERIAL_MIX: InstMix = InstMix {
    loads: 2,
    int_ops: 2,
    fp_ops: 0,
    stores: 1,
    branches: 2,
    simd: false,
    access_bytes: 4,
    branch_taken_pct: 55,
};

pub(super) fn generate(params: &KernelParams) -> PhasedTrace {
    let (cpu_par, gpu_par) = params.partition(161_233, 157_233);
    let serial = params.count(97_668);
    let input = params.bytes(INITIAL_BYTES);

    let mut b = TraceBuilder::new("merge sort", 0x5EED_0005);
    b.communication([CommEvent {
        direction: TransferDirection::HostToDevice,
        bytes: input,
        kind: CommKind::InitialInput,
        addr: layout::CPU_BASE,
    }]);
    b.parallel(
        cpu_par,
        CPU_MIX,
        AddressPattern::Irregular {
            base: layout::CPU_BASE,
            len: input,
            elem: 4,
            seed: 0xA11CE,
        },
        gpu_par,
        GPU_MIX,
        AddressPattern::Irregular {
            base: layout::GPU_BASE,
            len: input,
            elem: 4,
            seed: 0xB0B,
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
        SERIAL_MIX,
        AddressPattern::Stream {
            base: layout::CPU_BASE,
            len: input * 2,
            stride: 4,
        },
    );
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::Kernel;
    use crate::{Inst, PuKind};

    #[test]
    fn matches_paper_characteristics() {
        let t = generate(&KernelParams::full());
        assert_eq!(
            t.characteristics(),
            Kernel::MergeSort.paper_characteristics()
        );
    }

    #[test]
    fn branches_are_data_dependent() {
        // Roughly half the branches should be taken — far from the >90 %
        // bias of the loop-dominated kernels.
        let t = generate(&KernelParams::scaled(4));
        let (mut taken, mut total) = (0usize, 0usize);
        for i in t.pu_insts(PuKind::Cpu) {
            if let Inst::Branch { taken: tk } = i {
                total += 1;
                taken += usize::from(tk);
            }
        }
        assert!(total > 100);
        let pct = taken * 100 / total;
        assert!((45..=65).contains(&pct), "taken {pct}%");
    }
}
