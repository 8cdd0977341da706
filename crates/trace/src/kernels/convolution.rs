//! Separable convolution: `parallel → merge → parallel`.
//!
//! The row pass runs in parallel on both PUs, a host-side merge exchanges
//! the halo/intermediate data, then the column pass runs in parallel again.
//! Table III: CPU 448260, GPU 448259, serial 65536, 3 communications,
//! initial transfer 65536 B.

use super::{layout, split, KernelParams};
use crate::builder::{AddressPattern, InstMix, TraceBuilder};
use crate::inst::{CommEvent, CommKind, TransferDirection};
use crate::phase::PhasedTrace;

/// Bytes of the GPU's input half at full scale (Table III).
const INITIAL_BYTES: u64 = 65_536;
/// Bytes exchanged at the mid-computation merge (halo rows).
const EXCHANGE_BYTES: u64 = 32_768;
/// Bytes of the GPU's result half returned to the host.
const RESULT_BYTES: u64 = 32_768;
/// Convolution window width in elements.
const WINDOW: u64 = 5;

/// 5-tap window: reads dominate, one store per output element.
pub(super) const CPU_MIX: InstMix = InstMix {
    loads: 3,
    int_ops: 1,
    fp_ops: 2,
    stores: 1,
    branches: 1,
    simd: false,
    access_bytes: 4,
    branch_taken_pct: 95,
};

/// The GPU's SIMD counterpart of [`CPU_MIX`].
pub(super) const GPU_MIX: InstMix = InstMix {
    loads: 3,
    int_ops: 1,
    fp_ops: 3,
    stores: 1,
    branches: 1,
    simd: true,
    access_bytes: 32,
    branch_taken_pct: 97,
};

pub(super) fn generate(params: &KernelParams) -> PhasedTrace {
    let (cpu_par, gpu_par) = params.partition(448_260, 448_259);
    let cpu_halves = split(cpu_par, 2);
    let gpu_halves = split(gpu_par, 2);
    let serial = params.count(65_536);
    let input = params.bytes(INITIAL_BYTES);

    let cpu_pat = AddressPattern::Window {
        base: layout::CPU_BASE,
        len: input,
        width: WINDOW,
        elem: 4,
    };
    let gpu_pat = AddressPattern::Window {
        base: layout::GPU_BASE,
        len: input,
        width: WINDOW,
        elem: 32,
    };

    let mut b = TraceBuilder::new("convolution", 0x5EED_0003);
    b.communication([CommEvent {
        direction: TransferDirection::HostToDevice,
        bytes: input,
        kind: CommKind::InitialInput,
        addr: layout::CPU_BASE,
    }]);
    // Row pass.
    b.parallel(
        cpu_halves[0],
        CPU_MIX,
        cpu_pat.clone(),
        gpu_halves[0],
        GPU_MIX,
        gpu_pat.clone(),
    );
    // Mid-computation halo exchange.
    b.communication([CommEvent {
        direction: TransferDirection::DeviceToHost,
        bytes: params.bytes(EXCHANGE_BYTES),
        kind: CommKind::Intermediate,
        addr: layout::GPU_BASE,
    }]);
    // Host-side merge of the intermediate image.
    b.sequential(
        serial,
        InstMix::serial(),
        AddressPattern::Stream {
            base: layout::CPU_BASE,
            len: input,
            stride: 8,
        },
    );
    // Column pass.
    b.parallel(
        cpu_halves[1],
        CPU_MIX,
        cpu_pat,
        gpu_halves[1],
        GPU_MIX,
        gpu_pat,
    );
    b.communication([CommEvent {
        direction: TransferDirection::DeviceToHost,
        bytes: params.bytes(RESULT_BYTES),
        kind: CommKind::ResultReturn,
        addr: layout::GPU_BASE,
    }]);
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
        assert_eq!(
            t.characteristics(),
            Kernel::Convolution.paper_characteristics()
        );
    }

    #[test]
    fn shape_has_two_parallel_passes_and_three_comms() {
        let t = generate(&KernelParams::scaled(64));
        let phases: Vec<_> = t.segments().iter().map(|s| s.phase()).collect();
        assert_eq!(
            phases,
            vec![
                Phase::Communication,
                Phase::Parallel,
                Phase::Communication,
                Phase::Sequential,
                Phase::Parallel,
                Phase::Communication,
            ]
        );
        assert_eq!(t.comm_count(), 3);
    }
}
