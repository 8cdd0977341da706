//! Dense matrix multiplication: fully parallel, no communication during
//! computation.
//!
//! Each PU computes half of the output tiles; A is streamed row-major while
//! B is walked column-wise ([`AddressPattern::RowColumn`]). Table III: CPU
//! 8585229, GPU 8585228, serial 16384, 2 communications, initial transfer
//! 524288 B (two 256 KiB input matrices' halves).

use super::{layout, KernelParams};
use crate::builder::{AddressPattern, InstMix, TraceBuilder};
use crate::inst::{CommEvent, CommKind, TransferDirection};
use crate::phase::PhasedTrace;

/// Bytes of the GPU's share of A and B at full scale (Table III).
const INITIAL_BYTES: u64 = 524_288;
/// Bytes of the GPU's half of the result matrix C.
const RESULT_BYTES: u64 = 262_144;
/// Row length in bytes of the modelled 256×256 f32 matrices.
const ROW_BYTES: u64 = 1024;

/// Inner-product loop: two loads (a[i][k], b[k][j]), multiply-accumulate,
/// occasional store of c[i][j], loop-back branch.
pub(super) const CPU_MIX: InstMix = InstMix {
    loads: 2,
    int_ops: 1,
    fp_ops: 2,
    stores: 1,
    branches: 1,
    simd: false,
    access_bytes: 4,
    branch_taken_pct: 98,
};

/// The GPU's SIMD counterpart of [`CPU_MIX`].
pub(super) const GPU_MIX: InstMix = InstMix {
    loads: 2,
    int_ops: 1,
    fp_ops: 3,
    stores: 1,
    branches: 1,
    simd: true,
    access_bytes: 32,
    branch_taken_pct: 99,
};

pub(super) fn generate(params: &KernelParams) -> PhasedTrace {
    let (cpu_par, gpu_par) = params.partition(8_585_229, 8_585_228);
    let serial = params.count(16_384);
    let input = params.bytes(INITIAL_BYTES);
    let result = params.bytes(RESULT_BYTES);

    let mut b = TraceBuilder::new("matrix mul", 0x5EED_0002);
    b.communication([CommEvent {
        direction: TransferDirection::HostToDevice,
        bytes: input,
        kind: CommKind::InitialInput,
        addr: layout::CPU_BASE,
    }]);
    b.parallel(
        cpu_par,
        CPU_MIX,
        AddressPattern::RowColumn {
            base: layout::CPU_BASE,
            len: input,
            row_bytes: ROW_BYTES,
            elem: 4,
        },
        gpu_par,
        GPU_MIX,
        AddressPattern::RowColumn {
            base: layout::GPU_BASE,
            len: input,
            row_bytes: ROW_BYTES,
            elem: 32,
        },
    );
    b.communication([CommEvent {
        direction: TransferDirection::DeviceToHost,
        bytes: result,
        kind: CommKind::ResultReturn,
        addr: layout::GPU_BASE,
    }]);
    b.sequential(
        serial,
        InstMix::serial(),
        AddressPattern::Stream {
            base: layout::CPU_BASE,
            len: result.max(64),
            stride: 8,
        },
    );
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
            Kernel::MatrixMul.paper_characteristics()
        );
    }

    #[test]
    fn no_communication_between_parallel_segments() {
        // "fully parallel, no comm during computation": exactly one parallel
        // segment bracketed by the two transfers.
        let t = generate(&KernelParams::scaled(1024));
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
}
