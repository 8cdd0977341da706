//! # hetmem-trace
//!
//! Instruction set, trace streams, and synthetic kernel generators for the
//! `hetmem` heterogeneous-memory design-space explorer.
//!
//! The original paper drove its evaluation with a cycle-level, trace-driven
//! simulator (MacSim) fed by x86/PTX traces of six kernels. This crate is the
//! trace half of that substrate, rebuilt from scratch:
//!
//! * [`Inst`] — an architecture-neutral instruction representation with
//!   explicit *communication events* ([`CommEvent`]) and *programming
//!   model* operations ([`SpecialOp`]) so the same kernel trace can be
//!   replayed under any memory-model design point.
//! * [`TraceStream`] — one PU's instructions, stored 16 bytes apiece, with
//!   the comm and special payloads in per-stream side tables.
//! * [`PhasedTrace`] — a trace structured into the paper's three execution
//!   phases (sequential, parallel, communication).
//! * [`kernels`] — deterministic generators for the paper's six kernels
//!   (reduction, matrix multiply, convolution, DCT, merge sort, k-means)
//!   whose instruction counts, communication counts, and initial transfer
//!   sizes reproduce Table III of the paper exactly at scale 1.
//! * [`Characteristics`] — the Table III statistics computed from any trace.
//!
//! ## Example
//!
//! ```
//! use hetmem_trace::kernels::{Kernel, KernelParams};
//!
//! // Generate a down-scaled reduction trace and inspect its characteristics.
//! let trace = Kernel::Reduction.generate(&KernelParams::scaled(16));
//! let stats = trace.characteristics();
//! assert_eq!(stats.communications, 2); // comm events are scale-invariant
//! assert!(stats.cpu_instructions > 0 && stats.gpu_instructions > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod characteristics;
mod encode;
mod inst;
pub mod kernels;
mod phase;
mod stream;

pub use builder::{AddressPattern, InstMix, TraceBuilder};
pub use characteristics::Characteristics;
pub use encode::{parse_trace, write_trace, TraceParseError};
pub use inst::{
    Addr, CacheLevel, CommEvent, CommKind, Inst, InstClass, MemSpace, SpecialOp, TransferDirection,
};
pub use phase::{Phase, PhaseSegment, PhasedTrace};
pub use stream::TraceStream;

/// The two classes of processing unit in the modelled heterogeneous system.
///
/// The paper uses the term *processing unit (PU)* for either; the baseline
/// system has one CPU (out-of-order, 3.5 GHz) and one GPU (in-order 8-wide
/// SIMD, 1.5 GHz).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PuKind {
    /// General-purpose out-of-order core.
    Cpu,
    /// Throughput-oriented in-order SIMD accelerator core.
    Gpu,
}

impl PuKind {
    /// All processing-unit kinds, in a stable order.
    pub const ALL: [PuKind; 2] = [PuKind::Cpu, PuKind::Gpu];

    /// The other kind of processing unit.
    ///
    /// ```
    /// use hetmem_trace::PuKind;
    /// assert_eq!(PuKind::Cpu.peer(), PuKind::Gpu);
    /// ```
    #[must_use]
    pub fn peer(self) -> PuKind {
        match self {
            PuKind::Cpu => PuKind::Gpu,
            PuKind::Gpu => PuKind::Cpu,
        }
    }
}

impl std::fmt::Display for PuKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PuKind::Cpu => f.write_str("CPU"),
            PuKind::Gpu => f.write_str("GPU"),
        }
    }
}
