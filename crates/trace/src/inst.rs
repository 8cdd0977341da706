//! The architecture-neutral instruction representation.
//!
//! Instructions carry only what the cycle-level simulator needs: an
//! operation class, memory addresses for loads/stores, and semantic payloads
//! for the communication / programming-model operations whose cost depends on
//! the memory-model design point under evaluation. Kernel traces hold
//! millions of them, so a generated [`crate::TraceStream`] stores none: its
//! cursor computes each `Inst` from the segment's spec as the simulator
//! reads it. A stream built instruction by instruction stores each in a
//! 16-byte slot and keeps the rare, wider payloads in side tables.

/// A virtual memory address in the modelled system.
pub type Addr = u64;

/// Which level of the cache hierarchy an explicit `push` targets.
///
/// The paper's locality-management discussion (§II-B) uses `push` statements
/// that place data into a chosen level of the storage hierarchy (Figure 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CacheLevel {
    /// The PU's private first-level cache (`CPU.P` / `GPU.P` in the paper).
    PrivateL1,
    /// The PU-private second-level cache (CPU only in the baseline).
    PrivateL2,
    /// The shared second-level/last-level cache (`S` in the paper).
    SharedLlc,
    /// The GPU's software-managed scratchpad (16 KB in the baseline).
    Scratchpad,
}

impl std::fmt::Display for CacheLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheLevel::PrivateL1 => f.write_str("private-L1"),
            CacheLevel::PrivateL2 => f.write_str("private-L2"),
            CacheLevel::SharedLlc => f.write_str("shared-LLC"),
            CacheLevel::Scratchpad => f.write_str("scratchpad"),
        }
    }
}

/// Which logical memory space an allocation or access belongs to.
///
/// Address-space *kinds* (unified / disjoint / partially shared / ADSM) are a
/// property of the design point (see `hetmem-core`); a trace only records
/// which logical region a datum was placed in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemSpace {
    /// CPU-private memory.
    CpuPrivate,
    /// GPU-private memory.
    GpuPrivate,
    /// The (partially) shared region visible to both PUs.
    Shared,
}

impl std::fmt::Display for MemSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemSpace::CpuPrivate => f.write_str("cpu-private"),
            MemSpace::GpuPrivate => f.write_str("gpu-private"),
            MemSpace::Shared => f.write_str("shared"),
        }
    }
}

/// Direction of a bulk data transfer between the two PUs' memories.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TransferDirection {
    /// Host (CPU) memory to device (GPU) memory.
    HostToDevice,
    /// Device (GPU) memory to host (CPU) memory.
    DeviceToHost,
}

impl TransferDirection {
    /// The opposite direction.
    #[must_use]
    pub fn reverse(self) -> TransferDirection {
        match self {
            TransferDirection::HostToDevice => TransferDirection::DeviceToHost,
            TransferDirection::DeviceToHost => TransferDirection::HostToDevice,
        }
    }
}

impl std::fmt::Display for TransferDirection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransferDirection::HostToDevice => f.write_str("H2D"),
            TransferDirection::DeviceToHost => f.write_str("D2H"),
        }
    }
}

/// Why a communication event exists in the benchmark's structure.
///
/// Table III reports the *number of communications* per kernel; the kind lets
/// design points treat them differently (e.g. ADSM does not need the final
/// result transfer, GMAC overlaps input transfers asynchronously).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CommKind {
    /// The initial distribution of input data to the accelerator.
    InitialInput,
    /// Returning results from the accelerator to the host.
    ResultReturn,
    /// An intermediate exchange during computation (e.g. between the two
    /// convolution passes, or k-means centroid broadcasts).
    Intermediate,
}

impl std::fmt::Display for CommKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommKind::InitialInput => f.write_str("initial-input"),
            CommKind::ResultReturn => f.write_str("result-return"),
            CommKind::Intermediate => f.write_str("intermediate"),
        }
    }
}

/// A semantic communication event between the two PUs.
///
/// A `CommEvent` says *what* the benchmark needs moved, not *how*; the design
/// point under evaluation (PCI-E memcpy, PCI-aperture transfer, memory
/// controller copy, shared cache…) decides the mechanism and therefore the
/// cost. This is what lets one kernel trace be replayed under every memory
/// model, exactly as the paper varies its special-instruction latencies
/// (Table IV).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CommEvent {
    /// Direction of the transfer.
    pub direction: TransferDirection,
    /// Number of bytes moved.
    pub bytes: u64,
    /// Role of this transfer in the benchmark structure.
    pub kind: CommKind,
    /// Base source address of the data being moved.
    pub addr: Addr,
}

/// Programming-model operations inserted by a memory model's lowering pass.
///
/// These correspond to the paper's special instructions (Table IV): ownership
/// acquire/release (`api-acq`), shared-space data transfers (`api-tr`), page
/// faults on first touch of shared pages (`lib-pf`), and the explicit
/// locality `push` of §II-B. Their latency is assigned by the simulator
/// according to the active design point.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpecialOp {
    /// Acquire ownership of a shared-space object (LRB model, `api-acq`).
    Acquire {
        /// Base address of the owned object.
        addr: Addr,
        /// Size of the owned object in bytes.
        bytes: u64,
    },
    /// Release ownership of a shared-space object (LRB model, `api-acq`).
    Release {
        /// Base address of the owned object.
        addr: Addr,
        /// Size of the owned object in bytes.
        bytes: u64,
    },
    /// A page fault taken on first access to a shared page (`lib-pf`).
    PageFault {
        /// Faulting address.
        addr: Addr,
    },
    /// Explicitly place data into a level of the cache hierarchy (`push`).
    Push {
        /// Target level.
        level: CacheLevel,
        /// Base address of the pushed region.
        addr: Addr,
        /// Size of the pushed region in bytes.
        bytes: u64,
    },
    /// Launch a kernel on the peer PU.
    KernelLaunch,
    /// Synchronize with the peer PU (kernel-completion wait / barrier).
    Sync,
    /// Allocate a region in a logical memory space
    /// (`malloc` / `sharedmalloc` / `adsmAlloc` in the paper's examples).
    Alloc {
        /// Logical memory space the region is placed in.
        space: MemSpace,
        /// Base address chosen for the region.
        addr: Addr,
        /// Region size in bytes.
        bytes: u64,
    },
    /// Free a previously allocated region.
    Free {
        /// Base address of the region.
        addr: Addr,
    },
}

/// A single dynamic instruction in a trace.
///
/// The compute variants model the instruction mix coarsely (integer, floating
/// point, SIMD, branch); loads and stores carry virtual addresses so the
/// cache hierarchy and MMU can be exercised; [`Inst::Comm`] and
/// [`Inst::Special`] carry the semantic operations whose cost depends on the
/// memory-model design point.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Inst {
    /// Integer ALU operation (1-cycle class).
    IntAlu,
    /// Integer multiply (3-cycle class).
    Mul,
    /// Scalar floating-point operation (4-cycle class).
    FpAlu,
    /// SIMD operation across `lanes` lanes (GPU: 8-wide).
    SimdAlu {
        /// Number of active SIMD lanes.
        lanes: u8,
    },
    /// Memory load.
    Load {
        /// Virtual address accessed.
        addr: Addr,
        /// Access size in bytes.
        bytes: u8,
    },
    /// Memory store.
    Store {
        /// Virtual address accessed.
        addr: Addr,
        /// Access size in bytes.
        bytes: u8,
    },
    /// Conditional branch.
    Branch {
        /// Whether the branch was taken in this dynamic instance.
        taken: bool,
    },
    /// Semantic inter-PU communication event.
    Comm(CommEvent),
    /// Programming-model special operation.
    Special(SpecialOp),
}

/// Coarse classification of instructions, used by statistics and the cores'
/// issue logic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InstClass {
    /// Integer / multiply ALU work.
    IntOp,
    /// Scalar or SIMD floating-point work.
    FpOp,
    /// Load from memory.
    Load,
    /// Store to memory.
    Store,
    /// Conditional branch.
    Branch,
    /// Inter-PU communication event.
    Comm,
    /// Programming-model special operation.
    Special,
}

impl Inst {
    /// Coarse class of this instruction.
    #[must_use]
    pub fn class(&self) -> InstClass {
        match self {
            Inst::IntAlu | Inst::Mul => InstClass::IntOp,
            Inst::FpAlu | Inst::SimdAlu { .. } => InstClass::FpOp,
            Inst::Load { .. } => InstClass::Load,
            Inst::Store { .. } => InstClass::Store,
            Inst::Branch { .. } => InstClass::Branch,
            Inst::Comm(_) => InstClass::Comm,
            Inst::Special(_) => InstClass::Special,
        }
    }

    /// The memory address touched by this instruction, if it is a load or a
    /// store.
    #[must_use]
    pub fn mem_addr(&self) -> Option<Addr> {
        match self {
            Inst::Load { addr, .. } | Inst::Store { addr, .. } => Some(*addr),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_covers_all_variants() {
        assert_eq!(Inst::IntAlu.class(), InstClass::IntOp);
        assert_eq!(Inst::Mul.class(), InstClass::IntOp);
        assert_eq!(Inst::FpAlu.class(), InstClass::FpOp);
        assert_eq!(Inst::SimdAlu { lanes: 8 }.class(), InstClass::FpOp);
        assert_eq!(Inst::Load { addr: 0, bytes: 4 }.class(), InstClass::Load);
        assert_eq!(Inst::Store { addr: 0, bytes: 4 }.class(), InstClass::Store);
        assert_eq!(Inst::Branch { taken: true }.class(), InstClass::Branch);
        let ev = CommEvent {
            direction: TransferDirection::HostToDevice,
            bytes: 64,
            kind: CommKind::InitialInput,
            addr: 0,
        };
        assert_eq!(Inst::Comm(ev).class(), InstClass::Comm);
        assert_eq!(Inst::Special(SpecialOp::Sync).class(), InstClass::Special);
    }

    #[test]
    fn mem_addr_only_for_memory_ops() {
        assert_eq!(
            Inst::Load {
                addr: 0x40,
                bytes: 8
            }
            .mem_addr(),
            Some(0x40)
        );
        assert_eq!(
            Inst::Store {
                addr: 0x80,
                bytes: 4
            }
            .mem_addr(),
            Some(0x80)
        );
        assert_eq!(Inst::IntAlu.mem_addr(), None);
        assert_eq!(Inst::Branch { taken: false }.mem_addr(), None);
    }

    #[test]
    fn direction_reverse_is_involution() {
        for d in [
            TransferDirection::HostToDevice,
            TransferDirection::DeviceToHost,
        ] {
            assert_eq!(d.reverse().reverse(), d);
            assert_ne!(d.reverse(), d);
        }
    }

    #[test]
    fn display_strings_are_stable() {
        assert_eq!(TransferDirection::HostToDevice.to_string(), "H2D");
        assert_eq!(CacheLevel::SharedLlc.to_string(), "shared-LLC");
        assert_eq!(MemSpace::Shared.to_string(), "shared");
        assert_eq!(CommKind::InitialInput.to_string(), "initial-input");
    }
}
