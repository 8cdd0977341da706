//! Communication fabrics and programming-model operation costs (Table IV).
//!
//! The paper models programming-model effects with special instructions
//! whose latency is a design-point parameter: `api-pci` (a PCI-E memcpy,
//! 33250 cycles + bytes at 16 GB/s), `api-acq` (ownership acquire, 1000),
//! `api-tr` (partially-shared-space transfer, 7000), and `lib-pf` (page
//! fault, 42000). This module holds those constants, the hardware fabrics
//! that realize bulk transfers, and the [`CommModel`] hook through which a
//! design point (in `hetmem-core`) decides what each semantic communication
//! event actually costs.

use crate::clock::{ClockDomain, Tick, TICKS_PER_SECOND};
use hetmem_trace::{CommEvent, SpecialOp};

/// Latency parameters for communication and programming-model operations.
///
/// The first four fields are Table IV verbatim (in CPU cycles); the rest are
/// modelling constants for operations the paper uses but does not tabulate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommCosts {
    /// `api-pci`: fixed cost of a PCI-E memcpy call (CPU cycles).
    pub api_pci_cycles: u64,
    /// PCI-E 2.0 transfer rate (`trans_rate`), bytes per second.
    pub pci_bytes_per_sec: u64,
    /// `api-acq`: ownership acquire/release action (CPU cycles).
    pub api_acq_cycles: u64,
    /// `api-tr`: data transfer in the partially shared space (CPU cycles).
    pub api_tr_cycles: u64,
    /// `lib-pf`: page-fault handling cost (CPU cycles).
    pub lib_pf_cycles: u64,
    /// Setup cost of a memory-controller (Fusion-style) copy (CPU cycles).
    pub memctl_setup_cycles: u64,
    /// Effective memory-controller copy rate, bytes per second (a copy is a
    /// read plus a write through the controllers, so roughly half of the
    /// 41.6 GB/s aggregate).
    pub memctl_bytes_per_sec: u64,
    /// Kernel-launch overhead (CPU cycles).
    pub kernel_launch_cycles: u64,
    /// Synchronization/barrier overhead (CPU cycles).
    pub sync_cycles: u64,
    /// Allocation / free bookkeeping (CPU cycles).
    pub alloc_cycles: u64,
    /// Per-line issue cost of an explicit locality `push` (cycles of the
    /// pushing PU's clock).
    pub push_cycles_per_line: u64,
}

impl Default for CommCosts {
    fn default() -> CommCosts {
        CommCosts {
            api_pci_cycles: 33_250,
            pci_bytes_per_sec: 16_000_000_000,
            api_acq_cycles: 1_000,
            api_tr_cycles: 7_000,
            lib_pf_cycles: 42_000,
            memctl_setup_cycles: 500,
            memctl_bytes_per_sec: 20_800_000_000,
            kernel_launch_cycles: 1_000,
            sync_cycles: 100,
            alloc_cycles: 200,
            push_cycles_per_line: 1,
        }
    }
}

impl CommCosts {
    /// The paper's Table IV parameters (alias of `Default`).
    #[must_use]
    pub fn paper() -> CommCosts {
        CommCosts::default()
    }

    /// Converts a CPU-cycle cost to ticks.
    #[must_use]
    pub fn cpu_cycles_ticks(&self, cycles: u64) -> Tick {
        ClockDomain::CPU.cycles_to_ticks(cycles)
    }

    /// Ticks needed to move `bytes` at `bytes_per_sec`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is zero.
    #[must_use]
    pub fn bytes_ticks(bytes: u64, bytes_per_sec: u64) -> Tick {
        assert!(bytes_per_sec > 0, "transfer rate must be non-zero");
        // bytes / (bytes/s) seconds × ticks/s, computed without overflow for
        // realistic sizes (bytes < 2^40).
        bytes.saturating_mul(TICKS_PER_SECOND) / bytes_per_sec
    }

    /// The serializing cost of a [`SpecialOp`] when executed by a core, in
    /// ticks. `Push` returns only the per-line issue cost; the actual cache
    /// placement is performed by the core against the hierarchy.
    #[must_use]
    pub fn special_ticks(&self, op: &SpecialOp) -> Tick {
        let cycles = match op {
            SpecialOp::Acquire { .. } | SpecialOp::Release { .. } => self.api_acq_cycles,
            SpecialOp::PageFault { .. } => self.lib_pf_cycles,
            SpecialOp::Push { bytes, .. } => {
                let lines = bytes.div_ceil(64).max(1);
                self.push_cycles_per_line * lines
            }
            SpecialOp::KernelLaunch => self.kernel_launch_cycles,
            SpecialOp::Sync => self.sync_cycles,
            SpecialOp::Alloc { .. } | SpecialOp::Free { .. } => self.alloc_cycles,
        };
        self.cpu_cycles_ticks(cycles)
    }
}

/// The hardware mechanisms that can move data between the PUs' memories.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FabricKind {
    /// A PCI-Express 2.0 link driven by memcpy APIs (`api-pci`).
    PciExpress,
    /// The PCI aperture: a pinned shared window with cheap asynchronous
    /// copies (`api-tr`), as used by the LRB programming model.
    PciAperture,
    /// An on-chip copy through the memory controllers (Fusion-style).
    MemoryController,
    /// An idealized fabric with zero transfer cost (IDEAL-HETERO).
    Ideal,
}

impl FabricKind {
    /// All fabrics, in rough order of decreasing cost.
    pub const ALL: [FabricKind; 4] = [
        FabricKind::PciExpress,
        FabricKind::PciAperture,
        FabricKind::MemoryController,
        FabricKind::Ideal,
    ];

    /// End-to-end ticks to move `bytes` across this fabric.
    #[must_use]
    pub fn transfer_ticks(self, bytes: u64, costs: &CommCosts) -> Tick {
        match self {
            FabricKind::PciExpress => {
                costs.cpu_cycles_ticks(costs.api_pci_cycles)
                    + CommCosts::bytes_ticks(bytes, costs.pci_bytes_per_sec)
            }
            FabricKind::PciAperture => {
                costs.cpu_cycles_ticks(costs.api_tr_cycles)
                    + CommCosts::bytes_ticks(bytes, costs.pci_bytes_per_sec)
            }
            FabricKind::MemoryController => {
                costs.cpu_cycles_ticks(costs.memctl_setup_cycles)
                    + CommCosts::bytes_ticks(bytes, costs.memctl_bytes_per_sec)
            }
            FabricKind::Ideal => 0,
        }
    }
}

/// The Table IV cost class that dominates one communication action — the
/// label observability attaches to every planned transfer so event traces
/// can be reconciled against the paper's cost taxonomy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CommCostClass {
    /// `api-pci`: a PCI-E memcpy API call.
    ApiPci,
    /// `api-tr`: a transfer within the partially shared window.
    ApiTr,
    /// `api-acq`: an ownership acquire/release action.
    ApiAcq,
    /// `lib-pf`: first-touch page-fault handling.
    LibPf,
    /// An on-chip memory-controller copy (Fusion-style).
    MemCtl,
    /// No cost: the shared address space elides the transfer.
    Elided,
    /// The model did not classify the event.
    Unclassified,
}

impl CommCostClass {
    /// Short machine-readable name (matches the paper's spelling where one
    /// exists).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CommCostClass::ApiPci => "api-pci",
            CommCostClass::ApiTr => "api-tr",
            CommCostClass::ApiAcq => "api-acq",
            CommCostClass::LibPf => "lib-pf",
            CommCostClass::MemCtl => "memctl",
            CommCostClass::Elided => "elided",
            CommCostClass::Unclassified => "unclassified",
        }
    }
}

impl std::fmt::Display for CommCostClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl FabricKind {
    /// The cost class a plain transfer over this fabric falls under.
    #[must_use]
    pub fn cost_class(self) -> CommCostClass {
        match self {
            FabricKind::PciExpress => CommCostClass::ApiPci,
            FabricKind::PciAperture => CommCostClass::ApiTr,
            FabricKind::MemoryController => CommCostClass::MemCtl,
            FabricKind::Ideal => CommCostClass::Elided,
        }
    }
}

impl std::fmt::Display for FabricKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricKind::PciExpress => f.write_str("PCI-E"),
            FabricKind::PciAperture => f.write_str("PCI aperture"),
            FabricKind::MemoryController => f.write_str("memory controller"),
            FabricKind::Ideal => f.write_str("ideal"),
        }
    }
}

/// How a design point realizes one semantic communication event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommAction {
    /// No transfer needed: the data is already addressable by the consumer
    /// (shared address space).
    Elide,
    /// A blocking transfer of the given duration.
    Synchronous {
        /// Total ticks the host is blocked.
        ticks: Tick,
    },
    /// An overlapped transfer: the host pays `setup` and continues; the data
    /// is available `transfer` ticks after the setup completes (GMAC-style
    /// asynchronous copies).
    Asynchronous {
        /// Host-side blocking setup ticks.
        setup: Tick,
        /// Background transfer ticks after setup.
        transfer: Tick,
    },
}

/// A design point's policy for realizing communication events.
///
/// Implemented in `hetmem-core` per memory-model design point; the simulator
/// only executes the resulting actions.
pub trait CommModel {
    /// Decide how `event` is realized. Called once per dynamic event in
    /// trace order, so implementations may track first-touch state (e.g. for
    /// `lib-pf` page faults).
    fn plan(&mut self, event: &CommEvent) -> CommAction;

    /// The Table IV cost class the *next* [`CommModel::plan`] call for
    /// `event` would fall under. Observability queries this immediately
    /// before `plan` (which may mutate first-touch state), so it must not
    /// mutate. The default leaves events unclassified.
    fn cost_class(&self, event: &CommEvent) -> CommCostClass {
        let _ = event;
        CommCostClass::Unclassified
    }
}

/// A boxed model plans exactly like the model it holds, so callers that pick
/// a model at run time can hand it to [`crate::SimulationBuilder::comm_model`].
impl<M: CommModel + ?Sized> CommModel for Box<M> {
    fn plan(&mut self, event: &CommEvent) -> CommAction {
        (**self).plan(event)
    }

    fn cost_class(&self, event: &CommEvent) -> CommCostClass {
        (**self).cost_class(event)
    }
}

/// The simplest model: every event is a synchronous transfer over one
/// fabric. This is the CPU+GPU (CUDA) disjoint-memory behaviour when used
/// with [`FabricKind::PciExpress`].
#[derive(Clone, Copy, Debug)]
pub struct SynchronousFabric {
    /// The fabric used for every transfer.
    pub fabric: FabricKind,
    /// Latency parameters.
    pub costs: CommCosts,
}

impl SynchronousFabric {
    /// Creates the model.
    #[must_use]
    pub fn new(fabric: FabricKind, costs: CommCosts) -> SynchronousFabric {
        SynchronousFabric { fabric, costs }
    }
}

impl CommModel for SynchronousFabric {
    fn plan(&mut self, event: &CommEvent) -> CommAction {
        match self.fabric {
            FabricKind::Ideal => CommAction::Elide,
            f => CommAction::Synchronous {
                ticks: f.transfer_ticks(event.bytes, &self.costs),
            },
        }
    }

    fn cost_class(&self, _event: &CommEvent) -> CommCostClass {
        self.fabric.cost_class()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetmem_trace::{CommKind, TransferDirection};

    fn event(bytes: u64) -> CommEvent {
        CommEvent {
            direction: TransferDirection::HostToDevice,
            bytes,
            kind: CommKind::InitialInput,
            addr: 0,
        }
    }

    #[test]
    fn table_iv_defaults() {
        let c = CommCosts::paper();
        assert_eq!(c.api_pci_cycles, 33_250);
        assert_eq!(c.api_acq_cycles, 1_000);
        assert_eq!(c.api_tr_cycles, 7_000);
        assert_eq!(c.lib_pf_cycles, 42_000);
        assert_eq!(c.pci_bytes_per_sec, 16_000_000_000);
    }

    #[test]
    fn pci_transfer_cost_matches_hand_computation() {
        let c = CommCosts::paper();
        // 320512 bytes at 16 GB/s = 20.032 µs = 841344 ticks; setup
        // 33250 CPU cycles = 399000 ticks.
        let t = FabricKind::PciExpress.transfer_ticks(320_512, &c);
        assert_eq!(t, 399_000 + 841_344);
    }

    #[test]
    fn fabric_cost_ordering() {
        let c = CommCosts::paper();
        let bytes = 65_536;
        let pci = FabricKind::PciExpress.transfer_ticks(bytes, &c);
        let ap = FabricKind::PciAperture.transfer_ticks(bytes, &c);
        let mc = FabricKind::MemoryController.transfer_ticks(bytes, &c);
        let ideal = FabricKind::Ideal.transfer_ticks(bytes, &c);
        assert!(pci > ap, "aperture avoids the heavyweight memcpy setup");
        assert!(ap > mc, "on-chip copies beat PCI");
        assert_eq!(ideal, 0);
    }

    #[test]
    fn zero_byte_transfer_still_pays_setup() {
        let c = CommCosts::paper();
        assert_eq!(
            FabricKind::PciExpress.transfer_ticks(0, &c),
            c.cpu_cycles_ticks(c.api_pci_cycles)
        );
    }

    #[test]
    fn special_op_costs() {
        let c = CommCosts::paper();
        assert_eq!(
            c.special_ticks(&SpecialOp::Acquire { addr: 0, bytes: 64 }),
            c.cpu_cycles_ticks(1000)
        );
        assert_eq!(
            c.special_ticks(&SpecialOp::PageFault { addr: 0 }),
            c.cpu_cycles_ticks(42_000)
        );
        // Push of 1 KiB = 16 lines at 1 cycle each.
        assert_eq!(
            c.special_ticks(&SpecialOp::Push {
                level: hetmem_trace::CacheLevel::SharedLlc,
                addr: 0,
                bytes: 1024
            }),
            c.cpu_cycles_ticks(16)
        );
    }

    #[test]
    fn synchronous_fabric_model_plans_blocking_transfers() {
        let mut m = SynchronousFabric::new(FabricKind::PciExpress, CommCosts::paper());
        match m.plan(&event(1024)) {
            CommAction::Synchronous { ticks } => assert!(ticks > 0),
            other => panic!("expected synchronous, got {other:?}"),
        }
        let mut ideal = SynchronousFabric::new(FabricKind::Ideal, CommCosts::paper());
        assert_eq!(ideal.plan(&event(1024)), CommAction::Elide);
    }

    #[test]
    fn fabrics_map_to_table_iv_cost_classes() {
        assert_eq!(FabricKind::PciExpress.cost_class(), CommCostClass::ApiPci);
        assert_eq!(FabricKind::PciAperture.cost_class(), CommCostClass::ApiTr);
        assert_eq!(
            FabricKind::MemoryController.cost_class(),
            CommCostClass::MemCtl
        );
        assert_eq!(FabricKind::Ideal.cost_class(), CommCostClass::Elided);
        assert_eq!(CommCostClass::ApiPci.name(), "api-pci");
        let m = SynchronousFabric::new(FabricKind::PciAperture, CommCosts::paper());
        assert_eq!(m.cost_class(&event(64)), CommCostClass::ApiTr);
    }
}
