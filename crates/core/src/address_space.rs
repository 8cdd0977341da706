//! The idealized communication model used for the memory-space isolation
//! experiment (Figure 7) over the four address-space design options
//! (§II-A). What each option makes a program write is lowered and checked
//! in `hetmem_dsl`.

use hetmem_dsl::AddressSpace;
use hetmem_sim::{CommAction, CommCostClass, CommCosts, CommModel};
use hetmem_trace::CommEvent;

/// The Figure 7 communication model: an idealized fabric (all systems share
/// the cache, transfers are free) so that only the *instruction* overhead
/// each address space adds remains — the point of the experiment being that
/// this overhead is negligible and the address-space choice by itself does
/// not affect performance.
#[derive(Clone, Copy, Debug)]
pub struct IdealSpaceComm {
    kind: AddressSpace,
    costs: CommCosts,
}

impl IdealSpaceComm {
    /// Creates the model for `kind` with Table IV instruction costs.
    #[must_use]
    pub fn new(kind: AddressSpace, costs: CommCosts) -> IdealSpaceComm {
        IdealSpaceComm { kind, costs }
    }

    /// The per-event instruction overhead in CPU cycles.
    #[must_use]
    pub fn overhead_cycles(&self) -> u64 {
        match self.kind {
            // No API call at all.
            AddressSpace::Unified => 0,
            // Release + acquire pair around the use of the shared object.
            AddressSpace::PartiallyShared => 2 * self.costs.api_acq_cycles,
            // A memcpy API call whose copy is free through the shared cache.
            AddressSpace::Disjoint => 2 * self.costs.alloc_cycles,
            // One ownership-style transition plus the return sync.
            AddressSpace::Adsm => self.costs.api_acq_cycles + self.costs.sync_cycles,
        }
    }
}

impl CommModel for IdealSpaceComm {
    fn cost_class(&self, _event: &CommEvent) -> CommCostClass {
        match self.overhead_cycles() {
            0 => CommCostClass::Elided,
            // Every non-unified space pays API-call-shaped instruction
            // overhead; `api-acq` is the representative class.
            _ => CommCostClass::ApiAcq,
        }
    }

    fn plan(&mut self, _event: &CommEvent) -> CommAction {
        match self.overhead_cycles() {
            0 => CommAction::Elide,
            cycles => CommAction::Synchronous {
                ticks: self.costs.cpu_cycles_ticks(cycles),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetmem_trace::{CommKind, TransferDirection};

    #[test]
    fn ideal_space_overheads_are_tiny_and_ordered() {
        let costs = CommCosts::paper();
        let oh = |k| IdealSpaceComm::new(k, costs).overhead_cycles();
        assert_eq!(oh(AddressSpace::Unified), 0);
        assert!(oh(AddressSpace::PartiallyShared) > 0);
        // All overheads are orders of magnitude below a real PCI transfer.
        for k in AddressSpace::ALL {
            assert!(oh(k) < costs.api_pci_cycles / 10, "{k}");
        }
    }

    #[test]
    fn ideal_space_model_plans_accordingly() {
        let costs = CommCosts::paper();
        let ev = CommEvent {
            direction: TransferDirection::HostToDevice,
            bytes: 1 << 20,
            kind: CommKind::InitialInput,
            addr: 0,
        };
        let mut uni = IdealSpaceComm::new(AddressSpace::Unified, costs);
        assert_eq!(uni.plan(&ev), CommAction::Elide);
        let mut pas = IdealSpaceComm::new(AddressSpace::PartiallyShared, costs);
        match pas.plan(&ev) {
            CommAction::Synchronous { ticks } => {
                assert_eq!(ticks, costs.cpu_cycles_ticks(2 * costs.api_acq_cycles));
            }
            other => panic!("expected synchronous, got {other:?}"),
        }
    }
}
