//! The on-chip interconnect between the PUs and the LLC tiles.
//!
//! The baseline is Table II's ring bus: the two PUs and the four LLC tiles
//! sit on a six-stop ring (`CPU, tile0, tile1, GPU, tile2, tile3`) and a
//! request pays the per-hop latency for the shorter way around. Two
//! alternative topologies from the design space (Table I's "Connection"
//! column) are also modelled: a full **crossbar** (flat one-hop latency)
//! and a single shared **bus** (one hop, but every transfer serializes on
//! the medium).

use crate::clock::{ClockDomain, Tick};
use crate::config::{NocConfig, NocTopology};
use hetmem_trace::PuKind;

/// Number of stops on the baseline ring (2 PUs + 4 LLC tiles).
pub const RING_STOPS: u32 = 6;

/// The interconnect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interconnect {
    topology: NocTopology,
    hop_cycles: u64,
    bus_occupancy_cycles: u64,
    bus_free_at: Tick,
    transfers: u64,
    bus_wait_ticks: u64,
}

/// The baseline ring interconnect (alias kept for the Table II wording).
pub type RingBus = Interconnect;

impl Interconnect {
    /// Creates the interconnect from its configuration.
    #[must_use]
    pub fn new(config: &NocConfig) -> Interconnect {
        Interconnect {
            topology: config.topology,
            hop_cycles: config.hop_cycles,
            bus_occupancy_cycles: config.bus_occupancy_cycles,
            bus_free_at: 0,
            transfers: 0,
            bus_wait_ticks: 0,
        }
    }

    /// The tick the shared bus medium is busy until (always 0 for the ring
    /// and crossbar, whose traversals never wait).
    #[must_use]
    pub(crate) fn horizon(&self) -> Tick {
        self.bus_free_at
    }

    /// Frees the bus and zeroes the counters (power-on state).
    pub fn reset(&mut self) {
        self.bus_free_at = 0;
        self.transfers = 0;
        self.bus_wait_ticks = 0;
    }

    fn pu_stop(pu: PuKind) -> u32 {
        match pu {
            PuKind::Cpu => 0,
            PuKind::Gpu => 3,
        }
    }

    fn tile_stop(tile: u32) -> u32 {
        match tile {
            0 => 1,
            1 => 2,
            2 => 4,
            3 => 5,
            _ => panic!("baseline ring has 4 LLC tiles, got tile {tile}"),
        }
    }

    /// Ring distance in hops between a PU and an LLC tile.
    ///
    /// # Panics
    ///
    /// Panics if `tile >= 4`.
    #[must_use]
    pub fn hops(pu: PuKind, tile: u32) -> u32 {
        let a = Interconnect::pu_stop(pu);
        let b = Interconnect::tile_stop(tile);
        let d = a.abs_diff(b);
        d.min(RING_STOPS - d)
    }

    /// Contention-free one-way traversal latency from `pu` to `tile`, in
    /// global ticks. Used for cost estimates (e.g. coherence interventions)
    /// where queueing is second-order.
    #[must_use]
    pub fn traverse_ticks(&self, pu: PuKind, tile: u32) -> Tick {
        let hops = match self.topology {
            NocTopology::Ring => u64::from(Interconnect::hops(pu, tile)),
            NocTopology::Crossbar | NocTopology::Bus => 1,
        };
        ClockDomain::CPU.cycles_to_ticks(hops * self.hop_cycles)
    }

    /// Performs a one-way traversal starting at `now`, including medium
    /// contention for the bus topology. Returns the latency in ticks.
    pub fn traverse(&mut self, pu: PuKind, tile: u32, now: Tick) -> Tick {
        self.transfers += 1;
        let wire = self.traverse_ticks(pu, tile);
        match self.topology {
            NocTopology::Ring | NocTopology::Crossbar => wire,
            NocTopology::Bus => {
                let start = now.max(self.bus_free_at);
                let wait = start - now;
                self.bus_wait_ticks += wait;
                let occupancy = ClockDomain::CPU.cycles_to_ticks(self.bus_occupancy_cycles);
                self.bus_free_at = start + occupancy;
                wait + wire + occupancy
            }
        }
    }

    /// (transfers performed, ticks spent waiting for the bus).
    #[must_use]
    pub fn contention_stats(&self) -> (u64, u64) {
        (self.transfers, self.bus_wait_ticks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(topology: NocTopology) -> NocConfig {
        NocConfig {
            topology,
            ..NocConfig::default()
        }
    }

    #[test]
    fn distances_are_symmetric_and_short() {
        // CPU (stop 0) to tile0 (stop 1): 1 hop; to tile3 (stop 5): 1 hop
        // the short way round.
        assert_eq!(Interconnect::hops(PuKind::Cpu, 0), 1);
        assert_eq!(Interconnect::hops(PuKind::Cpu, 1), 2);
        assert_eq!(Interconnect::hops(PuKind::Cpu, 2), 2);
        assert_eq!(Interconnect::hops(PuKind::Cpu, 3), 1);
        // GPU (stop 3) neighbours tiles 1 (stop 2) and 2 (stop 4).
        assert_eq!(Interconnect::hops(PuKind::Gpu, 1), 1);
        assert_eq!(Interconnect::hops(PuKind::Gpu, 2), 1);
        assert_eq!(Interconnect::hops(PuKind::Gpu, 0), 2);
        assert_eq!(Interconnect::hops(PuKind::Gpu, 3), 2);
    }

    #[test]
    fn no_hop_exceeds_half_the_ring() {
        for pu in PuKind::ALL {
            for tile in 0..4 {
                assert!(Interconnect::hops(pu, tile) <= RING_STOPS / 2);
            }
        }
    }

    #[test]
    fn ring_latency_scales_with_hops() {
        let ring = Interconnect::new(&cfg(NocTopology::Ring));
        let one_hop = ring.traverse_ticks(PuKind::Cpu, 0);
        let two_hop = ring.traverse_ticks(PuKind::Cpu, 1);
        assert_eq!(two_hop, 2 * one_hop);
        assert_eq!(one_hop, ClockDomain::CPU.cycles_to_ticks(2));
    }

    #[test]
    fn crossbar_latency_is_flat() {
        let xbar = Interconnect::new(&cfg(NocTopology::Crossbar));
        let lat: Vec<Tick> = (0..4)
            .map(|t| xbar.traverse_ticks(PuKind::Cpu, t))
            .collect();
        assert!(lat.windows(2).all(|w| w[0] == w[1]));
        // And never slower than the ring's best case.
        let ring = Interconnect::new(&cfg(NocTopology::Ring));
        assert!(lat[1] < ring.traverse_ticks(PuKind::Cpu, 1));
    }

    #[test]
    fn bus_serializes_concurrent_transfers() {
        let mut bus = Interconnect::new(&cfg(NocTopology::Bus));
        let first = bus.traverse(PuKind::Cpu, 0, 0);
        let second = bus.traverse(PuKind::Gpu, 1, 0);
        assert!(second > first, "second transfer waits for the medium");
        let (transfers, waited) = bus.contention_stats();
        assert_eq!(transfers, 2);
        assert!(waited > 0);
        // After the bus drains, latency returns to the uncontended value.
        let later = bus.traverse(PuKind::Cpu, 0, 1_000_000);
        assert_eq!(later, first);
    }

    #[test]
    fn ring_and_crossbar_have_no_contention() {
        for topo in [NocTopology::Ring, NocTopology::Crossbar] {
            let mut ic = Interconnect::new(&cfg(topo));
            let a = ic.traverse(PuKind::Cpu, 0, 0);
            let b = ic.traverse(PuKind::Cpu, 0, 0);
            assert_eq!(a, b, "{topo:?}");
            assert_eq!(ic.contention_stats().1, 0);
        }
    }

    #[test]
    #[should_panic(expected = "4 LLC tiles")]
    fn invalid_tile_panics() {
        let _ = Interconnect::hops(PuKind::Cpu, 4);
    }
}
