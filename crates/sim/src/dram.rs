//! DDR3-1333 DRAM model (Table II: 4 controllers, 41.6 GB/s, FR-FCFS).
//!
//! Each channel has independent banks with open-row state. Under the
//! baseline [`DramPolicy::FrFcfs`] policy rows stay open, so consecutive
//! accesses to the same row pay only CAS latency — the "first-ready" half of
//! FR-FCFS. (Because the trace-driven cores issue requests in near-global
//! time order, the *reordering* half contributes little and is approximated
//! by the open-row state; the FCFS ablation closes the row after every
//! access.) The data burst occupies the channel, which is what caps the
//! aggregate bandwidth at the configured ~41.6 GB/s.

use crate::clock::{ClockDomain, Tick};
use crate::config::{DramConfig, DramPolicy};

/// Counters for the DRAM subsystem.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Read requests serviced.
    pub reads: u64,
    /// Write requests serviced.
    pub writes: u64,
    /// Requests that hit an open row.
    pub row_hits: u64,
    /// Requests that required activate (and possibly precharge).
    pub row_misses: u64,
    /// Total ticks the channels' data buses were busy (for bandwidth
    /// accounting).
    pub bus_busy_ticks: u64,
}

impl DramStats {
    /// Row-hit rate in `[0, 1]`; zero with no traffic.
    #[must_use]
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Bank {
    open_row: Option<u64>,
    free_at: Tick,
}

#[derive(Clone, Debug)]
struct Channel {
    banks: Vec<Bank>,
    bus_free_at: Tick,
}

/// The DRAM subsystem: address-interleaved channels of banked DDR3.
#[derive(Clone, Debug)]
pub struct Dram {
    channels: Vec<Channel>,
    config: DramConfig,
    stats: DramStats,
}

/// Completion information for one DRAM request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DramResponse {
    /// Tick at which the requested line is available (reads) or accepted
    /// (writes).
    pub done_at: Tick,
    /// Whether the request hit the open row.
    pub row_hit: bool,
}

impl Dram {
    /// Creates the DRAM subsystem.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero channels or banks.
    #[must_use]
    pub fn new(config: &DramConfig) -> Dram {
        assert!(
            config.channels > 0 && config.banks_per_channel > 0,
            "degenerate DRAM geometry"
        );
        let channel = Channel {
            banks: vec![Bank::default(); config.banks_per_channel as usize],
            bus_free_at: 0,
        };
        Dram {
            channels: vec![channel; config.channels as usize],
            config: *config,
            stats: DramStats::default(),
        }
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// The latest tick any bank or channel bus is busy until. A request
    /// arriving at or after it sees an idle DRAM, so its timing depends
    /// only on the open rows, not on when earlier requests ran.
    #[must_use]
    pub(crate) fn horizon(&self) -> Tick {
        self.channels
            .iter()
            .flat_map(|ch| ch.banks.iter().map(|b| b.free_at).chain([ch.bus_free_at]))
            .max()
            .unwrap_or(0)
    }

    /// Closes every row, frees every bus, and zeroes the counters
    /// (power-on state).
    pub fn reset(&mut self) {
        for channel in &mut self.channels {
            channel.bus_free_at = 0;
            for bank in &mut channel.banks {
                *bank = Bank::default();
            }
        }
        self.stats = DramStats::default();
    }

    fn map(&self, addr: u64) -> (usize, usize, u64) {
        // Line-interleaved channels, bank bits above, row above that — the
        // classic scheme that spreads streams across channels and banks.
        let line = addr / 64;
        let channel = (line % u64::from(self.config.channels)) as usize;
        let bank_space = line / u64::from(self.config.channels);
        let bank = (bank_space % u64::from(self.config.banks_per_channel)) as usize;
        let row = addr / self.config.row_bytes;
        (channel, bank, row)
    }

    /// Services a 64-byte line request arriving at `arrival`.
    pub fn request(&mut self, arrival: Tick, addr: u64, write: bool) -> DramResponse {
        let (ch_idx, bank_idx, row) = self.map(addr);
        let cfg = self.config;
        let ch = &mut self.channels[ch_idx];
        let bank = &mut ch.banks[bank_idx];

        let start = arrival.max(bank.free_at);

        let (access_cycles, row_hit) = match cfg.policy {
            DramPolicy::FrFcfs => match bank.open_row {
                Some(open) if open == row => (cfg.cas_cycles, true),
                Some(_) => (cfg.rp_cycles + cfg.rcd_cycles + cfg.cas_cycles, false),
                None => (cfg.rcd_cycles + cfg.cas_cycles, false),
            },
            // Closed-page FCFS: every access activates; auto-precharge is
            // overlapped after the burst.
            DramPolicy::Fcfs => (cfg.rcd_cycles + cfg.cas_cycles, false),
        };

        let access_ticks = ClockDomain::DRAM.cycles_to_ticks(access_cycles);
        let burst_ticks = ClockDomain::DRAM.cycles_to_ticks(cfg.burst_cycles);
        // Bank timing can overlap other requests; only the data burst
        // serializes on the channel bus.
        let data_start = (start + access_ticks).max(ch.bus_free_at);
        let done_at = data_start + burst_ticks;

        bank.open_row = match cfg.policy {
            DramPolicy::FrFcfs => Some(row),
            DramPolicy::Fcfs => None,
        };
        bank.free_at = done_at;
        // The data bus is occupied only for the burst.
        ch.bus_free_at = done_at;

        self.stats.bus_busy_ticks += burst_ticks;
        if write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        if row_hit {
            self.stats.row_hits += 1;
        } else {
            self.stats.row_misses += 1;
        }

        DramResponse { done_at, row_hit }
    }

    /// Idle read latency (no contention, row miss) in ticks — useful as a
    /// sanity reference in tests and reports.
    #[must_use]
    pub fn idle_latency_ticks(&self) -> Tick {
        ClockDomain::DRAM.cycles_to_ticks(
            self.config.rcd_cycles + self.config.cas_cycles + self.config.burst_cycles,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram(policy: DramPolicy) -> Dram {
        Dram::new(&DramConfig {
            policy,
            ..DramConfig::default()
        })
    }

    #[test]
    fn idle_latency_is_about_33ns() {
        // RCD(9) + CAS(9) + burst(4) = 22 bus cycles × 1.5 ns = 33 ns.
        let d = dram(DramPolicy::FrFcfs);
        let ns = crate::clock::ticks_to_ns(d.idle_latency_ticks());
        assert!((ns - 33.0).abs() < 0.5, "{ns} ns");
    }

    #[test]
    fn open_row_makes_second_access_faster() {
        let mut d = dram(DramPolicy::FrFcfs);
        let a = d.request(0, 0x0, false);
        assert!(!a.row_hit);
        // An unrelated same-channel access on another bank in between.
        let b = d.request(a.done_at, 1024, false);
        // An address mapping to channel 0, bank 0, same row as `a`:
        // line-interleave: line % 4 == 0 and (line/4) % 8 == 0 → line ≡ 0 (mod 32),
        // i.e. addr multiple of 2048, within the same 8 KB row.
        let c = d.request(b.done_at.max(a.done_at), 2048, false);
        assert!(c.row_hit);
        let hit_lat = c.done_at - b.done_at.max(a.done_at);
        let miss_lat = a.done_at;
        assert!(hit_lat < miss_lat, "hit {hit_lat} vs miss {miss_lat}");
    }

    #[test]
    fn fcfs_never_row_hits() {
        let mut d = dram(DramPolicy::Fcfs);
        let mut t = 0;
        for _ in 0..10 {
            let r = d.request(t, 2048, false);
            assert!(!r.row_hit);
            t = r.done_at;
        }
        assert_eq!(d.stats().row_hits, 0);
        assert_eq!(d.stats().row_misses, 10);
    }

    #[test]
    fn channel_contention_serializes_bursts() {
        let mut d = dram(DramPolicy::FrFcfs);
        // Two simultaneous requests to the same channel (lines 0 and 4 both
        // map to channel 0) must serialize on the data bus.
        let a = d.request(0, 0, false);
        let b = d.request(0, 64 * 4 * 8, false); // same channel, different bank
        assert!(b.done_at > a.done_at);
    }

    #[test]
    fn different_channels_overlap() {
        let mut d = dram(DramPolicy::FrFcfs);
        let a = d.request(0, 0, false); // channel 0
        let b = d.request(0, 64, false); // channel 1
                                         // Identical timing: full overlap across channels.
        assert_eq!(a.done_at, b.done_at);
    }

    #[test]
    fn streaming_bandwidth_near_configured_peak() {
        let mut d = dram(DramPolicy::FrFcfs);
        // Saturate: back-to-back line reads across all channels.
        let lines = 4096u64;
        let mut done = 0;
        for i in 0..lines {
            done = d.request(0, i * 64, false).done_at.max(done);
        }
        let ns = crate::clock::ticks_to_ns(done);
        let gbps = (lines * 64) as f64 / ns; // bytes per ns = GB/s
        assert!(
            gbps > 30.0 && gbps < 45.0,
            "streaming bandwidth {gbps} GB/s"
        );
    }

    #[test]
    fn stats_count_reads_and_writes() {
        let mut d = dram(DramPolicy::FrFcfs);
        d.request(0, 0, false);
        d.request(0, 64, true);
        assert_eq!(d.stats().reads, 1);
        assert_eq!(d.stats().writes, 1);
    }
}
