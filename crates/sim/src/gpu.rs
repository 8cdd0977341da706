//! The in-order SIMD GPU core model (Table II: 1.5 GHz, in-order, 8-wide
//! SIMD, stall on branch, 16 KB software-managed cache).
//!
//! The core issues one (possibly 8-wide) instruction per cycle in order,
//! stalls on every branch (no predictor), and stalls for the full memory
//! latency on loads that miss — the throughput-versus-latency contrast with
//! the OoO CPU that drives the paper's parallel-phase behaviour. The
//! software-managed scratchpad holds explicitly `push`ed regions and
//! services them at near-register latency.

use crate::clock::{ClockDomain, Tick};
use crate::config::GpuConfig;
use crate::fabric::CommCosts;
use crate::hierarchy::MemoryHierarchy;
use crate::obs::SimObserver;
use hetmem_trace::{CacheLevel, Cursor, Inst, PuKind, SpecialOp, TraceStream};

/// Cycle-accounting statistics for the GPU core.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GpuStats {
    /// Dynamic instructions executed.
    pub instructions: u64,
    /// Branch-stall cycles paid (the GPU has no predictor).
    pub branch_stall_cycles: u64,
    /// Loads serviced by the scratchpad.
    pub scratchpad_hits: u64,
    /// Loads that went to the cache hierarchy.
    pub memory_loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Ticks stalled waiting on memory.
    pub memory_stall_ticks: u64,
    /// Special (programming-model) operations executed.
    pub special_ops: u64,
}

/// The software-managed scratchpad: a set of explicitly mapped regions with
/// FIFO replacement when capacity is exceeded.
#[derive(Clone, Debug, Default)]
pub struct Scratchpad {
    regions: Vec<(u64, u64)>, // (start, end)
    capacity: u64,
}

impl Scratchpad {
    /// Creates a scratchpad of `capacity` bytes.
    #[must_use]
    pub fn new(capacity: u64) -> Scratchpad {
        Scratchpad {
            regions: Vec::new(),
            capacity,
        }
    }

    /// Bytes currently mapped.
    #[must_use]
    pub fn used(&self) -> u64 {
        self.regions.iter().map(|(s, e)| e - s).sum()
    }

    /// Whether `addr` falls in a mapped region.
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        self.regions.iter().any(|&(s, e)| (s..e).contains(&addr))
    }

    /// Maps `[addr, addr + bytes)`, evicting the oldest regions FIFO until
    /// it fits. Regions larger than the capacity are truncated to capacity.
    pub fn map(&mut self, addr: u64, bytes: u64) {
        let bytes = bytes.min(self.capacity);
        if bytes == 0 {
            return;
        }
        while self.used() + bytes > self.capacity && !self.regions.is_empty() {
            self.regions.remove(0);
        }
        self.regions.push((addr, addr + bytes));
    }

    /// Unmaps everything.
    pub fn clear(&mut self) {
        self.regions.clear();
    }
}

/// The persistent GPU core.
#[derive(Clone, Debug)]
pub struct GpuCore {
    config: GpuConfig,
    costs: CommCosts,
    scratchpad: Scratchpad,
    stats: GpuStats,
}

impl GpuCore {
    /// Creates a core.
    #[must_use]
    pub fn new(config: &GpuConfig, costs: CommCosts) -> GpuCore {
        GpuCore {
            config: *config,
            costs,
            scratchpad: Scratchpad::new(config.scratchpad_bytes),
            stats: GpuStats::default(),
        }
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> GpuStats {
        self.stats
    }

    /// Returns the core to its power-on state: empty scratchpad, zeroed
    /// counters.
    pub fn reset(&mut self) {
        self.scratchpad.clear();
        self.stats = GpuStats::default();
    }

    /// The software-managed scratchpad.
    #[must_use]
    pub fn scratchpad(&self) -> &Scratchpad {
        &self.scratchpad
    }

    /// Begins executing `insts` at global time `start`.
    pub fn begin<'a>(&'a mut self, insts: &'a TraceStream, start: Tick) -> GpuRun<'a> {
        // Hot-scalar hoisting, mirroring `CpuCore::begin`: the step loop
        // reads these from the run struct instead of the nested config.
        let tpc = ClockDomain::GPU.ticks_per_cycle();
        let branch_stall_cycles = self.config.branch_stall_cycles;
        let branch_stall_ticks = ClockDomain::GPU.cycles_to_ticks(branch_stall_cycles);
        let scratchpad_ticks = ClockDomain::GPU.cycles_to_ticks(self.config.scratchpad_latency);
        let l1_ticks = ClockDomain::GPU.cycles_to_ticks(self.config.l1d.latency_cycles);
        let max_misses = self.config.max_outstanding_misses.max(1) as usize;
        GpuRun {
            core: self,
            insts: insts.cursor(),
            now: start,
            pending_misses: std::collections::VecDeque::new(),
            tpc,
            branch_stall_cycles,
            branch_stall_ticks,
            scratchpad_ticks,
            l1_ticks,
            max_misses,
        }
    }
}

/// An in-flight execution of one instruction stream on the GPU.
///
/// The trailing scalar fields are the issue loop's hot state, hoisted from
/// the config at [`GpuCore::begin`] (see the DESIGN.md §2.10 layout notes).
#[derive(Debug)]
pub struct GpuRun<'a> {
    core: &'a mut GpuCore,
    insts: Cursor<'a>,
    now: Tick,
    /// Completion times of in-flight misses (warp-level latency hiding).
    pending_misses: std::collections::VecDeque<Tick>,
    tpc: Tick,
    branch_stall_cycles: u64,
    branch_stall_ticks: Tick,
    scratchpad_ticks: Tick,
    l1_ticks: Tick,
    max_misses: usize,
}

impl GpuRun<'_> {
    /// Whether all instructions have executed.
    #[must_use]
    pub fn done(&self) -> bool {
        self.insts.is_done()
    }

    /// The core's current global time.
    #[must_use]
    pub fn now(&self) -> Tick {
        self.now
    }

    /// Global time at which the stream finishes: the core's current time,
    /// extended by any misses still in flight.
    #[must_use]
    pub fn finish_tick(&self) -> Tick {
        self.pending_misses
            .iter()
            .copied()
            .fold(self.now, Tick::max)
    }

    /// Executes one instruction, reporting it to `obs`
    /// ([`crate::NullObserver`] compiles the hooks away).
    ///
    /// # Panics
    ///
    /// Panics if called after [`GpuRun::done`], or on a communication event.
    pub fn step<O: SimObserver>(&mut self, hier: &mut MemoryHierarchy, obs: &mut O) {
        let tpc = self.tpc;
        self.core.stats.instructions += 1;
        obs.on_instruction(PuKind::Gpu, self.now);

        // Read next to the match, as in `CpuRun::step`.
        match self.insts.next_inst() {
            Inst::IntAlu | Inst::Mul | Inst::FpAlu | Inst::SimdAlu { .. } => {
                // One instruction per cycle; SIMD width is throughput, not
                // extra latency, in this in-order pipe.
                self.now += tpc;
            }
            Inst::Branch { .. } => {
                // No predictor: fetch stalls until the branch resolves.
                self.now += tpc + self.branch_stall_ticks;
                self.core.stats.branch_stall_cycles += self.branch_stall_cycles;
            }
            Inst::Load { addr, .. } => {
                if self.core.scratchpad.contains(addr) {
                    self.core.stats.scratchpad_hits += 1;
                    self.now += self.scratchpad_ticks;
                } else {
                    self.core.stats.memory_loads += 1;
                    let res = hier.access_observed(PuKind::Gpu, addr, false, self.now, obs);
                    if res.latency <= self.l1_ticks {
                        // L1 hit: pipelined.
                        self.now += res.latency.max(tpc);
                    } else {
                        // Miss: other warps keep the pipe busy until the
                        // outstanding-miss limit is reached, then the core
                        // stalls for the oldest miss.
                        let completion = self.now + res.latency;
                        if self.pending_misses.len() >= self.max_misses {
                            let oldest = self.pending_misses.pop_front().expect("non-empty");
                            if oldest > self.now {
                                self.core.stats.memory_stall_ticks += oldest - self.now;
                                self.now = oldest;
                            }
                        }
                        self.pending_misses.push_back(completion);
                        self.now += tpc;
                    }
                }
            }
            Inst::Store { addr, .. } => {
                self.core.stats.stores += 1;
                if !self.core.scratchpad.contains(addr) {
                    let _ = hier.access_observed(PuKind::Gpu, addr, true, self.now, obs);
                }
                // Stores are fire-and-forget through a small write queue.
                self.now += tpc;
            }
            Inst::Special(op) => {
                self.core.stats.special_ops += 1;
                let cost = self.core.costs.special_ticks(&op);
                obs.on_special(PuKind::Gpu, &op, cost, self.now);
                if let SpecialOp::Push { level, addr, bytes } = op {
                    match level {
                        CacheLevel::Scratchpad => self.core.scratchpad.map(addr, bytes),
                        CacheLevel::SharedLlc => {
                            let _ = hier.push_llc_region(addr, bytes);
                        }
                        _ => {}
                    }
                }
                self.now += cost.max(tpc);
            }
            Inst::Comm(_) => {
                panic!("communication events must be executed by the system, not a core")
            }
        }
    }

    /// Skips up to `max` contiguous plain (non-special) instructions
    /// without executing them; stops early at a programming-model special.
    /// Returns the number skipped; the caller accounts for their time via
    /// [`GpuRun::advance_clock`]. See [`crate::cpu::CpuRun::skip_plain`].
    pub fn skip_plain(&mut self, max: usize) -> usize {
        self.insts.skip_plain(max)
    }

    /// Fast-forwards the run's clock by `ticks` of extrapolated skip time.
    /// Outstanding misses shift with the clock — the skipped region is
    /// modeled as having kept the same miss-level parallelism — so detailed
    /// execution resumes under steady-state latency hiding.
    pub fn advance_clock(&mut self, ticks: Tick) {
        self.now += ticks;
        for miss in &mut self.pending_misses {
            *miss += ticks;
        }
    }

    /// Runs the stream to completion without interleaving.
    #[cfg(test)]
    fn run_to_end<O: SimObserver>(mut self, hier: &mut MemoryHierarchy, obs: &mut O) -> Tick {
        while !self.done() {
            self.step(hier, obs);
        }
        self.finish_tick()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::obs::NullObserver;

    fn setup() -> (GpuCore, MemoryHierarchy) {
        let cfg = SystemConfig::baseline();
        (
            GpuCore::new(&cfg.gpu, CommCosts::paper()),
            MemoryHierarchy::new(&cfg),
        )
    }

    #[test]
    fn alu_throughput_is_one_per_cycle() {
        let (mut core, mut hier) = setup();
        let insts: TraceStream = std::iter::repeat_n(Inst::SimdAlu { lanes: 8 }, 1000).collect();
        let end = core
            .begin(&insts, 0)
            .run_to_end(&mut hier, &mut NullObserver);
        assert_eq!(ClockDomain::GPU.ticks_to_cycles(end), 1000);
    }

    #[test]
    fn every_branch_stalls() {
        let (mut core, mut hier) = setup();
        let insts: TraceStream = std::iter::repeat_n(Inst::Branch { taken: true }, 100).collect();
        let end = core
            .begin(&insts, 0)
            .run_to_end(&mut hier, &mut NullObserver);
        // 100 × (1 + 4 stall) cycles.
        assert_eq!(ClockDomain::GPU.ticks_to_cycles(end), 500);
        assert_eq!(core.stats().branch_stall_cycles, 400);
    }

    #[test]
    fn scratchpad_hits_avoid_the_hierarchy() {
        let (mut core, mut hier) = setup();
        let insts: TraceStream = [
            Inst::Special(SpecialOp::Push {
                level: CacheLevel::Scratchpad,
                addr: 0x2000_0000,
                bytes: 8192,
            }),
            Inst::Load {
                addr: 0x2000_0100,
                bytes: 32,
            },
            Inst::Load {
                addr: 0x2000_0200,
                bytes: 32,
            },
        ]
        .into_iter()
        .collect();
        let _ = core
            .begin(&insts, 0)
            .run_to_end(&mut hier, &mut NullObserver);
        assert_eq!(core.stats().scratchpad_hits, 2);
        assert_eq!(core.stats().memory_loads, 0);
        assert_eq!(hier.stats().gpu_l1d.misses, 0);
    }

    #[test]
    fn blocking_loads_stall_the_core() {
        let (mut core, mut hier) = setup();
        // Strided misses.
        let insts: TraceStream = (0..256)
            .map(|i| Inst::Load {
                addr: 0x2000_0000 + i * 4096,
                bytes: 32,
            })
            .collect();
        let end = core
            .begin(&insts, 0)
            .run_to_end(&mut hier, &mut NullObserver);
        // Even with 8 misses in flight, 256 strided misses cost far more
        // than 256 issue cycles.
        assert!(ClockDomain::GPU.ticks_to_cycles(end) > 256 * 4);
        assert!(core.stats().memory_stall_ticks > 0);
    }

    #[test]
    fn outstanding_miss_window_hides_latency() {
        let cfg = SystemConfig::baseline();
        // Stride chosen to spread misses across DRAM channels and banks so
        // memory-level parallelism is actually available.
        let make_insts = || -> TraceStream {
            (0..256)
                .map(|i| Inst::Load {
                    addr: 0x2000_0000 + i * 4160,
                    bytes: 32,
                })
                .collect()
        };
        let mut wide = GpuCore::new(&cfg.gpu, CommCosts::paper());
        let mut hier1 = MemoryHierarchy::new(&cfg);
        let wide_end = wide
            .begin(&make_insts(), 0)
            .run_to_end(&mut hier1, &mut NullObserver);

        let narrow_cfg = GpuConfig {
            max_outstanding_misses: 1,
            ..cfg.gpu
        };
        let mut narrow = GpuCore::new(&narrow_cfg, CommCosts::paper());
        let mut hier2 = MemoryHierarchy::new(&cfg);
        let narrow_end = narrow
            .begin(&make_insts(), 0)
            .run_to_end(&mut hier2, &mut NullObserver);

        assert!(
            wide_end * 2 < narrow_end,
            "8-deep miss window ({wide_end}) should be far faster than blocking ({narrow_end})"
        );
    }

    #[test]
    fn scratchpad_fifo_eviction() {
        let mut s = Scratchpad::new(1024);
        s.map(0, 512);
        s.map(1000, 512);
        assert!(s.contains(0) && s.contains(1200));
        s.map(4096, 512); // exceeds capacity → evicts the oldest region
        assert!(!s.contains(0));
        assert!(s.contains(1200) && s.contains(4300));
        assert!(s.used() <= 1024);
    }

    #[test]
    fn scratchpad_truncates_oversized_region() {
        let mut s = Scratchpad::new(1024);
        s.map(0, 1_000_000);
        assert_eq!(s.used(), 1024);
        assert!(s.contains(0) && s.contains(1023));
        assert!(!s.contains(1024));
    }

    #[test]
    fn zero_byte_map_is_noop() {
        let mut s = Scratchpad::new(64);
        s.map(0, 0);
        assert_eq!(s.used(), 0);
        assert!(!s.contains(0));
    }
}
