//! The out-of-order CPU core model (Table II: 3.5 GHz, out-of-order,
//! gshare).
//!
//! The core is trace-driven and single-pass: instructions dispatch at the
//! superscalar issue rate, complete after a class-dependent latency (loads
//! ask the memory hierarchy), and retire in order through a reorder buffer.
//! Out-of-order overlap emerges from the model naturally — a load miss does
//! not stall dispatch until the ROB fills, so independent misses overlap
//! (memory-level parallelism bounded by the ROB), which is exactly the
//! first-order behaviour of an OoO window.

use crate::clock::{ClockDomain, Tick};
use crate::config::CpuConfig;
use crate::fabric::CommCosts;
use crate::hierarchy::MemoryHierarchy;
use crate::obs::SimObserver;
use crate::Gshare;
use hetmem_trace::{CacheLevel, Inst, PuKind, SpecialOp, TraceStream};
use std::collections::VecDeque;

/// Cycle-accounting statistics for the CPU core.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuStats {
    /// Dynamic instructions executed.
    pub instructions: u64,
    /// Conditional branches executed.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredictions: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Ticks dispatch was stalled waiting for ROB retirement.
    pub rob_stall_ticks: u64,
    /// Special (programming-model) operations executed.
    pub special_ops: u64,
}

/// The persistent CPU core: predictor state and statistics survive across
/// trace segments, as they would in real hardware.
#[derive(Clone, Debug)]
pub struct CpuCore {
    config: CpuConfig,
    costs: CommCosts,
    bpred: Gshare,
    stats: CpuStats,
}

impl CpuCore {
    /// Creates a core.
    #[must_use]
    pub fn new(config: &CpuConfig, costs: CommCosts) -> CpuCore {
        CpuCore {
            config: *config,
            costs,
            bpred: Gshare::new(config.gshare_log2_entries, config.gshare_history_bits),
            stats: CpuStats::default(),
        }
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> CpuStats {
        self.stats
    }

    /// Returns the core to its power-on state: cold predictor, zeroed
    /// counters.
    pub fn reset(&mut self) {
        self.bpred.reset();
        self.stats = CpuStats::default();
    }

    /// Branch-predictor statistics.
    #[must_use]
    pub fn predictor(&self) -> &Gshare {
        &self.bpred
    }

    /// Begins executing `insts` at global time `start`. Drive the returned
    /// run to completion with [`CpuRun::step`], interleaving with a GPU run
    /// by global time for contention fidelity.
    pub fn begin<'a>(&'a mut self, insts: &'a TraceStream, start: Tick) -> CpuRun<'a> {
        // Hoist the per-step-invariant hot scalars out of the nested config
        // structs into the run itself: the inner loop then touches one flat,
        // cache-resident block instead of chasing `core.config.*` every step.
        let tpc = ClockDomain::CPU.ticks_per_cycle();
        let slot = (tpc / u64::from(self.config.issue_width)).max(1);
        let l1_ticks = ClockDomain::CPU.cycles_to_ticks(self.config.l1d.latency_cycles);
        let mispredict_ticks = ClockDomain::CPU.cycles_to_ticks(self.config.mispredict_penalty);
        let rob_entries = self.config.rob_entries as usize;
        CpuRun {
            core: self,
            insts,
            idx: 0,
            next_issue: start,
            rob: VecDeque::new(),
            last_retire: start,
            finish: start,
            tpc,
            slot,
            l1_ticks,
            mispredict_ticks,
            rob_entries,
        }
    }
}

/// An in-flight execution of one instruction stream on the CPU.
///
/// The trailing scalar fields are the issue loop's hot state, hoisted from
/// the config at [`CpuCore::begin`] so every step reads a single flat
/// struct (see the DESIGN.md §2.10 layout notes).
#[derive(Debug)]
pub struct CpuRun<'a> {
    core: &'a mut CpuCore,
    insts: &'a TraceStream,
    idx: usize,
    next_issue: Tick,
    rob: VecDeque<Tick>,
    last_retire: Tick,
    finish: Tick,
    tpc: Tick,
    slot: Tick,
    l1_ticks: Tick,
    mispredict_ticks: Tick,
    rob_entries: usize,
}

impl CpuRun<'_> {
    /// Whether all instructions have been issued.
    #[must_use]
    pub fn done(&self) -> bool {
        self.idx == self.insts.len()
    }

    /// Global time of the next issue slot (the run's current time).
    #[must_use]
    pub fn now(&self) -> Tick {
        self.next_issue
    }

    /// Global time at which every issued instruction has retired.
    #[must_use]
    pub fn finish_tick(&self) -> Tick {
        self.finish.max(self.last_retire)
    }

    /// Issues one instruction, updating all shared memory-system state and
    /// reporting it to `obs` ([`crate::NullObserver`] compiles the hooks away).
    ///
    /// # Panics
    ///
    /// Panics if called after [`CpuRun::done`], or on a communication event
    /// (those belong to communication segments, which the system executes
    /// directly).
    pub fn step<O: SimObserver>(&mut self, hier: &mut MemoryHierarchy, obs: &mut O) {
        let inst = self.insts.get(self.idx);
        self.idx += 1;
        // Issue-slot spacing: issue_width instructions per cycle.
        let (tpc, slot) = (self.tpc, self.slot);

        // ROB back-pressure: with a full window, dispatch waits for the
        // oldest instruction to retire.
        if self.rob.len() >= self.rob_entries {
            let oldest = self.rob.pop_front().expect("rob non-empty");
            if oldest > self.next_issue {
                self.core.stats.rob_stall_ticks += oldest - self.next_issue;
                self.next_issue = oldest;
            }
        }

        let t = self.next_issue;
        self.next_issue += slot;
        self.core.stats.instructions += 1;
        obs.on_instruction(PuKind::Cpu, t);

        let completion = match inst {
            Inst::IntAlu => t + tpc,
            Inst::Mul => t + 3 * tpc,
            Inst::FpAlu | Inst::SimdAlu { .. } => t + 4 * tpc,
            Inst::Load { addr, .. } => {
                self.core.stats.loads += 1;
                let res = hier.access_observed(PuKind::Cpu, addr, false, t, obs);
                t + res.latency
            }
            Inst::Store { addr, .. } => {
                self.core.stats.stores += 1;
                // Write-buffered: the store updates the memory system but
                // retires at L1 speed.
                let _ = hier.access_observed(PuKind::Cpu, addr, true, t, obs);
                t + self.l1_ticks
            }
            Inst::Branch { taken } => {
                self.core.stats.branches += 1;
                let correct = self.core.bpred.predict_and_train(taken);
                let done = t + tpc;
                if !correct {
                    self.core.stats.mispredictions += 1;
                    // Pipeline flush: dispatch resumes after the penalty.
                    let resume = done + self.mispredict_ticks;
                    self.next_issue = self.next_issue.max(resume);
                }
                done
            }
            Inst::Special(op) => {
                self.core.stats.special_ops += 1;
                let cost = self.core.costs.special_ticks(&op);
                obs.on_special(PuKind::Cpu, &op, cost, t);
                if let SpecialOp::Push { level, addr, bytes } = op {
                    if level == CacheLevel::SharedLlc {
                        let _ = hier.push_llc_region(addr, bytes);
                    }
                }
                // Special operations serialize the pipeline.
                let done = t + cost.max(tpc);
                self.next_issue = self.next_issue.max(done);
                done
            }
            Inst::Comm(_) => {
                panic!("communication events must be executed by the system, not a core")
            }
        };

        // In-order retirement.
        let retire = completion.max(self.last_retire);
        self.last_retire = retire;
        self.rob.push_back(retire);
        self.finish = self.finish.max(retire);
    }

    /// Skips up to `max` contiguous plain (non-special) instructions: the
    /// index advances without executing them, so no statistics, cache
    /// traffic, or issue slots are charged. Stops early at a
    /// programming-model special, which must execute in detail. Returns
    /// the number skipped; the caller accounts for their time via
    /// [`CpuRun::advance_clock`].
    pub fn skip_plain(&mut self, max: usize) -> usize {
        let start = self.idx;
        let stop = self.insts.len().min(start.saturating_add(max));
        while self.idx < stop && !matches!(self.insts.get(self.idx), Inst::Special(_)) {
            self.idx += 1;
        }
        self.idx - start
    }

    /// Fast-forwards the run's clock by `ticks` of extrapolated skip time.
    /// The in-flight retirement profile shifts with the clock: the skipped
    /// region is modeled as having kept the ROB exactly as full as it was,
    /// so detailed execution resumes under steady-state back-pressure
    /// instead of a drained (or artificially stalled) pipeline.
    pub fn advance_clock(&mut self, ticks: Tick) {
        self.next_issue += ticks;
        for entry in &mut self.rob {
            *entry += ticks;
        }
        self.last_retire += ticks;
        self.finish = self.finish.max(self.last_retire).max(self.next_issue);
    }

    /// Runs the stream to completion on its own, returning the finish
    /// tick (the system drives runs through its compute loop instead).
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

    fn setup() -> (CpuCore, MemoryHierarchy) {
        let cfg = SystemConfig::baseline();
        (
            CpuCore::new(&cfg.cpu, CommCosts::paper()),
            MemoryHierarchy::new(&cfg),
        )
    }

    #[test]
    fn alu_stream_runs_at_issue_width() {
        let (mut core, mut hier) = setup();
        let insts: TraceStream = std::iter::repeat_n(Inst::IntAlu, 4000).collect();
        let end = core
            .begin(&insts, 0)
            .run_to_end(&mut hier, &mut NullObserver);
        // 4000 instructions at 4/cycle = 1000 cycles ≈ 12000 ticks (plus a
        // final completion latency).
        let cycles = ClockDomain::CPU.ticks_to_cycles(end);
        assert!((1000..1100).contains(&cycles), "{cycles} cycles");
    }

    #[test]
    fn cache_misses_slow_execution() {
        let (mut core, mut hier) = setup();
        // Streaming loads over 1 MiB: mostly misses at line granularity.
        let miss_insts: TraceStream = (0..4096)
            .map(|i| Inst::Load {
                addr: i * 256,
                bytes: 8,
            })
            .collect();
        let miss_end = core
            .begin(&miss_insts, 0)
            .run_to_end(&mut hier, &mut NullObserver);

        let (mut core2, mut hier2) = setup();
        // Same count of loads, all to one line: hits after the first.
        let hit_insts: TraceStream = (0..4096)
            .map(|_| Inst::Load { addr: 64, bytes: 8 })
            .collect();
        let hit_end = core2
            .begin(&hit_insts, 0)
            .run_to_end(&mut hier2, &mut NullObserver);

        assert!(
            miss_end > 2 * hit_end,
            "misses {miss_end} vs hits {hit_end}"
        );
    }

    #[test]
    fn rob_limits_memory_level_parallelism() {
        let (mut core, mut hier) = setup();
        let insts: TraceStream = (0..2048)
            .map(|i| Inst::Load {
                addr: i * 4096,
                bytes: 8,
            })
            .collect();
        let _ = core
            .begin(&insts, 0)
            .run_to_end(&mut hier, &mut NullObserver);
        assert!(
            core.stats().rob_stall_ticks > 0,
            "2048 TLB-missing loads must pressure the ROB"
        );
    }

    #[test]
    fn mispredictions_cost_cycles() {
        let (mut core, mut hier) = setup();
        // Alternating pattern is learnable; random is not. Compare biased
        // vs adversarial streams of the same length.
        let mut bad = TraceStream::new();
        let mut state = 1u64;
        for _ in 0..4000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            bad.push(Inst::Branch {
                taken: (state >> 62) & 1 == 1,
            });
        }
        let bad_end = core.begin(&bad, 0).run_to_end(&mut hier, &mut NullObserver);
        let bad_mispredicts = core.stats().mispredictions;

        let (mut core2, mut hier2) = setup();
        let good: TraceStream = std::iter::repeat_n(Inst::Branch { taken: true }, 4000).collect();
        let good_end = core2
            .begin(&good, 0)
            .run_to_end(&mut hier2, &mut NullObserver);

        assert!(bad_mispredicts > 1000);
        assert!(bad_end > good_end);
    }

    #[test]
    fn special_ops_serialize() {
        let (mut core, mut hier) = setup();
        let insts: TraceStream = [
            Inst::Special(SpecialOp::Acquire { addr: 0, bytes: 64 }),
            Inst::IntAlu,
        ]
        .into_iter()
        .collect();
        let end = core
            .begin(&insts, 0)
            .run_to_end(&mut hier, &mut NullObserver);
        // api-acq is 1000 cycles; the following instruction cannot finish
        // earlier.
        assert!(ClockDomain::CPU.ticks_to_cycles(end) >= 1000);
        assert_eq!(core.stats().special_ops, 1);
    }

    #[test]
    fn push_special_pins_llc_lines() {
        let (mut core, mut hier) = setup();
        let insts: TraceStream = [Inst::Special(SpecialOp::Push {
            level: CacheLevel::SharedLlc,
            addr: 0x3000_0000,
            bytes: 4096,
        })]
        .into_iter()
        .collect();
        let _ = core
            .begin(&insts, 0)
            .run_to_end(&mut hier, &mut NullObserver);
        assert!(hier.stats().llc.misses >= 64, "push fills 64 lines");
    }

    #[test]
    #[should_panic(expected = "executed by the system")]
    fn comm_event_in_core_stream_panics() {
        let (mut core, mut hier) = setup();
        let ev = hetmem_trace::CommEvent {
            direction: hetmem_trace::TransferDirection::HostToDevice,
            bytes: 64,
            kind: hetmem_trace::CommKind::InitialInput,
            addr: 0,
        };
        let insts: TraceStream = [Inst::Comm(ev)].into_iter().collect();
        let _ = core
            .begin(&insts, 0)
            .run_to_end(&mut hier, &mut NullObserver);
    }

    #[test]
    fn retirement_is_monotone() {
        let (mut core, mut hier) = setup();
        let insts: TraceStream = [
            Inst::Load {
                addr: 0x8000,
                bytes: 8,
            }, // slow (DRAM)
            Inst::IntAlu, // fast, must retire after the load
        ]
        .into_iter()
        .collect();
        let mut run = core.begin(&insts, 0);
        run.step(&mut hier, &mut NullObserver);
        let after_load = run.finish_tick();
        run.step(&mut hier, &mut NullObserver);
        assert!(run.finish_tick() >= after_load);
    }
}
