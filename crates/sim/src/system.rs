//! The top-level system: both cores, the shared memory hierarchy, and the
//! phase-by-phase execution of a kernel trace under a communication model.
//!
//! Phase semantics follow the paper's accounting (§V-A):
//!
//! * **Sequential** segments run on the CPU alone.
//! * **Parallel** segments run both cores concurrently, interleaved in
//!   global time so they contend for the LLC and DRAM; the segment ends when
//!   the slower PU finishes.
//! * **Communication** segments execute each semantic event according to the
//!   design point's [`CommModel`]: elided (shared address space), blocking
//!   (synchronous memcpy), or asynchronous (GMAC-style background copy that
//!   only charges the portion it fails to hide behind the following
//!   parallel segment).

use crate::clock::Tick;
use crate::config::SystemConfig;
use crate::cpu::{CpuCore, CpuRun, CpuStats};
use crate::exec::ExecMode;
use crate::fabric::{CommAction, CommCosts, CommModel};
use crate::gpu::{GpuCore, GpuRun, GpuStats};
use crate::hierarchy::{HierarchyStats, MemoryHierarchy};
use crate::obs::SimObserver;
use crate::stats::RunReport;
use hetmem_trace::{Inst, Phase, PhaseSegment, PhasedTrace, PuKind};

/// A complete simulated heterogeneous system.
#[derive(Debug)]
pub struct System {
    config: SystemConfig,
    costs: CommCosts,
    llc_locality: bool,
    cpu: CpuCore,
    gpu: GpuCore,
    hierarchy: MemoryHierarchy,
}

impl System {
    /// Builds a system, selecting whether the LLC honours the explicit
    /// locality bit (`false` is the plain-LRU ablation of §II-B5). Callers
    /// outside this crate build through [`crate::Simulation::builder`],
    /// which validates the configuration first.
    #[must_use]
    pub(crate) fn with_costs_and_locality(
        config: &SystemConfig,
        costs: CommCosts,
        llc_locality: bool,
    ) -> System {
        System {
            config: *config,
            costs,
            llc_locality,
            cpu: CpuCore::new(&config.cpu, costs),
            gpu: GpuCore::new(&config.gpu, costs),
            hierarchy: MemoryHierarchy::with_llc_locality(config, llc_locality),
        }
    }

    /// Whether this system was built from exactly these parameters — the
    /// recycling precondition checked by
    /// [`crate::SimulationBuilder::recycle`].
    #[must_use]
    pub fn matches(&self, config: &SystemConfig, costs: &CommCosts, llc_locality: bool) -> bool {
        self.config == *config && self.costs == *costs && self.llc_locality == llc_locality
    }

    /// The system configuration.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The communication-cost parameters.
    #[must_use]
    pub fn costs(&self) -> &CommCosts {
        &self.costs
    }

    /// Returns the whole system — cores and memory hierarchy — to its
    /// power-on state without releasing allocations. A reset system is
    /// observationally identical to a freshly built one, so engines can be
    /// recycled across independent jobs (see
    /// [`crate::SimulationBuilder::recycle`]).
    pub fn reset(&mut self) {
        self.cpu.reset();
        self.gpu.reset();
        self.hierarchy.reset();
    }

    /// Read access to the memory hierarchy (for inspection in tests and
    /// reports).
    #[must_use]
    pub fn hierarchy(&self) -> &MemoryHierarchy {
        &self.hierarchy
    }

    /// Simulates a validated `trace` under `comm` in the given [`ExecMode`],
    /// reporting every phase transition, communication action, access, and
    /// DRAM request to `obs`.
    ///
    /// This is the engine behind [`crate::Simulation::run`], which performs
    /// trace validation and error mapping; with [`crate::NullObserver`] the hooks
    /// compile away. Both modes run the one compute loop: `Accurate` as a
    /// single detailed window, `Sampled` alternating detailed windows with
    /// functionally-warmed skips whose cost is extrapolated from the
    /// measured ticks-per-instruction; its microarchitectural counters
    /// cover only the detailed windows.
    pub(crate) fn execute<O: SimObserver>(
        &mut self,
        trace: &PhasedTrace,
        comm: &mut dyn CommModel,
        obs: &mut O,
        mode: ExecMode,
    ) -> RunReport {
        self.run_segments(trace, comm, obs, mode, Compute::Live(None))
            .expect("a live run replays nothing, so it never abandons")
    }

    /// The segment loop behind [`System::execute`] and
    /// [`crate::Simulation::run_group`]. Communication segments always run
    /// live under `comm`; `compute` says where the compute segments come
    /// from. Returns `None` only when a replay meets a compute segment
    /// that would not start quiescent (see [`ComputeSpan`]); the system
    /// is then untouched by the replay but `comm` has planned some events.
    pub(crate) fn run_segments<O: SimObserver>(
        &mut self,
        trace: &PhasedTrace,
        comm: &mut dyn CommModel,
        obs: &mut O,
        mode: ExecMode,
        mut compute: Compute<'_>,
    ) -> Option<RunReport> {
        let mut now: Tick = 0;
        let mut seq_ticks: Tick = 0;
        let mut par_ticks: Tick = 0;
        let mut comm_ticks: Tick = 0;
        // Ticks extrapolated across sampled skips rather than simulated.
        let mut ff_ticks: Tick = 0;
        // Completion time of outstanding asynchronous transfers the next
        // parallel segment's GPU work must wait for.
        let mut dma_ready: Tick = 0;
        // Compute segments seen so far, and the latest tick the hierarchy
        // is busy until after the last one (replays track it from the log).
        let mut spans = 0usize;
        let mut horizon: Tick = 0;

        for (index, segment) in trace.segments().iter().enumerate() {
            let seg_start = now;
            obs.on_phase_start(index, segment.phase(), now);
            match segment.phase() {
                Phase::Sequential | Phase::Parallel => {
                    let span = match &mut compute {
                        Compute::Live(log) => {
                            let quiescent = self.hierarchy.timing_horizon() <= now;
                            let (end, fast_forwarded) =
                                self.compute_segment(segment, now, mode, obs);
                            let span = ComputeSpan {
                                quiescent,
                                ticks: end - now,
                                fast_forwarded,
                                tail: self.hierarchy.timing_horizon().saturating_sub(now),
                            };
                            if let Some(log) = log {
                                log.spans.push(span);
                            }
                            span
                        }
                        Compute::Replay(log) => match log.spans.get(spans) {
                            Some(&span) if span.quiescent && horizon <= now => span,
                            _ => return None,
                        },
                    };
                    spans += 1;
                    horizon = now + span.tail;
                    ff_ticks += span.fast_forwarded;
                    let compute_end = now + span.ticks;
                    if segment.phase() == Phase::Sequential {
                        seq_ticks += span.ticks;
                        now = compute_end;
                    } else {
                        par_ticks += span.ticks;
                        // Asynchronous copies stream their data during
                        // kernel execution (GMAC's on-demand/rolling
                        // transfer), so both cores started immediately. A
                        // transfer that outlives the computation delays the
                        // segment's completion; that tail is communication
                        // time.
                        if dma_ready > compute_end {
                            comm_ticks += dma_ready - compute_end;
                            now = dma_ready;
                        } else {
                            now = compute_end;
                        }
                        dma_ready = 0;
                    }
                }
                Phase::Communication => {
                    for inst in segment.stream(PuKind::Cpu).iter() {
                        match inst {
                            Inst::Comm(event) => {
                                // Classify before planning: `plan` may mutate
                                // first-touch state the class depends on.
                                let class = comm.cost_class(&event);
                                let action = comm.plan(&event);
                                obs.on_comm(&event, &action, class, now);
                                match action {
                                    CommAction::Elide => {}
                                    CommAction::Synchronous { ticks } => {
                                        comm_ticks += ticks;
                                        now += ticks;
                                    }
                                    CommAction::Asynchronous { setup, transfer } => {
                                        comm_ticks += setup;
                                        now += setup;
                                        dma_ready = dma_ready.max(now + transfer);
                                    }
                                }
                            }
                            Inst::Special(op) => {
                                let ticks = self.costs.special_ticks(&op);
                                obs.on_special(PuKind::Cpu, &op, ticks, now);
                                comm_ticks += ticks;
                                now += ticks;
                            }
                            other => unreachable!(
                                "validated communication segments contain only comm/special \
                                 instructions, found {other:?}"
                            ),
                        }
                    }
                }
            }
            obs.on_phase_end(index, segment.phase(), seg_start, now);
        }

        // Any asynchronous transfer still in flight must complete before the
        // program can observe its data.
        if dma_ready > now {
            comm_ticks += dma_ready - now;
            now = dma_ready;
        }
        obs.on_run_end(now);

        let (hierarchy, cpu, gpu) = match compute {
            Compute::Live(log) => {
                let stats = (self.hierarchy.stats(), self.cpu.stats(), self.gpu.stats());
                if let Some(log) = log {
                    log.stats = stats;
                }
                stats
            }
            Compute::Replay(log) => log.stats,
        };
        Some(RunReport {
            kernel: trace.name().to_owned(),
            sequential_ticks: seq_ticks,
            parallel_ticks: par_ticks,
            communication_ticks: comm_ticks,
            fast_forwarded_ticks: ff_ticks,
            hierarchy,
            cpu,
            gpu,
        })
    }

    /// Simulates one sequential or parallel segment starting at `start`,
    /// returning its end tick and the ticks extrapolated across sampled
    /// skips. This is the one compute loop, SMARTS-style: each detailed
    /// window interleaves the two cores by global time (the CPU owns ties)
    /// until each has stepped `window` instructions or run out of stream,
    /// so contention for the shared LLC and DRAM is exact within it. Both
    /// cores then skip `warm` instructions together, each at its own
    /// measured ticks-per-instruction, so neither clock rewinds against the
    /// time-stateful hierarchy. Each run spans the whole segment — skips
    /// advance its index and clock in place — so window boundaries pay no
    /// pipeline drain. [`ExecMode::Accurate`] is one unbounded window; a
    /// segment whose streams fit one window is exact in either mode. A
    /// sequential segment's GPU stream is empty.
    fn compute_segment<O: SimObserver>(
        &mut self,
        segment: &PhaseSegment,
        start: Tick,
        mode: ExecMode,
        obs: &mut O,
    ) -> (Tick, Tick) {
        let (warm, window) = mode.windows();
        let cpu_insts = segment.stream(PuKind::Cpu);
        let gpu_insts = segment.stream(PuKind::Gpu);
        let mut cpu = Lane::new(self.cpu.begin(cpu_insts, start), cpu_insts.len());
        let mut gpu = Lane::new(self.gpu.begin(gpu_insts, start), gpu_insts.len());
        let hier = &mut self.hierarchy;
        let mut skipped: Tick = 0;
        while cpu.left > 0 || gpu.left > 0 {
            cpu.open(window);
            gpu.open(window);
            loop {
                let step_cpu = match (cpu.steps < cpu.target, gpu.steps < gpu.target) {
                    (false, false) => break,
                    (c, g) => c && (!g || cpu.run.now() <= gpu.run.now()),
                };
                if step_cpu {
                    cpu.step(hier, obs);
                } else {
                    gpu.step(hier, obs);
                }
            }
            cpu.close();
            gpu.close();
            skipped += cpu.skip(warm, hier, obs);
            skipped += gpu.skip(warm, hier, obs);
        }
        let end = cpu.run.finish_tick().max(gpu.run.finish_tick());
        (end.max(start), skipped)
    }
}

/// Where [`System::run_segments`] takes its compute segments from.
pub(crate) enum Compute<'a> {
    /// Simulate them, recording the timeline into the log if one is given.
    Live(Option<&'a mut ComputeLog>),
    /// Replay a timeline a live run of the same trace recorded on a system
    /// of the same configuration and mode.
    Replay(&'a ComputeLog),
}

/// One compute segment of a recorded run.
///
/// Communication never touches the memory hierarchy, so runs of one trace
/// under different communication models differ only in when each compute
/// segment starts. The only hierarchy state that depends on absolute time
/// is the busy-until tick of each DRAM bank, DRAM bus and NoC bus
/// ([`MemoryHierarchy::timing_horizon`]); core state is relative to the
/// segment start. A segment that starts *quiescent* — every busy-until
/// tick at or before its start — therefore evolves identically at any
/// start, shifted in time.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ComputeSpan {
    /// Whether the recorded run started this segment quiescent.
    quiescent: bool,
    /// Start-to-end duration.
    ticks: Tick,
    /// Ticks extrapolated across sampled skips.
    fast_forwarded: Tick,
    /// How far past the segment's start the hierarchy stayed busy (0 when
    /// it went idle by the start): posted DRAM writes can outlive the
    /// compute. A replay starting the segment at `s` is busy until exactly
    /// `s + tail`, so the next compute segment is quiescent iff it starts
    /// no earlier.
    tail: Tick,
}

/// The compute timeline of one live run: its compute segments in order and
/// the final counters, which a replay reports unchanged.
#[derive(Clone, Debug, Default)]
pub(crate) struct ComputeLog {
    spans: Vec<ComputeSpan>,
    stats: (HierarchyStats, CpuStats, GpuStats),
}

/// One core's run through a compute segment, with the window bookkeeping
/// and the measured rate its skips extrapolate from.
struct Lane<R> {
    run: R,
    /// Instructions neither stepped nor skipped yet.
    left: usize,
    /// Steps this window takes, its warm-up head, and steps taken so far.
    target: usize,
    head: usize,
    steps: usize,
    /// The run's clock where this window's measurement starts.
    from: Tick,
    /// Instructions and ticks measured over every window so far.
    insts: u128,
    ticks: u128,
}

impl<R: CoreRun> Lane<R> {
    fn new(run: R, len: usize) -> Lane<R> {
        Lane {
            run,
            left: len,
            target: 0,
            head: 0,
            steps: 0,
            from: 0,
            insts: 0,
            ticks: 0,
        }
    }

    fn open(&mut self, window: usize) {
        self.target = window.min(self.left);
        // Only the back half of a window feeds the rate: the front half
        // absorbs the cold-cache transient after a skip (skipped loads
        // never warmed the hierarchy).
        self.head = self.target / 2;
        self.steps = 0;
        self.from = self.run.now();
    }

    fn step<O: SimObserver>(&mut self, hier: &mut MemoryHierarchy, obs: &mut O) {
        self.run.step(hier, obs);
        self.steps += 1;
        if self.steps == self.head {
            self.from = self.run.now();
        }
    }

    fn close(&mut self) {
        self.insts += (self.steps - self.head) as u128;
        self.ticks += u128::from(self.run.now() - self.from);
        self.left -= self.steps;
    }

    /// Skips up to `warm` instructions: plain spans are charged the
    /// measured rate without executing; a programming-model special stops
    /// the span and runs in detail (it mutates scratchpad/LLC mappings and
    /// serializes). Returns the extrapolated ticks.
    fn skip<O: SimObserver>(
        &mut self,
        warm: usize,
        hier: &mut MemoryHierarchy,
        obs: &mut O,
    ) -> Tick {
        let mut remaining = warm.min(self.left);
        self.left -= remaining;
        let mut skipped: Tick = 0;
        while remaining > 0 {
            let plain = self.run.skip_plain(remaining);
            if plain > 0 {
                let est = ((plain as u128 * self.ticks) / self.insts.max(1)) as Tick;
                self.run.advance_clock(est);
                skipped += est;
                obs.on_fast_forward(est, self.run.now());
                remaining -= plain;
            }
            if remaining > 0 {
                self.run.step(hier, obs);
                remaining -= 1;
            }
        }
        skipped
    }
}

/// What the compute loop needs of a core's run; see [`CpuRun`] and
/// [`GpuRun`] for the semantics.
trait CoreRun {
    fn step<O: SimObserver>(&mut self, hier: &mut MemoryHierarchy, obs: &mut O);
    fn now(&self) -> Tick;
    fn skip_plain(&mut self, max: usize) -> usize;
    fn advance_clock(&mut self, ticks: Tick);
}

/// Implements [`CoreRun`] by forwarding to each run's inherent methods.
macro_rules! forward_core_run {
    ($($run:ident),*) => {$(
        impl CoreRun for $run<'_> {
            fn step<O: SimObserver>(&mut self, hier: &mut MemoryHierarchy, obs: &mut O) {
                $run::step(self, hier, obs);
            }
            fn now(&self) -> Tick {
                $run::now(self)
            }
            fn skip_plain(&mut self, max: usize) -> usize {
                $run::skip_plain(self, max)
            }
            fn advance_clock(&mut self, ticks: Tick) {
                $run::advance_clock(self, ticks);
            }
        }
    )*};
}

forward_core_run!(CpuRun, GpuRun);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Simulation;
    use crate::fabric::FabricKind;
    use hetmem_trace::kernels::{Kernel, KernelParams};
    use hetmem_trace::{CommEvent, CommKind, TransferDirection};

    fn run_over(trace: &PhasedTrace, fabric: FabricKind) -> RunReport {
        Simulation::builder()
            .fabric(fabric)
            .build()
            .expect("baseline config is valid")
            .run(trace)
            .expect("well-formed trace")
    }

    #[test]
    fn reduction_runs_and_attributes_all_phases() {
        let trace = Kernel::Reduction.generate(&KernelParams::scaled(8));
        let report = run_over(&trace, FabricKind::PciExpress);
        assert!(report.sequential_ticks > 0);
        assert!(report.parallel_ticks > 0);
        assert!(report.communication_ticks > 0);
        assert_eq!(report.kernel, "reduction");
    }

    #[test]
    fn parallel_phase_dominates() {
        // The paper's headline observation: most time is parallel compute.
        let trace = Kernel::MatrixMul.generate(&KernelParams::scaled(64));
        let report = run_over(&trace, FabricKind::PciExpress);
        assert!(
            report.phase_fraction(hetmem_trace::Phase::Parallel) > 0.5,
            "{report}"
        );
    }

    #[test]
    fn ideal_fabric_has_zero_communication() {
        let trace = Kernel::Reduction.generate(&KernelParams::scaled(8));
        let report = run_over(&trace, FabricKind::Ideal);
        assert_eq!(report.communication_ticks, 0);
    }

    #[test]
    fn pci_slower_than_memory_controller() {
        let trace = Kernel::MergeSort.generate(&KernelParams::scaled(8));
        let pci = run_over(&trace, FabricKind::PciExpress);
        let fusion = run_over(&trace, FabricKind::MemoryController);
        assert!(pci.communication_ticks > fusion.communication_ticks);
        assert!(pci.total_ticks() > fusion.total_ticks());
    }

    #[test]
    fn async_transfers_are_hidden_behind_parallel_work() {
        // A model that makes every transfer asynchronous with tiny setup.
        struct AsyncModel;
        impl CommModel for AsyncModel {
            fn plan(&mut self, event: &CommEvent) -> CommAction {
                CommAction::Asynchronous {
                    setup: 1_000,
                    transfer: FabricKind::PciExpress
                        .transfer_ticks(event.bytes, &CommCosts::paper()),
                }
            }
        }
        let trace = Kernel::Reduction.generate(&KernelParams::scaled(8));
        let sync = run_over(&trace, FabricKind::PciExpress);
        let asy = Simulation::builder()
            .comm_model(AsyncModel)
            .build()
            .expect("valid config")
            .run(&trace)
            .expect("well-formed trace");
        assert!(
            asy.communication_ticks < sync.communication_ticks,
            "async {} vs sync {}",
            asy.communication_ticks,
            sync.communication_ticks
        );
    }

    #[test]
    fn trailing_async_transfer_is_charged_at_the_end() {
        // A trace that ends with an async transfer: nothing can hide it.
        struct AsyncModel;
        impl CommModel for AsyncModel {
            fn plan(&mut self, _: &CommEvent) -> CommAction {
                CommAction::Asynchronous {
                    setup: 10,
                    transfer: 1_000_000,
                }
            }
        }
        let mut b = hetmem_trace::TraceBuilder::new("tail", 0);
        b.communication([CommEvent {
            direction: TransferDirection::DeviceToHost,
            bytes: 4096,
            kind: CommKind::ResultReturn,
            addr: 0,
        }]);
        let trace = b.finish();
        let report = Simulation::builder()
            .comm_model(AsyncModel)
            .build()
            .expect("valid config")
            .run(&trace)
            .expect("well-formed trace");
        assert_eq!(report.communication_ticks, 10 + 1_000_000);
    }

    #[test]
    fn noc_topologies_order_sensibly_end_to_end() {
        use crate::config::NocTopology;
        let trace = Kernel::KMeans.generate(&KernelParams::scaled(64));
        let total = |topo| {
            let mut cfg = SystemConfig::baseline();
            cfg.noc.topology = topo;
            Simulation::builder()
                .config(cfg)
                .fabric(FabricKind::Ideal)
                .build()
                .expect("valid config")
                .run(&trace)
                .expect("well-formed trace")
                .total_ticks()
        };
        let ring = total(NocTopology::Ring);
        let xbar = total(NocTopology::Crossbar);
        let bus = total(NocTopology::Bus);
        // A crossbar's flat one-hop latency never loses to the ring; the
        // shared bus pays serialization under two-PU traffic.
        assert!(xbar <= ring, "crossbar {xbar} vs ring {ring}");
        assert!(bus > xbar, "bus {bus} vs crossbar {xbar}");
    }

    #[test]
    fn sequential_only_trace_has_no_parallel_or_comm_time() {
        let mut b = hetmem_trace::TraceBuilder::new("seq-only", 1);
        b.sequential(
            500,
            hetmem_trace::InstMix::serial(),
            hetmem_trace::AddressPattern::Stream {
                base: 0x1000,
                len: 4096,
                stride: 8,
            },
        );
        let report = run_over(&b.finish(), FabricKind::PciExpress);
        assert!(report.sequential_ticks > 0);
        assert_eq!(report.parallel_ticks, 0);
        assert_eq!(report.communication_ticks, 0);
        assert_eq!(report.gpu.instructions, 0);
    }

    #[test]
    fn ownership_specials_in_comm_segments_cost_api_acq() {
        use hetmem_trace::SpecialOp;
        let mut trace = PhasedTrace::new("own");
        let cpu: hetmem_trace::TraceStream = [
            hetmem_trace::Inst::Special(SpecialOp::Release {
                addr: 0x3000_0000,
                bytes: 64,
            }),
            hetmem_trace::Inst::Special(SpecialOp::Acquire {
                addr: 0x3000_0000,
                bytes: 64,
            }),
        ]
        .into_iter()
        .collect();
        trace.push_segment(hetmem_trace::PhaseSegment::new(
            hetmem_trace::Phase::Communication,
            cpu,
            hetmem_trace::TraceStream::new(),
        ));
        let report = run_over(&trace, FabricKind::PciExpress);
        let costs = CommCosts::paper();
        assert_eq!(
            report.communication_ticks,
            2 * costs.cpu_cycles_ticks(costs.api_acq_cycles)
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let trace = Kernel::KMeans.generate(&KernelParams::scaled(32));
        let run = || run_over(&trace, FabricKind::PciExpress);
        assert_eq!(run(), run());
    }
}
