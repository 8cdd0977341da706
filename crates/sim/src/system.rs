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
use crate::cpu::CpuCore;
use crate::exec::ExecMode;
use crate::fabric::{CommAction, CommCosts, CommModel};
use crate::gpu::GpuCore;
use crate::hierarchy::MemoryHierarchy;
use crate::obs::SimObserver;
use crate::stats::RunReport;
use hetmem_trace::{Inst, Phase, PhasedTrace, PuKind};

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
    /// Builds a system with explicit communication-cost parameters.
    ///
    /// The pre-builder constructors (`System::new` plus a standalone
    /// `System::run`) were removed once every call site migrated to
    /// [`crate::Simulation::builder`]; construct through the builder
    /// unless you are wiring a custom harness around [`System::execute`].
    #[must_use]
    pub fn with_costs(config: &SystemConfig, costs: CommCosts) -> System {
        System::with_costs_and_locality(config, costs, true)
    }

    /// Builds a system, selecting whether the LLC honours the explicit
    /// locality bit (`false` is the plain-LRU ablation of §II-B5).
    #[must_use]
    pub fn with_costs_and_locality(
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

    /// Builds a system whose LLC ignores the explicit-locality bit (the
    /// hybrid-locality ablation).
    #[must_use]
    pub fn without_llc_locality(config: &SystemConfig) -> System {
        System::with_costs_and_locality(config, CommCosts::paper(), false)
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
    /// compile away. `Accurate` is the reference loop. `Sampled` alternates
    /// detailed windows with functionally-warmed skips whose cost is
    /// extrapolated from the measured ticks-per-instruction; its
    /// microarchitectural counters cover only the detailed windows.
    pub fn execute<O: SimObserver>(
        &mut self,
        trace: &PhasedTrace,
        comm: &mut dyn CommModel,
        obs: &mut O,
        mode: ExecMode,
    ) -> RunReport {
        let mut now: Tick = 0;
        let mut seq_ticks: Tick = 0;
        let mut par_ticks: Tick = 0;
        let mut comm_ticks: Tick = 0;
        // Ticks extrapolated across sampled skips rather than simulated.
        let mut ff_ticks: Tick = 0;
        // Completion time of outstanding asynchronous transfers the next
        // parallel segment's GPU work must wait for.
        let mut dma_ready: Tick = 0;

        for (index, segment) in trace.segments().iter().enumerate() {
            let seg_start = now;
            obs.on_phase_start(index, segment.phase(), now);
            match segment.phase() {
                Phase::Sequential => {
                    let insts = segment.stream(PuKind::Cpu).as_slice();
                    let end = match mode {
                        ExecMode::Sampled {
                            warm_interval,
                            detail_window,
                        } => {
                            let (end, skipped) = sampled_cpu_stream(
                                &mut self.cpu,
                                &mut self.hierarchy,
                                insts,
                                now,
                                warm_interval,
                                detail_window,
                                obs,
                            );
                            ff_ticks += skipped;
                            end
                        }
                        ExecMode::Accurate => self
                            .cpu
                            .begin(insts, now)
                            .run_to_end(&mut self.hierarchy, obs),
                    };
                    seq_ticks += end - now;
                    now = end;
                }
                Phase::Parallel => {
                    let cpu_insts = segment.stream(PuKind::Cpu).as_slice();
                    let gpu_insts = segment.stream(PuKind::Gpu).as_slice();
                    // Asynchronous copies stream their data during kernel
                    // execution (GMAC's on-demand/rolling transfer): both
                    // cores start immediately, and only the portion of the
                    // transfer that outlives the computation is charged to
                    // communication below.
                    let compute_end = match mode {
                        ExecMode::Accurate => interleaved_parallel(
                            &mut self.cpu,
                            &mut self.gpu,
                            &mut self.hierarchy,
                            cpu_insts,
                            gpu_insts,
                            now,
                            obs,
                        ),
                        ExecMode::Sampled {
                            warm_interval,
                            detail_window,
                        } => {
                            // Paired sampling: detailed windows interleave
                            // both cores by global time (full contention
                            // fidelity), then both streams skip together so
                            // the clocks never diverge. A phase where both
                            // streams fit one window is exact.
                            let (end, skipped) = sampled_parallel(
                                &mut self.cpu,
                                &mut self.gpu,
                                &mut self.hierarchy,
                                cpu_insts,
                                gpu_insts,
                                now,
                                warm_interval,
                                detail_window,
                                obs,
                            );
                            ff_ticks += skipped;
                            end
                        }
                    };
                    par_ticks += compute_end - now;
                    // A background transfer that outlives the computation
                    // delays the segment's completion; that tail is
                    // communication time.
                    if dma_ready > compute_end {
                        comm_ticks += dma_ready - compute_end;
                        now = dma_ready;
                    } else {
                        now = compute_end;
                    }
                    dma_ready = 0;
                }
                Phase::Communication => {
                    for inst in segment.stream(PuKind::Cpu).iter() {
                        match inst {
                            Inst::Comm(event) => {
                                // Classify before planning: `plan` may mutate
                                // first-touch state the class depends on.
                                let class = comm.cost_class(event);
                                let action = comm.plan(event);
                                obs.on_comm(event, &action, class, now);
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
                                let ticks = self.costs.special_ticks(op);
                                obs.on_special(PuKind::Cpu, op, ticks, now);
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

        RunReport {
            kernel: trace.name().to_owned(),
            sequential_ticks: seq_ticks,
            parallel_ticks: par_ticks,
            communication_ticks: comm_ticks,
            fast_forwarded_ticks: ff_ticks,
            hierarchy: self.hierarchy.stats(),
            cpu: self.cpu.stats(),
            gpu: self.gpu.stats(),
        }
    }
}

/// The reference parallel-phase loop: CPU and GPU runs interleaved by
/// global time (CPU owns ties) so both cores contend for the same LLC/DRAM
/// state in order.
fn interleaved_parallel<O: SimObserver>(
    cpu: &mut CpuCore,
    gpu: &mut GpuCore,
    hier: &mut MemoryHierarchy,
    cpu_insts: &[Inst],
    gpu_insts: &[Inst],
    now: Tick,
    obs: &mut O,
) -> Tick {
    let mut cpu_run = cpu.begin(cpu_insts, now);
    let mut gpu_run = gpu.begin(gpu_insts, now);
    loop {
        match (cpu_run.done(), gpu_run.done()) {
            (true, true) => break,
            (false, true) => {
                cpu_run.step(hier, obs);
            }
            (true, false) => {
                gpu_run.step(hier, obs);
            }
            (false, false) => {
                if cpu_run.now() <= gpu_run.now() {
                    cpu_run.step(hier, obs);
                } else {
                    gpu_run.step(hier, obs);
                }
            }
        }
    }
    cpu_run.finish_tick().max(gpu_run.finish_tick()).max(now)
}

/// SMARTS-style sampling of one CPU instruction stream: detailed windows of
/// `window` instructions alternate with skips of `warm` instructions whose
/// duration is extrapolated from the measured detailed ticks-per-
/// instruction. The whole stream executes as ONE [`CpuCore::begin`] run —
/// skips advance the run's index and clock in place — so no pipeline-drain
/// penalty is paid at window boundaries, and the measured ratio is the
/// steady-state issue throughput (`now()` deltas, drain excluded). The
/// front half of each detailed window is a warm-up that absorbs cold
/// cache/predictor state; only the back half feeds the ratio. Programming-
/// model specials inside skipped spans still execute in detail (they
/// mutate scratchpad/LLC mappings and serialize); plain skipped
/// instructions are neither executed nor counted in the core's statistics.
/// Returns `(end tick, extrapolated ticks)`.
fn sampled_cpu_stream<O: SimObserver>(
    cpu: &mut CpuCore,
    hier: &mut MemoryHierarchy,
    insts: &[Inst],
    start: Tick,
    warm: u64,
    window: u64,
    obs: &mut O,
) -> (Tick, Tick) {
    let window = usize::try_from(window.max(1)).unwrap_or(usize::MAX);
    let warm = usize::try_from(warm).unwrap_or(usize::MAX);
    let n = insts.len();
    let mut run = cpu.begin(insts, start);
    let mut i = 0usize;
    let mut det_insts: u128 = 0;
    let mut det_ticks: u128 = 0;
    let mut skipped: Tick = 0;
    while i < n {
        let w = window.min(n - i);
        let head = if i + w < n && warm > 0 { w / 2 } else { 0 };
        for _ in 0..head {
            run.step(hier, obs);
        }
        let measure_from = run.now();
        for _ in head..w {
            run.step(hier, obs);
        }
        det_ticks += u128::from(run.now() - measure_from);
        det_insts += (w - head) as u128;
        i += w;
        if i >= n || warm == 0 {
            continue;
        }
        let mut remaining = warm.min(n - i);
        while remaining > 0 {
            let plain = run.skip_plain(remaining);
            if plain > 0 {
                let est = ((plain as u128 * det_ticks) / det_insts.max(1)) as Tick;
                run.advance_clock(est);
                skipped += est;
                obs.on_fast_forward(est, run.now());
                remaining -= plain;
                i += plain;
            }
            if remaining > 0 {
                // Stopped at a programming-model special: run it in detail.
                run.step(hier, obs);
                remaining -= 1;
                i += 1;
            }
        }
    }
    (run.finish_tick().max(start), skipped)
}

/// Paired SMARTS sampling of a parallel phase. Detailed windows run both
/// cores through the reference global-time interleave (CPU owns ties), so
/// contention and ordering against the shared LLC/DRAM are exactly the
/// accurate loop's within every window. Both streams then skip together —
/// each side extrapolates from its own measured ticks-per-instruction — so
/// neither clock ever rewinds against the time-stateful hierarchy. A phase
/// where both streams fit a single window executes exactly. Returns
/// `(phase end tick, extrapolated ticks)`.
#[allow(clippy::too_many_arguments)]
fn sampled_parallel<O: SimObserver>(
    cpu: &mut CpuCore,
    gpu: &mut GpuCore,
    hier: &mut MemoryHierarchy,
    cpu_insts: &[Inst],
    gpu_insts: &[Inst],
    start: Tick,
    warm: u64,
    window: u64,
    obs: &mut O,
) -> (Tick, Tick) {
    let window = usize::try_from(window.max(1)).unwrap_or(usize::MAX);
    let warm = usize::try_from(warm).unwrap_or(usize::MAX);
    let (cn, gn) = (cpu_insts.len(), gpu_insts.len());
    let mut cpu_run = cpu.begin(cpu_insts, start);
    let mut gpu_run = gpu.begin(gpu_insts, start);
    let (mut ci, mut gi) = (0usize, 0usize);
    let (mut c_insts, mut c_ticks): (u128, u128) = (0, 0);
    let (mut g_insts, mut g_ticks): (u128, u128) = (0, 0);
    let mut skipped: Tick = 0;
    while ci < cn || gi < gn {
        // Detailed window: interleave by global time until each side has
        // stepped `window` instructions or run out of stream.
        let c_target = window.min(cn - ci);
        let g_target = window.min(gn - gi);
        // Only the back half of each side's window feeds its ratio: the
        // front half absorbs post-skip cold-cache transients (skipped
        // loads never warmed the hierarchy), like the sequential sampler.
        let (c_head, g_head) = (c_target / 2, g_target / 2);
        let (mut c_from, mut g_from) = (cpu_run.now(), gpu_run.now());
        let (mut c_steps, mut g_steps) = (0usize, 0usize);
        loop {
            let c_eligible = c_steps < c_target;
            let g_eligible = g_steps < g_target;
            let step_cpu = match (c_eligible, g_eligible) {
                (false, false) => break,
                (true, false) => true,
                (false, true) => false,
                (true, true) => cpu_run.now() <= gpu_run.now(),
            };
            if step_cpu {
                cpu_run.step(hier, obs);
                c_steps += 1;
                if c_steps == c_head {
                    c_from = cpu_run.now();
                }
            } else {
                gpu_run.step(hier, obs);
                g_steps += 1;
                if g_steps == g_head {
                    g_from = gpu_run.now();
                }
            }
        }
        c_insts += (c_steps - c_head.min(c_steps)) as u128;
        c_ticks += u128::from(cpu_run.now().saturating_sub(c_from));
        g_insts += (g_steps - g_head.min(g_steps)) as u128;
        g_ticks += u128::from(gpu_run.now().saturating_sub(g_from));
        ci += c_steps;
        gi += g_steps;
        if (ci >= cn && gi >= gn) || warm == 0 {
            continue;
        }
        // Skip phase, both sides together: plain spans extrapolate from the
        // owning core's measured rate, programming-model specials run in
        // detail.
        let mut remaining = warm.min(cn - ci);
        while remaining > 0 {
            let plain = cpu_run.skip_plain(remaining);
            if plain > 0 {
                let est = ((plain as u128 * c_ticks) / c_insts.max(1)) as Tick;
                cpu_run.advance_clock(est);
                skipped += est;
                obs.on_fast_forward(est, cpu_run.now());
                remaining -= plain;
                ci += plain;
            }
            if remaining > 0 {
                cpu_run.step(hier, obs);
                remaining -= 1;
                ci += 1;
            }
        }
        let mut remaining = warm.min(gn - gi);
        while remaining > 0 {
            let plain = gpu_run.skip_plain(remaining);
            if plain > 0 {
                let est = ((plain as u128 * g_ticks) / g_insts.max(1)) as Tick;
                gpu_run.advance_clock(est);
                skipped += est;
                obs.on_fast_forward(est, gpu_run.now());
                remaining -= plain;
                gi += plain;
            }
            if remaining > 0 {
                gpu_run.step(hier, obs);
                remaining -= 1;
                gi += 1;
            }
        }
    }
    (
        cpu_run.finish_tick().max(gpu_run.finish_tick()).max(start),
        skipped,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Simulation;
    use crate::fabric::{FabricKind, SynchronousFabric};
    use crate::obs::NullObserver;
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
    fn direct_execute_matches_builder_path() {
        // Custom harnesses that wire `System::execute` directly (the
        // builder's engine) must see exactly the builder's reports.
        let real = Kernel::Reduction.generate(&KernelParams::scaled(8));
        let mut sys = System::with_costs(&SystemConfig::baseline(), CommCosts::paper());
        let mut comm = SynchronousFabric::new(FabricKind::PciExpress, CommCosts::paper());
        let direct = sys.execute(&real, &mut comm, &mut NullObserver, ExecMode::Accurate);
        assert_eq!(direct, run_over(&real, FabricKind::PciExpress));
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
