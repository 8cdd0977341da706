//! The [`Simulation`] builder — the front door of the simulator.
//!
//! The historical entry point (`System::new(&cfg)` + `system.run(&trace,
//! &mut comm)`) spread configuration, the communication model, and error
//! handling across call sites, and offered no place to hang an observer.
//! The builder gathers all of it behind one fluent chain:
//!
//! ```
//! use hetmem_sim::{FabricKind, Simulation};
//! use hetmem_trace::kernels::{Kernel, KernelParams};
//!
//! let trace = Kernel::Reduction.generate(&KernelParams::scaled(8));
//! let report = Simulation::builder()
//!     .fabric(FabricKind::PciExpress)
//!     .build()
//!     .expect("baseline config is valid")
//!     .run(&trace)
//!     .expect("generated traces are well-formed");
//! assert!(report.total_ticks() > 0);
//! ```
//!
//! Configuration problems surface at [`SimulationBuilder::build`] as
//! [`SimError::InvalidConfig`] instead of panicking mid-run, and malformed
//! or empty traces surface at [`Simulation::run`] as typed errors.

use crate::cache::MAX_ASSOCIATIVITY;
use crate::config::{NocTopology, SystemConfig};
use crate::error::SimError;
use crate::exec::ExecMode;
use crate::fabric::{CommCosts, CommModel, FabricKind, SynchronousFabric};
use crate::noc::RING_STOPS;
use crate::obs::{NullObserver, SimObserver};
use crate::stats::RunReport;
use crate::system::{Compute, ComputeLog, System};
use hetmem_trace::PhasedTrace;

enum CommChoice {
    Fabric(FabricKind),
    Custom(Box<dyn CommModel>),
}

/// Fluent configuration for a [`Simulation`].
///
/// Defaults: the Table II baseline config, the paper's Table IV costs, a
/// synchronous PCI-E fabric, locality-aware LLC replacement, and the
/// zero-overhead [`NullObserver`].
pub struct SimulationBuilder<O: SimObserver = NullObserver> {
    config: SystemConfig,
    costs: CommCosts,
    comm: CommChoice,
    llc_locality: bool,
    mode: ExecMode,
    recycled: Option<System>,
    observer: O,
}

impl Default for SimulationBuilder<NullObserver> {
    fn default() -> SimulationBuilder<NullObserver> {
        SimulationBuilder {
            config: SystemConfig::baseline(),
            costs: CommCosts::paper(),
            comm: CommChoice::Fabric(FabricKind::PciExpress),
            llc_locality: true,
            mode: ExecMode::Accurate,
            recycled: None,
            observer: NullObserver,
        }
    }
}

impl SimulationBuilder<NullObserver> {
    /// Starts from the defaults (equivalent to [`Simulation::builder`]).
    #[must_use]
    pub fn new() -> SimulationBuilder<NullObserver> {
        SimulationBuilder::default()
    }
}

impl<O: SimObserver> SimulationBuilder<O> {
    /// Sets the system configuration (Table II baseline by default).
    #[must_use]
    pub fn config(mut self, config: SystemConfig) -> SimulationBuilder<O> {
        self.config = config;
        self
    }

    /// Sets the communication-cost parameters (Table IV by default).
    #[must_use]
    pub fn costs(mut self, costs: CommCosts) -> SimulationBuilder<O> {
        self.costs = costs;
        self
    }

    /// Realizes every communication event synchronously over `fabric`
    /// (replacing any previously chosen fabric or model).
    #[must_use]
    pub fn fabric(mut self, fabric: FabricKind) -> SimulationBuilder<O> {
        self.comm = CommChoice::Fabric(fabric);
        self
    }

    /// Uses a custom communication model — a memory-model design point from
    /// `hetmem-core`, or any other [`CommModel`].
    #[must_use]
    pub fn comm_model(mut self, model: impl CommModel + 'static) -> SimulationBuilder<O> {
        self.comm = CommChoice::Custom(Box::new(model));
        self
    }

    /// Selects whether the LLC honours the explicit locality bit (§II-B5);
    /// `false` is the plain-LRU ablation.
    #[must_use]
    pub fn llc_locality(mut self, honor: bool) -> SimulationBuilder<O> {
        self.llc_locality = honor;
        self
    }

    /// Selects the execution mode ([`ExecMode::Accurate`] by default).
    /// `Sampled` trades bounded timing error for speed — see the
    /// [`ExecMode`] accuracy contract.
    #[must_use]
    pub fn mode(mut self, mode: ExecMode) -> SimulationBuilder<O> {
        self.mode = mode;
        self
    }

    /// Offers a [`System`] from a finished simulation (see
    /// [`Simulation::into_system`]) for reuse. If it was built from exactly
    /// the configuration, costs, and LLC-locality setting this builder
    /// holds, [`SimulationBuilder::build`] resets it to the power-on state
    /// instead of constructing a new one — skipping the cache-array
    /// allocation that otherwise dominates short runs. A non-matching (or
    /// `None`) offer is silently dropped and the system is built fresh, so
    /// callers can offer unconditionally.
    #[must_use]
    pub fn recycle(mut self, system: Option<System>) -> SimulationBuilder<O> {
        self.recycled = system;
        self
    }

    /// Attaches an observer (an [`crate::EventTrace`], an
    /// [`crate::IntervalProfiler`], a [`crate::Recorder`], or any
    /// [`SimObserver`]). Statically dispatched: the default
    /// [`NullObserver`] has zero overhead.
    #[must_use]
    pub fn observer<P: SimObserver>(self, observer: P) -> SimulationBuilder<P> {
        SimulationBuilder {
            config: self.config,
            costs: self.costs,
            comm: self.comm,
            llc_locality: self.llc_locality,
            mode: self.mode,
            recycled: self.recycled,
            observer,
        }
    }

    /// Validates the configuration and assembles the simulation.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] if any cache geometry, DRAM, core, or MMU
    /// parameter is degenerate.
    pub fn build(self) -> Result<Simulation<O>, SimError> {
        validate_config(&self.config)?;
        let comm: Box<dyn CommModel> = match self.comm {
            CommChoice::Fabric(fabric) => Box::new(SynchronousFabric::new(fabric, self.costs)),
            CommChoice::Custom(model) => model,
        };
        let system = match self.recycled {
            Some(mut system) if system.matches(&self.config, &self.costs, self.llc_locality) => {
                system.reset();
                system
            }
            _ => System::with_costs_and_locality(&self.config, self.costs, self.llc_locality),
        };
        Ok(Simulation {
            system,
            comm,
            mode: self.mode,
            observer: self.observer,
        })
    }
}

fn validate_cache(name: &str, cache: &crate::config::CacheConfig) -> Result<(), SimError> {
    let invalid = |msg: String| Err(SimError::InvalidConfig(msg));
    if cache.line_bytes == 0 || cache.associativity == 0 || cache.capacity_bytes == 0 {
        return invalid(format!(
            "{name}: zero line size, associativity, or capacity"
        ));
    }
    let way_bytes = u64::from(cache.line_bytes) * u64::from(cache.associativity);
    if !cache.capacity_bytes.is_multiple_of(way_bytes) {
        return invalid(format!(
            "{name}: capacity {} is not a whole number of {way_bytes}-byte set rows",
            cache.capacity_bytes
        ));
    }
    // The cache indexes sets and lines by shifting and masking.
    if !cache.line_bytes.is_power_of_two() {
        return invalid(format!(
            "{name}: line size {} is not a power of two",
            cache.line_bytes
        ));
    }
    if !cache.sets().is_power_of_two() {
        return invalid(format!(
            "{name}: set count {} is not a power of two",
            cache.sets()
        ));
    }
    if cache.associativity > MAX_ASSOCIATIVITY {
        return invalid(format!(
            "{name}: associativity {} exceeds {MAX_ASSOCIATIVITY}",
            cache.associativity
        ));
    }
    Ok(())
}

fn validate_config(config: &SystemConfig) -> Result<(), SimError> {
    let invalid = |msg: &str| Err(SimError::InvalidConfig(msg.to_owned()));
    validate_cache("cpu.l1d", &config.cpu.l1d)?;
    validate_cache("cpu.l2", &config.cpu.l2)?;
    validate_cache("gpu.l1d", &config.gpu.l1d)?;
    validate_cache("llc.tile", &config.llc.tile)?;
    if config.llc.tiles == 0 {
        return invalid("llc: zero tiles");
    }
    if config.noc.topology == NocTopology::Ring && config.llc.tiles > RING_STOPS - 2 {
        return invalid("llc: the ring has stops for only 4 tiles");
    }
    if config.cpu.issue_width == 0 || config.cpu.rob_entries == 0 {
        return invalid("cpu: zero issue width or ROB entries");
    }
    if config.dram.channels == 0 || config.dram.banks_per_channel == 0 {
        return invalid("dram: zero channels or banks");
    }
    if config.dram.row_bytes == 0 {
        return invalid("dram: zero row size");
    }
    if config.mmu.tlb_entries == 0 {
        return invalid("mmu: zero TLB entries");
    }
    if !config.mmu.cpu_page_bytes.is_power_of_two() || !config.mmu.gpu_page_bytes.is_power_of_two()
    {
        return invalid("mmu: page sizes must be non-zero powers of two");
    }
    Ok(())
}

/// A ready-to-run simulation: a [`System`], its communication model, and an
/// observer, built by [`Simulation::builder`].
pub struct Simulation<O: SimObserver = NullObserver> {
    system: System,
    comm: Box<dyn CommModel>,
    mode: ExecMode,
    observer: O,
}

impl Simulation<NullObserver> {
    /// Starts configuring a simulation.
    #[must_use]
    pub fn builder() -> SimulationBuilder<NullObserver> {
        SimulationBuilder::default()
    }
}

impl<O: SimObserver> Simulation<O> {
    /// Simulates `trace`, returning the per-phase breakdown. The simulation
    /// carries core, cache, and observer state across calls, matching real
    /// hardware warming up over repeated kernels.
    ///
    /// # Errors
    ///
    /// [`SimError::MalformedTrace`] if the trace violates the phased-trace
    /// shape invariants; [`SimError::EmptyTrace`] if it has no segments.
    pub fn run(&mut self, trace: &PhasedTrace) -> Result<RunReport, SimError> {
        check_trace(trace)?;
        Ok(self
            .system
            .execute(trace, &mut *self.comm, &mut self.observer, self.mode))
    }

    /// The underlying system (for inspecting hierarchy or core state).
    #[must_use]
    pub fn system(&self) -> &System {
        &self.system
    }

    /// The execution mode the simulation runs under.
    #[must_use]
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// The attached observer.
    #[must_use]
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// Mutable access to the attached observer.
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.observer
    }

    /// Consumes the simulation, returning the observer and its recordings.
    #[must_use]
    pub fn into_observer(self) -> O {
        self.observer
    }

    /// Consumes the simulation, returning the system for recycling into a
    /// later build (see [`SimulationBuilder::recycle`]) along with the
    /// observer.
    #[must_use]
    pub fn into_parts(self) -> (System, O) {
        (self.system, self.observer)
    }
}

fn check_trace(trace: &PhasedTrace) -> Result<(), SimError> {
    trace
        .validate()
        .map_err(|e| SimError::MalformedTrace(e.to_string()))?;
    if trace.segments().is_empty() {
        return Err(SimError::EmptyTrace);
    }
    Ok(())
}

/// One member's result from [`Simulation::run_group`].
#[derive(Clone, Debug, PartialEq)]
pub struct GroupRun {
    /// Exactly what a freshly built simulation's [`Simulation::run`]
    /// reports under this member's communication model.
    pub report: RunReport,
    /// Whether the member's compute segments were replayed from the
    /// leader's timeline. `false` for the leader, and for a member that
    /// failed the quiescence guard and was simulated in full.
    pub replayed: bool,
}

impl Simulation<NullObserver> {
    /// Simulates `trace` under this simulation's communication model (the
    /// group's *leader*) and then under each model `others` builds,
    /// returning the leader's run first and then one run per model, in
    /// order.
    ///
    /// Communication segments never touch the memory hierarchy, so the
    /// members differ only in when each compute segment starts. The leader
    /// records its compute timeline and every other member replays it,
    /// running only its communication live, as long as each compute
    /// segment starts *quiescent* in both runs: no DRAM bank, DRAM bus or
    /// NoC bus busy past the start (see
    /// [`crate::MemoryHierarchy::timing_horizon`]). Such a segment evolves
    /// identically at any start, shifted in time. A member that fails the
    /// guard is simulated in full, from the power-on state, under a second
    /// model its factory builds. Every member starts from the power-on
    /// state, so each report equals a freshly built simulation's
    /// [`Simulation::run`] under that model. `others` is pulled one member
    /// at a time, so a caller can stop the group early.
    ///
    /// # Errors
    ///
    /// The same as [`Simulation::run`], before any member runs.
    pub fn run_group<F>(
        &mut self,
        trace: &PhasedTrace,
        others: impl IntoIterator<Item = F>,
    ) -> Result<Vec<GroupRun>, SimError>
    where
        F: Fn() -> Box<dyn CommModel>,
    {
        check_trace(trace)?;
        let mode = self.mode;
        let mut log = ComputeLog::default();
        self.system.reset();
        let report = self
            .system
            .run_segments(
                trace,
                &mut *self.comm,
                &mut NullObserver,
                mode,
                Compute::Live(Some(&mut log)),
            )
            .expect("a live run replays nothing, so it never abandons");
        let mut runs = vec![GroupRun {
            report,
            replayed: false,
        }];
        for model in others {
            let replay = self.system.run_segments(
                trace,
                &mut *model(),
                &mut NullObserver,
                mode,
                Compute::Replay(&log),
            );
            runs.push(match replay {
                Some(report) => GroupRun {
                    report,
                    replayed: true,
                },
                None => {
                    self.system.reset();
                    GroupRun {
                        report: self
                            .system
                            .execute(trace, &mut *model(), &mut NullObserver, mode),
                        replayed: false,
                    }
                }
            });
        }
        Ok(runs)
    }
}

impl<O: SimObserver> std::fmt::Debug for Simulation<O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("config", self.system.config())
            .finish_non_exhaustive()
    }
}

impl<O: SimObserver> std::fmt::Debug for SimulationBuilder<O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimulationBuilder")
            .field("config", &self.config)
            .field("llc_locality", &self.llc_locality)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;

    #[test]
    fn default_build_succeeds() {
        let sim = Simulation::builder().build();
        assert!(sim.is_ok());
    }

    #[test]
    fn degenerate_cache_geometry_is_rejected() {
        let mut cfg = SystemConfig::baseline();
        cfg.cpu.l1d = CacheConfig {
            capacity_bytes: 1000,
            associativity: 8,
            line_bytes: 64,
            latency_cycles: 1,
        };
        match Simulation::builder().config(cfg).build() {
            Err(SimError::InvalidConfig(msg)) => assert!(msg.contains("cpu.l1d"), "{msg}"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    fn rejected_with(cfg: SystemConfig) -> String {
        match Simulation::builder().config(cfg).build() {
            Err(SimError::InvalidConfig(msg)) => msg,
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn non_power_of_two_set_count_is_rejected() {
        let mut cfg = SystemConfig::baseline();
        // 48 KiB / (8 ways × 64 B) = 96 sets.
        cfg.cpu.l1d.capacity_bytes = 48 * 1024;
        let msg = rejected_with(cfg);
        assert!(
            msg.contains("cpu.l1d") && msg.contains("set count 96"),
            "{msg}"
        );
    }

    #[test]
    fn non_power_of_two_line_size_is_rejected() {
        let mut cfg = SystemConfig::baseline();
        // 8 ways × 48 B × 64 sets: a whole number of set rows.
        cfg.gpu.l1d.line_bytes = 48;
        cfg.gpu.l1d.capacity_bytes = 8 * 48 * 64;
        let msg = rejected_with(cfg);
        assert!(
            msg.contains("gpu.l1d") && msg.contains("line size 48"),
            "{msg}"
        );
    }

    #[test]
    fn associativity_beyond_the_way_hint_is_rejected() {
        let mut cfg = SystemConfig::baseline();
        cfg.llc.tile.associativity = 512;
        cfg.llc.tile.capacity_bytes = 512 * 64 * 64;
        let msg = rejected_with(cfg);
        assert!(msg.contains("llc.tile") && msg.contains("512"), "{msg}");
        // The largest supported associativity still builds.
        cfg.llc.tile.associativity = MAX_ASSOCIATIVITY;
        cfg.llc.tile.capacity_bytes = u64::from(MAX_ASSOCIATIVITY) * 64 * 64;
        assert!(Simulation::builder().config(cfg).build().is_ok());
    }

    #[test]
    fn more_llc_tiles_than_ring_stops_are_rejected() {
        let mut cfg = SystemConfig::baseline();
        cfg.llc.tiles = 5;
        assert!(rejected_with(cfg).contains("llc"));
        // Crossbar and bus place no tile on a ring stop.
        cfg.noc.topology = NocTopology::Crossbar;
        let trace = hetmem_trace::kernels::Kernel::Reduction
            .generate(&hetmem_trace::kernels::KernelParams::scaled(512));
        let mut sim = Simulation::builder().config(cfg).build().expect("valid");
        assert!(sim.run(&trace).is_ok());
    }

    #[test]
    fn zero_dram_channels_rejected() {
        let mut cfg = SystemConfig::baseline();
        cfg.dram.channels = 0;
        assert!(matches!(
            Simulation::builder().config(cfg).build(),
            Err(SimError::InvalidConfig(_))
        ));
    }

    #[test]
    fn non_power_of_two_pages_rejected() {
        let mut cfg = SystemConfig::baseline();
        cfg.mmu.gpu_page_bytes = 3000;
        assert!(matches!(
            Simulation::builder().config(cfg).build(),
            Err(SimError::InvalidConfig(_))
        ));
    }

    #[test]
    fn empty_trace_is_an_error() {
        let trace = PhasedTrace::new("empty");
        let mut sim = Simulation::builder().build().expect("valid config");
        assert_eq!(sim.run(&trace), Err(SimError::EmptyTrace));
    }
}
