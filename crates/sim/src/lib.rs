//! # hetmem-sim
//!
//! A cycle-level, trace-driven heterogeneous CPU+GPU simulator — the
//! substrate the paper built on MacSim, reimplemented from scratch.
//!
//! The baseline system (Table II of the paper) is one out-of-order CPU core
//! (3.5 GHz, gshare) and one in-order 8-wide-SIMD GPU core (1.5 GHz,
//! stall-on-branch, 16 KB software-managed scratchpad) sharing a 4-tile
//! 8 MB LLC over a ring bus, backed by 4 channels of DDR3-1333 scheduled
//! FR-FCFS, with MSI directory coherence between the PUs' private caches.
//!
//! Communication between the PUs is executed per semantic event according to
//! a pluggable [`CommModel`], parameterized by the paper's Table IV costs
//! ([`CommCosts`]): `api-pci`, `api-acq`, `api-tr`, and `lib-pf`.
//!
//! ## Example
//!
//! ```
//! use hetmem_sim::{FabricKind, Simulation};
//! use hetmem_trace::kernels::{Kernel, KernelParams};
//!
//! let trace = Kernel::Reduction.generate(&KernelParams::scaled(64));
//! let report = Simulation::builder()
//!     .fabric(FabricKind::PciExpress)
//!     .build()
//!     .expect("baseline config is valid")
//!     .run(&trace)
//!     .expect("generated traces are well-formed");
//! assert!(report.total_ticks() > 0);
//! println!("{report}");
//! ```
//!
//! To watch the run as it happens, attach an observer — an [`EventTrace`]
//! for typed events, an [`IntervalProfiler`] for a counter timeline, or a
//! [`Recorder`] bundling both:
//!
//! ```
//! use hetmem_sim::{EventTrace, Simulation};
//! use hetmem_trace::kernels::{Kernel, KernelParams};
//!
//! let trace = Kernel::Reduction.generate(&KernelParams::scaled(8));
//! let mut sim = Simulation::builder()
//!     .observer(EventTrace::new())
//!     .build()
//!     .expect("valid config");
//! sim.run(&trace).expect("well-formed trace");
//! let events = sim.into_observer();
//! assert!(events.counts().dram_requests > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bpred;
mod builder;
mod cache;
mod clock;
mod coherence;
mod config;
mod cpu;
mod dram;
mod energy;
mod error;
mod exec;
mod fabric;
mod gpu;
mod hierarchy;
mod noc;
mod obs;
mod stats;
mod system;
mod tlb;

pub use bpred::Gshare;
pub use builder::{GroupRun, Simulation, SimulationBuilder};
pub use cache::{Cache, CacheStats, Evicted, Lookup, Placement};
pub use clock::{ticks_to_ns, ClockDomain, Tick, TICKS_PER_SECOND};
pub use coherence::{CoherenceStats, Directory, Intervention, InterventionKind, LineState};
pub use config::{
    CacheConfig, CpuConfig, DramConfig, DramPolicy, GpuConfig, LlcConfig, MmuConfig, NocConfig,
    NocTopology, SystemConfig,
};
pub use cpu::{CpuCore, CpuRun, CpuStats};
pub use dram::{Dram, DramResponse, DramStats};
pub use energy::{estimate_energy, CommTraffic, EnergyBreakdown, EnergyParams};
pub use error::SimError;
pub use exec::ExecMode;
pub use fabric::{CommAction, CommCostClass, CommCosts, CommModel, FabricKind, SynchronousFabric};
pub use gpu::{GpuCore, GpuRun, GpuStats, Scratchpad};
pub use hierarchy::{AccessResult, HierarchyStats, MemoryHierarchy, ServiceLevel};
pub use noc::{Interconnect, RingBus, RING_STOPS};
pub use obs::{
    EventCounts, EventTrace, IntervalProfiler, NullObserver, Recorder, SimEvent, SimObserver,
    TimelineSample, TimelineSummary, DEFAULT_BURST_GAP, DEFAULT_EVENT_CAPACITY,
    MAX_TIMELINE_SAMPLES,
};
pub use stats::{DerivedStats, RunReport};
pub use system::System;
pub use tlb::{Tlb, TlbStats};
