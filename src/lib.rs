//! # hetmem
//!
//! Design-space exploration of memory models for heterogeneous (CPU+GPU)
//! computing — a from-scratch Rust reproduction of Lim & Kim, *Design Space
//! Exploration of Memory Model for Heterogeneous Computing* (MSPC/PLDI
//! 2012).
//!
//! This facade crate re-exports the whole stack:
//!
//! * [`trace`] (`hetmem-trace`) — the instruction set, phase-structured
//!   traces, and the six synthetic kernel generators matching Table III.
//! * [`sim`] (`hetmem-sim`) — the cycle-level CPU+GPU simulator: cores,
//!   caches with locality-aware replacement, MSI coherence, ring NoC,
//!   DDR3 FR-FCFS DRAM, TLBs, and communication fabrics (Table II/IV).
//! * [`core`] (`hetmem-core`) — the design-space layer: address-space
//!   semantics, ownership, locality schemes, the Table I catalog, the five
//!   evaluated systems, and the efficiency metrics over a Figure 5/6 grid.
//! * [`dsl`] (`hetmem-dsl`) — the heterogeneous-programming DSL whose
//!   per-model lowering reproduces the Table V programmability metric.
//! * [`xplore`] (`hetmem-xplore`) — the parallel, cached design-space sweep
//!   engine behind `hetmem sweep` and the Figure 5–7 grids.
//! * [`serve`] (`hetmem-serve`) — the batched simulation service behind
//!   `hetmem serve`: a std-only HTTP/1.1 JSON API over sharded workers
//!   with admission control, request coalescing, and live metrics.
//! * [`cluster`] (`hetmem-cluster`) — the multi-node fleet layer behind
//!   `hetmem serve --join`: consistent-hash sharding of the result-cache
//!   key space, request forwarding to the key's owner (which answers
//!   through its own local request path), scatter-gather sweeps, and
//!   heartbeat membership.
//!
//! ## Quickstart
//!
//! ```
//! use hetmem::core::experiment::ExperimentConfig;
//! use hetmem::core::report::render_figure5;
//! use hetmem::xplore::{run_case_studies, SweepOptions};
//!
//! // Figure 5 on small inputs: six kernels on the five evaluated systems.
//! let config = ExperimentConfig::paper();
//! let (runs, _) = run_case_studies(512, &config, &SweepOptions::default())?;
//! println!("{}", render_figure5(&runs));
//! # Ok::<(), hetmem::sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;

pub use hetmem_cluster as cluster;
pub use hetmem_core as core;
pub use hetmem_dsl as dsl;
pub use hetmem_serve as serve;
pub use hetmem_sim as sim;
pub use hetmem_trace as trace;
pub use hetmem_xplore as xplore;
