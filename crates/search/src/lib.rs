//! # hetmem-search
//!
//! Guided design-space optimization over the cached sweep core: instead of
//! exhaustively enumerating kernels × targets × scales, a seeded black-box
//! strategy spends a job budget where it matters and reports the exact
//! Pareto frontier of the evaluated candidates.
//!
//! * [`Objective`] — the four minimized axes: simulated cycles, a
//!   communication/DRAM-traffic energy proxy, the Table V programmability
//!   LoC metric (via the DSL lowering), and the abstract hardware-cost
//!   score.
//! * [`pareto_indices`] / [`dominates`] — exact frontier extraction with
//!   deterministic (input-order) dominance ordering, re-exported from
//!   [`hetmem_core::metrics`], the workspace's one dominance
//!   implementation.
//! * [`Strategy`] — pluggable optimizers: a seeded random baseline and
//!   successive halving over scale-fidelity rungs.
//! * [`run_search`] — the budgeted driver executing batches through
//!   [`hetmem_xplore::run_jobs`], so the content-addressed cache makes
//!   warm restarts free; budget counts jobs *submitted*, so the
//!   trajectory — and the rendered JSON — is byte-identical for any cache
//!   state, worker count, or re-run with the same seed.
//!
//! ## Example
//!
//! ```
//! use hetmem_search::{run_search, Objective, SearchConfig, SearchOptions, SearchSpace, Strategy};
//!
//! let mut space = SearchSpace::full(512); // tiny traces for the example
//! space.kernels.truncate(1);
//! let config = SearchConfig {
//!     budget: space.default_budget(),
//!     space,
//!     objectives: Objective::ALL.to_vec(),
//!     strategy: Strategy::Halving,
//!     seed: 7,
//!     mode: hetmem_sim::ExecMode::Accurate,
//! };
//! let result = run_search(&config, SearchOptions::with_workers(2)).expect("search");
//! assert!(!result.frontier.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod driver;
mod frontier;
mod objective;
mod rng;
mod space;
mod strategy;

pub use driver::{
    run_search, score, CandidateEval, ProgressHook, RoundLog, SearchConfig, SearchOptions,
    SearchProgress, SearchResult, SearchStats,
};
pub use frontier::system_frontier_table;
pub use hetmem_core::metrics::{dominates, pareto_indices};
pub use hetmem_xplore::Json;
pub use objective::Objective;
pub use rng::SearchRng;
pub use space::SearchSpace;
pub use strategy::{Optimizer, SearchState, Strategy};
