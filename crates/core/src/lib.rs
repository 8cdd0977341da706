//! # hetmem-core
//!
//! The paper's primary contribution rebuilt as a library: design-space
//! exploration of memory models for heterogeneous (CPU+GPU) computing.
//!
//! * [`AddressSpace`] — the four address-space options (unified /
//!   disjoint / partially shared / ADSM, §II-A), re-exported from
//!   `hetmem-dsl`, whose lowering and checker carry their semantics;
//!   [`IdealSpaceComm`] is their Figure 7 communication model.
//! * [`OwnershipTracker`] — the partially shared space's ownership protocol
//!   checker (§II-A3).
//! * [`LocalityScheme`] — the locality-management taxonomy (§II-B),
//!   including the hybrid second-level-cache scheme.
//! * [`catalog`] — the Table I survey of thirteen existing systems.
//! * [`EvaluatedSystem`] — the five case-study systems of Figures 5–6 with
//!   their communication models (synchronous PCI-E, LRB aperture +
//!   ownership + page faults, GMAC asynchronous copies, Fusion memory
//!   controller, ideal).
//! * [`DesignPoint`] — enumeration of the full design space with validity
//!   constraints.
//! * [`experiment`] — the Figure 5–7 cell types the renderers and
//!   [`metrics`] consume, plus the page-size and partitioning studies.
//!   `hetmem-xplore`'s engine runs the figure grids.
//!
//! ## Example
//!
//! ```
//! use hetmem_core::metrics::design_point_of;
//! use hetmem_core::{hardware_cost, programmer_burden, EvaluatedSystem};
//!
//! // Fusion's design point needs less hardware than IDEAL-HETERO's, and
//! // its disjoint space costs the programmer more source lines.
//! let (fusion, ideal) = (EvaluatedSystem::Fusion, EvaluatedSystem::IdealHetero);
//! assert!(hardware_cost(&design_point_of(fusion)) < hardware_cost(&design_point_of(ideal)));
//! assert!(programmer_burden(fusion.address_space()) > programmer_burden(ideal.address_space()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod address_space;
mod catalog;
pub mod consistency;
mod design_space;
pub mod experiment;
pub mod hash;
mod locality;
pub mod locality_study;
pub mod metrics;
mod ownership;
mod presets;
pub mod report;

pub use address_space::IdealSpaceComm;
pub use catalog::{by_space, catalog, Connection, Consistency, SystemEntry};
pub use consistency::{allows, enumerate_outcomes, ConsistencyModel, Op, Outcome};
pub use design_space::{CoherenceOption, DesignPoint};
pub use hash::fnv1a;
pub use hetmem_dsl::AddressSpace;
pub use locality::{LocalityControl, LocalityScheme, SharedLocality};
pub use locality_study::{run_locality_study, LocalityStudyRow, SharedLocalityVariant};
pub use metrics::{
    evaluate_energy, evaluate_systems, hardware_cost, pareto_frontier, programmer_burden,
    EnergyEval, Evaluation,
};
pub use ownership::{OwnershipError, OwnershipTracker};
pub use presets::{EvaluatedSystem, GmacModel, LrbModel, PresetCommModel};
