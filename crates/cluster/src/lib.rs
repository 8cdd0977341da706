//! Multi-node clustering for the hetmem simulation service.
//!
//! The serve layer answers design-space queries (`/v1/sim`,
//! `/v1/check`, sweeps) whose results are content-addressed and
//! memoized; this crate turns a set of such servers into one fleet
//! with a **sharded result cache**:
//!
//! * [`Ring`] — a consistent-hash ring with virtual nodes partitions
//!   the placement-key space, so every (kernel, scale) work unit — and
//!   with it every job and cached record — has exactly one owner, and
//!   membership changes move only the dead node's keys;
//! * [`proto`] — a std-only wire protocol (4-byte length prefix +
//!   JSON) carries join handshakes, heartbeats, forwarded requests,
//!   and metrics fan-out between nodes;
//! * [`ClusterNode`] — membership (gossip-lite heartbeats, missed-
//!   window death detection, tombstones), request forwarding, and
//!   reactive stealing: a request whose owner is busy, draining or dead
//!   runs on the entry node.
//!
//! A forwarded request runs on its owner through the same code a local
//! client hits, so identical requests coalesce in the owner's pool
//! whichever node they entered by, and the owner's `{status, body}`
//! reply is relayed as it is. The crate knows nothing about HTTP or the
//! simulator: the serve layer injects [`Hooks`] (answer-locally,
//! snapshot-metrics) and answers itself whenever
//! [`ClusterNode::forward`] hands a request back.
//!
//! Everything rides on `std::net::TcpStream` — the build environment
//! has no package registry, the same constraint the HTTP server and
//! JSON module already live under.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod node;
pub mod proto;
pub mod ring;
pub mod sweep;

pub use node::{ClusterConfig, ClusterNode, Executor, Hooks, MetricsProvider, Reply};
pub use ring::{Ring, VNODES};
pub use sweep::{FleetDispatcher, NodeDispatcher};
