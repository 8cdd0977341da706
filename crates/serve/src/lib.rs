//! # hetmem-serve
//!
//! A batched simulation service over the hetmem design-space explorer:
//! a std-only HTTP/1.1 JSON API that accepts `sim`, `sweep`, and
//! `check` jobs, validates them into the same deterministic job
//! representations [`hetmem_xplore`] executes, and runs them on a
//! sharded worker pool with:
//!
//! * **content-addressed result reuse** — `/v1/sim` shares the
//!   [`hetmem_xplore::DiskCache`] with `hetmem sweep --cache-dir`, so a
//!   repeated request (or one a sweep already covered) is answered
//!   without simulating;
//! * **request coalescing** — identical in-flight jobs share one
//!   execution;
//! * **bounded-queue admission control** — a burst past the configured
//!   queue depth is answered `429` with `Retry-After` instead of
//!   growing memory;
//! * **per-request deadlines** — a job whose `deadline_ms` expires
//!   before a worker starts it is answered `504` with the typed
//!   [`hetmem_sim::SimError::DeadlineExceeded`] message;
//! * **graceful drain** — `POST /v1/shutdown` stops admission,
//!   completes every accepted job, and then stops the workers; a job
//!   that panics answers `500` instead of killing its worker, and idle
//!   client connections time out, so neither can wedge the drain;
//! * **live metrics** — `GET /metrics` reports queue depth, worker
//!   utilization, cache hit rate, latency histograms, and the aggregate
//!   [`hetmem_sim::EventCounts`] folded in from live runs;
//! * **clustering** — with `--advertise` / `--join`, several servers
//!   form a fleet over [`hetmem_cluster`]: the content-key space is
//!   sharded across a consistent-hash ring, requests are forwarded to
//!   their owning node, which answers them through the same local path
//!   (and coalesces them there), the entry node relays the owner's
//!   status and body, and `/metrics?cluster=1` merges every member's
//!   counters.
//!
//! ## Endpoints
//!
//! | Method | Path            | Behaviour                                     |
//! |--------|-----------------|-----------------------------------------------|
//! | POST   | `/v1/sim`       | One kernel × system cell; body is byte-identical to `hetmem sim --format json` |
//! | POST   | `/v1/sweep`     | Async grid; answers `202` with a poll URL      |
//! | POST   | `/v1/search`    | Async guided multi-objective search; the poll URL reports the Pareto frontier-so-far |
//! | POST   | `/v1/check`     | Static verifier; answers the checker's JSONL   |
//! | GET    | `/v1/jobs/<id>` | Async job status / result (running searches include a `progress` object) |
//! | GET    | `/v1/health`    | Liveness + readiness; `503` with `Retry-After` while draining |
//! | GET    | `/metrics`      | The metric registry as JSON (`?cluster=1` merges the whole fleet) |
//! | POST   | `/v1/shutdown`  | Graceful drain (std-only binaries cannot trap signals) |
//!
//! ## Example
//!
//! ```
//! use hetmem_serve::{ServeOptions, Server};
//! use std::io::{Read as _, Write as _};
//!
//! let server = Server::start(&ServeOptions {
//!     addr: "127.0.0.1:0".to_owned(),
//!     workers: 1,
//!     ..ServeOptions::default()
//! })
//! .expect("start");
//! let mut conn = std::net::TcpStream::connect(server.local_addr()).expect("connect");
//! conn.write_all(b"GET /v1/health HTTP/1.1\r\n\r\n").expect("write");
//! let mut reply = String::new();
//! conn.read_to_string(&mut reply).expect("read");
//! assert!(reply.contains("\"status\":\"ok\""));
//! server.shutdown();
//! server.wait();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod jobs;
pub mod metrics;
pub mod pool;
pub mod server;

pub use http::{query_flag, Request, Response};
pub use jobs::{
    parse_check_request, parse_fix_request, parse_search_request, parse_sim_request,
    parse_sweep_request, run_check_request, run_fix_request, run_search_request, run_sim,
    run_sweep_request, search_progress_json, CheckRequest, JobState, Registry, SearchRequest,
    SimRequest, SweepRequest, DEFAULT_SCALE,
};
pub use metrics::{merge_metrics, LatencyHistogram, Metrics};
pub use pool::{Outcome, Rejected, ShardedPool, Ticket};
pub use server::{JobResult, ServeOptions, Server};
