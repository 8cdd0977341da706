//! Scatter-gather distributed sweeps: [`JobDispatcher`] implementations
//! that partition a sweep/search batch by ring ownership of each work
//! unit's placement key and fan each partition out to its owner node
//! over the frame protocol.
//!
//! Two dispatchers share the partitioning logic:
//!
//! * [`NodeDispatcher`] — used by a fleet member's own serve layer. It
//!   keeps the entry node's share local (the engine runs unclaimed
//!   indices on the local pool) and scatters every other owner's share.
//! * [`FleetDispatcher`] — used by a CLI or bench process that is *not*
//!   a ring member. It learns the ring from any node's `peers` frame
//!   and scatters **every** partition, so a laptop can drive a fleet.
//!
//! A part travels as an `execute` frame on the `/v1/sweep-part`
//! endpoint and comes back as the owner's one `{status, body}` reply.
//! Partitions are chunked so no frame can exceed the protocol's 4 MiB
//! cap, and every failure mode — unreachable owner, any non-200 status
//! (busy, draining, failed), oversized result, malformed records —
//! surfaces as an error from [`JobDispatcher::execute`], which the
//! engine answers by running the part on the local pool. Failover
//! costs latency, never correctness: records land in their ordinal
//! slots wherever they ran, so the merged output is byte-identical to a
//! single-node run.

use crate::node::{self, ClusterNode, SWEEP_PART};
use crate::proto;
use crate::ring::Ring;
use hetmem_sim::SimError;
use hetmem_xplore::dispatch::{encode_part, parse_part_records, wire_config_tag};
use hetmem_xplore::json::Json;
use hetmem_xplore::ser::SweepRecord;
use hetmem_xplore::{placement_key, work_units, DispatchContext, Job, JobDispatcher, JobPart};
use std::sync::{Arc, Weak};

/// Most jobs one scattered part carries. A job row is ~100 bytes
/// and a result record a few KB, so 256 records stay far under the
/// 4 MiB frame cap with an order of magnitude to spare.
const MAX_PART_JOBS: usize = 256;

/// Splits `jobs` into per-owner parts by ring ownership of each work
/// unit's [`placement_key`], chunked under the frame cap. A unit — the
/// jobs of one (kernel, scale) — goes whole to one owner and, unless it
/// alone exceeds the cap, into one part, so the owner simulates its
/// compute once and replays it for the unit's other jobs. Owners appear
/// in first-claimed order; indices within a part ascend (both matter for
/// determinism of the scatter, though the merge is order-insensitive by
/// construction). `exclude` drops one owner (the entry node keeps its
/// own share local). Returns nothing when the configuration cannot ship
/// over the wire — the sweep then runs purely locally.
fn ring_parts(
    jobs: &[Job],
    ctx: &DispatchContext<'_>,
    ring: &Ring,
    exclude: Option<&str>,
) -> Vec<JobPart> {
    if wire_config_tag(ctx.config).is_none() {
        return Vec::new();
    }
    let mut owners: Vec<String> = Vec::new();
    let mut shares: Vec<Vec<Vec<usize>>> = Vec::new();
    for unit in work_units(jobs, 0..jobs.len()) {
        let key = placement_key(&jobs[unit[0]], ctx.config, ctx.mode);
        let Some(owner) = ring.owner(&key) else {
            continue;
        };
        if exclude == Some(owner) {
            continue;
        }
        match owners.iter().position(|o| o == owner) {
            Some(slot) => shares[slot].push(unit),
            None => {
                owners.push(owner.to_owned());
                shares.push(vec![unit]);
            }
        }
    }
    owners
        .into_iter()
        .zip(shares)
        .flat_map(|(owner, units)| {
            unit_chunks(&units).into_iter().map(move |indices| JobPart {
                owner: owner.clone(),
                indices,
            })
        })
        .collect()
}

/// Packs `units` into chunks of at most [`MAX_PART_JOBS`] jobs without
/// cutting a unit, except one that alone exceeds the cap. Each chunk's
/// indices ascend.
fn unit_chunks(units: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let mut chunks = Vec::new();
    let mut chunk: Vec<usize> = Vec::new();
    for piece in units.iter().flat_map(|unit| unit.chunks(MAX_PART_JOBS)) {
        if chunk.len() + piece.len() > MAX_PART_JOBS {
            chunks.push(std::mem::take(&mut chunk));
        }
        chunk.extend_from_slice(piece);
    }
    if !chunk.is_empty() {
        chunks.push(chunk);
    }
    for chunk in &mut chunks {
        chunk.sort_unstable();
    }
    chunks
}

/// One scatter: frame the part, call its owner, parse the records.
/// Every rejection (any non-200 status, or garbage) collapses to
/// [`SimError::PeerUnavailable`] — the engine's answer to all of them
/// is the same local fallback.
fn call_part(
    owner: &str,
    jobs: &[Job],
    part: &JobPart,
    ctx: &DispatchContext<'_>,
) -> Result<Vec<SweepRecord>, SimError> {
    let unavailable = || SimError::PeerUnavailable {
        peer: owner.to_owned(),
    };
    let body = encode_part(jobs, &part.indices, ctx).render();
    let reply = node::execute(owner, SWEEP_PART, &body)?;
    if reply.status != 200 {
        return Err(unavailable());
    }
    parse_part_records(&reply.body).map_err(|_| unavailable())
}

/// The fleet member's dispatcher: scatters every partition owned by a
/// *peer*, keeps this node's own share on the local pool. Holds the
/// node weakly so an outstanding sweep can never keep a shut-down
/// node's listener threads alive.
pub struct NodeDispatcher {
    node: Weak<ClusterNode>,
}

impl NodeDispatcher {
    /// Builds a dispatcher over `node`'s live ring.
    #[must_use]
    pub fn new(node: &Arc<ClusterNode>) -> NodeDispatcher {
        NodeDispatcher {
            node: Arc::downgrade(node),
        }
    }
}

impl JobDispatcher for NodeDispatcher {
    fn partition(&self, jobs: &[Job], ctx: &DispatchContext<'_>) -> Vec<JobPart> {
        let Some(node) = self.node.upgrade() else {
            return Vec::new();
        };
        let ring = node.ring_snapshot();
        if ring.len() <= 1 {
            return Vec::new();
        }
        let parts = ring_parts(jobs, ctx, &ring, Some(node.self_addr()));
        node.note_parts_out(parts.len() as u64);
        parts
    }

    fn execute(
        &self,
        jobs: &[Job],
        part: &JobPart,
        ctx: &DispatchContext<'_>,
    ) -> Result<Vec<SweepRecord>, SimError> {
        let outcome = call_part(&part.owner, jobs, part, ctx);
        if outcome.is_err() {
            if let Some(node) = self.node.upgrade() {
                node.note_part_failover();
            }
        }
        outcome
    }
}

/// A dispatcher for processes outside the ring — the CLI's
/// `--join H:P` and the cluster bench. It snapshots the fleet's
/// membership once at connect time and scatters every partition; the
/// driving process contributes no ring share of its own, though the
/// engine still runs any failed part on the driver's local pool.
pub struct FleetDispatcher {
    ring: Ring,
    nodes: usize,
}

impl FleetDispatcher {
    /// Asks the node at `join` for the fleet's peer list and builds the
    /// same ring every member routes by.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::PeerUnavailable`] when `join` cannot be
    /// reached or answers a frame without peers.
    pub fn connect(join: &str) -> Result<FleetDispatcher, SimError> {
        let unavailable = || SimError::PeerUnavailable {
            peer: join.to_owned(),
        };
        let request = Json::obj(vec![("kind", Json::Str("peers".to_owned()))]);
        let reply = proto::call(join, &request, proto::CONNECT_TIMEOUT)?;
        if reply.get("kind").and_then(Json::as_str) != Some("peers") {
            return Err(unavailable());
        }
        let Some(Json::Arr(peers)) = reply.get("peers") else {
            return Err(unavailable());
        };
        let members: Vec<String> = peers
            .iter()
            .filter_map(|p| p.get("cluster").and_then(Json::as_str))
            .map(str::to_owned)
            .collect();
        if members.is_empty() {
            return Err(unavailable());
        }
        Ok(FleetDispatcher {
            ring: Ring::new(&members),
            nodes: members.len(),
        })
    }

    /// How many fleet members the connect-time snapshot found.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.nodes
    }
}

impl JobDispatcher for FleetDispatcher {
    fn partition(&self, jobs: &[Job], ctx: &DispatchContext<'_>) -> Vec<JobPart> {
        ring_parts(jobs, ctx, &self.ring, None)
    }

    fn execute(
        &self,
        jobs: &[Job],
        part: &JobPart,
        ctx: &DispatchContext<'_>,
    ) -> Result<Vec<SweepRecord>, SimError> {
        call_part(&part.owner, jobs, part, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetmem_core::experiment::ExperimentConfig;
    use hetmem_sim::ExecMode;
    use hetmem_xplore::SweepSpec;

    fn ctx(config: &ExperimentConfig) -> DispatchContext<'_> {
        DispatchContext {
            config,
            timeline_interval: None,
            mode: ExecMode::Accurate,
        }
    }

    /// The 54-job grid at seven scales: 42 (kernel, scale) units, 378
    /// jobs — more than one part carries.
    fn seven_scales() -> Vec<Job> {
        SweepSpec {
            scales: vec![8, 16, 32, 64, 128, 256, 512],
            ..SweepSpec::full(512)
        }
        .expand()
    }

    fn ring_of(n: usize) -> Ring {
        let nodes: Vec<String> = (1..=n).map(|i| format!("10.0.0.{i}:1")).collect();
        Ring::new(&nodes)
    }

    /// Checks that `parts` claim every job of `jobs` exactly once, keep
    /// each (kernel, scale) unit within one part, ascend, and respect the
    /// cap. Returns the distinct owners.
    fn assert_unit_parts(jobs: &[Job], parts: &[JobPart]) -> Vec<String> {
        let mut claimed_by = vec![None; jobs.len()];
        for (p, part) in parts.iter().enumerate() {
            assert!(part.indices.len() <= MAX_PART_JOBS, "part {p} over the cap");
            assert!(part.indices.windows(2).all(|w| w[0] < w[1]), "ascending");
            for &i in &part.indices {
                assert!(claimed_by[i].replace(p).is_none(), "job {i} claimed twice");
            }
        }
        for unit in work_units(jobs, 0..jobs.len()) {
            let part = claimed_by[unit[0]].expect("every job must be claimed");
            assert!(
                unit.iter().all(|&i| claimed_by[i] == Some(part)),
                "a unit was cut across parts"
            );
        }
        let mut owners: Vec<String> = parts.iter().map(|p| p.owner.clone()).collect();
        owners.sort();
        owners.dedup();
        owners
    }

    #[test]
    fn ring_parts_cover_every_job_exactly_once() {
        let jobs = seven_scales();
        let config = ExperimentConfig::paper();
        let parts = ring_parts(&jobs, &ctx(&config), &ring_of(3), None);
        assert_eq!(
            assert_unit_parts(&jobs, &parts).len(),
            3,
            "three owners should each claim a share"
        );
    }

    #[test]
    fn every_ring_size_sends_units_whole() {
        let config = ExperimentConfig::paper();
        let one_scale = SweepSpec::full(512).expand();
        for n in 1..=3 {
            for jobs in [&one_scale, &seven_scales()] {
                let parts = ring_parts(jobs, &ctx(&config), &ring_of(n), None);
                let owners = assert_unit_parts(jobs, &parts);
                assert!(owners.len() <= n, "{owners:?}");
            }
        }
        // A sampled sweep places its units by their own keys, whole too.
        let sampled = DispatchContext {
            mode: ExecMode::sampled_default(),
            ..ctx(&config)
        };
        let jobs = seven_scales();
        assert_unit_parts(&jobs, &ring_parts(&jobs, &sampled, &ring_of(3), None));
    }

    #[test]
    fn excluded_owner_keeps_its_share_local() {
        let jobs = seven_scales();
        let config = ExperimentConfig::paper();
        let parts = ring_parts(&jobs, &ctx(&config), &ring_of(2), Some("10.0.0.1:1"));
        assert!(!parts.is_empty());
        assert!(parts.iter().all(|p| p.owner == "10.0.0.2:1"));
        let claimed: usize = parts.iter().map(|p| p.indices.len()).sum();
        assert!(claimed < jobs.len(), "the excluded owner's share stays");
    }

    #[test]
    fn non_wire_configs_stay_local_and_chunks_respect_the_cap() {
        let jobs = seven_scales();
        let mut config = ExperimentConfig::paper();
        config.costs.api_acq_cycles += 1;
        let ring = ring_of(1);
        assert!(ring_parts(&jobs, &ctx(&config), &ring, None).is_empty());

        // One owner's 378 jobs split into capped chunks on unit
        // boundaries: 28 nine-job units fill the first, 14 the second.
        assert!(jobs.len() > MAX_PART_JOBS, "{} jobs", jobs.len());
        let config = ExperimentConfig::paper();
        let parts = ring_parts(&jobs, &ctx(&config), &ring, None);
        assert_unit_parts(&jobs, &parts);
        let sizes: Vec<usize> = parts.iter().map(|p| p.indices.len()).collect();
        assert_eq!(sizes, [252, 126]);

        // Only a unit that alone exceeds the cap is cut.
        let oversized: Vec<usize> = (0..MAX_PART_JOBS + 44).collect();
        let chunks = unit_chunks(&[vec![300, 301], oversized]);
        let sizes: Vec<usize> = chunks.iter().map(Vec::len).collect();
        assert_eq!(sizes, [2, MAX_PART_JOBS, 44]);
    }

    #[test]
    fn dead_fleet_addresses_fail_typed() {
        // Bind-then-drop guarantees a refused port.
        let addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr").to_string()
        };
        assert!(matches!(
            FleetDispatcher::connect(&addr),
            Err(SimError::PeerUnavailable { .. })
        ));
    }
}
