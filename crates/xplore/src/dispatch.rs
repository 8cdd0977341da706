//! Pluggable remote execution for the sweep engine, plus the wire
//! representation of a scattered job partition.
//!
//! [`run_jobs`](crate::run_jobs) is local by default: a worker pool over
//! an index cursor. A [`JobDispatcher`] lets a caller claim slices of
//! the job list for execution elsewhere — the cluster layer implements
//! it by partitioning jobs by ring ownership of their work units and
//! scattering each partition to its owner node. The engine stays ignorant of
//! networks: it hands the dispatcher index slices, runs whatever is not
//! claimed (plus anything the dispatcher fails) on the local pool, and
//! merges every record back into its ordinal slot, so the output is
//! byte-identical to a purely local run no matter where jobs executed.
//!
//! The wire helpers ([`encode_part`] / [`decode_part`] /
//! [`render_part_records`] / [`parse_part_records`]) define the JSON a
//! partition crosses the network as. Jobs travel as their coordinate
//! strings (the same vocabulary [`parse_kernel`] and friends accept on
//! the CLI), so the remote side reconstructs the exact [`Job`] values —
//! including their sweep ordinals — and records come back through
//! [`SweepRecord`]'s exact-round-trip serialization.

use crate::json::Json;
use crate::ser::SweepRecord;
use crate::spec::{parse_kernel, parse_space, parse_system, Job, JobKind};
use hetmem_core::experiment::ExperimentConfig;
use hetmem_sim::{ExecMode, SimError};

/// Everything a dispatcher needs to route and ship one sweep's jobs:
/// the hardware/cost configuration and the execution mode, which are
/// part of each job's content key.
pub struct DispatchContext<'a> {
    /// The hardware/cost configuration every job runs under.
    pub config: &'a ExperimentConfig,
    /// Ignored: no sweep embeds a timeline in its records, so neither
    /// routing nor the wire reads this. It stays for existing callers,
    /// which set it to `None`.
    pub timeline_interval: Option<u64>,
    /// The sweep's execution mode.
    pub mode: ExecMode,
}

/// One slice of a sweep claimed for remote execution: ascending indices
/// into the sweep's job list, plus the executor the dispatcher chose
/// for it (an opaque designation the engine never interprets).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobPart {
    /// Where the dispatcher will run this part (e.g. a cluster address).
    pub owner: String,
    /// Ascending indices into the sweep's job list.
    pub indices: Vec<usize>,
}

/// Remote execution strategy for [`run_jobs`](crate::run_jobs).
///
/// `partition` claims index slices; `execute` runs one slice and must
/// return its records **in part order** with ids matching the claimed
/// jobs. Any error (or a malformed result) sends the part back to the
/// local pool — failover costs latency, never correctness.
pub trait JobDispatcher: Send + Sync {
    /// Splits `jobs` into remotely-executed parts. Indices not claimed
    /// by any part run on the local worker pool. Returning an empty
    /// vector makes the sweep purely local.
    fn partition(&self, jobs: &[Job], ctx: &DispatchContext<'_>) -> Vec<JobPart>;

    /// Executes one part remotely.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the remote side is unreachable or
    /// rejects the part; the engine then runs the part locally.
    fn execute(
        &self,
        jobs: &[Job],
        part: &JobPart,
        ctx: &DispatchContext<'_>,
    ) -> Result<Vec<SweepRecord>, SimError>;
}

/// The configuration fingerprint shipped alongside a part so both sides
/// agree on the hardware/cost point without serializing it field by
/// field.
#[must_use]
pub fn config_signature(config: &ExperimentConfig) -> String {
    format!("{:?} | {:?}", config.system, config.costs)
}

/// The named configuration tag a part frame carries, or `None` when
/// `config` is not expressible on the wire (and the sweep must stay
/// local). Today exactly one point ships: the paper baseline, whose
/// signature [`ExperimentConfig::paper`] reproduces on any node.
#[must_use]
pub fn wire_config_tag(config: &ExperimentConfig) -> Option<&'static str> {
    (config_signature(config) == config_signature(&ExperimentConfig::paper())).then_some("paper")
}

/// Renders the part addressed by `indices` into the wire object:
/// `{"config": tag, "mode"?: label, "jobs": [...]}`.
/// Jobs carry their sweep ordinals, so remote cache hits are re-labeled
/// exactly as local ones are.
///
/// # Panics
///
/// Panics if an index is out of range for `jobs` or the configuration
/// has no wire tag — the dispatcher must only encode what it claimed
/// under [`wire_config_tag`].
#[must_use]
pub fn encode_part(jobs: &[Job], indices: &[usize], ctx: &DispatchContext<'_>) -> Json {
    let tag = wire_config_tag(ctx.config).expect("config must have a wire tag");
    let mut pairs = vec![("config", Json::Str(tag.to_owned()))];
    if ctx.mode != ExecMode::Accurate {
        pairs.push(("mode", Json::Str(ctx.mode.label().to_owned())));
    }
    let rows = indices
        .iter()
        .map(|&index| {
            let job = &jobs[index];
            Json::obj(vec![
                ("id", Json::UInt(job.id)),
                ("kind", Json::Str(job.kind_name().to_owned())),
                ("kernel", Json::Str(job.kernel.name().to_owned())),
                ("target", Json::Str(job.target_name().to_owned())),
                ("scale", Json::UInt(u64::from(job.scale))),
            ])
        })
        .collect();
    pairs.push(("jobs", Json::Arr(rows)));
    Json::obj(pairs)
}

/// A decoded part, ready to execute.
pub struct PartRequest {
    /// The reconstructed jobs, carrying their original sweep ordinals.
    pub jobs: Vec<Job>,
    /// The sweep's execution mode.
    pub mode: ExecMode,
    /// The hardware/cost configuration named by the part's config tag.
    pub config: ExperimentConfig,
}

/// Decodes a part object produced by [`encode_part`].
///
/// # Errors
///
/// Returns a one-line message on an unknown config tag, a malformed job
/// row, or an unknown kernel/target name.
pub fn decode_part(value: &Json) -> Result<PartRequest, String> {
    let config = match value.get("config").and_then(Json::as_str) {
        Some("paper") => ExperimentConfig::paper(),
        Some(other) => return Err(format!("unknown part config tag {other:?}")),
        None => return Err("part without a config tag".to_owned()),
    };
    let mode = match value.get("mode").and_then(Json::as_str) {
        Some(label) => ExecMode::parse(label).map_err(|e| format!("bad part mode: {e}"))?,
        None => ExecMode::Accurate,
    };
    let Some(Json::Arr(rows)) = value.get("jobs") else {
        return Err("part without a jobs array".to_owned());
    };
    let mut jobs = Vec::with_capacity(rows.len());
    for row in rows {
        let id = row
            .get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| "part job without an id".to_owned())?;
        let kernel = parse_kernel(
            row.get("kernel")
                .and_then(Json::as_str)
                .ok_or_else(|| "part job without a kernel".to_owned())?,
        )?;
        let target = row
            .get("target")
            .and_then(Json::as_str)
            .ok_or_else(|| "part job without a target".to_owned())?;
        let kind = match row.get("kind").and_then(Json::as_str) {
            Some("case-study") => JobKind::CaseStudy {
                system: parse_system(target)?,
            },
            Some("address-space") => JobKind::AddressSpace {
                space: parse_space(target)?,
            },
            other => return Err(format!("unknown part job kind {other:?}")),
        };
        let scale = row
            .get("scale")
            .and_then(Json::as_u64)
            .and_then(|n| u32::try_from(n).ok())
            .filter(|&n| n > 0)
            .ok_or_else(|| "part job with a bad scale".to_owned())?;
        jobs.push(Job {
            id,
            kernel,
            kind,
            scale,
        });
    }
    Ok(PartRequest { jobs, mode, config })
}

/// Renders a part's result body: `{"records": [...]}` through
/// [`SweepRecord::to_json`]'s exact-round-trip serialization.
#[must_use]
pub fn render_part_records(records: &[SweepRecord]) -> String {
    Json::obj(vec![(
        "records",
        Json::Arr(records.iter().map(SweepRecord::to_json).collect()),
    )])
    .render()
}

/// Parses a part result body back into records.
///
/// # Errors
///
/// Returns a one-line message on malformed JSON or a bad record.
pub fn parse_part_records(body: &str) -> Result<Vec<SweepRecord>, String> {
    let value = crate::json::parse(body).map_err(|e| format!("bad part result: {e}"))?;
    let Some(Json::Arr(rows)) = value.get("records") else {
        return Err("part result without a records array".to_owned());
    };
    rows.iter()
        .map(|row| SweepRecord::from_json(row).map_err(|e| format!("bad part record: {e}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;

    fn ctx(config: &ExperimentConfig) -> DispatchContext<'_> {
        DispatchContext {
            config,
            timeline_interval: None,
            mode: ExecMode::Accurate,
        }
    }

    #[test]
    fn every_grid_job_survives_the_wire() {
        let jobs = SweepSpec::full(512).expand();
        let config = ExperimentConfig::paper();
        let indices: Vec<usize> = (0..jobs.len()).collect();
        let encoded = encode_part(&jobs, &indices, &ctx(&config));
        let decoded = decode_part(&encoded).expect("decode");
        assert_eq!(decoded.jobs, jobs, "jobs must reconstruct exactly");
        assert_eq!(decoded.mode, ExecMode::Accurate);
    }

    #[test]
    fn the_mode_rides_along_and_the_timeline_stays_off_the_wire() {
        let jobs = SweepSpec::full(64).expand();
        let config = ExperimentConfig::paper();
        let encoded = encode_part(
            &jobs,
            &[0, 3],
            &DispatchContext {
                config: &config,
                timeline_interval: Some(1_000_000),
                mode: ExecMode::sampled_default(),
            },
        );
        let decoded = decode_part(&encoded).expect("decode");
        assert_eq!(decoded.mode, ExecMode::sampled_default());
        assert_eq!(decoded.jobs.len(), 2);
        assert_eq!(decoded.jobs[1], jobs[3]);
        let wire = encoded.render();
        assert!(wire.contains("\"mode\":\"sampled:1536:512\""), "{wire}");
        assert!(!wire.contains("timeline"), "{wire}");
    }

    #[test]
    fn a_part_with_a_foreign_sampling_geometry_does_not_decode() {
        let jobs = SweepSpec::full(64).expand();
        let config = ExperimentConfig::paper();
        let encoded = encode_part(
            &jobs,
            &[0],
            &DispatchContext {
                config: &config,
                timeline_interval: None,
                mode: ExecMode::Sampled,
            },
        )
        .render()
        .replace("sampled:1536:512", "sampled:1000:100");
        let Err(err) = decode_part(&crate::json::parse(&encoded).expect("parses")) else {
            panic!("a foreign geometry must not decode");
        };
        assert!(err.contains("accurate|sampled"), "{err}");
    }

    #[test]
    fn only_the_paper_point_has_a_wire_tag() {
        assert_eq!(wire_config_tag(&ExperimentConfig::paper()), Some("paper"));
        let mut other = ExperimentConfig::paper();
        other.costs.api_acq_cycles += 1;
        assert_eq!(wire_config_tag(&other), None);
        assert!(decode_part(&Json::obj(vec![("config", Json::Str("exotic".to_owned()))])).is_err());
    }

    #[test]
    fn part_records_round_trip() {
        use hetmem_sim::RunReport;
        let records = vec![SweepRecord {
            id: 7,
            kind: "case-study".to_owned(),
            kernel: "reduction".to_owned(),
            target: "Fusion".to_owned(),
            scale: 512,
            design_point: "p".to_owned(),
            mode: ExecMode::Accurate,
            report: RunReport {
                kernel: "reduction".to_owned(),
                parallel_ticks: 42,
                ..RunReport::default()
            },
            timeline: None,
        }];
        let body = render_part_records(&records);
        assert_eq!(parse_part_records(&body).expect("parse"), records);
        assert!(parse_part_records("{\"nope\":1}").is_err());
    }
}
