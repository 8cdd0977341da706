//! JSON and CSV serialization of sweep results.
//!
//! A [`SweepRecord`] carries the full [`RunReport`] — every counter the
//! simulator produced — so a cache hit reconstructs exactly what a live run
//! would have returned, and figure renderers downstream of the engine see
//! no difference between cold and warm sweeps.

use crate::json::{Json, JsonError};
use hetmem_sim::{
    CacheStats, CoherenceStats, CpuStats, DramStats, ExecMode, GpuStats, HierarchyStats, RunReport,
    TimelineSummary, TlbStats,
};

/// One sweep result: the job coordinates plus the simulator's full report.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepRecord {
    /// Ordinal id of the job within its sweep (output sort key).
    pub id: u64,
    /// Job family: `"case-study"` (Fig 5/6 axis) or `"address-space"`
    /// (Fig 7 axis).
    pub kind: String,
    /// Kernel name (Table III).
    pub kernel: String,
    /// The evaluated system's name, or the address-space abbreviation.
    pub target: String,
    /// Trace scale divisor.
    pub scale: u32,
    /// The design-space coordinates of the target.
    pub design_point: String,
    /// The execution mode the job ran under. Accurate records serialize
    /// byte-identically to records produced before modes existed, so cache
    /// entries and goldens stay stable.
    pub mode: ExecMode,
    /// The simulator's report.
    pub report: RunReport,
    /// Timeline aggregate. No sweep fills it, so the engine always
    /// leaves it `None`, and a `None` record serializes without the
    /// field. A record that carries one still round-trips exactly
    /// through [`SweepRecord::to_json`] and [`SweepRecord::from_json`].
    pub timeline: Option<TimelineSummary>,
}

/// The flat CSV header matching [`SweepRecord::csv_row`].
pub const CSV_HEADER: &str = "id,kind,kernel,target,scale,total_ticks,sequential_ticks,\
parallel_ticks,communication_ticks,cpu_instructions,gpu_instructions,cpu_ipc,gpu_ipc,\
llc_mpki,dram_bandwidth_gbps";

impl SweepRecord {
    /// The record as an ordered JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("id", Json::UInt(self.id)),
            ("kind", Json::Str(self.kind.clone())),
            ("kernel", Json::Str(self.kernel.clone())),
            ("target", Json::Str(self.target.clone())),
            ("scale", Json::UInt(u64::from(self.scale))),
            ("design_point", Json::Str(self.design_point.clone())),
            ("total_ticks", Json::UInt(self.report.total_ticks())),
            ("report", report_to_json(&self.report)),
        ];
        if self.mode != ExecMode::Accurate {
            pairs.push(("mode", Json::Str(self.mode.label().to_owned())));
        }
        if let Some(t) = &self.timeline {
            pairs.push(("timeline", timeline_to_json(t)));
        }
        Json::obj(pairs)
    }

    /// Rebuilds a record from [`SweepRecord::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when a field is missing or mistyped.
    pub fn from_json(value: &Json) -> Result<SweepRecord, JsonError> {
        let report = report_from_json(value.get("report").ok_or_else(missing("report"))?)?;
        Ok(SweepRecord {
            id: get_u64(value, "id")?,
            kind: get_str(value, "kind")?,
            kernel: get_str(value, "kernel")?,
            target: get_str(value, "target")?,
            scale: u32::try_from(get_u64(value, "scale")?)
                .map_err(|_| field_err("scale", "out of range"))?,
            design_point: get_str(value, "design_point")?,
            mode: match value.get("mode").and_then(Json::as_str) {
                Some(label) => ExecMode::parse(label).map_err(|e| field_err("mode", &e))?,
                None => ExecMode::Accurate,
            },
            report,
            timeline: value.get("timeline").map(timeline_from_json).transpose()?,
        })
    }

    /// The record as one CSV data row matching [`CSV_HEADER`].
    #[must_use]
    pub fn csv_row(&self) -> String {
        let d = self.report.derived();
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            self.id,
            csv_field(&self.kind),
            csv_field(&self.kernel),
            csv_field(&self.target),
            self.scale,
            self.report.total_ticks(),
            self.report.sequential_ticks,
            self.report.parallel_ticks,
            self.report.communication_ticks,
            self.report.cpu.instructions,
            self.report.gpu.instructions,
            d.cpu_ipc,
            d.gpu_ipc,
            d.llc_mpki,
            d.dram_bandwidth_gbps,
        )
    }
}

/// Quotes a CSV field only when it contains a separator or quote.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

fn missing(key: &'static str) -> impl Fn() -> JsonError {
    move || field_err(key, "missing")
}

fn field_err(key: &str, what: &str) -> JsonError {
    JsonError {
        at: 0,
        message: format!("field {key:?} {what}"),
    }
}

fn get_u64(value: &Json, key: &str) -> Result<u64, JsonError> {
    value
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| field_err(key, "missing or not a u64"))
}

fn get_str(value: &Json, key: &str) -> Result<String, JsonError> {
    value
        .get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| field_err(key, "missing or not a string"))
}

/// The answer to one simulation of `system`: its name, the total ticks
/// and the full report. `hetmem sim --format json` prints it and the
/// service's `/v1/sim` returns it, so the two stay byte-identical.
#[must_use]
pub fn sim_answer_to_json(system: &str, report: &RunReport) -> Json {
    Json::obj(vec![
        ("system", Json::Str(system.to_owned())),
        ("total_ticks", Json::UInt(report.total_ticks())),
        ("report", report_to_json(report)),
    ])
}

/// Serializes a full [`RunReport`] (all counters are exact integers).
#[must_use]
pub fn report_to_json(r: &RunReport) -> Json {
    let mut pairs = vec![
        ("kernel", Json::Str(r.kernel.clone())),
        ("sequential_ticks", Json::UInt(r.sequential_ticks)),
        ("parallel_ticks", Json::UInt(r.parallel_ticks)),
        ("communication_ticks", Json::UInt(r.communication_ticks)),
    ];
    // Only fast-forwarding runs carry the field, so accurate reports
    // serialize byte-identically to pre-mode reports.
    if r.fast_forwarded_ticks > 0 {
        pairs.push(("fast_forwarded_ticks", Json::UInt(r.fast_forwarded_ticks)));
    }
    pairs.extend([
        ("hierarchy", hierarchy_to_json(&r.hierarchy)),
        ("cpu", cpu_to_json(&r.cpu)),
        ("gpu", gpu_to_json(&r.gpu)),
    ]);
    Json::obj(pairs)
}

/// Deserializes [`report_to_json`] output.
///
/// # Errors
///
/// Returns a [`JsonError`] when a field is missing or mistyped.
pub fn report_from_json(v: &Json) -> Result<RunReport, JsonError> {
    Ok(RunReport {
        kernel: get_str(v, "kernel")?,
        sequential_ticks: get_u64(v, "sequential_ticks")?,
        parallel_ticks: get_u64(v, "parallel_ticks")?,
        communication_ticks: get_u64(v, "communication_ticks")?,
        fast_forwarded_ticks: v
            .get("fast_forwarded_ticks")
            .and_then(Json::as_u64)
            .unwrap_or(0),
        hierarchy: hierarchy_from_json(v.get("hierarchy").ok_or_else(missing("hierarchy"))?)?,
        cpu: cpu_from_json(v.get("cpu").ok_or_else(missing("cpu"))?)?,
        gpu: gpu_from_json(v.get("gpu").ok_or_else(missing("gpu"))?)?,
    })
}

/// Serializes a [`TimelineSummary`].
#[must_use]
pub fn timeline_to_json(t: &TimelineSummary) -> Json {
    Json::obj(vec![
        ("interval", Json::UInt(t.interval)),
        ("samples", Json::UInt(t.samples)),
        ("skipped_windows", Json::UInt(t.skipped_windows)),
        ("peak_dram_requests", Json::UInt(t.peak_dram_requests)),
        ("peak_llc_misses", Json::UInt(t.peak_llc_misses)),
        ("peak_interventions", Json::UInt(t.peak_interventions)),
        ("busiest_window_start", Json::UInt(t.busiest_window_start)),
    ])
}

/// Deserializes [`timeline_to_json`] output.
///
/// # Errors
///
/// Returns a [`JsonError`] when a field is missing or mistyped.
pub fn timeline_from_json(v: &Json) -> Result<TimelineSummary, JsonError> {
    Ok(TimelineSummary {
        interval: get_u64(v, "interval")?,
        samples: get_u64(v, "samples")?,
        skipped_windows: get_u64(v, "skipped_windows")?,
        peak_dram_requests: get_u64(v, "peak_dram_requests")?,
        peak_llc_misses: get_u64(v, "peak_llc_misses")?,
        peak_interventions: get_u64(v, "peak_interventions")?,
        busiest_window_start: get_u64(v, "busiest_window_start")?,
    })
}

fn cache_to_json(c: &CacheStats) -> Json {
    Json::obj(vec![
        ("hits", Json::UInt(c.hits)),
        ("misses", Json::UInt(c.misses)),
        ("evictions", Json::UInt(c.evictions)),
        ("writebacks", Json::UInt(c.writebacks)),
        ("bypasses", Json::UInt(c.bypasses)),
    ])
}

fn cache_from_json(v: &Json) -> Result<CacheStats, JsonError> {
    Ok(CacheStats {
        hits: get_u64(v, "hits")?,
        misses: get_u64(v, "misses")?,
        evictions: get_u64(v, "evictions")?,
        writebacks: get_u64(v, "writebacks")?,
        bypasses: get_u64(v, "bypasses")?,
    })
}

fn tlb_to_json(t: &TlbStats) -> Json {
    Json::obj(vec![
        ("hits", Json::UInt(t.hits)),
        ("misses", Json::UInt(t.misses)),
    ])
}

fn tlb_from_json(v: &Json) -> Result<TlbStats, JsonError> {
    Ok(TlbStats {
        hits: get_u64(v, "hits")?,
        misses: get_u64(v, "misses")?,
    })
}

fn hierarchy_to_json(h: &HierarchyStats) -> Json {
    Json::obj(vec![
        ("cpu_l1d", cache_to_json(&h.cpu_l1d)),
        ("cpu_l2", cache_to_json(&h.cpu_l2)),
        ("gpu_l1d", cache_to_json(&h.gpu_l1d)),
        ("llc", cache_to_json(&h.llc)),
        (
            "dram",
            Json::obj(vec![
                ("reads", Json::UInt(h.dram.reads)),
                ("writes", Json::UInt(h.dram.writes)),
                ("row_hits", Json::UInt(h.dram.row_hits)),
                ("row_misses", Json::UInt(h.dram.row_misses)),
                ("bus_busy_ticks", Json::UInt(h.dram.bus_busy_ticks)),
            ]),
        ),
        (
            "coherence",
            Json::obj(vec![
                ("invalidations", Json::UInt(h.coherence.invalidations)),
                ("peer_writebacks", Json::UInt(h.coherence.peer_writebacks)),
            ]),
        ),
        ("cpu_tlb", tlb_to_json(&h.cpu_tlb)),
        ("gpu_tlb", tlb_to_json(&h.gpu_tlb)),
        ("prefetches", Json::UInt(h.prefetches)),
    ])
}

fn hierarchy_from_json(v: &Json) -> Result<HierarchyStats, JsonError> {
    let dram = v.get("dram").ok_or_else(missing("dram"))?;
    let coherence = v.get("coherence").ok_or_else(missing("coherence"))?;
    Ok(HierarchyStats {
        cpu_l1d: cache_from_json(v.get("cpu_l1d").ok_or_else(missing("cpu_l1d"))?)?,
        cpu_l2: cache_from_json(v.get("cpu_l2").ok_or_else(missing("cpu_l2"))?)?,
        gpu_l1d: cache_from_json(v.get("gpu_l1d").ok_or_else(missing("gpu_l1d"))?)?,
        llc: cache_from_json(v.get("llc").ok_or_else(missing("llc"))?)?,
        dram: DramStats {
            reads: get_u64(dram, "reads")?,
            writes: get_u64(dram, "writes")?,
            row_hits: get_u64(dram, "row_hits")?,
            row_misses: get_u64(dram, "row_misses")?,
            bus_busy_ticks: get_u64(dram, "bus_busy_ticks")?,
        },
        coherence: CoherenceStats {
            invalidations: get_u64(coherence, "invalidations")?,
            peer_writebacks: get_u64(coherence, "peer_writebacks")?,
        },
        cpu_tlb: tlb_from_json(v.get("cpu_tlb").ok_or_else(missing("cpu_tlb"))?)?,
        gpu_tlb: tlb_from_json(v.get("gpu_tlb").ok_or_else(missing("gpu_tlb"))?)?,
        prefetches: get_u64(v, "prefetches")?,
    })
}

fn cpu_to_json(c: &CpuStats) -> Json {
    Json::obj(vec![
        ("instructions", Json::UInt(c.instructions)),
        ("branches", Json::UInt(c.branches)),
        ("mispredictions", Json::UInt(c.mispredictions)),
        ("loads", Json::UInt(c.loads)),
        ("stores", Json::UInt(c.stores)),
        ("rob_stall_ticks", Json::UInt(c.rob_stall_ticks)),
        ("special_ops", Json::UInt(c.special_ops)),
    ])
}

fn cpu_from_json(v: &Json) -> Result<CpuStats, JsonError> {
    Ok(CpuStats {
        instructions: get_u64(v, "instructions")?,
        branches: get_u64(v, "branches")?,
        mispredictions: get_u64(v, "mispredictions")?,
        loads: get_u64(v, "loads")?,
        stores: get_u64(v, "stores")?,
        rob_stall_ticks: get_u64(v, "rob_stall_ticks")?,
        special_ops: get_u64(v, "special_ops")?,
    })
}

fn gpu_to_json(g: &GpuStats) -> Json {
    Json::obj(vec![
        ("instructions", Json::UInt(g.instructions)),
        ("branch_stall_cycles", Json::UInt(g.branch_stall_cycles)),
        ("scratchpad_hits", Json::UInt(g.scratchpad_hits)),
        ("memory_loads", Json::UInt(g.memory_loads)),
        ("stores", Json::UInt(g.stores)),
        ("memory_stall_ticks", Json::UInt(g.memory_stall_ticks)),
        ("special_ops", Json::UInt(g.special_ops)),
    ])
}

fn gpu_from_json(v: &Json) -> Result<GpuStats, JsonError> {
    Ok(GpuStats {
        instructions: get_u64(v, "instructions")?,
        branch_stall_cycles: get_u64(v, "branch_stall_cycles")?,
        scratchpad_hits: get_u64(v, "scratchpad_hits")?,
        memory_loads: get_u64(v, "memory_loads")?,
        stores: get_u64(v, "stores")?,
        memory_stall_ticks: get_u64(v, "memory_stall_ticks")?,
        special_ops: get_u64(v, "special_ops")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn sample_record() -> SweepRecord {
        let mut report = RunReport {
            kernel: "reduction".into(),
            sequential_ticks: 10,
            parallel_ticks: 700,
            communication_ticks: 42,
            ..RunReport::default()
        };
        report.cpu.instructions = 1234;
        report.gpu.instructions = 5678;
        report.hierarchy.llc.hits = 11;
        report.hierarchy.dram.reads = 7;
        report.hierarchy.coherence.invalidations = 3;
        report.hierarchy.prefetches = 99;
        SweepRecord {
            id: 4,
            kind: "case-study".into(),
            kernel: "reduction".into(),
            target: "CPU+GPU".into(),
            scale: 64,
            design_point: "disjoint / pci-e / explicit / none coherence".into(),
            mode: ExecMode::Accurate,
            report,
            timeline: None,
        }
    }

    #[test]
    fn record_round_trips_through_json() {
        let record = sample_record();
        let text = record.to_json().render();
        let back = SweepRecord::from_json(&parse(&text).expect("parses")).expect("decodes");
        assert_eq!(back, record);
        assert_eq!(
            back.to_json().render(),
            text,
            "re-render must be byte-identical"
        );
    }

    #[test]
    fn csv_row_matches_header_width() {
        let record = sample_record();
        let row = record.csv_row();
        assert_eq!(row.split(',').count(), CSV_HEADER.split(',').count());
        assert!(row.starts_with("4,case-study,reduction,CPU+GPU,64,752,10,700,42,1234,5678,"));
    }

    #[test]
    fn csv_quotes_fields_with_separators() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("q\"q"), "\"q\"\"q\"");
    }

    #[test]
    fn timeline_round_trips_and_absence_is_tolerated() {
        let mut record = sample_record();
        let without = record.to_json().render();
        assert!(!without.contains("timeline"), "{without}");
        record.timeline = Some(TimelineSummary {
            interval: 1_000_000,
            samples: 12,
            skipped_windows: 0,
            peak_dram_requests: 55,
            peak_llc_misses: 21,
            peak_interventions: 3,
            busiest_window_start: 4_000_000,
        });
        let with = record.to_json().render();
        assert!(with.contains("\"timeline\""), "{with}");
        let back = SweepRecord::from_json(&parse(&with).expect("parses")).expect("decodes");
        assert_eq!(back, record);
        // Old records (no timeline field) still decode.
        let old = SweepRecord::from_json(&parse(&without).expect("parses")).expect("decodes");
        assert_eq!(old.timeline, None);
    }

    #[test]
    fn mode_round_trips_and_accurate_stays_byte_stable() {
        let mut record = sample_record();
        let accurate = record.to_json().render();
        assert!(
            !accurate.contains("\"mode\"") && !accurate.contains("fast_forwarded_ticks"),
            "accurate records must serialize like pre-mode records: {accurate}"
        );
        // Pre-mode payloads decode as accurate.
        let old = SweepRecord::from_json(&parse(&accurate).expect("parses")).expect("decodes");
        assert_eq!(old.mode, ExecMode::Accurate);
        assert_eq!(old.report.fast_forwarded_ticks, 0);

        record.mode = ExecMode::Sampled;
        record.report.fast_forwarded_ticks = 12_345;
        let sampled = record.to_json().render();
        assert!(
            sampled.contains("\"mode\":\"sampled:1536:512\""),
            "{sampled}"
        );
        assert!(
            sampled.contains("\"fast_forwarded_ticks\":12345"),
            "{sampled}"
        );
        let back = SweepRecord::from_json(&parse(&sampled).expect("parses")).expect("decodes");
        assert_eq!(back, record);
    }

    #[test]
    fn a_record_with_a_foreign_sampling_geometry_is_a_field_error() {
        let mut record = sample_record();
        record.mode = ExecMode::Sampled;
        let foreign = record
            .to_json()
            .render()
            .replace("sampled:1536:512", "sampled:1000:100");
        let err = SweepRecord::from_json(&parse(&foreign).expect("parses"))
            .expect_err("a foreign geometry must not decode");
        assert!(err.message.starts_with("field \"mode\""), "{}", err.message);
        assert!(err.message.contains("accurate|sampled"), "{}", err.message);
    }

    #[test]
    fn missing_fields_error_cleanly() {
        let v = parse("{\"id\":1}").expect("parses");
        assert!(SweepRecord::from_json(&v).is_err());
    }
}
