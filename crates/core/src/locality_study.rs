//! A quantitative locality-management study — evaluating what the paper
//! could not (§V-D: "Although we discuss the locality management options,
//! we could not evaluate the performance differences").
//!
//! The workload is the pattern the hybrid scheme of §II-B5 was designed
//! for: both PUs repeatedly consult a *critical shared table* (e.g. lookup
//! tables, constants, exchanged halos) while simultaneously streaming
//! through large private buffers. Under implicit management the streaming
//! traffic continually evicts the table from the shared LLC; under explicit
//! management a `push` pins the table with the locality bit, which the
//! replacement logic honours; the ablation runs the same pushes with the
//! bit ignored (plain LRU).

use crate::experiment::ExperimentConfig;
use hetmem_sim::{FabricKind, Simulation};
use hetmem_trace::kernels::layout;
use hetmem_trace::{
    CacheLevel, Inst, Phase, PhaseSegment, PhasedTrace, PuKind, SpecialOp, TraceStream,
};

/// The locality-management variants compared.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SharedLocalityVariant {
    /// Hardware caching only; no pushes (implicit-shared).
    Implicit,
    /// Explicit `push` of the shared table, locality bit honoured
    /// (the hybrid scheme of §II-B5).
    ExplicitHybrid,
    /// The same pushes, but the replacement logic ignores the locality bit
    /// (hardware ablation: plain LRU).
    ExplicitIgnored,
}

impl SharedLocalityVariant {
    /// All variants, in presentation order.
    pub const ALL: [SharedLocalityVariant; 3] = [
        SharedLocalityVariant::Implicit,
        SharedLocalityVariant::ExplicitHybrid,
        SharedLocalityVariant::ExplicitIgnored,
    ];

    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SharedLocalityVariant::Implicit => "implicit-shared",
            SharedLocalityVariant::ExplicitHybrid => "explicit-shared (hybrid bit)",
            SharedLocalityVariant::ExplicitIgnored => "explicit-shared (bit ignored)",
        }
    }
}

impl std::fmt::Display for SharedLocalityVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One measured variant.
#[derive(Clone, Debug, PartialEq)]
pub struct LocalityStudyRow {
    /// The variant measured.
    pub variant: SharedLocalityVariant,
    /// Total execution ticks.
    pub total_ticks: u64,
    /// Shared-LLC miss rate over the whole run.
    pub llc_miss_rate: f64,
}

/// Size of the critical shared table (fits comfortably in the LLC).
const TABLE_BYTES: u64 = 512 * 1024;
/// Size of each PU's private streaming buffer (large enough to flood the
/// 8 MB LLC from both sides).
const STREAM_BYTES: u64 = 12 * 1024 * 1024;

/// Builds the reuse-under-streaming workload. Each PU's parallel stream
/// interleaves: one read from the shared table (irregular, whole-table
/// reuse) with three streaming reads marching through private memory.
fn build_trace(explicit_push: bool, scale: u32) -> PhasedTrace {
    let iterations = (STREAM_BYTES / 64 / u64::from(scale)).max(1024);
    let mut trace = PhasedTrace::new("locality-study");

    if explicit_push {
        // Host-side setup: push the table into the shared LLC.
        let mut setup = TraceStream::new();
        setup.push(Inst::Special(SpecialOp::Push {
            level: CacheLevel::SharedLlc,
            addr: layout::SHARED_BASE,
            bytes: TABLE_BYTES,
        }));
        trace.push_segment(PhaseSegment::new(
            Phase::Sequential,
            setup,
            TraceStream::new(),
        ));
    }

    let make_stream = |pu: PuKind| -> TraceStream {
        let (private_base, access): (u64, u8) = match pu {
            PuKind::Cpu => (layout::CPU_BASE, 8),
            PuKind::Gpu => (layout::GPU_BASE, 32),
        };
        let mut s = TraceStream::with_capacity(iterations as usize * 6);
        // Deterministic table-walk: a coprime stride covers the whole table.
        let table_slots = TABLE_BYTES / 64;
        let mut slot: u64 = if pu == PuKind::Cpu {
            0
        } else {
            table_slots / 2
        };
        for i in 0..iterations {
            slot = (slot + 97) % table_slots;
            s.push(Inst::Load {
                addr: layout::SHARED_BASE + slot * 64,
                bytes: access,
            });
            s.push(Inst::IntAlu);
            for k in 0..3u64 {
                let addr = private_base + ((i * 3 + k) * 64) % STREAM_BYTES;
                s.push(Inst::Load {
                    addr,
                    bytes: access,
                });
            }
            s.push(Inst::Branch {
                taken: i + 1 != iterations,
            });
        }
        s
    };

    trace.push_segment(PhaseSegment::new(
        Phase::Parallel,
        make_stream(PuKind::Cpu),
        make_stream(PuKind::Gpu),
    ));
    trace
}

/// Runs the three-variant study at trace scale `scale` on `config`'s
/// hardware. The study keeps its own [`Simulation`]: its trace is
/// synthetic rather than a Table III kernel, and its bit-ignored variant
/// switches the LLC's locality-aware replacement off, neither of which a
/// sweep job can name.
#[must_use]
pub fn run_locality_study(scale: u32, config: &ExperimentConfig) -> Vec<LocalityStudyRow> {
    SharedLocalityVariant::ALL
        .iter()
        .map(|&variant| {
            let (push, honor) = match variant {
                SharedLocalityVariant::Implicit => (false, true),
                SharedLocalityVariant::ExplicitHybrid => (true, true),
                SharedLocalityVariant::ExplicitIgnored => (true, false),
            };
            let trace = build_trace(push, scale);
            let report = Simulation::builder()
                .config(config.system)
                .costs(config.costs)
                .fabric(FabricKind::Ideal)
                .llc_locality(honor)
                .build()
                .expect("experiment system configuration is valid")
                .run(&trace)
                .expect("study traces are well-formed");
            LocalityStudyRow {
                variant,
                total_ticks: report.total_ticks(),
                llc_miss_rate: report.hierarchy.llc.miss_rate(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study() -> Vec<LocalityStudyRow> {
        run_locality_study(8, &ExperimentConfig::paper())
    }

    #[test]
    fn hybrid_push_beats_implicit_management() {
        let rows = study();
        let get = |v| {
            rows.iter()
                .find(|r| r.variant == v)
                .expect("variant present")
                .clone()
        };
        let implicit = get(SharedLocalityVariant::Implicit);
        let hybrid = get(SharedLocalityVariant::ExplicitHybrid);
        assert!(
            hybrid.total_ticks < implicit.total_ticks,
            "hybrid {} vs implicit {}",
            hybrid.total_ticks,
            implicit.total_ticks
        );
        assert!(hybrid.llc_miss_rate < implicit.llc_miss_rate);
    }

    #[test]
    fn ignoring_the_locality_bit_squanders_the_push() {
        let rows = study();
        let get = |v| {
            rows.iter()
                .find(|r| r.variant == v)
                .expect("variant present")
                .clone()
        };
        let hybrid = get(SharedLocalityVariant::ExplicitHybrid);
        let ignored = get(SharedLocalityVariant::ExplicitIgnored);
        assert!(
            hybrid.total_ticks < ignored.total_ticks,
            "hybrid {} vs ignored {}",
            hybrid.total_ticks,
            ignored.total_ticks
        );
    }

    #[test]
    fn study_is_deterministic() {
        assert_eq!(study(), study());
    }
}
