//! Phase-structured traces.
//!
//! The paper divides execution time into three categories — *sequential*,
//! *parallel*, and *communication* (§V-A, Figure 5) — and its benchmarks are
//! described by compute patterns such as `parallel → merge → sequential`
//! (Table III). A [`PhasedTrace`] preserves that structure so the simulator
//! can attribute cycles to the right category and so design points can decide
//! how communication phases overlap with computation (e.g. GMAC's
//! asynchronous copies).

use crate::inst::{Inst, InstClass};
use crate::stream::TraceStream;
use crate::PuKind;

/// Execution-time category of a trace segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Phase {
    /// Single-threaded work on the CPU (initialization, merges, final steps).
    #[default]
    Sequential,
    /// Both PUs compute concurrently on their halves of the work.
    Parallel,
    /// Inter-PU data movement mandated by the benchmark structure.
    Communication,
}

impl Phase {
    /// All phases, in the paper's reporting order.
    pub const ALL: [Phase; 3] = [Phase::Sequential, Phase::Parallel, Phase::Communication];
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Phase::Sequential => f.write_str("sequential"),
            Phase::Parallel => f.write_str("parallel"),
            Phase::Communication => f.write_str("communication"),
        }
    }
}

/// One contiguous segment of a trace, executed in a single phase.
///
/// * `Sequential` segments hold CPU instructions only.
/// * `Parallel` segments hold a CPU stream and a GPU stream that execute
///   concurrently; the segment ends when both finish.
/// * `Communication` segments hold the host-side stream containing the
///   [`Inst::Comm`] events (plus any special operations the programming
///   model inserted around them).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseSegment {
    phase: Phase,
    cpu: TraceStream,
    gpu: TraceStream,
}

impl PhaseSegment {
    /// Creates a segment in `phase` with the given per-PU streams.
    #[must_use]
    pub fn new(phase: Phase, cpu: TraceStream, gpu: TraceStream) -> PhaseSegment {
        PhaseSegment { phase, cpu, gpu }
    }

    /// The segment's phase.
    #[must_use]
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// The stream executed by `pu` in this segment.
    #[must_use]
    pub fn stream(&self, pu: PuKind) -> &TraceStream {
        match pu {
            PuKind::Cpu => &self.cpu,
            PuKind::Gpu => &self.gpu,
        }
    }

    /// Total instructions across both PUs in this segment.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cpu.len() + self.gpu.len()
    }

    /// Whether both streams are empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cpu.is_empty() && self.gpu.is_empty()
    }
}

/// A complete, phase-structured kernel trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhasedTrace {
    name: String,
    segments: Vec<PhaseSegment>,
}

impl PhasedTrace {
    /// Creates an empty trace for a kernel called `name`.
    #[must_use]
    pub fn new(name: impl Into<String>) -> PhasedTrace {
        PhasedTrace {
            name: name.into(),
            segments: Vec::new(),
        }
    }

    /// The kernel name this trace was generated from.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The trace's segments, in program order.
    #[must_use]
    pub fn segments(&self) -> &[PhaseSegment] {
        &self.segments
    }

    /// Appends a segment.
    pub fn push_segment(&mut self, segment: PhaseSegment) {
        self.segments.push(segment);
    }

    /// Total dynamic instructions executed by `pu` across all segments.
    #[must_use]
    pub fn pu_len(&self, pu: PuKind) -> usize {
        self.segments.iter().map(|s| s.stream(pu).len()).sum()
    }

    /// Total dynamic instructions executed by `pu` in segments of `phase`.
    #[must_use]
    pub fn pu_phase_len(&self, pu: PuKind, phase: Phase) -> usize {
        self.segments
            .iter()
            .filter(|s| s.phase() == phase)
            .map(|s| s.stream(pu).len())
            .sum()
    }

    /// Number of communication events in the whole trace.
    #[must_use]
    pub fn comm_count(&self) -> usize {
        self.segments
            .iter()
            .map(|s| s.stream(PuKind::Cpu).comm_count() + s.stream(PuKind::Gpu).comm_count())
            .sum()
    }

    /// Total bytes moved by all communication events.
    #[must_use]
    pub fn comm_bytes(&self) -> u64 {
        self.segments
            .iter()
            .map(|s| s.stream(PuKind::Cpu).comm_bytes() + s.stream(PuKind::Gpu).comm_bytes())
            .sum()
    }

    /// Total bytes moved by communication events in one direction.
    #[must_use]
    pub fn comm_bytes_in(&self, direction: crate::TransferDirection) -> u64 {
        self.segments
            .iter()
            .flat_map(|s| {
                s.stream(PuKind::Cpu)
                    .iter()
                    .chain(s.stream(PuKind::Gpu).iter())
            })
            .filter_map(Inst::comm_event)
            .filter(|ev| ev.direction == direction)
            .map(|ev| ev.bytes)
            .sum()
    }

    /// The Table III statistics of this trace.
    #[must_use]
    pub fn characteristics(&self) -> crate::Characteristics {
        crate::Characteristics::of(self)
    }

    /// Checks the structural invariants of a phase-structured trace.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant:
    ///
    /// * sequential segments must not contain GPU instructions;
    /// * communication events may only appear in communication segments;
    /// * communication segments must contain at least one communication
    ///   event and no plain compute/memory instructions.
    pub fn validate(&self) -> Result<(), TraceShapeError> {
        for (idx, seg) in self.segments.iter().enumerate() {
            match seg.phase() {
                Phase::Sequential => {
                    if !seg.stream(PuKind::Gpu).is_empty() {
                        return Err(TraceShapeError::GpuWorkInSequential { segment: idx });
                    }
                }
                Phase::Parallel => {}
                Phase::Communication => {
                    // Both counts are kept by the streams: no rescan.
                    let ops = |s: &TraceStream| s.comm_count() + s.class_count(InstClass::Special);
                    let (host, device) = (seg.stream(PuKind::Cpu), seg.stream(PuKind::Gpu));
                    // Ownership-only segments (e.g. the partially shared
                    // space's acquire/release with no bulk transfer) are
                    // legal: at least one comm event *or* special operation.
                    if ops(host) == 0 {
                        return Err(TraceShapeError::EmptyCommunication { segment: idx });
                    }
                    if host.len() + device.len() != ops(host) + ops(device) {
                        return Err(TraceShapeError::ComputeInCommunication { segment: idx });
                    }
                }
            }
            if seg.phase() != Phase::Communication {
                let comm_here =
                    seg.stream(PuKind::Cpu).comm_count() + seg.stream(PuKind::Gpu).comm_count();
                if comm_here != 0 {
                    return Err(TraceShapeError::CommOutsideCommunication { segment: idx });
                }
            }
        }
        Ok(())
    }

    /// Iterator over all instructions of `pu` in program order, disregarding
    /// phase boundaries.
    pub fn pu_insts(&self, pu: PuKind) -> impl Iterator<Item = &Inst> + '_ {
        self.segments.iter().flat_map(move |s| s.stream(pu).iter())
    }
}

/// A structural violation of the phased-trace shape invariants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceShapeError {
    /// A sequential segment contained GPU instructions.
    GpuWorkInSequential {
        /// Index of the offending segment.
        segment: usize,
    },
    /// A communication segment contained neither a communication event nor
    /// a special operation.
    EmptyCommunication {
        /// Index of the offending segment.
        segment: usize,
    },
    /// A communication segment contained plain compute/memory instructions.
    ComputeInCommunication {
        /// Index of the offending segment.
        segment: usize,
    },
    /// A communication event appeared outside a communication segment.
    CommOutsideCommunication {
        /// Index of the offending segment.
        segment: usize,
    },
}

impl std::fmt::Display for TraceShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceShapeError::GpuWorkInSequential { segment } => {
                write!(
                    f,
                    "segment {segment}: sequential segment contains GPU instructions"
                )
            }
            TraceShapeError::EmptyCommunication { segment } => {
                write!(
                    f,
                    "segment {segment}: communication segment has no communication event"
                )
            }
            TraceShapeError::ComputeInCommunication { segment } => {
                write!(
                    f,
                    "segment {segment}: communication segment contains compute instructions"
                )
            }
            TraceShapeError::CommOutsideCommunication { segment } => {
                write!(
                    f,
                    "segment {segment}: communication event outside a communication segment"
                )
            }
        }
    }
}

impl std::error::Error for TraceShapeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{CommEvent, CommKind, TransferDirection};

    fn comm_inst(bytes: u64) -> Inst {
        Inst::Comm(CommEvent {
            direction: TransferDirection::HostToDevice,
            bytes,
            kind: CommKind::InitialInput,
            addr: 0,
        })
    }

    #[test]
    fn phase_lengths_are_attributed() {
        let mut t = PhasedTrace::new("demo");
        t.push_segment(PhaseSegment::new(
            Phase::Sequential,
            [Inst::IntAlu; 3].into_iter().collect(),
            TraceStream::new(),
        ));
        t.push_segment(PhaseSegment::new(
            Phase::Parallel,
            [Inst::FpAlu; 2].into_iter().collect(),
            [Inst::SimdAlu { lanes: 8 }; 5].into_iter().collect(),
        ));
        assert_eq!(t.pu_len(PuKind::Cpu), 5);
        assert_eq!(t.pu_len(PuKind::Gpu), 5);
        assert_eq!(t.pu_phase_len(PuKind::Cpu, Phase::Sequential), 3);
        assert_eq!(t.pu_phase_len(PuKind::Gpu, Phase::Parallel), 5);
        assert_eq!(t.pu_phase_len(PuKind::Gpu, Phase::Sequential), 0);
    }

    #[test]
    fn validate_accepts_well_formed_trace() {
        let mut t = PhasedTrace::new("ok");
        t.push_segment(PhaseSegment::new(
            Phase::Communication,
            [comm_inst(64)].into_iter().collect(),
            TraceStream::new(),
        ));
        t.push_segment(PhaseSegment::new(
            Phase::Parallel,
            [Inst::IntAlu].into_iter().collect(),
            [Inst::IntAlu].into_iter().collect(),
        ));
        assert_eq!(t.validate(), Ok(()));
        assert_eq!(t.comm_count(), 1);
        assert_eq!(t.comm_bytes(), 64);
    }

    #[test]
    fn validate_rejects_gpu_work_in_sequential() {
        let mut t = PhasedTrace::new("bad");
        t.push_segment(PhaseSegment::new(
            Phase::Sequential,
            TraceStream::new(),
            [Inst::IntAlu].into_iter().collect(),
        ));
        assert_eq!(
            t.validate(),
            Err(TraceShapeError::GpuWorkInSequential { segment: 0 })
        );
    }

    #[test]
    fn validate_rejects_comm_outside_communication() {
        let mut t = PhasedTrace::new("bad");
        t.push_segment(PhaseSegment::new(
            Phase::Parallel,
            [comm_inst(8)].into_iter().collect(),
            TraceStream::new(),
        ));
        assert_eq!(
            t.validate(),
            Err(TraceShapeError::CommOutsideCommunication { segment: 0 })
        );
    }

    #[test]
    fn validate_rejects_empty_or_compute_communication() {
        let mut t = PhasedTrace::new("bad");
        t.push_segment(PhaseSegment::new(
            Phase::Communication,
            TraceStream::new(),
            TraceStream::new(),
        ));
        assert_eq!(
            t.validate(),
            Err(TraceShapeError::EmptyCommunication { segment: 0 })
        );

        let mut t = PhasedTrace::new("bad2");
        t.push_segment(PhaseSegment::new(
            Phase::Communication,
            [comm_inst(8), Inst::IntAlu].into_iter().collect(),
            TraceStream::new(),
        ));
        assert_eq!(
            t.validate(),
            Err(TraceShapeError::ComputeInCommunication { segment: 0 })
        );
    }
}
