//! The model-agnostic heterogeneous-program representation.
//!
//! A [`Program`] describes *what* a benchmark does — which buffers exist,
//! which kernels run where, and what data they touch — without committing to
//! a memory model. The lowering passes in [`crate::lower`] then insert the
//! allocation, transfer, and ownership statements each address-space design
//! forces on the programmer, exactly as the paper's Figures 2–3 contrast the
//! same reduction written for different models.

/// Index of a buffer within its [`Program`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BufId(pub usize);

/// The programmer's declared intent for how device code uses a buffer —
/// the per-buffer access-mode annotation of the DSL's `buffer` item
/// (`buffer x: 8192 read;`).
///
/// Modes are *intents*: the checker validates them against actual kernel
/// usage (HM0005) and the `fix` pass trusts the validated intent when
/// computing the minimal communication set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessMode {
    /// Device kernels only read the buffer; the host produces it.
    Read,
    /// Device kernels only write the buffer; the host consumes it.
    Write,
    /// Both directions (the default when no mode is declared).
    #[default]
    ReadWrite,
    /// The buffer accumulates partial results across kernels (read and
    /// written by the device, merged by the host).
    Reduce,
}

impl AccessMode {
    /// The concrete-syntax keyword (`read`, `write`, `readwrite`,
    /// `reduce`).
    #[must_use]
    pub fn keyword(self) -> &'static str {
        match self {
            AccessMode::Read => "read",
            AccessMode::Write => "write",
            AccessMode::ReadWrite => "readwrite",
            AccessMode::Reduce => "reduce",
        }
    }

    /// Parses a concrete-syntax keyword.
    #[must_use]
    pub fn from_keyword(word: &str) -> Option<AccessMode> {
        match word {
            "read" => Some(AccessMode::Read),
            "write" => Some(AccessMode::Write),
            "readwrite" => Some(AccessMode::ReadWrite),
            "reduce" => Some(AccessMode::Reduce),
            _ => None,
        }
    }
}

impl std::fmt::Display for AccessMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.keyword())
    }
}

/// A data buffer in the program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Buffer {
    /// Source-level name (`a`, `b`, `points`, …).
    pub name: String,
    /// Size in bytes.
    pub bytes: u64,
    /// Declared device access intent (defaults to
    /// [`AccessMode::ReadWrite`]).
    pub mode: AccessMode,
}

impl Buffer {
    /// Creates a buffer with the default [`AccessMode::ReadWrite`] intent.
    #[must_use]
    pub fn new(name: impl Into<String>, bytes: u64) -> Buffer {
        Buffer {
            name: name.into(),
            bytes,
            mode: AccessMode::ReadWrite,
        }
    }

    /// Creates a buffer with an explicit access-mode intent.
    #[must_use]
    pub fn with_mode(name: impl Into<String>, bytes: u64, mode: AccessMode) -> Buffer {
        Buffer {
            name: name.into(),
            bytes,
            mode,
        }
    }
}

/// Which processing unit executes a kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Target {
    /// The host CPU (its half of the data-parallel work).
    Cpu,
    /// The GPU accelerator.
    Gpu,
}

impl std::fmt::Display for Target {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Target::Cpu => f.write_str("CPU"),
            Target::Gpu => f.write_str("GPU"),
        }
    }
}

/// One step of a program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// Host-side initialization of the given buffers.
    HostInit {
        /// Buffers written by the initialization.
        bufs: Vec<BufId>,
    },
    /// A data-parallel kernel on one PU.
    Kernel {
        /// Executing PU.
        target: Target,
        /// Source-level kernel name.
        name: String,
        /// Buffers the kernel reads.
        reads: Vec<BufId>,
        /// Buffers the kernel writes.
        writes: Vec<BufId>,
        /// Whether small per-launch arguments (e.g. k-means centroids) are
        /// re-uploaded with the launch. This costs a dynamic transfer but no
        /// source line — arguments ride along with the launch.
        args_upload: bool,
    },
    /// Sequential host code (merges, final steps).
    Seq {
        /// Source-level function name.
        name: String,
        /// Buffers read.
        reads: Vec<BufId>,
        /// Buffers written.
        writes: Vec<BufId>,
    },
    /// A counted loop around a body of steps (e.g. k-means iterations).
    /// Statements inside count *once* toward source lines but expand per
    /// iteration dynamically.
    Loop {
        /// Number of dynamic iterations.
        iterations: u32,
        /// The loop body.
        body: Vec<Step>,
    },
}

/// A complete model-agnostic program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Program {
    /// Program (kernel) name, matching the paper's Table V rows.
    pub name: String,
    /// All buffers.
    pub buffers: Vec<Buffer>,
    /// The steps, in program order.
    pub steps: Vec<Step>,
    /// Source lines of the computation and initial data allocation — the
    /// "Comp" column of Table V. This is source-level metadata (we model
    /// programs, not parse them), taken from the paper's implementations.
    pub compute_lines: u32,
}

/// The deepest loop nesting a program may have.
pub(crate) const MAX_LOOP_DEPTH: usize = 16;

/// The most steps a program may run once its loops are multiplied out.
pub(crate) const MAX_EXPANDED_STEPS: u64 = 65_536;

/// A structural defect found by [`Program::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProgramError {
    /// A step referenced a buffer index that does not exist.
    UnknownBuffer {
        /// The offending id.
        buf: BufId,
    },
    /// A loop has no body or zero iterations.
    DegenerateLoop,
    /// A kernel touches no buffers at all.
    EmptyKernel {
        /// The kernel's name.
        name: String,
    },
    /// Loops nest deeper than the limit (16 levels).
    LoopsTooDeep {
        /// The deepest nesting allowed.
        limit: usize,
    },
    /// The program runs more steps than the limit (65 536) once its loops
    /// are multiplied out.
    TooManySteps {
        /// The most expanded steps allowed.
        limit: u64,
    },
}

impl std::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramError::UnknownBuffer { buf } => {
                write!(f, "step references unknown buffer #{}", buf.0)
            }
            ProgramError::DegenerateLoop => f.write_str("loop with empty body or zero iterations"),
            ProgramError::EmptyKernel { name } => {
                write!(f, "kernel {name:?} reads and writes no buffers")
            }
            ProgramError::LoopsTooDeep { limit } => {
                write!(f, "loops nest deeper than the limit of {limit} levels")
            }
            ProgramError::TooManySteps { limit } => write!(
                f,
                "the program runs more than the limit of {limit} steps with its loops \
                 multiplied out"
            ),
        }
    }
}

impl std::error::Error for ProgramError {}

impl Program {
    /// Checks structural sanity.
    ///
    /// # Errors
    ///
    /// Returns the first [`ProgramError`] found.
    pub fn validate(&self) -> Result<(), ProgramError> {
        /// Checks `steps`, nested in `depth` loops, and returns how many
        /// steps they run (saturating).
        fn walk(steps: &[Step], n: usize, depth: usize) -> Result<u64, ProgramError> {
            let mut expanded = 0u64;
            for step in steps {
                let (reads, writes): (&[BufId], &[BufId]) = match step {
                    Step::HostInit { bufs } => (&[], bufs),
                    Step::Kernel {
                        name,
                        reads,
                        writes,
                        ..
                    } => {
                        if reads.is_empty() && writes.is_empty() {
                            return Err(ProgramError::EmptyKernel { name: name.clone() });
                        }
                        (reads, writes)
                    }
                    Step::Seq { reads, writes, .. } => (reads, writes),
                    Step::Loop { iterations, body } => {
                        if *iterations == 0 || body.is_empty() {
                            return Err(ProgramError::DegenerateLoop);
                        }
                        if depth == MAX_LOOP_DEPTH {
                            return Err(ProgramError::LoopsTooDeep {
                                limit: MAX_LOOP_DEPTH,
                            });
                        }
                        let runs = u64::from(*iterations).saturating_mul(walk(body, n, depth + 1)?);
                        expanded = expanded.saturating_add(runs);
                        continue;
                    }
                };
                if let Some(&buf) = reads.iter().chain(writes).find(|b| b.0 >= n) {
                    return Err(ProgramError::UnknownBuffer { buf });
                }
                expanded = expanded.saturating_add(1);
            }
            Ok(expanded)
        }
        if walk(&self.steps, self.buffers.len(), 0)? > MAX_EXPANDED_STEPS {
            return Err(ProgramError::TooManySteps {
                limit: MAX_EXPANDED_STEPS,
            });
        }
        Ok(())
    }

    /// The buffers a GPU kernel ever touches — the set that must exist on
    /// (or be addressable by) the device.
    #[must_use]
    pub fn gpu_buffers(&self) -> Vec<BufId> {
        let mut acc = Vec::new();
        for_each_access(&self.steps, &mut |target, reads, writes| {
            if target == Target::Gpu {
                for &b in reads.iter().chain(writes) {
                    if !acc.contains(&b) {
                        acc.push(b);
                    }
                }
            }
        });
        acc
    }

    /// Number of static GPU-kernel call sites (loop bodies count once).
    #[must_use]
    pub fn gpu_kernel_sites(&self) -> u32 {
        let mut sites = 0;
        for_each_access(&self.steps, &mut |target, _, _| {
            sites += u32::from(target == Target::Gpu);
        });
        sites
    }

    /// Looks up a buffer's name (for pretty-printing).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range — validate first.
    #[must_use]
    pub fn buffer(&self, id: BufId) -> &Buffer {
        &self.buffers[id.0]
    }
}

/// Calls `visit(target, reads, writes)` for every step in `steps` that is
/// not a loop, in program order, walking each loop body once.
/// Initialization and sequential code run on the CPU.
pub(crate) fn for_each_access<'s>(
    steps: &'s [Step],
    visit: &mut impl FnMut(Target, &'s [BufId], &'s [BufId]),
) {
    for step in steps {
        match step {
            Step::HostInit { bufs } => visit(Target::Cpu, &[], bufs),
            Step::Kernel {
                target,
                reads,
                writes,
                ..
            } => visit(*target, reads, writes),
            Step::Seq { reads, writes, .. } => visit(Target::Cpu, reads, writes),
            Step::Loop { body, .. } => for_each_access(body, visit),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Program {
        Program {
            name: "tiny".into(),
            buffers: vec![Buffer::new("a", 64), Buffer::new("b", 64)],
            steps: vec![
                Step::HostInit {
                    bufs: vec![BufId(0)],
                },
                Step::Kernel {
                    target: Target::Gpu,
                    name: "k".into(),
                    reads: vec![BufId(0)],
                    writes: vec![BufId(1)],
                    args_upload: false,
                },
                Step::Seq {
                    name: "use".into(),
                    reads: vec![BufId(1)],
                    writes: vec![],
                },
            ],
            compute_lines: 10,
        }
    }

    #[test]
    fn valid_program_passes() {
        assert_eq!(tiny().validate(), Ok(()));
    }

    #[test]
    fn unknown_buffer_is_caught() {
        let mut p = tiny();
        p.steps.push(Step::Seq {
            name: "oops".into(),
            reads: vec![BufId(9)],
            writes: vec![],
        });
        assert_eq!(
            p.validate(),
            Err(ProgramError::UnknownBuffer { buf: BufId(9) })
        );
    }

    #[test]
    fn degenerate_loop_is_caught() {
        let mut p = tiny();
        p.steps.push(Step::Loop {
            iterations: 0,
            body: vec![tiny().steps[0].clone()],
        });
        assert_eq!(p.validate(), Err(ProgramError::DegenerateLoop));
    }

    #[test]
    fn nesting_and_expanded_steps_are_bounded() {
        let leaf = tiny().steps[1].clone();
        let nest = |levels: usize, iterations: u32| {
            let mut steps = vec![leaf.clone()];
            for _ in 0..levels {
                steps = vec![Step::Loop {
                    iterations,
                    body: steps,
                }];
            }
            Program { steps, ..tiny() }
        };
        assert_eq!(nest(MAX_LOOP_DEPTH, 1).validate(), Ok(()));
        assert_eq!(
            nest(MAX_LOOP_DEPTH + 1, 1).validate(),
            Err(ProgramError::LoopsTooDeep {
                limit: MAX_LOOP_DEPTH
            })
        );
        // 4^8 = 65 536 steps is the limit; one more step is over it.
        let mut p = nest(8, 4);
        assert_eq!(p.validate(), Ok(()));
        p.steps.push(tiny().steps[1].clone());
        assert_eq!(
            p.validate(),
            Err(ProgramError::TooManySteps {
                limit: MAX_EXPANDED_STEPS
            })
        );
        // Iteration counts that overflow u64 when multiplied saturate.
        assert!(matches!(
            nest(3, u32::MAX).validate(),
            Err(ProgramError::TooManySteps { .. })
        ));
    }

    #[test]
    fn empty_kernel_is_caught() {
        let mut p = tiny();
        p.steps.push(Step::Kernel {
            target: Target::Cpu,
            name: "nothing".into(),
            reads: vec![],
            writes: vec![],
            args_upload: false,
        });
        assert!(matches!(
            p.validate(),
            Err(ProgramError::EmptyKernel { .. })
        ));
    }

    #[test]
    fn gpu_buffer_analysis() {
        let p = tiny();
        assert_eq!(p.gpu_buffers(), vec![BufId(0), BufId(1)]);
        assert_eq!(p.gpu_kernel_sites(), 1);
    }

    #[test]
    fn access_mode_keywords_round_trip() {
        for mode in [
            AccessMode::Read,
            AccessMode::Write,
            AccessMode::ReadWrite,
            AccessMode::Reduce,
        ] {
            assert_eq!(AccessMode::from_keyword(mode.keyword()), Some(mode));
        }
        assert_eq!(AccessMode::from_keyword("sideways"), None);
        assert_eq!(AccessMode::default(), AccessMode::ReadWrite);
        assert_eq!(Buffer::new("a", 64).mode, AccessMode::ReadWrite);
        assert_eq!(
            Buffer::with_mode("a", 64, AccessMode::Reduce).mode,
            AccessMode::Reduce
        );
    }

    #[test]
    fn loops_count_sites_once() {
        let mut p = tiny();
        let kernel = p.steps[1].clone();
        p.steps = vec![Step::Loop {
            iterations: 3,
            body: vec![kernel],
        }];
        assert_eq!(p.gpu_kernel_sites(), 1);
    }
}
