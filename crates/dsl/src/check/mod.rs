//! Memory-model-aware static verification (`hetmem check`).
//!
//! The paper's programmability argument is that each address-space design
//! shifts a different correctness burden onto the programmer: disjoint
//! spaces demand explicit transfers, the partially shared space makes
//! tagging shared data the programmer's responsibility, and ADSM moves
//! ownership bookkeeping into the runtime. This module *checks* those
//! burdens instead of merely counting their source lines:
//!
//! - [`check_lowered`] runs an abstract interpreter over a lowered
//!   statement sequence and reports memory-model findings (HM0101 and
//!   up) — stale reads, missing transfer-backs, redundant transfers,
//!   untagged shared data, ownership/lifetime violations, CPU–GPU races.
//! - [`program_lints`] runs the model-independent program-level lints
//!   (HM0001–HM0004), subsuming the old `analyze` pass.
//! - [`check`] combines both into a [`CheckReport`].
//! - [`run_oracle`] executes the lowered program concretely and reports
//!   the stale reads that *actually happen* — the differential test
//!   harness holds the static verdicts to the oracle's ground truth.

mod absint;
mod diag;
mod oracle;

pub use diag::{Code, Diagnostic, Severity};
pub use oracle::{run_oracle, OracleReport};

use crate::ast::{AccessMode, BufId, Program, Step, Target};
use crate::lower::{lower, Lowered};
use crate::model::AddressSpace;
use crate::stmt::Stmt;

/// The 1-based line number of statement `stmt` in [`crate::render`]'s
/// output (three header lines precede the first statement).
#[must_use]
pub fn render_line(stmt: usize) -> usize {
    stmt + 4
}

/// All findings for one program under one address-space model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckReport {
    /// The checked program's name.
    pub program: String,
    /// The address-space model it was lowered for.
    pub model: AddressSpace,
    /// Program-level findings first, then lowered-statement findings in
    /// statement order.
    pub diagnostics: Vec<Diagnostic>,
}

impl CheckReport {
    /// Number of findings at the given severity.
    #[must_use]
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Whether any finding is an [`Severity::Error`] (the CLI exits 1).
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }
}

impl std::fmt::Display for CheckReport {
    /// Renders the report rustc-style: each finding's block, then a
    /// one-line summary.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "checking `{}` under {} ...", self.program, self.model)?;
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        write!(
            f,
            "{}: {} error(s), {} warning(s), {} note(s)",
            if self.has_errors() { "FAIL" } else { "ok" },
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Note)
        )
    }
}

/// Checks `program` under `model`: program-level lints plus the abstract
/// interpretation of its lowering.
///
/// # Panics
///
/// Panics if the program fails [`Program::validate`].
#[must_use]
pub fn check(program: &Program, model: AddressSpace) -> CheckReport {
    let lowered = lower(program, model);
    let mut diagnostics = program_lints(program);
    diagnostics.extend(check_lowered(&lowered));
    CheckReport {
        program: program.name.clone(),
        model,
        diagnostics,
    }
}

/// Runs the abstract interpreter and race scan over an already-lowered
/// program, returning memory-model findings sorted by statement index.
#[must_use]
pub fn check_lowered(lowered: &Lowered) -> Vec<Diagnostic> {
    absint::check_lowered_impl(lowered)
}

// ---------------------------------------------------------------------
// Program-level lints (HM0001–HM0004), migrated from `analyze.rs`.
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Default)]
struct BufFacts {
    read: bool,
    written: bool,
    read_after_last_write: bool,
    last_writer_was_kernel: bool,
    read_before_first_write: Option<usize>,
}

fn visit_facts(steps: &[Step], idx: &mut usize, facts: &mut [BufFacts]) {
    fn record(
        facts: &mut [BufFacts],
        reads: &[BufId],
        writes: &[BufId],
        step: usize,
        kernel: bool,
    ) {
        for &b in reads {
            let f = &mut facts[b.0];
            f.read = true;
            f.read_after_last_write = true;
            if !f.written && f.read_before_first_write.is_none() {
                f.read_before_first_write = Some(step);
            }
        }
        for &b in writes {
            let f = &mut facts[b.0];
            f.written = true;
            f.read_after_last_write = false;
            f.last_writer_was_kernel = kernel;
        }
    }
    for step in steps {
        let current = *idx;
        *idx += 1;
        match step {
            Step::HostInit { bufs } => record(facts, &[], bufs, current, false),
            Step::Kernel { reads, writes, .. } => record(facts, reads, writes, current, true),
            Step::Seq { reads, writes, .. } => record(facts, reads, writes, current, false),
            Step::Loop { body, .. } => {
                // Loop bodies execute repeatedly: a read in the body may
                // observe a write later in the same body (back edge), so
                // walk the body twice for the ordering facts.
                visit_facts(body, idx, facts);
                let mut idx2 = current + 1;
                visit_facts(body, &mut idx2, facts);
            }
        }
    }
}

/// Buffer names that end up in the GPU-visible shared region of the
/// partially shared lowering — derived from the lowered statements, not
/// the program steps, so buffers that become shared only through
/// loop-carried access patterns are included too.
fn shared_region_buffers(program: &Program) -> Vec<String> {
    let lowered = lower(program, AddressSpace::PartiallyShared);
    let mut names: Vec<String> = Vec::new();
    let add = |bufs: &[String], names: &mut Vec<String>| {
        for b in bufs {
            if !names.contains(b) {
                names.push(b.clone());
            }
        }
    };
    for stmt in &lowered.stmts {
        match stmt {
            Stmt::SharedAlloc { buf, .. } => add(std::slice::from_ref(buf), &mut names),
            Stmt::ReleaseOwnership { bufs } | Stmt::AcquireOwnership { bufs } => {
                add(bufs, &mut names);
            }
            Stmt::KernelCall {
                target: Target::Gpu,
                args,
                ..
            } => add(args, &mut names),
            _ => {}
        }
    }
    names
}

/// Walks the steps checking declared access-mode intents against actual
/// GPU-kernel usage (HM0005): a `read` buffer must never be written by a
/// GPU kernel, a `write` buffer never read by one.
fn visit_mode_violations(
    program: &Program,
    steps: &[Step],
    idx: &mut usize,
    diags: &mut Vec<Diagnostic>,
) {
    for step in steps {
        let current = *idx;
        *idx += 1;
        match step {
            Step::Kernel {
                target: Target::Gpu,
                name,
                reads,
                writes,
                ..
            } => {
                for &b in writes {
                    let buf = program.buffer(b);
                    if buf.mode == AccessMode::Read {
                        diags.push(Diagnostic {
                            code: Code::AccessModeViolation,
                            severity: Severity::Warning,
                            stmt: Some(current),
                            line: None,
                            source: None,
                            buffer: Some(buf.name.clone()),
                            message: format!(
                                "buffer `{}` is declared `read` but GPU kernel `{name}` \
                                 writes it",
                                buf.name
                            ),
                        });
                    }
                }
                for &b in reads {
                    let buf = program.buffer(b);
                    if buf.mode == AccessMode::Write {
                        diags.push(Diagnostic {
                            code: Code::AccessModeViolation,
                            severity: Severity::Warning,
                            stmt: Some(current),
                            line: None,
                            source: None,
                            buffer: Some(buf.name.clone()),
                            message: format!(
                                "buffer `{}` is declared `write` but GPU kernel `{name}` \
                                 reads it",
                                buf.name
                            ),
                        });
                    }
                }
            }
            Step::Loop { body, .. } => visit_mode_violations(program, body, idx, diags),
            _ => {}
        }
    }
}

/// Runs the model-independent program-level lints, returning them as
/// typed diagnostics (HM0001–HM0005). `stmt` on these findings is the
/// flat *step* index (loops counted once), not a lowered-statement index.
///
/// # Panics
///
/// Panics if the program fails [`Program::validate`].
#[must_use]
pub fn program_lints(program: &Program) -> Vec<Diagnostic> {
    program
        .validate()
        .expect("program_lints() requires a valid program");
    let mut facts = vec![BufFacts::default(); program.buffers.len()];
    let mut idx = 0;
    visit_facts(&program.steps, &mut idx, &mut facts);
    let shared = shared_region_buffers(program);

    let mut diags = Vec::new();
    for (i, f) in facts.iter().enumerate() {
        let name = program.buffer(BufId(i)).name.clone();
        if !f.read && !f.written {
            diags.push(Diagnostic {
                code: Code::UnusedBuffer,
                severity: Severity::Warning,
                stmt: None,
                line: None,
                source: None,
                buffer: Some(name.clone()),
                message: format!("buffer `{name}` is never used"),
            });
            continue;
        }
        if let Some(step_index) = f.read_before_first_write {
            diags.push(Diagnostic {
                code: Code::UninitializedRead,
                severity: Severity::Warning,
                stmt: Some(step_index),
                line: None,
                source: None,
                buffer: Some(name.clone()),
                message: format!(
                    "buffer `{name}` is read at step {step_index} before it is written"
                ),
            });
        }
        if f.written && !f.read_after_last_write && f.last_writer_was_kernel {
            diags.push(Diagnostic {
                code: Code::DeadResult,
                severity: Severity::Warning,
                stmt: None,
                line: None,
                source: None,
                buffer: Some(name.clone()),
                message: format!("buffer `{name}` is written but its result is never read"),
            });
        }
        if shared.contains(&name) {
            diags.push(Diagnostic {
                code: Code::SharedCandidate,
                severity: Severity::Note,
                stmt: None,
                line: None,
                source: None,
                buffer: Some(name.clone()),
                message: format!(
                    "buffer `{name}` is addressed by the GPU — tag it shared under the \
                     partially shared model"
                ),
            });
        }
    }
    let mut idx = 0;
    visit_mode_violations(program, &program.steps, &mut idx, &mut diags);
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Buffer;
    use crate::programs;
    use crate::render;

    #[test]
    fn render_line_matches_pretty_output() {
        let lowered = lower(&programs::reduction(), AddressSpace::Disjoint);
        let rendered = render(&lowered);
        let lines: Vec<&str> = rendered.lines().collect();
        for (i, stmt) in lowered.stmts.iter().enumerate() {
            let line = lines[render_line(i) - 1];
            assert!(
                line.trim_start().starts_with(&stmt.to_string()),
                "stmt {i} ({stmt}) vs line {:?}",
                line
            );
        }
    }

    #[test]
    fn check_report_is_clean_for_paper_programs() {
        for program in programs::all() {
            for model in AddressSpace::ALL {
                let report = check(&program, model);
                assert!(!report.has_errors(), "{report}");
                assert_eq!(report.count(Severity::Warning), 0, "{report}");
            }
        }
    }

    #[test]
    fn report_rendering_mentions_summary() {
        let report = check(&programs::reduction(), AddressSpace::Disjoint);
        let text = report.to_string();
        assert!(text.contains("checking `reduction` under DIS"), "{text}");
        assert!(text.contains("error(s)"), "{text}");
        assert!(text.starts_with("checking"), "{text}");
    }

    #[test]
    fn gpu_only_loop_carried_scratch_is_a_shared_candidate() {
        // A buffer only GPU kernels touch never shows up as "touched by
        // both PUs", yet under the partially shared model it still must
        // be sharedmalloc'ed — the lowered-statement derivation flags it.
        let p = Program {
            name: "gpu-scratch".into(),
            buffers: vec![Buffer::new("in", 64), Buffer::new("scratch", 64)],
            steps: vec![
                Step::HostInit {
                    bufs: vec![BufId(0)],
                },
                Step::Loop {
                    iterations: 3,
                    body: vec![
                        Step::Kernel {
                            target: Target::Gpu,
                            name: "stage1".into(),
                            reads: vec![BufId(0)],
                            writes: vec![BufId(1)],
                            args_upload: false,
                        },
                        Step::Kernel {
                            target: Target::Gpu,
                            name: "stage2".into(),
                            reads: vec![BufId(1)],
                            writes: vec![BufId(0)],
                            args_upload: false,
                        },
                    ],
                },
                Step::Seq {
                    name: "collect".into(),
                    reads: vec![BufId(0)],
                    writes: vec![],
                },
            ],
            compute_lines: 4,
        };
        let shared: Vec<_> = program_lints(&p)
            .into_iter()
            .filter(|d| d.code == Code::SharedCandidate)
            .filter_map(|d| d.buffer)
            .collect();
        assert!(
            shared.contains(&"scratch".to_string()),
            "GPU-only scratch buffer must be flagged: {shared:?}"
        );
    }

    #[test]
    fn program_lints_are_warning_free_for_paper_programs() {
        for p in programs::all().into_iter().chain(programs::extra::all()) {
            let warnings: Vec<_> = program_lints(&p)
                .into_iter()
                .filter(|d| d.severity == Severity::Warning)
                .collect();
            assert!(warnings.is_empty(), "{}: {warnings:?}", p.name);
        }
    }

    #[test]
    fn shared_candidates_are_reported_for_paper_programs() {
        // Every paper kernel moves at least one buffer between the PUs.
        for p in programs::all() {
            let shared = program_lints(&p)
                .into_iter()
                .filter(|d| d.code == Code::SharedCandidate)
                .count();
            assert!(shared > 0, "{}", p.name);
        }
    }

    #[test]
    fn uninitialized_read_is_flagged_with_its_step() {
        let p = Program {
            name: "t".into(),
            buffers: vec![Buffer::new("x", 64)],
            steps: vec![Step::Seq {
                name: "use".into(),
                reads: vec![BufId(0)],
                writes: vec![],
            }],
            compute_lines: 1,
        };
        let diags = program_lints(&p);
        assert!(
            diags
                .iter()
                .any(|d| d.code == Code::UninitializedRead && d.stmt == Some(0)),
            "{diags:?}"
        );
    }

    #[test]
    fn dead_result_is_flagged() {
        let p = Program {
            name: "t".into(),
            buffers: vec![Buffer::new("in", 64), Buffer::new("out", 64)],
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
            ],
            compute_lines: 1,
        };
        let diags = program_lints(&p);
        assert!(
            diags
                .iter()
                .any(|d| d.code == Code::DeadResult && d.buffer.as_deref() == Some("out")),
            "{diags:?}"
        );
    }

    #[test]
    fn loop_back_edges_count_as_later_reads() {
        // `updateCentroids` writes `centroids` at the end of the loop body;
        // the next iteration's kernel reads it — not a dead result.
        let p = Program {
            name: "t".into(),
            buffers: vec![Buffer::new("data", 64), Buffer::new("acc", 64)],
            steps: vec![
                Step::HostInit {
                    bufs: vec![BufId(0), BufId(1)],
                },
                Step::Loop {
                    iterations: 3,
                    body: vec![
                        Step::Kernel {
                            target: Target::Gpu,
                            name: "k".into(),
                            reads: vec![BufId(0), BufId(1)],
                            writes: vec![BufId(0)],
                            args_upload: false,
                        },
                        Step::Seq {
                            name: "upd".into(),
                            reads: vec![BufId(0)],
                            writes: vec![BufId(1)],
                        },
                    ],
                },
                Step::Seq {
                    name: "final".into(),
                    reads: vec![BufId(0)],
                    writes: vec![],
                },
            ],
            compute_lines: 1,
        };
        let dead: Vec<_> = program_lints(&p)
            .into_iter()
            .filter(|d| d.code == Code::DeadResult && d.buffer.as_deref() == Some("acc"))
            .collect();
        assert!(
            dead.is_empty(),
            "loop-carried accumulator is not dead: {dead:?}"
        );
    }

    #[test]
    fn access_mode_violations_are_flagged_against_gpu_usage() {
        use crate::ast::AccessMode;
        let p = Program {
            name: "t".into(),
            buffers: vec![
                Buffer::with_mode("in", 64, AccessMode::Read),
                Buffer::with_mode("out", 64, AccessMode::Write),
            ],
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
            compute_lines: 1,
        };
        // Intents match usage: no HM0005.
        assert!(
            !program_lints(&p)
                .iter()
                .any(|d| d.code == Code::AccessModeViolation),
            "matching intents must be clean"
        );
        // Swap the intents: both directions now violate, inside loops too.
        let mut bad = p.clone();
        bad.buffers[0].mode = AccessMode::Write;
        bad.buffers[1].mode = AccessMode::Read;
        bad.steps = vec![
            bad.steps[0].clone(),
            Step::Loop {
                iterations: 2,
                body: vec![bad.steps[1].clone()],
            },
            bad.steps[2].clone(),
        ];
        let violations: Vec<_> = program_lints(&bad)
            .into_iter()
            .filter(|d| d.code == Code::AccessModeViolation)
            .collect();
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations.iter().all(|d| d.severity == Severity::Warning));
        assert_eq!(violations[0].stmt, Some(2), "flat step index inside loop");
    }

    #[test]
    fn program_lints_carry_stable_codes() {
        let p = Program {
            name: "t".into(),
            buffers: vec![Buffer::new("used", 64), Buffer::new("ghost", 64)],
            steps: vec![
                Step::HostInit {
                    bufs: vec![BufId(0)],
                },
                Step::Seq {
                    name: "s".into(),
                    reads: vec![BufId(0)],
                    writes: vec![],
                },
            ],
            compute_lines: 1,
        };
        let diags = program_lints(&p);
        assert!(
            diags
                .iter()
                .any(|d| d.code == Code::UnusedBuffer && d.buffer.as_deref() == Some("ghost")),
            "{diags:?}"
        );
    }
}
