//! Checker-driven communication optimizer (`hetmem fix`).
//!
//! The paper's central claim is that the memory model dictates which
//! communication a program must perform. The static verifier in
//! [`crate::check`](mod@crate::check) can already *prove* a transfer
//! redundant (HM0103) or missing (HM0101/HM0102); this module acts on
//! those proofs: it rewrites a lowered program to the *minimal
//! sufficient* communication set the abstract interpreter can certify.
//!
//! The pass iterates two phases to a fixpoint:
//!
//! 1. **Insert** — for every `Error`-severity finding with a mechanical
//!    remedy (stale read → host-to-device copy, missing transfer-back →
//!    device-to-host copy, untagged shared data → `sharedmalloc` retag,
//!    ownership violation → release/acquire), apply the remedy at the
//!    reported site and re-check.
//! 2. **Delete** — generate-and-test over the guarded candidate set
//!    (whole `Memcpy`/`copyfromCPUtoGPU` statements, single buffers of
//!    ownership and ADSM copy groups): a deletion survives only if the
//!    re-run checker reports no new finding at *any* severity **and** the
//!    concrete [`crate::run_oracle`] interpreter still observes no stale
//!    read. Compute statements are never candidates, so the fixed
//!    program's compute trace is bit-identical to the input's.
//!
//! Both phases are deterministic (statements scanned in order, buffers in
//! group order), so `fix` is idempotent: `fix(fix(p)) == fix(p)`.

use crate::ast::Program;
use crate::check::{check_lowered, run_oracle, Code, Diagnostic, Severity};
use crate::lower::{lower, Lowered};
use crate::model::AddressSpace;
use crate::stmt::Stmt;

/// One edit the fix pass performed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FixEdit {
    /// Statement index (into the program as it was at the time of the
    /// edit) where the edit applied.
    pub stmt: usize,
    /// Rendered text of the statement removed, inserted, or rewritten.
    pub text: String,
    /// The buffer the edit is about, when the edit touches a single
    /// buffer of a grouped statement (or a single-buffer transfer).
    pub buffer: Option<String>,
}

impl std::fmt::Display for FixEdit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stmt {}: {}", self.stmt, self.text)?;
        if let Some(b) = &self.buffer {
            write!(f, " [{b}]")?;
        }
        Ok(())
    }
}

/// The outcome of fixing one lowering.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FixReport {
    /// The input lowering, untouched.
    pub original: Lowered,
    /// The rewritten lowering with the minimal certified communication
    /// set.
    pub fixed: Lowered,
    /// Communication statements (or group members) the checker proved
    /// removable, in removal order.
    pub removed: Vec<FixEdit>,
    /// Statements inserted (or rewritten, for `sharedmalloc` retags) to
    /// clear `Error` findings, in insertion order.
    pub inserted: Vec<FixEdit>,
    /// Findings at `Error` or `Warning` severity that survive in the
    /// fixed program — violations with no mechanical remedy.
    pub residual: Vec<Diagnostic>,
    /// Outer insert/delete rounds until the fixpoint.
    pub iterations: usize,
}

impl FixReport {
    /// Whether the pass changed the program at all.
    #[must_use]
    pub fn changed(&self) -> bool {
        !self.removed.is_empty() || !self.inserted.is_empty()
    }

    /// Communication-handling source lines saved by the fix (negative if
    /// the pass had to insert more than it removed).
    #[must_use]
    pub fn lines_saved(&self) -> i64 {
        i64::from(self.original.comm_overhead_lines()) - i64::from(self.fixed.comm_overhead_lines())
    }
}

impl std::fmt::Display for FixReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fix `{}` under {}: {} removal(s), {} insertion(s), {} comm line(s) saved, \
             {} residual finding(s)",
            self.original.program_name,
            self.original.model,
            self.removed.len(),
            self.inserted.len(),
            self.lines_saved(),
            self.residual.len()
        )
    }
}

/// Lowers `program` for `model` and rewrites the lowering to the minimal
/// certified communication set.
///
/// # Panics
///
/// Panics if the program fails [`Program::validate`].
#[must_use]
pub fn fix(program: &Program, model: AddressSpace) -> FixReport {
    fix_lowered(&lower(program, model))
}

/// Rewrites an already-lowered program to the minimal certified
/// communication set. See the module docs for the algorithm.
#[must_use]
pub fn fix_lowered(original: &Lowered) -> FixReport {
    let mut cur = original.clone();
    let mut removed = Vec::new();
    let mut inserted = Vec::new();
    let mut iterations = 0;
    // Outer fixpoint: insertions can unlock deletions and vice versa.
    // Each round either changes the program or terminates, and every
    // round is bounded, so the loop is finite; the belt-and-braces bound
    // covers pathological inputs.
    while iterations < 32 {
        iterations += 1;
        let did_insert = insert_pass(&mut cur, &mut inserted);
        let did_delete = delete_pass(&mut cur, &mut removed);
        if !did_insert && !did_delete {
            break;
        }
    }
    let residual = check_lowered(&cur)
        .into_iter()
        .filter(|d| d.severity <= Severity::Warning)
        .collect();
    FixReport {
        original: original.clone(),
        fixed: cur,
        removed,
        inserted,
        residual,
        iterations,
    }
}

// ---------------------------------------------------------------------
// Insertion phase: clear Error findings at their reported sites.
// ---------------------------------------------------------------------

/// A planned remedy for one `Error` finding.
enum Remedy {
    /// Insert `stmt` before statement `at`.
    Before { at: usize, stmt: Stmt },
    /// Rewrite the `HostAlloc` of `buf` at `at` into a `SharedAlloc`.
    Retag { at: usize, buf: String },
}

fn insert_pass(cur: &mut Lowered, inserted: &mut Vec<FixEdit>) -> bool {
    let mut changed = false;
    // Each accepted remedy strictly reduces the number of Error findings,
    // so this terminates; the bound covers remedies that merely trade one
    // error for another on adversarial inputs.
    let budget = cur.stmts.len() * 4 + 16;
    for _ in 0..budget {
        let errors: Vec<Diagnostic> = check_lowered(cur)
            .into_iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        let Some(remedy) = errors.iter().find_map(|d| plan_remedy(cur, d)) else {
            break;
        };
        let mut trial = cur.clone();
        let edit = apply_remedy(&mut trial, &remedy);
        let errors_after = check_lowered(&trial)
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        if errors_after >= errors.len() {
            break;
        }
        inserted.push(edit);
        *cur = trial;
        changed = true;
    }
    changed
}

fn plan_remedy(cur: &Lowered, d: &Diagnostic) -> Option<Remedy> {
    let at = d.stmt?;
    let buf = d.buffer.clone()?;
    let bytes = buffer_bytes(cur, &buf);
    match (d.code, cur.model) {
        (Code::StaleRead, AddressSpace::Disjoint) => Some(Remedy::Before {
            at,
            stmt: Stmt::MemcpyH2D { buf, bytes },
        }),
        (Code::StaleRead, AddressSpace::Adsm) => Some(Remedy::Before {
            at,
            stmt: Stmt::AdsmCopyToDevice {
                bufs: vec![buf],
                bytes,
            },
        }),
        (Code::MissingTransferBack, AddressSpace::Disjoint) => Some(Remedy::Before {
            at,
            stmt: Stmt::MemcpyD2H { buf, bytes },
        }),
        (Code::UntaggedShared, AddressSpace::PartiallyShared) => {
            let at = cur
                .stmts
                .iter()
                .position(|s| matches!(s, Stmt::HostAlloc { buf: b, .. } if *b == buf))?;
            Some(Remedy::Retag { at, buf })
        }
        (Code::OwnershipViolation, AddressSpace::PartiallyShared) => {
            // Ownership has a remedy only for accesses on the wrong side
            // of the protocol; lifetime violations (freed, never
            // allocated) stay residual.
            match cur.stmts.get(at)? {
                Stmt::KernelCall {
                    target: crate::ast::Target::Gpu,
                    ..
                } => Some(Remedy::Before {
                    at,
                    stmt: Stmt::ReleaseOwnership { bufs: vec![buf] },
                }),
                Stmt::KernelCall { .. } | Stmt::InitCode { .. } => Some(Remedy::Before {
                    at,
                    stmt: Stmt::AcquireOwnership { bufs: vec![buf] },
                }),
                _ => None,
            }
        }
        _ => None,
    }
}

fn apply_remedy(trial: &mut Lowered, remedy: &Remedy) -> FixEdit {
    match remedy {
        Remedy::Before { at, stmt } => {
            trial.stmts.insert(*at, stmt.clone());
            FixEdit {
                stmt: *at,
                text: stmt.to_string(),
                buffer: single_buffer(stmt),
            }
        }
        Remedy::Retag { at, buf } => {
            let bytes = match &trial.stmts[*at] {
                Stmt::HostAlloc { bytes, .. } => *bytes,
                other => unreachable!("retag plans only target HostAlloc, found {other}"),
            };
            trial.stmts[*at] = Stmt::SharedAlloc {
                buf: buf.clone(),
                bytes,
            };
            FixEdit {
                stmt: *at,
                text: trial.stmts[*at].to_string(),
                buffer: Some(buf.clone()),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Deletion phase: generate-and-test over the guarded candidate set.
// ---------------------------------------------------------------------

/// One deletion candidate.
enum Deletion {
    /// Remove the whole statement at `at`.
    Whole { at: usize },
    /// Remove one buffer from the group statement at `at` (deleting the
    /// statement if the group empties).
    Drop { at: usize, buf: String },
}

/// Severity and oracle tallies used to accept or reject a deletion.
#[derive(PartialEq, Eq, PartialOrd)]
struct Verdicts {
    errors: usize,
    warnings: usize,
    notes: usize,
    stale_reads: usize,
}

fn verdicts(lowered: &Lowered) -> Verdicts {
    let diags = check_lowered(lowered);
    let count = |s: Severity| diags.iter().filter(|d| d.severity == s).count();
    let oracle = run_oracle(lowered);
    Verdicts {
        errors: count(Severity::Error),
        warnings: count(Severity::Warning),
        notes: count(Severity::Note),
        stale_reads: oracle.stale_gpu_reads.len() + oracle.stale_host_reads.len(),
    }
}

fn delete_pass(cur: &mut Lowered, removed: &mut Vec<FixEdit>) -> bool {
    let mut changed = false;
    loop {
        let baseline = verdicts(cur);
        let mut progressed = false;
        'scan: for at in 0..cur.stmts.len() {
            for deletion in candidates_at(&cur.stmts[at], at) {
                let mut trial = cur.clone();
                let edit = apply_deletion(&mut trial, &deletion);
                let after = verdicts(&trial);
                // The deletion survives only if no tally gets worse: the
                // checker must not report a new finding at any severity
                // and the concrete oracle must not observe a new stale
                // read. (Notes matter: removing a final acquire trades a
                // special op for an HM0105 note, which is not minimal —
                // it is a different program.)
                if after.errors <= baseline.errors
                    && after.warnings <= baseline.warnings
                    && after.notes <= baseline.notes
                    && after.stale_reads <= baseline.stale_reads
                {
                    removed.push(edit);
                    *cur = trial;
                    progressed = true;
                    changed = true;
                    break 'scan;
                }
            }
        }
        if !progressed {
            break;
        }
    }
    changed
}

/// Deletion candidates for the statement at `at`. Only communication
/// statements the checker exactly guards are candidates; `Sync`,
/// `FreeDevice`, allocations, and compute statements are never touched.
fn candidates_at(stmt: &Stmt, at: usize) -> Vec<Deletion> {
    match stmt {
        Stmt::MemcpyH2D { .. } | Stmt::MemcpyD2H { .. } => vec![Deletion::Whole { at }],
        Stmt::AdsmCopyToDevice { bufs, .. }
        | Stmt::ReleaseOwnership { bufs }
        | Stmt::AcquireOwnership { bufs } => {
            let mut out: Vec<Deletion> = bufs
                .iter()
                .filter(|_| bufs.len() > 1)
                .map(|b| Deletion::Drop { at, buf: b.clone() })
                .collect();
            out.push(Deletion::Whole { at });
            out
        }
        _ => Vec::new(),
    }
}

fn apply_deletion(trial: &mut Lowered, deletion: &Deletion) -> FixEdit {
    match deletion {
        Deletion::Whole { at } => {
            let stmt = trial.stmts.remove(*at);
            FixEdit {
                stmt: *at,
                text: stmt.to_string(),
                buffer: single_buffer(&stmt),
            }
        }
        Deletion::Drop { at, buf } => {
            let text = trial.stmts[*at].to_string();
            match &mut trial.stmts[*at] {
                Stmt::AdsmCopyToDevice { bufs, bytes } => {
                    bufs.retain(|b| b != buf);
                    // The group's byte count is a total; without the
                    // per-buffer split recorded we conservatively leave
                    // it (only line counts and event counts matter, and
                    // both come from the buffer list).
                    let _ = bytes;
                }
                Stmt::ReleaseOwnership { bufs } | Stmt::AcquireOwnership { bufs } => {
                    bufs.retain(|b| b != buf);
                }
                other => unreachable!("drop plans only target groups, found {other}"),
            }
            FixEdit {
                stmt: *at,
                text,
                buffer: Some(buf.clone()),
            }
        }
    }
}

/// The buffer a single-buffer statement names, if any.
fn single_buffer(stmt: &Stmt) -> Option<String> {
    match stmt {
        Stmt::MemcpyH2D { buf, .. }
        | Stmt::MemcpyD2H { buf, .. }
        | Stmt::HostAlloc { buf, .. }
        | Stmt::SharedAlloc { buf, .. }
        | Stmt::AdsmAlloc { buf, .. } => Some(buf.clone()),
        Stmt::AdsmCopyToDevice { bufs, .. }
        | Stmt::ReleaseOwnership { bufs }
        | Stmt::AcquireOwnership { bufs }
            if bufs.len() == 1 =>
        {
            Some(bufs[0].clone())
        }
        _ => None,
    }
}

/// Best-effort byte size for `buf`, scanned from the lowering's
/// allocation and transfer statements.
fn buffer_bytes(lowered: &Lowered, buf: &str) -> u64 {
    for stmt in &lowered.stmts {
        match stmt {
            Stmt::HostAlloc { buf: b, bytes }
            | Stmt::SharedAlloc { buf: b, bytes }
            | Stmt::AdsmAlloc { buf: b, bytes }
            | Stmt::MemcpyH2D { buf: b, bytes }
            | Stmt::MemcpyD2H { buf: b, bytes }
                if b == buf =>
            {
                return *bytes;
            }
            _ => {}
        }
    }
    64
}

// ---------------------------------------------------------------------
// Line diff for `hetmem fix --format diff`.
// ---------------------------------------------------------------------

/// A minimal line diff between two renderings: common lines prefixed with
/// two spaces, removals with `- `, insertions with `+ ` (longest common
/// subsequence, so the diff is minimal).
#[must_use]
pub fn diff_lines(before: &str, after: &str) -> String {
    let a: Vec<&str> = before.lines().collect();
    let b: Vec<&str> = after.lines().collect();
    // LCS table; the lowered programs are tens of lines, so O(n*m) is
    // plenty.
    let mut lcs = vec![vec![0usize; b.len() + 1]; a.len() + 1];
    for i in (0..a.len()).rev() {
        for j in (0..b.len()).rev() {
            lcs[i][j] = if a[i] == b[j] {
                lcs[i + 1][j + 1] + 1
            } else {
                lcs[i + 1][j].max(lcs[i][j + 1])
            };
        }
    }
    let mut out = String::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] == b[j] {
            out.push_str(&format!("  {}\n", a[i]));
            i += 1;
            j += 1;
        } else if lcs[i + 1][j] >= lcs[i][j + 1] {
            out.push_str(&format!("- {}\n", a[i]));
            i += 1;
        } else {
            out.push_str(&format!("+ {}\n", b[j]));
            j += 1;
        }
    }
    for line in &a[i..] {
        out.push_str(&format!("- {line}\n"));
    }
    for line in &b[j..] {
        out.push_str(&format!("+ {line}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs;

    #[test]
    fn kmeans_pas_ownership_ping_pong_is_elided() {
        let report = fix(&programs::k_means(), AddressSpace::PartiallyShared);
        assert!(report.changed(), "{report}");
        assert!(report.inserted.is_empty(), "{:?}", report.inserted);
        // The three back-to-back GPU kernels keep ownership across the
        // whole chain: two acquire/release round-trips go away.
        assert_eq!(report.removed.len(), 4, "{:?}", report.removed);
        assert_eq!(report.lines_saved(), 4, "{report}");
        let diags = check_lowered(&report.fixed);
        assert!(
            !diags.iter().any(|d| d.severity == Severity::Error),
            "{diags:?}"
        );
        assert!(run_oracle(&report.fixed).is_clean());
    }

    #[test]
    fn scan_pas_drops_the_idle_buffer_from_the_middle_round_trip() {
        let report = fix(&programs::extra::scan(), AddressSpace::PartiallyShared);
        assert!(report.changed(), "{report}");
        // `dataG` is untouched by the host between its two GPU kernels:
        // it leaves the middle acquire/release groups.
        assert!(
            report
                .removed
                .iter()
                .all(|e| e.buffer.as_deref() == Some("dataG")),
            "{:?}",
            report.removed
        );
        assert_eq!(report.removed.len(), 2, "{:?}", report.removed);
        assert!(run_oracle(&report.fixed).is_clean());
    }

    #[test]
    fn pristine_disjoint_lowerings_are_already_minimal() {
        for program in programs::all() {
            for model in [
                AddressSpace::Unified,
                AddressSpace::Disjoint,
                AddressSpace::Adsm,
            ] {
                let report = fix(&program, model);
                assert!(
                    !report.changed(),
                    "{}: {model}: {report}\nremoved: {:?}\ninserted: {:?}",
                    program.name,
                    report.removed,
                    report.inserted
                );
            }
        }
    }

    #[test]
    fn deleted_upload_is_reinserted() {
        // Break a lowering by hand: strip the reduction upload, then fix.
        let mut broken = lower(&programs::reduction(), AddressSpace::Disjoint);
        let upload = broken
            .stmts
            .iter()
            .position(|s| matches!(s, Stmt::MemcpyH2D { .. }))
            .expect("reduction/DIS has an upload");
        broken.stmts.remove(upload);
        assert!(
            check_lowered(&broken)
                .iter()
                .any(|d| d.code == Code::StaleRead),
            "removing the upload must break the program"
        );
        let report = fix_lowered(&broken);
        assert!(!report.inserted.is_empty(), "{report}");
        assert!(
            !check_lowered(&report.fixed)
                .iter()
                .any(|d| d.severity == Severity::Error),
            "fix must clear the stale read"
        );
        assert!(run_oracle(&report.fixed).is_clean());
    }

    #[test]
    fn missing_transfer_back_is_reinserted() {
        let mut broken = lower(&programs::reduction(), AddressSpace::Disjoint);
        let back = broken
            .stmts
            .iter()
            .position(|s| matches!(s, Stmt::MemcpyD2H { .. }))
            .expect("reduction/DIS copies the result back");
        broken.stmts.remove(back);
        let report = fix_lowered(&broken);
        assert!(
            report
                .inserted
                .iter()
                .any(|e| e.text.contains("MemcpyDevicetoHost")),
            "{:?}",
            report.inserted
        );
        assert!(run_oracle(&report.fixed).is_clean());
    }

    #[test]
    fn untagged_shared_buffer_is_retagged() {
        let mut broken = lower(&programs::reduction(), AddressSpace::PartiallyShared);
        // Un-tag the shared buffer: SharedAlloc -> HostAlloc.
        for stmt in &mut broken.stmts {
            if let Stmt::SharedAlloc { buf, bytes } = stmt {
                *stmt = Stmt::HostAlloc {
                    buf: buf.clone(),
                    bytes: *bytes,
                };
                break;
            }
        }
        assert!(
            check_lowered(&broken)
                .iter()
                .any(|d| d.code == Code::UntaggedShared),
            "untagging must break the program"
        );
        let report = fix_lowered(&broken);
        assert!(
            report
                .inserted
                .iter()
                .any(|e| e.text.contains("sharedmalloc")),
            "{:?}",
            report.inserted
        );
        assert!(
            !check_lowered(&report.fixed)
                .iter()
                .any(|d| d.severity == Severity::Error),
            "retag must clear the errors"
        );
    }

    #[test]
    fn fix_is_idempotent_on_paper_programs() {
        for program in programs::all() {
            for model in AddressSpace::ALL {
                let once = fix(&program, model);
                let twice = fix_lowered(&once.fixed);
                assert!(!twice.changed(), "{}: {model}: {twice}", program.name);
                assert_eq!(once.fixed, twice.fixed, "{}: {model}", program.name);
            }
        }
    }

    #[test]
    fn diff_marks_removed_lines() {
        let before = "a\nb\nc\n";
        let after = "a\nc\nd\n";
        let diff = diff_lines(before, after);
        assert_eq!(diff, "  a\n- b\n  c\n+ d\n");
    }

    #[test]
    fn report_display_summarizes_the_edits() {
        let report = fix(&programs::k_means(), AddressSpace::PartiallyShared);
        let text = report.to_string();
        assert!(text.contains("fix `k-mean` under PAS"), "{text}");
        assert!(text.contains("4 removal(s)"), "{text}");
    }
}
