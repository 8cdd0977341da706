//! Checker-driven communication optimizer (`hetmem fix`).
//!
//! The paper's central claim is that the memory model dictates which
//! communication a program must perform. [`lower`] places every transfer
//! from the checker's own freshness state, so its output is already
//! checker-clean; the static verifier in [`crate::check`](mod@crate::check)
//! can still prove some of those transfers redundant (HM0103). This module
//! acts on those proofs, deleting down to the *minimal sufficient*
//! communication set the abstract interpreter can certify.
//!
//! A `Memcpy`, or one buffer of a `copyfromCPUtoGPU` or ownership group,
//! goes iff removing it changes no finding but its own HM0103: on every
//! execution, each flag it sets already holds that value or is overwritten
//! before any statement reads it. The interpreter records what each
//! statement reads, writes and changes; a backward liveness sweep over the
//! records decides. Compute statements are never candidates, so the
//! compute trace is untouched, and nothing is ever inserted, so the fixed
//! program is the original with members removed.
//!
//! The pass is deterministic, so `fix` is idempotent:
//! `fix(fix(p)) == fix(p)`.

use std::collections::HashMap;

use crate::ast::Program;
use crate::check::{
    check_lowered, collect_buffers, interpret, matching_tail, render_line, repeat, Code,
    Diagnostic, Effects, Severity,
};
use crate::lower::{lower, Lowered};
use crate::model::AddressSpace;
use crate::pretty::render;
use crate::stmt::Stmt;

/// One removal the fix pass performed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FixEdit {
    /// Statement index (into the program as it was at the time of the
    /// edit) where the edit applied.
    pub stmt: usize,
    /// Rendered text of the statement the removal applied to.
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
    /// removable, in program order; each index is into the program with
    /// the earlier removals applied.
    pub removed: Vec<FixEdit>,
    /// Findings at `Error` or `Warning` severity that survive in the
    /// fixed program.
    pub residual: Vec<Diagnostic>,
    /// For each fixed statement, the original one it came from.
    origin: Vec<usize>,
}

impl FixReport {
    /// Whether the pass changed the program at all.
    #[must_use]
    pub fn changed(&self) -> bool {
        !self.removed.is_empty()
    }

    /// Communication-handling source lines saved by the fix.
    #[must_use]
    pub fn lines_saved(&self) -> u32 {
        // `fixed` is `original` with members removed, so this never wraps.
        self.original.comm_overhead_lines() - self.fixed.comm_overhead_lines()
    }

    /// A line diff from [`render`] of the original to that of the fixed
    /// program: common lines prefixed with two spaces, removals with
    /// `- `, and a rewritten line (a group that lost members, or the
    /// header restating the comm-line count) as a removal then an
    /// insertion. Lines pair up by the statement each fixed statement
    /// came from, so the diff is linear in the program.
    #[must_use]
    pub fn diff(&self) -> String {
        let before = render(&self.original);
        let before: Vec<&str> = before.lines().collect();
        // Statement `i` is on line `render_line(i)`, between a header and
        // a closing line that pair by position.
        let head = render_line(0) - 1;
        let from: Vec<usize> = (0..head)
            .chain(self.origin.iter().map(|i| head + i))
            .chain([before.len() - 1])
            .collect();
        let mut out = String::new();
        let mut next = 0;
        for (line, &i) in render(&self.fixed).lines().zip(&from) {
            for gone in &before[next..i] {
                out.push_str(&format!("- {gone}\n"));
            }
            if before[i] == line {
                out.push_str(&format!("  {line}\n"));
            } else {
                out.push_str(&format!("- {}\n+ {line}\n", before[i]));
            }
            next = i + 1;
        }
        out
    }
}

impl std::fmt::Display for FixReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fix `{}` under {}: {} removal(s), {} comm line(s) saved, \
             {} residual finding(s)",
            self.original.program_name,
            self.original.model,
            self.removed.len(),
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
    let mut fixed = original.clone();
    let (removed, origin) = delete_pass(&mut fixed);
    let residual = check_lowered(&fixed)
        .into_iter()
        .filter(|d| d.severity <= Severity::Warning)
        .collect();
    FixReport {
        original: original.clone(),
        fixed,
        removed,
        residual,
        origin,
    }
}

/// Removes every candidate the interpreter's records prove removable and
/// returns the removals and, per statement left, the index of the
/// statement of `cur` it came from.
fn delete_pass(cur: &mut Lowered) -> (Vec<FixEdit>, Vec<usize>) {
    let start = std::mem::take(&mut cur.stmts);
    let adsm: HashMap<&str, u64> = start
        .iter()
        .filter_map(|s| match s {
            Stmt::AdsmAlloc { buf, bytes } => Some((buf.as_str(), *bytes)),
            _ => None,
        })
        .collect();
    // Per statement of `start`, which of its members are left (`None` if
    // it is no candidate).
    let mut left: Vec<Option<Vec<bool>>> = start
        .iter()
        .map(|s| {
            members(s)
                .filter(|m| !m.is_empty())
                .map(|m| vec![true; m.len()])
        })
        .collect();
    // A second interpret-and-sweep round removes what the first turns into
    // no-ops (the release after a dead acquire); a third would find
    // nothing (DESIGN.md §2.11).
    for _ in 0..2 {
        let from;
        (cur.stmts, from, _) = apply(&start, &left, &adsm);
        let mut changed = false;
        for (needed, &i) in sweep(cur).iter().zip(&from) {
            if let (Some(needed), Some(left)) = (needed, &mut left[i]) {
                for (kept, &needed) in left.iter_mut().filter(|k| **k).zip(needed) {
                    (*kept, changed) = (needed, changed || !needed);
                }
            }
        }
        if !changed {
            break;
        }
    }
    let (stmts, from, edits) = apply(&start, &left, &adsm);
    cur.stmts = stmts;
    (edits, from)
}

/// What `left` leaves of `start`: the statements, the index in `start`
/// each comes from, and the removals in [`FixReport::removed`]'s encoding
/// — in program order, group members one at a time, each index into the
/// program with the earlier removals applied, and a group that empties
/// going as a whole with its last member.
fn apply(
    start: &[Stmt],
    left: &[Option<Vec<bool>>],
    adsm: &HashMap<&str, u64>,
) -> (Vec<Stmt>, Vec<usize>, Vec<FixEdit>) {
    let (mut stmts, mut from, mut edits) = (Vec::new(), Vec::new(), Vec::new());
    for (i, (stmt, left)) in start.iter().zip(left).enumerate() {
        let mut now = stmt.clone();
        let members = members(stmt).unwrap_or_default();
        for (buf, _) in members
            .iter()
            .zip(left.iter().flatten())
            .filter(|(_, &k)| !k)
        {
            edits.push(FixEdit {
                stmt: stmts.len(),
                text: now.to_string(),
                buffer: Some(buf.clone()),
            });
            drop_member(&mut now, buf, adsm);
        }
        if left.as_ref().is_none_or(|l| l.contains(&true)) {
            stmts.push(now);
            from.push(i);
        }
    }
    (stmts, from, edits)
}

/// Per statement, `None` if it stays whole (no candidate, or a finding of
/// its own besides HM0103), else per member whether some later read sees
/// its change.
fn sweep(cur: &Lowered) -> Vec<Option<Vec<bool>>> {
    let (diags, effects) = interpret(cur, true);
    let mut needed: Vec<_> = cur
        .stmts
        .iter()
        .map(|s| members(s).map(|m| vec![false; m.len()]))
        .collect();
    for d in diags.iter().filter(|d| d.code != Code::RedundantTransfer) {
        needed[d.stmt.expect("lowered findings carry a statement")] = None;
    }
    let names = collect_buffers(cur);
    let mut sweep = Sweep {
        stmts: &cur.stmts,
        live: vec![0; names.len()],
        names,
        effects,
        needed,
    };
    sweep.span(0, cur.stmts.len());
    sweep.needed
}

/// Backward liveness over the interpreter's records.
struct Sweep<'a> {
    stmts: &'a [Stmt],
    names: Vec<String>,
    effects: Effects,
    /// Per buffer, the flags some later statement reads before any write.
    live: Vec<u8>,
    needed: Vec<Option<Vec<bool>>>,
}

impl Sweep<'_> {
    /// Walks `stmts[start..end]` backward, split into statements and loops
    /// as the interpreter splits it, each loop under its cycle rule.
    fn span(&mut self, start: usize, end: usize) {
        let mut items = Vec::new();
        let mut i = start;
        while i < end {
            let last = match self.stmts[i] {
                Stmt::LoopHead { .. } => matching_tail(self.stmts, i),
                _ => i,
            };
            items.push((i, last));
            i = last.saturating_add(1);
        }
        for (i, last) in items.into_iter().rev() {
            if let Stmt::LoopHead { iterations } = self.stmts[i] {
                let live = |s: &Self| s.live.clone();
                repeat(
                    self,
                    iterations,
                    live,
                    |s, l| s.live = l,
                    |s| s.span(i + 1, last),
                );
            } else {
                self.stmt(i);
            }
        }
    }

    fn stmt(&mut self, i: usize) {
        let (stmts, accesses) = (self.stmts, &self.effects[i]);
        let Some(needed) = &mut self.needed[i] else {
            for a in accesses {
                self.live[a.buf] = self.live[a.buf] & !a.wrote | a.read;
            }
            return;
        };
        for (k, buf) in members(&stmts[i]).unwrap_or_default().iter().enumerate() {
            let b = self.names.iter().position(|n| n == buf).expect("a buffer");
            // A member no later read sees neither kills nor reads here.
            if let Some(a) = accesses
                .iter()
                .find(|a| a.buf == b && a.changed & self.live[b] != 0)
            {
                needed[k] = true;
                self.live[b] = self.live[b] & !a.wrote | a.read;
            }
        }
    }
}

/// The members of a deletion candidate: the buffer of a `Memcpy`, each
/// buffer of an ADSM copy or ownership group. `Sync`, `FreeDevice`,
/// allocations and compute statements are no candidates.
fn members(stmt: &Stmt) -> Option<&[String]> {
    let candidate = matches!(
        stmt,
        Stmt::MemcpyH2D { .. }
            | Stmt::MemcpyD2H { .. }
            | Stmt::AdsmCopyToDevice { .. }
            | Stmt::ReleaseOwnership { .. }
            | Stmt::AcquireOwnership { .. }
    );
    candidate.then(|| stmt.buffers())
}

/// Drops `buf` from the group `stmt`; an ADSM copy stops counting the
/// bytes its `adsmAlloc` gives.
fn drop_member(stmt: &mut Stmt, buf: &str, adsm: &HashMap<&str, u64>) {
    if let Stmt::AdsmCopyToDevice { bytes, .. } = stmt {
        *bytes = bytes.saturating_sub(adsm.get(buf).copied().unwrap_or(0));
    }
    if let Stmt::AdsmCopyToDevice { bufs, .. }
    | Stmt::ReleaseOwnership { bufs }
    | Stmt::AcquireOwnership { bufs } = stmt
    {
        bufs.retain(|b| b != buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::run_oracle;
    use crate::programs;

    #[test]
    fn kmeans_pas_ownership_ping_pong_is_elided() {
        let report = fix(&programs::k_means(), AddressSpace::PartiallyShared);
        assert!(report.changed(), "{report}");
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
                    "{}: {model}: {report}\nremoved: {:?}",
                    program.name,
                    report.removed
                );
            }
        }
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
        let init = |buf: &str| Stmt::InitCode {
            bufs: vec![buf.into()],
            bytes: 64,
        };
        let lowered = |stmts| Lowered {
            program_name: "p".into(),
            model: AddressSpace::Disjoint,
            stmts,
        };
        let b = Stmt::MemcpyH2D {
            buf: "b".into(),
            bytes: 64,
        };
        let d = Stmt::MemcpyD2H {
            buf: "d".into(),
            bytes: 64,
        };
        let edit = |stmt, s: &Stmt| FixEdit {
            stmt,
            text: s.to_string(),
            buffer: s.buffers().first().cloned(),
        };
        // `b` is removed from the middle and `d` from the end.
        let report = FixReport {
            original: lowered(vec![init("a"), b.clone(), init("c"), d.clone()]),
            fixed: lowered(vec![init("a"), init("c")]),
            removed: vec![edit(1, &b), edit(2, &d)],
            residual: Vec::new(),
            origin: vec![0, 2],
        };
        let before = render(&report.original);
        let after = render(&report.fixed);
        let (x, y): (Vec<&str>, Vec<&str>) = (before.lines().collect(), after.lines().collect());
        // The header restates the comm-line count, so it is rewritten.
        let expected = format!(
            "- {}\n+ {}\n  {}\n  {}\n  {}\n- {}\n  {}\n- {}\n  }}\n",
            x[0], y[0], x[1], x[2], x[3], x[4], x[5], x[6]
        );
        assert_eq!(report.diff(), expected);
    }

    #[test]
    fn a_dropped_adsm_buffer_stops_counting_its_bytes() {
        // `k` overwrites `b` before anything reads the published copy, so
        // `b` leaves the initial `copyfromCPUtoGPU(a, b)`.
        let program = crate::parse_program(
            "program p { compute 1; buffer a: 64; buffer b: 128; init a, b; \
             loop 2 { gpu k(read a; write b); gpu k2(read b; write b); } seq fin(read a); }",
        )
        .expect("valid program");
        let report = fix(&program, AddressSpace::Adsm);
        let copies: Vec<(Vec<String>, u64)> = report
            .fixed
            .stmts
            .iter()
            .filter_map(|s| match s {
                Stmt::AdsmCopyToDevice { bufs, bytes } => Some((bufs.clone(), *bytes)),
                _ => None,
            })
            .collect();
        assert_eq!(copies, vec![(vec!["a".to_owned()], 64)], "{report}");
        let trace = crate::generate_trace(&report.fixed);
        assert_eq!(
            trace.comm_bytes_in(hetmem_trace::TransferDirection::HostToDevice),
            64
        );
    }

    #[test]
    fn report_display_summarizes_the_edits() {
        let report = fix(&programs::k_means(), AddressSpace::PartiallyShared);
        let text = report.to_string();
        assert!(text.contains("fix `k-mean` under PAS"), "{text}");
        assert!(text.contains("4 removal(s)"), "{text}");
    }
}
