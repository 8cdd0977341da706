//! JSONL emission for `hetmem fix` reports.
//!
//! Renders [`hetmem_dsl::FixReport`]s as JSON Lines through the in-repo
//! [`crate::json`] module — one self-describing `"fix"` object per
//! program × model pair, then a single `"summary"` line with the edit
//! totals — mirroring the `hetmem check` stream so CI and downstream
//! tooling reuse the same parser.

use crate::json::Json;
use hetmem_dsl::{FixEdit, FixReport};

fn edit_to_json(e: &FixEdit) -> Json {
    let mut pairs = vec![
        ("stmt", Json::UInt(e.stmt as u64)),
        ("text", Json::Str(e.text.clone())),
    ];
    if let Some(buffer) = &e.buffer {
        pairs.push(("buffer", Json::Str(buffer.clone())));
    }
    Json::obj(pairs)
}

/// Renders one fix outcome as an ordered JSON object.
#[must_use]
pub fn fix_report_to_json(report: &FixReport) -> Json {
    Json::obj(vec![
        ("kind", Json::Str("fix".to_owned())),
        ("program", Json::Str(report.original.program_name.clone())),
        ("model", Json::Str(report.original.model.to_string())),
        ("changed", Json::Bool(report.changed())),
        (
            "comm_lines_before",
            Json::UInt(u64::from(report.original.comm_overhead_lines())),
        ),
        (
            "comm_lines_after",
            Json::UInt(u64::from(report.fixed.comm_overhead_lines())),
        ),
        ("lines_saved", Json::UInt(u64::from(report.lines_saved()))),
        (
            "removed",
            Json::Arr(report.removed.iter().map(edit_to_json).collect()),
        ),
        ("residual", Json::UInt(report.residual.len() as u64)),
    ])
}

/// Renders a batch of fix reports as JSON Lines: one `"fix"` line per
/// report, then exactly one `"summary"` line with the totals.
#[must_use]
pub fn fix_reports_to_jsonl(reports: &[FixReport]) -> String {
    let mut out = String::new();
    let (mut changed, mut removed, mut saved) = (0u64, 0u64, 0u64);
    for report in reports {
        changed += u64::from(report.changed());
        removed += report.removed.len() as u64;
        saved += u64::from(report.lines_saved());
        out.push_str(&fix_report_to_json(report).render());
        out.push('\n');
    }
    let summary = Json::obj(vec![
        ("kind", Json::Str("summary".to_owned())),
        ("fixed", Json::UInt(reports.len() as u64)),
        ("changed", Json::UInt(changed)),
        ("transfers_removed", Json::UInt(removed)),
        ("lines_saved", Json::UInt(saved)),
    ]);
    out.push_str(&summary.render());
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use hetmem_dsl::{fix, programs, AddressSpace};

    #[test]
    fn fix_jsonl_round_trips_through_the_in_repo_parser() {
        let reports: Vec<FixReport> = programs::all()
            .iter()
            .map(|p| fix(p, AddressSpace::PartiallyShared))
            .collect();
        let jsonl = fix_reports_to_jsonl(&reports);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), reports.len() + 1, "one line each plus summary");
        for line in &lines {
            let v = parse(line).expect("every line is valid JSON");
            assert!(v.get("kind").is_some(), "{line}");
        }
        let summary = parse(lines.last().expect("summary line")).expect("parses");
        assert_eq!(summary.get("kind").and_then(Json::as_str), Some("summary"));
        assert_eq!(
            summary.get("fixed").and_then(Json::as_u64),
            Some(reports.len() as u64)
        );
        // k-mean under PAS loses four ownership statements, so the batch
        // reports a strictly positive change count and removal total.
        let changed = summary.get("changed").and_then(Json::as_u64);
        assert!(changed >= Some(1), "{summary:?}");
        let removed = summary.get("transfers_removed").and_then(Json::as_u64);
        assert!(removed >= Some(4), "{summary:?}");
        let first = parse(lines[0]).expect("parses");
        assert_eq!(first.get("kind").and_then(Json::as_str), Some("fix"));
        assert!(first.get("program").is_some());
        assert!(first.get("lines_saved").is_some());
    }
}
