//! Validate the JSON Lines streams `hetmem` writes: `sim --events` /
//! `--timeline`, `check --format json` and `fix --format json`.
//!
//! Every line must parse through the in-repo JSON module as an object with
//! a string `"kind"`, and the stream must end with exactly one `"summary"`
//! line. The summary's keys pick the stream's schema:
//!
//! * a summary with `checked` ends a `check` stream: every other line must
//!   be a `"diagnostic"` with a stable code, name, severity, program, model
//!   and message, and the summary's error/warning/note totals must match
//!   them;
//! * a summary with `fixed` ends a `fix` stream: every other line must be a
//!   `"fix"` with program, model, changed flag, comm-line totals and a
//!   removal list, and the summary's totals must match them;
//! * any other summary ends an observability stream, which needs nothing
//!   beyond the shared shape.
//!
//! CI pipes each stream through this binary.
//!
//! Run with `cargo run --release --example validate_jsonl -- <file.jsonl>...`.

use hetmem::xplore::json::{parse, Json};

fn require_str(v: &Json, key: &str, at: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("{at}: missing string {key:?}"))
}

fn require_u64(v: &Json, key: &str, at: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{at}: missing integer {key:?}"))
}

fn require_edits(v: &Json, key: &str, at: &str) -> Result<u64, String> {
    let Some(Json::Arr(edits)) = v.get(key) else {
        return Err(format!("{at}: missing array {key:?}"));
    };
    for edit in edits {
        require_u64(edit, "stmt", at)?;
        require_str(edit, "text", at)?;
    }
    Ok(edits.len() as u64)
}

/// Checks a summary's integer totals against the ones the stream adds up.
fn require_totals(summary: &Json, at: &str, expected: &[(&str, u64)]) -> Result<(), String> {
    for &(key, want) in expected {
        let got = require_u64(summary, key, at)?;
        if got != want {
            return Err(format!("{at}: {key}={got} but the stream has {want}"));
        }
    }
    Ok(())
}

/// One parsed line: its `path:line` location, value and `kind`.
struct Line {
    at: String,
    value: Json,
    kind: String,
}

/// Requires every body line to be of `kind`, as a `check` or `fix` stream.
fn only_kind(body: &[Line], kind: &str) -> Result<(), String> {
    match body.iter().find(|l| l.kind != kind) {
        Some(l) => Err(format!("{}: unknown kind {:?}", l.at, l.kind)),
        None => Ok(()),
    }
}

fn validate_check(path: &str, body: &[Line], summary: &Json) -> Result<(), String> {
    let mut totals = [0u64; 3]; // errors, warnings, notes
    only_kind(body, "diagnostic")?;
    for Line { at, value: v, .. } in body {
        let code = require_str(v, "code", at)?;
        if code.len() != 6 || !code.starts_with("HM") {
            return Err(format!("{at}: malformed code {code:?}"));
        }
        require_str(v, "name", at)?;
        require_str(v, "program", at)?;
        require_str(v, "model", at)?;
        require_str(v, "message", at)?;
        match require_str(v, "severity", at)?.as_str() {
            "error" => totals[0] += 1,
            "warning" => totals[1] += 1,
            "note" => totals[2] += 1,
            other => return Err(format!("{at}: unknown severity {other:?}")),
        }
    }
    let at = format!("{path}:summary");
    require_totals(
        summary,
        &at,
        &[
            ("errors", totals[0]),
            ("warnings", totals[1]),
            ("notes", totals[2]),
        ],
    )?;
    let checked = require_u64(summary, "checked", &at)?;
    println!(
        "{path}: {} diagnostic(s) over {checked} report(s) OK \
         ({} error, {} warning, {} note)",
        body.len(),
        totals[0],
        totals[1],
        totals[2]
    );
    Ok(())
}

fn validate_fix(path: &str, body: &[Line], summary: &Json) -> Result<(), String> {
    let mut totals = [0u64; 2]; // changed, removed
    let mut saved = 0u64;
    only_kind(body, "fix")?;
    for Line { at, value: v, .. } in body {
        require_str(v, "program", at)?;
        require_str(v, "model", at)?;
        require_u64(v, "residual", at)?;
        let changed = match v.get("changed") {
            Some(Json::Bool(b)) => *b,
            _ => return Err(format!("{at}: missing boolean \"changed\"")),
        };
        totals[0] += u64::from(changed);
        totals[1] += require_edits(v, "removed", at)?;
        let before = require_u64(v, "comm_lines_before", at)?;
        let after = require_u64(v, "comm_lines_after", at)?;
        let lines_saved = require_u64(v, "lines_saved", at)?;
        saved += lines_saved;
        if before.checked_sub(after) != Some(lines_saved) {
            return Err(format!(
                "{at}: lines_saved={lines_saved} but comm lines go \
                 {before} -> {after}"
            ));
        }
        if !changed && lines_saved != 0 {
            return Err(format!("{at}: unchanged fix saved {lines_saved} line(s)"));
        }
    }
    let at = format!("{path}:summary");
    require_totals(
        summary,
        &at,
        &[
            ("fixed", body.len() as u64),
            ("changed", totals[0]),
            ("transfers_removed", totals[1]),
        ],
    )?;
    let got_saved = require_u64(summary, "lines_saved", &at)?;
    if got_saved != saved {
        return Err(format!(
            "{at}: lines_saved={got_saved} but the stream totals {saved}"
        ));
    }
    println!(
        "{path}: {} fix report(s) OK ({} changed, {} removed, {saved} \
         line(s) saved)",
        body.len(),
        totals[0],
        totals[1]
    );
    Ok(())
}

fn validate(path: &str) -> Result<(), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read file: {e}"))?;
    let mut lines = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let at = format!("{path}:{}", lineno + 1);
        if lines.last().is_some_and(|l: &Line| l.kind == "summary") {
            return Err(format!("{at}: line after the summary"));
        }
        let value = parse(line).map_err(|e| format!("{at}: {e}"))?;
        let kind = require_str(&value, "kind", &at)?;
        lines.push(Line { at, value, kind });
    }
    let Some((last, body)) = lines.split_last().filter(|(l, _)| l.kind == "summary") else {
        return Err(format!("{path}: no summary line"));
    };
    let summary = &last.value;
    if summary.get("checked").is_some() {
        validate_check(path, body, summary)
    } else if summary.get("fixed").is_some() {
        validate_fix(path, body, summary)
    } else {
        let mut kinds: Vec<&str> = lines.iter().map(|l| l.kind.as_str()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        println!("{path}: {} lines OK ({} kinds)", lines.len(), kinds.len());
        Ok(())
    }
}

fn main() {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: validate_jsonl <file.jsonl>...");
        std::process::exit(2);
    }
    let mut failed = false;
    for path in &paths {
        if let Err(msg) = validate(path) {
            eprintln!("error: {msg}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
