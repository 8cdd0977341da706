//! End-to-end tests of the `hetmem` command-line tool: real process runs
//! through the trace-dump → simulate and DSL → programmability flows.

use std::process::Command;

fn hetmem(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_hetmem"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn help_lists_all_commands() {
    let out = hetmem(&["help"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for cmd in [
        "tables", "fig", "loc", "lower", "trace", "sim", "sweep", "search", "serve", "catalog",
        "check", "fix", "study",
    ] {
        assert!(text.contains(cmd), "help must mention {cmd}");
    }
}

#[test]
fn unknown_command_fails_with_usage() {
    // `check` runs the program lints (HM0001–HM0004) before its per-model
    // checks, so there is no separate `lint` command.
    for argv in [vec!["frobnicate"], vec!["lint", "p.hdsl"]] {
        let out = hetmem(&argv);
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage"),
            "{argv:?}"
        );
    }
}

#[test]
fn tables_prints_all_five_in_order_and_catalog_is_table_i() {
    let out = hetmem(&["tables"]);
    assert!(out.status.success());
    let text = stdout(&out);
    let mut from = 0;
    for heading in [
        "Table I:",
        "Table II:",
        "Table III:",
        "Table IV:",
        "Table V:",
    ] {
        let at = text[from..]
            .find(heading)
            .unwrap_or_else(|| panic!("{heading} missing after byte {from}:\n{text}"));
        from += at + heading.len();
    }
    let table_i = &text[..text.find("Table II:").expect("Table II present")];
    let catalog = hetmem(&["catalog"]);
    assert!(catalog.status.success());
    assert!(table_i.starts_with("Table I:"), "{table_i}");
    assert_eq!(stdout(&catalog), table_i);
}

#[test]
fn trace_dump_then_simulate_round_trips() {
    let dump = hetmem(&["trace", "mergesort", "--scale", "256"]);
    assert!(dump.status.success());
    let text = stdout(&dump);
    assert!(text.starts_with("hmt 1"));
    assert!(text.contains("trace \"merge sort\""));

    let dir = std::env::temp_dir().join("hetmem-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("mergesort.hmt");
    std::fs::write(&path, &text).expect("write trace");

    let sim = hetmem(&["sim", path.to_str().expect("utf8 path"), "fusion"]);
    assert!(
        sim.status.success(),
        "{}",
        String::from_utf8_lossy(&sim.stderr)
    );
    let report = stdout(&sim);
    assert!(report.contains("Fusion"), "{report}");
    assert!(report.contains("par"), "{report}");
}

#[test]
fn loc_and_lower_consume_dsl_sources() {
    let dir = std::env::temp_dir().join("hetmem-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("axpy.hdsl");
    std::fs::write(
        &path,
        "program axpy {\n  compute 12;\n  buffer x: 8192;\n  buffer y: 8192;\n  \
         init x, y;\n  gpu axpyGPU(read x; write y);\n  seq check(read y);\n}\n",
    )
    .expect("write source");
    let p = path.to_str().expect("utf8 path");

    let loc = hetmem(&["loc", p]);
    assert!(
        loc.status.success(),
        "{}",
        String::from_utf8_lossy(&loc.stderr)
    );
    let text = stdout(&loc);
    assert!(text.contains("UNI    0"), "{text}");
    assert!(text.contains("PAS    2"), "{text}");

    let lower = hetmem(&["lower", p, "dis"]);
    assert!(lower.status.success());
    let text = stdout(&lower);
    assert!(
        text.contains("Memcpy(gpu_x, x, MemcpyHosttoDevice);"),
        "{text}"
    );
    assert!(text.contains("// [comm]"), "{text}");
}

#[test]
fn fig7_runs_at_small_scale() {
    let out = hetmem(&["fig", "7", "--scale", "512"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("UNI"), "{text}");
    assert!(text.contains("reduction"), "{text}");
}

#[test]
fn every_study_runs_at_small_scale_and_prints_its_rows() {
    use hetmem::core::{EvaluatedSystem, SharedLocalityVariant};
    use hetmem::trace::kernels::Kernel;
    let kernels: Vec<String> = Kernel::ALL.iter().map(|k| k.name().to_owned()).collect();
    let systems: Vec<String> = EvaluatedSystem::ALL
        .iter()
        .map(|s| s.name().to_owned())
        .collect();
    let variants: Vec<String> = SharedLocalityVariant::ALL
        .iter()
        .map(ToString::to_string)
        .collect();
    for (study, scale, header, rows) in [
        ("locality", "64", "=== Locality study", &variants),
        ("page-size", "64", "=== GPU page-size study", &kernels),
        ("partition", "64", "=== Work-partitioning sweep", &kernels),
        ("energy", "256", "=== Energy study", &kernels),
        (
            "pareto",
            "256",
            "=== Efficiency metrics & Pareto frontier",
            &systems,
        ),
    ] {
        let out = hetmem(&["study", study, "--scale", scale]);
        assert!(
            out.status.success(),
            "{study}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = stdout(&out);
        assert!(
            text.contains(header) && text.contains(&format!("(scale {scale}) ===")),
            "{study}: {text}"
        );
        for row in rows {
            assert!(
                text.contains(row.as_str()),
                "{study} must print {row}: {text}"
            );
        }
    }
}

#[test]
fn unknown_flags_exit_nonzero_with_one_line_error_and_usage() {
    for argv in [
        vec!["sweep", "--turbo", "on"],
        vec!["fig", "5", "--bogus", "1"],
        vec!["tables", "--scale", "2"],
        vec!["sim", "t.hmt", "fusion", "extra"],
        vec!["serve", "--bogus-flag", "1"],
        vec!["serve", "extra-positional"],
        vec!["serve", "--workers", "0"],
        vec!["serve", "--join", "no-colon"],
        vec!["serve", "--advertise", "no-colon"],
        vec!["serve", "--heartbeat-ms", "0"],
        vec!["search", "--turbo", "on"],
        vec!["search", "extra-positional"],
        vec!["search", "--budget", "0"],
        vec!["search", "--objectives", "speed"],
        vec!["search", "--objectives", "hw,hw"],
        vec!["search", "--strategy", "bayes"],
        vec!["study"],
        vec!["study", "bogus"],
        vec!["study", "locality", "--scale", "0"],
        vec!["study", "locality", "extra"],
    ] {
        let out = hetmem(&argv);
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        let first = err.lines().next().unwrap_or_default();
        assert!(first.starts_with("hetmem: "), "{argv:?}: {first}");
        assert!(err.contains("usage: hetmem"), "{argv:?}: {err}");
    }
}

#[test]
fn removed_event_driven_mode_is_a_usage_error_naming_accurate() {
    // A missing trace file is a runtime error (exit 1), so exit 2 shows the
    // mode was rejected while parsing.
    let out = hetmem(&["sim", "t.hmt", "fusion", "--mode", "event-driven"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    let first = err.lines().next().unwrap_or_default();
    assert!(first.starts_with("hetmem: "), "{first}");
    assert!(first.contains("accurate"), "{first}");
    assert!(err.contains("usage: hetmem"), "{err}");
}

#[test]
fn a_foreign_sampling_geometry_is_a_usage_error_and_the_label_round_trips() {
    for command in [
        vec!["sim", "t.hmt", "fusion"],
        vec!["sweep", "--scale", "512"],
        vec!["search", "--scale", "512"],
    ] {
        let out = hetmem(&[command.as_slice(), &["--mode", "sampled:2048:256"]].concat());
        assert_eq!(out.status.code(), Some(2), "{command:?}");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        let first = err.lines().next().unwrap_or_default();
        assert!(first.starts_with("hetmem: "), "{first}");
        assert!(first.contains("accurate|sampled"), "{first}");
    }

    let dir = std::env::temp_dir().join(format!("hetmem-cli-label-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("r.hmt");
    let trace = hetmem(&["trace", "reduction", "--scale", "64"]);
    assert!(trace.status.success());
    std::fs::write(&path, &trace.stdout).expect("trace written");
    let path = path.to_str().expect("utf-8 path");
    let sim = |mode: &str| hetmem(&["sim", path, "fusion", "--mode", mode, "--format", "json"]);
    let (short, labelled) = (sim("sampled"), sim("sampled:1536:512"));
    assert!(labelled.status.success());
    assert_eq!(short.stdout, labelled.stdout);
    // The label ran the sampler: it skipped, which accurate never does.
    assert!(
        !stdout(&labelled).contains("\"fast_forwarded_ticks\":0,"),
        "{}",
        stdout(&labelled)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn removed_evolve_strategy_is_a_usage_error_naming_the_survivors() {
    for removed in ["evolve", "evolutionary", "mutate"] {
        let out = hetmem(&["search", "--strategy", removed]);
        assert_eq!(out.status.code(), Some(2), "{removed}");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        let first = err.lines().next().unwrap_or_default();
        assert!(first.starts_with("hetmem: "), "{first}");
        assert!(first.contains("random|halving"), "{first}");
        assert!(err.contains("usage: hetmem"), "{err}");
    }
}

#[test]
fn sweep_is_deterministic_across_worker_counts() {
    let serial = hetmem(&["sweep", "--scale", "512", "--jobs", "1", "--format", "json"]);
    let threaded = hetmem(&["sweep", "--scale", "512", "--jobs", "8", "--format", "json"]);
    assert!(
        serial.status.success(),
        "{}",
        String::from_utf8_lossy(&serial.stderr)
    );
    assert!(
        threaded.status.success(),
        "{}",
        String::from_utf8_lossy(&threaded.stderr)
    );
    assert!(!serial.stdout.is_empty());
    assert_eq!(
        serial.stdout, threaded.stdout,
        "--jobs must not change results"
    );
    // 6 kernels × (5 systems + 4 spaces) = one record per grid cell.
    assert_eq!(stdout(&serial).lines().count(), 54);
}

#[test]
fn sweep_warm_cache_hits_everything_and_is_byte_identical() {
    let dir = std::env::temp_dir().join(format!("hetmem-cli-sweep-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = dir.to_str().expect("utf8 path");
    let args = [
        "sweep",
        "--kernel",
        "kmeans",
        "--scale",
        "512",
        "--jobs",
        "4",
        "--cache-dir",
        cache,
        "--format",
        "json",
    ];
    let cold = hetmem(&args);
    let warm = hetmem(&args);
    assert!(
        cold.status.success(),
        "{}",
        String::from_utf8_lossy(&cold.stderr)
    );
    assert!(
        warm.status.success(),
        "{}",
        String::from_utf8_lossy(&warm.stderr)
    );
    assert_eq!(
        cold.stdout, warm.stdout,
        "warm run must reproduce cold bytes"
    );

    let cold_stats = String::from_utf8_lossy(&cold.stderr).into_owned();
    let warm_stats = String::from_utf8_lossy(&warm.stderr).into_owned();
    assert!(
        cold_stats.contains("0 cache hits, 9 misses"),
        "{cold_stats}"
    );
    // One kernel at one scale: the first job simulates the compute and the
    // other eight replay it under their own communication models.
    assert!(cold_stats.contains("9 misses, 8 replayed"), "{cold_stats}");
    assert!(
        warm_stats.contains("9 cache hits, 0 misses, 0 replayed"),
        "{warm_stats}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_filters_and_csv_header() {
    let out = hetmem(&[
        "sweep", "--kernel", "dct", "--system", "fusion", "--scale", "512", "--format", "csv",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{text}");
    assert!(
        lines[0].starts_with("id,kind,kernel,target,scale,total_ticks"),
        "{text}"
    );
    assert!(
        lines[1].starts_with("0,case-study,dct,Fusion,512,"),
        "{text}"
    );
}

#[test]
fn sim_and_fig_emit_json() {
    let dump = hetmem(&["trace", "dct", "--scale", "512"]);
    assert!(dump.status.success());
    let dir = std::env::temp_dir().join("hetmem-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("dct.hmt");
    std::fs::write(&path, stdout(&dump)).expect("write trace");

    let sim = hetmem(&[
        "sim",
        path.to_str().expect("utf8 path"),
        "gmac",
        "--format",
        "json",
    ]);
    assert!(
        sim.status.success(),
        "{}",
        String::from_utf8_lossy(&sim.stderr)
    );
    let text = stdout(&sim);
    assert!(
        text.starts_with("{\"system\":\"GMAC\",\"total_ticks\":"),
        "{text}"
    );
    assert!(text.contains("\"report\":{"), "{text}");

    let fig = hetmem(&["fig", "7", "--scale", "512", "--format", "json"]);
    assert!(fig.status.success());
    let text = stdout(&fig);
    // 6 kernels × 4 address spaces.
    assert_eq!(text.lines().count(), 24, "{text}");
    assert!(text.contains("\"kind\":\"address-space\""), "{text}");
}

#[test]
fn malformed_inputs_produce_diagnostics_not_panics() {
    let out = hetmem(&["sim", "/nonexistent/file.hmt", "fusion"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));

    let dir = std::env::temp_dir().join("hetmem-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let bad = dir.join("bad.hdsl");
    std::fs::write(&bad, "program oops {").expect("write");
    let out = hetmem(&["loc", bad.to_str().expect("utf8")]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("parse error"));
}

// ---------- static verifier (`hetmem check`) ----------

#[test]
fn check_clean_kernel_exits_zero() {
    let out = hetmem(&["check", "reduction", "--model", "dis"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("checking `reduction` under DIS"), "{text}");
    assert!(text.contains("ok: 0 error(s), 0 warning(s)"), "{text}");
}

#[test]
fn check_deny_warnings_escalates_a_lint_to_exit_one() {
    let dir = std::env::temp_dir().join("hetmem-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("leaky.hdsl");
    // `y` is read by the GPU kernel before anything writes it — an
    // HM0002 uninitialized-read warning.
    std::fs::write(
        &path,
        "program leaky {\n  compute 4;\n  buffer x: 64;\n  buffer y: 64;\n  \
         init x;\n  gpu k(read y; write x);\n  seq check(read x);\n}\n",
    )
    .expect("write source");
    let p = path.to_str().expect("utf8 path");

    let ok = hetmem(&["check", p, "--model", "dis"]);
    assert_eq!(ok.status.code(), Some(0), "warnings alone keep exit 0");
    assert!(stdout(&ok).contains("HM0002"), "{}", stdout(&ok));

    let deny = hetmem(&["check", p, "--model", "dis", "--deny", "warnings"]);
    assert_eq!(deny.status.code(), Some(1), "--deny warnings exits 1");
    assert!(
        String::from_utf8_lossy(&deny.stderr).contains("check failed"),
        "{}",
        String::from_utf8_lossy(&deny.stderr)
    );
}

#[test]
fn check_accepts_sweep_style_kernel_aliases() {
    // `trace` and `sweep` spell the clustering kernel `kmeans`; `check`
    // must accept the same spelling for the paper's "k-mean".
    for name in ["kmeans", "k-mean", "matrix-mul", "mergesort"] {
        let out = hetmem(&["check", name, "--model", "uni"]);
        assert!(
            out.status.success(),
            "{name}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn check_rejects_bad_invocations_with_usage() {
    for argv in [
        vec!["check"],
        vec!["check", "reduction", "--all"],
        vec!["check", "reduction", "--frobnicate", "yes"],
        vec!["check", "no-such-kernel"],
    ] {
        let out = hetmem(&argv);
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage: hetmem"),
            "{argv:?}"
        );
    }
}

#[test]
fn check_json_stream_parses_and_ends_with_a_summary() {
    use hetmem_xplore::json::{parse, Json};
    let out = hetmem(&["check", "--all", "--format", "json"]);
    assert!(out.status.success());
    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 40, "one line per finding plus summary");
    for line in &lines {
        let v = parse(line).expect("every line is valid JSON");
        assert!(v.get("kind").is_some(), "{line}");
    }
    let summary = parse(lines.last().expect("summary")).expect("parses");
    assert_eq!(summary.get("kind").and_then(Json::as_str), Some("summary"));
    assert_eq!(
        summary.get("checked").and_then(Json::as_u64),
        Some(40),
        "ten programs across four models"
    );
    assert_eq!(summary.get("errors").and_then(Json::as_u64), Some(0));
}

#[test]
fn check_explain_prints_the_paragraph_and_rejects_unknown_codes() {
    let out = hetmem(&["check", "--explain", "HM0101"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.starts_with("HM0101: stale-read"), "{text}");
    assert!(text.contains("host-to-device transfer"), "{text}");

    // The kebab-case name works too.
    let by_name = hetmem(&["check", "--explain", "ownership-violation"]);
    assert!(by_name.status.success());
    assert!(
        stdout(&by_name).starts_with("HM0105"),
        "{}",
        stdout(&by_name)
    );

    let unknown = hetmem(&["check", "--explain", "HM9999"]);
    assert_eq!(
        unknown.status.code(),
        Some(2),
        "unknown codes are usage errors"
    );
    assert!(
        String::from_utf8_lossy(&unknown.stderr).contains("unknown diagnostic code"),
        "{}",
        String::from_utf8_lossy(&unknown.stderr)
    );
}

#[test]
fn fix_reports_kmeans_pas_savings_and_deny_unchanged_cuts_both_ways() {
    // k-mean under PAS has a removable ownership ping-pong: fix reports
    // the change, and --deny unchanged is satisfied.
    let out = hetmem(&["fix", "kmeans", "--model", "pas", "--deny", "unchanged"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("fix `k-mean` under PAS"), "{text}");
    assert!(text.contains("4 removal(s)"), "{text}");

    // reduction under DIS is already minimal: --deny unchanged exits 1.
    let unchanged = hetmem(&["fix", "reduction", "--model", "dis", "--deny", "unchanged"]);
    assert_eq!(unchanged.status.code(), Some(1), "--deny unchanged exits 1");
    assert!(
        String::from_utf8_lossy(&unchanged.stderr).contains("no changes"),
        "{}",
        String::from_utf8_lossy(&unchanged.stderr)
    );
    // Without the flag the same invocation is fine.
    let ok = hetmem(&["fix", "reduction", "--model", "dis"]);
    assert!(ok.status.success());
}

#[test]
fn fix_diff_marks_the_removed_ownership_lines() {
    let out = hetmem(&["fix", "kmeans", "--model", "pas", "--format", "diff"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("--- k-mean/PAS (original)"), "{text}");
    assert!(text.contains("+++ k-mean/PAS (fixed)"), "{text}");
    // Four ownership lines leave; the only other +/- pair is the header
    // restating the comm-handling line count.
    let removed = text
        .lines()
        .filter(|l| l.starts_with("- ") && l.contains("[comm]"))
        .count();
    let inserted = text
        .lines()
        .filter(|l| l.starts_with("+ ") && l.contains("[comm]"))
        .count();
    assert_eq!(removed, 4, "{text}");
    assert_eq!(inserted, 0, "{text}");
}

#[test]
fn fix_json_stream_parses_and_ends_with_a_summary() {
    use hetmem_xplore::json::{parse, Json};
    let out = hetmem(&["fix", "--all", "--format", "json"]);
    assert!(out.status.success());
    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 41, "ten programs x four models plus summary");
    for line in &lines {
        let v = parse(line).expect("every line is valid JSON");
        assert!(v.get("kind").is_some(), "{line}");
    }
    let summary = parse(lines.last().expect("summary")).expect("parses");
    assert_eq!(summary.get("kind").and_then(Json::as_str), Some("summary"));
    assert_eq!(summary.get("fixed").and_then(Json::as_u64), Some(40));
    assert!(
        summary.get("transfers_removed").and_then(Json::as_u64) >= Some(4),
        "{summary:?}"
    );
    assert_eq!(
        summary.get("transfers_inserted").and_then(Json::as_u64),
        Some(0),
        "pristine lowerings never need insertions"
    );
}

#[test]
fn fix_rejects_bad_invocations_with_usage() {
    for argv in [
        vec!["fix"],
        vec!["fix", "reduction", "--all"],
        vec!["fix", "no-such-kernel"],
        vec!["fix", "reduction", "--deny", "warnings"],
        vec!["fix", "reduction", "--format", "csv"],
    ] {
        let out = hetmem(&argv);
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage: hetmem"),
            "{argv:?}"
        );
    }
}
