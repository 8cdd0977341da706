//! Differential validation of the static verifier against the dynamic
//! oracle.
//!
//! The static checker's staleness verdicts (HM0101 stale-read, HM0102
//! missing-transfer-back) claim to be *exact* for loop-free-or-bounded
//! lowered programs: a site is flagged iff some execution actually reads
//! a stale copy. The oracle executes the lowered program concretely with
//! per-buffer version counters and records the stale reads that really
//! happen, so the two must agree site-for-site — on the pristine
//! lowerings (both empty) and on every single-statement deletion of a
//! communication line (both non-empty in the same places).
//!
//! A property harness then drives `lower()` itself through ~200 random
//! programs, nested loops included, each also with only some of its
//! buffers initialized and with random declared access modes, and holds
//! its output to the checker-clean contract under all four address-space
//! models; another holds the race verdicts (HM0106) on 400 lowerings to
//! those on their loop-free unrollings.

use std::collections::BTreeSet;

use hetmem::sim::{EventCounts, EventTrace, Simulation};
use hetmem::trace::{Phase, PhaseSegment, PhasedTrace};
use hetmem_dsl::{
    check_lowered, fix_lowered, generate_trace, lower, parse_program, programs, run_oracle,
    write_program, AccessMode, AddressSpace, BufId, Buffer, Code, Lowered, Program, Severity, Step,
    Stmt, Target,
};

fn all_programs() -> Vec<Program> {
    let mut out = programs::all();
    out.extend(programs::extra::all());
    out
}

/// The `(statement, buffer)` sites the static checker flags with `code`.
fn static_sites(lowered: &Lowered, code: Code) -> Vec<(usize, String)> {
    let mut sites: Vec<(usize, String)> = check_lowered(lowered)
        .into_iter()
        .filter(|d| d.code == code)
        .map(|d| {
            (
                d.stmt.expect("staleness findings carry a statement index"),
                d.buffer.expect("staleness findings carry a buffer"),
            )
        })
        .collect();
    sites.sort();
    sites
}

fn sorted(mut sites: Vec<(usize, String)>) -> Vec<(usize, String)> {
    sites.sort();
    sites
}

#[test]
fn pristine_lowerings_agree_with_the_oracle_everywhere() {
    for program in all_programs() {
        for model in AddressSpace::ALL {
            let lowered = lower(&program, model);
            let oracle = run_oracle(&lowered);
            assert!(
                oracle.is_clean(),
                "{} under {model}: oracle found stale reads in a pristine \
                 lowering: {oracle:?}",
                program.name
            );
            assert_eq!(static_sites(&lowered, Code::StaleRead), vec![]);
            assert_eq!(static_sites(&lowered, Code::MissingTransferBack), vec![]);
        }
    }
}

#[test]
fn every_single_deletion_agrees_with_the_oracle() {
    // Delete each communication-handling statement in turn and compare
    // verdicts on the *mutated* lowering — both sides see the same
    // statement indices, so sites must agree exactly.
    let mut mutations = 0usize;
    let mut broken = 0usize;
    for program in all_programs() {
        for model in AddressSpace::ALL {
            let lowered = lower(&program, model);
            for i in 0..lowered.stmts.len() {
                if !lowered.stmts[i].is_comm_overhead() {
                    continue;
                }
                let mut mutated = lowered.clone();
                mutated.stmts.remove(i);
                mutations += 1;

                let oracle = run_oracle(&mutated);
                let static_gpu = static_sites(&mutated, Code::StaleRead);
                let static_host = static_sites(&mutated, Code::MissingTransferBack);
                assert_eq!(
                    static_gpu,
                    sorted(oracle.stale_gpu_reads.clone()),
                    "{} under {model}, stmt {i} ({}) deleted: static HM0101 \
                     disagrees with the oracle",
                    program.name,
                    lowered.stmts[i]
                );
                assert_eq!(
                    static_host,
                    sorted(oracle.stale_host_reads.clone()),
                    "{} under {model}, stmt {i} ({}) deleted: static HM0102 \
                     disagrees with the oracle",
                    program.name,
                    lowered.stmts[i]
                );
                if !static_gpu.is_empty() || !static_host.is_empty() {
                    broken += 1;
                }
            }
        }
    }
    assert!(mutations > 100, "only {mutations} mutations exercised");
    assert!(
        broken > 20,
        "only {broken} of {mutations} deletions produced staleness — the \
         differential is not exercising the detectors"
    );
}

// ---------------------------------------------------------------------
// Property harness: lower() emits checker-clean programs.
// ---------------------------------------------------------------------

/// Deterministic xorshift64* generator (same in-repo harness as
/// `tests/properties.rs`; the container has no registry access).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi);
        lo + self.next_u64() % (hi - lo)
    }

    fn usize_range(&mut self, lo: usize, hi: usize) -> usize {
        usize::try_from(self.range(lo as u64, hi as u64)).expect("fits")
    }

    fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// A random well-formed program with every buffer host-initialized up
/// front (uninitialized reads are the HM0002 lint's business, not the
/// staleness checker's), steps that read and write one or two buffers,
/// and loops nested up to three deep.
fn arb_checked_program(rng: &mut Rng) -> Program {
    let n = rng.usize_range(2, 5);
    let buffers: Vec<Buffer> = (0..n)
        .map(|i| Buffer::new(format!("b{i}"), 64 * (i as u64 + 1)))
        .collect();

    fn some_buffers(rng: &mut Rng, n: usize) -> Vec<BufId> {
        let mut ids = vec![BufId(rng.usize_range(0, n))];
        let other = BufId(rng.usize_range(0, n));
        if rng.range(0, 3) == 0 && !ids.contains(&other) {
            ids.push(other);
        }
        ids
    }

    fn kernel(rng: &mut Rng, n: usize, tag: usize) -> Step {
        let gpu = rng.bool();
        let reads = some_buffers(rng, n);
        let writes = some_buffers(rng, n);
        if gpu {
            Step::Kernel {
                target: Target::Gpu,
                name: format!("g{tag}"),
                reads,
                writes,
                args_upload: rng.bool(),
            }
        } else if rng.bool() {
            Step::Kernel {
                target: Target::Cpu,
                name: format!("c{tag}"),
                reads,
                writes,
                args_upload: false,
            }
        } else {
            Step::Seq {
                name: format!("s{tag}"),
                reads,
                writes,
            }
        }
    }

    /// `count` steps, of which about one in four is a loop while fewer
    /// than `depth` loops enclose them.
    fn steps(rng: &mut Rng, n: usize, depth: usize, tag: &mut usize, count: usize) -> Vec<Step> {
        (0..count)
            .map(|_| {
                *tag += 1;
                if depth > 0 && rng.range(0, 4) == 0 {
                    let iterations = rng.range(1, 5) as u32;
                    let body_len = rng.usize_range(1, 4);
                    let body = steps(rng, n, depth - 1, tag, body_len);
                    Step::Loop { iterations, body }
                } else {
                    kernel(rng, n, *tag)
                }
            })
            .collect()
    }

    let mut all = vec![Step::HostInit {
        bufs: (0..n).map(BufId).collect(),
    }];
    let depth = rng.usize_range(1, 4);
    let count = rng.usize_range(1, 7);
    all.extend(steps(rng, n, depth, &mut 0, count));
    all.push(Step::Seq {
        name: "finish".into(),
        reads: vec![BufId(0)],
        writes: vec![],
    });
    Program {
        name: "random".into(),
        buffers,
        steps: all,
        compute_lines: 8,
    }
}

/// `program` with its up-front `init` cut to a random subset of its
/// buffers, dropped when the subset is empty: GPU kernels may then read
/// buffers nothing wrote.
fn with_init_cut(rng: &mut Rng, mut program: Program) -> Program {
    let Step::HostInit { bufs } = &mut program.steps[0] else {
        unreachable!("arb_checked_program starts with its init");
    };
    bufs.retain(|_| rng.bool());
    if bufs.is_empty() {
        program.steps.remove(0);
    }
    program
}

#[test]
fn lowerings_of_random_programs_are_checker_clean() {
    let memory_model_codes = [
        Code::StaleRead,
        Code::MissingTransferBack,
        Code::RedundantTransfer,
        Code::UntaggedShared,
        Code::OwnershipViolation,
    ];
    let mut rng = Rng::new(0xC11EC2);
    let mut cut = Rng::new(0x1A17);
    let mut modes = Rng::new(0x30DE5);
    for case in 0..200 {
        let program = arb_checked_program(&mut rng);
        let partial = with_init_cut(&mut cut, program.clone());
        let moded = with_random_modes(&mut modes, program.clone());
        let moded_partial = with_random_modes(&mut modes, partial.clone());
        for program in [program, partial, moded, moded_partial] {
            assert_eq!(program.validate(), Ok(()));
            for model in AddressSpace::ALL {
                let lowered = lower(&program, model);
                let diags = check_lowered(&lowered);
                for d in &diags {
                    let flagged = memory_model_codes.contains(&d.code)
                        && (d.severity == Severity::Error || d.severity == Severity::Warning);
                    assert!(
                        !flagged,
                        "case {case} under {model}: lower() emitted a checker-dirty \
                         program:\n{d}\nprogram: {program:?}"
                    );
                }
                let oracle = run_oracle(&lowered);
                assert!(
                    oracle.is_clean(),
                    "case {case} under {model}: oracle found stale reads: {oracle:?}"
                );
            }
        }
    }
}

/// `stmts` with each `LoopHead n … LoopTail` replaced by `n` copies of its
/// (unrolled) body.
fn unrolled(stmts: &[Stmt]) -> Vec<Stmt> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < stmts.len() {
        let Stmt::LoopHead { iterations } = stmts[i] else {
            out.push(stmts[i].clone());
            i += 1;
            continue;
        };
        let mut depth = 0usize;
        let tail = (i..stmts.len())
            .find(|&j| {
                match stmts[j] {
                    Stmt::LoopHead { .. } => depth += 1,
                    Stmt::LoopTail => depth -= 1,
                    _ => {}
                }
                depth == 0
            })
            .expect("lowered loops are balanced");
        let body = unrolled(&stmts[i + 1..tail]);
        for _ in 0..iterations {
            out.extend(body.iter().cloned());
        }
        i = tail + 1;
    }
    out
}

/// The buffers HM0106 flags anywhere in `lowered`.
fn raced_buffers(lowered: &Lowered) -> BTreeSet<String> {
    check_lowered(lowered)
        .into_iter()
        .filter(|d| d.code == Code::CpuGpuRace)
        .map(|d| d.buffer.expect("races name their buffer"))
        .collect()
}

#[test]
fn races_in_loops_are_the_races_of_their_unrolling() {
    // The checker pairs kernels across a loop's back edge only when the
    // loop runs again, so a lowering and its textual unrolling race on
    // the same buffers. Buffers, not sites: the (code, stmt, buffer)
    // dedup keeps one partner per anchor, and unrolling moves anchors.
    let mut rng = Rng::new(0xACE5);
    let mut racy = 0usize;
    for case in 0..400 {
        let program = arb_checked_program(&mut rng);
        for model in AddressSpace::ALL {
            let lowered = lower(&program, model);
            let flat = Lowered {
                stmts: unrolled(&lowered.stmts),
                ..lowered.clone()
            };
            let races = raced_buffers(&lowered);
            assert_eq!(
                races,
                raced_buffers(&flat),
                "case {case} under {model}: HM0106 differs from the unrolling\n\
                 program: {program:?}"
            );
            racy += usize::from(!races.is_empty());
        }
    }
    assert!(
        racy > 100,
        "only {racy} of 1600 lowerings race — the differential is not \
         exercising HM0106"
    );
}

// ---------------------------------------------------------------------
// Property: the grammar round-trips (access modes included) and the fix
// pass is a projection (fix(fix(p)) == fix(p)) that only removes
// communication.
// ---------------------------------------------------------------------

/// Stamps every buffer with a random declared access mode; the grammar
/// must carry all four spellings.
fn with_random_modes(rng: &mut Rng, mut program: Program) -> Program {
    const MODES: [AccessMode; 4] = [
        AccessMode::Read,
        AccessMode::Write,
        AccessMode::ReadWrite,
        AccessMode::Reduce,
    ];
    for buffer in &mut program.buffers {
        buffer.mode = MODES[rng.usize_range(0, MODES.len())];
    }
    program
}

#[test]
fn random_programs_round_trip_through_the_grammar_with_access_modes() {
    let mut rng = Rng::new(0xC11EC2 ^ 0x5EED);
    for case in 0..200 {
        let program = arb_checked_program(&mut rng);
        let program = with_random_modes(&mut rng, program);
        let text = write_program(&program);
        let back =
            parse_program(&text).unwrap_or_else(|e| panic!("case {case}: {e}\nsource:\n{text}"));
        assert_eq!(
            back, program,
            "case {case}: parse(pretty(p)) != p\nsource:\n{text}"
        );
    }
}

/// Whether `fixed` is `original`, or the same group with members dropped.
fn is_pruned(fixed: &Stmt, original: &Stmt) -> bool {
    let subsequence = |f: &[String], o: &[String]| {
        let mut o = o.iter();
        f.iter().all(|b| o.any(|c| c == b))
    };
    match (fixed, original) {
        (
            Stmt::AdsmCopyToDevice { bufs: f, bytes: fb },
            Stmt::AdsmCopyToDevice { bufs: o, bytes: ob },
        ) => fb <= ob && subsequence(f, o),
        (Stmt::ReleaseOwnership { bufs: f }, Stmt::ReleaseOwnership { bufs: o })
        | (Stmt::AcquireOwnership { bufs: f }, Stmt::AcquireOwnership { bufs: o }) => {
            subsequence(f, o)
        }
        _ => fixed == original,
    }
}

/// The trace's compute segments — everything except `Communication`.
fn compute_segments(trace: &PhasedTrace) -> Vec<&PhaseSegment> {
    trace
        .segments()
        .iter()
        .filter(|s| s.phase() != Phase::Communication)
        .collect()
}

/// Simulates `trace` with the event observer attached and returns the
/// aggregate counts.
fn observed_counts(trace: &PhasedTrace) -> EventCounts {
    let mut sim = Simulation::builder()
        .observer(EventTrace::new())
        .build()
        .expect("baseline config is valid");
    sim.run(trace).expect("generated traces are well-formed");
    sim.into_observer().counts()
}

#[test]
fn fix_is_idempotent_on_random_programs() {
    let mut rng = Rng::new(0xF1C5EED);
    for case in 0..200 {
        let program = arb_checked_program(&mut rng);
        for model in AddressSpace::ALL {
            let once = fix_lowered(&lower(&program, model));
            let twice = fix_lowered(&once.fixed);
            assert!(
                !twice.changed(),
                "case {case} under {model}: fix(fix(p)) != fix(p): {twice}"
            );
            assert_eq!(once.fixed, twice.fixed, "case {case} under {model}");
            // Whatever fix did, the result must still satisfy the
            // checker-clean contract the pristine lowering had.
            assert!(
                run_oracle(&once.fixed).is_clean(),
                "case {case} under {model}: fix broke the program"
            );
            // Fix only removes: each fixed statement is the next original
            // one it prunes, in order.
            let mut original = once.original.stmts.iter();
            for stmt in &once.fixed.stmts {
                assert!(
                    original.any(|o| is_pruned(stmt, o)),
                    "case {case} under {model}: `{stmt}` comes from no original \
                     statement\nprogram: {program:?}"
                );
            }
            // The computation is untouched and the observed communication
            // never grows.
            let base = generate_trace(&once.original);
            let fixed = generate_trace(&once.fixed);
            assert_eq!(
                compute_segments(&base),
                compute_segments(&fixed),
                "case {case} under {model}: fix changed a compute segment"
            );
            let (base, fixed) = (observed_counts(&base), observed_counts(&fixed));
            assert!(
                fixed.comm_events <= base.comm_events && fixed.special_ops <= base.special_ops,
                "case {case} under {model}: communication grew: {base:?} -> {fixed:?}"
            );
        }
    }
}

/// The findings of `lowered` but `own`'s HM0103, as (code, severity,
/// statement, buffer), with statement indices from `at` on shifted up by
/// `shift`.
fn findings_but_own(
    lowered: &Lowered,
    own: usize,
    at: usize,
    shift: usize,
) -> Vec<(Code, Severity, usize, Option<String>)> {
    let mut out: Vec<_> = check_lowered(lowered)
        .into_iter()
        .map(|d| {
            let stmt = d.stmt.expect("lowered findings carry a statement");
            let stmt = if stmt >= at { stmt + shift } else { stmt };
            (d.code, d.severity, stmt, d.buffer)
        })
        .filter(|(code, _, stmt, _)| !(*code == Code::RedundantTransfer && *stmt == own))
        .collect();
    out.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    out
}

#[test]
fn fixed_random_programs_are_locally_minimal() {
    // The module doc's "minimal sufficient" claim by brute force: in each
    // fixed program, removing any one remaining candidate alone (a
    // Memcpy, or one buffer of a copy or ownership group) changes some
    // finding besides its own HM0103 or lets the oracle see a stale read.
    // Removals are reported in program order.
    let mut rng = Rng::new(0xF1C5EED);
    let mut tried = 0usize;
    for case in 0..200 {
        let program = arb_checked_program(&mut rng);
        for model in AddressSpace::ALL {
            let report = fix_lowered(&lower(&program, model));
            assert!(
                report.removed.windows(2).all(|w| w[0].stmt <= w[1].stmt),
                "case {case} under {model}: removals out of program order: {:?}",
                report.removed
            );
            let fixed = &report.fixed;
            let before = findings_but_own(fixed, usize::MAX, 0, 0);
            for (i, stmt) in fixed.stmts.iter().enumerate() {
                let width = match stmt {
                    Stmt::MemcpyH2D { .. } | Stmt::MemcpyD2H { .. } => 1,
                    Stmt::AdsmCopyToDevice { bufs, .. }
                    | Stmt::ReleaseOwnership { bufs }
                    | Stmt::AcquireOwnership { bufs } => bufs.len(),
                    _ => 0,
                };
                for k in 0..width {
                    let mut trial = fixed.clone();
                    match &mut trial.stmts[i] {
                        Stmt::AdsmCopyToDevice { bufs, .. }
                        | Stmt::ReleaseOwnership { bufs }
                        | Stmt::AcquireOwnership { bufs }
                            if width > 1 =>
                        {
                            bufs.remove(k);
                        }
                        _ => {
                            trial.stmts.remove(i);
                        }
                    }
                    let shift = usize::from(trial.stmts.len() < fixed.stmts.len());
                    let own = |f: &[(Code, Severity, usize, Option<String>)]| {
                        f.iter()
                            .filter(|d| !(d.0 == Code::RedundantTransfer && d.2 == i))
                            .cloned()
                            .collect::<Vec<_>>()
                    };
                    let same = own(&findings_but_own(&trial, usize::MAX, i, shift)) == own(&before);
                    assert!(
                        !same || !run_oracle(&trial).is_clean(),
                        "case {case} under {model}: `{stmt}` member {k} is removable alone\n\
                         program: {program:?}"
                    );
                    tried += 1;
                }
            }
        }
    }
    assert!(tried > 1000, "only {tried} candidates tried");
}
