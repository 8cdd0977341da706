//! Differential validation of the checker-driven fix pass.
//!
//! `hetmem fix` claims to rewrite a lowering to the *minimal sufficient*
//! communication set without touching the computation. This suite holds
//! it to that claim end-to-end, for every built-in kernel under every
//! address-space model:
//!
//! * **statically** — the fixed program re-checks clean of errors and
//!   never gains a finding at any severity, and the concrete oracle
//!   interpreter observes no stale read;
//! * **dynamically** — the generated trace's compute segments (every
//!   `Sequential` and `Parallel` segment) are bit-identical to the
//!   unfixed program's, and the simulator's observed communication
//!   events and special operations never increase — and strictly
//!   decrease for at least one kernel × model pair (k-mean under the
//!   partially shared model, whose lowering acquires and releases
//!   ownership around back-to-back GPU kernels).

use hetmem::dsl::{
    check_lowered, fix, generate_trace, programs, run_oracle, AddressSpace, Program, Severity,
};
use hetmem::sim::{EventCounts, EventTrace, Simulation};
use hetmem::trace::{Phase, PhaseSegment, PhasedTrace};

fn all_programs() -> Vec<Program> {
    let mut out = programs::all();
    out.extend(programs::extra::all());
    out
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

fn severity_counts(lowered: &hetmem::dsl::Lowered) -> [usize; 3] {
    let diags = check_lowered(lowered);
    let count = |s: Severity| diags.iter().filter(|d| d.severity == s).count();
    [
        count(Severity::Error),
        count(Severity::Warning),
        count(Severity::Note),
    ]
}

#[test]
fn fix_preserves_compute_and_never_adds_communication() {
    let mut strictly_reduced = Vec::new();
    for program in all_programs() {
        for model in AddressSpace::ALL {
            let report = fix(&program, model);
            let id = format!("{} under {model}", program.name);

            // Static: no errors, and no finding count got worse.
            let before = severity_counts(&report.original);
            let after = severity_counts(&report.fixed);
            assert_eq!(after[0], 0, "{id}: fixed program still has errors");
            for (b, a) in before.iter().zip(&after) {
                assert!(a <= b, "{id}: findings increased ({before:?} -> {after:?})");
            }
            assert!(
                run_oracle(&report.fixed).is_clean(),
                "{id}: oracle observes a stale read in the fixed program"
            );

            // Dynamic: the computation is untouched...
            let base = generate_trace(&report.original);
            let fixed = generate_trace(&report.fixed);
            assert_eq!(
                compute_segments(&base),
                compute_segments(&fixed),
                "{id}: fix changed a compute segment"
            );

            // ...and the observed communication never grows.
            let base_counts = observed_counts(&base);
            let fixed_counts = observed_counts(&fixed);
            assert!(
                fixed_counts.comm_events <= base_counts.comm_events,
                "{id}: comm events grew {} -> {}",
                base_counts.comm_events,
                fixed_counts.comm_events
            );
            assert!(
                fixed_counts.special_ops <= base_counts.special_ops,
                "{id}: special ops grew {} -> {}",
                base_counts.special_ops,
                fixed_counts.special_ops
            );
            if fixed_counts.comm_events + fixed_counts.special_ops
                < base_counts.comm_events + base_counts.special_ops
            {
                strictly_reduced.push(id);
            }
        }
    }
    assert!(
        !strictly_reduced.is_empty(),
        "the optimizer must strictly reduce observed communication for at \
         least one kernel x model pair"
    );
}

#[test]
fn kmeans_pas_strictly_reduces_observed_special_ops() {
    let report = fix(&programs::k_means(), AddressSpace::PartiallyShared);
    let base = observed_counts(&generate_trace(&report.original));
    let fixed = observed_counts(&generate_trace(&report.fixed));
    // Four ownership statements leave the loop body, so the dynamic
    // trace drops 4 special operations per iteration.
    assert!(
        fixed.special_ops < base.special_ops,
        "expected strictly fewer special ops, got {} -> {}",
        base.special_ops,
        fixed.special_ops
    );
    let iterations = (base.special_ops - fixed.special_ops) / 4;
    assert!(
        iterations >= 1 && base.special_ops - fixed.special_ops == 4 * iterations,
        "savings must be 4 ownership ops per loop iteration, got {}",
        base.special_ops - fixed.special_ops
    );
    assert_eq!(report.lines_saved(), 4, "{report}");
}

#[test]
fn disjoint_lowerings_have_no_removable_transfers() {
    // Every Memcpy the disjoint lowering emits is load-bearing: the
    // checker proves none removable, so fix leaves the programs alone
    // and the traces are bit-identical end to end.
    for program in all_programs() {
        let report = fix(&program, AddressSpace::Disjoint);
        assert!(!report.changed(), "{}: {report}", program.name);
        assert_eq!(
            generate_trace(&report.original),
            generate_trace(&report.fixed),
            "{}: unchanged fix must generate an identical trace",
            program.name
        );
    }
}

#[test]
fn fixed_lowerings_are_fixpoints() {
    for program in all_programs() {
        for model in AddressSpace::ALL {
            let once = fix(&program, model);
            let twice = hetmem::dsl::fix_lowered(&once.fixed);
            assert!(
                !twice.changed(),
                "{} under {model}: fix(fix(p)) != fix(p): {twice}",
                program.name
            );
        }
    }
}
