//! The paper's Figure 2/3 walk-through: one reduction program, four memory
//! models. Prints the lowered source for each model (with the
//! communication-handling lines marked), the Table V line counts, and what
//! the checker reports when the partially-shared version breaks the
//! ownership protocol.
//!
//! Run with `cargo run --release --example ownership_reduction`.

use hetmem::dsl::{check_lowered, lower, programs, render, AddressSpace, Code, Stmt};

fn main() {
    let program = programs::reduction();

    for model in AddressSpace::ALL {
        let lowered = lower(&program, model);
        println!("{}", render(&lowered));
    }

    println!("Table V line counts for this kernel:");
    for model in AddressSpace::ALL {
        println!(
            "  {:<4} {:>2} communication-handling lines",
            model.abbrev(),
            lower(&program, model).comm_overhead_lines()
        );
    }

    // The partially shared lowering hands the shared objects to the GPU
    // with releaseOwnership and takes them back with acquireOwnership.
    // Without the release, the GPU kernel touches objects the CPU still
    // owns: the race the ownership design prevents without coherence
    // hardware (§II-A3).
    let mut broken = lower(&program, AddressSpace::PartiallyShared);
    let release = broken
        .stmts
        .iter()
        .position(|s| matches!(s, Stmt::ReleaseOwnership { .. }))
        .expect("the partially shared lowering releases ownership");
    let deleted = broken.stmts.remove(release);
    println!("\nPartially shared space without `{deleted}`:");
    let violations: Vec<_> = check_lowered(&broken)
        .into_iter()
        .filter(|d| d.code == Code::OwnershipViolation)
        .collect();
    assert!(!violations.is_empty(), "the checker must report HM0105");
    for d in &violations {
        println!("{d}");
    }
}
