//! # hetmem-dsl
//!
//! A small heterogeneous-programming model: programs are written once,
//! model-agnostically, and *lowered* to the concrete source each memory
//! address-space design would force a programmer to write — reproducing the
//! paper's programmability study (Table V) and its code examples
//! (Figures 2–4).
//!
//! * [`Program`] — buffers + steps (kernels on either PU, sequential host
//!   code, loops), with no memory-model commitments.
//! * [`lower`] — four lowering passes: unified, partially shared
//!   (LRB-style ownership), disjoint (explicit memcpys), and ADSM
//!   (GMAC-style `adsmAlloc`).
//! * [`loc_table`] — the source-line programmability metric; reproduces
//!   Table V exactly.
//! * [`generate_trace`] — expands a lowered program into a simulatable
//!   [`hetmem_trace::PhasedTrace`].
//! * [`render`] — pretty-prints the lowered source, Figure 2/3-style.
//! * [`check`](mod@check) — memory-model-aware static verifier over lowered
//!   programs (stale reads, missing transfers, ownership violations),
//!   differentially validated by a concrete [`run_oracle`] interpreter.
//! * [`fix`](mod@fix) — checker-driven communication optimizer: rewrites a
//!   lowering to the minimal communication set the checker can prove
//!   sufficient by deleting provably-redundant transfers.
//!
//! ## Example
//!
//! ```
//! use hetmem_dsl::{lower, programs, AddressSpace};
//!
//! let program = programs::reduction();
//! let disjoint = lower(&program, AddressSpace::Disjoint);
//! let unified = lower(&program, AddressSpace::Unified);
//! assert_eq!(disjoint.comm_overhead_lines(), 9); // Table V, reduction/DIS
//! assert_eq!(unified.comm_overhead_lines(), 0);
//! println!("{}", hetmem_dsl::render(&disjoint));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
pub mod check;
mod codegen;
pub mod fix;
mod loc;
mod lower;
mod model;
mod parse;
mod pretty;
pub mod programs;
mod stmt;

pub use ast::{AccessMode, BufId, Buffer, Program, ProgramError, Step, Target};
pub use check::{
    check, check_lowered, program_lints, run_oracle, CheckReport, Code, Diagnostic, OracleReport,
    Severity,
};
pub use codegen::generate_trace;
pub use fix::{fix, fix_lowered, FixEdit, FixReport};
pub use loc::{kernel_overhead, loc_table, paper_loc_table, LocRow};
pub use lower::{lower, Lowered};
pub use model::AddressSpace;
pub use parse::{parse_program, write_program, ParseError, Pos};
pub use pretty::render;
pub use stmt::Stmt;
