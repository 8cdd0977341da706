//! Code generation: from a lowered program to a simulatable
//! [`PhasedTrace`].
//!
//! Kernel calls expand into synthetic compute/memory instruction streams
//! sized by their argument footprint; communication-handling statements
//! expand into the semantic [`hetmem_trace::CommEvent`]s and
//! [`hetmem_trace::SpecialOp`]s the simulator charges according to the
//! design point. Loops expand per iteration, so a statement that counts once
//! toward the source-line metric costs once per iteration dynamically —
//! exactly the static/dynamic split the paper's Table V vs Table III
//! numbers embody.

use crate::ast::Target;
use crate::lower::Lowered;
use crate::stmt::Stmt;
use hetmem_trace::kernels::layout;
use hetmem_trace::{
    CommEvent, CommKind, Inst, MemSpace, Phase, PhaseSegment, PhasedTrace, SpecialOp, TraceStream,
    TransferDirection,
};
use std::collections::HashMap;

/// One dynamic instruction is synthesized per this many bytes of kernel
/// argument footprint.
const BYTES_PER_INST: u64 = 4;

/// Bytes uploaded per kernel launch whose arguments ride along (e.g.
/// k-means centroids).
const ARG_UPLOAD_BYTES: u64 = 2_048;

/// Generates a trace from `lowered`.
///
/// # Panics
///
/// Panics if loop heads/tails in the lowered statement list are unbalanced
/// (a lowering bug, not user input).
#[must_use]
pub fn generate_trace(lowered: &Lowered) -> PhasedTrace {
    let mut gen = Codegen {
        model: lowered.model,
        trace: PhasedTrace::new(format!("{}/{}", lowered.program_name, lowered.model)),
        pending_comm: TraceStream::new(),
        pending_cpu: None,
        pending_gpu: None,
        addr_of: HashMap::new(),
        cursor: layout::CPU_BASE,
        seen_h2d: false,
    };
    let expanded = expand_loops(&lowered.stmts);
    for (stmt, iteration) in expanded {
        gen.emit(stmt, iteration);
    }
    gen.finish()
}

/// Flattens loops: statements inside a `LoopHead`/`LoopTail` pair repeat per
/// iteration, tagged with their iteration index.
fn expand_loops(stmts: &[Stmt]) -> Vec<(&Stmt, u32)> {
    fn walk<'a>(stmts: &'a [Stmt], iteration: u32, out: &mut Vec<(&'a Stmt, u32)>) {
        let mut i = 0;
        while i < stmts.len() {
            match &stmts[i] {
                Stmt::LoopHead { iterations } => {
                    // Find the matching tail.
                    let mut depth = 1;
                    let mut j = i + 1;
                    while depth > 0 {
                        assert!(j < stmts.len(), "unbalanced loop in lowered statements");
                        match &stmts[j] {
                            Stmt::LoopHead { .. } => depth += 1,
                            Stmt::LoopTail => depth -= 1,
                            _ => {}
                        }
                        j += 1;
                    }
                    let body = &stmts[i + 1..j - 1];
                    for iter in 0..*iterations {
                        walk(body, iter, out);
                    }
                    i = j;
                }
                Stmt::LoopTail => panic!("unbalanced loop tail in lowered statements"),
                s => {
                    out.push((s, iteration));
                    i += 1;
                }
            }
        }
    }
    let mut out = Vec::new();
    walk(stmts, 0, &mut out);
    out
}

struct Codegen {
    model: crate::model::AddressSpace,
    trace: PhasedTrace,
    pending_comm: TraceStream,
    pending_cpu: Option<TraceStream>,
    pending_gpu: Option<TraceStream>,
    addr_of: HashMap<String, u64>,
    cursor: u64,
    seen_h2d: bool,
}

impl Codegen {
    fn addr(&self, buf: &str) -> u64 {
        self.addr_of.get(buf).copied().unwrap_or(layout::CPU_BASE)
    }

    /// Allocates a buffer. All lowerings share one allocation cursor so the
    /// four models touch byte-identical addresses — a `sharedmalloc` or
    /// `adsmAlloc` maps the *same* virtual range on both PUs (that is the
    /// point of those designs), it does not move the data. This is also
    /// what isolates the Figure 7 comparison to pure API overhead.
    fn alloc(&mut self, buf: &str, bytes: u64) -> u64 {
        if let Some(&existing) = self.addr_of.get(buf) {
            // ADSM re-allocates an already-malloc'ed buffer into the shared
            // range (Figure 3b); the virtual range is unchanged.
            return existing;
        }
        let addr = self.cursor;
        self.cursor += bytes.max(64).next_multiple_of(64);
        self.addr_of.insert(buf.to_owned(), addr);
        addr
    }

    fn flush_comm(&mut self) {
        if !self.pending_comm.is_empty() {
            let cpu = std::mem::take(&mut self.pending_comm);
            self.trace.push_segment(PhaseSegment::new(
                Phase::Communication,
                cpu,
                TraceStream::new(),
            ));
        }
    }

    fn flush_parallel(&mut self) {
        let cpu = self.pending_cpu.take().unwrap_or_default();
        let gpu = self.pending_gpu.take().unwrap_or_default();
        if !cpu.is_empty() || !gpu.is_empty() {
            self.trace
                .push_segment(PhaseSegment::new(Phase::Parallel, cpu, gpu));
        }
    }

    /// Synthesizes a compute/memory stream over `[base, base+footprint)`.
    fn synth_kernel(&self, target: Target, base: u64, footprint: u64) -> TraceStream {
        let count = (footprint / BYTES_PER_INST).max(16) as usize;
        let footprint = footprint.max(64);
        let mut s = TraceStream::with_capacity(count);
        let (stride, access): (u64, u8) = match target {
            Target::Cpu => (8, 8),
            Target::Gpu => (32, 32),
        };
        for i in 0..count {
            let inst = match i % 8 {
                0 | 4 => {
                    let addr = base + (i as u64 * stride) % footprint;
                    Inst::Load {
                        addr,
                        bytes: access,
                    }
                }
                1 | 5 => {
                    if target == Target::Gpu {
                        Inst::SimdAlu { lanes: 8 }
                    } else {
                        Inst::FpAlu
                    }
                }
                2 | 6 => Inst::IntAlu,
                3 => {
                    let addr = base + (i as u64 * stride) % footprint;
                    Inst::Store {
                        addr,
                        bytes: access,
                    }
                }
                _ => Inst::Branch {
                    taken: i % 64 != 63,
                },
            };
            s.push(inst);
        }
        s
    }

    fn comm_event(&mut self, direction: TransferDirection, bytes: u64, addr: u64) {
        let kind = match direction {
            TransferDirection::HostToDevice if !self.seen_h2d => CommKind::InitialInput,
            TransferDirection::HostToDevice => CommKind::Intermediate,
            TransferDirection::DeviceToHost => CommKind::ResultReturn,
        };
        if direction == TransferDirection::HostToDevice {
            self.seen_h2d = true;
        }
        self.pending_comm.push(Inst::Comm(CommEvent {
            direction,
            bytes,
            kind,
            addr,
        }));
    }

    fn emit(&mut self, stmt: &Stmt, iteration: u32) {
        match stmt {
            Stmt::HostAlloc { buf, bytes } => {
                let addr = self.alloc(buf, *bytes);
                self.pending_comm.push(Inst::Special(SpecialOp::Alloc {
                    space: MemSpace::CpuPrivate,
                    addr,
                    bytes: *bytes,
                }));
            }
            Stmt::SharedAlloc { buf, bytes } | Stmt::AdsmAlloc { buf, bytes } => {
                let addr = self.alloc(buf, *bytes);
                self.pending_comm.push(Inst::Special(SpecialOp::Alloc {
                    space: MemSpace::Shared,
                    addr,
                    bytes: *bytes,
                }));
            }
            Stmt::DeclDevicePtrs { .. } => {} // compile-time only
            Stmt::DeviceAlloc { bytes, .. } => {
                self.pending_comm.push(Inst::Special(SpecialOp::Alloc {
                    space: MemSpace::GpuPrivate,
                    addr: layout::GPU_BASE,
                    bytes: *bytes,
                }));
            }
            Stmt::MemcpyH2D { buf, bytes } => {
                let addr = self.addr(buf);
                self.comm_event(TransferDirection::HostToDevice, *bytes, addr);
            }
            Stmt::MemcpyD2H { buf, bytes } => {
                let addr = self.addr(buf);
                self.comm_event(TransferDirection::DeviceToHost, *bytes, addr);
            }
            Stmt::AdsmCopyToDevice { bufs, bytes } => {
                let addr = bufs.first().map_or(layout::SHARED_BASE, |b| self.addr(b));
                self.comm_event(TransferDirection::HostToDevice, *bytes, addr);
            }
            Stmt::ReleaseOwnership { bufs } => {
                for b in bufs {
                    let addr = self.addr(b);
                    self.pending_comm
                        .push(Inst::Special(SpecialOp::Release { addr, bytes: 64 }));
                }
            }
            Stmt::AcquireOwnership { bufs } => {
                for b in bufs {
                    let addr = self.addr(b);
                    self.pending_comm
                        .push(Inst::Special(SpecialOp::Acquire { addr, bytes: 64 }));
                }
            }
            Stmt::Sync => self.pending_comm.push(Inst::Special(SpecialOp::Sync)),
            Stmt::FreeDevice { bufs } => {
                for b in bufs {
                    let addr = self.addr(b);
                    self.pending_comm
                        .push(Inst::Special(SpecialOp::Free { addr }));
                }
            }
            Stmt::InitCode { bytes, .. } => {
                self.flush_parallel();
                self.flush_comm();
                let cpu = self.synth_kernel(Target::Cpu, layout::CPU_BASE, *bytes);
                self.trace.push_segment(PhaseSegment::new(
                    Phase::Sequential,
                    cpu,
                    TraceStream::new(),
                ));
            }
            Stmt::KernelCall {
                target,
                args,
                parallel,
                arg_bytes,
                args_upload,
                ..
            } => {
                let base = args.first().map_or(layout::CPU_BASE, |b| self.addr(b));
                match (target, parallel) {
                    (Target::Gpu, _) => {
                        // Launch-argument upload (dynamic cost, no source
                        // line); the initial transfer covers iteration 0,
                        // and a unified space needs no upload at all.
                        if *args_upload
                            && iteration > 0
                            && self.model != crate::model::AddressSpace::Unified
                        {
                            self.comm_event(
                                TransferDirection::HostToDevice,
                                ARG_UPLOAD_BYTES,
                                base,
                            );
                        }
                        if self.pending_gpu.is_some() {
                            self.flush_parallel();
                        }
                        self.flush_comm();
                        self.pending_gpu = Some(self.synth_kernel(Target::Gpu, base, *arg_bytes));
                    }
                    (Target::Cpu, true) => {
                        if self.pending_cpu.is_some() {
                            self.flush_parallel();
                        }
                        self.flush_comm();
                        self.pending_cpu = Some(self.synth_kernel(Target::Cpu, base, *arg_bytes));
                    }
                    (Target::Cpu, false) => {
                        self.flush_parallel();
                        self.flush_comm();
                        let cpu = self.synth_kernel(Target::Cpu, base, *arg_bytes);
                        self.trace.push_segment(PhaseSegment::new(
                            Phase::Sequential,
                            cpu,
                            TraceStream::new(),
                        ));
                    }
                }
            }
            Stmt::LoopHead { .. } | Stmt::LoopTail => {
                unreachable!("loops are expanded before emission")
            }
        }
    }

    fn finish(mut self) -> PhasedTrace {
        self.flush_parallel();
        self.flush_comm();
        if let Err(e) = self.trace.validate() {
            panic!("code generation produced a malformed trace: {e}");
        }
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use crate::model::AddressSpace;
    use crate::programs;
    use hetmem_trace::PuKind;

    #[test]
    fn all_programs_and_models_generate_valid_traces() {
        for p in programs::all() {
            for m in AddressSpace::ALL {
                let t = generate_trace(&lower(&p, m));
                assert_eq!(t.validate(), Ok(()), "{} / {m}", p.name);
                assert!(t.pu_len(PuKind::Cpu) > 0, "{} / {m}", p.name);
            }
        }
    }

    #[test]
    fn unified_trace_has_no_transfers() {
        let t = generate_trace(&lower(&programs::reduction(), AddressSpace::Unified));
        assert_eq!(t.comm_count(), 0);
    }

    #[test]
    fn disjoint_reduction_has_three_transfers() {
        // 2 H2D + 1 D2H, matching Figure 3a.
        let t = generate_trace(&lower(&programs::reduction(), AddressSpace::Disjoint));
        assert_eq!(t.comm_count(), 3);
        assert_eq!(t.comm_bytes(), 160_256 * 2 + 64);
    }

    #[test]
    fn adsm_reduction_has_single_grouped_transfer() {
        let t = generate_trace(&lower(&programs::reduction(), AddressSpace::Adsm));
        assert_eq!(t.comm_count(), 1);
        assert_eq!(t.comm_bytes(), 160_256 * 2);
    }

    #[test]
    fn kmeans_loop_expands_dynamically() {
        // DIS: H2D once (first iteration), D2H every iteration (3), plus
        // centroid arg uploads on iterations 1 and 2 = 6 dynamic events —
        // matching Table III's six communications.
        let t = generate_trace(&lower(&programs::k_means(), AddressSpace::Disjoint));
        assert_eq!(t.comm_count(), 6);
    }

    #[test]
    fn parallel_segments_pair_gpu_with_cpu_work() {
        let t = generate_trace(&lower(&programs::reduction(), AddressSpace::Unified));
        let par: Vec<_> = t
            .segments()
            .iter()
            .filter(|s| s.phase() == Phase::Parallel)
            .collect();
        assert_eq!(par.len(), 1);
        assert!(!par[0].stream(PuKind::Cpu).is_empty());
        assert!(!par[0].stream(PuKind::Gpu).is_empty());
    }

    #[test]
    fn parallel_structure_is_identical_across_models() {
        // The Figure 7 premise: the address space changes only the overhead
        // operations, never the computation structure.
        for p in programs::all() {
            let shapes: Vec<Vec<(usize, usize)>> = AddressSpace::ALL
                .iter()
                .map(|&m| {
                    generate_trace(&lower(&p, m))
                        .segments()
                        .iter()
                        .filter(|s| s.phase() == Phase::Parallel)
                        .map(|s| (s.stream(PuKind::Cpu).len(), s.stream(PuKind::Gpu).len()))
                        .collect()
                })
                .collect();
            assert!(
                shapes.windows(2).all(|w| w[0] == w[1]),
                "{}: parallel work must not depend on the address space",
                p.name
            );
        }
    }

    #[test]
    fn codegen_is_deterministic() {
        let l = lower(&programs::convolution(), AddressSpace::Adsm);
        assert_eq!(generate_trace(&l), generate_trace(&l));
    }
}
