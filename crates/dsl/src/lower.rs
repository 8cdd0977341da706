//! Lowering: from a model-agnostic [`Program`] to the concrete source lines
//! each address-space design forces on the programmer.
//!
//! The passes reproduce the style of the paper's Figures 2–3:
//!
//! * **Unified** — nothing extra: every buffer is a plain `malloc` and
//!   kernels just run.
//! * **Partially shared** — shared buffers use `sharedmalloc` (a one-for-one
//!   replacement, not overhead) and every GPU-kernel site is bracketed by
//!   `releaseOwnership(...)` / `acquireOwnership(...)` lines (the LRB
//!   ownership protocol).
//! * **Disjoint** — duplicate device pointers, a grouped device allocation,
//!   one `Memcpy` per buffer per transfer point, per-buffer device frees,
//!   and a final synchronization.
//! * **ADSM** — an `adsmAlloc` per device-visible buffer, one grouped
//!   `copyfromCPUtoGPU(...)` per input-transfer point (results need no
//!   copy-back: the CPU addresses the shared space directly), one grouped
//!   free line, and a final synchronization.
//!
//! Lowering keeps no freshness model of its own: the abstract interpreter
//! of [`crate::check`](mod@crate::check) runs along over every statement
//! emitted, and a transfer is placed wherever its state says the reading
//! side's copy is stale — before a GPU read, before a host read, before a
//! loop for its invariant inputs and outputs. Loop bodies are walked once,
//! so statements inside loops count once toward the static source-line
//! metric (Table V) while expanding per iteration during code generation.
//! Transfers a loop needs only from its second iteration on come from the
//! same interpreter: after a body is emitted, it runs the loop from the
//! state at its head, and every buffer it finds read stale (HM0101/HM0102)
//! gets an end-of-body transfer to the side stale at the end of the body,
//! unless moving a nested loop's end-of-body transfer to the start of the
//! nested body serves both loops.

use crate::ast::{for_each_access, BufId, Program, Step, Target};
use crate::check::{matching_tail, Code, Interp};
use crate::model::AddressSpace;
use crate::stmt::Stmt;

/// A lowered program: the source lines of one memory model's version.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Lowered {
    /// The program this was lowered from.
    pub program_name: String,
    /// The memory model lowered for.
    pub model: AddressSpace,
    /// The source lines, in order.
    pub stmts: Vec<Stmt>,
}

impl Lowered {
    /// The number of communication-handling source lines — this program's
    /// cell in Table V.
    #[must_use]
    pub fn comm_overhead_lines(&self) -> u32 {
        self.stmts.iter().filter(|s| s.is_comm_overhead()).count() as u32
    }
}

/// The buffers the steps on `side` read and write anywhere in `steps`,
/// each list in first-touch order.
fn accesses_in(steps: &[Step], side: Target) -> (Vec<BufId>, Vec<BufId>) {
    let (mut read, mut written) = (Vec::new(), Vec::new());
    for_each_access(steps, &mut |target, reads, writes| {
        if target != side {
            return;
        }
        for (acc, bufs) in [(&mut read, reads), (&mut written, writes)] {
            for &b in bufs {
                if !acc.contains(&b) {
                    acc.push(b);
                }
            }
        }
    });
    (read, written)
}

struct LowerCtx<'p> {
    program: &'p Program,
    model: AddressSpace,
    /// Buffers any GPU kernel touches (device-visible set).
    gpu_bufs: Vec<BufId>,
    /// Disjoint and ADSM: the checker's state at the end of
    /// `out[..checked]`, where the bodies of open loops run once. Every
    /// transfer is placed from it.
    checker: Interp,
    checked: usize,
    /// The checker's state at the head of each loop being emitted,
    /// outermost first.
    open_loops: Vec<Interp>,
    out: Vec<Stmt>,
}

impl LowerCtx<'_> {
    fn name(&self, b: BufId) -> String {
        self.program.buffer(b).name.clone()
    }

    fn names(&self, ids: &[BufId]) -> Vec<String> {
        ids.iter().map(|&b| self.name(b)).collect()
    }

    fn prologue(&mut self) {
        // Allocations. `sharedmalloc` replaces `malloc` one-for-one in the
        // partially shared model; ADSM keeps the host allocation and adds
        // the shared-space allocation (Figure 3b).
        for (i, buf) in self.program.buffers.iter().enumerate() {
            let id = BufId(i);
            match self.model {
                AddressSpace::PartiallyShared if self.gpu_bufs.contains(&id) => {
                    self.out.push(Stmt::SharedAlloc {
                        buf: buf.name.clone(),
                        bytes: buf.bytes,
                    });
                }
                _ => {
                    self.out.push(Stmt::HostAlloc {
                        buf: buf.name.clone(),
                        bytes: buf.bytes,
                    });
                }
            }
        }
        match self.model {
            AddressSpace::Disjoint => {
                let gpu_bufs = self.gpu_bufs.clone();
                let bufs = self.names(&gpu_bufs);
                if !bufs.is_empty() {
                    let bytes = gpu_bufs.iter().map(|&b| self.program.buffer(b).bytes).sum();
                    self.out.push(Stmt::DeclDevicePtrs { bufs: bufs.clone() });
                    self.out.push(Stmt::DeviceAlloc { bufs, bytes });
                }
            }
            AddressSpace::Adsm => {
                for &b in &self.gpu_bufs.clone() {
                    let buf = self.program.buffer(b);
                    self.out.push(Stmt::AdsmAlloc {
                        buf: buf.name.clone(),
                        bytes: buf.bytes,
                    });
                }
            }
            AddressSpace::Unified | AddressSpace::PartiallyShared => {}
        }
    }

    fn epilogue(&mut self) {
        let freed = matches!(self.model, AddressSpace::Disjoint | AddressSpace::Adsm);
        if !freed || self.gpu_bufs.is_empty() {
            return;
        }
        self.out.push(Stmt::Sync);
        let bufs = self.names(&self.gpu_bufs.clone());
        if self.model == AddressSpace::Adsm {
            self.out.push(Stmt::FreeDevice { bufs });
        } else {
            let frees = bufs.into_iter().map(|b| Stmt::FreeDevice { bufs: vec![b] });
            self.out.extend(frees);
        }
    }

    /// Whether the model places transfers: disjoint copies, ADSM
    /// publishes.
    fn places_transfers(&self) -> bool {
        matches!(self.model, AddressSpace::Disjoint | AddressSpace::Adsm)
    }

    /// Whether the checker finds `side`'s copy of `b` stale after the
    /// statements emitted so far.
    fn stale(&mut self, b: BufId, side: Target) -> bool {
        self.advance_checker();
        !self.checker.fresh(b.0, side)
    }

    /// Makes `side`'s copy of each of `bufs` fresh where the checker finds
    /// it stale. The model decides only the form: one `Memcpy` per buffer
    /// under disjoint, one grouped publish under ADSM, whose host view
    /// needs no copy (the CPU addresses the shared space directly).
    fn bring(&mut self, side: Target, bufs: &[BufId]) {
        match self.model {
            AddressSpace::Disjoint => {
                for &b in bufs {
                    if !self.stale(b, side) {
                        continue;
                    }
                    let (buf, bytes) = (self.name(b), self.program.buffer(b).bytes);
                    self.out.push(match side {
                        Target::Gpu => Stmt::MemcpyH2D { buf, bytes },
                        Target::Cpu => Stmt::MemcpyD2H { buf, bytes },
                    });
                }
            }
            AddressSpace::Adsm if side == Target::Gpu => {
                let stale: Vec<BufId> = bufs
                    .iter()
                    .copied()
                    .filter(|&b| self.stale(b, side))
                    .collect();
                if stale.is_empty() {
                    return;
                }
                let bytes = stale.iter().map(|&b| self.program.buffer(b).bytes).sum();
                self.out.push(Stmt::AdsmCopyToDevice {
                    bufs: self.names(&stale),
                    bytes,
                });
            }
            _ => {}
        }
    }

    fn arg_bytes(&self, reads: &[BufId], writes: &[BufId]) -> u64 {
        let mut seen: Vec<BufId> = Vec::new();
        for &b in reads.iter().chain(writes) {
            if !seen.contains(&b) {
                seen.push(b);
            }
        }
        seen.iter().map(|&b| self.program.buffer(b).bytes).sum()
    }

    fn gpu_kernel(&mut self, name: &str, reads: &[BufId], writes: &[BufId], args_upload: bool) {
        if self.model == AddressSpace::PartiallyShared {
            // Release ownership of every shared object the kernel
            // touches (one grouped line, as in Figure 2b).
            let mut touched: Vec<BufId> = reads.to_vec();
            for &w in writes {
                if !touched.contains(&w) {
                    touched.push(w);
                }
            }
            self.out.push(Stmt::ReleaseOwnership {
                bufs: self.names(&touched),
            });
        }
        self.bring(Target::Gpu, reads);

        let mut args = self.names(reads);
        for &w in writes {
            let n = self.name(w);
            if !args.contains(&n) {
                args.push(n);
            }
        }
        self.out.push(Stmt::KernelCall {
            target: Target::Gpu,
            name: name.to_owned(),
            args,
            reads: self.names(reads),
            writes: self.names(writes),
            parallel: true,
            arg_bytes: self.arg_bytes(reads, writes),
            args_upload,
        });

        if self.model == AddressSpace::PartiallyShared {
            // Re-acquire the results before the host may touch them.
            self.out.push(Stmt::AcquireOwnership {
                bufs: self.names(writes),
            });
        }
    }

    /// Hoists loop-invariant transfers: a buffer the GPU reads in the loop
    /// that the host never writes there is brought to the device once,
    /// before the loop, and a buffer the host reads there that no GPU
    /// kernel writes is brought back once — as any real program would be
    /// written (and as the paper's communication counts assume).
    fn hoist_loop_invariant_transfers(&mut self, body: &[Step]) {
        if !self.places_transfers() {
            return;
        }
        let (host_read, host_written) = accesses_in(body, Target::Cpu);
        let (gpu_read, gpu_written) = accesses_in(body, Target::Gpu);
        for (side, read, written) in [
            (Target::Gpu, gpu_read, host_written),
            (Target::Cpu, host_read, gpu_written),
        ] {
            let invariant: Vec<BufId> = read.into_iter().filter(|b| !written.contains(b)).collect();
            self.bring(side, &invariant);
        }
    }

    /// Runs the checker over the statements emitted since it last ran.
    fn advance_checker(&mut self) {
        if !self.places_transfers() {
            return;
        }
        self.checker.run(&self.out[self.checked..], self.model);
        self.checked = self.out.len();
    }

    /// The buffers the checker finds read stale (HM0101/HM0102) in the
    /// innermost open loop, given from its head on as `body`, in id
    /// order. The loop is closed and run from the checker's state at its
    /// head, where the bodies of the loops around it ran once.
    fn stale_in(&self, body: &[Stmt]) -> Vec<BufId> {
        let mut stmts = body.to_vec();
        stmts.push(Stmt::LoopTail);
        let mut at_head = self.open_loops.last().expect("inside a loop").clone();
        let findings = at_head.run(&stmts, self.model);
        let stale = |name: &str| {
            findings.iter().any(|d| {
                matches!(d.code, Code::StaleRead | Code::MissingTransferBack)
                    && d.buffer.as_deref() == Some(name)
            })
        };
        (0..self.program.buffers.len())
            .map(BufId)
            .filter(|&b| stale(&self.program.buffer(b).name))
            .collect()
    }

    /// Appends end-of-body transfers for the buffers a later iteration of
    /// the innermost open loop, whose head is `self.out[head]`, reads
    /// stale — the loop-carried cases a single pass over the body cannot
    /// see (e.g. a host read early in the body of a buffer a GPU kernel
    /// re-writes later in it). Each such buffer is brought to whichever
    /// side the checker finds stale at the end of the body, unless moving
    /// a nested loop's end-of-body transfer to the start of its body
    /// serves this loop too.
    fn normalize_loop_body(&mut self, head: usize) {
        if !self.places_transfers() {
            return;
        }
        // Each fix-up or move makes one more buffer fresh on entry, so a
        // couple of rounds always converge; the bound is just a safety net.
        for _ in 0..=self.program.buffers.len() {
            let stale = self.stale_in(&self.out[head..]);
            if stale.is_empty() {
                return;
            }
            if self.move_nested_transfer(head, &stale) {
                continue;
            }
            if self.model == AddressSpace::Adsm {
                self.bring(Target::Gpu, &stale);
                continue;
            }
            for b in stale {
                self.bring(Target::Gpu, &[b]);
                self.bring(Target::Cpu, &[b]);
            }
        }
    }

    /// Moves one end-of-body transfer of a loop nested in the innermost
    /// open loop (head `self.out[head]`) to the start of that nested body
    /// if the open loop then reads fewer of the `stale` buffers stale and
    /// no other. The transfer runs as often there, and also serves the
    /// open loop's next iteration, where a second end-of-body transfer
    /// would otherwise go. Returns whether it moved one.
    fn move_nested_transfer(&mut self, head: usize, stale: &[BufId]) -> bool {
        let names = self.names(stale);
        let body = self.out[head..].to_vec();
        for inner in (1..body.len()).filter(|&i| matches!(body[i], Stmt::LoopHead { .. })) {
            let tail = matching_tail(&body, inner);
            for t in (inner + 1..tail).rev() {
                let transfer = matches!(
                    body[t],
                    Stmt::MemcpyH2D { .. } | Stmt::MemcpyD2H { .. } | Stmt::AdsmCopyToDevice { .. }
                );
                if !transfer {
                    break;
                }
                if !body[t].buffers().iter().any(|b| names.contains(b)) {
                    continue;
                }
                let mut trial = body.clone();
                let moved = trial.remove(t);
                trial.insert(inner + 1, moved);
                let now = self.stale_in(&trial);
                if now.len() < stale.len() && now.iter().all(|b| stale.contains(b)) {
                    self.out.truncate(head);
                    self.out.extend(trial);
                    // Rerun the body once from the head.
                    self.checker = self.open_loops.last().expect("inside a loop").clone();
                    self.checked = head + 1;
                    return true;
                }
            }
        }
        false
    }

    fn walk(&mut self, steps: &[Step]) {
        for step in steps {
            match step {
                Step::HostInit { bufs } => {
                    let bytes = bufs.iter().map(|&b| self.program.buffer(b).bytes).sum();
                    self.out.push(Stmt::InitCode {
                        bufs: self.names(bufs),
                        bytes,
                    });
                }
                Step::Kernel {
                    target: Target::Gpu,
                    name,
                    reads,
                    writes,
                    args_upload,
                } => {
                    self.gpu_kernel(name, reads, writes, *args_upload);
                }
                Step::Kernel {
                    target: Target::Cpu,
                    name,
                    reads,
                    writes,
                    ..
                }
                | Step::Seq {
                    name,
                    reads,
                    writes,
                } => {
                    self.bring(Target::Cpu, reads);
                    let mut args = self.names(reads);
                    args.extend(self.names(writes));
                    args.dedup();
                    self.out.push(Stmt::KernelCall {
                        target: Target::Cpu,
                        name: name.clone(),
                        args,
                        reads: self.names(reads),
                        writes: self.names(writes),
                        parallel: matches!(step, Step::Kernel { .. }),
                        arg_bytes: self.arg_bytes(reads, writes),
                        args_upload: false,
                    });
                }
                Step::Loop { iterations, body } => {
                    self.hoist_loop_invariant_transfers(body);
                    self.advance_checker();
                    self.open_loops.push(self.checker.clone());
                    let head = self.out.len();
                    self.out.push(Stmt::LoopHead {
                        iterations: *iterations,
                    });
                    // The checker skips the head: until the loop closes,
                    // its body runs once.
                    self.checked = self.out.len();
                    self.walk(body);
                    // The transfers placed so far serve iteration one;
                    // patch up what later iterations would read stale.
                    if *iterations > 1 {
                        self.normalize_loop_body(head);
                    }
                    self.out.push(Stmt::LoopTail);
                    // Rewind the checker to the head, so that it next runs
                    // the closed loop in full.
                    self.checker = self.open_loops.pop().expect("pushed above");
                    self.checked = head;
                }
            }
        }
    }
}

/// Lowers `program` for `model`.
///
/// # Panics
///
/// Panics if the program fails [`Program::validate`] — lower only validated
/// programs.
#[must_use]
pub fn lower(program: &Program, model: AddressSpace) -> Lowered {
    program
        .validate()
        .expect("lower() requires a valid program");
    let mut ctx = LowerCtx {
        program,
        model,
        gpu_bufs: program.gpu_buffers(),
        checker: Interp::new(program.buffers.iter().map(|b| b.name.clone()).collect()),
        checked: 0,
        open_loops: Vec::new(),
        out: Vec::new(),
    };
    ctx.prologue();
    let steps = program.steps.clone();
    ctx.walk(&steps);
    ctx.epilogue();
    Lowered {
        program_name: program.name.clone(),
        model,
        stmts: ctx.out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Buffer;

    /// The Figure 2/3 reduction: a+b→c on GPU, d+e→f on CPU, c+f→f on CPU.
    fn reduction_like() -> Program {
        Program {
            name: "reduction".into(),
            buffers: vec![
                Buffer::new("a", 64),
                Buffer::new("b", 64),
                Buffer::new("c", 64),
                Buffer::new("d", 64),
                Buffer::new("e", 64),
                Buffer::new("f", 64),
            ],
            steps: vec![
                Step::HostInit {
                    bufs: vec![BufId(0), BufId(1), BufId(3), BufId(4)],
                },
                Step::Kernel {
                    target: Target::Gpu,
                    name: "addGPUTwoVectors".into(),
                    reads: vec![BufId(0), BufId(1)],
                    writes: vec![BufId(2)],
                    args_upload: false,
                },
                Step::Kernel {
                    target: Target::Cpu,
                    name: "addTwoVectors".into(),
                    reads: vec![BufId(3), BufId(4)],
                    writes: vec![BufId(5)],
                    args_upload: false,
                },
                Step::Seq {
                    name: "addTwoVectors".into(),
                    reads: vec![BufId(2), BufId(5)],
                    writes: vec![BufId(5)],
                },
            ],
            compute_lines: 142,
        }
    }

    #[test]
    fn unified_has_zero_overhead() {
        let l = lower(&reduction_like(), AddressSpace::Unified);
        assert_eq!(l.comm_overhead_lines(), 0);
    }

    #[test]
    fn partially_shared_brackets_each_gpu_kernel() {
        let l = lower(&reduction_like(), AddressSpace::PartiallyShared);
        assert_eq!(l.comm_overhead_lines(), 2);
        let release = l
            .stmts
            .iter()
            .position(|s| matches!(s, Stmt::ReleaseOwnership { .. }))
            .expect("release present");
        let kernel = l
            .stmts
            .iter()
            .position(|s| {
                matches!(
                    s,
                    Stmt::KernelCall {
                        target: Target::Gpu,
                        ..
                    }
                )
            })
            .expect("kernel present");
        let acquire = l
            .stmts
            .iter()
            .position(|s| matches!(s, Stmt::AcquireOwnership { .. }))
            .expect("acquire present");
        assert!(release < kernel && kernel < acquire);
    }

    #[test]
    fn disjoint_matches_figure_3a_structure() {
        let l = lower(&reduction_like(), AddressSpace::Disjoint);
        // decl + alloc + 2 H2D + 1 D2H + sync + 3 frees = 9 (Table V).
        assert_eq!(l.comm_overhead_lines(), 9);
        let h2d = l
            .stmts
            .iter()
            .filter(|s| matches!(s, Stmt::MemcpyH2D { .. }))
            .count();
        let d2h = l
            .stmts
            .iter()
            .filter(|s| matches!(s, Stmt::MemcpyD2H { .. }))
            .count();
        assert_eq!((h2d, d2h), (2, 1));
    }

    #[test]
    fn adsm_matches_figure_3b_structure() {
        let l = lower(&reduction_like(), AddressSpace::Adsm);
        // 3 adsmAlloc + 1 grouped copy + sync + 1 grouped free = 6 (Table V).
        assert_eq!(l.comm_overhead_lines(), 6);
        let copies: Vec<_> = l
            .stmts
            .iter()
            .filter_map(|s| match s {
                Stmt::AdsmCopyToDevice { bufs, .. } => Some(bufs.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(copies, vec![vec!["a".to_owned(), "b".to_owned()]]);
        // No copy-back: the CPU addresses shared results directly.
        assert!(!l.stmts.iter().any(|s| matches!(s, Stmt::MemcpyD2H { .. })));
    }

    #[test]
    fn kernel_calls_survive_all_lowerings() {
        for model in AddressSpace::ALL {
            let l = lower(&reduction_like(), model);
            let calls = l
                .stmts
                .iter()
                .filter(|s| matches!(s, Stmt::KernelCall { .. }))
                .count();
            assert_eq!(calls, 3, "{model}: one GPU + one CPU kernel + one merge");
        }
    }

    #[test]
    fn loop_carried_host_read_gets_body_end_copy_back() {
        // Body: host reads X, then the GPU re-writes X. A single pass sees
        // a fresh host copy at the read (true for iteration one only); the
        // normalizer must append a copy-back so iterations 2+ are not
        // stale.
        let p = Program {
            name: "t".into(),
            buffers: vec![Buffer::new("x", 64)],
            steps: vec![
                Step::HostInit {
                    bufs: vec![BufId(0)],
                },
                Step::Loop {
                    iterations: 3,
                    body: vec![
                        Step::Seq {
                            name: "readX".into(),
                            reads: vec![BufId(0)],
                            writes: vec![],
                        },
                        Step::Kernel {
                            target: Target::Gpu,
                            name: "writeX".into(),
                            reads: vec![BufId(0)],
                            writes: vec![BufId(0)],
                            args_upload: false,
                        },
                    ],
                },
            ],
            compute_lines: 1,
        };
        let l = lower(&p, AddressSpace::Disjoint);
        let head = l
            .stmts
            .iter()
            .position(|s| matches!(s, Stmt::LoopHead { .. }))
            .expect("loop head");
        let tail = l
            .stmts
            .iter()
            .position(|s| matches!(s, Stmt::LoopTail))
            .expect("loop tail");
        let d2h_in_body = l.stmts[head..tail]
            .iter()
            .any(|s| matches!(s, Stmt::MemcpyD2H { buf, .. } if buf == "x"));
        assert!(d2h_in_body, "body-end copy-back missing: {:?}", l.stmts);
    }

    #[test]
    fn loop_carried_adsm_host_write_gets_body_end_publish() {
        // X is published before the loop; inside the body the GPU reads it
        // and the host then re-writes it, so every later iteration's GPU
        // read needs a fresh publish at the end of the body.
        let p = Program {
            name: "t".into(),
            buffers: vec![Buffer::new("x", 64)],
            steps: vec![
                Step::HostInit {
                    bufs: vec![BufId(0)],
                },
                Step::Kernel {
                    target: Target::Gpu,
                    name: "warmup".into(),
                    reads: vec![BufId(0)],
                    writes: vec![],
                    args_upload: false,
                },
                Step::Loop {
                    iterations: 2,
                    body: vec![
                        Step::Kernel {
                            target: Target::Gpu,
                            name: "consume".into(),
                            reads: vec![BufId(0)],
                            writes: vec![],
                            args_upload: false,
                        },
                        Step::Seq {
                            name: "refresh".into(),
                            reads: vec![],
                            writes: vec![BufId(0)],
                        },
                    ],
                },
            ],
            compute_lines: 1,
        };
        let l = lower(&p, AddressSpace::Adsm);
        let head = l
            .stmts
            .iter()
            .position(|s| matches!(s, Stmt::LoopHead { .. }))
            .expect("loop head");
        let tail = l
            .stmts
            .iter()
            .position(|s| matches!(s, Stmt::LoopTail))
            .expect("loop tail");
        let publish_in_body = l.stmts[head..tail]
            .iter()
            .any(|s| matches!(s, Stmt::AdsmCopyToDevice { .. }));
        assert!(publish_in_body, "body-end publish missing: {:?}", l.stmts);
    }

    #[test]
    fn sibling_inner_loops_keep_the_copy_back_between_them() {
        // The copy-back hoisted between the inner loops serves every outer
        // iteration, so the outer body needs no fix-up of its own.
        let p = crate::parse_program(
            "program p2 { compute 8; buffer a: 64; init a; loop 2 { \
             loop 2 { gpu produce(write a); } loop 2 { cpu consume(read a); } } }",
        )
        .expect("parses");
        let dis = lower(&p, AddressSpace::Disjoint);
        let d2h: Vec<usize> = (0..dis.stmts.len())
            .filter(|&i| matches!(dis.stmts[i], Stmt::MemcpyD2H { .. }))
            .collect();
        assert_eq!(d2h.len(), 1, "{:?}", dis.stmts);
        assert!(matches!(dis.stmts[d2h[0] - 1], Stmt::LoopTail));
        assert!(matches!(dis.stmts[d2h[0] + 1], Stmt::LoopHead { .. }));
        assert_eq!(dis.comm_overhead_lines(), 5);
        assert_eq!(lower(&p, AddressSpace::Adsm).comm_overhead_lines(), 3);
    }

    #[test]
    fn a_buffer_nothing_wrote_is_not_uploaded() {
        // Both copies of `a` are equally valid before anything writes it,
        // so the checker calls an upload before `k` redundant (HM0103).
        let p = crate::parse_program(
            "program p { compute 1; buffer a: 64; buffer b: 64; init b; \
             gpu k(read a; write b); seq fin(read b); }",
        )
        .expect("parses");
        let dis = lower(&p, AddressSpace::Disjoint);
        assert_eq!(dis, crate::fix(&p, AddressSpace::Disjoint).fixed);
        assert_eq!(dis.comm_overhead_lines(), 6);
        let upload_a = |s: &Stmt| matches!(s, Stmt::MemcpyH2D { buf, .. } if buf == "a");
        assert!(!dis.stmts.iter().any(upload_a), "{:?}", dis.stmts);
        // ADSM never published `a`: its host view was never dirty.
        let adsm = lower(&p, AddressSpace::Adsm);
        assert_eq!(adsm.comm_overhead_lines(), 4);
        let publish = |s: &Stmt| matches!(s, Stmt::AdsmCopyToDevice { .. });
        assert!(!adsm.stmts.iter().any(publish), "{:?}", adsm.stmts);
    }

    #[test]
    fn an_inner_loop_upload_serves_the_outer_loop_too() {
        // Nothing writes `b` before `g` first reads it, so iteration one
        // needs no upload. Later iterations of both loops read the host's
        // writes: one upload at the start of the inner body serves them
        // all, where each loop's own end-of-body upload would take two
        // lines and one more transfer per outer iteration.
        let p = crate::parse_program(
            "program p { compute 1; buffer a: 64; buffer b: 64; init a; loop 2 { \
             loop 4 { gpu g(read b; write a); seq s(read a; write b); } \
             seq t(read a; write b); } seq fin(read a); }",
        )
        .expect("parses");
        for model in [AddressSpace::Disjoint, AddressSpace::Adsm] {
            let l = lower(&p, model);
            let uploads: Vec<usize> = (0..l.stmts.len())
                .filter(|&i| match &l.stmts[i] {
                    Stmt::MemcpyH2D { buf, .. } => buf == "b",
                    Stmt::AdsmCopyToDevice { bufs, .. } => bufs.contains(&"b".to_owned()),
                    _ => false,
                })
                .collect();
            assert_eq!(uploads.len(), 1, "{model}: {:?}", l.stmts);
            let inner = l
                .stmts
                .iter()
                .rposition(|s| matches!(s, Stmt::LoopHead { iterations: 4 }))
                .expect("inner loop");
            assert_eq!(uploads[0], inner + 1, "{model}: {:?}", l.stmts);
            assert!(crate::check::run_oracle(&l).is_clean(), "{model}");
            assert!(!crate::fix(&p, model).changed(), "{model}");
        }
    }

    #[test]
    fn lowering_is_deterministic() {
        let p = reduction_like();
        assert_eq!(
            lower(&p, AddressSpace::Disjoint),
            lower(&p, AddressSpace::Disjoint)
        );
    }
}
