//! Abstract interpreter over lowered statement sequences.
//!
//! Tracks one abstract state per buffer — copy validity on each side,
//! device allocation/lifetime, shared tag, and ownership — and the open
//! parallel section, whose kernels can race (HM0106), under the
//! transition rules of the lowered program's [`AddressSpace`]. The copy
//! validity bits are an *exact* abstraction of the dynamic oracle's
//! version counters (see `oracle.rs`): a side is "fresh" iff its version
//! equals the newest version anywhere, and every statement's effect on
//! freshness is determined by freshness alone. That exactness is what
//! makes the static HM0101/HM0102 verdicts agree with the oracle site for
//! site, and it keeps the per-buffer state space finite so loop bodies
//! can be interpreted with cycle detection instead of widening.

use std::collections::HashSet;

use crate::ast::Target;
use crate::lower::Lowered;
use crate::model::AddressSpace;
use crate::stmt::Stmt;

use super::diag::{Code, Diagnostic, Severity};
use super::render_line;

/// Abstract state of one buffer: a set of the flags below.
type BufState = u8;

/// The host copy holds the newest value.
const HOST_FRESH: u8 = 1;
/// The device copy holds the newest value.
const DEV_FRESH: u8 = 1 << 1;
/// A device-side allocation exists (disjoint `GPUmemallocate`, ADSM
/// `adsmAlloc`).
const DEV_ALLOC: u8 = 1 << 2;
/// The device-side allocation has been freed.
const FREED: u8 = 1 << 3;
/// Allocated with `sharedmalloc` (partially shared model).
const SHARED: u8 = 1 << 4;
/// The device currently owns the shared object (after
/// `releaseOwnership`, before `acquireOwnership`).
const DEVICE_OWNED: u8 = 1 << 5;
/// A GPU kernel wrote the shared object since the device took ownership —
/// a host access now reads torn data, not just protocol-stale data.
const GPU_DIRTY: u8 = 1 << 6;

/// Both sides start "fresh": before anything writes a buffer, every copy
/// is equally (in)valid, and reads of never-written memory are the
/// program-level HM0002 lint's territory, not a coherence stale-read.
const INITIAL: BufState = HOST_FRESH | DEV_FRESH;

/// What one statement did to one buffer's flags over its executions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Access {
    /// The buffer, by its index in [`collect_buffers`]'s order.
    pub(crate) buf: usize,
    /// Flags a transition or a finding read.
    pub(crate) read: u8,
    /// Flags written: the same on every execution, but a GPU kernel skips
    /// its torn-data mark where its access is an HM0104/HM0105 error.
    pub(crate) wrote: u8,
    /// Flags whose value the statement changed on some execution.
    pub(crate) changed: u8,
}

/// Per statement, its [`Access`]es (none if it never ran).
pub(crate) type Effects = Vec<Vec<Access>>;

/// The open parallel section: its GPU and its CPU kernel.
type Section = (Option<usize>, Option<usize>);

/// Runs the abstract interpreter over a lowered program, returning
/// diagnostics sorted by statement index and, if `record`, what each
/// statement read, wrote and changed.
pub(crate) fn interpret(lowered: &Lowered, record: bool) -> (Vec<Diagnostic>, Effects) {
    let names = collect_buffers(lowered);
    let state = vec![INITIAL; names.len()];
    let mut interp = AbsInt::new(&lowered.stmts, lowered.model, names, state);
    if record {
        interp.effects = Some(vec![Vec::new(); lowered.stmts.len()]);
    }
    interp.exec_span(0, lowered.stmts.len());
    interp.report_redundant_transfers();
    let mut diags = interp.diags;
    diags.sort_by(|a, b| (a.stmt, a.code, &a.buffer).cmp(&(b.stmt, b.code, &b.buffer)));
    (diags, interp.effects.unwrap_or_default())
}

/// The abstract state of every buffer at one point of a lowered program,
/// for interpreting the program a piece at a time: lowering asks it which
/// copies are stale where it places a transfer, and which buffers a loop's
/// later iterations read stale.
#[derive(Clone, Debug)]
pub(crate) struct Interp {
    names: Vec<String>,
    state: Vec<BufState>,
}

impl Interp {
    /// Every buffer of `names` in its state before the first statement.
    pub(crate) fn new(names: Vec<String>) -> Interp {
        let state = vec![INITIAL; names.len()];
        Interp { names, state }
    }

    /// Whether `side`'s copy of buffer `b` (by its index in `names`) holds
    /// the newest value.
    pub(crate) fn fresh(&self, b: usize, side: Target) -> bool {
        let flag = match side {
            Target::Cpu => HOST_FRESH,
            Target::Gpu => DEV_FRESH,
        };
        self.state[b] & flag != 0
    }

    /// Interprets `stmts` under `model` from this state, leaving it in
    /// the state after them. Returns the findings of the interpretation,
    /// races included (no parallel section is open at `stmts[0]`), but
    /// not the redundant-transfer scan, with statement indices into
    /// `stmts`.
    pub(crate) fn run(&mut self, stmts: &[Stmt], model: AddressSpace) -> Vec<Diagnostic> {
        let names = std::mem::take(&mut self.names);
        let state = std::mem::take(&mut self.state);
        let mut interp = AbsInt::new(stmts, model, names, state);
        interp.exec_span(0, stmts.len());
        (self.names, self.state) = (interp.names, interp.state);
        interp.diags
    }
}

struct AbsInt<'a> {
    stmts: &'a [Stmt],
    model: AddressSpace,
    names: Vec<String>,
    state: Vec<BufState>,
    /// The buffers both PUs address through one coherent copy, which the
    /// kernels of a parallel section can race on (HM0106).
    coherent: Vec<String>,
    /// The open parallel section.
    section: Section,
    diags: Vec<Diagnostic>,
    /// The (code, severity, stmt, buffer) of every finding in `diags`: a
    /// finding is reported once however often its statement runs, but a
    /// host access the device owns is an error on the execution after a
    /// GPU write even if it was a note on an earlier one.
    reported: HashSet<(Code, Severity, usize, Option<String>)>,
    /// Per-statement: `Some(true)` iff the transfer was a no-op (both
    /// copies already valid) on *every* execution so far; `None` if the
    /// statement never executed or is not a transfer.
    transfer_noop: Vec<Option<bool>>,
    /// When recording, each statement's accesses so far.
    effects: Option<Effects>,
    /// The statement under way.
    at: usize,
}

/// Collects every buffer name a lowered program mentions, in order of
/// first appearance.
pub(crate) fn collect_buffers(lowered: &Lowered) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for name in lowered.stmts.iter().flat_map(Stmt::buffers) {
        if !names.contains(name) {
            names.push(name.clone());
        }
    }
    names
}

/// Finds the `LoopTail` matching the `LoopHead` at `head`.
pub(crate) fn matching_tail(stmts: &[Stmt], head: usize) -> usize {
    let mut depth = 0usize;
    for (i, stmt) in stmts.iter().enumerate().skip(head) {
        match stmt {
            Stmt::LoopHead { .. } => depth += 1,
            Stmt::LoopTail => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    // lower() always emits balanced loops; an unbalanced sequence can
    // only come from hand-built stmt lists, where treating the rest of
    // the program as the body is the least surprising fallback.
    stmts.len()
}

/// Runs `pass` over `ctx` up to `iterations` times, stopping as soon as
/// the state `key` reads at a pass's start repeats: the state after all
/// iterations is then read off the cycle. A loop's back edge is thus
/// followed only if the loop runs again, forward here and backward in
/// `fix`'s liveness sweep.
pub(crate) fn repeat<C, K: PartialEq + Clone>(
    ctx: &mut C,
    iterations: u32,
    key: impl Fn(&C) -> K,
    restore: impl Fn(&mut C, K),
    mut pass: impl FnMut(&mut C),
) {
    let iterations = iterations as usize;
    let mut snapshots: Vec<K> = Vec::new();
    while snapshots.len() < iterations {
        let now = key(ctx);
        if let Some(k) = snapshots.iter().position(|s| *s == now) {
            // States repeat with period `len - k` from pass k on: after
            // all `iterations` passes we are at snapshot
            // k + ((iterations - k) mod period).
            let period = snapshots.len() - k;
            restore(ctx, snapshots[k + (iterations - k) % period].clone());
            return;
        }
        snapshots.push(now);
        pass(ctx);
    }
}

impl<'a> AbsInt<'a> {
    fn new(
        stmts: &'a [Stmt],
        model: AddressSpace,
        names: Vec<String>,
        state: Vec<BufState>,
    ) -> Self {
        // All memory is coherent under unified, shared-tagged buffers under
        // partially shared, ADSM-allocated objects under ADSM, and none
        // under disjoint (each PU has its own copy).
        let coherent = match model {
            AddressSpace::Unified => names.clone(),
            AddressSpace::Disjoint => Vec::new(),
            AddressSpace::PartiallyShared | AddressSpace::Adsm => stmts
                .iter()
                .filter_map(|s| match (model, s) {
                    (AddressSpace::PartiallyShared, Stmt::SharedAlloc { buf, .. })
                    | (AddressSpace::Adsm, Stmt::AdsmAlloc { buf, .. }) => Some(buf.clone()),
                    _ => None,
                })
                .collect(),
        };
        AbsInt {
            stmts,
            model,
            names,
            state,
            coherent,
            section: (None, None),
            diags: Vec::new(),
            reported: HashSet::new(),
            transfer_noop: vec![None; stmts.len()],
            effects: None,
            at: 0,
        }
    }

    /// Reads `flag` of buffer `b`, recording the read.
    fn get(&mut self, b: usize, flag: u8) -> bool {
        self.note(b, flag, 0, 0);
        self.state[b] & flag != 0
    }

    /// Writes `flag` of buffer `b`, recording the write and any change.
    fn set(&mut self, b: usize, flag: u8, on: bool) {
        let new = self.state[b] & !flag | if on { flag } else { 0 };
        self.note(b, 0, flag, self.state[b] ^ new);
        self.state[b] = new;
    }

    fn note(&mut self, buf: usize, read: u8, wrote: u8, changed: u8) {
        let Some(effects) = &mut self.effects else {
            return;
        };
        let accesses = &mut effects[self.at];
        if !accesses.iter().any(|a| a.buf == buf) {
            accesses.push(Access::default());
            accesses.last_mut().expect("just pushed").buf = buf;
        }
        for a in accesses.iter_mut().filter(|a| a.buf == buf) {
            (a.read, a.wrote, a.changed) = (a.read | read, a.wrote | wrote, a.changed | changed);
        }
    }

    fn id(&self, name: &str) -> usize {
        self.names
            .iter()
            .position(|n| n == name)
            .expect("buffer name registered by collect_buffers")
    }

    fn diag(
        &mut self,
        code: Code,
        severity: Severity,
        stmt: usize,
        buffer: Option<&str>,
        message: String,
    ) {
        if !self
            .reported
            .insert((code, severity, stmt, buffer.map(str::to_owned)))
        {
            return;
        }
        self.diags.push(Diagnostic {
            code,
            severity,
            stmt: Some(stmt),
            line: Some(render_line(stmt)),
            source: Some(self.stmts[stmt].to_string()),
            buffer: buffer.map(str::to_owned),
            message,
        });
    }

    /// Interprets `stmts[start..end]`, dispatching loops to
    /// [`Self::exec_loop`].
    fn exec_span(&mut self, start: usize, end: usize) {
        let mut i = start;
        while i < end {
            if let Stmt::LoopHead { iterations } = self.stmts[i] {
                let tail = matching_tail(self.stmts, i);
                self.exec_loop(i, tail, iterations);
                i = tail.saturating_add(1);
            } else {
                self.exec_stmt(i);
                i += 1;
            }
        }
    }

    /// Interprets a loop body under the cycle rule of [`repeat`], with
    /// every buffer's state and the open parallel section as the entry
    /// state. Diagnostics are deduplicated by (code, stmt, buffer), so
    /// replayed cycle passes add nothing new.
    fn exec_loop(&mut self, head: usize, tail: usize, iterations: u32) {
        repeat(
            self,
            iterations,
            |s| (s.state.clone(), s.section),
            |s, entry| (s.state, s.section) = entry,
            |s| s.exec_span(head + 1, tail),
        );
    }

    fn exec_stmt(&mut self, i: usize) {
        self.at = i;
        self.join_section(i);
        let model = self.model;
        // The statements outlive `self`'s borrow, so the handlers can
        // take `&mut self` while holding them.
        let stmts = self.stmts;
        match &stmts[i] {
            Stmt::HostAlloc { .. } | Stmt::DeclDevicePtrs { .. } | Stmt::Sync => {}
            Stmt::SharedAlloc { buf, .. } => {
                let b = self.id(buf);
                self.set(b, SHARED, true);
            }
            Stmt::AdsmAlloc { buf, .. } => {
                let b = self.id(buf);
                self.set(b, DEV_ALLOC, true);
            }
            Stmt::DeviceAlloc { bufs, .. } => {
                for buf in bufs {
                    let b = self.id(buf);
                    self.set(b, DEV_ALLOC, true);
                    self.set(b, FREED, false);
                }
            }
            Stmt::MemcpyH2D { buf, .. } => {
                let b = self.id(buf);
                self.check_device_lifetime(i, buf, "a host-to-device transfer");
                // HM0103's no-op test observes a transfer and feeds no
                // transition, so it reads without recording.
                let noop = self.state[b] & INITIAL == INITIAL;
                self.record_transfer(i, noop);
                let host = self.get(b, HOST_FRESH);
                self.set(b, DEV_FRESH, host);
            }
            Stmt::MemcpyD2H { buf, .. } => {
                let b = self.id(buf);
                self.check_device_lifetime(i, buf, "a device-to-host transfer");
                let noop = self.state[b] & INITIAL == INITIAL;
                self.record_transfer(i, noop);
                let dev = self.get(b, DEV_FRESH);
                self.set(b, HOST_FRESH, dev);
            }
            Stmt::AdsmCopyToDevice { bufs, .. } => {
                // The ADSM runtime publishes the host view if it is
                // dirty and does nothing otherwise — it never clobbers a
                // newer device value. The call is a guaranteed no-op
                // only if the device view was already fresh.
                let mut noop = true;
                for buf in bufs {
                    let b = self.id(buf);
                    self.check_device_lifetime(i, buf, "an ADSM publish");
                    noop &= self.state[b] & DEV_FRESH != 0;
                    self.set(b, DEV_FRESH, true);
                }
                self.record_transfer(i, noop);
            }
            Stmt::ReleaseOwnership { bufs } => {
                for buf in bufs {
                    let b = self.id(buf);
                    if !self.get(b, SHARED) {
                        self.diag(
                            Code::UntaggedShared,
                            Severity::Error,
                            i,
                            Some(buf),
                            format!(
                                "`{buf}` is released to the device but was not \
                                 allocated with sharedmalloc"
                            ),
                        );
                    }
                    self.set(b, DEVICE_OWNED, true);
                    self.set(b, GPU_DIRTY, false);
                }
            }
            Stmt::AcquireOwnership { bufs } => {
                for buf in bufs {
                    let b = self.id(buf);
                    if !self.get(b, SHARED) {
                        self.diag(
                            Code::UntaggedShared,
                            Severity::Error,
                            i,
                            Some(buf),
                            format!(
                                "ownership of `{buf}` is acquired but it was not \
                                 allocated with sharedmalloc"
                            ),
                        );
                    }
                    self.set(b, DEVICE_OWNED, false);
                    self.set(b, GPU_DIRTY, false);
                }
            }
            Stmt::FreeDevice { bufs } => {
                if matches!(model, AddressSpace::Disjoint | AddressSpace::Adsm) {
                    for buf in bufs {
                        let b = self.id(buf);
                        self.set(b, FREED, true);
                    }
                }
            }
            Stmt::InitCode { bufs, .. } => {
                for buf in bufs {
                    self.host_write(i, buf, "initialization code");
                }
            }
            Stmt::KernelCall {
                target: Target::Gpu,
                name,
                reads,
                writes,
                ..
            } => self.gpu_kernel(i, name, reads, writes),
            Stmt::KernelCall {
                target: Target::Cpu,
                name,
                reads,
                writes,
                ..
            } => self.cpu_kernel(i, name, reads, writes),
            Stmt::LoopHead { .. } | Stmt::LoopTail => {
                // Handled structurally by exec_span/exec_loop; a stray
                // tail in a hand-built sequence has no data effect.
            }
        }
    }

    fn record_transfer(&mut self, i: usize, noop: bool) {
        let entry = &mut self.transfer_noop[i];
        *entry = Some(entry.unwrap_or(true) && noop);
    }

    /// HM0105 lifetime checks for models with an explicit device-side
    /// allocation (disjoint, ADSM).
    fn check_device_lifetime(&mut self, i: usize, buf: &str, what: &str) {
        if !matches!(self.model, AddressSpace::Disjoint | AddressSpace::Adsm) {
            return;
        }
        let b = self.id(buf);
        if self.get(b, FREED) {
            self.diag(
                Code::OwnershipViolation,
                Severity::Error,
                i,
                Some(buf),
                format!("{what} uses `{buf}` after its device storage was freed"),
            );
        } else if !self.get(b, DEV_ALLOC) {
            self.diag(
                Code::OwnershipViolation,
                Severity::Error,
                i,
                Some(buf),
                format!("{what} uses `{buf}` before any device allocation"),
            );
        }
    }

    fn gpu_kernel(&mut self, i: usize, name: &str, reads: &[String], writes: &[String]) {
        let model = self.model;
        match model {
            AddressSpace::Unified => {}
            AddressSpace::Disjoint | AddressSpace::Adsm => {
                for buf in reads.iter().chain(writes) {
                    self.check_device_lifetime(i, buf, &format!("GPU kernel `{name}`"));
                }
                for buf in reads {
                    let b = self.id(buf);
                    if !self.get(b, DEV_FRESH) {
                        self.diag(
                            Code::StaleRead,
                            Severity::Error,
                            i,
                            Some(buf),
                            format!(
                                "GPU kernel `{name}` reads `{buf}`, but the device \
                                 copy is stale: the host wrote `{buf}` and no \
                                 transfer intervened"
                            ),
                        );
                    }
                }
                for buf in writes {
                    let b = self.id(buf);
                    self.set(b, DEV_FRESH, true);
                    // Under ADSM the CPU addresses the device-resident
                    // object directly, so a GPU write is immediately
                    // visible to the host; under disjoint it only lands
                    // in the device mirror.
                    self.set(b, HOST_FRESH, model == AddressSpace::Adsm);
                }
            }
            AddressSpace::PartiallyShared => {
                for buf in reads.iter().chain(writes) {
                    let b = self.id(buf);
                    if !self.get(b, SHARED) {
                        self.diag(
                            Code::UntaggedShared,
                            Severity::Error,
                            i,
                            Some(buf),
                            format!(
                                "GPU kernel `{name}` touches `{buf}`, which is not \
                                 in the shared region (allocate it with \
                                 sharedmalloc)"
                            ),
                        );
                    } else if !self.get(b, DEVICE_OWNED) {
                        self.diag(
                            Code::OwnershipViolation,
                            Severity::Error,
                            i,
                            Some(buf),
                            format!(
                                "GPU kernel `{name}` accesses `{buf}` before \
                                 releaseOwnership hands it to the device"
                            ),
                        );
                    }
                }
                for buf in writes {
                    let b = self.id(buf);
                    if self.get(b, SHARED) && self.get(b, DEVICE_OWNED) {
                        self.set(b, GPU_DIRTY, true);
                    }
                }
            }
        }
    }

    fn cpu_kernel(&mut self, i: usize, name: &str, reads: &[String], writes: &[String]) {
        match self.model {
            AddressSpace::Unified => {}
            AddressSpace::Disjoint => {
                for buf in reads {
                    let b = self.id(buf);
                    if !self.get(b, HOST_FRESH) {
                        self.diag(
                            Code::MissingTransferBack,
                            Severity::Error,
                            i,
                            Some(buf),
                            format!(
                                "`{name}` reads `{buf}` on the host, but the newest \
                                 value is on the device and was never copied back"
                            ),
                        );
                    }
                }
                for buf in writes {
                    self.host_write(i, buf, name);
                }
            }
            AddressSpace::Adsm => {
                // The host addresses the (device-resident) shared object
                // directly — reads are never stale, but the storage must
                // still be alive.
                for buf in reads.iter().chain(writes) {
                    let b = self.id(buf);
                    if self.get(b, DEV_ALLOC) || self.get(b, FREED) {
                        self.check_device_lifetime(i, buf, &format!("host step `{name}`"));
                    }
                }
                for buf in writes {
                    self.host_write(i, buf, name);
                }
            }
            AddressSpace::PartiallyShared => {
                for buf in reads.iter().chain(writes) {
                    self.pas_host_access(i, buf, name);
                }
            }
        }
    }

    /// A host-side write under disjoint/ADSM semantics: the host view
    /// becomes the truth and any device mirror goes stale until the next
    /// publish/transfer.
    fn host_write(&mut self, i: usize, buf: &str, who: &str) {
        match self.model {
            AddressSpace::Unified => {}
            AddressSpace::Disjoint | AddressSpace::Adsm => {
                let b = self.id(buf);
                self.set(b, HOST_FRESH, true);
                self.set(b, DEV_FRESH, false);
            }
            AddressSpace::PartiallyShared => {
                self.pas_host_access(i, buf, who);
            }
        }
    }

    /// Host access to a partially-shared buffer: an HM0105 if the device
    /// currently owns it — an Error when a GPU kernel has written it
    /// since release (the host reads torn data), a Note otherwise (the
    /// access races only with the protocol, not with data).
    fn pas_host_access(&mut self, i: usize, buf: &str, who: &str) {
        let b = self.id(buf);
        if !self.get(b, SHARED) || !self.get(b, DEVICE_OWNED) {
            return;
        }
        let (severity, detail) = if self.get(b, GPU_DIRTY) {
            (
                Severity::Error,
                "a GPU kernel has written it since releaseOwnership",
            )
        } else {
            (
                Severity::Note,
                "the device has not written it yet, but the protocol is violated",
            )
        };
        self.diag(
            Code::OwnershipViolation,
            severity,
            i,
            Some(buf),
            format!("`{who}` touches `{buf}` while the device owns it ({detail})"),
        );
    }

    /// HM0103: transfers that were a no-op on every execution.
    fn report_redundant_transfers(&mut self) {
        for i in 0..self.stmts.len() {
            if self.transfer_noop[i] != Some(true) {
                continue;
            }
            let (buffer, desc) = match &self.stmts[i] {
                Stmt::MemcpyH2D { buf, .. } => (Some(buf.clone()), format!("of `{buf}`")),
                Stmt::MemcpyD2H { buf, .. } => (Some(buf.clone()), format!("of `{buf}`")),
                Stmt::AdsmCopyToDevice { bufs, .. } => {
                    (None, format!("of `{}`", bufs.join("`, `")))
                }
                _ => continue,
            };
            self.diag(
                Code::RedundantTransfer,
                Severity::Warning,
                i,
                buffer.as_deref(),
                format!(
                    "this transfer {desc} never changes the destination: both \
                     copies are already valid on every execution"
                ),
            );
        }
    }

    /// HM0106: mirrors the code generator's parallel-section pairing. A
    /// GPU launch and the next CPU-parallel kernel (in either order) run
    /// concurrently; if both touch the same coherent memory and at least
    /// one writes it, the interleaving is unpredictable.
    fn join_section(&mut self, i: usize) {
        if self.coherent.is_empty() {
            return;
        }
        let (gpu, cpu) = self.section;
        self.section = match self.stmts[i] {
            // A second launch on the same PU closes the section.
            Stmt::KernelCall {
                target: Target::Gpu,
                ..
            } => (Some(i), cpu.filter(|_| gpu.is_none())),
            Stmt::KernelCall {
                target: Target::Cpu,
                parallel: true,
                ..
            } => (gpu.filter(|_| cpu.is_none()), Some(i)),
            // Sequential host code closes the section (the generator
            // emits a join first).
            Stmt::KernelCall { .. } | Stmt::InitCode { .. } => (None, None),
            _ => return,
        };
        if let (Some(gpu), Some(cpu)) = self.section {
            self.race_pair(gpu, cpu);
        }
    }

    /// Reports HM0106 for every coherent buffer the paired kernels share
    /// with at least one writer.
    fn race_pair(&mut self, gpu: usize, cpu: usize) {
        let (g_name, g_reads, g_writes) = kernel_parts(&self.stmts[gpu]);
        let (c_name, c_reads, c_writes) = kernel_parts(&self.stmts[cpu]);
        let touches = |reads: &[String], writes: &[String], buf: &String| {
            reads.contains(buf) || writes.contains(buf)
        };
        let racy: Vec<String> = self
            .coherent
            .iter()
            .filter(|buf| touches(g_reads, g_writes, buf) && touches(c_reads, c_writes, buf))
            .filter(|buf| g_writes.contains(buf) || c_writes.contains(buf))
            .cloned()
            .collect();
        for buf in racy {
            self.diag(
                Code::CpuGpuRace,
                Severity::Warning,
                gpu.max(cpu),
                Some(&buf),
                format!(
                    "GPU kernel `{g_name}` and CPU kernel `{c_name}` run in \
                     parallel and both touch `{buf}` (at least one writes it) \
                     with no synchronization between the PUs"
                ),
            );
        }
    }
}

fn kernel_parts(stmt: &Stmt) -> (&str, &[String], &[String]) {
    match stmt {
        Stmt::KernelCall {
            name,
            reads,
            writes,
            ..
        } => (name.as_str(), reads.as_slice(), writes.as_slice()),
        _ => unreachable!("race pairing only records KernelCall statements"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use crate::programs;

    fn check_lowered_impl(lowered: &Lowered) -> Vec<Diagnostic> {
        interpret(lowered, false).0
    }

    fn errors(lowered: &Lowered) -> Vec<Diagnostic> {
        check_lowered_impl(lowered)
            .into_iter()
            .filter(|d| d.severity == Severity::Error)
            .collect()
    }

    #[test]
    fn paper_lowerings_are_error_free_under_every_model() {
        for program in programs::all().iter().chain(programs::extra::all().iter()) {
            for model in AddressSpace::ALL {
                let lowered = lower(program, model);
                let errs = errors(&lowered);
                assert!(
                    errs.is_empty(),
                    "{} under {model}: {:?}",
                    program.name,
                    errs
                );
            }
        }
    }

    #[test]
    fn paper_lowerings_have_no_warnings_either() {
        for program in programs::all().iter().chain(programs::extra::all().iter()) {
            for model in AddressSpace::ALL {
                let lowered = lower(program, model);
                let warns: Vec<_> = check_lowered_impl(&lowered)
                    .into_iter()
                    .filter(|d| d.severity == Severity::Warning)
                    .collect();
                assert!(
                    warns.is_empty(),
                    "{} under {model}: {:?}",
                    program.name,
                    warns
                );
            }
        }
    }

    #[test]
    fn deleting_an_h2d_transfer_trips_stale_read() {
        let lowered = lower(&programs::reduction(), AddressSpace::Disjoint);
        let mut broken = lowered.clone();
        let idx = broken
            .stmts
            .iter()
            .position(|s| matches!(s, Stmt::MemcpyH2D { .. }))
            .expect("disjoint lowering has H2D transfers");
        broken.stmts.remove(idx);
        let errs = errors(&broken);
        assert!(
            errs.iter().any(|d| d.code == Code::StaleRead),
            "expected HM0101, got {errs:?}"
        );
    }

    #[test]
    fn deleting_a_d2h_transfer_trips_missing_transfer_back() {
        let lowered = lower(&programs::reduction(), AddressSpace::Disjoint);
        let mut broken = lowered.clone();
        let idx = broken
            .stmts
            .iter()
            .position(|s| matches!(s, Stmt::MemcpyD2H { .. }))
            .expect("disjoint lowering has D2H transfers");
        broken.stmts.remove(idx);
        let errs = errors(&broken);
        assert!(
            errs.iter().any(|d| d.code == Code::MissingTransferBack),
            "expected HM0102, got {errs:?}"
        );
    }

    #[test]
    fn duplicated_transfer_trips_redundant_transfer() {
        let lowered = lower(&programs::reduction(), AddressSpace::Disjoint);
        let mut broken = lowered.clone();
        let idx = broken
            .stmts
            .iter()
            .position(|s| matches!(s, Stmt::MemcpyH2D { .. }))
            .expect("disjoint lowering has H2D transfers");
        let dup = broken.stmts[idx].clone();
        broken.stmts.insert(idx + 1, dup);
        let diags = check_lowered_impl(&broken);
        assert!(
            diags
                .iter()
                .any(|d| d.code == Code::RedundantTransfer && d.stmt == Some(idx + 1)),
            "expected HM0103 at {} in {diags:?}",
            idx + 1
        );
    }

    #[test]
    fn plain_malloc_under_pas_trips_untagged_shared() {
        let lowered = lower(&programs::reduction(), AddressSpace::PartiallyShared);
        let mut broken = lowered.clone();
        for stmt in &mut broken.stmts {
            if let Stmt::SharedAlloc { buf, bytes } = stmt {
                *stmt = Stmt::HostAlloc {
                    buf: buf.clone(),
                    bytes: *bytes,
                };
                break;
            }
        }
        let errs = errors(&broken);
        assert!(
            errs.iter().any(|d| d.code == Code::UntaggedShared),
            "expected HM0104, got {errs:?}"
        );
    }

    #[test]
    fn deleting_release_trips_ownership_violation() {
        let lowered = lower(&programs::reduction(), AddressSpace::PartiallyShared);
        let mut broken = lowered.clone();
        let idx = broken
            .stmts
            .iter()
            .position(|s| matches!(s, Stmt::ReleaseOwnership { .. }))
            .expect("PAS lowering has releaseOwnership");
        broken.stmts.remove(idx);
        let errs = errors(&broken);
        assert!(
            errs.iter().any(|d| d.code == Code::OwnershipViolation),
            "expected HM0105, got {errs:?}"
        );
    }

    #[test]
    fn overlapping_writer_pair_trips_race_under_unified() {
        use crate::ast::{Program, Step};
        let program = Program {
            name: "racey".into(),
            buffers: vec![crate::ast::Buffer::new("x", 64)],
            steps: vec![
                Step::HostInit {
                    bufs: vec![crate::ast::BufId(0)],
                },
                Step::Kernel {
                    target: Target::Gpu,
                    name: "gpuWrite".into(),
                    reads: vec![],
                    writes: vec![crate::ast::BufId(0)],
                    args_upload: false,
                },
                Step::Kernel {
                    target: Target::Cpu,
                    name: "cpuRead".into(),
                    reads: vec![crate::ast::BufId(0)],
                    writes: vec![],
                    args_upload: false,
                },
            ],
            compute_lines: 4,
        };
        let lowered = lower(&program, AddressSpace::Unified);
        let diags = check_lowered_impl(&lowered);
        assert!(
            diags.iter().any(|d| d.code == Code::CpuGpuRace),
            "expected HM0106, got {diags:?}"
        );
    }

    #[test]
    fn a_race_across_a_back_edge_needs_a_second_iteration() {
        // `s` separates `c` from `g` within a pass; only the back edge
        // from `g` to the next pass's `c` leaves them in one section.
        let races = |iterations: u32| {
            let src = format!(
                "program once {{ compute 4; buffer a: 64; buffer b: 64; init a, b; \
                 loop {iterations} {{ cpu c(read a; write b); seq s(read b); gpu g(write a); }} \
                 seq fin(read a); }}"
            );
            let program = crate::parse_program(&src).expect("valid program");
            check_lowered_impl(&lower(&program, AddressSpace::Unified))
                .into_iter()
                .filter(|d| d.code == Code::CpuGpuRace)
                .map(|d| d.buffer.expect("races name their buffer"))
                .collect::<Vec<_>>()
        };
        assert_eq!(races(1), Vec::<String>::new());
        assert_eq!(races(2), vec!["a".to_string()]);
    }

    #[test]
    fn a_torn_host_read_is_an_error_after_a_note_at_the_same_site() {
        // The host touches `a` while the device owns it: a note on the
        // first pass, an error on the second, after `g` wrote it.
        let kernel =
            |target, name: &str, reads: Vec<String>, writes: Vec<String>| Stmt::KernelCall {
                target,
                name: name.into(),
                args: vec!["a".into()],
                reads,
                writes,
                parallel: false,
                arg_bytes: 64,
                args_upload: false,
            };
        let lowered = Lowered {
            program_name: "torn".into(),
            model: AddressSpace::PartiallyShared,
            stmts: vec![
                Stmt::SharedAlloc {
                    buf: "a".into(),
                    bytes: 64,
                },
                Stmt::ReleaseOwnership {
                    bufs: vec!["a".into()],
                },
                Stmt::LoopHead { iterations: 2 },
                kernel(Target::Cpu, "c", vec!["a".into()], vec![]),
                kernel(Target::Gpu, "g", vec![], vec!["a".into()]),
                Stmt::LoopTail,
            ],
        };
        let at_c: Vec<Severity> = check_lowered_impl(&lowered)
            .into_iter()
            .filter(|d| d.code == Code::OwnershipViolation && d.stmt == Some(3))
            .map(|d| d.severity)
            .collect();
        assert_eq!(at_c, vec![Severity::Note, Severity::Error]);
    }

    #[test]
    fn loop_cycle_detection_matches_full_unrolling() {
        // A loop whose body alternates staleness: full interpretation of
        // every pass and the cycle-shortcut must land in the same state,
        // which we observe through the diagnostics (none for the clean
        // paper program, for any iteration count).
        let program = programs::k_means();
        for model in AddressSpace::ALL {
            let lowered = lower(&program, model);
            assert!(errors(&lowered).is_empty(), "{model}");
        }
    }
}
