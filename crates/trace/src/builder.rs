//! Helpers for composing phase-structured traces.
//!
//! Kernel generators (and the DSL code generator) describe work as *counts*
//! of instructions with a per-kernel [`InstMix`] and an [`AddressPattern`];
//! the [`TraceBuilder`] expands those into concrete instruction streams with
//! exactly the requested dynamic instruction counts, which is what lets the
//! generators reproduce Table III of the paper to the instruction.

use crate::inst::{Addr, CommEvent, Inst};
use crate::phase::{Phase, PhaseSegment, PhasedTrace};
use crate::stream::TraceStream;

/// A tiny deterministic PRNG (SplitMix64) used for branch outcomes and
/// irregular address streams.
///
/// Kernel traces must be bit-for-bit reproducible across platforms and
/// releases, so the generator is pinned here rather than delegated to an
/// external crate whose stream might change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, 100)`, used for percentage draws.
    pub(crate) fn percent(&mut self) -> u8 {
        (self.next_u64() % 100) as u8
    }

    /// Uniform value in `[0, bound)`. `bound` must be non-zero.
    pub(crate) fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        self.next_u64() % bound
    }
}

/// Relative instruction-class weights of a kernel's inner loop.
///
/// One "body" of the loop contains `loads` loads, then `int_ops` integer and
/// `fp_ops` floating-point operations, then `stores` stores, and finally
/// `branches` conditional branches (the loop-back branch last) — the classic
/// shape of a counted loop. The builder repeats the body as many times as
/// needed and truncates to hit an exact dynamic instruction count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InstMix {
    /// Loads per loop body.
    pub loads: u32,
    /// Integer ALU operations per loop body.
    pub int_ops: u32,
    /// Floating-point (or SIMD) operations per loop body.
    pub fp_ops: u32,
    /// Stores per loop body.
    pub stores: u32,
    /// Conditional branches per loop body.
    pub branches: u32,
    /// Emit SIMD operations instead of scalar FP (set for GPU streams).
    pub simd: bool,
    /// Width of each load/store in bytes.
    pub access_bytes: u8,
    /// Probability (percent) that a branch is taken.
    pub branch_taken_pct: u8,
}

impl InstMix {
    /// A scalar CPU mix typical of compute loops: 2 loads, 1 int op, 2 FP
    /// ops, 1 store, 1 branch, 8-byte accesses, 90 % taken branches.
    #[must_use]
    pub fn cpu_compute() -> InstMix {
        InstMix {
            loads: 2,
            int_ops: 1,
            fp_ops: 2,
            stores: 1,
            branches: 1,
            simd: false,
            access_bytes: 8,
            branch_taken_pct: 90,
        }
    }

    /// A GPU SIMD mix: wide accesses and vector FP operations.
    #[must_use]
    pub fn gpu_compute() -> InstMix {
        InstMix {
            loads: 2,
            int_ops: 1,
            fp_ops: 3,
            stores: 1,
            branches: 1,
            simd: true,
            access_bytes: 32,
            branch_taken_pct: 95,
        }
    }

    /// An integer-dominated serial mix (initialization / merge code).
    #[must_use]
    pub fn serial() -> InstMix {
        InstMix {
            loads: 2,
            int_ops: 3,
            fp_ops: 0,
            stores: 1,
            branches: 1,
            simd: false,
            access_bytes: 8,
            branch_taken_pct: 85,
        }
    }

    /// Total instructions in one loop body. A mix with all weights zero is
    /// rejected when the builder emits instructions.
    #[must_use]
    pub fn body_len(&self) -> u32 {
        self.loads + self.int_ops + self.fp_ops + self.stores + self.branches
    }
}

/// A deterministic generator of memory addresses shaped like a kernel's
/// access pattern.
#[derive(Clone, Debug)]
pub enum AddressPattern {
    /// Sequential streaming through `[base, base + len)` with `stride`-byte
    /// steps, wrapping around (reduction, streaming kernels).
    Stream {
        /// Region base address.
        base: Addr,
        /// Region length in bytes.
        len: u64,
        /// Step between consecutive accesses.
        stride: u64,
    },
    /// Row-stream alternating with column-stride accesses over a square
    /// matrix region (matrix multiply: A row-major, B column-major).
    RowColumn {
        /// Region base address.
        base: Addr,
        /// Region length in bytes.
        len: u64,
        /// Matrix row length in bytes (column stride).
        row_bytes: u64,
        /// Element size in bytes.
        elem: u64,
    },
    /// A sliding window: each step reads `width` consecutive elements before
    /// advancing by `stride` (convolution).
    Window {
        /// Region base address.
        base: Addr,
        /// Region length in bytes.
        len: u64,
        /// Window width in elements.
        width: u64,
        /// Element size in bytes.
        elem: u64,
    },
    /// Bit-reversal butterfly access over a power-of-two region (DCT / FFT
    /// style).
    Butterfly {
        /// Region base address.
        base: Addr,
        /// log2 of the number of elements (region is `elem << log2_n` bytes).
        log2_n: u32,
        /// Element size in bytes.
        elem: u64,
    },
    /// Pseudo-random accesses within the region (merge sort's data-dependent
    /// merges, k-means' cluster membership).
    Irregular {
        /// Region base address.
        base: Addr,
        /// Region length in bytes.
        len: u64,
        /// Element size in bytes.
        elem: u64,
        /// PRNG seed (deterministic per stream).
        seed: u64,
    },
}

impl AddressPattern {
    /// Turns the pattern description into a concrete address generator.
    #[must_use]
    pub fn into_gen(self) -> AddressGen {
        let rng = match &self {
            AddressPattern::Irregular { seed, .. } => SplitMix64::new(*seed),
            _ => SplitMix64::new(0),
        };
        AddressGen {
            pattern: self,
            step: 0,
            rng,
        }
    }
}

/// Iterator state for an [`AddressPattern`].
#[derive(Clone, Debug)]
pub struct AddressGen {
    pattern: AddressPattern,
    step: u64,
    rng: SplitMix64,
}

impl AddressGen {
    /// Next address in the pattern. Infinite; never fails.
    pub fn next_addr(&mut self) -> Addr {
        let step = self.step;
        self.step = self.step.wrapping_add(1);
        match &self.pattern {
            AddressPattern::Stream { base, len, stride } => {
                let len = (*len).max(*stride);
                base + (step * stride) % len
            }
            AddressPattern::RowColumn {
                base,
                len,
                row_bytes,
                elem,
            } => {
                let len = (*len).max(*elem);
                if step.is_multiple_of(2) {
                    // Row-major stream through A.
                    base + (step / 2 * elem) % len
                } else {
                    // Column walk through B: stride of one row per access.
                    base + (step / 2 * row_bytes + (step / (2 * 64)) * elem) % len
                }
            }
            AddressPattern::Window {
                base,
                len,
                width,
                elem,
            } => {
                let len = (*len).max(*elem);
                let width = (*width).max(1);
                let pos = step / width; // window index
                let off = step % width; // element within window
                base + ((pos * elem) + off * elem) % len
            }
            AddressPattern::Butterfly { base, log2_n, elem } => {
                let n = 1u64 << log2_n;
                let idx = step % n;
                let rev = idx.reverse_bits() >> (64 - log2_n);
                base + rev * elem
            }
            AddressPattern::Irregular {
                base, len, elem, ..
            } => {
                let slots = ((*len).max(*elem)) / (*elem).max(1);
                base + self.rng.below(slots.max(1)) * elem
            }
        }
    }
}

/// Incrementally builds a [`PhasedTrace`].
///
/// ```
/// use hetmem_trace::{AddressPattern, InstMix, Phase, PuKind, TraceBuilder};
///
/// let mut b = TraceBuilder::new("demo", 42);
/// b.sequential(100, InstMix::serial(), AddressPattern::Stream {
///     base: 0x1000, len: 4096, stride: 8,
/// });
/// let trace = b.finish();
/// assert_eq!(trace.pu_phase_len(PuKind::Cpu, Phase::Sequential), 100);
/// ```
#[derive(Debug)]
pub struct TraceBuilder {
    trace: PhasedTrace,
    rng: SplitMix64,
}

impl TraceBuilder {
    /// Creates a builder for a kernel called `name`, with a deterministic
    /// seed for branch outcomes.
    #[must_use]
    pub fn new(name: impl Into<String>, seed: u64) -> TraceBuilder {
        TraceBuilder {
            trace: PhasedTrace::new(name),
            rng: SplitMix64::new(seed),
        }
    }

    /// Emits exactly `count` instructions following `mix` into a stream.
    fn emit(&mut self, count: usize, mix: InstMix, pattern: AddressPattern) -> TraceStream {
        assert!(
            mix.body_len() > 0,
            "instruction mix must have at least one class"
        );
        let mut stream = TraceStream::with_capacity(count);
        let mut addrs = pattern.into_gen();
        let mut emitted = 0usize;
        'outer: loop {
            // One loop body: loads, int ops, fp ops, stores, branches.
            for _ in 0..mix.loads {
                if emitted == count {
                    break 'outer;
                }
                stream.push(Inst::Load {
                    addr: addrs.next_addr(),
                    bytes: mix.access_bytes,
                });
                emitted += 1;
            }
            for _ in 0..mix.int_ops {
                if emitted == count {
                    break 'outer;
                }
                stream.push(Inst::IntAlu);
                emitted += 1;
            }
            for _ in 0..mix.fp_ops {
                if emitted == count {
                    break 'outer;
                }
                stream.push(if mix.simd {
                    Inst::SimdAlu { lanes: 8 }
                } else {
                    Inst::FpAlu
                });
                emitted += 1;
            }
            for _ in 0..mix.stores {
                if emitted == count {
                    break 'outer;
                }
                stream.push(Inst::Store {
                    addr: addrs.next_addr(),
                    bytes: mix.access_bytes,
                });
                emitted += 1;
            }
            for _ in 0..mix.branches {
                if emitted == count {
                    break 'outer;
                }
                let taken = self.rng.percent() < mix.branch_taken_pct;
                stream.push(Inst::Branch { taken });
                emitted += 1;
            }
        }
        debug_assert_eq!(stream.len(), count);
        stream
    }

    /// Appends a sequential (CPU-only) segment of exactly `count`
    /// instructions.
    pub fn sequential(&mut self, count: usize, mix: InstMix, pattern: AddressPattern) {
        let cpu = self.emit(count, mix, pattern);
        self.trace.push_segment(PhaseSegment::new(
            Phase::Sequential,
            cpu,
            TraceStream::new(),
        ));
    }

    /// Appends a parallel segment with exactly `cpu_count` CPU instructions
    /// and `gpu_count` GPU instructions.
    #[allow(clippy::too_many_arguments)]
    pub fn parallel(
        &mut self,
        cpu_count: usize,
        cpu_mix: InstMix,
        cpu_pattern: AddressPattern,
        gpu_count: usize,
        gpu_mix: InstMix,
        gpu_pattern: AddressPattern,
    ) {
        let cpu = self.emit(cpu_count, cpu_mix, cpu_pattern);
        let gpu = self.emit(gpu_count, gpu_mix, gpu_pattern);
        self.trace
            .push_segment(PhaseSegment::new(Phase::Parallel, cpu, gpu));
    }

    /// Appends a communication segment containing the given events (host
    /// side, in order).
    pub fn communication(&mut self, events: impl IntoIterator<Item = CommEvent>) {
        let cpu: TraceStream = events.into_iter().map(Inst::Comm).collect();
        assert!(
            cpu.comm_count() > 0,
            "communication segment needs at least one event"
        );
        self.trace.push_segment(PhaseSegment::new(
            Phase::Communication,
            cpu,
            TraceStream::new(),
        ));
    }

    /// Appends an already-built segment (used by the DSL code generator for
    /// segments mixing special operations with communication events).
    pub fn segment(&mut self, segment: PhaseSegment) {
        self.trace.push_segment(segment);
    }

    /// Finishes the build and returns the trace.
    ///
    /// # Panics
    ///
    /// Panics if the built trace violates the phased-trace shape invariants
    /// — that indicates a bug in the generator, never in user input.
    #[must_use]
    pub fn finish(self) -> PhasedTrace {
        if let Err(e) = self.trace.validate() {
            panic!("generator produced a malformed trace: {e}");
        }
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{CommKind, InstClass, TransferDirection};

    #[test]
    fn emit_hits_exact_count_for_any_remainder() {
        for count in [0usize, 1, 2, 6, 7, 13, 100, 101] {
            let mut b = TraceBuilder::new("t", 1);
            let s = b.emit(
                count,
                InstMix::cpu_compute(),
                AddressPattern::Stream {
                    base: 0,
                    len: 1024,
                    stride: 8,
                },
            );
            assert_eq!(s.len(), count);
        }
    }

    #[test]
    fn emit_follows_mix_ratios() {
        let mut b = TraceBuilder::new("t", 1);
        let mix = InstMix::cpu_compute(); // body = 7: 2 loads, 1 int, 2 fp, 1 store, 1 branch
        let s = b.emit(
            700,
            mix,
            AddressPattern::Stream {
                base: 0,
                len: 4096,
                stride: 8,
            },
        );
        assert_eq!(s.class_count(InstClass::Load), 200);
        assert_eq!(s.class_count(InstClass::IntOp), 100);
        assert_eq!(s.class_count(InstClass::FpOp), 200);
        assert_eq!(s.class_count(InstClass::Store), 100);
        assert_eq!(s.class_count(InstClass::Branch), 100);
    }

    #[test]
    fn emit_is_deterministic() {
        let make = || {
            let mut b = TraceBuilder::new("t", 99);
            b.emit(
                500,
                InstMix::gpu_compute(),
                AddressPattern::Irregular {
                    base: 0x100,
                    len: 8192,
                    elem: 4,
                    seed: 7,
                },
            )
        };
        assert_eq!(make(), make());
    }

    #[test]
    fn stream_pattern_wraps_in_region() {
        let mut g = AddressPattern::Stream {
            base: 0x1000,
            len: 64,
            stride: 8,
        }
        .into_gen();
        let addrs: Vec<_> = (0..10).map(|_| g.next_addr()).collect();
        assert_eq!(addrs[0], 0x1000);
        assert_eq!(addrs[7], 0x1038);
        assert_eq!(addrs[8], 0x1000); // wrapped
        for a in addrs {
            assert!((0x1000..0x1040).contains(&a));
        }
    }

    #[test]
    fn butterfly_pattern_stays_in_region() {
        let mut g = AddressPattern::Butterfly {
            base: 0,
            log2_n: 4,
            elem: 8,
        }
        .into_gen();
        for _ in 0..64 {
            let a = g.next_addr();
            assert!(a < 16 * 8);
        }
    }

    #[test]
    fn irregular_pattern_is_aligned_and_bounded() {
        let mut g = AddressPattern::Irregular {
            base: 0x2000,
            len: 4096,
            elem: 4,
            seed: 3,
        }
        .into_gen();
        for _ in 0..1000 {
            let a = g.next_addr();
            assert!((0x2000..0x3000).contains(&a));
            assert_eq!((a - 0x2000) % 4, 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one event")]
    fn empty_communication_segment_panics() {
        let mut b = TraceBuilder::new("t", 0);
        b.communication(std::iter::empty::<CommEvent>());
    }

    #[test]
    fn builder_composes_phases() {
        let mut b = TraceBuilder::new("k", 5);
        b.communication([CommEvent {
            direction: TransferDirection::HostToDevice,
            bytes: 256,
            kind: CommKind::InitialInput,
            addr: 0x1000,
        }]);
        b.parallel(
            10,
            InstMix::cpu_compute(),
            AddressPattern::Stream {
                base: 0x1000,
                len: 256,
                stride: 8,
            },
            20,
            InstMix::gpu_compute(),
            AddressPattern::Stream {
                base: 0x2000,
                len: 256,
                stride: 32,
            },
        );
        b.sequential(
            5,
            InstMix::serial(),
            AddressPattern::Stream {
                base: 0x1000,
                len: 256,
                stride: 8,
            },
        );
        let t = b.finish();
        assert_eq!(t.segments().len(), 3);
        assert_eq!(t.comm_bytes(), 256);
        // 10 parallel + 5 sequential + the Comm instruction itself.
        assert_eq!(t.pu_len(crate::PuKind::Cpu), 16);
        assert_eq!(t.pu_len(crate::PuKind::Gpu), 20);
    }
}
