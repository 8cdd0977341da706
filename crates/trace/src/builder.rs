//! Helpers for composing phase-structured traces.
//!
//! Kernel generators describe work as *counts* of instructions with a
//! per-kernel [`InstMix`] and an [`AddressPattern`]; the [`TraceBuilder`]
//! turns each into a generated stream of exactly the requested dynamic
//! instruction count, which is what lets the generators reproduce Table III
//! of the paper to the instruction. A generated stream keeps that spec and
//! computes its instructions as they are read (see the `generated` module).

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

    /// The constant every draw adds to the state.
    const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

    #[inline]
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(Self::GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Advances the state past `n` draws in O(1): each draw adds the same
    /// constant, so skipping `n` of them adds `n` times it.
    pub(crate) fn skip(&mut self, n: u64) {
        self.state = self.state.wrapping_add(n.wrapping_mul(Self::GAMMA));
    }

    /// Uniform value in `[0, 100)`, used for percentage draws.
    #[inline]
    pub(crate) fn percent(&mut self) -> u8 {
        (self.next_u64() % 100) as u8
    }

    /// Uniform value in `[0, bound)`. `bound` must be non-zero.
    #[cfg(test)]
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
#[derive(Clone, Debug, PartialEq, Eq)]
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

/// How many outcomes a stream of `count` instructions following `mix` draws
/// from its PRNG: `branches` per full body, plus the branches that fit in
/// the final partial body (they close each body). It depends on nothing
/// else, which is what lets the builder hand each generated stream its PRNG
/// state without expanding the streams before it, and a cursor seek to any
/// instruction's draw.
pub(crate) fn branch_draws(count: usize, mix: InstMix) -> u64 {
    let body = u64::from(mix.body_len());
    if body == 0 {
        // A generated stream rejects the mix before it draws anything.
        return 0;
    }
    let count = count as u64;
    let branches = u64::from(mix.branches);
    count / body * branches + (count % body).saturating_sub(body - branches)
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

    /// A generated stream of exactly `count` instructions that draws its
    /// branch outcomes from the builder's PRNG, which then moves past them.
    fn generate(&mut self, count: usize, mix: InstMix, pattern: AddressPattern) -> TraceStream {
        let stream = TraceStream::generated(count, mix, pattern, self.rng);
        self.rng.skip(branch_draws(count, mix));
        stream
    }

    /// Appends a sequential (CPU-only) segment of exactly `count`
    /// instructions.
    pub fn sequential(&mut self, count: usize, mix: InstMix, pattern: AddressPattern) {
        let cpu = self.generate(count, mix, pattern);
        self.trace.push_segment(PhaseSegment::new(
            Phase::Sequential,
            cpu,
            TraceStream::new(),
        ));
    }

    /// Appends a parallel segment with exactly `cpu_count` CPU instructions
    /// and `gpu_count` GPU instructions. The GPU stream's branch outcomes
    /// follow the CPU stream's draws.
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
        let cpu = self.generate(cpu_count, cpu_mix, cpu_pattern);
        let gpu = self.generate(gpu_count, gpu_mix, gpu_pattern);
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
pub(crate) mod reference {
    //! The stored-form emitter generated streams replaced, kept as the
    //! reference they must equal: each address is computed from its step
    //! with a `%`, and every instruction is pushed into a stored stream.

    use super::{AddressPattern, InstMix, SplitMix64};
    use crate::inst::{Addr, Inst};
    use crate::stream::TraceStream;

    /// Iterator state for an [`AddressPattern`], one `%` per address.
    pub(crate) struct RefGen {
        pattern: AddressPattern,
        step: u64,
        rng: SplitMix64,
    }

    impl RefGen {
        pub(crate) fn new(pattern: AddressPattern) -> RefGen {
            let rng = match &pattern {
                AddressPattern::Irregular { seed, .. } => SplitMix64::new(*seed),
                _ => SplitMix64::new(0),
            };
            RefGen {
                pattern,
                step: 0,
                rng,
            }
        }

        pub(crate) fn next_addr(&mut self) -> Addr {
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
                        base + (step / 2 * elem) % len
                    } else {
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
                    let pos = step / width;
                    let off = step % width;
                    base + ((pos * elem) + off * elem) % len
                }
                AddressPattern::Butterfly { base, log2_n, elem } => {
                    let n = 1u64 << log2_n;
                    let idx = step % n;
                    let rev = idx.reverse_bits().checked_shr(64 - log2_n).unwrap_or(0);
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

    /// Emits exactly `count` instructions following `mix` into a stored
    /// stream, drawing one branch outcome from `rng` per `Branch`.
    pub(crate) fn emit(
        rng: &mut SplitMix64,
        count: usize,
        mix: InstMix,
        pattern: AddressPattern,
    ) -> TraceStream {
        assert!(
            mix.body_len() > 0,
            "instruction mix must have at least one class"
        );
        let mut stream = TraceStream::new();
        let mut addrs = RefGen::new(pattern);
        let mut emitted = 0usize;
        'outer: loop {
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
                let taken = rng.percent() < mix.branch_taken_pct;
                stream.push(Inst::Branch { taken });
                emitted += 1;
            }
        }
        stream
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{emit, RefGen};
    use super::*;
    use crate::generated::AddressGen;
    use crate::inst::{CommKind, InstClass, TransferDirection};

    /// A generated stream of `count` instructions from PRNG seed 1.
    fn generated(count: usize, mix: InstMix, pattern: AddressPattern) -> TraceStream {
        TraceStream::generated(count, mix, pattern, SplitMix64::new(1))
    }

    #[test]
    fn generated_streams_hit_exact_count_for_any_remainder() {
        for count in [0usize, 1, 2, 6, 7, 13, 100, 101] {
            let s = generated(
                count,
                InstMix::cpu_compute(),
                AddressPattern::Stream {
                    base: 0,
                    len: 1024,
                    stride: 8,
                },
            );
            assert_eq!(s.len(), count);
            assert_eq!(s.iter().count(), count);
        }
    }

    #[test]
    fn generated_streams_follow_mix_ratios() {
        let mix = InstMix::cpu_compute(); // body = 7: 2 loads, 1 int, 2 fp, 1 store, 1 branch
        let s = generated(
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

    /// Every kernel mix, the builder's named mixes and a branch-free mix.
    fn all_mixes() -> Vec<InstMix> {
        let no_branches = InstMix {
            branches: 0,
            ..InstMix::cpu_compute()
        };
        crate::kernels::MIXES
            .into_iter()
            .chain([
                InstMix::cpu_compute(),
                InstMix::gpu_compute(),
                InstMix::serial(),
                no_branches,
            ])
            .collect()
    }

    /// The five patterns, each at a kernel-like shape and at the edges of
    /// its arithmetic: lengths that are not powers of two, a row longer
    /// than the region, width 1, a region shorter than the stride, slot
    /// counts that are and are not powers of two, and a one-element
    /// butterfly.
    fn all_patterns() -> Vec<AddressPattern> {
        use AddressPattern::{Butterfly, Irregular, RowColumn, Stream, Window};
        vec![
            Stream {
                base: 0x1000,
                len: 4096,
                stride: 8,
            },
            Stream {
                base: 0x1000,
                len: 1000,
                stride: 24,
            },
            Stream {
                base: 0x1000,
                len: 16,
                stride: 64,
            },
            RowColumn {
                base: 0x2000,
                len: 524_288,
                row_bytes: 1024,
                elem: 4,
            },
            RowColumn {
                base: 0x2000,
                len: 3000,
                row_bytes: 1000,
                elem: 12,
            },
            RowColumn {
                base: 0x2000,
                len: 600,
                row_bytes: 1024,
                elem: 32,
            },
            RowColumn {
                base: 0x2000,
                len: 8,
                row_bytes: 4,
                elem: 32,
            },
            Window {
                base: 0x3000,
                len: 4096,
                width: 5,
                elem: 4,
            },
            Window {
                base: 0x3000,
                len: 1000,
                width: 1,
                elem: 8,
            },
            Window {
                base: 0x3000,
                len: 6,
                width: 3,
                elem: 8,
            },
            Butterfly {
                base: 0x4000,
                log2_n: 7,
                elem: 8,
            },
            Butterfly {
                base: 0x4000,
                log2_n: 1,
                elem: 32,
            },
            Butterfly {
                base: 0x4000,
                log2_n: 0,
                elem: 8,
            },
            Irregular {
                base: 0x5000,
                len: 4096,
                elem: 4,
                seed: 7,
            },
            Irregular {
                base: 0x5000,
                len: 1000,
                elem: 8,
                seed: 9,
            },
            Irregular {
                base: 0x5000,
                len: 4,
                elem: 8,
                seed: 11,
            },
        ]
    }

    #[test]
    fn generated_streams_equal_the_reference_emission() {
        let mut pick = SplitMix64::new(0xC0DE);
        let mut below = |n: usize| (pick.next_u64() % n as u64) as usize;
        for mix in all_mixes() {
            let body = mix.body_len() as usize;
            for pattern in all_patterns() {
                // Counts that end at a body's end and mid-body, and one
                // long enough for the row/column walk's every-64th-pair
                // bump.
                for count in [0, 1, body - 1, body, 3 * body + 2, 1_000 + body / 2] {
                    let start = SplitMix64::new(below(1 << 20) as u64);
                    let mut rng = start;
                    let want_stream = emit(&mut rng, count, mix, pattern.clone());
                    let want: Vec<Inst> = want_stream.iter().collect();
                    let got = TraceStream::generated(count, mix, pattern.clone(), start);
                    let case = format!("{mix:?} {pattern:?} × {count}");
                    assert_eq!(got.len(), count, "{case}");
                    assert!(got.iter().eq(want.iter().copied()), "{case}");
                    assert_eq!(got, want_stream, "{case}");
                    assert_eq!(want_stream, got, "{case}");
                    for class in [
                        InstClass::Load,
                        InstClass::IntOp,
                        InstClass::FpOp,
                        InstClass::Store,
                        InstClass::Branch,
                        InstClass::Comm,
                        InstClass::Special,
                    ] {
                        let n = want.iter().filter(|i| i.class() == class).count();
                        assert_eq!(got.class_count(class), n, "{case} {class:?}");
                    }
                    if count == 0 {
                        continue;
                    }
                    for _ in 0..16 {
                        let i = below(count);
                        assert_eq!(got.get(i), want[i], "{case} at {i}");
                    }
                    // Random jumps, then reads onward from where each lands.
                    let mut cursor = got.cursor();
                    for _ in 0..16 {
                        if below(2) == 0 {
                            cursor.seek(below(count + 1));
                        } else {
                            let at = cursor.index();
                            let n = below(count);
                            let skipped = cursor.skip_plain(n);
                            assert_eq!(skipped, n.min(count - at), "{case}");
                        }
                        for _ in 0..below(3 * body) {
                            if cursor.is_done() {
                                break;
                            }
                            let i = cursor.index();
                            assert_eq!(cursor.next_inst(), want[i], "{case} at {i}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn address_walks_equal_the_reference_at_every_step() {
        for pattern in all_patterns() {
            let mut got = AddressGen::new(&pattern);
            let mut want = RefGen::new(pattern.clone());
            for step in 0..2_000 {
                assert_eq!(got.next_addr(), want.next_addr(), "{pattern:?} step {step}");
            }
            // A seek lands where stepping does.
            for step in [0u64, 1, 127, 128, 129, 1_999] {
                let mut sought = AddressGen::new(&pattern);
                sought.seek(step);
                let mut want = RefGen::new(pattern.clone());
                for _ in 0..step {
                    want.next_addr();
                }
                assert_eq!(
                    sought.next_addr(),
                    want.next_addr(),
                    "{pattern:?} seek {step}"
                );
            }
        }
    }

    #[test]
    fn generated_stream_converts_to_the_stored_form_on_push() {
        let mut s = generated(9, InstMix::serial(), all_patterns()[1].clone());
        let mut want: Vec<Inst> = s.iter().collect();
        s.push(Inst::Mul);
        want.push(Inst::Mul);
        assert!(s.iter().eq(want));
    }

    #[test]
    fn generation_is_deterministic() {
        let make = || {
            generated(
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
        assert!(make().iter().eq(make().iter()));
    }

    #[test]
    fn skip_equals_repeated_draws() {
        for n in [0u64, 1, 2, 1_000] {
            let mut skipped = SplitMix64::new(0x5EED);
            skipped.skip(n);
            let mut drawn = SplitMix64::new(0x5EED);
            for _ in 0..n {
                drawn.next_u64();
            }
            assert_eq!(skipped, drawn, "n = {n}");
        }
    }

    #[test]
    fn branch_draws_count_the_emitted_branches() {
        for mix in all_mixes() {
            for count in 0..=3 * mix.body_len() as usize {
                let mut rng = SplitMix64::new(3);
                let pattern = AddressPattern::Stream {
                    base: 0,
                    len: 1024,
                    stride: 8,
                };
                let s = emit(&mut rng, count, mix, pattern);
                let branches = s.class_count(InstClass::Branch) as u64;
                assert_eq!(branch_draws(count, mix), branches, "{mix:?} × {count}");
                let mut want = SplitMix64::new(3);
                want.skip(branches);
                assert_eq!(rng, want, "{mix:?} × {count}");
            }
        }
    }

    #[test]
    fn parallel_equals_sequential_emission() {
        let cpu_pattern = AddressPattern::Irregular {
            base: 0,
            len: 4096,
            elem: 4,
            seed: 11,
        };
        let gpu_pattern = AddressPattern::Stream {
            base: 0x8000,
            len: 4096,
            stride: 32,
        };
        // Bodies of 8 with two closing branches: 103 CPU instructions end
        // on the first branch of the 13th body, so the GPU stream starts
        // after 12 × 2 + 1 draws.
        let cpu_mix = InstMix {
            branches: 2,
            ..InstMix::serial()
        };
        let gpu_mix = InstMix::gpu_compute();
        let mut b = TraceBuilder::new("t", 21);
        b.parallel(
            103,
            cpu_mix,
            cpu_pattern.clone(),
            57,
            gpu_mix,
            gpu_pattern.clone(),
        );
        b.sequential(9, InstMix::serial(), gpu_pattern.clone());

        let mut rng = SplitMix64::new(21);
        let cpu = emit(&mut rng, 103, cpu_mix, cpu_pattern);
        let gpu = emit(&mut rng, 57, gpu_mix, gpu_pattern.clone());
        let serial = emit(&mut rng, 9, InstMix::serial(), gpu_pattern);
        let t = b.finish();
        let (par, seq) = (&t.segments()[0], &t.segments()[1]);
        assert_eq!(par.stream(crate::PuKind::Cpu), &cpu);
        assert_eq!(par.stream(crate::PuKind::Gpu), &gpu);
        assert_eq!(seq.stream(crate::PuKind::Cpu), &serial);
    }

    #[test]
    #[should_panic(expected = "instruction mix must have at least one class")]
    fn parallel_with_an_empty_gpu_mix_panics() {
        let empty = InstMix {
            loads: 0,
            int_ops: 0,
            fp_ops: 0,
            stores: 0,
            branches: 0,
            ..InstMix::gpu_compute()
        };
        let pattern = AddressPattern::Stream {
            base: 0,
            len: 256,
            stride: 8,
        };
        let mut b = TraceBuilder::new("t", 0);
        b.parallel(
            10,
            InstMix::cpu_compute(),
            pattern.clone(),
            10,
            empty,
            pattern,
        );
    }

    #[test]
    fn stream_pattern_wraps_in_region() {
        let mut g = AddressGen::new(&AddressPattern::Stream {
            base: 0x1000,
            len: 64,
            stride: 8,
        });
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
        let mut g = AddressGen::new(&AddressPattern::Butterfly {
            base: 0,
            log2_n: 4,
            elem: 8,
        });
        for _ in 0..64 {
            let a = g.next_addr();
            assert!(a < 16 * 8);
        }
    }

    #[test]
    fn irregular_pattern_is_aligned_and_bounded() {
        let mut g = AddressGen::new(&AddressPattern::Irregular {
            base: 0x2000,
            len: 4096,
            elem: 4,
            seed: 3,
        });
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
