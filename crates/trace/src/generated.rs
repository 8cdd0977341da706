//! Generated streams: a kernel segment kept as its spec, its instructions
//! computed as they are read.
//!
//! A [`crate::TraceBuilder`] segment is `count` instructions that repeat one
//! [`InstMix`] loop body, with addresses from an [`AddressPattern`] and
//! branch outcomes drawn from a [`SplitMix64`]. Each instruction is a pure
//! function of that spec and its index `i`:
//!
//! * its class is its position in the body, `i mod body_len`;
//! * its address is step `s` of the pattern, where `s` counts the loads and
//!   stores before `i`;
//! * a branch outcome is draw number `branch_draws(i, mix)` of the PRNG,
//!   which [`SplitMix64::skip`] reaches in O(1).
//!
//! So a generated stream holds a [`Spec`] of a few dozen bytes, not 16
//! bytes per instruction, and a [`SpecCursor`] computes the instructions in
//! order. The cursor steps the emitter's state forward: the body position,
//! one PRNG draw per branch and one [`AddressGen`] step per access. Each
//! address walk keeps its offset already reduced into its region, so the
//! sequential path divides nowhere: `Irregular` takes its remainder by
//! multiplication. [`SpecCursor::seek`] jumps to any index in O(1);
//! `TraceStream::get` and the sampled mode's skips use it.

use crate::builder::{branch_draws, AddressPattern, InstMix, SplitMix64};
use crate::inst::{Addr, Inst, InstClass};

/// A generated stream: exactly `count` instructions of `mix`'s loop body,
/// addresses from `pattern`, branch outcomes drawn from `rng` onwards.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Spec {
    count: usize,
    mix: InstMix,
    pattern: AddressPattern,
    rng: SplitMix64,
}

impl Spec {
    /// The spec of a stream of `count` instructions following `mix`.
    ///
    /// # Panics
    ///
    /// Panics if every weight of `mix` is zero.
    pub(crate) fn new(
        count: usize,
        mix: InstMix,
        pattern: AddressPattern,
        rng: SplitMix64,
    ) -> Spec {
        assert!(
            mix.body_len() > 0,
            "instruction mix must have at least one class"
        );
        Spec {
            count,
            mix,
            pattern,
            rng,
        }
    }

    /// Number of instructions in the stream.
    pub(crate) fn len(&self) -> usize {
        self.count
    }

    /// Number of instructions of `class` in the stream, in O(1): each full
    /// body holds the mix's weight of it, and the final partial body the
    /// part of its run that fits.
    pub(crate) fn class_count(&self, class: InstClass) -> usize {
        let m = &self.mix;
        let (start, weight) = match class {
            InstClass::Load => (0, m.loads),
            InstClass::IntOp => (m.loads, m.int_ops),
            InstClass::FpOp => (m.loads + m.int_ops, m.fp_ops),
            InstClass::Store => (m.loads + m.int_ops + m.fp_ops, m.stores),
            InstClass::Branch => (m.body_len() - m.branches, m.branches),
            InstClass::Comm | InstClass::Special => return 0,
        };
        let body = m.body_len() as usize;
        let (start, weight) = (start as usize, weight as usize);
        self.count / body * weight + (self.count % body).saturating_sub(start).min(weight)
    }

    /// A cursor at the first instruction.
    pub(crate) fn cursor(&self) -> SpecCursor<'_> {
        let m = &self.mix;
        let int_end = m.loads + m.int_ops;
        let fp_end = int_end + m.fp_ops;
        SpecCursor {
            spec: self,
            pos: 0,
            loads_end: m.loads,
            int_end,
            fp_end,
            stores_end: fp_end + m.stores,
            body: m.body_len(),
            simd: m.simd,
            bytes: m.access_bytes,
            taken_pct: m.branch_taken_pct,
            rng: self.rng,
            addrs: AddressGen::new(&self.pattern),
        }
    }
}

/// A sequential reader of a [`Spec`]'s instructions. It does not know
/// its index: `TraceStream`'s cursor keeps that, and the stream's end.
///
/// The mix's class boundaries are copied in, so a step reads only the
/// cursor itself.
#[derive(Clone, Debug)]
pub(crate) struct SpecCursor<'a> {
    spec: &'a Spec,
    /// Position of the next instruction in the loop body.
    pos: u32,
    /// Where each class's run in the body ends (branches fill the rest).
    loads_end: u32,
    int_end: u32,
    fp_end: u32,
    stores_end: u32,
    body: u32,
    simd: bool,
    bytes: u8,
    taken_pct: u8,
    rng: SplitMix64,
    addrs: AddressGen,
}

impl SpecCursor<'_> {
    /// The next instruction. The caller keeps within the stream's length.
    #[inline(always)]
    pub(crate) fn next_inst(&mut self) -> Inst {
        let pos = self.pos;
        self.pos += 1;
        if self.pos == self.body {
            self.pos = 0;
        }
        if pos < self.loads_end {
            Inst::Load {
                addr: self.addrs.next_addr(),
                bytes: self.bytes,
            }
        } else if pos < self.int_end {
            Inst::IntAlu
        } else if pos < self.fp_end {
            if self.simd {
                Inst::SimdAlu { lanes: 8 }
            } else {
                Inst::FpAlu
            }
        } else if pos < self.stores_end {
            Inst::Store {
                addr: self.addrs.next_addr(),
                bytes: self.bytes,
            }
        } else {
            Inst::Branch {
                taken: self.rng.percent() < self.taken_pct,
            }
        }
    }

    /// Moves the cursor to instruction `index` in O(1): the PRNG skips the
    /// branches before it and the address walk the accesses before it.
    pub(crate) fn seek(&mut self, index: usize) {
        let m = &self.spec.mix;
        let body = m.body_len() as usize;
        let (bodies, pos) = ((index / body) as u64, index % body);
        self.pos = pos as u32;
        self.rng = self.spec.rng;
        self.rng.skip(branch_draws(index, *m));
        let pos = pos as u32;
        let stores_done = pos.saturating_sub(self.fp_end).min(m.stores);
        let accesses =
            bodies * u64::from(m.loads + m.stores) + u64::from(pos.min(m.loads) + stores_done);
        self.addrs.seek(accesses);
    }
}

/// `a * b mod m` without overflow, and 0 for `m == 0`.
fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
    if m == 0 {
        return 0;
    }
    (u128::from(a) * u128::from(b) % u128::from(m)) as u64
}

/// `x + d`, reduced below `m`, for `x < m` and `d <= m`.
#[inline]
fn add_mod(x: u64, d: u64, m: u64) -> u64 {
    let y = x + d;
    if y >= m {
        y - m
    } else {
        y
    }
}

/// `x % d` without a division, for `d >= 1` and `magic` equal to
/// `u128::MAX / d + 1` (wrapping, so 0 for `d == 1`): the fraction `x * magic mod 2^128`, scaled by `d`,
/// has the remainder as its integer part (Lemire, Kaser and Kurz, "Faster
/// remainder by direct computation", 2019, with 128 fraction bits for a
/// 64-bit `x`).
#[inline]
fn fast_mod(x: u64, magic: u128, d: u64) -> u64 {
    let frac = magic.wrapping_mul(u128::from(x));
    let d = u128::from(d);
    let low = u128::from(frac as u64) * d;
    (((frac >> 64) * d + (low >> 64)) >> 64) as u64
}

/// The addresses of an [`AddressPattern`], in order, from offsets that each
/// step updates without a division.
#[derive(Clone, Debug)]
pub(crate) struct AddressGen {
    base: Addr,
    walk: Walk,
}

/// Each pattern's walk. `len` is the region length the pattern wraps at
/// (at least one element or stride) and every offset stays below it.
#[derive(Clone, Debug)]
enum Walk {
    /// `off` is `step * stride mod len`.
    Stream { len: u64, stride: u64, off: u64 },
    /// Pair `k` is a row access at `k * elem` and a column access at
    /// `k * row_bytes + (k / 64) * elem`, both mod `len`; `col_step` is
    /// `row_bytes mod len` and `second` says the row access of `pair` is
    /// done.
    RowColumn {
        len: u64,
        elem: u64,
        row_bytes: u64,
        col_step: u64,
        pair: u64,
        second: bool,
        row: u64,
        col: u64,
    },
    /// Step `s` reads element `s / width + s % width`; `within` is
    /// `s % width`, `start` the window's first offset and `off` the step's.
    Window {
        len: u64,
        elem: u64,
        width: u64,
        within: u64,
        start: u64,
        off: u64,
    },
    /// Step `s` reads element `bit_reverse(s mod 2^log2_n)`: `idx` is
    /// `s & mask` and `shift` is `63 - log2_n`.
    Butterfly {
        mask: u64,
        shift: u32,
        elem: u64,
        idx: u64,
    },
    /// One draw of `rng` (seeded by `seed`) per step, `% slots`, taken
    /// by multiplication with `magic` (see [`fast_mod`]).
    Irregular {
        slots: u64,
        magic: u128,
        elem: u64,
        seed: u64,
        rng: SplitMix64,
    },
}

impl AddressGen {
    /// A walk of `pattern` from its first step.
    pub(crate) fn new(pattern: &AddressPattern) -> AddressGen {
        let (base, walk) = match *pattern {
            AddressPattern::Stream { base, len, stride } => (
                base,
                Walk::Stream {
                    len: len.max(stride),
                    stride,
                    off: 0,
                },
            ),
            AddressPattern::RowColumn {
                base,
                len,
                row_bytes,
                elem,
            } => {
                let len = len.max(elem);
                let col_step = if len == 0 { 0 } else { row_bytes % len };
                let walk = Walk::RowColumn {
                    len,
                    elem,
                    row_bytes,
                    col_step,
                    pair: 0,
                    second: false,
                    row: 0,
                    col: 0,
                };
                (base, walk)
            }
            AddressPattern::Window {
                base,
                len,
                width,
                elem,
            } => {
                let walk = Walk::Window {
                    len: len.max(elem),
                    elem,
                    width: width.max(1),
                    within: 0,
                    start: 0,
                    off: 0,
                };
                (base, walk)
            }
            AddressPattern::Butterfly { base, log2_n, elem } => {
                debug_assert!(log2_n < 64, "a butterfly spans at most 2^63 elements");
                let walk = Walk::Butterfly {
                    mask: 1u64.checked_shl(log2_n).map_or(u64::MAX, |n| n - 1),
                    shift: 63u32.saturating_sub(log2_n),
                    elem,
                    idx: 0,
                };
                (base, walk)
            }
            AddressPattern::Irregular {
                base,
                len,
                elem,
                seed,
            } => {
                let slots = (len.max(elem) / elem.max(1)).max(1);
                let walk = Walk::Irregular {
                    slots,
                    magic: (u128::MAX / u128::from(slots)).wrapping_add(1),
                    elem,
                    seed,
                    rng: SplitMix64::new(seed),
                };
                (base, walk)
            }
        };
        AddressGen { base, walk }
    }

    /// Next address in the pattern. Infinite; never fails.
    #[inline(always)]
    pub(crate) fn next_addr(&mut self) -> Addr {
        let off = match &mut self.walk {
            Walk::Stream { len, stride, off } => {
                let at = *off;
                *off = add_mod(at, *stride, *len);
                at
            }
            Walk::RowColumn {
                len,
                elem,
                col_step,
                pair,
                second,
                row,
                col,
                ..
            } => {
                if !*second {
                    *second = true;
                    *row
                } else {
                    *second = false;
                    let at = *col;
                    *pair += 1;
                    *row = add_mod(*row, *elem, *len);
                    *col = add_mod(at, *col_step, *len);
                    if *pair & 63 == 0 {
                        *col = add_mod(*col, *elem, *len);
                    }
                    at
                }
            }
            Walk::Window {
                len,
                elem,
                width,
                within,
                start,
                off,
            } => {
                let at = *off;
                *within += 1;
                if *within == *width {
                    *within = 0;
                    *start = add_mod(*start, *elem, *len);
                    *off = *start;
                } else {
                    *off = add_mod(at, *elem, *len);
                }
                at
            }
            Walk::Butterfly {
                mask,
                shift,
                elem,
                idx,
            } => {
                let at = (idx.reverse_bits() >> 1) >> *shift;
                *idx = (*idx + 1) & *mask;
                at * *elem
            }
            Walk::Irregular {
                slots,
                magic,
                elem,
                rng,
                ..
            } => fast_mod(rng.next_u64(), *magic, *slots) * *elem,
        };
        self.base + off
    }

    /// Moves the walk to step `step` in O(1).
    pub(crate) fn seek(&mut self, step: u64) {
        match &mut self.walk {
            Walk::Stream { len, stride, off } => *off = mul_mod(step, *stride, *len),
            Walk::RowColumn {
                len,
                elem,
                row_bytes,
                pair,
                second,
                row,
                col,
                ..
            } => {
                let k = step / 2;
                *pair = k;
                *second = step % 2 == 1;
                *row = mul_mod(k, *elem, *len);
                *col = add_mod(
                    mul_mod(k, *row_bytes, *len),
                    mul_mod(k / 64, *elem, *len),
                    *len,
                );
            }
            Walk::Window {
                len,
                elem,
                width,
                within,
                start,
                off,
            } => {
                let window = step / *width;
                *within = step % *width;
                *start = mul_mod(window, *elem, *len);
                *off = mul_mod(window + *within, *elem, *len);
            }
            Walk::Butterfly { mask, idx, .. } => *idx = step & *mask,
            Walk::Irregular { seed, rng, .. } => {
                *rng = SplitMix64::new(*seed);
                rng.skip(step);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_mod_is_the_remainder() {
        let mut rng = SplitMix64::new(5);
        let mut divisors = vec![
            1,
            2,
            3,
            7,
            125,
            9_984,
            34_048,
            1 << 33 | 1,
            1 << 40,
            1 << 63,
            u64::MAX / 3,
            u64::MAX,
        ];
        divisors.extend((0..64).map(|_| rng.next_u64() | 1));
        divisors.extend((1..64).map(|k| 1u64 << k));
        for d in divisors {
            let magic = (u128::MAX / u128::from(d)).wrapping_add(1);
            let mut xs = vec![0, 1, d - 1, d, d.wrapping_add(1), u64::MAX - 1, u64::MAX];
            xs.extend((0..256).map(|_| rng.next_u64()));
            for x in xs {
                assert_eq!(fast_mod(x, magic, d), x % d, "{x} % {d}");
            }
        }
    }
}
