//! A sequence of dynamic instructions executed by one processing unit.
//!
//! A stream is held in one of two forms behind one type. A stored stream
//! keeps a 16-byte slot per instruction: `.hmt` input and DSL-lowered
//! traces, built by [`TraceStream::push`] or `collect`. A generated stream
//! keeps only the spec a [`crate::TraceBuilder`] segment was made from
//! (see the `generated` module) and computes each instruction on demand.
//! Both read the same through [`TraceStream::get`], [`TraceStream::iter`]
//! and a [`Cursor`].

use crate::builder::{AddressPattern, InstMix, SplitMix64};
use crate::generated::{Spec, SpecCursor};
use crate::inst::{Addr, CommEvent, Inst, InstClass, SpecialOp};

/// An ordered sequence of dynamic instructions for a single PU.
///
/// Streams are the unit the simulator's cores consume, through a
/// [`Cursor`]. Building them is the job of [`crate::TraceBuilder`] and the
/// kernel generators.
///
/// A stream built by pushing instructions stores each in a 16-byte slot.
/// The rare communication events and special operations, whose payloads
/// would double that, live in per-stream side tables in stream order; their
/// slots hold only the table index. A stream a [`crate::TraceBuilder`]
/// generates stores only its spec. Equality compares the instruction
/// sequences, whatever the form.
#[derive(Clone, Debug, Default)]
pub struct TraceStream {
    repr: Repr,
}

#[derive(Clone, Debug)]
enum Repr {
    Stored(Stored),
    Generated(Spec),
}

impl Default for Repr {
    fn default() -> Repr {
        Repr::Stored(Stored::default())
    }
}

/// The slots of a stored stream and its side tables.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Stored {
    slots: Vec<Slot>,
    comms: Vec<CommEvent>,
    specials: Vec<SpecialOp>,
}

/// One stored instruction: an [`Inst`] whose `Comm` and `Special` payloads
/// are replaced by indices into the stream's side tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Slot {
    IntAlu,
    Mul,
    FpAlu,
    SimdAlu { lanes: u8 },
    Load { addr: Addr, bytes: u8 },
    Store { addr: Addr, bytes: u8 },
    Branch { taken: bool },
    Comm(u32),
    Special(u32),
}

/// Appends `entry` to a side table and returns its index. Out of line:
/// side-table entries are rare, and `push` stays small enough to inline
/// into the generators' loops.
#[cold]
#[inline(never)]
fn append<T>(table: &mut Vec<T>, entry: T) -> u32 {
    let index = u32::try_from(table.len())
        .expect("a stream holds fewer than 2^32 comm or special operations");
    table.push(entry);
    index
}

impl Stored {
    #[inline]
    fn push(&mut self, inst: Inst) {
        let slot = match inst {
            Inst::IntAlu => Slot::IntAlu,
            Inst::Mul => Slot::Mul,
            Inst::FpAlu => Slot::FpAlu,
            Inst::SimdAlu { lanes } => Slot::SimdAlu { lanes },
            Inst::Load { addr, bytes } => Slot::Load { addr, bytes },
            Inst::Store { addr, bytes } => Slot::Store { addr, bytes },
            Inst::Branch { taken } => Slot::Branch { taken },
            Inst::Comm(event) => Slot::Comm(append(&mut self.comms, event)),
            Inst::Special(op) => Slot::Special(append(&mut self.specials, op)),
        };
        self.slots.push(slot);
    }

    #[inline]
    fn get(&self, index: usize) -> Inst {
        match self.slots[index] {
            Slot::IntAlu => Inst::IntAlu,
            Slot::Mul => Inst::Mul,
            Slot::FpAlu => Inst::FpAlu,
            Slot::SimdAlu { lanes } => Inst::SimdAlu { lanes },
            Slot::Load { addr, bytes } => Inst::Load { addr, bytes },
            Slot::Store { addr, bytes } => Inst::Store { addr, bytes },
            Slot::Branch { taken } => Inst::Branch { taken },
            Slot::Comm(k) => Inst::Comm(self.comms[k as usize]),
            Slot::Special(k) => Inst::Special(self.specials[k as usize]),
        }
    }
}

impl TraceStream {
    /// Creates an empty stream.
    #[must_use]
    pub fn new() -> TraceStream {
        TraceStream::default()
    }

    /// Creates an empty stream with room for `cap` instructions.
    #[must_use]
    pub fn with_capacity(cap: usize) -> TraceStream {
        TraceStream {
            repr: Repr::Stored(Stored {
                slots: Vec::with_capacity(cap),
                ..Stored::default()
            }),
        }
    }

    /// A generated stream: exactly `count` instructions repeating `mix`'s
    /// loop body, addresses from `pattern`, one outcome drawn from `rng`
    /// per branch.
    ///
    /// # Panics
    ///
    /// Panics if every weight of `mix` is zero.
    pub(crate) fn generated(
        count: usize,
        mix: InstMix,
        pattern: AddressPattern,
        rng: SplitMix64,
    ) -> TraceStream {
        TraceStream {
            repr: Repr::Generated(Spec::new(count, mix, pattern, rng)),
        }
    }

    /// Number of dynamic instructions in the stream.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Stored(s) => s.slots.len(),
            Repr::Generated(spec) => spec.len(),
        }
    }

    /// Whether the stream contains no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The stored form, converting a generated stream into it first.
    fn stored_mut(&mut self) -> &mut Stored {
        if let Repr::Generated(_) = self.repr {
            let mut stored = Stored {
                slots: Vec::with_capacity(self.len()),
                ..Stored::default()
            };
            for inst in self.iter() {
                stored.push(inst);
            }
            self.repr = Repr::Stored(stored);
        }
        match &mut self.repr {
            Repr::Stored(s) => s,
            Repr::Generated(_) => unreachable!("converted above"),
        }
    }

    /// Appends one instruction. A generated stream is converted to the
    /// stored form first.
    #[inline]
    pub fn push(&mut self, inst: Inst) {
        self.stored_mut().push(inst);
    }

    /// The instruction at position `index`, in O(1) in either form.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    ///
    /// ```
    /// use hetmem_trace::{Inst, TraceStream};
    /// let s: TraceStream = [Inst::IntAlu, Inst::Branch { taken: true }].into_iter().collect();
    /// assert_eq!(s.get(1), Inst::Branch { taken: true });
    /// ```
    #[must_use]
    pub fn get(&self, index: usize) -> Inst {
        assert!(
            index < self.len(),
            "index {index} out of a stream of {}",
            self.len()
        );
        let mut cursor = self.cursor();
        cursor.seek(index);
        cursor.next_inst()
    }

    /// A cursor at the stream's first instruction.
    #[must_use]
    pub fn cursor(&self) -> Cursor<'_> {
        let inner = match &self.repr {
            Repr::Stored(stream) => Inner::Stored(stream),
            Repr::Generated(spec) => Inner::Generated(spec.cursor()),
        };
        Cursor {
            idx: 0,
            len: self.len(),
            inner,
        }
    }

    /// Iterator over the instructions, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Inst> + '_ {
        self.cursor()
    }

    /// Counts instructions in each coarse class.
    ///
    /// ```
    /// use hetmem_trace::{Inst, InstClass, TraceStream};
    /// let s: TraceStream = [Inst::IntAlu, Inst::Branch { taken: true }].into_iter().collect();
    /// assert_eq!(s.class_count(InstClass::Branch), 1);
    /// ```
    #[must_use]
    pub fn class_count(&self, class: InstClass) -> usize {
        match (&self.repr, class) {
            (Repr::Generated(spec), _) => spec.class_count(class),
            (Repr::Stored(s), InstClass::Comm) => s.comms.len(),
            (Repr::Stored(s), InstClass::Special) => s.specials.len(),
            (Repr::Stored(_), _) => self.iter().filter(|i| i.class() == class).count(),
        }
    }

    /// The communication events in this stream, in order.
    pub(crate) fn comm_events(&self) -> &[CommEvent] {
        match &self.repr {
            Repr::Stored(s) => &s.comms,
            Repr::Generated(_) => &[],
        }
    }

    /// Total bytes moved by the communication events in this stream.
    #[must_use]
    pub fn comm_bytes(&self) -> u64 {
        self.comm_events().iter().map(|ev| ev.bytes).sum()
    }

    /// Number of communication events in this stream.
    #[must_use]
    pub fn comm_count(&self) -> usize {
        self.comm_events().len()
    }
}

impl PartialEq for TraceStream {
    fn eq(&self, other: &TraceStream) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Stored(a), Repr::Stored(b)) => a == b,
            (Repr::Generated(a), Repr::Generated(b)) if a == b => true,
            _ => self.len() == other.len() && self.iter().eq(other.iter()),
        }
    }
}

impl Eq for TraceStream {}

impl FromIterator<Inst> for TraceStream {
    fn from_iter<T: IntoIterator<Item = Inst>>(iter: T) -> TraceStream {
        let mut stream = TraceStream::new();
        stream.extend(iter);
        stream
    }
}

impl Extend<Inst> for TraceStream {
    fn extend<T: IntoIterator<Item = Inst>>(&mut self, iter: T) {
        let iter = iter.into_iter();
        let stored = self.stored_mut();
        stored.slots.reserve(iter.size_hint().0);
        for inst in iter {
            stored.push(inst);
        }
    }
}

/// A sequential reader of a [`TraceStream`], the way the simulator's cores
/// consume one: [`Cursor::next_inst`] reads a stored slot or computes a
/// generated instruction by stepping the generator's state, and
/// [`Cursor::seek`] jumps to any index in O(1).
///
/// ```
/// use hetmem_trace::{Inst, TraceStream};
/// let s: TraceStream = [Inst::IntAlu, Inst::FpAlu, Inst::Mul].into_iter().collect();
/// let mut c = s.cursor();
/// assert_eq!(c.next_inst(), Inst::IntAlu);
/// c.seek(2);
/// assert_eq!(c.next_inst(), Inst::Mul);
/// assert!(c.is_done());
/// ```
#[derive(Clone, Debug)]
pub struct Cursor<'a> {
    /// Index of the next instruction.
    idx: usize,
    /// Number of instructions in the stream.
    len: usize,
    inner: Inner<'a>,
}

#[derive(Clone, Debug)]
enum Inner<'a> {
    Stored(&'a Stored),
    Generated(SpecCursor<'a>),
}

impl Cursor<'_> {
    /// Index of the next instruction.
    #[must_use]
    pub fn index(&self) -> usize {
        self.idx
    }

    /// Whether every instruction has been read.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.idx == self.len
    }

    /// Reads the next instruction.
    ///
    /// # Panics
    ///
    /// Panics if the cursor [`is_done`](Cursor::is_done).
    #[inline(always)]
    pub fn next_inst(&mut self) -> Inst {
        assert!(self.idx < self.len, "read past the end of a stream");
        let index = self.idx;
        self.idx += 1;
        match &mut self.inner {
            Inner::Stored(stream) => stream.get(index),
            Inner::Generated(c) => c.next_inst(),
        }
    }

    /// Moves the cursor to instruction `index` (the stream's length moves
    /// it to the end).
    ///
    /// # Panics
    ///
    /// Panics if `index > len`.
    pub fn seek(&mut self, index: usize) {
        assert!(index <= self.len, "seek past the end of a stream");
        self.idx = index;
        if let Inner::Generated(c) = &mut self.inner {
            c.seek(index);
        }
    }

    /// Skips up to `max` instructions without reading them, stopping early
    /// before a programming-model special, and returns how many it
    /// skipped. A generated stream holds no specials, so it skips in O(1).
    pub fn skip_plain(&mut self, max: usize) -> usize {
        let start = self.idx;
        let stop = self.len.min(start.saturating_add(max));
        match &mut self.inner {
            Inner::Stored(stream) => {
                while self.idx < stop && !matches!(stream.slots[self.idx], Slot::Special(_)) {
                    self.idx += 1;
                }
            }
            Inner::Generated(c) => {
                c.seek(stop);
                self.idx = stop;
            }
        }
        self.idx - start
    }
}

impl Iterator for Cursor<'_> {
    type Item = Inst;

    fn next(&mut self) -> Option<Inst> {
        (!self.is_done()).then(|| self.next_inst())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.len - self.idx;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Cursor<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{CommKind, TransferDirection};

    #[test]
    fn slot_is_compact() {
        // Stored streams (`.hmt` input, DSL-lowered traces) can be long:
        // at 16 bytes a slot they take half the pages full `Inst`s would.
        assert!(
            std::mem::size_of::<Slot>() <= 16,
            "{}",
            std::mem::size_of::<Slot>()
        );
    }

    #[test]
    #[should_panic(expected = "read past the end of a stream")]
    fn a_stored_cursor_panics_past_the_end() {
        let s: TraceStream = [Inst::IntAlu].into_iter().collect();
        let mut cursor = s.cursor();
        cursor.next_inst();
        cursor.next_inst();
    }

    #[test]
    #[should_panic(expected = "read past the end of a stream")]
    fn a_generated_cursor_panics_past_the_end() {
        let pattern = AddressPattern::Stream {
            base: 0,
            len: 64,
            stride: 8,
        };
        let s = TraceStream::generated(3, InstMix::cpu_compute(), pattern, SplitMix64::new(1));
        let mut cursor = s.cursor();
        for _ in 0..3 {
            cursor.next_inst();
        }
        assert!(cursor.is_done());
        cursor.next_inst();
    }

    #[test]
    fn push_and_len() {
        let mut s = TraceStream::new();
        assert!(s.is_empty());
        s.push(Inst::IntAlu);
        s.push(Inst::FpAlu);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn collect_and_extend() {
        let mut s: TraceStream = std::iter::repeat_n(Inst::IntAlu, 3).collect();
        s.extend([Inst::Branch { taken: false }]);
        assert_eq!(s.len(), 4);
        assert_eq!(s.class_count(InstClass::IntOp), 3);
        assert_eq!(s.class_count(InstClass::Branch), 1);
    }

    #[test]
    fn comm_accounting() {
        let ev = |bytes| {
            Inst::Comm(CommEvent {
                direction: TransferDirection::HostToDevice,
                bytes,
                kind: CommKind::InitialInput,
                addr: 0x1000,
            })
        };
        let s: TraceStream = [ev(100), Inst::IntAlu, ev(28)].into_iter().collect();
        assert_eq!(s.comm_count(), 2);
        assert_eq!(s.comm_bytes(), 128);
        assert_eq!(s.get(2), ev(28));
    }

    #[test]
    fn side_tables_follow_every_kind_of_append() {
        let special = Inst::Special(SpecialOp::Release {
            addr: 0x40,
            bytes: 64,
        });
        let comm = Inst::Comm(CommEvent {
            direction: TransferDirection::DeviceToHost,
            bytes: 8,
            kind: CommKind::ResultReturn,
            addr: 0,
        });
        let mut s: TraceStream = [comm, Inst::IntAlu, special].into_iter().collect();
        s.push(special);
        s.extend([Inst::FpAlu, comm, comm]);
        assert_eq!(s.comm_count(), 3);
        assert_eq!(s.class_count(InstClass::Special), 2);
        let want = [
            comm,
            Inst::IntAlu,
            special,
            special,
            Inst::FpAlu,
            comm,
            comm,
        ];
        assert!(s.iter().eq(want));
    }
}
