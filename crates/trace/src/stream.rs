//! A sequence of dynamic instructions executed by one processing unit.

use crate::inst::{Addr, CommEvent, Inst, InstClass, SpecialOp};

/// An ordered sequence of dynamic instructions for a single PU.
///
/// Streams are the unit the simulator's cores consume. They are plain data:
/// building them is the job of [`crate::TraceBuilder`] and the kernel
/// generators.
///
/// Each instruction is stored in a 16-byte slot. The rare communication
/// events and special operations, whose payloads would double that, live in
/// per-stream side tables in stream order; their slots hold only the table
/// index. [`TraceStream::get`] and [`TraceStream::iter`] hand back full
/// [`Inst`] values.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceStream {
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
            slots: Vec::with_capacity(cap),
            ..TraceStream::default()
        }
    }

    /// Number of dynamic instructions in the stream.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the stream contains no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Appends one instruction.
    #[inline]
    pub fn push(&mut self, inst: Inst) {
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

    /// The instruction at position `index`.
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
    #[inline]
    #[must_use]
    pub fn get(&self, index: usize) -> Inst {
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

    /// Iterator over the instructions, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Inst> + '_ {
        (0..self.len()).map(|i| self.get(i))
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
        match class {
            InstClass::Comm => self.comms.len(),
            InstClass::Special => self.specials.len(),
            _ => self.iter().filter(|i| i.class() == class).count(),
        }
    }

    /// The communication events in this stream, in order.
    pub(crate) fn comm_events(&self) -> &[CommEvent] {
        &self.comms
    }

    /// Total bytes moved by the communication events in this stream.
    #[must_use]
    pub fn comm_bytes(&self) -> u64 {
        self.comms.iter().map(|ev| ev.bytes).sum()
    }

    /// Number of communication events in this stream.
    #[must_use]
    pub fn comm_count(&self) -> usize {
        self.comms.len()
    }
}

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
        self.slots.reserve(iter.size_hint().0);
        for inst in iter {
            self.push(inst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{CommKind, TransferDirection};

    #[test]
    fn slot_is_compact() {
        // The six scale-1 kernel traces hold ~27.5 M instructions; at 16
        // bytes a slot they fault in half the pages full `Inst`s would.
        assert!(
            std::mem::size_of::<Slot>() <= 16,
            "{}",
            std::mem::size_of::<Slot>()
        );
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
