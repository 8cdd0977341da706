//! A sequence of dynamic instructions executed by one processing unit.

use crate::inst::{Inst, InstClass};

/// An ordered sequence of dynamic instructions for a single PU.
///
/// Streams are the unit the simulator's cores consume. They are plain data:
/// building them is the job of [`crate::TraceBuilder`] and the kernel
/// generators.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceStream {
    insts: Vec<Inst>,
    tally: Tally,
}

/// Counts of the two instruction classes the phase-shape rules ask about,
/// kept by every append so validating a trace costs O(segments), not a
/// rescan of millions of instructions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Tally {
    comm: usize,
    special: usize,
}

impl Tally {
    fn add(&mut self, inst: &Inst) {
        match inst {
            Inst::Comm(_) => self.comm += 1,
            Inst::Special(_) => self.special += 1,
            _ => {}
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
            insts: Vec::with_capacity(cap),
            tally: Tally::default(),
        }
    }

    /// Number of dynamic instructions in the stream.
    #[must_use]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the stream contains no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Appends one instruction.
    pub fn push(&mut self, inst: Inst) {
        self.tally.add(&inst);
        self.insts.push(inst);
    }

    /// Borrowing iterator over the instructions.
    pub fn iter(&self) -> std::slice::Iter<'_, Inst> {
        self.insts.iter()
    }

    /// The instructions as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[Inst] {
        &self.insts
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
            InstClass::Comm => self.tally.comm,
            InstClass::Special => self.tally.special,
            _ => self.insts.iter().filter(|i| i.class() == class).count(),
        }
    }

    /// Total bytes moved by the communication events in this stream.
    #[must_use]
    pub fn comm_bytes(&self) -> u64 {
        self.insts
            .iter()
            .filter_map(Inst::comm_event)
            .map(|ev| ev.bytes)
            .sum()
    }

    /// Number of communication events in this stream.
    #[must_use]
    pub fn comm_count(&self) -> usize {
        self.tally.comm
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
        let tally = &mut self.tally;
        self.insts
            .extend(iter.into_iter().inspect(|inst| tally.add(inst)));
    }
}

impl<'a> IntoIterator for &'a TraceStream {
    type Item = &'a Inst;
    type IntoIter = std::slice::Iter<'a, Inst>;

    fn into_iter(self) -> Self::IntoIter {
        self.insts.iter()
    }
}

impl IntoIterator for TraceStream {
    type Item = Inst;
    type IntoIter = std::vec::IntoIter<Inst>;

    fn into_iter(self) -> Self::IntoIter {
        self.insts.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{CommEvent, CommKind, TransferDirection};

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
    }

    #[test]
    fn kept_counts_follow_every_kind_of_append() {
        let special = Inst::Special(crate::inst::SpecialOp::Release {
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
    }
}
