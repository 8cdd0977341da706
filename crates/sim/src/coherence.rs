//! A two-node directory coherence protocol (MSI) between the CPU's and the
//! GPU's private cache hierarchies.
//!
//! The paper's design space includes options with and without hardware
//! coherence between PUs (Table I's "coherence" column). The simulator keeps
//! a directory at the shared LLC: each line records the state it has in each
//! PU's private caches. Cross-PU sharing triggers interventions —
//! invalidations and dirty write-backs — whose latency the hierarchy charges
//! to the requester.

use hetmem_trace::PuKind;
use std::collections::{hash_map, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// Per-PU state of a line in the directory.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LineState {
    /// Not present in this PU's private caches.
    #[default]
    Invalid,
    /// Present, clean, possibly also at the peer.
    Shared,
    /// Present and dirty; the peer must not hold it.
    Modified,
}

/// What the requester must do (and pay for) to complete its access.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Intervention {
    /// The peer's copy must be invalidated.
    pub invalidate_peer: bool,
    /// The peer held the line modified; its data must be written back first.
    pub writeback_from_peer: bool,
}

impl Intervention {
    /// Whether any coherence action is required.
    #[must_use]
    pub fn is_needed(&self) -> bool {
        self.invalidate_peer || self.writeback_from_peer
    }

    /// The kind of intervention performed, if any.
    #[must_use]
    pub fn kind(&self) -> Option<InterventionKind> {
        if self.writeback_from_peer {
            Some(InterventionKind::WritebackInvalidate)
        } else if self.invalidate_peer {
            Some(InterventionKind::Invalidate)
        } else {
            None
        }
    }
}

/// The observable classes of coherence intervention.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InterventionKind {
    /// The peer's clean copy was invalidated.
    Invalidate,
    /// The peer's dirty copy was written back, then invalidated.
    WritebackInvalidate,
}

impl InterventionKind {
    /// Short machine-readable name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            InterventionKind::Invalidate => "invalidate",
            InterventionKind::WritebackInvalidate => "writeback-invalidate",
        }
    }
}

impl std::fmt::Display for InterventionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Directory statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoherenceStats {
    /// Peer invalidations performed.
    pub invalidations: u64,
    /// Dirty write-backs forced from the peer.
    pub peer_writebacks: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct Entry {
    cpu: LineState,
    gpu: LineState,
}

impl Entry {
    fn get(&self, pu: PuKind) -> LineState {
        match pu {
            PuKind::Cpu => self.cpu,
            PuKind::Gpu => self.gpu,
        }
    }

    fn set(&mut self, pu: PuKind, s: LineState) {
        match pu {
            PuKind::Cpu => self.cpu = s,
            PuKind::Gpu => self.gpu = s,
        }
    }
}

/// Hashes a line number with one folded multiply: the 128-bit product of
/// the key and an odd constant, high half XORed into low half, so every key
/// bit reaches the bucket bits and the tag bits alike. The directory is
/// consulted on every write hit and every private-cache miss, and its keys
/// come from the simulated program, so SipHash's flood resistance buys
/// nothing there.
#[derive(Clone, Copy, Debug, Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.0 ^ n) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (product >> 64) as u64 ^ product as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The MSI directory.
#[derive(Clone, Debug, Default)]
pub struct Directory {
    lines: HashMap<u64, Entry, BuildHasherDefault<LineHasher>>,
    stats: CoherenceStats,
}

impl Directory {
    /// Creates an empty directory.
    #[must_use]
    pub fn new() -> Directory {
        Directory::default()
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> CoherenceStats {
        self.stats
    }

    /// Forgets every tracked line and zeroes the counters (power-on state).
    /// The line map keeps its allocation so a recycled directory does not
    /// re-grow from empty.
    pub fn reset(&mut self) {
        self.lines.clear();
        self.stats = CoherenceStats::default();
    }

    /// The state `pu` currently holds `line` in (line = address / 64).
    #[must_use]
    pub fn state(&self, pu: PuKind, line: u64) -> LineState {
        self.lines
            .get(&line)
            .map_or(LineState::Invalid, |e| e.get(pu))
    }

    /// Records an access by `pu` and returns the intervention the requester
    /// must perform against the peer.
    pub fn on_access(&mut self, pu: PuKind, line: u64, write: bool) -> Intervention {
        let entry = self.lines.entry(line).or_default();
        let peer = pu.peer();
        let peer_state = entry.get(peer);

        let mut action = Intervention::default();
        match (write, peer_state) {
            (_, LineState::Modified) => {
                action.writeback_from_peer = true;
                action.invalidate_peer = true;
            }
            (true, LineState::Shared) => {
                action.invalidate_peer = true;
            }
            _ => {}
        }
        if action.invalidate_peer {
            entry.set(peer, LineState::Invalid);
            self.stats.invalidations += 1;
        }
        if action.writeback_from_peer {
            self.stats.peer_writebacks += 1;
        }
        entry.set(
            pu,
            if write {
                LineState::Modified
            } else {
                LineState::Shared
            },
        );
        action
    }

    /// Records that `pu` dropped `line` from its private caches (eviction).
    pub fn on_evict(&mut self, pu: PuKind, line: u64) {
        if let hash_map::Entry::Occupied(mut slot) = self.lines.entry(line) {
            let entry = slot.get_mut();
            entry.set(pu, LineState::Invalid);
            if entry.cpu == LineState::Invalid && entry.gpu == LineState::Invalid {
                slot.remove();
            }
        }
    }

    /// Number of lines the directory currently tracks.
    #[must_use]
    pub fn tracked_lines(&self) -> usize {
        self.lines.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn private_reads_need_no_intervention() {
        let mut d = Directory::new();
        assert!(!d.on_access(PuKind::Cpu, 1, false).is_needed());
        assert!(!d.on_access(PuKind::Cpu, 1, false).is_needed());
        assert_eq!(d.state(PuKind::Cpu, 1), LineState::Shared);
    }

    #[test]
    fn shared_read_by_both_is_free() {
        let mut d = Directory::new();
        d.on_access(PuKind::Cpu, 7, false);
        let a = d.on_access(PuKind::Gpu, 7, false);
        assert!(!a.is_needed());
        assert_eq!(d.state(PuKind::Cpu, 7), LineState::Shared);
        assert_eq!(d.state(PuKind::Gpu, 7), LineState::Shared);
    }

    #[test]
    fn write_invalidates_peer_sharer() {
        let mut d = Directory::new();
        d.on_access(PuKind::Cpu, 7, false);
        let a = d.on_access(PuKind::Gpu, 7, true);
        assert!(a.invalidate_peer);
        assert!(!a.writeback_from_peer);
        assert_eq!(d.state(PuKind::Cpu, 7), LineState::Invalid);
        assert_eq!(d.state(PuKind::Gpu, 7), LineState::Modified);
    }

    #[test]
    fn read_of_peer_modified_forces_writeback() {
        let mut d = Directory::new();
        d.on_access(PuKind::Gpu, 9, true);
        let a = d.on_access(PuKind::Cpu, 9, false);
        assert!(a.writeback_from_peer);
        assert!(a.invalidate_peer);
        assert_eq!(d.stats().peer_writebacks, 1);
    }

    #[test]
    fn ping_pong_generates_interventions_every_time() {
        let mut d = Directory::new();
        let mut interventions = 0;
        for i in 0..10 {
            let pu = if i % 2 == 0 { PuKind::Cpu } else { PuKind::Gpu };
            if d.on_access(pu, 42, true).is_needed() {
                interventions += 1;
            }
        }
        assert_eq!(interventions, 9); // all but the very first write
    }

    #[test]
    fn intervention_kind_classifies_actions() {
        assert_eq!(Intervention::default().kind(), None);
        let inv = Intervention {
            invalidate_peer: true,
            writeback_from_peer: false,
        };
        assert_eq!(inv.kind(), Some(InterventionKind::Invalidate));
        let wb = Intervention {
            invalidate_peer: true,
            writeback_from_peer: true,
        };
        assert_eq!(wb.kind(), Some(InterventionKind::WritebackInvalidate));
        assert_eq!(wb.kind().expect("needed").name(), "writeback-invalidate");
    }

    #[test]
    fn eviction_clears_state_and_garbage_collects() {
        let mut d = Directory::new();
        d.on_access(PuKind::Cpu, 3, true);
        assert_eq!(d.tracked_lines(), 1);
        d.on_evict(PuKind::Cpu, 3);
        assert_eq!(d.state(PuKind::Cpu, 3), LineState::Invalid);
        assert_eq!(d.tracked_lines(), 0);
        // Evicting an untracked line is a no-op.
        d.on_evict(PuKind::Gpu, 99);
    }
}
