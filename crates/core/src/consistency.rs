//! Executable memory-consistency semantics for the two-PU system.
//!
//! Every system the paper surveys is *weakly consistent* (Table I's
//! consistency column), and the ideal design point is "fully coherent and
//! strongly consistent". This module makes those notions executable: a
//! small litmus-test engine enumerates every outcome a two-PU program can
//! produce under
//!
//! * [`ConsistencyModel::SequentialConsistency`] — operations of both PUs
//!   interleave, each read sees the latest write; and
//! * [`ConsistencyModel::Weak`] — each PU's writes sit in a store buffer
//!   and drain at arbitrary times **in arbitrary order across locations**
//!   (same-location order is preserved — per-location coherence); reads
//!   forward from the own buffer and [`Op::Fence`] drains it. This is the
//!   weakly-ordered model of the surveyed systems, where even same-thread
//!   writes to different locations may become visible out of order.
//!
//! The ownership operations of the partially shared space map onto this:
//! `releaseOwnership` is a fence followed by making the object available;
//! `acquireOwnership` blocks until available. The tests demonstrate the
//! paper's §II-A3 claim operationally: the shared window needs **no
//! coherence or strong consistency** because properly-ownership-annotated
//! programs produce exactly their sequentially-consistent outcomes even
//! under the weak model.

use std::collections::BTreeSet;

/// A shared-memory location in a litmus test (small namespace).
pub type Loc = u8;

/// One operation of a litmus-test thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    /// Write `value` to `loc`.
    Write {
        /// Location written.
        loc: Loc,
        /// Value written.
        value: u8,
    },
    /// Read `loc` into the thread's observation log.
    Read {
        /// Location read.
        loc: Loc,
    },
    /// Drain the store buffer (memory fence).
    Fence,
    /// Release ownership of `loc` (fence + publish availability).
    Release {
        /// Object released.
        loc: Loc,
    },
    /// Acquire ownership of `loc` (blocks until released by the peer or
    /// never held).
    Acquire {
        /// Object acquired.
        loc: Loc,
    },
}

/// Which memory-consistency model to enumerate under.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ConsistencyModel {
    /// Strong: one global interleaving, writes visible immediately.
    SequentialConsistency,
    /// Weak: per-PU store buffers draining in arbitrary cross-location order.
    Weak,
}

/// An outcome: the values observed by each thread's reads, in program
/// order. `outcome.0[t]` is thread `t`'s observation list.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Outcome(pub [Vec<u8>; 2]);

const NUM_LOCS: usize = 4;

#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct State {
    /// Next op index per thread.
    pc: [usize; 2],
    /// Global memory.
    mem: [u8; NUM_LOCS],
    /// Store buffers (weak model only); same-location order is preserved.
    buffers: [Vec<(Loc, u8)>; 2],
    /// Ownership: which thread currently holds each loc (2 = free).
    owner: [u8; NUM_LOCS],
    /// Observed reads per thread.
    observed: [Vec<u8>; 2],
}

/// Enumerates every outcome of the two-thread program under `model`.
///
/// # Panics
///
/// Panics if any operation names a location `>= 4` (the engine's small,
/// exhaustively-enumerable namespace).
#[must_use]
pub fn enumerate_outcomes(threads: &[Vec<Op>; 2], model: ConsistencyModel) -> BTreeSet<Outcome> {
    for t in threads {
        for op in t {
            let loc = match op {
                Op::Write { loc, .. }
                | Op::Read { loc }
                | Op::Release { loc }
                | Op::Acquire { loc } => Some(*loc),
                Op::Fence => None,
            };
            if let Some(l) = loc {
                assert!((l as usize) < NUM_LOCS, "locations must be < {NUM_LOCS}");
            }
        }
    }
    let init = State {
        pc: [0, 0],
        mem: [0; NUM_LOCS],
        buffers: [Vec::new(), Vec::new()],
        // Every object starts owned by thread 0 (the host allocates it),
        // matching the ownership tracker's convention.
        owner: [0; NUM_LOCS],
        observed: [Vec::new(), Vec::new()],
    };
    let mut outcomes = BTreeSet::new();
    let mut visited = BTreeSet::new();
    explore(threads, model, init, &mut outcomes, &mut visited);
    outcomes
}

/// Drains the buffered write at `idx` (caller guarantees no older write to
/// the same location sits before it — per-location coherence).
fn drain_at(state: &mut State, t: usize, idx: usize) {
    let (loc, value) = state.buffers[t].remove(idx);
    state.mem[loc as usize] = value;
}

/// Indices of buffer entries that may drain next: the oldest write to each
/// location.
fn drainable(buffer: &[(Loc, u8)]) -> Vec<usize> {
    (0..buffer.len())
        .filter(|&i| buffer[..i].iter().all(|(l, _)| *l != buffer[i].0))
        .collect()
}

fn explore(
    threads: &[Vec<Op>; 2],
    model: ConsistencyModel,
    state: State,
    outcomes: &mut BTreeSet<Outcome>,
    visited: &mut BTreeSet<State>,
) {
    if !visited.insert(state.clone()) {
        return;
    }
    let done = state.pc[0] == threads[0].len() && state.pc[1] == threads[1].len();
    if done && state.buffers.iter().all(Vec::is_empty) {
        outcomes.insert(Outcome(state.observed.clone()));
        return;
    }

    // Non-deterministic buffer drains (weak model): any location's oldest
    // pending write may become visible next.
    if model == ConsistencyModel::Weak {
        for t in 0..2 {
            for idx in drainable(&state.buffers[t]) {
                let mut next = state.clone();
                drain_at(&mut next, t, idx);
                explore(threads, model, next, outcomes, visited);
            }
        }
    }

    // Thread steps.
    for t in 0..2 {
        let Some(op) = threads[t].get(state.pc[t]).copied() else {
            continue;
        };
        let mut next = state.clone();
        next.pc[t] += 1;
        match op {
            Op::Write { loc, value } => match model {
                ConsistencyModel::SequentialConsistency => {
                    next.mem[loc as usize] = value;
                }
                ConsistencyModel::Weak => {
                    next.buffers[t].push((loc, value));
                }
            },
            Op::Read { loc } => {
                // Store-to-load forwarding from the own buffer.
                let from_buffer = next.buffers[t]
                    .iter()
                    .rev()
                    .find(|(l, _)| *l == loc)
                    .map(|(_, v)| *v);
                let value = from_buffer.unwrap_or(next.mem[loc as usize]);
                next.observed[t].push(value);
            }
            Op::Fence => {
                while !next.buffers[t].is_empty() {
                    drain_at(&mut next, t, 0);
                }
            }
            Op::Release { loc } => {
                // Only the owner may release; a non-owner release is a
                // protocol violation and that execution path is dropped
                // (on lowered programs, `hetmem check` holds accesses to
                // the protocol as HM0105).
                if next.owner[loc as usize] != t as u8 {
                    continue;
                }
                // Release implies a full fence: the object's data is
                // globally visible before it becomes available.
                while !next.buffers[t].is_empty() {
                    drain_at(&mut next, t, 0);
                }
                next.owner[loc as usize] = 2;
            }
            Op::Acquire { loc } => {
                // Blocks until free (or already ours).
                match next.owner[loc as usize] {
                    o if o == t as u8 => {}
                    2 => next.owner[loc as usize] = t as u8,
                    _ => continue, // not yet available: this step can't fire
                }
            }
        }
        explore(threads, model, next, outcomes, visited);
    }
}

/// Convenience: whether `outcome` is producible by the program under
/// `model`.
#[must_use]
pub fn allows(threads: &[Vec<Op>; 2], model: ConsistencyModel, outcome: &Outcome) -> bool {
    enumerate_outcomes(threads, model).contains(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    const X: Loc = 0;
    const Y: Loc = 1;

    fn w(loc: Loc, value: u8) -> Op {
        Op::Write { loc, value }
    }
    fn r(loc: Loc) -> Op {
        Op::Read { loc }
    }

    /// The classic store-buffering litmus (SB):
    /// T0: x=1; read y.   T1: y=1; read x.
    fn sb() -> [Vec<Op>; 2] {
        [vec![w(X, 1), r(Y)], vec![w(Y, 1), r(X)]]
    }

    #[test]
    fn sc_forbids_store_buffering_relaxation() {
        let zz = Outcome([vec![0], vec![0]]);
        assert!(!allows(&sb(), ConsistencyModel::SequentialConsistency, &zz));
    }

    #[test]
    fn weak_allows_store_buffering_relaxation() {
        let zz = Outcome([vec![0], vec![0]]);
        assert!(allows(&sb(), ConsistencyModel::Weak, &zz));
    }

    #[test]
    fn weak_is_a_superset_of_sc() {
        for prog in [sb(), [vec![w(X, 1), w(Y, 1)], vec![r(Y), r(X)]]] {
            let sc = enumerate_outcomes(&prog, ConsistencyModel::SequentialConsistency);
            let weak = enumerate_outcomes(&prog, ConsistencyModel::Weak);
            assert!(sc.is_subset(&weak), "every SC outcome is weak-reachable");
        }
    }

    #[test]
    fn fences_restore_sc_for_store_buffering() {
        let fenced: [Vec<Op>; 2] = [
            vec![w(X, 1), Op::Fence, r(Y)],
            vec![w(Y, 1), Op::Fence, r(X)],
        ];
        let sc = enumerate_outcomes(&fenced, ConsistencyModel::SequentialConsistency);
        let weak = enumerate_outcomes(&fenced, ConsistencyModel::Weak);
        assert_eq!(sc, weak);
    }

    #[test]
    fn message_passing_breaks_under_weak_without_ownership() {
        // T0 writes data x then flag y; T1 reads flag then data. Weak order
        // lets T1 see flag=1 but stale data=0.
        let mp: [Vec<Op>; 2] = [vec![w(X, 42), w(Y, 1)], vec![r(Y), r(X)]];
        let stale = Outcome([vec![], vec![1, 0]]);
        assert!(!allows(
            &mp,
            ConsistencyModel::SequentialConsistency,
            &stale
        ));
        assert!(allows(&mp, ConsistencyModel::Weak, &stale));
    }

    #[test]
    fn ownership_protocol_restores_sc_for_message_passing() {
        // The Figure 2b idiom: the producer writes the shared object and
        // releases it; the consumer acquires before reading. This is the
        // paper's §II-A3 claim — the partially shared window needs no
        // coherence because ownership transfer orders everything.
        let mp_owned: [Vec<Op>; 2] = [
            vec![w(X, 42), Op::Release { loc: X }],
            vec![Op::Acquire { loc: X }, r(X)],
        ];
        let sc = enumerate_outcomes(&mp_owned, ConsistencyModel::SequentialConsistency);
        let weak = enumerate_outcomes(&mp_owned, ConsistencyModel::Weak);
        assert_eq!(sc, weak, "ownership-annotated program is SC under weak");
        // And the only outcome is the fresh value.
        assert_eq!(weak, BTreeSet::from([Outcome([vec![], vec![42]])]));
    }

    #[test]
    fn acquire_blocks_until_release() {
        // Without the release, the consumer can never acquire (thread 0
        // owns everything initially), so its read never executes — the
        // enumeration has no terminal state with the read performed.
        let no_release: [Vec<Op>; 2] = [vec![w(X, 42)], vec![Op::Acquire { loc: X }, r(X)]];
        for model in [
            ConsistencyModel::SequentialConsistency,
            ConsistencyModel::Weak,
        ] {
            let outcomes = enumerate_outcomes(&no_release, model);
            assert!(
                outcomes.iter().all(|o| o.0[1].is_empty()),
                "{model:?}: consumer must stay blocked, got {outcomes:?}"
            );
        }
    }

    #[test]
    fn store_forwarding_sees_own_writes_early() {
        // A thread always reads its own buffered write (no stale self-read).
        let prog: [Vec<Op>; 2] = [vec![w(X, 7), r(X)], vec![]];
        let weak = enumerate_outcomes(&prog, ConsistencyModel::Weak);
        assert!(weak.iter().all(|o| o.0[0] == vec![7]), "{weak:?}");
    }

    #[test]
    #[should_panic(expected = "locations must be")]
    fn out_of_range_location_panics() {
        let bad: [Vec<Op>; 2] = [vec![r(9)], vec![]];
        let _ = enumerate_outcomes(&bad, ConsistencyModel::Weak);
    }
}
