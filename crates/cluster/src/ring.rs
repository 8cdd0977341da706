//! The consistent-hash ring that partitions the content-addressed job
//! key space across cluster nodes.
//!
//! Each node is placed on a 64-bit ring at [`VNODES`] positions (the
//! mixed digest of `"addr#i"` for `i` in `0..VNODES`); a key is owned
//! by the node whose virtual node is the first at or clockwise after
//! the key's own mixed digest — the private `position` function says
//! why the raw FNV-1a digest is finalized before placement.
//! Virtual nodes smooth the partition (with one point per
//! node, a 3-node ring routinely gives one node most of the space) and,
//! crucially, make membership changes *minimal*: when a node dies, only
//! the keys it owned move — each to the next surviving virtual node —
//! while every other key keeps its owner. That property is what lets
//! survivors keep answering from their warm caches after a peer death.
//!
//! The ring is a pure value: [`ClusterNode`](crate::ClusterNode)
//! rebuilds it from the live member set on every membership change, and
//! tests rebuild it from the same addresses to predict ownership.

use hetmem_core::hash::fnv1a;

/// Virtual nodes per member. 32 keeps the largest/smallest ownership
/// arc within a small factor for the fleet sizes the service targets
/// while keeping ring rebuilds trivially cheap.
pub const VNODES: usize = 32;

/// A key or virtual node's position on the 64-bit ring.
///
/// Raw FNV-1a is a fine identity hash but a poor *placement* hash:
/// inputs differing only in a short suffix (`addr#0` … `addr#31`, or
/// neighbouring port numbers) land in one tight arc, because the last
/// bytes pass through too few multiply rounds to reach the high bits.
/// A 3-node ring placed on raw digests routinely gave one node ~65% of
/// the key space and another ~0%. The splitmix64 finalizer on top
/// restores avalanche — every output bit depends on every input bit —
/// while staying pinned to the same stable FNV digests.
#[must_use]
fn position(bytes: &[u8]) -> u64 {
    let mut x = fnv1a(bytes);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// A consistent-hash ring over node addresses.
#[derive(Clone, Debug)]
pub struct Ring {
    /// `(position, node index)`, sorted by position.
    points: Vec<(u64, usize)>,
    nodes: Vec<String>,
}

impl Ring {
    /// Builds a ring over `nodes` with [`VNODES`] virtual nodes each.
    /// Duplicate addresses are collapsed; node order does not matter —
    /// two rings over the same set are identical.
    #[must_use]
    pub fn new(nodes: &[String]) -> Ring {
        let mut unique: Vec<String> = nodes.to_vec();
        unique.sort();
        unique.dedup();
        let mut points = Vec::with_capacity(unique.len() * VNODES);
        for (index, node) in unique.iter().enumerate() {
            for v in 0..VNODES {
                points.push((position(format!("{node}#{v}").as_bytes()), index));
            }
        }
        // Ties (astronomically unlikely) break on the sorted node index
        // so the ring stays order-independent.
        points.sort_unstable();
        Ring {
            points,
            nodes: unique,
        }
    }

    /// The number of distinct nodes on the ring.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the ring has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The addresses on the ring, sorted.
    #[must_use]
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// The node that owns `key`: the node of the first virtual point at
    /// or clockwise after the key's position, wrapping past the top of
    /// the ring. `None` when the ring is empty.
    #[must_use]
    pub fn owner(&self, key: &str) -> Option<&str> {
        let position = position(key.as_bytes());
        let at = self.points.partition_point(|&(p, _)| p < position);
        let &(_, index) = self.points.get(at).or_else(|| self.points.first())?;
        Some(&self.nodes[index])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:{}", 9301 + i)).collect()
    }

    #[test]
    fn ownership_is_deterministic_and_order_independent() {
        let forward = Ring::new(&addrs(3));
        let mut reversed = addrs(3);
        reversed.reverse();
        let backward = Ring::new(&reversed);
        for i in 0..200 {
            let key = format!("key-{i}");
            assert_eq!(forward.owner(&key), backward.owner(&key));
        }
    }

    #[test]
    fn every_node_owns_a_share() {
        let ring = Ring::new(&addrs(3));
        let mut counts = [0usize; 3];
        for i in 0..600 {
            let owner = ring.owner(&format!("key-{i}")).expect("owner");
            let index = ring.nodes().iter().position(|n| n == owner).expect("known");
            counts[index] += 1;
        }
        for (i, &count) in counts.iter().enumerate() {
            assert!(count > 60, "node {i} owns only {count}/600 keys");
        }
    }

    #[test]
    fn removing_a_node_moves_only_its_keys() {
        let full = Ring::new(&addrs(3));
        let survivors: Vec<String> = addrs(3).into_iter().take(2).collect();
        let reduced = Ring::new(&survivors);
        let dead = &addrs(3)[2];
        let mut moved = 0;
        for i in 0..400 {
            let key = format!("key-{i}");
            let before = full.owner(&key).expect("owner").to_owned();
            let after = reduced.owner(&key).expect("owner").to_owned();
            if before == *dead {
                moved += 1;
            } else {
                assert_eq!(before, after, "stable key {key} moved");
            }
        }
        assert!(moved > 0, "the removed node owned nothing");
    }

    #[test]
    fn an_empty_ring_owns_nothing() {
        assert!(Ring::new(&[]).owner("key").is_none());
    }
}
