//! A fixed-shape tournament tree: the least `(key, slot)` pair over `n`
//! slots in O(1), a point update in O(log n).
//!
//! Pairs compare by key, then by slot index, so equal keys resolve to the
//! lowest slot — the fleet's `(horizon, chip id)` tie-break. The router
//! keeps one over its chips' finish horizons to find the least-loaded
//! routable chip.

/// Sentinel of an empty slot: above every packed `(key, slot)` pair,
/// because no slot index reaches `u64::MAX`.
const EMPTY: u128 = u128::MAX;

/// Min-tree over `2 · next_pow2(n)` nodes; node `i` is the least of its
/// children `2i` and `2i + 1`, and the leaves start at `base`.
#[derive(Debug, Clone)]
pub(crate) struct MinTree {
    base: usize,
    /// Each node packs `key << 64 | slot`, or holds [`EMPTY`].
    nodes: Vec<u128>,
}

impl MinTree {
    /// A tree over `n` slots, all empty.
    pub(crate) fn new(n: usize) -> Self {
        let base = n.max(1).next_power_of_two();
        MinTree {
            base,
            nodes: vec![EMPTY; 2 * base],
        }
    }

    /// Sets `slot`'s key (occupying the slot if it was empty).
    pub(crate) fn set(&mut self, slot: usize, key: u64) {
        self.put(slot, (u128::from(key) << 64) | slot as u128);
    }

    /// Empties `slot`: it no longer competes for the minimum.
    pub(crate) fn clear(&mut self, slot: usize) {
        self.put(slot, EMPTY);
    }

    /// The least `(key, slot)` over occupied slots, `None` if all are
    /// empty.
    pub(crate) fn min(&self) -> Option<(u64, usize)> {
        let top = self.nodes[1];
        (top != EMPTY).then_some(((top >> 64) as u64, top as u64 as usize))
    }

    fn put(&mut self, slot: usize, packed: u128) {
        let mut i = self.base + slot;
        self.nodes[i] = packed;
        while i > 1 {
            i /= 2;
            let least = self.nodes[2 * i].min(self.nodes[2 * i + 1]);
            if self.nodes[i] == least {
                // Every ancestor depends only on this node: unchanged.
                break;
            }
            self.nodes[i] = least;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::splitmix64;

    #[test]
    fn matches_a_brute_force_min_over_occupied_slots() {
        for n in [1usize, 2, 3, 7, 64, 100] {
            let mut tree = MinTree::new(n);
            let mut keys: Vec<Option<u64>> = vec![None; n];
            let mut s = n as u64;
            for _ in 0..2_000 {
                s = splitmix64(s);
                let slot = (s % n as u64) as usize;
                // Few distinct keys, so ties are common; an occasional
                // u64::MAX key must still beat an empty slot.
                match (s >> 32) % 8 {
                    0 => keys[slot] = None,
                    1 => keys[slot] = Some(u64::MAX),
                    k => keys[slot] = Some((s >> 40) % 4 + k),
                }
                match keys[slot] {
                    Some(k) => tree.set(slot, k),
                    None => tree.clear(slot),
                }
                let want = keys
                    .iter()
                    .enumerate()
                    .filter_map(|(c, k)| k.map(|k| (k, c)))
                    .min();
                assert_eq!(tree.min(), want, "n={n}");
            }
        }
    }
}
