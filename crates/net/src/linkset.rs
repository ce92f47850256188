//! A sparse set of link ids over a fixed link count.
//!
//! The solver and simulator keep several small link sets beside their
//! dense per-link arrays (links a solve wrote, degraded links, paused
//! links) so that passes which only matter on those links cost their size,
//! not the fabric's. [`LinkSet`] gives them O(1) insert, remove and
//! membership, and iteration over the members only. Iteration order is
//! insertion order perturbed by swap-removes, so callers use it only for
//! order-independent work.

/// Sentinel position for "not a member".
const ABSENT: u32 = u32::MAX;

/// A set of link ids in `0..nl` with O(1) insert, remove and membership.
#[derive(Debug, Clone)]
pub(crate) struct LinkSet {
    /// Members, in unspecified order.
    ids: Vec<u32>,
    /// link → index in `ids`, or `ABSENT`.
    pos: Vec<u32>,
}

impl LinkSet {
    /// Empty set over `nl` links.
    pub(crate) fn new(nl: usize) -> Self {
        LinkSet {
            ids: Vec::new(),
            pos: vec![ABSENT; nl],
        }
    }

    /// Whether `link` is a member.
    pub(crate) fn contains(&self, link: u32) -> bool {
        self.pos[link as usize] != ABSENT
    }

    /// Add `link`; no-op if already a member.
    pub(crate) fn insert(&mut self, link: u32) {
        if !self.contains(link) {
            self.pos[link as usize] = self.ids.len() as u32;
            self.ids.push(link);
        }
    }

    /// Remove `link`; no-op if not a member.
    pub(crate) fn remove(&mut self, link: u32) {
        let at = self.pos[link as usize];
        if at == ABSENT {
            return;
        }
        self.ids.swap_remove(at as usize);
        if let Some(&moved) = self.ids.get(at as usize) {
            self.pos[moved as usize] = at;
        }
        self.pos[link as usize] = ABSENT;
    }

    /// Remove every member, in O(members).
    pub(crate) fn clear(&mut self) {
        for &l in &self.ids {
            self.pos[l as usize] = ABSENT;
        }
        self.ids.clear();
    }

    /// The members, in unspecified order.
    pub(crate) fn as_slice(&self) -> &[u32] {
        &self.ids
    }

    /// Whether the set is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_and_clear_keep_positions_consistent() {
        let mut s = LinkSet::new(8);
        for l in [5, 1, 7, 1, 3] {
            s.insert(l);
        }
        assert_eq!(s.as_slice(), &[5, 1, 7, 3]);
        s.remove(5);
        s.remove(6);
        assert_eq!(s.as_slice(), &[3, 1, 7]);
        assert!(s.contains(3) && !s.contains(5));
        s.remove(7);
        s.insert(5);
        assert_eq!(s.as_slice(), &[3, 1, 5]);
        s.clear();
        assert!(s.is_empty());
        assert!((0..8).all(|l| !s.contains(l)));
    }
}
