//! Full rankings and Top-k lists.
//!
//! Items are opaque `u64` identifiers (in the probabilistic-database setting
//! they are tuple keys). A [`FullRanking`] orders an entire item set; a
//! [`TopKList`] orders only its best `k` items, which is the answer shape of
//! a Top-k query.

use std::collections::HashMap;
use std::fmt;

/// Errors raised when constructing rankings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RankError {
    /// An item appeared more than once.
    DuplicateItem {
        /// The duplicated item identifier.
        item: u64,
    },
    /// The list was empty where a non-empty list is required.
    Empty,
    /// An item expected in a ranking was not ranked by it.
    MissingItem {
        /// The item that was not ranked.
        item: u64,
    },
}

impl fmt::Display for RankError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RankError::DuplicateItem { item } => write!(f, "item {item} appears more than once"),
            RankError::Empty => write!(f, "ranking must contain at least one item"),
            RankError::MissingItem { item } => {
                write!(f, "item {item} is not ranked by the other ranking")
            }
        }
    }
}

impl std::error::Error for RankError {}

/// A Top-k list: an ordered list of distinct items, best first.
///
/// `τ(i)` (1-based position lookup) and `τ(t)` (item → position) follow the
/// paper's notation via [`TopKList::item_at`] and [`TopKList::position_of`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TopKList {
    items: Vec<u64>,
}

impl TopKList {
    /// Builds a Top-k list from items in rank order (best first), rejecting
    /// duplicates.
    pub fn new(items: Vec<u64>) -> Result<Self, RankError> {
        let mut seen = std::collections::HashSet::with_capacity(items.len());
        for &it in &items {
            if !seen.insert(it) {
                return Err(RankError::DuplicateItem { item: it });
            }
        }
        Ok(TopKList { items })
    }

    /// Builds a Top-k list from items in rank order (best first), keeping
    /// each item at its first (best) position. On distinct items this is
    /// [`TopKList::new`]; it never fails, for callers whose items are
    /// distinct by construction.
    pub fn from_ranked<I: IntoIterator<Item = u64>>(items: I) -> Self {
        let mut seen = std::collections::HashSet::new();
        TopKList {
            items: items.into_iter().filter(|&it| seen.insert(it)).collect(),
        }
    }

    /// The empty list (k = 0).
    pub fn empty() -> Self {
        TopKList { items: Vec::new() }
    }

    /// The items in rank order.
    #[inline]
    pub fn items(&self) -> &[u64] {
        &self.items
    }

    /// The list length `k`.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the list is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The item at 1-based position `i` (`τ(i)`), if `i ≤ k`.
    pub fn item_at(&self, i: usize) -> Option<u64> {
        if i == 0 {
            None
        } else {
            self.items.get(i - 1).copied()
        }
    }

    /// The 1-based position of `item` (`τ(t)`), if present.
    pub fn position_of(&self, item: u64) -> Option<usize> {
        self.items.iter().position(|&x| x == item).map(|p| p + 1)
    }

    /// Whether `item` appears in the list.
    pub fn contains(&self, item: u64) -> bool {
        self.items.contains(&item)
    }

    /// The prefix `τ^i`: the restriction of the list to its first `i` items.
    pub fn prefix(&self, i: usize) -> TopKList {
        TopKList {
            items: self.items.iter().take(i).copied().collect(),
        }
    }

    /// Number of items shared with another list.
    pub fn overlap(&self, other: &TopKList) -> usize {
        self.items.iter().filter(|it| other.contains(**it)).count()
    }

    /// A position lookup map (item → 1-based position) for repeated queries.
    pub fn position_map(&self) -> HashMap<u64, usize> {
        self.items
            .iter()
            .enumerate()
            .map(|(i, &it)| (it, i + 1))
            .collect()
    }
}

impl fmt::Display for TopKList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, it) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, " > ")?;
            }
            write!(f, "{it}")?;
        }
        write!(f, "]")
    }
}

/// A full ranking (permutation) of an item set, best first.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct FullRanking {
    items: Vec<u64>,
}

impl FullRanking {
    /// Builds a full ranking from items in rank order, rejecting duplicates
    /// and empty lists.
    pub fn new(items: Vec<u64>) -> Result<Self, RankError> {
        if items.is_empty() {
            return Err(RankError::Empty);
        }
        let mut seen = std::collections::HashSet::with_capacity(items.len());
        for &it in &items {
            if !seen.insert(it) {
                return Err(RankError::DuplicateItem { item: it });
            }
        }
        Ok(FullRanking { items })
    }

    /// The items in rank order.
    #[inline]
    pub fn items(&self) -> &[u64] {
        &self.items
    }

    /// Number of items.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Always false (construction rejects empty rankings); provided for
    /// API completeness.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The 1-based position of `item`, if present.
    pub fn position_of(&self, item: u64) -> Option<usize> {
        self.items.iter().position(|&x| x == item).map(|p| p + 1)
    }

    /// The Top-k prefix of this ranking.
    pub fn top_k(&self, k: usize) -> TopKList {
        TopKList {
            items: self.items.iter().take(k).copied().collect(),
        }
    }

    /// Spearman footrule distance to another full ranking over the same item
    /// set: `Σ_t |σ₁(t) − σ₂(t)|`.
    ///
    /// # Panics
    ///
    /// Panics when `other` does not rank every item of `self`. Use
    /// [`FullRanking::try_footrule_distance`] to get a typed error instead.
    pub fn footrule_distance(&self, other: &FullRanking) -> usize {
        self.try_footrule_distance(other)
            .expect("rankings must be over the same item set")
    }

    /// Fallible Spearman footrule distance: returns
    /// [`RankError::MissingItem`] when `other` does not rank every item of
    /// `self` instead of panicking.
    pub fn try_footrule_distance(&self, other: &FullRanking) -> Result<usize, RankError> {
        self.items
            .iter()
            .map(|&t| {
                let p1 = self.position_of(t).expect("item in self");
                let p2 = other
                    .position_of(t)
                    .ok_or(RankError::MissingItem { item: t })?;
                Ok(p1.abs_diff(p2))
            })
            .sum()
    }

    /// Kendall tau distance to another full ranking over the same item set:
    /// the number of discordant pairs.
    pub fn kendall_tau(&self, other: &FullRanking) -> usize {
        let pos2 = other.position_map();
        let mut count = 0;
        for i in 0..self.items.len() {
            for j in (i + 1)..self.items.len() {
                let a = self.items[i];
                let b = self.items[j];
                let pa = pos2[&a];
                let pb = pos2[&b];
                if pa > pb {
                    count += 1;
                }
            }
        }
        count
    }

    /// A position lookup map (item → 1-based position).
    pub fn position_map(&self) -> HashMap<u64, usize> {
        self.items
            .iter()
            .enumerate()
            .map(|(i, &it)| (it, i + 1))
            .collect()
    }
}

impl fmt::Display for FullRanking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, it) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, " > ")?;
            }
            write!(f, "{it}")?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topk_construction_and_lookup() {
        let t = TopKList::new(vec![5, 3, 9]).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.item_at(1), Some(5));
        assert_eq!(t.item_at(3), Some(9));
        assert_eq!(t.item_at(0), None);
        assert_eq!(t.item_at(4), None);
        assert_eq!(t.position_of(3), Some(2));
        assert_eq!(t.position_of(7), None);
        assert!(t.contains(9));
        assert_eq!(t.prefix(2).items(), &[5, 3]);
        assert_eq!(format!("{t}"), "[5 > 3 > 9]");
    }

    #[test]
    fn topk_rejects_duplicates() {
        assert_eq!(
            TopKList::new(vec![1, 2, 1]),
            Err(RankError::DuplicateItem { item: 1 })
        );
    }

    #[test]
    fn from_ranked_keeps_first_positions() {
        assert_eq!(
            TopKList::from_ranked([5, 3, 9]),
            TopKList::new(vec![5, 3, 9]).unwrap()
        );
        assert_eq!(TopKList::from_ranked([1, 2, 1, 3, 2]).items(), &[1, 2, 3]);
    }

    #[test]
    fn overlap_counts_shared_items() {
        let a = TopKList::new(vec![1, 2, 3]).unwrap();
        let b = TopKList::new(vec![3, 4, 1]).unwrap();
        assert_eq!(a.overlap(&b), 2);
        assert_eq!(TopKList::empty().overlap(&a), 0);
    }

    #[test]
    fn full_ranking_distances() {
        let a = FullRanking::new(vec![1, 2, 3, 4]).unwrap();
        let b = FullRanking::new(vec![2, 1, 3, 4]).unwrap();
        assert_eq!(a.footrule_distance(&b), 2);
        assert_eq!(a.kendall_tau(&b), 1);
        let c = FullRanking::new(vec![4, 3, 2, 1]).unwrap();
        assert_eq!(a.kendall_tau(&c), 6);
        assert_eq!(a.footrule_distance(&c), 8);
    }

    #[test]
    fn full_ranking_validation_and_topk() {
        assert_eq!(FullRanking::new(vec![]), Err(RankError::Empty));
        assert!(FullRanking::new(vec![1, 1]).is_err());
        let r = FullRanking::new(vec![9, 7, 5]).unwrap();
        assert_eq!(r.top_k(2).items(), &[9, 7]);
        assert_eq!(r.position_of(5), Some(3));
        assert!(!r.is_empty());
    }

    #[test]
    fn footrule_within_twice_kendall() {
        // Diaconis–Graham: K ≤ F ≤ 2K for full rankings.
        let perms = [
            vec![1u64, 2, 3, 4, 5],
            vec![5, 4, 3, 2, 1],
            vec![2, 4, 1, 5, 3],
            vec![3, 1, 4, 5, 2],
        ];
        for a in &perms {
            for b in &perms {
                let ra = FullRanking::new(a.clone()).unwrap();
                let rb = FullRanking::new(b.clone()).unwrap();
                let k = ra.kendall_tau(&rb);
                let f = ra.footrule_distance(&rb);
                assert!(k <= f && f <= 2 * k || (k == 0 && f == 0));
            }
        }
    }
}
