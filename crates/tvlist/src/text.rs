//! String-valued TVList.

use crate::{SeriesAccess, TVList};

/// A TVList for IoTDB `TEXT` values.
///
/// Mirrors IoTDB's `BinaryTVList`: string payloads are appended once to an
/// arena and never move; the sortable list carries `(timestamp, arena
/// index)` pairs, so sorting a text series costs the same per move as an
/// `INT32` series.
#[derive(Debug, Default, Clone)]
pub struct TextTVList {
    index_list: TVList<u32>,
    arena: Vec<String>,
}

impl TextTVList {
    /// Creates an empty text list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a point in arrival order.
    pub fn push(&mut self, t: i64, v: impl Into<String>) {
        // analyzer:allow(panic-freedom): the u32 arena index is a capacity contract — a single in-memory text list cannot reach 2^32 points (memtables flush orders of magnitude earlier)
        let idx = u32::try_from(self.arena.len()).expect("TextTVList exceeds u32::MAX points");
        self.arena.push(v.into());
        self.index_list.push(t, idx);
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.index_list.len()
    }

    /// Whether the list holds no points.
    pub fn is_empty(&self) -> bool {
        self.index_list.is_empty()
    }

    /// Timestamp at index `i`.
    pub fn time(&self, i: usize) -> i64 {
        self.index_list.time(i)
    }

    /// String value at index `i`.
    pub fn text(&self, i: usize) -> &str {
        &self.arena[self.index_list.value(i) as usize]
    }

    /// Whether appended timestamps have stayed non-decreasing.
    pub fn is_sorted(&self) -> bool {
        self.index_list.is_sorted()
    }

    /// Length of the leading time-ordered run (see
    /// [`TVList::sorted_len`]).
    pub fn sorted_len(&self) -> usize {
        self.index_list.sorted_len()
    }

    /// Records that the index list has been sorted by timestamp.
    pub fn mark_sorted(&mut self) {
        self.index_list.mark_sorted()
    }

    /// Minimum timestamp seen, or `None` when empty.
    pub fn min_time(&self) -> Option<i64> {
        self.index_list.min_time()
    }

    /// Maximum timestamp seen, or `None` when empty.
    pub fn max_time(&self) -> Option<i64> {
        self.index_list.max_time()
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.index_list.memory_bytes() + self.arena.iter().map(|s| s.capacity() + 24).sum::<usize>()
    }

    /// The sortable `(timestamp, arena index)` view.
    ///
    /// Run any [`crate::SeriesAccess`]-based sort on this; `text(i)`
    /// reflects the new order immediately since lookups go through the
    /// indices.
    pub fn sortable(&mut self) -> &mut TVList<u32> {
        &mut self.index_list
    }

    /// The `(timestamp, arena index)` list and the arena it indexes,
    /// read-only — for a caller that sorts a copy of the pairs and maps
    /// the indices to strings afterwards, leaving this list as it is.
    pub fn parts(&self) -> (&TVList<u32>, &[String]) {
        (&self.index_list, &self.arena)
    }

    /// Iterates `(timestamp, &str)` pairs in storage order.
    pub fn iter(&self) -> impl Iterator<Item = (i64, &str)> + '_ {
        self.index_list
            .iter()
            .map(|(t, idx)| (t, self.arena[idx as usize].as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read() {
        let mut list = TextTVList::new();
        list.push(2, "b");
        list.push(1, "a");
        assert_eq!(list.len(), 2);
        assert_eq!(list.time(0), 2);
        assert_eq!(list.text(0), "b");
        assert_eq!(list.text(1), "a");
        assert!(!list.is_sorted());
    }

    #[test]
    fn sorting_indices_reorders_text_view() {
        let mut list = TextTVList::new();
        list.push(3, "late");
        list.push(1, "first");
        list.push(2, "second");
        // Hand-sort the index view (real callers use a sort algorithm).
        let s = list.sortable();
        s.swap(0, 1); // [1,3,2]
        s.swap(1, 2); // [1,2,3]
        s.mark_sorted();
        let collected: Vec<_> = list.iter().collect();
        assert_eq!(collected, vec![(1, "first"), (2, "second"), (3, "late")]);
        assert!(list.is_sorted());
    }

    #[test]
    fn parts_lend_the_pairs_and_the_arena() {
        let mut list = TextTVList::new();
        list.push(2, "b");
        list.push(1, "a");
        let (index, arena) = list.parts();
        let mut pairs = Vec::new();
        index.read_into(0, index.len(), &mut pairs);
        pairs.sort_by_key(|p| p.0);
        let texts: Vec<&str> = pairs
            .iter()
            .map(|&(_, i)| arena[i as usize].as_str())
            .collect();
        assert_eq!(texts, vec!["a", "b"]);
        assert_eq!(list.text(0), "b", "the list itself is untouched");
    }

    #[test]
    fn empty_list() {
        let list = TextTVList::new();
        assert!(list.is_empty());
        assert_eq!(list.iter().count(), 0);
    }
}

impl TextTVList {
    /// Keeps only points satisfying `keep`. Arena strings for removed
    /// points remain until the list is dropped (flush rebuilds anyway);
    /// only the index list is rewritten.
    pub fn retain<F: FnMut(i64, &str) -> bool>(&mut self, mut keep: F) -> usize {
        let arena = &self.arena;
        self.index_list
            .retain(|t, idx| keep(t, arena[idx as usize].as_str()))
    }
}

#[cfg(test)]
mod retain_tests {
    use super::*;

    #[test]
    fn retain_filters_by_time_and_text() {
        let mut list = TextTVList::new();
        for (t, s) in [(1i64, "keep"), (2, "drop"), (3, "keep")] {
            list.push(t, s);
        }
        let removed = list.retain(|_, s| s != "drop");
        assert_eq!(removed, 1);
        assert_eq!(list.len(), 2);
        assert_eq!(list.text(1), "keep");
        assert_eq!(list.time(1), 3);
    }
}
