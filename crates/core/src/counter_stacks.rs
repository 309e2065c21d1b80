//! The counter-stacks data structure of Figure 3.
//!
//! While traversing an XML tree (or the synopsis graph), XSEED needs the
//! **recursion level** of the current rooted path — the maximum number of
//! occurrences of any single label on the path, minus one — in expected
//! O(1) time per push/pop.
//!
//! The structure keeps one stack per occurrence count: when an item is
//! pushed for the *k*-th time (there are currently *k−1* copies of it on
//! the path), it is placed on stack *k*. A hash table records the current
//! occurrence count of every item. The recursion level of the whole path
//! is the number of non-empty stacks minus one, because stack *k* is
//! non-empty exactly when some item occurs at least *k* times.
//!
//! The example from the paper: after pushing `a, b, b, c, c, b`, stacks 1,
//! 2 and 3 are non-empty (`[a,b,c]`, `[b,c]`, `[b]`), so the recursion
//! level of the path is 2.
//!
//! Two implementations share these semantics:
//!
//! * [`FlatCounterStacks`] keys the counts by dense [`VertexId`] in flat
//!   arrays and keeps only each stack's height. Kernel construction,
//!   incremental update and the frontier-memo walk use it: a push or pop
//!   touches two array cells and never hashes or allocates once the
//!   arrays have grown to the path's depth and the vertex count.
//! * [`CounterStacks`] follows the figure literally (a hash table of
//!   counts and one stack of items per occurrence level) over any
//!   hashable item. The materialized-EPT [`Traveler`] oracle walks with
//!   it, and the flat tracker is tested against it.
//!
//! [`Traveler`]: crate::estimate::Traveler

use crate::kernel::VertexId;
use std::collections::HashMap;
use std::hash::Hash;

/// Counter stacks over items of type `T` (typically synopsis vertex ids or
/// label ids).
#[derive(Debug, Clone)]
pub struct CounterStacks<T: Eq + Hash + Clone> {
    /// `stacks[k]` holds the items whose push was their `(k+1)`-th
    /// occurrence (0-indexed internally; the paper's stack 1 is index 0).
    stacks: Vec<Vec<T>>,
    /// Current occurrence count per item.
    counts: HashMap<T, usize>,
    /// Number of non-empty stacks (== maximum occurrence count).
    non_empty: usize,
    /// Total number of items currently on the path.
    len: usize,
}

impl<T: Eq + Hash + Clone> Default for CounterStacks<T> {
    fn default() -> Self {
        CounterStacks {
            stacks: Vec::new(),
            counts: HashMap::new(),
            non_empty: 0,
            len: 0,
        }
    }
}

impl<T: Eq + Hash + Clone> CounterStacks<T> {
    /// Creates an empty structure.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pushes `item` onto the path and returns the recursion level of the
    /// path *including* the new item.
    pub fn push(&mut self, item: T) -> usize {
        let count = self.counts.entry(item.clone()).or_insert(0);
        *count += 1;
        let occurrence = *count;
        if self.stacks.len() < occurrence {
            self.stacks.push(Vec::new());
        }
        self.stacks[occurrence - 1].push(item);
        if occurrence > self.non_empty {
            self.non_empty = occurrence;
        }
        self.len += 1;
        self.recursion_level()
    }

    /// Returns the recursion level the path *would* have if `item` were
    /// pushed, without modifying the structure.
    pub fn peek_push(&self, item: &T) -> usize {
        let occurrence = self.counts.get(item).copied().unwrap_or(0) + 1;
        occurrence.max(self.non_empty) - 1
    }

    /// Pops `item` from the path. The item must be the most recently pushed
    /// occurrence of that value (pushes and pops mirror a tree traversal,
    /// so this always holds in practice).
    ///
    /// # Panics
    ///
    /// Panics if `item` is not currently on the path.
    pub fn pop(&mut self, item: &T) {
        let count = self
            .counts
            .get_mut(item)
            .unwrap_or_else(|| panic!("pop of an item that is not on the path"));
        assert!(*count > 0, "pop of an item that is not on the path");
        let occurrence = *count;
        *count -= 1;
        if *count == 0 {
            self.counts.remove(item);
        }
        // Items at the same occurrence level are interchangeable, so the
        // popped value need not equal `item`.
        self.stacks[occurrence - 1]
            .pop()
            .expect("stack for this occurrence level must be non-empty");
        while self.non_empty > 0 && self.stacks[self.non_empty - 1].is_empty() {
            self.non_empty -= 1;
        }
        self.len -= 1;
    }

    /// Recursion level of the current path: number of non-empty stacks
    /// minus one, or 0 for an empty path.
    pub fn recursion_level(&self) -> usize {
        self.non_empty.saturating_sub(1)
    }

    /// Number of items currently on the path.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the path is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current occurrence count of `item` on the path.
    pub fn occurrences(&self, item: &T) -> usize {
        self.counts.get(item).copied().unwrap_or(0)
    }
}

/// [`CounterStacks`] over dense vertex ids, held in two flat arrays.
///
/// Items at one occurrence level are interchangeable, so only the height
/// of each stack matters: `heights[k]` is the number of vertices that
/// occur at least `k` times on the path (the paper's stack `k`), and the
/// recursion level is the highest non-empty `k` minus one. The arrays
/// grow on demand, so vertex ids may be created while the path is open.
#[derive(Debug, Clone, Default)]
pub struct FlatCounterStacks {
    /// Occurrences of each vertex on the path, indexed by [`VertexId`].
    counts: Vec<u32>,
    /// Stack heights, indexed by occurrence count (`heights[0]` unused).
    heights: Vec<u32>,
    /// Number of non-empty stacks (the largest occurrence count).
    non_empty: usize,
}

impl FlatCounterStacks {
    /// Creates an empty tracker with room for vertex ids below
    /// `vertex_count`.
    pub fn with_vertices(vertex_count: usize) -> Self {
        FlatCounterStacks {
            counts: vec![0; vertex_count],
            ..Self::default()
        }
    }

    /// Empties the path, keeping the arrays' capacity.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.heights.clear();
        self.non_empty = 0;
    }

    /// Pushes `v` onto the path and returns the recursion level of the
    /// path *including* it.
    // Kept out of line, as is `pop`: inlined into the loop of the
    // frontier-memo walk, the two made `FrontierMemo::build` on
    // perfbench's XMark snapshot take twice as long (4.6 → 9.3 µs).
    #[inline(never)]
    pub fn push(&mut self, v: VertexId) -> usize {
        let i = v.index();
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        let count = &mut self.counts[i];
        *count += 1;
        let occurrence = *count as usize;
        if occurrence >= self.heights.len() {
            self.heights.resize(occurrence + 1, 0);
        }
        self.heights[occurrence] += 1;
        if occurrence > self.non_empty {
            self.non_empty = occurrence;
        }
        self.recursion_level()
    }

    /// Returns the recursion level the path *would* have if `v` were
    /// pushed, without modifying the tracker.
    #[inline]
    pub fn peek_push(&self, v: VertexId) -> usize {
        (self.occurrences(v) + 1).max(self.non_empty) - 1
    }

    /// Pops one occurrence of `v` from the path.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not currently on the path.
    #[inline(never)]
    pub fn pop(&mut self, v: VertexId) {
        let count = &mut self.counts[v.index()];
        assert!(*count > 0, "pop of an item that is not on the path");
        let occurrence = *count as usize;
        *count -= 1;
        self.heights[occurrence] -= 1;
        while self.non_empty > 0 && self.heights[self.non_empty] == 0 {
            self.non_empty -= 1;
        }
    }

    /// Recursion level of the current path: number of non-empty stacks
    /// minus one, or 0 for an empty path.
    #[inline]
    pub fn recursion_level(&self) -> usize {
        self.non_empty.saturating_sub(1)
    }

    /// Current occurrence count of `v` on the path.
    #[inline]
    pub fn occurrences(&self, v: VertexId) -> usize {
        self.counts.get(v.index()).map_or(0, |&c| c as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_figure3_example() {
        // Pushing (a, b, b, c, c, b) gives stacks [a,b,c], [b,c], [b].
        let mut cs = CounterStacks::new();
        cs.push("a");
        cs.push("b");
        cs.push("b");
        cs.push("c");
        cs.push("c");
        cs.push("b");
        assert_eq!(cs.recursion_level(), 2);
        assert_eq!(cs.occurrences(&"a"), 1);
        assert_eq!(cs.occurrences(&"b"), 3);
        assert_eq!(cs.occurrences(&"c"), 2);
        assert_eq!(cs.len(), 6);
    }

    #[test]
    fn push_returns_new_level() {
        let mut cs = CounterStacks::new();
        assert_eq!(cs.push("s"), 0);
        assert_eq!(cs.push("p"), 0);
        cs.pop(&"p");
        assert_eq!(cs.push("s"), 1);
        assert_eq!(cs.push("s"), 2);
    }

    #[test]
    fn pop_restores_level() {
        let mut cs = CounterStacks::new();
        cs.push("x");
        cs.push("x");
        cs.push("x");
        assert_eq!(cs.recursion_level(), 2);
        cs.pop(&"x");
        assert_eq!(cs.recursion_level(), 1);
        cs.pop(&"x");
        assert_eq!(cs.recursion_level(), 0);
        cs.pop(&"x");
        assert_eq!(cs.recursion_level(), 0);
        assert!(cs.is_empty());
    }

    #[test]
    fn peek_push_is_side_effect_free() {
        let mut cs = CounterStacks::new();
        cs.push("a");
        cs.push("b");
        assert_eq!(cs.peek_push(&"a"), 1);
        assert_eq!(cs.peek_push(&"c"), 0);
        // State unchanged.
        assert_eq!(cs.recursion_level(), 0);
        assert_eq!(cs.len(), 2);
        // peek matches an actual push.
        assert_eq!(cs.push("a"), 1);
    }

    #[test]
    fn distinct_items_keep_level_zero() {
        let mut cs = CounterStacks::new();
        for i in 0..100 {
            assert_eq!(cs.push(i), 0);
        }
        assert_eq!(cs.recursion_level(), 0);
        for i in (0..100).rev() {
            cs.pop(&i);
        }
        assert!(cs.is_empty());
    }

    #[test]
    fn interleaved_tree_walk() {
        // Simulates a DFS of <a><s><s/></s><s/></a>.
        let mut cs = CounterStacks::new();
        assert_eq!(cs.push("a"), 0);
        assert_eq!(cs.push("s"), 0);
        assert_eq!(cs.push("s"), 1);
        cs.pop(&"s");
        cs.pop(&"s");
        assert_eq!(cs.push("s"), 0);
        cs.pop(&"s");
        cs.pop(&"a");
        assert!(cs.is_empty());
    }

    #[test]
    #[should_panic(expected = "not on the path")]
    fn pop_missing_panics() {
        let mut cs: CounterStacks<&str> = CounterStacks::new();
        cs.pop(&"ghost");
    }

    #[test]
    fn empty_structure() {
        let cs: CounterStacks<u32> = CounterStacks::new();
        assert_eq!(cs.recursion_level(), 0);
        assert_eq!(cs.len(), 0);
        assert!(cs.is_empty());
        assert_eq!(cs.occurrences(&5), 0);
    }
    #[test]
    fn flat_paper_figure3_example() {
        let mut cs = FlatCounterStacks::default();
        for v in [0, 1, 1, 2, 2, 1] {
            cs.push(VertexId(v));
        }
        assert_eq!(cs.recursion_level(), 2);
        assert_eq!(cs.occurrences(VertexId(1)), 3);
        assert_eq!(cs.occurrences(VertexId(9)), 0);
        assert_eq!(cs.peek_push(VertexId(1)), 3);
        cs.clear();
        assert_eq!(cs.recursion_level(), 0);
        assert_eq!(cs.occurrences(VertexId(1)), 0);
        assert_eq!(cs.push(VertexId(2)), 0);
    }

    #[test]
    #[should_panic(expected = "not on the path")]
    fn flat_pop_missing_panics() {
        let mut cs = FlatCounterStacks::with_vertices(4);
        cs.push(VertexId(1));
        cs.pop(VertexId(2));
    }

    /// Replays `ops` on both trackers: `(v, true)` pushes vertex `v`,
    /// `(v, false)` pops the most recently pushed vertex when the path is
    /// non-empty (pushes and pops mirror a tree walk), and `v` is only
    /// peeked. Every returned and peeked level, and the final state (the
    /// level and each vertex's occurrence count), must agree.
    fn check_against_reference(ops: &[(u32, bool)]) -> Result<(), TestCaseError> {
        let mut flat = FlatCounterStacks::with_vertices(2);
        let mut reference = CounterStacks::new();
        let mut path = Vec::new();
        for &(v, push) in ops {
            let v = VertexId(v);
            prop_assert_eq!(flat.peek_push(v), reference.peek_push(&v));
            if push {
                prop_assert_eq!(flat.push(v), reference.push(v));
                path.push(v);
            } else if let Some(top) = path.pop() {
                flat.pop(top);
                reference.pop(&top);
            }
            prop_assert_eq!(flat.recursion_level(), reference.recursion_level());
        }
        for v in 0..8 {
            let v = VertexId(v);
            prop_assert_eq!(flat.occurrences(v), reference.occurrences(&v));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The flat tracker reproduces the reference on random push/pop
        /// sequences over a few dense ids (few ids make deep recursion
        /// likely).
        #[test]
        fn flat_tracker_matches_counter_stacks(
            ops in prop::collection::vec((0u32..8, prop::bool::ANY), 0..300),
        ) {
            check_against_reference(&ops)?;
        }
    }
}
