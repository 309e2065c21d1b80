//! A read-optimized snapshot of the kernel for the streaming estimator.
//!
//! [`Kernel`] is built for *construction*: adjacency is held in per-vertex
//! `Vec`s of edge ids, edge lookup goes through a SipHash `HashMap`, and
//! the selectivity denominators `S_v` ([`Kernel::in_child_sum`]) are
//! recomputed from the in-edge lists on every call. That layout is ideal
//! while the document is being summarized, but it makes the estimate hot
//! path chase pointers and re-derive the same sums for every query.
//!
//! [`FrozenKernel`] is the estimate-side counterpart: an immutable
//! CSR-layout snapshot taken once from a kernel (and retaken only after
//! the kernel is updated — see [`crate::synopsis::XseedSynopsis::kernel_mut`]):
//!
//! * **flat out-edge arrays** — `out_start[v]..out_start[v + 1]` indexes a
//!   contiguous range of slots, each carrying the target vertex and a flat
//!   slice of `(parent_count, child_count)` pairs per recursion level, in
//!   the kernel's insertion order (the traveler's traversal order);
//! * **precomputed `S_v` tables** — `in_child_sum(v, level)` and the
//!   suffix-summed `in_child_sum_from(v, level)` for every recorded level,
//!   with the paper's root convention (`S_root = 1` at level 0) baked in;
//! * **reachable-label bitsets** — for every vertex, the set of labels
//!   occurring at the vertex or anywhere below it in the synopsis graph,
//!   which lets the streaming matcher skip entire subtrees that cannot
//!   contain a query's required labels;
//! * **a packed-u64-key table** ([`FastMap`]) replacing the SipHash
//!   `(VertexId, VertexId) -> EdgeId` map for read-side edge lookups;
//! * **bound-mode tables** — per vertex, the exact number of document
//!   nodes carrying its label ([`FrozenKernel::node_total`]); per out
//!   slot, the edge's child count summed over recursion levels
//!   ([`FrozenKernel::slot_child_total`]) and the most children any one
//!   parent can have through it ([`FrozenKernel::slot_max_fanout`]).
//!   They are derived from the level pairs above, built once here so a
//!   bound request reads them instead of recomputing them, and never
//!   persisted.
//!
//! The snapshot is invalidated (dropped and lazily rebuilt) whenever the
//! synopsis hands out mutable kernel access; nothing in this module tracks
//! kernel changes on its own.

use super::graph::{Kernel, VertexId};
use xmlkit::names::LabelId;

/// Sentinel meaning "label has no vertex" in [`FrozenKernel::vertex_of_label`].
const NO_VERTEX: u32 = u32::MAX;

/// An open-addressed hash table from packed `u64` keys to `u32` values.
///
/// This replaces SipHash `HashMap`s on estimator read paths: keys are
/// already small integers (packed vertex pairs, path hashes), so a single
/// multiply-xor mix is enough, and lookups stay branch-light within one
/// flat array. The table is insert-only. `u64::MAX` marks empty slots
/// internally; a key equal to the sentinel (possible for arbitrary hash
/// keys) is carried in a dedicated side slot, so any `u64` is a valid key.
#[derive(Debug, Clone, Default)]
pub struct FastMap {
    keys: Vec<u64>,
    vals: Vec<u32>,
    mask: usize,
    len: usize,
    sentinel_val: Option<u32>,
}

const EMPTY_KEY: u64 = u64::MAX;

#[inline]
fn mix(key: u64) -> u64 {
    // splitmix64 finalizer: full-avalanche, two multiplies.
    let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FastMap {
    /// Creates a table pre-sized for `expected` keys.
    pub fn with_capacity(expected: usize) -> Self {
        let cap = (expected * 2).next_power_of_two().max(8);
        FastMap {
            keys: vec![EMPTY_KEY; cap],
            vals: vec![0; cap],
            mask: cap - 1,
            len: 0,
            sentinel_val: None,
        }
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.len + usize::from(self.sentinel_val.is_some())
    }

    /// Returns `true` if the table holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts `key -> val`, overwriting any previous value.
    pub fn insert(&mut self, key: u64, val: u32) {
        if key == EMPTY_KEY {
            self.sentinel_val = Some(val);
            return;
        }
        if (self.len + 1) * 2 > self.keys.len() {
            self.grow();
        }
        let mut i = (mix(key) as usize) & self.mask;
        loop {
            if self.keys[i] == EMPTY_KEY {
                self.keys[i] = key;
                self.vals[i] = val;
                self.len += 1;
                return;
            }
            if self.keys[i] == key {
                self.vals[i] = val;
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Looks up `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<u32> {
        if key == EMPTY_KEY {
            return self.sentinel_val;
        }
        if self.keys.is_empty() {
            return None;
        }
        let mut i = (mix(key) as usize) & self.mask;
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(self.vals[i]);
            }
            if k == EMPTY_KEY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    fn grow(&mut self) {
        let old_keys = std::mem::take(&mut self.keys);
        let old_vals = std::mem::take(&mut self.vals);
        let cap = (old_keys.len() * 2).max(8);
        self.keys = vec![EMPTY_KEY; cap];
        self.vals = vec![0; cap];
        self.mask = cap - 1;
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != EMPTY_KEY {
                self.insert(k, v);
            }
        }
    }
}

/// Packs a `(parent, child)` vertex pair into one `u64` key.
#[inline]
pub fn pack_edge_key(from: VertexId, to: VertexId) -> u64 {
    (u64::from(from.0) << 32) | u64::from(to.0)
}

/// The read-optimized CSR snapshot of a [`Kernel`]. See the module docs.
#[derive(Debug, Clone)]
pub struct FrozenKernel {
    root: Option<VertexId>,
    element_count: u64,
    /// Label of each vertex.
    labels: Vec<LabelId>,
    /// Vertex of each label (`NO_VERTEX` when the label has none).
    vertex_of_label: Vec<u32>,
    /// CSR offsets: out slots of vertex `v` are `out_start[v]..out_start[v+1]`.
    out_start: Vec<u32>,
    /// Target vertex per out slot, in the kernel's insertion order.
    out_to: Vec<u32>,
    /// Per-slot offsets into the flat level-pair arrays (len = slots + 1).
    pairs_start: Vec<u32>,
    pair_parent: Vec<u64>,
    pair_child: Vec<u64>,
    /// Per-vertex offsets into the flat sum arrays (len = vertices + 1).
    sums_start: Vec<u32>,
    in_sum: Vec<u64>,
    in_sum_from: Vec<u64>,
    /// Words per reachability bitset row.
    label_words: usize,
    /// `label_words` words per vertex: labels at or below the vertex.
    reach: Vec<u64>,
    /// Packed `(from, to)` pair -> out-slot index.
    edge_slots: FastMap,
    /// Exact document node count per vertex (bound mode).
    node_totals: Vec<u64>,
    /// Per out slot: child count summed over levels (bound mode).
    slot_child_totals: Vec<u64>,
    /// Per out slot: worst-case single-parent fan-out (bound mode).
    slot_max_fanouts: Vec<u64>,
}

impl FrozenKernel {
    /// Takes a snapshot of `kernel`. Cost is one pass over the vertices and
    /// edges plus a small fixpoint for the reachability bitsets; rebuild it
    /// whenever the kernel is mutated.
    pub fn freeze(kernel: &Kernel) -> Self {
        let v_count = kernel.vertex_count();
        let label_count = kernel.names().len();

        let mut labels = Vec::with_capacity(v_count);
        let mut vertex_of_label = vec![NO_VERTEX; label_count];
        for v in kernel.vertices() {
            let label = kernel.label(v);
            labels.push(label);
            if let Some(slot) = vertex_of_label.get_mut(label.index()) {
                *slot = v.0;
            }
        }

        // CSR out-edges with flattened level pairs, preserving insertion
        // order (the traveler's child-visit order).
        let mut out_start = Vec::with_capacity(v_count + 1);
        let mut out_to = Vec::new();
        let mut pairs_start = vec![0u32];
        let mut pair_parent = Vec::new();
        let mut pair_child = Vec::new();
        let mut edge_slots = FastMap::with_capacity(kernel.live_edge_count());
        out_start.push(0);
        for v in kernel.vertices() {
            for &e in kernel.out_edges(v) {
                let edge = kernel.edge(e);
                let slot = out_to.len() as u32;
                out_to.push(edge.to.0);
                for (_, p, c) in edge.label.iter() {
                    pair_parent.push(p);
                    pair_child.push(c);
                }
                pairs_start.push(pair_parent.len() as u32);
                edge_slots.insert(pack_edge_key(v, edge.to), slot);
            }
            out_start.push(out_to.len() as u32);
        }

        // Per-(vertex, level) denominators, with the root convention baked
        // in so the tables agree with Kernel::in_child_sum{,_from} exactly.
        let mut sums_start = Vec::with_capacity(v_count + 1);
        let mut in_sum = Vec::new();
        let mut in_sum_from = Vec::new();
        sums_start.push(0);
        for v in kernel.vertices() {
            let max_levels = kernel
                .in_edges(v)
                .iter()
                .map(|&e| kernel.edge(e).label.levels())
                .max()
                .unwrap_or(0);
            let levels = if Some(v) == kernel.root() {
                max_levels.max(1)
            } else {
                max_levels
            };
            let base = in_sum.len();
            in_sum.resize(base + levels, 0);
            for &e in kernel.in_edges(v) {
                for (level, _, c) in kernel.edge(e).label.iter() {
                    in_sum[base + level] += c;
                }
            }
            // Suffix sums for the `//`-axis denominator.
            in_sum_from.resize(base + levels, 0);
            let mut acc = 0u64;
            for level in (0..levels).rev() {
                acc += in_sum[base + level];
                in_sum_from[base + level] = acc;
            }
            // Root convention (Definition 5): each table independently
            // falls back to 1 only when its own level-0 value is zero —
            // a recursive root has in_sum[0] == 0 (in-edges into the root
            // carry level >= 1 counts only) while its suffix total is not.
            if Some(v) == kernel.root() {
                if in_sum[base] == 0 {
                    in_sum[base] = 1;
                }
                if in_sum_from[base] == 0 {
                    in_sum_from[base] = 1;
                }
            }
            sums_start.push(in_sum.len() as u32);
        }

        // Reachable labels: fixpoint over `reach[v] |= reach[child]`. The
        // synopsis graph is tiny (one vertex per element name) and the
        // iteration count is bounded by its longest simple path.
        let label_words = label_count.div_ceil(64).max(1);
        let mut reach = vec![0u64; v_count * label_words];
        for (v, &label) in labels.iter().enumerate() {
            reach[v * label_words + label.index() / 64] |= 1u64 << (label.index() % 64);
        }
        let mut changed = true;
        while changed {
            changed = false;
            for v in 0..v_count {
                let row = out_start[v] as usize..out_start[v + 1] as usize;
                for w in out_to[row].iter().map(|&t| t as usize) {
                    if w == v {
                        continue;
                    }
                    for word in 0..label_words {
                        let bits = reach[w * label_words + word];
                        let dst = &mut reach[v * label_words + word];
                        if *dst | bits != *dst {
                            *dst |= bits;
                            changed = true;
                        }
                    }
                }
            }
        }

        let mut frozen = FrozenKernel {
            root: kernel.root(),
            element_count: kernel.element_count(),
            labels,
            vertex_of_label,
            out_start,
            out_to,
            pairs_start,
            pair_parent,
            pair_child,
            sums_start,
            in_sum,
            in_sum_from,
            label_words,
            reach,
            edge_slots,
            node_totals: Vec::new(),
            slot_child_totals: Vec::new(),
            slot_max_fanouts: Vec::new(),
        };
        frozen.build_bound_tables();
        frozen
    }

    /// Fills the bound-mode tables from the level pairs, saturating at
    /// `u64::MAX`. Why each table bounds what it claims is argued where
    /// bound mode reads them (`StreamingMatcher::compute_bound`).
    fn build_bound_tables(&mut self) {
        let slots = self.slot_count();
        let mut node_totals = vec![0u64; self.vertex_count()];
        if let Some(root) = self.root {
            node_totals[root.index()] = 1;
        }
        let mut slot_child_totals = vec![0u64; slots];
        let mut slot_max_fanouts = vec![0u64; slots];
        for slot in 0..slots {
            let target = self.slot_target(slot).index();
            for level in 0..self.slot_levels(slot) {
                let c = self.slot_child_count(slot, level);
                node_totals[target] = node_totals[target].saturating_add(c);
                if c == 0 {
                    continue;
                }
                slot_child_totals[slot] = slot_child_totals[slot].saturating_add(c);
                let p = self.slot_parent_count(slot, level);
                let fanout = c.saturating_sub(p).saturating_add(1);
                slot_max_fanouts[slot] = slot_max_fanouts[slot].max(fanout);
            }
        }
        self.node_totals = node_totals;
        self.slot_child_totals = slot_child_totals;
        self.slot_max_fanouts = slot_max_fanouts;
    }

    /// The root vertex, if the kernel is non-empty.
    #[inline]
    pub fn root(&self) -> Option<VertexId> {
        self.root
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.labels.len()
    }

    /// Total number of elements in the summarized document(s).
    #[inline]
    pub fn element_count(&self) -> u64 {
        self.element_count
    }

    /// The label of a vertex.
    #[inline]
    pub fn label(&self, v: VertexId) -> LabelId {
        self.labels[v.index()]
    }

    /// The vertex carrying `label`, if any.
    #[inline]
    pub fn vertex_by_label(&self, label: LabelId) -> Option<VertexId> {
        match self.vertex_of_label.get(label.index()) {
            Some(&raw) if raw != NO_VERTEX => Some(VertexId(raw)),
            _ => None,
        }
    }

    /// Total number of out slots (edges) across all vertices.
    #[inline]
    pub fn slot_count(&self) -> usize {
        self.out_to.len()
    }

    /// The contiguous out-slot range of `v` (kernel insertion order).
    #[inline]
    pub fn out_slots(&self, v: VertexId) -> std::ops::Range<usize> {
        self.out_start[v.index()] as usize..self.out_start[v.index() + 1] as usize
    }

    /// The target vertex of an out slot.
    #[inline]
    pub fn slot_target(&self, slot: usize) -> VertexId {
        VertexId(self.out_to[slot])
    }

    /// Number of recursion levels recorded on an out slot's edge.
    #[inline]
    pub fn slot_levels(&self, slot: usize) -> usize {
        (self.pairs_start[slot + 1] - self.pairs_start[slot]) as usize
    }

    /// Child count of an out slot's edge at `level` (0 beyond the recorded
    /// levels).
    #[inline]
    pub fn slot_child_count(&self, slot: usize, level: usize) -> u64 {
        if level < self.slot_levels(slot) {
            self.pair_child[self.pairs_start[slot] as usize + level]
        } else {
            0
        }
    }

    /// Parent count of an out slot's edge at `level`.
    #[inline]
    pub fn slot_parent_count(&self, slot: usize, level: usize) -> u64 {
        if level < self.slot_levels(slot) {
            self.pair_parent[self.pairs_start[slot] as usize + level]
        } else {
            0
        }
    }

    /// Precomputed `S_v` at `level` (Definition 5), agreeing with
    /// [`Kernel::in_child_sum`] including the root convention.
    #[inline]
    pub fn in_child_sum(&self, v: VertexId, level: usize) -> u64 {
        let start = self.sums_start[v.index()] as usize;
        let end = self.sums_start[v.index() + 1] as usize;
        if start + level < end {
            self.in_sum[start + level]
        } else {
            0
        }
    }

    /// Precomputed suffix sum of `S_v` over levels `>= level`, agreeing
    /// with [`Kernel::in_child_sum_from`].
    #[inline]
    pub fn in_child_sum_from(&self, v: VertexId, level: usize) -> u64 {
        let start = self.sums_start[v.index()] as usize;
        let end = self.sums_start[v.index() + 1] as usize;
        if start + level < end {
            self.in_sum_from[start + level]
        } else {
            0
        }
    }

    /// The out slot of the edge `(u, v)`, if present, via the packed-key
    /// table.
    #[inline]
    pub fn edge_slot(&self, u: VertexId, v: VertexId) -> Option<usize> {
        self.edge_slots.get(pack_edge_key(u, v)).map(|s| s as usize)
    }

    /// Returns `true` if `label` occurs at `v` or anywhere below it.
    #[inline]
    pub fn reaches_label(&self, v: VertexId, label: LabelId) -> bool {
        let word = label.index() / 64;
        if word >= self.label_words {
            return false;
        }
        self.reach[v.index() * self.label_words + word] & (1u64 << (label.index() % 64)) != 0
    }

    /// Returns `true` if every bit of `mask` (a `label_words`-sized bitset)
    /// is reachable at or below `v`.
    #[inline]
    pub fn reaches_all(&self, v: VertexId, mask: &[u64]) -> bool {
        let row = &self.reach[v.index() * self.label_words..(v.index() + 1) * self.label_words];
        mask.iter().zip(row).all(|(m, r)| m & !r == 0)
    }

    /// The full reachability bitset row of `v`: one bit per label that
    /// occurs at `v` or anywhere below it, `label_words` words long.
    #[inline]
    pub fn reach_row(&self, v: VertexId) -> &[u64] {
        &self.reach[v.index() * self.label_words..(v.index() + 1) * self.label_words]
    }

    /// Returns `true` if any bit of `mask` (a `label_words`-sized bitset)
    /// is reachable at or below `v`.
    #[inline]
    pub fn reaches_any(&self, v: VertexId, mask: &[u64]) -> bool {
        mask.iter().zip(self.reach_row(v)).any(|(m, r)| m & r != 0)
    }

    /// Words per reachability bitset row (for sizing query-side masks).
    #[inline]
    pub fn label_words(&self) -> usize {
        self.label_words
    }

    /// The exact number of document nodes at `v` (saturating at
    /// `u64::MAX`).
    #[inline]
    pub fn node_total(&self, v: VertexId) -> u64 {
        self.node_totals[v.index()]
    }

    /// An out slot's child count summed over its recursion levels.
    #[inline]
    pub fn slot_child_total(&self, slot: usize) -> u64 {
        self.slot_child_totals[slot]
    }

    /// The most children a single parent node can have through an out
    /// slot's edge, over all its recursion levels.
    #[inline]
    pub fn slot_max_fanout(&self, slot: usize) -> u64 {
        self.slot_max_fanouts[slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelBuilder;
    use xmlkit::samples::{figure2_document, figure4_document};

    #[test]
    fn fastmap_roundtrip_and_overwrite() {
        let mut m = FastMap::with_capacity(4);
        assert!(m.is_empty());
        for i in 0..1000u64 {
            m.insert(i * 7, i as u32);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m.get(i * 7), Some(i as u32));
        }
        assert_eq!(m.get(3), None);
        m.insert(7, 999);
        assert_eq!(m.get(7), Some(999));
        assert_eq!(m.len(), 1000);
    }

    #[test]
    fn fastmap_empty_lookup() {
        let m = FastMap::default();
        assert_eq!(m.get(42), None);
    }

    #[test]
    fn fastmap_handles_sentinel_key() {
        let mut m = FastMap::with_capacity(1);
        assert_eq!(m.get(u64::MAX), None);
        m.insert(u64::MAX, 7);
        assert_eq!(m.get(u64::MAX), Some(7));
        assert_eq!(m.len(), 1);
        m.insert(u64::MAX, 9);
        assert_eq!(m.get(u64::MAX), Some(9));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn frozen_agrees_with_kernel_on_figure2() {
        let kernel = KernelBuilder::from_document(&figure2_document());
        let frozen = FrozenKernel::freeze(&kernel);
        assert_eq!(frozen.root(), kernel.root());
        assert_eq!(frozen.vertex_count(), kernel.vertex_count());
        assert_eq!(frozen.element_count(), kernel.element_count());
        for v in kernel.vertices() {
            assert_eq!(frozen.label(v), kernel.label(v));
            assert_eq!(frozen.vertex_by_label(kernel.label(v)), Some(v));
            // Sums agree on every recorded level and beyond.
            for level in 0..8 {
                assert_eq!(
                    frozen.in_child_sum(v, level),
                    kernel.in_child_sum(v, level),
                    "in_child_sum({v:?}, {level})"
                );
                assert_eq!(
                    frozen.in_child_sum_from(v, level),
                    kernel.in_child_sum_from(v, level),
                    "in_child_sum_from({v:?}, {level})"
                );
            }
            // Out edges agree slot by slot, in order.
            let slots: Vec<usize> = frozen.out_slots(v).collect();
            let edges = kernel.out_edges(v);
            assert_eq!(slots.len(), edges.len());
            for (&slot_edge, &e) in slots.iter().zip(edges) {
                let edge = kernel.edge(e);
                assert_eq!(frozen.slot_target(slot_edge), edge.to);
                assert_eq!(frozen.slot_levels(slot_edge), edge.label.levels());
                for level in 0..edge.label.levels() + 1 {
                    assert_eq!(
                        frozen.slot_child_count(slot_edge, level),
                        edge.label.child_count(level)
                    );
                    assert_eq!(
                        frozen.slot_parent_count(slot_edge, level),
                        edge.label.parent_count(level)
                    );
                }
                assert_eq!(frozen.edge_slot(v, edge.to), Some(slot_edge));
            }
        }
    }

    #[test]
    fn reachability_on_figure2() {
        // Figure 2: a -> {t, u, c}, c -> s, s -> {s, t, p}.
        let kernel = KernelBuilder::from_document(&figure2_document());
        let frozen = FrozenKernel::freeze(&kernel);
        let v = |n: &str| kernel.vertex_by_name(n).unwrap();
        let l = |n: &str| kernel.names().lookup(n).unwrap();
        // Every label is reachable from the root.
        for name in ["a", "t", "u", "c", "s", "p"] {
            assert!(frozen.reaches_label(v("a"), l(name)), "{name} from a");
        }
        // Leaves reach only themselves.
        assert!(frozen.reaches_label(v("p"), l("p")));
        assert!(!frozen.reaches_label(v("p"), l("s")));
        assert!(!frozen.reaches_label(v("t"), l("a")));
        // s reaches s, t, p but not c or u.
        assert!(frozen.reaches_label(v("s"), l("t")));
        assert!(frozen.reaches_label(v("s"), l("p")));
        assert!(!frozen.reaches_label(v("s"), l("c")));
        assert!(!frozen.reaches_label(v("s"), l("u")));
    }

    #[test]
    fn reaches_all_mask() {
        let kernel = KernelBuilder::from_document(&figure4_document());
        let frozen = FrozenKernel::freeze(&kernel);
        let v = |n: &str| kernel.vertex_by_name(n).unwrap();
        let l = |n: &str| kernel.names().lookup(n).unwrap();
        let mut mask = vec![0u64; frozen.label_words()];
        for name in ["d", "e"] {
            mask[l(name).index() / 64] |= 1 << (l(name).index() % 64);
        }
        assert!(frozen.reaches_all(v("a"), &mask));
        assert!(frozen.reaches_all(v("b"), &mask));
        assert!(!frozen.reaches_all(v("e"), &mask));
        // The empty mask is reachable everywhere.
        let empty = vec![0u64; frozen.label_words()];
        assert!(frozen.reaches_all(v("e"), &empty));
    }

    #[test]
    fn recursive_root_sums_agree_with_kernel() {
        // A document whose root label recurses: the root's level-0 in-sum
        // is 0 (its in-edges carry only level >= 1 counts) while the
        // suffix total is not — the root convention must not clobber it.
        let doc = xmlkit::Document::parse_str("<a><a><b/></a><a/><b/></a>").unwrap();
        let kernel = KernelBuilder::from_document(&doc);
        let frozen = FrozenKernel::freeze(&kernel);
        for v in kernel.vertices() {
            for level in 0..6 {
                assert_eq!(
                    frozen.in_child_sum(v, level),
                    kernel.in_child_sum(v, level),
                    "in_child_sum({v:?}, {level})"
                );
                assert_eq!(
                    frozen.in_child_sum_from(v, level),
                    kernel.in_child_sum_from(v, level),
                    "in_child_sum_from({v:?}, {level})"
                );
            }
        }
    }

    #[test]
    fn bound_tables_count_every_document_node() {
        for doc in [figure2_document(), figure4_document()] {
            let kernel = KernelBuilder::from_document(&doc);
            let frozen = FrozenKernel::freeze(&kernel);
            let nodes: u64 = kernel.vertices().map(|v| frozen.node_total(v)).sum();
            assert_eq!(nodes, frozen.element_count());
            for slot in 0..frozen.slot_count() {
                // One parent's children through an edge never outnumber
                // the edge's children.
                assert!(frozen.slot_max_fanout(slot) >= 1);
                assert!(frozen.slot_max_fanout(slot) <= frozen.slot_child_total(slot));
            }
        }
    }

    #[test]
    fn empty_kernel_freezes() {
        let frozen = FrozenKernel::freeze(&Kernel::new());
        assert_eq!(frozen.root(), None);
        assert_eq!(frozen.vertex_count(), 0);
        assert_eq!(frozen.element_count(), 0);
    }
}
