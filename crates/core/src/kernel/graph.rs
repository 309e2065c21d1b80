//! The kernel graph: an edge-labeled label-split graph.
//!
//! One vertex per distinct element name observed in the document, one edge
//! per observed parent/child name pair, and an [`EdgeLabel`] per edge with
//! `(parent_count : child_count)` pairs indexed by recursion level.

use super::label::EdgeLabel;
use std::collections::HashMap;
use std::fmt;
use xmlkit::names::{LabelId, NameTable};

/// Identifier of a kernel vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VertexId(pub u32);

impl VertexId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a kernel edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A vertex of the kernel (one per element name).
#[derive(Debug, Clone)]
struct Vertex {
    label: LabelId,
    out_edges: Vec<EdgeId>,
    in_edges: Vec<EdgeId>,
}

/// A directed edge of the kernel.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Source vertex (the parent element name).
    pub from: VertexId,
    /// Target vertex (the child element name).
    pub to: VertexId,
    /// The recursion-level-indexed statistics.
    pub label: EdgeLabel,
}

/// The XSEED kernel graph.
#[derive(Debug, Clone, Default)]
pub struct Kernel {
    names: NameTable,
    /// The vertex of each interned name, indexed by [`LabelId`]: a name
    /// is interned only when its vertex is created, so the table is dense.
    vertex_by_label: Vec<VertexId>,
    vertices: Vec<Vertex>,
    edges: Vec<Edge>,
    edge_index: HashMap<(VertexId, VertexId), EdgeId>,
    root: Option<VertexId>,
    element_count: u64,
}

impl Kernel {
    /// Creates an empty kernel.
    pub fn new() -> Self {
        Self::default()
    }

    // ------------------------------------------------------------------
    // Construction primitives (used by the builder and incremental update)
    // ------------------------------------------------------------------

    /// Returns the vertex for `name`, creating it (and interning the name)
    /// if necessary. This is the paper's `GET-VERTEX`.
    pub fn get_or_create_vertex(&mut self, name: &str) -> VertexId {
        let label = self.names.intern(name);
        if let Some(&v) = self.vertex_by_label.get(label.index()) {
            return v;
        }
        let v = VertexId(self.vertices.len() as u32);
        self.vertices.push(Vertex {
            label,
            out_edges: Vec::new(),
            in_edges: Vec::new(),
        });
        debug_assert_eq!(label.index(), self.vertex_by_label.len());
        self.vertex_by_label.push(v);
        v
    }

    /// Returns the edge `(u, v)`, creating it if necessary. This is the
    /// paper's `GET-EDGE`.
    pub fn get_or_create_edge(&mut self, u: VertexId, v: VertexId) -> EdgeId {
        if let Some(&e) = self.edge_index.get(&(u, v)) {
            return e;
        }
        let e = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge {
            from: u,
            to: v,
            label: EdgeLabel::new(),
        });
        self.vertices[u.index()].out_edges.push(e);
        self.vertices[v.index()].in_edges.push(e);
        self.edge_index.insert((u, v), e);
        e
    }

    /// Sets the root vertex (the vertex of the document root element).
    pub fn set_root(&mut self, v: VertexId) {
        self.root = Some(v);
    }

    /// Records `delta` additional elements in the document (used by the
    /// builder to keep the total element count).
    pub fn add_elements(&mut self, delta: u64) {
        self.element_count += delta;
    }

    /// Removes `delta` elements from the total count, saturating at zero.
    pub fn remove_elements(&mut self, delta: u64) {
        self.element_count = self.element_count.saturating_sub(delta);
    }

    /// Mutable access to an edge's label.
    pub fn edge_label_mut(&mut self, e: EdgeId) -> &mut EdgeLabel {
        &mut self.edges[e.index()].label
    }

    // ------------------------------------------------------------------
    // Read access
    // ------------------------------------------------------------------

    /// The name table of the kernel.
    pub fn names(&self) -> &NameTable {
        &self.names
    }

    /// The root vertex, if the kernel is non-empty.
    pub fn root(&self) -> Option<VertexId> {
        self.root
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Total number of elements in the summarized document(s).
    pub fn element_count(&self) -> u64 {
        self.element_count
    }

    /// The vertex for an element name, if present.
    pub fn vertex_by_name(&self, name: &str) -> Option<VertexId> {
        let label = self.names.lookup(name)?;
        self.vertex_by_label(label)
    }

    /// The vertex for a label id, if present.
    pub fn vertex_by_label(&self, label: LabelId) -> Option<VertexId> {
        self.vertex_by_label.get(label.index()).copied()
    }

    /// The label id of a vertex.
    pub fn label(&self, v: VertexId) -> LabelId {
        self.vertices[v.index()].label
    }

    /// The element name of a vertex.
    pub fn name(&self, v: VertexId) -> &str {
        self.names.name_or_panic(self.vertices[v.index()].label)
    }

    /// All vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        (0..self.vertices.len() as u32).map(VertexId)
    }

    /// All edge ids.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// The edge data for `e`.
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e.index()]
    }

    /// Out-edges of `v` in insertion (document discovery) order.
    pub fn out_edges(&self, v: VertexId) -> &[EdgeId] {
        &self.vertices[v.index()].out_edges
    }

    /// In-edges of `v`.
    pub fn in_edges(&self, v: VertexId) -> &[EdgeId] {
        &self.vertices[v.index()].in_edges
    }

    /// The edge from `u` to `v`, if present.
    pub fn edge_between(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        self.edge_index.get(&(u, v)).copied()
    }

    /// The label of the edge `(u, v)`, if present.
    pub fn edge_label(&self, u: VertexId, v: VertexId) -> Option<&EdgeLabel> {
        self.edge_between(u, v)
            .map(|e| &self.edges[e.index()].label)
    }

    /// `S_v` at a recursion level (Definition 5): the sum of child counts
    /// at `level` over all in-edges of `v`. For the root vertex (which has
    /// no in-edges) this returns 1, matching the convention that the root
    /// element has cardinality 1.
    pub fn in_child_sum(&self, v: VertexId, level: usize) -> u64 {
        let sum: u64 = self.vertices[v.index()]
            .in_edges
            .iter()
            .map(|&e| self.edges[e.index()].label.child_count(level))
            .sum();
        if sum == 0 && Some(v) == self.root && level == 0 {
            1
        } else {
            sum
        }
    }

    /// Sum of child counts over all in-edges of `v` and all recursion
    /// levels `>= level` — the denominator used for `//`-axis estimates.
    pub fn in_child_sum_from(&self, v: VertexId, level: usize) -> u64 {
        let sum: u64 = self.vertices[v.index()]
            .in_edges
            .iter()
            .map(|&e| self.edges[e.index()].label.child_count_from(level))
            .sum();
        if sum == 0 && Some(v) == self.root && level == 0 {
            1
        } else {
            sum
        }
    }

    /// Total number of elements mapped to vertex `v` (all levels).
    pub fn vertex_cardinality(&self, v: VertexId) -> u64 {
        self.in_child_sum_from(v, 0)
    }

    /// Removes edges whose labels have become all-zero (after subtree
    /// removal) and vertices with no remaining edges. Ids are *not*
    /// reused; the kernel keeps tombstones internally, which is fine for
    /// an in-memory synopsis whose size accounting is based on the
    /// serialized form.
    ///
    /// Runs in one pass over the edges: the adjacency lists are rebuilt
    /// from scratch rather than `retain`-scanned per dead edge (the old
    /// path was O(E·deg) and dominated bulk subtree removals).
    pub fn prune_zero_edges(&mut self) {
        if !self
            .edge_index
            .values()
            .any(|&e| self.edges[e.index()].label.is_zero())
        {
            return;
        }
        for vertex in &mut self.vertices {
            vertex.out_edges.clear();
            vertex.in_edges.clear();
        }
        for (i, edge) in self.edges.iter_mut().enumerate() {
            let e = EdgeId(i as u32);
            let key = (edge.from, edge.to);
            if edge.label.is_zero() {
                // Only unlink the index entry if it still points at this
                // edge — a pruned-then-recreated edge pair leaves an older
                // tombstone with the same endpoints behind.
                if self.edge_index.get(&key) == Some(&e) {
                    self.edge_index.remove(&key);
                }
                // Normalize the tombstone to an empty label.
                edge.label = EdgeLabel::new();
            } else if self.edge_index.get(&key) == Some(&e) {
                self.vertices[edge.from.index()].out_edges.push(e);
                self.vertices[edge.to.index()].in_edges.push(e);
            }
        }
    }

    /// Live edges (those still wired into the adjacency lists).
    pub fn live_edge_count(&self) -> usize {
        self.edge_index.len()
    }
}

impl fmt::Display for Kernel {
    /// Prints each edge in the paper's notation, e.g.
    /// `s -> p (5:9, 1:2, 2:3)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "XSEED kernel: {} vertices, {} edges, {} elements",
            self.vertex_count(),
            self.live_edge_count(),
            self.element_count()
        )?;
        let mut keys: Vec<(&str, &str, EdgeId)> = self
            .edge_index
            .values()
            .map(|&e| {
                let edge = &self.edges[e.index()];
                (self.name(edge.from), self.name(edge.to), e)
            })
            .collect();
        keys.sort();
        for (from, to, e) in keys {
            writeln!(f, "  {from} -> {to} {}", self.edges[e.index()].label)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_kernel() -> Kernel {
        // a -> b (1:2), b -> c (2:3)
        let mut k = Kernel::new();
        let a = k.get_or_create_vertex("a");
        let b = k.get_or_create_vertex("b");
        let c = k.get_or_create_vertex("c");
        k.set_root(a);
        let ab = k.get_or_create_edge(a, b);
        k.edge_label_mut(ab).add_child(0, 2);
        k.edge_label_mut(ab).add_parent(0, 1);
        let bc = k.get_or_create_edge(b, c);
        k.edge_label_mut(bc).add_child(0, 3);
        k.edge_label_mut(bc).add_parent(0, 2);
        k.add_elements(6);
        k
    }

    #[test]
    fn vertices_are_deduplicated() {
        let mut k = Kernel::new();
        let a1 = k.get_or_create_vertex("a");
        let a2 = k.get_or_create_vertex("a");
        assert_eq!(a1, a2);
        assert_eq!(k.vertex_count(), 1);
    }

    #[test]
    fn edges_are_deduplicated() {
        let mut k = Kernel::new();
        let a = k.get_or_create_vertex("a");
        let b = k.get_or_create_vertex("b");
        let e1 = k.get_or_create_edge(a, b);
        let e2 = k.get_or_create_edge(a, b);
        assert_eq!(e1, e2);
        assert_eq!(k.edge_count(), 1);
        // The reverse direction is a different edge.
        let e3 = k.get_or_create_edge(b, a);
        assert_ne!(e1, e3);
    }

    #[test]
    fn adjacency_and_lookup() {
        let k = tiny_kernel();
        let a = k.vertex_by_name("a").unwrap();
        let b = k.vertex_by_name("b").unwrap();
        let c = k.vertex_by_name("c").unwrap();
        assert_eq!(k.out_edges(a).len(), 1);
        assert_eq!(k.in_edges(c).len(), 1);
        assert!(k.edge_between(a, b).is_some());
        assert!(k.edge_between(a, c).is_none());
        assert_eq!(k.edge_label(b, c).unwrap().child_count(0), 3);
        assert_eq!(k.name(a), "a");
        assert!(k.vertex_by_name("zzz").is_none());
        assert_eq!(k.root(), Some(a));
        assert_eq!(k.element_count(), 6);
    }

    #[test]
    fn in_child_sum_and_root_convention() {
        let k = tiny_kernel();
        let a = k.vertex_by_name("a").unwrap();
        let b = k.vertex_by_name("b").unwrap();
        let c = k.vertex_by_name("c").unwrap();
        // Root has no in-edges: S = 1 by convention.
        assert_eq!(k.in_child_sum(a, 0), 1);
        assert_eq!(k.in_child_sum(b, 0), 2);
        assert_eq!(k.in_child_sum(c, 0), 3);
        assert_eq!(k.in_child_sum(c, 1), 0);
        assert_eq!(k.vertex_cardinality(c), 3);
        assert_eq!(k.in_child_sum_from(b, 0), 2);
    }

    #[test]
    fn prune_zero_edges_removes_adjacency() {
        let mut k = tiny_kernel();
        let b = k.vertex_by_name("b").unwrap();
        let c = k.vertex_by_name("c").unwrap();
        let bc = k.edge_between(b, c).unwrap();
        k.edge_label_mut(bc).remove_child(0, 3);
        k.edge_label_mut(bc).remove_parent(0, 2);
        k.prune_zero_edges();
        assert!(k.edge_between(b, c).is_none());
        assert_eq!(k.out_edges(b).len(), 0);
        assert_eq!(k.in_edges(c).len(), 0);
        assert_eq!(k.live_edge_count(), 1);
    }

    #[test]
    fn display_lists_edges() {
        let k = tiny_kernel();
        let s = k.to_string();
        assert!(s.contains("a -> b (1:2)"));
        assert!(s.contains("b -> c (2:3)"));
    }
}
