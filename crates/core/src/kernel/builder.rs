//! Single-pass kernel construction (Algorithm 1).
//!
//! The builder consumes opening/closing element events — from the SAX
//! parser, from an in-memory [`Document`], or driven manually — and
//! maintains:
//!
//! * `path_stack`: one entry per currently open element, holding the
//!   kernel vertex it maps to and where its run starts in `child_pairs`;
//! * `child_pairs`: one shared stack of the distinct `(edge, recursion
//!   level)` pairs of each open element's children observed so far, one
//!   contiguous run per open element with the innermost on top (used to
//!   increment parent counts exactly once per parent element when it
//!   closes), and
//! * `recursion`: the counter stacks giving the recursion level of the
//!   current rooted path in O(1).
//!
//! Once the stacks have grown to the document's depth and the kernel
//! holds each name and edge, an element costs two hash lookups (its name
//! and its edge) and allocates nothing.

use super::graph::{EdgeId, Kernel, VertexId};
use crate::counter_stacks::FlatCounterStacks;
use xmlkit::sax::{SaxEvent, SaxParser};
use xmlkit::tree::{Children, Document, NodeId};

/// Streaming builder for the XSEED kernel.
#[derive(Debug, Default)]
pub struct KernelBuilder {
    kernel: Kernel,
    path_stack: Vec<OpenElement>,
    child_pairs: Vec<(EdgeId, usize)>,
    recursion: FlatCounterStacks,
}

#[derive(Debug)]
struct OpenElement {
    vertex: VertexId,
    /// Start of this element's run of child pairs in `child_pairs`.
    first_pair: usize,
}

impl KernelBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Processes an opening tag (Algorithm 1, lines 4–15).
    pub fn open_element(&mut self, name: &str) {
        let v = self.kernel.get_or_create_vertex(name);
        self.kernel.add_elements(1);
        match self.path_stack.last() {
            None => {
                self.recursion.push(v);
                if self.kernel.root().is_none() {
                    self.kernel.set_root(v);
                }
            }
            Some(parent) => {
                let e = self.kernel.get_or_create_edge(parent.vertex, v);
                let level = self.recursion.push(v);
                self.kernel.edge_label_mut(e).add_child(level, 1);
                // The parent's run is the top of the shared stack: every
                // earlier sibling has closed and truncated its own run.
                if !self.child_pairs[parent.first_pair..].contains(&(e, level)) {
                    self.child_pairs.push((e, level));
                }
            }
        }
        self.path_stack.push(OpenElement {
            vertex: v,
            first_pair: self.child_pairs.len(),
        });
    }

    /// Processes a closing tag (Algorithm 1, lines 16–20).
    pub fn close_element(&mut self) {
        let closed = self
            .path_stack
            .pop()
            .expect("close_element without a matching open_element");
        for &(e, level) in &self.child_pairs[closed.first_pair..] {
            self.kernel.edge_label_mut(e).add_parent(level, 1);
        }
        self.child_pairs.truncate(closed.first_pair);
        self.recursion.pop(closed.vertex);
    }

    /// Current element nesting depth.
    pub fn depth(&self) -> usize {
        self.path_stack.len()
    }

    /// Finishes construction and returns the kernel.
    ///
    /// # Panics
    ///
    /// Panics if elements are still open — that indicates a bug at the
    /// call site (unbalanced open/close calls).
    pub fn finish(self) -> Kernel {
        assert!(
            self.path_stack.is_empty(),
            "kernel builder finished with {} unclosed element(s)",
            self.path_stack.len()
        );
        self.kernel
    }

    /// Finishes construction with the **root element still open**,
    /// returning a [`PartialKernel`]: the per-partition half-product of
    /// partitioned construction (see [`crate::partition`]). Everything
    /// below the root is fully accounted; only the root's own
    /// parent-count increments (one per distinct `(edge, level)` pair of
    /// its children) are deferred, because in a partitioned build the
    /// root's children are split across partitions and the increment must
    /// happen exactly once for the *document* root, not once per
    /// partition.
    ///
    /// # Panics
    ///
    /// Panics unless exactly the root element is open.
    pub fn finish_suspended(mut self) -> PartialKernel {
        assert_eq!(
            self.path_stack.len(),
            1,
            "finish_suspended requires exactly the root element open, found {}",
            self.path_stack.len()
        );
        let root = self.path_stack.pop().expect("length checked above");
        self.recursion.pop(root.vertex);
        PartialKernel {
            kernel: self.kernel,
            root_child_edges: self.child_pairs.split_off(root.first_pair),
        }
    }

    /// Drives the builder over the subtree rooted at `n`, in document
    /// order, with one child iterator per open element on `stack` (scratch
    /// space, empty on entry and on return), so no node's children are
    /// collected.
    fn drive_subtree<'d>(&mut self, doc: &'d Document, n: NodeId, stack: &mut Vec<Children<'d>>) {
        self.open_element(doc.name(n));
        stack.push(doc.children(n));
        while let Some(children) = stack.last_mut() {
            match children.next() {
                Some(c) => {
                    self.open_element(doc.name(c));
                    stack.push(doc.children(c));
                }
                None => {
                    stack.pop();
                    self.close_element();
                }
            }
        }
    }

    /// Builds a kernel directly from an in-memory document.
    pub fn from_document(doc: &Document) -> Kernel {
        let mut builder = KernelBuilder::new();
        builder.drive_subtree(doc, doc.root(), &mut Vec::new());
        builder.finish()
    }

    /// Builds the partial kernel of one partition: the document root plus
    /// the contiguous `range` of its children (by child index), leaving
    /// the root open ([`KernelBuilder::finish_suspended`]). The rooted
    /// path — and therefore every recursion level — is identical to the
    /// monolithic build, which is what makes partition merging
    /// bit-compatible (see [`crate::partition::merge_partials`]).
    ///
    /// # Panics
    ///
    /// Panics if `range` does not lie within the root's children.
    pub fn from_document_root_range(
        doc: &Document,
        range: std::ops::Range<usize>,
    ) -> PartialKernel {
        let root = doc.root();
        let child_count = doc.child_count(root);
        assert!(
            range.start <= range.end && range.end <= child_count,
            "root child range {range:?} out of bounds for {child_count} children"
        );
        let mut builder = KernelBuilder::new();
        builder.open_element(doc.name(root));
        let mut stack = Vec::new();
        for c in doc.children(root).skip(range.start).take(range.len()) {
            builder.drive_subtree(doc, c, &mut stack);
        }
        builder.finish_suspended()
    }

    /// Builds a kernel by SAX-parsing XML text — the paper's construction
    /// path (parse once, no in-memory tree needed).
    pub fn from_xml_str(xml: &str) -> Result<Kernel, xmlkit::Error> {
        let mut builder = KernelBuilder::new();
        let mut parser = SaxParser::new(xml);
        loop {
            match parser.next_event()? {
                SaxEvent::StartElement { name, .. } => builder.open_element(name),
                SaxEvent::EndElement { .. } => builder.close_element(),
                SaxEvent::Text(_)
                | SaxEvent::Comment(_)
                | SaxEvent::ProcessingInstruction { .. } => {}
                SaxEvent::Eof => break,
            }
        }
        Ok(builder.finish())
    }
}

/// A kernel whose root element is conceptually still open: the result of
/// [`KernelBuilder::finish_suspended`] and the unit of partitioned
/// construction.
///
/// The deferred state is exactly the root's distinct `(edge, recursion
/// level)` child pairs. [`crate::partition::merge_partials`] unions those
/// pairs across partitions; [`PartialKernel::into_kernel`] applies the
/// one-per-pair parent-count increment the monolithic builder would have
/// applied when the root closed.
#[derive(Debug)]
pub struct PartialKernel {
    pub(crate) kernel: Kernel,
    /// Distinct `(edge, recursion level)` pairs of the root's children, in
    /// discovery order.
    pub(crate) root_child_edges: Vec<(EdgeId, usize)>,
}

impl PartialKernel {
    /// The kernel as accumulated so far (root parent counts not yet
    /// applied).
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Closes the root: applies the deferred parent-count increments and
    /// returns the finished kernel. On a partial built from the full
    /// child range this is bit-identical to [`KernelBuilder::finish`].
    pub fn into_kernel(mut self) -> Kernel {
        for (e, level) in self.root_child_edges {
            self.kernel.edge_label_mut(e).add_parent(level, 1);
        }
        self.kernel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::Dataset;
    use xmlkit::samples::{figure2_document, FIGURE2_XML};

    fn pairs(kernel: &Kernel, from: &str, to: &str) -> Vec<(u64, u64)> {
        let u = kernel.vertex_by_name(from).unwrap();
        let v = kernel.vertex_by_name(to).unwrap();
        kernel
            .edge_label(u, v)
            .unwrap()
            .iter()
            .map(|(_, p, c)| (p, c))
            .collect()
    }

    #[test]
    fn figure2_kernel_matches_paper() {
        // Example 2: the kernel of the Figure 2(a) document must carry
        // exactly the labels shown in Figure 2(b).
        let kernel = KernelBuilder::from_document(&figure2_document());
        assert_eq!(pairs(&kernel, "a", "t"), vec![(1, 1)]);
        assert_eq!(pairs(&kernel, "a", "u"), vec![(1, 1)]);
        assert_eq!(pairs(&kernel, "a", "c"), vec![(1, 2)]);
        assert_eq!(pairs(&kernel, "c", "t"), vec![(2, 2)]);
        assert_eq!(pairs(&kernel, "c", "p"), vec![(2, 3)]);
        assert_eq!(pairs(&kernel, "c", "s"), vec![(2, 5)]);
        assert_eq!(pairs(&kernel, "s", "t"), vec![(2, 2), (1, 1)]);
        assert_eq!(pairs(&kernel, "s", "p"), vec![(5, 9), (1, 2), (2, 3)]);
        assert_eq!(pairs(&kernel, "s", "s"), vec![(0, 0), (2, 2), (1, 2)]);
        assert_eq!(kernel.vertex_count(), 6);
        assert_eq!(kernel.live_edge_count(), 9);
        assert_eq!(kernel.element_count(), 36);
        assert_eq!(kernel.name(kernel.root().unwrap()), "a");
    }

    /// Asserts that `b` has `a`'s element names, shape and text sizes: a
    /// preorder listing of (name, child count, text bytes) fixes all three.
    fn assert_same_tree(a: &Document, b: &Document, what: &str) {
        let listing = |d: &Document| -> Vec<(String, usize, u32)> {
            d.preorder()
                .map(|n| {
                    (
                        d.name(n).to_string(),
                        d.child_count(n),
                        d.node(n).text_bytes,
                    )
                })
                .collect()
        };
        assert_eq!(listing(a), listing(b), "{what}: reparsed tree differs");
    }

    #[test]
    fn sax_and_document_construction_agree() {
        let from_doc = KernelBuilder::from_document(&figure2_document());
        let from_sax = KernelBuilder::from_xml_str(FIGURE2_XML).unwrap();
        assert_eq!(from_doc.vertex_count(), from_sax.vertex_count());
        assert_eq!(from_doc.live_edge_count(), from_sax.live_edge_count());
        assert_eq!(from_doc.element_count(), from_sax.element_count());
        assert_eq!(from_doc.to_string(), from_sax.to_string());
        assert_eq!(from_doc.serialize(), from_sax.serialize());

        // One dataset per generator, at a small scale: the XML path, the
        // tree path and a partitioned build over the full root-child
        // range must produce the same kernel bytes, and parsing the XML
        // must reproduce the generated tree.
        for dataset in [
            Dataset::Dblp,
            Dataset::XMark10,
            Dataset::SwissProt,
            Dataset::Tpch,
            Dataset::XBench,
            Dataset::TreebankSmall,
        ] {
            let what = dataset.paper_name();
            let doc = dataset.generate_scaled(0.05);
            let xml = xmlkit::writer::to_string(&doc);
            let bytes = KernelBuilder::from_document(&doc).serialize();
            let from_xml = KernelBuilder::from_xml_str(&xml).unwrap();
            assert_eq!(from_xml.serialize(), bytes, "{what}: XML path differs");
            let children = doc.child_count(doc.root());
            let merged = KernelBuilder::from_document_root_range(&doc, 0..children).into_kernel();
            assert_eq!(
                merged.serialize(),
                bytes,
                "{what}: full-range partial differs"
            );
            assert_same_tree(&doc, &Document::parse_str(&xml).unwrap(), what);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn root_range_past_the_children_panics() {
        let doc = figure2_document();
        KernelBuilder::from_document_root_range(&doc, 0..5);
    }

    #[test]
    fn observation1_no_overlong_recursive_paths() {
        // The (s,s) label has 3 entries, so a path with recursion level 3
        // (four nested s) cannot be derived from the synopsis.
        let kernel = KernelBuilder::from_document(&figure2_document());
        let s = kernel.vertex_by_name("s").unwrap();
        let label = kernel.edge_label(s, s).unwrap();
        assert_eq!(label.levels(), 3);
        assert_eq!(label.child_count(3), 0);
    }

    #[test]
    fn observation2_out_edges_cover_child_labels() {
        let kernel = KernelBuilder::from_document(&figure2_document());
        let c = kernel.vertex_by_name("c").unwrap();
        // c elements have children labelled t, p, s: three out-edges.
        assert_eq!(kernel.out_edges(c).len(), 3);
    }

    #[test]
    fn observation3_descendant_counts() {
        // //s//s//p returns 5 elements: the sum of (s,p) child counts at
        // recursion levels 1 and 2.
        let kernel = KernelBuilder::from_document(&figure2_document());
        let s = kernel.vertex_by_name("s").unwrap();
        let p = kernel.vertex_by_name("p").unwrap();
        assert_eq!(kernel.edge_label(s, p).unwrap().child_count_from(1), 5);
    }

    #[test]
    fn non_recursive_document_has_single_level_labels() {
        let kernel = KernelBuilder::from_xml_str("<a><b><c/><c/></b><b><c/></b></a>").unwrap();
        let b = kernel.vertex_by_name("b").unwrap();
        let c = kernel.vertex_by_name("c").unwrap();
        let label = kernel.edge_label(b, c).unwrap();
        assert_eq!(label.levels(), 1);
        assert_eq!(label.parent_count(0), 2);
        assert_eq!(label.child_count(0), 3);
    }

    #[test]
    fn parent_count_counts_parents_not_children() {
        // One parent with many same-label children: parent count is 1.
        let kernel = KernelBuilder::from_xml_str("<a><b/><b/><b/><b/></a>").unwrap();
        let a = kernel.vertex_by_name("a").unwrap();
        let b = kernel.vertex_by_name("b").unwrap();
        let label = kernel.edge_label(a, b).unwrap();
        assert_eq!(label.parent_count(0), 1);
        assert_eq!(label.child_count(0), 4);
    }

    #[test]
    fn manual_event_driving() {
        let mut b = KernelBuilder::new();
        b.open_element("r");
        assert_eq!(b.depth(), 1);
        b.open_element("x");
        b.close_element();
        b.open_element("x");
        b.close_element();
        b.close_element();
        let k = b.finish();
        assert_eq!(k.element_count(), 3);
        let r = k.vertex_by_name("r").unwrap();
        let x = k.vertex_by_name("x").unwrap();
        assert_eq!(k.edge_label(r, x).unwrap().child_count(0), 2);
    }

    #[test]
    #[should_panic(expected = "unclosed element")]
    fn unbalanced_builder_panics() {
        let mut b = KernelBuilder::new();
        b.open_element("r");
        b.finish();
    }

    #[test]
    fn suspended_finish_over_full_range_matches_finish() {
        let doc = figure2_document();
        let monolithic = KernelBuilder::from_document(&doc);
        let child_count = doc.children(doc.root()).count();
        let merged = KernelBuilder::from_document_root_range(&doc, 0..child_count).into_kernel();
        assert_eq!(monolithic.to_string(), merged.to_string());
        assert_eq!(monolithic.serialize(), merged.serialize());
    }

    #[test]
    fn suspended_partial_defers_only_root_parent_counts() {
        let doc = figure2_document();
        let child_count = doc.children(doc.root()).count();
        let partial = KernelBuilder::from_document_root_range(&doc, 0..child_count);
        // All 36 elements are accounted before the root closes…
        assert_eq!(partial.kernel().element_count(), 36);
        // …but the root's parent counts are not: a -> c is (0:2) so far.
        let a = partial.kernel().vertex_by_name("a").unwrap();
        let c = partial.kernel().vertex_by_name("c").unwrap();
        let label = partial.kernel().edge_label(a, c).unwrap();
        assert_eq!(label.parent_count(0), 0);
        assert_eq!(label.child_count(0), 2);
        let k = partial.into_kernel();
        assert_eq!(k.edge_label(a, c).unwrap().parent_count(0), 1);
    }

    #[test]
    fn empty_root_range_builds_a_root_only_kernel() {
        let doc = figure2_document();
        let k = KernelBuilder::from_document_root_range(&doc, 0..0).into_kernel();
        assert_eq!(k.element_count(), 1);
        assert_eq!(k.vertex_count(), 1);
        assert_eq!(k.live_edge_count(), 0);
        assert_eq!(k.name(k.root().unwrap()), "a");
    }

    #[test]
    #[should_panic(expected = "finish_suspended requires exactly the root")]
    fn suspended_finish_rejects_nested_open_elements() {
        let mut b = KernelBuilder::new();
        b.open_element("r");
        b.open_element("x");
        b.finish_suspended();
    }
}
