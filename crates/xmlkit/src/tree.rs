//! Arena-backed XML document tree.
//!
//! The XSEED pipeline is element-structure oriented: cardinality estimation
//! for structural path queries only depends on element names and the
//! parent–child relation. The [`Document`] type therefore stores the
//! element tree in a compact arena (`Vec` of nodes addressed by
//! [`NodeId`]), with first-child / next-sibling / parent links, the interned
//! label of every element, and (optionally) the concatenated text content.
//!
//! The tree supports:
//! * construction from XML text ([`Document::parse_str`]) or
//!   programmatically ([`DocumentBuilder`]),
//! * preorder traversal and child iteration,
//! * subtree extraction and structural equality, used by the incremental
//!   synopsis-update machinery,
//! * basic size statistics.

use crate::error::{Error, Result};
use crate::names::{LabelId, NameTable};
use crate::sax::{SaxEvent, SaxParser};
use std::fmt;

/// Index of a node in a [`Document`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Raw arena index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One element node in the arena.
#[derive(Debug, Clone)]
pub struct Node {
    /// Interned element name.
    pub label: LabelId,
    /// Parent element, `None` for the root.
    pub parent: Option<NodeId>,
    /// First child in document order.
    pub first_child: Option<NodeId>,
    /// Last child in document order (makes appends O(1)).
    pub last_child: Option<NodeId>,
    /// Next sibling in document order.
    pub next_sibling: Option<NodeId>,
    /// Number of bytes of text directly contained in this element
    /// (not including descendants). Text content itself is not stored;
    /// only its size contributes to the document-size statistics.
    pub text_bytes: u32,
}

/// An in-memory XML element tree.
#[derive(Debug, Clone)]
pub struct Document {
    nodes: Vec<Node>,
    names: NameTable,
    root: NodeId,
    /// Total size in bytes of the original serialized form, if known
    /// (set when parsing from text; estimated otherwise).
    source_bytes: usize,
}

impl Document {
    /// Parses an XML string into a document tree. The parser's events
    /// borrow from `input`, so an element, end tag or text run allocates
    /// nothing beyond the amortized growth of the node arena and the
    /// stacks, except for the name table's first sighting of a name,
    /// attribute lists, and text that contains an entity reference.
    pub fn parse_str(input: &str) -> Result<Self> {
        let mut builder = DocumentBuilder::new();
        let mut parser = SaxParser::new(input);
        loop {
            match parser.next_event()? {
                SaxEvent::StartElement { name, .. } => {
                    builder.start_element(name);
                }
                SaxEvent::EndElement { .. } => {
                    builder.end_element();
                }
                SaxEvent::Text(t) => {
                    builder.text_len(t.len());
                }
                SaxEvent::Comment(_) | SaxEvent::ProcessingInstruction { .. } => {}
                SaxEvent::Eof => break,
            }
        }
        let mut doc = builder.finish()?;
        doc.source_bytes = input.len();
        Ok(doc)
    }

    /// Number of element nodes.
    pub fn element_count(&self) -> usize {
        self.nodes.len()
    }

    /// The root element.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The name table of this document.
    pub fn names(&self) -> &NameTable {
        &self.names
    }

    /// Size in bytes of the serialized document (exact if parsed from
    /// text, otherwise an estimate based on tag and text sizes).
    pub fn source_bytes(&self) -> usize {
        self.source_bytes
    }

    /// Immutable access to a node. Panics on an invalid id.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Checked access to a node.
    pub fn get(&self, id: NodeId) -> Result<&Node> {
        self.nodes
            .get(id.index())
            .ok_or(Error::InvalidNodeId { id: id.index() })
    }

    /// The interned label of `id`.
    #[inline]
    pub fn label(&self, id: NodeId) -> LabelId {
        self.node(id).label
    }

    /// The element name of `id`.
    pub fn name(&self, id: NodeId) -> &str {
        self.names.name_or_panic(self.node(id).label)
    }

    /// Iterates over the children of `id` in document order.
    pub fn children(&self, id: NodeId) -> Children<'_> {
        Children {
            doc: self,
            next: self.node(id).first_child,
        }
    }

    /// Number of children of `id`.
    pub fn child_count(&self, id: NodeId) -> usize {
        self.children(id).count()
    }

    /// Iterates over all nodes in preorder (document order), starting at
    /// the root.
    pub fn preorder(&self) -> Preorder<'_> {
        Preorder {
            doc: self,
            stack: vec![self.root],
        }
    }

    /// Iterates over the subtree rooted at `id` in preorder.
    pub fn preorder_from(&self, id: NodeId) -> Preorder<'_> {
        Preorder {
            doc: self,
            stack: vec![id],
        }
    }

    /// Returns the rooted path of labels from the document root down to
    /// `id`, inclusive.
    pub fn rooted_path(&self, id: NodeId) -> Vec<LabelId> {
        let mut path = Vec::new();
        let mut cur = Some(id);
        while let Some(n) = cur {
            path.push(self.node(n).label);
            cur = self.node(n).parent;
        }
        path.reverse();
        path
    }

    /// Depth of `id` (root has depth 1).
    pub fn depth(&self, id: NodeId) -> usize {
        let mut d = 0;
        let mut cur = Some(id);
        while let Some(n) = cur {
            d += 1;
            cur = self.node(n).parent;
        }
        d
    }

    /// Maximum depth over all nodes.
    pub fn max_depth(&self) -> usize {
        self.preorder().map(|n| self.depth(n)).max().unwrap_or(0)
    }

    /// Extracts the subtree rooted at `id` as a new standalone document.
    /// Labels are re-interned into a fresh name table so the result is
    /// self-contained.
    pub fn subtree(&self, id: NodeId) -> Document {
        let mut builder = DocumentBuilder::new();
        self.copy_into(id, &mut builder);
        builder
            .finish()
            .expect("subtree of a valid document is a valid document")
    }

    fn copy_into(&self, id: NodeId, builder: &mut DocumentBuilder) {
        builder.start_element(self.name(id));
        builder.text_len(self.node(id).text_bytes as usize);
        let children: Vec<NodeId> = self.children(id).collect();
        for c in children {
            self.copy_into(c, builder);
        }
        builder.end_element();
    }

    /// Structural equality: same shape and same element names, ignoring
    /// text and the identity of label ids.
    pub fn structurally_equal(&self, other: &Document) -> bool {
        fn eq(a: &Document, an: NodeId, b: &Document, bn: NodeId) -> bool {
            if a.name(an) != b.name(bn) {
                return false;
            }
            let ac: Vec<NodeId> = a.children(an).collect();
            let bc: Vec<NodeId> = b.children(bn).collect();
            if ac.len() != bc.len() {
                return false;
            }
            ac.iter().zip(bc.iter()).all(|(&x, &y)| eq(a, x, b, y))
        }
        eq(self, self.root, other, other.root)
    }

    /// Approximate number of heap bytes used by the in-memory tree.
    pub fn heap_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<Node>() + self.names.heap_bytes()
    }

    /// Counts elements per label, indexed by [`LabelId`].
    pub fn label_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.names.len()];
        for n in self.preorder() {
            hist[self.label(n).index()] += 1;
        }
        hist
    }
}

/// Iterator over the children of a node.
pub struct Children<'a> {
    doc: &'a Document,
    next: Option<NodeId>,
}

impl<'a> Iterator for Children<'a> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        self.next = self.doc.node(cur).next_sibling;
        Some(cur)
    }
}

/// Preorder (document order) iterator.
pub struct Preorder<'a> {
    doc: &'a Document,
    stack: Vec<NodeId>,
}

impl<'a> Iterator for Preorder<'a> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.stack.pop()?;
        // Push children in reverse so the leftmost child is visited first.
        let children: Vec<NodeId> = self.doc.children(cur).collect();
        for c in children.into_iter().rev() {
            self.stack.push(c);
        }
        Some(cur)
    }
}

/// Incremental builder for [`Document`]s.
///
/// Call [`start_element`](DocumentBuilder::start_element) /
/// [`end_element`](DocumentBuilder::end_element) in document order (the
/// same shape as SAX events) and then [`finish`](DocumentBuilder::finish).
#[derive(Debug, Default)]
pub struct DocumentBuilder {
    nodes: Vec<Node>,
    names: NameTable,
    stack: Vec<NodeId>,
    root: Option<NodeId>,
    estimated_bytes: usize,
}

impl DocumentBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a new element with the given name.
    pub fn start_element(&mut self, name: &str) -> NodeId {
        let label = self.names.intern(name);
        let id = NodeId(self.nodes.len() as u32);
        let parent = self.stack.last().copied();
        self.nodes.push(Node {
            label,
            parent,
            first_child: None,
            last_child: None,
            next_sibling: None,
            text_bytes: 0,
        });
        // Opening + closing tag bytes: <name></name>
        self.estimated_bytes += 2 * name.len() + 5;
        if let Some(p) = parent {
            let prev_last = self.nodes[p.index()].last_child;
            match prev_last {
                Some(prev) => self.nodes[prev.index()].next_sibling = Some(id),
                None => self.nodes[p.index()].first_child = Some(id),
            }
            self.nodes[p.index()].last_child = Some(id);
        } else if self.root.is_none() {
            self.root = Some(id);
        }
        self.stack.push(id);
        id
    }

    /// Records `len` bytes of text inside the currently open element.
    pub fn text_len(&mut self, len: usize) {
        if let Some(&cur) = self.stack.last() {
            self.nodes[cur.index()].text_bytes = self.nodes[cur.index()]
                .text_bytes
                .saturating_add(len as u32);
            self.estimated_bytes += len;
        }
    }

    /// Closes the most recently opened element.
    pub fn end_element(&mut self) {
        self.stack.pop();
    }

    /// Current nesting depth (number of open elements).
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Number of elements created so far.
    pub fn element_count(&self) -> usize {
        self.nodes.len()
    }

    /// Finishes the build. Fails if no element was created or elements are
    /// still open (which would indicate a builder bug at the call site).
    pub fn finish(self) -> Result<Document> {
        let root = self.root.ok_or(Error::EmptyDocument)?;
        if !self.stack.is_empty() {
            return Err(Error::UnexpectedEof {
                open_elements: self
                    .stack
                    .iter()
                    .map(|&id| {
                        self.names
                            .name_or_panic(self.nodes[id.index()].label)
                            .to_string()
                    })
                    .collect(),
            });
        }
        Ok(Document {
            nodes: self.nodes,
            names: self.names,
            root,
            source_bytes: self.estimated_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_figure2_doc() -> Document {
        // The XML tree of Figure 2(a): article with title, authors and two
        // chapters; sections nested up to recursion level 2.
        Document::parse_str(
            "<a>\
               <t/><u/>\
               <c><t/><s><t/><p/><s><p/></s></s><s><p/><p/></s></c>\
               <c><t/><p/><p/><s><t/><p/><s><t/><p/><s><p/><p/><p/></s></s></s><s><p/><p/><s/><s/></s><s><p/></s></c>\
             </a>",
        )
        .unwrap()
    }

    #[test]
    fn parse_simple() {
        let doc = Document::parse_str("<a><b/><b/><c/></a>").unwrap();
        assert_eq!(doc.element_count(), 4);
        assert_eq!(doc.name(doc.root()), "a");
        assert_eq!(doc.child_count(doc.root()), 3);
    }

    #[test]
    fn children_in_document_order() {
        let doc = Document::parse_str("<r><x/><y/><z/></r>").unwrap();
        let names: Vec<&str> = doc.children(doc.root()).map(|c| doc.name(c)).collect();
        assert_eq!(names, vec!["x", "y", "z"]);
    }

    #[test]
    fn preorder_is_document_order() {
        let doc = Document::parse_str("<r><a><b/></a><c/></r>").unwrap();
        let names: Vec<&str> = doc.preorder().map(|n| doc.name(n)).collect();
        assert_eq!(names, vec!["r", "a", "b", "c"]);
    }

    #[test]
    fn rooted_path_and_depth() {
        let doc = Document::parse_str("<r><a><b/></a></r>").unwrap();
        let b = doc.preorder().last().unwrap();
        assert_eq!(doc.name(b), "b");
        assert_eq!(doc.depth(b), 3);
        let path: Vec<&str> = doc
            .rooted_path(b)
            .into_iter()
            .map(|l| doc.names().name(l).unwrap())
            .collect();
        assert_eq!(path, vec!["r", "a", "b"]);
        assert_eq!(doc.max_depth(), 3);
    }

    #[test]
    fn subtree_extraction() {
        let doc = Document::parse_str("<r><a><b/><c/></a><d/></r>").unwrap();
        let a = doc.children(doc.root()).next().unwrap();
        let sub = doc.subtree(a);
        assert_eq!(sub.element_count(), 3);
        assert_eq!(sub.name(sub.root()), "a");
        let expect = Document::parse_str("<a><b/><c/></a>").unwrap();
        assert!(sub.structurally_equal(&expect));
    }

    #[test]
    fn structural_equality_detects_differences() {
        let a = Document::parse_str("<r><a/><b/></r>").unwrap();
        let b = Document::parse_str("<r><a/><b/></r>").unwrap();
        let c = Document::parse_str("<r><b/><a/></r>").unwrap();
        let d = Document::parse_str("<r><a/></r>").unwrap();
        assert!(a.structurally_equal(&b));
        assert!(!a.structurally_equal(&c));
        assert!(!a.structurally_equal(&d));
    }

    #[test]
    fn label_histogram_counts() {
        let doc = Document::parse_str("<r><a/><a/><b/></r>").unwrap();
        let hist = doc.label_histogram();
        let r = doc.names().lookup("r").unwrap();
        let a = doc.names().lookup("a").unwrap();
        let b = doc.names().lookup("b").unwrap();
        assert_eq!(hist[r.index()], 1);
        assert_eq!(hist[a.index()], 2);
        assert_eq!(hist[b.index()], 1);
    }

    #[test]
    fn text_bytes_recorded() {
        let doc = Document::parse_str("<r>hello<a>world!</a></r>").unwrap();
        let root = doc.root();
        assert_eq!(doc.node(root).text_bytes, 5);
        let a = doc.children(root).next().unwrap();
        assert_eq!(doc.node(a).text_bytes, 6);
        assert_eq!(doc.source_bytes(), "<r>hello<a>world!</a></r>".len());
    }

    #[test]
    fn builder_unbalanced_fails() {
        let mut b = DocumentBuilder::new();
        b.start_element("a");
        b.start_element("b");
        b.end_element();
        assert!(b.finish().is_err());
    }

    #[test]
    fn builder_empty_fails() {
        assert!(DocumentBuilder::new().finish().is_err());
    }

    #[test]
    fn figure2_document_shape() {
        let doc = paper_figure2_doc();
        // 1 a + 2 c + counts from the figure: the document has 35 nodes.
        assert_eq!(doc.name(doc.root()), "a");
        let a_children: Vec<&str> = doc.children(doc.root()).map(|c| doc.name(c)).collect();
        assert_eq!(a_children, vec!["t", "u", "c", "c"]);
    }

    #[test]
    fn get_invalid_node() {
        let doc = Document::parse_str("<a/>").unwrap();
        assert!(doc.get(NodeId(42)).is_err());
        assert!(doc.get(doc.root()).is_ok());
    }

    #[test]
    fn heap_bytes_positive() {
        let doc = Document::parse_str("<a><b/></a>").unwrap();
        assert!(doc.heap_bytes() > 0);
    }
}
