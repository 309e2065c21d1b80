//! Incremental kernel maintenance.
//!
//! When the underlying XML document changes — a subtree is inserted under
//! some existing element, or an existing subtree is deleted — the kernel
//! can be updated in time proportional to the size of the subtree rather
//! than rebuilding it from the whole document (Section 3, "Synopsis
//! update").
//!
//! The context of the change matters because edge labels are indexed by
//! recursion level: the same subtree inserted under `/a/b` and under
//! `/a/b/b` contributes to different label entries. Callers therefore
//! provide the **context path**: the rooted label path of the element the
//! subtree is attached to (for additions) or of the parent of the removed
//! subtree's root (for removals).

use super::builder::KernelBuilder;
use super::graph::{Kernel, VertexId};
use crate::counter_stacks::FlatCounterStacks;
use xmlkit::tree::{Document, NodeId};

/// Errors from incremental updates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// The context path is empty or its labels do not exist in the kernel.
    InvalidContext {
        /// The offending element name (the first unknown one), if any.
        unknown: Option<String>,
    },
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::InvalidContext {
                unknown: Some(name),
            } => {
                write!(f, "context path mentions unknown element '{name}'")
            }
            UpdateError::InvalidContext { unknown: None } => {
                write!(f, "context path must not be empty")
            }
        }
    }
}

impl std::error::Error for UpdateError {}

impl Kernel {
    /// Adds the statistics of `subtree` to the kernel, as if the subtree's
    /// root element had been inserted as a new child of the element whose
    /// rooted path (element names, root first) is `context_path`.
    ///
    /// The parent count of the edge from the context element to the
    /// subtree root is incremented by one, i.e. the insertion is assumed
    /// to give the context element its first child with that label at that
    /// recursion level; if the parent already had such a child, the
    /// parent count ends up over-counted by one. Removal with the same
    /// arguments is exactly symmetric, so add followed by remove always
    /// restores the kernel.
    pub fn add_subtree(
        &mut self,
        context_path: &[&str],
        subtree: &Document,
    ) -> Result<(), UpdateError> {
        self.apply_subtree(context_path, subtree, true)
    }

    /// Removes the statistics of `subtree`, assuming it was attached under
    /// the element whose rooted path is `context_path`. Edges whose counts
    /// drop to zero are pruned from the adjacency structure.
    pub fn remove_subtree(
        &mut self,
        context_path: &[&str],
        subtree: &Document,
    ) -> Result<(), UpdateError> {
        self.apply_subtree(context_path, subtree, false)?;
        self.prune_zero_edges();
        Ok(())
    }

    fn apply_subtree(
        &mut self,
        context_path: &[&str],
        subtree: &Document,
        add: bool,
    ) -> Result<(), UpdateError> {
        if context_path.is_empty() {
            return Err(UpdateError::InvalidContext { unknown: None });
        }
        // Seed the recursion-level counter with the context path. Context
        // vertices must already exist: you cannot attach a subtree under a
        // path the document does not have.
        let mut rl = FlatCounterStacks::default();
        let mut context_vertices = Vec::with_capacity(context_path.len());
        for name in context_path {
            let v = self
                .vertex_by_name(name)
                .ok_or_else(|| UpdateError::InvalidContext {
                    unknown: Some((*name).to_string()),
                })?;
            rl.push(v);
            context_vertices.push(v);
        }
        let context_vertex = *context_vertices.last().expect("non-empty context");

        // Walk the subtree exactly like the builder does, but seeded with
        // the context, and applying +1/-1 depending on `add`.
        struct Frame {
            vertex: VertexId,
            child_edges: Vec<(super::graph::EdgeId, usize)>,
        }
        let mut frames: Vec<Frame> = vec![Frame {
            vertex: context_vertex,
            child_edges: Vec::new(),
        }];
        enum Step {
            Enter(NodeId),
            Leave,
        }
        let mut stack = vec![Step::Enter(subtree.root())];
        while let Some(step) = stack.pop() {
            match step {
                Step::Enter(n) => {
                    let name = subtree.name(n);
                    let v = self.get_or_create_vertex(name);
                    let u = frames.last().expect("frame stack never empty").vertex;
                    let e = self.get_or_create_edge(u, v);
                    let level = rl.push(v);
                    if add {
                        self.edge_label_mut(e).add_child(level, 1);
                        self.add_elements(1);
                    } else {
                        self.edge_label_mut(e).remove_child(level, 1);
                        self.remove_elements(1);
                    }
                    let frame = frames.last_mut().expect("frame stack never empty");
                    if !frame.child_edges.contains(&(e, level)) {
                        frame.child_edges.push((e, level));
                    }
                    frames.push(Frame {
                        vertex: v,
                        child_edges: Vec::new(),
                    });
                    stack.push(Step::Leave);
                    let children: Vec<NodeId> = subtree.children(n).collect();
                    for c in children.into_iter().rev() {
                        stack.push(Step::Enter(c));
                    }
                }
                Step::Leave => {
                    let frame = frames.pop().expect("frame stack never empty");
                    for (e, level) in frame.child_edges {
                        if add {
                            self.edge_label_mut(e).add_parent(level, 1);
                        } else {
                            self.edge_label_mut(e).remove_parent(level, 1);
                        }
                    }
                    rl.pop(frame.vertex);
                }
            }
        }
        // The context element itself gained (or lost) children: its
        // distinct child edges were accounted for in the root frame.
        let context_frame = frames.pop().expect("context frame remains");
        for (e, level) in context_frame.child_edges {
            if add {
                self.edge_label_mut(e).add_parent(level, 1);
            } else {
                self.edge_label_mut(e).remove_parent(level, 1);
            }
        }
        Ok(())
    }

    /// Builds a kernel for `doc` and checks whether adding and removing a
    /// subtree is self-inverse; exposed mainly for tests and examples.
    pub fn from_document(doc: &Document) -> Kernel {
        KernelBuilder::from_document(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlkit::samples::figure2_document;
    use xmlkit::Document;

    #[test]
    fn add_then_remove_is_identity() {
        let doc = figure2_document();
        let original = Kernel::from_document(&doc);
        let mut kernel = original.clone();
        let subtree = Document::parse_str("<s><t/><p/><s><p/></s></s>").unwrap();
        kernel.add_subtree(&["a", "c"], &subtree).unwrap();
        assert_ne!(kernel.to_string(), original.to_string());
        kernel.remove_subtree(&["a", "c"], &subtree).unwrap();
        assert_eq!(kernel.to_string(), original.to_string());
        assert_eq!(kernel.element_count(), original.element_count());
    }

    #[test]
    fn add_matches_full_rebuild_for_new_labels() {
        // Adding a subtree with brand-new labels under the root must give
        // the same kernel as rebuilding from the modified document.
        let base = Document::parse_str("<r><a/><a><b/></a></r>").unwrap();
        let mut kernel = Kernel::from_document(&base);
        let subtree = Document::parse_str("<z><w/><w/></z>").unwrap();
        kernel.add_subtree(&["r"], &subtree).unwrap();

        let rebuilt = Kernel::from_document(
            &Document::parse_str("<r><a/><a><b/></a><z><w/><w/></z></r>").unwrap(),
        );
        assert_eq!(kernel.to_string(), rebuilt.to_string());
        assert_eq!(kernel.element_count(), rebuilt.element_count());
    }

    #[test]
    fn add_deep_recursion_extends_levels() {
        // Inserting nested s elements under an existing s raises the
        // maximum recursion level recorded on the (s,s) edge.
        let doc = figure2_document();
        let mut kernel = Kernel::from_document(&doc);
        let s = kernel.vertex_by_name("s").unwrap();
        assert_eq!(kernel.edge_label(s, s).unwrap().levels(), 3);
        let subtree = Document::parse_str("<s><s/></s>").unwrap();
        // Attach under a path that already has three s elements.
        kernel
            .add_subtree(&["a", "c", "s", "s", "s"], &subtree)
            .unwrap();
        assert_eq!(kernel.edge_label(s, s).unwrap().levels(), 5);
    }

    #[test]
    fn remove_prunes_emptied_edges() {
        let base = Document::parse_str("<r><a><b/></a><c/></r>").unwrap();
        let mut kernel = Kernel::from_document(&base);
        let subtree = Document::parse_str("<a><b/></a>").unwrap();
        kernel.remove_subtree(&["r"], &subtree).unwrap();
        let a = kernel.vertex_by_name("a").unwrap();
        let b = kernel.vertex_by_name("b").unwrap();
        assert!(kernel.edge_between(a, b).is_none());
        assert_eq!(kernel.element_count(), 2);
    }

    #[test]
    fn invalid_context_is_rejected() {
        let doc = figure2_document();
        let mut kernel = Kernel::from_document(&doc);
        let subtree = Document::parse_str("<p/>").unwrap();
        let err = kernel.add_subtree(&[], &subtree).unwrap_err();
        assert!(matches!(err, UpdateError::InvalidContext { unknown: None }));
        let err = kernel.add_subtree(&["a", "nope"], &subtree).unwrap_err();
        assert!(matches!(err, UpdateError::InvalidContext { unknown: Some(ref n) } if n == "nope"));
        assert!(!err.to_string().is_empty());
    }
}
