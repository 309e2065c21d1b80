//! # xmlkit — XML substrate for the XSEED reproduction
//!
//! This crate provides everything the XSEED synopsis needs from an XML
//! processing stack, implemented from scratch:
//!
//! * [`sax`] — a streaming, event-driven (SAX-style) pull parser over XML
//!   text whose events borrow from the input. The XSEED kernel is
//!   constructed directly from this event stream (Algorithm 1 of the
//!   paper), so the parser is the foundation of the whole pipeline.
//! * [`tree`] — an arena-backed in-memory XML document tree
//!   ([`tree::Document`]). The exact evaluator (NoK), the path tree, and
//!   the TreeSketch baseline all operate on this representation.
//! * [`writer`] — serialization of a [`tree::Document`] back to XML text,
//!   used to round-trip synthetic datasets through the SAX parser.
//! * [`names`] — a symbol table mapping element names to compact integer
//!   labels ([`names::LabelId`]), mirroring the paper's alphabet mapping
//!   `f(article) = a`, `f(title) = t`, ...
//! * [`stats`] — document statistics: node counts, depth, and the
//!   recursion-level machinery of Definition 1 (path recursion level,
//!   node recursion level, document recursion level).
//!
//! ## Quick example
//!
//! ```
//! use xmlkit::tree::Document;
//! use xmlkit::stats::DocumentStats;
//!
//! let doc = Document::parse_str(
//!     "<article><title/><authors/><chapter><title/><para/></chapter></article>",
//! ).unwrap();
//! assert_eq!(doc.element_count(), 6);
//! let stats = DocumentStats::compute(&doc);
//! assert_eq!(stats.max_recursion_level, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod names;
pub mod samples;
pub mod sax;
pub mod stats;
pub mod tree;
pub mod writer;

pub use error::{Error, Result};
pub use names::{LabelId, NameTable};
pub use sax::{SaxEvent, SaxParser};
pub use tree::{Document, NodeId};
