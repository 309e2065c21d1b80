//! # xseed — reproduction of "XSEED: Accurate and Fast Cardinality Estimation for XPath Queries"
//!
//! This facade crate re-exports the workspace crates behind a single
//! dependency and hosts the runnable examples and cross-crate integration
//! tests. The pieces are:
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`xmlkit`] | SAX parser, arena XML tree, writer, document statistics |
//! | [`xpathkit`] | structural XPath subset: parser, AST, query trees |
//! | [`nokstore`] | NoK-style storage, exact evaluator, path tree |
//! | [`xseed_core`] | **the XSEED synopsis**: kernel, estimator, hyper-edge table |
//! | [`treesketch`] | the TreeSketch baseline synopsis |
//! | [`datagen`] | synthetic datasets and SP/BP/CP workloads |
//! | [`xseed_service`] | the concurrent estimation service (catalog, admission control, `xseed-serve`) |
//! | [`xseed_bench`] | the experiment harness regenerating every table and figure |
//!
//! ## Quickstart
//!
//! ```
//! use xseed::prelude::*;
//!
//! // Build a synopsis for a document and estimate a query's cardinality.
//! let doc = Document::parse_str(
//!     "<library><book><title/><author/></book><book><title/></book></library>",
//! ).unwrap();
//! let synopsis = XseedSynopsis::build(&doc, XseedConfig::default());
//! let query = parse_query("/library/book[author]/title").unwrap();
//! let estimate = synopsis.estimate(&query);
//!
//! // Compare against the exact answer.
//! let storage = NokStorage::from_document(&doc);
//! let actual = Evaluator::new(&storage).count(&query);
//! assert!((estimate - actual as f64).abs() < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use datagen;
pub use nokstore;
pub use treesketch;
pub use xmlkit;
pub use xpathkit;
pub use xseed_bench;
pub use xseed_core;
pub use xseed_service;

/// The most commonly used types, importable with `use xseed::prelude::*`.
pub mod prelude {
    pub use datagen::{Dataset, Workload, WorkloadGenerator, WorkloadSpec};
    pub use nokstore::{Evaluator, NokStorage, PathTree};
    pub use treesketch::TreeSketch;
    pub use xmlkit::stats::DocumentStats;
    pub use xmlkit::{Document, SaxParser};
    pub use xpathkit::parse as parse_query;
    pub use xpathkit::{PathExpr, QueryClass, QueryPlan};
    pub use xseed_core::{SynopsisSnapshot, XseedConfig, XseedSynopsis};
    pub use xseed_service::{Catalog, Service, ServiceConfig, ServiceError};
}
