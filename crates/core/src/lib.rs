//! # xseed-core — the XSEED synopsis for XPath cardinality estimation
//!
//! This crate implements the primary contribution of *"XSEED: Accurate and
//! Fast Cardinality Estimation for XPath Queries"* (Zhang, Özsu,
//! Aboulnaga, Ilyas — ICDE 2006):
//!
//! * the **kernel** ([`kernel`]) — a recursion-aware, edge-labeled
//!   label-split graph built in one pass over the document (Algorithm 1),
//!   with incremental updates and a compact serialized form;
//! * the **counter stacks** ([`counter_stacks`]) — the O(1) recursion-level
//!   tracker of Figure 3;
//! * the **estimator** ([`estimate`]) — the streaming matcher: the
//!   traveler's expansion of the kernel (Algorithm 2) recorded once per
//!   snapshot into a [`FrontierMemo`], and Algorithm 3 run by replaying
//!   that memo per query. The materialized expanded path tree and its
//!   matcher stay in [`estimate`] as the differential-testing oracle;
//! * the **hyper-edge table** ([`het`]) — the budget-adaptive layer of
//!   actual cardinalities and correlated backward selectivities that
//!   repairs the kernel's independence assumptions (Section 5);
//! * the **synopsis facade** ([`synopsis::XseedSynopsis`]) tying it all
//!   together behind the API a cost-based optimizer would use: one-off
//!   estimates through [`XseedSynopsis::estimate`], and everything else
//!   through a [`SynopsisSnapshot::matcher`].
//!
//! ## Quick example
//!
//! ```
//! use xmlkit::Document;
//! use xseed_core::{XseedConfig, XseedSynopsis};
//!
//! let doc = Document::parse_str(
//!     "<library><book><title/><author/></book><book><title/></book></library>",
//! ).unwrap();
//! let synopsis = XseedSynopsis::build(&doc, XseedConfig::default());
//! let query = xpathkit::parse("/library/book[author]/title").unwrap();
//! let estimate = synopsis.estimate(&query);
//! assert!(estimate > 0.0 && estimate <= 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod counter_stacks;
pub mod estimate;
pub mod het;
pub mod kernel;
pub mod partition;
pub mod persist;
pub mod synopsis;

pub use config::XseedConfig;
pub use counter_stacks::CounterStacks;
pub use estimate::{
    BoundedEstimate, CompiledCacheStats, CompiledPlanCache, CompiledQuery, FrontierMemo,
    StreamingMatcher,
};
pub use het::{
    BselThresholdStrategy, CandidateContext, CandidateStrategy, FeedbackOutcome, HetBuildStats,
    HetBuilder, HyperEdgeTable, PerLevelBudgetStrategy, TopKErrorStrategy,
};
pub use kernel::{EdgeLabel, FrozenKernel, Kernel, KernelBuilder, PartialKernel};
pub use partition::{build_kernel_partitioned, merge_partials, PartitionPlan};
pub use persist::{decode_snapshot, encode_snapshot, PersistError, SnapshotParts};
pub use synopsis::{FeedbackReport, SynopsisSnapshot, XseedSynopsis};
