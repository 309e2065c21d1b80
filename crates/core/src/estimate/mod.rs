//! Cardinality estimation over the XSEED kernel (Section 4).
//!
//! * [`streaming`] — the estimator: Algorithm 2 walked once per
//!   [`crate::kernel::FrozenKernel`] snapshot into a [`FrontierMemo`],
//!   and Algorithm 3 run by replaying that memo per query, with no EPT
//!   arena and reachability-based subtree pruning. Callers reach it
//!   through [`crate::synopsis::XseedSynopsis::estimate`] for one-off
//!   estimates and [`crate::synopsis::SynopsisSnapshot::matcher`] for
//!   everything else; bound mode ([`BoundedEstimate`]) lives here too.
//!
//! The rest of the module is the differential-testing oracle the
//! streaming matcher is pinned against:
//!
//! * [`event`] — the open/close/end-of-stream events produced by the
//!   traveler, carrying the estimated cardinality and the forward and
//!   backward selectivities of the current synopsis path.
//! * [`traveler`] — Algorithm 2 as written: a depth-first traversal of
//!   the kernel that lazily generates the *expanded path tree* (EPT) as
//!   an event stream, bounded by the cardinality threshold.
//! * [`ept`] — a materialized form of the EPT, built by draining the
//!   traveler.
//! * [`matcher`] — Algorithm 3 as written: matches a query tree against
//!   the materialized EPT and sums the estimated cardinalities of the
//!   result-node matches, multiplying in aggregated backward
//!   selectivities for predicates.

pub mod ept;
pub mod event;
pub mod matcher;
pub mod streaming;
pub mod traveler;

pub use ept::{EptNode, ExpandedPathTree};
pub use event::EstimateEvent;
pub use matcher::Matcher;
pub use streaming::{
    BoundedEstimate, CompiledCacheStats, CompiledPlanCache, CompiledQuery, FrontierMemo,
    StreamingMatcher,
};
pub use traveler::Traveler;
