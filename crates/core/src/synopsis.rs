//! The top-level XSEED synopsis: kernel + optional HET + configuration.
//!
//! This is the type a query optimizer would hold: build it once from a
//! document (or from SAX events), optionally pre-compute the hyper-edge
//! table, give it a memory budget, and ask it for cardinality estimates.

use crate::config::XseedConfig;
use crate::estimate::streaming::{
    BoundedEstimate, CompiledCacheStats, CompiledPlanCache, FrontierMemo, StreamingMatcher,
};
use crate::het::builder::{HetBuildStats, HetBuilder};
use crate::het::feedback::FeedbackOutcome;
use crate::het::table::HyperEdgeTable;
use crate::kernel::{FrozenKernel, Kernel, KernelBuilder};
use crate::partition::PartitionPlan;
use nokstore::{NokStorage, PathTree};
use std::sync::{Arc, OnceLock};
use xmlkit::names::NameTable;
use xmlkit::tree::Document;
use xpathkit::ast::PathExpr;

/// Result of one feedback submission
/// ([`XseedSynopsis::record_feedback_report`]): what was recorded plus the
/// estimate-vs-actual delta the synopsis was carrying for the query. The
/// `error` is the absolute-error mass a maintenance policy accumulates to
/// decide when a synopsis has drifted far enough to rebuild its HET.
#[derive(Debug, Clone, PartialEq)]
pub struct FeedbackReport {
    /// What kind of hyper-edge entry (if any) the feedback updated.
    pub outcome: FeedbackOutcome,
    /// The synopsis' estimate for the query *before* the feedback applied.
    pub estimated: f64,
    /// The observed cardinality that was fed back.
    pub actual: u64,
    /// `|estimated - actual|` — the absolute error the feedback exposed.
    pub error: f64,
}

/// The XSEED synopsis.
#[derive(Debug)]
pub struct XseedSynopsis {
    kernel: Kernel,
    /// Shared so snapshot publication is an `Arc` bump; mutated in place
    /// only when uniquely owned (copy-on-write via [`Arc::make_mut`]).
    het: Option<Arc<HyperEdgeTable>>,
    config: XseedConfig,
    /// Epoch counter: bumped by every mutation that can change estimates
    /// ([`XseedSynopsis::kernel_mut`], HET/config changes), so published
    /// [`SynopsisSnapshot`]s can be told apart from the current state.
    epoch: u64,
    /// Lazily built read-optimized snapshot serving the estimate hot path;
    /// shared (`Arc`) so concurrent readers keep estimating against a
    /// consistent snapshot across kernel updates. Invalidated whenever the
    /// kernel is mutated (see [`XseedSynopsis::kernel_mut`]).
    frozen: OnceLock<Arc<FrozenKernel>>,
    /// Lazily built self-contained snapshot bundle handed to concurrent
    /// estimation services; invalidated with `frozen` plus on HET/config
    /// mutations.
    snapshot: OnceLock<SynopsisSnapshot>,
}

impl Clone for XseedSynopsis {
    fn clone(&self) -> Self {
        let frozen = OnceLock::new();
        if let Some(shared) = self.frozen.get() {
            let _ = frozen.set(shared.clone());
        }
        let snapshot = OnceLock::new();
        if let Some(snap) = self.snapshot.get() {
            let _ = snapshot.set(snap.clone());
        }
        XseedSynopsis {
            kernel: self.kernel.clone(),
            het: self.het.clone(),
            config: self.config.clone(),
            epoch: self.epoch,
            frozen,
            snapshot,
        }
    }
}

impl XseedSynopsis {
    fn new(kernel: Kernel, het: Option<Arc<HyperEdgeTable>>, config: XseedConfig) -> Self {
        XseedSynopsis {
            kernel,
            het,
            config,
            epoch: 0,
            frozen: OnceLock::new(),
            snapshot: OnceLock::new(),
        }
    }

    /// Bumps the epoch and drops the published snapshot bundle. Every
    /// `&mut self` method that can change estimates must call this.
    fn invalidate_snapshot(&mut self) {
        self.epoch += 1;
        self.snapshot = OnceLock::new();
    }

    /// Builds a kernel-only synopsis from a document.
    pub fn build(doc: &Document, config: XseedConfig) -> Self {
        XseedSynopsis::new(KernelBuilder::from_document(doc), None, config)
    }

    /// Builds a kernel-only synopsis by SAX-parsing XML text.
    pub fn build_from_xml(xml: &str, config: XseedConfig) -> Result<Self, xmlkit::Error> {
        Ok(XseedSynopsis::new(
            KernelBuilder::from_xml_str(xml)?,
            None,
            config,
        ))
    }

    /// Builds the synopsis *and* pre-computes the hyper-edge table from the
    /// document's exact statistics (path tree + streaming NoK evaluation),
    /// honouring the configured memory budget. Construction is driven by
    /// the streaming matcher — one frontier expansion recorded and
    /// replayed per candidate, no materialized EPT; see
    /// [`crate::het::builder`].
    pub fn build_with_het(doc: &Document, config: XseedConfig) -> (Self, HetBuildStats) {
        let kernel = KernelBuilder::from_document(doc);
        let path_tree = PathTree::from_document(doc);
        let storage = NokStorage::from_document(doc);
        let (het, stats) = HetBuilder::new(&kernel, &path_tree, &storage, &config).build();
        (
            XseedSynopsis::new(kernel, Some(Arc::new(het)), config),
            stats,
        )
    }

    /// Builds a kernel-only synopsis using `partitions` parallel workers,
    /// each constructing a partial kernel over a contiguous range of
    /// root-child subtrees, then merging ([`crate::partition`]). The merged
    /// kernel is bit-identical (same serialized bytes) to the one
    /// [`XseedSynopsis::build`] produces.
    pub fn build_partitioned(doc: &Document, config: XseedConfig, partitions: usize) -> Self {
        let plan = PartitionPlan::for_document(doc, partitions);
        XseedSynopsis::new(
            crate::partition::build_kernel_partitioned(doc, &plan),
            None,
            config,
        )
    }

    /// [`XseedSynopsis::build_with_het`] using `partitions` parallel
    /// workers for synopsis construction: per-partition kernels and path
    /// trees are built concurrently and merged bit-compatibly, and the
    /// exact branching counts run one worker per partition. Estimates from
    /// the result are bit-identical to the monolithic build's.
    pub fn build_with_het_partitioned(
        doc: &Document,
        config: XseedConfig,
        partitions: usize,
    ) -> (Self, HetBuildStats) {
        let plan = PartitionPlan::for_document(doc, partitions);
        let (kernel, path_tree, storage) = crate::partition::build_synopsis_inputs(doc, &plan);
        let (het, stats) = HetBuilder::new(&kernel, &path_tree, &storage, &config)
            .build_partitioned(plan.ranges());
        (
            XseedSynopsis::new(kernel, Some(Arc::new(het)), config),
            stats,
        )
    }

    /// Rebuilds the hyper-edge table in place from `doc`'s exact
    /// statistics using the streaming builder, replacing any existing
    /// table and **bumping the epoch** (via [`XseedSynopsis::set_het`]),
    /// so snapshots published afterwards carry the fresh table while
    /// earlier ones keep estimating with the old one. `doc` must be the
    /// document this synopsis' kernel summarizes — after incremental
    /// kernel updates, pass the post-update document.
    pub fn rebuild_het(&mut self, doc: &Document) -> HetBuildStats {
        self.rebuild_het_with_strategy(doc, crate::het::BselThresholdStrategy)
    }

    /// [`XseedSynopsis::rebuild_het`] with an explicit candidate strategy.
    pub fn rebuild_het_with_strategy(
        &mut self,
        doc: &Document,
        strategy: impl crate::het::CandidateStrategy + 'static,
    ) -> HetBuildStats {
        let path_tree = PathTree::from_document(doc);
        let storage = NokStorage::from_document(doc);
        let (het, stats) = HetBuilder::new(&self.kernel, &path_tree, &storage, &self.config)
            .with_strategy(strategy)
            .build();
        self.set_het(het);
        stats
    }

    /// Wraps an existing kernel (e.g. one deserialized from disk).
    pub fn from_kernel(kernel: Kernel, config: XseedConfig) -> Self {
        XseedSynopsis::new(kernel, None, config)
    }

    /// Reassembles a synopsis from previously persisted parts — kernel,
    /// optional HET, config, and the epoch it was saved at — without any
    /// of the epoch bumps the mutating setters apply. Used by snapshot
    /// restore ([`crate::persist`]): the reloaded synopsis starts at the
    /// exact saved epoch, so published snapshot identities survive a
    /// restart.
    pub fn from_parts(
        kernel: Kernel,
        het: Option<HyperEdgeTable>,
        config: XseedConfig,
        epoch: u64,
    ) -> Self {
        let mut synopsis = XseedSynopsis::new(kernel, het.map(Arc::new), config);
        synopsis.epoch = epoch;
        synopsis
    }

    /// Attaches (or replaces) a hyper-edge table.
    pub fn set_het(&mut self, het: HyperEdgeTable) {
        self.invalidate_snapshot();
        self.het = Some(Arc::new(het));
    }

    /// Drops the hyper-edge table, leaving the bare kernel.
    pub fn clear_het(&mut self) {
        self.invalidate_snapshot();
        self.het = None;
    }

    /// The kernel.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Mutable access to the kernel (e.g. for incremental subtree updates).
    /// Taking it **bumps the epoch and invalidates the frozen snapshot**,
    /// which is rebuilt lazily on the next estimate; batch kernel updates
    /// accordingly. Snapshots handed out earlier (via
    /// [`XseedSynopsis::snapshot`] or [`XseedSynopsis::shared_frozen_kernel`])
    /// are unaffected: they keep estimating against their own consistent
    /// pre-update state.
    pub fn kernel_mut(&mut self) -> &mut Kernel {
        self.invalidate_snapshot();
        self.frozen = OnceLock::new();
        &mut self.kernel
    }

    /// Epoch counter of the current estimate state: starts at 0 and is
    /// bumped by every mutation that can change estimates (kernel updates,
    /// HET attachment/feedback, config changes).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Raises the epoch to at least `to` (dropping the cached snapshot
    /// when it actually moves). Used when this synopsis *replaces* another
    /// one under the same published name — e.g. a catalog re-`LOAD` — so
    /// observed epochs never regress or collide across the swap.
    pub fn advance_epoch(&mut self, to: u64) {
        if self.epoch < to {
            self.epoch = to;
            self.snapshot = OnceLock::new();
        }
    }

    /// The read-optimized snapshot serving the estimate hot path, built on
    /// first use and cached until the kernel is mutated.
    pub fn frozen_kernel(&self) -> &FrozenKernel {
        self.shared_frozen()
    }

    /// Shared handle to the frozen snapshot. Cloning the `Arc` is the
    /// race-proof way to keep estimating across concurrent updates: a
    /// handle taken before [`XseedSynopsis::kernel_mut`] still points at
    /// the pre-update snapshot.
    pub fn shared_frozen_kernel(&self) -> Arc<FrozenKernel> {
        self.shared_frozen().clone()
    }

    fn shared_frozen(&self) -> &Arc<FrozenKernel> {
        self.frozen
            .get_or_init(|| Arc::new(FrozenKernel::freeze(&self.kernel)))
    }

    /// Publishes the current estimate state as a self-contained,
    /// epoch-stamped, `Send + Sync` snapshot bundle (frozen kernel, name
    /// table, config, HET). The bundle is cached until the next mutation,
    /// so repeated calls between updates hand out the same cheap `Arc`
    /// clone; see [`SynopsisSnapshot`].
    pub fn snapshot(&self) -> SynopsisSnapshot {
        self.snapshot
            .get_or_init(|| SynopsisSnapshot {
                inner: Arc::new(SnapshotInner {
                    epoch: self.epoch,
                    frozen: self.shared_frozen_kernel(),
                    names: self.kernel.names().clone(),
                    config: self.config.clone(),
                    het: self.het.clone(),
                    memo: OnceLock::new(),
                    compiled: OnceLock::new(),
                }),
            })
            .clone()
    }

    /// The hyper-edge table, if any.
    pub fn het(&self) -> Option<&HyperEdgeTable> {
        self.het.as_deref()
    }

    /// The configuration.
    pub fn config(&self) -> &XseedConfig {
        &self.config
    }

    /// Mutable access to the configuration (e.g. to raise the cardinality
    /// threshold for a highly recursive document).
    pub fn config_mut(&mut self) -> &mut XseedConfig {
        self.invalidate_snapshot();
        &mut self.config
    }

    /// Estimates the cardinality of a path expression — the one-off
    /// form of [`SynopsisSnapshot::estimate`] on the current
    /// [`XseedSynopsis::snapshot`]. The snapshot and its frontier memo are
    /// shared by every estimate until the next mutation; callers with
    /// many queries should hold one [`SynopsisSnapshot::matcher`].
    pub fn estimate(&self, expr: &PathExpr) -> f64 {
        self.snapshot().estimate(expr)
    }

    /// Feeds back the actual cardinality of an executed query (Figure 1's
    /// feedback arrow). Creates the HET on first use. Returns what kind of
    /// entry (if any) was recorded.
    pub fn record_feedback(
        &mut self,
        expr: &PathExpr,
        actual: u64,
        base_cardinality: Option<u64>,
    ) -> FeedbackOutcome {
        self.record_feedback_report(expr, actual, base_cardinality)
            .outcome
    }

    /// [`XseedSynopsis::record_feedback`] with full diagnostics: the
    /// estimate the synopsis held before the feedback and the absolute
    /// error it exposed — the quantity a maintenance policy accumulates.
    ///
    /// Unsupported query shapes are **side-effect free**: the shape is
    /// classified before anything is touched (and only once — the same
    /// analysis drives the recording), so ignored feedback neither bumps
    /// the epoch nor invalidates published snapshots.
    pub fn record_feedback_report(
        &mut self,
        expr: &PathExpr,
        actual: u64,
        base_cardinality: Option<u64>,
    ) -> FeedbackReport {
        let estimated = self.estimate(expr);
        self.apply_feedback(expr, estimated, actual, base_cardinality)
    }

    /// [`XseedSynopsis::record_feedback_report`] with the prior estimate
    /// supplied by the caller — the serving layer computes it from the
    /// *published* snapshot outside any writer lock (it is exactly the
    /// estimate the feedback's client was served), so only the cheap HET
    /// insert runs under exclusive access.
    pub fn apply_feedback(
        &mut self,
        expr: &PathExpr,
        estimated: f64,
        actual: u64,
        base_cardinality: Option<u64>,
    ) -> FeedbackReport {
        let report = self.apply_feedback_deferred(expr, estimated, actual, base_cardinality);
        if report.outcome != FeedbackOutcome::Unsupported {
            self.reapply_het_budget();
        }
        report
    }

    /// [`XseedSynopsis::apply_feedback`] without the budget re-trim —
    /// batch callers apply many observations and re-trim once at the end
    /// ([`XseedSynopsis::record_feedback_batch_reports`]) instead of
    /// paying a residency rebuild per item.
    fn apply_feedback_deferred(
        &mut self,
        expr: &PathExpr,
        estimated: f64,
        actual: u64,
        base_cardinality: Option<u64>,
    ) -> FeedbackReport {
        let error = (estimated - actual as f64).abs();
        let shape = crate::het::feedback::feedback_shape(self.kernel.names(), expr);
        let outcome = shape.outcome();
        if outcome == FeedbackOutcome::Unsupported {
            return FeedbackReport {
                outcome,
                estimated,
                actual,
                error,
            };
        }
        self.invalidate_snapshot();
        let het = Arc::make_mut(
            self.het
                .get_or_insert_with(|| Arc::new(HyperEdgeTable::new())),
        );
        let recorded =
            crate::het::feedback::record_shape(het, shape, estimated, actual, base_cardinality);
        debug_assert_eq!(recorded, outcome);
        FeedbackReport {
            outcome: recorded,
            estimated,
            actual,
            error,
        }
    }

    /// Re-applies the memory budget to the HET (a new entry may displace
    /// others once the budget re-trims residency).
    fn reapply_het_budget(&mut self) {
        if let Some(het) = &mut self.het {
            let budget = self
                .config
                .memory_budget
                .map(|total| total.saturating_sub(self.kernel.size_bytes()));
            Arc::make_mut(het).set_budget(budget);
        }
    }

    /// Applies a whole sequence of observations, estimating each against
    /// the state left by the items before it (sequential refinement) and
    /// re-applying the memory budget **once** at the end — the batch form
    /// of [`XseedSynopsis::record_feedback_report`].
    pub fn record_feedback_batch_reports<'a>(
        &mut self,
        items: impl IntoIterator<Item = (&'a PathExpr, u64, Option<u64>)>,
    ) -> Vec<FeedbackReport> {
        let reports: Vec<FeedbackReport> = items
            .into_iter()
            .map(|(expr, actual, base)| {
                let estimated = self.estimate(expr);
                self.apply_feedback_deferred(expr, estimated, actual, base)
            })
            .collect();
        if reports
            .iter()
            .any(|r| r.outcome != FeedbackOutcome::Unsupported)
        {
            self.reapply_het_budget();
        }
        reports
    }

    /// Changes the total memory budget (kernel + HET) and re-trims the HET
    /// residency accordingly. The kernel itself is never dropped — it is
    /// the irreducible part of the synopsis.
    pub fn set_memory_budget(&mut self, bytes: Option<usize>) {
        self.invalidate_snapshot();
        self.config.memory_budget = bytes;
        if let Some(het) = &mut self.het {
            let het = Arc::make_mut(het);
            let budget = bytes.map(|total| total.saturating_sub(self.kernel.size_bytes()));
            het.set_budget(budget);
        }
    }

    /// Bytes used by the kernel (compact serialized form).
    pub fn kernel_size_bytes(&self) -> usize {
        self.kernel.size_bytes()
    }

    /// Bytes used by the resident HET entries.
    pub fn het_resident_bytes(&self) -> usize {
        self.het.as_deref().map(|h| h.resident_bytes()).unwrap_or(0)
    }

    /// Total memory footprint of the synopsis.
    pub fn size_bytes(&self) -> usize {
        self.kernel_size_bytes() + self.het_resident_bytes()
    }
}

/// A self-contained, epoch-stamped publication of a synopsis' estimate
/// state: the frozen kernel (shared by `Arc`), the name table, the config,
/// and the HET, plus the lazily built [`FrontierMemo`] every estimate
/// replays.
///
/// The bundle is immutable and `Send + Sync`: any number of threads can
/// estimate from one snapshot concurrently without locks, and a snapshot
/// taken before [`XseedSynopsis::kernel_mut`] keeps answering from its own
/// consistent pre-update state while the synopsis publishes a new one.
/// Cloning is an `Arc` bump.
#[derive(Debug, Clone)]
pub struct SynopsisSnapshot {
    inner: Arc<SnapshotInner>,
}

#[derive(Debug)]
struct SnapshotInner {
    epoch: u64,
    frozen: Arc<FrozenKernel>,
    names: NameTable,
    config: XseedConfig,
    het: Option<Arc<HyperEdgeTable>>,
    /// Built by the first matcher handed out, then shared by every matcher
    /// estimating from this snapshot.
    memo: OnceLock<Arc<FrontierMemo>>,
    /// Per-snapshot compiled-query cache (plan id → label-resolved
    /// [`crate::estimate::streaming::CompiledQuery`] with its answer
    /// cells), created on first use and shared by every matcher handed out
    /// from this snapshot. An epoch bump publishes a fresh snapshot and
    /// thereby a fresh cache, so stale compilations and answers can never
    /// outlive the snapshot they were computed on — exactly like `memo`.
    compiled: OnceLock<Arc<CompiledPlanCache>>,
}

impl SynopsisSnapshot {
    /// Epoch of the synopsis state this snapshot was taken from.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch
    }

    /// The frozen kernel.
    pub fn frozen(&self) -> &FrozenKernel {
        &self.inner.frozen
    }

    /// The element-name table the snapshot's queries resolve against.
    pub fn names(&self) -> &NameTable {
        &self.inner.names
    }

    /// The estimator configuration captured with the snapshot.
    pub fn config(&self) -> &XseedConfig {
        &self.inner.config
    }

    /// The hyper-edge table captured with the snapshot, if any.
    pub fn het(&self) -> Option<&HyperEdgeTable> {
        self.inner.het.as_deref()
    }

    /// A streaming matcher over this snapshot, with the snapshot's shared
    /// frontier memo (built on first use) and compiled-query cache
    /// installed, so every matcher of this snapshot replays one recorded
    /// expansion and reuses label-resolved compilations
    /// ([`StreamingMatcher::estimate_plan`]). Each worker thread should
    /// hold its own matcher (scratch buffers are per-matcher); the
    /// underlying snapshot data is shared.
    pub fn matcher(&self) -> StreamingMatcher<'_> {
        let mut matcher =
            StreamingMatcher::new(self.frozen(), self.names(), self.config(), self.het());
        matcher.set_frontier_memo(self.frontier_memo().clone());
        matcher.set_compiled_cache(self.compiled_cache().clone());
        matcher
    }

    /// Counters of the compiled-query cache **without forcing its
    /// creation** — the read monitoring should use: a snapshot never
    /// estimated through cached plans reports zeros and allocates
    /// nothing.
    pub fn compiled_cache_stats(&self) -> CompiledCacheStats {
        self.inner
            .compiled
            .get()
            .map(|cache| cache.stats())
            .unwrap_or_default()
    }

    /// The snapshot's shared compiled-query cache, created on first use.
    /// Capacity comes from [`XseedConfig::compiled_cache_capacity`]. It
    /// holds each plan's compiled form *and* its answers on this snapshot
    /// (a repeat estimate reads them instead of replaying), so installing
    /// it in a matcher over another snapshot returns this snapshot's
    /// estimates.
    pub fn compiled_cache(&self) -> &Arc<CompiledPlanCache> {
        self.inner.compiled.get_or_init(|| {
            Arc::new(CompiledPlanCache::new(
                8,
                self.inner.config.compiled_cache_capacity,
            ))
        })
    }

    /// [`SynopsisSnapshot::matcher`]: every estimate replays the
    /// snapshot's frontier memo whatever the batch length, so `_batch_len`
    /// is ignored. Kept for callers written against the length-based
    /// signature.
    pub fn matcher_for_batch(&self, _batch_len: usize) -> StreamingMatcher<'_> {
        self.matcher()
    }

    /// The shared frontier memo (the traveler's expansion recorded once
    /// per snapshot), built on first use.
    pub fn frontier_memo(&self) -> &Arc<FrontierMemo> {
        self.inner.memo.get_or_init(|| {
            Arc::new(FrontierMemo::build(
                self.frozen(),
                self.config(),
                self.het(),
            ))
        })
    }

    /// Estimates one query (one-shot matcher; for many queries hold a
    /// [`SynopsisSnapshot::matcher`]).
    pub fn estimate(&self, expr: &PathExpr) -> f64 {
        self.matcher().estimate(expr)
    }

    /// Estimates one cached plan through the snapshot's compiled-query
    /// cache: a repeat of the same [`xpathkit::QueryPlan`] (same identity)
    /// skips recompilation and the replay, reading the answer the first
    /// estimate stored. One-shot matcher; for many plans prefer
    /// [`SynopsisSnapshot::matcher`].
    pub fn estimate_plan(&self, plan: &xpathkit::QueryPlan) -> f64 {
        self.matcher().estimate_plan(plan)
    }

    /// Estimates one cached plan in bound mode (point estimate +
    /// guaranteed upper bound) through the snapshot's compiled-query
    /// cache (see [`StreamingMatcher::estimate_plan_bound_timed`]).
    pub fn estimate_plan_bound(&self, plan: &xpathkit::QueryPlan) -> BoundedEstimate {
        self.matcher().estimate_plan_bound_timed(plan).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nokstore::Evaluator;
    use xmlkit::samples::{figure2_document, figure4_document};
    use xpathkit::parse;

    #[test]
    fn kernel_only_estimates() {
        let doc = figure2_document();
        let synopsis = XseedSynopsis::build(&doc, XseedConfig::default());
        assert!((synopsis.estimate(&parse("/a/c/s").unwrap()) - 5.0).abs() < 1e-6);
        assert!((synopsis.estimate(&parse("/a/c/s/s/t").unwrap()) - 1.0).abs() < 1e-6);
        assert!(synopsis.het().is_none());
        assert!(synopsis.size_bytes() > 0);
        assert_eq!(synopsis.size_bytes(), synopsis.kernel_size_bytes());
    }

    #[test]
    fn plan_bound_dominates_truth_and_matches_the_expression_path() {
        let doc = figure2_document();
        let storage = NokStorage::from_document(&doc);
        let eval = Evaluator::new(&storage);
        let synopsis = XseedSynopsis::build(&doc, XseedConfig::default());
        let snap = synopsis.snapshot();
        let mut matcher = snap.matcher();
        for q in ["/a/c/s", "//p", "/a/c/s[t]/p", "//s//s//p", "/a/*"] {
            let expr = parse(q).unwrap();
            let actual = eval.count(&expr) as f64;
            let be = matcher.estimate_bound(&expr);
            assert!(be.bound >= actual, "{q}: bound {} < {actual}", be.bound);
            assert!(be.bound >= be.estimate, "{q}");
            assert_eq!(be.estimate.to_bits(), synopsis.estimate(&expr).to_bits());
            let plan = xpathkit::QueryPlan::parse(q).unwrap();
            assert_eq!(snap.estimate_plan_bound(&plan), be);
        }
    }

    #[test]
    fn partitioned_build_estimates_are_bit_identical() {
        for doc in [figure2_document(), figure4_document()] {
            let config = XseedConfig::default().with_bsel_threshold(0.99);
            let (mono, mono_stats) = XseedSynopsis::build_with_het(&doc, config.clone());
            for partitions in [1usize, 2, 4, 7] {
                let kernel_only =
                    XseedSynopsis::build_partitioned(&doc, config.clone(), partitions);
                assert_eq!(
                    kernel_only.kernel().serialize(),
                    mono.kernel().serialize(),
                    "kernel bytes diverge at partitions={partitions}"
                );
                let (part, part_stats) =
                    XseedSynopsis::build_with_het_partitioned(&doc, config.clone(), partitions);
                assert_eq!(part_stats.simple_entries, mono_stats.simple_entries);
                assert_eq!(part_stats.correlated_entries, mono_stats.correlated_entries);
                assert_eq!(part.kernel().serialize(), mono.kernel().serialize());
                for q in ["/a/c/s", "//p", "/a/c/s[t]/p", "//s//s//p", "/a/*", "//*"] {
                    let Ok(expr) = parse(q) else { continue };
                    assert_eq!(
                        part.estimate(&expr).to_bits(),
                        mono.estimate(&expr).to_bits(),
                        "estimate diverges for {q} at partitions={partitions}"
                    );
                }
            }
        }
    }

    #[test]
    fn build_from_xml_matches_build_from_document() {
        let doc = figure2_document();
        let a = XseedSynopsis::build(&doc, XseedConfig::default());
        let b = XseedSynopsis::build_from_xml(xmlkit::samples::FIGURE2_XML, XseedConfig::default())
            .unwrap();
        let q = parse("//s//p").unwrap();
        assert!((a.estimate(&q) - b.estimate(&q)).abs() < 1e-9);
    }

    #[test]
    fn het_improves_branching_estimates_on_correlated_data() {
        // The Figure 4 document has strong parent/sibling correlations that
        // the bare kernel misestimates; the HET must reduce the error.
        let doc = figure4_document();
        let storage = NokStorage::from_document(&doc);
        let eval = Evaluator::new(&storage);
        let queries = ["/a/b/d/e", "/a/c/d/f", "/a/b/d[f]/e", "/a/c/d[f]/e"];

        let bare = XseedSynopsis::build(&doc, XseedConfig::default());
        let (with_het, stats) =
            XseedSynopsis::build_with_het(&doc, XseedConfig::default().with_bsel_threshold(0.99));
        assert!(stats.simple_entries > 0);

        let mut bare_error = 0.0;
        let mut het_error = 0.0;
        for q in queries {
            let expr = parse(q).unwrap();
            let actual = eval.count(&expr) as f64;
            bare_error += (bare.estimate(&expr) - actual).abs();
            het_error += (with_het.estimate(&expr) - actual).abs();
        }
        assert!(
            het_error < bare_error,
            "HET should reduce total error: {het_error} vs {bare_error}"
        );
        // Simple paths present in the HET are answered exactly.
        let expr = parse("/a/b/d/e").unwrap();
        assert!((with_het.estimate(&expr) - eval.count(&expr) as f64).abs() < 1e-6);
    }

    #[test]
    fn memory_budget_shrinks_het_not_kernel() {
        let doc = figure4_document();
        let (mut synopsis, _) =
            XseedSynopsis::build_with_het(&doc, XseedConfig::default().with_bsel_threshold(0.99));
        let full = synopsis.size_bytes();
        let kernel_bytes = synopsis.kernel_size_bytes();
        assert!(full > kernel_bytes);
        synopsis.set_memory_budget(Some(kernel_bytes + 32));
        assert!(synopsis.size_bytes() <= kernel_bytes + 32);
        assert_eq!(synopsis.kernel_size_bytes(), kernel_bytes);
        // Restoring an unlimited budget brings entries back.
        synopsis.set_memory_budget(None);
        assert_eq!(synopsis.size_bytes(), full);
    }

    #[test]
    fn rebuild_het_bumps_epoch_and_improves_estimates() {
        let doc = figure4_document();
        let storage = NokStorage::from_document(&doc);
        let eval = Evaluator::new(&storage);
        let mut synopsis =
            XseedSynopsis::build(&doc, XseedConfig::default().with_bsel_threshold(0.99));
        let expr = parse("/a/b/d/e").unwrap();
        let actual = eval.count(&expr) as f64;
        assert!((synopsis.estimate(&expr) - actual).abs() > 1e-6);

        // A snapshot taken before the rebuild keeps its kernel-only state.
        let old_snap = synopsis.snapshot();
        let epoch_before = synopsis.epoch();
        let stats = synopsis.rebuild_het(&doc);
        assert!(stats.simple_entries > 0);
        assert!(synopsis.epoch() > epoch_before);
        assert!((synopsis.estimate(&expr) - actual).abs() < 1e-6);
        assert!((old_snap.estimate(&expr) - actual).abs() > 1e-6);
        assert!(synopsis.snapshot().epoch() > old_snap.epoch());

        // Strategy-bounded rebuilds go through the same path.
        let stats =
            synopsis.rebuild_het_with_strategy(&doc, crate::het::TopKErrorStrategy { k: 1 });
        assert!(stats.candidate_nodes <= 1);
    }

    #[test]
    fn feedback_creates_het_and_improves_estimate() {
        let doc = figure4_document();
        let storage = NokStorage::from_document(&doc);
        let eval = Evaluator::new(&storage);
        let mut synopsis = XseedSynopsis::build(&doc, XseedConfig::default());
        let expr = parse("/a/b/d/e").unwrap();
        let actual = eval.count(&expr);
        let before = synopsis.estimate(&expr);
        assert!((before - actual as f64).abs() > 1e-6);
        let outcome = synopsis.record_feedback(&expr, actual, None);
        assert_eq!(outcome, FeedbackOutcome::SimplePath);
        let after = synopsis.estimate(&expr);
        assert!((after - actual as f64).abs() < 1e-6);
    }

    #[test]
    fn feedback_report_carries_error_and_skips_epoch_on_unsupported() {
        let doc = figure4_document();
        let storage = NokStorage::from_document(&doc);
        let eval = Evaluator::new(&storage);
        let mut synopsis = XseedSynopsis::build(&doc, XseedConfig::default());
        let expr = parse("/a/b/d/e").unwrap();
        let actual = eval.count(&expr);
        let before = synopsis.estimate(&expr);
        let epoch_before = synopsis.epoch();

        let report = synopsis.record_feedback_report(&expr, actual, None);
        assert_eq!(report.outcome, FeedbackOutcome::SimplePath);
        assert_eq!(report.actual, actual);
        assert!((report.estimated - before).abs() < 1e-12);
        assert!((report.error - (before - actual as f64).abs()).abs() < 1e-12);
        assert!(report.error > 1e-6, "figure 4 kernel estimate is inexact");
        assert!(synopsis.epoch() > epoch_before, "applied feedback bumps");

        // Unsupported shapes are side-effect free: no epoch bump, no new
        // entries, and the report still carries the delta.
        let epoch = synopsis.epoch();
        let unsupported = synopsis.record_feedback_report(&parse("//e//f").unwrap(), 3, None);
        assert_eq!(unsupported.outcome, FeedbackOutcome::Unsupported);
        assert_eq!(synopsis.epoch(), epoch, "ignored feedback must not bump");
        assert!((unsupported.error - (unsupported.estimated - 3.0).abs()).abs() < 1e-12);
    }

    #[test]
    fn matcher_reports_visited_nodes_within_the_memo() {
        let doc = figure2_document();
        let synopsis = XseedSynopsis::build(&doc, XseedConfig::default());
        let snap = synopsis.snapshot();
        assert_eq!(snap.frontier_memo().len(), 14);
        let mut matcher = snap.matcher();
        // //p prunes the t/u subtrees (no p below them), so the replay
        // visits fewer nodes than the 14-node expansion.
        let (cardinality, visited) = matcher.estimate_with_stats(&parse("//p").unwrap());
        assert!(visited > 0 && visited < 14);
        assert!((cardinality - 17.0).abs() < 1e-6);
        // A wildcard query visits the whole expansion.
        let (_, visited) = matcher.estimate_with_stats(&parse("//*").unwrap());
        assert_eq!(visited, 14);
    }

    #[test]
    fn kernel_mut_invalidates_frozen_snapshot() {
        let doc = figure2_document();
        let mut synopsis = XseedSynopsis::build(&doc, XseedConfig::default());
        assert!((synopsis.estimate(&parse("/a/c/s").unwrap()) - 5.0).abs() < 1e-9);
        // Graft a brand-new child under the root through the synopsis; the
        // snapshot must be rebuilt so the new edge is visible.
        let root_name = synopsis
            .kernel()
            .name(synopsis.kernel().root().unwrap())
            .to_string();
        let subtree = xmlkit::Document::parse_str("<zzz/>").unwrap();
        synopsis
            .kernel_mut()
            .add_subtree(&[root_name.as_str()], &subtree)
            .unwrap();
        assert!((synopsis.estimate(&parse("/a/zzz").unwrap()) - 1.0).abs() < 1e-9);
        // The unrelated estimate is unchanged.
        assert!((synopsis.estimate(&parse("/a/c/s").unwrap()) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn clone_preserves_estimates() {
        let doc = figure2_document();
        let synopsis = XseedSynopsis::build(&doc, XseedConfig::default());
        let q = parse("/a/c/s[t]/p").unwrap();
        let warm = synopsis.estimate(&q); // populate the snapshot cache
        let cloned = synopsis.clone();
        assert!((cloned.estimate(&q) - warm).abs() < 1e-12);
    }

    #[test]
    fn card_threshold_reduces_ept() {
        let doc = figure2_document();
        let config = XseedConfig::default().with_card_threshold(2.0);
        let synopsis = XseedSynopsis::build(&doc, config);
        assert!(synopsis.snapshot().frontier_memo().len() < 14);
    }

    #[test]
    fn snapshot_is_send_sync_and_epoch_stamped() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SynopsisSnapshot>();

        let doc = figure2_document();
        let mut synopsis = XseedSynopsis::build(&doc, XseedConfig::default());
        assert_eq!(synopsis.epoch(), 0);
        let snap = synopsis.snapshot();
        assert_eq!(snap.epoch(), 0);
        // Repeated snapshots between mutations share the same bundle.
        let again = synopsis.snapshot();
        assert!(Arc::ptr_eq(&snap.inner, &again.inner));

        let _ = synopsis.kernel_mut();
        assert_eq!(synopsis.epoch(), 1);
        assert_eq!(synopsis.snapshot().epoch(), 1);
        // HET/config mutations bump too.
        synopsis.set_memory_budget(Some(1 << 20));
        assert_eq!(synopsis.epoch(), 2);
        let _ = synopsis.config_mut();
        assert_eq!(synopsis.epoch(), 3);
    }

    #[test]
    fn snapshot_survives_kernel_update() {
        // A snapshot taken before an update keeps estimating against its
        // own consistent pre-update state (the race-proofing contract).
        let doc = figure2_document();
        let mut synopsis = XseedSynopsis::build(&doc, XseedConfig::default());
        let q = parse("/a/c/s").unwrap();
        let snap = synopsis.snapshot();
        let before = snap.estimate(&q);
        assert!((before - 5.0).abs() < 1e-9);

        let root_name = synopsis
            .kernel()
            .name(synopsis.kernel().root().unwrap())
            .to_string();
        let subtree = xmlkit::Document::parse_str("<zzz/>").unwrap();
        synopsis
            .kernel_mut()
            .add_subtree(&[root_name.as_str()], &subtree)
            .unwrap();

        // The synopsis sees the new edge; the old snapshot does not.
        assert!((synopsis.estimate(&parse("/a/zzz").unwrap()) - 1.0).abs() < 1e-9);
        assert_eq!(snap.estimate(&parse("/a/zzz").unwrap()), 0.0);
        assert!((snap.estimate(&q) - before).abs() < 1e-12);
        assert!(snap.epoch() < synopsis.epoch());
    }

    #[test]
    fn compiled_cache_stats_do_not_force_the_cache() {
        let doc = figure2_document();
        let synopsis = XseedSynopsis::build(&doc, XseedConfig::default());
        let snap = synopsis.snapshot();
        // Reading stats on an untouched snapshot reports zeros (and, per
        // the implementation, allocates nothing).
        assert_eq!(snap.compiled_cache_stats(), Default::default());
        assert!(
            snap.inner.compiled.get().is_none(),
            "stats must not allocate"
        );
        let plan = xpathkit::QueryPlan::parse("/a/c/s").unwrap();
        assert!((snap.estimate_plan(&plan) - 5.0).abs() < 1e-9);
        assert_eq!(snap.compiled_cache_stats().misses, 1);
    }

    #[test]
    fn plan_bound_looks_up_the_compiled_plan_once() {
        let doc = figure2_document();
        let synopsis = XseedSynopsis::build(&doc, XseedConfig::default());
        let snap = synopsis.snapshot();
        let plan = xpathkit::QueryPlan::parse("//s//p").unwrap();
        let expected = snap.matcher().estimate_bound(plan.expr());
        for _ in 0..2 {
            let got = snap.estimate_plan_bound(&plan);
            assert_eq!(got.estimate.to_bits(), expected.estimate.to_bits());
            assert_eq!(got.bound.to_bits(), expected.bound.to_bits());
        }
        // One lookup per bound estimate — a miss, then a hit — which is
        // what two point estimates of the same plan count.
        let stats = snap.compiled_cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));

        // A simple path resident in the HET keeps the point half's fast
        // path: the answer is the exact count, as in the expression path.
        let (with_het, _) = XseedSynopsis::build_with_het(&figure4_document(), Default::default());
        let snap = with_het.snapshot();
        let plan = xpathkit::QueryPlan::parse("/a/b/d/e").unwrap();
        let expected = snap.matcher().estimate_bound(plan.expr());
        let got = snap.estimate_plan_bound(&plan);
        assert_eq!(got.estimate, 20.0);
        assert_eq!(got.estimate.to_bits(), expected.estimate.to_bits());
        assert_eq!(got.bound.to_bits(), expected.bound.to_bits());
    }

    #[test]
    fn one_matcher_matches_one_shot_estimates_and_shares_the_memo() {
        let doc = figure2_document();
        let synopsis = XseedSynopsis::build(&doc, XseedConfig::default());
        let snap = synopsis.snapshot();
        let memo = snap.frontier_memo().clone();
        let mut matcher = snap.matcher();
        for q in ["/a/c/s", "//s//p", "/a/c/s[t]/p", "/a/*", "//*"] {
            let expr = parse(q).unwrap();
            assert_eq!(
                matcher.estimate(&expr).to_bits(),
                synopsis.estimate(&expr).to_bits(),
                "{q}"
            );
        }
        // Every matcher and one-off estimate replays the same memo.
        assert!(Arc::ptr_eq(&memo, synopsis.snapshot().frontier_memo()));
    }

    #[test]
    fn kernel_roundtrip_through_serialization() {
        let doc = figure2_document();
        let synopsis = XseedSynopsis::build(&doc, XseedConfig::default());
        let bytes = synopsis.kernel().serialize();
        let restored = XseedSynopsis::from_kernel(
            Kernel::deserialize(&bytes).unwrap(),
            XseedConfig::default(),
        );
        let q = parse("/a/c/s[t]/p").unwrap();
        assert!((synopsis.estimate(&q) - restored.estimate(&q)).abs() < 1e-9);
    }
}
