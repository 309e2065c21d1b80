//! Streaming pre-computation of the hyper-edge table (Section 5, "HET
//! Construction").
//!
//! The original construction (kept as the differential oracle in
//! [`mod@reference`]) materialized a full expanded path tree, ran the arena
//! matcher once per candidate path, and evaluated every branching
//! candidate with a separate NoK tree walk over the whole document. This
//! builder is driven by the streaming machinery instead:
//!
//! * the traveler's expansion is recorded **once** in a
//!   [`FrontierMemo`] and replayed per candidate — the same trick every
//!   estimate uses — so no EPT arena is ever materialized;
//! * kernel estimates for *all* rooted simple paths come from a single
//!   replay pass ([`FrontierMemo::simple_path_estimates`]), O(expansion)
//!   instead of O(paths × expansion);
//! * exact cardinalities for *all* branching candidates come from a single
//!   streaming NoK pass ([`Evaluator::count_branching_batch`]), instead of
//!   one full document walk per candidate.
//!
//! Which path-tree nodes get branching candidates is decided by a
//! pluggable [`CandidateStrategy`]; the default
//! ([`BselThresholdStrategy`]) reproduces the paper's `BSEL_THRESHOLD`
//! rule, and [`TopKErrorStrategy`] / [`PerLevelBudgetStrategy`] bound the
//! construction cost for documents where the threshold alone selects too
//! many (or too few) nodes.

use crate::config::XseedConfig;
use crate::estimate::streaming::{FrontierMemo, StreamingMatcher};
use crate::het::hash::{correlated_key, path_hash};
use crate::het::table::HyperEdgeTable;
use crate::kernel::{FrozenKernel, Kernel};
use nokstore::{BranchingSpec, Evaluator, NokStorage, PathTree, PathTreeNodeId};
use std::sync::Arc;
use xpathkit::ast::{PathExpr, Step};

pub mod reference;

/// Upper bound on the number of sibling labels considered when enumerating
/// multi-predicate (2BP/3BP) combinations for one path-tree node, keeping
/// the candidate count polynomial even for very wide elements.
const MAX_SIBLINGS_FOR_COMBOS: usize = 16;

/// Statistics about a build, reported for experiments (Figure 6 plots HET
/// construction time and entry counts per MBP setting).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HetBuildStats {
    /// Number of simple-path entries inserted.
    pub simple_entries: usize,
    /// Number of correlated (branching) entries inserted.
    pub correlated_entries: usize,
    /// Number of exact branching-path evaluations performed (streamed in
    /// one batch pass by this builder; one NoK walk each in the
    /// [`mod@reference`] oracle).
    pub exact_evaluations: usize,
    /// Number of path-tree nodes the candidate strategy selected for
    /// branching enumeration.
    pub candidate_nodes: usize,
}

/// Everything a [`CandidateStrategy`] may consult when choosing which
/// path-tree nodes get branching candidates.
pub struct CandidateContext<'a> {
    /// The document's path tree (exact per-path statistics).
    pub path_tree: &'a PathTree,
    /// The build configuration (thresholds, MBP, budget).
    pub config: &'a XseedConfig,
    /// Absolute kernel-estimate error of each simple-path entry, indexed
    /// by path-tree node (`simple_errors[id.index()]`). Computed before
    /// selection runs, so error-driven strategies are possible.
    pub simple_errors: &'a [f64],
}

/// Pluggable selection of the path-tree nodes whose branching paths are
/// enumerated (each selected node plays the role of the required
/// predicate; its siblings provide results and extra predicates).
///
/// Returned ids may be in any order, may contain duplicates, and may
/// include the root — the builder sorts, dedups, and drops parentless
/// ids so the enumeration (and therefore the table) is deterministic and
/// [`HetBuildStats::candidate_nodes`] counts real anchors only.
pub trait CandidateStrategy: std::fmt::Debug {
    /// Chooses the predicate-anchor nodes.
    fn select(&self, ctx: &CandidateContext<'_>) -> Vec<PathTreeNodeId>;
}

/// The paper's rule: every non-root node whose backward selectivity falls
/// below `XseedConfig::bsel_threshold` anchors branching candidates. This
/// is the default strategy and reproduces the original builder exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct BselThresholdStrategy;

impl CandidateStrategy for BselThresholdStrategy {
    fn select(&self, ctx: &CandidateContext<'_>) -> Vec<PathTreeNodeId> {
        ctx.path_tree
            .ids()
            .filter(|&id| {
                ctx.path_tree.node(id).parent.is_some()
                    && ctx.path_tree.bsel(id) < ctx.config.bsel_threshold
            })
            .collect()
    }
}

/// Selects the `k` non-root nodes whose simple-path entries carry the
/// largest kernel-estimate error: where the kernel is already wrong about
/// the path itself, its sibling-independence assumption is least
/// trustworthy, so those neighborhoods get the exact treatment first.
/// Bounds construction cost independently of the bsel distribution.
#[derive(Debug, Clone, Copy)]
pub struct TopKErrorStrategy {
    /// Number of anchor nodes to keep.
    pub k: usize,
}

impl CandidateStrategy for TopKErrorStrategy {
    fn select(&self, ctx: &CandidateContext<'_>) -> Vec<PathTreeNodeId> {
        let mut ids: Vec<PathTreeNodeId> = ctx
            .path_tree
            .ids()
            .filter(|&id| ctx.path_tree.node(id).parent.is_some())
            .collect();
        // Largest error first; ties resolve to the smaller id so selection
        // is deterministic.
        ids.sort_by(|&a, &b| {
            ctx.simple_errors[b.index()]
                .partial_cmp(&ctx.simple_errors[a.index()])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        ids.truncate(self.k);
        ids
    }
}

/// Selects, per path-tree depth level, at most `per_level` non-root nodes —
/// the ones with the lowest backward selectivity (the most
/// correlation-prone). Spreads the exact-evaluation budget across the
/// document's depth instead of letting one bushy level consume it all.
#[derive(Debug, Clone, Copy)]
pub struct PerLevelBudgetStrategy {
    /// Maximum anchor nodes per depth level.
    pub per_level: usize,
}

impl CandidateStrategy for PerLevelBudgetStrategy {
    fn select(&self, ctx: &CandidateContext<'_>) -> Vec<PathTreeNodeId> {
        let mut by_level: Vec<Vec<PathTreeNodeId>> = Vec::new();
        for id in ctx.path_tree.ids() {
            if ctx.path_tree.node(id).parent.is_none() {
                continue;
            }
            let depth = ctx.path_tree.label_path(id).len();
            if by_level.len() < depth {
                by_level.resize(depth, Vec::new());
            }
            by_level[depth - 1].push(id);
        }
        let mut out = Vec::new();
        for mut level in by_level {
            level.sort_by(|&a, &b| {
                ctx.path_tree
                    .bsel(a)
                    .partial_cmp(&ctx.path_tree.bsel(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            level.truncate(self.per_level);
            out.extend(level);
        }
        out
    }
}

/// Builds hyper-edge tables from a document's exact statistics, driven by
/// the streaming matcher (see the module docs).
pub struct HetBuilder<'a> {
    kernel: &'a Kernel,
    path_tree: &'a PathTree,
    storage: &'a NokStorage,
    config: &'a XseedConfig,
    strategy: Box<dyn CandidateStrategy + 'a>,
}

impl<'a> HetBuilder<'a> {
    /// Creates a builder with the default candidate strategy
    /// ([`BselThresholdStrategy`]).
    pub fn new(
        kernel: &'a Kernel,
        path_tree: &'a PathTree,
        storage: &'a NokStorage,
        config: &'a XseedConfig,
    ) -> Self {
        HetBuilder {
            kernel,
            path_tree,
            storage,
            config,
            strategy: Box::new(BselThresholdStrategy),
        }
    }

    /// Replaces the candidate-selection strategy (builder style).
    pub fn with_strategy(mut self, strategy: impl CandidateStrategy + 'a) -> Self {
        self.strategy = Box::new(strategy);
        self
    }

    /// Builds the table, returning it together with build statistics.
    /// The table's residency is computed against the byte budget left over
    /// after the kernel (if a budget is configured).
    pub fn build(&self) -> (HyperEdgeTable, HetBuildStats) {
        self.build_inner(None)
    }

    /// Builds the table exactly like [`build`](Self::build), but evaluates
    /// the exact branching counts with one worker per root-child `range`
    /// (see [`Evaluator::count_branching_batch_partitioned`]).
    ///
    /// The result is bit-identical to the monolithic build: candidate
    /// selection, enumeration order, and estimate replay are untouched, and
    /// the partitioned counter sums exact `u64` partials whose total equals
    /// the monolithic walk's tally.
    pub fn build_partitioned(
        &self,
        ranges: &[std::ops::Range<usize>],
    ) -> (HyperEdgeTable, HetBuildStats) {
        self.build_inner(Some(ranges))
    }

    fn build_inner(
        &self,
        ranges: Option<&[std::ops::Range<usize>]>,
    ) -> (HyperEdgeTable, HetBuildStats) {
        let mut het = HyperEdgeTable::new();
        let mut stats = HetBuildStats::default();

        // Kernel-only estimates: one frontier expansion, recorded once and
        // replayed for every candidate (no EPT arena).
        let frozen = FrozenKernel::freeze(self.kernel);
        let memo = Arc::new(FrontierMemo::build(&frozen, self.config, None));
        let estimates = memo.simple_path_estimates();

        // Simple-path entries: exact cardinality and bsel from the path
        // tree, error from the aggregated replay pass.
        let mut simple_errors = vec![0.0f64; self.path_tree.len()];
        for id in self.path_tree.ids() {
            let labels = self.path_tree.label_path(id);
            let hash = path_hash(&labels);
            let actual = self.path_tree.cardinality(id);
            let estimated = estimates.get(&hash).copied().unwrap_or(0.0);
            let error = (estimated - actual as f64).abs();
            simple_errors[id.index()] = error;
            het.insert_simple(hash, actual, self.path_tree.bsel(id), error);
            stats.simple_entries += 1;
        }

        if self.config.max_branching_predicates > 0 {
            self.add_branching_entries(
                &mut het,
                &mut stats,
                &frozen,
                &memo,
                &simple_errors,
                ranges,
            );
        }

        het.set_budget(self.remaining_budget());
        (het, stats)
    }

    /// Branching entries: the strategy picks anchor nodes, candidates are
    /// enumerated per anchor, truths come from one batch NoK pass, and
    /// estimates from per-candidate replays of the shared memo.
    fn add_branching_entries(
        &self,
        het: &mut HyperEdgeTable,
        stats: &mut HetBuildStats,
        frozen: &FrozenKernel,
        memo: &Arc<FrontierMemo>,
        simple_errors: &[f64],
        ranges: Option<&[std::ops::Range<usize>]>,
    ) {
        let mut selected = self.strategy.select(&CandidateContext {
            path_tree: self.path_tree,
            config: self.config,
            simple_errors,
        });
        selected.sort_unstable();
        selected.dedup();
        // The root has no parent path to anchor a branching candidate; a
        // strategy returning it gets it silently normalized away, keeping
        // `candidate_nodes` equal to the anchors actually enumerated.
        selected.retain(|&id| self.path_tree.node(id).parent.is_some());
        stats.candidate_nodes = selected.len();

        // Enumerate every candidate before touching the document: the
        // batch counter amortizes one streaming pass over all of them.
        let names = self.storage.names();
        let mut specs: Vec<BranchingSpec> = Vec::new();
        let mut candidates: Vec<Candidate> = Vec::new();
        for &pred_node in &selected {
            let Some(parent) = self.path_tree.node(pred_node).parent else {
                continue;
            };
            let parent_labels = self.path_tree.label_path(parent);
            let parent_names: Vec<String> = parent_labels
                .iter()
                .map(|&l| names.name_or_panic(l).to_string())
                .collect();
            let parent_hash = path_hash(&parent_labels);
            let pred_label = self.path_tree.node(pred_node).label;
            let siblings: Vec<PathTreeNodeId> = self
                .path_tree
                .node(parent)
                .children
                .iter()
                .copied()
                .filter(|&c| c != pred_node)
                .take(MAX_SIBLINGS_FOR_COMBOS)
                .collect();

            for &result_node in &siblings {
                let result_label = self.path_tree.node(result_node).label;
                let result_card = self.path_tree.cardinality(result_node);
                if result_card == 0 {
                    continue;
                }
                let other_labels: Vec<xmlkit::names::LabelId> = siblings
                    .iter()
                    .copied()
                    .filter(|&c| c != result_node)
                    .map(|c| self.path_tree.node(c).label)
                    .collect();
                for pred_labels in predicate_combinations(
                    pred_label,
                    &other_labels,
                    self.config.max_branching_predicates,
                ) {
                    let pred_name_list: Vec<String> = pred_labels
                        .iter()
                        .map(|&l| names.name_or_panic(l).to_string())
                        .collect();
                    let expr = branching_expr(
                        &parent_names,
                        &pred_name_list,
                        names.name_or_panic(result_label),
                    );
                    candidates.push(Candidate {
                        key: correlated_key(parent_hash, &pred_labels, result_label),
                        result_card,
                        expr,
                    });
                    specs.push(BranchingSpec {
                        parent,
                        predicates: pred_labels,
                        result: result_label,
                    });
                }
            }
        }

        let evaluator = Evaluator::new(self.storage);
        let counts = match ranges {
            Some(r) => evaluator.count_branching_batch_partitioned(self.path_tree, &specs, r),
            None => evaluator.count_branching_batch(self.path_tree, &specs),
        };
        let mut matcher = StreamingMatcher::new(frozen, self.kernel.names(), self.config, None);
        matcher.set_frontier_memo(memo.clone());
        for (candidate, actual) in candidates.iter().zip(counts) {
            stats.exact_evaluations += 1;
            let estimated = matcher.estimate(&candidate.expr);
            let error = (estimated - actual as f64).abs();
            let correlated_bsel = actual as f64 / candidate.result_card as f64;
            het.insert_correlated(candidate.key, actual, correlated_bsel, error);
            stats.correlated_entries += 1;
        }
    }

    /// Budget left for the HET once the kernel has been accounted for.
    fn remaining_budget(&self) -> Option<usize> {
        self.config
            .memory_budget
            .map(|total| total.saturating_sub(self.kernel.size_bytes()))
    }
}

/// One enumerated branching candidate, paired index-for-index with its
/// [`BranchingSpec`] in the batch-count request.
struct Candidate {
    key: u64,
    result_card: u64,
    expr: PathExpr,
}

/// Builds the expression `/<parent path>[pred1]...[predm]/<result>`.
fn branching_expr(parent_names: &[String], pred_names: &[String], result_name: &str) -> PathExpr {
    let mut steps: Vec<Step> = parent_names.iter().map(Step::child).collect();
    let last = steps
        .last_mut()
        .expect("parent path is rooted and non-empty");
    for p in pred_names {
        last.predicates.push(PathExpr::simple([p.as_str()]));
    }
    steps.push(Step::child(result_name));
    PathExpr::new(steps)
}

/// All predicate label combinations of size `1..=mbp` that contain
/// `required`; the remaining labels are drawn (order-insensitively) from
/// `others`.
fn predicate_combinations(
    required: xmlkit::names::LabelId,
    others: &[xmlkit::names::LabelId],
    mbp: usize,
) -> Vec<Vec<xmlkit::names::LabelId>> {
    let mut out = vec![vec![required]];
    if mbp <= 1 {
        return out;
    }
    // Size-2 combinations.
    for (i, &a) in others.iter().enumerate() {
        out.push(vec![required, a]);
        if mbp >= 3 {
            for &b in &others[i + 1..] {
                out.push(vec![required, a, b]);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::reference::ReferenceHetBuilder;
    use super::*;
    use crate::het::table::{HetEntry, HetEntryKind};
    use crate::kernel::KernelBuilder;
    use std::collections::HashMap;
    use xmlkit::names::LabelId;
    use xmlkit::samples::{figure2_document, figure4_document};
    use xmlkit::Document;
    use xpathkit::parse;

    fn build_for(doc: &Document, config: &XseedConfig) -> (Kernel, HyperEdgeTable, HetBuildStats) {
        let kernel = KernelBuilder::from_document(doc);
        let path_tree = PathTree::from_document(doc);
        let storage = NokStorage::from_document(doc);
        let (het, stats) = HetBuilder::new(&kernel, &path_tree, &storage, config).build();
        (kernel, het, stats)
    }

    /// Asserts that two tables hold exactly the same entries: same keys,
    /// kinds, exact cardinalities and selectivities; errors may differ by
    /// float-association noise between the streaming and materialized
    /// estimate paths, nothing more.
    pub(super) fn assert_tables_identical(streamed: &HyperEdgeTable, oracle: &HyperEdgeTable) {
        assert_eq!(streamed.len(), oracle.len(), "entry counts differ");
        let index = |t: &HyperEdgeTable| -> HashMap<(u64, HetEntryKind), HetEntry> {
            t.entries_by_error()
                .into_iter()
                .map(|e| ((e.key, e.kind), e.clone()))
                .collect()
        };
        let a = index(streamed);
        let b = index(oracle);
        assert_eq!(a.len(), b.len(), "duplicate keys differ");
        for (k, ea) in &a {
            let eb = b.get(k).unwrap_or_else(|| panic!("missing entry {k:?}"));
            assert_eq!(ea.cardinality, eb.cardinality, "cardinality for {k:?}");
            assert_eq!(
                ea.bsel.to_bits(),
                eb.bsel.to_bits(),
                "bsel for {k:?}: {} vs {}",
                ea.bsel,
                eb.bsel
            );
            assert!(
                (ea.error - eb.error).abs() < 1e-9 + 1e-12 * ea.error.abs().max(eb.error.abs()),
                "error for {k:?}: streamed {} vs oracle {}",
                ea.error,
                eb.error
            );
        }
    }

    /// Builds with both the streaming builder and the EPT+NoK reference
    /// oracle and asserts the tables are entry-for-entry identical.
    fn assert_matches_reference(doc: &Document, config: &XseedConfig) {
        let kernel = KernelBuilder::from_document(doc);
        let path_tree = PathTree::from_document(doc);
        let storage = NokStorage::from_document(doc);
        let (streamed, new_stats) = HetBuilder::new(&kernel, &path_tree, &storage, config).build();
        let (oracle, old_stats) =
            ReferenceHetBuilder::new(&kernel, &path_tree, &storage, config).build();
        assert_tables_identical(&streamed, &oracle);
        assert_eq!(new_stats.simple_entries, old_stats.simple_entries);
        assert_eq!(new_stats.correlated_entries, old_stats.correlated_entries);
        assert_eq!(new_stats.exact_evaluations, old_stats.exact_evaluations);
        assert_eq!(streamed.budget(), oracle.budget());
    }

    #[test]
    fn streaming_build_matches_reference_on_sample_documents() {
        for doc in [figure2_document(), figure4_document()] {
            for config in [
                XseedConfig::default(),
                XseedConfig::default().with_bsel_threshold(0.99),
                XseedConfig::default()
                    .with_bsel_threshold(0.99)
                    .with_max_branching_predicates(2),
                XseedConfig::default()
                    .with_bsel_threshold(0.99)
                    .with_max_branching_predicates(3),
                // card_threshold truncation: the expansion stops early and
                // the two builders must still agree entry for entry.
                XseedConfig::default()
                    .with_bsel_threshold(0.99)
                    .with_card_threshold(2.0),
            ] {
                assert_matches_reference(&doc, &config);
            }
        }
    }

    #[test]
    fn partitioned_build_is_bit_identical_to_monolithic() {
        for doc in [figure2_document(), figure4_document()] {
            for config in [
                XseedConfig::default(),
                XseedConfig::default().with_bsel_threshold(0.99),
                XseedConfig::default()
                    .with_bsel_threshold(0.99)
                    .with_max_branching_predicates(3),
            ] {
                let kernel = KernelBuilder::from_document(&doc);
                let path_tree = PathTree::from_document(&doc);
                let storage = NokStorage::from_document(&doc);
                let builder = HetBuilder::new(&kernel, &path_tree, &storage, &config);
                let (mono, mono_stats) = builder.build();
                for partitions in [1usize, 2, 4, 7] {
                    let plan = crate::partition::PartitionPlan::for_document(&doc, partitions);
                    let (part, part_stats) = builder.build_partitioned(plan.ranges());
                    assert_tables_identical(&part, &mono);
                    assert_eq!(part_stats.simple_entries, mono_stats.simple_entries);
                    assert_eq!(part_stats.candidate_nodes, mono_stats.candidate_nodes);
                    assert_eq!(part_stats.exact_evaluations, mono_stats.exact_evaluations);
                    assert_eq!(part_stats.correlated_entries, mono_stats.correlated_entries);
                    assert_eq!(part.budget(), mono.budget());
                    // The exact counts feed the error terms verbatim, so even
                    // the float fields must agree to the bit.
                    let entries = |t: &HyperEdgeTable| {
                        let mut v: Vec<_> = t
                            .entries_by_error()
                            .into_iter()
                            .map(|e| {
                                let kind = matches!(e.kind, HetEntryKind::Correlated) as u8;
                                (
                                    e.key,
                                    kind,
                                    e.cardinality,
                                    e.bsel.to_bits(),
                                    e.error.to_bits(),
                                )
                            })
                            .collect();
                        v.sort();
                        v
                    };
                    assert_eq!(entries(&part), entries(&mono));
                }
            }
        }
    }

    #[test]
    fn simple_entries_cover_every_rooted_path() {
        let doc = figure2_document();
        let (_, het, stats) = build_for(&doc, &XseedConfig::default());
        let path_tree = PathTree::from_document(&doc);
        assert_eq!(stats.simple_entries, path_tree.len());
        assert!(het.len() >= path_tree.len());
        // Every simple path is resident with its exact cardinality.
        let names = doc.names();
        let l = |n: &str| names.lookup(n).unwrap();
        let key = path_hash(&[l("a"), l("c"), l("s"), l("s")]);
        assert_eq!(het.lookup_simple(key).map(|(c, _)| c), Some(2));
    }

    #[test]
    fn correlated_entries_created_for_low_bsel_nodes() {
        // In the Figure 4 document, e under d has bsel 5/14 and f has 11/14;
        // with a generous threshold both generate branching candidates.
        let doc = figure4_document();
        let config = XseedConfig::default().with_bsel_threshold(0.99);
        let (kernel, het, stats) = build_for(&doc, &config);
        assert!(stats.correlated_entries > 0);
        assert!(stats.exact_evaluations >= stats.correlated_entries);
        assert!(stats.candidate_nodes > 0);
        // f under /a/b/d has a low backward selectivity (only 2 of the 5 d
        // elements under b have an f child), so the branching path
        // /a/b/d[f]/e is enumerated and its true correlated selectivity
        // recorded.
        let names = kernel.names();
        let l = |n: &str| names.lookup(n).unwrap();
        let parent = path_hash(&[l("a"), l("b"), l("d")]);
        let key = correlated_key(parent, &[l("f")], l("e"));
        let bsel = het.lookup_correlated(key);
        assert!(bsel.is_some());
        let storage = NokStorage::from_document(&doc);
        let eval = Evaluator::new(&storage);
        let actual = eval.count(&parse("/a/b/d[f]/e").unwrap()) as f64;
        let base = eval.count(&parse("/a/b/d/e").unwrap()) as f64;
        assert!((bsel.unwrap() - actual / base).abs() < 1e-9);
    }

    #[test]
    fn mbp_zero_disables_branching_entries() {
        let doc = figure4_document();
        let config = XseedConfig::default()
            .with_bsel_threshold(0.99)
            .with_max_branching_predicates(0);
        let (_, _, stats) = build_for(&doc, &config);
        assert_eq!(stats.correlated_entries, 0);
        assert_eq!(stats.candidate_nodes, 0);
    }

    #[test]
    fn higher_mbp_generates_more_candidates() {
        let doc = figure4_document();
        let config1 = XseedConfig::default().with_bsel_threshold(0.99);
        let config2 = XseedConfig::default()
            .with_bsel_threshold(0.99)
            .with_max_branching_predicates(2);
        let (_, _, stats1) = build_for(&doc, &config1);
        let (_, _, stats2) = build_for(&doc, &config2);
        assert!(stats2.correlated_entries >= stats1.correlated_entries);
    }

    #[test]
    fn budget_is_shared_with_kernel() {
        let doc = figure2_document();
        let config = XseedConfig::default().with_memory_budget(10_000);
        let (kernel, het, _) = build_for(&doc, &config);
        assert_eq!(het.budget(), Some(10_000 - kernel.size_bytes()));
    }

    #[test]
    fn top_k_error_strategy_bounds_candidate_nodes() {
        let doc = figure4_document();
        let kernel = KernelBuilder::from_document(&doc);
        let path_tree = PathTree::from_document(&doc);
        let storage = NokStorage::from_document(&doc);
        let config = XseedConfig::default().with_bsel_threshold(0.99);
        let (_, unbounded) = HetBuilder::new(&kernel, &path_tree, &storage, &config).build();
        let (het, stats) = HetBuilder::new(&kernel, &path_tree, &storage, &config)
            .with_strategy(TopKErrorStrategy { k: 1 })
            .build();
        assert_eq!(stats.candidate_nodes, 1);
        assert!(stats.candidate_nodes <= unbounded.candidate_nodes.max(1));
        assert!(stats.correlated_entries <= unbounded.correlated_entries);
        // Simple entries are unaffected by the strategy.
        assert_eq!(stats.simple_entries, path_tree.len());
        assert!(het.len() >= path_tree.len());
    }

    #[test]
    fn per_level_budget_strategy_spreads_selection() {
        let doc = figure4_document();
        let kernel = KernelBuilder::from_document(&doc);
        let path_tree = PathTree::from_document(&doc);
        let storage = NokStorage::from_document(&doc);
        let config = XseedConfig::default();
        let ctx_errors = vec![0.0; path_tree.len()];
        let ctx = CandidateContext {
            path_tree: &path_tree,
            config: &config,
            simple_errors: &ctx_errors,
        };
        let picked = PerLevelBudgetStrategy { per_level: 1 }.select(&ctx);
        // At most one node per depth level, none of them the root.
        let mut depths: Vec<usize> = picked
            .iter()
            .map(|&id| path_tree.label_path(id).len())
            .collect();
        depths.sort_unstable();
        depths.dedup();
        assert_eq!(depths.len(), picked.len());
        assert!(picked.iter().all(|&id| path_tree.node(id).parent.is_some()));
        // And the builder accepts the strategy end to end.
        let (_, stats) = HetBuilder::new(&kernel, &path_tree, &storage, &config)
            .with_strategy(PerLevelBudgetStrategy { per_level: 1 })
            .build();
        assert_eq!(stats.candidate_nodes, picked.len());
    }

    #[test]
    fn predicate_combination_counts() {
        let req = LabelId(0);
        let others = [LabelId(1), LabelId(2), LabelId(3)];
        assert_eq!(predicate_combinations(req, &others, 1).len(), 1);
        // 1 single + 3 pairs.
        assert_eq!(predicate_combinations(req, &others, 2).len(), 4);
        // 1 single + 3 pairs + C(3,2)=3 triples.
        assert_eq!(predicate_combinations(req, &others, 3).len(), 7);
    }

    #[test]
    fn branching_expr_shape() {
        let expr = branching_expr(
            &["a".to_string(), "b".to_string()],
            &["x".to_string(), "y".to_string()],
            "r",
        );
        assert_eq!(expr.to_string(), "/a/b[x][y]/r");
    }
}
