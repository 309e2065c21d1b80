//! Tunable parameters of the XSEED synopsis and estimator.

/// Configuration of the estimator and the HET builder.
///
/// Defaults follow the paper: `CARD_THRESHOLD` is 0 for ordinary documents
/// (every expandable synopsis path is explored) and should be raised to
/// about 20 for highly recursive documents such as Treebank (Section 6.4);
/// `BSEL_THRESHOLD` is 0.1 (0.001 for Treebank); the HET considers
/// branching paths with at most one predicate (1BP) by default.
#[derive(Debug, Clone, PartialEq)]
pub struct XseedConfig {
    /// The traveler stops expanding a synopsis vertex when the estimated
    /// cardinality of the path is less than or equal to this threshold
    /// (`CARD_THRESHOLD` in Algorithm 2).
    pub card_threshold: f64,
    /// Path-tree nodes with backward selectivity below this threshold have
    /// their branching paths evaluated during HET construction
    /// (`BSEL_THRESHOLD`, Section 5).
    pub bsel_threshold: f64,
    /// Maximum number of branching predicates per candidate hyper-edge
    /// (`MBP`, Section 5). 1 means a 1BP HET.
    pub max_branching_predicates: usize,
    /// Total memory budget in bytes for kernel + HET. `None` means
    /// unlimited (keep every HET entry).
    pub memory_budget: Option<usize>,
    /// Bound on the number of expanded-path-tree nodes a single expansion
    /// may contain, guarding against degenerate synopses. The bound is
    /// enforced the way the paper controls expansion size — through the
    /// cardinality threshold: when the expansion under `card_threshold`
    /// would exceed this many nodes, the *effective* threshold is
    /// escalated (to 1, then doubled) until the expansion fits. The
    /// escalation is a pure function of the synopsis snapshot, config,
    /// and HET, so the traveler (the materialized oracle) and the
    /// frontier memo every estimate replays always prune at the same
    /// frontier — neither ever stops mid-walk. It also bounds a
    /// snapshot's memo to this many nodes.
    pub max_ept_nodes: usize,
    /// Capacity (in compiled queries) of the per-snapshot compiled-query
    /// cache serving [`crate::estimate::StreamingMatcher::estimate_plan`].
    /// A serving-layer knob rather than an estimator parameter: size it to
    /// the distinct-query working set of the workload (each entry is a
    /// few hundred bytes of compiled query, plus 32 bytes for the two
    /// answer cells that let a repeat skip the replay). The cache is
    /// created lazily, so synopses never used through cached plans pay
    /// nothing.
    pub compiled_cache_capacity: usize,
}

impl Default for XseedConfig {
    fn default() -> Self {
        XseedConfig {
            card_threshold: 0.0,
            bsel_threshold: 0.1,
            max_branching_predicates: 1,
            memory_budget: None,
            max_ept_nodes: 200_000,
            compiled_cache_capacity: 4096,
        }
    }
}

impl XseedConfig {
    /// Configuration suggested by the paper for highly recursive documents
    /// (Treebank-class): a higher cardinality threshold to bound the EPT
    /// and a much lower backward-selectivity threshold.
    pub fn recursive_document() -> Self {
        XseedConfig {
            card_threshold: 20.0,
            bsel_threshold: 0.001,
            ..Self::default()
        }
    }

    /// Like [`XseedConfig::recursive_document`], but with the cardinality
    /// threshold scaled to the document size. The paper uses
    /// `CARD_THRESHOLD = 20` for the 121,332-element Treebank.05 sample so
    /// that the expanded path tree stays at a few percent of the document;
    /// for smaller (or larger) documents the threshold that preserves that
    /// ratio scales proportionally, clamped to `[1, 20]`.
    pub fn recursive_for_size(element_count: usize) -> Self {
        let scaled = 20.0 * element_count as f64 / 121_332.0;
        XseedConfig {
            card_threshold: scaled.clamp(1.0, 20.0),
            bsel_threshold: 0.001,
            ..Self::default()
        }
    }

    /// Sets the memory budget in bytes (builder style).
    pub fn with_memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Sets the cardinality threshold (builder style).
    pub fn with_card_threshold(mut self, threshold: f64) -> Self {
        self.card_threshold = threshold;
        self
    }

    /// Sets the maximum number of branching predicates for HET candidates
    /// (builder style).
    pub fn with_max_branching_predicates(mut self, mbp: usize) -> Self {
        self.max_branching_predicates = mbp;
        self
    }

    /// Sets the backward-selectivity threshold (builder style).
    pub fn with_bsel_threshold(mut self, threshold: f64) -> Self {
        self.bsel_threshold = threshold;
        self
    }
}

/// One step of the adaptive cardinality-threshold escalation used to keep
/// expansions within [`XseedConfig::max_ept_nodes`]: thresholds below 1
/// jump to 1 (pruning every cardinality-0 path, which is what keeps even
/// cyclic kernels finite), then double. Both expansion walkers — the
/// frontier memo's build and the traveler oracle — share this rule, so
/// for a fixed synopsis + config + HET they settle on the same effective
/// threshold and therefore the same frontier.
pub(crate) fn escalate_card_threshold(threshold: f64) -> f64 {
    if threshold < 1.0 {
        1.0
    } else {
        threshold * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = XseedConfig::default();
        assert_eq!(c.card_threshold, 0.0);
        assert_eq!(c.bsel_threshold, 0.1);
        assert_eq!(c.max_branching_predicates, 1);
        assert_eq!(c.memory_budget, None);
    }

    #[test]
    fn recursive_preset() {
        let c = XseedConfig::recursive_document();
        assert_eq!(c.card_threshold, 20.0);
        assert_eq!(c.bsel_threshold, 0.001);
    }

    #[test]
    fn escalation_climbs_past_any_finite_cardinality() {
        // From any starting threshold (including negative ones, where a
        // cardinality-0 path would never be pruned) the first step lands
        // at 1 and doubling then exceeds any finite f64 card in finitely
        // many steps — the escalation loop always terminates.
        let mut t = -5.0;
        t = escalate_card_threshold(t);
        assert_eq!(t, 1.0);
        for _ in 0..64 {
            let next = escalate_card_threshold(t);
            assert!(next > t);
            t = next;
        }
        assert!(t >= 1e18);
    }

    #[test]
    fn builder_style_setters() {
        let c = XseedConfig::default()
            .with_memory_budget(25 * 1024)
            .with_card_threshold(5.0)
            .with_max_branching_predicates(2)
            .with_bsel_threshold(0.05);
        assert_eq!(c.memory_budget, Some(25 * 1024));
        assert_eq!(c.card_threshold, 5.0);
        assert_eq!(c.max_branching_predicates, 2);
        assert_eq!(c.bsel_threshold, 0.05);
    }
}
