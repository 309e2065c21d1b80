//! The batch executor: many queries, one matcher.
//!
//! A batch is estimated by a single [`xseed_core::StreamingMatcher`] from
//! [`SynopsisSnapshot::matcher`], on the thread that read the request:
//! like every estimate, each query replays the snapshot's shared [`xseed_core::FrontierMemo`] (the traveler's
//! expansion, recorded once per snapshot epoch), and the matcher's
//! scratch buffers stay warm across the whole batch. Batches homogeneous
//! in query class get the best locality (simple paths may even
//! short-circuit through the HET), but heterogeneity only costs the
//! reuse, never correctness.
//!
//! Plans are estimated through the snapshot's compiled-query cache
//! ([`xseed_core::CompiledPlanCache`]): a plan seen before on this
//! snapshot skips label resolution entirely, so a plan-cache hit pays
//! neither the parse nor the compile on the hot path.
//!
//! Feedback also batches: a [`FeedbackItem`] slice routed through
//! [`crate::Catalog::record_feedback_batch`] (or
//! [`crate::Service::feedback_batch`]) applies every observation under
//! one entry update — one epoch bump and one snapshot publication for
//! the whole batch, with the maintenance policy evaluated once over the
//! batch's accumulated error mass.

use crate::metrics::{Obs, Stage};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xpathkit::QueryPlan;
use xseed_core::SynopsisSnapshot;

/// One observed cardinality in a feedback batch: the executed query (a
/// cached plan, so repeated feedback skips the parser) plus what the
/// execution engine actually saw. `base` is the cardinality of the same
/// path without predicates, when known — it lets branching feedback
/// derive an exact correlated selectivity (see
/// [`xseed_core::het::feedback::record_feedback`]).
#[derive(Debug, Clone)]
pub struct FeedbackItem {
    /// The executed query.
    pub query: Arc<QueryPlan>,
    /// The observed cardinality.
    pub actual: u64,
    /// Cardinality of the predicate-free base path, if known.
    pub base: Option<u64>,
}

/// Estimates every plan of `batch` with one matcher over `snapshot`,
/// returning the estimates in input order.
///
/// With `obs` present, each plan's compilation (compiled-cache misses
/// only, captured inside the miss closure by
/// [`xseed_core::StreamingMatcher::estimate_plan_timed`] so the cache
/// counters see exactly one lookup per estimate) is timed into
/// [`Stage::Compile`], and one `Instant` pair around the whole batch
/// records `batch.len()` [`Stage::Estimate`] samples of the per-query
/// mean with the total compile time subtracted out, so the two stages
/// partition the work and the warm per-query hot path pays no clock
/// reads at all (see [`Obs::record_amortized`]). With `obs` absent no
/// clock is read.
pub fn execute_batch_observed(
    snapshot: &SynopsisSnapshot,
    batch: &[Arc<QueryPlan>],
    obs: &Option<Arc<Obs>>,
) -> Vec<f64> {
    let mut matcher = snapshot.matcher();
    let Some(obs) = obs else {
        return batch
            .iter()
            .map(|plan| matcher.estimate_plan(plan))
            .collect();
    };
    let started = Instant::now();
    let mut compile_total = Duration::ZERO;
    let estimates: Vec<f64> = batch
        .iter()
        .map(|plan| {
            let (estimate, compiled) = matcher.estimate_plan_timed(plan);
            if let Some(compile_time) = compiled {
                obs.record(Stage::Compile, compile_time);
                compile_total += compile_time;
            }
            estimate
        })
        .collect();
    let estimating = started.elapsed().saturating_sub(compile_total);
    obs.record_amortized(Stage::Estimate, estimating, batch.len() as u64);
    estimates
}

#[cfg(test)]
mod tests {
    use super::*;
    use xseed_core::{XseedConfig, XseedSynopsis};

    #[test]
    fn batch_matches_one_shot_estimates() {
        let synopsis =
            XseedSynopsis::build_from_xml(xmlkit::samples::FIGURE2_XML, XseedConfig::default())
                .unwrap();
        let snapshot = synopsis.snapshot();
        let plans: Vec<Arc<QueryPlan>> = ["/a/c/s", "//s//p", "/a/c/s[t]/p", "//*", "/a/zzz"]
            .iter()
            .map(|q| Arc::new(QueryPlan::parse(q).unwrap()))
            .collect();
        let batch = execute_batch_observed(&snapshot, &plans, &None);
        for (plan, got) in plans.iter().zip(&batch) {
            let expected = synopsis.estimate(plan.expr());
            assert!((expected - got).abs() < 1e-9, "{}", plan.text());
        }
        // Single-plan batches work too.
        let single = execute_batch_observed(&snapshot, &plans[..1], &None);
        assert!((single[0] - batch[0]).abs() < 1e-12);
    }
}
