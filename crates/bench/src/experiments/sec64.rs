//! Section 6.4: efficiency of the cardinality estimation algorithm.
//!
//! Two quantities are reported per dataset:
//!
//! * the size of the expanded path tree (EPT) generated by the traveler,
//!   as a fraction of the original XML tree (the paper reports 0.0035% –
//!   0.05% for the non-recursive datasets and a few percent for Treebank
//!   once `CARD_THRESHOLD` is raised to 20);
//! * the ratio of cardinality-estimation time to actual query-execution
//!   time, averaged over the workload (the paper reports 0.018% – 2%).

use crate::harness::{build_xseed_with_het, timed, PreparedDataset};
use crate::report::TextTable;
use datagen::{Dataset, WorkloadSpec};

/// One row of the Section 6.4 summary.
#[derive(Debug, Clone)]
pub struct Sec64Row {
    /// Dataset name.
    pub dataset: String,
    /// Number of EPT nodes generated per estimation.
    pub ept_nodes: usize,
    /// Number of elements in the document.
    pub document_nodes: usize,
    /// EPT size as a fraction of the document size.
    pub ept_ratio: f64,
    /// Average estimation time per query (seconds).
    pub avg_estimation_seconds: f64,
    /// Average actual execution time per query (seconds).
    pub avg_execution_seconds: f64,
    /// Ratio of estimation time to execution time.
    pub time_ratio: f64,
}

/// Runs the Section 6.4 experiment over the given datasets.
pub fn run(datasets: &[Dataset], scale: f64, spec: &WorkloadSpec) -> Vec<Sec64Row> {
    datasets
        .iter()
        .map(|&dataset| run_one(dataset, scale, spec))
        .collect()
}

/// Runs the experiment for one dataset.
pub fn run_one(dataset: Dataset, scale: f64, spec: &WorkloadSpec) -> Sec64Row {
    let prepared = PreparedDataset::prepare(dataset, scale, spec, 17);
    let (xseed, _) = build_xseed_with_het(&prepared, Some(50 * 1024), 1);
    let snapshot = xseed.value.snapshot();
    let evaluator = prepared.evaluator();

    // EPT size under the dataset's configuration (CARD_THRESHOLD = 20 for
    // Treebank-class documents, per the paper): the frontier memo records
    // exactly the expanded path tree the traveler generates.
    let ept_nodes = snapshot.frontier_memo().len();

    let queries: Vec<_> = prepared
        .ground_truth
        .iter()
        .map(|(q, _, _)| q.clone())
        .collect();
    let mut matcher = snapshot.matcher();
    let estimation = timed(|| {
        let mut total = 0.0f64;
        for q in &queries {
            total += matcher.estimate(q);
        }
        total
    });
    let execution = timed(|| {
        let mut total = 0u64;
        for q in &queries {
            total += evaluator.count(q);
        }
        total
    });

    let n = queries.len().max(1) as f64;
    let avg_estimation_seconds = estimation.seconds / n;
    let avg_execution_seconds = execution.seconds / n;
    Sec64Row {
        dataset: dataset.paper_name().to_string(),
        ept_nodes,
        document_nodes: prepared.stats.element_count,
        ept_ratio: ept_nodes as f64 / prepared.stats.element_count as f64,
        avg_estimation_seconds,
        avg_execution_seconds,
        time_ratio: if avg_execution_seconds > 0.0 {
            avg_estimation_seconds / avg_execution_seconds
        } else {
            0.0
        },
    }
}

/// Renders the rows.
pub fn render(rows: &[Sec64Row]) -> String {
    let mut table = TextTable::new([
        "Dataset",
        "EPT nodes",
        "document nodes",
        "EPT / document",
        "avg est. time",
        "avg query time",
        "est/query ratio",
    ]);
    for row in rows {
        table.row([
            row.dataset.clone(),
            row.ept_nodes.to_string(),
            row.document_nodes.to_string(),
            format!("{:.4}%", row.ept_ratio * 100.0),
            crate::report::format_secs(row.avg_estimation_seconds),
            crate::report::format_secs(row.avg_execution_seconds),
            format!("{:.3}%", row.time_ratio * 100.0),
        ]);
    }
    format!(
        "Section 6.4: efficiency of the cardinality estimation algorithm\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> WorkloadSpec {
        WorkloadSpec {
            branching: 15,
            complex: 15,
            max_simple: 50,
            predicates_per_step: 1,
        }
    }

    #[test]
    fn ept_is_a_tiny_fraction_of_the_document() {
        let row = run_one(Dataset::XMark10, 0.1, &tiny_spec());
        assert!(row.ept_nodes > 0);
        assert!(
            row.ept_ratio < 0.25,
            "EPT ratio {} unexpectedly large",
            row.ept_ratio
        );
        assert!(row.avg_estimation_seconds > 0.0);
        assert!(row.avg_execution_seconds > 0.0);
    }

    #[test]
    fn treebank_ept_is_bounded_by_card_threshold() {
        // With CARD_THRESHOLD = 20 (the recursive preset) the EPT stays a
        // small fraction of the document, as reported in Section 6.4.
        let row = run_one(Dataset::TreebankSmall, 0.2, &tiny_spec());
        assert!(
            row.ept_ratio < 0.5,
            "EPT ratio {} unexpectedly large",
            row.ept_ratio
        );
    }

    #[test]
    fn render_lists_datasets() {
        let rows = run(&[Dataset::XMark10], 0.05, &tiny_spec());
        let text = render(&rows);
        assert!(text.contains("XMark10"));
        assert!(text.contains("est/query ratio"));
    }
}
