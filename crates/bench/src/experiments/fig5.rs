//! Figure 5: estimation errors for different query types (SP, BP, CP) on
//! DBLP, comparing the XSEED kernel, XSEED with HET, and TreeSketch.

use crate::harness::{build_treesketch, build_xseed_kernel, build_xseed_with_het, PreparedDataset};
use crate::metrics::ErrorMetrics;
use crate::report::TextTable;
use datagen::{Dataset, WorkloadSpec};
use xpathkit::classify::QueryClass;

/// RMSE of the three estimators for one query class.
#[derive(Debug, Clone, Copy)]
pub struct Fig5Row {
    /// The query class.
    pub class: QueryClass,
    /// XSEED kernel only.
    pub xseed_kernel_rmse: f64,
    /// XSEED with a 1BP HET at the 50 KB budget.
    pub xseed_het_rmse: f64,
    /// TreeSketch at the 50 KB budget.
    pub treesketch_rmse: f64,
}

/// The memory budget used for the HET-equipped estimators in this figure.
pub const BUDGET: usize = 50 * 1024;

/// Runs the Figure 5 experiment on the given dataset (the paper uses
/// DBLP).
pub fn run(dataset: Dataset, scale: f64, spec: &WorkloadSpec) -> Vec<Fig5Row> {
    let prepared = PreparedDataset::prepare(dataset, scale, spec, 11);

    let kernel = build_xseed_kernel(&prepared).value.snapshot();
    let mut kernel_matcher = kernel.matcher();
    let (with_het, _) = build_xseed_with_het(&prepared, Some(BUDGET), 1);
    let with_het = with_het.value.snapshot();
    let mut het_matcher = with_het.matcher();
    let sketch = build_treesketch(&prepared, Some(BUDGET)).value;

    [
        QueryClass::SimplePath,
        QueryClass::BranchingPath,
        QueryClass::ComplexPath,
    ]
    .into_iter()
    .map(|class| {
        let kernel_metrics = ErrorMetrics::compute(
            &prepared.observations(|q| kernel_matcher.estimate(q), Some(class)),
        );
        let het_metrics =
            ErrorMetrics::compute(&prepared.observations(|q| het_matcher.estimate(q), Some(class)));
        let ts_metrics =
            ErrorMetrics::compute(&prepared.observations(|q| sketch.estimate(q), Some(class)));
        Fig5Row {
            class,
            xseed_kernel_rmse: kernel_metrics.rmse,
            xseed_het_rmse: het_metrics.rmse,
            treesketch_rmse: ts_metrics.rmse,
        }
    })
    .collect()
}

/// Renders the figure data as a table (the paper shows a bar chart; the
/// series are the same).
pub fn render(dataset: Dataset, rows: &[Fig5Row]) -> String {
    let mut table = TextTable::new([
        "Query type",
        "XSEED kernel RMSE",
        "XSEED+HET RMSE",
        "TreeSketch RMSE",
    ]);
    for row in rows {
        table.row([
            row.class.to_string(),
            format!("{:.2}", row.xseed_kernel_rmse),
            format!("{:.2}", row.xseed_het_rmse),
            format!("{:.2}", row.treesketch_rmse),
        ]);
    }
    format!(
        "Figure 5: estimation errors per query type on {}\n{}",
        dataset.paper_name(),
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> WorkloadSpec {
        WorkloadSpec {
            branching: 25,
            complex: 25,
            max_simple: 80,
            predicates_per_step: 1,
        }
    }

    #[test]
    fn produces_one_row_per_class() {
        let rows = run(Dataset::Dblp, 0.01, &tiny_spec());
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].class, QueryClass::SimplePath);
        assert_eq!(rows[1].class, QueryClass::BranchingPath);
        assert_eq!(rows[2].class, QueryClass::ComplexPath);
        for r in &rows {
            assert!(r.xseed_kernel_rmse.is_finite());
            assert!(r.xseed_het_rmse.is_finite());
            assert!(r.treesketch_rmse.is_finite());
        }
    }

    #[test]
    fn het_fixes_simple_paths_on_dblp() {
        // With the HET holding every simple path's true cardinality, the
        // SP error must drop to (essentially) zero, as in Figure 5.
        let rows = run(Dataset::Dblp, 0.01, &tiny_spec());
        assert!(rows[0].xseed_het_rmse <= rows[0].xseed_kernel_rmse + 1e-9);
        assert!(rows[0].xseed_het_rmse < 1e-6);
    }

    #[test]
    fn render_mentions_all_classes() {
        let rows = run(Dataset::Dblp, 0.01, &tiny_spec());
        let text = render(Dataset::Dblp, &rows);
        assert!(text.contains("SP"));
        assert!(text.contains("BP"));
        assert!(text.contains("CP"));
        assert!(text.contains("DBLP"));
    }
}
