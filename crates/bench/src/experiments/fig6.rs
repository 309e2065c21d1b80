//! Figure 6: the accuracy / construction-time trade-off of different MBP
//! (maximum branching predicates) settings of the HET, evaluated on a 2BP
//! workload over DBLP.

use crate::harness::{build_xseed_kernel, build_xseed_with_het, PreparedDataset};
use crate::metrics::ErrorMetrics;
use crate::report::{format_secs, TextTable};
use datagen::{Dataset, WorkloadSpec};

/// One bar group of Figure 6.
#[derive(Debug, Clone, Copy)]
pub struct Fig6Row {
    /// The MBP setting (0 = kernel only, 1 = 1BP HET, 2 = 2BP HET).
    pub mbp: usize,
    /// RMSE on the 2BP workload.
    pub rmse: f64,
    /// HET construction time in seconds (0 for the kernel-only setting).
    pub het_seconds: f64,
    /// Number of HET entries produced (resident or not).
    pub het_entries: usize,
}

/// Runs Figure 6 on the given dataset (the paper uses DBLP) with MBP
/// settings 0, 1 and 2. The workload uses up to two predicates per step
/// (the paper's 2BP workload).
pub fn run(dataset: Dataset, scale: f64, spec: &WorkloadSpec) -> Vec<Fig6Row> {
    let spec = spec.clone().with_predicates_per_step(2);
    let prepared = PreparedDataset::prepare(dataset, scale, &spec, 13);

    let mut rows = Vec::with_capacity(3);

    // MBP = 0: bare kernel.
    let kernel = build_xseed_kernel(&prepared).value.snapshot();
    let mut matcher = kernel.matcher();
    let metrics = ErrorMetrics::compute(&prepared.observations(|q| matcher.estimate(q), None));
    rows.push(Fig6Row {
        mbp: 0,
        rmse: metrics.rmse,
        het_seconds: 0.0,
        het_entries: 0,
    });

    for mbp in [1usize, 2] {
        let (xseed, het_time) = build_xseed_with_het(&prepared, None, mbp);
        let snapshot = xseed.value.snapshot();
        let mut matcher = snapshot.matcher();
        let metrics = ErrorMetrics::compute(&prepared.observations(|q| matcher.estimate(q), None));
        rows.push(Fig6Row {
            mbp,
            rmse: metrics.rmse,
            het_seconds: het_time.seconds,
            het_entries: xseed.value.het().map(|h| h.len()).unwrap_or(0),
        });
    }
    rows
}

/// Renders the figure data as a table.
pub fn render(dataset: Dataset, rows: &[Fig6Row]) -> String {
    let mut table = TextTable::new([
        "Setting",
        "RMSE (2BP workload)",
        "HET construction time",
        "HET entries",
    ]);
    for row in rows {
        let label = if row.mbp == 0 {
            "0BP (Kernel)".to_string()
        } else {
            format!("{}BP", row.mbp)
        };
        table.row([
            label,
            format!("{:.2}", row.rmse),
            format_secs(row.het_seconds),
            row.het_entries.to_string(),
        ]);
    }
    format!(
        "Figure 6: MBP settings vs accuracy and HET construction time on {}\n{}",
        dataset.paper_name(),
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> WorkloadSpec {
        WorkloadSpec {
            branching: 30,
            complex: 20,
            max_simple: 80,
            predicates_per_step: 1,
        }
    }

    #[test]
    fn error_decreases_with_mbp() {
        let rows = run(Dataset::Dblp, 0.01, &tiny_spec());
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].mbp, 0);
        // Adding the HET must not hurt; 1BP already removes most error.
        assert!(rows[1].rmse <= rows[0].rmse + 1e-9);
        assert!(rows[2].rmse <= rows[1].rmse + 1e-6);
    }

    #[test]
    fn higher_mbp_costs_more_entries() {
        let rows = run(Dataset::Dblp, 0.01, &tiny_spec());
        assert_eq!(rows[0].het_entries, 0);
        assert!(rows[2].het_entries >= rows[1].het_entries);
    }

    #[test]
    fn render_labels_settings() {
        let rows = run(Dataset::Dblp, 0.01, &tiny_spec());
        let text = render(Dataset::Dblp, &rows);
        assert!(text.contains("0BP (Kernel)"));
        assert!(text.contains("1BP"));
        assert!(text.contains("2BP"));
    }
}
