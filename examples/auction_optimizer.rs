//! An XMark auction-site scenario: the workload a cost-based optimizer
//! would throw at the synopsis.
//!
//! Generates an XMark-like document, builds XSEED with a pre-computed
//! hyper-edge table under a memory budget, and reports estimation error
//! (and the error of the TreeSketch baseline) on a mixed SP/BP/CP
//! workload — a miniature of the paper's Table 3 experiment.
//!
//! Run with: `cargo run --release --example auction_optimizer`

use xseed::prelude::*;
use xseed_bench::{ErrorMetrics, Observation};

fn main() {
    let doc = Dataset::XMark10.generate_scaled(0.3);
    println!("XMark document: {} elements", doc.element_count());

    // Workload: all simple paths plus random branching and complex queries.
    let workload = WorkloadGenerator::new(&doc, 42).generate(&WorkloadSpec {
        branching: 200,
        complex: 200,
        max_simple: 1_000,
        predicates_per_step: 1,
    });
    println!(
        "Workload: {} SP, {} BP, {} CP queries",
        workload.simple.len(),
        workload.branching.len(),
        workload.complex.len()
    );

    // Ground truth.
    let storage = NokStorage::from_document(&doc);
    let evaluator = Evaluator::new(&storage);

    // XSEED with a 25 KB budget (kernel + hyper-edge table).
    let config = XseedConfig::default().with_memory_budget(25 * 1024);
    let (synopsis, stats) = XseedSynopsis::build_with_het(&doc, config);
    println!(
        "XSEED: kernel {} bytes, HET {} resident bytes ({} simple + {} correlated entries built)",
        synopsis.kernel_size_bytes(),
        synopsis.het_resident_bytes(),
        stats.simple_entries,
        stats.correlated_entries,
    );

    // TreeSketch baseline at the same budget.
    let sketch = TreeSketch::build(&doc, Some(25 * 1024));
    println!(
        "TreeSketch: {} bytes, {} classes after {} merges",
        sketch.size_bytes(),
        sketch.class_count(),
        sketch.merges()
    );

    let snapshot = synopsis.snapshot();
    let mut matcher = snapshot.matcher();
    let mut xseed_obs = Vec::new();
    let mut sketch_obs = Vec::new();
    for query in workload.all() {
        let actual = evaluator.count(query) as f64;
        xseed_obs.push(Observation {
            estimated: matcher.estimate(query),
            actual,
        });
        sketch_obs.push(Observation {
            estimated: sketch.estimate(query),
            actual,
        });
    }
    let xseed_metrics = ErrorMetrics::compute(&xseed_obs);
    let sketch_metrics = ErrorMetrics::compute(&sketch_obs);
    println!(
        "\n{:<12} {:>10} {:>10} {:>8}",
        "synopsis", "RMSE", "NRMSE", "OPD"
    );
    for (name, m) in [("XSEED", xseed_metrics), ("TreeSketch", sketch_metrics)] {
        println!(
            "{name:<12} {:>10.2} {:>9.2}% {:>8.3}",
            m.rmse,
            m.nrmse_percent(),
            m.opd
        );
    }
}
