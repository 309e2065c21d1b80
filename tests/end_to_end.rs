//! Cross-crate integration tests: dataset generation → synopsis
//! construction → estimation → error measurement, exercising the same
//! pipeline as the experiment harness but at test-friendly scales.

use xseed::prelude::*;
use xseed::xseed_bench::{ErrorMetrics, Observation};

fn observations<F: FnMut(&PathExpr) -> f64>(
    workload: &Workload,
    evaluator: &Evaluator<'_>,
    mut estimate: F,
) -> Vec<Observation> {
    workload
        .all()
        .map(|q| Observation {
            estimated: estimate(q),
            actual: evaluator.count(q) as f64,
        })
        .collect()
}

#[test]
fn xmark_pipeline_produces_reasonable_errors() {
    let doc = Dataset::XMark10.generate_scaled(0.08);
    let workload = WorkloadGenerator::new(&doc, 3).generate(&WorkloadSpec {
        branching: 40,
        complex: 40,
        max_simple: 200,
        predicates_per_step: 1,
    });
    let storage = NokStorage::from_document(&doc);
    let evaluator = Evaluator::new(&storage);

    let (synopsis, _) =
        XseedSynopsis::build_with_het(&doc, XseedConfig::default().with_memory_budget(50 * 1024));
    let snapshot = synopsis.snapshot();
    let mut matcher = snapshot.matcher();
    let metrics = ErrorMetrics::compute(&observations(&workload, &evaluator, |q| {
        matcher.estimate(q)
    }));
    // Simple paths are exact via the HET, so the normalized error over the
    // whole workload must stay moderate.
    assert!(metrics.count > 100);
    assert!(
        metrics.nrmse < 1.0,
        "NRMSE {} unexpectedly high for XMark with HET",
        metrics.nrmse
    );
    assert!(
        metrics.opd > 0.7,
        "order preservation {} too low",
        metrics.opd
    );
}

#[test]
fn synopsis_is_much_smaller_than_document_and_storage() {
    let doc = Dataset::Dblp.generate_scaled(0.05);
    let storage = NokStorage::from_document(&doc);
    let synopsis = XseedSynopsis::build(&doc, XseedConfig::default());
    assert!(synopsis.kernel_size_bytes() * 50 < doc.source_bytes());
    assert!(synopsis.kernel_size_bytes() * 10 < storage.heap_bytes());
}

#[test]
fn kernel_estimates_simple_paths_exactly_when_paths_are_unambiguous() {
    // On TPC-H every rooted label path is structurally homogeneous, so the
    // kernel alone answers all simple paths exactly.
    let doc = Dataset::Tpch.generate_scaled(0.05);
    let synopsis = XseedSynopsis::build(&doc, XseedConfig::default());
    let path_tree = PathTree::from_document(&doc);
    for (expr, actual) in path_tree.all_simple_paths(doc.names()) {
        let estimate = synopsis.estimate(&expr);
        assert!(
            (estimate - actual as f64).abs() < 1e-6,
            "{expr}: estimated {estimate}, actual {actual}"
        );
    }
}

#[test]
fn incremental_update_tracks_document_changes() {
    let doc = Dataset::XBench.generate_scaled(0.05);
    let synopsis = XseedSynopsis::build(&doc, XseedConfig::default());
    let mut kernel = synopsis.kernel().clone();

    // Insert a new article subtree under the catalog root and verify the
    // estimate for /catalog/article grows accordingly.
    let article = Document::parse_str(
        "<article><prolog><title/><author><name/></author><dateline/></prolog><body><section><heading/><p/></section></body></article>",
    )
    .unwrap();
    let before = XseedSynopsis::from_kernel(kernel.clone(), XseedConfig::default())
        .estimate(&parse_query("/catalog/article").unwrap());
    kernel.add_subtree(&["catalog"], &article).unwrap();
    let after = XseedSynopsis::from_kernel(kernel.clone(), XseedConfig::default())
        .estimate(&parse_query("/catalog/article").unwrap());
    assert!(
        (after - before - 1.0).abs() < 1e-6,
        "before {before}, after {after}"
    );

    // Removing it restores the original estimate.
    kernel.remove_subtree(&["catalog"], &article).unwrap();
    let restored = XseedSynopsis::from_kernel(kernel, XseedConfig::default())
        .estimate(&parse_query("/catalog/article").unwrap());
    assert!((restored - before).abs() < 1e-6);
}

#[test]
fn serialized_synopsis_can_be_shipped_to_an_optimizer() {
    // Build on one "machine", serialize, deserialize elsewhere, estimates
    // agree — the deployment story for a DBMS optimizer.
    let doc = Dataset::SwissProt.generate_scaled(0.05);
    let original = XseedSynopsis::build(&doc, XseedConfig::default());
    let bytes = original.kernel().serialize();
    let restored = XseedSynopsis::from_kernel(
        xseed::xseed_core::Kernel::deserialize(&bytes).unwrap(),
        XseedConfig::default(),
    );
    let workload = WorkloadGenerator::new(&doc, 5).generate(&WorkloadSpec {
        branching: 30,
        complex: 30,
        max_simple: 100,
        predicates_per_step: 1,
    });
    for q in workload.all() {
        assert!(
            (original.estimate(q) - restored.estimate(q)).abs() < 1e-9,
            "{q}"
        );
    }
}

#[test]
fn treesketch_and_xseed_agree_on_flat_data_but_not_on_recursive_data() {
    // Flat data: both synopses are accurate.
    let flat = Dataset::Tpch.generate_scaled(0.03);
    let storage = NokStorage::from_document(&flat);
    let evaluator = Evaluator::new(&storage);
    let xseed = XseedSynopsis::build(&flat, XseedConfig::default());
    let sketch = TreeSketch::build(&flat, None);
    let q = parse_query("/tpch/orders/order/lineitem").unwrap();
    let actual = evaluator.count(&q) as f64;
    assert!((xseed.estimate(&q) - actual).abs() / actual < 0.05);
    assert!((sketch.estimate(&q) - actual).abs() / actual < 0.05);

    // Recursive data: XSEED stays closer on repeated descendant steps.
    let recursive = Dataset::TreebankSmall.generate_scaled(0.3);
    let storage = NokStorage::from_document(&recursive);
    let evaluator = Evaluator::new(&storage);
    let xseed = XseedSynopsis::build(&recursive, XseedConfig::recursive_document());
    let sketch = TreeSketch::build(&recursive, Some(25 * 1024));
    let q = parse_query("//NP//NP//NP").unwrap();
    let actual = evaluator.count(&q) as f64;
    let xseed_err = (xseed.estimate(&q) - actual).abs();
    let sketch_err = (sketch.estimate(&q) - actual).abs();
    assert!(
        xseed_err <= sketch_err,
        "XSEED error {xseed_err} vs TreeSketch error {sketch_err} (actual {actual})"
    );
}
