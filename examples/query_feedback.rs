//! Self-tuning via query feedback (Figure 1's feedback arrow).
//!
//! Instead of pre-computing the hyper-edge table, the optimizer can feed
//! the actual cardinalities observed after execution back into the
//! synopsis. This example runs a feedback loop on a correlated document
//! and shows the estimation error shrinking query by query — first
//! against a bare synopsis, then through the serving layer, where a
//! maintenance policy turns accumulated feedback error into an automatic
//! HET rebuild (no operator, no re-supplied document).
//!
//! Run with: `cargo run --release --example query_feedback`

use std::sync::Arc;
use xseed::prelude::*;
use xseed_service::{Catalog, MaintenancePolicy, Service, ServiceConfig};

fn main() {
    // The Figure 4 style document: strong parent/sibling correlations that
    // the bare kernel cannot capture.
    let doc = Arc::new(xmlkit::samples::figure4_document());
    let storage = NokStorage::from_document(&doc);
    let evaluator = Evaluator::new(&storage);
    let mut synopsis = XseedSynopsis::build(&doc, XseedConfig::default());

    let queries = [
        "/a/b/d/e",
        "/a/c/d/e",
        "/a/b/d/f",
        "/a/c/d/f",
        "/a/b/d[f]/e",
        "/a/c/d[f]/e",
    ];

    println!("Round 1: kernel-only estimates (no feedback yet)");
    let mut first_round_error = 0.0;
    for text in queries {
        let query = parse_query(text).unwrap();
        let estimate = synopsis.estimate(&query);
        let actual = evaluator.count(&query);
        first_round_error += (estimate - actual as f64).abs();
        println!("  {text:<14} estimate {estimate:>8.2}   actual {actual:>4}");

        // The optimizer executed the query; feed the truth back. For the
        // branching queries we also pass the unpredicated base cardinality
        // so the correlated backward selectivity can be derived.
        let base = match text {
            "/a/b/d[f]/e" => Some(evaluator.count(&parse_query("/a/b/d/e").unwrap())),
            "/a/c/d[f]/e" => Some(evaluator.count(&parse_query("/a/c/d/e").unwrap())),
            _ => None,
        };
        synopsis.record_feedback(&query, actual, base);
    }

    println!("\nRound 2: the same queries after feedback");
    let mut second_round_error = 0.0;
    for text in queries {
        let query = parse_query(text).unwrap();
        let estimate = synopsis.estimate(&query);
        let actual = evaluator.count(&query);
        second_round_error += (estimate - actual as f64).abs();
        println!("  {text:<14} estimate {estimate:>8.2}   actual {actual:>4}");
    }

    println!(
        "\nTotal absolute error: {first_round_error:.2} before feedback, {second_round_error:.2} after."
    );
    println!(
        "HET now holds {} entries ({} bytes resident).",
        synopsis.het().map(|h| h.len()).unwrap_or(0),
        synopsis.het_resident_bytes()
    );

    // --- The same loop, self-maintaining through the serving layer. ---
    //
    // The catalog retains the document and an error-mass policy decides
    // when accumulated drift warrants rebuilding the whole HET from
    // exact statistics: one piece of feedback repairs one entry, but the
    // triggered rebuild repairs every simple path at once.
    println!("\nSelf-maintaining service: retain + error-mass policy");
    let catalog = Arc::new(Catalog::new());
    catalog.insert_retained(
        "fig4",
        XseedSynopsis::build(&doc, XseedConfig::default()),
        doc.clone(),
        MaintenancePolicy::ErrorMassBound(10.0),
    );
    let service = Service::new(catalog, ServiceConfig::with_workers(2));

    let fed_back = "/a/b/d/e";
    let actual = evaluator.count(&parse_query(fed_back).unwrap());
    let fb = service.feedback("fig4", fed_back, actual, None).unwrap();
    println!(
        "  FEEDBACK {fed_back}: outcome={}, estimated {:.2}, actual {actual}, error {:.2}",
        fb.report.outcome, fb.report.estimated, fb.report.error
    );
    if let Some(ticket) = fb.rebuild {
        let (stats, epoch) = ticket.wait().expect("maintenance rebuild");
        println!(
            "  error mass crossed the bound: automatic rebuild published epoch {epoch} \
             ({} simple + {} correlated entries)",
            stats.simple_entries, stats.correlated_entries
        );
    }
    // A path the feedback never mentioned is now exact too.
    let untouched = "/a/c/d/f";
    let est = service.estimate("fig4", untouched).unwrap();
    let truth = evaluator.count(&parse_query(untouched).unwrap());
    println!("  {untouched} (never fed back): estimate {est:.2}, actual {truth}");
    let stats = service.stats();
    println!(
        "  counters: feedback_applied={}, rebuilds_triggered={}",
        stats.feedback_applied, stats.rebuilds_triggered
    );
}
