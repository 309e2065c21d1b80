//! Feedback-driven self-maintenance, end to end: a deterministic drive of
//! the error-mass policy into an automatic epoch-bumping HET rebuild, and
//! an 8-thread estimate-vs-feedback race proving readers only ever see
//! whole synopsis states (consistent epochs, no torn HET reads).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use xpathkit::parse;
use xseed_core::{FeedbackOutcome, XseedConfig, XseedSynopsis};
use xseed_service::{Catalog, MaintenancePolicy, Service, ServiceConfig};

fn fig4_service(bound: f64, workers: usize) -> (Arc<Catalog>, Service) {
    let catalog = Arc::new(Catalog::new());
    let doc = Arc::new(xmlkit::samples::figure4_document());
    catalog.insert_retained(
        "fig4",
        XseedSynopsis::build(&doc, XseedConfig::default()),
        doc,
        MaintenancePolicy::ErrorMassBound(bound),
    );
    let service = Service::new(catalog.clone(), ServiceConfig::with_workers(workers));
    (catalog, service)
}

/// The ISSUE acceptance scenario: feedback accumulates under the bound,
/// crosses it, and the automatic rebuild republishes a synopsis whose
/// estimate for the fed-back query is exact — all observable through the
/// service API (the CI-diffed `feedback_session` transcript shows the
/// same through the wire).
#[test]
fn feedback_past_error_mass_bound_rebuilds_exactly() {
    // Per-feedback errors on Figure 4 are ~12.9 and ~14.8, so a bound of
    // 20 stays silent after the first feedback and crosses on the second.
    let (catalog, service) = fig4_service(20.0, 2);
    let epoch0 = catalog.snapshot("fig4").unwrap().epoch();

    let first = service.feedback("fig4", "/a/b/d/e", 20, None).unwrap();
    assert_eq!(first.report.outcome, FeedbackOutcome::SimplePath);
    assert!(first.report.error > 4.0);
    assert!(first.rebuild.is_none(), "below the bound: no trigger");
    assert!(first.epoch > epoch0, "applied feedback bumps the epoch");

    let second = service.feedback("fig4", "/a/c/d/f", 45, None).unwrap();
    assert!(
        first.report.error + second.report.error >= 20.0,
        "scenario must actually cross the bound"
    );
    let ticket = second.rebuild.expect("bound crossed: rebuild triggered");
    let (stats, rebuilt_epoch) = ticket.wait().expect("maintenance thread rebuilds");
    assert!(stats.simple_entries > 0);
    assert!(
        rebuilt_epoch > second.epoch,
        "rebuild bumps the epoch again"
    );
    assert_eq!(catalog.snapshot("fig4").unwrap().epoch(), rebuilt_epoch);

    // Post-rebuild, the fed-back queries are exact — and so is a path
    // feedback never touched (the rebuild recomputed every simple path).
    for (query, actual) in [("/a/b/d/e", 20.0), ("/a/c/d/f", 45.0), ("/a/b/d", 5.0)] {
        let est = service.estimate("fig4", query).unwrap();
        assert!((est - actual).abs() < 1e-9, "{query}: {est} vs {actual}");
    }
    let stats = service.stats();
    assert_eq!(stats.feedback_applied, 2);
    assert_eq!(stats.rebuilds_triggered, 1);
    assert_eq!(catalog.info()[0].error_mass, 0.0, "rebuild resets drift");
}

/// 8 threads estimate continuously while feedback triggers an automatic
/// rebuild. Every observed `(epoch, estimate)` pair must match one of the
/// three legitimate whole states (kernel-only, post-feedback,
/// post-rebuild) bit for bit, and epochs must never run backwards within
/// a thread — a torn HET read or a half-published snapshot would violate
/// one of the two.
#[test]
fn concurrent_estimates_race_feedback_rebuild_consistently() {
    let (catalog, service) = fig4_service(1.0, 4);
    let service = Arc::new(service);
    let queries = ["/a/b/d/e", "/a/c/d/f", "/a/b/d[f]/e"];

    // Reference states, built exactly like the catalog builds them:
    // epoch 0 = kernel-only, epoch 1 = after the one feedback, epoch 2 =
    // after the default-strategy rebuild. All estimation is
    // deterministic, so equality is exact (to_bits).
    let doc = xmlkit::samples::figure4_document();
    let mut reference = XseedSynopsis::build(&doc, XseedConfig::default());
    let mut expected: HashMap<(u64, &str), u64> = HashMap::new();
    for q in queries {
        expected.insert((0, q), reference.estimate(&parse(q).unwrap()).to_bits());
    }
    let report = reference.record_feedback_report(&parse("/a/b/d/e").unwrap(), 20, None);
    assert_eq!(report.outcome, FeedbackOutcome::SimplePath);
    for q in queries {
        expected.insert((1, q), reference.estimate(&parse(q).unwrap()).to_bits());
    }
    reference.rebuild_het(&doc);
    for q in queries {
        expected.insert((2, q), reference.estimate(&parse(q).unwrap()).to_bits());
    }
    let expected = Arc::new(expected);

    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..8)
        .map(|reader| {
            let catalog = catalog.clone();
            let service = service.clone();
            let stop = stop.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut last_epoch = 0u64;
                let mut observed = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for q in queries {
                        // Snapshot path: the epoch tells us exactly which
                        // whole state the estimate must equal.
                        let snap = catalog.snapshot("fig4").unwrap();
                        let epoch = snap.epoch();
                        assert!(
                            epoch >= last_epoch,
                            "reader {reader}: epoch ran backwards ({last_epoch} -> {epoch})"
                        );
                        last_epoch = epoch;
                        let est = snap.estimate(&parse(q).unwrap());
                        let want = expected
                            .get(&(epoch, q))
                            .unwrap_or_else(|| panic!("reader {reader}: epoch {epoch}?"));
                        assert_eq!(
                            est.to_bits(),
                            *want,
                            "reader {reader}: torn state at epoch {epoch} for {q}"
                        );
                        // Worker-pool path: no epoch attached, so the
                        // value must match one of the whole states.
                        let pooled = service.estimate("fig4", q).unwrap().to_bits();
                        assert!(
                            (0..=2).any(|e| expected.get(&(e, q)) == Some(&pooled)),
                            "reader {reader}: pooled estimate matches no whole state"
                        );
                        observed += 1;
                    }
                }
                observed
            })
        })
        .collect();

    // Let readers observe the kernel-only state, then trigger: the one
    // feedback crosses the 1.0 bound immediately.
    std::thread::sleep(std::time::Duration::from_millis(30));
    let fb = service.feedback("fig4", "/a/b/d/e", 20, None).unwrap();
    let ticket = fb.rebuild.expect("bound crossed");
    let (_, rebuilt_epoch) = ticket.wait().expect("rebuild completes");
    assert_eq!(rebuilt_epoch, 2);
    // Keep racing a moment after the rebuild lands, then stop.
    std::thread::sleep(std::time::Duration::from_millis(30));
    stop.store(true, Ordering::Relaxed);
    let mut total = 0u64;
    for reader in readers {
        total += reader.join().expect("reader panicked");
    }
    assert!(total > 0, "readers must have observed estimates");
    assert!((service.estimate("fig4", "/a/b/d/e").unwrap() - 20.0).abs() < 1e-9);
}
