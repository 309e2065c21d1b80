//! Backpressure guarantees of the estimation service, driven past its
//! queue budget:
//!
//! * sheds are **deterministic**: with the worker fenced, exactly the
//!   requests beyond the budget shed, every shed is the structured
//!   [`ServiceError::Overloaded`], and nothing is partially enqueued;
//! * the process stays **under the configured bounds**: the queued-depth
//!   high-water mark never exceeds `workers × queue_capacity`;
//! * in-flight estimates are **never corrupted**: everything admitted
//!   during an overload storm answers bit-identically to a
//!   single-threaded run over the same snapshot.

use std::sync::Arc;
use std::thread;
use xseed_core::{XseedConfig, XseedSynopsis};
use xseed_service::{Catalog, PendingEstimate, Service, ServiceConfig, ServiceError};

use datagen::{Dataset, WorkloadGenerator, WorkloadSpec};

fn xmark_catalog() -> (Arc<Catalog>, Vec<String>) {
    let doc = Dataset::XMark10.generate_scaled(0.05);
    let synopsis = XseedSynopsis::build(&doc, XseedConfig::default());
    let workload = WorkloadGenerator::new(&doc, 0xBAD10AD).generate(&WorkloadSpec::small());
    let texts: Vec<String> = workload.all().map(|q| q.to_string()).collect();
    let catalog = Arc::new(Catalog::new());
    catalog.insert("xmark", synopsis);
    (catalog, texts)
}

/// With the single worker fenced, floods of `submit` shed exactly the
/// overflow — and everything admitted still answers bit-identically to a
/// single-threaded run once the fence lifts.
#[test]
fn fenced_flood_sheds_exactly_the_overflow_and_preserves_estimates() {
    const CAPACITY: usize = 16;
    const FLOOD: usize = 100;
    let (catalog, texts) = xmark_catalog();
    let reference: Vec<u64> = {
        let snapshot = catalog.snapshot("xmark").unwrap();
        let mut matcher = snapshot.matcher();
        texts
            .iter()
            .map(|t| matcher.estimate(&xpathkit::parse(t).unwrap()).to_bits())
            .collect()
    };
    let service = Service::new(
        catalog,
        ServiceConfig::with_workers(1).with_queue_capacity(CAPACITY),
    );
    let pause = service.pause_worker(0);
    pause.wait_until_paused();

    let mut admitted: Vec<(usize, PendingEstimate)> = Vec::new();
    let mut sheds = 0usize;
    for i in 0..FLOOD {
        match service.submit("xmark", &texts[i % texts.len()]) {
            Ok(pending) => admitted.push((i % texts.len(), pending)),
            Err(ServiceError::Overloaded { queued, capacity }) => {
                assert_eq!(queued, CAPACITY, "sheds only happen at a full budget");
                assert_eq!(capacity, CAPACITY);
                sheds += 1;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    // Deterministic: the first CAPACITY submissions were admitted, every
    // later one shed.
    assert_eq!(admitted.len(), CAPACITY);
    assert_eq!(sheds, FLOOD - CAPACITY);
    let stats = service.stats();
    assert_eq!(stats.accepted, CAPACITY as u64);
    assert_eq!(stats.shed, (FLOOD - CAPACITY) as u64);
    assert_eq!(stats.queued, CAPACITY);
    assert_eq!(stats.peak_queued, CAPACITY, "budget never exceeded");

    // Lift the fence: every admitted estimate completes, bit-identical to
    // the single-threaded reference.
    pause.resume();
    for (qi, pending) in admitted {
        assert_eq!(
            pending.wait().unwrap().to_bits(),
            reference[qi],
            "query {qi} diverged"
        );
    }
    let stats = service.stats();
    assert_eq!(stats.queued, 0);
    assert_eq!(stats.total_executed(), CAPACITY as u64);
}

/// Concurrent flooders against a live (unfenced) service: sheds and
/// admissions always partition the offered load, the bound holds, and
/// admitted work is bit-exact — overload never corrupts in-flight
/// estimates.
#[test]
fn concurrent_flood_stays_bounded_and_bit_exact() {
    const CAPACITY: usize = 8;
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 200;
    let (catalog, texts) = xmark_catalog();
    let reference: Vec<u64> = {
        let snapshot = catalog.snapshot("xmark").unwrap();
        let mut matcher = snapshot.matcher();
        texts
            .iter()
            .map(|t| matcher.estimate(&xpathkit::parse(t).unwrap()).to_bits())
            .collect()
    };
    let service = Service::new(
        catalog,
        ServiceConfig::with_workers(2).with_queue_capacity(CAPACITY),
    );

    let admitted_total: usize = thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let service = &service;
                let texts = &texts;
                let reference = &reference;
                scope.spawn(move || {
                    let mut admitted = 0usize;
                    for i in 0..PER_CLIENT {
                        let qi = (c * PER_CLIENT + i) % texts.len();
                        match service.submit("xmark", &texts[qi]) {
                            Ok(pending) => {
                                admitted += 1;
                                assert_eq!(
                                    pending.wait().unwrap().to_bits(),
                                    reference[qi],
                                    "{}",
                                    texts[qi]
                                );
                            }
                            Err(ServiceError::Overloaded { queued, capacity }) => {
                                assert_eq!(capacity, 2 * CAPACITY);
                                assert!(queued <= 2 * CAPACITY);
                            }
                            Err(other) => panic!("unexpected error: {other}"),
                        }
                    }
                    admitted
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });

    let stats = service.stats();
    assert_eq!(stats.accepted as usize, admitted_total);
    assert_eq!(
        stats.accepted + stats.shed,
        (CLIENTS * PER_CLIENT) as u64,
        "admissions and sheds must partition the offered load"
    );
    assert!(
        stats.peak_queued <= 2 * CAPACITY,
        "peak {} exceeded the {} budget",
        stats.peak_queued,
        2 * CAPACITY
    );
    assert_eq!(stats.total_executed() as usize, admitted_total);
    assert_eq!(stats.queued, 0);
}

/// Shed batches are all-or-nothing: an unfittable batch sheds before any
/// of it runs, and releases every reservation it took, so later (fitting)
/// work is unaffected.
#[test]
fn shed_batches_leave_no_partial_work() {
    let (catalog, texts) = xmark_catalog();
    let service = Service::new(
        catalog,
        ServiceConfig::with_workers(2).with_queue_capacity(16),
    );
    let refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
    let big: Vec<&str> = refs.iter().cycle().take(64).copied().collect();

    let pause0 = service.pause_worker(0);
    let pause1 = service.pause_worker(1);
    pause0.wait_until_paused();
    pause1.wait_until_paused();

    // 64 queries would run on the calling thread, but admission still
    // spreads their cost over the 2 queues as two 32-query pieces;
    // neither fits a 16-query queue, so the whole batch sheds.
    let err = service.estimate_batch("xmark", &big).unwrap_err();
    assert!(matches!(err, ServiceError::Overloaded { .. }), "{err}");
    let stats = service.stats();
    assert_eq!(stats.shed, 64);
    assert_eq!(
        stats.queued, 0,
        "failed admission must release its reservations"
    );

    // A fitting batch admitted behind the fences runs once they lift.
    pause0.resume();
    pause1.resume();
    let small: Vec<&str> = refs.iter().take(8).copied().collect();
    assert_eq!(service.estimate_batch("xmark", &small).unwrap().len(), 8);
    assert_eq!(service.stats().accepted, 8);
}
