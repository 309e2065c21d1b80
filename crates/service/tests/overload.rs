//! Backpressure guarantees of the estimation service, driven past its
//! admission budget:
//!
//! * sheds are **deterministic**: with the budget held, every request
//!   sheds with the structured [`ServiceError::Overloaded`], and nothing
//!   runs;
//! * the process stays **under the configured bounds**: the reserved
//!   high-water mark never exceeds `workers × queue_capacity`;
//! * estimates are **never corrupted**: everything admitted during an
//!   overload storm answers bit-identically to a single-threaded run over
//!   the same snapshot.

use std::sync::Arc;
use std::thread;
use xseed_core::{XseedConfig, XseedSynopsis};
use xseed_service::{Catalog, Service, ServiceConfig, ServiceError};

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

/// Single-threaded reference estimates of `texts`, as bits.
fn reference_bits(catalog: &Catalog, texts: &[String]) -> Vec<u64> {
    let snapshot = catalog.snapshot("xmark").unwrap();
    let mut matcher = snapshot.matcher();
    texts
        .iter()
        .map(|t| matcher.estimate(&xpathkit::parse(t).unwrap()).to_bits())
        .collect()
}

/// With the whole budget held, a flood of `estimate` sheds every
/// request; once the budget is released every estimate answers
/// bit-identically to a single-threaded run.
#[test]
fn held_budget_sheds_the_whole_flood_and_preserves_estimates() {
    const CAPACITY: usize = 16;
    const FLOOD: usize = 100;
    let (catalog, texts) = xmark_catalog();
    let reference = reference_bits(&catalog, &texts);
    let service = Service::new(
        catalog,
        ServiceConfig::with_workers(1).with_queue_capacity(CAPACITY),
    );
    let held = service.reserve(CAPACITY).unwrap();

    for i in 0..FLOOD {
        match service.estimate("xmark", &texts[i % texts.len()]) {
            Err(ServiceError::Overloaded { queued, capacity }) => {
                assert_eq!((queued, capacity), (CAPACITY, CAPACITY));
            }
            other => panic!("a full budget must shed: {other:?}"),
        }
    }
    let stats = service.stats();
    assert_eq!(stats.accepted, CAPACITY as u64);
    assert_eq!(stats.shed, FLOOD as u64);
    assert_eq!(stats.queued, CAPACITY);
    assert_eq!(stats.peak_queued, CAPACITY, "budget never exceeded");

    // Release the budget: every estimate runs, bit-identical to the
    // single-threaded reference.
    drop(held);
    for (qi, text) in texts.iter().enumerate() {
        assert_eq!(
            service.estimate("xmark", text).unwrap().to_bits(),
            reference[qi],
            "query {qi} diverged"
        );
    }
    let stats = service.stats();
    assert_eq!(stats.queued, 0);
    assert_eq!(stats.executed, texts.len() as u64);
}

/// Concurrent batch flooders: batches of up to 12 queries from four
/// threads, so two in flight can exceed the 2 × 8 budget. Sheds and
/// admissions always partition the offered load, the bound holds, and
/// admitted work is bit-exact — overload never corrupts estimates.
#[test]
fn concurrent_flood_stays_bounded_and_bit_exact() {
    const CAPACITY: usize = 8;
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 200;
    const MAX_BATCH: usize = 12;
    let (catalog, texts) = xmark_catalog();
    let reference = reference_bits(&catalog, &texts);
    let service = Service::new(
        catalog,
        ServiceConfig::with_workers(2).with_queue_capacity(CAPACITY),
    );

    let (offered, admitted): (usize, usize) = thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let service = &service;
                let texts = &texts;
                let reference = &reference;
                scope.spawn(move || {
                    let (mut offered, mut admitted) = (0, 0);
                    for i in 0..PER_CLIENT {
                        let size = 1 + (c + i) % MAX_BATCH;
                        let first = (c * PER_CLIENT + i) % texts.len();
                        let picked: Vec<usize> =
                            (first..first + size).map(|q| q % texts.len()).collect();
                        let batch: Vec<&str> = picked.iter().map(|&q| texts[q].as_str()).collect();
                        offered += size;
                        match service.estimate_batch("xmark", &batch) {
                            Ok(estimates) => {
                                admitted += size;
                                for (&q, estimate) in picked.iter().zip(&estimates) {
                                    assert_eq!(estimate.to_bits(), reference[q], "{}", texts[q]);
                                }
                            }
                            Err(ServiceError::Overloaded { queued, capacity }) => {
                                assert_eq!(capacity, 2 * CAPACITY);
                                assert!(queued <= 2 * CAPACITY);
                            }
                            Err(other) => panic!("unexpected error: {other}"),
                        }
                    }
                    (offered, admitted)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .fold((0, 0), |(o, a), (co, ca)| (o + co, a + ca))
    });

    let stats = service.stats();
    assert_eq!(stats.accepted as usize, admitted);
    assert_eq!(
        (stats.accepted + stats.shed) as usize,
        offered,
        "admissions and sheds must partition the offered load"
    );
    assert!(
        stats.peak_queued <= 2 * CAPACITY,
        "peak {} exceeded the {} budget",
        stats.peak_queued,
        2 * CAPACITY
    );
    assert_eq!(stats.executed as usize, admitted);
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

    // 64 queries exceed the whole 2 × 16 budget, so the batch sheds
    // whole.
    let err = service.estimate_batch("xmark", &big).unwrap_err();
    assert!(matches!(err, ServiceError::Overloaded { .. }), "{err}");
    let stats = service.stats();
    assert_eq!(stats.shed, 64);
    assert_eq!(stats.queued, 0, "a shed batch must hold no budget");

    // A fitting batch still runs.
    let small: Vec<&str> = refs.iter().take(8).copied().collect();
    assert_eq!(service.estimate_batch("xmark", &small).unwrap().len(), 8);
    assert_eq!(service.stats().accepted, 8);
}
