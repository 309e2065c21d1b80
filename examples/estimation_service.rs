//! The estimation service end to end: a catalog of named synopses,
//! estimates from shared snapshots on the calling thread, batches over
//! one snapshot pass, admission control shedding excess load, and a live
//! update that republishes a new epoch without disturbing in-flight
//! readers.
//!
//! Run with `cargo run --release --example estimation_service`.

use std::sync::Arc;
use xseed::prelude::*;

fn main() {
    // A catalog holds many named synopses; load two builtin datasets.
    let catalog = Arc::new(Catalog::new());
    let xmark = Dataset::XMark10.generate_scaled(0.1);
    catalog.insert(
        "xmark",
        XseedSynopsis::build(&xmark, XseedConfig::default()),
    );
    let treebank = Dataset::TreebankSmall.generate_scaled(0.1);
    let config = XseedConfig::recursive_for_size(treebank.element_count());
    catalog.insert("treebank", XseedSynopsis::build(&treebank, config));

    // A service sized for 4 concurrent callers: they share an admission
    // budget of 4 × 1,024 queries.
    let service = Service::new(catalog.clone(), ServiceConfig::with_workers(4));

    // Single estimates: text in, cardinality out. The parsed plan is
    // cached, so the reparse below is a cache hit.
    let est = service.estimate("xmark", "//item[payment]").unwrap();
    println!("xmark //item[payment]          ~ {est:.1}");
    let est = service.estimate("xmark", "//item[payment]").unwrap();
    println!("xmark //item[payment] (cached) ~ {est:.1}");

    // Batches run as one snapshot pass over a shared frontier memo —
    // the traveler's expansion is recorded once per epoch and replayed
    // per query.
    let workload = WorkloadGenerator::new(&xmark, 42).generate(&WorkloadSpec::small());
    let texts: Vec<String> = workload.all().map(|q| q.to_string()).collect();
    let refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
    let estimates = service.estimate_batch("xmark", &refs).unwrap();
    println!(
        "batched {} xmark queries, total estimated cardinality {:.0}",
        estimates.len(),
        estimates.iter().sum::<f64>()
    );

    // Updates republish a fresh epoch-stamped snapshot; a snapshot taken
    // before the update keeps answering from its own consistent state.
    let old = catalog.snapshot("xmark").unwrap();
    let (_, fresh) = catalog
        .update("xmark", |synopsis| {
            let root = synopsis
                .kernel()
                .name(synopsis.kernel().root().unwrap())
                .to_string();
            let subtree = Document::parse_str("<audit_log/>").unwrap();
            synopsis
                .kernel_mut()
                .add_subtree(&[root.as_str()], &subtree)
        })
        .unwrap();
    let q = parse_query("/site/audit_log").unwrap();
    println!(
        "epoch {} sees /site/audit_log ~ {:.1}; epoch {} still sees {:.1}",
        fresh.epoch(),
        fresh.estimate(&q),
        old.epoch(),
        old.estimate(&q)
    );

    // Admission control: a batch larger than the whole budget is
    // shed with a structured error instead of running without bound —
    // the daemon turns this into the protocol's OVERLOADED reply.
    let tiny = Service::new(
        catalog.clone(),
        ServiceConfig::with_workers(1).with_queue_capacity(4),
    );
    match tiny.estimate_batch("xmark", &refs) {
        Err(ServiceError::Overloaded { queued, capacity }) => println!(
            "a {}-query batch against a {capacity}-query budget sheds \
             (queued={queued}) — retry smaller or later",
            refs.len()
        ),
        other => println!("unexpected admission result: {other:?}"),
    }

    let stats = service.stats();
    println!(
        "service stats: {} workers, {} estimates, {} batches, \
         {} accepted / {} shed (peak queue {} of {}), plan cache {}/{} hits",
        stats.workers,
        stats.executed,
        stats.batches,
        stats.accepted,
        stats.shed,
        stats.peak_queued,
        stats.queue_capacity * stats.workers,
        stats.plan_cache.hits,
        stats.plan_cache.hits + stats.plan_cache.misses,
    );
}
