//! Concurrency guarantees of the estimation service:
//!
//! * many threads estimating from one shared frozen snapshot produce
//!   **bit-identical** results to a single-threaded run (the snapshot is
//!   immutable — there is nothing to race on);
//! * snapshots taken before an update keep estimating their own epoch;
//! * plan-cache hits are indistinguishable from fresh parses.

use std::sync::Arc;
use std::thread;
use xpathkit::PathExpr;
use xseed_core::{SynopsisSnapshot, XseedConfig, XseedSynopsis};
use xseed_service::{Catalog, PlanCache, Service, ServiceConfig};

use datagen::{Dataset, WorkloadGenerator, WorkloadSpec};

const THREADS: usize = 8;

fn scenario(dataset: Dataset, scale: f64) -> (XseedSynopsis, Vec<PathExpr>) {
    let doc = dataset.generate_scaled(scale);
    let config = if dataset.is_highly_recursive() {
        XseedConfig::recursive_for_size(doc.element_count())
    } else {
        XseedConfig::default()
    };
    let synopsis = XseedSynopsis::build(&doc, config);
    let workload = WorkloadGenerator::new(&doc, 0xC0FFEE).generate(&WorkloadSpec::small());
    let queries: Vec<PathExpr> = workload.all().cloned().collect();
    assert!(queries.len() > 1, "the workload needs a real batch");
    (synopsis, queries)
}

/// Runs the workload single-threaded, then from `THREADS` threads sharing
/// the same snapshot, and compares every estimate bit for bit.
fn assert_threads_bit_identical(dataset: Dataset, scale: f64) {
    let (synopsis, queries) = scenario(dataset, scale);
    let snapshot: SynopsisSnapshot = synopsis.snapshot();

    // Single-threaded reference over the same snapshot.
    let reference: Vec<u64> = {
        let mut matcher = snapshot.matcher();
        queries
            .iter()
            .map(|q| matcher.estimate(q).to_bits())
            .collect()
    };

    let queries = Arc::new(queries);
    let results: Vec<Vec<u64>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|i| {
                let snapshot = snapshot.clone();
                let queries = queries.clone();
                scope.spawn(move || {
                    // Half the threads replay the snapshot's shared memo,
                    // half a memo their own matcher builds — both must
                    // agree bit-exactly.
                    let mut matcher = if i % 2 == 0 {
                        snapshot.matcher()
                    } else {
                        xseed_core::StreamingMatcher::new(
                            snapshot.frozen(),
                            snapshot.names(),
                            snapshot.config(),
                            snapshot.het(),
                        )
                    };
                    queries
                        .iter()
                        .map(|q| matcher.estimate(q).to_bits())
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (t, thread_results) in results.iter().enumerate() {
        assert_eq!(
            thread_results, &reference,
            "{dataset:?}: thread {t} diverged from the single-threaded run"
        );
    }
}

#[test]
fn xmark_eight_threads_bit_identical() {
    assert_threads_bit_identical(Dataset::XMark10, 0.05);
}

#[test]
fn dblp_eight_threads_bit_identical() {
    assert_threads_bit_identical(Dataset::Dblp, 0.02);
}

#[test]
fn treebank_eight_threads_bit_identical() {
    assert_threads_bit_identical(Dataset::TreebankSmall, 0.05);
}

#[test]
fn service_concurrent_clients_match_direct_estimates() {
    let (synopsis, queries) = scenario(Dataset::XMark10, 0.05);
    let direct: Vec<u64> = queries
        .iter()
        .map(|q| synopsis.estimate(q).to_bits())
        .collect();
    let texts: Vec<String> = queries.iter().map(|q| q.to_string()).collect();

    let catalog = Arc::new(Catalog::new());
    catalog.insert("xmark", synopsis);
    let service = Service::new(catalog, ServiceConfig::with_workers(4));

    thread::scope(|scope| {
        for _ in 0..4 {
            let service = &service;
            let texts = &texts;
            let direct = &direct;
            scope.spawn(move || {
                let refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
                let batch = service.estimate_batch("xmark", &refs).unwrap();
                for ((text, est), expected) in refs.iter().zip(&batch).zip(direct) {
                    assert_eq!(est.to_bits(), *expected, "{text}");
                }
            });
        }
    });
    assert!(service.stats().executed >= 4 * queries.len() as u64);
}

#[test]
fn updates_do_not_disturb_inflight_snapshots() {
    let (synopsis, queries) = scenario(Dataset::Dblp, 0.02);
    let catalog = Arc::new(Catalog::new());
    let published = catalog.insert("dblp", synopsis);
    let reference: Vec<u64> = queries
        .iter()
        .map(|q| published.estimate(q).to_bits())
        .collect();

    thread::scope(|scope| {
        // Readers hammer the pre-update snapshot...
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let snapshot = published.clone();
                let queries = &queries;
                let reference = &reference;
                scope.spawn(move || {
                    for _ in 0..3 {
                        let mut matcher = snapshot.matcher();
                        for (q, expected) in queries.iter().zip(reference) {
                            assert_eq!(matcher.estimate(q).to_bits(), *expected);
                        }
                    }
                })
            })
            .collect();
        // ...while the writer repeatedly grafts subtrees and republishes.
        let catalog = &catalog;
        scope.spawn(move || {
            for i in 0..5 {
                let (res, fresh) = catalog
                    .update("dblp", |syn| {
                        let root = syn.kernel().name(syn.kernel().root().unwrap()).to_string();
                        let subtree = xmlkit::Document::parse_str(&format!("<extra{i}/>")).unwrap();
                        syn.kernel_mut().add_subtree(&[root.as_str()], &subtree)
                    })
                    .unwrap();
                res.unwrap();
                assert_eq!(fresh.epoch(), i + 1);
            }
        });
        for r in readers {
            r.join().unwrap();
        }
    });

    // The published snapshot advanced; the old one is still epoch 0.
    assert_eq!(catalog.snapshot("dblp").unwrap().epoch(), 5);
    assert_eq!(published.epoch(), 0);
}

/// Eviction under concurrent insert/lookup churn: many threads hammer a
/// deliberately tiny cache with far more distinct queries than it can
/// hold. The LRU bound must hold at every observation point, counters
/// must stay consistent, and every handed-out plan must equal a fresh
/// parse (no torn entries).
#[test]
fn plan_cache_eviction_survives_concurrent_churn() {
    const SHARDS: usize = 4;
    const CAPACITY: usize = 16; // 4 per shard; the workload has ~100 texts
    let texts: Vec<String> = (0..100)
        .map(|i| format!("/site/a{}/b{}[c{}]", i % 10, i, i % 7))
        .collect();
    let cache = PlanCache::new(SHARDS, CAPACITY);

    let lookups: u64 = thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let cache = &cache;
                let texts = &texts;
                scope.spawn(move || {
                    let mut done = 0u64;
                    for round in 0..200 {
                        // Each thread walks the texts at its own stride, so
                        // shards see interleaved hot and cold keys.
                        let text = &texts[(t * 37 + round * (t + 1)) % texts.len()];
                        let plan = cache.get_or_parse(text).unwrap();
                        assert_eq!(plan.text(), text.as_str());
                        assert_eq!(plan.expr(), &xpathkit::parse(text).unwrap());
                        done += 1;
                        // The occupancy bound holds mid-churn, not just at
                        // the end.
                        assert!(cache.stats().entries <= CAPACITY);
                    }
                    done
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });

    let stats = cache.stats();
    assert_eq!(stats.hits + stats.misses, lookups);
    assert!(stats.entries <= CAPACITY);
    assert!(stats.misses >= CAPACITY as u64, "churn must evict");
    // Deterministic tail: after the churn, per-shard LRU ordering still
    // works — a just-touched entry survives an insert that evicts.
    let keep = cache.get_or_parse(&texts[0]).unwrap();
    for text in &texts[1..] {
        let _ = cache.get_or_parse(text).unwrap();
    }
    let hits_before = cache.stats().hits;
    let again = cache.get_or_parse(&texts[0]).unwrap();
    // texts[0] may or may not have survived the sweep (it depends on the
    // shard layout), but the cache must never hand back a different plan
    // than it parsed.
    if cache.stats().hits > hits_before {
        assert!(Arc::ptr_eq(&keep, &again));
    } else {
        assert_eq!(keep.as_ref(), again.as_ref());
    }
}

/// The per-snapshot compiled-query cache under concurrent churn: all
/// threads share one snapshot's cache via its matchers, and every answer
/// must be bit-identical to an uncached single-threaded run.
#[test]
fn compiled_cache_concurrent_churn_is_bit_exact() {
    let (synopsis, queries) = scenario(Dataset::XMark10, 0.05);
    // Tiny cache so the churn constantly evicts and recompiles.
    let mut synopsis = synopsis;
    synopsis.config_mut().compiled_cache_capacity = 8;
    let snapshot = synopsis.snapshot();
    let plans: Vec<Arc<xpathkit::QueryPlan>> = queries
        .iter()
        .map(|q| Arc::new(xpathkit::QueryPlan::parse(&q.to_string()).unwrap()))
        .collect();

    let reference: Vec<u64> = {
        let mut matcher = snapshot.matcher();
        queries
            .iter()
            .map(|q| matcher.estimate(q).to_bits())
            .collect()
    };

    thread::scope(|scope| {
        for t in 0..THREADS {
            let snapshot = snapshot.clone();
            let plans = &plans;
            let reference = &reference;
            scope.spawn(move || {
                let mut matcher = snapshot.matcher();
                for round in 0..3 {
                    for i in 0..plans.len() {
                        let i = (i + t * 11 + round) % plans.len();
                        assert_eq!(
                            matcher.estimate_plan(&plans[i]).to_bits(),
                            reference[i],
                            "{}",
                            plans[i].text()
                        );
                    }
                }
            });
        }
    });
    let stats = snapshot.compiled_cache().stats();
    assert!(stats.entries <= 8);
    assert!(stats.misses > 0);
}

mod compiled_cache_properties {
    use super::*;
    use proptest::prelude::*;

    /// Epoch-bump invalidation, property-tested against fresh
    /// compilation: interleave service estimates (which go through the
    /// plan cache *and* the snapshot's compiled-query cache) with catalog
    /// updates that graft fresh subtrees. After every step, the served
    /// estimate must be bit-identical to a freshly-built matcher
    /// compiling the query from scratch on the current snapshot — a stale
    /// compiled plan surviving an epoch bump would diverge as soon as the
    /// graft changes the label space or the frontier.
    fn check(steps: Vec<(usize, bool)>) -> Result<(), TestCaseError> {
        let queries = [
            "/site/regions",
            "//item[payment]/quantity",
            "//zzz0", // hits the labels the grafts introduce
            "//zzz1//item",
            "/site/*",
        ];
        let doc = Dataset::XMark10.generate_scaled(0.02);
        let catalog = Arc::new(Catalog::new());
        catalog.insert("doc", XseedSynopsis::build(&doc, XseedConfig::default()));
        let service = Service::new(catalog.clone(), ServiceConfig::with_workers(2));

        let mut grafts = 0usize;
        for (pick, update) in steps {
            if update {
                // Graft <zzz{n}><item/></zzz{n}> under the root: bumps the
                // epoch, publishes a fresh snapshot (and so a fresh
                // compiled cache), and changes future estimates.
                let xml = format!("<zzz{}><item/></zzz{}>", grafts % 2, grafts % 2);
                let (res, _) = catalog
                    .update("doc", |syn| {
                        let root = syn.kernel().name(syn.kernel().root().unwrap()).to_string();
                        let subtree = xmlkit::Document::parse_str(&xml).unwrap();
                        syn.kernel_mut().add_subtree(&[root.as_str()], &subtree)
                    })
                    .unwrap();
                res.unwrap();
                grafts += 1;
            }
            let text = queries[pick % queries.len()];
            let served = service.estimate("doc", text).unwrap();
            // Fresh compilation on the *current* snapshot, no caches.
            let snapshot = catalog.snapshot("doc").unwrap();
            let expr = xpathkit::parse(text).unwrap();
            let fresh = xseed_core::StreamingMatcher::new(
                snapshot.frozen(),
                snapshot.names(),
                snapshot.config(),
                snapshot.het(),
            )
            .estimate(&expr);
            prop_assert_eq!(
                served.to_bits(),
                fresh.to_bits(),
                "{} diverged after {} grafts",
                text,
                grafts
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn epoch_bumps_invalidate_compiled_plans(
            steps in prop::collection::vec((0usize..5, prop::bool::ANY), 1..12)
        ) {
            check(steps)?;
        }
    }
}

mod plan_cache_properties {
    use super::*;
    use proptest::prelude::*;

    /// Query texts drawn from a real generated workload (plus noise in the
    /// form of extra whitespace-free variants), so the property covers the
    /// SP/BP/CP shapes the service actually sees.
    fn workload_texts() -> Vec<String> {
        let doc = Dataset::XMark10.generate_scaled(0.02);
        let workload = WorkloadGenerator::new(&doc, 0x5EED).generate(&WorkloadSpec::small());
        workload.all().map(|q| q.to_string()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn cache_hits_equal_fresh_parses(picks in prop::collection::vec(0usize..1000, 1..20)) {
            let texts = workload_texts();
            let cache = PlanCache::new(4, 256);
            for pick in picks {
                let text = &texts[pick % texts.len()];
                let cached = cache.get_or_parse(text).unwrap();
                let fresh = xpathkit::parse(text).unwrap();
                prop_assert_eq!(cached.expr(), &fresh);
                prop_assert_eq!(cached.class(), fresh.classify());
                prop_assert_eq!(cached.text(), text.as_str());
                // A second lookup is a hit handing out the same plan.
                let again = cache.get_or_parse(text).unwrap();
                prop_assert!(Arc::ptr_eq(&cached, &again));
            }
            let stats = cache.stats();
            prop_assert_eq!(stats.misses as usize, stats.entries);
        }
    }
}
