//! Estimate-throughput bench: one-shot `estimate()` before/after the
//! streaming rewrite, plus batched estimator reuse.
//!
//! The seed's `XseedSynopsis::estimate()` regenerated the full expanded
//! path tree arena for every call; the streaming path matches the query
//! directly against a cached frozen-kernel snapshot. This bench measures
//! estimates/sec for both behaviors on an XMark workload and a recursive
//! Treebank-style workload, and records the results (and the one-shot
//! speedup) in `BENCH_estimate_throughput.json` at the workspace root.
//!
//! Set `ESTIMATE_SMOKE=1` to run a single pass per measurement and skip
//! the JSON write (the CI smoke mode keeping every measured path —
//! regenerating, one-shot, batched materialized, batched memo replay —
//! compiling and exercised).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datagen::{Dataset, WorkloadGenerator, WorkloadSpec};
use std::time::Instant;
use xpathkit::ast::PathExpr;
use xseed_bench::report::json_throughput_entry;
use xseed_core::{ExpandedPathTree, Matcher, XseedConfig, XseedSynopsis};

struct Scenario {
    name: &'static str,
    synopsis: XseedSynopsis,
    queries: Vec<PathExpr>,
}

fn scenarios() -> Vec<Scenario> {
    let mut out = Vec::new();
    for (name, dataset, scale, recursive) in [
        ("xmark", Dataset::XMark10, 0.25, false),
        ("treebank", Dataset::TreebankSmall, 0.1, true),
    ] {
        let doc = dataset.generate_scaled(scale);
        let config = if recursive {
            XseedConfig::recursive_for_size(doc.element_count())
        } else {
            XseedConfig::default()
        };
        let synopsis = XseedSynopsis::build(&doc, config);
        let workload = WorkloadGenerator::new(&doc, 0x5EED).generate(&WorkloadSpec::small());
        let queries: Vec<PathExpr> = workload.all().cloned().collect();
        assert!(!queries.is_empty());
        out.push(Scenario {
            name,
            synopsis,
            queries,
        });
    }
    out
}

/// The seed's one-shot behavior: regenerate the EPT arena per query.
fn estimate_regenerating(synopsis: &XseedSynopsis, query: &PathExpr) -> f64 {
    let ept = ExpandedPathTree::generate(synopsis.kernel(), synopsis.config(), synopsis.het());
    Matcher::new(synopsis.kernel(), &ept, synopsis.het()).estimate(query)
}

/// `true` when the CI smoke mode is active: one pass per measurement,
/// no criterion sampling, no JSON write.
fn smoke() -> bool {
    std::env::var_os("ESTIMATE_SMOKE").is_some()
}

/// Times `f` run over every query, returning ns per estimate. In smoke
/// mode a single timed pass follows the warm-up instead of the ~200 ms
/// sampling loop.
fn time_per_estimate(queries: &[PathExpr], mut f: impl FnMut(&PathExpr) -> f64) -> f64 {
    // Warm up once (builds caches), then time enough rounds to cover at
    // least ~200 ms.
    let mut sink = 0.0;
    for q in queries {
        sink += f(q);
    }
    let single_round = smoke();
    let mut rounds = 0u32;
    let start = Instant::now();
    loop {
        for q in queries {
            sink += f(q);
        }
        rounds += 1;
        if single_round || (start.elapsed().as_millis() >= 200 && rounds >= 2) {
            break;
        }
    }
    std::hint::black_box(sink);
    start.elapsed().as_nanos() as f64 / (rounds as f64 * queries.len() as f64)
}

fn write_baseline(results: &[(String, usize, f64, f64, f64, f64)]) {
    let mut body = String::from("{\n  \"bench\": \"estimate_throughput\",\n  \"datasets\": {\n");
    for (i, (name, queries, regen, streaming, batched_mat, batched_memo)) in
        results.iter().enumerate()
    {
        body.push_str(&format!(
            "    \"{name}\": {{\n      \"queries\": {queries},\n      \
             \"one_shot_regenerate_per_query\": {},\n      \
             \"one_shot_streaming\": {},\n      \
             \"batched_materialized\": {},\n      \
             \"batched_streaming_memo\": {},\n      \
             \"speedup_one_shot\": {:.2},\n      \
             \"memo_vs_materialized\": {:.2}\n    }}{}\n",
            json_throughput_entry(*regen),
            json_throughput_entry(*streaming),
            json_throughput_entry(*batched_mat),
            json_throughput_entry(*batched_memo),
            regen / streaming,
            batched_mat / batched_memo,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    body.push_str("  }\n}\n");
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_estimate_throughput.json"
    );
    std::fs::write(path, body).expect("write BENCH_estimate_throughput.json");
    println!("wrote {path}");
}

fn throughput_benches(c: &mut Criterion) {
    let scenarios = scenarios();
    let mut results = Vec::new();

    // The criterion sampling adds nothing in smoke mode — the measured
    // passes below already exercise every code path once.
    if !smoke() {
        let mut group = c.benchmark_group("estimate_throughput");
        group.sample_size(10);
        for scenario in &scenarios {
            let s = &scenario.synopsis;
            let qs = &scenario.queries;
            group.bench_with_input(
                BenchmarkId::new("one_shot_regenerate", scenario.name),
                &(),
                |b, _| b.iter(|| estimate_regenerating(s, &qs[0])),
            );
            group.bench_with_input(
                BenchmarkId::new("one_shot_streaming", scenario.name),
                &(),
                |b, _| b.iter(|| s.estimate(&qs[0])),
            );
        }
        group.finish();
    }

    for scenario in &scenarios {
        let s = &scenario.synopsis;
        let qs = &scenario.queries;
        let regen = time_per_estimate(qs, |q| estimate_regenerating(s, q));
        let streaming = time_per_estimate(qs, |q| s.estimate(q));
        let batched_mat = {
            let estimator = s.estimator();
            time_per_estimate(qs, |q| estimator.estimate(q))
        };
        let batched_memo = {
            let mut matcher = s.streaming_matcher();
            time_per_estimate(qs, |q| matcher.estimate(q))
        };
        println!(
            "{}: {} queries | regen {:.0} ns | streaming {:.0} ns ({:.1}x) | \
             batched materialized {:.0} ns | \
             batched streaming+memo {:.0} ns ({:.2}x vs materialized)",
            scenario.name,
            qs.len(),
            regen,
            streaming,
            regen / streaming,
            batched_mat,
            batched_memo,
            batched_mat / batched_memo,
        );
        results.push((
            scenario.name.to_string(),
            qs.len(),
            regen,
            streaming,
            batched_mat,
            batched_memo,
        ));
    }
    if smoke() {
        println!("ESTIMATE_SMOKE set: skipping BENCH_estimate_throughput.json write");
    } else {
        write_baseline(&results);
    }
}

criterion_group!(benches, throughput_benches);
criterion_main!(benches);
