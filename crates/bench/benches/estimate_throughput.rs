//! Estimate-throughput bench: the two ways callers reach the streaming
//! matcher — a one-off `XseedSynopsis::estimate()` per query, and one
//! `SynopsisSnapshot::matcher()` reused across the workload.
//!
//! Both estimate by expression, so every estimate compiles its query and
//! replays the snapshot's frontier memo; the reused matcher also keeps
//! its scratch buffers warm. Served repeats (`estimate_plan` through the
//! snapshot's compiled-query cache) read a stored answer instead, so
//! these rows are the in-process record of compile plus replay. This bench measures estimates/sec for
//! both on an XMark workload and a recursive Treebank-style workload,
//! and records the results (with the CPU count) in
//! `BENCH_estimate_throughput.json` at the workspace root.
//!
//! Set `ESTIMATE_SMOKE=1` to run a single pass per measurement and skip
//! the JSON write (the CI smoke mode keeping both measured paths
//! compiling and exercised).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datagen::{Dataset, WorkloadGenerator, WorkloadSpec};
use std::time::Instant;
use xpathkit::ast::PathExpr;
use xseed_bench::report::json_throughput_entry;
use xseed_core::{XseedConfig, XseedSynopsis};

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

fn write_baseline(results: &[(String, usize, f64, f64)]) {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut body = format!(
        "{{\n  \"bench\": \"estimate_throughput\",\n  \"cpus_available\": {cpus},\n  \"datasets\": {{\n"
    );
    for (i, (name, queries, one_shot, reused)) in results.iter().enumerate() {
        body.push_str(&format!(
            "    \"{name}\": {{\n      \"queries\": {queries},\n      \
             \"one_shot_streaming\": {},\n      \
             \"batched_streaming_memo\": {}\n    }}{}\n",
            json_throughput_entry(*one_shot),
            json_throughput_entry(*reused),
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
        let one_shot = time_per_estimate(qs, |q| s.estimate(q));
        let reused = {
            let snapshot = s.snapshot();
            let mut matcher = snapshot.matcher();
            time_per_estimate(qs, |q| matcher.estimate(q))
        };
        println!(
            "{}: {} queries | one-shot {:.0} ns | reused matcher {:.0} ns",
            scenario.name,
            qs.len(),
            one_shot,
            reused,
        );
        results.push((scenario.name.to_string(), qs.len(), one_shot, reused));
    }
    if smoke() {
        println!("ESTIMATE_SMOKE set: skipping BENCH_estimate_throughput.json write");
    } else {
        write_baseline(&results);
    }
}

criterion_group!(benches, throughput_benches);
criterion_main!(benches);
