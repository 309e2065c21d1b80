//! Section 6.4 bench: cardinality-estimation time versus actual query
//! execution time.
//!
//! The headline claim of Section 6.4 is that estimation costs under 2% of
//! actual query execution. The summary table (EPT sizes and average time
//! ratios per dataset) is printed once; Criterion then measures the two
//! sides of the ratio — estimating a query on the synopsis versus
//! executing it exactly over the NoK storage — for a representative
//! dataset and query mix.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datagen::Dataset;
use std::hint::black_box;
use xseed_bench::experiments::{quick_workload, sec64};
use xseed_bench::harness::{build_xseed_with_het, PreparedDataset};

const BENCH_SCALE: f64 = 0.1;

fn sec64_benches(c: &mut Criterion) {
    let workload = quick_workload();
    let rows = sec64::run(
        &[Dataset::Dblp, Dataset::XMark10, Dataset::TreebankSmall],
        BENCH_SCALE,
        &workload,
    );
    println!("\n{}", sec64::render(&rows));

    let mut group = c.benchmark_group("sec64_estimate_vs_execute");
    group.sample_size(20);
    for &dataset in &[Dataset::XMark10, Dataset::TreebankSmall] {
        let prepared = PreparedDataset::prepare(dataset, BENCH_SCALE, &workload, 17);
        let (xseed, _) = build_xseed_with_het(&prepared, Some(50 * 1024), 1);
        let snapshot = xseed.value.snapshot();
        let evaluator = prepared.evaluator();
        // A representative mixed bag of queries.
        let queries: Vec<_> = prepared
            .ground_truth
            .iter()
            .take(30)
            .map(|(q, _, _)| q.clone())
            .collect();

        group.bench_with_input(
            BenchmarkId::new("estimate", dataset.paper_name()),
            &queries,
            |b, queries| {
                let mut matcher = snapshot.matcher();
                b.iter(|| {
                    let mut total = 0.0;
                    for q in queries {
                        total += matcher.estimate(q);
                    }
                    black_box(total)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("execute", dataset.paper_name()),
            &queries,
            |b, queries| {
                b.iter(|| {
                    let mut total = 0u64;
                    for q in queries {
                        total += evaluator.count(q);
                    }
                    black_box(total)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, sec64_benches);
criterion_main!(benches);
