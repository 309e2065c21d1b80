//! Table 3 bench: accuracy under memory budgets, plus the cost of
//! estimating the combined SP+BP+CP workload with each synopsis.
//!
//! The accuracy table itself (RMSE / NRMSE for the XSEED kernel, XSEED at
//! 25 KB and 50 KB, and TreeSketch at 25 KB and 50 KB) is printed once at
//! startup; Criterion then measures the per-workload estimation cost of
//! the 25 KB XSEED and TreeSketch synopses.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datagen::Dataset;
use std::hint::black_box;
use xseed_bench::experiments::{quick_workload, table3};
use xseed_bench::harness::{build_treesketch, build_xseed_with_het, PreparedDataset};

const BENCH_SCALE: f64 = 0.1;

fn accuracy_benches(c: &mut Criterion) {
    let workload = quick_workload();
    let rows = table3::run(BENCH_SCALE, &workload);
    println!("\n{}", table3::render(&rows));

    let mut group = c.benchmark_group("table3_workload_estimation");
    group.sample_size(10);
    for &dataset in &[Dataset::XMark10, Dataset::TreebankSmall] {
        let prepared = PreparedDataset::prepare(dataset, BENCH_SCALE, &workload, 7);
        let (xseed, _) = build_xseed_with_het(&prepared, Some(25 * 1024), 1);
        let snapshot = xseed.value.snapshot();
        let sketch = build_treesketch(&prepared, Some(25 * 1024)).value;
        let queries: Vec<_> = prepared
            .ground_truth
            .iter()
            .map(|(q, _, _)| q.clone())
            .collect();

        group.bench_with_input(
            BenchmarkId::new("xseed_25kb", dataset.paper_name()),
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
            BenchmarkId::new("treesketch_25kb", dataset.paper_name()),
            &queries,
            |b, queries| {
                b.iter(|| {
                    let mut total = 0.0;
                    for q in queries {
                        total += sketch.estimate(q);
                    }
                    black_box(total)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, accuracy_benches);
criterion_main!(benches);
