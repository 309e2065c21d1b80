//! Figure 5 bench: estimation errors per query type (SP/BP/CP) on DBLP,
//! and the estimation cost per query class.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datagen::Dataset;
use std::hint::black_box;
use xpathkit::classify::QueryClass;
use xseed_bench::experiments::{fig5, quick_workload};
use xseed_bench::harness::{build_xseed_with_het, PreparedDataset};

const BENCH_SCALE: f64 = 0.1;

fn fig5_benches(c: &mut Criterion) {
    let workload = quick_workload();
    let rows = fig5::run(Dataset::Dblp, BENCH_SCALE, &workload);
    println!("\n{}", fig5::render(Dataset::Dblp, &rows));

    let prepared = PreparedDataset::prepare(Dataset::Dblp, BENCH_SCALE, &workload, 11);
    let (xseed, _) = build_xseed_with_het(&prepared, Some(fig5::BUDGET), 1);
    let snapshot = xseed.value.snapshot();

    let mut group = c.benchmark_group("fig5_estimation_by_class");
    group.sample_size(20);
    for class in [
        QueryClass::SimplePath,
        QueryClass::BranchingPath,
        QueryClass::ComplexPath,
    ] {
        let queries: Vec<_> = prepared
            .ground_truth
            .iter()
            .filter(|(_, _, c)| *c == class)
            .map(|(q, _, _)| q.clone())
            .collect();
        group.bench_with_input(
            BenchmarkId::new("xseed_het", class.to_string()),
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
    }
    group.finish();
}

criterion_group!(benches, fig5_benches);
criterion_main!(benches);
