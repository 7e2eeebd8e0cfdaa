//! Benchmark: the empirical competitive-ratio supremum scan — both
//! evaluation paths (analytic coverage vs. event simulation) across
//! representative `(n, f)` pairs.

use criterion::{criterion_group, criterion_main, Criterion};
use faultline_analysis::{measure_strategy_cr, measure_strategy_cr_sim};
use faultline_core::Params;
use faultline_strategies::PaperStrategy;
use std::hint::black_box;

fn bench_supremum(c: &mut Criterion) {
    let mut group = c.benchmark_group("supremum");
    let strategy = PaperStrategy::new();

    for &(n, f) in &[(2usize, 1usize), (3, 1), (5, 2), (11, 5)] {
        let params = Params::new(n, f).expect("params");
        group.bench_function(format!("coverage_path_n{n}_f{f}"), |b| {
            b.iter(|| black_box(measure_strategy_cr(&strategy, params, 30.0).expect("measure")));
        });
    }

    let params = Params::new(3, 1).expect("params");
    group.bench_function("sim_path_n3_f1", |b| {
        b.iter(|| {
            black_box(measure_strategy_cr_sim(&strategy, params, 30.0, 64).expect("measure"))
        });
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_supremum
}
criterion_main!(benches);
