//! Benchmarks the Figure 1 substrate: alias-method Zipf sampling and
//! type–token curve measurement.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use zipf::heaps::log_checkpoints;
use zipf::{heaps_curve_from_sampler, AliasTable, ZipfMandelbrot};

fn bench_alias(c: &mut Criterion) {
    let mut group = c.benchmark_group("alias_sampling");
    for &v in &[1_000usize, 100_000, 2_000_000] {
        let weights: Vec<f64> = (0..v).map(|r| 1.0 / (r + 1) as f64).collect();
        group.bench_with_input(BenchmarkId::new("build", v), &weights, |b, w| {
            b.iter(|| AliasTable::new(w.clone()))
        });
        let table = AliasTable::new(weights);
        let mut rng = StdRng::seed_from_u64(1);
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::new("draw", v), &table, |b, t| {
            b.iter(|| t.sample(&mut rng))
        });
    }
    group.finish();
}

fn bench_heaps_curve(c: &mut Criterion) {
    let dist = ZipfMandelbrot::new(500_000, 1.5625, 3.5);
    let cps = log_checkpoints(500, 200_000, 4);
    c.bench_function("heaps_curve_200k_tokens", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| heaps_curve_from_sampler(&mut rng, 500_000, &cps, |r| dist.sample(r)))
    });
}

criterion_group!(benches, bench_alias, bench_heaps_curve);
criterion_main!(benches);
