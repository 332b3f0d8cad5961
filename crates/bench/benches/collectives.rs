//! Benchmarks the simulated collectives: ring ALLREDUCE (f32 / f16 wire)
//! and ALLGATHER across group sizes and payloads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use simgpu::{CommGroup, Topology, Wire};

fn run_allreduce(world: usize, n: usize, wire: Wire<'static>, topology: Topology) {
    let ranks = CommGroup::create(world);
    std::thread::scope(|s| {
        for rank in ranks {
            s.spawn(move || {
                let mut data = vec![rank.rank() as f32; n];
                rank.all_reduce(&mut data, wire, topology).unwrap();
            });
        }
    });
}

fn run_allgather(world: usize, n: usize) {
    let ranks = CommGroup::create(world);
    std::thread::scope(|s| {
        for rank in ranks {
            s.spawn(move || {
                let local = vec![rank.rank() as f32; n];
                rank.all_gather_f32_into(&local, &mut Vec::new()).unwrap();
            });
        }
    });
}

fn bench_allreduce(c: &mut Criterion) {
    let mut group = c.benchmark_group("ring_allreduce");
    for &n in &[1usize << 12, 1 << 16] {
        group.throughput(Throughput::Bytes((n * 4) as u64));
        for world in [2usize, 4, 8] {
            group.bench_with_input(
                BenchmarkId::new(format!("f32_{n}"), world),
                &world,
                |b, &w| b.iter(|| run_allreduce(w, n, Wire::F32, Topology::Flat)),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("f16_{n}"), world),
                &world,
                |b, &w| b.iter(|| run_allreduce(w, n, Wire::F16 { scale: 512.0 }, Topology::Flat)),
            );
        }
    }
    group.finish();
}

/// Ablation: flat ring vs node-hierarchical ALLREDUCE schedules at the
/// same payload — the schedule choice Table II's two-tier fabric makes
/// interesting.
fn bench_hierarchy_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("allreduce_schedule");
    let n = 1usize << 14;
    group.throughput(Throughput::Bytes((n * 4) as u64));
    for world in [4usize, 8] {
        group.bench_with_input(BenchmarkId::new("flat_ring", world), &world, |b, &w| {
            b.iter(|| run_allreduce(w, n, Wire::F32, Topology::Flat))
        });
        group.bench_with_input(
            BenchmarkId::new("hierarchical_2pernode", world),
            &world,
            |b, &w| {
                b.iter(|| run_allreduce(w, n, Wire::F32, Topology::TwoTier { gpus_per_node: 2 }))
            },
        );
    }
    group.finish();
}

fn bench_allgather(c: &mut Criterion) {
    let mut group = c.benchmark_group("allgather");
    let n = 1usize << 14;
    group.throughput(Throughput::Bytes((n * 4) as u64));
    for world in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(world), &world, |b, &w| {
            b.iter(|| run_allgather(w, n))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_allreduce,
    bench_allgather,
    bench_hierarchy_ablation
);
criterion_main!(benches);
