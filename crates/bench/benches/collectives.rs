//! Benchmarks the simulated collectives: ring ALLREDUCE (f32 / f16 wire)
//! and ALLGATHER across group sizes and payloads. The ALLGATHER rows run
//! on persistent rank threads with one reused output buffer per rank, so
//! they time the collective (publish, two rendezvous, `G` reads), not
//! thread spawns and the allocator; the last two are the baseline
//! exchange's row gather at the `e2e` workload shape, materialised
//! (`_into`) and visited in place.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use simgpu::{CommGroup, Topology, Wire};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn run_allreduce(world: usize, gpn: usize, n: usize, wire: Wire<'static>, topology: Topology) {
    let ranks = CommGroup::create_full(world, gpn, 0, None);
    std::thread::scope(|s| {
        for rank in ranks {
            s.spawn(move || {
                let mut data = vec![rank.rank() as f32; n];
                rank.all_reduce(&mut data, wire, topology).unwrap();
            });
        }
    });
}

/// `iters` f32 row ALLGATHERs of `n` elements per rank on persistent
/// rank threads; the slowest rank's loop time. `visiting` reads each
/// sender's payload once where it lies (a wrapping checksum of the bits
/// stands in for the consumer: one vectorisable read of every element);
/// otherwise the payloads are concatenated into a buffer the
/// rank reuses across calls.
fn all_gather_loop(world: usize, n: usize, visiting: bool, iters: u64) -> Duration {
    let times = simgpu::run_ranks(CommGroup::create(world), |rank| {
        let local = vec![rank.rank() as f32; n];
        let mut out = Vec::new();
        let mut call = || {
            if visiting {
                let mut sum = 0u32;
                rank.all_gather_f32_visit(&local, |_, rows| {
                    sum = rows.iter().fold(sum, |a, x| a.wrapping_add(x.to_bits()));
                    Ok(())
                })
                .unwrap();
                black_box(sum);
            } else {
                rank.all_gather_f32_into(&local, &mut out).unwrap();
                black_box(&out);
            }
        };
        call();
        rank.barrier().unwrap();
        let t0 = Instant::now();
        for _ in 0..iters {
            call();
        }
        rank.barrier().unwrap();
        t0.elapsed()
    });
    times.into_iter().max().unwrap_or_default()
}

fn bench_allreduce(c: &mut Criterion) {
    let mut group = c.benchmark_group("ring_allreduce");
    for &n in &[1usize << 12, 1 << 16] {
        group.throughput(Throughput::Bytes((n * 4) as u64));
        for world in [2usize, 4, 8] {
            group.bench_with_input(
                BenchmarkId::new(format!("f32_{n}"), world),
                &world,
                |b, &w| b.iter(|| run_allreduce(w, w, n, Wire::F32, Topology::Flat)),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("f16_{n}"), world),
                &world,
                |b, &w| {
                    b.iter(|| run_allreduce(w, w, n, Wire::F16 { scale: 512.0 }, Topology::Flat))
                },
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
            b.iter(|| run_allreduce(w, w, n, Wire::F32, Topology::Flat))
        });
        group.bench_with_input(
            BenchmarkId::new("hierarchical_2pernode", world),
            &world,
            |b, &w| b.iter(|| run_allreduce(w, 2, n, Wire::F32, Topology::TwoTier)),
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
            b.iter_custom(|iters| all_gather_loop(w, n, false, iters))
        });
    }
    // `word_exchange_baseline_g8`'s row gather: G 8 × K 2048 × D 512.
    let (world, n) = (8, 2048 * 512);
    group.throughput(Throughput::Bytes((n * 4) as u64));
    for (name, visiting) in [("into_k2048_d512", false), ("visit_k2048_d512", true)] {
        group.bench_with_input(BenchmarkId::new(name, world), &world, |b, &w| {
            b.iter_custom(|iters| all_gather_loop(w, n, visiting, iters))
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
