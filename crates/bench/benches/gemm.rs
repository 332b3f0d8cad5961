//! Times `tensor::Matrix`'s three products at the GEMM shapes of the
//! four `e2e` workloads and prints GFLOP/s beside each time. The model
//! step is GEMM-bound (§V, Table II), so this is the number to read
//! before and after touching `tensor::matrix`.
//!
//! Run pinned to one CPU (`taskset -c 1 cargo bench -p zlm-bench --bench
//! gemm`): the kernel is sequential, and `e2e` measures it the same way.

use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use tensor::{init, Matrix};

/// `(m, k, n)` of `C[m×n] = Σ_k`, named by the workload that issues it.
const SHAPES: &[(&str, usize, usize, usize)] = &[
    ("word_compute x·Wx", 16, 64, 1024),
    ("word_compute dz·Whᵀ", 16, 1024, 256),
    ("word_exchange x·Wx", 512, 512, 16),
    ("word_exchange dz·Whᵀ", 512, 16, 4),
    ("char_weak s·R", 1, 48, 48),
    ("word_compute eval h·Eᵀ", 320, 64, 4000),
];

/// Times `product` under `id` and prints its GFLOP/s for `flops` per call.
fn time(group: &mut BenchmarkGroup<'_>, id: &str, flops: f64, product: impl Fn() -> Matrix) {
    let mut secs_per_call = 0.0;
    group.bench_function(id, |bench| {
        bench.iter_custom(|iters| {
            let t0 = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(product());
            }
            let dt = t0.elapsed();
            secs_per_call = dt.as_secs_f64() / iters as f64;
            dt
        })
    });
    println!("{:<40} {:.2} GFLOP/s", "", flops / secs_per_call / 1e9);
}

fn bench_gemm(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let mut group = c.benchmark_group("gemm");
    for &(what, m, k, n) in SHAPES {
        println!("# {what}");
        let a = init::uniform(&mut rng, m, k, 0.1);
        let b = init::uniform(&mut rng, k, n, 0.1);
        // The same logical product through each entry point.
        let (at, bt) = (a.transpose(), b.transpose());
        let flops = 2.0 * (m * k * n) as f64;
        let shape = format!("{m}x{k}x{n}");
        time(&mut group, &format!("matmul/{shape}"), flops, || {
            a.matmul(&b)
        });
        time(
            &mut group,
            &format!("matmul_transpose_b/{shape}"),
            flops,
            || a.matmul_transpose_b(&bt),
        );
        time(
            &mut group,
            &format!("transpose_a_matmul/{shape}"),
            flops,
            || at.transpose_a_matmul(&b),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_gemm);
criterion_main!(benches);
