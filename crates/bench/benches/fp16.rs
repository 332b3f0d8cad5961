//! What the §III-C FP16 wire costs the *host*: `Rank::all_reduce`
//! through real rank threads under `Wire::F16` and `Wire::F32`, at the
//! three ALLREDUCE shapes the `e2e` workloads issue. The paper's caveat
//! is that cast overhead limits what compression buys; here the cast is
//! `simgpu::quantize_f16` inside the rendezvous leader's reduction, so
//! the F16 − F32 difference at one shape is what the step pays for it.
//!
//! Each line is followed by ms per call and ns per *element-hop*: an
//! `n`-element reduction over `G` ranks touches every element `G` times
//! (rank 0's copy and `G − 1` adds; under F16 `G − 1` hop casts and the
//! final wire quantisation), so ns per element-hop is time / (`n`·`G`).
//! A call includes each rank's copy into its slot, the copy of the
//! result back out and a refresh of the payload (the reduction is in
//! place) — the F32 rows are the floor those set.
//!
//! The scalar converters `f32_to_f16_bits` / `f16_bits_to_f32` — the
//! readable reference and the producers of real `u16` wire bits for
//! `all_gather_f16_into` — are timed over a slice for reference, next to
//! the fused round trip.
//!
//! Run pinned to one CPU (`taskset -c 1 cargo bench -p zlm-bench --bench
//! fp16`), as `e2e` measures: the ranks then take turns on the core and
//! wall time is the sum of their work.

use criterion::{criterion_group, criterion_main, Criterion};
use simgpu::{f16_bits_to_f32, f32_to_f16_bits, quantize_f16, CommGroup, Topology, Wire};
use std::time::{Duration, Instant};

/// `(what, G, n)`: the FP16 ALLREDUCEs of the `e2e` workloads.
const SHAPES: &[(&str, usize, usize)] = &[
    ("word_exchange_full_g8 Ug·D", 8, 527_000),
    ("word_compute_g2 dense", 2, 345_152),
    ("word_exchange_*_g8 dense", 8, 8_312),
];

/// Gradient-like payload: both signs, most values small — after `·512`
/// about one in twenty lands in binary16's subnormal range, the largest
/// near 0.6.
fn payload(rank: usize, n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let x = ((i * 31 + rank * 17) % 1009) as f32 / 1009.0 - 0.5;
            x * x * x * 1e-2
        })
        .collect()
}

/// `iters` ALLREDUCEs on persistent rank threads; the slowest rank's
/// loop time.
fn all_reduce_loop(world: usize, n: usize, wire: Wire<'static>, iters: u64) -> Duration {
    let times = simgpu::run_ranks(CommGroup::create(world), |rank| {
        let src = payload(rank.rank(), n);
        let mut data = src.clone();
        let mut call = || {
            data.copy_from_slice(&src);
            rank.all_reduce(&mut data, wire, Topology::Flat).unwrap();
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

/// Times `run(iters)` under `id`, then prints ms per call and ns per
/// each of `units` units of work a call does.
fn time(
    c: &mut Criterion,
    id: &str,
    unit: &str,
    units: usize,
    mut run: impl FnMut(u64) -> Duration,
) {
    let mut secs_per_call = 0.0;
    c.bench_function(id, |bench| {
        bench.iter_custom(|iters| {
            let dt = run(iters);
            secs_per_call = dt.as_secs_f64() / iters as f64;
            dt
        })
    });
    println!(
        "{:<40} {:.3} ms/call  {:.2} ns/{unit}",
        "",
        secs_per_call * 1e3,
        secs_per_call * 1e9 / units as f64
    );
}

fn bench_all_reduce(c: &mut Criterion) {
    for &(what, world, n) in SHAPES {
        println!("# {what}: G {world} x {n}");
        for (name, wire) in [("f16", Wire::F16 { scale: 512.0 }), ("f32", Wire::F32)] {
            let id = format!("all_reduce_{name}/g{world}_n{n}");
            time(c, &id, "element-hop", n * world, |iters| {
                all_reduce_loop(world, n, wire, iters)
            });
        }
    }
}

/// `iters` runs of `pass`, timed together.
fn repeat(iters: u64, mut pass: impl FnMut()) -> Duration {
    let t0 = Instant::now();
    for _ in 0..iters {
        pass();
    }
    t0.elapsed()
}

fn bench_converters(c: &mut Criterion) {
    let n = SHAPES[0].2;
    println!("# converters over a slice: n {n}");
    let xs: Vec<f32> = payload(0, n).iter().map(|x| x * 512.0).collect();
    let mut wire = vec![0u16; n];
    let mut out = vec![0.0f32; n];
    time(c, "f32_to_f16_bits/slice", "element", n, |iters| {
        repeat(iters, || {
            for (w, &x) in wire.iter_mut().zip(&xs) {
                *w = f32_to_f16_bits(x);
            }
            std::hint::black_box(&mut wire);
        })
    });
    time(c, "f16_bits_to_f32/slice", "element", n, |iters| {
        repeat(iters, || {
            for (o, &w) in out.iter_mut().zip(&wire) {
                *o = f16_bits_to_f32(w);
            }
            std::hint::black_box(&mut out);
        })
    });
    time(c, "quantize_f16/slice", "element", n, |iters| {
        repeat(iters, || {
            for (o, &x) in out.iter_mut().zip(&xs) {
                *o = quantize_f16(x);
            }
            std::hint::black_box(&mut out);
        })
    });
}

criterion_group!(benches, bench_all_reduce, bench_converters);
criterion_main!(benches);
