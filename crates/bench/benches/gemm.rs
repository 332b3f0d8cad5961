//! Times `tensor::Matrix`'s products at the GEMM shapes of the four
//! `e2e` workloads and prints GFLOP/s beside each time. The model step
//! is GEMM-bound (§V, Table II), so this is the number to read before
//! and after touching `tensor::matrix`.
//!
//! The first line printed is the tile width the kernel selected on this
//! host (`tensor::matrix::kernel_width`): the same binary runs a 2×16,
//! 4×16 or 16×16 tile depending on what the CPU reports, so a number
//! without its width says little. Both recurrences issue their
//! per-step products in place — the word LM's LSTM `Z[t] += h·Wh`
//! against a `Wh` packed once per sequence, `dWh += hᵀ·dz` and
//! `dWx += x_tᵀ·dz_t` with an accumulate store, the char LM's RHN `s·R_l`
//! and `dR_l += sᵀ·dz` per micro-layer the same way — so those shapes are
//! timed that way too, next to the allocating call.
//!
//! At word_exchange's shape (B 512, T 4, D 512, H 4) the three
//! input-side products — `x·Wx`, `dWx += x_tᵀ·dz_t` and `dz·Wxᵀ`, each
//! `K·D·4H` = 16.8 M multiply-adds per rank — are the largest in the
//! step, 128× the recurrence's. `nn` issues the first and the last over
//! 64-row blocks, `x` gathered from the embedding table into a reused
//! block and `Wx` / `Wxᵀ` packed once per weight update, and the middle
//! per timestep from one reused, gathered `B×D` block; the "blocks"
//! rows time them that way.
//!
//! The `AddRuns` rows time the word LM's two run-wise accumulating
//! products — the sampled softmax's `dh += D·C` (`320×256×64`, run 1) and
//! the LSTM's `dWh += Hᵀ·DZ` over all timesteps (`256×320×1024`, run
//! `B = 16`) — at every width this CPU runs, beside `Add` over the same
//! operands.
//!
//! The last rows time the gate nonlinearities at the blocks the layers
//! hand them, one call per step (LSTM) or per `(t, l)` (RHN): the
//! sigmoid over a step's `B×4H` gate block, `tanh` over its `B×H` `g`
//! and cell blocks. Each prints ns per element for libm's scalar calls
//! (`f32::tanh`, `1/(1+exp(−x))`) and for `tensor::ops`' lane-wise
//! kernel at every width this CPU runs, on N(0, 1.7²) inputs; all of
//! them compute the same bits.
//!
//! Run pinned to one CPU (`taskset -c 1 cargo bench -p zlm-bench --bench
//! gemm`): the kernel is sequential, and `e2e` measures it the same way.

use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use tensor::matrix::for_each_width;
use tensor::ops::{sigmoid_in_place, tanh_in_place};
use tensor::{init, Matrix, PackedB, Rhs, Store};

/// `(m, k, n)` of `C[m×n] = Σ_k`, named by the workload that issues it.
const SHAPES: &[(&str, usize, usize, usize)] = &[
    ("word_compute x·Wx (one step)", 16, 64, 1024),
    ("word_compute dz·Whᵀ", 16, 1024, 256),
    ("word_exchange x·Wx", 512, 512, 16),
    ("word_exchange dz·Whᵀ", 512, 16, 4),
    ("word_compute eval h·Eᵀ", 320, 64, 4000),
    ("word_compute X·Wx (all steps)", 320, 64, 1024),
    ("word_compute DZ·Wxᵀ (all steps)", 320, 1024, 64),
    ("word_exchange DZ·Wxᵀ (all steps)", 2048, 16, 512),
];

/// The per-step products of the two recurrences, also timed through
/// `Matrix::gemm_rows` as `nn::lstm` and `nn::rhn` issue them.
const RECURRENT: &[(&str, usize, usize, usize)] = &[
    ("word_compute h·Wh", 16, 256, 1024),
    ("word_compute hᵀ·dz", 256, 16, 1024),
    ("word_exchange x_tᵀ·dz", 512, 512, 16),
    ("char_weak s·R", 1, 48, 48),
    ("char_weak sᵀ·dz", 48, 1, 48),
];

/// `(what, m, k, n, run, A stored transposed)`: the word LM's two
/// products under `Store::AddRuns`, `C += ` one sum per run of `p` in
/// order. The sampled softmax's `dh += D·C` adds each candidate's term on
/// its own (run 1, `D` the `n×S` candidate gradients, `C` the `S×P`
/// candidate rows); the LSTM's `dWh += Hᵀ·DZ` adds one `B`-long run per
/// timestep (run 16, both `T·B`-row operands in descending `t`).
const RUNS: &[(&str, usize, usize, usize, usize, bool)] = &[
    ("word_compute sampled-softmax dh", 320, 256, 64, 1, false),
    ("word_compute dWh", 256, 320, 1024, 16, true),
];

/// Rows of an input block, as `nn::BLOCK_ROWS`.
const BLOCK: usize = 64;

/// A gate nonlinearity over a block: its name, libm's scalar calls,
/// `tensor`'s kernel.
type Gate = (&'static str, fn(&mut [f32]), fn(&mut [f32]));

const TANH: Gate = (
    "tanh",
    |v| v.iter_mut().for_each(|x| *x = x.tanh()),
    tanh_in_place,
);
const SIGMOID: Gate = (
    "sigmoid",
    |v| v.iter_mut().for_each(|x| *x = 1.0 / (1.0 + (-*x).exp())),
    sigmoid_in_place,
);

/// `(what, gate, rows, cols)`: the block one kernel call takes.
const GATES: &[(&str, Gate, usize, usize)] = &[
    ("word_compute i f g o", SIGMOID, 16, 1024),
    ("word_compute g, cell", TANH, 16, 256),
    ("word_exchange i f g o", SIGMOID, 512, 16),
    ("word_exchange g, cell", TANH, 512, 4),
    ("char_weak t_l", SIGMOID, 1, 48),
    ("char_weak h_l", TANH, 1, 48),
];

/// Times `call` under `id` and prints its GFLOP/s for `flops` per call.
fn time<T>(group: &mut BenchmarkGroup<'_>, id: &str, flops: f64, call: impl FnMut() -> T) {
    let secs_per_call = secs_per_call(group, id, call);
    println!("{:<40} {:.2} GFLOP/s", "", flops / secs_per_call / 1e9);
}

/// Times `call` under `id`; returns seconds per call.
fn secs_per_call<T>(group: &mut BenchmarkGroup<'_>, id: &str, mut call: impl FnMut() -> T) -> f64 {
    let mut secs_per_call = 0.0;
    group.bench_function(id, |bench| {
        bench.iter_custom(|iters| {
            let t0 = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(call());
            }
            let dt = t0.elapsed();
            secs_per_call = dt.as_secs_f64() / iters as f64;
            dt
        })
    });
    secs_per_call
}

/// The same logical `m×k×n` product through each allocating entry point.
fn time_products(group: &mut BenchmarkGroup<'_>, a: &Matrix, b: &Matrix) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let (at, bt) = (a.transpose(), b.transpose());
    let flops = 2.0 * (m * k * n) as f64;
    let shape = format!("{m}x{k}x{n}");
    time(group, &format!("matmul/{shape}"), flops, || a.matmul(b));
    time(group, &format!("matmul_transpose_b/{shape}"), flops, || {
        a.matmul_transpose_b(&bt)
    });
    time(group, &format!("transpose_a_matmul/{shape}"), flops, || {
        at.transpose_a_matmul(b)
    });
}

fn bench_gemm(c: &mut Criterion) {
    println!("# kernel width: {}", tensor::matrix::kernel_width());
    let mut rng = StdRng::seed_from_u64(7);
    let mut group = c.benchmark_group("gemm");
    for &(what, m, k, n) in SHAPES.iter().chain(RECURRENT) {
        println!("# {what}");
        let a = init::uniform(&mut rng, m, k, 0.1);
        let b = init::uniform(&mut rng, k, n, 0.1);
        time_products(&mut group, &a, &b);
    }
    for &(what, m, k, n) in RECURRENT {
        println!("# {what}, in place");
        // `A` and `C` are one timestep's rows of t-major matrices four
        // steps long, as in the layer; `A` is stored transposed where the
        // layer reads it transposed (`hᵀ`, `sᵀ`, `x_tᵀ`: m ≥ k).
        let step = 2;
        let transposed = m >= k;
        let (a_rows, a_cols) = if transposed { (k, m) } else { (m, k) };
        let a_all = init::uniform(&mut rng, 4 * a_rows, a_cols, 0.1);
        let a = a_all.rows_view(step * a_rows..(step + 1) * a_rows);
        let a = if transposed { a.t() } else { a };
        let b = init::uniform(&mut rng, k, n, 0.1);
        let packed = PackedB::new(b.view());
        let mut c_all = Matrix::zeros(4 * m, n);
        let rows = step * m..(step + 1) * m;
        let flops = 2.0 * (m * k * n) as f64;
        let shape = format!("{m}x{k}x{n}");
        time(&mut group, &format!("gemm_rows_set/{shape}"), flops, || {
            c_all.gemm_rows(rows.clone(), a, Rhs::View(b.view()), Store::Set)
        });
        time(&mut group, &format!("gemm_rows_add/{shape}"), flops, || {
            c_all.gemm_rows(rows.clone(), a, Rhs::View(b.view()), Store::Add)
        });
        time(
            &mut group,
            &format!("gemm_rows_add_packed/{shape}"),
            flops,
            || c_all.gemm_rows(rows.clone(), a, Rhs::Packed(&packed), Store::Add),
        );
    }
    bench_blocks(&mut group, &mut rng);
    bench_runs(&mut group, &mut rng);
    bench_gates(&mut group, &mut rng);
    group.finish();
}

/// The `Store::AddRuns` products at every width this CPU runs, each
/// beside `Store::Add` over the same operands (one sum of all of `k`).
fn bench_runs(group: &mut BenchmarkGroup<'_>, rng: &mut StdRng) {
    for &(what, m, k, n, run, transposed) in RUNS {
        println!("# {what}, run {run}");
        let a_stored = if transposed {
            init::uniform(rng, k, m, 0.1)
        } else {
            init::uniform(rng, m, k, 0.1)
        };
        let a = if transposed {
            a_stored.view().t()
        } else {
            a_stored.view()
        };
        let b = init::uniform(rng, k, n, 0.1);
        let mut c = Matrix::zeros(m, n);
        let flops = 2.0 * (m * k * n) as f64;
        let shape = format!("{m}x{k}x{n}");
        for_each_width(|width| {
            for (name, store) in [("add", Store::Add), ("add_runs", Store::AddRuns(run))] {
                time(
                    group,
                    &format!("gemm_rows_{name}/{shape} {width}"),
                    flops,
                    || c.gemm_rows(0..m, a, Rhs::View(b.view()), store),
                );
            }
        });
    }
}

/// ns per element of libm and of the kernel at every width, for each
/// gate block. Every call restores the block's inputs first.
fn bench_gates(group: &mut BenchmarkGroup<'_>, rng: &mut StdRng) {
    for &(what, (name, libm, kernel), rows, cols) in GATES {
        println!("# {what}: {name} over {rows}x{cols}");
        let n = rows * cols;
        // N(0, 1.7²) by Box–Muller.
        let xs: Vec<f32> = (0..n)
            .map(|_| {
                let (u, v): (f32, f32) = (rng.gen_range(f32::EPSILON..1.0), rng.gen());
                1.7 * (-2.0 * u.ln()).sqrt() * (std::f32::consts::TAU * v).cos()
            })
            .collect();
        let mut work = xs.clone();
        let mut report = |group: &mut BenchmarkGroup<'_>, id: String, run: &dyn Fn(&mut [f32])| {
            let secs = secs_per_call(group, &id, || {
                work.copy_from_slice(&xs);
                run(&mut work);
            });
            println!("{:<40} {:.2} ns/element", "", secs * 1e9 / n as f64);
        };
        report(group, format!("{name}/libm/{rows}x{cols}"), &libm);
        for_each_width(|width| {
            report(
                group,
                format!("{name}/kernel {width}/{rows}x{cols}"),
                &kernel,
            );
        });
    }
}

/// Rows `tokens` of `table` into the first rows of `block`.
fn gather(table: &Matrix, tokens: &[u32], block: &mut Matrix) {
    for (i, &t) in tokens.iter().enumerate() {
        block.row_mut(i).copy_from_slice(table.row(t as usize));
    }
}

/// The input-side products at word_exchange's shape as the LSTM issues
/// them: a gathered block of input rows times packed `Wx`, a block of
/// `dz` times packed `Wxᵀ` into a reused block, and one step's
/// `dWx += x_tᵀ·dz_t` from a gathered `B×D` block.
fn bench_blocks(group: &mut BenchmarkGroup<'_>, rng: &mut StdRng) {
    let (vocab, b, steps, d, n) = (20_000, 512, 4, 512, 16);
    let k = b * steps;
    let table = init::uniform(rng, vocab, d, 0.1);
    let tokens: Vec<u32> = (0..k).map(|i| (i * 7_919 % vocab) as u32).collect();
    let wx = init::uniform(rng, d, n, 0.1);
    let (wx_packed, wxt_packed) = (PackedB::new(wx.view()), PackedB::new(wx.view().t()));
    let dz = init::uniform(rng, k, n, 0.1);
    let rows = 2 * BLOCK..3 * BLOCK;
    let flops = 2.0 * (BLOCK * d * n) as f64;

    println!("# word_exchange x_blk·Wx, blocks");
    let mut block = Matrix::zeros(BLOCK, d);
    gather(&table, &tokens[rows.clone()], &mut block);
    let mut z = Matrix::zeros(k, n);
    let shape = format!("{BLOCK}x{d}x{n}");
    time(
        group,
        &format!("blocks/x_blk_wx_packed/{shape}"),
        flops,
        || {
            z.gemm_rows(
                rows.clone(),
                block.view(),
                Rhs::Packed(&wx_packed),
                Store::Set,
            )
        },
    );

    println!("# word_exchange dz_blk·Wxᵀ, blocks");
    let shape = format!("{BLOCK}x{n}x{d}");
    time(
        group,
        &format!("blocks/dz_blk_wxt_packed/{shape}"),
        flops,
        || {
            let dz_blk = dz.rows_view(rows.clone());
            block.gemm_rows(0..BLOCK, dz_blk, Rhs::Packed(&wxt_packed), Store::Set)
        },
    );

    println!("# word_exchange x_tᵀ·dz_t, gathered B×D");
    let step = 2 * b..3 * b;
    let mut x_t = Matrix::zeros(b, d);
    gather(&table, &tokens[step.clone()], &mut x_t);
    let mut dwx = Matrix::zeros(d, n);
    let flops = 2.0 * (b * d * n) as f64;
    let shape = format!("{d}x{b}x{n}");
    time(
        group,
        &format!("blocks/x_t_dz_t_gathered/{shape}"),
        flops,
        || {
            let dz_t = Rhs::View(dz.rows_view(step.clone()));
            dwx.gemm_rows(0..d, x_t.view().t(), dz_t, Store::Add)
        },
    );
}

criterion_group!(benches, bench_gemm);
criterion_main!(benches);
