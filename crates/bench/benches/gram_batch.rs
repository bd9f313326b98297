//! Criterion benchmarks of the batched multi-bootstrap Gram engine
//! (`uoi_linalg::gram`): the batched one-pass kernel against (a) the
//! per-bootstrap weighted-SYRK loop it replaces and (b) the materialise-
//! then-SYRK baseline the zero-copy path already beat. Shapes follow the
//! fig2 (LASSO single node, tall n x p) and fig7 (VAR, square-ish dp)
//! pipeline workloads, plus the full fig2 Gram once per ISA instantiation
//! of the tile sweep (`uoi_linalg::simd`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use uoi_linalg::gram::gram_rhs_batch_with_isa;
use uoi_linalg::simd::Isa;
use uoi_linalg::{syrk_t_weighted, syrk_t_weighted_batch, Matrix};

fn matrix(n: usize, p: usize, seed: usize) -> Matrix {
    Matrix::from_fn(n, p, |i, j| {
        (((i * 31 + j * 17 + seed) % 1009) as f64 - 504.0) / 504.0
    })
}

/// Bootstrap-style multiplicity weights: roughly 1/e zeros, integer mass.
fn weights(n: usize, seed: u64) -> Vec<f64> {
    let mut w = vec![0.0f64; n];
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for _ in 0..n {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        w[(state % n as u64) as usize] += 1.0;
    }
    w
}

fn bench_gram_batch(c: &mut Criterion) {
    // (label, n, p): fig2 solves tall blocks per rank; fig7's VAR
    // vectorisation works on the dp-wide lag regression.
    let shapes = [("fig2_block", 512usize, 256usize), ("fig7_var", 384, 128)];
    const B: usize = 5; // the paper's B1 = B2 = 5 pipeline setting
    for (label, n, p) in shapes {
        let a = matrix(n, p, 7);
        let ws: Vec<Vec<f64>> = (0..B).map(|k| weights(n, 1 + k as u64)).collect();
        let wrefs: Vec<&[f64]> = ws.iter().map(|w| w.as_slice()).collect();
        let mut g = c.benchmark_group(format!("gram_batch/{label}"));
        g.throughput(Throughput::Elements((B * n * p * p) as u64));
        g.bench_with_input(BenchmarkId::new("batched", B), &B, |bench, _| {
            bench.iter(|| syrk_t_weighted_batch(black_box(&a), black_box(&wrefs)))
        });
        g.bench_with_input(BenchmarkId::new("per_bootstrap_loop", B), &B, |bench, _| {
            bench.iter(|| {
                wrefs
                    .iter()
                    .map(|w| syrk_t_weighted(black_box(&a), w))
                    .collect::<Vec<_>>()
            })
        });
        g.bench_with_input(BenchmarkId::new("materialized", B), &B, |bench, _| {
            bench.iter(|| {
                ws.iter()
                    .map(|w| {
                        // Gather the resample physically (row copies with
                        // multiplicity), then build the plain Gram — the
                        // pre-zero-copy reference cost.
                        let rows: Vec<usize> = w
                            .iter()
                            .enumerate()
                            .flat_map(|(i, &c)| std::iter::repeat_n(i, c as usize))
                            .collect();
                        let xb = black_box(&a).gather_rows(&rows);
                        uoi_linalg::syrk_t(&xb)
                    })
                    .collect::<Vec<_>>()
            })
        });
        g.finish();
    }
}

/// The fig2 Gram (4096 x 512, B = 5, one thread) with the tile sweep
/// compiled for each ISA the host supports; every case is bit-identical.
fn bench_gram_isa(c: &mut Criterion) {
    const B: usize = 5;
    let (n, p) = (4096usize, 512usize);
    let a = matrix(n, p, 7);
    let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
    let ws: Vec<Vec<f64>> = (0..B).map(|k| weights(n, 1 + k as u64)).collect();
    let wrefs: Vec<&[f64]> = ws.iter().map(|w| w.as_slice()).collect();
    let mut g = c.benchmark_group("gram_batch/fig2_isa");
    g.sample_size(10);
    g.throughput(Throughput::Elements((B * n * p * p) as u64));
    for isa in Isa::supported() {
        g.bench_with_input(BenchmarkId::new(isa.name(), B), &B, |bench, _| {
            bench.iter(|| gram_rhs_batch_with_isa(isa, black_box(&a), &y, black_box(&wrefs)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_gram_batch, bench_gram_isa);
criterion_main!(benches);
