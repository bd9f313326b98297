//! Criterion microbenchmarks of the linear-algebra kernels the solvers
//! are built on — the operations the paper's roofline analysis profiles
//! (gemm / gemv / Cholesky / sparse Kronecker products).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use uoi_data::{VarConfig, VarProcess};
use uoi_linalg::simd::Isa;
use uoi_linalg::{gemm, gemv, gemv_t, kernels, syrk_t, Cholesky, CsrMatrix, IdentityKron, Matrix};
use uoi_solvers::{geometric_grid, AdmmConfig, LassoAdmm, PathSchedule};

fn matrix(n: usize, p: usize, seed: usize) -> Matrix {
    Matrix::from_fn(n, p, |i, j| {
        (((i * 31 + j * 17 + seed) % 1009) as f64 - 504.0) / 504.0
    })
}

fn bench_gemm(c: &mut Criterion) {
    let mut g = c.benchmark_group("gemm");
    for &n in &[64usize, 128, 256] {
        let a = matrix(n, n, 1);
        let b = matrix(n, n, 2);
        g.throughput(Throughput::Elements((2 * n * n * n) as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| gemm(black_box(&a), black_box(&b)))
        });
    }
    g.finish();
}

fn bench_gemv(c: &mut Criterion) {
    let mut g = c.benchmark_group("gemv");
    for &(n, p) in &[(256usize, 1024usize), (1024, 256), (2048, 2048)] {
        let a = matrix(n, p, 3);
        let x: Vec<f64> = (0..p).map(|i| (i as f64 * 0.37).sin()).collect();
        let xt: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).cos()).collect();
        g.throughput(Throughput::Elements((2 * n * p) as u64));
        g.bench_with_input(BenchmarkId::new("Ax", format!("{n}x{p}")), &n, |b, _| {
            b.iter(|| gemv(black_box(&a), black_box(&x)))
        });
        g.bench_with_input(BenchmarkId::new("Atx", format!("{n}x{p}")), &n, |b, _| {
            b.iter(|| gemv_t(black_box(&a), black_box(&xt)))
        });
    }
    g.finish();
}

fn bench_cholesky(c: &mut Criterion) {
    let mut g = c.benchmark_group("cholesky");
    for &p in &[32usize, 64, 128] {
        let x = matrix(2 * p, p, 5);
        let mut gram = syrk_t(&x);
        for i in 0..p {
            gram[(i, i)] += 1.0;
        }
        g.bench_with_input(BenchmarkId::new("factor", p), &p, |b, _| {
            b.iter(|| Cholesky::factor(black_box(&gram)).unwrap())
        });
        let ch = Cholesky::factor(&gram).unwrap();
        let rhs: Vec<f64> = (0..p).map(|i| i as f64).collect();
        g.bench_with_input(BenchmarkId::new("solve", p), &p, |b, _| {
            b.iter(|| ch.solve(black_box(&rhs)))
        });
    }
    g.finish();
}

fn bench_sparse(c: &mut Criterion) {
    let mut g = c.benchmark_group("sparse");
    // The UoI_VAR block-diagonal structure: I_p ⊗ X with X (2p x p).
    for &p in &[32usize, 64] {
        let x = matrix(2 * p, p, 7);
        let op = IdentityKron::new(x.clone(), p);
        let explicit: CsrMatrix = op.explicit();
        let v: Vec<f64> = (0..p * p).map(|i| (i as f64 * 0.11).sin()).collect();
        g.bench_with_input(BenchmarkId::new("kron_spmv_explicit", p), &p, |b, _| {
            b.iter(|| explicit.spmv(black_box(&v)))
        });
        g.bench_with_input(BenchmarkId::new("kron_matvec_lazy", p), &p, |b, _| {
            b.iter(|| op.matvec(black_box(&v)))
        });
    }
    g.finish();
}

fn bench_inner_kernels(c: &mut Criterion) {
    // The ADMM inner-loop primitives from `uoi_linalg::kernels`: these are
    // the hot loops the `admm_local` phase spends its modeled time in.
    let mut g = c.benchmark_group("inner_kernels");
    for &n in &[256usize, 4096] {
        let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.53).cos()).collect();
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("dot", n), &n, |bench, _| {
            bench.iter(|| kernels::dot(black_box(&a), black_box(&b)))
        });
        g.bench_with_input(BenchmarkId::new("axpy", n), &n, |bench, _| {
            let mut y = b.clone();
            bench.iter(|| kernels::axpy(black_box(1.7), black_box(&a), black_box(&mut y)))
        });
        g.bench_with_input(BenchmarkId::new("soft_threshold", n), &n, |bench, _| {
            let mut out = vec![0.0; n];
            bench.iter(|| kernels::soft_threshold(black_box(&a), black_box(0.4), &mut out))
        });
    }
    g.finish();
}

fn bench_symv(c: &mut Criterion) {
    // Blocked symmetric matvec of the x-update vs the general gemv it
    // replaces — the win is halved memory traffic on the Gram matrix.
    let mut g = c.benchmark_group("symv");
    for &p in &[128usize, 512] {
        let x = matrix(2 * p, p, 9);
        let gram = syrk_t(&x);
        let v: Vec<f64> = (0..p).map(|i| (i as f64 * 0.29).sin()).collect();
        g.throughput(Throughput::Elements((p * p) as u64));
        g.bench_with_input(BenchmarkId::new("symv", p), &p, |b, _| {
            let mut out = vec![0.0; p];
            b.iter(|| kernels::symv(black_box(&gram), black_box(&v), &mut out))
        });
        g.bench_with_input(BenchmarkId::new("gemv", p), &p, |b, _| {
            b.iter(|| gemv(black_box(&gram), black_box(&v)))
        });
    }
    g.finish();
}

fn bench_multi_rhs_solve(c: &mut Criterion) {
    // Fused multi-RHS triangular solves over one shared Cholesky factor
    // (a lockstep round) vs one substitution per RHS. `fused` includes the
    // copies into and out of the lane-major panel; `panel` is the
    // interleaved substitution alone, as the lockstep solvers call it.
    // (128, 1) guards the single-RHS case, (128, 32) is a full
    // `var_granger` lockstep window, (128, 64) two of them, and (512, 8)
    // one `lasso_tall` path round. The `panel_<isa>/<order>x<m>` sweep
    // times the same solve compiled for each ISA this host runs, at the
    // widths a lockstep window passes through as it drains: the data the
    // per-ISA register-group shapes are chosen from.
    let mut g = c.benchmark_group("multi_rhs_solve");
    for &(p, nrhs) in &[
        (64usize, 8usize),
        (128, 16),
        (256, 33),
        (128, 1),
        (128, 32),
        (128, 64),
        (512, 8),
    ] {
        let ch = Cholesky::factor(&spd(p)).unwrap();
        let rhs: Vec<Vec<f64>> = (0..nrhs)
            .map(|k| (0..p).map(|i| ((i + k) as f64 * 0.19).sin()).collect())
            .collect();
        let panel: Vec<f64> = (0..p * nrhs).map(|e| rhs[e % nrhs][e / nrhs]).collect();
        g.throughput(Throughput::Elements((p * p * nrhs) as u64));
        let id = format!("{p}x{nrhs}");
        g.bench_with_input(BenchmarkId::new("fused", &id), &p, |b, _| {
            b.iter(|| {
                let mut work = rhs.clone();
                let mut cols: Vec<&mut [f64]> = work.iter_mut().map(|c| c.as_mut_slice()).collect();
                ch.solve_multi_in_place(black_box(&mut cols));
                work
            })
        });
        g.bench_with_input(BenchmarkId::new("panel", &id), &p, |b, _| {
            let mut work = panel.clone();
            b.iter(|| {
                work.copy_from_slice(&panel);
                ch.solve_panel_in_place(black_box(&mut work), nrhs);
            })
        });
        g.bench_with_input(BenchmarkId::new("per_rhs", &id), &p, |b, _| {
            b.iter(|| {
                let mut work = rhs.clone();
                for col in &mut work {
                    ch.solve_in_place(black_box(col));
                }
                work
            })
        });
    }
    for &(p, widths) in &[
        (128usize, &[1usize, 2, 3, 4, 8, 16, 32, 64][..]),
        (512, &[1, 8][..]),
    ] {
        let ch = Cholesky::factor(&spd(p)).unwrap();
        for &nrhs in widths {
            let panel: Vec<f64> = (0..p * nrhs).map(|e| (e as f64 * 0.19).sin()).collect();
            g.throughput(Throughput::Elements((p * p * nrhs) as u64));
            for isa in Isa::supported() {
                let name = format!("panel_{}", isa.name());
                let id = format!("{p}x{nrhs}");
                g.bench_with_input(BenchmarkId::new(name, id), &p, |b, _| {
                    let mut work = panel.clone();
                    b.iter(|| {
                        work.copy_from_slice(&panel);
                        ch.solve_panel_in_place_with_isa(isa, black_box(&mut work), nrhs);
                    })
                });
            }
        }
    }
    g.finish();
}

/// `X^T X + I` for the deterministic `2p x p` design.
fn spd(p: usize) -> Matrix {
    let mut gram = syrk_t(&matrix(2 * p, p, 11));
    for i in 0..p {
        gram[(i, i)] += 1.0;
    }
    gram
}

fn bench_var_selection(c: &mut Criterion) {
    // The solve of one UoI_VAR selection bootstrap at fig7's shape
    // (p = 128 series, T = 256, q = 8, max_iter 150; the unresampled
    // lag-1 design stands in for a resample): the p column lambda-paths
    // over one shared factorisation, fused, on one thread — one lockstep
    // window from its first refill to its last drain.
    let (p, t, q) = (128usize, 256usize, 8usize);
    let series = VarProcess::generate(&VarConfig {
        p,
        order: 1,
        density: 0.05,
        target_radius: 0.6,
        noise_std: 1.0,
        seed: 7,
    })
    .simulate(t, 50, 7);
    let x = Matrix::from_fn(t - 1, p, |i, j| series[(i, j)]);
    let xtys: Vec<Vec<f64>> = (0..p)
        .map(|j| gemv_t(&x, &(1..t).map(|i| series[(i, j)]).collect::<Vec<_>>()))
        .collect();
    let lmax = xtys.iter().flatten().fold(0.0f64, |m, v| m.max(v.abs()));
    let lambdas = geometric_grid(lmax, lmax * 0.05, q);
    let cfg = AdmmConfig {
        max_iter: 150,
        schedule: PathSchedule::Fused,
        ..AdmmConfig::default()
    };
    let solver = LassoAdmm::from_gram(syrk_t(&x), cfg);
    let refs: Vec<&[f64]> = xtys.iter().map(Vec::as_slice).collect();
    let mut g = c.benchmark_group("var_selection");
    g.bench_function("fig7_bootstrap", |b| {
        b.iter(|| solver.solve_paths_with_rhs(black_box(&refs), &lambdas))
    });
    g.finish();
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(20);
    targets = bench_gemm, bench_gemv, bench_cholesky, bench_sparse,
        bench_inner_kernels, bench_symv, bench_multi_rhs_solve, bench_var_selection
}
criterion_main!(kernels);
