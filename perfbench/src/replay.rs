//! The traced layer replay: each layer's public functions called again
//! with the fit's shapes and counts (B1 selection resamples, q lambdas,
//! B2 estimation resamples, the fit's own support family), each call
//! inside a span. The replay draws its own resamples; it never reaches
//! into `pub(crate)` code and adds no tracing inside the program.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use uoi_core::support::{dedup_family, intersect_many};
use uoi_core::VarRegression;
use uoi_data::rng::substream;
use uoi_data::{block_bootstrap, default_block_len, resample_weights, row_bootstrap};
use uoi_linalg::{
    gemv_t, gemv_t_weighted_multi, gram_batch, gram_rhs_batch, syrk_t_upper, Cholesky, Matrix,
};
use uoi_mpisim::Cluster;
use uoi_solvers::{
    geometric_grid, lambda_max, lambda_path, ols_on_support_gram, DistLassoAdmm, LassoAdmm,
};
use uoi_telemetry::{MemorySink, Telemetry, TraceEvent};
use uoi_tieredio::distribution::{block_range, tier2_shuffle};

use crate::clock::{median, median_time};
use crate::spans::Recorder;
use crate::workloads::{
    FitOutput, Inputs, Spec, Workload, B1, B2, LAMBDA_MIN_RATIO, Q, RANKS, SUPPORT_TOL, VAR_ORDER,
    WATCHDOG,
};

/// Measured seconds (and computed flops) of one replayed fit.
#[derive(Default)]
pub struct LayerTimes {
    /// Centring (and, for VAR, the lagged regression build).
    pub centre_s: f64,
    pub lambda_s: f64,
    pub resample_s: f64,
    /// The batched selection Gram over B1 resamples.
    pub gram_s: f64,
    pub gram_flops: f64,
    /// VAR only: the per-column weighted `X^T y` right-hand sides.
    pub xty_s: f64,
    pub chol_s: f64,
    pub chol_flops: f64,
    pub trsv_s: f64,
    pub trsv_flops: f64,
    /// Median seconds of one bootstrap's factorisation + q-lambda path.
    pub path_s: f64,
    pub path_total_s: f64,
    /// ADMM iterations summed over every replayed (column,) lambda.
    pub path_iters: usize,
    pub intersect_s: f64,
    pub gram_est_s: f64,
    pub ols_s: f64,
    /// Replayed (bootstrap, lambda) selection tasks plus estimation tasks.
    pub tasks: usize,
}

impl LayerTimes {
    /// Seconds of the replayed work one fit does (the kernel probes are
    /// already inside the path solves and are not added again).
    pub fn fit_work_s(&self) -> f64 {
        self.centre_s
            + self.lambda_s
            + self.resample_s
            + self.gram_s
            + self.xty_s
            + self.path_total_s
            + self.intersect_s
            + self.gram_est_s
            + self.ols_s
    }
}

pub fn replay(
    rec: &mut Recorder,
    spec: &Spec,
    inputs: &Inputs,
    fit: &FitOutput,
) -> Result<LayerTimes, String> {
    match inputs {
        Inputs::Lasso { x, y, .. } => replay_lasso(rec, spec, inputs.fit_seed(), x, y, fit),
        Inputs::Var { series, .. } => Ok(replay_var(rec, spec, inputs.fit_seed(), series, fit)),
    }
}

fn replay_lasso(
    rec: &mut Recorder,
    spec: &Spec,
    seed: u64,
    x: &Matrix,
    y: &[f64],
    fit: &FitOutput,
) -> Result<LayerTimes, String> {
    let mut lt = LayerTimes::default();
    let (n, p) = x.shape();
    let ((xc, yc), t) = rec.span("linalg.centre", |_| {
        let means = x.col_means();
        let mut xc = x.clone();
        xc.center_cols(&means);
        let y_mean = y.iter().sum::<f64>() / n as f64;
        (xc, y.iter().map(|v| v - y_mean).collect::<Vec<f64>>())
    });
    lt.centre_s = t;
    let (lambdas, t) = rec.span("solvers.lambda_path", |_| {
        lambda_path(&xc, &yc, Q, LAMBDA_MIN_RATIO)
    });
    lt.lambda_s = t;
    let ((sel_rows, sel_w, est_w), t) = rec.span("data.resample", |_| {
        let rows = |stream: u64| row_bootstrap(&mut substream(seed, stream), n, n);
        let sel_rows: Vec<Vec<usize>> = (0..B1 as u64).map(rows).collect();
        let sel: Vec<Vec<f64>> = sel_rows.iter().map(|r| resample_weights(r, n)).collect();
        let est: Vec<Vec<f64>> = (0..B2 as u64)
            .map(|k| resample_weights(&rows(10_000 + k), n))
            .collect();
        (sel_rows, sel, est)
    });
    lt.resample_s = t;

    let supports_by_k = if spec.workload == Workload::LassoDist {
        dist_selection(rec, spec, &xc, &yc, &sel_rows, &lambdas, &mut lt)?
    } else {
        serial_selection(rec, spec, &xc, &yc, &sel_w, &lambdas, &mut lt)
    };
    lt.intersect_s = intersect(rec, &supports_by_k);

    // Estimation over the fit's own candidate family, projected onto its
    // feature union as the fit does.
    let (union, family_u) = project_family(&fit.support_family, p, |f| f);
    let est_refs: Vec<&[f64]> = est_w.iter().map(|w| w.as_slice()).collect();
    let (est_systems, t) = rec.span("linalg.gram_est", |_| {
        let xu = xc.gather_cols(&union);
        gram_rhs_batch(&xu, &yc, &est_refs)
    });
    lt.gram_est_s = t;
    let ((), t) = rec.span("solvers.ols", |_| {
        for (gram, xty) in &est_systems {
            for s in &family_u {
                black_box(ols_on_support_gram(gram.upper(), xty, s, n));
            }
        }
    });
    lt.ols_s = t;
    lt.tasks = B1 * lambdas.len() + B2;
    Ok(lt)
}

/// The serial selection: one batched `gram_rhs_batch` over the B1
/// resamples (`linalg.gram`), then per bootstrap `LassoAdmm::from_gram`
/// and the q-lambda path (`solvers.path`). Returns each bootstrap's
/// support per lambda.
fn serial_selection(
    rec: &mut Recorder,
    spec: &Spec,
    xc: &Matrix,
    yc: &[f64],
    sel_w: &[Vec<f64>],
    lambdas: &[f64],
    lt: &mut LayerTimes,
) -> Vec<Vec<Vec<usize>>> {
    let (n, p) = xc.shape();
    let refs: Vec<&[f64]> = sel_w.iter().map(|w| w.as_slice()).collect();
    let (systems, t) = rec.span("linalg.gram", |_| gram_rhs_batch(xc, yc, &refs));
    lt.gram_s = t;
    lt.gram_flops = (B1 * n * p * (p + 1) + B1 * 2 * n * p) as f64;
    let systems: Vec<(Matrix, Vec<f64>)> = systems
        .into_iter()
        .map(|(g, r)| (g.into_upper(), r))
        .collect();
    kernel_probes(rec, &systems[0].0, lt);

    let mut supports_by_k = Vec::with_capacity(B1);
    let mut per_boot = Vec::with_capacity(B1);
    for (gram, xty) in systems {
        let (sols, t) = rec.span("solvers.path", |_| {
            LassoAdmm::from_gram(gram, spec.admm()).solve_path_with_rhs(&xty, lambdas)
        });
        per_boot.push(t);
        lt.path_iters += sols.iter().map(|s| s.iterations).sum::<usize>();
        supports_by_k.push(
            sols.iter()
                .map(|s| uoi_solvers::support_of(&s.beta, SUPPORT_TOL))
                .collect(),
        );
    }
    lt.path_s = median(&per_boot);
    lt.path_total_s = per_boot.iter().sum();
    supports_by_k
}

/// What one rank of the distributed selection replay returns.
struct RankSelection {
    /// `(start, end)` of each bootstrap's local Gram and of its path.
    gram: Vec<(Instant, Instant)>,
    path: Vec<(Instant, Instant)>,
    supports_by_k: Vec<Vec<Vec<usize>>>,
    iterations: usize,
    /// The rank's local Gram of the first bootstrap, for the kernel probes.
    first_gram: Matrix,
}

/// `lasso_dist`'s selection, as the fit runs it: on a 2-rank cluster each
/// rank takes its block of every bootstrap's rows, builds its local Gram
/// and `X_i^T y_i` (`linalg.gram`), and solves the q-lambda path with
/// consensus ADMM, `DistLassoAdmm::from_gram` + `solve_path_fused_with_rhs`
/// (`solvers.path`). The row gather stands in for `tier2_shuffle`, which
/// is probed apart. Rank 0's phases become spans under
/// `bench.dist_selection`; `linalg.gram_flops` counts one rank's share.
fn dist_selection(
    rec: &mut Recorder,
    spec: &Spec,
    xc: &Matrix,
    yc: &[f64],
    sel_rows: &[Vec<usize>],
    lambdas: &[f64],
    lt: &mut LayerTimes,
) -> Result<Vec<Vec<Vec<usize>>>, String> {
    let (n, p) = xc.shape();
    rec.span("bench.dist_selection", |rec| {
        let report = Cluster::new(RANKS, spec.machine())
            .modeled_ranks(spec.modeled_cores)
            .with_watchdog(WATCHDOG)
            .try_run(|ctx, world| {
                let range = block_range(n, world.size(), world.rank());
                let mut out = RankSelection {
                    gram: Vec::with_capacity(B1),
                    path: Vec::with_capacity(B1),
                    supports_by_k: Vec::with_capacity(B1),
                    iterations: 0,
                    first_gram: Matrix::zeros(0, 0),
                };
                for rows in sel_rows {
                    let mine = &rows[range.clone()];
                    let xb = xc.gather_rows(mine);
                    let yb: Vec<f64> = mine.iter().map(|&i| yc[i]).collect();
                    let t0 = Instant::now();
                    let gram = syrk_t_upper(&xb).into_upper();
                    let xty = gemv_t(&xb, &yb);
                    let t1 = Instant::now();
                    if out.gram.is_empty() {
                        out.first_gram = gram.clone();
                    }
                    let solver = DistLassoAdmm::from_gram(ctx, world, gram, xb.rows(), spec.admm());
                    let sols = solver.solve_path_fused_with_rhs(ctx, world, &xty, lambdas);
                    let t2 = Instant::now();
                    out.gram.push((t0, t1));
                    out.path.push((t1, t2));
                    out.iterations += sols.iter().map(|s| s.iterations).sum::<usize>();
                    out.supports_by_k.push(
                        sols.iter()
                            .map(|s| uoi_solvers::support_of(&s.beta, SUPPORT_TOL))
                            .collect(),
                    );
                }
                out
            });
        let rank0 = report
            .map_err(|e| format!("distributed selection replay: {e}"))?
            .results
            .swap_remove(0);
        for &(start, end) in &rank0.gram {
            lt.gram_s += rec.record("linalg.gram", start, end);
        }
        let per_boot: Vec<f64> = rank0
            .path
            .iter()
            .map(|&(start, end)| rec.record("solvers.path", start, end))
            .collect();
        let n_local = block_range(n, RANKS, 0).len();
        lt.gram_flops = (B1 * n_local * p * (p + 1) + B1 * 2 * n_local * p) as f64;
        lt.path_s = median(&per_boot);
        lt.path_total_s = per_boot.iter().sum();
        lt.path_iters = rank0.iterations;
        Ok((rank0.supports_by_k, rank0.first_gram))
    })
    .0
    .map(|(supports_by_k, first_gram)| {
        kernel_probes(rec, &first_gram, lt);
        supports_by_k
    })
}

fn replay_var(
    rec: &mut Recorder,
    spec: &Spec,
    seed: u64,
    series: &Matrix,
    fit: &FitOutput,
) -> LayerTimes {
    let mut lt = LayerTimes::default();
    let (reg, t) = rec.span("core.var_regression", |_| {
        let means = series.col_means();
        let mut centred = series.clone();
        centred.center_cols(&means);
        VarRegression::build(&centred, VAR_ORDER)
    });
    lt.centre_s = t;
    let (n, dp) = reg.x.shape();
    let p = reg.y.cols();
    let ys: Vec<Vec<f64>> = (0..p).map(|i| reg.y.col(i)).collect();
    let yrefs: Vec<&[f64]> = ys.iter().map(|v| v.as_slice()).collect();
    let (lambdas, t) = rec.span("solvers.lambda_path", |_| {
        let lmax = ys
            .iter()
            .map(|yi| lambda_max(&reg.x, yi))
            .fold(0.0f64, f64::max)
            .max(1e-12);
        geometric_grid(lmax, LAMBDA_MIN_RATIO * lmax, Q)
    });
    lt.lambda_s = t;
    let block_len = default_block_len(n);
    let ((sel_w, est_w), t) = rec.span("data.resample", |_| {
        let draw = |stream: u64| {
            resample_weights(
                &block_bootstrap(&mut substream(seed, stream), n, n, block_len),
                n,
            )
        };
        let sel: Vec<Vec<f64>> = (0..B1 as u64).map(draw).collect();
        let est: Vec<Vec<f64>> = (0..B2 as u64).map(|k| draw(10_000 + k)).collect();
        (sel, est)
    });
    lt.resample_s = t;

    let wopts: Vec<Option<&[f64]>> = sel_w.iter().map(|w| Some(w.as_slice())).collect();
    let (grams, t) = rec.span("linalg.gram", |_| gram_batch(&reg.x, &wopts));
    lt.gram_s = t;
    lt.gram_flops = (B1 * n * dp * (dp + 1)) as f64;
    let grams: Vec<Matrix> = grams.into_iter().map(|g| g.into_upper()).collect();
    let (xtys, t) = rec.span("linalg.xty", |_| {
        sel_w
            .iter()
            .map(|w| gemv_t_weighted_multi(&reg.x, w, &yrefs))
            .collect::<Vec<_>>()
    });
    lt.xty_s = t;
    kernel_probes(rec, &grams[0], &mut lt);

    let mut supports_by_k: Vec<Vec<Vec<usize>>> = Vec::with_capacity(B1);
    let mut per_boot = Vec::with_capacity(B1);
    for (gram, xty_cols) in grams.into_iter().zip(&xtys) {
        let (supports, t) = rec.span("solvers.path", |_| {
            let solver = LassoAdmm::from_gram(gram, spec.admm());
            let mut supports = vec![Vec::new(); lambdas.len()];
            let mut iters = 0;
            for (i, xty) in xty_cols.iter().enumerate() {
                for (j, sol) in solver.solve_path_with_rhs(xty, &lambdas).iter().enumerate() {
                    iters += sol.iterations;
                    supports[j].extend(
                        uoi_solvers::support_of(&sol.beta, SUPPORT_TOL)
                            .iter()
                            .map(|c| i * dp + c),
                    );
                }
            }
            (supports, iters)
        });
        per_boot.push(t);
        lt.path_iters += supports.1;
        supports_by_k.push(supports.0);
    }
    lt.path_s = median(&per_boot);
    lt.path_total_s = per_boot.iter().sum();
    lt.intersect_s = intersect(rec, &supports_by_k);

    // Estimation: the regression design projected onto the union of the
    // family's lag columns; per response column, each family member's
    // columns solve one OLS on the union Gram.
    let (union, family_u) = project_family(&fit.support_family, dp, |s| s % dp);
    let family_cols: Vec<Vec<Vec<usize>>> = fit
        .support_family
        .iter()
        .zip(&family_u)
        .map(|(member, cols_u)| {
            let mut per_col = vec![Vec::new(); p];
            for (s, c) in member.iter().zip(cols_u) {
                per_col[s / dp].push(*c);
            }
            per_col
        })
        .collect();
    let est_opts: Vec<Option<&[f64]>> = est_w.iter().map(|w| Some(w.as_slice())).collect();
    let ((est_grams, est_xtys), t) = rec.span("linalg.gram_est", |_| {
        let xu = reg.x.gather_cols(&union);
        let grams = gram_batch(&xu, &est_opts);
        let xtys: Vec<Vec<Vec<f64>>> = est_w
            .iter()
            .map(|w| gemv_t_weighted_multi(&xu, w, &yrefs))
            .collect();
        (grams, xtys)
    });
    lt.gram_est_s = t;
    let ((), t) = rec.span("solvers.ols", |_| {
        for (gram, xty_cols) in est_grams.iter().zip(&est_xtys) {
            for per_col in &family_cols {
                for (cols, xty) in per_col.iter().zip(xty_cols) {
                    if !cols.is_empty() {
                        black_box(ols_on_support_gram(gram.upper(), xty, cols, n));
                    }
                }
            }
        }
    });
    lt.ols_s = t;
    lt.tasks = B1 * lambdas.len() + B2;
    lt
}

/// The feature union of a support family (after `key`, which maps a
/// support index to its design column) and each member re-indexed into
/// union coordinates.
fn project_family(
    family: &[Vec<usize>],
    cols: usize,
    key: impl Fn(usize) -> usize,
) -> (Vec<usize>, Vec<Vec<usize>>) {
    let mut union: Vec<usize> = family.iter().flatten().map(|&s| key(s)).collect();
    union.sort_unstable();
    union.dedup();
    let mut pos = vec![usize::MAX; cols];
    for (a, &c) in union.iter().enumerate() {
        pos[c] = a;
    }
    let family_u = family
        .iter()
        .map(|m| m.iter().map(|&s| pos[key(s)]).collect())
        .collect();
    (union, family_u)
}

/// Intersection across bootstraps per lambda, then family dedup; returns
/// the median seconds of one pass over 25.
fn intersect(rec: &mut Recorder, supports_by_k: &[Vec<Vec<usize>>]) -> f64 {
    let q = supports_by_k.first().map_or(0, |s| s.len());
    let (t, _) = rec.span("core.intersect", |_| {
        median_time(25, || {
            let per_lambda: Vec<Vec<usize>> = (0..q)
                .map(|j| {
                    let per_k: Vec<Vec<usize>> =
                        supports_by_k.iter().map(|s| s[j].clone()).collect();
                    intersect_many(&per_k)
                })
                .collect();
            black_box(dedup_family(per_lambda));
        })
    });
    t
}

/// The solver kernels at the fit's order: `Cholesky::factor_upper` of a
/// selection Gram (diagonal shifted by its mean, as ADMM shifts by rho)
/// and one `solve_in_place` against that factor.
fn kernel_probes(rec: &mut Recorder, gram: &Matrix, lt: &mut LayerTimes) {
    let p = gram.rows();
    let mut shifted = gram.clone();
    let shift = (0..p).map(|i| shifted[(i, i)]).sum::<f64>() / p as f64;
    for i in 0..p {
        shifted[(i, i)] += shift;
    }
    let reps = (2e8 / (p * p * p) as f64).clamp(3.0, 200.0) as usize;
    let (chol_s, _) = rec.span("linalg.chol", |_| {
        median_time(reps, || {
            black_box(Cholesky::factor_upper(&shifted).expect("shifted Gram is positive definite"));
        })
    });
    lt.chol_s = chol_s;
    lt.chol_flops = (p * p * p) as f64 / 3.0;
    let factor = Cholesky::factor_upper(&shifted).expect("shifted Gram is positive definite");
    let rhs: Vec<f64> = (0..p).map(|i| 1.0 + i as f64 / p as f64).collect();
    let (trsv_s, _) = rec.span("linalg.trsv", |_| {
        median_time(401, || {
            let mut b = rhs.clone();
            factor.solve_in_place(&mut b);
            black_box(b);
        })
    });
    lt.trsv_s = trsv_s;
    lt.trsv_flops = 2.0 * (p * p) as f64;
}

/// Median microseconds of one `allreduce_sum` of `len` doubles across the
/// two executed ranks (measured wall time on rank 0).
pub fn allreduce_us(spec: &Spec, len: usize) -> Result<f64, String> {
    const WARM: usize = 20;
    const REPS: usize = 400;
    let report = Cluster::new(RANKS, spec.machine())
        .with_watchdog(WATCHDOG)
        .try_run(|ctx, world| {
            let mut buf = vec![0.0; len];
            let mut times = Vec::with_capacity(REPS);
            for i in 0..WARM + REPS {
                buf.fill(1.0);
                let t0 = Instant::now();
                world.allreduce_sum(ctx, &mut buf);
                if i >= WARM {
                    times.push(t0.elapsed().as_secs_f64());
                }
            }
            (median(&times), buf[len / 2])
        })
        .map_err(|e| e.to_string())?;
    let (t, sum) = report.results[0];
    if sum != RANKS as f64 {
        return Err(format!("allreduce_sum returned {sum}, expected {RANKS}"));
    }
    Ok(t * 1e6)
}

/// One timed `tier2_shuffle` of the dist block, `[x | y]` (median of
/// five), and the one-sided bytes it moved, from the program's own
/// window-transfer events.
pub fn shuffle(spec: &Spec, x: &Matrix, y: Option<&[f64]>) -> Result<(f64, f64), String> {
    const REPS: usize = 5;
    let (n, p) = x.shape();
    let cols = p + usize::from(y.is_some());
    let sink = Arc::new(MemorySink::new());
    let report = Cluster::new(RANKS, spec.machine())
        .modeled_ranks(spec.modeled_cores)
        .with_watchdog(WATCHDOG)
        .with_telemetry(Telemetry::with_sink(sink.clone()))
        .try_run(|ctx, world| {
            let range = block_range(n, world.size(), world.rank());
            let mut block = Matrix::zeros(range.len(), cols);
            for (r, i) in range.clone().enumerate() {
                block.row_mut(r)[..p].copy_from_slice(x.row(i));
                if let Some(y) = y {
                    block.row_mut(r)[p] = y[i];
                }
            }
            let mut rng = substream(spec.seeds.probe, world.rank() as u64);
            let my_rows = row_bootstrap(&mut rng, n, range.len());
            let mut times = Vec::with_capacity(REPS);
            for _ in 0..REPS {
                let local = block.clone();
                let t0 = Instant::now();
                let (rows, _) = tier2_shuffle(ctx, world, local, n, &my_rows);
                times.push(t0.elapsed().as_secs_f64());
                black_box(rows);
            }
            median(&times)
        })
        .map_err(|e| e.to_string())?;
    let bytes: usize = sink
        .take()
        .iter()
        .map(|ev| match ev {
            TraceEvent::WindowTransfer { bytes, .. } => *bytes,
            _ => 0,
        })
        .sum();
    Ok((report.results[0], bytes as f64 / REPS as f64))
}
