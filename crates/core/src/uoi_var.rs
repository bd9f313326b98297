//! `UoI_VAR` (paper Algorithm 2): Union of Intersections for sparse
//! vector-autoregression, shared-memory implementation.
//!
//! The series is rearranged into `Y = X B + E` (eqs. 7–8) and vectorised
//! (`vec Y = (I ⊗ X) vec B`, eq. 9). Because the vectorised design is
//! block diagonal with *identical* blocks, the LASSO path decomposes into
//! `p` per-column problems sharing one cached factorisation — the
//! communication-avoiding structure §V's discussion points at; the
//! distributed implementation in [`crate::uoi_var_dist`] instead follows
//! the paper's explicit distributed-Kronecker construction. Both produce
//! identical estimates (tested).
//!
//! Temporal dependence is respected by a moving-block bootstrap over the
//! regression rows (Algorithm 2 lines 3, 17–18).

use crate::degraded::{data_words, fingerprint, CheckpointStore, DegradationReport};
use crate::error::{all_finite, UoiError};
use crate::granger::GrangerNetwork;
use crate::support::dedup_family;
#[cfg(test)]
use crate::support::intersect_many;
use crate::uoi_lasso::UoiLassoConfig;
use crate::var_matrices::{partition_coefficients, VarRegression};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};
use uoi_data::bootstrap::{block_bootstrap, default_block_len, resample_weights};
use uoi_data::rng::substream;
use uoi_linalg::{dot, gemv_t_weighted_multi, Matrix};
use uoi_solvers::{geometric_grid, ols_on_support_gram, support_of, AdmmSolution, LassoAdmm};
use uoi_telemetry::{Telemetry, TraceEvent};

/// Hyperparameters of `UoI_VAR`.
#[derive(Debug, Clone)]
pub struct UoiVarConfig {
    /// VAR order `d`.
    pub order: usize,
    /// Moving-block bootstrap block length; `None` → `ceil(n^{1/3})`.
    pub block_len: Option<usize>,
    /// The shared UoI/solver knobs (`B1`, `B2`, `q`, lambda grid, ADMM).
    pub base: UoiLassoConfig,
}

impl Default for UoiVarConfig {
    fn default() -> Self {
        Self {
            order: 1,
            block_len: None,
            base: UoiLassoConfig::default(),
        }
    }
}

impl UoiVarConfig {
    /// Start a validated chainable builder:
    /// `UoiVarConfig::builder().order(2).b1(10).build()?`.
    pub fn builder() -> UoiVarConfigBuilder {
        UoiVarConfigBuilder::default()
    }

    /// Check every field (including the embedded [`UoiLassoConfig`]).
    pub fn validate(&self) -> Result<(), UoiError> {
        if self.order == 0 {
            return Err(UoiError::InvalidConfig("order must be >= 1".into()));
        }
        if let Some(bl) = self.block_len {
            if bl == 0 {
                return Err(UoiError::InvalidConfig("block_len must be >= 1".into()));
            }
        }
        self.base.validate()
    }
}

/// Chainable builder for [`UoiVarConfig`]; `build()` validates. The
/// common `base` knobs (`b1`, `b2`, `q`, `seed`, `admm`, ...) are exposed
/// directly so a full VAR setup reads as one chain.
#[derive(Debug, Clone, Default)]
pub struct UoiVarConfigBuilder {
    cfg: UoiVarConfig,
}

impl UoiVarConfigBuilder {
    pub fn order(mut self, order: usize) -> Self {
        self.cfg.order = order;
        self
    }

    pub fn block_len(mut self, block_len: Option<usize>) -> Self {
        self.cfg.block_len = block_len;
        self
    }

    pub fn base(mut self, base: UoiLassoConfig) -> Self {
        self.cfg.base = base;
        self
    }

    pub fn b1(mut self, b1: usize) -> Self {
        self.cfg.base.b1 = b1;
        self
    }

    pub fn b2(mut self, b2: usize) -> Self {
        self.cfg.base.b2 = b2;
        self
    }

    pub fn q(mut self, q: usize) -> Self {
        self.cfg.base.q = q;
        self
    }

    pub fn lambda_min_ratio(mut self, ratio: f64) -> Self {
        self.cfg.base.lambda_min_ratio = ratio;
        self
    }

    pub fn admm(mut self, admm: uoi_solvers::AdmmConfig) -> Self {
        self.cfg.base.admm = admm;
        self
    }

    pub fn support_tol(mut self, tol: f64) -> Self {
        self.cfg.base.support_tol = tol;
        self
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.base.seed = seed;
        self
    }

    pub fn intersection_frac(mut self, frac: f64) -> Self {
        self.cfg.base.intersection_frac = frac;
        self
    }

    pub fn telemetry(mut self, telemetry: uoi_telemetry::Telemetry) -> Self {
        self.cfg.base.telemetry = telemetry;
        self
    }

    pub fn degradation(mut self, degradation: crate::degraded::DegradationConfig) -> Self {
        self.cfg.base.degradation = degradation;
        self
    }

    pub fn checkpoint(mut self, checkpoint: crate::degraded::CheckpointConfig) -> Self {
        self.cfg.base.checkpoint = Some(checkpoint);
        self
    }

    pub fn build(self) -> Result<UoiVarConfig, UoiError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// A fitted `UoI_VAR` model.
#[derive(Debug, Clone)]
pub struct UoiVarFit {
    /// Estimated lag matrices `(Â_1, ..., Â_d)`.
    pub a_mats: Vec<Matrix>,
    /// Estimated process mean term `μ̂ = (I - Σ Â_j) x̄`.
    pub mu: Vec<f64>,
    /// The vectorised coefficient estimate (length `d p^2`).
    pub vec_beta: Vec<f64>,
    /// Lambda grid used in selection.
    pub lambdas: Vec<f64>,
    /// Intersected support per lambda, in vectorised index space.
    pub supports_per_lambda: Vec<Vec<usize>>,
    /// Deduplicated candidate family.
    pub support_family: Vec<Vec<usize>>,
    /// Degraded-execution account, present when a fault plan was active.
    pub degradation: Option<DegradationReport>,
    /// Shrink-and-recover account, present when the fit ran through
    /// [`fit_uoi_var_recovering`](crate::uoi_var_recovering::fit_uoi_var_recovering).
    pub recovery: Option<crate::recovery::RecoveryReport>,
    /// Speculative-hedging account, present when the fit ran through the
    /// recovering pipeline with speculation enabled.
    pub speculation: Option<crate::speculation::SpeculationReport>,
    /// Numerical-health account, present when
    /// [`NumericalConfig::active`](crate::numerical::NumericalConfig::active)
    /// on `base.numerical` — jitter escalations, rho restarts,
    /// divergence outcomes, data issues, and dropped tasks.
    pub numerical: Option<uoi_telemetry::NumericalHealthReport>,
}

impl UoiVarFit {
    /// Extract the Granger network at a magnitude threshold.
    pub fn network(&self, threshold: f64) -> GrangerNetwork {
        GrangerNetwork::from_coefficients(&self.a_mats, threshold)
    }

    /// Number of nonzero coefficients across all lags.
    pub fn nnz(&self) -> usize {
        self.vec_beta.iter().filter(|v| v.abs() > 0.0).count()
    }

    /// VAR order `d` of the fitted model.
    pub fn order(&self) -> usize {
        self.a_mats.len()
    }

    /// One-step-ahead prediction from the last `d` rows of `history`
    /// (row `t` = observation at time `t`): `x̂ = μ + Σ_j A_j x_{T-j}`.
    pub fn predict_next(&self, history: &Matrix) -> Vec<f64> {
        let p = self.mu.len();
        let d = self.order();
        assert_eq!(history.cols(), p, "history dimension mismatch");
        assert!(history.rows() >= d, "need at least {d} rows of history");
        let t = history.rows();
        let mut next = self.mu.clone();
        for (lag, a) in self.a_mats.iter().enumerate() {
            let contrib = uoi_linalg::gemv(a, history.row(t - lag - 1));
            for (n, c) in next.iter_mut().zip(&contrib) {
                *n += c;
            }
        }
        next
    }

    /// Iterated multi-step forecast: `steps` rows of predictions, each
    /// feeding the next (the standard VAR point forecast).
    pub fn forecast(&self, history: &Matrix, steps: usize) -> Matrix {
        let p = self.mu.len();
        let d = self.order();
        assert!(history.rows() >= d);
        // Rolling window of the last d observations.
        let mut window = history.rows_range(history.rows() - d, history.rows());
        let mut out = Matrix::zeros(steps, p);
        for s in 0..steps {
            let next = self.predict_next(&window);
            out.row_mut(s).copy_from_slice(&next);
            // Shift the window.
            let mut new_window = Matrix::zeros(d, p);
            for r in 1..d {
                new_window.row_mut(r - 1).copy_from_slice(window.row(r));
            }
            new_window.row_mut(d - 1).copy_from_slice(&next);
            window = new_window;
        }
        out
    }

    /// Mean squared one-step prediction error over a held-out series
    /// segment (rows `d..` are predicted from their own lags).
    pub fn one_step_mse(&self, series: &Matrix) -> f64 {
        let d = self.order();
        assert!(series.rows() > d);
        let mut sse = 0.0;
        let mut n = 0usize;
        for t in d..series.rows() {
            let pred = self.predict_next(&series.rows_range(t - d, t));
            for (p_hat, &truth) in pred.iter().zip(series.row(t)) {
                sse += (p_hat - truth) * (p_hat - truth);
                n += 1;
            }
        }
        sse / n.max(1) as f64
    }
}

/// Select the VAR order by BIC over dense per-column OLS fits for
/// `d = 1 ..= max_order`: `BIC(d) = N p ln(RSS/(N p)) + d p^2 ln(N)`.
/// Returns the minimiser (the standard order-selection pre-step before a
/// UoI fit).
pub fn select_var_order(series: &Matrix, max_order: usize) -> usize {
    let (n_raw, p) = series.shape();
    assert!(max_order >= 1 && n_raw > max_order + 2);
    let means = series.col_means();
    let mut centred = series.clone();
    centred.center_cols(&means);
    let mut best = (f64::INFINITY, 1usize);
    for d in 1..=max_order {
        // Use a common effective sample count so BICs are comparable.
        let reg_full = VarRegression::build(&centred, d);
        let skip = max_order - d;
        let reg = reg_full.slice(skip..reg_full.samples());
        let n = reg.samples() as f64;
        let mut rss = 0.0;
        for i in 0..p {
            let yi = reg.y.col(i);
            let beta = match uoi_linalg::solve_normal_equations(&reg.x, &yi, 0.0) {
                Ok(b) => b,
                Err(_) => uoi_linalg::solve_normal_equations(&reg.x, &yi, 1e-8)
                    .expect("jittered normal equations"),
            };
            rss += uoi_linalg::mse(&reg.x, &beta, &yi) * n;
        }
        let np = n * p as f64;
        let bic = np * (rss / np).max(1e-300).ln() + (d * p * p) as f64 * n.ln();
        if bic < best.0 {
            best = (bic, d);
        }
    }
    best.1
}

/// Fit `UoI_VAR` on an `N x p` series, panicking on invalid input.
///
/// Thin wrapper over [`try_fit_uoi_var`] for callers that prefer the
/// assert-style contract; library code should use the fallible form.
#[deprecated(
    since = "0.6.0",
    note = "use `uoi_core::UoiVarFitter::new(cfg).fit(series)` instead"
)]
#[allow(deprecated)]
pub fn fit_uoi_var(series: &Matrix, cfg: &UoiVarConfig) -> UoiVarFit {
    try_fit_uoi_var(series, cfg).unwrap_or_else(|e| panic!("fit_uoi_var: {e}"))
}

/// Fit `UoI_VAR` on an `N x p` series (row `t` = observation at time `t`).
///
/// Columns are centred internally; `mu` restores the process mean.
///
/// Returns `Err` — and never panics — on an empty series, a series too
/// short for the requested order, non-finite values, or an invalid
/// configuration.
#[deprecated(
    since = "0.6.0",
    note = "use `uoi_core::UoiVarFitter::new(cfg).fit(series)` instead"
)]
pub fn try_fit_uoi_var(series: &Matrix, cfg: &UoiVarConfig) -> Result<UoiVarFit, UoiError> {
    if let Some(scrubbed) = cfg
        .base
        .numerical
        .prevalidate_series(series, &cfg.base.telemetry)?
    {
        validate_var_inputs(&scrubbed, cfg)?;
        return fit_inner(&scrubbed, cfg);
    }
    validate_var_inputs(series, cfg)?;
    fit_inner(series, cfg)
}

/// Input validation shared by the serial and recovering fits.
pub(crate) fn validate_var_inputs(series: &Matrix, cfg: &UoiVarConfig) -> Result<(), UoiError> {
    let (n_raw, p) = series.shape();
    if n_raw == 0 || p == 0 {
        return Err(UoiError::EmptyDesign);
    }
    cfg.validate()?;
    let d = cfg.order;
    if n_raw <= d + 4 {
        return Err(UoiError::SeriesTooShort {
            n: n_raw,
            min: d + 4,
        });
    }
    if !all_finite(series.as_slice()) {
        return Err(UoiError::NonFiniteInput("series"));
    }
    Ok(())
}

/// The shared per-fit precomputation: centred regression block, sampling
/// geometry, and lambda grid. Built identically by the serial fit and by
/// every rank of the recovering pipeline, so all downstream task bodies
/// see bit-identical inputs.
pub(crate) struct VarProblem {
    pub(crate) means: Vec<f64>,
    pub(crate) reg: VarRegression,
    pub(crate) n: usize,
    pub(crate) dp: usize,
    pub(crate) total_coef: usize,
    pub(crate) block_len: usize,
    pub(crate) lambdas: Vec<f64>,
}

pub(crate) fn build_var_problem(series: &Matrix, cfg: &UoiVarConfig) -> VarProblem {
    let (_, p) = series.shape();
    let d = cfg.order;
    let means = series.col_means();
    let mut centred = series.clone();
    centred.center_cols(&means);
    let reg = VarRegression::build(&centred, d);
    let n = reg.samples();
    let dp = d * p;
    let total_coef = dp * p;
    let block_len = cfg.block_len.unwrap_or_else(|| default_block_len(n));
    let base = &cfg.base;

    // Lambda grid: the vectorised lambda_max is max_i ||X^T Y_i||_inf.
    let mut lmax = 0.0_f64;
    for i in 0..p {
        let yi = reg.y.col(i);
        lmax = lmax.max(uoi_solvers::lambda_max(&reg.x, &yi));
    }
    let lmax = lmax.max(1e-12);
    let lambdas = geometric_grid(lmax, base.lambda_min_ratio * lmax, base.q);

    VarProblem {
        means,
        reg,
        n,
        dp,
        total_coef,
        block_len,
        lambdas,
    }
}

/// The block-bootstrap multiplicity weights of VAR selection bootstrap
/// `k` — the resampling half of [`var_selection_task`], split out so the
/// batched fit can draw every resample up front and build all Grams in
/// one pass over the regression block.
pub(crate) fn var_selection_weights(
    prob: &VarProblem,
    base: &UoiLassoConfig,
    k: usize,
) -> Vec<f64> {
    let mut rng = substream(base.seed, k as u64);
    let rows = block_bootstrap(&mut rng, prob.n, prob.n, prob.block_len);
    resample_weights(&rows, prob.n)
}

/// The solve half of [`var_selection_task`]: one shared factorisation of
/// the (upper-stored) weighted Gram, `p` column paths sharing one pass
/// over the regression block for their rhs vectors, vectorised support
/// indices.
pub(crate) fn var_selection_solve(
    prob: &VarProblem,
    base: &UoiLassoConfig,
    p: usize,
    gram: Matrix,
    w: &[f64],
    k: usize,
) -> Vec<Vec<usize>> {
    // A task that falls off the numerical fallback ladder degrades to
    // empty supports on every lambda (callers that require a payload per
    // task still complete); serial `fit_inner` uses the checked variant
    // and drops the task into the quorum accounting instead. The
    // recovering executor's ranks are already threads: one worker each.
    var_selection_solve_checked(prob, base, p, gram, w, k, 1)
        .unwrap_or_else(|| vec![Vec::new(); prob.lambdas.len()])
}

/// One lambda path per response column, fanned out over `workers`
/// threads. Each column runs on a clone of `solver` (the factorisation is
/// shared) that records into the column's own telemetry handle, so the
/// metrics merge in column order whatever the scheduling.
fn column_paths<R: Send>(
    tel: &Telemetry,
    solver: &LassoAdmm,
    xtys: &[Vec<f64>],
    workers: usize,
    path: impl Fn(&LassoAdmm, &[f64]) -> R + Sync,
) -> Vec<R> {
    let work: Vec<&[f64]> = xtys.iter().map(|v| v.as_slice()).collect();
    crate::uoi_lasso::fan_out(tel, workers, work, |tel, xty| match tel.metrics() {
        Some(m) => path(&solver.clone().with_metrics(m), xty),
        None => path(solver, xty),
    })
}

/// [`var_selection_solve`] with drop semantics: `None` means the task
/// fell off the end of the numerical fallback ladder. With resilience
/// disabled this is the historical unguarded solve and never `None`.
/// The `p` column paths fan out over `workers` threads.
pub(crate) fn var_selection_solve_checked(
    prob: &VarProblem,
    base: &UoiLassoConfig,
    p: usize,
    gram: Matrix,
    w: &[f64],
    k: usize,
    workers: usize,
) -> Option<Vec<Vec<usize>>> {
    let tel = &base.telemetry;
    let tracing = tel.tracing_enabled();
    let mut admm = base.admm.clone();
    admm.capture_curve = tracing;
    let ys: Vec<Vec<f64>> = (0..p).map(|i| prob.reg.y.col(i)).collect();
    let yrefs: Vec<&[f64]> = ys.iter().map(|v| v.as_slice()).collect();
    let xtys = gemv_t_weighted_multi(&prob.reg.x, w, &yrefs);

    // Per-column lambda paths: one shared factorisation, p solves.
    let col_sols: Vec<Vec<AdmmSolution>> = if !base.numerical.enabled {
        let solver = LassoAdmm::from_gram(gram, admm);
        column_paths(tel, &solver, &xtys, workers, |s, xty| {
            s.solve_path_with_rhs(xty, &prob.lambdas)
        })
    } else {
        let ledger = base.numerical.ledger();
        let mut solver =
            match uoi_solvers::ResilientLasso::from_gram(gram, admm, base.numerical.resilience) {
                Ok(s) => s,
                Err(e) => {
                    if let uoi_solvers::SolverError::Factorization(b) = &e {
                        ledger.note_factor(
                            &base.telemetry,
                            "selection",
                            k,
                            &uoi_solvers::FactorHealth {
                                attempts: u32::MAX,
                                jitter: b.last_jitter,
                                condest: None,
                            },
                        );
                    }
                    ledger.note_task_dropped(&base.telemetry, "selection", k, &e.to_string());
                    return None;
                }
            };
        // One shared factorisation: record its health once, then fold
        // the p column paths' divergence ledgers together (dedup by
        // lambda — several columns may trip on the same lambda). The
        // guarded paths fan out; rho restarts (rare, and cached on the
        // solver) run after the join in column order.
        ledger.note_factor(&base.telemetry, "selection", k, &solver.factor_health());
        let cap = solver.divergence_cap();
        let guarded = column_paths(tel, solver.inner(), &xtys, workers, |s, xty| {
            s.solve_path_guarded_with_rhs(xty, &prob.lambdas, cap)
        });
        let mut restarts = 0u32;
        let mut recovered = std::collections::BTreeSet::new();
        let mut diverged = std::collections::BTreeSet::new();
        let mut col_sols = Vec::with_capacity(p);
        for (xty, (out, tripped)) in xtys.iter().zip(guarded) {
            let (sols, health) = solver.recover_path(xty, &prob.lambdas, out, tripped);
            restarts += health.rho_restarts;
            recovered.extend(health.recovered);
            diverged.extend(health.diverged);
            col_sols.push(sols);
        }
        let path = uoi_solvers::PathHealth {
            rho_restarts: restarts,
            recovered: recovered.into_iter().collect(),
            diverged: diverged.into_iter().collect(),
            ..uoi_solvers::PathHealth::default()
        };
        ledger.note_path(&base.telemetry, "selection", k, &path);
        if !path.diverged.is_empty() {
            ledger.note_task_dropped(&base.telemetry, "selection", k, "divergence_unrecovered");
            return None;
        }
        col_sols
    };

    // supports[j] = vectorised support at lambda_j. A VAR selection
    // bootstrap is p column paths; the convergence record for lambda_j
    // aggregates across them: worst-case iteration count and residuals,
    // converged only when every column converged, and the residual curve
    // of the slowest column.
    let mut supports = vec![Vec::new(); prob.lambdas.len()];
    let mut aggs: Vec<(usize, bool, f64, f64, Vec<f64>)> = if tracing {
        vec![(0, true, 0.0, 0.0, Vec::new()); prob.lambdas.len()]
    } else {
        Vec::new()
    };
    for (i, sols) in col_sols.into_iter().enumerate() {
        for (j, sol) in sols.into_iter().enumerate() {
            if tracing {
                let a = &mut aggs[j];
                if i == 0 || sol.iterations > a.0 {
                    a.0 = sol.iterations;
                    a.4 = sol.curve;
                }
                a.1 &= sol.converged;
                a.2 = a.2.max(sol.primal_residual);
                a.3 = a.3.max(sol.dual_residual);
            }
            for idx in support_of(&sol.beta, base.support_tol) {
                supports[j].push(i * prob.dp + idx);
            }
        }
    }
    for s in &mut supports {
        s.sort_unstable();
    }
    if tracing {
        for (j, (iterations, converged, primal, dual, curve)) in aggs.into_iter().enumerate() {
            base.telemetry.record_with(|| TraceEvent::Convergence {
                rank: 0,
                stage: "selection",
                bootstrap: k,
                lambda_idx: j,
                lambda: prob.lambdas[j],
                iterations,
                max_iter: base.admm.max_iter,
                converged,
                primal_residual: primal,
                dual_residual: dual,
                support: supports[j].clone(),
                curve,
                t: 0.0,
            });
        }
    }
    Some(supports)
}

/// The full VAR selection task body for bootstrap `k` (Algorithm 2 lines
/// 1–13). A batch-of-one through the batched Gram engine, so it stays
/// bit-identical to the fit's multi-bootstrap path; shared with the
/// recovering pipeline, which re-executes bootstraps one at a time.
pub(crate) fn var_selection_task(
    prob: &VarProblem,
    base: &UoiLassoConfig,
    p: usize,
    k: usize,
) -> Vec<Vec<usize>> {
    let w = var_selection_weights(prob, base, k);
    let gram = uoi_linalg::gram_batch(&prob.reg.x, &[Some(w.as_slice())])
        .pop()
        .expect("batch of one")
        .into_upper();
    var_selection_solve(prob, base, p, gram, &w, k)
}

/// Union-projected estimation inputs (Algorithm 2 lines 14–30 setup):
/// the regression design gathered onto the family's union of lag columns
/// plus the family re-indexed per response column.
pub(crate) struct VarEstimationCtx {
    pub(crate) union_cols: Vec<usize>,
    pub(crate) u: usize,
    pub(crate) xu: Matrix,
    pub(crate) ys: Vec<Vec<f64>>,
    pub(crate) family_cols: Vec<Vec<Vec<usize>>>,
}

pub(crate) fn var_estimation_setup(
    support_family: &[Vec<usize>],
    prob: &VarProblem,
    p: usize,
) -> VarEstimationCtx {
    let dp = prob.dp;
    let mut union_cols: Vec<usize> = support_family.iter().flatten().map(|&s| s % dp).collect();
    union_cols.sort_unstable();
    union_cols.dedup();
    let u = union_cols.len();
    let mut col_pos = vec![usize::MAX; dp];
    for (a, &c) in union_cols.iter().enumerate() {
        col_pos[c] = a;
    }
    let xu = prob.reg.x.gather_cols(&union_cols);
    let ys: Vec<Vec<f64>> = (0..p).map(|i| prob.reg.y.col(i)).collect();
    // family_cols[f][i] = union-space support of response column i.
    let family_cols: Vec<Vec<Vec<usize>>> = support_family
        .iter()
        .map(|support| {
            let mut per_col = vec![Vec::new(); p];
            for &s in support {
                per_col[s / dp].push(col_pos[s % dp]);
            }
            per_col
        })
        .collect();
    VarEstimationCtx {
        union_cols,
        u,
        xu,
        ys,
        family_cols,
    }
}

/// The resampling half of [`var_estimation_task`]: block-bootstrap
/// multiplicity weights, out-of-bag evaluation rows, and the training row
/// count of estimation resample `k`.
pub(crate) fn var_estimation_resample(
    prob: &VarProblem,
    base: &UoiLassoConfig,
    k: usize,
) -> (Vec<f64>, Vec<usize>, usize) {
    let mut rng = substream(base.seed, 20_000 + k as u64);
    let (train_rows, eval_rows) = block_bootstrap_with_oob(&mut rng, prob.n, prob.block_len);
    let n_train = train_rows.len();
    let w = resample_weights(&train_rows, prob.n);
    (w, eval_rows, n_train)
}

/// The scoring half of [`var_estimation_task`] (Algorithm 2 lines 20–28):
/// given the (upper-stored) weighted union-Gram and per-column rhs
/// vectors, solve every candidate per-column support by sub-Gram
/// extraction, score on the out-of-bag rows, and return the winner in
/// vectorised coordinates.
#[allow(clippy::too_many_arguments)]
pub(crate) fn var_estimation_score(
    ctx: &VarEstimationCtx,
    prob: &VarProblem,
    base: &UoiLassoConfig,
    p: usize,
    gram_u: &Matrix,
    xty_u: &[Vec<f64>],
    eval_rows: &[usize],
    n_train: usize,
    k: usize,
) -> Vec<f64> {
    let u = ctx.u;
    let mut best: Option<(f64, Vec<f64>)> = None;
    for (c, per_col) in ctx.family_cols.iter().enumerate() {
        // Column i's union-space coefficients at i*u..(i+1)*u.
        let mut beta_u = vec![0.0; p * u];
        for (i, cols) in per_col.iter().enumerate() {
            if cols.is_empty() {
                continue;
            }
            // Guarded OLS on demand: singular per-column sub-Grams climb
            // the jitter ladder and report per candidate, mirroring the
            // LASSO estimation step.
            let bi = if base.numerical.enabled {
                let (bi, health) =
                    uoi_solvers::ols_on_support_gram_health(gram_u, &xty_u[i], cols, n_train);
                if health != uoi_solvers::FactorHealth::clean() {
                    base.numerical.ledger().note_candidate_factor(
                        &base.telemetry,
                        "estimation",
                        k,
                        c,
                        &health,
                    );
                }
                bi
            } else {
                ols_on_support_gram(gram_u, &xty_u[i], cols, n_train)
            };
            beta_u[i * u..(i + 1) * u].copy_from_slice(&bi);
        }
        let mut total = 0.0;
        for i in 0..p {
            let bi = &beta_u[i * u..(i + 1) * u];
            let mut sse = 0.0;
            for &e in eval_rows {
                let d = dot(ctx.xu.row(e), bi) - ctx.ys[i][e];
                sse += d * d;
            }
            total += sse / eval_rows.len() as f64;
        }
        let loss = total / p as f64;
        if best.as_ref().is_none_or(|(l, _)| loss < *l) {
            best = Some((loss, beta_u));
        }
    }
    // Embed the winner back into vectorised coordinates.
    let mut full = vec![0.0; prob.total_coef];
    if let Some((_, bu)) = best {
        for i in 0..p {
            for (a, &c) in ctx.union_cols.iter().enumerate() {
                full[i * prob.dp + c] = bu[i * u + a];
            }
        }
    }
    full
}

/// The full VAR estimation task body for resample `k` (Algorithm 2 lines
/// 17–28). A batch-of-one through the batched Gram engine, bit-identical
/// to the fit's multi-resample path; shared with the recovering pipeline.
pub(crate) fn var_estimation_task(
    ctx: &VarEstimationCtx,
    prob: &VarProblem,
    base: &UoiLassoConfig,
    p: usize,
    k: usize,
) -> Vec<f64> {
    let (w, eval_rows, n_train) = var_estimation_resample(prob, base, k);
    let gram_u = uoi_linalg::gram_batch(&ctx.xu, &[Some(w.as_slice())])
        .pop()
        .expect("batch of one")
        .into_upper();
    let yrefs: Vec<&[f64]> = ctx.ys.iter().map(|v| v.as_slice()).collect();
    let xty_u = gemv_t_weighted_multi(&ctx.xu, &w, &yrefs);
    let full = var_estimation_score(ctx, prob, base, p, &gram_u, &xty_u, &eval_rows, n_train, k);
    crate::uoi_lasso::record_estimation_convergence(&base.telemetry, k);
    full
}

/// Average the winning vectorised estimates and derive the lag matrices
/// and process-mean term `μ = (I - Σ A_j) x̄`.
pub(crate) fn var_average(
    best_estimates: &[&Vec<f64>],
    total_coef: usize,
    p: usize,
    d: usize,
    means: &[f64],
) -> (Vec<f64>, Vec<Matrix>, Vec<f64>) {
    let effective_b2 = best_estimates.len();
    let mut vec_beta = vec![0.0; total_coef];
    for est in best_estimates {
        for (b, e) in vec_beta.iter_mut().zip(est.iter()) {
            *b += e;
        }
    }
    for b in &mut vec_beta {
        *b /= effective_b2 as f64;
    }
    let a_mats = partition_coefficients(&vec_beta, p, d);
    // mu = (I - sum A_j) * mean.
    let mut mu = means.to_vec();
    for a in &a_mats {
        let shift = uoi_linalg::gemv(a, means);
        for (m, s) in mu.iter_mut().zip(&shift) {
            *m -= s;
        }
    }
    (vec_beta, a_mats, mu)
}

/// The validated fit body (inputs already checked).
pub(crate) fn fit_inner(series: &Matrix, cfg: &UoiVarConfig) -> Result<UoiVarFit, UoiError> {
    let (_, p) = series.shape();
    let d = cfg.order;
    let base = &cfg.base;

    let prob = build_var_problem(series, cfg);
    let means = prob.means.clone();
    let total_coef = prob.total_coef;
    let block_len = prob.block_len;
    let lambdas = prob.lambdas.clone();

    // Degraded-mode / checkpoint machinery (mirrors `uoi_lasso`; the
    // "var_" stage prefix keeps the two algorithms' checkpoints apart).
    let plan = base.degradation.plan.as_ref();
    let store = match &base.checkpoint {
        Some(ck) => {
            let words = [
                base.seed,
                base.q as u64,
                base.lambda_min_ratio.to_bits(),
                base.support_tol.to_bits(),
                base.admm.rho.to_bits(),
                base.admm.max_iter as u64,
                base.admm.abstol.to_bits(),
                base.admm.reltol.to_bits(),
                d as u64,
                block_len as u64,
                series.rows() as u64,
                series.cols() as u64,
            ];
            let fp = fingerprint(words.into_iter().chain(data_words(series.as_slice())));
            Some(CheckpointStore::open(&ck.dir, fp)?.with_telemetry(&base.telemetry))
        }
        None => None,
    };
    let budget = base
        .checkpoint
        .as_ref()
        .and_then(|ck| ck.abort_after)
        .map(|k| AtomicI64::new(k as i64));
    let interrupted = AtomicBool::new(false);
    let computed = AtomicUsize::new(0);
    let reserve = || match &budget {
        None => true,
        Some(b) => {
            if b.fetch_sub(1, Ordering::SeqCst) > 0 {
                true
            } else {
                interrupted.store(true, Ordering::SeqCst);
                false
            }
        }
    };

    // --- Model selection (Algorithm 2 lines 1-13). ---
    // Per bootstrap: one shared factorisation, p column paths. The block
    // bootstrap also yields integer row multiplicities, so the resampled
    // regression block is never materialised — one weighted dp x dp Gram
    // and p weighted rhs vectors replace the gather. Bootstraps are first
    // triaged (fault plan, checkpoint, budget), then every surviving Gram
    // is built in ONE pass over the regression block by the batched
    // engine. The bootstraps then run one after another, each fanning its
    // p column paths out over `admm.threads` workers: one bootstrap's
    // column solutions are live at a time.
    let selection_results: Vec<Option<Vec<Vec<usize>>>> =
        crate::uoi_lasso::traced(&base.telemetry, "uoi_var.selection", || {
            let mut slots: Vec<Option<Vec<Vec<usize>>>> = (0..base.b1).map(|_| None).collect();
            let mut to_compute: Vec<usize> = Vec::new();
            for k in 0..base.b1 {
                if plan.is_some_and(|pl| pl.selection_failed(k)) {
                    base.telemetry
                        .incr("uoi_var.degraded.selection_failures", 1);
                    continue;
                }
                if let Some(st) = &store {
                    if let Some(loaded) = st.load_supports("var_sel", k, lambdas.len()) {
                        base.telemetry.incr("uoi_var.ckpt.selection_hits", 1);
                        slots[k] = Some(loaded);
                        continue;
                    }
                }
                if reserve() {
                    to_compute.push(k);
                }
            }
            let weights: Vec<Vec<f64>> = to_compute
                .iter()
                .map(|&k| var_selection_weights(&prob, base, k))
                .collect();
            let wopts: Vec<Option<&[f64]>> = weights.iter().map(|w| Some(w.as_slice())).collect();
            let workers = base.admm.threads;
            let grams = uoi_linalg::gram_batch_par(&prob.reg.x, &wopts, workers);
            for (k, (w, gram)) in to_compute.into_iter().zip(weights.into_iter().zip(grams)) {
                let supports =
                    var_selection_solve_checked(&prob, base, p, gram.into_upper(), &w, k, workers);
                if let (Some(st), Some(sup)) = (&store, &supports) {
                    st.save_supports("var_sel", k, sup)?;
                }
                computed.fetch_add(1, Ordering::SeqCst);
                slots[k] = supports;
            }
            Ok::<_, UoiError>(slots)
        })?;
    if interrupted.load(Ordering::SeqCst) {
        return Err(UoiError::Interrupted {
            completed: computed.load(Ordering::SeqCst),
        });
    }
    let supports_by_bootstrap: Vec<&Vec<Vec<usize>>> = selection_results.iter().flatten().collect();
    let effective_b1 = supports_by_bootstrap.len();
    base.degradation
        .check_quorum("selection", effective_b1, base.b1)?;

    let needed = crate::uoi_lasso::required_votes(base.intersection_frac, effective_b1);
    let supports_per_lambda = crate::uoi_lasso::intersect_per_lambda(
        &supports_by_bootstrap,
        lambdas.len(),
        total_coef,
        needed,
    );
    let support_family = dedup_family(supports_per_lambda.clone());

    base.telemetry
        .incr("uoi_var.selection.bootstraps", effective_b1 as u64);
    for s in &supports_per_lambda {
        base.telemetry
            .observe("uoi_var.selection.support_size", s.len() as f64);
    }
    base.telemetry
        .gauge("uoi_var.selection.family_size", support_family.len() as f64);

    // --- Model estimation (lines 14-30). ---
    // Gram-space scoring: the family only touches the union of its lag
    // columns, so the regression design is projected onto that union once;
    // each resample builds one weighted union-Gram plus p rhs vectors and
    // every candidate is solved/scored by sub-Gram extraction, with no
    // train/eval row gathering.
    let est_ctx = var_estimation_setup(&support_family, &prob, p);

    // Fold the candidate family into the estimation stage name so a
    // family change (different B1 or fault plan) invalidates the cache.
    let est_stage = store.as_ref().map(|_| {
        let fam_words = support_family
            .iter()
            .flat_map(|s| std::iter::once(s.len() as u64).chain(s.iter().map(|&f| f as u64)));
        format!("var_est_{:016x}", fingerprint(fam_words))
    });

    let est_results: Vec<Option<Vec<f64>>> =
        crate::uoi_lasso::traced(&base.telemetry, "uoi_var.estimation", || {
            let mut slots: Vec<Option<Vec<f64>>> = (0..base.b2).map(|_| None).collect();
            let mut to_compute: Vec<usize> = Vec::new();
            for k in 0..base.b2 {
                if plan.is_some_and(|pl| pl.estimation_failed(k)) {
                    base.telemetry
                        .incr("uoi_var.degraded.estimation_failures", 1);
                    continue;
                }
                if let (Some(st), Some(stage)) = (&store, &est_stage) {
                    if let Some(loaded) = st.load_coeffs(stage, k, total_coef) {
                        base.telemetry.incr("uoi_var.ckpt.estimation_hits", 1);
                        slots[k] = Some(loaded);
                        continue;
                    }
                }
                if reserve() {
                    to_compute.push(k);
                }
            }
            let resamples: Vec<_> = to_compute
                .iter()
                .map(|&k| var_estimation_resample(&prob, base, k))
                .collect();
            let wopts: Vec<Option<&[f64]>> = resamples
                .iter()
                .map(|(w, _, _)| Some(w.as_slice()))
                .collect();
            let grams = uoi_linalg::gram_batch_par(&est_ctx.xu, &wopts, base.admm.threads);
            let work: Vec<_> = to_compute
                .into_iter()
                .zip(resamples.into_iter().zip(grams))
                .collect();
            let solved = crate::uoi_lasso::fan_out_tasks(
                base,
                work,
                |base, (k, ((w, eval_rows, n_train), gram))| {
                    let gram_u = gram.into_upper();
                    let yrefs: Vec<&[f64]> = est_ctx.ys.iter().map(|v| v.as_slice()).collect();
                    let xty_u = gemv_t_weighted_multi(&est_ctx.xu, &w, &yrefs);
                    let full = var_estimation_score(
                        &est_ctx, &prob, base, p, &gram_u, &xty_u, &eval_rows, n_train, k,
                    );
                    crate::uoi_lasso::record_estimation_convergence(&base.telemetry, k);
                    if let (Some(st), Some(stage)) = (&store, &est_stage) {
                        st.save_coeffs(stage, k, &full)?;
                    }
                    computed.fetch_add(1, Ordering::SeqCst);
                    Ok((k, full))
                },
            )
            .into_iter()
            .collect::<Result<Vec<_>, UoiError>>()?;
            for (k, full) in solved {
                slots[k] = Some(full);
            }
            Ok::<_, UoiError>(slots)
        })?;
    if interrupted.load(Ordering::SeqCst) {
        return Err(UoiError::Interrupted {
            completed: computed.load(Ordering::SeqCst),
        });
    }
    let best_estimates: Vec<&Vec<f64>> = est_results.iter().flatten().collect();
    let effective_b2 = best_estimates.len();
    base.degradation
        .check_quorum("estimation", effective_b2, base.b2)?;

    let (vec_beta, a_mats, mu) = var_average(&best_estimates, total_coef, p, d, &means);

    base.telemetry
        .incr("uoi_var.estimation.bootstraps", effective_b2 as u64);
    base.telemetry.gauge(
        "uoi_var.nnz",
        vec_beta.iter().filter(|v| v.abs() > 0.0).count() as f64,
    );

    let degradation = plan.map(|pl| DegradationReport {
        b1_planned: base.b1,
        b1_effective: effective_b1,
        b2_planned: base.b2,
        b2_effective: effective_b2,
        failed_selection: (0..base.b1).filter(|&k| pl.selection_failed(k)).collect(),
        failed_estimation: (0..base.b2).filter(|&k| pl.estimation_failed(k)).collect(),
        quorum_votes: needed,
        min_quorum_frac: base.degradation.min_quorum_frac,
    });

    Ok(UoiVarFit {
        a_mats,
        mu,
        vec_beta,
        lambdas,
        supports_per_lambda,
        support_family,
        degradation,
        recovery: None,
        speculation: None,
        numerical: base
            .numerical
            .active()
            .then(|| base.numerical.ledger().drain_report()),
    })
}

/// Support-restricted OLS on the vectorised VAR problem, exploiting the
/// per-column decomposition: support indices `i*dp + j` select columns
/// `j` of `X` for response column `i`. Retained as the design-space
/// reference for the Gram-space estimation loop.
#[cfg(test)]
pub(crate) fn var_ols_on_support(
    reg: &VarRegression,
    support: &[usize],
    p: usize,
    dp: usize,
) -> Vec<f64> {
    let mut beta = vec![0.0; dp * p];
    // Split support by response column.
    let mut per_col: Vec<Vec<usize>> = vec![Vec::new(); p];
    for &s in support {
        per_col[s / dp].push(s % dp);
    }
    for (i, cols) in per_col.iter().enumerate() {
        if cols.is_empty() {
            continue;
        }
        let yi = reg.y.col(i);
        let bi = uoi_solvers::ols_on_support(&reg.x, &yi, cols);
        beta[i * dp..(i + 1) * dp].copy_from_slice(&bi);
    }
    beta
}

/// Total mean-squared prediction error of a vectorised estimate on a
/// regression block (the `L(beta, E^k)` of Algorithm 2 line 25).
#[cfg(test)]
pub(crate) fn var_loss(reg: &VarRegression, vec_beta: &[f64], p: usize, dp: usize) -> f64 {
    let mut total = 0.0;
    for i in 0..p {
        let yi = reg.y.col(i);
        let bi = &vec_beta[i * dp..(i + 1) * dp];
        total += uoi_linalg::mse(&reg.x, bi, &yi);
    }
    total / p as f64
}

/// Block bootstrap with out-of-bag evaluation rows (falling back to a
/// temporal split when the resample covers everything).
pub(crate) fn block_bootstrap_with_oob(
    rng: &mut rand::rngs::StdRng,
    n: usize,
    block_len: usize,
) -> (Vec<usize>, Vec<usize>) {
    let train = block_bootstrap(rng, n, n, block_len);
    let mut in_train = vec![false; n];
    for &i in &train {
        in_train[i] = true;
    }
    let eval: Vec<usize> = (0..n).filter(|&i| !in_train[i]).collect();
    if eval.len() < 2 {
        let cut = (2 * n / 3).max(1);
        ((0..cut).collect(), (cut..n).collect())
    } else {
        (train, eval)
    }
}

/// The pre-zero-copy reference fit: materialises every block-bootstrap
/// regression with `gather` and scores in design space. Kept as the
/// equivalence oracle for the weighted-Gram fast path.
#[cfg(test)]
pub(crate) fn fit_inner_materialized(series: &Matrix, cfg: &UoiVarConfig) -> UoiVarFit {
    let (_, p) = series.shape();
    let d = cfg.order;

    let means = series.col_means();
    let mut centred = series.clone();
    centred.center_cols(&means);

    let reg = VarRegression::build(&centred, d);
    let n = reg.samples();
    let dp = d * p;
    let total_coef = dp * p;
    let block_len = cfg.block_len.unwrap_or_else(|| default_block_len(n));
    let base = &cfg.base;

    let mut lmax = 0.0_f64;
    for i in 0..p {
        let yi = reg.y.col(i);
        lmax = lmax.max(uoi_solvers::lambda_max(&reg.x, &yi));
    }
    let lmax = lmax.max(1e-12);
    let lambdas = geometric_grid(lmax, base.lambda_min_ratio * lmax, base.q);

    let supports_by_bootstrap: Vec<Vec<Vec<usize>>> = (0..base.b1)
        .map(|k| {
            let mut rng = substream(base.seed, k as u64);
            let rows = block_bootstrap(&mut rng, n, n, block_len);
            let boot = reg.gather(&rows);
            let solver = LassoAdmm::new(boot.x.clone(), base.admm.clone());
            let mut supports = vec![Vec::new(); lambdas.len()];
            for i in 0..p {
                let yi = boot.y.col(i);
                for (j, sol) in solver.solve_path(&yi, &lambdas).into_iter().enumerate() {
                    for idx in support_of(&sol.beta, base.support_tol) {
                        supports[j].push(i * dp + idx);
                    }
                }
            }
            for s in &mut supports {
                s.sort_unstable();
            }
            supports
        })
        .collect();

    let needed = crate::uoi_lasso::required_votes(base.intersection_frac, base.b1);
    let supports_per_lambda: Vec<Vec<usize>> = (0..lambdas.len())
        .map(|j| {
            if needed == base.b1 {
                let per_k: Vec<Vec<usize>> = supports_by_bootstrap
                    .iter()
                    .map(|sk| sk[j].clone())
                    .collect();
                intersect_many(&per_k)
            } else {
                let mut votes = vec![0usize; total_coef];
                for sk in &supports_by_bootstrap {
                    for &f in &sk[j] {
                        votes[f] += 1;
                    }
                }
                (0..total_coef).filter(|&f| votes[f] >= needed).collect()
            }
        })
        .collect();
    let support_family = dedup_family(supports_per_lambda.clone());

    let best_estimates: Vec<Vec<f64>> = (0..base.b2)
        .map(|k| {
            let mut rng = substream(base.seed, 20_000 + k as u64);
            let (train_rows, eval_rows) = block_bootstrap_with_oob(&mut rng, n, block_len);
            let train = reg.gather(&train_rows);
            let eval = reg.gather(&eval_rows);

            let mut best: Option<(f64, Vec<f64>)> = None;
            for support in &support_family {
                let beta = var_ols_on_support(&train, support, p, dp);
                let loss = var_loss(&eval, &beta, p, dp);
                if best.as_ref().is_none_or(|(l, _)| loss < *l) {
                    best = Some((loss, beta));
                }
            }
            best.map(|(_, b)| b)
                .unwrap_or_else(|| vec![0.0; total_coef])
        })
        .collect();

    let mut vec_beta = vec![0.0; total_coef];
    for est in &best_estimates {
        for (b, e) in vec_beta.iter_mut().zip(est) {
            *b += e;
        }
    }
    for b in &mut vec_beta {
        *b /= base.b2 as f64;
    }

    let a_mats = partition_coefficients(&vec_beta, p, d);
    let mut mu = means.clone();
    for a in &a_mats {
        let shift = uoi_linalg::gemv(a, &means);
        for (m, s) in mu.iter_mut().zip(&shift) {
            *m -= s;
        }
    }

    UoiVarFit {
        a_mats,
        mu,
        vec_beta,
        lambdas,
        supports_per_lambda,
        support_family,
        degradation: None,
        recovery: None,
        speculation: None,
        // The materialised reference path never arms the guards.
        numerical: None,
    }
}

#[cfg(test)]
// Exercises the deprecated free-function fit surface on purpose: these
// tests pin its behaviour for as long as the wrappers exist.
#[allow(deprecated)]
mod tests {
    use super::*;
    use crate::metrics::SelectionCounts;
    use uoi_data::{VarConfig, VarProcess};
    use uoi_solvers::AdmmConfig;

    fn quick_cfg() -> UoiVarConfig {
        UoiVarConfig {
            order: 1,
            block_len: None,
            base: UoiLassoConfig {
                b1: 6,
                b2: 6,
                q: 10,
                // With the data-scaled ADMM penalty the small-lambda
                // solves truly converge (dense supports), so the grid
                // stops before the near-saturated tail that would flood
                // the candidate family with false positives.
                lambda_min_ratio: 5e-2,
                admm: AdmmConfig {
                    max_iter: 600,
                    ..Default::default()
                },
                support_tol: 1e-7,
                seed: 11,
                ..Default::default()
            },
        }
    }

    fn truth_support(proc: &VarProcess) -> Vec<usize> {
        // Vectorised support of the true coefficients.
        let v = crate::var_matrices::flatten_coefficients(&proc.coeffs);
        v.iter()
            .enumerate()
            .filter(|(_, x)| x.abs() > 0.0)
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn recovers_sparse_var_network() {
        let proc = VarProcess::generate(&VarConfig {
            p: 10,
            order: 1,
            density: 0.12,
            target_radius: 0.65,
            noise_std: 1.0,
            seed: 5,
        });
        let series = proc.simulate(800, 100, 9);
        let fit = fit_uoi_var(&series, &quick_cfg());
        let truth = truth_support(&proc);
        let recovered: Vec<usize> = fit
            .vec_beta
            .iter()
            .enumerate()
            .filter(|(_, v)| v.abs() > 1e-7)
            .map(|(i, _)| i)
            .collect();
        let counts = SelectionCounts::compare(&recovered, &truth, 100);
        assert!(
            counts.recall() > 0.6,
            "recall {} (tp {} fn {})",
            counts.recall(),
            counts.true_positives,
            counts.false_negatives
        );
        assert!(
            counts.false_positive_rate() < 0.12,
            "FPR {}",
            counts.false_positive_rate()
        );
    }

    #[test]
    fn estimates_close_to_truth_on_recovered_edges() {
        let proc = VarProcess::generate(&VarConfig {
            p: 8,
            order: 1,
            density: 0.15,
            target_radius: 0.6,
            noise_std: 0.8,
            seed: 21,
        });
        let series = proc.simulate(1200, 100, 2);
        let fit = fit_uoi_var(&series, &quick_cfg());
        let a_true = &proc.coeffs[0];
        let a_hat = &fit.a_mats[0];
        for i in 0..8 {
            for j in 0..8 {
                if a_true[(i, j)] != 0.0 && a_hat[(i, j)] != 0.0 {
                    assert!(
                        (a_true[(i, j)] - a_hat[(i, j)]).abs() < 0.2,
                        "A[{i},{j}]: {} vs {}",
                        a_hat[(i, j)],
                        a_true[(i, j)]
                    );
                }
            }
        }
    }

    #[test]
    fn var2_fit_shapes() {
        let proc = VarProcess::generate(&VarConfig {
            p: 6,
            order: 2,
            density: 0.1,
            target_radius: 0.6,
            noise_std: 1.0,
            seed: 8,
        });
        let series = proc.simulate(600, 100, 3);
        let cfg = UoiVarConfig {
            order: 2,
            ..quick_cfg()
        };
        let fit = fit_uoi_var(&series, &cfg);
        assert_eq!(fit.a_mats.len(), 2);
        assert_eq!(fit.a_mats[0].shape(), (6, 6));
        assert_eq!(fit.vec_beta.len(), 2 * 36);
        assert_eq!(fit.mu.len(), 6);
    }

    #[test]
    fn zero_copy_var_fit_matches_materialized_reference() {
        let proc = VarProcess::generate(&VarConfig {
            p: 8,
            order: 1,
            density: 0.1,
            seed: 13,
            ..Default::default()
        });
        let series = proc.simulate(500, 50, 5);
        let fast = fit_uoi_var(&series, &quick_cfg());
        let reference = fit_inner_materialized(&series, &quick_cfg());
        assert_eq!(fast.supports_per_lambda, reference.supports_per_lambda);
        assert_eq!(fast.support_family, reference.support_family);
        for (a, b) in fast.vec_beta.iter().zip(&reference.vec_beta) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
        for (a, b) in fast.mu.iter().zip(&reference.mu) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn deterministic_and_network_extraction() {
        let proc = VarProcess::generate(&VarConfig {
            p: 8,
            order: 1,
            density: 0.1,
            seed: 13,
            ..Default::default()
        });
        let series = proc.simulate(500, 50, 5);
        let a = fit_uoi_var(&series, &quick_cfg());
        let b = fit_uoi_var(&series, &quick_cfg());
        assert_eq!(a.vec_beta, b.vec_beta);
        let net = a.network(0.0);
        assert_eq!(net.p, 8);
        assert_eq!(net.edge_count(), a.nnz());
    }

    #[test]
    fn forecast_shapes_and_stability() {
        let proc = VarProcess::generate(&VarConfig {
            p: 6,
            order: 1,
            density: 0.2,
            target_radius: 0.6,
            seed: 41,
            ..Default::default()
        });
        let series = proc.simulate(600, 50, 42);
        let fit = fit_uoi_var(&series, &quick_cfg());
        let fc = fit.forecast(&series, 20);
        assert_eq!(fc.shape(), (20, 6));
        assert!(fc.max_abs() < 100.0, "forecast must not explode");
        // One-step MSE on held-out data beats the naive zero predictor
        // (variance of the series).
        let holdout = proc.simulate(300, 650, 43);
        let mse_fit = fit.one_step_mse(&holdout);
        let var: f64 = holdout.as_slice().iter().map(|v| v * v).sum::<f64>() / holdout.len() as f64;
        assert!(
            mse_fit < var,
            "one-step MSE {mse_fit} vs series variance {var}"
        );
    }

    #[test]
    fn order_selection_finds_true_order() {
        // VAR(2) data: BIC should pick d = 2 over 1 and 3.
        let proc = VarProcess::generate(&VarConfig {
            p: 5,
            order: 2,
            density: 0.25,
            target_radius: 0.7,
            noise_std: 1.0,
            seed: 47,
        });
        let series = proc.simulate(1500, 100, 48);
        assert_eq!(select_var_order(&series, 4), 2);
        // VAR(1) data: picks 1.
        let proc1 = VarProcess::generate(&VarConfig {
            p: 5,
            order: 1,
            density: 0.3,
            target_radius: 0.7,
            noise_std: 1.0,
            seed: 49,
        });
        let series1 = proc1.simulate(1500, 100, 50);
        assert_eq!(select_var_order(&series1, 4), 1);
    }

    #[test]
    fn sparser_than_dense_ols() {
        // The UoI fit must be much sparser than unregularised OLS (which
        // is fully dense) while keeping predictive loss comparable.
        let proc = VarProcess::generate(&VarConfig {
            p: 10,
            order: 1,
            density: 0.1,
            seed: 4,
            ..Default::default()
        });
        let series = proc.simulate(700, 50, 6);
        let fit = fit_uoi_var(&series, &quick_cfg());
        assert!(
            fit.nnz() < 40,
            "UoI should select a sparse network, got {} nonzeros",
            fit.nnz()
        );
    }
}
