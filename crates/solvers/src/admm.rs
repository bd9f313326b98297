//! Serial LASSO via the Alternating Direction Method of Multipliers
//! (Boyd et al. 2011, §6.4) — the `Solve` step of the UoI Map-Solve-Reduce
//! structure (paper §II-C, eq. 5).
//!
//! Minimises `1/2 ||y - X b||^2 + lambda ||b||_1` by splitting
//! `f(x) = 1/2 ||y - X x||^2`, `g(z) = lambda ||z||_1`, `x - z = 0`:
//!
//! ```text
//! x^{k+1} = (X^T X + rho I)^{-1} (X^T y + rho (z^k - u^k))
//! z^{k+1} = S_{lambda/rho}(x^{k+1} + u^k)
//! u^{k+1} = u^k + x^{k+1} - z^{k+1}
//! ```
//!
//! The LHS of the x-update is fixed across iterations *and* across lambda
//! values, so its Cholesky factorisation is computed once per design
//! matrix and cached — with the matrix-inversion-lemma (Woodbury) form
//! factoring the `n x n` system when `p > n`, as is typical for the
//! bootstrap resamples of high-dimensional problems. Setting `lambda = 0`
//! turns the z-update into the identity and the iteration converges to
//! OLS, exactly how the paper implements model estimation (§II-C).

use crate::prox::soft_threshold_vec;
use crate::resilience::FactorHealth;
use std::sync::Arc;
use uoi_linalg::{
    factor_upper_jittered, gemv, gemv_into, gemv_t, gemv_t_into, kernels, norm2, norm2_diff,
    norm2_scaled, norm2_scaled_diff, Cholesky, FactorBreakdown, JitterLadder, Matrix,
};
use uoi_telemetry::MetricsRegistry;

/// A configuration value failed validation (builder `build()` or a
/// `validate()` call). Carries a human-readable description of the
/// offending field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidConfig(pub String);

impl std::fmt::Display for InvalidConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid configuration: {}", self.0)
    }
}

impl std::error::Error for InvalidConfig {}

/// How a lambda-path entry point schedules its per-lambda solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PathSchedule {
    /// Solve the path largest-lambda-first, warm-starting each lambda from
    /// the previous one's `z`. This is the historical behaviour and the
    /// default; with `threads = 1` it reproduces today's numbers bit for
    /// bit.
    #[default]
    Sequential,
    /// Solve every lambda in lockstep from a cold start, fusing the
    /// per-iteration triangular solves of all still-active lambdas into one
    /// multi-RHS substitution over the shared Cholesky factor. Each
    /// lambda's iterates are bit-identical to its own cold
    /// [`LassoAdmm::solve_with_rhs`] — but *not* to the warm-started
    /// `Sequential` path, which couples lambdas through the carried `z`.
    Fused,
}

/// ADMM hyperparameters.
#[derive(Debug, Clone)]
pub struct AdmmConfig {
    /// Augmented-Lagrangian penalty multiplier. The penalty actually
    /// used by a solve is `rho` times the mean diagonal of the Gram
    /// matrix (clamped to at least 1), so `rho` is dimensionless and the
    /// default of 1 is well-conditioned for unnormalised designs whose
    /// Gram diagonal grows like `n * var`.
    pub rho: f64,
    /// Iteration cap.
    pub max_iter: usize,
    /// Absolute tolerance (Boyd eq. 3.12 scaling).
    pub abstol: f64,
    /// Relative tolerance.
    pub reltol: f64,
    /// In-rank worker count. The serial UoI pipelines fan their
    /// independent tasks (Gram bands, selection bootstraps, estimation
    /// resamples, VAR column paths) out over this many OS threads
    /// (`uoi_linalg::par`); the dist and recovering executors keep one
    /// worker per rank, and a solver's own loops always run on the
    /// calling thread. The modeled clock charges a lockstep round as
    /// `ceil(active / threads)` fused iterations
    /// ([`lockstep_round_charges`]); `1` (the default) reproduces
    /// per-column charging exactly. Numerical results never depend on
    /// this value: every task has one owner and results are combined in
    /// task order.
    pub threads: usize,
    /// Lambda-path schedule; see [`PathSchedule`].
    pub schedule: PathSchedule,
    /// Record the per-iteration primal-residual curve of each solve
    /// and return it (decimated to [`CURVE_MAX_POINTS`] samples) in
    /// [`AdmmSolution::curve`]. Off by default: capture is the only
    /// part of the solve that allocates per iteration, and the
    /// telemetry layer enables it only when a trace sink is installed.
    /// Never affects iterates or convergence decisions.
    pub capture_curve: bool,
}

impl Default for AdmmConfig {
    fn default() -> Self {
        Self {
            rho: 1.0,
            max_iter: 500,
            abstol: 1e-6,
            reltol: 1e-5,
            threads: 1,
            schedule: PathSchedule::Sequential,
            capture_curve: false,
        }
    }
}

impl AdmmConfig {
    /// Start a validated builder:
    /// `AdmmConfig::builder().rho(2.0).max_iter(1000).build()?`.
    pub fn builder() -> AdmmConfigBuilder {
        AdmmConfigBuilder::default()
    }

    /// Check every field; `Err` names the first offending one.
    pub fn validate(&self) -> Result<(), InvalidConfig> {
        if !(self.rho.is_finite() && self.rho > 0.0) {
            return Err(InvalidConfig(format!(
                "rho must be finite and > 0, got {}",
                self.rho
            )));
        }
        if self.max_iter == 0 {
            return Err(InvalidConfig("max_iter must be >= 1".to_string()));
        }
        if !(self.abstol.is_finite() && self.abstol > 0.0) {
            return Err(InvalidConfig(format!(
                "abstol must be finite and > 0, got {}",
                self.abstol
            )));
        }
        if !(self.reltol.is_finite() && self.reltol > 0.0) {
            return Err(InvalidConfig(format!(
                "reltol must be finite and > 0, got {}",
                self.reltol
            )));
        }
        if self.threads == 0 {
            return Err(InvalidConfig("threads must be >= 1".to_string()));
        }
        Ok(())
    }
}

/// Chainable builder for [`AdmmConfig`]; `build()` validates.
#[derive(Debug, Clone, Default)]
pub struct AdmmConfigBuilder {
    cfg: AdmmConfig,
}

impl AdmmConfigBuilder {
    pub fn rho(mut self, rho: f64) -> Self {
        self.cfg.rho = rho;
        self
    }

    pub fn max_iter(mut self, max_iter: usize) -> Self {
        self.cfg.max_iter = max_iter;
        self
    }

    pub fn abstol(mut self, abstol: f64) -> Self {
        self.cfg.abstol = abstol;
        self
    }

    pub fn reltol(mut self, reltol: f64) -> Self {
        self.cfg.reltol = reltol;
        self
    }

    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.threads = threads;
        self
    }

    pub fn schedule(mut self, schedule: PathSchedule) -> Self {
        self.cfg.schedule = schedule;
        self
    }

    pub fn capture_curve(mut self, capture: bool) -> Self {
        self.cfg.capture_curve = capture;
        self
    }

    pub fn build(self) -> Result<AdmmConfig, InvalidConfig> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// Outcome of an ADMM solve.
#[derive(Debug, Clone)]
pub struct AdmmSolution {
    /// The (exactly sparse) consensus iterate `z`.
    pub beta: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Final primal residual `||x - z||`.
    pub primal_residual: f64,
    /// Final dual residual `||rho (z - z_prev)||`.
    pub dual_residual: f64,
    /// Whether both residuals met tolerance before the cap.
    pub converged: bool,
    /// Per-iteration primal residuals, decimated to at most
    /// [`CURVE_MAX_POINTS`] samples. Empty unless
    /// [`AdmmConfig::capture_curve`] was set.
    pub curve: Vec<f64>,
}

/// Residual curves returned in [`AdmmSolution::curve`] are decimated
/// to at most this many samples (endpoints kept exactly).
pub const CURVE_MAX_POINTS: usize = 32;

/// Decimate a residual curve to at most `max_points` samples by even
/// index striding; the first and last samples are always kept, so the
/// starting residual and the converged residual survive verbatim.
pub fn decimate_curve(curve: &[f64], max_points: usize) -> Vec<f64> {
    let max_points = max_points.max(2);
    if curve.len() <= max_points {
        return curve.to_vec();
    }
    let n = curve.len();
    (0..max_points)
        .map(|i| curve[i * (n - 1) / (max_points - 1)])
        .collect()
}

pub(crate) enum Factorization {
    /// `p <= n`: Cholesky of `X^T X + rho I` (p x p).
    Primal(Cholesky),
    /// `p > n`: Cholesky of `rho I + X X^T` (n x n), applied via
    /// `(X^T X + rho I)^{-1} v = v/rho - X^T ( (rho I + X X^T)^{-1} X v ) / rho`.
    Woodbury(Cholesky),
}

/// The effective ADMM penalty for a problem whose Gram diagonal sums to
/// `diag_sum` over `p` coefficients. The configured `rho` acts as a
/// dimensionless multiplier of the mean Gram diagonal (clamped to at
/// least 1), so the splitting is matched to the data's scale: an
/// unnormalised design with Gram diagonal ~ `n * var` converges in the
/// same iteration count as a standardised one, instead of stalling
/// against the iteration cap with an absolute `rho` that is orders of
/// magnitude off.
pub(crate) fn effective_rho(cfg_rho: f64, diag_sum: f64, p: usize) -> f64 {
    if p == 0 {
        return cfg_rho;
    }
    cfg_rho * (diag_sum / p as f64).max(1.0)
}

/// Factor the ADMM x-update system for a given design and penalty.
///
/// Breakdown (a rank-deficient system that even the `rho` ridge leaves
/// numerically non-SPD) is defended by the deterministic jitter ladder:
/// the plain factorisation is attempted first, so clean inputs are
/// bit-identical to the pre-ladder behaviour.
pub(crate) fn factorize(x: &Matrix, rho: f64) -> Factorization {
    try_factorize(x, rho)
        .map(|(f, _)| f)
        .expect("ADMM system must factor (is the design non-finite?)")
}

/// Fallible [`factorize`]: the jitter ladder is walked on breakdown and
/// the consumed attempts/jitter are reported alongside the factor.
pub(crate) fn try_factorize(
    x: &Matrix,
    rho: f64,
) -> Result<(Factorization, FactorHealth), FactorBreakdown> {
    let (n, p) = x.shape();
    if p <= n {
        // Upper-stored Gram straight from the batched engine; the mirror
        // pass is skipped because the factorisation reads only the upper
        // triangle.
        let mut gram = uoi_linalg::syrk_t_upper(x).into_upper();
        for i in 0..p {
            gram[(i, i)] += rho;
        }
        let ladder = JitterLadder::for_matrix(&gram);
        let jf = factor_upper_jittered(&gram, &ladder)?;
        Ok((
            Factorization::Primal(jf.chol),
            FactorHealth {
                attempts: jf.attempts,
                jitter: jf.jitter,
                condest: None,
            },
        ))
    } else {
        let xt = x.transpose();
        let mut small = uoi_linalg::syrk_t_upper(&xt).into_upper();
        for i in 0..n {
            small[(i, i)] += rho;
        }
        let ladder = JitterLadder::for_matrix(&small);
        let jf = factor_upper_jittered(&small, &ladder)?;
        Ok((
            Factorization::Woodbury(jf.chol),
            FactorHealth {
                attempts: jf.attempts,
                jitter: jf.jitter,
                condest: None,
            },
        ))
    }
}

/// Apply `(X^T X + rho I)^{-1}` to `v` through a cached factorisation.
pub(crate) fn apply_inverse(x: &Matrix, factor: &Factorization, rho: f64, v: &[f64]) -> Vec<f64> {
    match factor {
        Factorization::Primal(ch) => ch.solve(v),
        Factorization::Woodbury(ch) => {
            let xv = gemv(x, v);
            let inner = ch.solve(&xv);
            let xt_inner = gemv_t(x, &inner);
            v.iter()
                .zip(&xt_inner)
                .map(|(vi, wi)| (vi - wi) / rho)
                .collect()
        }
    }
}

/// Reusable scratch buffers for the ADMM inner loop: once warm, an
/// iteration performs zero heap allocations. Obtain one from
/// [`LassoAdmm::workspace`] (or `Default`) and thread it through
/// [`LassoAdmm::solve_warm_with`].
#[derive(Debug, Clone, Default)]
pub struct AdmmWorkspace {
    /// x-update right-hand side (p).
    rhs: Vec<f64>,
    /// Primal iterate `x` (p).
    x_var: Vec<f64>,
    /// Previous consensus iterate (p), for the dual residual.
    z_old: Vec<f64>,
    /// Woodbury scratch: `X v` then the inner solve (n).
    wn: Vec<f64>,
    /// Woodbury scratch: `X^T inner` (p).
    wt: Vec<f64>,
    /// z-update argument `x + u` (p), fed to the vectorised prox.
    xu: Vec<f64>,
    /// Per-iteration primal residuals of the in-flight solve; only
    /// pushed to when [`AdmmConfig::capture_curve`] is set.
    curve: Vec<f64>,
}

impl AdmmWorkspace {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Scalar outcome of an in-place solve ([`LassoAdmm::solve_warm_with`]);
/// the coefficient vector is left in the caller's `z` buffer.
#[derive(Debug, Clone, Copy)]
pub struct AdmmStatus {
    /// Iterations performed.
    pub iterations: usize,
    /// Final primal residual `||x - z||`.
    pub primal_residual: f64,
    /// Final dual residual `||rho (z - z_prev)||`.
    pub dual_residual: f64,
    /// Whether both residuals met tolerance before the cap.
    pub converged: bool,
}

/// Explicit per-problem iteration state for [`LassoAdmm::step`].
#[derive(Debug, Clone)]
pub struct AdmmState {
    /// Consensus iterate (the sparse solution once converged).
    pub z: Vec<f64>,
    /// Scaled dual variable.
    pub u: Vec<f64>,
    /// Set once both residuals meet tolerance; further steps are no-ops.
    pub converged: bool,
    /// Steps taken.
    pub iterations: usize,
    /// Latest primal residual.
    pub primal_residual: f64,
    /// Latest dual residual.
    pub dual_residual: f64,
    /// Scratch reused across steps so stepping never allocates.
    scratch: AdmmWorkspace,
}

/// One column of a lockstep [`LassoAdmm::step_many`] round: a per-column
/// right-hand side and penalty plus the iteration state advanced in place.
pub struct StepTask<'a> {
    /// Precomputed `X^T y` for this column.
    pub xty: &'a [f64],
    /// L1 penalty for this column.
    pub lambda: f64,
    /// Iteration state (advanced in place; no-op once converged).
    pub state: &'a mut AdmmState,
}

/// How the solver holds its problem: a dense design matrix, or just the
/// dimensions when built from a precomputed Gram system
/// ([`LassoAdmm::from_gram`] — the zero-copy bootstrap path, where the
/// resample is only ever materialised as weighted Gram/rhs products).
enum DesignStore {
    Dense(Matrix),
    Gram { p: usize },
}

/// A LASSO-ADMM solver with cached factorisation for a fixed design.
///
/// `Clone` shares the design and the factorisation (two `Arc` bumps), so
/// concurrent column paths over one factor can each carry their own
/// metrics registry ([`LassoAdmm::with_metrics`]).
#[derive(Clone)]
pub struct LassoAdmm {
    design: Arc<DesignStore>,
    factor: Arc<Factorization>,
    cfg: AdmmConfig,
    /// Effective penalty: `cfg.rho` scaled by the mean Gram diagonal
    /// ([`effective_rho`]), fixed at construction alongside the factorisation.
    rho: f64,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl LassoAdmm {
    /// Build the solver, factoring the x-update system once. The
    /// effective penalty is `cfg.rho` times the mean Gram diagonal
    /// ([`effective_rho`]), so convergence behaviour is invariant to the
    /// overall scale of the design.
    pub fn new(x: Matrix, cfg: AdmmConfig) -> Self {
        Self::try_new(x, cfg)
            .map(|(solver, _)| solver)
            .expect("ADMM system must factor (is the design non-finite?)")
    }

    /// Fallible [`LassoAdmm::new`]: rank-deficient systems climb the
    /// deterministic jitter ladder instead of panicking, and the
    /// consumed attempts/jitter are reported. Clean designs take the
    /// plain factorisation and are bit-identical to the historical
    /// constructor (`attempts == 0`).
    pub fn try_new(x: Matrix, cfg: AdmmConfig) -> Result<(Self, FactorHealth), FactorBreakdown> {
        assert!(cfg.rho > 0.0, "rho must be positive");
        let (n, p) = x.shape();
        let (rho, factor, health) = if p <= n {
            // Form the Gram here (rather than inside `factorize`) so its
            // diagonal sets the penalty before the ridge is added — the
            // exact sequence `from_gram(syrk_t(&x), cfg)` performs, which
            // keeps the two constructors bit-identical for p <= n. The
            // upper-stored form suffices: both the ridge and the
            // factorisation touch only the upper triangle.
            let mut gram = uoi_linalg::syrk_t_upper(&x).into_upper();
            let diag_sum: f64 = (0..p).map(|i| gram[(i, i)]).sum();
            let rho = effective_rho(cfg.rho, diag_sum, p);
            for i in 0..p {
                gram[(i, i)] += rho;
            }
            let ladder = JitterLadder::for_matrix(&gram);
            let jf = factor_upper_jittered(&gram, &ladder)?;
            let health = FactorHealth {
                attempts: jf.attempts,
                jitter: jf.jitter,
                condest: None,
            };
            (rho, Factorization::Primal(jf.chol), health)
        } else {
            // Woodbury path never forms the p x p Gram; its diagonal is
            // the per-column sum of squares, i.e. the sum over every entry.
            let diag_sum: f64 = x.as_slice().iter().map(|v| v * v).sum();
            let rho = effective_rho(cfg.rho, diag_sum, p);
            let (factor, health) = try_factorize(&x, rho)?;
            (rho, factor, health)
        };
        Ok((
            Self {
                design: Arc::new(DesignStore::Dense(x)),
                factor: Arc::new(factor),
                cfg,
                rho,
                metrics: None,
            },
            health,
        ))
    }

    /// Build the solver from a precomputed Gram matrix `X^T X` (consumed;
    /// the effective penalty is added to its diagonal in place before
    /// factoring).
    ///
    /// Solves must then go through the `*_with_rhs` / [`Self::solve_warm_with`]
    /// entry points with a caller-supplied `X^T y`. For `p <= n` designs,
    /// `from_gram(syrk_t(&x), cfg)` is bit-identical to `new(x, cfg)`: the
    /// same Gram is formed, the same penalty derived from its diagonal,
    /// and the same factorisation path taken.
    ///
    /// Only the **upper** triangle (and the diagonal) of `gram` is read,
    /// so upper-stored matrices from the batched Gram engine
    /// (`uoi_linalg::gram`) can be passed directly, mirror skipped; a full
    /// symmetric matrix gives the same bits.
    pub fn from_gram(gram: Matrix, cfg: AdmmConfig) -> Self {
        Self::try_from_gram(gram, cfg)
            .map(|(solver, _)| solver)
            .expect("ADMM system must factor (is the Gram non-finite?)")
    }

    /// Fallible [`LassoAdmm::from_gram`]: singular Grams climb the
    /// deterministic jitter ladder instead of panicking. Clean Grams
    /// take the plain factorisation first and are bit-identical to the
    /// historical constructor (`attempts == 0`).
    pub fn try_from_gram(
        mut gram: Matrix,
        cfg: AdmmConfig,
    ) -> Result<(Self, FactorHealth), FactorBreakdown> {
        assert!(cfg.rho > 0.0, "rho must be positive");
        let p = gram.rows();
        assert_eq!(p, gram.cols(), "from_gram: Gram matrix must be square");
        let diag_sum: f64 = (0..p).map(|i| gram[(i, i)]).sum();
        let rho = effective_rho(cfg.rho, diag_sum, p);
        for i in 0..p {
            gram[(i, i)] += rho;
        }
        let ladder = JitterLadder::for_matrix(&gram);
        let jf = factor_upper_jittered(&gram, &ladder)?;
        Ok((
            Self {
                design: Arc::new(DesignStore::Gram { p }),
                factor: Arc::new(Factorization::Primal(jf.chol)),
                cfg,
                rho,
                metrics: None,
            },
            FactorHealth {
                attempts: jf.attempts,
                jitter: jf.jitter,
                condest: None,
            },
        ))
    }

    /// Rebuild a Gram-backed solver from an already-factored system —
    /// the rho-restart path of the resilient wrapper, which keeps the
    /// pristine Gram and refactors with an escalated penalty.
    pub(crate) fn from_factor(p: usize, chol: Cholesky, cfg: AdmmConfig, rho: f64) -> Self {
        Self {
            design: Arc::new(DesignStore::Gram { p }),
            factor: Arc::new(Factorization::Primal(chol)),
            cfg,
            rho,
            metrics: None,
        }
    }

    /// The effective (data-scaled) penalty in force; see [`effective_rho`].
    pub fn penalty(&self) -> f64 {
        self.rho
    }

    /// Attach a metrics registry; subsequent solves record
    /// `admm.solves`, `admm.iterations`, convergence outcomes,
    /// per-iteration residual curves, and lambda-path warm-start stats.
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Bookkeeping shared by every solve entry point. Besides the
    /// `admm.*` family, feeds the solver-agnostic `solver.iterations`
    /// histogram and `solver.nonconverged` counter the run-report
    /// summary and the OpenMetrics exporter surface (the counter is
    /// bumped by 0 on converged solves so it exists — and reads 0 —
    /// even on fully healthy runs).
    fn note_solve(&self, iterations: usize, converged: bool, r_norm: f64, s_norm: f64) {
        if let Some(m) = &self.metrics {
            m.incr("admm.solves", 1);
            if converged {
                m.incr("admm.converged", 1);
            } else {
                m.incr("admm.max_iter_hit", 1);
            }
            m.observe("admm.iterations", iterations as f64);
            m.observe("admm.primal_residual", r_norm);
            m.observe("admm.dual_residual", s_norm);
            m.observe("solver.iterations", iterations as f64);
            m.incr("solver.nonconverged", u64::from(!converged));
        }
    }

    /// Take the captured residual curve out of a workspace, decimated;
    /// empty when capture is off.
    fn take_curve(&self, ws: &mut AdmmWorkspace) -> Vec<f64> {
        if self.cfg.capture_curve {
            let out = decimate_curve(&ws.curve, CURVE_MAX_POINTS);
            ws.curve.clear();
            out
        } else {
            Vec::new()
        }
    }

    /// The design matrix. Panics for a solver built with
    /// [`LassoAdmm::from_gram`], which never sees the design.
    pub fn design(&self) -> &Matrix {
        self.dense()
    }

    fn dense(&self) -> &Matrix {
        match &*self.design {
            DesignStore::Dense(x) => x,
            DesignStore::Gram { .. } => {
                panic!("this solver was built from a Gram matrix and holds no design")
            }
        }
    }

    /// Number of coefficients.
    pub fn n_coefficients(&self) -> usize {
        match &*self.design {
            DesignStore::Dense(x) => x.cols(),
            DesignStore::Gram { p } => *p,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &AdmmConfig {
        &self.cfg
    }

    /// One ADMM iteration (x-, z-, u-updates and residual norms) operating
    /// entirely in caller/workspace buffers. Returns
    /// `(r_norm, s_norm, converged_now)`. Every arithmetic operation matches
    /// the historical allocating implementation in order and association, so
    /// iterates and convergence decisions are bit-identical to it.
    fn iterate(
        &self,
        xty: &[f64],
        lambda: f64,
        z: &mut [f64],
        u: &mut [f64],
        ws: &mut AdmmWorkspace,
    ) -> (f64, f64, bool) {
        self.build_rhs(xty, z, u, ws);
        self.x_update(ws);
        self.finish_iterate(lambda / self.rho, z, u, ws)
    }

    /// Iteration stage 1: the x-update right-hand side
    /// `X^T y + rho (z - u)`, built into `ws.rhs`.
    fn build_rhs(&self, xty: &[f64], z: &[f64], u: &[f64], ws: &mut AdmmWorkspace) {
        let rho = self.rho;
        ws.rhs.clear();
        ws.rhs.extend_from_slice(xty);
        for ((r, zi), ui) in ws.rhs.iter_mut().zip(z).zip(u) {
            *r += rho * (zi - ui);
        }
    }

    /// Iteration stage 2 (single-column form): apply
    /// `(X^T X + rho I)^{-1}` to `ws.rhs`, leaving the result in `ws.x_var`.
    fn x_update(&self, ws: &mut AdmmWorkspace) {
        let rho = self.rho;
        let AdmmWorkspace {
            rhs, x_var, wn, wt, ..
        } = ws;
        match &*self.factor {
            Factorization::Primal(ch) => {
                x_var.clear();
                x_var.extend_from_slice(rhs);
                ch.solve_in_place(x_var);
            }
            Factorization::Woodbury(ch) => {
                let x = self.dense();
                gemv_into(x, rhs, wn);
                ch.solve_in_place(wn);
                gemv_t_into(x, wn, wt);
                x_var.clear();
                x_var.extend(rhs.iter().zip(&*wt).map(|(vi, wi)| (vi - wi) / rho));
            }
        }
    }

    /// Iteration stage 3: z-/u-updates, residual norms (Boyd §3.3.1, fused
    /// — no r/s/rho_u temporaries), and the convergence decision, given a
    /// fresh `ws.x_var`. The vectorised prox is bit-identical to the
    /// historical scalar z-update loop (see `uoi_linalg::kernels`).
    fn finish_iterate(
        &self,
        kappa: f64,
        z: &mut [f64],
        u: &mut [f64],
        ws: &mut AdmmWorkspace,
    ) -> (f64, f64, bool) {
        let p = z.len();
        let rho = self.rho;
        let AdmmWorkspace {
            x_var,
            z_old,
            xu,
            curve,
            ..
        } = ws;

        // z-update with over-relaxation omitted (plain ADMM).
        z_old.clear();
        z_old.extend_from_slice(z);
        xu.resize(p, 0.0);
        kernels::add(x_var, u, xu);
        if kappa > 0.0 {
            kernels::soft_threshold(xu, kappa, z);
        } else {
            z.copy_from_slice(xu);
        }

        // u-update.
        for ((ui, xi), zi) in u.iter_mut().zip(&*x_var).zip(&*z) {
            *ui += xi - zi;
        }

        let r_norm = norm2_diff(x_var, z);
        let s_norm = norm2_scaled_diff(rho, z, z_old);
        if self.cfg.capture_curve {
            curve.push(r_norm);
        }
        let sqrt_p = (p as f64).sqrt();
        let eps_pri = sqrt_p * self.cfg.abstol + self.cfg.reltol * norm2(x_var).max(norm2(z));
        let eps_dual = sqrt_p * self.cfg.abstol + self.cfg.reltol * norm2_scaled(rho, u);
        (r_norm, s_norm, r_norm <= eps_pri && s_norm <= eps_dual)
    }

    /// In-place warm solve against a precomputed `X^T y`: iterates in the
    /// caller's `z`/`u` buffers (the solution is left in `z`) using `ws`
    /// scratch, performing zero heap allocations once the workspace is warm.
    pub fn solve_warm_with(
        &self,
        xty: &[f64],
        lambda: f64,
        z: &mut [f64],
        u: &mut [f64],
        ws: &mut AdmmWorkspace,
    ) -> AdmmStatus {
        self.solve_warm_guarded(xty, lambda, z, u, ws, None).0
    }

    /// [`LassoAdmm::solve_warm_with`] with a divergence tripwire: the
    /// iteration aborts (returning `diverged = true`) as soon as either
    /// residual is non-finite or exceeds `cap`. The check is a pair of
    /// comparisons per iteration — no allocations, no arithmetic on the
    /// iterates — and runs *after* the convergence test, so any solve
    /// that never trips is bit-identical to the unguarded entry point.
    pub fn solve_warm_with_guard(
        &self,
        xty: &[f64],
        lambda: f64,
        z: &mut [f64],
        u: &mut [f64],
        ws: &mut AdmmWorkspace,
        cap: f64,
    ) -> (AdmmStatus, bool) {
        self.solve_warm_guarded(xty, lambda, z, u, ws, Some(cap))
    }

    fn solve_warm_guarded(
        &self,
        xty: &[f64],
        lambda: f64,
        z: &mut [f64],
        u: &mut [f64],
        ws: &mut AdmmWorkspace,
        guard: Option<f64>,
    ) -> (AdmmStatus, bool) {
        let p = self.n_coefficients();
        assert_eq!(xty.len(), p, "rhs length mismatch");
        assert_eq!(z.len(), p);
        assert_eq!(u.len(), p);
        assert!(lambda >= 0.0);

        ws.curve.clear();
        let (mut r_norm, mut s_norm) = (f64::INFINITY, f64::INFINITY);
        let mut iterations = 0;
        let mut converged = false;
        let mut diverged = false;
        for it in 0..self.cfg.max_iter {
            iterations = it + 1;
            let (r, s, conv) = self.iterate(xty, lambda, z, u, ws);
            r_norm = r;
            s_norm = s;
            if let Some(m) = &self.metrics {
                m.observe("admm.residual_curve.primal", r_norm);
                m.observe("admm.residual_curve.dual", s_norm);
            }
            if conv {
                converged = true;
                break;
            }
            if let Some(cap) = guard {
                if !r_norm.is_finite() || !s_norm.is_finite() || r_norm > cap || s_norm > cap {
                    diverged = true;
                    break;
                }
            }
        }
        self.note_solve(iterations, converged, r_norm, s_norm);
        (
            AdmmStatus {
                iterations,
                primal_residual: r_norm,
                dual_residual: s_norm,
                converged,
            },
            diverged,
        )
    }

    /// Solve for one `lambda` from a cold start.
    pub fn solve(&self, y: &[f64], lambda: f64) -> AdmmSolution {
        let p = self.n_coefficients();
        self.solve_warm(y, lambda, vec![0.0; p], vec![0.0; p])
    }

    /// Solve for one `lambda` from a cold start against a precomputed
    /// `X^T y` (the only solve entry point a [`LassoAdmm::from_gram`]
    /// solver needs).
    pub fn solve_with_rhs(&self, xty: &[f64], lambda: f64) -> AdmmSolution {
        let p = self.n_coefficients();
        let mut z = vec![0.0; p];
        let mut u = vec![0.0; p];
        let mut ws = AdmmWorkspace::new();
        let st = self.solve_warm_with(xty, lambda, &mut z, &mut u, &mut ws);
        AdmmSolution {
            beta: z,
            iterations: st.iterations,
            primal_residual: st.primal_residual,
            dual_residual: st.dual_residual,
            converged: st.converged,
            curve: self.take_curve(&mut ws),
        }
    }

    /// Solve with warm-started `z` and `u` (the lambda-path accelerator).
    pub fn solve_warm(
        &self,
        y: &[f64],
        lambda: f64,
        mut z: Vec<f64>,
        mut u: Vec<f64>,
    ) -> AdmmSolution {
        let xty = self.prepare_rhs(y);
        let mut ws = AdmmWorkspace::new();
        let st = self.solve_warm_with(&xty, lambda, &mut z, &mut u, &mut ws);
        AdmmSolution {
            beta: z,
            iterations: st.iterations,
            primal_residual: st.primal_residual,
            dual_residual: st.dual_residual,
            converged: st.converged,
            curve: self.take_curve(&mut ws),
        }
    }

    /// Precompute the `X^T y` right-hand side reused by every
    /// [`LassoAdmm::step`] for this response.
    pub fn prepare_rhs(&self, y: &[f64]) -> Vec<f64> {
        let x = self.dense();
        assert_eq!(y.len(), x.rows(), "response length mismatch");
        gemv_t(x, y)
    }

    /// A fresh workspace (separate from any state, so several solves can
    /// interleave on one solver).
    pub fn workspace(&self) -> AdmmWorkspace {
        AdmmWorkspace::new()
    }

    /// Fresh iteration state for [`LassoAdmm::step`].
    pub fn init_state(&self) -> AdmmState {
        let p = self.n_coefficients();
        AdmmState {
            z: vec![0.0; p],
            u: vec![0.0; p],
            converged: false,
            iterations: 0,
            primal_residual: f64::INFINITY,
            dual_residual: f64::INFINITY,
            scratch: AdmmWorkspace::new(),
        }
    }

    /// One explicit ADMM iteration (x-, z-, u-updates plus convergence
    /// check), for callers that interleave iterations with communication
    /// — the distributed `UoI_VAR` solver steps many per-column problems
    /// in lockstep and allreduces between rounds. No-op once converged;
    /// allocation-free after the first step (scratch lives in the state).
    pub fn step(&self, xty: &[f64], lambda: f64, st: &mut AdmmState) {
        if st.converged {
            return;
        }
        st.iterations += 1;
        let (r_norm, s_norm, conv) = {
            let AdmmState { z, u, scratch, .. } = st;
            self.iterate(xty, lambda, z, u, scratch)
        };
        st.primal_residual = r_norm;
        st.dual_residual = s_norm;
        if conv {
            st.converged = true;
            self.note_solve(st.iterations, true, st.primal_residual, st.dual_residual);
        }
    }

    /// Advance every unconverged task one ADMM iteration in lockstep,
    /// fusing the round's triangular solves into a single multi-RHS
    /// substitution over the shared Cholesky factor (the factorisation is
    /// streamed through the cache once per round instead of once per
    /// column).
    ///
    /// Per column the arithmetic matches [`LassoAdmm::step`] in order and
    /// association, so iterates, residuals, and convergence decisions are
    /// bit-identical to stepping each task individually — only the memory
    /// schedule (and hence the constant factor) changes. See DESIGN.md §3.
    pub fn step_many(&self, tasks: &mut [StepTask<'_>]) {
        // Stage 1: rhs builds, per column.
        tasks.iter_mut().for_each(|t| {
            if t.state.converged {
                return;
            }
            t.state.iterations += 1;
            let AdmmState { z, u, scratch, .. } = &mut *t.state;
            self.build_rhs(t.xty, z, u, scratch);
        });

        // Stage 2: fused x-update across the active columns.
        match &*self.factor {
            Factorization::Primal(ch) => {
                tasks.iter_mut().for_each(|t| {
                    if t.state.converged {
                        return;
                    }
                    let AdmmWorkspace { rhs, x_var, .. } = &mut t.state.scratch;
                    x_var.clear();
                    x_var.extend_from_slice(rhs);
                });
                let mut cols: Vec<&mut [f64]> = tasks
                    .iter_mut()
                    .filter(|t| !t.state.converged)
                    .map(|t| t.state.scratch.x_var.as_mut_slice())
                    .collect();
                ch.solve_multi_in_place(&mut cols);
            }
            Factorization::Woodbury(ch) => {
                tasks.iter_mut().for_each(|t| {
                    if t.state.converged {
                        return;
                    }
                    let AdmmWorkspace { rhs, wn, .. } = &mut t.state.scratch;
                    gemv_into(self.dense(), rhs, wn);
                });
                let mut cols: Vec<&mut [f64]> = tasks
                    .iter_mut()
                    .filter(|t| !t.state.converged)
                    .map(|t| t.state.scratch.wn.as_mut_slice())
                    .collect();
                ch.solve_multi_in_place(&mut cols);
                let rho = self.rho;
                tasks.iter_mut().for_each(|t| {
                    if t.state.converged {
                        return;
                    }
                    let AdmmWorkspace {
                        rhs, x_var, wn, wt, ..
                    } = &mut t.state.scratch;
                    gemv_t_into(self.dense(), wn, wt);
                    x_var.clear();
                    x_var.extend(rhs.iter().zip(&*wt).map(|(vi, wi)| (vi - wi) / rho));
                });
            }
        }

        // Stage 3: z-/u-updates, residuals, convergence — per column.
        tasks.iter_mut().for_each(|t| {
            if t.state.converged {
                return;
            }
            let kappa = t.lambda / self.rho;
            let (r_norm, s_norm, conv) = {
                let AdmmState { z, u, scratch, .. } = &mut *t.state;
                self.finish_iterate(kappa, z, u, scratch)
            };
            t.state.primal_residual = r_norm;
            t.state.dual_residual = s_norm;
            if conv {
                t.state.converged = true;
                self.note_solve(t.state.iterations, true, r_norm, s_norm);
            }
        });
    }

    /// Solve with residual-balancing adaptive `rho` (Boyd §3.4.1):
    /// `rho` is multiplied (divided) by `tau` whenever the primal (dual)
    /// residual exceeds `mu` times the other, re-factoring the x-update
    /// system on each change (at most `max_refactors` times). Useful when
    /// the default `rho = 1` stalls on badly scaled designs.
    pub fn solve_adaptive(
        &self,
        y: &[f64],
        lambda: f64,
        mu: f64,
        tau: f64,
        max_refactors: usize,
    ) -> AdmmSolution {
        let x = self.dense();
        let (n, p) = x.shape();
        assert_eq!(y.len(), n);
        let mut rho = self.rho;
        let mut factor = factorize(x, rho);
        let mut refactors = 0usize;
        let xty = gemv_t(x, y);
        let mut z = vec![0.0; p];
        let mut u = vec![0.0; p];
        let mut z_old = vec![0.0; p];
        let mut curve_buf = Vec::new();
        let (mut r_norm, mut s_norm) = (f64::INFINITY, f64::INFINITY);
        let mut iterations = 0;
        let mut converged = false;
        for it in 0..self.cfg.max_iter {
            iterations = it + 1;
            let mut rhs = xty.clone();
            for ((r, zi), ui) in rhs.iter_mut().zip(&z).zip(&u) {
                *r += rho * (zi - ui);
            }
            let x_var = apply_inverse(x, &factor, rho, &rhs);
            z_old.copy_from_slice(&z);
            let xu: Vec<f64> = x_var.iter().zip(&u).map(|(a, b)| a + b).collect();
            soft_threshold_vec(&xu, lambda / rho, &mut z);
            for ((ui, xi), zi) in u.iter_mut().zip(&x_var).zip(&z) {
                *ui += xi - zi;
            }
            let r: Vec<f64> = x_var.iter().zip(&z).map(|(a, b)| a - b).collect();
            r_norm = norm2(&r);
            let s: Vec<f64> = z.iter().zip(&z_old).map(|(a, b)| rho * (a - b)).collect();
            s_norm = norm2(&s);
            if self.cfg.capture_curve {
                curve_buf.push(r_norm);
            }
            let sqrt_p = (p as f64).sqrt();
            let eps_pri = sqrt_p * self.cfg.abstol + self.cfg.reltol * norm2(&x_var).max(norm2(&z));
            let mut rho_u = u.clone();
            for v in &mut rho_u {
                *v *= rho;
            }
            let eps_dual = sqrt_p * self.cfg.abstol + self.cfg.reltol * norm2(&rho_u);
            if r_norm <= eps_pri && s_norm <= eps_dual {
                converged = true;
                break;
            }
            // Residual balancing. Rescaling rho requires rescaling the
            // scaled dual (u = y/rho) and refactoring the x-update.
            if refactors < max_refactors {
                let new_rho = if r_norm > mu * s_norm {
                    rho * tau
                } else if s_norm > mu * r_norm {
                    rho / tau
                } else {
                    rho
                };
                if new_rho != rho {
                    for v in &mut u {
                        *v *= rho / new_rho;
                    }
                    rho = new_rho;
                    factor = factorize(x, rho);
                    refactors += 1;
                }
            }
        }
        if let Some(m) = &self.metrics {
            m.observe("admm.adaptive.refactors", refactors as f64);
        }
        self.note_solve(iterations, converged, r_norm, s_norm);
        AdmmSolution {
            beta: z,
            iterations,
            primal_residual: r_norm,
            dual_residual: s_norm,
            converged,
            curve: decimate_curve(&curve_buf, CURVE_MAX_POINTS),
        }
    }

    /// Solve an entire lambda path (largest lambda first) with warm
    /// starts; returns one solution per lambda, in path order.
    ///
    /// With metrics attached, each path step records
    /// `admm.path.iterations`; a step counts as a *warm-start hit*
    /// (`admm.path.warm_hits`) when it converges in no more iterations
    /// than the cold first step did.
    pub fn solve_path(&self, y: &[f64], lambdas: &[f64]) -> Vec<AdmmSolution> {
        // X^T y is shared by the whole path: compute it once per
        // (design, response), not once per lambda.
        let xty = self.prepare_rhs(y);
        self.solve_path_with_rhs(&xty, lambdas)
    }

    /// [`LassoAdmm::solve_path`] against a precomputed `X^T y` — the entry
    /// point for solvers built with [`LassoAdmm::from_gram`], where the rhs
    /// comes from a weighted `gemv_t` over the unsampled design.
    pub fn solve_path_with_rhs(&self, xty: &[f64], lambdas: &[f64]) -> Vec<AdmmSolution> {
        if self.cfg.schedule == PathSchedule::Fused {
            return self.solve_path_fused_with_rhs(xty, lambdas);
        }
        let p = self.n_coefficients();
        let mut z = vec![0.0; p];
        let mut u = vec![0.0; p];
        let mut ws = AdmmWorkspace::new();
        let mut out = Vec::with_capacity(lambdas.len());
        let mut cold_iters = None;
        for &lam in lambdas {
            // Warm start keeps z from the previous lambda; the dual restarts
            // from zero each step (cheap effective warm start).
            u.iter_mut().for_each(|v| *v = 0.0);
            let st = self.solve_warm_with(xty, lam, &mut z, &mut u, &mut ws);
            if let Some(m) = &self.metrics {
                m.incr("admm.path.solves", 1);
                m.observe("admm.path.iterations", st.iterations as f64);
                match cold_iters {
                    None => cold_iters = Some(st.iterations),
                    Some(baseline) if st.converged && st.iterations <= baseline => {
                        m.incr("admm.path.warm_hits", 1);
                    }
                    Some(_) => {}
                }
            }
            out.push(AdmmSolution {
                beta: z.clone(),
                iterations: st.iterations,
                primal_residual: st.primal_residual,
                dual_residual: st.dual_residual,
                converged: st.converged,
                curve: self.take_curve(&mut ws),
            });
        }
        out
    }

    /// Solve the whole lambda path in lockstep from cold starts
    /// ([`PathSchedule::Fused`]): every still-active lambda advances one
    /// iteration per round, and each round's triangular solves collapse
    /// into a single multi-RHS substitution over the shared Cholesky
    /// factor via [`LassoAdmm::step_many`].
    ///
    /// Per lambda the returned solution is bit-identical (supports and
    /// `f64::to_bits` coefficients) to a cold [`LassoAdmm::solve_with_rhs`]
    /// at that lambda, for any `threads` setting. Solutions come back in
    /// path order. With metrics attached, records `admm.path.solves`,
    /// `admm.path.iterations`, and `admm.path.fused_rounds`.
    pub fn solve_path_fused_with_rhs(&self, xty: &[f64], lambdas: &[f64]) -> Vec<AdmmSolution> {
        let p = self.n_coefficients();
        assert_eq!(xty.len(), p, "rhs length mismatch");
        for &lam in lambdas {
            assert!(lam >= 0.0);
        }
        let mut states: Vec<AdmmState> = lambdas.iter().map(|_| self.init_state()).collect();
        let mut rounds = 0usize;
        for _ in 0..self.cfg.max_iter {
            if states.iter().all(|s| s.converged) {
                break;
            }
            rounds += 1;
            let mut tasks: Vec<StepTask<'_>> = states
                .iter_mut()
                .zip(lambdas)
                .map(|(state, &lambda)| StepTask { xty, lambda, state })
                .collect();
            self.step_many(&mut tasks);
        }
        if let Some(m) = &self.metrics {
            m.observe("admm.path.fused_rounds", rounds as f64);
        }
        let mut out = Vec::with_capacity(lambdas.len());
        for st in states {
            if !st.converged {
                // Converged columns were already noted by `step_many`.
                self.note_solve(st.iterations, false, st.primal_residual, st.dual_residual);
            }
            if let Some(m) = &self.metrics {
                m.incr("admm.path.solves", 1);
                m.observe("admm.path.iterations", st.iterations as f64);
            }
            let curve = if self.cfg.capture_curve {
                decimate_curve(&st.scratch.curve, CURVE_MAX_POINTS)
            } else {
                Vec::new()
            };
            out.push(AdmmSolution {
                beta: st.z,
                iterations: st.iterations,
                primal_residual: st.primal_residual,
                dual_residual: st.dual_residual,
                converged: st.converged,
                curve,
            });
        }
        out
    }

    /// OLS through the same machinery (`lambda = 0`), as the paper's
    /// estimation step does.
    pub fn solve_ols(&self, y: &[f64]) -> AdmmSolution {
        self.solve(y, 0.0)
    }

    /// [`LassoAdmm::solve_path_with_rhs`] with the divergence tripwire
    /// armed on every solve. Returns the solutions plus the indices of
    /// lambdas whose iteration tripped the guard (non-finite residuals or
    /// either residual above `cap`); a tripped entry comes back with
    /// `converged = false` and whatever iterate the abort left behind.
    ///
    /// On the sequential schedule the consensus iterate is reset to zero
    /// after a trip, so the next lambda warm-starts from a defined state
    /// instead of the diverged garbage — keeping the remainder of the
    /// path deterministic. Solves that never trip are bit-identical to
    /// the unguarded path.
    pub fn solve_path_guarded_with_rhs(
        &self,
        xty: &[f64],
        lambdas: &[f64],
        cap: f64,
    ) -> (Vec<AdmmSolution>, Vec<usize>) {
        if self.cfg.schedule == PathSchedule::Fused {
            return self.solve_path_fused_guarded_with_rhs(xty, lambdas, cap);
        }
        let p = self.n_coefficients();
        let mut z = vec![0.0; p];
        let mut u = vec![0.0; p];
        let mut ws = AdmmWorkspace::new();
        let mut out = Vec::with_capacity(lambdas.len());
        let mut diverged_idx = Vec::new();
        let mut cold_iters = None;
        for (idx, &lam) in lambdas.iter().enumerate() {
            u.iter_mut().for_each(|v| *v = 0.0);
            let (st, tripped) =
                self.solve_warm_guarded(xty, lam, &mut z, &mut u, &mut ws, Some(cap));
            if let Some(m) = &self.metrics {
                m.incr("admm.path.solves", 1);
                m.observe("admm.path.iterations", st.iterations as f64);
                match cold_iters {
                    None => cold_iters = Some(st.iterations),
                    Some(baseline) if st.converged && st.iterations <= baseline => {
                        m.incr("admm.path.warm_hits", 1);
                    }
                    Some(_) => {}
                }
            }
            out.push(AdmmSolution {
                beta: z.clone(),
                iterations: st.iterations,
                primal_residual: st.primal_residual,
                dual_residual: st.dual_residual,
                converged: st.converged,
                curve: self.take_curve(&mut ws),
            });
            if tripped {
                diverged_idx.push(idx);
                z.iter_mut().for_each(|v| *v = 0.0);
            }
        }
        (out, diverged_idx)
    }

    /// [`LassoAdmm::solve_path_fused_with_rhs`] with the divergence
    /// tripwire armed per column: after each lockstep round, any
    /// still-active column whose residuals are non-finite or above `cap`
    /// is frozen (no further steps) and reported in the diverged index
    /// list with `converged = false`. Columns that never trip are
    /// bit-identical to the unguarded fused path.
    pub fn solve_path_fused_guarded_with_rhs(
        &self,
        xty: &[f64],
        lambdas: &[f64],
        cap: f64,
    ) -> (Vec<AdmmSolution>, Vec<usize>) {
        let p = self.n_coefficients();
        assert_eq!(xty.len(), p, "rhs length mismatch");
        for &lam in lambdas {
            assert!(lam >= 0.0);
        }
        let mut states: Vec<AdmmState> = lambdas.iter().map(|_| self.init_state()).collect();
        let mut tripped = vec![false; lambdas.len()];
        let mut rounds = 0usize;
        for _ in 0..self.cfg.max_iter {
            if states.iter().all(|s| s.converged) {
                break;
            }
            rounds += 1;
            let mut tasks: Vec<StepTask<'_>> = states
                .iter_mut()
                .zip(lambdas)
                .map(|(state, &lambda)| StepTask { xty, lambda, state })
                .collect();
            self.step_many(&mut tasks);
            for (flag, st) in tripped.iter_mut().zip(states.iter_mut()) {
                if st.converged || *flag {
                    continue;
                }
                let (r, s) = (st.primal_residual, st.dual_residual);
                if !r.is_finite() || !s.is_finite() || r > cap || s > cap {
                    *flag = true;
                    // Freeze the column so later rounds skip it; the
                    // collection below reports it as non-converged.
                    st.converged = true;
                }
            }
        }
        if let Some(m) = &self.metrics {
            m.observe("admm.path.fused_rounds", rounds as f64);
        }
        let mut out = Vec::with_capacity(lambdas.len());
        let mut diverged_idx = Vec::new();
        for (i, st) in states.into_iter().enumerate() {
            let converged = st.converged && !tripped[i];
            if !converged {
                // Genuinely converged columns were noted by `step_many`;
                // frozen and capped-out ones are noted here.
                self.note_solve(st.iterations, false, st.primal_residual, st.dual_residual);
            }
            if let Some(m) = &self.metrics {
                m.incr("admm.path.solves", 1);
                m.observe("admm.path.iterations", st.iterations as f64);
            }
            let curve = if self.cfg.capture_curve {
                decimate_curve(&st.scratch.curve, CURVE_MAX_POINTS)
            } else {
                Vec::new()
            };
            if tripped[i] {
                diverged_idx.push(i);
            }
            out.push(AdmmSolution {
                beta: st.z,
                iterations: st.iterations,
                primal_residual: st.primal_residual,
                dual_residual: st.dual_residual,
                converged,
                curve,
            });
        }
        (out, diverged_idx)
    }
}

/// Approximate flop count of one ADMM iteration for a dense `n x p`
/// problem factored in primal form — used by the virtual-time charging of
/// the distributed solver and the scaling harnesses.
pub fn admm_iter_flops(n: usize, p: usize) -> f64 {
    if p <= n {
        // Back/forward substitution (2 p^2) + rhs build (2 p) + residuals.
        2.0 * (p * p) as f64 + 8.0 * p as f64
    } else {
        // Woodbury: two gemv (4 n p) + n x n substitution (2 n^2).
        4.0 * (n * p) as f64 + 2.0 * (n * n) as f64 + 8.0 * p as f64
    }
}

/// Number of per-column iteration charges for one lockstep round over
/// `active` columns with `threads` in-rank workers: `ceil(active /
/// threads)`. With `threads = 1` this equals `active` — exactly the
/// historical one-charge-per-column accounting, so single-thread runs
/// reproduce today's modeled timelines bit for bit.
pub fn lockstep_round_charges(active: usize, threads: usize) -> usize {
    active.div_ceil(threads.max(1))
}

/// Approximate flop count of the one-time factorisation.
pub fn admm_factor_flops(n: usize, p: usize) -> f64 {
    let m = p.min(n) as f64;
    // Gram (n p min(n,p)) + Cholesky (m^3 / 3).
    (n * p) as f64 * m + m * m * m / 3.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::lasso_kkt_violation;
    use uoi_linalg::solve_normal_equations;

    fn toy_problem() -> (Matrix, Vec<f64>) {
        // y depends on features 0 and 2 only.
        let n = 40;
        let p = 6;
        let x = Matrix::from_fn(n, p, |i, j| {
            ((i * (j + 3) * 2654435761) % 1000) as f64 / 500.0 - 1.0
        });
        let y: Vec<f64> = (0..n)
            .map(|i| 2.0 * x[(i, 0)] - 1.5 * x[(i, 2)] + 0.01 * ((i * 37 % 10) as f64 - 4.5))
            .collect();
        (x, y)
    }

    /// The pre-workspace allocating `solve_warm`, kept verbatim as the
    /// reference implementation the zero-allocation rewrite must match
    /// bit-for-bit (same iterates, same convergence decisions).
    fn solve_warm_reference(
        solver: &LassoAdmm,
        y: &[f64],
        lambda: f64,
        mut z: Vec<f64>,
        mut u: Vec<f64>,
    ) -> AdmmSolution {
        let x = solver.dense();
        let (n, p) = x.shape();
        assert_eq!(y.len(), n);
        let rho = solver.rho;
        let xty = gemv_t(x, y);
        let kappa = lambda / rho;
        let mut x_var = vec![0.0; p];
        let mut z_old = vec![0.0; p];
        let (mut r_norm, mut s_norm) = (f64::INFINITY, f64::INFINITY);
        let mut iterations = 0;
        let mut converged = false;
        for it in 0..solver.cfg.max_iter {
            iterations = it + 1;
            let mut rhs = xty.clone();
            for ((r, zi), ui) in rhs.iter_mut().zip(&z).zip(&u) {
                *r += rho * (zi - ui);
            }
            x_var = apply_inverse(x, &solver.factor, rho, &rhs);
            z_old.copy_from_slice(&z);
            let xu: Vec<f64> = x_var.iter().zip(&u).map(|(a, b)| a + b).collect();
            if kappa > 0.0 {
                soft_threshold_vec(&xu, kappa, &mut z);
            } else {
                z.copy_from_slice(&xu);
            }
            for ((ui, xi), zi) in u.iter_mut().zip(&x_var).zip(&z) {
                *ui += xi - zi;
            }
            let r: Vec<f64> = x_var.iter().zip(&z).map(|(a, b)| a - b).collect();
            r_norm = norm2(&r);
            let s: Vec<f64> = z.iter().zip(&z_old).map(|(a, b)| rho * (a - b)).collect();
            s_norm = norm2(&s);
            let sqrt_p = (p as f64).sqrt();
            let eps_pri =
                sqrt_p * solver.cfg.abstol + solver.cfg.reltol * norm2(&x_var).max(norm2(&z));
            let mut rho_u = u.clone();
            for v in &mut rho_u {
                *v *= rho;
            }
            let eps_dual = sqrt_p * solver.cfg.abstol + solver.cfg.reltol * norm2(&rho_u);
            if r_norm <= eps_pri && s_norm <= eps_dual {
                converged = true;
                break;
            }
        }
        let _ = &x_var;
        AdmmSolution {
            beta: z,
            iterations,
            primal_residual: r_norm,
            dual_residual: s_norm,
            converged,
            curve: Vec::new(),
        }
    }

    #[test]
    fn workspace_solve_bit_identical_to_reference() {
        let (x, y) = toy_problem();
        let solver = LassoAdmm::new(
            x,
            AdmmConfig {
                max_iter: 4000,
                abstol: 1e-9,
                reltol: 1e-8,
                ..Default::default()
            },
        );
        let p = solver.n_coefficients();
        for lam in [0.0, 0.1, 0.5, 2.0] {
            let reference = solve_warm_reference(&solver, &y, lam, vec![0.0; p], vec![0.0; p]);
            let new = solver.solve(&y, lam);
            assert_eq!(new.iterations, reference.iterations, "lambda {lam}");
            assert_eq!(new.converged, reference.converged);
            assert_eq!(
                new.primal_residual.to_bits(),
                reference.primal_residual.to_bits()
            );
            assert_eq!(
                new.dual_residual.to_bits(),
                reference.dual_residual.to_bits()
            );
            for (a, b) in new.beta.iter().zip(&reference.beta) {
                assert_eq!(a.to_bits(), b.to_bits(), "lambda {lam}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn workspace_solve_bit_identical_to_reference_woodbury() {
        // p > n exercises the Woodbury apply path of the workspace rewrite.
        let n = 10;
        let p = 25;
        let x = Matrix::from_fn(n, p, |i, j| (((i * 31 + j * 17) % 13) as f64 - 6.0) / 6.0);
        let y: Vec<f64> = (0..n).map(|i| x[(i, 1)] * 3.0 - x[(i, 4)]).collect();
        let solver = LassoAdmm::new(
            x,
            AdmmConfig {
                max_iter: 3000,
                ..Default::default()
            },
        );
        for lam in [0.05, 0.3] {
            let reference = solve_warm_reference(&solver, &y, lam, vec![0.0; p], vec![0.0; p]);
            let new = solver.solve(&y, lam);
            assert_eq!(new.iterations, reference.iterations);
            for (a, b) in new.beta.iter().zip(&reference.beta) {
                assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn from_gram_bit_identical_to_dense() {
        // For p <= n the dense constructor builds exactly syrk_t(x) + rho I,
        // so the Gram-built solver must reproduce every solve bit-for-bit.
        let (x, y) = toy_problem();
        let cfg = AdmmConfig {
            max_iter: 4000,
            abstol: 1e-9,
            reltol: 1e-8,
            ..Default::default()
        };
        let dense = LassoAdmm::new(x.clone(), cfg.clone());
        let gram_solver = LassoAdmm::from_gram(uoi_linalg::syrk_t(&x), cfg);
        let xty = dense.prepare_rhs(&y);
        let lambdas = [2.0, 1.0, 0.5, 0.25, 0.0];
        let a = dense.solve_path(&y, &lambdas);
        let b = gram_solver.solve_path_with_rhs(&xty, &lambdas);
        assert_eq!(a.len(), b.len());
        for (sa, sb) in a.iter().zip(&b) {
            assert_eq!(sa.iterations, sb.iterations);
            assert_eq!(sa.converged, sb.converged);
            for (va, vb) in sa.beta.iter().zip(&sb.beta) {
                assert_eq!(va.to_bits(), vb.to_bits(), "{va} vs {vb}");
            }
        }
        // Single solves agree too.
        let sa = dense.solve(&y, 0.4);
        let sb = gram_solver.solve_with_rhs(&xty, 0.4);
        for (va, vb) in sa.beta.iter().zip(&sb.beta) {
            assert_eq!(va.to_bits(), vb.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "holds no design")]
    fn from_gram_rejects_response_entry_points() {
        let (x, y) = toy_problem();
        let solver = LassoAdmm::from_gram(uoi_linalg::syrk_t(&x), AdmmConfig::default());
        let _ = solver.solve(&y, 0.1);
    }

    #[test]
    fn ols_matches_normal_equations() {
        let (x, y) = toy_problem();
        let solver = LassoAdmm::new(
            x.clone(),
            AdmmConfig {
                max_iter: 2000,
                ..Default::default()
            },
        );
        let sol = solver.solve_ols(&y);
        let exact = solve_normal_equations(&x, &y, 0.0).unwrap();
        for (a, b) in sol.beta.iter().zip(&exact) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
        assert!(sol.converged);
    }

    #[test]
    fn lasso_satisfies_kkt() {
        let (x, y) = toy_problem();
        let lambda = 0.5;
        let solver = LassoAdmm::new(
            x.clone(),
            AdmmConfig {
                max_iter: 5000,
                abstol: 1e-9,
                reltol: 1e-8,
                ..Default::default()
            },
        );
        let sol = solver.solve(&y, lambda);
        assert!(sol.converged);
        let viol = lasso_kkt_violation(&x, &y, &sol.beta, lambda);
        assert!(viol < 1e-3, "KKT violation {viol}");
    }

    #[test]
    fn lambda_max_gives_zero_solution() {
        let (x, y) = toy_problem();
        let lmax = crate::lambda::lambda_max(&x, &y);
        let solver = LassoAdmm::new(x, AdmmConfig::default());
        let sol = solver.solve(&y, lmax * 1.01);
        assert!(sol.beta.iter().all(|&b| b.abs() < 1e-6), "{:?}", sol.beta);
    }

    #[test]
    fn sparsity_increases_with_lambda() {
        let (x, y) = toy_problem();
        let solver = LassoAdmm::new(
            x,
            AdmmConfig {
                max_iter: 2000,
                ..Default::default()
            },
        );
        let nnz = |lam: f64| {
            solver
                .solve(&y, lam)
                .beta
                .iter()
                .filter(|b| b.abs() > 1e-8)
                .count()
        };
        assert!(nnz(0.01) >= nnz(1.0));
        assert!(nnz(1.0) >= nnz(20.0));
    }

    #[test]
    fn woodbury_path_matches_primal() {
        // p > n exercises Woodbury; compare against the primal form on a
        // padded problem with identical solution.
        let n = 10;
        let p = 25;
        let x = Matrix::from_fn(n, p, |i, j| (((i * 31 + j * 17) % 13) as f64 - 6.0) / 6.0);
        let y: Vec<f64> = (0..n).map(|i| x[(i, 1)] * 3.0 - x[(i, 4)]).collect();
        let lam = 0.3;
        let wood = LassoAdmm::new(
            x.clone(),
            AdmmConfig {
                max_iter: 8000,
                abstol: 1e-10,
                reltol: 1e-9,
                ..Default::default()
            },
        );
        let sol = wood.solve(&y, lam);
        let viol = lasso_kkt_violation(&x, &y, &sol.beta, lam);
        assert!(viol < 1e-3, "Woodbury KKT violation {viol}");
    }

    #[test]
    fn warm_start_path_consistent_with_cold() {
        let (x, y) = toy_problem();
        let solver = LassoAdmm::new(
            x,
            AdmmConfig {
                max_iter: 4000,
                abstol: 1e-9,
                reltol: 1e-8,
                ..Default::default()
            },
        );
        let lambdas = [2.0, 1.0, 0.5, 0.25];
        let path = solver.solve_path(&y, &lambdas);
        for (i, &lam) in lambdas.iter().enumerate() {
            let cold = solver.solve(&y, lam);
            for (a, b) in path[i].beta.iter().zip(&cold.beta) {
                assert!((a - b).abs() < 1e-4, "lambda {lam}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn adaptive_rho_matches_fixed_rho_solution() {
        let (x, y) = toy_problem();
        let lam = 0.5;
        let cfg = AdmmConfig {
            max_iter: 5000,
            abstol: 1e-9,
            reltol: 1e-8,
            ..Default::default()
        };
        let solver = LassoAdmm::new(x.clone(), cfg);
        let fixed = solver.solve(&y, lam);
        let adaptive = solver.solve_adaptive(&y, lam, 10.0, 2.0, 6);
        assert!(adaptive.converged);
        for (a, b) in adaptive.beta.iter().zip(&fixed.beta) {
            assert!((a - b).abs() < 1e-4, "adaptive {a} vs fixed {b}");
        }
        let viol = lasso_kkt_violation(&x, &y, &adaptive.beta, lam);
        assert!(viol < 1e-3, "adaptive KKT violation {viol}");
    }

    #[test]
    fn adaptive_rho_helps_badly_scaled_design() {
        // A design with wildly different column scales: fixed rho = 1
        // converges slowly; adaptive rho reaches tolerance in fewer
        // iterations (or at least no more).
        let n = 40;
        let x = Matrix::from_fn(n, 6, |i, j| {
            let base = (((i + 1) * (j + 2) * 131) % 97) as f64 / 48.5 - 1.0;
            base * 10f64.powi(j as i32 - 3)
        });
        let y: Vec<f64> = (0..n).map(|i| x[(i, 2)] * 3.0 - x[(i, 4)] * 0.5).collect();
        let lam = crate::lambda::lambda_max(&x, &y) * 0.01;
        let cfg = AdmmConfig {
            max_iter: 20000,
            abstol: 1e-8,
            reltol: 1e-7,
            ..Default::default()
        };
        let solver = LassoAdmm::new(x, cfg);
        let fixed = solver.solve(&y, lam);
        let adaptive = solver.solve_adaptive(&y, lam, 10.0, 2.0, 10);
        assert!(adaptive.converged, "adaptive must converge");
        assert!(
            adaptive.iterations <= fixed.iterations,
            "adaptive {} iters vs fixed {}",
            adaptive.iterations,
            fixed.iterations
        );
    }

    #[test]
    fn stepping_api_matches_solve() {
        let (x, y) = toy_problem();
        let lam = 0.6;
        let cfg = AdmmConfig {
            max_iter: 5000,
            abstol: 1e-9,
            reltol: 1e-8,
            ..Default::default()
        };
        let solver = LassoAdmm::new(x, cfg);
        let direct = solver.solve(&y, lam);
        let xty = solver.prepare_rhs(&y);
        let mut st = solver.init_state();
        for _ in 0..5000 {
            solver.step(&xty, lam, &mut st);
            if st.converged {
                break;
            }
        }
        assert!(st.converged);
        for (a, b) in st.z.iter().zip(&direct.beta) {
            assert!((a - b).abs() < 1e-6, "step {a} vs solve {b}");
        }
        // Stepping after convergence is a no-op.
        let frozen = st.z.clone();
        let it = st.iterations;
        solver.step(&xty, lam, &mut st);
        assert_eq!(st.z, frozen);
        assert_eq!(st.iterations, it);
    }

    #[test]
    fn builder_validates_and_chains() {
        let cfg = AdmmConfig::builder()
            .rho(2.0)
            .max_iter(1000)
            .abstol(1e-8)
            .build()
            .unwrap();
        assert_eq!(cfg.rho, 2.0);
        assert_eq!(cfg.max_iter, 1000);
        assert_eq!(cfg.abstol, 1e-8);
        assert_eq!(cfg.reltol, AdmmConfig::default().reltol);
        assert!(AdmmConfig::builder().rho(-1.0).build().is_err());
        assert!(AdmmConfig::builder().rho(f64::NAN).build().is_err());
        assert!(AdmmConfig::builder().max_iter(0).build().is_err());
        assert!(AdmmConfig::builder().abstol(0.0).build().is_err());
        assert!(AdmmConfig::builder().reltol(-1e-3).build().is_err());
        let err = AdmmConfig::builder().rho(0.0).build().unwrap_err();
        assert!(err.to_string().contains("rho"));
    }

    #[test]
    fn metrics_record_solves_and_path_warm_hits() {
        let (x, y) = toy_problem();
        let metrics = Arc::new(MetricsRegistry::new());
        let solver = LassoAdmm::new(
            x,
            AdmmConfig {
                max_iter: 4000,
                abstol: 1e-9,
                reltol: 1e-8,
                ..Default::default()
            },
        )
        .with_metrics(metrics.clone());
        let lambdas = [2.0, 1.0, 0.5, 0.25];
        let path = solver.solve_path(&y, &lambdas);
        assert!(path.iter().all(|s| s.converged));
        assert_eq!(metrics.counter("admm.solves"), lambdas.len() as u64);
        assert_eq!(metrics.counter("admm.converged"), lambdas.len() as u64);
        assert_eq!(metrics.counter("admm.path.solves"), lambdas.len() as u64);
        assert!(metrics.counter("admm.path.warm_hits") <= (lambdas.len() - 1) as u64);
        assert_eq!(metrics.samples("admm.iterations").len(), lambdas.len());
        // Residual curves hold one sample per iteration performed.
        let total_iters: usize = path.iter().map(|s| s.iterations).sum();
        assert_eq!(
            metrics.samples("admm.residual_curve.primal").len(),
            total_iters
        );
        assert_eq!(
            metrics.samples("admm.residual_curve.dual").len(),
            total_iters
        );
    }

    #[test]
    fn flop_counters_positive_and_scale() {
        assert!(admm_iter_flops(100, 50) > 0.0);
        assert!(admm_factor_flops(100, 50) > admm_iter_flops(100, 50));
        // Woodbury branch cheaper than primal when p >> n.
        let wood = admm_iter_flops(10, 10_000);
        let primal_equiv = 2.0 * (10_000.0 * 10_000.0);
        assert!(wood < primal_equiv);
    }

    #[test]
    fn lockstep_charges_match_per_column_at_one_thread() {
        for active in [0, 1, 5, 16] {
            assert_eq!(lockstep_round_charges(active, 1), active);
        }
        assert_eq!(lockstep_round_charges(10, 4), 3);
        assert_eq!(lockstep_round_charges(8, 4), 2);
        assert_eq!(lockstep_round_charges(1, 4), 1);
        // Degenerate threads = 0 is clamped rather than dividing by zero.
        assert_eq!(lockstep_round_charges(7, 0), 7);
    }

    #[test]
    fn config_validates_threads_and_env_override() {
        assert!(AdmmConfig::builder().threads(0).build().is_err());
        let cfg = AdmmConfig::builder()
            .threads(4)
            .schedule(PathSchedule::Fused)
            .build()
            .unwrap();
        assert_eq!(cfg.threads, 4);
        assert_eq!(cfg.schedule, PathSchedule::Fused);
    }

    fn assert_solutions_bit_identical(a: &[AdmmSolution], b: &[AdmmSolution]) {
        assert_eq!(a.len(), b.len());
        for (sa, sb) in a.iter().zip(b) {
            assert_eq!(sa.iterations, sb.iterations);
            assert_eq!(sa.converged, sb.converged);
            assert_eq!(sa.primal_residual.to_bits(), sb.primal_residual.to_bits());
            assert_eq!(sa.dual_residual.to_bits(), sb.dual_residual.to_bits());
            for (va, vb) in sa.beta.iter().zip(&sb.beta) {
                assert_eq!(va.to_bits(), vb.to_bits(), "{va} vs {vb}");
            }
        }
    }

    #[test]
    fn fused_path_bit_identical_to_cold_per_lambda() {
        let (x, y) = toy_problem();
        let lambdas = [2.0, 1.0, 0.5, 0.1, 0.0];
        let cfg = AdmmConfig {
            max_iter: 4000,
            abstol: 1e-9,
            reltol: 1e-8,
            ..Default::default()
        };
        let solver = LassoAdmm::new(x, cfg);
        let xty = solver.prepare_rhs(&y);
        let cold: Vec<AdmmSolution> = lambdas
            .iter()
            .map(|&lam| solver.solve_with_rhs(&xty, lam))
            .collect();
        let fused = solver.solve_path_fused_with_rhs(&xty, &lambdas);
        assert_solutions_bit_identical(&fused, &cold);
        // Supports agree exactly as a consequence.
        for (sf, sc) in fused.iter().zip(&cold) {
            let supp = |s: &AdmmSolution| -> Vec<usize> {
                s.beta
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| **v != 0.0)
                    .map(|(i, _)| i)
                    .collect()
            };
            assert_eq!(supp(sf), supp(sc));
        }
    }

    #[test]
    fn fused_path_bit_identical_to_cold_per_lambda_woodbury() {
        let n = 10;
        let p = 25;
        let x = Matrix::from_fn(n, p, |i, j| (((i * 31 + j * 17) % 13) as f64 - 6.0) / 6.0);
        let y: Vec<f64> = (0..n).map(|i| x[(i, 1)] * 3.0 - x[(i, 4)]).collect();
        let solver = LassoAdmm::new(
            x,
            AdmmConfig {
                max_iter: 3000,
                ..Default::default()
            },
        );
        let xty = solver.prepare_rhs(&y);
        let lambdas = [0.5, 0.3, 0.05];
        let cold: Vec<AdmmSolution> = lambdas
            .iter()
            .map(|&lam| solver.solve_with_rhs(&xty, lam))
            .collect();
        let fused = solver.solve_path_fused_with_rhs(&xty, &lambdas);
        assert_solutions_bit_identical(&fused, &cold);
    }

    #[test]
    fn fused_schedule_invariant_to_thread_count() {
        let (x, y) = toy_problem();
        let lambdas = [1.0, 0.5, 0.1, 0.02];
        let fit = |threads: usize| {
            let solver = LassoAdmm::new(
                x.clone(),
                AdmmConfig {
                    max_iter: 4000,
                    threads,
                    schedule: PathSchedule::Fused,
                    ..Default::default()
                },
            );
            solver.solve_path(&y, &lambdas)
        };
        assert_solutions_bit_identical(&fit(1), &fit(4));
    }

    #[test]
    fn fused_schedule_routes_solve_path() {
        let (x, y) = toy_problem();
        let lambdas = [1.0, 0.25, 0.0];
        let sequential = LassoAdmm::new(x.clone(), AdmmConfig::default()).solve_path(&y, &lambdas);
        let fused_cfg = AdmmConfig {
            schedule: PathSchedule::Fused,
            ..Default::default()
        };
        let solver = LassoAdmm::new(x, fused_cfg);
        let routed = solver.solve_path(&y, &lambdas);
        let direct = solver.solve_path_fused_with_rhs(&solver.prepare_rhs(&y), &lambdas);
        assert_solutions_bit_identical(&routed, &direct);
        // Same problems, so both schedules land on the same (near-)solutions
        // even though the iterates differ.
        for (sa, sb) in routed.iter().zip(&sequential) {
            for (va, vb) in sa.beta.iter().zip(&sb.beta) {
                assert!((va - vb).abs() < 1e-4, "{va} vs {vb}");
            }
        }
    }

    #[test]
    fn step_many_bit_identical_to_individual_steps() {
        let (x, y) = toy_problem();
        let solver = LassoAdmm::new(x, AdmmConfig::default());
        let xty = solver.prepare_rhs(&y);
        // Distinct per-column problems: scaled rhs, distinct lambdas.
        let rhs_cols: Vec<Vec<f64>> = (0..5)
            .map(|k| xty.iter().map(|v| v * (1.0 + 0.2 * k as f64)).collect())
            .collect();
        let lambdas = [0.8, 0.4, 0.2, 0.1, 0.0];

        let mut lockstep: Vec<AdmmState> = (0..5).map(|_| solver.init_state()).collect();
        let mut individual = lockstep.clone();
        for _ in 0..solver.config().max_iter {
            if lockstep.iter().all(|s| s.converged) {
                break;
            }
            let mut tasks: Vec<StepTask<'_>> = lockstep
                .iter_mut()
                .zip(rhs_cols.iter())
                .zip(lambdas.iter())
                .map(|((state, xty), &lambda)| StepTask { xty, lambda, state })
                .collect();
            solver.step_many(&mut tasks);
            for ((st, xty), &lam) in individual.iter_mut().zip(&rhs_cols).zip(&lambdas) {
                solver.step(xty, lam, st);
            }
        }
        for (a, b) in lockstep.iter().zip(&individual) {
            assert_eq!(a.iterations, b.iterations);
            assert_eq!(a.converged, b.converged);
            assert!(a.converged, "toy problems should converge");
            assert_eq!(a.primal_residual.to_bits(), b.primal_residual.to_bits());
            assert_eq!(a.dual_residual.to_bits(), b.dual_residual.to_bits());
            for (va, vb) in a.z.iter().zip(&b.z) {
                assert_eq!(va.to_bits(), vb.to_bits());
            }
            for (va, vb) in a.u.iter().zip(&b.u) {
                assert_eq!(va.to_bits(), vb.to_bits());
            }
        }
    }
}
