//! Distributed consensus LASSO-ADMM over the simulated cluster — the
//! `ADMM_cores` solver of the paper (§II-C, §III-B1).
//!
//! The samples are split row-wise across the ranks of a communicator
//! (`N/B` rows each, the paper's row-wise block striping); each rank `i`
//! holds `(X_i, y_i)` and the global problem
//!
//! ```text
//! minimize sum_i 1/2 ||X_i b_i - y_i||^2 + lambda ||z||_1
//! subject to b_i = z
//! ```
//!
//! is solved by consensus ADMM (Boyd et al. §8.2):
//!
//! ```text
//! x_i <- (X_i^T X_i + rho I)^{-1} (X_i^T y_i + rho (z - u_i))   [local]
//! z   <- S_{lambda/(rho B)}( mean_i(x_i + u_i) )                [Allreduce]
//! u_i <- u_i + x_i - z                                          [local]
//! ```
//!
//! The `MPI_Allreduce` of the z-update is the communication the paper's
//! weak/strong-scaling figures are dominated by; every call here goes
//! through [`Comm::allreduce_sum`] and is therefore both really executed
//! and virtually timed. Setting `lambda = 0` yields distributed OLS, as
//! the paper's model-estimation step does.

use crate::admm::{
    admm_iter_flops, decimate_curve, effective_rho, lockstep_round_charges, try_factorize,
    AdmmConfig, AdmmSolution, Factorization, PathSchedule, CURVE_MAX_POINTS,
};
use crate::prox::soft_threshold_vec;
use crate::resilience::FactorHealth;
use std::sync::Arc;
use uoi_linalg::{
    factor_upper_jittered, gemv_into, gemv_t, gemv_t_into, FactorBreakdown, JitterLadder, Matrix,
};
use uoi_mpisim::{Comm, RankCtx};
use uoi_telemetry::MetricsRegistry;

/// The rank-local problem data: a dense design block, or only its
/// dimensions when the solver was built from a precomputed local Gram
/// ([`DistLassoAdmm::from_gram`] — the zero-copy estimation path).
enum LocalStore {
    Dense(Matrix),
    Gram { n_rows: usize, p: usize },
}

/// A distributed LASSO/OLS solver bound to one rank's local data block,
/// with the x-update factorisation cached across lambda values.
pub struct DistLassoAdmm {
    local: LocalStore,
    factor: Factorization,
    cfg: AdmmConfig,
    /// Effective penalty shared by every rank: `cfg.rho` scaled by the
    /// mean diagonal of the *global* Gram (allreduced at construction),
    /// so all local factorisations split the consensus problem with one
    /// common, data-scaled `rho`.
    rho: f64,
    /// Inherited from the rank's telemetry handle at construction; solves
    /// record `admm_dist.*` metrics (communicator rank 0 only, so a
    /// collective solve counts once, not once per rank).
    metrics: Option<Arc<MetricsRegistry>>,
    /// How the local factorisation went (jitter attempts consumed by the
    /// escalation ladder; 0 on the clean path).
    factor_health: FactorHealth,
}

impl DistLassoAdmm {
    /// Allreduce the local Gram-diagonal sum and derive the shared
    /// effective penalty — a 1-scalar collective, so every rank factors
    /// its block with the same data-scaled `rho`.
    fn global_rho(
        ctx: &mut RankCtx,
        comm: &Comm,
        local_diag_sum: f64,
        p: usize,
        cfg_rho: f64,
    ) -> f64 {
        let mut v = vec![local_diag_sum];
        comm.allreduce_sum(ctx, &mut v);
        effective_rho(cfg_rho, v[0], p)
    }

    /// Factor the local system and charge the setup flops. Collective
    /// over `comm`: the effective penalty is `cfg.rho` times the mean
    /// diagonal of the global Gram, allreduced so all ranks agree.
    pub fn new(ctx: &mut RankCtx, comm: &Comm, x_local: Matrix, cfg: AdmmConfig) -> Self {
        Self::try_new(ctx, comm, x_local, cfg)
            .expect("local ADMM system must factor (is the design non-finite?)")
    }

    /// Fallible [`DistLassoAdmm::new`]: rank-deficient local blocks climb
    /// the deterministic jitter ladder instead of panicking (clean blocks
    /// take the plain factorisation and stay bit-identical); only ladder
    /// exhaustion errors. The consumed attempts/jitter are recorded in
    /// [`DistLassoAdmm::factor_health`]. The ladder is a local decision
    /// from local data, so ranks stay deterministic without extra
    /// collectives.
    pub fn try_new(
        ctx: &mut RankCtx,
        comm: &Comm,
        x_local: Matrix,
        cfg: AdmmConfig,
    ) -> Result<Self, FactorBreakdown> {
        assert!(cfg.rho > 0.0);
        let sp = ctx.span_enter("gram_build.factor");
        let (n, p) = x_local.shape();
        // Packed-panel cost model: the design streams from DRAM once, the
        // O(n p min) SYRK flops run register-tiled on cache-resident
        // panels, and the blocked Cholesky works on CHOL_NB-wide panels
        // with the same footprint.
        let dim = n.min(p);
        ctx.compute_membound((n * p * 8) as f64);
        ctx.compute_flops((n * p * dim) as f64, uoi_linalg::gram::gram_kernel_ws(p));
        ctx.compute_flops(
            (dim * dim * dim) as f64 / 3.0,
            uoi_linalg::gram::gram_kernel_ws(dim),
        );
        let (rho, factor, health) = if p <= n {
            // Mirror `from_gram`: diagonal read off the local Gram before
            // the ridge is added, so `from_gram(syrk_t(&x_local), ..)`
            // stays bit-identical for p <= n_local blocks.
            let mut gram = uoi_linalg::syrk_t_upper(&x_local).into_upper();
            let local_diag: f64 = (0..p).map(|i| gram[(i, i)]).sum();
            let rho = Self::global_rho(ctx, comm, local_diag, p, cfg.rho);
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
            let local_diag: f64 = x_local.as_slice().iter().map(|v| v * v).sum();
            let rho = Self::global_rho(ctx, comm, local_diag, p, cfg.rho);
            let (factor, health) = try_factorize(&x_local, rho)?;
            (rho, factor, health)
        };
        let metrics = ctx.telemetry().metrics();
        ctx.span_exit(sp);
        Ok(Self {
            local: LocalStore::Dense(x_local),
            factor,
            cfg,
            rho,
            metrics,
            factor_health: health,
        })
    }

    /// Build from a precomputed local Gram `X_i^T X_i` (consumed; the
    /// effective penalty is added to its diagonal in place) and the row
    /// count that produced it. Collective over `comm` (penalty allreduce).
    /// Solves must then go through the `*_with_rhs` entry points with the
    /// matching local `X_i^T y_i`. Charges only the Cholesky flops — the
    /// Gram itself was the caller's (already-charged) work.
    pub fn from_gram(
        ctx: &mut RankCtx,
        comm: &Comm,
        gram: Matrix,
        n_rows: usize,
        cfg: AdmmConfig,
    ) -> Self {
        Self::try_from_gram(ctx, comm, gram, n_rows, cfg)
            .expect("local ADMM system must factor (is the Gram non-finite?)")
    }

    /// Fallible [`DistLassoAdmm::from_gram`]: singular local Grams climb
    /// the deterministic jitter ladder instead of panicking; clean Grams
    /// stay bit-identical (`attempts == 0`).
    pub fn try_from_gram(
        ctx: &mut RankCtx,
        comm: &Comm,
        mut gram: Matrix,
        n_rows: usize,
        cfg: AdmmConfig,
    ) -> Result<Self, FactorBreakdown> {
        assert!(cfg.rho > 0.0);
        let sp = ctx.span_enter("gram_build.cholesky");
        let p = gram.rows();
        assert_eq!(p, gram.cols(), "from_gram: Gram matrix must be square");
        // One streaming read of the Gram plus panel-blocked factor flops
        // (CHOL_NB-wide panels share the packed-kernel footprint).
        ctx.compute_membound((p * p * 8) as f64);
        ctx.compute_flops(
            (p * p * p) as f64 / 3.0,
            uoi_linalg::gram::gram_kernel_ws(p),
        );
        let local_diag: f64 = (0..p).map(|i| gram[(i, i)]).sum();
        let rho = Self::global_rho(ctx, comm, local_diag, p, cfg.rho);
        for i in 0..p {
            gram[(i, i)] += rho;
        }
        // Reads only the upper triangle: upper-stored Grams from the
        // batched engine (and the checkpoint warm path that round-trips
        // them) need no mirror.
        let ladder = JitterLadder::for_matrix(&gram);
        let jf = factor_upper_jittered(&gram, &ladder)?;
        let factor_health = FactorHealth {
            attempts: jf.attempts,
            jitter: jf.jitter,
            condest: None,
        };
        let factor = Factorization::Primal(jf.chol);
        let metrics = ctx.telemetry().metrics();
        ctx.span_exit(sp);
        Ok(Self {
            local: LocalStore::Gram { n_rows, p },
            factor,
            cfg,
            rho,
            metrics,
            factor_health,
        })
    }

    /// How this rank's factorisation went: jitter attempts consumed by
    /// the escalation ladder, 0 on the clean path.
    pub fn factor_health(&self) -> FactorHealth {
        self.factor_health
    }

    fn local_dense(&self) -> &Matrix {
        match &self.local {
            LocalStore::Dense(x) => x,
            LocalStore::Gram { .. } => {
                panic!("this solver was built from a Gram matrix and holds no design")
            }
        }
    }

    fn local_shape(&self) -> (usize, usize) {
        match &self.local {
            LocalStore::Dense(x) => x.shape(),
            LocalStore::Gram { n_rows, p } => (*n_rows, *p),
        }
    }

    /// The local design block. Panics for a solver built with
    /// [`DistLassoAdmm::from_gram`].
    pub fn local_design(&self) -> &Matrix {
        self.local_dense()
    }

    /// Solve for one lambda from a cold start. Collective over `comm`.
    pub fn solve(
        &self,
        ctx: &mut RankCtx,
        comm: &Comm,
        y_local: &[f64],
        lambda: f64,
    ) -> AdmmSolution {
        let p = self.local_shape().1;
        self.solve_warm(ctx, comm, y_local, lambda, vec![0.0; p], vec![0.0; p])
    }

    /// Warm-started solve (z carried across a lambda path).
    pub fn solve_warm(
        &self,
        ctx: &mut RankCtx,
        comm: &Comm,
        y_local: &[f64],
        lambda: f64,
        z: Vec<f64>,
        u: Vec<f64>,
    ) -> AdmmSolution {
        let xty = self.prepare_local_rhs(ctx, y_local);
        self.solve_warm_with_rhs(ctx, comm, &xty, lambda, z, u)
    }

    /// The local `X_i^T y_i`, computed once per (design, response) and
    /// charged to the rank's virtual clock.
    pub fn prepare_local_rhs(&self, ctx: &mut RankCtx, y_local: &[f64]) -> Vec<f64> {
        let x = self.local_dense();
        let (n, p) = x.shape();
        assert_eq!(y_local.len(), n, "local response length mismatch");
        let xty = gemv_t(x, y_local);
        ctx.compute_flops(2.0 * (n * p) as f64, (n * p * 8) as f64);
        xty
    }

    /// Warm-started solve against a precomputed local `X_i^T y_i` — the
    /// entry point shared by the lambda path (rhs hoisted out of the
    /// per-lambda loop) and the Gram-built estimation solvers. The inner
    /// loop reuses its buffers across iterations and allocates nothing.
    pub fn solve_warm_with_rhs(
        &self,
        ctx: &mut RankCtx,
        comm: &Comm,
        xty: &[f64],
        lambda: f64,
        mut z: Vec<f64>,
        mut u: Vec<f64>,
    ) -> AdmmSolution {
        let (n, p) = self.local_shape();
        assert_eq!(xty.len(), p, "local rhs length mismatch");
        assert_eq!(z.len(), p);
        assert_eq!(u.len(), p);
        let b = comm.size() as f64;
        let rho = self.rho;
        let span = ctx.span_enter("admm_dist.solve");
        // Consensus threshold: lambda / (rho * B).
        let kappa = lambda / (rho * b);

        let working_set = ((n.min(p) * n.min(p) + n * p) * 8) as f64;
        let mut z_old = vec![0.0; p];
        let mut rhs: Vec<f64> = Vec::with_capacity(p);
        let mut x_i: Vec<f64> = Vec::with_capacity(p);
        let mut payload: Vec<f64> = Vec::with_capacity(p);
        let mut sums_v: Vec<f64> = Vec::with_capacity(3);
        let mut wn: Vec<f64> = Vec::new();
        let mut wt: Vec<f64> = Vec::new();
        let (mut r_norm, mut s_norm) = (f64::INFINITY, f64::INFINITY);
        let mut iterations = 0;
        let mut converged = false;

        let mut curve_buf: Vec<f64> = Vec::new();
        for it in 0..self.cfg.max_iter {
            iterations = it + 1;
            // Local x-update.
            rhs.clear();
            rhs.extend_from_slice(xty);
            for ((r, zi), ui) in rhs.iter_mut().zip(&z).zip(&u) {
                *r += rho * (zi - ui);
            }
            match &self.factor {
                Factorization::Primal(ch) => {
                    x_i.clear();
                    x_i.extend_from_slice(&rhs);
                    ch.solve_in_place(&mut x_i);
                }
                Factorization::Woodbury(ch) => {
                    let x = self.local_dense();
                    gemv_into(x, &rhs, &mut wn);
                    ch.solve_in_place(&mut wn);
                    gemv_t_into(x, &wn, &mut wt);
                    x_i.clear();
                    x_i.extend(rhs.iter().zip(&wt).map(|(vi, wi)| (vi - wi) / rho));
                }
            }
            ctx.compute_flops(admm_iter_flops(n, p), working_set);

            // z-update: allreduce the sum of (x_i + u_i), then threshold
            // the mean. The residual norms piggyback as three extra
            // scalars to keep one allreduce per iteration where possible;
            // ||x_i - z||^2 needs the *new* z, so it rides the next
            // iteration's reduction and the final check uses a dedicated
            // small allreduce.
            payload.clear();
            payload.extend(x_i.iter().zip(&u).map(|(a, c)| a + c));
            comm.allreduce_sum(ctx, &mut payload);
            z_old.copy_from_slice(&z);
            for v in &mut payload {
                *v /= b;
            }
            if kappa > 0.0 {
                soft_threshold_vec(&payload, kappa, &mut z);
            } else {
                z.copy_from_slice(&payload);
            }
            ctx.compute_membound((p * 8 * 3) as f64);

            // u-update.
            for ((ui, xi), zi) in u.iter_mut().zip(&x_i).zip(&z) {
                *ui += xi - zi;
            }

            // Global residuals (small allreduce of 3 scalars).
            let mut sums = [0.0_f64; 3];
            for ((xi, zi), ui) in x_i.iter().zip(&z).zip(&u) {
                sums[0] += (xi - zi) * (xi - zi);
                sums[1] += xi * xi;
                sums[2] += (rho * ui) * (rho * ui);
            }
            sums_v.clear();
            sums_v.extend_from_slice(&sums);
            comm.allreduce_sum(ctx, &mut sums_v);
            r_norm = sums_v[0].sqrt();
            let x_norm = sums_v[1].sqrt();
            let u_norm = sums_v[2].sqrt();
            let z_norm = uoi_linalg::norm2(&z) * b.sqrt();
            let dz: f64 = z
                .iter()
                .zip(&z_old)
                .map(|(a, c)| (a - c) * (a - c))
                .sum::<f64>()
                .sqrt();
            s_norm = rho * dz * b.sqrt();

            if self.cfg.capture_curve {
                curve_buf.push(r_norm);
            }
            let sqrt_np = (b * p as f64).sqrt();
            let eps_pri = sqrt_np * self.cfg.abstol + self.cfg.reltol * x_norm.max(z_norm);
            let eps_dual = sqrt_np * self.cfg.abstol + self.cfg.reltol * u_norm;
            if r_norm <= eps_pri && s_norm <= eps_dual {
                converged = true;
                break;
            }
        }

        ctx.span_exit(span);
        if comm.rank() == 0 {
            if let Some(m) = &self.metrics {
                m.incr("admm_dist.solves", 1);
                if converged {
                    m.incr("admm_dist.converged", 1);
                } else {
                    m.incr("admm_dist.max_iter_hit", 1);
                }
                m.observe("admm_dist.iterations", iterations as f64);
                m.observe("admm_dist.primal_residual", r_norm);
                m.observe("admm_dist.dual_residual", s_norm);
                m.observe("solver.iterations", iterations as f64);
                m.incr("solver.nonconverged", u64::from(!converged));
            }
        }
        AdmmSolution {
            beta: z,
            iterations,
            primal_residual: r_norm,
            dual_residual: s_norm,
            converged,
            curve: decimate_curve(&curve_buf, CURVE_MAX_POINTS),
        }
    }

    /// Distributed OLS (`lambda = 0`) — the paper's estimation solver.
    /// Wrapped in an `ols_estimation` span so profilers attribute the
    /// inner ADMM iterations to the estimation phase, not to LASSO.
    pub fn solve_ols(&self, ctx: &mut RankCtx, comm: &Comm, y_local: &[f64]) -> AdmmSolution {
        let sp = ctx.span_enter("ols_estimation.solve");
        let sol = self.solve(ctx, comm, y_local, 0.0);
        ctx.span_exit(sp);
        sol
    }

    /// Distributed OLS against a precomputed local rhs (Gram-built solvers).
    pub fn solve_ols_with_rhs(&self, ctx: &mut RankCtx, comm: &Comm, xty: &[f64]) -> AdmmSolution {
        let p = self.local_shape().1;
        let sp = ctx.span_enter("ols_estimation.solve");
        let sol = self.solve_warm_with_rhs(ctx, comm, xty, 0.0, vec![0.0; p], vec![0.0; p]);
        ctx.span_exit(sp);
        sol
    }

    /// Solve a whole lambda path. With the default
    /// [`PathSchedule::Sequential`], solves largest-first with warm starts;
    /// with [`PathSchedule::Fused`], delegates to
    /// [`DistLassoAdmm::solve_path_fused`]. `X_i^T y_i` is computed once
    /// for the whole path, not once per lambda.
    pub fn solve_path(
        &self,
        ctx: &mut RankCtx,
        comm: &Comm,
        y_local: &[f64],
        lambdas: &[f64],
    ) -> Vec<AdmmSolution> {
        if self.cfg.schedule == PathSchedule::Fused {
            return self.solve_path_fused(ctx, comm, y_local, lambdas);
        }
        let p = self.local_shape().1;
        let xty = self.prepare_local_rhs(ctx, y_local);
        let mut z = vec![0.0; p];
        let mut out = Vec::with_capacity(lambdas.len());
        for &lam in lambdas {
            let sol = self.solve_warm_with_rhs(ctx, comm, &xty, lam, z.clone(), vec![0.0; p]);
            z.clone_from(&sol.beta);
            out.push(sol);
        }
        out
    }

    /// [`DistLassoAdmm::solve_path_fused_with_rhs`] from a local response.
    pub fn solve_path_fused(
        &self,
        ctx: &mut RankCtx,
        comm: &Comm,
        y_local: &[f64],
        lambdas: &[f64],
    ) -> Vec<AdmmSolution> {
        let xty = self.prepare_local_rhs(ctx, y_local);
        self.solve_path_fused_with_rhs(ctx, comm, &xty, lambdas)
    }

    /// Solve every lambda of the path in lockstep from cold starts
    /// ([`PathSchedule::Fused`]). Per round, the still-active lambdas share
    ///
    /// * one multi-RHS triangular substitution over the cached local
    ///   Cholesky factor (the factor streams through the cache once per
    ///   round instead of once per lambda),
    /// * one batched consensus allreduce carrying every active column's
    ///   `x_i + u_i` payload, and
    /// * one batched residual allreduce (3 scalars per active column),
    ///
    /// and the modeled compute charge is `ceil(active / threads)` fused
    /// iterations ([`lockstep_round_charges`]). Per lambda the returned
    /// coefficients are bit-identical to a cold
    /// [`DistLassoAdmm::solve_warm_with_rhs`] from zero at that lambda:
    /// elementwise allreduce sums do not depend on how columns are packed
    /// into the payload, and each column's local arithmetic is unchanged.
    /// Collective over `comm`; all ranks see identical convergence
    /// decisions, so the batched schedule stays collectively consistent.
    pub fn solve_path_fused_with_rhs(
        &self,
        ctx: &mut RankCtx,
        comm: &Comm,
        xty: &[f64],
        lambdas: &[f64],
    ) -> Vec<AdmmSolution> {
        struct Col {
            kappa: f64,
            z: Vec<f64>,
            u: Vec<f64>,
            z_old: Vec<f64>,
            x_i: Vec<f64>,
            rhs: Vec<f64>,
            wn: Vec<f64>,
            wt: Vec<f64>,
            iterations: usize,
            converged: bool,
            r_norm: f64,
            s_norm: f64,
            curve: Vec<f64>,
        }

        let (n, p) = self.local_shape();
        assert_eq!(xty.len(), p, "local rhs length mismatch");
        let b = comm.size() as f64;
        let rho = self.rho;
        let threads = self.cfg.threads.max(1);
        let span = ctx.span_enter("admm_dist.solve");
        let working_set = ((n.min(p) * n.min(p) + n * p) * 8) as f64;

        let mut cols: Vec<Col> = lambdas
            .iter()
            .map(|&lam| {
                assert!(lam >= 0.0);
                Col {
                    kappa: lam / (rho * b),
                    z: vec![0.0; p],
                    u: vec![0.0; p],
                    z_old: vec![0.0; p],
                    x_i: Vec::with_capacity(p),
                    rhs: Vec::with_capacity(p),
                    wn: Vec::new(),
                    wt: Vec::new(),
                    iterations: 0,
                    converged: false,
                    r_norm: f64::INFINITY,
                    s_norm: f64::INFINITY,
                    curve: Vec::new(),
                }
            })
            .collect();

        // Per-column local stage over the still-active columns. Each rank
        // is already a thread, so the columns run on it one after another;
        // `threads` only sets the modeled charge below.
        let for_each_active = |cols: &mut [Col], f: &dyn Fn(&mut Col)| {
            for c in cols.iter_mut().filter(|c| !c.converged) {
                f(c);
            }
        };

        let mut payload: Vec<f64> = Vec::new();
        let mut sums_v: Vec<f64> = Vec::new();
        let mut rounds = 0usize;
        for _ in 0..self.cfg.max_iter {
            let active = cols.iter().filter(|c| !c.converged).count();
            if active == 0 {
                break;
            }
            rounds += 1;

            // Local x-updates: rhs builds, then one multi-RHS solve.
            for_each_active(&mut cols, &|c| {
                c.iterations += 1;
                c.rhs.clear();
                c.rhs.extend_from_slice(xty);
                for ((r, zi), ui) in c.rhs.iter_mut().zip(&c.z).zip(&c.u) {
                    *r += rho * (zi - ui);
                }
            });
            match &self.factor {
                Factorization::Primal(ch) => {
                    for_each_active(&mut cols, &|c| {
                        c.x_i.clear();
                        c.x_i.extend_from_slice(&c.rhs);
                    });
                    let mut rhs_cols: Vec<&mut [f64]> = cols
                        .iter_mut()
                        .filter(|c| !c.converged)
                        .map(|c| c.x_i.as_mut_slice())
                        .collect();
                    ch.solve_multi_in_place(&mut rhs_cols);
                }
                Factorization::Woodbury(ch) => {
                    for_each_active(&mut cols, &|c| {
                        gemv_into(self.local_dense(), &c.rhs, &mut c.wn);
                    });
                    let mut wn_cols: Vec<&mut [f64]> = cols
                        .iter_mut()
                        .filter(|c| !c.converged)
                        .map(|c| c.wn.as_mut_slice())
                        .collect();
                    ch.solve_multi_in_place(&mut wn_cols);
                    for_each_active(&mut cols, &|c| {
                        gemv_t_into(self.local_dense(), &c.wn, &mut c.wt);
                        c.x_i.clear();
                        c.x_i
                            .extend(c.rhs.iter().zip(&c.wt).map(|(vi, wi)| (vi - wi) / rho));
                    });
                }
            }
            for _ in 0..lockstep_round_charges(active, threads) {
                ctx.compute_flops(admm_iter_flops(n, p), working_set);
            }

            // One batched consensus allreduce for every active column.
            payload.clear();
            for c in cols.iter().filter(|c| !c.converged) {
                payload.extend(c.x_i.iter().zip(&c.u).map(|(a, u)| a + u));
            }
            comm.allreduce_sum(ctx, &mut payload);
            {
                let mut off = 0;
                for c in cols.iter_mut().filter(|c| !c.converged) {
                    let mean = &mut payload[off..off + p];
                    off += p;
                    c.z_old.copy_from_slice(&c.z);
                    for v in mean.iter_mut() {
                        *v /= b;
                    }
                    if c.kappa > 0.0 {
                        soft_threshold_vec(mean, c.kappa, &mut c.z);
                    } else {
                        c.z.copy_from_slice(mean);
                    }
                    ctx.compute_membound((p * 8 * 3) as f64);
                }
            }

            // u-updates and local residual sums.
            for_each_active(&mut cols, &|c| {
                for ((ui, xi), zi) in c.u.iter_mut().zip(&c.x_i).zip(&c.z) {
                    *ui += xi - zi;
                }
            });
            sums_v.clear();
            for c in cols.iter().filter(|c| !c.converged) {
                let mut sums = [0.0_f64; 3];
                for ((xi, zi), ui) in c.x_i.iter().zip(&c.z).zip(&c.u) {
                    sums[0] += (xi - zi) * (xi - zi);
                    sums[1] += xi * xi;
                    sums[2] += (rho * ui) * (rho * ui);
                }
                sums_v.extend_from_slice(&sums);
            }
            comm.allreduce_sum(ctx, &mut sums_v);
            let mut off = 0;
            for c in cols.iter_mut().filter(|c| !c.converged) {
                let sums = &sums_v[off..off + 3];
                off += 3;
                c.r_norm = sums[0].sqrt();
                let x_norm = sums[1].sqrt();
                let u_norm = sums[2].sqrt();
                let z_norm = uoi_linalg::norm2(&c.z) * b.sqrt();
                let dz: f64 =
                    c.z.iter()
                        .zip(&c.z_old)
                        .map(|(a, o)| (a - o) * (a - o))
                        .sum::<f64>()
                        .sqrt();
                c.s_norm = rho * dz * b.sqrt();
                if self.cfg.capture_curve {
                    c.curve.push(c.r_norm);
                }
                let sqrt_np = (b * p as f64).sqrt();
                let eps_pri = sqrt_np * self.cfg.abstol + self.cfg.reltol * x_norm.max(z_norm);
                let eps_dual = sqrt_np * self.cfg.abstol + self.cfg.reltol * u_norm;
                if c.r_norm <= eps_pri && c.s_norm <= eps_dual {
                    c.converged = true;
                }
            }
        }

        ctx.span_exit(span);
        if comm.rank() == 0 {
            if let Some(m) = &self.metrics {
                m.observe("admm_dist.fused_rounds", rounds as f64);
                for c in &cols {
                    m.incr("admm_dist.solves", 1);
                    if c.converged {
                        m.incr("admm_dist.converged", 1);
                    } else {
                        m.incr("admm_dist.max_iter_hit", 1);
                    }
                    m.observe("admm_dist.iterations", c.iterations as f64);
                    m.observe("admm_dist.primal_residual", c.r_norm);
                    m.observe("admm_dist.dual_residual", c.s_norm);
                    m.observe("solver.iterations", c.iterations as f64);
                    m.incr("solver.nonconverged", u64::from(!c.converged));
                }
            }
        }
        cols.into_iter()
            .map(|c| AdmmSolution {
                beta: c.z,
                iterations: c.iterations,
                primal_residual: c.r_norm,
                dual_residual: c.s_norm,
                converged: c.converged,
                curve: decimate_curve(&c.curve, CURVE_MAX_POINTS),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admm::LassoAdmm;
    use crate::diagnostics::lasso_kkt_violation;
    use uoi_mpisim::{Cluster, MachineModel, Phase};

    /// Deterministic test problem: y depends on features 0 and 3.
    fn problem(n: usize, p: usize) -> (Matrix, Vec<f64>) {
        let x = Matrix::from_fn(n, p, |i, j| {
            ((((i + 1) * (j + 7) * 2654435761_usize) % 1009) as f64 - 504.0) / 504.0
        });
        let y: Vec<f64> = (0..n)
            .map(|i| 2.5 * x[(i, 0)] - 1.2 * x[(i, 3)] + 0.05 * (((i * 13) % 7) as f64 - 3.0))
            .collect();
        (x, y)
    }

    fn dist_solve(ranks: usize, lambda: f64) -> (Vec<f64>, Matrix, Vec<f64>) {
        let (x, y) = problem(48, 6);
        let rows_per = 48 / ranks;
        let (x_ref, y_ref) = (x.clone(), y.clone());
        let report = Cluster::new(ranks, MachineModel::deterministic()).run(move |ctx, comm| {
            let r = comm.rank();
            let x_local = x_ref.rows_range(r * rows_per, (r + 1) * rows_per);
            let y_local = y_ref[r * rows_per..(r + 1) * rows_per].to_vec();
            let solver = DistLassoAdmm::new(
                ctx,
                comm,
                x_local,
                AdmmConfig {
                    max_iter: 6000,
                    abstol: 1e-10,
                    reltol: 1e-9,
                    ..Default::default()
                },
            );
            solver.solve(ctx, comm, &y_local, lambda).beta
        });
        (report.results[0].clone(), x, y)
    }

    #[test]
    fn distributed_matches_serial_lasso() {
        let lambda = 0.8;
        let (beta_dist, x, y) = dist_solve(4, lambda);
        let serial = LassoAdmm::new(
            x.clone(),
            AdmmConfig {
                max_iter: 6000,
                abstol: 1e-10,
                reltol: 1e-9,
                ..Default::default()
            },
        )
        .solve(&y, lambda);
        for (a, b) in beta_dist.iter().zip(&serial.beta) {
            assert!((a - b).abs() < 5e-3, "dist {a} vs serial {b}");
        }
        // And the distributed solution satisfies global KKT.
        assert!(lasso_kkt_violation(&x, &y, &beta_dist, lambda) < 5e-3);
    }

    #[test]
    fn all_ranks_agree_on_z() {
        let (x, y) = problem(32, 5);
        let report = Cluster::new(4, MachineModel::deterministic()).run(move |ctx, comm| {
            let r = comm.rank();
            let x_local = x.rows_range(r * 8, (r + 1) * 8);
            let y_local = y[r * 8..(r + 1) * 8].to_vec();
            let solver = DistLassoAdmm::new(ctx, comm, x_local, AdmmConfig::default());
            solver.solve(ctx, comm, &y_local, 0.5).beta
        });
        for r in 1..4 {
            assert_eq!(report.results[0], report.results[r], "consensus broken");
        }
    }

    #[test]
    fn distributed_ols_matches_exact() {
        let (x, y) = problem(40, 4);
        let (x_ref, y_ref) = (x.clone(), y.clone());
        let report = Cluster::new(4, MachineModel::deterministic()).run(move |ctx, comm| {
            let r = comm.rank();
            let x_local = x_ref.rows_range(r * 10, (r + 1) * 10);
            let y_local = y_ref[r * 10..(r + 1) * 10].to_vec();
            let solver = DistLassoAdmm::new(
                ctx,
                comm,
                x_local,
                AdmmConfig {
                    max_iter: 8000,
                    abstol: 1e-11,
                    reltol: 1e-10,
                    ..Default::default()
                },
            );
            solver.solve_ols(ctx, comm, &y_local).beta
        });
        let exact = uoi_linalg::solve_normal_equations(&x, &y, 0.0).unwrap();
        for (a, b) in report.results[0].iter().zip(&exact) {
            assert!((a - b).abs() < 1e-3, "ols dist {a} vs exact {b}");
        }
    }

    #[test]
    fn communication_time_recorded() {
        let (x, y) = problem(32, 5);
        let report = Cluster::new(4, MachineModel::deterministic()).run(move |ctx, comm| {
            let r = comm.rank();
            let solver = DistLassoAdmm::new(
                ctx,
                comm,
                x.rows_range(r * 8, (r + 1) * 8),
                AdmmConfig::default(),
            );
            let _ = solver.solve(ctx, comm, &y[r * 8..(r + 1) * 8], 0.5);
            ctx.ledger()
        });
        for l in &report.results {
            assert!(l.get(Phase::Compute) > 0.0);
            assert!(l.get(Phase::Comm) > 0.0);
        }
        assert!(report.allreduce_events().count() >= 2);
    }

    #[test]
    fn gram_built_solver_matches_dense() {
        let (x, y) = problem(40, 4);
        let (x_ref, y_ref) = (x, y);
        let report = Cluster::new(4, MachineModel::deterministic()).run(move |ctx, comm| {
            let r = comm.rank();
            let x_local = x_ref.rows_range(r * 10, (r + 1) * 10);
            let y_local = y_ref[r * 10..(r + 1) * 10].to_vec();
            let cfg = || AdmmConfig {
                max_iter: 8000,
                abstol: 1e-11,
                reltol: 1e-10,
                ..Default::default()
            };
            let dense = DistLassoAdmm::new(ctx, comm, x_local.clone(), cfg());
            let xty = dense.prepare_local_rhs(ctx, &y_local);
            let a = dense.solve_ols_with_rhs(ctx, comm, &xty).beta;
            let gram = DistLassoAdmm::from_gram(
                ctx,
                comm,
                uoi_linalg::syrk_t(&x_local),
                x_local.rows(),
                cfg(),
            );
            let b = gram.solve_ols_with_rhs(ctx, comm, &xty).beta;
            (a, b)
        });
        for (a, b) in &report.results {
            assert_eq!(a, b, "Gram-built solve must be bit-identical to dense");
        }
    }

    #[test]
    fn gram_built_solver_panics_on_design_access() {
        let report = Cluster::new(1, MachineModel::deterministic()).run(move |ctx, comm| {
            let x = Matrix::identity(3);
            let solver = DistLassoAdmm::from_gram(
                ctx,
                comm,
                uoi_linalg::syrk_t(&x),
                3,
                AdmmConfig::default(),
            );
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = solver.local_design();
            }))
            .is_err()
        });
        assert!(
            report.results[0],
            "local_design must panic for Gram-built solver"
        );
    }

    #[test]
    fn path_warm_start_matches_cold() {
        let (x, y) = problem(48, 6);
        let lambdas = [3.0, 1.0, 0.3];
        let (x_ref, y_ref) = (x, y);
        let report = Cluster::new(4, MachineModel::deterministic()).run(move |ctx, comm| {
            let r = comm.rank();
            let x_local = x_ref.rows_range(r * 12, (r + 1) * 12);
            let y_local = y_ref[r * 12..(r + 1) * 12].to_vec();
            let solver = DistLassoAdmm::new(
                ctx,
                comm,
                x_local,
                AdmmConfig {
                    max_iter: 6000,
                    abstol: 1e-10,
                    reltol: 1e-9,
                    ..Default::default()
                },
            );
            solver
                .solve_path(ctx, comm, &y_local, &lambdas)
                .into_iter()
                .map(|s| s.beta)
                .collect::<Vec<_>>()
        });
        for (i, &lam) in lambdas.iter().enumerate() {
            let (cold, _, _) = dist_solve(4, lam);
            for (a, b) in report.results[0][i].iter().zip(&cold) {
                assert!((a - b).abs() < 5e-3, "lambda {lam}: warm {a} vs cold {b}");
            }
        }
    }

    #[test]
    fn fused_path_bit_identical_to_cold_solves() {
        let (x, y) = problem(48, 6);
        let lambdas = [3.0, 1.0, 0.3, 0.0];
        let (x_ref, y_ref) = (x, y);
        let report = Cluster::new(4, MachineModel::deterministic()).run(move |ctx, comm| {
            let r = comm.rank();
            let x_local = x_ref.rows_range(r * 12, (r + 1) * 12);
            let y_local = y_ref[r * 12..(r + 1) * 12].to_vec();
            let cfg = AdmmConfig {
                max_iter: 6000,
                abstol: 1e-10,
                reltol: 1e-9,
                threads: 2,
                schedule: PathSchedule::Fused,
                ..Default::default()
            };
            let solver = DistLassoAdmm::new(ctx, comm, x_local, cfg);
            let xty = solver.prepare_local_rhs(ctx, &y_local);
            // Routed through solve_path (schedule = Fused).
            let fused = solver.solve_path(ctx, comm, &y_local, &lambdas);
            // Cold per-lambda references.
            let p = xty.len();
            let cold: Vec<AdmmSolution> = lambdas
                .iter()
                .map(|&lam| {
                    solver.solve_warm_with_rhs(ctx, comm, &xty, lam, vec![0.0; p], vec![0.0; p])
                })
                .collect();
            fused
                .iter()
                .zip(&cold)
                .map(|(f, c)| {
                    let bits_equal = f
                        .beta
                        .iter()
                        .zip(&c.beta)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    (bits_equal, f.iterations == c.iterations, f.converged)
                })
                .collect::<Vec<_>>()
        });
        for per_rank in &report.results {
            for (i, &(bits_equal, same_iters, converged)) in per_rank.iter().enumerate() {
                assert!(bits_equal, "lambda #{i}: fused differs from cold");
                assert!(same_iters, "lambda #{i}: iteration counts differ");
                assert!(converged, "lambda #{i}: did not converge");
            }
        }
    }

    #[test]
    fn fused_path_batches_allreduces() {
        // One payload + one residual allreduce per round, regardless of the
        // number of active lambdas: far fewer collectives than the
        // sequential path's per-lambda-per-iteration pairs.
        let (x, y) = problem(32, 5);
        let lambdas = [1.0, 0.5, 0.1];
        let run = |schedule: PathSchedule| {
            let (x_ref, y_ref) = (x.clone(), y.clone());
            Cluster::new(4, MachineModel::deterministic()).run(move |ctx, comm| {
                let r = comm.rank();
                let solver = DistLassoAdmm::new(
                    ctx,
                    comm,
                    x_ref.rows_range(r * 8, (r + 1) * 8),
                    AdmmConfig {
                        schedule,
                        ..Default::default()
                    },
                );
                let _ = solver.solve_path(ctx, comm, &y_ref[r * 8..(r + 1) * 8], &lambdas);
            })
        };
        let seq_events = run(PathSchedule::Sequential).allreduce_events().count();
        let fused_events = run(PathSchedule::Fused).allreduce_events().count();
        assert!(
            fused_events < seq_events,
            "fused {fused_events} should batch below sequential {seq_events}"
        );
    }
}
