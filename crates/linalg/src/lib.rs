//! # uoi-linalg
//!
//! Dense and sparse linear-algebra kernels for the UoI workspace — the
//! substrate the reference implementation obtained from Eigen3 and Intel
//! MKL (paper §IV). The solvers only require a narrow BLAS surface:
//!
//! * [`dense::Matrix`] — row-major dense matrices with the bootstrap /
//!   support gather operations the UoI maps use;
//! * [`blas`] — dot/axpy, `gemv`/`gemv_t`, a cache-blocked `gemm`, and
//!   `syrk_t` for Gram matrices;
//! * [`kernels`] — the explicitly lane-unrolled inner-loop kernels of the
//!   ADMM hot path (dot, axpy, add, soft-threshold, blocked `symv`) with
//!   one coherent naming scheme; `blas::dot`/`blas::axpy` delegate here;
//! * [`chol`] — Cholesky factorisation with cached solves (the ADMM
//!   x-update) and regularised normal equations;
//! * [`sparse::CsrMatrix`] — CSR kernels for the block-diagonal `UoI_VAR`
//!   path (the paper's Eigen-Sparse substitute);
//! * [`kron::IdentityKron`] — the matrix-free `I ⊗ X` operator of eq. 9,
//!   with its explicit CSR form and the `I ⊗ (X^T X)` Gram identity;
//! * [`eig`] — companion-matrix spectral radius for the VAR stability
//!   constraint of eq. 6;
//! * [`par`] — the deterministic scoped fork-join the serial pipelines
//!   use for task-grain in-rank threading;
//! * [`simd`] — the run-time ISA probe that picks the AVX-512, AVX2 or
//!   baseline build of the Gram tile sweep and the panel solve.

// Numeric kernels index by position on purpose: the loops mirror the
// textbook algorithms (Cholesky, Householder, blocked gemm) and iterator
// rewrites obscure the math without changing the codegen.
#![allow(clippy::needless_range_loop)]
// The only `unsafe` in the workspace is the call into a `#[target_feature]`
// instantiation after its ISA was detected; each carries its proof.
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

/// Run `$body` with the const `$w` bound to the runtime width `$r`, for
/// every remainder width a lane-major register group leaves (`1..16`):
/// the remainder lanes of the panel solve and of the lockstep round's
/// update run as one group, as independent chains, rather than as a
/// sequence of narrower sweeps. `0` does nothing. Arms at or above a
/// build's group width are unreachable and fold away.
macro_rules! with_width {
    ($r:expr, $w:ident => $body:expr) => {
        with_width!(@arms $r, $w => $body; 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15)
    };
    (@arms $r:expr, $w:ident => $body:expr; $($n:literal)*) => {
        match $r {
            0 => {}
            $($n => {
                const $w: usize = $n;
                $body
            })*
            _ => unreachable!("remainder wider than any register group"),
        }
    };
}

pub mod blas;
pub mod chol;
pub mod dense;
pub mod eig;
pub mod gram;
pub mod kernels;
pub mod kron;
pub mod par;
pub mod qr;
pub mod resilience;
pub mod simd;
pub mod sparse;
pub mod testgen;

pub use blas::{
    axpy, dot, gemm, gemv, gemv_into, gemv_t, gemv_t_into, gemv_t_weighted, mse, mse_into, norm1,
    norm2, norm2_diff, norm2_scaled, norm2_scaled_diff, norm_inf, r_squared, r_squared_into,
    syrk_t, syrk_t_weighted, weighted_sumsq,
};
pub use chol::{
    lane, solve_normal_equations, solve_spd, store_lane, Cholesky, NotPositiveDefinite,
};
pub use dense::Matrix;
pub use eig::{companion_matrix, spectral_radius, var_is_stable};
pub use gram::{
    gemv_t_weighted_multi, gram_batch, gram_batch_par, gram_rhs_batch, gram_rhs_batch_par,
    syrk_t_upper, syrk_t_weighted_batch, syrk_t_weighted_upper, UpperGram,
};
pub use kron::{kron_dense, IdentityKron};
pub use qr::{qr_least_squares, Qr};
pub use resilience::{
    condest_1norm, factor_jittered, factor_upper_jittered, sym_norm1_upper, FactorBreakdown,
    JitterLadder, JitteredFactor, JITTER_GROWTH, JITTER_MAX_ATTEMPTS,
};
pub use sparse::CsrMatrix;
