//! Cholesky factorisation and triangular solves for symmetric
//! positive-definite systems.
//!
//! The ADMM x-update solves `(X^T X + rho I) x = b` once per iteration with a
//! *fixed* left-hand side, so the factorisation is computed once and cached
//! (see `uoi-solvers::admm`). This mirrors the `LLT` decomposition the
//! reference C++ used from Eigen3.
//!
//! The lockstep solvers advance many ADMM problems (lambdas, and VAR
//! response columns) over one factor, so their x-updates arrive as a panel
//! of right-hand sides. [`Cholesky::solve_panel_in_place`] solves such a
//! panel lane-parallel: the panel is lane-major (`panel[k * m + c]`), both
//! substitution passes keep the right-hand-side index innermost, and each
//! lane repeats the exact single-RHS operation sequence, so every lane is
//! bit-identical to [`Cholesky::solve_in_place`] on that column. The
//! factor keeps `L^T` in its otherwise-unused strict upper triangle so the
//! back pass reads `L`'s columns as contiguous rows. [`Cholesky::admm_round`]
//! wraps the same substitution in a whole lockstep ADMM round over an
//! [`AdmmLanes`] window.

use crate::dense::Matrix;
use crate::kernels::AdmmLanes;
use crate::simd::{self, Isa};

/// Order below which the unblocked factorisation is used directly.
const CHOL_BLOCK_THRESHOLD: usize = 128;
/// Panel width of the blocked right-looking factorisation.
const CHOL_NB: usize = 64;

/// Error raised when a matrix is not (numerically) positive definite.
#[derive(Debug, Clone, PartialEq)]
pub struct NotPositiveDefinite {
    /// Pivot index at which the factorisation broke down.
    pub pivot: usize,
    /// The offending pivot value.
    pub value: f64,
}

impl std::fmt::Display for NotPositiveDefinite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "matrix is not positive definite: pivot {} has value {:.3e}",
            self.pivot, self.value
        )
    }
}

impl std::error::Error for NotPositiveDefinite {}

/// Lower-triangular Cholesky factor `L` with `A = L L^T`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// `L` in the lower triangle (diagonal included) and its transpose in
    /// the strict upper triangle: entry `(i, k)` for `k > i` holds
    /// `L[k][i]`, so column `i` of `L` below the diagonal is a contiguous
    /// row tail for the back-substitution pass.
    l: Matrix,
}

impl Cholesky {
    /// Factor a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read. Small orders use the classic
    /// unblocked algorithm; larger ones switch to a blocked right-looking
    /// factorisation (panel factor + trailing update) that keeps the
    /// working set cache-resident through the O(n³) syrk/gemm bulk of the
    /// work.
    pub fn factor(a: &Matrix) -> Result<Self, NotPositiveDefinite> {
        let n = a.rows();
        assert_eq!(n, a.cols(), "Cholesky: matrix must be square");
        // Copy the lower triangle; the factorisation proceeds in place.
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            l.row_mut(i)[..=i].copy_from_slice(&a.row(i)[..=i]);
        }
        Self::factor_in_place(l)
    }

    /// Like [`Cholesky::factor`], but reading only the **upper** triangle
    /// of `a` (i.e. factoring `a`'s transpose image, which for a symmetric
    /// matrix is the same thing).
    ///
    /// This is the entry point for upper-stored Grams from
    /// [`crate::gram`]: the batched SYRK engine never writes the strict
    /// lower triangle, and this constructor lets the solver consume such a
    /// matrix without the O(p²) mirror pass. For a fully symmetric input
    /// the result is bit-identical to [`Cholesky::factor`].
    pub fn factor_upper(a: &Matrix) -> Result<Self, NotPositiveDefinite> {
        let n = a.rows();
        assert_eq!(n, a.cols(), "Cholesky: matrix must be square");
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            let row = l.row_mut(i);
            for k in 0..=i {
                row[k] = a[(k, i)];
            }
        }
        Self::factor_in_place(l)
    }

    /// Dispatch on order once the lower triangle has been staged in `l`,
    /// then mirror the factor into the strict upper triangle.
    fn factor_in_place(l: Matrix) -> Result<Self, NotPositiveDefinite> {
        let mut l = if l.rows() < CHOL_BLOCK_THRESHOLD {
            Self::factor_unblocked(l)?
        } else {
            Self::factor_blocked(l)?
        };
        let n = l.rows();
        for i in 0..n {
            for k in (i + 1)..n {
                l[(i, k)] = l[(k, i)];
            }
        }
        Ok(Self { l })
    }

    fn factor_unblocked(mut l: Matrix) -> Result<Matrix, NotPositiveDefinite> {
        let n = l.rows();
        for j in 0..n {
            // Diagonal entry: the original value survives at (j, j) until
            // this very step overwrites it.
            let mut d = l[(j, j)];
            for k in 0..j {
                d -= l[(j, k)] * l[(j, k)];
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(NotPositiveDefinite { pivot: j, value: d });
            }
            let dsqrt = d.sqrt();
            l[(j, j)] = dsqrt;
            // Column below the diagonal.
            for i in (j + 1)..n {
                let mut s = l[(i, j)];
                // Dot of rows i and j of L restricted to [0, j).
                let (ri, rj) = (l.row(i), l.row(j));
                for k in 0..j {
                    s -= ri[k] * rj[k];
                }
                l[(i, j)] = s / dsqrt;
            }
        }
        Ok(l)
    }

    /// Blocked right-looking variant: factor an NB-wide diagonal panel,
    /// triangular-solve the column panel below it, then apply the rank-NB
    /// trailing update row by row.
    fn factor_blocked(mut l: Matrix) -> Result<Matrix, NotPositiveDefinite> {
        let n = l.rows();
        let mut panel = Vec::new();
        for k in (0..n).step_by(CHOL_NB) {
            let kb = CHOL_NB.min(n - k);
            let k_end = k + kb;
            // 1. Unblocked factor of the diagonal block L11. Contributions
            //    from columns < k were already subtracted by earlier trailing
            //    updates, so inner sums only span the current panel.
            for j in k..k_end {
                let mut d = l[(j, j)];
                {
                    let rj = &l.row(j)[k..j];
                    for v in rj {
                        d -= v * v;
                    }
                }
                if d <= 0.0 || !d.is_finite() {
                    return Err(NotPositiveDefinite { pivot: j, value: d });
                }
                let dsqrt = d.sqrt();
                l[(j, j)] = dsqrt;
                for i in (j + 1)..k_end {
                    let mut s = l[(i, j)];
                    let (ri, rj) = (l.row(i), l.row(j));
                    for t in k..j {
                        s -= ri[t] * rj[t];
                    }
                    l[(i, j)] = s / dsqrt;
                }
            }
            // 2. Panel solve: L21 = A21 * L11^-T, row by row.
            for i in k_end..n {
                for j in k..k_end {
                    let mut s = l[(i, j)];
                    let (ri, rj) = (l.row(i), l.row(j));
                    for t in k..j {
                        s -= ri[t] * rj[t];
                    }
                    l[(i, j)] = s / l[(j, j)];
                }
            }
            if k_end == n {
                break;
            }
            // 3. Trailing update A22 -= L21 L21^T. The panel is copied out so
            //    the update borrows it immutably while writing the rows of
            //    the trailing block.
            let trailing = n - k_end;
            panel.clear();
            panel.reserve(trailing * kb);
            for i in k_end..n {
                panel.extend_from_slice(&l.row(i)[k..k_end]);
            }
            let ncols = n;
            l.as_mut_slice()[k_end * ncols..]
                .chunks_mut(ncols)
                .enumerate()
                .for_each(|(off, row)| {
                    let i = k_end + off;
                    let pi = &panel[off * kb..off * kb + kb];
                    for jj in k_end..=i {
                        let pj = &panel[(jj - k_end) * kb..(jj - k_end) * kb + kb];
                        row[jj] -= crate::blas::dot(pi, pj);
                    }
                });
        }
        // The strict upper triangle was never written and stays zero.
        Ok(l)
    }

    /// Order of the factored matrix.
    pub fn order(&self) -> usize {
        self.l.rows()
    }

    /// The lower-triangular factor `L` (strict upper triangle zero).
    pub fn factor_l(&self) -> Matrix {
        let n = self.order();
        Matrix::from_fn(n, n, |i, k| if k <= i { self.l[(i, k)] } else { 0.0 })
    }

    /// Solve `A x = b` via forward + back substitution.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut y = b.to_vec();
        self.solve_in_place(&mut y);
        y
    }

    /// In-place variant of [`Cholesky::solve`].
    pub fn solve_in_place(&self, b: &mut [f64]) {
        let n = self.order();
        assert_eq!(b.len(), n, "Cholesky::solve: rhs length mismatch");
        forward_substitute(&self.l, b);
        back_substitute_transposed(&self.l, b);
    }

    /// Fused multi-RHS solve: forward + back substitution over several
    /// right-hand sides at once, sharing this factorisation.
    ///
    /// The columns are copied into one lane-major panel
    /// (`panel[k * m + c]`), solved by [`Cholesky::solve_panel_in_place`],
    /// and copied back. Every column's result is bit-identical to solving
    /// it alone with [`Cholesky::solve_in_place`]. Allocates the panel;
    /// callers that solve every iteration keep their own panel and call
    /// [`Cholesky::solve_panel_in_place`] directly.
    pub fn solve_multi_in_place(&self, cols: &mut [&mut [f64]]) {
        let n = self.order();
        let m = cols.len();
        let mut panel = vec![0.0; n * m];
        for (c, b) in cols.iter().enumerate() {
            assert_eq!(b.len(), n, "Cholesky::solve_multi: rhs length mismatch");
            store_lane(&mut panel, m, c, b);
        }
        self.solve_panel_in_place(&mut panel, m);
        for (c, b) in cols.iter_mut().enumerate() {
            for (v, x) in b.iter_mut().zip(lane(&panel, m, c)) {
                *v = x;
            }
        }
    }

    /// Solve `A X = B` in place for `m` right-hand sides stored lane-major:
    /// entry `k` of right-hand side `c` lives at `panel[k * m + c]`.
    ///
    /// Both substitution passes keep the right-hand-side index innermost,
    /// in register groups of a per-ISA width plus one narrower remainder
    /// group, so each `L` entry is loaded once per group and the
    /// group's lanes form independent dependency chains the compiler
    /// vectorises. The forward pass also runs two rows per sweep, so a
    /// group keeps two accumulator sets live per `L` column it streams.
    /// The passes run compiled for the detected [`simd::isa`], except that
    /// an AVX-512 host solves panels of at most 8 lanes with its AVX2
    /// build. Each lane performs exactly the
    /// operation sequence of [`Cholesky::solve_in_place`] (no fused
    /// multiply-add, no reassociation), so every lane's result is
    /// bit-identical to a single-RHS solve of that column on every ISA.
    pub fn solve_panel_in_place(&self, panel: &mut [f64], m: usize) {
        self.solve_panel_in_place_with_isa(panel_build(simd::isa(), m), panel, m);
    }

    /// [`Cholesky::solve_panel_in_place`] compiled for `isa` instead of the
    /// detected one: the per-ISA benchmark and identity-test hook.
    ///
    /// # Panics
    ///
    /// If the host does not support `isa` (see [`Isa::is_supported`]), or
    /// if `panel.len() != order * m`.
    pub fn solve_panel_in_place_with_isa(&self, isa: Isa, panel: &mut [f64], m: usize) {
        let n = self.order();
        assert_eq!(
            panel.len(),
            n * m,
            "Cholesky::solve_panel: panel shape mismatch"
        );
        assert!(
            isa.is_supported(),
            "{} is not supported on this host",
            isa.name()
        );
        if m == 0 {
            return;
        }
        match isa {
            Isa::Baseline => {
                solve_panel_lanes::<{ BASELINE[0] }, { BASELINE[1] }>(&self.l, panel, m, m)
            }
            // SAFETY: the assertion above proved the host supports AVX2.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => unsafe { solve_panel_lanes_avx2(&self.l, panel, m, m) },
            // SAFETY: the assertion above proved the host supports AVX-512F.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => unsafe { solve_panel_lanes_avx512(&self.l, panel, m, m) },
        }
    }

    /// One lockstep ADMM round over every occupied lane of `lanes`, whose
    /// x-update system this factor is: the right-hand-side build, the
    /// panel solve, the z- and u-updates and the residual norms, in one
    /// call compiled for the detected ISA (dispatched as
    /// [`Cholesky::solve_panel_in_place`] is). Every lane is bit-identical
    /// to iterating its problem alone; see [`AdmmLanes`].
    pub fn admm_round(&self, lanes: &mut AdmmLanes) {
        self.admm_round_with_isa(panel_build(simd::isa(), lanes.width()), lanes);
    }

    /// [`Cholesky::admm_round`] compiled for `isa` instead of the detected
    /// one: the per-ISA identity-test hook.
    ///
    /// # Panics
    ///
    /// If the host does not support `isa`, or if `lanes` holds problems
    /// of another order.
    pub fn admm_round_with_isa(&self, isa: Isa, lanes: &mut AdmmLanes) {
        assert_eq!(
            lanes.order(),
            self.order(),
            "Cholesky::admm_round: lane order mismatch"
        );
        assert!(
            isa.is_supported(),
            "{} is not supported on this host",
            isa.name()
        );
        if lanes.width() == 0 {
            return;
        }
        match isa {
            Isa::Baseline => {
                admm_round_body::<{ BASELINE[0] }, { BASELINE[1] }, { BASELINE[2] }>(&self.l, lanes)
            }
            // SAFETY: the assertion above proved the host supports AVX2.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => unsafe { admm_round_avx2(&self.l, lanes) },
            // SAFETY: the assertion above proved the host supports AVX-512F.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => unsafe { admm_round_avx512(&self.l, lanes) },
        }
    }

    /// Solve `A X = B` column by column.
    pub fn solve_matrix(&self, b: &Matrix) -> Matrix {
        assert_eq!(b.rows(), self.order());
        let mut out = Matrix::zeros(b.rows(), b.cols());
        for j in 0..b.cols() {
            let col = self.solve(&b.col(j));
            out.set_col(j, &col);
        }
        out
    }

    /// log-determinant of `A` (`2 * sum log diag(L)`), used by
    /// information-criterion diagnostics.
    pub fn log_det(&self) -> f64 {
        (0..self.order()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }
}

/// Solve `L y = b` in place for lower-triangular `L`.
pub fn forward_substitute(l: &Matrix, b: &mut [f64]) {
    let n = l.rows();
    for i in 0..n {
        let row = l.row(i);
        let mut s = b[i];
        for k in 0..i {
            s -= row[k] * b[k];
        }
        b[i] = s / row[i];
    }
}

/// Solve `L^T x = y` in place for lower-triangular `L` (i.e. an
/// upper-triangular solve against the transpose, without materialising it).
pub fn back_substitute_transposed(l: &Matrix, b: &mut [f64]) {
    let n = l.rows();
    for i in (0..n).rev() {
        let mut s = b[i];
        for k in (i + 1)..n {
            s -= l[(k, i)] * b[k];
        }
        b[i] = s / l[(i, i)];
    }
}

/// Write `col` into lane `c` of a lane-major panel of `m` lanes
/// (`panel[k * m + c] = col[k]`).
pub fn store_lane(panel: &mut [f64], m: usize, c: usize, col: &[f64]) {
    for (slot, v) in panel[c..].iter_mut().step_by(m).zip(col) {
        *slot = *v;
    }
}

/// Lane `c` of a lane-major panel of `m` lanes, entry by entry.
pub fn lane(panel: &[f64], m: usize, c: usize) -> impl Iterator<Item = f64> + '_ {
    panel[c..].iter().step_by(m).copied()
}

// Lanes per register group of the code each ISA build compiles, as
// `[forward, back, update]`: the two passes of the panel solve and the
// z-/u-update stage of `Cholesky::admm_round`. A solve group keeps one
// accumulator chain per register per row, and the paired forward pass
// two rows' worth; a single chain is latency-bound, since each subtract
// waits on the previous one. An update group keeps its twenty partial
// norm sums in registers. The shapes were chosen by timing candidates on
// the development host (CHANGES.md): solve groups of 8 lanes (four xmm)
// on the SSE2 baseline and 16 (four ymm) under AVX2; under AVX-512,
// 16-lane (two zmm) forward groups, which run two rows and so four
// chains, and 32-lane (four zmm) back groups, which cannot pair rows.
// 32-lane forward groups and single 24- to 31-lane groups ran slower, so
// a back-pass remainder wider than the forward group runs as one
// forward-width group plus one narrower group. Update groups of 8 lanes
// beat 4 and 16 under AVX2 and AVX-512, and 4 beat 2 and 1 on the
// baseline.
pub(crate) const BASELINE: [usize; 3] = [8, 8, 4];
#[cfg(target_arch = "x86_64")]
const AVX2: [usize; 3] = [16, 16, 8];
#[cfg(target_arch = "x86_64")]
const AVX512: [usize; 3] = [16, 32, 8];

/// Right-hand sides per register group of the panel solve in the widest
/// group any build of this target uses.
#[cfg(target_arch = "x86_64")]
pub const SOLVE_LANES: usize = AVX512[1];
/// Right-hand sides per register group of the panel solve in the widest
/// group any build of this target uses.
#[cfg(not(target_arch = "x86_64"))]
pub const SOLVE_LANES: usize = BASELINE[1];

/// Panels of at most this many lanes run the AVX2 build on an AVX-512
/// host: eight lanes are one zmm chain per row but two ymm chains, and
/// the back pass cannot pair rows, so the narrower registers finish
/// first (solve of 128 x 8: 15.9 us against 31.3 us; 512 x 8: 229 us
/// against 321 us).
const AVX512_MIN_LANES: usize = 8;

/// The build a panel of `m` lanes runs on a host whose widest ISA is
/// `isa`: `isa` itself, except that panels of at most
/// [`AVX512_MIN_LANES`] lanes drop from AVX-512 to AVX2 (measured in
/// CHANGES.md). Every build is bit-identical, so this choice moves time
/// only.
fn panel_build(isa: Isa, m: usize) -> Isa {
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 if m <= AVX512_MIN_LANES => Isa::Avx2,
        other => other,
    }
}

/// One substitution step for lanes `c0..c0 + W` of a lane-major panel
/// with row stride `stride`: `s = b[c]; s -= coef[k] * rows[k][c]` for
/// each `k` in order, then `b[c] = s / d`. This is the single-RHS step of
/// [`forward_substitute`] / [`back_substitute_transposed`], run for `W`
/// lanes side by side.
#[inline(always)]
fn lane_group<const W: usize>(
    coef: &[f64],
    rows: std::slice::ChunksExact<'_, f64>,
    b: &mut [f64],
    c0: usize,
    d: f64,
) {
    let mut s = [0.0; W];
    s.copy_from_slice(&b[c0..c0 + W]);
    for (lk, bk) in coef.iter().zip(rows) {
        let bk = &bk[c0..c0 + W];
        for c in 0..W {
            s[c] -= lk * bk[c];
        }
    }
    for c in 0..W {
        b[c0 + c] = s[c] / d;
    }
}

/// Forward substitution of rows `i` and `i + 1` for lanes `c0..c0 + W`.
/// Both rows' terms `k < i` run in one sweep over the solved rows (two
/// chains per lane, one load of each solved row); row `i` is divided, and
/// only then does row `i + 1` take its `k = i` term and its divide. Each
/// lane therefore performs exactly the single-RHS sequence of both rows.
#[inline(always)]
fn forward_pair<const W: usize>(
    ri: &[f64],
    rj: &[f64],
    panel: &mut [f64],
    stride: usize,
    c0: usize,
    i: usize,
) {
    let (done, rest) = panel.split_at_mut(i * stride);
    let (bi, bj) = rest.split_at_mut(stride);
    let mut s = [0.0; W];
    let mut t = [0.0; W];
    s.copy_from_slice(&bi[c0..c0 + W]);
    t.copy_from_slice(&bj[c0..c0 + W]);
    for ((a, b), bk) in ri[..i].iter().zip(&rj[..i]).zip(done.chunks_exact(stride)) {
        let bk = &bk[c0..c0 + W];
        for c in 0..W {
            s[c] -= a * bk[c];
            t[c] -= b * bk[c];
        }
    }
    let (d, e, f) = (ri[i], rj[i], rj[i + 1]);
    for c in 0..W {
        s[c] /= d;
    }
    for c in 0..W {
        t[c] -= e * s[c];
    }
    for c in 0..W {
        t[c] /= f;
    }
    bi[c0..c0 + W].copy_from_slice(&s);
    bj[c0..c0 + W].copy_from_slice(&t);
}

/// Both lane-major substitution passes over lanes `0..m` of a panel with
/// row stride `stride >= m`, in register groups of `F` (forward) and `B`
/// (back) lanes plus one remainder group each: the body every ISA
/// instantiation of the panel solve compiles.
#[inline(always)]
fn solve_panel_lanes<const F: usize, const B: usize>(
    l: &Matrix,
    panel: &mut [f64],
    stride: usize,
    m: usize,
) {
    let n = l.rows();
    let full = m - m % F;
    // Forward: `L y = b`, two rows per sweep, then a single tail row.
    let mut i = 0;
    while i + 1 < n {
        let (ri, rj) = (l.row(i), l.row(i + 1));
        for c0 in (0..full).step_by(F) {
            forward_pair::<F>(ri, rj, panel, stride, c0, i);
        }
        with_width!(m - full, R => forward_pair::<R>(ri, rj, panel, stride, full, i));
        i += 2;
    }
    if i < n {
        let row = l.row(i);
        let (done, rest) = panel.split_at_mut(i * stride);
        let b = &mut rest[..stride];
        for c0 in (0..full).step_by(F) {
            lane_group::<F>(&row[..i], done.chunks_exact(stride), b, c0, row[i]);
        }
        with_width!(m - full, R => lane_group::<R>(&row[..i], done.chunks_exact(stride), b, full, row[i]));
    }
    // Back: `L^T x = y`. Row `i` right of the diagonal holds column `i`
    // of `L` below it, and row `i - 1` needs row `i`'s result as its first
    // term, so this pass can only widen across lanes.
    // Full groups of `B`, then (when `B > F`) one group of `F`, then one
    // narrower group: remainders wider than `F` ran slower as one group.
    let full = m - m % B;
    let mid = if m - full >= F { full + F } else { full };
    for i in (0..n).rev() {
        let row = l.row(i);
        let (head, tail) = panel.split_at_mut((i + 1) * stride);
        let b = &mut head[i * stride..];
        for c0 in (0..full).step_by(B) {
            lane_group::<B>(&row[i + 1..], tail.chunks_exact(stride), b, c0, row[i]);
        }
        if mid > full {
            lane_group::<F>(&row[i + 1..], tail.chunks_exact(stride), b, full, row[i]);
        }
        with_width!(m - mid, R => lane_group::<R>(&row[i + 1..], tail.chunks_exact(stride), b, mid, row[i]));
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn solve_panel_lanes_avx2(l: &Matrix, panel: &mut [f64], stride: usize, m: usize) {
    solve_panel_lanes::<{ AVX2[0] }, { AVX2[1] }>(l, panel, stride, m)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn solve_panel_lanes_avx512(l: &Matrix, panel: &mut [f64], stride: usize, m: usize) {
    solve_panel_lanes::<{ AVX512[0] }, { AVX512[1] }>(l, panel, stride, m)
}

/// One lockstep ADMM round (see [`AdmmLanes`]): the body every ISA
/// instantiation of [`Cholesky::admm_round`] compiles.
#[inline(always)]
fn admm_round_body<const F: usize, const B: usize, const U: usize>(
    l: &Matrix,
    lanes: &mut AdmmLanes,
) {
    lanes.build_rhs_body();
    let (slots, m) = (lanes.slots(), lanes.width());
    solve_panel_lanes::<F, B>(l, lanes.x_mut(), slots, m);
    lanes.update_body::<U>();
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn admm_round_avx2(l: &Matrix, lanes: &mut AdmmLanes) {
    admm_round_body::<{ AVX2[0] }, { AVX2[1] }, { AVX2[2] }>(l, lanes)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn admm_round_avx512(l: &Matrix, lanes: &mut AdmmLanes) {
    admm_round_body::<{ AVX512[0] }, { AVX512[1] }, { AVX512[2] }>(l, lanes)
}

/// Convenience: solve the SPD system `a x = b` with a one-shot factorisation.
pub fn solve_spd(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, NotPositiveDefinite> {
    Ok(Cholesky::factor(a)?.solve(b))
}

/// Solve the regularised normal equations `(X^T X + ridge I) beta = X^T y`.
///
/// With `ridge = 0` this is ordinary least squares (requires full column
/// rank); a tiny positive `ridge` is the standard jitter fallback.
pub fn solve_normal_equations(
    x: &Matrix,
    y: &[f64],
    ridge: f64,
) -> Result<Vec<f64>, NotPositiveDefinite> {
    let mut gram = crate::blas::syrk_t(x);
    if ridge != 0.0 {
        for i in 0..gram.rows() {
            gram[(i, i)] += ridge;
        }
    }
    let rhs = crate::blas::gemv_t(x, y);
    solve_spd(&gram, &rhs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::{gemm, gemv};

    fn spd_test_matrix(n: usize) -> Matrix {
        // A = B^T B + n I is SPD for any B.
        let b = Matrix::from_fn(n + 3, n, |i, j| ((i * 7 + j * 3) % 5) as f64 - 2.0);
        let mut a = crate::blas::syrk_t(&b);
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd_test_matrix(8);
        let ch = Cholesky::factor(&a).unwrap();
        let l = ch.factor_l();
        let rec = gemm(&l, &l.transpose());
        assert!(rec.approx_eq(&a, 1e-10));
    }

    #[test]
    fn solve_recovers_rhs() {
        let a = spd_test_matrix(10);
        let x_true: Vec<f64> = (0..10).map(|i| (i as f64) - 4.5).collect();
        let b = gemv(&a, &x_true);
        let x = solve_spd(&a, &b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9, "{xi} vs {ti}");
        }
    }

    #[test]
    fn solve_matrix_multiple_rhs() {
        let a = spd_test_matrix(6);
        let ch = Cholesky::factor(&a).unwrap();
        let b = Matrix::from_fn(6, 3, |i, j| (i + j) as f64);
        let x = ch.solve_matrix(&b);
        assert!(gemm(&a, &x).approx_eq(&b, 1e-9));
    }

    #[test]
    fn blocked_factor_matches_unblocked() {
        // 150 > CHOL_BLOCK_THRESHOLD exercises the blocked right-looking path
        // (including a partial final panel); compare against the unblocked
        // reference on the same matrix.
        let a = spd_test_matrix(150);
        let blocked = Cholesky::factor(&a).unwrap();
        let mut staged = Matrix::zeros(150, 150);
        for i in 0..150 {
            staged.row_mut(i)[..=i].copy_from_slice(&a.row(i)[..=i]);
        }
        let reference = Cholesky::factor_unblocked(staged).unwrap();
        let l = blocked.factor_l();
        assert!(l.approx_eq(&reference, 1e-8));
        let rec = gemm(&l, &l.transpose());
        assert!(rec.approx_eq(&a, 1e-7));
        // Solves agree too.
        let x_true: Vec<f64> = (0..150).map(|i| ((i % 13) as f64) - 6.0).collect();
        let b = gemv(&a, &x_true);
        let x = blocked.solve(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-7, "{xi} vs {ti}");
        }
    }

    #[test]
    fn blocked_factor_rejects_non_spd() {
        // Indefinite matrix large enough for the blocked path: B^T B minus a
        // large diagonal shift flips eigenvalues negative.
        let mut a = spd_test_matrix(140);
        a[(133, 133)] = -5.0e4;
        let err = Cholesky::factor(&a).unwrap_err();
        assert!(err.pivot <= 133);
        assert!(err.value <= 0.0 || !err.value.is_finite());
    }

    #[test]
    fn factor_upper_bit_identical_on_symmetric_input() {
        // Both the unblocked (n < 128) and blocked dispatch, on a fully
        // symmetric matrix: reading the upper triangle must reproduce the
        // lower-triangle factorisation bit for bit.
        for n in [1, 9, 57, 150] {
            let a = spd_test_matrix(n);
            let lower = Cholesky::factor(&a).unwrap();
            let upper = Cholesky::factor_upper(&a).unwrap();
            for (g, w) in upper
                .factor_l()
                .as_slice()
                .iter()
                .zip(lower.factor_l().as_slice())
            {
                assert_eq!(g.to_bits(), w.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn factor_upper_ignores_strict_lower_garbage() {
        let a = spd_test_matrix(40);
        let mut upper_only = a.clone();
        for i in 0..40 {
            for j in 0..i {
                upper_only[(i, j)] = f64::NAN;
            }
        }
        let from_full = Cholesky::factor_upper(&a).unwrap();
        let from_upper = Cholesky::factor_upper(&upper_only).unwrap();
        for (g, w) in from_upper
            .factor_l()
            .as_slice()
            .iter()
            .zip(from_full.factor_l().as_slice())
        {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn non_spd_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        let err = Cholesky::factor(&a).unwrap_err();
        assert_eq!(err.pivot, 1);
    }

    #[test]
    fn log_det_identity_is_zero() {
        let ch = Cholesky::factor(&Matrix::identity(5)).unwrap();
        assert!(ch.log_det().abs() < 1e-14);
    }

    #[test]
    fn multi_rhs_solve_bit_identical_to_single() {
        for n in [1, 3, 17, 140] {
            let a = spd_test_matrix(n);
            let ch = Cholesky::factor(&a).unwrap();
            let mut cols: Vec<Vec<f64>> = (0..5)
                .map(|c| {
                    (0..n)
                        .map(|i| ((i * 7 + c * 13 + 3) % 19) as f64 * 0.41 - 2.0)
                        .collect()
                })
                .collect();
            let singles: Vec<Vec<f64>> = cols.iter().map(|b| ch.solve(b)).collect();
            let mut views: Vec<&mut [f64]> = cols.iter_mut().map(|c| c.as_mut_slice()).collect();
            ch.solve_multi_in_place(&mut views);
            for (got, want) in cols.iter().zip(&singles) {
                for (g, w) in got.iter().zip(want) {
                    assert_eq!(g.to_bits(), w.to_bits(), "n={n}");
                }
            }
        }
    }

    #[test]
    fn panel_solve_every_isa_bit_identical_to_baseline() {
        let isas: Vec<Isa> = Isa::supported().collect();
        let names: Vec<&str> = isas.iter().map(|i| i.name()).collect();
        println!("panel-solve ISA identity covers: {}", names.join(", "));
        // Entry `e` of a panel: mostly ordinary values, salted with ±0 and
        // subnormals everywhere and, in every seventh lane only, values at
        // or past `f64::MAX` whose products with `L` overflow (so the other
        // lanes stay finite).
        let entry = |e: usize, m: usize| -> f64 {
            let v = ((e * 7 + 3) % 19) as f64 * 0.41 - 3.7;
            match (e as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 59 {
                0 => 0.0,
                1 => -0.0,
                2 => v * 1e-310,
                3 => f64::from_bits(1 + e as u64 % 5),
                4 if (e % m) % 7 == 3 => v * 1e308,
                _ => v,
            }
        };
        // Odd orders end the paired forward pass on a single row; 512 is
        // the `lasso_tall` order. Widths 0..=70 cover every register-group
        // shape of every build: full groups, each remainder width, and the
        // narrow panels an AVX-512 host hands to the AVX2 build.
        for n in [1usize, 2, 3, 5, 63, 128, 129, 300, 512] {
            let ch = Cholesky::factor(&spd_test_matrix(n)).unwrap();
            let widths: Vec<usize> = if n == 512 {
                vec![0, 1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 70]
            } else {
                (0..=70).collect()
            };
            for m in widths {
                let panel: Vec<f64> = (0..n * m).map(|e| entry(e, m)).collect();
                let mut want = panel.clone();
                ch.solve_panel_in_place_with_isa(Isa::Baseline, &mut want, m);
                // The baseline build itself repeats the single-RHS solve.
                for c in 0..m {
                    let mut col: Vec<f64> = lane(&panel, m, c).collect();
                    ch.solve_in_place(&mut col);
                    for (k, (g, w)) in lane(&want, m, c).zip(&col).enumerate() {
                        assert!(
                            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                            "baseline n={n} m={m} lane {c} row {k}: {g:e} vs single {w:e}"
                        );
                    }
                }
                for &isa in &isas {
                    let mut got = panel.clone();
                    ch.solve_panel_in_place_with_isa(isa, &mut got, m);
                    for (e, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert!(
                            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                            "{} n={n} m={m} entry {e}: {g:e} vs baseline {w:e}",
                            isa.name()
                        );
                    }
                }
            }
        }
    }

    /// One single-lane ADMM iteration in the historical form: rhs build,
    /// `solve_in_place`, the `kernels` z-update and the `blas` norms.
    fn admm_step_reference(
        ch: &Cholesky,
        rho: f64,
        kappa: f64,
        xty: &[f64],
        z: &mut [f64],
        u: &mut [f64],
    ) -> [f64; crate::kernels::ADMM_NORMS] {
        use crate::blas::{norm2, norm2_diff, norm2_scaled, norm2_scaled_diff};
        let mut x: Vec<f64> = (0..xty.len())
            .map(|i| xty[i] + rho * (z[i] - u[i]))
            .collect();
        ch.solve_in_place(&mut x);
        let z_old = z.to_vec();
        let mut xu = vec![0.0; x.len()];
        crate::kernels::add(&x, u, &mut xu);
        if kappa > 0.0 {
            crate::kernels::soft_threshold(&xu, kappa, z);
        } else {
            z.copy_from_slice(&xu);
        }
        for ((ui, xi), zi) in u.iter_mut().zip(&x).zip(&*z) {
            *ui += xi - zi;
        }
        [
            norm2_diff(&x, z),
            norm2_scaled_diff(rho, z, &z_old),
            norm2(&x),
            norm2(z),
            norm2_scaled(rho, u),
        ]
    }

    #[test]
    fn admm_round_every_isa_bit_identical_to_single_lane() {
        let same = |g: f64, w: f64| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
        let rho = 1.7;
        for n in [1usize, 2, 3, 4, 5, 63, 128, 129] {
            let ch = Cholesky::factor(&spd_test_matrix(n)).unwrap();
            for m in [0usize, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33] {
                let entry = |c: usize, k: usize, salt: usize| -> f64 {
                    let e = (c * 131 + k * 7 + salt) as u64;
                    let v = ((e * 7 + 3) % 19) as f64 * 0.41 - 3.7;
                    match e.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60 {
                        0 => 0.0,
                        1 => -0.0,
                        2 => v * 1e-310,
                        3 if c % 11 == 5 => v * 1e300,
                        _ => v,
                    }
                };
                let lane_vec = |c: usize, salt: usize| (0..n).map(|k| entry(c, k, salt)).collect();
                let xty: Vec<Vec<f64>> = (0..m).map(|c| lane_vec(c, 0)).collect();
                let z0: Vec<Vec<f64>> = (0..m).map(|c| lane_vec(c, 1)).collect();
                let u0: Vec<Vec<f64>> = (0..m).map(|c| lane_vec(c, 2)).collect();
                let kappa: Vec<f64> = (0..m)
                    .map(|c| if c % 3 == 0 { 0.0 } else { 0.3 * c as f64 })
                    .collect();
                for isa in Isa::supported() {
                    for extra in [0, 3] {
                        let mut lanes = AdmmLanes::new();
                        lanes.reset(n, m + extra, rho);
                        for c in 0..m {
                            lanes.push(&xty[c], kappa[c]);
                            lanes.set_state(c, &z0[c], &u0[c]);
                        }
                        let (mut z, mut u) = (z0.clone(), u0.clone());
                        // Slot -> lane; the window drops a lane after the
                        // first round to exercise the swap-remove.
                        let mut slot_lane: Vec<usize> = (0..m).collect();
                        for round in 0..3 {
                            ch.admm_round_with_isa(isa, &mut lanes);
                            let (mut gz, mut gu) = (vec![0.0; n], vec![0.0; n]);
                            for (c, &l) in slot_lane.iter().enumerate() {
                                let what = format!(
                                    "{} n={n} m={m}+{extra} round {round} lane {l}",
                                    isa.name()
                                );
                                let want = admm_step_reference(
                                    &ch, rho, kappa[l], &xty[l], &mut z[l], &mut u[l],
                                );
                                let got = lanes.norms(c);
                                for (g, w) in got.iter().zip(&want) {
                                    assert!(same(*g, *w), "{what}: norm {g:e} vs {w:e}");
                                }
                                lanes.state(c, &mut gz, &mut gu);
                                for k in 0..n {
                                    assert!(same(gz[k], z[l][k]), "{what}: z[{k}]");
                                    assert!(same(gu[k], u[l][k]), "{what}: u[{k}]");
                                }
                            }
                            if round == 0 && m >= 2 {
                                lanes.swap_remove(0);
                                slot_lane.swap_remove(0);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn normal_equations_exact_fit() {
        // y = 2 x0 - 3 x1 exactly.
        let x = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0], &[2.0, 1.0]]);
        let y = [2.0, -3.0, -1.0, 1.0];
        let beta = solve_normal_equations(&x, &y, 0.0).unwrap();
        assert!((beta[0] - 2.0).abs() < 1e-10);
        assert!((beta[1] + 3.0).abs() < 1e-10);
    }
}
