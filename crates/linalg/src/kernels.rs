//! SIMD-friendly inner-loop kernels behind one coherent naming scheme.
//!
//! These are the hot loops of the ADMM x-/z-updates, written with explicit
//! 4-lane unrolling ([`LANES`]) so LLVM vectorises them without fast-math,
//! plus a scalar remainder loop for the tail. The single-problem kernels
//! compile for the target's baseline ISA only — on x86-64 that is SSE2,
//! so the four lanes run as two 2-wide registers.
//!
//! The lockstep solvers keep a window of problems lane-major instead
//! ([`AdmmLanes`]: `z`, `u`, `X^T y` and the x-update of every lane in
//! `[k * slots + c]` panels), and a whole round — right-hand sides, the
//! panel solve, the z-/u-updates and the residual norms — is one body
//! that [`crate::Cholesky::admm_round`] dispatches once per round to its
//! AVX-512, AVX2 or baseline build ([`crate::simd`]), like the Gram tile
//! sweep. The lane-major loops vectorise across lanes, so each lane
//! keeps the exact operation sequence, and the norms the `k mod 4`
//! partial sums, of the single-problem kernels. Every kernel follows the
//! same conventions:
//!
//! * inputs first, caller-provided output slice last — no allocating
//!   variants, no `_into`/`_t`/`_weighted` suffix soup;
//! * deterministic accumulation order, fixed regardless of thread count,
//!   so results are reproducible down to `f64::to_bits`;
//! * [`dot`] and [`axpy`] are **bit-identical** to the historical
//!   `blas::dot`/`blas::axpy` loops (which now delegate here): the four
//!   partial accumulators are combined left-to-right exactly as before.
//!
//! [`soft_threshold`] is branchless — `(a-k).max(0) - (-a-k).max(0)` — and
//! bit-identical to the scalar branching prox for every finite input when
//! `kappa > 0` (IEEE negation commutes with rounding, so the second term
//! is exactly `-(a+k)` when it is live); NaN maps to `0.0` and ±∞ pass
//! through, matching the branch version. For `kappa == 0` the sign of a
//! negative zero input is not preserved (the value is still `== 0.0`);
//! the ADMM z-updates only threshold with `kappa > 0`.
//!
//! [`symv`] is the cache-blocked symmetric (Gram) matrix-vector product of
//! the x-update: it reads only the upper triangle, streaming each row
//! suffix once per block so the total memory traffic is half of a general
//! `gemv`. Its accumulation order differs from `gemv`'s row-dot order, so
//! it agrees to ~1e-12 relative rather than bitwise — callers that sit
//! under a bit-identity contract keep using `gemv`.

use crate::dense::Matrix;

/// Lane width of the explicit unrolling: four independent f64 accumulators
/// per loop. The default x86-64 target has 2-lane SSE2 registers, so the
/// four lanes occupy two of them (likewise two NEON registers on aarch64);
/// the accumulator count, not the register width, fixes the bits.
pub const LANES: usize = 4;

/// Column-block edge for [`symv`]: a 128-column panel of `x`/`out` (two
/// 1 KiB vectors) stays resident in L1 while a row panel streams past.
const SYMV_BLOCK: usize = 128;

/// Dot product of two equal-length slices.
///
/// Bit-identical to the historical `blas::dot`: four lane accumulators
/// over the `LANES`-aligned prefix, combined left-to-right, then a scalar
/// remainder loop.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let main = n - n % LANES;
    let mut acc = [0.0_f64; LANES];
    for (ac, bc) in a[..main]
        .chunks_exact(LANES)
        .zip(b[..main].chunks_exact(LANES))
    {
        acc[0] += ac[0] * bc[0];
        acc[1] += ac[1] * bc[1];
        acc[2] += ac[2] * bc[2];
        acc[3] += ac[3] * bc[3];
    }
    let mut s = acc[0] + acc[1] + acc[2] + acc[3];
    for i in main..n {
        s += a[i] * b[i];
    }
    s
}

/// `y += alpha * x`.
///
/// Elementwise, so lane order does not affect the result: bit-identical to
/// the scalar loop for every input.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    let n = x.len();
    let main = n - n % LANES;
    for (yc, xc) in y[..main]
        .chunks_exact_mut(LANES)
        .zip(x[..main].chunks_exact(LANES))
    {
        yc[0] += alpha * xc[0];
        yc[1] += alpha * xc[1];
        yc[2] += alpha * xc[2];
        yc[3] += alpha * xc[3];
    }
    for i in main..n {
        y[i] += alpha * x[i];
    }
}

/// `out = a + b`, elementwise (the `x + u` argument of the z-update).
#[inline]
pub fn add(a: &[f64], b: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    let n = a.len();
    let main = n - n % LANES;
    for ((oc, ac), bc) in out[..main]
        .chunks_exact_mut(LANES)
        .zip(a[..main].chunks_exact(LANES))
        .zip(b[..main].chunks_exact(LANES))
    {
        oc[0] = ac[0] + bc[0];
        oc[1] = ac[1] + bc[1];
        oc[2] = ac[2] + bc[2];
        oc[3] = ac[3] + bc[3];
    }
    for i in main..n {
        out[i] = a[i] + b[i];
    }
}

/// Branchless scalar soft threshold; see the module docs for the exact
/// equivalence argument against the branching form.
#[inline(always)]
fn shrink(a: f64, k: f64) -> f64 {
    (a - k).max(0.0) - (-a - k).max(0.0)
}

/// Elementwise soft threshold `out[i] = S_kappa(src[i])` — the proximal
/// operator of `kappa * |.|`, vectorised.
///
/// Requires `kappa >= 0`. For `kappa > 0` the result is bit-identical to
/// the scalar branching prox on every input (NaN → `0.0`, ±∞ preserved).
#[inline]
pub fn soft_threshold(src: &[f64], kappa: f64, out: &mut [f64]) {
    debug_assert_eq!(src.len(), out.len());
    debug_assert!(kappa >= 0.0, "soft_threshold needs kappa >= 0");
    let n = src.len();
    let main = n - n % LANES;
    for (oc, sc) in out[..main]
        .chunks_exact_mut(LANES)
        .zip(src[..main].chunks_exact(LANES))
    {
        oc[0] = shrink(sc[0], kappa);
        oc[1] = shrink(sc[1], kappa);
        oc[2] = shrink(sc[2], kappa);
        oc[3] = shrink(sc[3], kappa);
    }
    for i in main..n {
        out[i] = shrink(src[i], kappa);
    }
}

/// Cache-blocked symmetric matrix-vector product `out = A x` for a
/// symmetric `A` (the Gram matrix of the x-update), reading only the upper
/// triangle.
///
/// Each super-diagonal block contributes twice — once as `A[i][j] x[j]`
/// into `out[i]`, once as `A[i][j] x[i]` into `out[j]` — so every stored
/// element is touched exactly once and the memory traffic is half a
/// general `gemv`'s. Blocks of [`SYMV_BLOCK`] columns keep the scattered
/// `out[j]` updates L1-resident. Accumulation order differs from `gemv`;
/// agreement is ~1e-12 relative, not bitwise.
pub fn symv(a: &Matrix, x: &[f64], out: &mut [f64]) {
    let p = a.rows();
    assert_eq!(p, a.cols(), "symv: matrix must be square");
    assert_eq!(x.len(), p, "symv: dimension mismatch");
    assert_eq!(out.len(), p, "symv: output length mismatch");
    out.fill(0.0);
    for i0 in (0..p).step_by(SYMV_BLOCK) {
        let i1 = (i0 + SYMV_BLOCK).min(p);
        // Diagonal block: upper triangle, mirrored on the fly.
        for i in i0..i1 {
            let row = a.row(i);
            let xi = x[i];
            let mut acc = row[i] * xi;
            for j in (i + 1)..i1 {
                let v = row[j];
                acc += v * x[j];
                out[j] += v * xi;
            }
            out[i] += acc;
        }
        // Panels strictly right of the diagonal block.
        for j0 in (i1..p).step_by(SYMV_BLOCK) {
            let j1 = (j0 + SYMV_BLOCK).min(p);
            for i in i0..i1 {
                let row = &a.row(i)[j0..j1];
                let xi = x[i];
                let mut acc = 0.0;
                for (k, &v) in row.iter().enumerate() {
                    acc += v * x[j0 + k];
                    out[j0 + k] += v * xi;
                }
                out[i] += acc;
            }
        }
    }
}

/// Residual norms the lane-major ADMM round accumulates per lane, in the
/// order [`AdmmLanes::norms`] returns them.
pub const ADMM_NORMS: usize = 5;

/// A window of ADMM problems over `p` coefficients that share one
/// x-update system, stored lane-major: entry `k` of lane `c` lives at
/// `[k * slots + c]` of each panel, and lanes `0..width` are occupied.
///
/// [`crate::Cholesky::admm_round`] advances every occupied lane one ADMM
/// iteration (Boyd et al. 2011, §6.4) in one dispatched call:
///
/// ```text
/// x = (X^T X + rho I)^{-1} (X^T y + rho (z - u))
/// z = S_kappa(x + u)            (z = x + u when kappa == 0)
/// u = u + (x - z)
/// ```
///
/// and the five residual norms of each lane: `||x - z||`,
/// `||rho (z - z_prev)||`, `||x||`, `||z||` and `||rho u||`. Each lane
/// performs exactly the operations of the single-problem iteration, in
/// the same order; each norm keeps the four-accumulator association of
/// [`crate::blas::norm2_diff`] (terms `k mod 4` summed apart, combined
/// left to right, then the tail), so every lane is bit-identical to
/// iterating its problem alone. Lanes move between slots freely
/// ([`AdmmLanes::swap_remove`]): a lane's arithmetic never depends on its
/// slot.
#[derive(Debug, Clone, Default)]
pub struct AdmmLanes {
    p: usize,
    slots: usize,
    width: usize,
    rho: f64,
    /// Soft-threshold level `lambda / rho` per slot.
    kappa: Vec<f64>,
    /// `X^T y` per lane.
    xty: Vec<f64>,
    z: Vec<f64>,
    u: Vec<f64>,
    /// x-update panel: right-hand sides in, solutions out.
    x: Vec<f64>,
    /// Finished norms, `[norm * slots + lane]`.
    norms: Vec<f64>,
}

impl AdmmLanes {
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty the window and shape it for up to `slots` lanes of `p`
    /// coefficients at penalty `rho`. Allocation-free once the window has
    /// held a shape at least this large.
    pub fn reset(&mut self, p: usize, slots: usize, rho: f64) {
        self.p = p;
        self.slots = slots;
        self.width = 0;
        self.rho = rho;
        for panel in [&mut self.xty, &mut self.z, &mut self.u, &mut self.x] {
            panel.resize(p * slots, 0.0);
        }
        self.kappa.resize(slots, 0.0);
        self.norms.resize(ADMM_NORMS * slots, 0.0);
    }

    /// Occupied lanes (`0..width`).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Lane capacity.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Coefficients per lane.
    pub fn order(&self) -> usize {
        self.p
    }

    /// Occupy the next free slot with a cold-started problem (`z = u =
    /// 0`) of right-hand side `xty` and threshold `kappa`; returns the
    /// slot.
    ///
    /// # Panics
    ///
    /// If every slot is occupied.
    pub fn push(&mut self, xty: &[f64], kappa: f64) -> usize {
        assert!(self.width < self.slots, "AdmmLanes::push: window full");
        let c = self.width;
        self.width += 1;
        self.load(c, xty, kappa);
        c
    }

    /// Replace the problem in occupied slot `c` by a cold-started one.
    pub fn load(&mut self, c: usize, xty: &[f64], kappa: f64) {
        assert!(c < self.width, "AdmmLanes::load: slot {c} is free");
        assert_eq!(xty.len(), self.p, "AdmmLanes::load: rhs length mismatch");
        let s = self.slots;
        for (k, &v) in xty.iter().enumerate() {
            self.xty[k * s + c] = v;
            self.z[k * s + c] = 0.0;
            self.u[k * s + c] = 0.0;
        }
        self.kappa[c] = kappa;
    }

    /// Overwrite the iterate `z` and scaled dual `u` of slot `c` (a warm
    /// start).
    pub fn set_state(&mut self, c: usize, z: &[f64], u: &[f64]) {
        assert!(c < self.width, "AdmmLanes::set_state: slot {c} is free");
        let s = self.slots;
        for (k, (&zk, &uk)) in z.iter().zip(u).enumerate() {
            self.z[k * s + c] = zk;
            self.u[k * s + c] = uk;
        }
    }

    /// Copy the iterate `z` and scaled dual `u` of slot `c` out.
    pub fn state(&self, c: usize, z: &mut [f64], u: &mut [f64]) {
        let s = self.slots;
        for (k, (zk, uk)) in z.iter_mut().zip(u.iter_mut()).enumerate() {
            *zk = self.z[k * s + c];
            *uk = self.u[k * s + c];
        }
    }

    /// Copy the iterate `z` of slot `c` out.
    pub fn z(&self, c: usize, z: &mut [f64]) {
        let s = self.slots;
        for (k, zk) in z.iter_mut().enumerate() {
            *zk = self.z[k * s + c];
        }
    }

    /// Free slot `c` by moving the last occupied lane into it.
    pub fn swap_remove(&mut self, c: usize) {
        assert!(c < self.width, "AdmmLanes::swap_remove: slot {c} is free");
        self.width -= 1;
        let (last, s) = (self.width, self.slots);
        if c != last {
            for panel in [&mut self.xty, &mut self.z, &mut self.u] {
                for row in panel.chunks_exact_mut(s) {
                    row[c] = row[last];
                }
            }
            self.kappa[c] = self.kappa[last];
        }
    }

    /// The latest round's norms of slot `c`: `||x - z||`,
    /// `||rho (z - z_prev)||`, `||x||`, `||z||`, `||rho u||`.
    pub fn norms(&self, c: usize) -> [f64; ADMM_NORMS] {
        std::array::from_fn(|n| self.norms[n * self.slots + c])
    }

    /// The x-update panel (`order * slots`, lane-major with row stride
    /// [`AdmmLanes::slots`]): after [`AdmmLanes::build_rhs`] it holds the
    /// right-hand sides, and an x-update other than
    /// [`crate::Cholesky::admm_round`] solves it in place before
    /// [`AdmmLanes::update`].
    pub fn x_mut(&mut self) -> &mut [f64] {
        &mut self.x
    }

    /// Round stage 1 alone: `x = X^T y + rho (z - u)` for every occupied
    /// lane.
    pub fn build_rhs(&mut self) {
        self.build_rhs_body();
    }

    /// Round stage 3 alone: the z- and u-updates and the norms, given
    /// solved x-updates in [`AdmmLanes::x_mut`].
    pub fn update(&mut self) {
        self.update_body::<{ crate::chol::BASELINE[2] }>();
    }

    #[inline(always)]
    pub(crate) fn build_rhs_body(&mut self) {
        let (s, m, rho) = (self.slots, self.width, self.rho);
        for (((x, b), z), u) in self
            .x
            .chunks_exact_mut(s)
            .zip(self.xty.chunks_exact(s))
            .zip(self.z.chunks_exact(s))
            .zip(self.u.chunks_exact(s))
        {
            let (x, b, z, u) = (&mut x[..m], &b[..m], &z[..m], &u[..m]);
            for c in 0..m {
                x[c] = b[c] + rho * (z[c] - u[c]);
            }
        }
    }

    /// Round stage 3 over every occupied lane, in register groups of `G`
    /// lanes plus one narrower group: each group sweeps the rows once,
    /// keeping its twenty partial sums (five norms, four `k mod 4`
    /// partials each) in registers.
    #[inline(always)]
    pub(crate) fn update_body<const G: usize>(&mut self) {
        let m = self.width;
        let full = m - m % G;
        for c0 in (0..full).step_by(G) {
            self.update_group::<G>(c0);
        }
        with_width!(m - full, R => self.update_group::<R>(full));
    }

    /// Stage 3 for lanes `c0..c0 + G`. The four `k mod 4` partial sums
    /// are four named accumulator sets, so each stays in registers.
    #[inline(always)]
    fn update_group<const G: usize>(&mut self, c0: usize) {
        let (p, s, rho) = (self.p, self.slots, self.rho);
        let kappa: [f64; G] = std::array::from_fn(|c| self.kappa[c0 + c]);
        let (x, z, u) = (&self.x[..], &mut self.z[..], &mut self.u[..]);
        let mut row = |k: usize, acc: &mut [[f64; G]; ADMM_NORMS]| {
            let at = k * s + c0;
            update_row(
                &x[at..at + G],
                &mut z[at..at + G],
                &mut u[at..at + G],
                &kappa,
                rho,
                acc,
            );
        };
        // Rows `k < main` feed partial `k mod 4`, as in `norm2_diff`.
        let main = p - p % LANES;
        let zero = [[0.0; G]; ADMM_NORMS];
        let (mut a0, mut a1, mut a2, mut a3) = (zero, zero, zero, zero);
        for k in (0..main).step_by(LANES) {
            row(k, &mut a0);
            row(k + 1, &mut a1);
            row(k + 2, &mut a2);
            row(k + 3, &mut a3);
        }
        // Combine left to right, then add the tail rows.
        let mut sum = zero;
        for n in 0..ADMM_NORMS {
            for c in 0..G {
                sum[n][c] = a0[n][c] + a1[n][c] + a2[n][c] + a3[n][c];
            }
        }
        for k in main..p {
            row(k, &mut sum);
        }
        for (n, norm) in sum.iter().enumerate() {
            for c in 0..G {
                self.norms[n * s + c0 + c] = norm[c].sqrt();
            }
        }
    }
}

/// One row of the z-/u-update for `G` lanes, adding the row's five norm
/// terms into `acc`: the elementwise body of the single-problem
/// iteration (`kernels::add`, the soft threshold or a copy when
/// `kappa == 0`, `u += x - z`, and the `norm2_diff` / `norm2_scaled_diff`
/// / `norm2` / `norm2_scaled` terms).
#[inline(always)]
fn update_row<const G: usize>(
    x: &[f64],
    z: &mut [f64],
    u: &mut [f64],
    kappa: &[f64; G],
    rho: f64,
    acc: &mut [[f64; G]; ADMM_NORMS],
) {
    let (x, z, u) = (&x[..G], &mut z[..G], &mut u[..G]);
    for c in 0..G {
        let (xc, zo, uo, kap) = (x[c], z[c], u[c], kappa[c]);
        let xu = xc + uo;
        let shrunk = shrink(xu, kap);
        let zn = if kap > 0.0 { shrunk } else { xu };
        let un = uo + (xc - zn);
        z[c] = zn;
        u[c] = un;
        let dr = xc - zn;
        let ds = rho * (zn - zo);
        let du = rho * un;
        acc[0][c] += dr * dr;
        acc[1][c] += ds * ds;
        acc[2][c] += xc * xc;
        acc[3][c] += zn * zn;
        acc[4][c] += du * du;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas;

    fn seq(n: usize, mul: usize, off: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * mul + off) % 23) as f64 * 0.37 - 3.1)
            .collect()
    }

    #[test]
    fn dot_bit_identical_to_blas_all_remainders() {
        for n in [0, 1, 2, 3, 4, 5, 7, 8, 63, 64, 65, 130] {
            let a = seq(n, 13, 5);
            let b = seq(n, 7, 2);
            assert_eq!(dot(&a, &b).to_bits(), blas::dot(&a, &b).to_bits(), "n={n}");
        }
    }

    #[test]
    fn axpy_matches_scalar_loop() {
        for n in [0, 1, 3, 4, 9, 64, 67] {
            let x = seq(n, 11, 1);
            let mut y = seq(n, 5, 4);
            let mut reference = y.clone();
            for (r, xi) in reference.iter_mut().zip(&x) {
                *r += 1.7 * xi;
            }
            axpy(1.7, &x, &mut y);
            for (a, b) in y.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn add_matches_scalar_loop() {
        for n in [0, 1, 3, 5, 8, 13] {
            let a = seq(n, 3, 2);
            let b = seq(n, 9, 7);
            let mut out = vec![0.0; n];
            add(&a, &b, &mut out);
            for i in 0..n {
                assert_eq!(out[i].to_bits(), (a[i] + b[i]).to_bits());
            }
        }
    }

    #[test]
    fn soft_threshold_matches_branch_version() {
        let branch = |a: f64, k: f64| {
            if a > k {
                a - k
            } else if a < -k {
                a + k
            } else {
                0.0
            }
        };
        let src: Vec<f64> = vec![
            3.0, -3.0, 0.5, -0.5, 1.0, -1.0, 0.0, -0.0, 1e300, -1e300, 1e-300,
        ];
        let mut out = vec![0.0; src.len()];
        for k in [1e-12, 0.5, 1.0, 7.5] {
            soft_threshold(&src, k, &mut out);
            for (o, &s) in out.iter().zip(&src) {
                assert_eq!(o.to_bits(), branch(s, k).to_bits(), "S_{k}({s})");
            }
        }
    }

    #[test]
    fn soft_threshold_specials() {
        let src = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let mut out = [1.0; 3];
        soft_threshold(&src, 0.5, &mut out);
        assert_eq!(out[0], 0.0, "NaN maps to 0 like the branch version");
        assert_eq!(out[1], f64::INFINITY);
        assert_eq!(out[2], f64::NEG_INFINITY);
    }

    #[test]
    fn symv_matches_gemv() {
        for p in [1, 2, 7, 64, 129, 200, 300] {
            let base = Matrix::from_fn(p, p, |i, j| ((i * 13 + j * 29) % 17) as f64 * 0.21 - 1.4);
            // Symmetrise.
            let mut a = Matrix::zeros(p, p);
            for i in 0..p {
                for j in 0..p {
                    a[(i, j)] = base[(i, j)] + base[(j, i)];
                }
            }
            let x = seq(p, 7, 3);
            let expected = blas::gemv(&a, &x);
            let mut got = vec![0.0; p];
            symv(&a, &x, &mut got);
            for (g, e) in got.iter().zip(&expected) {
                let scale = e.abs().max(1.0);
                assert!((g - e).abs() <= 1e-12 * scale, "p={p}: {g} vs {e}");
            }
        }
    }
}
