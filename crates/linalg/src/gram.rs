//! Batched multi-bootstrap Gram engine.
//!
//! The UoI maps build `X_b^T X_b` (and the paired `X_b^T y_b`) once per
//! bootstrap resample. With the zero-copy representation a resample is a
//! weight vector `w` over the rows of the *shared* design matrix `X`, so
//! the Gram of resample `b` is `X^T diag(w_b) X`. Computing each of these
//! independently streams all of `X` from DRAM `B` times. This module
//! instead packs `X` into cache-resident panels **once** and reuses each
//! packed panel across every resample in the batch, so the design matrix
//! makes a single trip from memory no matter how many bootstraps ride on
//! it.
//!
//! ## Packing layout and tiling
//!
//! The upper triangle of each `p × p` Gram is partitioned into horizontal
//! *bands* of [`GRAM_BAND`] rows. One parallel task owns band `j0..j1` of
//! **all** `B` outputs. Within a task, the rows of `X` are consumed in
//! *panels* of [`GRAM_PANEL_ROWS`]; the panel's column suffix `[j0..p)` is
//! copied into a contiguous packed buffer (stride `p - j0`), and a
//! register-tiled micro-kernel then sweeps the band's tiles once per
//! resample, reading only the packed copy. For the fig2 shape (`p = 512`)
//! a packed panel is `64 × 512 × 8 B = 256 KiB` — inside L2 — so the
//! `B - 1` extra sweeps hit cache instead of DRAM.
//!
//! ## Per-ISA micro-kernels
//!
//! The micro-kernel is one generic body, `tile_sweep_rc::<R, C>` (`R` Gram
//! rows by `C` Gram columns of accumulators), compiled once per ISA that
//! [`crate::simd`] can dispatch to, with the tile shape measured fastest on
//! a 4096 × 512, `B = 5` Gram for that ISA:
//!
//! | ISA | tile `R × C` | accumulator registers |
//! |---|---|---|
//! | baseline (SSE2) | 4 × 4 | 8 xmm |
//! | AVX2 | 2 × 8 | 4 ymm |
//! | AVX-512F | 4 × 16 | 8 zmm |
//!
//! Column tiles start on a `C`-aligned boundary (`jt - (jt - j0) % C`)
//! rather than at the row tile's first column; entries left of the
//! diagonal are computed and discarded. Since `C` divides [`GRAM_BAND`],
//! a `p` that is a multiple of `C` (fig2's 512) has no ragged column tile.
//!
//! Every shape and every ISA gives the same bits. Each output element is
//! accumulated as `acc += (w * x_j) * x_c` over the panel's nonzero rows
//! in ascending order, starting from a fresh `0.0`, and then added into
//! the output block once per panel. The tile shape only decides which
//! elements share a pass over the rows, never the order of any one
//! element's operations, and the bodies contain no `mul_add` or
//! `std::arch` intrinsic (Rust never fuses `a * b + c` on its own).
//!
//! ## Determinism
//!
//! Every `(Gram row, resample)` output element has exactly one owning
//! task, and each task walks panels in ascending row order, accumulating
//! a fresh register tile per `(panel, tile)` that is added to the output
//! block before the next panel. The floating-point bracketing of every
//! element is therefore a function of the matrix shape alone: it does not
//! depend on the worker count of the fork-join ([`crate::par`]), on which
//! other resamples share the batch, or on whether the serial fallback
//! ran. `batch([w])` is bit-identical to the same `w` inside a larger
//! batch, and every result is bit-identical under every ISA.
//!
//! The public wrappers ([`gram_batch`], [`gram_rhs_batch`],
//! [`syrk_t_upper`], ...) run the bands on the calling thread; only
//! [`gram_batch_par`] and [`gram_rhs_batch_par`] take a worker count.

use crate::dense::Matrix;
use crate::kernels;
use crate::simd::{self, Isa};
use std::cell::Cell;

/// Height (in rows of `X`) of one packed panel.
///
/// Chosen so a packed panel of the fig2 design (`p = 512`) is 256 KiB:
/// comfortably cache-resident, which is what earns the batched sweeps
/// their DRAM amortization.
pub const GRAM_PANEL_ROWS: usize = 64;

/// Width (in Gram rows) of one band; a band is the unit of parallelism.
pub const GRAM_BAND: usize = 64;

/// Kernel identifier recorded in run reports so a benchmark snapshot is
/// self-describing about which Gram engine produced it.
pub const KERNEL_VARIANT: &str = "gram-batched-tiled-v1";

/// Modeled working set of the tiled kernel: one packed panel. Used by the
/// pipeline charge sites; the 2.2x cache-resident discount of the machine
/// model only applies while a panel actually fits (`p <~ 1024`).
pub fn gram_kernel_ws(p: usize) -> f64 {
    (GRAM_PANEL_ROWS * p * 8) as f64
}

thread_local! {
    static PACKS: Cell<u64> = const { Cell::new(0) };
}

/// Number of panel-pack operations performed on the calling thread
/// since it started.
///
/// Test hook for the batch amortization contract: a batch of `B`
/// resamples packs each `(band, panel)` exactly once, so the count is
/// independent of `B`. Per thread, so concurrent tests do not disturb
/// each other's windows; the single-threaded wrappers pack on the caller.
pub fn pack_count() -> u64 {
    PACKS.with(Cell::get)
}

/// A Gram matrix with only its upper triangle populated (strict lower is
/// zero). Produced by the batched kernel so consumers that only read the
/// upper triangle (Cholesky, `symv`, sub-Gram extraction) can skip the
/// O(p²) mirror.
#[derive(Clone, Debug)]
pub struct UpperGram(Matrix);

impl UpperGram {
    /// Wrap an upper-stored matrix. Debug-asserts squareness.
    pub fn from_upper(m: Matrix) -> Self {
        debug_assert_eq!(m.rows(), m.cols());
        UpperGram(m)
    }

    pub fn order(&self) -> usize {
        self.0.rows()
    }

    /// The upper-stored backing matrix (strict lower triangle is zero).
    pub fn upper(&self) -> &Matrix {
        &self.0
    }

    pub fn into_upper(self) -> Matrix {
        self.0
    }

    /// Canonical element access: `get(i, j) == get(j, i)`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        if i <= j {
            self.0[(i, j)]
        } else {
            self.0[(j, i)]
        }
    }

    /// Mirror the upper triangle into the strict lower half, producing a
    /// full symmetric matrix for consumers that read both triangles.
    pub fn into_full(self) -> Matrix {
        let mut m = self.0;
        let p = m.rows();
        for i in 1..p {
            for j in 0..i {
                m[(i, j)] = m[(j, i)];
            }
        }
        m
    }
}

/// One parallel unit: band `j0..j1` of every output in the batch.
struct BandTask<'a> {
    j0: usize,
    j1: usize,
    /// Per resample: the band's rows of the output Gram (`(j1-j0) * p`).
    blocks: Vec<&'a mut [f64]>,
    /// Per resample: the band's segment of `X^T diag(w) y` (`j1 - j0`).
    rhs: Vec<&'a mut [f64]>,
}

/// Weight view for one resample: `None` means unit weights (plain SYRK).
type WeightOpt<'a> = Option<&'a [f64]>;

/// Compute band `j0..j1` of every resample's Gram (and rhs segment) by
/// packing each row panel once and sweeping it `B` times from cache.
fn band_body(
    isa: Isa,
    a: &Matrix,
    weights: &[WeightOpt<'_>],
    y: Option<&[f64]>,
    task: &mut BandTask<'_>,
) {
    let (n, p) = a.shape();
    let (j0, j1) = (task.j0, task.j1);
    let stride = p - j0;
    let b = weights.len();
    let mut packed = vec![0.0f64; GRAM_PANEL_ROWS.min(n.max(1)) * stride];
    // Nonzero (local row, weight) pairs of the current panel, per resample.
    let mut nz: Vec<Vec<(u32, f64)>> = vec![Vec::new(); b];

    let mut i0 = 0;
    while i0 < n {
        let i1 = (i0 + GRAM_PANEL_ROWS).min(n);
        let rows = i1 - i0;
        for r in 0..rows {
            packed[r * stride..(r + 1) * stride].copy_from_slice(&a.row(i0 + r)[j0..]);
        }
        PACKS.with(|c| c.set(c.get() + 1));
        for (k, w) in weights.iter().enumerate() {
            nz[k].clear();
            match w {
                None => nz[k].extend((0..rows).map(|r| (r as u32, 1.0))),
                Some(w) => {
                    for r in 0..rows {
                        let wv = w[i0 + r];
                        if wv != 0.0 {
                            nz[k].push((r as u32, wv));
                        }
                    }
                }
            }
        }
        for k in 0..b {
            if nz[k].is_empty() {
                continue;
            }
            tile_sweep(isa, &packed, &nz[k], j0, j1, p, task.blocks[k]);
            if let Some(y) = y {
                let seg = &mut *task.rhs[k];
                for &(r, wv) in &nz[k] {
                    let c = wv * y[i0 + r as usize];
                    if c != 0.0 {
                        let row = &packed[r as usize * stride..r as usize * stride + (j1 - j0)];
                        kernels::axpy(c, row, seg);
                    }
                }
            }
        }
        i0 = i1;
    }
}

/// Register tile (Gram rows × Gram columns) of the baseline instantiation:
/// 16 accumulators in 8 SSE2 registers.
const BASE_TILE: (usize, usize) = (4, 4);
/// AVX2 tile: 2 rows × 8 columns, 16 accumulators in 4 ymm registers.
#[cfg(target_arch = "x86_64")]
const AVX2_TILE: (usize, usize) = (2, 8);
/// AVX-512 tile: 4 rows × 16 columns, 64 accumulators in 8 zmm registers.
#[cfg(target_arch = "x86_64")]
const AVX512_TILE: (usize, usize) = (4, 16);

/// Sweep one packed panel over the band's upper-triangle tiles for a single
/// resample, with the micro-kernel compiled for `isa`.
fn tile_sweep(
    isa: Isa,
    packed: &[f64],
    nz: &[(u32, f64)],
    j0: usize,
    j1: usize,
    p: usize,
    block: &mut [f64],
) {
    assert!(
        isa.is_supported(),
        "{} is not supported on this host",
        isa.name()
    );
    match isa {
        Isa::Baseline => {
            tile_sweep_rc::<{ BASE_TILE.0 }, { BASE_TILE.1 }>(packed, nz, j0, j1, p, block)
        }
        // SAFETY: the assertion above proved the host supports AVX2.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { tile_sweep_avx2(packed, nz, j0, j1, p, block) },
        // SAFETY: the assertion above proved the host supports AVX-512F.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { tile_sweep_avx512(packed, nz, j0, j1, p, block) },
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn tile_sweep_avx2(
    packed: &[f64],
    nz: &[(u32, f64)],
    j0: usize,
    j1: usize,
    p: usize,
    block: &mut [f64],
) {
    tile_sweep_rc::<{ AVX2_TILE.0 }, { AVX2_TILE.1 }>(packed, nz, j0, j1, p, block)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn tile_sweep_avx512(
    packed: &[f64],
    nz: &[(u32, f64)],
    j0: usize,
    j1: usize,
    p: usize,
    block: &mut [f64],
) {
    tile_sweep_rc::<{ AVX512_TILE.0 }, { AVX512_TILE.1 }>(packed, nz, j0, j1, p, block)
}

/// `R × C` register-tiled sweep: for every tile of Gram rows `jt..jt+R`
/// and columns `ct..ct+C` on or right of the diagonal, accumulate
/// `(w * x_j) * x_c` over the panel's nonzero rows in ascending order from
/// a fresh zero, then add each upper-triangle entry into `block` once.
/// Column tiles start on a `C`-aligned boundary; entries left of the
/// diagonal are computed and discarded.
#[inline(always)]
fn tile_sweep_rc<const R: usize, const C: usize>(
    packed: &[f64],
    nz: &[(u32, f64)],
    j0: usize,
    j1: usize,
    p: usize,
    block: &mut [f64],
) {
    let stride = p - j0;
    let mut jt = j0;
    while jt < j1 {
        let mh = R.min(j1 - jt);
        let mut ct = jt - (jt - j0) % C;
        while ct < p {
            let nw = C.min(p - ct);
            let mut acc = [[0.0f64; C]; R];
            if mh == R && nw == C {
                for &(r, wv) in nz {
                    let row = &packed[r as usize * stride..][..stride];
                    let lj: &[f64; R] = row[jt - j0..][..R].try_into().expect("R-wide slice");
                    let lc: &[f64; C] = row[ct - j0..][..C].try_into().expect("C-wide slice");
                    for rr in 0..R {
                        let s = wv * lj[rr];
                        for cc in 0..C {
                            acc[rr][cc] += s * lc[cc];
                        }
                    }
                }
            } else {
                // Ragged edge tile: same bracketing, runtime bounds.
                for &(r, wv) in nz {
                    let row = &packed[r as usize * stride..][..stride];
                    for rr in 0..mh {
                        let s = wv * row[jt - j0 + rr];
                        for cc in 0..nw {
                            acc[rr][cc] += s * row[ct - j0 + cc];
                        }
                    }
                }
            }
            for rr in 0..mh {
                let j = jt + rr;
                let out = &mut block[(j - j0) * p..][..p];
                for cc in ct.max(j) - ct..nw {
                    out[ct + cc] += acc[rr][cc];
                }
            }
            ct += C;
        }
        jt += R;
    }
}

/// Core batch driver: one pass over `X` for all resamples, returning the
/// upper-stored Grams and (when `y` is given) the paired rhs vectors.
/// Bands fan out over `workers` threads of [`crate::par::map`].
fn batch_core(
    a: &Matrix,
    weights: &[WeightOpt<'_>],
    y: Option<&[f64]>,
    workers: usize,
) -> (Vec<UpperGram>, Vec<Vec<f64>>) {
    batch_core_scheduled(simd::isa(), a, weights, y, workers, None)
}

/// Like [`batch_core`], but with an optional explicit band execution
/// order (test hook): because each band of each output has exactly one
/// owning task, any schedule — any thread count, any completion order —
/// must produce bit-identical results.
fn batch_core_scheduled(
    isa: Isa,
    a: &Matrix,
    weights: &[WeightOpt<'_>],
    y: Option<&[f64]>,
    workers: usize,
    order: Option<&[usize]>,
) -> (Vec<UpperGram>, Vec<Vec<f64>>) {
    let (n, p) = a.shape();
    let b = weights.len();
    for w in weights.iter().flatten() {
        assert_eq!(w.len(), n, "weight length must match row count");
    }
    if let Some(y) = y {
        assert_eq!(y.len(), n, "response length must match row count");
    }
    let mut grams: Vec<Vec<f64>> = (0..b).map(|_| vec![0.0f64; p * p]).collect();
    let mut rhs: Vec<Vec<f64>> = if y.is_some() {
        (0..b).map(|_| vec![0.0f64; p]).collect()
    } else {
        Vec::new()
    };

    if p > 0 && n > 0 {
        let n_bands = p.div_ceil(GRAM_BAND);
        let mut tasks: Vec<BandTask<'_>> = (0..n_bands)
            .map(|bi| BandTask {
                j0: bi * GRAM_BAND,
                j1: ((bi + 1) * GRAM_BAND).min(p),
                blocks: Vec::with_capacity(b),
                rhs: Vec::with_capacity(b),
            })
            .collect();
        for buf in grams.iter_mut() {
            for (bi, chunk) in buf.chunks_mut(GRAM_BAND * p).enumerate() {
                tasks[bi].blocks.push(chunk);
            }
        }
        for rbuf in rhs.iter_mut() {
            let mut rest: &mut [f64] = rbuf;
            for task in tasks.iter_mut() {
                let (seg, tail) = rest.split_at_mut(task.j1 - task.j0);
                task.rhs.push(seg);
                rest = tail;
            }
        }
        let flops = b.saturating_mul(n).saturating_mul(p).saturating_mul(p);
        if let Some(order) = order {
            debug_assert_eq!(order.len(), tasks.len());
            for &ti in order {
                band_body(isa, a, weights, y, &mut tasks[ti]);
            }
        } else if flops >= 1 << 18 && workers > 1 {
            crate::par::map(workers, tasks, |mut t| {
                band_body(isa, a, weights, y, &mut t)
            });
        } else {
            for t in tasks.iter_mut() {
                band_body(isa, a, weights, y, t);
            }
        }
    }

    let grams = grams
        .into_iter()
        .map(|g| UpperGram::from_upper(Matrix::from_vec(p, p, g)))
        .collect();
    (grams, rhs)
}

/// Compute `X^T diag(w_b) X` for every resample in one pass over `X`.
/// `None` weights mean the unweighted Gram `X^T X`.
pub fn gram_batch(a: &Matrix, weights: &[WeightOpt<'_>]) -> Vec<UpperGram> {
    gram_batch_par(a, weights, 1)
}

/// [`gram_batch`] with the bands fanned out over `workers` threads.
/// Bit-identical to [`gram_batch`] for every worker count.
pub fn gram_batch_par(a: &Matrix, weights: &[WeightOpt<'_>], workers: usize) -> Vec<UpperGram> {
    batch_core(a, weights, None, workers).0
}

/// Compute `(X^T diag(w_b) X, X^T diag(w_b) y)` for every resample in one
/// pass over `X`.
pub fn gram_rhs_batch(a: &Matrix, y: &[f64], weights: &[&[f64]]) -> Vec<(UpperGram, Vec<f64>)> {
    gram_rhs_batch_par(a, y, weights, 1)
}

/// [`gram_rhs_batch`] with the bands fanned out over `workers` threads.
/// Bit-identical to [`gram_rhs_batch`] for every worker count.
pub fn gram_rhs_batch_par(
    a: &Matrix,
    y: &[f64],
    weights: &[&[f64]],
    workers: usize,
) -> Vec<(UpperGram, Vec<f64>)> {
    let opts: Vec<WeightOpt<'_>> = weights.iter().map(|w| Some(*w)).collect();
    let (grams, rhs) = batch_core(a, &opts, Some(y), workers);
    grams.into_iter().zip(rhs).collect()
}

/// [`gram_rhs_batch`] with the tile sweep compiled for `isa` instead of
/// the detected [`simd::isa`]: the per-ISA benchmark and identity-test
/// hook. Bit-identical to [`gram_rhs_batch`] for every `isa`.
///
/// # Panics
///
/// If the host does not support `isa` (see [`Isa::is_supported`]).
pub fn gram_rhs_batch_with_isa(
    isa: Isa,
    a: &Matrix,
    y: &[f64],
    weights: &[&[f64]],
) -> Vec<(UpperGram, Vec<f64>)> {
    let opts: Vec<WeightOpt<'_>> = weights.iter().map(|w| Some(*w)).collect();
    let (grams, rhs) = batch_core_scheduled(isa, a, &opts, Some(y), 1, None);
    grams.into_iter().zip(rhs).collect()
}

/// Batch entry point with the legacy full-symmetric output contract:
/// every Gram is mirrored into both triangles.
pub fn syrk_t_weighted_batch(a: &Matrix, weights: &[&[f64]]) -> Vec<Matrix> {
    let opts: Vec<WeightOpt<'_>> = weights.iter().map(|w| Some(*w)).collect();
    gram_batch(a, &opts)
        .into_iter()
        .map(UpperGram::into_full)
        .collect()
}

/// Upper-stored `X^T X` (no mirror).
pub fn syrk_t_upper(a: &Matrix) -> UpperGram {
    gram_batch(a, &[None]).pop().expect("batch of one")
}

/// Upper-stored `X^T diag(w) X` (no mirror).
pub fn syrk_t_weighted_upper(a: &Matrix, w: &[f64]) -> UpperGram {
    gram_batch(a, &[Some(w)]).pop().expect("batch of one")
}

/// `X^T diag(w) y_c` for every response column in one pass over `X`.
///
/// The VAR pipelines solve the same lag-stacked design against `d`
/// response series; sharing the row sweep keeps the design matrix read
/// once instead of `d` times.
pub fn gemv_t_weighted_multi(a: &Matrix, w: &[f64], ys: &[&[f64]]) -> Vec<Vec<f64>> {
    let (n, p) = a.shape();
    assert_eq!(w.len(), n, "weight length must match row count");
    for y in ys {
        assert_eq!(y.len(), n, "response length must match row count");
    }
    let mut out = vec![vec![0.0f64; p]; ys.len()];
    for i in 0..n {
        let wi = w[i];
        if wi == 0.0 {
            continue;
        }
        let row = a.row(i);
        for (c, y) in ys.iter().enumerate() {
            let coeff = wi * y[i];
            if coeff != 0.0 {
                kernels::axpy(coeff, row, &mut out[c]);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas;

    fn demo_matrix(n: usize, p: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        Matrix::from_fn(n, p, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
    }

    fn demo_weights(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0xD134_2543_DE82_EF95).max(1);
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 4) as f64
            })
            .collect()
    }

    /// Reference: materialize the resample by repeating rows and run the
    /// row-at-a-time oracle. Integer multiplicities only.
    fn materialized_gram(a: &Matrix, w: &[f64]) -> Matrix {
        let mut idx = Vec::new();
        for (i, &wi) in w.iter().enumerate() {
            for _ in 0..wi as usize {
                idx.push(i);
            }
        }
        blas::syrk_t(&a.gather_rows(&idx))
    }

    #[test]
    fn batch_matches_materialized_oracle() {
        let a = demo_matrix(97, 37, 3);
        let ws: Vec<Vec<f64>> = (0..4).map(|k| demo_weights(97, 10 + k)).collect();
        let refs: Vec<&[f64]> = ws.iter().map(|w| w.as_slice()).collect();
        let grams = syrk_t_weighted_batch(&a, &refs);
        for (k, g) in grams.iter().enumerate() {
            let want = materialized_gram(&a, &ws[k]);
            assert!(g.approx_eq(&want, 1e-9), "bootstrap {k} disagrees");
        }
    }

    #[test]
    fn rhs_matches_gemv_oracle() {
        let a = demo_matrix(71, 23, 5);
        let y: Vec<f64> = (0..71).map(|i| (i as f64 * 0.37).sin()).collect();
        let ws: Vec<Vec<f64>> = (0..3).map(|k| demo_weights(71, 40 + k)).collect();
        let refs: Vec<&[f64]> = ws.iter().map(|w| w.as_slice()).collect();
        for (k, (_, rhs)) in gram_rhs_batch(&a, &y, &refs).iter().enumerate() {
            let want = blas::gemv_t_weighted(&a, &ws[k], &y);
            for (got, want) in rhs.iter().zip(&want) {
                assert!((got - want).abs() <= 1e-9, "bootstrap {k} rhs disagrees");
            }
        }
    }

    #[test]
    fn batch_of_one_bit_identical_to_larger_batch() {
        let a = demo_matrix(130, 61, 7);
        let ws: Vec<Vec<f64>> = (0..5).map(|k| demo_weights(130, 70 + k)).collect();
        let refs: Vec<&[f64]> = ws.iter().map(|w| w.as_slice()).collect();
        let batched = syrk_t_weighted_batch(&a, &refs);
        for (k, w) in refs.iter().enumerate() {
            let solo = syrk_t_weighted_batch(&a, &[w]);
            assert_eq!(
                solo[0].as_slice(),
                batched[k].as_slice(),
                "bootstrap {k} depends on batch composition"
            );
        }
    }

    #[test]
    fn unweighted_specialization_matches_unit_weights() {
        let a = demo_matrix(83, 29, 11);
        let ones = vec![1.0; 83];
        let upper = syrk_t_upper(&a);
        let weighted = syrk_t_weighted_upper(&a, &ones);
        assert_eq!(upper.upper().as_slice(), weighted.upper().as_slice());
    }

    #[test]
    fn upper_gram_mirror_and_canonical_access() {
        let a = demo_matrix(40, 13, 13);
        let ug = syrk_t_upper(&a);
        for i in 0..13 {
            for j in 0..i {
                assert_eq!(ug.upper()[(i, j)], 0.0, "strict lower must be zero");
                assert_eq!(ug.get(i, j), ug.get(j, i));
            }
        }
        let full = ug.clone().into_full();
        for i in 0..13 {
            for j in 0..13 {
                let (lo, hi) = if i <= j { (i, j) } else { (j, i) };
                assert_eq!(full[(i, j)], ug.upper()[(lo, hi)]);
            }
        }
    }

    #[test]
    fn empty_and_degenerate_shapes() {
        let empty = Matrix::zeros(0, 4);
        let grams = gram_batch(&empty, &[None, Some(&[])]);
        for g in &grams {
            assert_eq!(g.order(), 4);
            assert!(g.upper().as_slice().iter().all(|&v| v == 0.0));
        }
        let zero_w = vec![0.0; 9];
        let a = demo_matrix(9, 3, 17);
        let g = syrk_t_weighted_upper(&a, &zero_w);
        assert!(g.upper().as_slice().iter().all(|&v| v == 0.0));
        let y = vec![1.0; 9];
        let (_, rhs) = &gram_rhs_batch(&a, &y, &[&zero_w])[0];
        assert!(rhs.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn multi_rhs_matches_per_column_oracle() {
        let a = demo_matrix(57, 19, 19);
        let w = demo_weights(57, 23);
        let y1: Vec<f64> = (0..57).map(|i| (i as f64 * 0.11).cos()).collect();
        let y2: Vec<f64> = (0..57).map(|i| (i as f64 * 0.29).sin()).collect();
        let multi = gemv_t_weighted_multi(&a, &w, &[&y1, &y2]);
        for (got, y) in multi.iter().zip([&y1, &y2]) {
            let want = blas::gemv_t_weighted(&a, &w, y);
            for (g, w_) in got.iter().zip(&want) {
                assert!((g - w_).abs() <= 1e-12);
            }
        }
    }

    #[test]
    fn thread_count_sweep_bit_identical() {
        // Several bands, large enough to cross the parallel threshold.
        let a = demo_matrix(300, 160, 29);
        let ws: Vec<Vec<f64>> = (0..3).map(|k| demo_weights(300, 90 + k)).collect();
        let opts: Vec<WeightOpt<'_>> = ws.iter().map(|w| Some(w.as_slice())).collect();
        let y: Vec<f64> = (0..300).map(|i| (i as f64 * 0.07).sin()).collect();
        let n_bands = 160usize.div_ceil(GRAM_BAND);
        assert!(n_bands >= 3, "test shape must span several bands");
        let reference = batch_core_scheduled(simd::isa(), &a, &opts, Some(&y), 1, None);
        let want: Vec<(Vec<f64>, Vec<f64>)> = reference
            .0
            .into_iter()
            .zip(reference.1)
            .map(|(g, r)| (g.into_upper().into_vec(), r))
            .collect();
        for threads in [1usize, 2, 4, 8] {
            // Emulate a T-thread schedule: bands are dealt round-robin to
            // the workers and each worker drains its share back-to-back,
            // so the global completion order differs for every T.
            let mut order = Vec::with_capacity(n_bands);
            for t in 0..threads {
                order.extend((t..n_bands).step_by(threads));
            }
            let got = batch_core_scheduled(simd::isa(), &a, &opts, Some(&y), 1, Some(&order));
            let got: Vec<(Vec<f64>, Vec<f64>)> = got
                .0
                .into_iter()
                .zip(got.1)
                .map(|(g, r)| (g.into_upper().into_vec(), r))
                .collect();
            assert_eq!(got, want, "{threads}-thread schedule diverged");
        }
        // Real fork-join runs, every worker count.
        let wrefs: Vec<&[f64]> = ws.iter().map(|w| w.as_slice()).collect();
        for workers in 1..=4 {
            let got: Vec<(Vec<f64>, Vec<f64>)> = gram_rhs_batch_par(&a, &y, &wrefs, workers)
                .into_iter()
                .map(|(g, r)| (g.into_upper().into_vec(), r))
                .collect();
            assert_eq!(got, want, "{workers}-worker fork-join diverged");
        }
    }

    /// Equal bits, or NaN on both sides: NaN payloads may legally differ
    /// between instruction sets, so NaN is compared by class only.
    fn same_bits(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// `demo_matrix` salted with ±0, subnormals and magnitudes whose
    /// pairwise products overflow, each on a sparse hash-chosen subset so
    /// most Gram entries stay finite and sensitive to rounding.
    fn adversarial_matrix(n: usize, p: usize, seed: u64) -> Matrix {
        let mut a = demo_matrix(n, p, seed);
        for (k, v) in a.as_mut_slice().iter_mut().enumerate() {
            match (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58 {
                0 => *v = 0.0,
                1 => *v = -0.0,
                2 => *v *= 1e-310,
                3 => *v = f64::from_bits(1 + k as u64 % 7) * if k % 2 == 0 { 1.0 } else { -1.0 },
                4 if k % 3 == 0 => *v *= 1e300,
                _ => {}
            }
        }
        a
    }

    #[test]
    fn every_isa_bit_identical_to_baseline() {
        let isas: Vec<Isa> = Isa::supported().collect();
        let names: Vec<&str> = isas.iter().map(|i| i.name()).collect();
        println!("gram ISA identity covers: {}", names.join(", "));
        for p in [1usize, 3, 4, 15, 16, 17, 31, 63, 64, 65, 130, 512] {
            for n in [1usize, 63, 64, 65, 200] {
                let a = adversarial_matrix(n, p, (n * 1000 + p) as u64);
                let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.23).sin()).collect();
                let ws: Vec<Vec<f64>> = (0..3)
                    .map(|k| demo_weights(n, (n + p + k) as u64))
                    .collect();
                let refs: Vec<&[f64]> = ws.iter().map(|w| w.as_slice()).collect();
                let want = gram_rhs_batch_with_isa(Isa::Baseline, &a, &y, &refs);
                for &isa in &isas {
                    let got = gram_rhs_batch_with_isa(isa, &a, &y, &refs);
                    for ((g, gr), (w, wr)) in got.iter().zip(&want) {
                        let gs = g.upper().as_slice().iter().chain(gr);
                        let ws = w.upper().as_slice().iter().chain(wr);
                        for (e, (x, z)) in gs.zip(ws).enumerate() {
                            assert!(
                                same_bits(*x, *z),
                                "{} n={n} p={p} entry {e}: {x:e} vs baseline {z:e}",
                                isa.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn packs_each_panel_exactly_once_regardless_of_batch_size() {
        let a = demo_matrix(200, 96, 31);
        let ws: Vec<Vec<f64>> = (0..8).map(|k| demo_weights(200, 50 + k)).collect();
        let one: Vec<&[f64]> = vec![ws[0].as_slice()];
        let eight: Vec<&[f64]> = ws.iter().map(|w| w.as_slice()).collect();
        let before = pack_count();
        let _ = syrk_t_weighted_batch(&a, &one);
        let solo_packs = pack_count() - before;
        let before = pack_count();
        let _ = syrk_t_weighted_batch(&a, &eight);
        let batch_packs = pack_count() - before;
        assert_eq!(
            solo_packs, batch_packs,
            "batch must pack each (band, panel) once, independent of B"
        );
        // Sanity: the expected grid of (band, panel) pairs.
        let bands = 96usize.div_ceil(GRAM_BAND);
        let panels = 200usize.div_ceil(GRAM_PANEL_ROWS);
        assert_eq!(solo_packs, (bands * panels) as u64);
    }
}
