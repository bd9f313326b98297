//! In-run host probes used as roofline denominators: a single-core FMA
//! peak-FLOP loop and a single-core triad bandwidth probe over arrays
//! that together exceed the last-level cache four times over.

use std::hint::black_box;
use std::time::Instant;

/// Last-level cache size summed over its instances, with where the
/// figure came from. Reads the same sysfs tree `lscpu` reports from.
pub fn llc_bytes() -> (u64, &'static str) {
    const FALLBACK: u64 = 32 << 20;
    let Ok(cpus) = std::fs::read_dir("/sys/devices/system/cpu") else {
        return (FALLBACK, "fallback");
    };
    // (level, size, shared_cpu_list) of every cache of every cpu.
    let mut caches: Vec<(u32, u64, String)> = Vec::new();
    for cpu in cpus.flatten() {
        let name = cpu.file_name().to_string_lossy().into_owned();
        if !name.starts_with("cpu") || !name[3..].chars().all(|c| c.is_ascii_digit()) {
            continue;
        }
        let Ok(indices) = std::fs::read_dir(cpu.path().join("cache")) else {
            continue;
        };
        for idx in indices.flatten() {
            let read = |f: &str| std::fs::read_to_string(idx.path().join(f)).ok();
            let level = read("level").and_then(|s| s.trim().parse::<u32>().ok());
            let size = read("size").and_then(|s| parse_cache_size(s.trim()));
            let shared = read("shared_cpu_list").map(|s| s.trim().to_string());
            if let (Some(level), Some(size), Some(shared)) = (level, size, shared) {
                caches.push((level, size, shared));
            }
        }
    }
    let Some(top) = caches.iter().map(|c| c.0).max() else {
        return (FALLBACK, "fallback");
    };
    let mut instances: Vec<(&str, u64)> = caches
        .iter()
        .filter(|c| c.0 == top)
        .map(|c| (c.2.as_str(), c.1))
        .collect();
    instances.sort_unstable();
    instances.dedup();
    (instances.iter().map(|i| i.1).sum(), "sysfs")
}

fn parse_cache_size(s: &str) -> Option<u64> {
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1u64 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|v| v * mult)
}

/// Seconds the reference kernel takes when this host runs fast (2-vCPU
/// VM, 2.1 GHz nominal); timed metrics are scaled to it.
pub const REF_NOMINAL_S: f64 = 0.011;

/// The host-speed reference: a fixed amount of scalar work in this
/// benchmark's own code, shaped like the fits' two hot loops — a 64×64
/// dot-product matrix product (the Gram tile) and a 256-order forward
/// substitution (the ADMM triangular solve), both cache-resident. Other
/// tenants switch this host between a fast and a slow state; timed just
/// before and after a fit, this kernel slows with the fit, and program
/// changes cannot move it.
pub struct RefKernel {
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    lower: Vec<f64>,
    x: Vec<f64>,
}

const REF_N: usize = 64;
const REF_M: usize = 256;

impl RefKernel {
    pub fn new() -> Self {
        let mut lower = vec![0.0; REF_M * REF_M];
        for i in 0..REF_M {
            for j in 0..i {
                lower[i * REF_M + j] = 1e-3 * ((i * 7 + j * 3) % 11) as f64;
            }
            lower[i * REF_M + i] = 2.0;
        }
        Self {
            a: (0..REF_N * REF_N).map(|i| (i % 13) as f64 * 0.1).collect(),
            b: (0..REF_N * REF_N).map(|i| (i % 7) as f64 * 0.1).collect(),
            c: vec![0.0; REF_N * REF_N],
            lower,
            x: vec![1.0; REF_M],
        }
    }

    /// Seconds of one pass, the median of three: a reading taken around
    /// a fit must not follow a hiccup shorter than the fit.
    pub fn time(&mut self) -> f64 {
        let passes = [self.pass(), self.pass(), self.pass()];
        crate::clock::median(&passes)
    }

    /// Seconds of one pass: 60 matrix products and 300 substitutions.
    fn pass(&mut self) -> f64 {
        let (n, m) = (REF_N, REF_M);
        let t0 = Instant::now();
        for _ in 0..60 {
            for i in 0..n {
                let ar = &self.a[i * n..(i + 1) * n];
                for j in 0..n {
                    let br = &self.b[j * n..(j + 1) * n];
                    self.c[i * n + j] += ar.iter().zip(br).map(|(x, y)| x * y).sum::<f64>();
                }
            }
            black_box(&mut self.c);
        }
        for _ in 0..300 {
            for i in 0..m {
                let row = &self.lower[i * m..i * m + i];
                let s: f64 = row.iter().zip(&self.x[..i]).map(|(l, x)| l * x).sum();
                self.x[i] = (1.0 - s) / self.lower[i * m + i];
            }
            black_box(&mut self.x);
        }
        t0.elapsed().as_secs_f64()
    }
}

const FMA_ITERS: u64 = 40_000_000;

/// Best-of-3 single-core peak GFLOP/s from independent FMA chains (AVX2
/// FMA when the CPU has it, a scalar multiply-add loop otherwise), with
/// the variant's name.
pub fn peak_gflops() -> (f64, &'static str) {
    let mut best = 0.0f64;
    let mut variant = "scalar";
    for _ in 0..3 {
        let t0 = Instant::now();
        let (flops, v) = fma_loop(FMA_ITERS);
        best = best.max(flops / t0.elapsed().as_secs_f64() * 1e-9);
        variant = v;
    }
    (best, variant)
}

fn fma_loop(iters: u64) -> (f64, &'static str) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: the CPU supports AVX2 and FMA, checked just above.
        let sink = unsafe { fma_avx2(iters) };
        black_box(sink);
        return ((iters * FMA_CHAINS as u64 * 4 * 2) as f64, "avx2-fma");
    }
    let sink = fma_scalar(iters / 4);
    black_box(sink);
    ((iters / 4 * FMA_CHAINS as u64 * 2) as f64, "scalar")
}

/// Independent accumulator chains: enough to cover FMA latency times
/// issue width on current x86 cores.
const FMA_CHAINS: usize = 12;

/// # Safety
/// The caller must have checked that the CPU supports AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_avx2(iters: u64) -> f64 {
    use std::arch::x86_64::*;
    // v <- v * a + b converges to b / (1 - a): no overflow, no denormals.
    let a = _mm256_set1_pd(black_box(0.999_999_9));
    let b = _mm256_set1_pd(black_box(1e-9));
    let mut acc = [_mm256_set1_pd(black_box(1.0)); FMA_CHAINS];
    for _ in 0..iters {
        for v in acc.iter_mut() {
            *v = _mm256_fmadd_pd(*v, a, b);
        }
    }
    let mut lanes = [0.0f64; 4];
    let mut total = _mm256_setzero_pd();
    for v in acc {
        total = _mm256_add_pd(total, v);
    }
    _mm256_storeu_pd(lanes.as_mut_ptr(), total);
    lanes.iter().sum()
}

fn fma_scalar(iters: u64) -> f64 {
    let a = black_box(0.999_999_9);
    let b = black_box(1e-9);
    let mut acc = [black_box(1.0f64); FMA_CHAINS];
    for _ in 0..iters {
        for v in acc.iter_mut() {
            *v = *v * a + b;
        }
    }
    acc.iter().sum()
}

/// Best-of-4 single-core triad `a = b + s * c` bandwidth in GB/s
/// (24 computed bytes per element), over three arrays totalling at least
/// `total_bytes`. Returns the rate and the bytes of one array.
pub fn triad_gbs(total_bytes: u64) -> (f64, u64) {
    let n = (total_bytes.div_ceil(3 * 8)) as usize;
    let mut a = vec![0.0f64; n];
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let s = black_box(3.0);
    let mut best = 0.0f64;
    // The first pass faults the pages of `a` in and is not counted.
    for pass in 0..5 {
        let t0 = Instant::now();
        for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = bi + s * ci;
        }
        black_box(&mut a);
        let dt = t0.elapsed().as_secs_f64();
        if pass > 0 {
            best = best.max(24.0 * n as f64 / dt * 1e-9);
        }
    }
    assert!(a[n / 2] == 7.0, "triad probe computed a wrong value");
    (best, (n * 8) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_cache_size("307200K"), Some(300 << 20));
        assert_eq!(parse_cache_size("4M"), Some(4 << 20));
        assert_eq!(parse_cache_size("x"), None);
    }

    #[test]
    fn small_probes_run() {
        assert!(fma_loop(1000).0 > 0.0);
        let (gbs, bytes) = triad_gbs(3 << 20);
        assert!(gbs > 0.0 && bytes * 3 >= 3 << 20);
    }
}
