//! Golden fit digests: every fit below is hashed (FNV-1a over the
//! `f64::to_bits` of its coefficients and intercepts, its supports, and
//! the final residuals and iteration count of every ADMM solve it ran)
//! and compared with a constant recorded before the lockstep solver's
//! memory schedule last changed. The estimates are least-squares refits
//! on the selected supports, so the solve records are what ties the
//! digest to every bit of the ADMM iterates. Any change to a fit's bits — a reordered
//! sum, a fused multiply-add, a lane reading another lane's data — shows
//! up here as a digest mismatch.
//!
//! Covered: UoI_LASSO serial and recovering, and UoI_VAR serial, each at
//! threads 1 and 2, plain and numerically guarded, under both the Fused
//! and the Sequential lambda-path schedules. The VAR problem has more
//! (column, lambda) tasks than one lockstep window holds, and both
//! problems have an iteration cap tight enough that some lanes stop at
//! `max_iter`.
//!
//! The constants hold on x86-64, where every SIMD build of the kernels is
//! bit-identical to the baseline one.
#![cfg(target_arch = "x86_64")]

use std::sync::Arc;
use std::time::Duration;
use uoi::core::{
    ExecMode, NumericalConfig, RecoveryConfig, UoiLassoConfig, UoiVarConfig, UoiVarFitter,
};
use uoi::core::{UoiFit, UoiFitter, UoiVarFit};
use uoi::data::{LinearConfig, LinearDataset, VarConfig, VarProcess};
use uoi::linalg::Matrix;
use uoi::solvers::{AdmmConfig, PathSchedule};
use uoi::telemetry::{MetricsRegistry, Telemetry};

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn floats(&mut self, v: &[f64]) {
        self.word(v.len() as u64);
        for x in v {
            self.word(x.to_bits());
        }
    }

    fn supports(&mut self, s: &[Vec<usize>]) {
        self.word(s.len() as u64);
        for set in s {
            self.word(set.len() as u64);
            for &i in set {
                self.word(i as u64);
            }
        }
    }

    /// Every sample of the per-solve histograms, as a multiset: the
    /// recovering executor's ranks record concurrently, so the sample
    /// order is not part of the digest (telemetry_invariance checks it).
    fn solve_records(&mut self, m: &MetricsRegistry) {
        for name in [
            "admm.iterations",
            "admm.primal_residual",
            "admm.dual_residual",
        ] {
            let mut bits: Vec<u64> = m.samples(name).iter().map(|v| v.to_bits()).collect();
            bits.sort_unstable();
            self.word(bits.len() as u64);
            for b in bits {
                self.word(b);
            }
        }
    }
}

fn lasso_digest(fit: &UoiFit, m: &MetricsRegistry) -> u64 {
    let mut h = Fnv::new();
    h.solve_records(m);
    h.floats(&fit.beta);
    h.word(fit.intercept.to_bits());
    h.supports(&fit.supports_per_lambda);
    h.supports(&fit.support_family);
    h.0
}

fn var_digest(fit: &UoiVarFit, m: &MetricsRegistry) -> u64 {
    let mut h = Fnv::new();
    h.solve_records(m);
    h.floats(&fit.vec_beta);
    h.floats(&fit.mu);
    h.supports(&fit.supports_per_lambda);
    h.supports(&fit.support_family);
    h.0
}

fn lasso_data() -> LinearDataset {
    LinearConfig {
        n_samples: 160,
        n_features: 40,
        n_nonzero: 6,
        snr: 6.0,
        seed: 5,
        ..Default::default()
    }
    .generate()
}

fn admm(schedule: PathSchedule, max_iter: usize) -> AdmmConfig {
    AdmmConfig {
        max_iter,
        schedule,
        ..Default::default()
    }
}

fn lasso_cfg(schedule: PathSchedule, guarded: bool, m: &Arc<MetricsRegistry>) -> UoiLassoConfig {
    let mut cfg = UoiLassoConfig::builder()
        .b1(4)
        .b2(3)
        .q(8)
        .lambda_min_ratio(2e-2)
        .admm(admm(schedule, 45))
        .seed(11)
        .telemetry(Telemetry::with_metrics(m.clone()))
        .build()
        .unwrap();
    if guarded {
        cfg.numerical = NumericalConfig::guarded();
    }
    cfg
}

/// Twelve series: 12 columns x 6 lambdas = 72 lockstep tasks per
/// selection bootstrap, more than one window's slots.
fn var_series() -> Matrix {
    VarProcess::generate(&VarConfig {
        p: 12,
        order: 1,
        density: 0.2,
        target_radius: 0.7,
        noise_std: 1.0,
        seed: 23,
    })
    .simulate(150, 30, 6)
}

fn var_cfg(schedule: PathSchedule, guarded: bool, m: &Arc<MetricsRegistry>) -> UoiVarConfig {
    let mut cfg = UoiVarConfig::builder()
        .b1(3)
        .b2(3)
        .q(6)
        .lambda_min_ratio(3e-2)
        .admm(admm(schedule, 40))
        .seed(29)
        .block_len(Some(10))
        .build()
        .unwrap();
    cfg.base.telemetry = Telemetry::with_metrics(m.clone());
    if guarded {
        cfg.base.numerical = NumericalConfig::guarded();
    }
    cfg
}

fn recovering() -> ExecMode {
    ExecMode::Recovering(RecoveryConfig {
        world: 2,
        watchdog: Duration::from_secs(20),
        ..RecoveryConfig::default()
    })
}

/// `(name, digest)` for every fit of the matrix, in a fixed order.
fn digests() -> Vec<(String, u64)> {
    let ds = lasso_data();
    let series = var_series();
    let mut out = Vec::new();
    for schedule in [PathSchedule::Fused, PathSchedule::Sequential] {
        for guarded in [false, true] {
            for threads in [1, 2] {
                let tag = format!(
                    "{schedule:?}/{}/t{threads}",
                    if guarded { "guarded" } else { "plain" }
                );
                let m = Arc::new(MetricsRegistry::new());
                let fit = UoiFitter::new(lasso_cfg(schedule, guarded, &m))
                    .threads(threads)
                    .fit(&ds.x, &ds.y)
                    .unwrap();
                out.push((format!("lasso_serial/{tag}"), lasso_digest(&fit, &m)));
                let m = Arc::new(MetricsRegistry::new());
                let fit = UoiFitter::new(lasso_cfg(schedule, guarded, &m))
                    .threads(threads)
                    .mode(recovering())
                    .fit(&ds.x, &ds.y)
                    .unwrap();
                out.push((format!("lasso_recovering/{tag}"), lasso_digest(&fit, &m)));
                let m = Arc::new(MetricsRegistry::new());
                let fit = UoiVarFitter::new(var_cfg(schedule, guarded, &m))
                    .threads(threads)
                    .fit(&series)
                    .unwrap();
                out.push((format!("var_serial/{tag}"), var_digest(&fit, &m)));
            }
        }
    }
    out
}

/// Recorded before the slot-refill lockstep and the lane-major round.
const GOLDEN: &[(&str, u64)] = &[
    ("lasso_serial/Fused/plain/t1", 0x8d5d274d43420553),
    ("lasso_recovering/Fused/plain/t1", 0x8d5d274d43420553),
    ("var_serial/Fused/plain/t1", 0xc363a1659d861309),
    ("lasso_serial/Fused/plain/t2", 0x8d5d274d43420553),
    ("lasso_recovering/Fused/plain/t2", 0x8d5d274d43420553),
    ("var_serial/Fused/plain/t2", 0xc363a1659d861309),
    ("lasso_serial/Fused/guarded/t1", 0x8d5d274d43420553),
    ("lasso_recovering/Fused/guarded/t1", 0x8d5d274d43420553),
    ("var_serial/Fused/guarded/t1", 0xc363a1659d861309),
    ("lasso_serial/Fused/guarded/t2", 0x8d5d274d43420553),
    ("lasso_recovering/Fused/guarded/t2", 0x8d5d274d43420553),
    ("var_serial/Fused/guarded/t2", 0xc363a1659d861309),
    ("lasso_serial/Sequential/plain/t1", 0x162836683dba6f94),
    ("lasso_recovering/Sequential/plain/t1", 0x162836683dba6f94),
    ("var_serial/Sequential/plain/t1", 0xbd4126e9dcc17ce4),
    ("lasso_serial/Sequential/plain/t2", 0x162836683dba6f94),
    ("lasso_recovering/Sequential/plain/t2", 0x162836683dba6f94),
    ("var_serial/Sequential/plain/t2", 0xbd4126e9dcc17ce4),
    ("lasso_serial/Sequential/guarded/t1", 0x162836683dba6f94),
    ("lasso_recovering/Sequential/guarded/t1", 0x162836683dba6f94),
    ("var_serial/Sequential/guarded/t1", 0xbd4126e9dcc17ce4),
    ("lasso_serial/Sequential/guarded/t2", 0x162836683dba6f94),
    ("lasso_recovering/Sequential/guarded/t2", 0x162836683dba6f94),
    ("var_serial/Sequential/guarded/t2", 0xbd4126e9dcc17ce4),
];

#[test]
fn fit_digests_match_the_recorded_constants() {
    let got = digests();
    let table: Vec<String> = got
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", 0x{d:016x}),"))
        .collect();
    println!("{}", table.join("\n"));
    assert_eq!(got.len(), GOLDEN.len(), "digest table size");
    let wrong: Vec<String> = got
        .iter()
        .zip(GOLDEN)
        .filter(|((name, d), (gname, gd))| name != gname || d != gd)
        .map(|((name, d), (_, gd))| format!("{name}: 0x{d:016x}, recorded 0x{gd:016x}"))
        .collect();
    assert!(
        wrong.is_empty(),
        "fit digests changed:\n{}",
        wrong.join("\n")
    );
}
