//! The four workloads: explicit configurations, seeded inputs, one fit
//! through the public `UoiFitter`/`UoiVarFitter` API, and the output
//! comparisons the checks use.
//!
//! Every configuration is written out field by field here, so shell
//! `UOI_*` variables cannot change what is measured: nothing in this
//! crate calls the env-reading helpers (`AdmmConfig::env_threads`,
//! `RecoveryConfig::from_env`, `Cluster::with_env_watchdog`, ...).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use uoi_core::{
    DegradationConfig, DistOptions, EstimationScore, ExecMode, NumericalConfig, ParallelLayout,
    RecoveryConfig, SpeculationConfig, UoiFitter, UoiLassoConfig, UoiVarConfig, UoiVarFitter,
    VarRegression,
};
use uoi_data::{LinearConfig, ValidationPolicy, VarConfig, VarProcess};
use uoi_linalg::Matrix;
use uoi_mpisim::{Cluster, FaultPlan, MachineModel};
use uoi_solvers::{ols_on_support, support_of, AdmmConfig, PathSchedule};
use uoi_telemetry::Telemetry;

/// `lasso_*` design: fig2's executed shape (16 MiB design).
pub const N: usize = 4096;
pub const P: usize = 512;
pub const NONZERO: usize = 20;
pub const SNR: f64 = 8.0;
/// `var_granger` process: fig7's executed shape, `T = 2p`.
pub const VAR_P: usize = 128;
pub const VAR_T: usize = 256;
pub const VAR_ORDER: usize = 1;
pub const VAR_DENSITY: f64 = 0.05;
pub const VAR_RADIUS: f64 = 0.6;
pub const VAR_BURN_IN: usize = 50;
/// UoI and ADMM settings shared by every workload.
pub const B1: usize = 5;
pub const B2: usize = 5;
pub const Q: usize = 8;
pub const LAMBDA_MIN_RATIO: f64 = 0.05;
pub const MAX_ITER: usize = 150;
pub const SUPPORT_TOL: f64 = 1e-6;
/// Executed ranks of `lasso_dist` and world size of `lasso_recover`.
pub const RANKS: usize = 2;
/// `lasso_recover`: the crashed rank and its collective step (step 1 is
/// the selection exchange's fence, after the victim computed its tasks).
pub const CRASH_RANK: usize = 1;
pub const CRASH_STEP: u64 = 1;
pub const MAX_ROUNDS: usize = 2;
/// Verified-fetch retries of the recovering result exchange.
pub const GET_ATTEMPTS: u32 = 4;
/// Generous: a watchdog only matters when a rank hangs, which no
/// workload plans.
pub const WATCHDOG: Duration = Duration::from_secs(60);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    LassoTall,
    VarGranger,
    LassoDist,
    LassoRecover,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::LassoTall,
        Workload::VarGranger,
        Workload::LassoDist,
        Workload::LassoRecover,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LassoTall => "lasso_tall",
            Workload::VarGranger => "var_granger",
            Workload::LassoDist => "lasso_dist",
            Workload::LassoRecover => "lasso_recover",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn is_var(self) -> bool {
        self == Workload::VarGranger
    }
}

/// Which pipeline a fit runs: the workload's own, the serial reference
/// of the same inputs, or (`lasso_recover`) the fault-free recovering
/// run the crash overhead is measured against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Native,
    Serial,
    RecoveringFaultFree,
}

/// Every seed of a run, derived from the one `--seed` argument.
#[derive(Clone, Copy, Debug)]
pub struct Seeds {
    pub data: u64,
    pub simulate: u64,
    pub fit: u64,
    pub fault: u64,
    pub probe: u64,
}

impl Seeds {
    pub fn derive(seed: u64) -> Self {
        let mut sm = uoi_mpisim::SplitMix64::new(seed);
        Self {
            data: sm.next_u64(),
            simulate: sm.next_u64(),
            fit: sm.next_u64(),
            fault: sm.next_u64(),
            probe: sm.next_u64(),
        }
    }

    /// `(data, simulate, fit)` seeds of replicate dataset `r` (0 keeps
    /// the base seeds). Each replicate draws its own data and its own
    /// bootstrap resamples.
    pub fn replicate(&self, r: usize) -> (u64, u64, u64) {
        let mix = (r as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (self.data ^ mix, self.simulate ^ mix, self.fit ^ mix)
    }
}

pub struct Spec {
    pub workload: Workload,
    pub seed: u64,
    pub seeds: Seeds,
    /// In-rank ADMM workers: the host's parallelism. Changes only the
    /// modeled clock, never the fitted numbers.
    pub threads: usize,
    /// Modeled cores of `lasso_dist`: fig2's single node.
    pub modeled_cores: usize,
}

impl Spec {
    pub fn new(workload: Workload, seed: u64) -> Self {
        Self {
            workload,
            seed,
            seeds: Seeds::derive(seed),
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            modeled_cores: uoi_bench::setups::single_node().cores,
        }
    }

    pub fn admm(&self) -> AdmmConfig {
        AdmmConfig {
            rho: 1.0,
            max_iter: MAX_ITER,
            abstol: 1e-6,
            reltol: 1e-5,
            threads: self.threads,
            schedule: PathSchedule::Fused,
            capture_curve: false,
        }
    }

    pub fn lasso_config(&self, fit_seed: u64, telemetry: Telemetry) -> UoiLassoConfig {
        UoiLassoConfig {
            b1: B1,
            b2: B2,
            q: Q,
            lambda_min_ratio: LAMBDA_MIN_RATIO,
            admm: self.admm(),
            support_tol: SUPPORT_TOL,
            seed: fit_seed,
            score: EstimationScore::Mse,
            intersection_frac: 1.0,
            telemetry,
            degradation: DegradationConfig::default(),
            checkpoint: None,
            numerical: NumericalConfig::default(),
        }
    }

    pub fn var_config(&self, fit_seed: u64, telemetry: Telemetry) -> UoiVarConfig {
        UoiVarConfig {
            order: VAR_ORDER,
            block_len: None,
            base: self.lasso_config(fit_seed, telemetry),
        }
    }

    pub fn machine(&self) -> MachineModel {
        uoi_bench::setups::machine()
    }

    pub fn dist_options(&self) -> DistOptions {
        DistOptions {
            exec_ranks: RANKS,
            modeled_ranks: self.modeled_cores,
            machine: self.machine(),
            layout: ParallelLayout::admm_only(),
            n_readers: RANKS,
        }
    }

    pub fn recovery_config(&self, crash: bool) -> RecoveryConfig {
        RecoveryConfig {
            enabled: true,
            world: RANKS,
            max_rounds: MAX_ROUNDS,
            plan: crash
                .then(|| FaultPlan::new(self.seeds.fault).crash_rank(CRASH_RANK, CRASH_STEP)),
            watchdog: WATCHDOG,
            get_attempts: GET_ATTEMPTS,
            speculation: SpeculationConfig::default(),
        }
    }

    /// One line naming every setting that shapes the measured work.
    pub fn describe(&self) -> String {
        let a = self.admm();
        let shared = format!(
            "b1={B1} b2={B2} q={Q} lambda_min_ratio={LAMBDA_MIN_RATIO} support_tol={SUPPORT_TOL} \
             score=Mse intersection_frac=1 admm(rho={} max_iter={} abstol={} reltol={} \
             threads={} schedule={:?}) numerical=inert checkpoint=none degradation=none \
             fit_seed={}",
            a.rho, a.max_iter, a.abstol, a.reltol, a.threads, a.schedule, self.seeds.fit
        );
        let shape = match self.workload {
            Workload::VarGranger => format!(
                "var p={VAR_P} order={VAR_ORDER} T={VAR_T} density={VAR_DENSITY} \
                 radius={VAR_RADIUS} burn_in={VAR_BURN_IN} block_len=auto replicates={} \
                 data_seed={} simulate_seed={}",
                replicates(self.workload),
                self.seeds.data,
                self.seeds.simulate
            ),
            _ => format!(
                "lasso n={N} p={P} nonzero={NONZERO} snr={SNR} replicates={} data_seed={}",
                replicates(self.workload),
                self.seeds.data
            ),
        };
        let mode = match self.workload {
            Workload::LassoTall | Workload::VarGranger => "mode=serial".to_string(),
            Workload::LassoDist => format!(
                "mode=dist fit_on ranks={RANKS} modeled_cores={} machine=setups::machine() \
                 layout=admm_only watchdog_s={}",
                self.modeled_cores,
                WATCHDOG.as_secs()
            ),
            Workload::LassoRecover => format!(
                "mode=recovering world={RANKS} max_rounds={MAX_ROUNDS} \
                 crash_rank={CRASH_RANK}@step{CRASH_STEP} fault_seed={} get_attempts={GET_ATTEMPTS} \
                 speculation=off watchdog_s={}",
                self.seeds.fault,
                WATCHDOG.as_secs()
            ),
        };
        format!(
            "{} seed={} {shape} {shared} {mode}",
            self.workload.name(),
            self.seed
        )
    }
}

/// A run's generated inputs with their ground truth.
pub enum Inputs {
    Lasso {
        x: Matrix,
        y: Vec<f64>,
        beta_true: Vec<f64>,
        fit_seed: u64,
    },
    Var {
        series: Matrix,
        /// `A_1` of the generating process, row-major.
        a_true: Vec<f64>,
        fit_seed: u64,
    },
}

impl Inputs {
    /// The UoI master seed fits of these inputs use.
    pub fn fit_seed(&self) -> u64 {
        match self {
            Inputs::Lasso { fit_seed, .. } | Inputs::Var { fit_seed, .. } => *fit_seed,
        }
    }
}

/// Replicate datasets per run. The timed fits cycle through them and
/// the quality metrics average over them: the error of one fit spreads
/// widely from one seed's problem to the next (a LASSO problem has only
/// 20 nonzeros), and averaging over replicates keeps the run-to-run
/// spread inside the metrics' bounds. Twelve LASSO fits (~1 s each) and
/// four VAR fits (~4 s each) fit inside one run's measured seconds.
pub fn replicates(workload: Workload) -> usize {
    if workload.is_var() {
        4
    } else {
        12
    }
}

/// Generate replicate `r` of the run's inputs.
pub fn generate(spec: &Spec, r: usize) -> Inputs {
    let (data_seed, simulate_seed, fit_seed) = spec.seeds.replicate(r);
    if spec.workload.is_var() {
        let proc = VarProcess::generate(&VarConfig {
            p: VAR_P,
            order: VAR_ORDER,
            density: VAR_DENSITY,
            target_radius: VAR_RADIUS,
            noise_std: 1.0,
            seed: data_seed,
        });
        let series = proc.simulate(VAR_T, VAR_BURN_IN, simulate_seed);
        Inputs::Var {
            series,
            a_true: proc.coeffs[0].as_slice().to_vec(),
            fit_seed,
        }
    } else {
        let ds = LinearConfig {
            n_samples: N,
            n_features: P,
            n_nonzero: NONZERO,
            snr: SNR,
            min_coef: 0.5,
            max_coef: 2.0,
            rho_design: 0.0,
            seed: data_seed,
        }
        .generate();
        Inputs::Lasso {
            x: ds.x,
            y: ds.y,
            beta_true: ds.beta_true,
            fit_seed,
        }
    }
}

/// The data layer's input validation (`validate_xy`, rejecting policy)
/// on copies of the inputs. The VAR series is validated as a design with
/// a zero placeholder response, as the program's own series check does.
pub fn validate(inputs: &Inputs) -> Result<(), String> {
    let (mut x, mut y) = match inputs {
        Inputs::Lasso { x, y, .. } => (x.clone(), y.clone()),
        Inputs::Var { series, .. } => (series.clone(), vec![0.0; series.rows()]),
    };
    uoi_data::validate_xy(&mut x, &mut y, ValidationPolicy::Reject)
        .map(|_| ())
        .map_err(|e| format!("validate_xy: {e}"))
}

/// What one fit returned, reduced to what the checks and metrics read.
#[derive(Clone)]
pub struct FitOutput {
    /// `beta` (LASSO) or `A_1` row-major (VAR).
    pub coef: Vec<f64>,
    /// Intercept (LASSO) or the process mean `mu` (VAR).
    pub offset: Vec<f64>,
    /// Selected support in `coef` coordinates.
    pub support: Vec<usize>,
    pub supports_per_lambda: Vec<Vec<usize>>,
    pub support_family: Vec<Vec<usize>>,
    /// Recovery rounds attempted (`lasso_recover` only; 0 otherwise).
    pub recovery_rounds: usize,
    /// Modeled makespan of the simulated cluster (`lasso_dist` only).
    pub makespan_model_s: Option<f64>,
}

impl FitOutput {
    /// `f64::to_bits` identity of every returned number and support.
    pub fn bits_eq(&self, other: &FitOutput) -> bool {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        bits(&self.coef) == bits(&other.coef)
            && bits(&self.offset) == bits(&other.offset)
            && self.support == other.support
            && self.supports_per_lambda == other.supports_per_lambda
            && self.support_family == other.support_family
    }
}

/// Run one fit. `Err` covers a returned error, a panic, and (dist) a
/// rank that failed or ranks that disagree.
pub fn fit(
    spec: &Spec,
    inputs: &Inputs,
    mode: Mode,
    telemetry: Telemetry,
) -> Result<FitOutput, String> {
    catch_unwind(AssertUnwindSafe(|| {
        fit_inner(spec, inputs, mode, telemetry)
    }))
    .unwrap_or_else(|payload| Err(format!("panic: {}", panic_message(payload.as_ref()))))
}

fn fit_inner(
    spec: &Spec,
    inputs: &Inputs,
    mode: Mode,
    telemetry: Telemetry,
) -> Result<FitOutput, String> {
    match inputs {
        Inputs::Var { series, .. } => {
            let fit = UoiVarFitter::new(spec.var_config(inputs.fit_seed(), telemetry))
                .mode(ExecMode::Serial)
                .fit(series)
                .map_err(|e| e.to_string())?;
            let a = fit.a_mats[0].as_slice().to_vec();
            Ok(FitOutput {
                support: support_of(&a, SUPPORT_TOL),
                coef: a,
                offset: fit.mu,
                supports_per_lambda: fit.supports_per_lambda,
                support_family: fit.support_family,
                recovery_rounds: 0,
                makespan_model_s: None,
            })
        }
        Inputs::Lasso { x, y, .. } => {
            let cfg = spec.lasso_config(inputs.fit_seed(), telemetry.clone());
            let exec = match (spec.workload, mode) {
                (_, Mode::Serial) | (Workload::LassoTall, _) => ExecMode::Serial,
                (Workload::LassoDist, _) => return dist_fit(spec, cfg, x, y, telemetry),
                (_, Mode::RecoveringFaultFree) => ExecMode::Recovering(spec.recovery_config(false)),
                _ => ExecMode::Recovering(spec.recovery_config(true)),
            };
            let fit = UoiFitter::new(cfg)
                .mode(exec)
                .fit(x, y)
                .map_err(|e| e.to_string())?;
            Ok(FitOutput {
                coef: fit.beta,
                offset: vec![fit.intercept],
                support: fit.support,
                supports_per_lambda: fit.supports_per_lambda,
                support_family: fit.support_family,
                recovery_rounds: fit.recovery.map_or(0, |r| r.rounds_attempted),
                makespan_model_s: None,
            })
        }
    }
}

/// `lasso_dist`: the consensus fit body on a caller-driven 2-rank
/// cluster modeled at fig2's core count, through `UoiFitter::fit_on`.
fn dist_fit(
    spec: &Spec,
    cfg: UoiLassoConfig,
    x: &Matrix,
    y: &[f64],
    telemetry: Telemetry,
) -> Result<FitOutput, String> {
    let fitter = UoiFitter::new(cfg).mode(ExecMode::Dist(spec.dist_options()));
    let report = Cluster::new(RANKS, spec.machine())
        .modeled_ranks(spec.modeled_cores)
        .with_watchdog(WATCHDOG)
        .with_telemetry(telemetry)
        .try_run(|ctx, world| fitter.fit_on(ctx, world, x, y))
        .map_err(|e| e.to_string())?;
    let makespan = report.makespan();
    let mut fits = report.results.into_iter();
    let fit = fits.next().ok_or("cluster returned no rank-0 result")?;
    for other in fits {
        let same = other
            .beta
            .iter()
            .map(|v| v.to_bits())
            .eq(fit.beta.iter().map(|v| v.to_bits()))
            && other.support == fit.support;
        if !same {
            return Err("dist ranks returned different fits".into());
        }
    }
    Ok(FitOutput {
        coef: fit.beta,
        offset: vec![fit.intercept],
        support: fit.support,
        supports_per_lambda: fit.supports_per_lambda,
        support_family: fit.support_family,
        recovery_rounds: 0,
        makespan_model_s: Some(makespan),
    })
}

/// The generator's true coefficients in `FitOutput::coef` coordinates.
pub fn truth(inputs: &Inputs) -> &[f64] {
    match inputs {
        Inputs::Lasso { beta_true, .. } => beta_true,
        Inputs::Var { a_true, .. } => a_true,
    }
}

/// The oracle estimate: OLS of the centred data on the true support
/// (per response column for VAR), in `FitOutput::coef` coordinates. No
/// estimator that has to select its support can beat it on average.
pub fn oracle_coef(inputs: &Inputs) -> Vec<f64> {
    let centred = |m: &Matrix| {
        let mut c = m.clone();
        c.center_cols(&m.col_means());
        c
    };
    match inputs {
        Inputs::Lasso {
            x, y, beta_true, ..
        } => {
            let y_mean = y.iter().sum::<f64>() / y.len() as f64;
            let yc: Vec<f64> = y.iter().map(|v| v - y_mean).collect();
            ols_on_support(&centred(x), &yc, &support_of(beta_true, SUPPORT_TOL))
        }
        Inputs::Var { series, a_true, .. } => {
            let reg = VarRegression::build(&centred(series), VAR_ORDER);
            let p = VAR_P;
            let mut a = vec![0.0; p * p];
            for i in 0..p {
                let row = &a_true[i * p..(i + 1) * p];
                let beta = ols_on_support(&reg.x, &reg.y.col(i), &support_of(row, SUPPORT_TOL));
                a[i * p..(i + 1) * p].copy_from_slice(&beta);
            }
            a
        }
    }
}

/// F1 of the selected support against the true nonzero set.
pub fn support_f1(truth: &[f64], selected: &[usize]) -> f64 {
    let true_pos = selected.iter().filter(|&&i| truth[i] != 0.0).count() as f64;
    let actual = truth.iter().filter(|v| **v != 0.0).count() as f64;
    if true_pos == 0.0 {
        return 0.0;
    }
    2.0 * true_pos / (selected.len() as f64 + actual)
}

/// `||coef - truth||_2`.
pub fn coef_err(truth: &[f64], coef: &[f64]) -> f64 {
    truth
        .iter()
        .zip(coef)
        .map(|(t, c)| (t - c) * (t - c))
        .sum::<f64>()
        .sqrt()
}

/// `||coef - truth||_2 / ||truth||_2`.
pub fn coef_rel_err(truth: &[f64], coef: &[f64]) -> f64 {
    coef_err(truth, coef) / coef_err(truth, &vec![0.0; truth.len()])
}

pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(e) = payload.downcast_ref::<uoi_mpisim::MpiError>() {
        e.to_string()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_measures() {
        let truth = [1.0, 0.0, 2.0, 0.0];
        assert_eq!(support_f1(&truth, &[0, 2]), 1.0);
        assert!((support_f1(&truth, &[0, 1]) - 0.5).abs() < 1e-12);
        assert_eq!(support_f1(&truth, &[1]), 0.0);
        assert_eq!(coef_rel_err(&truth, &truth), 0.0);
    }

    #[test]
    fn seeds_are_a_function_of_the_run_seed() {
        let (a, b) = (Seeds::derive(1), Seeds::derive(1));
        assert_eq!((a.data, a.fit, a.fault), (b.data, b.fit, b.fault));
        assert_ne!(Seeds::derive(2).data, a.data);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
