//! In-rank threads must never change a fit. Serial UoI_LASSO and UoI_VAR
//! fan their Gram bands, bootstrap solves and VAR column paths out over
//! `AdmmConfig::threads` OS threads; every fit here is compared with
//! `f64::to_bits` against the one-thread fit of the same configuration.
//! Covered: the plain and the numerically guarded paths, a checkpointed
//! run interrupted by its `abort_after` budget, the recovering executor,
//! and a traced fit's event sequence and metrics.

use std::sync::Arc;
use std::time::Duration;
use uoi_core::{
    CheckpointConfig, ExecMode, NumericalConfig, RecoveryConfig, UoiError, UoiFit, UoiFitter,
    UoiLassoConfig, UoiVarConfig, UoiVarFit, UoiVarFitter,
};
use uoi_data::{LinearConfig, LinearDataset, VarConfig, VarProcess};
use uoi_linalg::Matrix;
use uoi_solvers::{AdmmConfig, PathSchedule};
use uoi_telemetry::{Json, MemorySink, MetricsRegistry, Telemetry};

const THREADS: [usize; 4] = [1, 2, 3, 4];

/// Two Gram bands (p = 80 > 64) and enough flops to take the threaded
/// band path.
fn lasso_data() -> LinearDataset {
    LinearConfig {
        n_samples: 200,
        n_features: 80,
        n_nonzero: 6,
        snr: 8.0,
        seed: 41,
        ..Default::default()
    }
    .generate()
}

fn lasso_cfg(schedule: PathSchedule) -> UoiLassoConfig {
    UoiLassoConfig::builder()
        .b1(6)
        .b2(5)
        .q(6)
        .lambda_min_ratio(5e-2)
        .admm(AdmmConfig {
            max_iter: 300,
            schedule,
            ..Default::default()
        })
        .seed(3)
        .build()
        .unwrap()
}

fn var_series() -> Matrix {
    let proc = VarProcess::generate(&VarConfig {
        p: 8,
        order: 1,
        density: 0.25,
        target_radius: 0.6,
        noise_std: 1.0,
        seed: 9,
    });
    proc.simulate(160, 40, 4)
}

fn var_cfg() -> UoiVarConfig {
    UoiVarConfig::builder()
        .b1(4)
        .b2(4)
        .q(6)
        .lambda_min_ratio(5e-2)
        .admm(AdmmConfig {
            max_iter: 400,
            ..Default::default()
        })
        .seed(17)
        .block_len(Some(12))
        .build()
        .unwrap()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_lasso_same(a: &UoiFit, b: &UoiFit, what: &str) {
    assert_eq!(bits(&a.beta), bits(&b.beta), "{what}: beta");
    assert_eq!(
        a.intercept.to_bits(),
        b.intercept.to_bits(),
        "{what}: intercept"
    );
    assert_eq!(bits(&a.lambdas), bits(&b.lambdas), "{what}: lambdas");
    assert_eq!(
        a.supports_per_lambda, b.supports_per_lambda,
        "{what}: supports"
    );
    assert_eq!(a.support_family, b.support_family, "{what}: family");
}

fn assert_var_same(a: &UoiVarFit, b: &UoiVarFit, what: &str) {
    assert_eq!(bits(&a.vec_beta), bits(&b.vec_beta), "{what}: vec_beta");
    assert_eq!(bits(&a.mu), bits(&b.mu), "{what}: mu");
    assert_eq!(bits(&a.lambdas), bits(&b.lambdas), "{what}: lambdas");
    assert_eq!(
        a.supports_per_lambda, b.supports_per_lambda,
        "{what}: supports"
    );
    assert_eq!(a.support_family, b.support_family, "{what}: family");
}

#[test]
fn serial_lasso_is_bit_identical_for_every_thread_count() {
    let ds = lasso_data();
    for schedule in [PathSchedule::Sequential, PathSchedule::Fused] {
        let fitter = UoiFitter::new(lasso_cfg(schedule));
        let reference = fitter.clone().threads(1).fit(&ds.x, &ds.y).unwrap();
        for t in THREADS {
            let fit = fitter.clone().threads(t).fit(&ds.x, &ds.y).unwrap();
            assert_lasso_same(&fit, &reference, &format!("{schedule:?} threads={t}"));
        }
    }
}

#[test]
fn serial_var_is_bit_identical_for_every_thread_count() {
    let series = var_series();
    let fitter = UoiVarFitter::new(var_cfg());
    let reference = fitter.clone().threads(1).fit(&series).unwrap();
    for t in THREADS {
        let fit = fitter.clone().threads(t).fit(&series).unwrap();
        assert_var_same(&fit, &reference, &format!("threads={t}"));
    }
}

#[test]
fn guarded_fits_are_bit_identical_for_every_thread_count() {
    let ds = lasso_data();
    let series = var_series();
    let guarded_lasso = || UoiLassoConfig {
        numerical: NumericalConfig::guarded(),
        ..lasso_cfg(PathSchedule::Fused)
    };
    let guarded_var = || {
        let mut cfg = var_cfg();
        cfg.base.numerical = NumericalConfig::guarded();
        cfg
    };
    let lasso_ref = UoiFitter::new(guarded_lasso()).fit(&ds.x, &ds.y).unwrap();
    let var_ref = UoiVarFitter::new(guarded_var()).fit(&series).unwrap();
    let lasso_health = lasso_ref
        .numerical
        .as_ref()
        .unwrap()
        .to_json()
        .to_string_compact();
    let var_health = var_ref
        .numerical
        .as_ref()
        .unwrap()
        .to_json()
        .to_string_compact();
    for t in THREADS {
        let fit = UoiFitter::new(guarded_lasso())
            .threads(t)
            .fit(&ds.x, &ds.y)
            .unwrap();
        assert_lasso_same(&fit, &lasso_ref, &format!("guarded lasso threads={t}"));
        let health = fit
            .numerical
            .as_ref()
            .unwrap()
            .to_json()
            .to_string_compact();
        assert_eq!(health, lasso_health, "guarded lasso health threads={t}");

        let fit = UoiVarFitter::new(guarded_var())
            .threads(t)
            .fit(&series)
            .unwrap();
        assert_var_same(&fit, &var_ref, &format!("guarded var threads={t}"));
        let health = fit
            .numerical
            .as_ref()
            .unwrap()
            .to_json()
            .to_string_compact();
        assert_eq!(health, var_health, "guarded var health threads={t}");
    }
}

#[test]
fn interrupted_checkpoint_runs_agree_across_thread_counts() {
    let ds = lasso_data();
    let mut completed_by_threads = Vec::new();
    let mut resumed_by_threads = Vec::new();
    for t in THREADS {
        let dir =
            std::env::temp_dir().join(format!("uoi_thread_invariance_{}_{t}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let budgeted = UoiLassoConfig {
            checkpoint: Some(CheckpointConfig {
                abort_after: Some(4),
                ..CheckpointConfig::in_dir(&dir)
            }),
            ..lasso_cfg(PathSchedule::Fused)
        };
        match UoiFitter::new(budgeted).threads(t).fit(&ds.x, &ds.y) {
            Err(UoiError::Interrupted { completed }) => completed_by_threads.push(completed),
            other => panic!("threads={t}: expected Interrupted, got {other:?}"),
        }
        let resume = UoiLassoConfig {
            checkpoint: Some(CheckpointConfig::in_dir(&dir)),
            ..lasso_cfg(PathSchedule::Fused)
        };
        resumed_by_threads.push(UoiFitter::new(resume).threads(t).fit(&ds.x, &ds.y).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }
    assert!(
        completed_by_threads
            .iter()
            .all(|&c| c == completed_by_threads[0]),
        "Interrupted {{ completed }} must not depend on threads: {completed_by_threads:?}"
    );
    let reference = UoiFitter::new(lasso_cfg(PathSchedule::Fused))
        .fit(&ds.x, &ds.y)
        .unwrap();
    for (t, fit) in THREADS.iter().zip(&resumed_by_threads) {
        assert_lasso_same(fit, &reference, &format!("resumed threads={t}"));
    }
}

#[test]
fn recovering_at_two_threads_matches_serial() {
    let ds = lasso_data();
    let series = var_series();
    let rcfg = RecoveryConfig {
        world: 2,
        watchdog: Duration::from_secs(10),
        ..RecoveryConfig::default()
    };
    let serial = UoiFitter::new(lasso_cfg(PathSchedule::Fused))
        .fit(&ds.x, &ds.y)
        .unwrap();
    let recovering = UoiFitter::new(lasso_cfg(PathSchedule::Fused))
        .threads(2)
        .mode(ExecMode::Recovering(rcfg.clone()))
        .fit(&ds.x, &ds.y)
        .unwrap();
    assert_lasso_same(&recovering, &serial, "recovering lasso threads=2");

    let serial = UoiVarFitter::new(var_cfg()).fit(&series).unwrap();
    let recovering = UoiVarFitter::new(var_cfg())
        .threads(2)
        .mode(ExecMode::Recovering(rcfg))
        .fit(&series)
        .unwrap();
    assert_var_same(&recovering, &serial, "recovering var threads=2");
}

/// Drop the measured timestamps and renumber the process-global span ids
/// in order of first appearance.
fn normalized(events: &[uoi_telemetry::TraceEvent]) -> Vec<String> {
    let mut ids: Vec<u64> = Vec::new();
    let mut renumber = |id: u64| match ids.iter().position(|&x| x == id) {
        Some(i) => i,
        None => {
            ids.push(id);
            ids.len() - 1
        }
    };
    events
        .iter()
        .map(|e| {
            let Json::Obj(pairs) = e.to_json() else {
                panic!("events serialize as objects");
            };
            let kept: Vec<(String, Json)> = pairs
                .into_iter()
                .filter(|(k, _)| k != "t")
                .map(|(k, v)| match (k.as_str(), v.as_num()) {
                    ("id" | "parent", Some(id)) => {
                        let n = renumber(id as u64) as f64;
                        (k, Json::num(n))
                    }
                    _ => (k, v),
                })
                .collect();
            Json::Obj(kept).to_string_compact()
        })
        .collect()
}

fn traced<R>(fit: impl FnOnce(Telemetry) -> R) -> (R, Vec<String>, Arc<MetricsRegistry>) {
    let sink = Arc::new(MemorySink::new());
    let metrics = Arc::new(MetricsRegistry::new());
    let out = fit(Telemetry::new(sink.clone(), metrics.clone()));
    (out, normalized(&sink.take()), metrics)
}

fn assert_same_metrics(a: &MetricsRegistry, b: &MetricsRegistry, what: &str) {
    let (sa, sb) = (a.snapshot(), b.snapshot());
    assert_eq!(sa, sb, "{what}: metrics snapshot");
    for name in sa.histograms.keys() {
        assert_eq!(
            bits(&a.samples(name)),
            bits(&b.samples(name)),
            "{what}: histogram {name} sample order"
        );
    }
}

/// Two threads is the contract; four on a small host interleaves the
/// tasks more often, so an order leak is caught more reliably.
#[test]
fn traced_fits_record_the_same_events_and_metrics_at_one_and_two_threads() {
    let ds = lasso_data();
    let series = var_series();
    let lasso = |t: usize| {
        traced(|tel| {
            let cfg = UoiLassoConfig {
                telemetry: tel,
                ..lasso_cfg(PathSchedule::Fused)
            };
            UoiFitter::new(cfg).threads(t).fit(&ds.x, &ds.y).unwrap()
        })
    };
    let var = |t: usize| {
        traced(|tel| {
            let mut cfg = var_cfg();
            cfg.base.telemetry = tel;
            UoiVarFitter::new(cfg).threads(t).fit(&series).unwrap()
        })
    };
    let (lasso1, lasso_events, lasso_metrics) = lasso(1);
    let (var1, var_events, var_metrics) = var(1);
    assert!(lasso_events.len() > 10, "the traced fit must record events");
    assert!(var_metrics.counter("admm.solves") > 0);
    for t in [2, 4] {
        let (fit, events, metrics) = lasso(t);
        assert_lasso_same(&fit, &lasso1, &format!("traced lasso threads={t}"));
        assert_eq!(events, lasso_events, "lasso event sequence, threads={t}");
        assert_same_metrics(&metrics, &lasso_metrics, &format!("lasso threads={t}"));

        let (fit, events, metrics) = var(t);
        assert_var_same(&fit, &var1, &format!("traced var threads={t}"));
        assert_eq!(events, var_events, "var event sequence, threads={t}");
        assert_same_metrics(&metrics, &var_metrics, &format!("var threads={t}"));
    }
}
