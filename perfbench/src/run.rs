//! The two kinds of run: untraced (end-to-end metrics) and traced
//! (per-layer metrics). Every output check runs outside the timed
//! intervals.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use uoi_telemetry::{ConvergenceReport, MemorySink, Telemetry, TraceEvent};

use crate::clock::{median, peak_rss_mib, reset_peak_rss, timed};
use crate::probes::{self, REF_NOMINAL_S};
use crate::replay::{self, LayerTimes};
use crate::spans::Recorder;
use crate::workloads::{
    coef_err, coef_rel_err, fit, generate, oracle_coef, replicates, support_f1, truth, validate,
    FitOutput, Inputs, Mode, Spec, Workload, B1, B2, Q,
};

/// End-to-end metrics (untraced runs), as `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("fit_s", "s"),
    ("fit_cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("support_f1", "ratio"),
    ("coef_err_over_oracle", "ratio"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics (traced runs), as `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("host.peak_gflops", "GFLOP/s"),
    ("host.triad_gbs", "GB/s"),
    ("host.llc_mib", "MiB"),
    ("host.triad_mib", "MiB"),
    ("host.ref_s", "s"),
    ("data.generate_s", "s"),
    ("data.validate_s", "s"),
    ("data.resample_s", "s"),
    ("linalg.gram_s", "s"),
    ("linalg.gram_gflops", "GFLOP/s"),
    ("linalg.gram_peak_frac", "ratio"),
    ("linalg.chol_s", "s"),
    ("linalg.chol_gflops", "GFLOP/s"),
    ("linalg.trsv_us", "us"),
    ("linalg.trsv_gflops", "GFLOP/s"),
    ("solvers.path_s", "s"),
    ("solvers.iter_us", "us"),
    ("solvers.ols_s", "s"),
    ("solvers.iters_p50", "count"),
    ("solvers.iters_max", "count"),
    ("solvers.cap_hits", "count"),
    ("solvers.nonconverged_frac", "ratio"),
    ("core.tasks", "count"),
    ("core.task_attempts", "count"),
    ("core.family_size", "count"),
    ("core.intersect_s", "s"),
    ("core.replay_coverage", "ratio"),
    ("core.dist_coef_gap", "abs"),
    ("core.recovery_rounds", "count"),
    ("core.recovery_overhead_s", "s"),
    ("mpisim.makespan_model_s", "s"),
    ("mpisim.wait_model_s", "s"),
    ("mpisim.collectives", "count"),
    ("mpisim.collective_bytes", "bytes"),
    ("mpisim.model_over_measured", "ratio"),
    ("mpisim.allreduce_us", "us"),
    ("tieredio.shuffle_s", "s"),
    ("tieredio.shuffle_bytes", "bytes"),
    ("telemetry.overhead_frac", "ratio"),
    ("core.fit_traced_s", "s"),
];

/// Full set-ups (generate + validate + warm-up fit) per untraced run;
/// `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Traced fit pairs per run, at most.
const MAX_FITS: usize = 10_000;
/// Untraced/traced fit pairs per traced run, at least.
const MIN_PAIRS: usize = 2;
/// Fault-free recovering fits the crash overhead is measured against.
const FAULT_FREE_FITS: usize = 3;

pub struct RunResult {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    pub fn to_json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// Fit and check accounting for one run.
struct Ledger {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    /// The first successful fit of each replicate dataset.
    references: Vec<Option<FitOutput>>,
}

impl Ledger {
    fn new(replicates: usize) -> Self {
        Self {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            references: vec![None; replicates],
        }
    }

    /// Count a fit of replicate `r`; it fails if it returned `Err` or
    /// panicked, or is not `f64::to_bits`-identical to the run's first
    /// fit of the same inputs.
    fn check_fit(
        &mut self,
        what: &str,
        r: usize,
        result: Result<FitOutput, String>,
    ) -> Option<FitOutput> {
        self.attempted += 1;
        let out = match result {
            Ok(out) => out,
            Err(e) => return self.fail(format!("{what} fit failed: {e}")),
        };
        match &self.references[r] {
            None => self.references[r] = Some(out.clone()),
            Some(first) if !first.bits_eq(&out) => {
                return self.fail(format!(
                    "{what} fit of replicate {r} differs from its first fit"
                ))
            }
            Some(_) => {}
        }
        Some(out)
    }

    fn fail(&mut self, problem: String) -> Option<FitOutput> {
        self.failed += 1;
        self.problems.push(problem);
        None
    }

    fn problem(&mut self, problem: String) {
        self.problems.push(problem);
    }

    fn finish(self, metrics: Vec<(&'static str, f64, &'static str)>) -> RunResult {
        for p in &self.problems {
            println!("check failed: {p}");
        }
        let finite = metrics.iter().all(|m| m.1.is_finite());
        if !finite {
            println!("check failed: a metric is not finite");
        }
        RunResult {
            correct: self.problems.is_empty() && finite,
            attempted: self.attempted.max(1),
            failed: self.failed,
            metrics: metrics
                .into_iter()
                .map(|(n, v, u)| (n, if v.is_finite() { v } else { -1.0 }, u))
                .collect(),
        }
    }
}

fn unit_of(table: &[(&'static str, &'static str)], name: &str) -> &'static str {
    table
        .iter()
        .find(|m| m.0 == name)
        .map(|m| m.1)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

/// The cross-mode output checks on replicate 0, run after the timed
/// fits: the serial fit of the same inputs must equal `lasso_recover`
/// bit for bit and select `lasso_dist`'s support. Returns the largest
/// `|beta_dist - beta_serial|` (0 on the other workloads).
fn cross_check(spec: &Spec, inputs: &Inputs, led: &mut Ledger) -> f64 {
    if !matches!(spec.workload, Workload::LassoDist | Workload::LassoRecover) {
        return 0.0;
    }
    let Some(reference) = led.references[0].clone() else {
        led.problem("no successful fit to cross-check".into());
        return f64::NAN;
    };
    led.attempted += 1;
    let serial = match fit(spec, inputs, Mode::Serial, Telemetry::disabled()) {
        Ok(s) => s,
        Err(e) => {
            led.fail(format!("serial reference fit failed: {e}"));
            return f64::NAN;
        }
    };
    if spec.workload == Workload::LassoRecover && !serial.bits_eq(&reference) {
        led.problem("lasso_recover is not bit-identical to the serial fit".into());
    }
    if spec.workload == Workload::LassoDist && serial.support != reference.support {
        led.problem("lasso_dist selected a different support than the serial fit".into());
    }
    serial
        .coef
        .iter()
        .zip(&reference.coef)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max)
}

/// Answer quality, averaged over the replicates' first fits: support F1
/// and the coefficient error over the oracle's error.
fn quality(data: &[Inputs], led: &mut Ledger) -> (f64, f64) {
    let (mut f1, mut rel, mut oracle_rel, mut ratio) = (0.0, 0.0, 0.0, 0.0);
    for (r, inputs) in data.iter().enumerate() {
        let Some(fit) = led.references[r].clone() else {
            led.problem(format!("replicate {r} has no successful fit"));
            return (f64::NAN, f64::NAN);
        };
        let truth = truth(inputs);
        let oracle = oracle_coef(inputs);
        let err = coef_rel_err(truth, &fit.coef);
        if err.is_nan() || err >= 1.0 {
            led.problem(format!(
                "replicate {r}: coefficient error {err} is no better than zero"
            ));
        }
        f1 += support_f1(truth, &fit.support);
        rel += err;
        oracle_rel += coef_rel_err(truth, &oracle);
        ratio += coef_err(truth, &fit.coef) / coef_err(truth, &oracle);
    }
    let k = data.len() as f64;
    println!(
        "quality over {} replicates: support_f1 {:.4}, coef_rel_err {:.5} (oracle {:.5}), \
         coef_err_over_oracle {:.4}",
        data.len(),
        f1 / k,
        rel / k,
        oracle_rel / k,
        ratio / k
    );
    (f1 / k, ratio / k)
}

pub fn untraced(spec: &Spec, seconds: f64) -> RunResult {
    let k = replicates(spec.workload);
    let mut led = Ledger::new(k);
    // Every timed interval is scaled to the host's fast state by the
    // reference kernel timed just before and just after it.
    let mut reference = probes::RefKernel::new();
    let mut ref_s = reference.time();
    let mut ref_times = vec![ref_s];
    let (mut setups, mut setups_raw) = (Vec::new(), Vec::new());
    let mut data = Vec::new();
    for _ in 0..SETUP_REPS {
        data.clear();
        let t0 = Instant::now();
        let inputs: Vec<Inputs> = (0..k).map(|r| generate(spec, r)).collect();
        let valid: Vec<Result<(), String>> = inputs.iter().map(validate).collect();
        let warm = fit(spec, &inputs[0], Mode::Native, Telemetry::disabled());
        let wall = t0.elapsed().as_secs_f64();
        let ref_after = reference.time();
        setups.push(wall * scale(ref_s, ref_after));
        setups_raw.push(wall);
        ref_s = ref_after;
        ref_times.push(ref_s);
        for e in valid.into_iter().filter_map(Result::err) {
            led.problem(e);
        }
        led.check_fit("warm-up", 0, warm);
        data = inputs;
    }

    // Closed loop: one caller, back-to-back fits in whole cycles over the
    // replicates (replicate 0 last, as it is already warm), so every
    // replicate is timed equally often. Cycles run while the next one is
    // expected to end within `seconds`; there is always at least one.
    // A cycle's time is the mean of its fits. Each fit opens a
    // peak-memory window first, so its peak is measured above the inputs
    // already resident.
    let order: Vec<usize> = (1..k).chain([0]).collect();
    let (mut cycle_walls, mut cycle_cpus) = (Vec::new(), Vec::new());
    let (mut walls_raw, mut fit_mib) = (Vec::new(), Vec::new());
    let mut by_replicate = vec![String::new(); k];
    let mut resident_mib = f64::NAN;
    let start = Instant::now();
    let mut tries = 0;
    loop {
        let (mut wall_sum, mut cpu_sum, mut ok) = (0.0, 0.0, 0);
        for &r in &order {
            tries += 1;
            let base = reset_peak_rss();
            let (result, wall, cpu) =
                timed(|| fit(spec, &data[r], Mode::Native, Telemetry::disabled()));
            let peak = peak_rss_mib();
            let ref_after = reference.time();
            let f = scale(ref_s, ref_after);
            ref_s = ref_after;
            ref_times.push(ref_s);
            if led.check_fit("timed", r, result).is_some() {
                wall_sum += wall * f;
                cpu_sum += cpu * f;
                ok += 1;
                walls_raw.push(wall);
                let _ = write!(by_replicate[r], " {wall:.4}/{:.4}", wall * f);
            }
            match (base, peak) {
                (Some(base), Some(peak)) => {
                    resident_mib = base;
                    fit_mib.push(peak - base);
                }
                _ => led.problem("VmHWM could not be reset or read".into()),
            }
        }
        if ok > 0 {
            cycle_walls.push(wall_sum / ok as f64);
            cycle_cpus.push(cpu_sum / ok as f64);
        }
        let elapsed = start.elapsed().as_secs_f64();
        let cycles = tries / k;
        if elapsed * (cycles + 1) as f64 / cycles as f64 > seconds {
            break;
        }
    }
    cross_check(spec, &data[0], &mut led);
    let (f1, err) = quality(&data, &mut led);
    let ok_frac = (led.attempted - led.failed) as f64 / led.attempted as f64;
    let med = |v: &[f64]| if v.is_empty() { f64::NAN } else { median(v) };
    println!(
        "timed fits: {} ok of {tries} in {:.2} s, {} whole cycles of {k} replicates; raw medians: \
         fit {:.4} s, set-up {:.4} s ({SETUP_REPS} set-ups); reference kernel median {:.5} s \
         (nominal {REF_NOMINAL_S} s); resident before a fit {resident_mib:.1} MiB",
        walls_raw.len(),
        start.elapsed().as_secs_f64(),
        tries / k,
        med(&walls_raw),
        median(&setups_raw),
        median(&ref_times)
    );
    for (r, times) in by_replicate.iter().enumerate() {
        println!("  replicate {r} raw/normalized fit seconds:{times}");
    }
    let values = [
        ("fit_s", med(&cycle_walls)),
        ("fit_cpu_s", med(&cycle_cpus)),
        ("setup_s", median(&setups)),
        ("peak_rss_mib", med(&fit_mib)),
        ("support_f1", f1),
        ("coef_err_over_oracle", err),
        ("ok_frac", ok_frac),
    ];
    led.finish(
        values
            .into_iter()
            .map(|(n, v)| (n, v, unit_of(&END_TO_END, n)))
            .collect(),
    )
}

/// Factor scaling an interval to the host's fast state, from the
/// reference kernel's seconds just before and just after it.
fn scale(ref_before: f64, ref_after: f64) -> f64 {
    REF_NOMINAL_S / (0.5 * (ref_before + ref_after))
}

/// Model-side numbers of the traced fit, from the program's own
/// `Collective`/`CollectiveWait`/`PhaseCharge` events.
struct ModelStats {
    makespan_s: f64,
    wait_s: f64,
    collectives: usize,
    collective_bytes: usize,
}

/// Distinct `(stage, bootstrap, lambda)` solve tasks among the fit's
/// convergence records.
fn distinct_tasks(events: &[TraceEvent]) -> usize {
    let mut keys: Vec<(&str, usize, usize)> = events
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::Convergence {
                stage,
                bootstrap,
                lambda_idx,
                ..
            } => Some((*stage, *bootstrap, *lambda_idx)),
            _ => None,
        })
        .collect();
    keys.sort_unstable();
    keys.dedup();
    keys.len()
}

fn model_stats(events: &[TraceEvent], makespan: Option<f64>) -> ModelStats {
    let mut wait_by_rank: Vec<f64> = Vec::new();
    let (mut collectives, mut bytes, mut last_t) = (0, 0, 0.0f64);
    for ev in events {
        match ev {
            TraceEvent::Collective { bytes: b, .. } => {
                collectives += 1;
                bytes += b;
            }
            TraceEvent::CollectiveWait { rank, wait, .. } => {
                if wait_by_rank.len() <= *rank {
                    wait_by_rank.resize(rank + 1, 0.0);
                }
                wait_by_rank[*rank] += wait;
            }
            TraceEvent::PhaseCharge { t, .. } => last_t = last_t.max(*t),
            _ => {}
        }
    }
    ModelStats {
        makespan_s: makespan.unwrap_or(last_t),
        wait_s: wait_by_rank.into_iter().fold(0.0, f64::max),
        collectives,
        collective_bytes: bytes,
    }
}

pub fn traced(spec: &Spec, seconds: f64) -> RunResult {
    let mut rec = Recorder::new(format!("{}-seed{}", spec.workload.name(), spec.seed));
    let mut led = Ledger::new(1);
    let (values, _) = rec.span("bench.run", |rec| traced_body(rec, spec, seconds, &mut led));

    let rows = rec.self_time_by_layer();
    println!("layer        spans    total_s     self_s");
    for (layer, n, total, own) in &rows {
        println!("{layer:<12} {n:>5} {total:>10.4} {own:>10.4}");
    }
    let dir = std::path::Path::new("perfbench").join("out");
    let path = dir.join(format!(
        "trace-{}-seed{}.jsonl",
        spec.workload.name(),
        spec.seed
    ));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, rec.to_jsonl())) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => println!("spans not written ({e})"),
    }
    led.finish(
        values
            .into_iter()
            .map(|(n, v)| (n, v, unit_of(&PER_LAYER, n)))
            .collect(),
    )
}

fn traced_body(
    rec: &mut Recorder,
    spec: &Spec,
    seconds: f64,
    led: &mut Ledger,
) -> Vec<(&'static str, f64)> {
    // Host probes: single-core roofline denominators.
    let ((peak, variant), _) = rec.span("host.peak_flops", |_| probes::peak_gflops());
    let (llc, llc_source) = probes::llc_bytes();
    let ((triad, array_bytes), _) = rec.span("host.triad", |_| probes::triad_gbs(4 * llc));
    let (ref_s, _) = rec.span("host.ref", |_| {
        let mut kernel = probes::RefKernel::new();
        let passes: Vec<f64> = (0..5).map(|_| kernel.time()).collect();
        median(&passes)
    });
    let mib = |b: u64| b as f64 / (1u64 << 20) as f64;
    println!(
        "host: peak {peak:.2} GFLOP/s ({variant}), triad {triad:.2} GB/s over 3 arrays of {:.0} MiB \
         ({:.0} MiB total) against an LLC of {:.0} MiB ({llc_source})",
        mib(array_bytes),
        3.0 * mib(array_bytes),
        mib(llc)
    );

    // One set-up: generate, validate, warm-up fit.
    let (inputs, generate_s) = rec.span("data.generate", |_| generate(spec, 0));
    let (valid, validate_s) = rec.span("data.validate", |_| validate(&inputs));
    if let Err(e) = valid {
        led.problem(e);
    }
    let (warm, _) = rec.span("core.fit_warmup", |_| {
        fit(spec, &inputs, Mode::Native, Telemetry::disabled())
    });
    led.check_fit("warm-up", 0, warm);

    // Untraced and traced fits, alternating; the traced fit carries a
    // MemorySink, from which the convergence report and the model-side
    // counts are read.
    let (mut plain, mut traced_s) = (Vec::new(), Vec::new());
    let mut last = None;
    let start = Instant::now();
    let mut pairs = 0;
    while pairs < MIN_PAIRS || (start.elapsed().as_secs_f64() < 0.5 * seconds && pairs < MAX_FITS) {
        pairs += 1;
        let (r, t) = rec.span("core.fit", |_| {
            fit(spec, &inputs, Mode::Native, Telemetry::disabled())
        });
        if led.check_fit("untraced", 0, r).is_some() {
            plain.push(t);
        }
        let sink = Arc::new(MemorySink::new());
        let tel = Telemetry::with_sink(sink.clone());
        let (r, t) = rec.span("core.fit_traced", |_| fit(spec, &inputs, Mode::Native, tel));
        if let Some(out) = led.check_fit("traced", 0, r) {
            traced_s.push(t);
            last = Some((out, sink.take()));
        }
    }
    let fit_s = if plain.is_empty() {
        f64::NAN
    } else {
        median(&plain)
    };
    let fit_traced_s = if traced_s.is_empty() {
        f64::NAN
    } else {
        median(&traced_s)
    };
    let (out, events) = last.unwrap_or_else(|| (empty_fit(), Vec::new()));

    // The report counts every solve attempt; a recovering fit re-runs
    // the tasks a crashed rank lost, so distinct tasks are counted apart.
    let conv = ConvergenceReport::from_events(&events);
    let tasks = distinct_tasks(&events);
    let expected_tasks = B1 * Q + B2;
    if tasks != expected_tasks {
        led.problem(format!(
            "the fit reported {tasks} distinct tasks, expected B1*q+B2 = {expected_tasks}"
        ));
    }
    let model = model_stats(&events, out.makespan_model_s);

    let lt = match &led.references[0] {
        Some(reference) => {
            let reference = reference.clone();
            rec.span("bench.replay", |rec| {
                replay::replay(rec, spec, &inputs, &reference)
            })
            .0
            .unwrap_or_else(|e| {
                led.problem(e);
                LayerTimes::default()
            })
        }
        None => LayerTimes::default(),
    };
    if lt.tasks != tasks {
        led.problem(format!(
            "replayed {} tasks, the fit reported {tasks}",
            lt.tasks
        ));
    }

    let dist_gap = rec
        .span("core.fit_serial", |_| cross_check(spec, &inputs, led))
        .0;
    let recovery_overhead_s = if spec.workload == Workload::LassoRecover {
        let mut clean = Vec::new();
        for _ in 0..FAULT_FREE_FITS {
            let (r, t) = rec.span("core.fit_faultfree", |_| {
                fit(
                    spec,
                    &inputs,
                    Mode::RecoveringFaultFree,
                    Telemetry::disabled(),
                )
            });
            if led.check_fit("fault-free recovering", 0, r).is_some() {
                clean.push(t);
            }
        }
        if clean.is_empty() {
            f64::NAN
        } else {
            fit_s - median(&clean)
        }
    } else {
        0.0
    };

    // The dist block: `[x | y]` for LASSO, the series for VAR.
    let (x, y) = match &inputs {
        Inputs::Lasso { x, y, .. } => (x, Some(y.as_slice())),
        Inputs::Var { series, .. } => (series, None),
    };
    let reduce_len = x.cols();
    let (allreduce, _) = rec.span("mpisim.allreduce", |_| {
        replay::allreduce_us(spec, reduce_len)
    });
    let allreduce_us = allreduce.unwrap_or_else(|e| {
        led.problem(format!("allreduce probe: {e}"));
        f64::NAN
    });
    let (shuffled, _) = rec.span("tieredio.shuffle", |_| replay::shuffle(spec, x, y));
    let (shuffle_s, shuffle_bytes) = shuffled.unwrap_or_else(|e| {
        led.problem(format!("shuffle probe: {e}"));
        (f64::NAN, f64::NAN)
    });

    let gram_gflops = lt.gram_flops / lt.gram_s * 1e-9;
    let sel = &conv.selection;
    println!(
        "traced fits: {} untraced, {} traced; replay covers {:.3} s of a {:.3} s traced fit",
        plain.len(),
        traced_s.len(),
        lt.fit_work_s(),
        fit_traced_s
    );
    let model_over_measured = if model.makespan_s > 0.0 {
        model.makespan_s / fit_s
    } else {
        0.0
    };
    vec![
        ("host.peak_gflops", peak),
        ("host.triad_gbs", triad),
        ("host.llc_mib", mib(llc)),
        ("host.triad_mib", 3.0 * mib(array_bytes)),
        ("host.ref_s", ref_s),
        ("data.generate_s", generate_s),
        ("data.validate_s", validate_s),
        ("data.resample_s", lt.resample_s),
        ("linalg.gram_s", lt.gram_s),
        ("linalg.gram_gflops", gram_gflops),
        ("linalg.gram_peak_frac", gram_gflops / peak),
        ("linalg.chol_s", lt.chol_s),
        ("linalg.chol_gflops", lt.chol_flops / lt.chol_s * 1e-9),
        ("linalg.trsv_us", lt.trsv_s * 1e6),
        ("linalg.trsv_gflops", lt.trsv_flops / lt.trsv_s * 1e-9),
        ("solvers.path_s", lt.path_s),
        (
            "solvers.iter_us",
            lt.path_total_s / lt.path_iters.max(1) as f64 * 1e6,
        ),
        ("solvers.ols_s", lt.ols_s),
        ("solvers.iters_p50", sel.iterations.p50),
        ("solvers.iters_max", sel.iterations.max),
        ("solvers.cap_hits", conv.cap_hits as f64),
        ("solvers.nonconverged_frac", conv.nonconverged_fraction()),
        ("core.tasks", tasks as f64),
        ("core.task_attempts", conv.tasks as f64),
        ("core.family_size", out.support_family.len() as f64),
        ("core.intersect_s", lt.intersect_s),
        ("core.replay_coverage", lt.fit_work_s() / fit_traced_s),
        ("core.dist_coef_gap", dist_gap),
        ("core.recovery_rounds", out.recovery_rounds as f64),
        ("core.recovery_overhead_s", recovery_overhead_s),
        ("mpisim.makespan_model_s", model.makespan_s),
        ("mpisim.wait_model_s", model.wait_s),
        ("mpisim.collectives", model.collectives as f64),
        ("mpisim.collective_bytes", model.collective_bytes as f64),
        ("mpisim.model_over_measured", model_over_measured),
        ("mpisim.allreduce_us", allreduce_us),
        ("tieredio.shuffle_s", shuffle_s),
        ("tieredio.shuffle_bytes", shuffle_bytes),
        ("telemetry.overhead_frac", fit_traced_s / fit_s - 1.0),
        ("core.fit_traced_s", fit_traced_s),
    ]
}

fn empty_fit() -> FitOutput {
    FitOutput {
        coef: Vec::new(),
        offset: Vec::new(),
        support: Vec::new(),
        supports_per_lambda: Vec::new(),
        support_family: Vec::new(),
        recovery_rounds: 0,
        makespan_model_s: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names this program prints are exactly the ones
    /// `BENCHMARK.json` declares, with the same units.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = json.matches("\"name\":").count();
        assert_eq!(
            declared,
            END_TO_END.len() + PER_LAYER.len() + 4,
            "4 workloads + metrics"
        );
    }

    #[test]
    fn result_json_shape() {
        let r = RunResult {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("fit_s", 1.25, "s"), ("setup_s", 0.5, "s")],
        };
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"fit_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
