//! perfbench — measured-time benchmark of UoI fits.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <lasso_tall|var_granger|lasso_dist|lasso_recover> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One caller runs back-to-back fits through the public fitter API (a
//! closed loop) after one untimed warm-up fit. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` runs the traced layer replay and
//! prints the per-layer metrics. The last line of stdout is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `perfbench/README.md` for the workloads and the metric map.

mod clock;
mod probes;
mod replay;
mod run;
mod spans;
mod workloads;

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use workloads::{Spec, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <lasso_tall|var_granger|lasso_dist|lasso_recover> --seed <u64> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 15.0f64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Set for `lasso_recover`, whose fits plan a rank crash: the injected
/// panic and its peers' `MpiError` unwinds are expected, and the default
/// hook would print each of them. Every other panic is reported as usual.
static FAULTS_EXPECTED: AtomicBool = AtomicBool::new(false);
/// Expected fault-injection panics kept out of the output.
static FAULT_PANICS: AtomicUsize = AtomicUsize::new(0);

fn install_panic_filter() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let injected = payload.is::<uoi_mpisim::MpiError>()
            || workloads::panic_message(payload).starts_with("fault injection:");
        if injected && FAULTS_EXPECTED.load(Ordering::SeqCst) {
            FAULT_PANICS.fetch_add(1, Ordering::SeqCst);
        } else {
            default(info);
        }
    }));
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    install_panic_filter();
    let spec = Spec::new(args.workload, args.seed);
    FAULTS_EXPECTED.store(spec.workload == Workload::LassoRecover, Ordering::SeqCst);
    println!("config: {}", spec.describe());
    let result = if args.trace {
        run::traced(&spec, args.seconds)
    } else {
        run::untraced(&spec, args.seconds)
    };
    println!(
        "expected fault-injection panics suppressed: {}",
        FAULT_PANICS.load(Ordering::SeqCst)
    );
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}
