//! Wall and process-CPU clocks, peak resident memory, and order
//! statistics.

use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux process clocks and /proc; build it on 64-bit Linux");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds consumed so far by every thread of this process.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, enforced by the compile_error above) and
    // the clock id is a constant every Linux kernel accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Run `f`, returning its value with the wall and process-CPU seconds it
/// took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let out = f();
    let wall = t0.elapsed().as_secs_f64();
    (out, wall, process_cpu_s() - cpu0)
}

#[cfg(target_env = "gnu")]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// A field of `/proc/self/status` given in kB, in MiB.
fn status_mib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Open a peak-memory window: hand the allocator's free pages back to
/// the kernel, reset the high-water mark (`VmHWM`) to the current
/// resident set, and return that resident set in MiB. `peak_rss_mib`
/// minus it is then the most memory the process touched on top of what
/// was live at the reset.
pub fn reset_peak_rss() -> Option<f64> {
    // SAFETY: glibc's malloc_trim only releases free heap pages; it
    // touches no live allocation.
    #[cfg(target_env = "gnu")]
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5").ok()?;
    status_mib("VmRSS:")
}

/// Peak resident set size of this process since the last
/// [`reset_peak_rss`] (or since it started), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    status_mib("VmHWM:")
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// Median of `reps` timings of `f` (seconds per call).
pub fn median_time(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let (_, wall, cpu) = timed(|| {
            let mut acc = 0.0f64;
            for i in 0..2_000_000u64 {
                acc = std::hint::black_box(acc + i as f64);
            }
            acc
        });
        assert!(wall > 0.0 && cpu > 0.0);
    }

    #[test]
    fn peak_window_sees_new_pages() {
        let base = reset_peak_rss().expect("VmHWM resets");
        let touched = std::hint::black_box(vec![1u8; 64 << 20]);
        let peak = peak_rss_mib().expect("VmHWM readable");
        drop(touched);
        assert!(
            peak - base >= 60.0,
            "peak {peak} MiB over a base of {base} MiB"
        );
    }
}
