//! Order statistics and process CPU and memory readings.

use std::time::Duration;

/// The `p`-quantile (0 ≤ p ≤ 1) of `values` by linear interpolation
/// between closest ranks; `NaN` for an empty slice.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let h = (sorted.len() - 1) as f64 * p.clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Resets the kernel's peak-RSS mark (`VmHWM`) to the current RSS, so a
/// later [`peak_rss_mb`] covers only what ran after this call. `false`
/// where procfs is missing or refuses the write.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size since the last [`reset_peak_rss`], in MiB;
/// `None` where procfs is missing.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU time the process has used so far, in every thread, live or
/// exited; `None` off Linux. The kernel leaves out the time the host takes
/// a virtual CPU away (steal), which wall time on a shared host includes.
#[cfg(target_os = "linux")]
pub fn process_cpu_time() -> Option<Duration> {
    use std::ffi::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32))
}

#[cfg(not(target_os = "linux"))]
pub fn process_cpu_time() -> Option<Duration> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn cpu_time_counts_work() {
        let Some(before) = process_cpu_time() else {
            return;
        };
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        let used = process_cpu_time().expect("CPU clock") - before;
        assert!(used > Duration::from_millis(1), "{used:?} for {x}");
    }
}
