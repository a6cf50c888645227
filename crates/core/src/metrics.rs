//! Utility metrics (Section II-A3).
//!
//! `l2(T, T') = (T − T')²` and `re(T, T') = |T − T'| / T`; the
//! experiments report both, averaged over repeated trials.

/// Squared error between the true and estimated triangle counts.
pub fn l2_loss(t_true: f64, t_est: f64) -> f64 {
    let d = t_true - t_est;
    d * d
}

/// Relative error `|T − T'| / T`.
///
/// # Panics
/// Panics if `t_true == 0` (the paper defines the metric only for
/// `T ≠ 0`).
pub fn relative_error(t_true: f64, t_est: f64) -> f64 {
    assert!(t_true != 0.0, "relative error undefined for T = 0");
    (t_true - t_est).abs() / t_true.abs()
}

/// Mean of a slice (0 for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Median of a slice (0 for empty input).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size (high-water mark) of this process in bytes,
/// read from Linux's `VmHWM` line in `/proc/self/status`. Returns
/// `None` on platforms without that interface (or if the kernel ever
/// drops the line) — callers report the number as *unavailable*, never
/// as zero. `party` reports it (`STAT peak_rss_mb`): VmHWM is a true
/// high-water mark, so it catches any transient materialisation the
/// instantaneous RSS would miss.
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
                return Some(kb * 1024);
            }
        }
        None
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_is_squared_difference() {
        assert_eq!(l2_loss(10.0, 7.0), 9.0);
        assert_eq!(l2_loss(7.0, 10.0), 9.0);
        assert_eq!(l2_loss(5.0, 5.0), 0.0);
    }

    #[test]
    fn relative_error_basic() {
        assert!((relative_error(100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((relative_error(100.0, 110.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "undefined")]
    fn relative_error_zero_truth_panics() {
        relative_error(0.0, 1.0);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn peak_rss_is_present_and_plausible_on_linux() {
        // Touch a buffer so the high-water mark is at least a few MB.
        let buf = vec![1u8; 4 << 20];
        assert!(buf.iter().map(|&b| b as u64).sum::<u64>() > 0);
        let peak = peak_rss_bytes().expect("VmHWM available on Linux");
        assert!(peak >= 4 << 20, "peak {peak} below the buffer just touched");
    }

    #[test]
    fn mean_and_median() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(median(&[]), 0.0);
    }
}
