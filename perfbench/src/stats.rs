//! Order statistics and process measurements shared by the workloads.

/// Median of `v` (mean of the middle pair for even lengths); NaN when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The highest percentile of `v` that still has at least `beyond`
/// samples above it: `(percentile, value)`, where the value is the
/// `(n - beyond)`-th smallest sample. `None` when `v` has no more than
/// `beyond` samples.
pub fn tail(v: &[f64], beyond: usize) -> Option<(f64, f64)> {
    if v.len() <= beyond {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let idx = s.len() - beyond - 1;
    let pct = 100.0 * (idx + 1) as f64 / s.len() as f64;
    Some((pct, s[idx]))
}

/// Restart this process's peak resident set size (`VmHWM`) from its
/// current size (Linux `clear_refs` mode 5), so the next [`peak_rss_mb`]
/// covers only what ran in between.
///
/// Free heap memory is first handed back to the kernel: otherwise the
/// starting size is whatever earlier units left cached in the
/// allocator's per-thread arenas, which varied by several MB from unit
/// to unit and from run to run.
pub fn reset_peak_rss() {
    release_free_heap();
    // Without it `VmHWM` stays the peak since process start: still a
    // valid (if coarser) bound.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Return the free pages of every malloc arena to the kernel (glibc
/// `malloc_trim`); a no-op on other C libraries.
fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: `malloc_trim` only releases memory that is already free;
        // it takes the arena locks itself and is safe from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Peak resident set size of this process since start or the last
/// [`reset_peak_rss`], MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v, 10), Some((90.0, 90.0)));
        assert_eq!(tail(&v[..10], 10), None);
        assert_eq!(tail(&v[..11], 10), Some((100.0 / 11.0, 1.0)));
    }
}
