//! Small statistics, the behaviour digest and the host manifest.

/// Median of `xs` (mean of the middle pair for even lengths); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest value
/// with at least `p`% of the sample at or below it. Works with infinite
/// values, which stand for requests never served.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Exact high percentile of the union of many samples, keeping only
/// each sample's largest values.
///
/// A value in the top `r` of the union has fewer than `r` larger values
/// in its own sample, so keeping each sample's top `r` keeps it. `r` is
/// known only at the end, so each sample keeps a share `keep` of itself
/// and [`percentile`](Self::percentile) checks that this was enough.
#[derive(Debug, Clone)]
pub struct TailPool {
    keep: f64,
    total: usize,
    /// Per sample: (its size, its kept top values).
    kept: Vec<(usize, Vec<u64>)>,
}

impl TailPool {
    /// Keeps the top share `keep` (in `(0, 1]`) of every sample.
    pub fn new(keep: f64) -> Self {
        assert!(keep > 0.0 && keep <= 1.0, "keep share out of range");
        TailPool {
            keep,
            total: 0,
            kept: Vec::new(),
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, mut sample: Vec<u64>) {
        let n = sample.len();
        self.total += n;
        let m = ((n as f64 * self.keep).ceil() as usize).min(n);
        if m < n {
            sample.select_nth_unstable(n - m);
            sample.drain(..n - m);
        }
        sample.shrink_to_fit();
        self.kept.push((n, sample));
    }

    /// Values in the union.
    pub fn samples(&self) -> usize {
        self.total
    }

    /// The nearest-rank `p`-th percentile of the union, or `None` when a
    /// sample kept too few values to decide it exactly.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let rank = (((p / 100.0) * self.total as f64).ceil() as usize).clamp(1, self.total);
        // Position of the answer counted from the top, 1-based.
        let from_top = self.total - rank + 1;
        if self
            .kept
            .iter()
            .any(|(n, kept)| kept.len() < *n && kept.len() < from_top)
        {
            return None;
        }
        let mut top: Vec<u64> = self
            .kept
            .iter()
            .flat_map(|(_, k)| k.iter().copied())
            .collect();
        top.sort_unstable_by(|a, b| b.cmp(a));
        Some(top[from_top - 1])
    }
}

/// 64-bit FNV-1a of `bytes`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Resets this process's `VmHWM` to its current resident memory, so that
/// the next [`peak_rss_mib`] covers one workload of `--workload all`.
pub fn reset_peak_rss() {
    // Best effort: without it every workload still reads a true peak,
    // only over the whole process.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident memory of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the working directory is checked out at, read from
/// `.git` without running git; `unknown` outside a git checkout.
pub fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs").and_then(|packed| {
                packed
                    .lines()
                    .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 50.0), 50.0);
        assert_eq!(nearest_rank(&xs, 99.0), 99.0);
        assert_eq!(nearest_rank(&xs, 100.0), 100.0);
        let with_inf = [1.0, 2.0, f64::INFINITY];
        assert_eq!(nearest_rank(&with_inf, 99.0), f64::INFINITY);
        assert_eq!(nearest_rank(&with_inf, 50.0), 2.0);
    }

    #[test]
    fn tail_pool_matches_the_full_union() {
        let samples: Vec<Vec<u64>> = (0..6u64)
            .map(|s| {
                (0..(500 + s * 97))
                    .map(|i| (i * 7919 + s * 31) % 1009)
                    .collect()
            })
            .collect();
        // Each sample keeps at least 100 values; the union has ~4,000,
        // so percentiles down to the 97.5th are decidable.
        let mut pool = TailPool::new(0.2);
        let mut all: Vec<f64> = Vec::new();
        for s in &samples {
            pool.push(s.clone());
            all.extend(s.iter().map(|&v| v as f64));
        }
        all.sort_by(f64::total_cmp);
        for p in [99.0, 99.9, 98.0] {
            assert_eq!(
                pool.percentile(p).map(|v| v as f64),
                Some(nearest_rank(&all, p))
            );
        }
        // The median needs half of every sample, far more than was kept.
        assert_eq!(pool.percentile(50.0), None);
        assert!(TailPool::new(1.0).percentile(99.0).is_none());
    }

    #[test]
    fn fnv_reference_values() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
