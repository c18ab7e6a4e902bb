//! Small statistics and environment helpers.

/// The `q`-quantile (`0 <= q <= 1`) of `samples` by nearest rank,
/// sorting them in place; `None` when there are none.
pub fn quantile<T: Copy + Ord>(samples: &mut [T], q: f64) -> Option<T> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    Some(samples[rank - 1])
}

/// Latencies below this many ns are counted in 1 ns buckets; slower
/// ones are kept verbatim.
const EXACT_NS: usize = 1 << 16;

/// A latency histogram with exact nearest-rank quantiles whose memory
/// does not grow with the number of samples, so a run that completes
/// more ops does not show a larger `peak_rss_mb`.
#[derive(Debug, Default, Clone)]
pub struct Hist {
    /// Count per ns below [`EXACT_NS`]; allocated on the first record.
    counts: Vec<u32>,
    /// Samples of [`EXACT_NS`] ns or more.
    slow: Vec<u32>,
    n: u64,
}

impl Hist {
    /// Count one latency of `ns` nanoseconds.
    pub fn record(&mut self, ns: u32) {
        self.n += 1;
        let i = ns as usize;
        if i >= EXACT_NS {
            self.slow.push(ns);
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; EXACT_NS];
        }
        self.counts[i] += 1;
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Add `other`'s samples.
    pub fn absorb(&mut self, other: &Hist) {
        if !other.counts.is_empty() {
            if self.counts.is_empty() {
                self.counts = vec![0; EXACT_NS];
            }
            for (a, b) in self.counts.iter_mut().zip(&other.counts) {
                *a += b;
            }
        }
        self.slow.extend_from_slice(&other.slow);
        self.n += other.n;
    }

    /// The `q`-quantile by nearest rank, as [`quantile`] gives it over
    /// the raw samples; `None` when there are none.
    pub fn quantile(&mut self, q: f64) -> Option<u32> {
        if self.n == 0 {
            return None;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (ns, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return Some(ns as u32);
            }
        }
        self.slow.sort_unstable();
        self.slow.get((rank - seen - 1) as usize).copied()
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The checked-out commit, when the benchmark runs inside a git
/// work tree (read from `.git` directly; no subprocess).
pub fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_by_nearest_rank() {
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), Some(50));
        assert_eq!(quantile(&mut v, 0.99), Some(99));
        assert_eq!(quantile(&mut v, 1.0), Some(100));
        assert_eq!(quantile::<u32>(&mut [], 0.5), None);
    }

    #[test]
    fn hist_quantiles_match_the_raw_samples() {
        let mut raw: Vec<u32> = (0..5000u32)
            .map(|i| i.wrapping_mul(2_654_435_761) % 200_000)
            .collect();
        let (mut a, mut b) = (Hist::default(), Hist::default());
        for (i, &x) in raw.iter().enumerate() {
            if i % 2 == 0 {
                a.record(x)
            } else {
                b.record(x)
            }
        }
        a.absorb(&b);
        assert_eq!(a.len(), raw.len() as u64);
        for q in [0.0, 0.01, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile(q), quantile(&mut raw, q), "q={q}");
        }
        assert_eq!(Hist::default().quantile(0.5), None);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
