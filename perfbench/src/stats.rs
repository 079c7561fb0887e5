//! Summary statistics and the benchmark's own span recorder.

use std::time::Instant;

/// Samples that must lie beyond a reported tail percentile: a p99 over
/// fewer than ~1000 samples would be set by a handful of outliers.
const MIN_BEYOND_TAIL: usize = 10;

/// Nearest-rank percentile (`p` in `0..=100`) of an ascending slice: the
/// smallest sample with at least `p`% of the samples at or below it.
/// Returns `None` on an empty slice.
fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Whether `n` samples support percentile `p`: at least
/// [`MIN_BEYOND_TAIL`] samples must rank above it.
pub fn tail_supported(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= MIN_BEYOND_TAIL
}

/// Nearest-rank percentile of unsorted samples; `0.0` when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    nearest_rank(&sorted(samples), p).unwrap_or(0.0)
}

/// Median (nearest-rank p50) of unsorted samples; `0.0` when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Arithmetic mean; `0.0` when empty.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// An ascending copy of `samples`.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut out = samples.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Spans the benchmark records around its calls into the program's
/// layers: the name and length in seconds of each, pushed the moment the
/// span ends, so a traced operation pays for its spans inside its own
/// measured interval.
#[derive(Debug, Default)]
pub struct Spans(Vec<(&'static str, f64)>);

impl Spans {
    /// Ends the span `name` begun at `start`; returns its end, which is
    /// where the next span begins.
    pub fn end(&mut self, name: &'static str, start: Instant) -> Instant {
        let now = Instant::now();
        self.0.push((name, (now - start).as_secs_f64()));
        now
    }

    /// Moves every span of `other` into this recorder.
    pub fn append(&mut self, other: &mut Spans) {
        self.0.append(&mut other.0);
    }

    /// Lengths in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.0
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, d)| *d)
            .collect()
    }
}

/// FNV-1a 64 over a stream of integers: the digest of simulated
/// statistics that repeated runs of one seed must reproduce.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn push(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// SplitMix64: derives the per-operation seeds from the run seed, so the
/// same `--seed` always yields the same inputs in the same order.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_sample_covering_p() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&samples, 50.0), Some(50.0));
        assert_eq!(nearest_rank(&samples, 99.0), Some(99.0));
        assert_eq!(nearest_rank(&samples, 100.0), Some(100.0));
        assert_eq!(nearest_rank(&samples, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[7.0], 99.0), Some(7.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        // Ranks round up: p50 of four samples is the second.
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0, 4.0], 50.0), Some(2.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 of n samples has n - ceil(0.99 n) samples beyond it.
        assert!(!tail_supported(999, 99.0));
        assert!(tail_supported(1000, 99.0));
        assert!(tail_supported(5000, 99.0));
        assert!(!tail_supported(0, 99.0));
        // The median is supported from 20 samples on.
        assert!(!tail_supported(19, 50.0));
        assert!(tail_supported(20, 50.0));
    }

    #[test]
    fn median_sorts_its_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn spans_are_grouped_by_name() {
        let mut spans = Spans::default();
        let t0 = Instant::now();
        let t1 = spans.end("build", t0);
        let t2 = spans.end("run", t1);
        spans.end("build", t2);
        let mut more = Spans::default();
        more.end("run", t2);
        spans.append(&mut more);
        assert_eq!(spans.durations("build").len(), 2);
        assert_eq!(spans.durations("run").len(), 2);
        assert!(spans.durations("report").is_empty());
        assert!(t1 >= t0 && t2 >= t1);
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        assert_eq!(derive_seed(1, 0), derive_seed(1, 0));
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
        let mut a = Digest::new();
        a.push(1);
        let mut b = Digest::new();
        b.push(2);
        assert_ne!(a.hex(), b.hex());
    }
}
