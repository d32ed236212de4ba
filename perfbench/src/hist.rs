//! Fixed-memory log-linear latency histogram.
//!
//! Values (nanoseconds) below 128 get a bucket each; above that every
//! power-of-two range is split into 128 equal buckets, so a bucket is at
//! most 1/128 of its value wide. Memory is fixed at construction, so
//! recording a sample never allocates and the recorder adds nothing to
//! the RSS growth the benchmark reports.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Highest power of two kept apart; larger values share the top range
/// (2^40 ns is about 18 minutes).
const MAX_EXP: u32 = 40;
const BUCKETS: usize = (SUB + (MAX_EXP - SUB_BITS + 1) as u64 * SUB) as usize;

pub struct Histogram {
    counts: Box<[u64]>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { counts: vec![0; BUCKETS].into_boxed_slice(), total: 0 }
    }
}

fn index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = (63 - v.leading_zeros()).min(MAX_EXP);
    let shift = exp - SUB_BITS;
    let mantissa = (v >> shift).min(2 * SUB - 1);
    (SUB + (shift as u64) * SUB + (mantissa - SUB)) as usize
}

/// `(lower bound, width)` of bucket `i`.
fn bounds(i: usize) -> (f64, f64) {
    let i = i as u64;
    if i < SUB {
        return (i as f64, 1.0);
    }
    let shift = (i - SUB) / SUB;
    let mantissa = SUB + (i - SUB) % SUB;
    ((mantissa << shift) as f64, (1u64 << shift) as f64)
}

impl Histogram {
    pub fn record(&mut self, nanos: u64) {
        self.counts[index(nanos)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile in nanoseconds, interpolated linearly inside its
    /// bucket by rank; 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if seen + c >= rank {
                let (lo, width) = bounds(i);
                return lo + width * ((rank - seen) as f64 - 0.5) / c as f64;
            }
            seen += c;
        }
        unreachable!("rank {rank} is at most the total {}", self.total)
    }

    /// Number of samples strictly above the `q`-quantile's rank: the
    /// support behind a reported percentile.
    pub fn beyond(&self, q: f64) -> u64 {
        self.total - ((q * self.total as f64).ceil() as u64).min(self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range() {
        for v in [0u64, 1, 127, 128, 129, 255, 256, 1000, 12_345, 1 << 30, u64::MAX] {
            let (lo, width) = bounds(index(v));
            if v < 1 << MAX_EXP {
                assert!(lo <= v as f64 && (v as f64) < lo + width, "{v} in [{lo}, +{width})");
            } else {
                assert_eq!(index(v), BUCKETS - 1);
            }
        }
    }

    #[test]
    fn quantiles_are_within_a_bucket() {
        let mut h = Histogram::default();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for q in [0.5, 0.99] {
            let exact = q * 100_000.0;
            assert!((h.quantile(q) - exact).abs() <= exact / SUB as f64, "{q}");
        }
        assert_eq!(h.beyond(0.99), 1000);
    }
}
