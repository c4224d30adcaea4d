//! Sample statistics: medians, supported tail percentiles, quartile
//! spread, ladder subtraction, and the FNV-1a script fingerprint.

/// Percentiles the tail picker may report, highest first.
const TAIL_PCTS: [f64; 7] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// A tail percentile together with how many samples support it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (e.g. `99.0`).
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Sample count the percentile was taken from.
    pub n: usize,
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` and returns them (NaN-free by construction: every
/// sample is a measured duration or count).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    samples
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples.to_vec()), 50.0)
}

/// The quartile of unsorted samples on their better side — the first
/// where lower is better, the third where higher is — interpolated
/// linearly between neighbours. A run's rounds are combined with it:
/// interference from the host only ever makes a round slower, so the
/// slower rounds say more about the neighbours than about the program,
/// and a run in which more than half of the rounds were hit would drag a
/// median with it.
pub fn better_quartile(samples: &[f64], higher_is_better: bool) -> f64 {
    let v = sorted(samples.to_vec());
    assert!(!v.is_empty(), "quartile of no samples");
    let q = if higher_is_better { 0.75 } else { 0.25 };
    let pos = q * (v.len() - 1) as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    match v.get(lo + 1) {
        Some(hi) => v[lo] + (hi - v[lo]) * frac,
        None => v[lo],
    }
}

/// Number of samples strictly beyond the nearest-rank position of `pct`.
fn beyond(n: usize, pct: f64) -> usize {
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n)
}

/// The highest percentile, at most `cap`, that still has at least ten
/// samples beyond it (falling back to the median when even that is not
/// supported), with the sample count.
pub fn tail(sorted: &[f64], cap: f64) -> Tail {
    let n = sorted.len();
    let pct = TAIL_PCTS
        .iter()
        .copied()
        .filter(|&p| p <= cap)
        .find(|&p| beyond(n, p) >= 10)
        .unwrap_or(50.0);
    Tail {
        pct,
        value: percentile(sorted, pct),
        n,
    }
}

/// Constant-memory store for very many short durations (per-tuple
/// enumeration delays): one bucket per nanosecond up to [`NsHist::LIMIT`],
/// one overflow bucket beyond. Sample buffers are part of the process's
/// resident set, so millions of delays must not be kept one by one.
#[derive(Debug, Clone)]
pub struct NsHist {
    buckets: Vec<u32>,
    n: u64,
}

impl Default for NsHist {
    fn default() -> NsHist {
        NsHist {
            buckets: vec![0; NsHist::LIMIT + 1],
            n: 0,
        }
    }
}

impl NsHist {
    /// Durations at or above this many nanoseconds share one bucket.
    pub const LIMIT: usize = 1 << 16;

    /// Records one duration.
    pub fn record(&mut self, ns: u64) {
        self.buckets[(ns as usize).min(NsHist::LIMIT)] += 1;
        self.n += 1;
    }

    /// Samples recorded.
    #[cfg(test)]
    pub fn len(&self) -> u64 {
        self.n
    }

    /// The `pct` percentile, interpolated inside its one-nanosecond
    /// bucket so that two runs do not snap to the same integer.
    pub fn percentile(&self, pct: f64) -> f64 {
        assert!(self.n > 0, "percentile of no samples");
        let rank = (pct / 100.0 * self.n as f64).max(1.0);
        let mut before = 0u64;
        for (ns, &c) in self.buckets.iter().enumerate() {
            if c > 0 && (before + u64::from(c)) as f64 >= rank {
                return ns as f64 + (rank - before as f64) / f64::from(c);
            }
            before += u64::from(c);
        }
        NsHist::LIMIT as f64
    }

    /// The highest supported tail percentile (see [`tail`]).
    pub fn tail(&self) -> Tail {
        let n = self.n as usize;
        let pct = TAIL_PCTS
            .iter()
            .copied()
            .find(|&p| beyond(n, p) >= 10)
            .unwrap_or(50.0);
        Tail {
            pct,
            value: self.percentile(pct),
            n,
        }
    }
}

/// A ladder rung's self time: its own per-update cost minus the rung
/// beneath it. Negative differences (noise on a thin layer) are kept —
/// clamping would hide that the layer is below the measurement floor.
pub fn self_time(rung: f64, beneath: f64) -> f64 {
    rung - beneath
}

/// FNV-1a over a byte stream, fed incrementally.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(pub u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one little-endian `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 leaves 1.
        let t = tail(&ramp(1000), 99.99);
        assert_eq!((t.pct, t.value, t.n), (99.0, 990.0, 1000));
        // 999 samples: p99 leaves 9 beyond, so p95 is the highest supported.
        assert_eq!(tail(&ramp(999), 99.99).pct, 95.0);
        // 20 samples: the median is the only supported percentile.
        let t = tail(&ramp(20), 99.99);
        assert_eq!((t.pct, t.value), (50.0, 10.0));
        // Too few samples for anything: still the median, with n reported.
        assert_eq!(
            tail(&ramp(5), 99.99),
            Tail {
                pct: 50.0,
                value: 3.0,
                n: 5
            }
        );
        // A cap keeps a metric named `_p99_` from silently becoming p99.9.
        assert_eq!(tail(&ramp(100_000), 99.0).pct, 99.0);
        assert_eq!(tail(&ramp(100_000), 99.99).pct, 99.99);
    }

    #[test]
    fn better_quartile_sides_with_the_quiet_rounds() {
        // Five rounds, three of them hit by a neighbour: the median is a
        // hit round, the better quartile is not.
        let times = [10.0, 31.0, 11.0, 45.0, 30.0];
        assert_eq!(median(&times), 30.0);
        assert_eq!(better_quartile(&times, false), 11.0);
        let rates = [100.0, 40.0, 90.0, 35.0, 50.0];
        assert_eq!(better_quartile(&rates, true), 90.0);
        // Three rounds: halfway between the best two. One: itself.
        assert_eq!(better_quartile(&[3.0, 1.0, 2.0], false), 1.5);
        assert_eq!(better_quartile(&[7.0], true), 7.0);
    }

    #[test]
    fn ns_hist_interpolates_inside_a_bucket() {
        let mut h = NsHist::default();
        for _ in 0..30 {
            h.record(40);
        }
        for _ in 0..70 {
            h.record(41);
        }
        h.record(10_000_000); // overflow bucket
        assert_eq!(h.len(), 101);
        let m = h.percentile(50.0);
        assert!(m > 41.0 && m < 42.0, "{m}");
        assert!((m - (41.0 + (50.5 - 30.0) / 70.0)).abs() < 1e-9, "{m}");
        assert_eq!(h.tail().pct, 90.0);
    }

    #[test]
    fn ladder_self_time_is_rung_minus_beneath() {
        let rungs = [100.0, 450.0, 600.0, 590.0];
        let selfs: Vec<f64> = rungs.windows(2).map(|w| self_time(w[1], w[0])).collect();
        assert_eq!(selfs, vec![350.0, 150.0, -10.0]);
        assert_eq!(rungs[0] + selfs.iter().sum::<f64>(), rungs[3]);
    }

    #[test]
    fn fnv1a_known_vectors() {
        let mut h = Fnv1a::default();
        h.write(b"");
        assert_eq!(h.0, 0xcbf2_9ce4_8422_2325);
        h.write(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
    }
}
