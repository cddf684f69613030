//! Exact order statistics over raw samples.
//!
//! Quantiles are taken from the sorted samples themselves (nearest
//! rank), never from histogram buckets: a bucketed upper bound moves by
//! a whole bucket when a quantile crosses a boundary, which is larger
//! than the run-to-run changes the benchmark has to resolve.

/// Fewest samples that must lie beyond a quantile for it to be
/// reported as supported.
pub const MIN_BEYOND: usize = 10;

/// One quantile of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The sample at the quantile's rank.
    pub value: f64,
    /// How many samples the quantile was taken over.
    pub samples: usize,
    /// How many samples lie strictly above the quantile's rank.
    pub beyond: usize,
}

impl Quantile {
    /// Whether at least [`MIN_BEYOND`] samples lie beyond the quantile,
    /// so that it is not set by a handful of outliers.
    pub fn supported(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// The nearest-rank `q`-quantile of `samples`: the smallest sample with
/// at least `q·n` samples at or below it. `None` when `samples` is
/// empty.
///
/// # Panics
///
/// Panics if `q` is outside `0.0..=1.0` or a sample is NaN.
pub fn quantile(samples: &[f64], q: f64) -> Option<Quantile> {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside 0..=1");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Quantile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// The nearest-rank median of `samples` (`NaN` when empty).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).map_or(f64::NAN, |q| q.value)
}

/// A uniform random sample of at most `cap` values of a stream
/// (reservoir sampling, Algorithm R): memory stays the same however long
/// the stream runs. Its quantiles are exact over the values it keeps.
#[derive(Debug, Clone)]
pub struct Reservoir {
    cap: usize,
    seen: u64,
    rng: u64,
    /// The kept values, in no particular order.
    pub values: Vec<f64>,
}

impl Reservoir {
    /// An empty reservoir of `cap` values; `seed` fixes which it keeps.
    pub fn new(cap: usize, seed: u64) -> Self {
        Reservoir {
            cap,
            seen: 0,
            rng: seed | 1,
            values: Vec::with_capacity(cap),
        }
    }

    /// Offers the stream's next value.
    pub fn push(&mut self, x: f64) {
        self.seen += 1;
        if self.values.len() < self.cap {
            self.values.push(x);
            return;
        }
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let j = self.rng % self.seen;
        if let Some(slot) = self.values.get_mut(j as usize) {
            *slot = x;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_has_no_quantile() {
        assert_eq!(quantile(&[], 0.5), None);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn single_sample_is_every_quantile() {
        for q in [0.0, 0.5, 0.99, 1.0] {
            let got = quantile(&[7.0], q).unwrap();
            assert_eq!((got.value, got.samples, got.beyond), (7.0, 1, 0));
            assert!(!got.supported());
        }
    }

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5).unwrap().value, 50.0);
        assert_eq!(quantile(&xs, 0.99).unwrap().value, 99.0);
        assert_eq!(quantile(&xs, 1.0).unwrap().value, 100.0);
        assert_eq!(quantile(&xs, 0.0).unwrap().value, 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.0);
    }

    #[test]
    fn p99_support_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        let p99 = quantile(&xs, 0.99).unwrap();
        assert_eq!((p99.beyond, p99.supported()), (10, true));
        let p99 = quantile(&xs[..999], 0.99).unwrap();
        assert_eq!((p99.beyond, p99.supported()), (9, false));
    }

    #[test]
    fn ties_keep_their_value() {
        let xs = [5.0; 64];
        let p = quantile(&xs, 0.99).unwrap();
        assert_eq!((p.value, p.beyond), (5.0, 0));
    }

    #[test]
    fn reservoir_keeps_all_until_full_then_a_uniform_sample() {
        let mut r = Reservoir::new(100, 7);
        for x in 0..50 {
            r.push(f64::from(x));
        }
        assert_eq!(r.values.len(), 50);
        let mut r = Reservoir::new(1000, 7);
        for x in 0..100_000 {
            r.push(f64::from(x));
        }
        assert_eq!(r.values.len(), 1000);
        // A uniform sample of 0..100000: its median is near 50000 and
        // it reaches both ends.
        let m = median(&r.values);
        assert!((40_000.0..60_000.0).contains(&m), "median {m}");
        assert!(r.values.iter().any(|&x| x < 10_000.0));
        assert!(r.values.iter().any(|&x| x >= 90_000.0));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_out_of_range_q() {
        quantile(&[1.0], 1.5);
    }
}
