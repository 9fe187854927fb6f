//! The harness's own arithmetic: order statistics, the tail rule and
//! the failure tally. Kept apart from the workloads so the unit tests
//! below pin exactly what the report means.

/// Median of `xs` (mean of the two middle values for an even count;
/// `NaN` for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let sorted = sorted(xs);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Arithmetic mean (`NaN` for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Samples a tail value must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a timing distribution: the highest percentile that
/// still has [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile itself, `100 · (n − 10) / n` (nearest rank).
    /// `100` when fewer than eleven samples exist: no percentile then
    /// has ten beyond it, and the maximum is reported instead.
    pub percentile: f64,
    /// Sample count the percentile was taken over.
    pub samples: usize,
}

/// Picks the tail of `xs` by the rule above: the `(n − 10)`-th
/// smallest sample (1-based), whose nearest-rank percentile is the
/// highest one with exactly ten samples beyond it.
pub fn tail(xs: &[f64]) -> Tail {
    let sorted = sorted(xs);
    let n = sorted.len();
    if n == 0 {
        return Tail { value: f64::NAN, percentile: f64::NAN, samples: 0 };
    }
    if n <= TAIL_BEYOND {
        return Tail { value: sorted[n - 1], percentile: 100.0, samples: n };
    }
    let rank = n - TAIL_BEYOND;
    Tail { value: sorted[rank - 1], percentile: 100.0 * rank as f64 / n as f64, samples: n }
}

/// Attempted and failed operations of one run; `failed / attempted`
/// is the run's failed fraction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations the workload started.
    pub attempted: u64,
    /// Operations whose output check failed (or that errored).
    pub failed: u64,
}

impl Tally {
    /// Counts one operation and whether its checks passed.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts `n` operations that all share one verdict.
    pub fn record_many(&mut self, n: u64, ok: bool) {
        self.attempted += n;
        if !ok {
            self.failed += n;
        }
    }

    /// `failed / attempted`, and `1` for a run that attempted nothing
    /// (a run that did no work is a failed run, not a perfect one).
    pub fn failed_fraction(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        // 1..=100: the 90th sample has ten beyond it (91..=100).
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);

        // 40 samples: rank 30 is the 75th percentile.
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.value, t.percentile), (30.0, 75.0));

        // 11 samples: the smallest one is the only rank with ten beyond.
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&xs).value, 1.0);
    }

    #[test]
    fn tail_of_a_short_run_is_its_maximum() {
        let t = tail(&[2.0, 9.0, 4.0]);
        assert_eq!((t.value, t.percentile, t.samples), (9.0, 100.0, 3));
        let t = tail(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert_eq!((t.value, t.percentile), (10.0, 100.0));
        assert!(tail(&[]).value.is_nan());
    }

    #[test]
    fn failed_fraction_counts_against_attempts() {
        let mut tally = Tally::default();
        assert_eq!(tally.failed_fraction(), 1.0, "no attempts is not a success");
        for ok in [true, true, false, true] {
            tally.record(ok);
        }
        assert_eq!(tally, Tally { attempted: 4, failed: 1 });
        assert_eq!(tally.failed_fraction(), 0.25);
        tally.record_many(4, false);
        assert_eq!(tally.failed_fraction(), 5.0 / 8.0);
        tally.record_many(8, true);
        assert_eq!(tally.failed_fraction(), 5.0 / 16.0);
    }
}
