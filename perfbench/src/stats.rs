//! Sample summaries: nearest-rank percentiles with their sample counts.

/// The `p`-th percentile (0 < p ≤ 100) of `sorted` by nearest rank: the
/// smallest sample with at least `p`% of the samples at or below it.
/// `NaN` when there are no samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples lie strictly above the nearest-rank `p`-th percentile
/// position. A tail percentile is only reported as such when at least ten
/// samples lie beyond it.
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n.saturating_sub(rank.max(1))
}

/// The median of `reps` calls of `f`.
pub fn median_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    let mut s = Samples::default();
    for _ in 0..reps {
        s.push(f());
    }
    s.median()
}

/// Wall time of `f` in milliseconds.
pub fn time_ms(f: impl FnOnce()) -> f64 {
    let t0 = std::time::Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1e3
}

/// A set of timing samples.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.0.iter().copied()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    pub fn pct(&self, p: f64) -> f64 {
        percentile(&self.sorted(), p)
    }

    pub fn median(&self) -> f64 {
        self.pct(50.0)
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            f64::NAN
        } else {
            self.sum() / self.0.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.1), 1.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
        assert!(percentile(&[], 50.0).is_nan());
        // Odd count: the middle sample.
        assert_eq!(percentile(&[1.0, 2.0, 9.0], 50.0), 2.0);
    }

    #[test]
    fn samples_sort_before_ranking() {
        let mut s = Samples::default();
        for v in [5.0, 1.0, 4.0, 2.0, 3.0] {
            s.push(v);
        }
        assert_eq!(s.len(), 5);
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.pct(100.0), 5.0);
        assert_eq!(s.sum(), 15.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(0, 50.0), 0);
    }
}
