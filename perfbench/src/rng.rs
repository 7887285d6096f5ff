//! Seeded input generation. Every input the benchmark feeds the program
//! comes from here, derived from the `--seed` argument, so one seed always
//! produces bit-identical inputs.

/// SplitMix64: tiny, fast, and good enough to drive workload generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for one purpose (`label`) of one seed, so
    /// adding a consumer never shifts the values another one sees.
    pub fn stream(seed: u64, label: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in label.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        let mut r = Rng::new(seed ^ h);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Exponentially distributed with the given rate (mean `1/rate`).
    pub fn exp(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// `n` lengths at the log-uniform quantiles of `[lo, hi]`, in seeded
/// order: every seed draws the same set of lengths, so runs with different
/// seeds differ in order and content but not in their length mix.
pub fn stratified_log_uniform(rng: &mut Rng, n: usize, lo: usize, hi: usize) -> Vec<usize> {
    let (l, h) = ((lo as f64).ln(), (hi as f64).ln());
    let mut v: Vec<usize> = (0..n)
        .map(|i| {
            let q = (i as f64 + 0.5) / n as f64;
            ((l + (h - l) * q).exp().round() as usize).clamp(lo, hi)
        })
        .collect();
    for i in (1..n).rev() {
        v.swap(i, rng.below(i + 1));
    }
    v
}

/// Positive floats in `[0.5, 1.5)`: with the positive impulse responses
/// of every float case no partial sum cancels (the same choice the
/// differential gauntlets make).
pub fn fill_positive(rng: &mut Rng, out: &mut [f64]) {
    for v in out {
        *v = 0.5 + rng.unit();
    }
}

pub fn positive_f64(rng: &mut Rng, n: usize) -> Vec<f64> {
    let mut v = vec![0.0; n];
    fill_positive(rng, &mut v);
    v
}

/// Signed integers in `[-2^20, 2^20)`; integer runs wrap, so any value
/// is valid and the output must match the oracle bit for bit.
pub fn fill_small_i64(rng: &mut Rng, out: &mut [i64]) {
    for v in out {
        *v = (rng.next_u64() >> 43) as i64 - (1 << 20);
    }
}

pub fn small_i64(rng: &mut Rng, n: usize) -> Vec<i64> {
    let mut v = vec![0; n];
    fill_small_i64(rng, &mut v);
    v
}

/// Order-1 gates in `[0.85, 0.95]` with a reset (gate 0) every `reset`
/// elements.
pub fn gates(rng: &mut Rng, n: usize, reset: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            if i % reset == 0 {
                0.0
            } else {
                rng.uniform(0.85, 0.95)
            }
        })
        .collect()
}

/// Positive input over segments of `seg` elements where each segment is
/// all-zero with probability `zero_share`.
pub fn fill_sparse_segments(rng: &mut Rng, out: &mut [f64], seg: usize, zero_share: f64) {
    for s in out.chunks_mut(seg) {
        if rng.unit() >= zero_share {
            fill_positive(rng, s);
        } else {
            s.fill(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = positive_f64(&mut Rng::stream(7, "x"), 1000);
        let b = positive_f64(&mut Rng::stream(7, "x"), 1000);
        let c = positive_f64(&mut Rng::stream(8, "x"), 1000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let d = small_i64(&mut Rng::stream(7, "x"), 1000);
        assert_eq!(d, small_i64(&mut Rng::stream(7, "x"), 1000));
        assert_ne!(d, small_i64(&mut Rng::stream(9, "x"), 1000));
    }

    #[test]
    fn stratified_lengths_share_their_mix_across_seeds() {
        let a = stratified_log_uniform(&mut Rng::new(1), 256, 1024, 65536);
        let b = stratified_log_uniform(&mut Rng::new(2), 256, 1024, 65536);
        assert_ne!(a, b);
        let (mut sa, mut sb) = (a.clone(), b);
        sa.sort_unstable();
        sb.sort_unstable();
        assert_eq!(sa, sb);
        assert!(sa.iter().all(|l| (1024..=65536).contains(l)));
        // Log-uniform: the median length is the geometric mean of the ends.
        assert!((7800..=8600).contains(&sa[128]), "median {}", sa[128]);
        assert_eq!(
            a,
            stratified_log_uniform(&mut Rng::new(1), 256, 1024, 65536)
        );
    }

    #[test]
    fn streams_of_one_seed_are_independent() {
        let a = Rng::stream(7, "lengths").next_u64();
        let b = Rng::stream(7, "schedule").next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn generators_respect_their_ranges() {
        let mut r = Rng::new(1);
        let g = gates(&mut r, 5000, 1000);
        assert!(g.iter().enumerate().all(|(i, &x)| if i % 1000 == 0 {
            x == 0.0
        } else {
            (0.85..=0.95).contains(&x)
        }));
        let mut s = vec![1.0; 64 * 100];
        fill_sparse_segments(&mut r, &mut s, 64, 0.9);
        let zero = s.chunks(64).filter(|c| c.iter().all(|&x| x == 0.0)).count();
        assert!((80..=98).contains(&zero), "{zero} zero segments of 100");
        assert!(small_i64(&mut r, 1000)
            .iter()
            .all(|&x| (-(1 << 20)..(1 << 20)).contains(&x)));
    }
}
