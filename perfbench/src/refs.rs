//! Host references: work the benchmark does itself, timed next to each
//! program step, so that the gated metrics are ratios that hold still
//! when the host does not.
//!
//! The benchmark runs on a few cores of a shared machine whose neighbours
//! move its memory bandwidth and CPU speed by up to 2× within a minute, so
//! absolute rates from runs minutes apart are not comparable. Each program
//! step is therefore paired with a reference step that uses the same
//! resource on the same number of threads, and the step's time is reported
//! relative to its reference. A reference is the benchmark's own code and
//! calls nothing in the program, so no change to the program moves it. The
//! absolute rates and latencies are printed beside the ratios.

use std::time::Instant;

/// Splits `len` items into `parts` contiguous shares, largest first.
fn shares(len: usize, parts: usize) -> impl Iterator<Item = usize> {
    let parts = parts.max(1);
    (0..parts).map(move |i| len / parts + usize::from(i < len % parts))
}

/// Copies `src` into `dst` on `threads` threads, each a contiguous share:
/// the 2n-words memcpy bound that a scan over the same array is held to.
/// Returns the wall time in milliseconds.
pub fn copy<T: Copy + Send + Sync>(dst: &mut [T], src: &[T], threads: usize) -> f64 {
    assert_eq!(dst.len(), src.len());
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let (mut d, mut x) = (dst, src);
        for n in shares(d.len(), threads) {
            let (dh, dt) = std::mem::take(&mut d).split_at_mut(n);
            let (xh, xt) = x.split_at(n);
            (d, x) = (dt, xt);
            s.spawn(move || dh.copy_from_slice(xh));
        }
    });
    t0.elapsed().as_secs_f64() * 1e3
}

/// The textbook direct-form recurrence `y[i] = Σ ff[j]·x[i−j] + Σ fb[k]·y[i−1−k]`
/// over one row, from a zero history.
fn naive_row(ff: &[f64], fb: &[f64], x: &[f64], y: &mut [f64]) {
    for i in 0..x.len() {
        let mut acc = 0.0;
        for (j, b) in ff.iter().enumerate().take(i + 1) {
            acc += b * x[i - j];
        }
        for (k, a) in fb.iter().enumerate().take(i) {
            acc += a * y[i - 1 - k];
        }
        y[i] = acc;
    }
}

/// `naive_row` over every `width`-element row of `src` into `dst`, the
/// rows split across `threads` threads. Returns the wall time in
/// milliseconds.
pub fn naive_rows(
    ff: &[f64],
    fb: &[f64],
    src: &[f64],
    dst: &mut [f64],
    width: usize,
    threads: usize,
) -> f64 {
    assert_eq!(dst.len(), src.len());
    assert_eq!(src.len() % width, 0);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let (mut d, mut x) = (dst, src);
        for rows in shares(src.len() / width, threads) {
            let (dh, dt) = std::mem::take(&mut d).split_at_mut(rows * width);
            let (xh, xt) = x.split_at(rows * width);
            (d, x) = (dt, xt);
            s.spawn(move || {
                for (yr, xr) in dh.chunks_mut(width).zip(xh.chunks(width)) {
                    naive_row(ff, fb, xr, yr);
                }
            });
        }
    });
    t0.elapsed().as_secs_f64() * 1e3
}

/// The geometric mean of `v`: the summary of ratios over cases of
/// different speeds, where a 10% change in any one case moves it equally.
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use plr_core::serial;
    use plr_core::signature::Signature;

    #[test]
    fn shares_cover_the_input() {
        assert_eq!(shares(10, 3).collect::<Vec<_>>(), vec![4, 3, 3]);
        assert_eq!(shares(2, 4).sum::<usize>(), 2);
        assert_eq!(shares(7, 0).collect::<Vec<_>>(), vec![7]);
    }

    #[test]
    fn copy_copies_on_any_thread_count() {
        let src: Vec<u32> = (0..1001).collect();
        for threads in [1, 2, 3, 8] {
            let mut dst = vec![0; src.len()];
            assert!(copy(&mut dst, &src, threads) >= 0.0);
            assert_eq!(dst, src);
        }
    }

    #[test]
    fn naive_rows_agree_with_the_serial_oracle() {
        let sig: Signature<f64> = "0.04, 0.5:1.6,-0.64".parse().unwrap();
        let x: Vec<f64> = (0..300).map(|i| f64::from(i % 17) * 0.25).collect();
        let mut y = vec![0.0; x.len()];
        naive_rows(sig.feedforward(), sig.feedback(), &x, &mut y, 100, 2);
        for (yr, xr) in y.chunks(100).zip(x.chunks(100)) {
            let want = serial::run(&sig, xr);
            for (a, b) in yr.iter().zip(&want) {
                assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }
}
