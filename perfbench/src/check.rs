//! Output checks against the serial oracles, with the tolerances the
//! repository's differential gauntlets use.

use plr_core::element::Element;
use plr_parallel::RunStats;

/// How closely an output must match the serial oracle: the tolerances
/// the repository's differential gauntlets use for each family.
#[derive(Debug, Clone, Copy)]
pub enum Tol {
    /// Bit-exact (integers).
    Exact,
    /// `|got − want| ≤ t`: the kernel gauntlets' reassociation bound for
    /// constant-coefficient float solves, `4096·ε·max(1, max|want|)`.
    Abs(f64),
    /// `|got − want| ≤ t·max(1, |want|)`: the time-varying gauntlet's
    /// bound for gates near 1.
    Rel(f64),
}

/// How an output element is compared with the serial oracle.
pub trait Checked: Element {
    fn agrees(got: Self, want: Self, tol: Tol) -> bool;
    /// The constant-coefficient family's tolerance for this output.
    fn kernel_tol(want: &[Self]) -> Tol;
}

impl Checked for i64 {
    fn agrees(got: i64, want: i64, _: Tol) -> bool {
        got == want
    }

    fn kernel_tol(_: &[i64]) -> Tol {
        Tol::Exact
    }
}

impl Checked for f64 {
    fn agrees(got: f64, want: f64, tol: Tol) -> bool {
        let d = (got - want).abs();
        match tol {
            Tol::Exact => got == want,
            Tol::Abs(t) => d <= t,
            Tol::Rel(t) => d <= t * want.abs().max(1.0),
        }
    }

    fn kernel_tol(want: &[f64]) -> Tol {
        let scale = want.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        Tol::Abs(4096.0 * f64::EPSILON * scale)
    }
}

/// Index of the first element of `got` that disagrees with `want`.
pub fn first_mismatch<T: Checked>(got: &[T], want: &[T], tol: Tol) -> Option<usize> {
    if got.len() != want.len() {
        return Some(got.len().min(want.len()));
    }
    got.iter()
        .zip(want)
        .position(|(&g, &w)| !T::agrees(g, w, tol))
}

/// `first_mismatch` over `threads` contiguous shares at once, for arrays
/// too large to check on one thread between calls.
pub fn first_mismatch_par<T: Checked>(
    got: &[T],
    want: &[T],
    tol: Tol,
    threads: usize,
) -> Option<usize> {
    if got.len() != want.len() {
        return Some(got.len().min(want.len()));
    }
    let share = got.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let parts: Vec<_> = got
            .chunks(share)
            .zip(want.chunks(share))
            .enumerate()
            .map(|(i, (g, w))| s.spawn(move || first_mismatch(g, w, tol).map(|j| i * share + j)))
            .collect();
        parts
            .into_iter()
            .filter_map(|h| h.join().expect("checker threads do not panic"))
            .min()
    })
}

/// A successful call that still reports aborted or revived workers is a
/// failure: anomalies are counted, never dropped.
pub fn anomalous(s: &RunStats) -> bool {
    s.aborts != 0 || s.workers_recovered != 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerances_follow_the_gauntlets() {
        // Integers are bit-exact whatever the tolerance.
        assert!(i64::agrees(5, 5, Tol::Abs(1.0)));
        assert!(!i64::agrees(5, 6, Tol::Abs(10.0)));
        // The kernel bound scales with the largest expected magnitude.
        let want = [1.0, 25.0, 3.0];
        let Tol::Abs(t) = f64::kernel_tol(&want) else {
            panic!("float kernel tolerance is absolute")
        };
        assert_eq!(t, 4096.0 * f64::EPSILON * 25.0);
        assert!(f64::agrees(25.0 + t / 2.0, 25.0, Tol::Abs(t)));
        assert!(!f64::agrees(25.0 + 2.0 * t, 25.0, Tol::Abs(t)));
        assert!(!f64::agrees(f64::NAN, 1.0, Tol::Abs(t)));
        // The varying bound is relative above 1 and absolute below.
        assert!(f64::agrees(1000.0 + 1e-7, 1000.0, Tol::Rel(1e-9)));
        assert!(!f64::agrees(1000.0 + 1e-5, 1000.0, Tol::Rel(1e-9)));
        assert!(f64::agrees(1e-3 + 5e-10, 1e-3, Tol::Rel(1e-9)));
        assert_eq!(
            first_mismatch(&[1i64, 2, 3], &[1, 2, 4], Tol::Exact),
            Some(2)
        );
        assert_eq!(first_mismatch(&[1i64, 2], &[1, 2, 3], Tol::Exact), Some(2));
        assert_eq!(first_mismatch(&[1i64, 2], &[1, 2], Tol::Exact), None);
        let want: Vec<i64> = (0..1000).collect();
        let mut got = want.clone();
        assert_eq!(first_mismatch_par(&got, &want, Tol::Exact, 3), None);
        got[700] = -1;
        got[900] = -1;
        assert_eq!(first_mismatch_par(&got, &want, Tol::Exact, 3), Some(700));
        assert_eq!(first_mismatch_par(&got[..5], &want, Tol::Exact, 3), Some(5));
    }
}
