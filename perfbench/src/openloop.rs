//! Open-loop arrival schedules and request timing. Requests are due on a
//! fixed Poisson schedule whatever the system does; latency is measured
//! from the due time, so a stall that delays later sends is charged to
//! those requests, and the generator's own lateness is reported.

use crate::rng::Rng;
use crate::stats::Samples;
use std::time::Instant;

/// Due times (nanoseconds from the phase start) of a Poisson process of
/// `rate` arrivals per second over `seconds`.
pub fn poisson_due(rng: &mut Rng, rate: f64, seconds: f64) -> Vec<u64> {
    let mut out = Vec::new();
    let mut t = rng.exp(rate);
    while t < seconds {
        out.push((t * 1e9) as u64);
        t += rng.exp(rate);
    }
    out
}

/// Sleeps until `due` and returns the time the request actually goes
/// out; never earlier than `due`. It never spins, so the generator does
/// not take a CPU from the system under test; the sleep's overshoot shows
/// as generator lag.
pub fn pace(due: Instant) -> Instant {
    loop {
        let now = Instant::now();
        if now >= due {
            return now;
        }
        std::thread::sleep(due - now);
    }
}

/// One request's timeline, in nanoseconds from the phase start.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub due: u64,
    pub sent: u64,
    pub done: u64,
}

impl Timing {
    /// Latency from the due time, not the send time.
    pub fn latency_ns(&self) -> u64 {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator sent this request.
    pub fn lag_ns(&self) -> u64 {
        self.sent.saturating_sub(self.due)
    }
}

/// Latency (ms) and generator-lag (µs) samples of a set of completed
/// requests.
pub fn summarize(timings: &[Timing]) -> (Samples, Samples) {
    let mut lat = Samples::default();
    let mut lag = Samples::default();
    for t in timings {
        lat.push(t.latency_ns() as f64 / 1e6);
        lag.push(t.lag_ns() as f64 / 1e3);
    }
    (lat, lag)
}

/// Splits `[0, phase_ns)` into `n` equal intervals and returns, for
/// each, the items whose due time falls in it.
pub fn by_interval<T: Copy>(items: &[(u64, T)], phase_ns: u64, n: usize) -> Vec<Vec<T>> {
    let mut out = vec![Vec::new(); n];
    let width = (phase_ns / n as u64).max(1);
    for &(due, v) in items {
        if let Some(bucket) = out.get_mut((due / width) as usize) {
            bucket.push(v);
        }
    }
    out
}

/// The `p`-th latency percentile (ms) over `[0, phase_ns)` split into `n`
/// intervals, leaving out the `drop` intervals whose own `p`-th percentile
/// is highest: a host stall that hits an interval or two is left out,
/// while a slowdown that reaches most intervals is reported in full.
pub fn trimmed_tail(timings: &[Timing], phase_ns: u64, n: usize, drop: usize, p: f64) -> f64 {
    let items: Vec<(u64, Timing)> = timings.iter().map(|t| (t.due, *t)).collect();
    let mut buckets: Vec<(f64, Vec<Timing>)> = by_interval(&items, phase_ns, n)
        .into_iter()
        .map(|b| (summarize(&b).0.pct(p), b))
        .collect();
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    let kept: Vec<Timing> = buckets
        .into_iter()
        .take(n.saturating_sub(drop))
        .flat_map(|b| b.1)
        .collect();
    summarize(&kept).0.pct(p)
}

/// Per-interval rate of `(due, amount)` items, in amount per second.
pub fn interval_rates(items: &[(u64, u64)], phase_ns: u64, n: usize) -> Samples {
    let secs = phase_ns as f64 / 1e9 / n as f64;
    let mut rates = Samples::default();
    for bucket in by_interval(items, phase_ns, n) {
        rates.push(bucket.iter().sum::<u64>() as f64 / secs);
    }
    rates
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn schedule_is_seeded_and_has_the_asked_rate() {
        let a = poisson_due(&mut Rng::new(3), 10_000.0, 2.0);
        let b = poisson_due(&mut Rng::new(3), 10_000.0, 2.0);
        assert_eq!(a, b);
        assert_ne!(a, poisson_due(&mut Rng::new(4), 10_000.0, 2.0));
        assert!((19_400..=20_600).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < 2_000_000_000);
    }

    #[test]
    fn latency_counts_from_due_including_generator_lag() {
        // Requests due every 1 ms; the generator stalls for 5 ms before
        // the second one, so it and the next go out late. The service
        // takes 1 ms per request once sent.
        let due = [0u64, 1_000_000, 2_000_000, 8_000_000];
        let mut free_at = 0u64;
        let mut timings = Vec::new();
        for (i, &d) in due.iter().enumerate() {
            let ready = if i == 1 { 6_000_000 } else { free_at };
            let sent = d.max(ready);
            let done = sent + 1_000_000;
            free_at = sent;
            timings.push(Timing { due: d, sent, done });
        }
        let (lat, lag) = summarize(&timings);
        // The stalled request waited 5 ms before it was sent; its latency
        // from due is 6 ms, not the 1 ms it spent in the service.
        assert_eq!(timings[1].latency_ns(), 6_000_000);
        assert_eq!(timings[1].lag_ns(), 5_000_000);
        // The stall also delays the next request, which is charged too.
        assert_eq!(timings[2].lag_ns(), 4_000_000);
        assert_eq!(timings[2].latency_ns(), 5_000_000);
        // An on-time request has no lag.
        assert_eq!(timings[3].lag_ns(), 0);
        assert_eq!(lat.pct(100.0), 6.0);
        assert_eq!(lag.pct(100.0), 5000.0);
        assert_eq!(lat.len(), 4);
    }

    #[test]
    fn trimmed_tail_leaves_out_a_stall_but_not_a_slowdown() {
        // 10 intervals of 1 s with 1000 requests each at 1 ms; in the
        // third interval 10% of them stall for 40 ms.
        let timings = |slow: &dyn Fn(u64) -> u64| -> Vec<Timing> {
            (0..10_000u64)
                .map(|i| {
                    let due = i * 1_000_000;
                    Timing {
                        due,
                        sent: due,
                        done: due + slow(i),
                    }
                })
                .collect()
        };
        let stall = timings(&|i| {
            if (2000..2100).contains(&i) {
                40_000_000
            } else {
                1_000_000
            }
        });
        assert_eq!(summarize(&stall).0.pct(99.0), 1.0);
        assert_eq!(summarize(&stall).0.pct(99.5), 40.0);
        assert_eq!(trimmed_tail(&stall, 10_000_000_000, 10, 1, 99.5), 1.0);
        // A slowdown of 2% of the requests in every interval stays.
        let slow = timings(&|i| if i % 50 == 0 { 40_000_000 } else { 1_000_000 });
        assert_eq!(trimmed_tail(&slow, 10_000_000_000, 10, 2, 99.0), 40.0);
        // Nothing dropped: the plain percentile.
        assert_eq!(trimmed_tail(&stall, 10_000_000_000, 10, 0, 99.5), 40.0);
        // Items past the phase are dropped, not folded into the last one.
        let rates = interval_rates(
            &[(0, 10), (1_500_000_000, 20), (9_000_000_000, 99)],
            2_000_000_000,
            2,
        );
        assert_eq!(rates.len(), 2);
        assert_eq!(rates.median(), 10.0);
        assert_eq!(rates.pct(100.0), 20.0);
    }

    #[test]
    fn pace_never_returns_early() {
        let due = Instant::now() + Duration::from_millis(2);
        assert!(pace(due) >= due);
        let past = Instant::now();
        assert!(pace(past) >= past);
    }
}
