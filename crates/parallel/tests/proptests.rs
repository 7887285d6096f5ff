//! Property tests: the multithreaded runner agrees with the serial
//! reference for arbitrary signatures, chunkings, and thread counts.

use plr_core::serial;
use plr_core::signature::Signature;
use plr_parallel::{ParallelRunner, RunnerConfig};
use proptest::prelude::*;

/// Arbitrary integer signatures with FIR length 1–4 and feedback order
/// 1–4 (trailing coefficients forced nonzero so the stated order holds).
fn int_signature() -> impl Strategy<Value = Signature<i64>> {
    let coeff = -3i64..=3;
    let nonzero = prop_oneof![-3i64..=-1, 1i64..=3];
    (
        proptest::collection::vec(coeff.clone(), 0..4),
        nonzero.clone(),
        proptest::collection::vec(coeff, 0..4),
        nonzero,
    )
        .prop_map(|(mut ff, ff_last, mut fb, fb_last)| {
            ff.push(ff_last);
            fb.push(fb_last);
            Signature::new(ff, fb).expect("nonzero trailing coefficients")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parallel_matches_serial(
        sig in int_signature(),
        input in proptest::collection::vec(-40i64..40, 0..2000),
        chunk_pow in 2usize..9,
        threads in 1usize..9,
    ) {
        let config = RunnerConfig { chunk_size: 1 << chunk_pow, threads, ..Default::default() };
        let runner = ParallelRunner::with_config(sig.clone(), config).unwrap();
        let got = runner.run(&input).unwrap();
        let expect = serial::run(&sig, &input);
        prop_assert_eq!(got, expect, "{} {:?}", &sig, config);
    }

    #[test]
    fn lookback_depth_bounded_by_pipeline(
        input in proptest::collection::vec(-10i64..10, 1000..4000),
        threads in 1usize..9,
    ) {
        let sig: Signature<i64> = "1:2,-1".parse().unwrap();
        let config = RunnerConfig { chunk_size: 64, threads, ..Default::default() };
        let runner = ParallelRunner::with_config(sig, config).unwrap();
        let mut data = input;
        let stats = runner.run_in_place(&mut data).unwrap();
        // Each chunk's look-back reaches at most as far back as the number
        // of concurrently in-flight chunks, which the pool's ticket
        // scheduling caps at the worker count (plus one for safety margin —
        // a finished chunk always publishes its globals before retiring).
        let window = threads as u64 + 1;
        let bound = (stats.chunks - 1) * window;
        prop_assert!(stats.lookback_hops <= bound,
            "hops {} for {} chunks on {} threads", stats.lookback_hops, stats.chunks, threads);
        // The deepest single look-back is bounded by the in-flight window —
        // the paper's "dynamically minimizing c" on real threads.
        prop_assert!(stats.max_lookback_depth <= window,
            "depth {} exceeds window {}", stats.max_lookback_depth, window);
    }
}
