//! Workspace integration: the max-plus semiring flows through every layer
//! that only uses the semiring operations — serial, engine, the
//! multithreaded runtime, segmented inputs, and the streaming API.

use plr::core::tropical::MaxPlus;
use plr::core::{segmented, serial, stream};
use plr::{Element, Engine, ParallelRunner, RunnerConfig, Signature};

fn envelope(decay: f64) -> Signature<MaxPlus> {
    Signature::new(vec![MaxPlus::one()], vec![MaxPlus::new(-decay)]).unwrap()
}

fn bursty(n: usize) -> Vec<MaxPlus> {
    (0..n)
        .map(|i| {
            MaxPlus::new(if i % 97 == 0 {
                5.0 + (i % 11) as f64
            } else {
                0.0
            })
        })
        .collect()
}

#[test]
fn parallel_runtime_computes_tropical_recurrences() {
    let sig = envelope(0.01);
    let input = bursty(100_000);
    let expect = serial::run(&sig, &input);
    let runner = ParallelRunner::with_config(
        sig.clone(),
        RunnerConfig {
            chunk_size: 1024,
            threads: 4,
            ..Default::default()
        },
    )
    .unwrap();
    let got = runner.run(&input).unwrap();
    // Max-plus ⊕ (max) is exact; ⊗ (+) reassociation is the only noise.
    for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
        assert!(g.approx_eq(*e, 1e-9), "index {i}: {g} vs {e}");
    }
}

#[test]
fn engine_and_order2_tropical() {
    // Two decay paths: y[i] = max(x[i], y[i-1] - a, y[i-2] - b).
    let sig = Signature::new(
        vec![MaxPlus::one()],
        vec![MaxPlus::new(-0.4), MaxPlus::new(-0.5)],
    )
    .unwrap();
    let input = bursty(20_000);
    let expect = serial::run(&sig, &input);
    let got = Engine::new(sig).unwrap().run(&input).unwrap();
    for (g, e) in got.iter().zip(&expect) {
        assert!(g.approx_eq(*e, 1e-9));
    }
}

#[test]
fn segmented_tropical_resets_the_envelope() {
    let sig = envelope(1.0);
    let segments = segmented::Segments::uniform(4, 8).starts().to_vec();
    let segments = segmented::Segments::from_starts(segments).unwrap();
    let input: Vec<MaxPlus> = [9.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        .map(MaxPlus::new)
        .to_vec();
    let out = segmented::run_serial(&sig, &segments, &input);
    let values: Vec<f64> = out.iter().map(|v| v.value()).collect();
    // The envelope decays inside segment 1; segment 2 restarts and the
    // fresh 0-valued samples dominate their own decayed predecessors.
    assert_eq!(values, vec![9.0, 8.0, 7.0, 6.0, 0.0, 0.0, 0.0, 0.0]);
}

#[test]
fn streaming_tropical_carries_the_envelope_across_blocks() {
    let sig = envelope(0.5);
    let input = bursty(1000);
    let expect = serial::run(&sig, &input);
    let mut state = stream::StreamState::new(sig);
    let mut got = Vec::new();
    for block in input.chunks(37) {
        got.extend(state.process(block));
    }
    for (g, e) in got.iter().zip(&expect) {
        assert!(g.approx_eq(*e, 1e-9));
    }
}
