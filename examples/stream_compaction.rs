//! Stream compaction with a parallel prefix sum — the classic prefix-sum
//! application the paper's introduction cites (alongside sorting,
//! histograms, and lexical analysis).
//!
//! Given a large array and a predicate, compaction gathers the elements
//! satisfying the predicate into a dense output. The scatter offsets are an
//! exclusive prefix sum of the predicate flags, computed here with the
//! multithreaded PLR runtime.
//!
//! ```text
//! cargo run --release --example stream_compaction
//! ```

use plr::core::prefix;
use plr::{ParallelRunner, RunnerConfig};
use std::time::Instant;

/// Compacts `data` keeping elements where `keep` is true, using a parallel
/// inclusive prefix sum over the flags.
fn compact(data: &[u32], keep: impl Fn(u32) -> bool + Sync) -> Vec<u32> {
    let flags: Vec<i64> = data.iter().map(|&v| i64::from(keep(v))).collect();

    let runner = ParallelRunner::with_config(
        prefix::prefix_sum::<i64>(),
        RunnerConfig {
            chunk_size: 1 << 16,
            threads: 0,
            ..Default::default()
        },
    )
    .expect("valid config");
    let offsets = runner.run(&flags).expect("within size limits");

    let total = *offsets.last().unwrap_or(&0) as usize;
    let mut out = vec![0u32; total];
    for (i, &v) in data.iter().enumerate() {
        // Inclusive scan: offsets[i] - flags[i] is the exclusive offset.
        if flags[i] == 1 {
            out[(offsets[i] - 1) as usize] = v;
        }
    }
    out
}

fn main() {
    let n = 1 << 22;
    // Deterministic pseudo-random input.
    let data: Vec<u32> = (0..n as u32)
        .map(|i| i.wrapping_mul(2_654_435_761))
        .collect();
    let keep = |v: u32| v.is_multiple_of(5);

    let start = Instant::now();
    let compacted = compact(&data, keep);
    let elapsed = start.elapsed();

    // Validate against the obvious sequential filter.
    let expected: Vec<u32> = data.iter().copied().filter(|&v| keep(v)).collect();
    assert_eq!(
        compacted, expected,
        "compaction must preserve order and content"
    );

    println!(
        "compacted {} of {} elements in {:.1} ms ({:.1} M elements/s)",
        compacted.len(),
        n,
        elapsed.as_secs_f64() * 1e3,
        n as f64 / elapsed.as_secs_f64() / 1e6,
    );
    println!(
        "first survivors: {:?}",
        &compacted[..8.min(compacted.len())]
    );
    println!("validated against the sequential filter");
}
