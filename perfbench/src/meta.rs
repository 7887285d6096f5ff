//! What a result was measured on: every record describes itself.

use crate::report::Report;
use plr_core::kernel;
use plr_core::simd;

/// Last-level cache size in bytes from CPUID's deterministic cache
/// parameters (0 when the CPU does not report them).
pub fn l3_bytes() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{__cpuid, __cpuid_count};
        // Leaves above the reported maximum are not queried.
        let max_std = __cpuid(0).eax;
        let max_ext = __cpuid(0x8000_0000).eax;
        let mut best = 0u64;
        for leaf in [4u32, 0x8000_001d] {
            let max = if leaf < 0x8000_0000 { max_std } else { max_ext };
            if leaf > max {
                continue;
            }
            for sub in 0..16 {
                let r = __cpuid_count(leaf, sub);
                if r.eax & 0x1f == 0 {
                    break;
                }
                let level = (r.eax >> 5) & 0x7;
                let ways = u64::from((r.ebx >> 22) + 1);
                let parts = u64::from(((r.ebx >> 12) & 0x3ff) + 1);
                let line = u64::from((r.ebx & 0xfff) + 1);
                let sets = u64::from(r.ecx) + 1;
                if level == 3 {
                    best = best.max(ways * parts * line * sets);
                }
            }
            if best > 0 {
                break;
            }
        }
        best
    }
    #[cfg(not(target_arch = "x86_64"))]
    0
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Stamps the host, build and run description onto `r`.
pub fn stamp(r: &mut Report, workload: &str, seed: u64, seconds: u32, trace: bool) {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    r.stamp("workload", workload);
    r.stamp("seed", seed);
    r.stamp("run_seconds", seconds);
    r.stamp("trace", trace);
    r.stamp("git_sha", env("PERFBENCH_GIT_SHA"));
    r.stamp("source_digest", env("PERFBENCH_SOURCE_DIGEST"));
    r.stamp("rustc", env("PERFBENCH_RUSTC"));
    r.stamp("nproc", nproc());
    r.stamp("l3_bytes", l3_bytes());
    r.stamp("isa_f64", format!("{:?}", simd::best_isa::<f64>()));
    r.stamp("isa_i64", format!("{:?}", simd::best_isa::<i64>()));
    r.stamp("kernel_tier", format!("{:?}", kernel::tier()));
}
