//! Metric names, the result record, and the final JSON line.

use std::fmt::Write as _;

/// One reported metric: value, unit, and how many samples it summarizes.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub n: u64,
}

/// How a metric compares: which direction is better, and for end-to-end
/// metrics the share of the parent's median it may worsen by.
pub struct Spec {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: Option<f64>,
}

fn spec(name: impl Into<String>, unit: &'static str, better: &'static str) -> Spec {
    Spec {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

/// The long-scan cases, run in turn by the `long_scan` workload.
pub const CASES: [&str; 5] = [
    "fir_iir_f64",
    "feedback_f64",
    "order2_i64",
    "varying_f64",
    "segmented_f64",
];

/// The span names recorded in traced runs.
pub const SPANS: [&str; 7] = [
    "runner.run_in_place",
    "batch.run_rows",
    "stream.push_row",
    "stream.join",
    "service.submit",
    "service.wait",
    "pool.run",
];

/// Metrics every untraced run reports, with their regression bounds. The
/// throughput is a ratio to a host reference timed next to each step (see
/// `refs`); the absolute rates and the latencies are printed beside it,
/// ungated. A per-request latency is not gated: a request of a few
/// milliseconds or less mostly escapes the host's preemptions that a
/// longer reference catches, so its ratio to any reference drifts with
/// the host (by 8–17% between runs here), while over a whole step the two
/// even out. `setup_s` cannot be paired and gets the widest bound.
pub fn end_to_end() -> Vec<Spec> {
    let e = |name: &str, unit, better, bound| Spec {
        name: name.into(),
        unit,
        better,
        bound: Some(bound),
    };
    vec![
        e("setup_s", "s", "lower", 0.25),
        e("throughput_vs_ref", "ratio", "higher", 0.2),
    ]
}

/// Metrics every traced run reports. A layer the workload does not
/// exercise reports 0.
pub fn per_layer() -> Vec<Spec> {
    let mut v = vec![
        spec("kernel.solve_f64_melem_s", "Melem/s", "higher"),
        spec("kernel.solve_i64_melem_s", "Melem/s", "higher"),
        spec("kernel.fir_f64_melem_s", "Melem/s", "higher"),
        spec("kernel.axpy_f64_melem_s", "Melem/s", "higher"),
        spec("kernel.memcpy_gb_s", "GB/s", "higher"),
        spec("kernel.best_serial_ms", "ms", "lower"),
        spec("plan.constant_build_ms", "ms", "lower"),
        spec("plan.varying_build_ms", "ms", "lower"),
        spec("plan.segmented_build_ms", "ms", "lower"),
        spec("plan.cache_hit_frac", "frac", "higher"),
    ];
    for c in CASES {
        for (m, unit, better) in [
            ("fir_ms", "ms", "lower"),
            ("solve_ms", "ms", "lower"),
            ("lookback_ms", "ms", "lower"),
            ("correct_ms", "ms", "lower"),
            ("idle_ms", "ms", "lower"),
            ("busy_frac", "frac", "higher"),
            ("spin_waits", "count", "lower"),
            ("lookback_depth_mean", "chunks", "lower"),
            ("fused_frac", "frac", "higher"),
            ("skipped_frac", "frac", "higher"),
            ("one_thread_ms", "ms", "lower"),
            ("scaling_eff", "ratio", "higher"),
            ("vs_best_serial", "ratio", "higher"),
            ("roofline_frac", "ratio", "higher"),
        ] {
            v.push(spec(format!("runner.{c}.{m}"), unit, better));
        }
    }
    v.extend([
        spec("pool.wake_us_p50", "us", "lower"),
        spec("pool.panicked", "count", "lower"),
        spec("pool.cancelled", "count", "lower"),
        spec("pool.deadline_exceeded", "count", "lower"),
        spec("batch.run_rows_ms_p50", "ms", "lower"),
        spec("stream.push_block_us_p50", "us", "lower"),
        spec("stream.push_block_us_p99", "us", "lower"),
        spec("stream.row_solve_us_p50", "us", "lower"),
        spec("stream.row_wait_us_p99", "us", "lower"),
        spec("service.submit_us_p50", "us", "lower"),
        spec("service.submit_us_p99", "us", "lower"),
        spec("service.solve_us_p50", "us", "lower"),
        spec("service.queue_wait_us_p50", "us", "lower"),
        spec("service.queue_wait_us_p99", "us", "lower"),
        spec("service.shed_overload_frac", "frac", "lower"),
        spec("service.shed_quota_frac", "frac", "lower"),
        spec("service.deadline_miss_frac", "frac", "lower"),
        spec("service.queue_depth_max", "rows", "lower"),
        spec("service.ewma_service_us", "us", "lower"),
        spec("service.weight_share_error", "frac", "lower"),
        spec("service.relaunches", "count", "lower"),
        spec("service.degraded_shards", "count", "lower"),
        spec("service.gen_lag_us_p99", "us", "lower"),
        spec("trace.overhead_frac", "frac", "lower"),
        spec("trace.spans", "count", "higher"),
    ]);
    for s in SPANS {
        v.push(spec(format!("span.{s}.self_us_mean"), "us", "lower"));
    }
    v
}

/// The benchmark's workloads and why each was chosen.
pub fn workloads() -> Vec<(String, &'static str)> {
    vec![
        (
            "long_scan".into(),
            "five 2^26-element scans from DRAM (FIR on/off, i64, time-varying, sparse segmented), each call against a copy of its bytes",
        ),
        (
            "rows".into(),
            "in-cache rows through run_rows, the row stream and the service, against a naive serial loop: kernels, dispatch, pool, queues",
        ),
    ]
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// `BENCHMARK.json` as this benchmark defines it.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n  \"command\": [\"python3\", \"perfbench/run.py\"],\n");
    s.push_str("  \"paths\": [\"perfbench\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {},", crate::RUN_SECONDS);
    s.push_str("  \"workloads\": [\n");
    let w = workloads();
    for (i, (name, why)) in w.iter().enumerate() {
        let sep = if i + 1 < w.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"why\": {}}}{sep}",
            json_str(name),
            json_str(why)
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    let e = end_to_end();
    for (i, m) in e.iter().enumerate() {
        let sep = if i + 1 < e.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{sep}",
            json_str(&m.name),
            json_str(m.unit),
            json_str(m.better),
            m.bound.expect("end-to-end metrics carry a bound")
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    let p = per_layer();
    for (i, m) in p.iter().enumerate() {
        let sep = if i + 1 < p.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{sep}",
            json_str(&m.name),
            json_str(m.unit),
            json_str(m.better)
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// Everything one run measured, plus what it ran on.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub stamp: Vec<(String, String)>,
    /// Caveats about how a metric was measured.
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Failure descriptions (wrong outputs, errors, anomalies).
    pub failures: Vec<String>,
}

impl Report {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str, n: u64) {
        let name = name.into();
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name,
            value,
            unit,
            n,
        });
    }

    pub fn stamp(&mut self, key: &str, value: impl ToString) {
        self.stamp.push((key.into(), value.to_string()));
    }

    /// Adds a tail percentile, noting when fewer than ten samples lie
    /// beyond it.
    pub fn add_tail(&mut self, name: &str, s: &crate::stats::Samples, p: f64, unit: &'static str) {
        let n = s.len();
        let past = crate::stats::beyond(n, p);
        if past < 10 {
            self.notes
                .push(format!("{name}: only {past} of {n} samples beyond p{p}"));
        }
        self.add(name, s.pct(p), unit, n as u64);
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The record written next to the results: stamp, every metric with
    /// its sample count, and the failures.
    pub fn record_json(&self) -> String {
        let mut s = String::from("{\n  \"stamp\": {");
        for (i, (k, v)) in self.stamp.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}\n    {}: {}", json_str(k), json_str(v));
        }
        let _ = write!(
            s,
            "\n  }},\n  \"attempted\": {},\n  \"failed\": {},\n  \"failures\": [",
            self.attempted, self.failed
        );
        for (i, f) in self.failures.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}{}", json_str(f));
        }
        s.push_str("],\n  \"notes\": [");
        for (i, f) in self.notes.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}{}", json_str(f));
        }
        s.push_str("],\n  \"metrics\": {");
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\n    {}: {{\"value\": {}, \"unit\": {}, \"n\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit),
                m.n
            );
        }
        s.push_str("\n  }\n}\n");
        s
    }

    /// The final line: exactly the contract's metrics for this mode.
    /// Errors name a metric the run failed to produce.
    pub fn result_line(&self, specs: &[Spec]) -> Result<String, String> {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, spec) in specs.iter().enumerate() {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == spec.name)
                .ok_or_else(|| format!("metric {} was not measured", spec.name))?;
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite ({})", m.name, m.value));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(spec.unit)
            );
        }
        s.push_str("}}");
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_matches_the_committed_file() {
        let committed = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json at the repository root");
        assert_eq!(committed, benchmark_json());
    }

    #[test]
    fn names_are_unique_and_within_limits() {
        let mut names: Vec<String> = end_to_end()
            .into_iter()
            .chain(per_layer())
            .map(|s| s.name)
            .chain(workloads().into_iter().map(|w| w.0))
            .collect();
        let ok = |n: &String| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        assert!(names.iter().all(ok));
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), before);
        assert!(per_layer().len() <= 128);
        assert!(workloads().iter().all(|w| w.1.len() <= 200));
    }

    #[test]
    fn result_line_has_exactly_the_contract_metrics() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        for (i, s) in end_to_end().iter().enumerate() {
            r.add(s.name.clone(), 1.5 + i as f64, s.unit, 10);
        }
        r.add("ok_frac", 1.0, "frac", 10);
        r.add("extra", 9.0, "ms", 1);
        let line = r.result_line(&end_to_end()).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(!line.contains("extra"));
        r.fail("wrong output".into());
        assert!(r
            .result_line(&end_to_end())
            .unwrap()
            .contains("\"correct\": false"));
        assert!(!r.result_line(&end_to_end()).unwrap().contains("ok_frac"));
        r.add("throughput_vs_ref", f64::NAN, "ratio", 0);
        assert!(r.result_line(&end_to_end()).is_err());
        assert!(Report::default().result_line(&end_to_end()).is_err());
    }
}
