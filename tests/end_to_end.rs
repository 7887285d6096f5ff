//! Workspace integration: every execution path — serial reference,
//! two-phase engine, compiled kernel plan on the machine model, and the
//! real multithreaded runtime — must agree on every recurrence of the
//! paper's Table 1 catalog.

use plr::baselines::executor::RecurrenceExecutor;
use plr::codegen::Plr;
use plr::core::engine::{CarryPropagation, EngineConfig, LocalSolve};
use plr::core::{prefix, serial, validate};
use plr::sim::DeviceConfig;
use plr::{Element, Engine, ParallelRunner, RunnerConfig, Signature};
use plr_bench::PlrExecutor;

fn check_catalog_entry<T: Element>(sig: &Signature<T>, tol: f64) {
    let n = 30_000;
    let input: Vec<T> = (0..n)
        .map(|i| T::from_i32(((i * 31) % 21) as i32 - 10))
        .collect();
    let expected = serial::run(sig, &input);

    // Two-phase engine, both local-solve strategies.
    for local in [LocalSolve::HierarchicalDoubling, LocalSolve::Serial] {
        let engine = Engine::with_config(
            sig.clone(),
            EngineConfig {
                chunk_size: 1024,
                local_solve: local,
                carry_propagation: CarryPropagation::Decoupled,
                flush_denormals: true,
            },
        )
        .unwrap();
        let got = engine.run(&input).unwrap();
        validate::validate(&expected, &got, tol)
            .unwrap_or_else(|e| panic!("engine {local:?} for {sig}: {e}"));
    }

    // Compiled kernel plan interpreted on the machine model.
    let device = DeviceConfig::titan_x();
    let compiled = Plr::new().compile(sig, n);
    let exec = compiled.execute(&input, &device);
    validate::validate(&expected, &exec.output, tol)
        .unwrap_or_else(|e| panic!("simulated kernel for {sig}: {e}"));
    assert!(compiled.cuda.contains("__global__ void plr_kernel"));

    // Real threads.
    let runner = ParallelRunner::with_config(
        sig.clone(),
        RunnerConfig {
            chunk_size: 2048,
            threads: 4,
            ..Default::default()
        },
    )
    .unwrap();
    let got = runner.run(&input).unwrap();
    validate::validate(&expected, &got, tol)
        .unwrap_or_else(|e| panic!("parallel runtime for {sig}: {e}"));
}

#[test]
fn integer_catalog_agrees_across_all_paths() {
    for entry in prefix::catalog().iter().filter(|e| e.integral) {
        let sig: Signature<i64> = entry.signature.cast();
        check_catalog_entry(&sig, 0.0);
    }
}

#[test]
fn float_catalog_agrees_across_all_paths() {
    for entry in prefix::catalog().iter().filter(|e| !e.integral) {
        let sig: Signature<f32> = entry.signature.cast();
        // The 3-stage high-pass is the worst-conditioned catalog entry in
        // f32 (see plr-codegen's exec tests); a slightly looser bound
        // covers its hierarchical reassociation noise.
        let tol = if sig.order() == 3 && sig.fir_order() > 0 {
            5e-3
        } else {
            1e-3
        };
        check_catalog_entry(&sig, tol);
    }
}

#[test]
fn plr_executor_matches_direct_compilation() {
    let device = DeviceConfig::titan_x();
    let sig: Signature<i32> = "1: 3, -3, 1".parse().unwrap();
    let input: Vec<i32> = (0..25_000).map(|i| (i % 7) - 3).collect();
    let via_executor = PlrExecutor::default().run(&sig, &input, &device).unwrap();
    let via_compiler = Plr::new()
        .compile(&sig, input.len())
        .execute(&input, &device);
    assert_eq!(via_executor.output, via_compiler.output);
    assert_eq!(
        via_executor.counters.global_read_bytes,
        via_compiler.counters.global_read_bytes
    );
}

#[test]
fn all_four_data_types_work_end_to_end() {
    fn run_one<T: Element>() {
        let sig: Signature<T> = Signature::new(vec![T::one()], vec![T::one()]).unwrap();
        let input: Vec<T> = (0..5000).map(|i| T::from_i32((i % 11) - 5)).collect();
        let engine = Engine::new(sig.clone()).unwrap();
        let got = engine.run(&input).unwrap();
        let expected = serial::run(&sig, &input);
        validate::validate(&expected, &got, 1e-6).unwrap();
    }
    run_one::<i32>();
    run_one::<i64>();
    run_one::<f32>();
    run_one::<f64>();
}
