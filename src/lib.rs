//! # plr
//!
//! A comprehensive Rust reproduction of Maleki & Burtscher, *Automatic
//! Hierarchical Parallelization of Linear Recurrences* (ASPLOS 2018).
//!
//! This facade crate re-exports the workspace's layers:
//!
//! * [`core`] (`plr-core`) — signatures, n-nacci correction factors, the
//!   two-phase algorithm, filter design, stability analysis;
//! * [`sim`] (`plr-sim`) — the hierarchical GPU-like machine model
//!   (warps/blocks/grid, memory traffic, L2 cache, analytic timing);
//! * [`codegen`] (`plr-codegen`) — the PLR compiler: signature → CUDA
//!   source + an executable kernel plan;
//! * [`baselines`] (`plr-baselines`) — the paper's comparison codes
//!   (memcpy, CUB-like, SAM-like, Blelloch Scan, Alg3-like, Rec-like);
//! * [`parallel`] (`plr-parallel`) — a real multithreaded CPU runtime;
//! * [`service`] (`plr-service`) — a multi-tenant service core over that
//!   runtime: sharded worker pools behind admission control, per-tenant
//!   token-bucket quotas, weighted fair queueing, and admission-time
//!   load shedding under overload.
//!
//! ## Quickstart
//!
//! ```
//! use plr::{Engine, Signature};
//!
//! // The 2nd-order prefix sum from the paper's worked example.
//! let sig: Signature<i32> = "(1: 2, -1)".parse()?;
//! let engine = Engine::new(sig)?;
//! let y = engine.run(&[3, -4, 5, -6])?;
//! assert_eq!(y, vec![3, 2, 6, 4]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Generate the CUDA code the paper's compiler would emit:
//!
//! ```
//! use plr::codegen::Plr;
//!
//! let compiled = Plr::new().compile_str::<f32>("0.2 : 0.8", 1 << 24)?;
//! assert!(compiled.cuda.contains("__global__ void plr_kernel"));
//! # Ok::<(), plr::core::error::SignatureError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use plr_baselines as baselines;
pub use plr_codegen as codegen;
pub use plr_core as core;
pub use plr_parallel as parallel;
pub use plr_service as service;
pub use plr_sim as sim;

pub use plr_core::varying::VaryingSignature;
pub use plr_core::{
    CorrectionPlan, Element, Engine, PlanKind, PlanMode, SegmentedPlan, Segments, Signature,
};
pub use plr_parallel::{
    BatchRunner, CancelToken, ParallelRunner, RowHandle, RowStream, RunControl, RunHandle,
    RunnerConfig, SegmentedRunner, VaryingRunner,
};
pub use plr_service::{ServiceConfig, ServiceCore, SubmitOptions, TenantSpec};
