//! Multi-core front-end: rate-mode traces for N OOO cores sharing the
//! LLC and memory engine.
//!
//! The paper evaluates SecDDR in 4-core rate mode; this crate supplies
//! its traces. The scheduler itself lives in `cpu-model` — one
//! next-event scheduler serves 1..N cores, and the single-core
//! [`cpu_model::CpuSystem`] is that scheduler built with one core — and
//! is re-exported here:
//!
//! * [`MultiCoreSystem`] / [`MultiCoreResult`] / [`WakeReasons`] — the
//!   core scheduler, its per-core and aggregate results (aggregate IPC,
//!   weighted speedup), and its wake-reason attribution.
//! * [`CoreTrace`] / [`AddressSpace`] — rate-mode trace sharing: N cores
//!   iterate one reference-counted trace, each relocated into its own
//!   window of the backend's data span so copies cannot alias in the
//!   shared LLC or the engine metadata.
//!
//! Cores × channels compose through the one backend seam:
//! `MultiCoreSystem<ShardedEngine>` works unchanged.
//!
//! # Example
//!
//! ```
//! use cpu_model::{CpuConfig, FixedLatencyBackend, TraceOp};
//! use secddr_multicore::{CoreTrace, MultiCoreSystem};
//! use std::sync::Arc;
//!
//! let trace = Arc::new(vec![
//!     TraceOp::Compute(12),
//!     TraceOp::Load(0x1000),
//!     TraceOp::Store(0x2000),
//! ]);
//! let mut sys = MultiCoreSystem::new(4, CpuConfig::default(), FixedLatencyBackend::new(200));
//! let result = sys.run(CoreTrace::rate(&trace, 1 << 32, 4));
//! assert_eq!(result.merged().instructions, 4 * 14);
//! assert!(result.aggregate_ipc() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod trace;

pub use cpu_model::{MultiCoreResult, MultiCoreSystem, WakeReasons};
pub use trace::{AddressSpace, CoreTrace};

#[cfg(test)]
mod tests;
