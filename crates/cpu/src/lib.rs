//! Trace-driven out-of-order core and cache hierarchy.
//!
//! This crate is the reproduction's substitute for the Scarab + Pin
//! front-end the SecDDR paper simulates with. The performance effects the
//! paper measures come from three places that this model captures:
//!
//! 1. **Memory-level parallelism limits** — a 224-entry ROB, 6-wide
//!    dispatch/retire core (`CoreEngine`, sized by [`CpuConfig`])
//!    that stalls when outstanding long-latency loads fill the window.
//! 2. **Cache hierarchy behaviour** — private 32 KB L1D and a shared 4 MB
//!    16-way LLC with a stream prefetcher ([`cache`], [`prefetcher`]).
//! 3. **Extra memory traffic and latency injected by the security engine**
//!    — abstracted behind the [`MemoryBackend`] trait, which the
//!    `secddr-core` crate implements for each evaluated configuration
//!    (integrity tree, SecDDR, encrypt-only, InvisiMem).
//!
//! One next-event scheduler ([`scheduler::MultiCoreSystem`]) drives 1..N
//! cores over a shared LLC and backend; [`CpuSystem`] is that scheduler
//! built with one core.
//!
//! # Example
//!
//! ```
//! use cpu_model::{CpuConfig, CpuSystem, FixedLatencyBackend, TraceOp};
//!
//! let trace = vec![
//!     TraceOp::Compute(10),
//!     TraceOp::Load(0x1000),
//!     TraceOp::Store(0x2000),
//!     TraceOp::Compute(10),
//! ];
//! let backend = FixedLatencyBackend::new(200);
//! let mut sys = CpuSystem::new(CpuConfig::default(), backend);
//! let result = sys.run(trace.into_iter());
//! assert_eq!(result.instructions, 22);
//! assert!(result.ipc() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod core;
mod exec;
pub mod prefetcher;
pub mod scheduler;
mod series;
pub mod system;
pub mod trace;
mod wake;

pub use crate::core::CpuConfig;
pub use cache::{Cache, CacheConfig, CacheStats};
pub use prefetcher::StreamPrefetcher;
pub use scheduler::{MultiCoreResult, MultiCoreSystem};
pub use sim_kernel::Advance;
pub use system::{AccessKind, CpuSystem, FixedLatencyBackend, MemoryBackend, SimResult};
pub use trace::TraceOp;
pub use wake::WakeReasons;
