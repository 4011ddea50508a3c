//! The per-layer seam: a [`MemoryBackend`] decorator that forwards every
//! trait method to the wrapped engine and times each call from outside.
//!
//! Nothing inside the simulator is instrumented; the decorator only sees
//! what crosses the trait boundary, so the simulated results through it
//! must be bit-identical to the bare engine's (the traced run checks it).

use std::cell::Cell;
use std::time::Instant;

use cpu_model::system::{AccessKind, BatchAccess, Busy, MemoryBackend};

/// Call kinds at the `MemoryBackend` seam.
#[derive(Debug, Clone, Copy)]
pub enum Call {
    /// `submit` and `submit_batch`.
    Submit,
    /// `tick`.
    Tick,
    /// `advance_to`.
    Advance,
    /// `next_event`, `next_completion_event`, `next_read_capacity_event`.
    Bound,
}

/// All call kinds, in reporting order.
pub const CALLS: [(Call, &str); 4] = [
    (Call::Submit, "submit"),
    (Call::Tick, "tick"),
    (Call::Advance, "advance"),
    (Call::Bound, "bound"),
];

/// Call counts and accumulated host nanoseconds per call kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeamTimes {
    /// Calls per kind, indexed by `Call as usize`.
    pub calls: [u64; 4],
    /// Host nanoseconds inside the wrapped backend per kind.
    pub nanos: [u64; 4],
}

impl SeamTimes {
    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &Self) {
        for k in 0..4 {
            self.calls[k] += other.calls[k];
            self.nanos[k] += other.nanos[k];
        }
    }

    /// Total host seconds spent inside the backend.
    pub fn self_s(&self) -> f64 {
        self.nanos.iter().sum::<u64>() as f64 * 1e-9
    }

    /// Mean host nanoseconds per call of `kind` (0 when never called).
    pub fn ns_per_call(&self, kind: Call) -> f64 {
        let k = kind as usize;
        if self.calls[k] == 0 {
            0.0
        } else {
            self.nanos[k] as f64 / self.calls[k] as f64
        }
    }
}

/// Forwarding, timing decorator over any backend.
pub struct Timed<B> {
    inner: B,
    times: SeamTimes,
    bound: Cell<(u64, u64)>,
}

impl<B> Timed<B> {
    /// Wraps `inner`.
    pub fn new(inner: B) -> Self {
        Self {
            inner,
            times: SeamTimes::default(),
            bound: Cell::new((0, 0)),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// The wrapped backend, mutably (statistics getters take `&mut`).
    pub fn inner_mut(&mut self) -> &mut B {
        &mut self.inner
    }

    /// Counts and times recorded so far.
    pub fn times(&self) -> SeamTimes {
        let mut times = self.times;
        let (calls, nanos) = self.bound.get();
        times.calls[Call::Bound as usize] = calls;
        times.nanos[Call::Bound as usize] = nanos;
        times
    }
}

/// Times one forwarded `&mut self` call into `acc`.
#[inline(always)]
fn timed<R>(acc: &mut SeamTimes, kind: Call, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    let k = kind as usize;
    acc.calls[k] += 1;
    acc.nanos[k] += start.elapsed().as_nanos() as u64;
    out
}

impl<B: MemoryBackend> MemoryBackend for Timed<B> {
    fn submit(
        &mut self,
        kind: AccessKind,
        addr: u64,
        now: u64,
        is_prefetch: bool,
    ) -> Result<u64, Busy> {
        let inner = &mut self.inner;
        timed(&mut self.times, Call::Submit, || {
            inner.submit(kind, addr, now, is_prefetch)
        })
    }

    fn submit_batch(
        &mut self,
        batch: &[BatchAccess],
        now: u64,
        results: &mut Vec<Result<u64, Busy>>,
    ) {
        let inner = &mut self.inner;
        timed(&mut self.times, Call::Submit, || {
            inner.submit_batch(batch, now, results)
        });
    }

    fn tick(&mut self, now: u64) -> Vec<u64> {
        let inner = &mut self.inner;
        timed(&mut self.times, Call::Tick, || inner.tick(now))
    }

    fn advance_to(&mut self, target: u64, completions: &mut Vec<(u64, u64)>) {
        let inner = &mut self.inner;
        timed(&mut self.times, Call::Advance, || {
            inner.advance_to(target, completions)
        });
    }

    fn next_event(&self, now: u64) -> Option<u64> {
        self.bound(|b| b.next_event(now))
    }

    fn next_completion_event(&self, now: u64) -> Option<u64> {
        self.bound(|b| b.next_completion_event(now))
    }

    fn next_read_capacity_event(&self, now: u64, addr: u64) -> Option<u64> {
        self.bound(|b| b.next_read_capacity_event(now, addr))
    }
}

impl<B> Timed<B> {
    /// Bound queries are `&self` on the trait, so their counters live in
    /// a `Cell`.
    fn bound(&self, f: impl FnOnce(&B) -> Option<u64>) -> Option<u64> {
        let start = Instant::now();
        let out = f(&self.inner);
        let (calls, nanos) = self.bound.get();
        self.bound
            .set((calls + 1, nanos + start.elapsed().as_nanos() as u64));
        out
    }
}
