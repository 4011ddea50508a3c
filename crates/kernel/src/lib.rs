//! Event-driven simulation kernel shared by every timing layer of the
//! SecDDR reproduction.
//!
//! The seed simulator advanced the CPU system, the security engine, and
//! the DRAM controller one cycle at a time even when every queue was
//! idle. This crate provides the three pieces the layers now share:
//!
//! * [`SimClock`] — a monotonically advancing cycle counter with explicit
//!   single-step ([`SimClock::tick`]) and fast-forward
//!   ([`SimClock::skip_to`]) transitions;
//! * [`EventQueue`] — a binary-heap timestamped event queue with stable
//!   FIFO ordering for same-cycle events, used for in-flight memory
//!   completions at every layer;
//! * [`Advance`] — the advance policy. [`Advance::ToNextEvent`] lets a
//!   layer jump its clock over provably idle stretches;
//!   [`Advance::PerCycle`] is the reference lock-step semantics the
//!   equivalence tests compare against.
//!
//! The contract every fast-path must uphold: a skipped cycle is one where
//! the per-cycle reference would have done *nothing* — so statistics,
//! command schedules, and completion times are bit-identical between the
//! two policies. Each layer derives its own "next possible event" lower
//! bound (DRAM timing thresholds, ROB head readiness, backend completion
//! times) and the kernel supplies the mechanics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hash::{BuildHasherDefault, Hasher};

/// A fast multiply-xor hasher (FxHash-style) for the simulators' hot
/// integer-keyed maps (tokens, line addresses, transaction ids).
///
/// Not DoS-resistant — simulation state is never attacker-controlled, and
/// the default SipHash costs real wall-clock on per-event bookkeeping.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// How a simulation layer advances its clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Advance {
    /// Lock-step reference semantics: every cycle is simulated.
    PerCycle,
    /// Event-driven fast path: idle stretches (cycles where the per-cycle
    /// reference provably does nothing) are skipped in one jump.
    #[default]
    ToNextEvent,
}

impl Advance {
    /// True when the event-driven fast path is enabled.
    #[inline]
    #[must_use]
    pub fn is_event_driven(self) -> bool {
        matches!(self, Advance::ToNextEvent)
    }
}

/// A simulation clock counting cycles from zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimClock {
    now: u64,
}

impl SimClock {
    /// A clock at cycle zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The current cycle.
    #[inline]
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Advances one cycle and returns the new time.
    #[inline]
    pub fn tick(&mut self) -> u64 {
        self.now += 1;
        self.now
    }

    /// Fast-forwards to `cycle` and returns how many cycles were skipped.
    ///
    /// The caller asserts that nothing observable happens in the skipped
    /// range `(now, cycle]`; this is the [`Advance::ToNextEvent`] jump.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` is in the past.
    #[inline]
    pub fn skip_to(&mut self, cycle: u64) -> u64 {
        assert!(cycle >= self.now, "SimClock cannot move backwards");
        let skipped = cycle - self.now;
        self.now = cycle;
        skipped
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Scheduled<T> {
    at: u64,
    seq: u64,
    payload: T,
}

impl<T: Eq> Ord for Scheduled<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl<T: Eq> PartialOrd for Scheduled<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A timestamped event queue over a binary heap.
///
/// Events pop in `(time, insertion order)` order, so same-cycle events
/// keep FIFO semantics — the property the per-cycle reference loops
/// provided implicitly by scanning vectors in insertion order.
#[derive(Debug, Clone, Default)]
pub struct EventQueue<T: Eq> {
    heap: BinaryHeap<Reverse<Scheduled<T>>>,
    next_seq: u64,
}

impl<T: Eq> EventQueue<T> {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at `at`.
    pub fn push(&mut self, at: u64, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Scheduled { at, seq, payload }));
    }

    /// The cycle of the earliest scheduled event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(s)| s.at)
    }

    /// The earliest scheduled `(time, payload)` without removing it.
    ///
    /// Schedulers with lazy staleness filtering use this to inspect the
    /// head entry and pop it only when it turns out to be stale — the
    /// pop-then-push round trip (two sift operations plus a burned
    /// sequence number per inspection) disappears.
    #[must_use]
    pub fn peek(&self) -> Option<(u64, &T)> {
        self.heap.peek().map(|Reverse(s)| (s.at, &s.payload))
    }

    /// As [`Self::peek`], but only when the head entry fires at or
    /// before `now`.
    #[must_use]
    pub fn peek_due(&self, now: u64) -> Option<(u64, &T)> {
        self.peek().filter(|&(at, _)| at <= now)
    }

    /// Pops the earliest event if it fires at or before `now`.
    pub fn pop_due(&mut self, now: u64) -> Option<(u64, T)> {
        if self.peek_time()? <= now {
            self.heap.pop().map(|Reverse(s)| (s.at, s.payload))
        } else {
            None
        }
    }

    /// Iterates over all scheduled `(time, payload)` entries in
    /// unspecified order.
    ///
    /// Lets a layer derive *filtered* bounds (e.g. "earliest completion
    /// among tokens owned by one core") without popping; use
    /// [`Self::peek_time`] for the unfiltered minimum.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.heap.iter().map(|Reverse(s)| (s.at, &s.payload))
    }

    /// Number of scheduled events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Folds a candidate threshold into a running lower bound, clamping
/// candidates at or before `now` to `now + 1`.
///
/// Helper for *decision* bounds, where an already-satisfied threshold
/// means the decision could fire on the very next tick (it may merely be
/// deprioritized right now, e.g. a precharge losing the command slot to a
/// column burst).
#[inline]
pub fn fold_ready_event(now: u64, bound: &mut u64, candidate: u64) {
    let candidate = candidate.max(now + 1);
    if candidate < *bound {
        *bound = candidate;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_ticks_and_skips() {
        let mut c = SimClock::new();
        assert_eq!(c.now(), 0);
        assert_eq!(c.tick(), 1);
        assert_eq!(c.skip_to(10), 9);
        assert_eq!(c.now(), 10);
        assert_eq!(c.skip_to(10), 0);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn clock_rejects_rewind() {
        let mut c = SimClock::new();
        c.skip_to(5);
        c.skip_to(4);
    }

    #[test]
    fn queue_pops_in_time_then_fifo_order() {
        let mut q = EventQueue::new();
        q.push(5, "b");
        q.push(3, "a");
        q.push(5, "c");
        assert_eq!(q.peek_time(), Some(3));
        assert_eq!(q.pop_due(2), None);
        assert_eq!(q.pop_due(5), Some((3, "a")));
        assert_eq!(q.pop_due(5), Some((5, "b")), "FIFO among same-cycle events");
        assert_eq!(q.pop_due(5), Some((5, "c")));
        assert!(q.is_empty());
    }

    #[test]
    fn peek_is_non_destructive_and_fifo_consistent() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek(), None);
        q.push(7, "late");
        q.push(4, "early");
        assert_eq!(q.peek(), Some((4, &"early")));
        assert_eq!(q.peek(), Some((4, &"early")), "peek must not pop");
        assert_eq!(q.peek_due(3), None);
        assert_eq!(q.peek_due(4), Some((4, &"early")));
        assert_eq!(q.pop_due(10), Some((4, "early")));
        assert_eq!(q.peek(), Some((7, &"late")));
    }

    #[test]
    fn queue_len_tracks_contents() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(1, 10u64);
        q.push(1, 11u64);
        assert_eq!(q.len(), 2);
        let _ = q.pop_due(1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn fold_ready_event_clamps_past_due_to_next_cycle() {
        let mut bound = u64::MAX;
        fold_ready_event(10, &mut bound, 40);
        assert_eq!(bound, 40);
        fold_ready_event(10, &mut bound, 9); // past-due: ready next cycle
        assert_eq!(bound, 11);
        fold_ready_event(10, &mut bound, 10); // present: same clamp
        assert_eq!(bound, 11);
        let mut tight = 11u64;
        fold_ready_event(10, &mut tight, 25); // cannot improve on now+1
        assert_eq!(tight, 11);
    }

    #[test]
    fn advance_default_is_event_driven() {
        assert!(Advance::default().is_event_driven());
        assert!(!Advance::PerCycle.is_event_driven());
    }
}
