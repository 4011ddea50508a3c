//! N interleaved security-engine + DDR-channel shards behind one
//! [`MemoryBackend`].
//!
//! [`ShardedEngine`] owns N independent [`SecurityEngine`]s (each with its
//! own metadata cache and DDR4 channel) and an [`Interleave`] that splits
//! the physical line space across them. The CPU front-end sees a single
//! backend: tokens, batch results, and completions are translated at this
//! layer, so `CpuSystem` is oblivious to the shard count.
//!
//! The top-level advance is event-driven: each shard registers its
//! memoized [`MemoryBackend::next_event`] lower bound in a min-heap
//! ([`sim_kernel::EventQueue`] with lazy staleness filtering), and
//! [`MemoryBackend::tick`] steps **only the shards whose bound is due**.
//! A shard whose bound is in the future provably has nothing observable
//! to report (the bound contract the core scheduler relies on), so its
//! channel clock is left lagging and caught up wholesale on its next
//! interaction — the per-shard idle windows that grow with N are skipped
//! at the top level instead of being re-proven per shard per cycle.
//! [`ShardedEngine::sync`] catches every shard up to the last observed
//! CPU cycle, which the statistics accessors do implicitly so merged
//! stats are bit-comparable with an always-ticked engine.
//!
//! A lagging shard's wholesale catch-up is itself block-advanced: the
//! engine's `advance` rides the controller's *decision bound*
//! (`DramSystem::tick_until`), so a busy stretch executes only the
//! cycles where a command can issue or a completion pop — not one
//! controller tick per covered busy cycle. The per-shard `next_event`
//! bounds this layer heaps come from the same decision bound, so a
//! saturated shard no longer pins the heap head to `now + 1`.

use cpu_model::system::{AccessKind, BatchAccess, Busy, MemoryBackend};
use dram_sim::{ControllerTelemetry, DramStats};
use secddr_core::config::SecurityConfig;
use secddr_core::engine::{EngineOptions, EngineStats, SecurityEngine};
use secddr_telemetry::{SeriesSnapshot, TraceSink};
use sim_kernel::{Advance, EventQueue, FxHashMap};

use crate::interleave::Interleave;

/// N interleaved [`SecurityEngine`] channel shards behind one
/// [`MemoryBackend`].
#[derive(Debug)]
pub struct ShardedEngine {
    shards: Vec<SecurityEngine>,
    interleave: Interleave,
    advance: Advance,
    /// Global token source (one per accepted submit, like the bare
    /// engine, so `ShardedEngine` with one shard hands out the same
    /// token values a bare [`SecurityEngine`] would).
    next_token: u64,
    /// Per shard: local read token → global token (writes complete
    /// silently and are never mapped).
    local_to_global: Vec<FxHashMap<u64, u64>>,
    /// Registered next-event lower bound per shard; `u64::MAX` means "no
    /// internal event pending" and keeps the shard out of the heap.
    bounds: Vec<u64>,
    /// Min-heap of `(bound, shard)` wake-ups. Entries whose time no
    /// longer matches `bounds[shard]` are stale and skipped on pop.
    due: EventQueue<usize>,
    /// Latest CPU cycle observed on any trait call — the catch-up target
    /// for lagging shards in [`Self::sync`].
    last_now: u64,
    /// Times each shard was actually stepped (diagnostic for the
    /// "only due shards tick" property and the scaling benchmarks).
    shard_ticks: Vec<u64>,
    /// Reusable batch fan-out scratch (one slot per shard).
    split: Vec<Vec<BatchAccess>>,
    split_results: Vec<Vec<Result<u64, Busy>>>,
    cursors: Vec<usize>,
    /// Scratch list of shards due in the current tick.
    due_now: Vec<usize>,
    /// Reusable `(cycle, local token)` buffer for per-shard block
    /// advances.
    stamp_scratch: Vec<(u64, u64)>,
    /// Opt-in span recorder: each shard step is recorded as a span on the
    /// shard's track covering the window it advanced through. `None`
    /// (the default) keeps the hot path free of any tracing work.
    trace: Option<TraceSink>,
    /// Per shard: the cycle its track has been traced up to (span starts
    /// for the next step). Only maintained while tracing is enabled.
    trace_mark: Vec<u64>,
}

impl ShardedEngine {
    /// Builds `interleave.shard_count()` identical shards for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.validate()` fails.
    #[must_use]
    pub fn new(cfg: SecurityConfig, cpu_mhz: u32, interleave: Interleave) -> Self {
        Self::with_options(cfg, cpu_mhz, interleave, EngineOptions::default())
    }

    /// As [`Self::new`] with explicit engine options (shared by every
    /// shard).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.validate()` fails.
    #[must_use]
    pub fn with_options(
        cfg: SecurityConfig,
        cpu_mhz: u32,
        interleave: Interleave,
        options: EngineOptions,
    ) -> Self {
        let n = interleave.shard_count();
        Self {
            shards: (0..n)
                .map(|_| SecurityEngine::with_options(cfg, cpu_mhz, options))
                .collect(),
            interleave,
            advance: options.advance,
            next_token: 0,
            local_to_global: vec![FxHashMap::default(); n],
            bounds: vec![u64::MAX; n],
            due: EventQueue::new(),
            last_now: 0,
            shard_ticks: vec![0; n],
            split: vec![Vec::new(); n],
            split_results: vec![Vec::new(); n],
            cursors: vec![0; n],
            due_now: Vec::new(),
            stamp_scratch: Vec::new(),
            trace: None,
            trace_mark: vec![0; n],
        }
    }

    /// Number of channel shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The interleave policy splitting the line space.
    #[must_use]
    pub fn interleave(&self) -> Interleave {
        self.interleave
    }

    /// Read access to one shard's engine (sync first for up-to-date
    /// channel statistics).
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    #[must_use]
    pub fn shard(&self, shard: usize) -> &SecurityEngine {
        &self.shards[shard]
    }

    /// How many times each shard was actually stepped by
    /// [`MemoryBackend::tick`] — idle shards stay at zero because they
    /// never enter the wake-up heap.
    #[must_use]
    pub fn shard_tick_counts(&self) -> &[u64] {
        &self.shard_ticks
    }

    /// Catches every lagging shard's channel clock up to the latest CPU
    /// cycle observed on this backend.
    ///
    /// Completions harvested during the catch-up stay scheduled inside
    /// the shard and surface on the next [`MemoryBackend::tick`] exactly
    /// as they would have without the lag (the skipped ticks were
    /// provably observation-free), so syncing is safe at any point.
    pub fn sync(&mut self) {
        let now = self.last_now;
        for shard in &mut self.shards {
            shard.sync_to(now);
        }
    }

    /// Merged engine statistics over all shards (syncs first).
    pub fn stats(&mut self) -> EngineStats {
        self.sync();
        let mut merged = EngineStats::default();
        for shard in &self.shards {
            merged.merge(&shard.stats());
        }
        merged
    }

    /// Merged DRAM channel statistics over all shards (syncs first).
    /// Counters and occupancy/latency histograms sum; the rate helpers
    /// on the merged value are therefore aggregates over all channels.
    pub fn dram_stats(&mut self) -> DramStats {
        self.sync();
        let mut merged = DramStats::default();
        for shard in &self.shards {
            merged.merge(&shard.dram_stats());
        }
        merged
    }

    /// Merged controller telemetry over all shards (syncs first):
    /// decision/busy cycle counts and decision-cause attribution summed
    /// across every channel.
    pub fn dram_telemetry(&mut self) -> ControllerTelemetry {
        self.sync();
        let mut merged = ControllerTelemetry::default();
        for shard in &self.shards {
            merged.merge(&shard.dram_telemetry());
        }
        merged
    }

    /// Turns on sim-time windowed series recording on every shard's
    /// channel at `epoch_width` CPU cycles per epoch (see
    /// [`SecurityEngine::enable_series`]). Opt-in and non-perturbing
    /// like tracing.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_width` is zero.
    pub fn enable_series(&mut self, epoch_width: u64) {
        for shard in &mut self.shards {
            shard.enable_series(epoch_width);
        }
    }

    /// Merged per-epoch series over all shards (syncs first). Policy
    /// rows (`dram.decision.*`, `dram.decisions_total`,
    /// `dram.busy_cycles`) sum across channels so they still reconcile
    /// with the merged [`Self::dram_telemetry`]; per-bank and occupancy
    /// rows are scoped per channel (`dram.ch01.bank03.issues`,
    /// `dram.ch01.read_q_integral`), and each channel gains a summed
    /// `dram.chNN.issues` heatmap row for imbalance analysis. `None`
    /// unless [`Self::enable_series`] was called.
    pub fn series_snapshot(&mut self) -> Option<SeriesSnapshot> {
        self.sync();
        let mut merged: Option<SeriesSnapshot> = None;
        for (s, shard) in self.shards.iter().enumerate() {
            let scoped = scope_channel(&shard.series_snapshot()?, s);
            match &mut merged {
                Some(m) => m.merge(&scoped),
                None => merged = Some(scoped),
            }
        }
        merged
    }

    /// Turns on per-shard advance-span tracing into a bounded ring of
    /// `capacity` spans (oldest evicted first). Tracing never changes
    /// simulated behaviour — it only observes the windows each shard is
    /// stepped through.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(TraceSink::new(capacity));
    }

    /// Takes the recorded trace (if tracing was enabled), disabling
    /// further recording.
    pub fn take_trace(&mut self) -> Option<TraceSink> {
        self.trace.take()
    }

    /// Records shard `s` having advanced its window up to `end` on its
    /// trace track (no-op unless [`Self::enable_trace`] was called).
    fn trace_step(&mut self, s: usize, name: &'static str, end: u64) {
        if let Some(sink) = &mut self.trace {
            let start = self.trace_mark[s].min(end);
            #[allow(clippy::cast_possible_truncation)]
            sink.record(s as u32, name, start, end);
            self.trace_mark[s] = end;
        }
    }

    /// Allocates the global token for an accepted access and records the
    /// local→global mapping for reads (the only kind that completes).
    fn register(
        &mut self,
        shard: usize,
        kind: AccessKind,
        result: Result<u64, Busy>,
    ) -> Result<u64, Busy> {
        let local = result?;
        let global = self.next_token;
        self.next_token += 1;
        if kind == AccessKind::Read {
            self.local_to_global[shard].insert(local, global);
        }
        Ok(global)
    }

    /// Re-registers shard `s`'s next-event bound after an interaction
    /// changed its state. Keeps the earliest registered bound: a stale
    /// early wake-up just re-derives the bound, while a late one could
    /// miss an event.
    fn refresh_bound(&mut self, s: usize, now: u64) {
        if !self.advance.is_event_driven() {
            return;
        }
        let bound = self.shards[s].next_event(now).unwrap_or(u64::MAX);
        if bound < self.bounds[s] {
            self.bounds[s] = bound;
            if bound != u64::MAX {
                self.due.push(bound, s);
            }
        }
    }

    /// Steps shard `s` to `now`, translating its completions to global
    /// tokens, and re-registers its bound.
    fn tick_shard(&mut self, s: usize, now: u64, done: &mut Vec<u64>) {
        self.shard_ticks[s] += 1;
        self.trace_step(s, "tick", now);
        for local in self.shards[s].tick(now) {
            let global = self.local_to_global[s]
                .remove(&local)
                .expect("completed read was registered at submit");
            done.push(global);
        }
        self.refresh_bound(s, now);
    }

    /// Block-advances shard `s` to `target`, translating its stamped
    /// completions to global tokens, and re-registers its bound.
    fn advance_shard_to(&mut self, s: usize, target: u64, out: &mut Vec<(u64, u64)>) {
        self.shard_ticks[s] += 1;
        self.trace_step(s, "advance", target);
        let mut scratch = std::mem::take(&mut self.stamp_scratch);
        scratch.clear();
        self.shards[s].advance_to(target, &mut scratch);
        for &(at, local) in &scratch {
            let global = self.local_to_global[s]
                .remove(&local)
                .expect("completed read was registered at submit");
            out.push((at, global));
        }
        self.stamp_scratch = scratch;
        self.refresh_bound(s, target);
    }

    /// Folds `f(shard, now)` over all shards into one lower bound with
    /// the backend-trait `max(now + 1)` convention.
    fn fold_shards(
        &self,
        now: u64,
        f: impl Fn(&SecurityEngine, u64) -> Option<u64>,
    ) -> Option<u64> {
        let mut bound = u64::MAX;
        for shard in &self.shards {
            if let Some(t) = f(shard, now) {
                bound = bound.min(t);
            }
        }
        (bound != u64::MAX).then(|| bound.max(now + 1))
    }
}

/// Scopes one shard's series rows to its channel: heatmap rows gain a
/// `chNN` segment, policy rows stay shared (they sum on merge), and a
/// per-channel `dram.chNN.issues` row (the shard's bank rows summed) is
/// added for cross-channel imbalance analysis.
fn scope_channel(snap: &SeriesSnapshot, shard: usize) -> SeriesSnapshot {
    let mut scoped = snap.map_names(|name| {
        if let Some(rest) = name.strip_prefix("dram.bank") {
            format!("dram.ch{shard:02}.bank{rest}")
        } else if name == "dram.read_q_integral" || name == "dram.write_q_integral" {
            format!("dram.ch{shard:02}.{}", &name["dram.".len()..])
        } else {
            name.to_string()
        }
    });
    let mut issues: Vec<u64> = Vec::new();
    for (name, row) in &snap.rows {
        if name.starts_with("dram.bank") {
            if issues.len() < row.len() {
                issues.resize(row.len(), 0);
            }
            for (total, v) in issues.iter_mut().zip(row) {
                *total += v;
            }
        }
    }
    for (e, v) in issues.iter().enumerate() {
        scoped.add(&format!("dram.ch{shard:02}.issues"), e as u64, *v);
    }
    scoped
}

impl MemoryBackend for ShardedEngine {
    fn submit(
        &mut self,
        kind: AccessKind,
        addr: u64,
        now: u64,
        is_prefetch: bool,
    ) -> Result<u64, Busy> {
        self.last_now = self.last_now.max(now);
        let (s, local) = self.interleave.to_local(addr);
        // The shard's own submit catches its channel clock up to `now`
        // before stamping, so a lagging shard re-synchronizes here.
        let result = self.shards[s].submit(kind, local, now, is_prefetch);
        let result = self.register(s, kind, result);
        self.refresh_bound(s, now);
        result
    }

    fn submit_batch(
        &mut self,
        batch: &[BatchAccess],
        now: u64,
        results: &mut Vec<Result<u64, Busy>>,
    ) {
        self.last_now = self.last_now.max(now);
        // Fan out: split the batch per shard, preserving relative order
        // within each shard (all the batch contract requires).
        for v in &mut self.split {
            v.clear();
        }
        for access in batch {
            let (s, local) = self.interleave.to_local(access.addr);
            self.split[s].push(BatchAccess {
                addr: local,
                ..*access
            });
        }
        // One batched submission per touched shard: each pays its channel
        // catch-up once for its whole sub-batch.
        for s in 0..self.shards.len() {
            self.split_results[s].clear();
            if !self.split[s].is_empty() {
                self.shards[s].submit_batch(&self.split[s], now, &mut self.split_results[s]);
            }
        }
        // Merge back in submission order: walk the original batch and
        // take each shard's results in sequence, so `results[i]` always
        // answers `batch[i]` and global tokens are allocated in batch
        // order (exactly what per-call submission would have produced).
        self.cursors.fill(0);
        for access in batch {
            let s = self.interleave.shard_of(access.addr);
            let r = self.split_results[s][self.cursors[s]];
            self.cursors[s] += 1;
            let r = self.register(s, access.kind, r);
            results.push(r);
        }
        for s in 0..self.shards.len() {
            if !self.split[s].is_empty() {
                self.refresh_bound(s, now);
            }
        }
    }

    fn tick(&mut self, now: u64) -> Vec<u64> {
        self.last_now = self.last_now.max(now);
        let mut done = Vec::new();
        if self.advance.is_event_driven() {
            // Step only the shards whose registered bound is due; the
            // rest provably have nothing to report and keep lagging.
            // Due shards are stepped in shard-index order so the merged
            // completion order is a function of the simulated state, not
            // of heap insertion history (batched and per-call ingestion
            // register bounds in different orders but must stay
            // observationally identical).
            let mut due_now = std::mem::take(&mut self.due_now);
            due_now.clear();
            while let Some((at, s)) = self.due.pop_due(now) {
                if self.bounds[s] != at {
                    continue; // stale entry superseded by an earlier bound
                }
                self.bounds[s] = u64::MAX;
                due_now.push(s);
            }
            due_now.sort_unstable();
            for &s in &due_now {
                self.tick_shard(s, now, &mut done);
            }
            self.due_now = due_now;
        } else {
            // Per-cycle reference semantics: every shard steps every call.
            for s in 0..self.shards.len() {
                self.tick_shard(s, now, &mut done);
            }
        }
        done
    }

    fn advance_to(&mut self, target: u64, completions: &mut Vec<(u64, u64)>) {
        self.last_now = self.last_now.max(target);
        let start = completions.len();
        if self.advance.is_event_driven() {
            // Same due-shard discipline as `tick`: shards whose bound is
            // after `target` provably surface nothing in the window.
            let mut due_now = std::mem::take(&mut self.due_now);
            due_now.clear();
            while let Some((at, s)) = self.due.pop_due(target) {
                if self.bounds[s] != at {
                    continue; // stale entry superseded by an earlier bound
                }
                self.bounds[s] = u64::MAX;
                due_now.push(s);
            }
            due_now.sort_unstable();
            for &s in &due_now {
                self.advance_shard_to(s, target, completions);
            }
            self.due_now = due_now;
        } else {
            for s in 0..self.shards.len() {
                self.advance_shard_to(s, target, completions);
            }
        }
        // Shards were advanced in ascending index order; the stable sort
        // re-merges their streams by cycle while keeping shard-index
        // order within a cycle — exactly what a per-cycle tick loop over
        // all shards would have produced.
        completions[start..].sort_by_key(|&(at, _)| at);
    }

    fn next_event(&self, now: u64) -> Option<u64> {
        self.fold_shards(now, |sh, n| sh.next_event(n))
    }

    fn next_completion_event(&self, now: u64) -> Option<u64> {
        self.fold_shards(now, |sh, n| sh.next_completion_event(n))
    }

    fn next_read_capacity_event(&self, now: u64, addr: u64) -> Option<u64> {
        // Capacity for the stalled access frees only on its owning shard
        // (an unrelated shard's empty queue cannot unblock the retry),
        // so bound the wait by that shard's capacity event — but keep
        // every shard's completions observable: a read returning
        // anywhere wakes ROB waiters regardless of the stall.
        let (s, local) = self.interleave.to_local(addr);
        let mut bound = self.shards[s]
            .next_read_capacity_event(now, local)
            .unwrap_or(u64::MAX);
        for (i, shard) in self.shards.iter().enumerate() {
            if i != s {
                if let Some(t) = shard.next_completion_event(now) {
                    bound = bound.min(t);
                }
            }
        }
        (bound != u64::MAX).then(|| bound.max(now + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interleave::LINE_BYTES;

    const CPU_MHZ: u32 = 3200;

    fn engine(n: usize) -> ShardedEngine {
        ShardedEngine::new(SecurityConfig::secddr_ctr(), CPU_MHZ, Interleave::xor(n))
    }

    fn drive_to_completion(e: &mut ShardedEngine, token: u64, start: u64) -> u64 {
        for now in start..start + 100_000 {
            if e.tick(now).contains(&token) {
                return now;
            }
        }
        panic!("request never completed");
    }

    #[test]
    fn read_completes_through_any_shard() {
        let mut e = engine(4);
        for i in 0..4u64 {
            let addr = i * LINE_BYTES; // lines 0..4 hit 4 distinct shards
            let t = e.submit(AccessKind::Read, addr, 100 + i, false).unwrap();
            drive_to_completion(&mut e, t, 101 + i);
        }
        assert_eq!(e.stats().data_reads, 4);
        let reads: Vec<u64> = (0..4).map(|s| e.shard(s).stats().data_reads).collect();
        assert_eq!(reads, vec![1, 1, 1, 1], "one line per shard");
    }

    #[test]
    fn idle_shards_never_tick() {
        let mut e = engine(4);
        // Lines local to shard 0 only (xor(4): line 0 maps to shard 0).
        let addr = e.interleave().to_physical(0, 0x40_0000);
        assert_eq!(e.interleave().shard_of(addr), 0);
        let t = e.submit(AccessKind::Read, addr, 100, false).unwrap();
        drive_to_completion(&mut e, t, 101);
        let ticks = e.shard_tick_counts();
        assert!(ticks[0] > 0, "active shard must step");
        assert_eq!(&ticks[1..], &[0, 0, 0], "idle shards never enter the heap");
    }

    #[test]
    fn batch_results_answer_batch_order() {
        // Same access stream through submit_batch and per-call submit on
        // two identically built engines: identical results and stats.
        let batch: Vec<BatchAccess> = (0..12u64)
            .map(|i| BatchAccess {
                kind: if i % 5 == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                addr: i.wrapping_mul(0x9E37_79B9) & !(LINE_BYTES - 1),
                is_prefetch: false,
            })
            .collect();
        let mut batched = engine(4);
        let mut per_call = engine(4);
        let mut batch_results = Vec::new();
        batched.submit_batch(&batch, 100, &mut batch_results);
        let per_call_results: Vec<_> = batch
            .iter()
            .map(|b| per_call.submit(b.kind, b.addr, 100, b.is_prefetch))
            .collect();
        assert_eq!(batch_results, per_call_results);
        let mut now = 100;
        for _ in 0..500 {
            now += 40;
            assert_eq!(batched.tick(now), per_call.tick(now));
        }
        assert_eq!(batched.stats(), per_call.stats());
        assert_eq!(batched.dram_stats(), per_call.dram_stats());
    }

    #[test]
    fn tracing_is_non_perturbing_and_telemetry_reconciles() {
        // Identical streams through a traced and an untraced engine must
        // produce bit-identical completions and stats; the merged
        // telemetry's cause buckets must partition its decision cycles.
        let mut traced = engine(4);
        let mut plain = engine(4);
        traced.enable_trace(64);
        let mut now = 100u64;
        for i in 0..30u64 {
            let a = traced.submit(AccessKind::Read, i * LINE_BYTES * 3, now, false);
            let b = plain.submit(AccessKind::Read, i * LINE_BYTES * 3, now, false);
            assert_eq!(a, b);
            now += 60;
            assert_eq!(traced.tick(now), plain.tick(now));
        }
        for _ in 0..300 {
            now += 50;
            assert_eq!(traced.tick(now), plain.tick(now));
        }
        assert_eq!(traced.stats(), plain.stats());
        assert_eq!(traced.dram_stats(), plain.dram_stats());
        let t = traced.dram_telemetry();
        assert_eq!(t, plain.dram_telemetry());
        assert_eq!(t.causes.total(), t.decision_cycles);
        assert!(t.causes.completion > 0, "reads completed");
        let sink = traced.take_trace().expect("tracing was enabled");
        assert!(!sink.is_empty(), "stepped shards recorded spans");
        assert!(
            sink.spans().all(|sp| sp.start <= sp.end),
            "spans are well-formed windows"
        );
    }

    #[test]
    fn merged_stats_sum_over_shards() {
        let mut e = engine(2);
        let mut now = 100u64;
        for i in 0..40u64 {
            let _ = e.submit(AccessKind::Read, i * LINE_BYTES * 7, now, false);
            now += 100;
            e.tick(now);
        }
        for _ in 0..200 {
            now += 50;
            e.tick(now);
        }
        let merged = e.stats();
        let by_hand = e.shard(0).stats().data_reads + e.shard(1).stats().data_reads;
        assert_eq!(merged.data_reads, by_hand);
        let dram = e.dram_stats();
        assert_eq!(
            dram.reads,
            e.shard(0).dram_stats().reads + e.shard(1).dram_stats().reads
        );
    }
}
