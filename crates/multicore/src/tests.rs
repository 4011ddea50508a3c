//! Scheduler tests that drive it through this crate's rate-mode traces
//! (the scheduler's own unit tests live beside it in `cpu-model`).

use crate::{AddressSpace, CoreTrace, MultiCoreSystem};
use cpu_model::{Advance, CpuConfig, FixedLatencyBackend, TraceOp};
use std::sync::Arc;

fn mixed_trace(seed: u64, len: u64) -> Vec<TraceOp> {
    (0..len)
        .map(|i| {
            let x = (i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16;
            match x % 5 {
                0 => TraceOp::Compute((x % 40) as u32 + 1),
                1 => TraceOp::Load((x << 3) & 0xFFF_FFC0),
                2 => TraceOp::DependentLoad((x << 4) & 0xFFF_FFC0),
                3 => TraceOp::Store((x << 3) & 0xFFF_FFC0),
                _ => TraceOp::Load((x % 2048) * 64),
            }
        })
        .collect()
}

fn cfg(advance: Advance) -> CpuConfig {
    CpuConfig {
        advance,
        ..CpuConfig::default()
    }
}

#[test]
fn rate_mode_retires_every_copy() {
    let trace = Arc::new(mixed_trace(3, 2_000));
    let per_copy: u64 = trace.iter().map(TraceOp::instructions).sum();
    let mut sys = MultiCoreSystem::new(4, cfg(Advance::ToNextEvent), FixedLatencyBackend::new(200));
    let result = sys.run(CoreTrace::rate(&trace, 1 << 32, 4));
    assert_eq!(result.per_core.len(), 4);
    for r in &result.per_core {
        assert_eq!(r.instructions, per_copy);
    }
    assert_eq!(result.merged().instructions, 4 * per_copy);
    assert_eq!(
        result.merged().cycles,
        result.per_core.iter().map(|r| r.cycles).max().unwrap()
    );
}

#[test]
fn per_core_llc_shares_sum_to_shared_totals() {
    let trace = Arc::new(mixed_trace(11, 3_000));
    let mut sys = MultiCoreSystem::new(4, cfg(Advance::ToNextEvent), FixedLatencyBackend::new(150));
    let result = sys.run(CoreTrace::rate(&trace, 1 << 32, 4));
    let merged = result.merged();
    assert_eq!(&merged.llc, sys.llc_stats());
    assert!(merged.llc.misses > 0);
}

#[test]
fn heterogeneous_mix_produces_per_core_results() {
    let a = Arc::new(mixed_trace(1, 1_500));
    let b = Arc::new((0..500).map(|_| TraceOp::Compute(50)).collect::<Vec<_>>());
    let mut sys = MultiCoreSystem::new(2, cfg(Advance::ToNextEvent), FixedLatencyBackend::new(220));
    let result = sys.run(CoreTrace::mix(
        vec![Arc::clone(&a), Arc::clone(&b)],
        1 << 32,
    ));
    let ia: u64 = a.iter().map(TraceOp::instructions).sum();
    let ib: u64 = b.iter().map(TraceOp::instructions).sum();
    assert_eq!(result.per_core[0].instructions, ia);
    assert_eq!(result.per_core[1].instructions, ib);
    assert!(result.per_core[1].ipc() > result.per_core[0].ipc());
}

#[test]
fn identity_address_space_shares_lines_across_cores() {
    // Core 0 fetches a line; core 1 touches the same trace address
    // much later (after a long compute ramp). With the identity
    // disambiguator core 1 hits the line core 0 installed in the
    // shared LLC; with per-core windows the addresses are disjoint
    // and both cores miss.
    let early = Arc::new(vec![TraceOp::Load(0x40_0000)]);
    let late = Arc::new(vec![TraceOp::Compute(6_000), TraceOp::Load(0x40_0000)]);
    let misses_with = |space: AddressSpace| {
        let mut sys =
            MultiCoreSystem::new(2, cfg(Advance::ToNextEvent), FixedLatencyBackend::new(100));
        let traces = vec![
            CoreTrace::new(Arc::clone(&early), 0, space),
            CoreTrace::new(Arc::clone(&late), 1, space),
        ];
        sys.run(traces).merged().llc.misses
    };
    assert_eq!(misses_with(AddressSpace::identity()), 1);
    assert_eq!(misses_with(AddressSpace::windows(1 << 32, 2)), 2);
}

#[test]
fn second_run_continues_cumulatively() {
    let trace = Arc::new(mixed_trace(9, 800));
    let per_copy: u64 = trace.iter().map(TraceOp::instructions).sum();
    let mut sys = MultiCoreSystem::new(2, cfg(Advance::ToNextEvent), FixedLatencyBackend::new(150));
    let r1 = sys.run(CoreTrace::rate(&trace, 1 << 32, 2));
    let r2 = sys.run(CoreTrace::rate(&trace, 1 << 32, 2));
    for (a, b) in r1.per_core.iter().zip(&r2.per_core) {
        assert_eq!(a.instructions, per_copy);
        assert_eq!(b.instructions, 2 * per_copy, "counters accumulate");
        assert!(b.cycles > a.cycles, "clock keeps advancing");
    }
}
