//! Per-layer metrics shared by the simulation workloads: the
//! `MemoryBackend` seam, the engine's own statistics, and the
//! trace-cache tiers.

use dram_sim::ControllerTelemetry;
use secddr_core::engine::EngineStats;
use workloads::TraceCacheStats;

use crate::seam::{SeamTimes, CALLS};
use crate::Metrics;

/// `backend.*`: seam call counts, self-time and ns per call kind.
pub fn backend_layers(seam: &SeamTimes, self_s: f64) -> Metrics {
    let mut m: Metrics = CALLS
        .iter()
        .map(|(kind, name)| {
            (
                format!("backend.{name}_calls"),
                "count",
                seam.calls[*kind as usize] as f64,
            )
        })
        .collect();
    m.push(("backend.self_s".into(), "s", self_s));
    for (kind, name) in CALLS {
        m.push((
            format!("backend.ns_per_call.{name}"),
            "ns",
            seam.ns_per_call(kind),
        ));
    }
    m
}

/// `core.*` and `dram.*` from the engine's own statistics.
pub fn engine_layers(engine: &EngineStats, dram: &ControllerTelemetry, backend_s: f64) -> Metrics {
    let md = engine.metadata_cache;
    let lookups = md.hits + md.misses;
    let c = dram.causes;
    let mut m: Metrics = vec![
        (
            "core.metadata_hit_ratio".into(),
            "ratio",
            if lookups == 0 {
                0.0
            } else {
                md.hits as f64 / lookups as f64
            },
        ),
        (
            "core.engine_accesses".into(),
            "count",
            (engine.data_reads + engine.data_writes) as f64,
        ),
        (
            "dram.decision_cycles".into(),
            "count",
            dram.decision_cycles as f64,
        ),
        ("dram.busy_cycles".into(), "count", dram.busy_cycles as f64),
        (
            "dram.decision_fraction".into(),
            "ratio",
            dram.decision_cycles as f64 / dram.busy_cycles.max(1) as f64,
        ),
        (
            "dram.ns_per_decision".into(),
            "ns",
            backend_s * 1e9 / dram.decision_cycles.max(1) as f64,
        ),
    ];
    for (name, v) in [
        ("issue_hit", c.issue_hit),
        ("issue_miss", c.issue_miss),
        ("refresh", c.refresh),
        ("completion", c.completion),
        ("drain_flip", c.drain_flip),
        ("aging", c.aging),
        ("noop", c.noop),
    ] {
        m.push((format!("dram.causes.{name}"), "count", v as f64));
    }
    m
}

/// `workloads.*`: generation seconds and the trace-cache tier counters
/// since `before`.
pub fn trace_cache_layers(before: TraceCacheStats, generate_s: f64) -> Metrics {
    let now = workloads::trace_cache_stats();
    vec![
        ("workloads.generate_s".into(), "s", generate_s),
        (
            "workloads.trace_cache.memory_hits".into(),
            "count",
            (now.memory_hits - before.memory_hits) as f64,
        ),
        (
            "workloads.trace_cache.disk_hits".into(),
            "count",
            (now.disk_hits - before.disk_hits) as f64,
        ),
        (
            "workloads.trace_cache.generated".into(),
            "count",
            (now.generated - before.generated) as f64,
        ),
    ]
}
