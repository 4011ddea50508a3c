//! `rate_n16`: mcf × SecDDR+CTR in rate mode — 16 cores sharing the LLC
//! and a 4-channel xor-interleaved `ShardedEngine` through
//! `MultiCoreSystem`, on one host thread. One round is one full run;
//! rounds repeat until the measured seconds are used up.

use std::sync::Arc;
use std::time::Instant;

use cpu_model::{CpuConfig, TraceOp};
use dram_sim::ControllerTelemetry;
use secddr_channels::{Interleave, ShardedEngine};
use secddr_core::config::SecurityConfig;
use secddr_core::engine::{EngineOptions, EngineStats};
use secddr_core::metadata::DATA_SPAN;
use secddr_multicore::{CoreTrace, MultiCoreResult, MultiCoreSystem};
use workloads::Benchmark;

use crate::layers::{backend_layers, engine_layers, trace_cache_layers};
use crate::seam::{SeamTimes, Timed};
use crate::spans::SpanLog;
use crate::stats::{digest_of, mean, median, quantile};
use crate::{timed, Opts, Outcome};

const CORES: usize = 16;
const CHANNELS: usize = 4;
/// Instructions per core.
const BUDGET: u64 = 40_000;
const SMOKE_BUDGET: u64 = 2_000;

/// Share of a traced round (construction, run, statistics read-out) the
/// multicore and backend self-times may leave uncovered.
const COVERAGE_SLACK: f64 = 0.05;

fn engine() -> ShardedEngine {
    let options = EngineOptions::default();
    ShardedEngine::with_options(
        SecurityConfig::secddr_ctr(),
        CpuConfig::default().clock_mhz,
        Interleave::xor(CHANNELS),
        options,
    )
}

fn cpu_config() -> CpuConfig {
    let options = EngineOptions::default();
    CpuConfig {
        advance: options.advance,
        batch_submit: options.batched_ingestion,
        ..CpuConfig::default()
    }
}

/// The trace and the first round's ready-to-run system.
pub struct State {
    trace: Arc<Vec<TraceOp>>,
    /// Instructions in the trace (what every core must retire).
    instructions: u64,
    generate_s: f64,
}

/// Generates the mcf trace and builds the system; returns both with the
/// setup seconds.
pub fn setup(opts: &Opts) -> ((State, MultiCoreSystem<ShardedEngine>), f64) {
    let budget = if opts.smoke { SMOKE_BUDGET } else { BUDGET };
    timed(|| {
        let (trace, generate_s) = timed(|| {
            Benchmark::by_name("mcf")
                .expect("mcf exists")
                .generate_shared(budget, opts.seed)
        });
        let instructions = trace.iter().map(|op| op.instructions()).sum();
        let system = MultiCoreSystem::new(CORES, cpu_config(), engine());
        (
            State {
                trace,
                instructions,
                generate_s,
            },
            system,
        )
    })
}

/// What one round leaves behind for the checks and layer metrics.
struct Round {
    result: MultiCoreResult,
    engine: EngineStats,
    digest: u64,
    dram: ControllerTelemetry,
    seam: SeamTimes,
    steps: u64,
    wake: secddr_multicore::WakeReasons,
    shard_ticks: Vec<u64>,
}

fn finish_round<B: cpu_model::MemoryBackend>(
    sys: &mut MultiCoreSystem<B>,
    result: MultiCoreResult,
    sharded: impl FnOnce(&mut B) -> &mut ShardedEngine,
    seam: SeamTimes,
) -> Round {
    let steps = sys.core_step_counts().iter().sum();
    let wake = sys.wake_reasons();
    let eng = sharded(sys.backend_mut());
    let engine = eng.stats();
    let dram_stats = eng.dram_stats();
    Round {
        digest: digest_of(&(&result, &engine, &dram_stats)),
        result,
        engine,
        dram: eng.dram_telemetry(),
        seam,
        steps,
        wake,
        shard_ticks: eng.shard_tick_counts().to_vec(),
    }
}

/// Runs one round on `untraced` (the setup's system) or a fresh system.
fn round(
    state: &State,
    untraced: Option<MultiCoreSystem<ShardedEngine>>,
    traced: bool,
) -> (Round, f64) {
    let traces = || CoreTrace::rate(&state.trace, DATA_SPAN, CORES);
    if traced {
        let mut sys = MultiCoreSystem::new(CORES, cpu_config(), Timed::new(engine()));
        let (result, secs) = timed(|| sys.run(traces()));
        let seam = sys.backend().times();
        (finish_round(&mut sys, result, Timed::inner_mut, seam), secs)
    } else {
        let mut sys =
            untraced.unwrap_or_else(|| MultiCoreSystem::new(CORES, cpu_config(), engine()));
        let (result, secs) = timed(|| sys.run(traces()));
        (
            finish_round(&mut sys, result, |e| e, SeamTimes::default()),
            secs,
        )
    }
}

/// Setup, then rounds of the 16-core rate run for the measured seconds.
pub fn run(opts: &Opts, spans: Option<&SpanLog>) -> (f64, Outcome) {
    let before = workloads::trace_cache_stats();
    let ((state, system), setup_s) = setup(opts);
    let traced = spans.is_some();
    let mut system = Some(system);
    let mut out = Outcome::default();
    let mut walls = Vec::new();
    let mut mips = Vec::new();
    let mut backend_s = Vec::new();
    let mut covered = Vec::new();
    let mut first: Option<Round> = None;
    let measure_start = Instant::now();
    while walls.is_empty() || measure_start.elapsed().as_secs_f64() < opts.seconds {
        let start = Instant::now();
        let (r, wall) = round(&state, system.take(), traced);
        let end = Instant::now();
        out.attempted += 1;
        let retired: u64 = r.result.per_core.iter().map(|s| s.instructions).sum();
        walls.push(wall);
        mips.push(retired as f64 / wall / 1e6);
        backend_s.push(r.seam.self_s());
        let short = r
            .result
            .per_core
            .iter()
            .filter(|s| s.instructions != state.instructions)
            .count();
        if short > 0 || r.result.per_core.len() != CORES {
            out.fail(
                1,
                format!(
                    "{short} core(s) did not retire {} instructions",
                    state.instructions
                ),
            );
        }
        if let Some(first) = &first {
            if first.digest != r.digest {
                out.fail(1, "rate-mode results changed between rounds".into());
            }
        }
        if let Some(log) = spans {
            covered.push(wall / (end - start).as_secs_f64());
            let parent = log.record("rate.round", start, end, None, walls.len() as u64, 0);
            log.record(
                "rate.run",
                end - std::time::Duration::from_secs_f64(wall),
                end,
                Some(parent),
                walls.len() as u64,
                0,
            );
        }
        if first.is_none() {
            first = Some(r);
        }
    }
    let r = first.expect("at least one round");
    out.digests = vec![r.digest];
    out.round_s = median(&walls);
    out.e2e = vec![
        ("wall_s".into(), "s", median(&walls)),
        ("sim_mips".into(), "Minstr/s", median(&mips)),
        ("cell_mean_ms".into(), "ms", mean(&walls) * 1e3),
        ("cell_p90_ms".into(), "ms", quantile(&walls, 0.9) * 1e3),
        ("slo_cells_per_s".into(), "1/s", 1.0 / median(&walls)),
    ];
    if traced {
        let self_s = median(&backend_s);
        let wall = median(&walls);
        let mut m = backend_layers(&r.seam, self_s);
        m.extend(engine_layers(&r.engine, &r.dram, self_s));
        m.extend(trace_cache_layers(before, state.generate_s));
        m.push(("multicore.self_s".into(), "s", wall - self_s));
        m.push(("multicore.core_steps".into(), "count", r.steps as f64));
        let w = r.wake;
        for (name, v) in [
            ("completion", w.completion),
            ("timer", w.timer),
            ("spurious", w.spurious),
            ("submit_rederive", w.submit_rederive),
        ] {
            m.push((format!("multicore.wake.{name}"), "count", v as f64));
        }
        let ticks: u64 = r.shard_ticks.iter().sum();
        let max = r.shard_ticks.iter().copied().max().unwrap_or(0);
        m.push(("channels.shard_ticks".into(), "count", ticks as f64));
        m.push((
            "channels.imbalance".into(),
            "ratio",
            max as f64 * r.shard_ticks.len() as f64 / ticks.max(1) as f64,
        ));
        // Backend plus multicore self-time is the run by construction;
        // what is checked is that the run covers its round (system
        // construction, the run, statistics read-out) and that the seam
        // never claims more than the run it sits in.
        let coverage = median(&covered);
        m.push(("trace.coverage".into(), "ratio", coverage));
        if coverage < 1.0 - COVERAGE_SLACK || self_s > wall {
            out.fail(
                0,
                format!(
                    "layer self-times do not reconcile: run covers {coverage:.3} of its round \
                     (allowed >= {:.2}), backend {self_s:.3} s of a {wall:.3} s run",
                    1.0 - COVERAGE_SLACK
                ),
            );
        }
        out.layers = m;
    }
    (setup_s, out)
}
