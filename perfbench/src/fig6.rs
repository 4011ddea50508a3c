//! `fig6_sweep`: the paper's Figure 6 matrix — 29 benchmarks × (TDX +
//! 5 security configurations), 1 core × 1 channel. One round is the
//! whole matrix; rounds repeat until the measured seconds are used up.
//!
//! The cells run one after another on the calling thread, over traces
//! generated in setup. `par_sweep` would put one helper per vCPU beside
//! the caller: more threads than a small shared host has, so a round
//! would time the scheduler as much as the simulator. Each cell is one
//! latency sample. The results are gathered into a `runner::Sweep`,
//! whose gmeans the checks and headlines use.

use std::sync::Arc;
use std::time::Instant;

use cpu_model::{CpuConfig, CpuSystem, TraceOp};
use dram_sim::ControllerTelemetry;
use secddr_bench::runner::Sweep;
use secddr_core::config::SecurityConfig;
use secddr_core::engine::{EngineOptions, EngineStats, SecurityEngine};
use secddr_core::system::{run_trace_with_options, RunResult};
use workloads::Benchmark;

use crate::layers::{backend_layers, engine_layers, trace_cache_layers};
use crate::seam::{SeamTimes, Timed};
use crate::spans::SpanLog;
use crate::stats::{digest_of, mean, median, quantile};
use crate::{timed, Metrics, Opts, Outcome};

/// Instructions per cell.
const BUDGET: u64 = 40_000;
const SMOKE_BUDGET: u64 = 3_000;

/// Share of the round wall the traced cells may leave uncovered: the
/// loop between them and the round's bookkeeping.
const COVERAGE_SLACK: f64 = 0.05;

/// The Figure 6 columns: the TDX baseline first, then the five configs.
fn configs() -> [SecurityConfig; 6] {
    [
        SecurityConfig::tdx_baseline(),
        SecurityConfig::tree_64ary(),
        SecurityConfig::secddr_ctr(),
        SecurityConfig::encrypt_only_ctr(),
        SecurityConfig::secddr_xts(),
        SecurityConfig::encrypt_only_xts(),
    ]
}
/// Columns of the [`Sweep`] (the configs after TDX).
const TREE: usize = 0;
const SECDDR_CTR: usize = 1;
const ENC_CTR: usize = 2;
const SECDDR_XTS: usize = 3;
const ENC_XTS: usize = 4;

/// Generated inputs.
pub struct State {
    benches: Vec<Benchmark>,
    traces: Vec<Arc<Vec<TraceOp>>>,
    /// Instructions in each trace (what every cell must retire).
    instructions: Vec<u64>,
}

/// Generates the 29 traces (memoized per process, persisted to the run's
/// fresh trace cache); returns them with the setup seconds.
pub fn setup(opts: &Opts) -> (State, f64) {
    let budget = if opts.smoke { SMOKE_BUDGET } else { BUDGET };
    let seed = opts.seed;
    timed(|| {
        let benches = Benchmark::all();
        let traces: Vec<_> = benches
            .iter()
            .map(|b| b.generate_shared(budget, seed))
            .collect();
        let instructions = traces
            .iter()
            .map(|t| t.iter().map(|op| op.instructions()).sum())
            .collect();
        State {
            benches,
            traces,
            instructions,
        }
    })
}

/// One simulated cell.
struct Cell {
    result: RunResult,
    start: Instant,
    end: Instant,
    /// Host seconds inside `CpuSystem::run` (traced runs).
    run_s: f64,
    /// Seam counts and times (traced runs).
    seam: SeamTimes,
    /// Controller telemetry (traced runs).
    dram: ControllerTelemetry,
}

/// The traced cell: `run_trace_with_options` rebuilt over the timing
/// decorator, so the simulated result must match it bit for bit. Also
/// returns the host seconds of `CpuSystem::run`, timed apart from the
/// seam.
fn traced_cell(
    bench: &Benchmark,
    trace: &[TraceOp],
    config: &SecurityConfig,
) -> (RunResult, f64, SeamTimes, ControllerTelemetry) {
    let options = EngineOptions::default();
    let cpu_cfg = CpuConfig {
        advance: options.advance,
        batch_submit: options.batched_ingestion,
        ..CpuConfig::default()
    };
    let engine = SecurityEngine::with_options(*config, cpu_cfg.clock_mhz, options);
    let mut system = CpuSystem::new(cpu_cfg, Timed::new(engine));
    let (sim, run_s) = timed(|| system.run(trace.iter().copied()));
    let backend = system.backend();
    let result = RunResult {
        benchmark: bench.name(),
        config: config.label(),
        sim,
        engine: backend.inner().stats(),
        dram: backend.inner().dram_stats(),
    };
    (
        result,
        run_s,
        backend.times(),
        backend.inner().dram_telemetry(),
    )
}

fn round(state: &State, traced: bool) -> (Vec<Cell>, Instant, Instant) {
    let start = Instant::now();
    let mut out = Vec::with_capacity(state.benches.len() * configs().len());
    for (bench, trace) in state.benches.iter().zip(&state.traces) {
        for config in configs() {
            let start = Instant::now();
            let (result, run_s, seam, dram) = if traced {
                traced_cell(bench, trace, &config)
            } else {
                let r = run_trace_with_options(bench, trace, &config, EngineOptions::default());
                (r, 0.0, SeamTimes::default(), ControllerTelemetry::default())
            };
            out.push(Cell {
                result,
                start,
                end: Instant::now(),
                run_s,
                seam,
                dram,
            });
        }
    }
    (out, start, Instant::now())
}

/// Digest of one cell's simulated outputs (core, engine and DRAM).
fn cell_digest(r: &RunResult) -> u64 {
    digest_of(&(&r.sim, &r.engine, &r.dram))
}

/// The round's results as a `runner::Sweep`: TDX is the baseline, the
/// other five configs are its columns.
fn as_sweep(cells: &[Cell], benches: &[Benchmark]) -> Sweep {
    let per = configs().len();
    let row = |b: usize| {
        cells[b * per..(b + 1) * per]
            .iter()
            .map(|c| c.result.clone())
    };
    Sweep {
        benches: benches.to_vec(),
        configs: configs()[1..].to_vec(),
        results: (0..benches.len())
            .map(|b| row(b).skip(1).collect())
            .collect(),
        baseline: (0..benches.len())
            .map(|b| row(b).next().expect("TDX cell"))
            .collect(),
    }
}

/// Prints the Figure 6 headline deltas beside the paper's values
/// (informational: deterministic modelled numbers, not metrics).
fn print_headlines(sweep: &Sweep) {
    let g = |c| sweep.gmeans(c);
    let pct = |a: f64, b: f64| (a / b - 1.0) * 100.0;
    let (tree, tree_mem) = g(TREE);
    let (sctr, sctr_mem) = g(SECDDR_CTR);
    let (ectr, _) = g(ENC_CTR);
    let (sxts, sxts_mem) = g(SECDDR_XTS);
    let (exts, _) = g(ENC_XTS);
    println!("Figure 6 headline deltas (reproduced [paper]; cold caches, no warmup):");
    println!(
        "  SecDDR+CTR vs 64-ary tree, all      {:+.1}% [+9.6%]",
        pct(sctr, tree)
    );
    println!(
        "  SecDDR+CTR vs 64-ary tree, mem-int  {:+.1}% [+18.0%]",
        pct(sctr_mem, tree_mem)
    );
    println!(
        "  SecDDR+CTR vs encrypt-only CTR      {:+.1}% [within 3%]",
        pct(sctr, ectr)
    );
    println!(
        "  SecDDR+XTS vs 64-ary tree, all      {:+.1}% [+18.8%]",
        pct(sxts, tree)
    );
    println!(
        "  SecDDR+XTS vs 64-ary tree, mem-int  {:+.1}% [+37.7%]",
        pct(sxts_mem, tree_mem)
    );
    println!(
        "  SecDDR+XTS vs encrypt-only XTS      {:+.1}% [within 1%]",
        pct(sxts, exts)
    );
}

/// Setup, then rounds of the full matrix for the measured seconds.
pub fn run(opts: &Opts, spans: Option<&SpanLog>) -> (f64, Outcome) {
    let before = workloads::trace_cache_stats();
    let (state, setup_s) = setup(opts);
    let traced = spans.is_some();
    let mut out = Outcome::default();
    let mut rounds = 0u64;
    // Host seconds of each cell, one entry per round.
    let mut cell_times: Vec<Vec<f64>> = Vec::new();
    let mut covered = Vec::new();
    let mut backend_s = Vec::new();
    let mut first: Option<Vec<Cell>> = None;
    let measure_start = Instant::now();
    while rounds == 0 || measure_start.elapsed().as_secs_f64() < opts.seconds {
        let (cells, start, end) = round(&state, traced);
        let wall = (end - start).as_secs_f64();
        rounds += 1;
        cell_times.resize_with(cells.len(), Vec::new);
        for (times, c) in cell_times.iter_mut().zip(&cells) {
            times.push((c.end - c.start).as_secs_f64());
        }
        out.attempted += cells.len() as u64;

        let per = configs().len();
        for (i, cell) in cells.iter().enumerate() {
            let want = state.instructions[i / per];
            if cell.result.sim.instructions != want {
                out.fail(
                    1,
                    format!(
                        "{} x {} retired {} of {want} instructions",
                        cell.result.benchmark, cell.result.config, cell.result.sim.instructions
                    ),
                );
            }
        }
        if let Some(first) = &first {
            let drift = first
                .iter()
                .zip(&cells)
                .filter(|(a, b)| cell_digest(&a.result) != cell_digest(&b.result))
                .count();
            if drift > 0 {
                out.fail(
                    drift as u64,
                    format!("{drift} cell(s) changed between rounds"),
                );
            }
        }

        if let Some(log) = spans {
            // Four independent timers nest: the seam inside each
            // `CpuSystem::run`, the run inside its cell, the cells inside
            // the round.
            let run_s: f64 = cells.iter().map(|c| c.run_s).sum();
            let busy: f64 = cells.iter().map(|c| (c.end - c.start).as_secs_f64()).sum();
            covered.push(busy / wall);
            let over = cells
                .iter()
                .filter(|c| c.seam.self_s() > c.run_s || c.run_s > (c.end - c.start).as_secs_f64())
                .count();
            if over > 0 {
                out.fail(
                    0,
                    format!("{over} cell(s): seam time exceeds the run, or the run its cell"),
                );
            }
            let mut seam = SeamTimes::default();
            cells.iter().for_each(|c| seam.merge(&c.seam));
            backend_s.push((seam.self_s(), run_s));
            let parent = log.record("fig6.round", start, end, None, rounds, 0);
            for (i, c) in cells.iter().enumerate() {
                log.record("fig6.cell", c.start, c.end, Some(parent), i as u64, 1);
            }
        }
        if first.is_none() {
            first = Some(cells);
        }
    }
    let cells = first.expect("at least one round");
    let sweep = as_sweep(&cells, &state.benches);
    let (tree, _) = sweep.gmeans(TREE);
    let (sctr, _) = sweep.gmeans(SECDDR_CTR);
    if sctr <= tree {
        out.fail(
            1,
            format!(
                "Figure 6 ordering: SecDDR+CTR gmean {sctr:.4} not above the 64-ary tree {tree:.4}"
            ),
        );
    }
    print_headlines(&sweep);
    out.digests = cells.iter().map(|c| cell_digest(&c.result)).collect();
    // A round's wall is the sum of its cells' times, each the median over
    // the rounds: a burst of interference from the host slows a few
    // cells of one round, and the per-cell median drops it.
    let cell_s: Vec<f64> = cell_times.iter().map(|t| median(t)).collect();
    let wall: f64 = cell_s.iter().sum();
    let retired: u64 = cells.iter().map(|c| c.result.sim.instructions).sum();
    out.round_s = wall;
    out.e2e = vec![
        ("wall_s".into(), "s", wall),
        ("sim_mips".into(), "Minstr/s", retired as f64 / wall / 1e6),
        ("cell_mean_ms".into(), "ms", mean(&cell_s) * 1e3),
        ("cell_p90_ms".into(), "ms", quantile(&cell_s, 0.9) * 1e3),
        ("slo_cells_per_s".into(), "1/s", cell_s.len() as f64 / wall),
    ];
    if traced {
        out.layers = layers(&cells, &backend_s, &covered, setup_s, before);
        let coverage = median(&covered);
        if !(1.0 - COVERAGE_SLACK..=1.01).contains(&coverage) {
            out.fail(
                0,
                format!(
                    "cells cover {coverage:.3} of the round wall \
                     (allowed {:.2}..1.01)",
                    1.0 - COVERAGE_SLACK
                ),
            );
        }
    }
    (setup_s, out)
}

/// Per-layer metrics of one traced round (counts are per round; times
/// are medians over the traced rounds).
fn layers(
    cells: &[Cell],
    backend_s: &[(f64, f64)],
    covered: &[f64],
    setup_s: f64,
    before: workloads::TraceCacheStats,
) -> Metrics {
    let mut seam = SeamTimes::default();
    let mut engine = EngineStats::default();
    let mut dram = ControllerTelemetry::default();
    for c in cells {
        seam.merge(&c.seam);
        engine.merge(&c.result.engine);
        dram.merge(&c.dram);
    }
    let self_s = median(&backend_s.iter().map(|(b, _)| *b).collect::<Vec<_>>());
    let cpu_s = median(&backend_s.iter().map(|(b, run)| run - b).collect::<Vec<_>>());
    let mut m = backend_layers(&seam, self_s);
    m.extend(engine_layers(&engine, &dram, self_s));
    m.extend(trace_cache_layers(before, setup_s));
    m.push(("cpu.self_s".into(), "s", cpu_s));
    m.push(("trace.coverage".into(), "ratio", median(covered)));
    m
}
