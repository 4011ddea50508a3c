//! Multi-core front-end in a few lines: N OOO cores sharing one LLC and
//! one 4-channel SecDDR memory system.
//!
//! Runs the paper's 4-core *rate* mode (four copies of one benchmark,
//! each relocated into its own address window of the 10 GiB data span)
//! and one heterogeneous mix, printing per-core IPC, aggregate IPC, and
//! weighted speedup against each benchmark running alone on the same
//! memory system. One scheduler serves 1..N cores: `CpuSystem` is that
//! scheduler built with one core, so the N=1 rate run is asserted
//! bit-identical to the stand-alone `CpuSystem` run.
//!
//! Run with: `cargo run --release --example multicore`
//! (`SECDDR_INSTRS` overrides the per-core instruction budget.)

use std::sync::Arc;

use secddr::core::config::SecurityConfig;
use secddr::core::metadata::DATA_SPAN;
use secddr::cpu::{CpuConfig, CpuSystem, TraceOp};
use secddr::workloads::Benchmark;
use secddr::{CoreTrace, Interleave, MultiCoreSystem, ShardedEngine};

const CHANNELS: usize = 4;

fn engine(cfg: SecurityConfig, cpu_cfg: CpuConfig) -> ShardedEngine {
    ShardedEngine::new(cfg, cpu_cfg.clock_mhz, Interleave::xor(CHANNELS))
}

/// One benchmark running alone (one core, same shared memory system):
/// the baseline of the weighted-speedup metric and of the N=1 bit-
/// identity assert.
fn run_alone(
    trace: &Arc<Vec<TraceOp>>,
    cfg: SecurityConfig,
    cpu_cfg: CpuConfig,
) -> secddr::cpu::SimResult {
    let mut sys = CpuSystem::new(cpu_cfg, engine(cfg, cpu_cfg));
    let mut streams = CoreTrace::rate(trace, DATA_SPAN, 1);
    sys.run(streams.remove(0))
}

fn main() {
    let instructions = std::env::var("SECDDR_INSTRS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40_000);
    let cfg = SecurityConfig::secddr_ctr();
    let cpu_cfg = CpuConfig::default();

    println!("== multi-core front-end over {CHANNELS} SecDDR channels ==\n");

    // ---- Rate mode: N copies of one benchmark, disjoint windows. ----
    let bench = Benchmark::by_name("mcf").expect("known benchmark");
    let trace = bench.generate_shared(instructions, 0xD5);
    println!(
        "rate mode: {} x {} instructions, config {}\n",
        bench.name(),
        instructions,
        cfg.label()
    );

    let alone = run_alone(&trace, cfg, cpu_cfg);
    let single = alone.ipc();
    for n in [1usize, 2, 4] {
        let mut sys = MultiCoreSystem::new(n, cpu_cfg, engine(cfg, cpu_cfg));
        let result = sys.run(CoreTrace::rate(&trace, DATA_SPAN, n));
        let per_core: Vec<String> = result
            .per_core
            .iter()
            .map(|r| format!("{:.3}", r.ipc()))
            .collect();
        println!(
            "{n} core{}   per-core ipc [{}]  aggregate ipc {:.3}  weighted speedup {:.2}",
            if n == 1 { " " } else { "s" },
            per_core.join(", "),
            result.aggregate_ipc(),
            result.weighted_speedup(&vec![single; n]),
        );
        if n == 1 {
            // `CpuSystem` is the same scheduler with one core.
            assert_eq!(
                result.per_core[0], alone,
                "N=1 must match the one-core CpuSystem"
            );
            println!("          (asserted bit-identical to the one-core CpuSystem)");
        }
    }

    // ---- Heterogeneous mix: a different benchmark per core. ----
    let names = ["mcf", "omnetpp", "gcc", "povray"];
    println!("\nheterogeneous mix: {names:?}\n");
    let traces: Vec<Arc<Vec<TraceOp>>> = names
        .iter()
        .map(|n| {
            Benchmark::by_name(n)
                .expect("known benchmark")
                .generate_shared(instructions, 0xD5)
        })
        .collect();
    let alone: Vec<f64> = traces
        .iter()
        .map(|t| run_alone(t, cfg, cpu_cfg).ipc())
        .collect();
    let mut sys = MultiCoreSystem::new(names.len(), cpu_cfg, engine(cfg, cpu_cfg));
    let result = sys.run(CoreTrace::mix(traces, DATA_SPAN));
    for (i, name) in names.iter().enumerate() {
        println!(
            "core {i} ({name:>8})   ipc {:.3}  (alone {:.3})",
            result.per_core[i].ipc(),
            alone[i],
        );
    }
    println!(
        "aggregate ipc {:.3}  weighted speedup {:.2}  merged llc miss rate {:.3}",
        result.aggregate_ipc(),
        result.weighted_speedup(&alone),
        result.merged().llc.miss_rate(),
    );

    println!(
        "\nEach core is a full OOO pipeline (ROB, L1D, stream prefetcher)\n\
         (cpu-model's CoreEngine); all cores share one LLC and one\n\
         sharded memory engine through the MemoryBackend seam. The\n\
         scheduler steps only cores whose next-event bound is due — a\n\
         long-stalled core costs nothing while its neighbours run."
    );
}
