//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <fig6_sweep|rate_n16|fleet_cells> --seed <n> \
//!           --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Builds its inputs from `--seed`, measures for `--seconds`, checks the
//! simulated outputs, and prints one JSON object as the last stdout line:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` runs an untraced reference in a
//! child process, then the traced run, and reports the per-layer metrics.
//! Metric definitions and the layer → end-to-end map are in `README.md`.
//!
//! Each run works in a fresh `.perfbench/run-*` directory under the
//! current directory (trace cache, job log, result store) and removes it
//! on exit; the traced run's span files stay in `.perfbench/`.

mod fig6;
mod fleet;
mod layers;
mod rate;
mod seam;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use secddr_service::Json;

use crate::spans::SpanLog;

/// End-to-end metrics: `(name, unit)`, reported by `--trace 0`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_mips", "Minstr/s"),
    ("cell_mean_ms", "ms"),
    ("cell_p90_ms", "ms"),
    ("slo_cells_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`, reported by `--trace 1`. A layer a
/// workload never enters reports 0 (see README.md for which are live).
pub const PER_LAYER: [(&str, &str); 48] = [
    ("workloads.generate_s", "s"),
    ("workloads.trace_cache.memory_hits", "count"),
    ("workloads.trace_cache.disk_hits", "count"),
    ("workloads.trace_cache.generated", "count"),
    ("backend.submit_calls", "count"),
    ("backend.tick_calls", "count"),
    ("backend.advance_calls", "count"),
    ("backend.bound_calls", "count"),
    ("backend.self_s", "s"),
    ("backend.ns_per_call.submit", "ns"),
    ("backend.ns_per_call.tick", "ns"),
    ("backend.ns_per_call.advance", "ns"),
    ("backend.ns_per_call.bound", "ns"),
    ("cpu.self_s", "s"),
    ("multicore.self_s", "s"),
    ("multicore.core_steps", "count"),
    ("multicore.wake.completion", "count"),
    ("multicore.wake.timer", "count"),
    ("multicore.wake.spurious", "count"),
    ("multicore.wake.submit_rederive", "count"),
    ("core.metadata_hit_ratio", "ratio"),
    ("core.engine_accesses", "count"),
    ("dram.decision_cycles", "count"),
    ("dram.busy_cycles", "count"),
    ("dram.decision_fraction", "ratio"),
    ("dram.causes.issue_hit", "count"),
    ("dram.causes.issue_miss", "count"),
    ("dram.causes.refresh", "count"),
    ("dram.causes.completion", "count"),
    ("dram.causes.drain_flip", "count"),
    ("dram.causes.aging", "count"),
    ("dram.causes.noop", "count"),
    ("dram.ns_per_decision", "ns"),
    ("channels.shard_ticks", "count"),
    ("channels.imbalance", "ratio"),
    ("service.submit_ack_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.pool.queue_depth", "count"),
    ("service.pool.inflight", "count"),
    ("fleet.result_cache.hits", "count"),
    ("fleet.result_cache.misses", "count"),
    ("fleet.result_cache.inserts", "count"),
    ("fleet.store_hit_ratio", "ratio"),
    ("fleet.hit_p50_ms", "ms"),
    ("fleet.miss_p50_ms", "ms"),
    ("loadgen.lag_p90_ms", "ms"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
];

/// Independent setups per untraced run, `(min, max)`; `setup_s` is
/// their median. Cheap setups keep sampling up to the max for
/// [`SETUP_SAMPLE_S`] seconds.
const SETUP_SAMPLES: (usize, usize) = (5, 31);
const SETUP_SAMPLE_S: f64 = 1.0;

/// Scratch directory under the current directory: per-run directories
/// (removed at exit) and the traced runs' span files.
const SCRATCH: &str = ".perfbench";

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Tiny budgets for the smoke test.
    pub smoke: bool,
    /// Internal: `run`, `setup` (time one setup, print it) or `reference`
    /// (untraced run for a traced parent: one setup, prints digests).
    pub role: String,
    /// This run's scratch directory.
    pub dir: PathBuf,
}

/// A metric value with its unit.
pub type Metrics = Vec<(String, &'static str, f64)>;

/// What one workload's measured phase produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (cells simulated or submitted).
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// Human-readable description of each failed check.
    pub problems: Vec<String>,
    /// Per-cell result digests of one measured round, in cell order.
    pub digests: Vec<u64>,
    /// Median host seconds of one measured round (for the overhead).
    pub round_s: f64,
    /// End-to-end metrics except `setup_s`, and `peak_rss_mb` unless the
    /// workload reads it itself.
    pub e2e: Metrics,
    /// Per-layer metrics (traced runs).
    pub layers: Metrics,
}

impl Outcome {
    /// Records a failed check on `ops` operations.
    pub fn fail(&mut self, ops: u64, problem: String) {
        self.failed += ops;
        self.problems.push(problem);
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <fig6_sweep|rate_n16|fleet_cells> --seed <n> \
         --seconds <s> --trace <0|1> [--smoke]"
    );
    std::process::exit(2);
}

fn parse_args() -> Opts {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut role = "run".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = value().parse().ok(),
            "--seconds" => seconds = value().parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = value() == "1",
            "--role" => role = value(),
            "--smoke" => smoke = true,
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds)) = (workload, seed, seconds) else {
        usage()
    };
    if !["fig6_sweep", "rate_n16", "fleet_cells"].contains(&workload.as_str()) {
        usage();
    }
    let stamp = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let dir = PathBuf::from(SCRATCH).join(format!("run-{}-{stamp}", std::process::id()));
    Opts {
        workload,
        seed,
        seconds,
        trace,
        smoke,
        role,
        dir,
    }
}

/// Times one setup of the workload (trace generation, engine/system or
/// server construction) in this process and tears it down.
fn setup_once(opts: &Opts) -> f64 {
    match opts.workload.as_str() {
        "fig6_sweep" => fig6::setup(opts).1,
        "rate_n16" => rate::setup(opts).1,
        _ => fleet::setup_only(opts),
    }
}

/// Runs the measured phase (after this process's own timed setup).
fn measure(opts: &Opts, spans: Option<&SpanLog>) -> (f64, Outcome) {
    match opts.workload.as_str() {
        "fig6_sweep" => fig6::run(opts, spans),
        "rate_n16" => rate::run(opts, spans),
        _ => fleet::run(opts, spans),
    }
}

/// Runs this binary as a child with `role` and the same inputs; returns
/// its stdout. Children get their own fresh scratch directory.
fn child(opts: &Opts, role: &str) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    // A reference for the simulation workloads needs one round: its
    // results and its wall. The fleet's schedule length follows the
    // seconds, so its reference keeps them.
    let seconds = if role == "reference" && opts.workload != "fleet_cells" {
        1e-3
    } else {
        opts.seconds
    };
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        &opts.workload,
        "--seed",
        &opts.seed.to_string(),
        "--seconds",
        &seconds.to_string(),
        "--trace",
        "0",
        "--role",
        role,
    ]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!(
            "{role} child exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
                .lines()
                .last()
                .unwrap_or("")
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// The value after `key` on the child's output line starting with `key`.
fn child_field<'a>(stdout: &'a str, key: &str) -> Option<&'a str> {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(key).map(str::trim))
}

fn format_digests(digests: &[u64]) -> String {
    digests
        .iter()
        .map(|d| format!("{d:016x}"))
        .collect::<Vec<_>>()
        .join(",")
}

fn result_line(correct: bool, outcome: &Outcome, metrics: &Metrics) -> String {
    let metrics = metrics
        .iter()
        .map(|(name, unit, value)| {
            (
                name.clone(),
                Json::Obj(vec![
                    ("value".into(), Json::f64(*value)),
                    ("unit".into(), Json::str(*unit)),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::u64(outcome.attempted.max(1))),
        ("failed".into(), Json::u64(outcome.failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .to_string()
}

/// Orders `values` as `names` lists them, filling layers the workload
/// never entered with 0.
fn in_order(names: &[(&str, &'static str)], values: &Metrics) -> Metrics {
    names
        .iter()
        .map(|(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _, _)| n == name)
                .map_or(0.0, |(_, _, v)| *v);
            ((*name).to_string(), *unit, value)
        })
        .collect()
}

fn main() {
    let opts = parse_args();
    if let Err(e) = std::fs::create_dir_all(&opts.dir) {
        eprintln!("perfbench: cannot create {}: {e}", opts.dir.display());
        std::process::exit(1);
    }
    // A fresh trace cache per process: no run is warmed by another's
    // (or the repository's) `target/trace-cache/`. Set before any thread
    // exists.
    std::env::set_var("SECDDR_TRACE_CACHE", opts.dir.join("trace-cache"));
    let code = run_role(&opts);
    let _ = std::fs::remove_dir_all(&opts.dir);
    // Only succeeds when no span files or concurrent runs remain.
    let _ = std::fs::remove_dir(SCRATCH);
    std::process::exit(code);
}

fn run_role(opts: &Opts) -> i32 {
    if opts.role == "setup" {
        println!("setup_s {}", setup_once(opts));
        return 0;
    }
    if opts.trace {
        return run_traced(opts);
    }
    if opts.role == "reference" {
        let (_, outcome) = measure(opts, None);
        println!("digests {}", format_digests(&outcome.digests));
        println!("round_s {}", outcome.round_s);
        return 0;
    }
    // The other setup samples run first, each in a fresh process: an
    // in-process repeat would hit the memoized graph and traces, and
    // after the measured phase the host is still settling from it.
    let mut setups = Vec::new();
    let mut problems = Vec::new();
    let sampling = Instant::now();
    let mut tried = 1;
    while tried < SETUP_SAMPLES.0
        || (tried < SETUP_SAMPLES.1 && sampling.elapsed().as_secs_f64() < SETUP_SAMPLE_S)
    {
        tried += 1;
        match child(opts, "setup")
            .map(|out| child_field(&out, "setup_s").and_then(|v| v.parse::<f64>().ok()))
        {
            Ok(Some(s)) => setups.push(s),
            Ok(None) => problems.push("setup child printed no setup_s".to_string()),
            Err(e) => problems.push(e),
        }
    }
    let (own_setup, mut outcome) = measure(opts, None);
    setups.push(own_setup);
    for p in problems {
        outcome.fail(0, p);
    }
    let mut metrics = vec![("setup_s".to_string(), "s", stats::median(&setups))];
    metrics.extend(outcome.e2e.iter().cloned());
    if !metrics.iter().any(|(name, _, _)| name == "peak_rss_mb") {
        metrics.push(("peak_rss_mb".to_string(), "MB", stats::peak_rss_mb()));
    }
    finish(&outcome, &in_order(&END_TO_END, &metrics))
}

fn run_traced(opts: &Opts) -> i32 {
    let reference = match child(opts, "reference") {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: reference run failed: {e}");
            return 1;
        }
    };
    let spans = SpanLog::new();
    let (_, mut outcome) = measure(opts, Some(&spans));
    // The fleet's session count follows the host's speed, so the two
    // runs are compared over the sessions both completed.
    let ref_digests: Vec<&str> = child_field(&reference, "digests")
        .unwrap_or("")
        .split(',')
        .filter(|d| !d.is_empty())
        .collect();
    let ours = format_digests(&outcome.digests);
    let ours: Vec<&str> = ours.split(',').collect();
    let common = ref_digests.len().min(ours.len());
    let fixed = opts.workload != "fleet_cells";
    let wrong = (0..common).filter(|&i| ref_digests[i] != ours[i]).count();
    if common == 0 || wrong > 0 || (fixed && ref_digests.len() != ours.len()) {
        let wrong = wrong.max(1) as u64;
        outcome.fail(
            wrong,
            format!("traced results differ from the untraced run on {wrong} cell(s)"),
        );
    }
    let ref_round = child_field(&reference, "round_s")
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0);
    let mut layers = std::mem::take(&mut outcome.layers);
    layers.push((
        "trace.overhead_s".to_string(),
        "s",
        outcome.round_s - ref_round,
    ));
    let tag = format!("{}-{}", opts.workload, opts.seed);
    if let Err(e) = spans.write(Path::new(SCRATCH), &tag) {
        eprintln!("perfbench: cannot write spans: {e}");
    }
    finish(&outcome, &in_order(&PER_LAYER, &layers))
}

fn finish(outcome: &Outcome, metrics: &Metrics) -> i32 {
    for p in &outcome.problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = outcome.problems.is_empty() && outcome.failed == 0;
    println!("{}", result_line(correct, outcome, metrics));
    0
}

/// Runs `f` and returns its result with the elapsed host seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}
