//! `fleet_cells`: the fleet traffic of `examples/fleet.rs`, repeated.
//! An in-process `FleetServer` → `Dispatcher` (durable job log and
//! result store in the run's fresh directory) → two in-process
//! `ExperimentServer` workers with one thread each.
//!
//! One *session* is what the example does: submit a sweep of mcf across
//! the example's six security configurations, stream it to `finished`,
//! then submit the identical spec again, which the result store serves
//! without executing a cell. Sessions run back to back, one at a time,
//! for the measured seconds. They differ only in the trace seed, drawn
//! from `--seed`, so every first submission executes.
//!
//! Set-up generates the inputs: the session specs and, for the output
//! checks, each session's trace, for up to [`MAX_SESSIONS_PER_S`] ×
//! the measured seconds. Then it starts the fleet.
//!
//! Each job goes through `ServiceClient` on a connection of its own.
//! Neither end sets `TCP_NODELAY`: on one long-lived connection the
//! server's event lines wait on the client's delayed ACK, and the
//! latency would measure the client's pacing rather than the fleet. A
//! fresh connection acknowledges its first segments at once.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use secddr_core::config::{EncMode, SecurityConfig};
use secddr_fleet::{Dispatcher, DispatcherConfig, FleetServer};
use secddr_service::{ExperimentServer, ExperimentService, JobSpec, ServiceClient, WireEvent};
use secddr_telemetry::Registry;
use workloads::Benchmark;

use crate::spans::SpanLog;
use crate::stats::{digest_of, mean, median, peak_rss_mb, quantile, SplitMix};
use crate::{timed, Metrics, Opts, Outcome};

/// The example's benchmark.
const BENCH: &str = "mcf";
const SMOKE_BUDGET: u64 = 2_000;
/// In-process workers, one simulation thread each (as in the example).
const WORKERS: usize = 2;
/// With no event from the fleet for this long, the run gives up: a
/// `ServiceClient` read has no timeout of its own.
const STALL_TIMEOUT: Duration = Duration::from_secs(30);
/// Sessions per measured second that set-up prepares: about five times
/// what two one-thread workers sustain on a 2-vCPU host. The measured
/// phase ends early if they run out.
const MAX_SESSIONS_PER_S: f64 = 40.0;
/// Sessions after which `peak_rss_mb` is read. The workers memoize every
/// trace they generate, so the process grows with each session; read at
/// the end, the peak would follow how many sessions the host's speed
/// allowed.
const RSS_SESSIONS: usize = 64;
/// Worker time that `service.cell.run_us` may claim beyond the executing
/// jobs' client-side walls (timer granularity, µs rounding).
const COVERAGE_SLACK: f64 = 0.02;

/// The example's six configurations, in its order.
fn sweep_configs() -> Vec<SecurityConfig> {
    vec![
        SecurityConfig::tdx_baseline(),
        SecurityConfig::secddr_ctr(),
        SecurityConfig::secddr_xts(),
        SecurityConfig::tree_64ary(),
        SecurityConfig::encrypt_only_ctr(),
        SecurityConfig::invisimem_realistic(EncMode::Ctr),
    ]
}

/// The sweep of session `k`. The budget is `JobSpec::bench`'s default
/// (40k instructions per cell) outside the smoke test.
fn session_spec(opts: &Opts, k: u64) -> JobSpec {
    let mut spec = JobSpec::bench(BENCH);
    spec.configs = sweep_configs();
    if opts.smoke {
        spec.instructions = SMOKE_BUDGET;
    }
    spec.seed = SplitMix(opts.seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64();
    spec
}

/// The running fleet: the workers, the dispatcher, its TCP front-end,
/// and the directory of its job log and result store.
struct Stack {
    addr: String,
    dir: std::path::PathBuf,
    workers: Vec<(String, JoinHandle<std::io::Result<()>>)>,
    server: JoinHandle<std::io::Result<()>>,
}

fn start(opts: &Opts, tag: &str) -> std::io::Result<Stack> {
    let mut workers = Vec::new();
    for _ in 0..WORKERS {
        let server = ExperimentServer::bind("127.0.0.1:0", ExperimentService::with_threads(1))?;
        let addr = server.local_addr()?.to_string();
        workers.push((addr, std::thread::spawn(move || server.serve())));
    }
    let dir = opts.dir.join(tag);
    let dispatcher = Dispatcher::start(DispatcherConfig {
        workers: workers.iter().map(|(a, _)| a.clone()).collect(),
        log_dir: Some(dir.join("log")),
        store_dir: Some(dir.join("store")),
        ..DispatcherConfig::default()
    })?;
    let server = FleetServer::bind("127.0.0.1:0", dispatcher)?;
    let addr = server.local_addr()?.to_string();
    let server = std::thread::spawn(move || server.serve());
    ServiceClient::connect(&addr)?.ping()?;
    Ok(Stack {
        addr,
        dir,
        workers,
        server,
    })
}

fn stop(stack: Stack) -> std::io::Result<()> {
    ServiceClient::connect(&stack.addr)?.shutdown_server()?;
    stack.server.join().expect("dispatcher thread")?;
    for (addr, serve) in stack.workers {
        ServiceClient::connect(&addr)?.shutdown_server()?;
        serve.join().expect("worker thread")?;
    }
    std::fs::remove_dir_all(&stack.dir)
}

/// The generated inputs: each session's spec, and the instructions its
/// trace holds (what every cell must retire).
struct Plan {
    specs: Vec<JobSpec>,
    per_core: Vec<u64>,
}

fn plan(opts: &Opts) -> Plan {
    let sessions = (opts.seconds * MAX_SESSIONS_PER_S).ceil().max(1.0) as u64;
    let specs: Vec<JobSpec> = (0..sessions).map(|k| session_spec(opts, k)).collect();
    // `generate`, not `generate_shared`: the in-process workers must not
    // find these traces in the process-wide memo.
    let bench = Benchmark::by_name(BENCH).expect("known benchmark");
    let per_core = specs
        .iter()
        .map(|s| {
            bench
                .generate(s.instructions, s.seed)
                .iter()
                .map(|op| op.instructions())
                .sum()
        })
        .collect();
    Plan { specs, per_core }
}

/// Set-up: the inputs, then the fleet up to its first ping.
fn setup(opts: &Opts, tag: &str) -> ((Plan, Stack), f64) {
    timed(|| (plan(opts), start(opts, tag).expect("fleet start-up")))
}

/// Times one set-up and shuts the fleet down again.
pub fn setup_only(opts: &Opts) -> f64 {
    let ((_, stack), secs) = setup(opts, "setup");
    stop(stack).expect("fleet shutdown");
    secs
}

/// One streamed cell: arrival, index, instructions, cycles, IPC bits.
type CellEvent = (Instant, u64, u64, u64, u64);

/// Everything the client saw of one job.
#[derive(Debug, Clone)]
struct Job {
    /// Before the connection was opened.
    sent: Instant,
    /// When `submit` returned with the job id.
    ack: Instant,
    queued: Option<Instant>,
    started: Option<Instant>,
    cells: Vec<CellEvent>,
    /// The terminal event, and for `finished` its instruction total.
    end: Option<(Instant, &'static str, u64)>,
}

impl Job {
    /// Host seconds from submission to the terminal event.
    fn wall(&self) -> Option<f64> {
        Some((self.end?.0 - self.sent).as_secs_f64())
    }

    /// Per-cell submit-to-result latencies, in ms.
    fn cell_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.cells
            .iter()
            .map(|c| (c.0 - self.sent).as_secs_f64() * 1e3)
    }

    /// The simulated results, in cell order.
    fn results(&self) -> Vec<(u64, u64, u64, u64)> {
        let mut r: Vec<_> = self.cells.iter().map(|c| (c.1, c.2, c.3, c.4)).collect();
        r.sort_unstable();
        r
    }
}

/// Submits `spec` on a fresh connection and streams it to its terminal
/// event, stamping every line on arrival. Each step ticks `alive` with
/// what the client waits for next.
fn run_job(addr: &str, spec: &JobSpec, alive: &mpsc::Sender<&'static str>) -> std::io::Result<Job> {
    let sent = Instant::now();
    let _ = alive.send("the submission's ack");
    let mut client = ServiceClient::connect(addr)?;
    let id = client.submit(spec)?;
    let _ = alive.send("the job's next event");
    let mut job = Job {
        sent,
        ack: Instant::now(),
        queued: None,
        started: None,
        cells: Vec::new(),
        end: None,
    };
    while job.end.is_none() {
        let event = client.next_event()?;
        let at = Instant::now();
        let _ = alive.send("the job's next event");
        if event.job() != id {
            continue;
        }
        match event {
            WireEvent::Queued { .. } => job.queued = Some(at),
            WireEvent::Started { .. } => job.started = Some(at),
            WireEvent::Cell {
                index,
                instructions,
                cycles,
                aggregate_ipc,
                ..
            } => job
                .cells
                .push((at, index, instructions, cycles, aggregate_ipc.to_bits())),
            WireEvent::Finished { instructions, .. } => {
                job.end = Some((at, "finished", instructions));
            }
            WireEvent::Cancelled { .. } => job.end = Some((at, "cancelled", 0)),
            WireEvent::Failed { .. } => job.end = Some((at, "failed", 0)),
            WireEvent::Metrics { .. } => {}
        }
    }
    Ok(job)
}

/// Ends the process when the fleet makes no progress for
/// [`STALL_TIMEOUT`]; returns once every sender is dropped. Each tick
/// names what the run waits for next.
fn watchdog(dir: std::path::PathBuf) -> (mpsc::Sender<&'static str>, JoinHandle<()>) {
    let (tx, rx) = mpsc::channel::<&'static str>();
    let handle = std::thread::spawn(move || {
        let mut waiting = "the first session";
        loop {
            match rx.recv_timeout(STALL_TIMEOUT) {
                Ok(next) => waiting = next,
                Err(mpsc::RecvTimeoutError::Disconnected) => return,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    eprintln!(
                        "perfbench: no progress for {STALL_TIMEOUT:?}, waiting for {waiting}"
                    );
                    let _ = std::fs::remove_dir_all(&dir);
                    std::process::exit(1);
                }
            }
        }
    });
    (tx, handle)
}

/// Samples the pool gauges on a control connection until `stop`.
fn sample_gauges(addr: String, stop: Arc<AtomicBool>) -> JoinHandle<Vec<(u64, u64)>> {
    std::thread::spawn(move || {
        let mut samples = Vec::new();
        let Ok(mut client) = ServiceClient::connect(&addr) else {
            return samples;
        };
        while !stop.load(Ordering::Relaxed) {
            if let Ok(g) = client.gauges() {
                let get = |k: &str| g.get(k).copied().unwrap_or(0);
                samples.push((
                    get("service.pool.queue_depth"),
                    get("service.pool.inflight"),
                ));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        samples
    })
}

/// One session: the sweep, then its identical resubmission.
struct Session {
    /// Instructions in the session's trace.
    per_core: u64,
    /// Generator time between the previous session's end and this one.
    gap: Option<Duration>,
    fresh: Job,
    repeat: Job,
}

impl Session {
    fn wall(&self) -> Option<f64> {
        Some((self.repeat.end?.0 - self.fresh.sent).as_secs_f64())
    }
}

/// Host microseconds the workers spent simulating cells so far.
fn run_us() -> u64 {
    Registry::global()
        .snapshot()
        .histograms
        .get("service.cell.run_us")
        .map_or(0, |h| h.sum)
}

/// Start-up, then sessions for the measured seconds.
pub fn run(opts: &Opts, spans: Option<&SpanLog>) -> (f64, Outcome) {
    let ((plan, mut stack), setup_s) = setup(opts, "run");
    let metrics = |stack: &Stack| {
        ServiceClient::connect(&stack.addr)
            .and_then(|mut c| c.metrics())
            .unwrap_or_default()
    };
    // The fleet's counters live in the process-wide registry, so any
    // stack's metrics endpoint serves the whole run's.
    let before = metrics(&stack);
    let run_us_before = run_us();
    let (alive, guard) = watchdog(opts.dir.clone());

    let mut sessions: Vec<Session> = Vec::new();
    let mut gauges = Vec::new();
    let mut restart: Option<Duration> = None;
    let mut rss_mb = None;
    let measure_start = Instant::now();
    let after = loop {
        let k = sessions.len();
        let (spec, per_core) = (&plan.specs[k], plan.per_core[k]);
        let stop_sampling = Arc::new(AtomicBool::new(false));
        let sampler = spans
            .is_some()
            .then(|| sample_gauges(stack.addr.clone(), Arc::clone(&stop_sampling)));
        let fresh = run_job(&stack.addr, spec, &alive).expect("sweep job");
        let repeat = run_job(&stack.addr, spec, &alive).expect("resubmitted job");
        stop_sampling.store(true, Ordering::Relaxed);
        if let Some(s) = sampler {
            gauges.extend(s.join().expect("sampler"));
        }
        // The generator's own time since the previous session, without
        // the fleet's restart in between.
        let gap = sessions
            .last()
            .and_then(|s| s.repeat.end)
            .map(|e| (fresh.sent - e.0).saturating_sub(restart.unwrap_or_default()));
        sessions.push(Session {
            per_core,
            gap,
            fresh,
            repeat,
        });
        if sessions.len() == RSS_SESSIONS {
            rss_mb = Some(peak_rss_mb());
        }
        if sessions.len() == plan.specs.len()
            || measure_start.elapsed().as_secs_f64() >= opts.seconds
        {
            let _ = alive.send("the fleet's metrics");
            break metrics(&stack);
        }
        // Each session gets a fleet of its own, as in the example: a
        // long-lived dispatcher-to-worker connection carries its TCP
        // delayed-ACK state from one session into the next, so sessions
        // on one fleet are not independent samples.
        let restarted = Instant::now();
        let _ = alive.send("the fleet's shutdown");
        stop(stack).expect("fleet shutdown");
        let _ = alive.send("the fleet's start-up");
        stack = start(opts, &format!("session-{}", sessions.len())).expect("fleet start-up");
        restart = Some(restarted.elapsed());
    };
    let run_us = run_us() - run_us_before;
    let _ = alive.send("the fleet's shutdown");
    stop(stack).expect("fleet shutdown");
    drop(alive);
    guard.join().expect("watchdog");

    let delta = |k: &str| {
        after
            .get(k)
            .copied()
            .unwrap_or(0)
            .saturating_sub(before.get(k).copied().unwrap_or(0))
    };
    let mut out = Outcome {
        attempted: 2 * sessions.len() as u64,
        ..Outcome::default()
    };
    check(&sessions, &delta, &mut out);

    let executed: Vec<f64> = sessions.iter().flat_map(|s| s.fresh.cell_ms()).collect();
    let served: Vec<f64> = sessions.iter().flat_map(|s| s.repeat.cell_ms()).collect();
    let sweep_ms: Vec<f64> = sessions
        .iter()
        .filter_map(|s| s.fresh.wall())
        .map(|w| w * 1e3)
        .collect();
    let session_walls: Vec<f64> = sessions.iter().filter_map(Session::wall).collect();
    let instructions: u64 = sessions
        .iter()
        .flat_map(|s| &s.fresh.cells)
        .map(|c| c.2)
        .sum();
    let cells = sweep_configs().len() as f64;
    let busy_s: f64 = session_walls.iter().sum();
    println!(
        "fleet: {} sessions, {busy_s:.2} s of them; executed cells p50 {:.2} ms p90 {:.2} ms; \
         store-served cells p50 {:.2} ms p90 {:.2} ms",
        sessions.len(),
        quantile(&executed, 0.5),
        quantile(&executed, 0.9),
        quantile(&served, 0.5),
        quantile(&served, 0.9)
    );
    // Means, not medians: a sweep waits on one delayed ACK or none
    // (README.md, Findings), and the median jumps between the two modes
    // as their mix shifts from run to run.
    out.round_s = mean(&session_walls);
    out.digests = sessions
        .iter()
        .map(|s| digest_of(&(s.fresh.results(), s.repeat.results())))
        .collect();
    out.e2e = vec![
        ("wall_s".into(), "s", mean(&session_walls)),
        (
            "sim_mips".into(),
            "Minstr/s",
            instructions as f64 / busy_s / 1e6,
        ),
        ("cell_mean_ms".into(), "ms", mean(&sweep_ms)),
        ("cell_p90_ms".into(), "ms", quantile(&sweep_ms, 0.9)),
        (
            "slo_cells_per_s".into(),
            "1/s",
            2.0 * cells * sessions.len() as f64 / busy_s,
        ),
        (
            "peak_rss_mb".into(),
            "MB",
            rss_mb.unwrap_or_else(peak_rss_mb),
        ),
    ];
    if let Some(log) = spans {
        // Reconciliation: the workers time each cell's simulation
        // themselves; that time must fit in the workers × the executing
        // jobs' walls that the client timed.
        let busy: f64 = sessions.iter().filter_map(|s| s.fresh.wall()).sum();
        let coverage = run_us as f64 * 1e-6 / (WORKERS as f64 * busy);
        if !(coverage > 0.0 && coverage <= 1.0 + COVERAGE_SLACK) {
            out.fail(
                0,
                format!(
                    "worker-timed simulation covers {coverage:.3} of workers x executing-job \
                     walls (allowed 0..{:.2})",
                    1.0 + COVERAGE_SLACK
                ),
            );
        }
        out.layers = layers(&sessions, &delta, &gauges, &executed, &served);
        out.layers
            .push(("trace.coverage".into(), "ratio", coverage));
        for (i, s) in sessions.iter().enumerate() {
            record_spans(log, i, s);
        }
    }
    (setup_s, out)
}

/// Output checks: every job finished with all six cells, each retiring
/// the full trace; each resubmission returned exactly its original's
/// results; the store served every resubmitted cell and the workers ran
/// every first-submitted one.
fn check(sessions: &[Session], delta: &dyn Fn(&str) -> u64, out: &mut Outcome) {
    let cells = sweep_configs().len();
    for (i, s) in sessions.iter().enumerate() {
        let per_core = s.per_core;
        for (what, job) in [("sweep", &s.fresh), ("resubmission", &s.repeat)] {
            match job.end {
                Some((_, "finished", total)) => {
                    let indices: Vec<u64> = job.results().iter().map(|r| r.0).collect();
                    let short = job.cells.iter().filter(|c| c.2 != per_core).count();
                    if indices != (0..cells as u64).collect::<Vec<_>>() || short > 0 {
                        out.fail(
                            1,
                            format!(
                                "session {i} {what}: cells {indices:?}, {short} short of \
                                 {per_core} instructions"
                            ),
                        );
                    } else if total != per_core * cells as u64 {
                        out.fail(1, format!("session {i} {what}: finished with {total}"));
                    }
                }
                Some((_, how, _)) => out.fail(1, format!("session {i} {what} ended {how}")),
                None => out.fail(1, format!("session {i} {what} never ended")),
            }
        }
        if s.fresh.results() != s.repeat.results() {
            out.fail(
                1,
                format!("session {i}: resubmission differs from the sweep"),
            );
        }
    }
    let want = (cells * sessions.len()) as u64;
    for (counter, what) in [
        ("fleet.cells.dispatched", "cells executed"),
        ("fleet.result_cache.hits", "cells served by the store"),
    ] {
        if delta(counter) != want {
            out.fail(0, format!("{} {what}, want {want}", delta(counter)));
        }
    }
}

fn ms(a: Option<Instant>, b: Option<Instant>) -> Option<f64> {
    Some((b? - a?).as_secs_f64() * 1e3)
}

/// Per-layer metrics of the traced sessions.
fn layers(
    sessions: &[Session],
    delta: &dyn Fn(&str) -> u64,
    gauges: &[(u64, u64)],
    executed: &[f64],
    served: &[f64],
) -> Metrics {
    let jobs = || sessions.iter().flat_map(|s| [&s.fresh, &s.repeat]);
    let ack: Vec<f64> = jobs()
        .filter_map(|j| ms(Some(j.sent), Some(j.ack)))
        .collect();
    let queue: Vec<f64> = sessions
        .iter()
        .filter_map(|s| ms(s.fresh.queued, s.fresh.started))
        .collect();
    let gaps: Vec<f64> = sessions
        .iter()
        .filter_map(|s| s.gap)
        .map(|g| g.as_secs_f64() * 1e3)
        .collect();
    let hits = delta("fleet.result_cache.hits") as f64;
    let misses = delta("fleet.result_cache.misses") as f64;
    let mean = |f: fn(&(u64, u64)) -> u64| {
        gauges.iter().map(|g| f(g) as f64).sum::<f64>() / gauges.len().max(1) as f64
    };
    let count = |k: &str| (k.to_string(), "count", delta(k) as f64);
    vec![
        count("workloads.trace_cache.memory_hits"),
        count("workloads.trace_cache.disk_hits"),
        count("workloads.trace_cache.generated"),
        ("service.submit_ack_ms".into(), "ms", median(&ack)),
        ("service.queue_wait_ms".into(), "ms", median(&queue)),
        ("service.pool.queue_depth".into(), "count", mean(|g| g.0)),
        ("service.pool.inflight".into(), "count", mean(|g| g.1)),
        count("fleet.result_cache.hits"),
        count("fleet.result_cache.misses"),
        count("fleet.result_cache.inserts"),
        (
            "fleet.store_hit_ratio".into(),
            "ratio",
            hits / (hits + misses).max(1.0),
        ),
        ("fleet.hit_p50_ms".into(), "ms", median(served)),
        ("fleet.miss_p50_ms".into(), "ms", median(executed)),
        ("loadgen.lag_p90_ms".into(), "ms", quantile(&gaps, 0.9)),
    ]
}

fn record_spans(log: &SpanLog, i: usize, s: &Session) {
    let (Some((end, _, _)), Some((fresh_end, _, _))) = (s.repeat.end, s.fresh.end) else {
        return;
    };
    let track = i as u32;
    let session = Some(log.record("fleet.session", s.fresh.sent, end, None, i as u64, track));
    for (name, job, job_end) in [
        ("fleet.sweep", &s.fresh, fresh_end),
        ("fleet.resubmission", &s.repeat, end),
    ] {
        let parent = Some(log.record(name, job.sent, job_end, session, i as u64, track));
        let child = |name, a: Option<Instant>, b: Option<Instant>| {
            if let (Some(a), Some(b)) = (a, b) {
                log.record(name, a, b.max(a), parent, i as u64, track);
            }
        };
        child("service.submit_ack", Some(job.sent), Some(job.ack));
        child("service.queue_wait", job.queued, job.started);
        child(
            "fleet.execute",
            job.started,
            job.cells.iter().map(|c| c.0).max(),
        );
    }
}
