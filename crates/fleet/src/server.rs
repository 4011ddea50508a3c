//! TCP front-end over a [`Dispatcher`]: the same line-delimited-JSON
//! protocol `secddr-serve` speaks, so [`ServiceClient`] works against
//! a dispatcher unchanged (`submit`/`stream_job`/`cancel`/`ping`/
//! `metrics`/`shutdown_server`). `secddr-dispatch` is the binary.
//!
//! Two commands are dispatcher-specific: `workers` reports per-worker
//! liveness and load, and the single-service `cache_stats`/`series`
//! commands answer with an error (the dispatcher has no trace cache or
//! series store of its own — ask a worker).
//!
//! [`ServiceClient`]: secddr_service::ServiceClient

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use secddr_service::net::metrics_to_json;
use secddr_service::{JobSpec, Json};
use secddr_telemetry::Registry;

use crate::dispatch::Dispatcher;

fn error_json(message: impl Into<String>) -> Json {
    Json::Obj(vec![
        ("type".into(), Json::str("error")),
        ("message".into(), Json::Str(message.into())),
    ])
}

fn write_line(writer: &Mutex<TcpStream>, json: &Json) -> std::io::Result<()> {
    let mut stream = writer.lock().expect("writer lock");
    let mut line = json.to_string();
    line.push('\n');
    stream.write_all(line.as_bytes())
}

/// The TCP front-end over one [`Dispatcher`].
pub struct FleetServer {
    dispatcher: Arc<Dispatcher>,
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
}

/// Makes a running [`FleetServer::serve`] loop return.
#[derive(Debug, Clone)]
pub struct FleetShutdownHandle {
    shutdown: Arc<AtomicBool>,
    addr: Option<SocketAddr>,
}

impl FleetShutdownHandle {
    /// Requests shutdown and nudges the accept loop awake.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(addr) = self.addr {
            // The accept loop only observes the flag on a connection;
            // poke it with one.
            let _ = TcpStream::connect(addr);
        }
    }
}

impl FleetServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) over
    /// `dispatcher`.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(addr: impl ToSocketAddrs, dispatcher: Dispatcher) -> std::io::Result<Self> {
        Ok(Self {
            dispatcher: Arc::new(dispatcher),
            listener: TcpListener::bind(addr)?,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (read the ephemeral port from here).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A shared handle to the underlying dispatcher, for ops hooks
    /// ([`Dispatcher::workers`], [`Dispatcher::sever_worker`]) while
    /// [`Self::serve`] owns `self`.
    #[must_use]
    pub fn dispatcher(&self) -> Arc<Dispatcher> {
        Arc::clone(&self.dispatcher)
    }

    /// A handle that makes [`Self::serve`] return (the `shutdown`
    /// command uses the same mechanism).
    #[must_use]
    pub fn shutdown_handle(&self) -> FleetShutdownHandle {
        FleetShutdownHandle {
            shutdown: Arc::clone(&self.shutdown),
            addr: self.local_addr().ok(),
        }
    }

    /// Accepts and serves connections until a shutdown is requested,
    /// drains active jobs, and returns — every accepted job reaches a
    /// terminal event (and a terminal log record) first, the "clean
    /// shutdown" the CI gate asserts.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop failures (per-connection I/O errors only
    /// terminate that connection).
    pub fn serve(self) -> std::io::Result<()> {
        for incoming in self.listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = incoming else {
                continue;
            };
            let dispatcher = Arc::clone(&self.dispatcher);
            let shutdown = self.shutdown_handle();
            std::thread::spawn(move || handle_connection(stream, &dispatcher, &shutdown));
        }
        self.dispatcher.drain();
        Ok(())
    }
}

fn handle_connection(stream: TcpStream, dispatcher: &Dispatcher, shutdown: &FleetShutdownHandle) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let writer = Arc::new(Mutex::new(stream));
    let mut reader = BufReader::new(read_half);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return, // disconnected
            Ok(_) => {}
        }
        if line.trim().is_empty() {
            continue;
        }
        let request = match Json::parse(line.trim()) {
            Ok(v) => v,
            Err(e) => {
                let _ = write_line(&writer, &error_json(format!("bad json: {e}")));
                continue;
            }
        };
        match request.get("cmd").and_then(Json::as_str) {
            Some("submit") => {
                if handle_submit(&request, dispatcher, &writer).is_err() {
                    return;
                }
            }
            Some("cancel") => {
                let Some(job) = request.get("job").and_then(Json::as_u64) else {
                    let _ = write_line(&writer, &error_json("cancel needs a \"job\" id"));
                    continue;
                };
                let cancelled = dispatcher.cancel(job);
                let ack = Json::Obj(vec![
                    ("type".into(), Json::str("cancel_ack")),
                    ("job".into(), Json::u64(job)),
                    ("cancelled".into(), Json::Bool(cancelled)),
                ]);
                if write_line(&writer, &ack).is_err() {
                    return;
                }
            }
            Some("metrics") => {
                let snapshot = Registry::global().snapshot();
                if write_line(&writer, &metrics_to_json(&snapshot)).is_err() {
                    return;
                }
            }
            Some("workers") => {
                let workers = dispatcher
                    .workers()
                    .into_iter()
                    .map(|w| {
                        Json::Obj(vec![
                            ("addr".into(), Json::Str(w.addr)),
                            ("alive".into(), Json::Bool(w.alive)),
                            ("outstanding".into(), Json::u64(w.outstanding as u64)),
                        ])
                    })
                    .collect();
                let response = Json::Obj(vec![
                    ("type".into(), Json::str("workers")),
                    ("workers".into(), Json::Arr(workers)),
                ]);
                if write_line(&writer, &response).is_err() {
                    return;
                }
            }
            Some("ping") => {
                let pong = Json::Obj(vec![("type".into(), Json::str("pong"))]);
                if write_line(&writer, &pong).is_err() {
                    return;
                }
            }
            Some(unsupported @ ("cache_stats" | "series")) => {
                let _ = write_line(
                    &writer,
                    &error_json(format!(
                        "the dispatcher has no {unsupported}; ask a worker directly"
                    )),
                );
            }
            Some("shutdown") => {
                let bye = Json::Obj(vec![("type".into(), Json::str("shutting_down"))]);
                let _ = write_line(&writer, &bye);
                shutdown.shutdown();
                return;
            }
            other => {
                let _ = write_line(&writer, &error_json(format!("unknown cmd {other:?}")));
            }
        }
    }
}

/// Submits the request's spec and writes the response. The `submitted`
/// ack goes out before the job's event forwarder starts, so no event of
/// the job can reach the client ahead of its ack.
fn handle_submit(
    request: &Json,
    dispatcher: &Dispatcher,
    writer: &Arc<Mutex<TcpStream>>,
) -> std::io::Result<()> {
    let Some(spec_json) = request.get("spec") else {
        return write_line(writer, &error_json("submit needs a \"spec\" member"));
    };
    let spec = match JobSpec::from_json(spec_json) {
        Ok(spec) => spec,
        Err(e) => return write_line(writer, &error_json(e.to_string())),
    };
    let handle = match dispatcher.submit(&spec) {
        Ok(handle) => handle,
        Err(e) => return write_line(writer, &error_json(e)),
    };
    let ack = Json::Obj(vec![
        ("type".into(), Json::str("submitted")),
        ("job".into(), Json::u64(handle.id)),
        ("cells".into(), Json::u64(handle.cells as u64)),
    ]);
    // A failed ack means the client is gone; the dispatcher keeps the
    // job (its cells still fill the store).
    write_line(writer, &ack)?;
    let writer = Arc::clone(writer);
    // One forwarder per job keeps per-job event order on the wire; the
    // shared writer lock serializes whole lines.
    std::thread::spawn(move || {
        while let Some(event) = handle.next_event() {
            if write_line(&writer, &event).is_err() {
                return; // client gone; the dispatcher keeps the
                        // job (its cells still fill the store)
            }
        }
    });
    Ok(())
}
