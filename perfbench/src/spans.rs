//! In-memory span log of the traced run: every timed region at the
//! public-API boundaries (rounds, cells, fleet request phases) with its
//! parent and request id, written out once at the end.

use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use secddr_service::Json;
use secddr_telemetry::{chrome_trace, TraceSink};

/// One recorded region, in host nanoseconds since the log's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Region name.
    pub name: &'static str,
    /// Start, ns since the log was created.
    pub start: u64,
    /// End, ns since the log was created.
    pub end: u64,
    /// Index of the enclosing span in the log, if any.
    pub parent: Option<usize>,
    /// Request id: the cell index (simulation workloads) or submission
    /// index (fleet).
    pub request: u64,
    /// Timeline lane (worker thread or request).
    pub track: u32,
}

/// Thread-safe span collector.
pub struct SpanLog {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    /// Empty log whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records `[start, end)`; returns the span's index for children to
    /// name as their parent.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
        track: u32,
    ) -> usize {
        let span = Span {
            name,
            start: self.ns(start),
            end: self.ns(end),
            parent,
            request,
            track,
        };
        let mut spans = self.spans.lock().expect("span log poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Snapshot of everything recorded.
    fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Writes `spans-<tag>.json` (every span with parent and request id)
    /// and `trace-<tag>.json` (the same spans as a `chrome://tracing`
    /// timeline through the telemetry crate's exporter, microsecond
    /// ticks) into `dir`.
    pub fn write(&self, dir: &Path, tag: &str) -> std::io::Result<()> {
        let spans = self.spans();
        let rows: Vec<Json> = spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::str(s.name)),
                    ("start_ns".into(), Json::u64(s.start)),
                    ("end_ns".into(), Json::u64(s.end)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::u64(p as u64)),
                    ),
                    ("request".into(), Json::u64(s.request)),
                    ("track".into(), Json::u64(u64::from(s.track))),
                ])
            })
            .collect();
        std::fs::create_dir_all(dir)?;
        std::fs::write(
            dir.join(format!("spans-{tag}.json")),
            Json::Arr(rows).to_string(),
        )?;
        let mut sink = TraceSink::new(spans.len().max(1));
        for s in &spans {
            sink.record(s.track, s.name, s.start / 1_000, s.end / 1_000);
        }
        let mut tracks: Vec<u32> = spans.iter().map(|s| s.track).collect();
        tracks.sort_unstable();
        tracks.dedup();
        let labels: Vec<(u32, String)> = tracks.iter().map(|&t| (t, format!("lane {t}"))).collect();
        let names: Vec<(u32, &str)> = labels.iter().map(|(t, l)| (*t, l.as_str())).collect();
        std::fs::write(
            dir.join(format!("trace-{tag}.json")),
            chrome_trace::render(&sink, &names),
        )
    }
}
