//! An in-memory span recorder for the traced run. Spans are taken in
//! this benchmark's own code, around calls into the hetmem crates' public
//! functions, and written out as JSON lines when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique within the run, from 1.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `sim.run`.
    pub name: String,
    /// Start, from the recorder's epoch.
    pub start: Duration,
    /// End, from the recorder's epoch.
    pub end: Duration,
}

impl Span {
    /// The span's length.
    #[must_use]
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// A disabled tracer runs the same calls but records no span: the
    /// baseline that prices tracing.
    enabled: bool,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            enabled: true,
        }
    }
}

impl Tracer {
    /// A tracer that records nothing.
    #[must_use]
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::default()
        }
    }

    /// Allocates a span id, for a parent opened before its children.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span that ran from `start` to `end`.
    pub fn record(&self, id: u64, parent: Option<u64>, name: &str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let span = Span {
            id,
            parent,
            name: name.to_owned(),
            start: start - self.epoch,
            end: end - self.epoch,
        };
        self.spans.lock().expect("span store").push(span);
    }

    /// Runs `f` inside a span named `name` and returns its result.
    pub fn time<T>(&self, name: &str, parent: Option<u64>, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = self.id();
        let start = Instant::now();
        let out = f();
        self.record(id, parent, name, start, Instant::now());
        out
    }

    /// Durations, in seconds, of every span named `name`.
    #[must_use]
    pub fn seconds(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span store")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration().as_secs_f64())
            .collect()
    }

    /// Total seconds across spans named `name`.
    #[must_use]
    pub fn total(&self, name: &str) -> f64 {
        self.seconds(name).iter().sum()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the file cannot be written.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span store").iter() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        out.flush()
    }
}
