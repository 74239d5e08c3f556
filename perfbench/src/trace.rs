//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name (`layer.call`), a start and end, the span that
//! caused it, and a run id shared by every span of one iteration. Spans
//! stay in memory until the run ends and are then written as JSON lines.
//! A span's self time is its duration minus the time its children cover.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub run: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span name of the benchmark's own work inside a traced iteration
/// (output checks, digests); it is excluded from coverage.
pub const HARNESS: &str = "bench.check";

/// Run a call inside span `name` when tracing, or just the call.
pub fn sp<T>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Run harness work, inside a [`HARNESS`] span when tracing, and add its
/// time to [`harness_secs`].
pub fn harness<T>(tracer: Option<&Tracer>, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = sp(tracer, HARNESS, f);
    HARNESS_NS.with(|h| h.set(h.get() + start.elapsed().as_nanos() as u64));
    out
}

/// Time this thread has spent in [`harness`], in seconds.
pub fn harness_secs() -> f64 {
    HARNESS_NS.with(|h| h.get()) as f64 * 1e-9
}

/// Run id of this thread's innermost open span (0 outside any span).
pub fn current_run() -> u64 {
    OPEN.with(|open| open.borrow().last().map_or(0, |&(_, run)| run))
}

thread_local! {
    static HARNESS_NS: Cell<u64> = const { Cell::new(0) };

    /// Open spans on this thread: (span id, run id), innermost last.
    static OPEN: RefCell<Vec<(u32, u64)>> = const { RefCell::new(Vec::new()) };
}

pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU32::new(1),
        }
    }

    /// A top-level span starting run `run`.
    pub fn root<T>(&self, name: &'static str, run: u64, f: impl FnOnce() -> T) -> T {
        self.record(name, None, run, f)
    }

    /// A span nested in this thread's innermost open span (a root of
    /// run 0 when none is open).
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (parent, run) = OPEN.with(|open| match open.borrow().last() {
            Some(&(id, run)) => (Some(id), run),
            None => (None, 0),
        });
        self.record(name, parent, run, f)
    }

    fn record<T>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        run: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|open| open.borrow_mut().push((id, run)));
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        OPEN.with(|open| open.borrow_mut().pop());
        self.spans.lock().expect("span list poisoned").push(Span {
            id,
            parent,
            run,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Each span name's self time per run, in seconds, keyed by span
    /// name and then run id.
    pub fn self_times_per_run(&self) -> BTreeMap<&'static str, BTreeMap<u64, f64>> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
        for span in spans.iter() {
            if let Some(parent) = span.parent {
                *child_ns.entry(parent).or_default() += span.duration_ns();
            }
        }
        let mut per_run: BTreeMap<&'static str, BTreeMap<u64, u64>> = BTreeMap::new();
        for span in spans.iter() {
            let own = span
                .duration_ns()
                .saturating_sub(child_ns.get(&span.id).copied().unwrap_or(0));
            *per_run
                .entry(span.name)
                .or_default()
                .entry(span.run)
                .or_default() += own;
        }
        per_run
            .into_iter()
            .map(|(name, runs)| {
                let secs = runs
                    .into_iter()
                    .map(|(run, ns)| (run, ns as f64 * 1e-9))
                    .collect();
                (name, secs)
            })
            .collect()
    }

    /// Median share of the `root` spans' program time that their layer
    /// spans cover (the trace's coverage). Program time is the root's
    /// wall time minus the benchmark's own [`HARNESS`] spans (output
    /// checks and digests).
    pub fn coverage(&self, root: &str) -> f64 {
        let spans = self.spans.lock().expect("span list poisoned");
        let shares: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == root)
            .map(|r| {
                let (mut layers, mut harness) = (0u64, 0u64);
                for child in spans.iter().filter(|s| s.parent == Some(r.id)) {
                    if child.name == HARNESS {
                        harness += child.duration_ns();
                    } else {
                        layers += child.duration_ns();
                    }
                }
                layers as f64 / r.duration_ns().saturating_sub(harness).max(1) as f64
            })
            .collect();
        if shares.is_empty() {
            0.0
        } else {
            crate::common::median(&shares)
        }
    }

    /// Median duration of the spans named `name`, in seconds.
    pub fn median_duration(&self, name: &str) -> f64 {
        let spans = self.spans.lock().expect("span list poisoned");
        let durations: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect();
        if durations.is_empty() {
            0.0
        } else {
            crate::common::median(&durations)
        }
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"run\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.run, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
