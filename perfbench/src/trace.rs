//! Span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions (the program itself is not instrumented).
//! They are kept in memory and written out once, when the run ends.
//! Recording is off unless [`enable`] was called; a disabled
//! [`span`] costs one relaxed atomic load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    /// Nanoseconds since the recorder's epoch.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// Spans of one request (a job, a session, a query) share this id.
    pub request: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_REQUEST: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// Open spans on this thread, innermost last: (index, request).
    static OPEN: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
}

fn recorder() -> std::sync::MutexGuard<'static, Vec<Span>> {
    SPANS
        .lock()
        .expect("a thread panicked while recording a span")
}

pub fn enable(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Nanoseconds since the epoch, for [`record`].
pub fn now() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Closes its span when dropped.
pub struct Guard(Option<usize>);

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        let end = now();
        // A poisoned recorder only loses this span's end; never panic
        // in a destructor.
        if let Ok(mut spans) = SPANS.lock() {
            spans[idx].end = end;
        }
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&(i, _)| i == idx) {
                open.truncate(pos);
            }
        });
    }
}

fn open(name: &str, new_request: bool) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    let (parent, inherited) = OPEN.with(|o| o.borrow().last().copied()).unzip();
    let request = match inherited {
        Some(r) if !new_request => r,
        _ => NEXT_REQUEST.fetch_add(1, Ordering::Relaxed),
    };
    let start = now();
    let idx = {
        let mut spans = recorder();
        spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent,
            request,
        });
        spans.len() - 1
    };
    OPEN.with(|o| o.borrow_mut().push((idx, request)));
    Guard(Some(idx))
}

/// Open a span that belongs to the enclosing span's request.
pub fn span(name: &str) -> Guard {
    open(name, false)
}

/// Open a span that starts a new request.
pub fn request(name: &str) -> Guard {
    open(name, true)
}

/// Record an already-finished interval as a child of the innermost
/// open span (used where only the edges of a call are observable).
pub fn record(name: &str, start: u64, end: u64) {
    if !enabled() {
        return;
    }
    let (parent, request) = OPEN
        .with(|o| o.borrow().last().copied())
        .map_or((None, 0), |(i, r)| (Some(i), r));
    recorder().push(Span {
        name: name.to_string(),
        start,
        end,
        parent,
        request,
    });
}

pub fn spans() -> Vec<Span> {
    recorder().clone()
}

/// The layer a span belongs to: the first dot-separated component of
/// its name (`core.analyze.render` belongs to `core`).
pub fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Per-span self time in seconds: the span's duration minus the part
/// of it its children cover. Children run on the parent's thread, one
/// after another, so their durations add up without overlap.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end - s.start;
        }
    }
    spans
        .iter()
        .zip(&child_ns)
        .map(|(s, &c)| (s.end - s.start).saturating_sub(c) as f64 * 1e-9)
        .collect()
}

/// Whether span `i` lies inside a span named `root` (or is one).
pub fn under(spans: &[Span], mut i: usize, root: &str) -> bool {
    loop {
        if spans[i].name == root {
            return true;
        }
        match spans[i].parent {
            Some(p) => i = p,
            None => return false,
        }
    }
}

/// Sum of self times per layer over the spans under `root` spans.
pub fn layer_self_times(spans: &[Span], root: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (i, t) in self_times(spans).into_iter().enumerate() {
        if under(spans, i, root) {
            *out.entry(layer(&spans[i].name).to_string()).or_insert(0.0) += t;
        }
    }
    out
}

/// Total duration (seconds) and count of spans named `name`.
pub fn total(spans: &[Span], name: &str) -> (f64, usize) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0.0, 0), |(t, n), s| {
            (t + (s.end - s.start) as f64 * 1e-9, n + 1)
        })
}

/// Write every span as one JSON object per line.
pub fn flush(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            s.name, s.start, s.end, s.request
        )?;
    }
    out.flush()
}
