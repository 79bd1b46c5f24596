//! In-memory span recorder used by the traced runs.
//!
//! Spans are recorded only by the benchmark's own code, around calls into
//! the public functions of each layer. A disabled tracer runs the closure
//! and records nothing, so traced and untraced runs execute the same calls.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span: a call into a layer, in nanoseconds since the
/// tracer's origin.
#[derive(Debug)]
pub struct Span {
    pub id: usize,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u64,
    pub thread: u64,
}

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

/// Span recorder. Spans opened on a thread with no open span (pool
/// workers) are parented to the root span.
pub struct Tracer {
    enabled: bool,
    run: u64,
    origin: Instant,
    next_id: AtomicUsize,
    root: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

/// Layer-level summary of the recorded spans under the root span.
pub struct Summary {
    /// Wall time of the root span.
    pub wall_s: f64,
    /// Summed duration per span name.
    pub busy_s: BTreeMap<&'static str, f64>,
    /// Summed self time (duration minus direct children) per span name.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Share of the root span's wall time that no layer span covers.
    pub uncovered_share: f64,
    /// Number of spans recorded under the root.
    pub spans: usize,
    /// Distinct threads that recorded spans.
    pub threads: usize,
    /// Run id every span carries.
    pub run: u64,
}

const NO_ROOT: usize = usize::MAX;

impl Tracer {
    pub fn new(enabled: bool, run: u64) -> Self {
        Self {
            enabled,
            run,
            origin: Instant::now(),
            next_id: AtomicUsize::new(0),
            root: AtomicUsize::new(NO_ROOT),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| s.borrow().last().copied()).or_else(|| {
            let root = self.root.load(Ordering::Acquire);
            (root != NO_ROOT).then_some(root)
        });
        if parent.is_none() {
            self.root.store(id, Ordering::Release);
        }
        STACK.with(|s| s.borrow_mut().push(id));
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        STACK.with(|s| s.borrow_mut().pop());
        let span = Span {
            id,
            name,
            start_ns,
            end_ns,
            parent,
            run: self.run,
            thread: THREAD.with(|t| *t),
        };
        self.spans.lock().expect("span buffer").push(span);
        out
    }

    /// Summarises the spans below the root span (the first span opened).
    pub fn summary(&self) -> Option<Summary> {
        let spans = self.spans.lock().expect("span buffer");
        let root_id = self.root.load(Ordering::Acquire);
        let root = spans.iter().find(|s| s.id == root_id)?;
        let ns = |d: u64| d as f64 * 1e-9;
        let mut busy: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut child_ns: BTreeMap<usize, u64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.id != root_id) {
            *busy.entry(s.name).or_default() += ns(s.end_ns - s.start_ns);
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut self_s: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.id != root_id) {
            let own =
                (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            *self_s.entry(s.name).or_default() += ns(own);
        }
        // Union of every layer span's interval, clipped to the root.
        let mut intervals: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| s.id != root_id)
            .map(|s| (s.start_ns.max(root.start_ns), s.end_ns.min(root.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        intervals.sort_unstable();
        let mut covered = 0u64;
        let mut current: Option<(u64, u64)> = None;
        for (a, b) in intervals {
            match current {
                Some((ca, cb)) if a <= cb => current = Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    current = Some((a, b));
                }
                None => current = Some((a, b)),
            }
        }
        if let Some((ca, cb)) = current {
            covered += cb - ca;
        }
        let wall_ns = (root.end_ns - root.start_ns).max(1);
        let mut threads: Vec<u64> = spans.iter().map(|s| s.thread).collect();
        threads.sort_unstable();
        threads.dedup();
        Some(Summary {
            wall_s: ns(wall_ns),
            busy_s: busy,
            self_s,
            uncovered_share: 1.0 - covered as f64 / wall_ns as f64,
            spans: spans.len() - 1,
            threads: threads.len(),
            run: root.run,
        })
    }
}
