//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only by this benchmark's own code, around its calls
//! into each layer's public functions; nothing inside the program is
//! instrumented. Every span carries a name, start, end, the span that
//! caused it, the op it belongs to, and the recording thread. Spans stay
//! in memory and are written once, at the end, as Chrome trace-event JSON.

use crate::{json_text, object};
use serde::Value;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// Causing span (0 = none).
    pub parent: u32,
    /// Op the span belongs to (0 = outside any op).
    pub op: u32,
    pub name: &'static str,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work count the span carried (e.g. meter samples); 0 when unused.
    pub count: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);
/// `(parent << 32) | op` that threads without an open span of their own
/// (sweep workers, load clients) attach their spans to.
static FALLBACK: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static STACK: RefCell<Vec<(u32, u32)>> = const { RefCell::new(Vec::new()) };
    static THREAD: Cell<u32> = const { Cell::new(0) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

fn thread_id() -> u32 {
    THREAD.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// An open span; recorded when dropped.
pub struct Guard {
    id: u32,
    parent: u32,
    op: u32,
    name: &'static str,
    start_ns: u64,
    count: u64,
}

impl Guard {
    /// Adds to the work count the span reports.
    pub fn add(&mut self, n: u64) {
        self.count += n;
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end_ns = now_ns();
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        let span = Span {
            id: self.id,
            parent: self.parent,
            op: self.op,
            name: self.name,
            thread: thread_id(),
            start_ns: self.start_ns,
            end_ns,
            count: self.count,
        };
        // A poisoned lock only means another recording thread panicked
        // mid-push; the vector itself is still valid.
        SPANS.lock().unwrap_or_else(|e| e.into_inner()).push(span);
    }
}

/// Opens a span under this thread's innermost open span, or under the
/// fallback parent when the thread has none.
pub fn span(name: &'static str) -> Guard {
    let (parent, op) = STACK
        .with(|s| s.borrow().last().copied())
        .unwrap_or_else(|| {
            let f = FALLBACK.load(Ordering::SeqCst);
            ((f >> 32) as u32, f as u32)
        });
    open(name, parent, op)
}

/// Opens the root span of op `op`.
pub fn op_span(name: &'static str, op: u32) -> Guard {
    open(name, 0, op)
}

fn open(name: &'static str, parent: u32, op: u32) -> Guard {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push((id, op)));
    Guard {
        id,
        parent,
        op,
        name,
        start_ns: now_ns(),
        count: 0,
    }
}

/// Makes `guard` the parent of spans opened on threads that have no open
/// span of their own, until the returned value is dropped.
pub fn adopt_orphans(guard: &Guard) -> Adopt {
    FALLBACK.store(
        ((guard.id as u64) << 32) | guard.op as u64,
        Ordering::SeqCst,
    );
    Adopt
}

pub struct Adopt;

impl Drop for Adopt {
    fn drop(&mut self) {
        FALLBACK.store(0, Ordering::SeqCst);
    }
}

/// A copy of every span recorded so far, in close order.
pub fn snapshot() -> Vec<Span> {
    SPANS.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Every span recorded so far, in close order, leaving none behind.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Self time of every span: its duration minus the union of the
/// intervals its children *on the same thread* cover. Children on other
/// threads (sweep workers) run concurrently and are accounted as their
/// own threads' time. Returned in the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let index: HashMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            if spans[p].thread == s.thread {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns - covered) as f64 * 1e-9
        })
        .collect()
}

/// Aggregates of all spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans recorded.
    pub spans: u64,
    /// Sum of their work counts.
    pub count: u64,
    /// Sum of their self times, seconds.
    pub self_s: f64,
    /// Sum of their durations, seconds.
    pub wall_s: f64,
}

/// [`Totals`] per span name.
pub struct ByName(BTreeMap<&'static str, Totals>);

impl ByName {
    pub fn of(spans: &[Span]) -> ByName {
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, t) in spans.iter().zip(self_times(spans)) {
            let e = out.entry(s.name).or_default();
            e.spans += 1;
            e.count += s.count;
            e.self_s += t;
            e.wall_s += s.secs();
        }
        ByName(out)
    }

    /// The totals of `name` (zero when no such span was recorded).
    pub fn get(&self, name: &str) -> Totals {
        self.0.get(name).copied().unwrap_or_default()
    }
}

/// Share of the op roots' wall time that the self times of the layer
/// spans inside them account for, on single-threaded ops. A root is a
/// span of an op with no parent.
pub fn op_coverage(spans: &[Span]) -> f64 {
    let (mut covered, mut wall) = (0.0, 0.0);
    for (s, self_s) in spans.iter().zip(self_times(spans)) {
        match (s.op, s.parent) {
            (0, _) => {}
            (_, 0) => wall += s.secs(),
            _ => covered += self_s,
        }
    }
    covered / wall
}

/// Renders spans as Chrome trace-event JSON ("X" complete events, one
/// per span, microsecond timestamps), with `meta` as the `otherData`
/// object.
pub fn chrome_json(spans: &[Span], meta: &Value) -> String {
    let uint = |n: u64| Value::UInt(n.into());
    let events = spans.iter().map(|s| {
        object([
            ("name", Value::Str(s.name.to_string())),
            ("ph", Value::Str("X".into())),
            ("pid", uint(1)),
            ("tid", uint(s.thread.into())),
            ("ts", Value::Num(s.start_ns as f64 / 1e3)),
            ("dur", Value::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
            (
                "args",
                object([
                    ("id", uint(s.id.into())),
                    ("parent", uint(s.parent.into())),
                    ("op", uint(s.op.into())),
                    ("count", uint(s.count)),
                ]),
            ),
        ])
    });
    json_text(&object([
        ("displayTimeUnit", Value::Str("ms".into())),
        ("otherData", meta.clone()),
        ("traceEvents", Value::Array(events.collect())),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, thread: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: "t",
            thread,
            start_ns,
            end_ns,
            count: 0,
        }
    }

    #[test]
    fn self_time_subtracts_same_thread_children_once() {
        let spans = vec![
            span(1, 0, 1, 0, 100),
            // Two overlapping children cover 10..50.
            span(2, 1, 1, 10, 40),
            span(3, 1, 1, 30, 50),
            // A child on another thread does not reduce the parent.
            span(4, 1, 2, 0, 100),
        ];
        let t = self_times(&spans);
        assert!((t[0] - 60e-9).abs() < 1e-15, "{t:?}");
        assert!((t[1] - 30e-9).abs() < 1e-15);
        assert!((t[3] - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn op_coverage_counts_layer_self_time_inside_ops() {
        let mut spans = vec![span(1, 0, 1, 0, 100), span(2, 1, 1, 10, 60)];
        spans[0].name = "op";
        // A span outside any op (the emulator pass) is not coverage.
        spans.push(Span {
            op: 0,
            ..span(3, 0, 1, 200, 300)
        });
        assert!((op_coverage(&spans) - 0.5).abs() < 1e-12);
        assert_eq!(ByName::of(&spans).get("t").spans, 2);
        assert_eq!(ByName::of(&spans).get("absent"), Totals::default());
    }

    #[test]
    fn chrome_export_is_parseable_json() {
        let spans = vec![span(1, 0, 1, 1_000, 3_500)];
        let text = chrome_json(&spans, &object([("seed", Value::UInt(1))]));
        let v = serde_json::parse(&text).expect("valid JSON");
        let events = v.field("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 1);
    }
}
