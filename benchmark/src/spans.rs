//! In-memory spans recorded from outside the layers: one span around
//! each call into a layer's public functions. Nothing inside the
//! repository's crates knows about them.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.call`, e.g. `f77.parse`; the text before the first dot
    /// is the layer.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// The unit of work (program, request, artifact) the span belongs
    /// to; spans of one unit share it.
    pub unit: u32,
}

impl Span {
    /// `end − start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

thread_local! {
    /// The innermost span open on this thread.
    static CURRENT: Cell<Option<u32>> = const { Cell::new(None) };
}

/// Span recorder. Switched off it records nothing and costs one branch
/// per call, so the end-to-end runs and the traced runs execute the
/// same workload code.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer {
            on: true,
            ..Tracer::off()
        }
    }

    /// The innermost span open on the calling thread. Capture it before
    /// handing work to another thread and pass it to
    /// [`Tracer::span_under`] there.
    pub fn current(&self) -> Option<u32> {
        CURRENT.with(Cell::get)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("no span is recorded while panicking")
    }

    /// Run `f` inside a span caused by the calling thread's open span.
    pub fn span<R>(&self, name: &'static str, unit: u32, f: impl FnOnce() -> R) -> R {
        self.span_under(self.current(), name, unit, f)
    }

    /// Run `f` inside a span caused by `parent`.
    pub fn span_under<R>(
        &self,
        parent: Option<u32>,
        name: &'static str,
        unit: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on {
            return f();
        }
        let id = {
            let mut spans = self.lock();
            spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                unit,
            });
            (spans.len() - 1) as u32
        };
        let outer = CURRENT.with(|c| c.replace(Some(id)));
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        CURRENT.with(|c| c.set(outer));
        let mut spans = self.lock();
        spans[id as usize].start_ns = start_ns;
        spans[id as usize].end_ns = end_ns;
        out
    }

    /// Everything recorded so far, leaving the tracer empty.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.lock())
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its child spans cover. Children that overlap (work
/// handed to two threads) are counted once, and a child is clipped to
/// its parent's interval.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Totals of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotal {
    /// Spans recorded.
    pub count: u64,
    /// Summed durations, seconds.
    pub total_s: f64,
    /// Summed self times, seconds.
    pub self_s: f64,
}

/// Per-name totals, in name order.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_s += s.duration_ns() as f64 * 1e-9;
        t.self_s += self_ns as f64 * 1e-9;
    }
    out
}

/// How a workload's traced iterations split over the layers.
#[derive(Debug, Clone, PartialEq)]
pub struct Reconciliation {
    /// Summed duration of the root (`bench.iteration`) spans, seconds.
    pub iterations_s: f64,
    /// Self time per layer, seconds, in layer order, `bench` left out.
    pub layer_self_s: BTreeMap<&'static str, f64>,
    /// Self time of the root spans: time inside an iteration that no
    /// layer span covers.
    pub unattributed_s: f64,
}

impl Reconciliation {
    /// Whether the layers' self times explain the iterations to within
    /// `tolerance` (a share of the iteration time). With work on two
    /// threads the layers can sum to more than the wall time, so only
    /// the uncovered remainder is held against the tolerance.
    pub fn holds(&self, tolerance: f64) -> bool {
        self.unattributed_s <= tolerance * self.iterations_s
    }
}

/// Name of the root span each workload iteration runs in.
pub const ITERATION: &str = "bench.iteration";

/// Split the traced iterations over the layers.
pub fn reconcile(spans: &[Span]) -> Reconciliation {
    let selfs = self_times_ns(spans);
    let mut r = Reconciliation {
        iterations_s: 0.0,
        layer_self_s: BTreeMap::new(),
        unattributed_s: 0.0,
    };
    for (s, self_ns) in spans.iter().zip(selfs) {
        let self_s = self_ns as f64 * 1e-9;
        if s.name == ITERATION {
            r.iterations_s += s.duration_ns() as f64 * 1e-9;
            r.unattributed_s += self_s;
        } else if s.layer() != "bench" {
            *r.layer_self_s.entry(s.layer()).or_default() += self_s;
        }
    }
    r
}

/// One section of a trace file: the per-name totals, a name table, and
/// one `[name, start_ns, end_ns, parent, unit]` row per span (`name`
/// indexes the table, `parent` is a row index or `null`).
pub fn to_json(spans: &[Span]) -> String {
    let totals = totals_by_name(spans);
    let names: Vec<&str> = totals.keys().copied().collect();
    let index = |n: &str| {
        names
            .binary_search(&n)
            .expect("every span name is in the table")
    };
    let rows = |lines: Vec<String>| lines.join(",\n");
    let total_rows = totals
        .iter()
        .map(|(name, t)| {
            format!(
                "  \"{name}\": {{\"count\": {}, \"total_s\": {:.9}, \"self_s\": {:.9}}}",
                t.count, t.total_s, t.self_s
            )
        })
        .collect();
    let span_rows = spans
        .iter()
        .map(|s| {
            format!(
                "  [{}, {}, {}, {}, {}]",
                index(s.name),
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.unit
            )
        })
        .collect();
    format!(
        "{{\"totals\": {{\n{}\n }},\n \"names\": [{}],\n \"spans\": [\n{}\n ]}}",
        rows(total_rows),
        names
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(", "),
        rows(span_rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            unit: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100; child 10..60 holds grandchild 20..30.
        let spans = [
            span(ITERATION, 0, 100, None),
            span("a.x", 10, 60, Some(0)),
            span("b.y", 20, 30, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn self_time_with_sibling_children_apart_touching_and_overlapping() {
        let spans = [
            span(ITERATION, 0, 100, None),
            span("a.x", 10, 20, Some(0)),
            span("a.x", 20, 30, Some(0)), // touches the first
            span("a.x", 50, 70, Some(0)),
            span("a.x", 60, 80, Some(0)), // overlaps: another thread
            span("a.x", 65, 66, Some(0)), // inside the overlap
        ];
        // cover = [10,30) + [50,80) = 50
        assert_eq!(self_times_ns(&spans)[0], 50);
    }

    #[test]
    fn a_child_is_clipped_to_its_parent() {
        let spans = [span(ITERATION, 10, 20, None), span("a.x", 5, 15, Some(0))];
        assert_eq!(self_times_ns(&spans)[0], 5);
    }

    #[test]
    fn reconciliation_sums_layers_and_reports_the_remainder() {
        let spans = [
            span(ITERATION, 0, 1_000, None),
            span("f77.parse", 0, 300, Some(0)),
            span("core.restructure", 300, 950, Some(0)),
            span("analysis.depend", 400, 600, Some(2)),
            span(ITERATION, 1_000, 2_000, None),
            span("f77.parse", 1_000, 1_960, Some(4)),
        ];
        let r = reconcile(&spans);
        assert!((r.iterations_s - 2e-6).abs() < 1e-15);
        assert!((r.unattributed_s - 90e-9).abs() < 1e-15);
        assert!((r.layer_self_s["f77"] - 1_260e-9).abs() < 1e-15);
        assert!((r.layer_self_s["core"] - 450e-9).abs() < 1e-15);
        assert!((r.layer_self_s["analysis"] - 200e-9).abs() < 1e-15);
        let explained: f64 = r.layer_self_s.values().sum();
        assert!((explained + r.unattributed_s - r.iterations_s).abs() < 1e-15);
        assert!(r.holds(0.10));
        assert!(!r.holds(0.01));
    }

    #[test]
    fn tracer_records_parents_per_thread_and_across_threads() {
        let t = Tracer::on();
        t.span(ITERATION, 0, || {
            let root = t.current();
            t.span("a.x", 1, || {});
            std::thread::scope(|s| {
                s.spawn(|| t.span_under(root, "b.y", 2, || t.span("c.z", 2, || {})));
            });
        });
        let spans = t.take();
        let by_name = |n: &str| {
            spans
                .iter()
                .position(|s| s.name == n)
                .expect("span was recorded")
        };
        assert_eq!(
            spans[by_name("a.x")].parent,
            Some(by_name(ITERATION) as u32)
        );
        assert_eq!(
            spans[by_name("b.y")].parent,
            Some(by_name(ITERATION) as u32)
        );
        assert_eq!(spans[by_name("c.z")].parent, Some(by_name("b.y") as u32));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(t.take().is_empty());
    }

    #[test]
    fn a_trace_section_is_json_with_one_row_per_span() {
        let spans = [span(ITERATION, 0, 100, None), span("a.x", 10, 60, Some(0))];
        let v = cedar_experiments::Json::parse(&to_json(&spans)).expect("a section is JSON");
        assert_eq!(
            v.get("spans").and_then(|s| s.as_arr()).map(<[_]>::len),
            Some(2)
        );
        let total = v
            .get("totals")
            .and_then(|t| t.get("a.x"))
            .expect("totals by name");
        assert_eq!(total.get("count").and_then(|c| c.as_f64()), Some(1.0));
        assert!(cedar_experiments::Json::parse(&to_json(&[])).is_ok());
    }

    #[test]
    fn a_tracer_switched_off_records_nothing() {
        let t = Tracer::off();
        assert_eq!(t.span("a.x", 0, || 7), 7);
        assert!(t.take().is_empty());
    }
}
