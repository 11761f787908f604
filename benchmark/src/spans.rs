//! Host-time spans the benchmark records around its own calls into the
//! program. Spans are kept in memory and written out when the block ends;
//! a span's self time is its duration minus the part its children cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// The `api.*` span names, i.e. the `WorkerCtx` calls the owned programs
/// make. `SYNC_CALLS` and `ACCESS_CALLS` split them for the share metrics.
pub const SYNC_CALLS: [&str; 4] = [
    "api.barrier",
    "api.lock_acquire",
    "api.lock_release",
    "api.fetch_add",
];
pub const ACCESS_CALLS: [&str; 2] = ["api.read_slice", "api.write"];

/// One timed interval, in nanoseconds since the block's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    /// Id of the span that caused this one (`None` only for the block root).
    pub parent: Option<u32>,
    /// Index of the execution the span belongs to; spans of one execution
    /// share it (`None` for the block root).
    pub exec: Option<u32>,
    pub name: &'static str,
    pub node: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls the span covers (a strided write loop is one span, many calls).
    pub calls: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A call recorded inside a worker, before it has an id or a parent.
#[derive(Clone, Copy, Debug)]
pub struct Call {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub calls: u32,
}

/// What one worker hands back with its result: its own interval and the
/// `api.*` calls it made.
#[derive(Debug, Default)]
pub struct WorkerLog {
    pub node: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    pub calls: Vec<Call>,
}

/// Per-worker call timer. With tracing off every method is a plain call.
pub struct CallTimer {
    epoch: Option<Instant>,
    node: usize,
    start_ns: u64,
    calls: RefCell<Vec<Call>>,
}

impl CallTimer {
    /// `epoch` is the block's time origin, `None` when tracing is off.
    pub fn start(epoch: Option<Instant>, node: usize) -> Self {
        CallTimer {
            epoch,
            node,
            start_ns: epoch.map_or(0, ns_since),
            calls: RefCell::new(Vec::new()),
        }
    }

    /// Runs `f`, recording it as `calls` calls named `name` when tracing.
    pub fn time<R>(&self, name: &'static str, calls: u32, f: impl FnOnce() -> R) -> R {
        let Some(epoch) = self.epoch else {
            return f();
        };
        let start_ns = ns_since(epoch);
        let out = f();
        self.calls.borrow_mut().push(Call {
            name,
            start_ns,
            end_ns: ns_since(epoch),
            calls,
        });
        out
    }

    pub fn finish(self) -> WorkerLog {
        WorkerLog {
            node: self.node,
            start_ns: self.start_ns,
            end_ns: self.epoch.map_or(0, ns_since),
            calls: self.calls.into_inner(),
        }
    }
}

pub fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Totals of all spans of one name.
#[derive(Clone, Debug, Default)]
pub struct NameTotals {
    pub spans: u64,
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Host ns per call of each span (duration ÷ calls).
    pub per_call_ns: Vec<f64>,
}

/// The block's span store: every span folded into per-name totals, the
/// spans of the first few executions kept whole for the span file.
pub struct SpanStore {
    next_id: u32,
    root: Span,
    detail: Vec<Span>,
    detail_execs: u32,
    pub totals: BTreeMap<&'static str, NameTotals>,
}

/// Executions whose spans are written out whole. The totals cover all of
/// them; the file would otherwise reach hundreds of megabytes on `locks`.
const DETAIL_EXECS: u32 = 4;

impl SpanStore {
    pub fn new() -> Self {
        SpanStore {
            next_id: 2,
            root: Span {
                id: 1,
                parent: None,
                exec: None,
                name: "block",
                node: None,
                start_ns: 0,
                end_ns: 0,
                calls: 1,
            },
            detail: Vec::new(),
            detail_execs: 0,
            totals: BTreeMap::new(),
        }
    }

    pub fn root_id(&self) -> u32 {
        self.root.id
    }

    pub fn new_id(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id - 1
    }

    /// Folds one execution's spans (parents before children is not
    /// required) into the totals, and keeps them if still in the detail
    /// budget.
    pub fn add_execution(&mut self, spans: Vec<Span>) {
        let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        for s in &spans {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            let t = self.totals.entry(s.name).or_default();
            t.spans += 1;
            t.calls += u64::from(s.calls);
            t.total_ns += s.dur_ns();
            t.self_ns += s.dur_ns().saturating_sub(covered);
            if s.name.starts_with("api.") {
                t.per_call_ns
                    .push(s.dur_ns() as f64 / f64::from(s.calls.max(1)));
            }
        }
        if self.detail_execs < DETAIL_EXECS {
            self.detail_execs += 1;
            self.detail.extend(spans);
        }
    }

    /// Closes the block span and renders the span file.
    pub fn render(&mut self, workload: &str, end_ns: u64) -> String {
        self.root.end_ns = end_ns;
        let span_json = |s: &Span| {
            Json::obj([
                ("id", Json::Num(f64::from(s.id))),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                ),
                (
                    "exec",
                    s.exec.map_or(Json::Null, |e| Json::Num(f64::from(e))),
                ),
                ("name", Json::Str(s.name.to_string())),
                ("node", s.node.map_or(Json::Null, |n| Json::Num(n as f64))),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("calls", Json::Num(f64::from(s.calls))),
            ])
            .render()
        };
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!(
            "\"workload\": {},\n",
            Json::Str(workload.into()).render()
        ));
        out.push_str("\"time_unit\": \"host ns since the block started\",\n");
        out.push_str(&format!(
            "\"executions_written_whole\": {},\n",
            self.detail_execs
        ));
        let totals = Json::Obj(
            self.totals
                .iter()
                .map(|(name, t)| {
                    (
                        name.to_string(),
                        Json::obj([
                            ("spans", Json::Num(t.spans as f64)),
                            ("calls", Json::Num(t.calls as f64)),
                            ("total_ns", Json::Num(t.total_ns as f64)),
                            ("self_ns", Json::Num(t.self_ns as f64)),
                        ]),
                    )
                })
                .collect(),
        );
        out.push_str(&format!(
            "\"totals_all_executions\": {},\n",
            totals.render()
        ));
        out.push_str("\"spans\": [\n");
        out.push_str(&span_json(&self.root));
        for s in &self.detail {
            out.push_str(",\n");
            out.push_str(&span_json(s));
        }
        out.push_str("\n]\n}\n");
        out
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(reach);
        let e = e.min(hi);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            exec: Some(0),
            name,
            node: None,
            start_ns: start,
            end_ns: end,
            calls: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut store = SpanStore::new();
        store.add_execution(vec![
            span(10, Some(1), "run", 0, 100),
            // Two overlapping workers cover 10..80 of the cluster span.
            span(11, Some(10), "cluster", 5, 95),
            span(12, Some(11), "worker", 10, 60),
            span(13, Some(11), "worker", 40, 80),
            span(14, Some(12), "api.barrier", 20, 30),
        ]);
        assert_eq!(store.totals["run"].self_ns, 10);
        assert_eq!(store.totals["cluster"].self_ns, 20);
        assert_eq!(store.totals["worker"].total_ns, 90);
        assert_eq!(store.totals["worker"].self_ns, 80);
        assert_eq!(store.totals["api.barrier"].per_call_ns, vec![10.0]);
    }

    #[test]
    fn every_written_span_but_the_root_names_a_written_parent() {
        let mut store = SpanStore::new();
        let root = store.root_id();
        let run = store.new_id();
        let child = store.new_id();
        store.add_execution(vec![
            span(run, Some(root), "run", 1, 9),
            span(child, Some(run), "cluster", 2, 8),
        ]);
        let file = Json::parse(&store.render("w", 10)).unwrap();
        let spans = file.get("spans").unwrap().as_arr().unwrap();
        let ids: Vec<f64> = spans.iter().map(|s| s.num("id").unwrap()).collect();
        let roots = spans
            .iter()
            .filter(|s| s.get("parent") == Some(&Json::Null))
            .count();
        assert_eq!(roots, 1);
        for s in spans {
            if let Some(p) = s.get("parent").and_then(Json::as_f64) {
                assert!(ids.contains(&p));
            }
        }
    }

    #[test]
    fn untraced_timer_records_nothing() {
        let t = CallTimer::start(None, 0);
        assert_eq!(t.time("api.write", 1, || 7), 7);
        assert!(t.finish().calls.is_empty());
    }
}
