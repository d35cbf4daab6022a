//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is `{name, start_ns, end_ns, parent, op}`: the name's prefix up
//! to the first `.` is the layer, `op` is the seed, decision index or
//! artifact the call worked on. Spans stay in memory until the run ends.
//! A span's self time is its duration minus the part of that interval its
//! children cover.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<what>`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
    /// Seed, decision index or artifact ordinal.
    pub op: u64,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Records spans while switched on; a switched-off tracer only calls
/// through, so one code path serves the traced and the untraced run.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    // A mutex, not a RefCell: `Scenario` requires `Sync` of the wrapper that
    // holds the tracer. Traced runs are single-threaded, so it is never
    // contended and the open-span stack is well defined.
    inner: Mutex<Inner>,
}

impl Tracer {
    /// A tracer that records (`on`) or only calls through.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("a traced call panicked")
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let index = {
            let mut inner = self.lock();
            let index = inner.spans.len() as u32;
            let parent = inner.open.last().copied();
            inner.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                op,
            });
            inner.open.push(index);
            index
        };
        let start = self.epoch.elapsed();
        let out = f();
        let end = self.epoch.elapsed();
        let mut inner = self.lock();
        inner.open.pop();
        let span = &mut inner.spans[index as usize];
        span.start_ns = start.as_nanos() as u64;
        span.end_ns = end.as_nanos() as u64;
        out
    }

    /// Takes the spans recorded so far, leaving the tracer empty.
    pub fn drain(&self) -> Vec<Span> {
        let mut inner = self.lock();
        debug_assert!(inner.open.is_empty(), "drained inside an open span");
        std::mem::take(&mut inner.spans)
    }
}

/// The layer a span belongs to: its name up to the first `.`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time of every span, index-aligned with `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            // Children may overlap each other and overhang the parent:
            // count the union of their intervals, clipped to the parent.
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Self time summed per layer.
pub fn self_ns_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_layer = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let name: &'static str = s.name;
        *by_layer.entry(layer_of(name)).or_insert(0) += own;
    }
    by_layer
}

/// Durations (ns) of every span called `name`.
pub fn durations_of(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .collect()
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// (`X`) event per span, `args` carrying `op`, `parent` and `self_us`.
pub fn chrome_json(spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (i, (s, own)) in spans.iter().zip(own).enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or(-1, i64::from);
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"op\":{},\"parent\":{parent},\
             \"self_us\":{:.3}}}}}",
            s.name,
            layer_of(s.name),
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.op,
            own as f64 / 1e3,
        ));
    }
    out.push_str("\n]}\n");
    out
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
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root [0,100) > a [10,60) > b [20,30); root > c [70,90)
        let spans = [
            span("bench.unit", 0, 100, None),
            span("sim.run", 10, 60, Some(0)),
            span("core.resolve", 20, 30, Some(1)),
            span("harness.json", 70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
        let by = self_ns_by_layer(&spans);
        assert_eq!(by["bench"], 30);
        assert_eq!(by["sim"], 40);
        assert_eq!(by["core"], 10);
        assert_eq!(by["harness"], 20);
        assert_eq!(by.values().sum::<u64>(), 100, "self times tile the root");
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_double_counted() {
        // Children [10,50) and [30,70) overlap; [90,130) overhangs the end.
        let spans = [
            span("bench.unit", 0, 100, None),
            span("sim.run", 10, 50, Some(0)),
            span("sim.run", 30, 70, Some(0)),
            span("sim.run", 90, 130, Some(0)),
        ];
        // Union inside the parent: [10,70) + [90,100) = 70.
        assert_eq!(self_times(&spans)[0], 30);
        // A child covering the whole parent leaves no self time.
        let spans = [span("a.x", 10, 20, None), span("b.y", 0, 40, Some(0))];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn tracer_links_parents_and_off_records_nothing() {
        let t = Tracer::new(true);
        let got = t.span("bench.unit", 7, || t.span("sim.run", 8, || 42));
        assert_eq!(got, 42);
        let spans = t.drain();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].op),
            ("bench.unit", None, 7)
        );
        assert_eq!(
            (spans[1].name, spans[1].parent, spans[1].op),
            ("sim.run", Some(0), 8)
        );
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(t.drain().is_empty());

        let off = Tracer::new(false);
        assert_eq!(off.span("bench.unit", 0, || 1), 1);
        assert!(off.drain().is_empty());
    }

    #[test]
    fn chrome_export_is_one_event_per_span() {
        let spans = [
            span("bench.unit", 0, 2_000, None),
            span("sim.run", 500, 1_500, Some(0)),
        ];
        let json = chrome_json(&spans);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"name\":\"sim.run\",\"cat\":\"sim\""));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"self_us\":1.000"));
        cb_harness::Json::parse(&json).expect("valid JSON");
    }
}
