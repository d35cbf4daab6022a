//! The decision-provenance section of campaign artifacts.
//!
//! Every [`RunReport`](crate::scenario::RunReport) embeds a bounded tail of
//! the fleet's flight recorders — the causally-linked spans cb-simnet and
//! cb-core record along the decision path — plus, on failing runs, one
//! synthesised [`SpanKind::Violation`] span per failing oracle whose parents
//! anchor it to the last activity (and last decision) on every node. The
//! `trace` CLI's `blame` query walks those parent edges from the violation
//! back to the originating decisions.
//!
//! Determinism follows the dual-clock discipline: every span field except
//! `wall_ns` is a pure function of `(scenario, seed, plan)`, so
//! [`provenance_json`] with `masked = true` is byte-identical across replays
//! of the same seed. The JSON key is literally `wall_ns` so generic
//! key-contains-"wall" masking (the CI determinism check) blanks it without
//! knowing the schema.
//!
//! A green run's tail is a [`Tail`] that renders on first read: a sweep
//! drops most green reports unread, and collecting the tail was up to a
//! quarter of a small fleet's run.

use crate::json::{Json, Kind, ParseError, Reader, Sink};
use cb_simnet::prelude::{Actor, Sim, SimTime};
use cb_trace::{FlightRecorder, Span, SpanId, SpanKind, SpanRef};
use std::ops::{Deref, DerefMut};
use std::sync::OnceLock;

/// Schema tag of the `provenance` artifact section.
pub const PROVENANCE_SCHEMA: &str = "cb-provenance/v1";

/// How many trailing spans per node a report embeds (before the
/// retained-parent closure pulls in any older causal ancestors).
pub const TAIL_PER_NODE: usize = 128;

/// Budget multiplier for the retained-parent closure: the closure may at
/// most double the seeded tail (`TAIL_PER_NODE` × nodes). Without a budget
/// the closure can chase causal ancestry back through nearly the whole
/// retained ring (long-running fleets produced 20k+-span, 13 MB artifacts);
/// parents beyond the budget surface as `unresolved` in `trace blame`, the
/// same way ring-evicted ancestors do.
pub const CLOSURE_BUDGET_FACTOR: usize = 2;

/// Node id reserved for harness-synthesised spans (oracle violations).
pub const VIOLATION_NODE: u32 = u32::MAX;

/// Collects the embedded tail: the last [`TAIL_PER_NODE`] spans of every
/// node's flight recorder, closed over causal parents that are still
/// retained anywhere in the fleet (so a blame chain does not dead-end just
/// because an ancestor fell outside the per-node tail). The closure expands
/// breadth-first in span-id order and stops once the total span count
/// reaches [`CLOSURE_BUDGET_FACTOR`] × the seeded tail, keeping artifacts
/// bounded on long runs; truncated parents show up as `unresolved` in blame
/// walks, exactly like ring-evicted ones. Sorted by span id
/// `(at_ns, node, seq)`; deterministic for a given seed.
///
/// `fleet[n]` is node `n`'s recorder. The work is O(tail): parents resolve
/// through [`FlightRecorder::index_of`] rather than a fleet-wide map, and
/// only the spans returned are rendered.
pub fn collect_tail(fleet: &[FlightRecorder], per_node: usize) -> Vec<Span> {
    /// Picks `fleet[node]`'s `index`-th span unless already picked.
    fn pick<'a>(
        fleet: &'a [FlightRecorder],
        seen: &mut [Vec<bool>],
        picked: &mut Vec<(SpanId, SpanRef<'a>)>,
        (node, index): (usize, usize),
    ) {
        if !std::mem::replace(&mut seen[node][index], true) {
            let span = fleet[node].get(index).expect("index below len");
            picked.push((span.id(), span));
        }
    }
    // One flag per retained span. `picked` is in pick order and doubles as
    // the breadth-first queue.
    let mut seen: Vec<Vec<bool>> = fleet.iter().map(|rec| vec![false; rec.len()]).collect();
    let mut picked: Vec<(SpanId, SpanRef<'_>)> = Vec::new();
    for (node, rec) in fleet.iter().enumerate() {
        let len = rec.len();
        for index in len.saturating_sub(per_node)..len {
            pick(fleet, &mut seen, &mut picked, (node, index));
        }
        // Decisions are the point of the exercise: seed the export with each
        // node's retained decision spans (bounded by the recorder's pinned
        // side-ring plus whatever the main ring still holds, capped here) so
        // the violation span's decision-parent edges resolve in the tail
        // even when the last decision predates the per-node window.
        let mut decisions: Vec<usize> = rec
            .spans()
            .rev()
            .enumerate()
            .filter(|(_, s)| s.kind() == SpanKind::Decision)
            .map(|(back, _)| len - 1 - back)
            .take(cb_trace::DECISION_PIN_CAPACITY)
            .collect();
        decisions.reverse();
        for index in decisions {
            pick(fleet, &mut seen, &mut picked, (node, index));
        }
    }
    let budget = picked.len().saturating_mul(CLOSURE_BUDGET_FACTOR).max(1);
    let mut head = 0;
    while head < picked.len() && picked.len() < budget {
        let (_, span) = picked[head];
        head += 1;
        for parent in span.parents() {
            if picked.len() >= budget {
                break;
            }
            let node = parent.node as usize;
            if let Some(index) = fleet.get(node).and_then(|rec| rec.index_of(*parent)) {
                pick(fleet, &mut seen, &mut picked, (node, index));
            }
        }
    }
    picked.sort_unstable_by_key(|(id, _)| *id);
    picked.iter().map(|(_, s)| s.render(fleet)).collect()
}

/// A report's flight-recorder tail, rendered on first read.
///
/// A green run's report holds its fleet's recorders, moved out of the
/// finished sim, and runs [`collect_tail`] over them the first time the
/// spans are read: by an artifact, `trace`, the corpus or a test. A report
/// dropped unread never renders. A red run's tail is rendered with the run,
/// because its violation spans read the live sim, and holds no recorders.
/// Derefs to the rendered spans; `Clone` and `Debug` see only those, so a
/// clone renders and copies the spans, never the rings.
#[derive(Default)]
pub struct Tail {
    /// The recorders an unrendered tail is rendered from; empty once a
    /// `&mut` access has rendered it.
    fleet: Vec<FlightRecorder>,
    spans: OnceLock<Vec<Span>>,
}

impl Tail {
    /// The tail of `fleet`, rendered on first read.
    pub(crate) fn unrendered(fleet: Vec<FlightRecorder>) -> Self {
        Tail {
            fleet,
            spans: OnceLock::new(),
        }
    }

    /// Renders the tail now and drops the recorders it came from.
    pub(crate) fn render(&mut self) {
        self.spans();
        self.fleet = Vec::new();
    }

    fn spans(&self) -> &Vec<Span> {
        self.spans
            .get_or_init(|| collect_tail(&self.fleet, TAIL_PER_NODE))
    }

    /// The recorders still held: a tail not yet rendered through `&mut`
    /// holds its fleet's.
    #[cfg(test)]
    pub(crate) fn recorders(&self) -> &[FlightRecorder] {
        &self.fleet
    }

    /// Whether the spans have been rendered.
    #[cfg(test)]
    pub(crate) fn is_rendered(&self) -> bool {
        self.spans.get().is_some()
    }
}

impl From<Vec<Span>> for Tail {
    fn from(spans: Vec<Span>) -> Self {
        Tail {
            fleet: Vec::new(),
            spans: OnceLock::from(spans),
        }
    }
}

impl Deref for Tail {
    type Target = Vec<Span>;

    fn deref(&self) -> &Vec<Span> {
        self.spans()
    }
}

impl DerefMut for Tail {
    fn deref_mut(&mut self) -> &mut Vec<Span> {
        self.render();
        self.spans.get_mut().expect("rendered above")
    }
}

impl<'a> IntoIterator for &'a Tail {
    type Item = &'a Span;
    type IntoIter = std::slice::Iter<'a, Span>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl Clone for Tail {
    fn clone(&self) -> Self {
        Tail::from(self.spans().clone())
    }
}

impl std::fmt::Debug for Tail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.spans().fmt(f)
    }
}

/// One span as a line, `[time] <span id> <kind> <name> <- <parent ids>`:
/// how a replay says where its tail and the artifact's part.
pub(crate) fn tail_line(id: SpanId, kind: SpanKind, name: &str, parents: &[SpanId]) -> String {
    let at = SimTime::from_nanos(id.at_ns);
    let mut line = format!("[{at}] {id} {} {name}", kind.label());
    for (i, parent) in parents.iter().enumerate() {
        line.push_str(if i == 0 { " <- " } else { ", " });
        line.push_str(&parent.to_string());
    }
    line
}

/// Synthesises one [`SpanKind::Violation`] span per failing oracle.
///
/// Each violation's parents are, for every node (in node order): the last
/// span the node retained, and additionally its last retained
/// [`SpanKind::Decision`] span when that is not already the last span —
/// guaranteeing `blame` can reach at least one decision without scanning.
pub fn violation_spans<A: Actor>(sim: &Sim<A>, failing: &[(String, String)]) -> Vec<Span> {
    let at_ns = sim.now().as_nanos();
    let mut parents: Vec<SpanId> = Vec::new();
    for rec in sim.flight_recorders() {
        let Some(last) = rec.spans().next_back() else {
            continue;
        };
        parents.push(last.id());
        // From the back: the last decision is rarely far behind.
        let last_decision = rec.spans().rev().find(|s| s.kind() == SpanKind::Decision);
        if let Some(d) = last_decision.filter(|d| d.id() != last.id()) {
            parents.push(d.id());
        }
    }
    failing
        .iter()
        .enumerate()
        .map(|(k, (name, detail))| {
            let id = SpanId {
                at_ns,
                node: VIOLATION_NODE,
                seq: (k + 1) as u32,
            };
            Span::new(id, SpanKind::Violation, name.clone(), parents.clone())
                .with_attr("oracle", name.clone())
                .with_attr("detail", detail.clone())
        })
        .collect()
}

/// Emits one span, `wall_ns` as 0 when `masked`. `u64` clock fields ride
/// decimal strings (the artifact convention for values that must survive
/// the f64-backed number type).
pub fn emit_span(s: &Span, masked: bool, sink: &mut dyn Sink) {
    sink.begin_obj();
    sink.key("id");
    sink.display(&s.id);
    sink.key("kind");
    sink.str(s.kind.label());
    sink.key("name");
    sink.str(&s.name);
    sink.key("parents");
    sink.begin_arr();
    for p in &s.parents {
        sink.display(p);
    }
    sink.end_arr();
    sink.key("sim_cost_us");
    sink.display(&s.sim_cost_us);
    sink.key("wall_ns");
    sink.display(&if masked { 0 } else { s.wall_ns });
    sink.key("attrs");
    sink.begin_obj();
    for (k, v) in &s.attrs {
        sink.key(k);
        sink.str(v);
    }
    sink.end_obj();
    sink.end_obj();
}

/// Renders one span (see [`emit_span`]).
pub fn span_json(s: &Span) -> Json {
    Json::build(|sink| emit_span(s, false, sink))
}

/// Emits the full `provenance` artifact section. With `masked = true`
/// every span's `wall_ns` is written as 0, making the output byte-identical
/// across replays of the same `(scenario, seed, plan)`.
pub fn emit_provenance(
    spans: &[Span],
    recorded: u64,
    evicted: u64,
    masked: bool,
    sink: &mut dyn Sink,
) {
    sink.begin_obj();
    sink.key("schema");
    sink.str(PROVENANCE_SCHEMA);
    sink.key("recorded");
    sink.display(&recorded);
    sink.key("evicted");
    sink.display(&evicted);
    sink.key("violations");
    sink.begin_arr();
    for s in spans.iter().filter(|s| s.kind == SpanKind::Violation) {
        sink.display(&s.id);
    }
    sink.end_arr();
    sink.key("spans");
    sink.begin_arr();
    for s in spans {
        emit_span(s, masked, sink);
    }
    sink.end_arr();
    sink.end_obj();
}

/// Renders the full `provenance` artifact section (see
/// [`emit_provenance`]).
pub fn provenance_json(spans: &[Span], recorded: u64, evicted: u64, masked: bool) -> Json {
    Json::build(|sink| emit_provenance(spans, recorded, evicted, masked, sink))
}

/// A `provenance` section read back (see [`emit_provenance`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProvenanceSection {
    /// The embedded tail, in the order written.
    pub spans: Vec<Span>,
    /// Total spans the recorders pushed (0 when absent or not a decimal
    /// string).
    pub recorded: u64,
    /// Spans the bounded rings evicted (as `recorded`).
    pub evicted: u64,
}

/// What a section decoder returns: `Err` when the text is not JSON; `Ok(Err)`
/// when it is JSON but not the section's shape, with the value still read
/// to its end so the caller may go on.
pub type Decoded<T> = Result<Result<T, String>, ParseError>;

/// Reads the `provenance` section at the reader's cursor — the decoder the
/// replay tail check, corpus ingest and the `trace` CLI share. The schema
/// tag and `spans` are required; each span must carry a parseable `id`, a
/// known `kind`, a `name` and string `parents`; `sim_cost_us` and `wall_ns`
/// read as 0 when absent or blanked (masked exports); attrs with non-string
/// values are dropped; unknown keys are skipped. Of a key given twice the
/// first occurrence counts. Ids, kinds, parents and costs are parsed from
/// borrowed slices of the text.
pub fn read_provenance(r: &mut Reader<'_>) -> Decoded<ProvenanceSection> {
    if r.peek()? != Kind::Obj {
        r.skip()?;
        return Ok(Err("provenance missing 'schema'".into()));
    }
    let (mut schema, mut spans, mut recorded, mut evicted) = (None, None, None, None);
    r.begin_obj()?;
    while let Some(key) = r.next_key()? {
        match &*key {
            "schema" => r.first(&mut schema, Reader::opt_str)?,
            "spans" => r.first(&mut spans, read_spans)?,
            "recorded" => r.first(&mut recorded, read_total)?,
            "evicted" => r.first(&mut evicted, read_total)?,
            _ => r.skip()?,
        }
    }
    Ok((|| -> Result<ProvenanceSection, String> {
        let schema = schema.flatten().ok_or("provenance missing 'schema'")?;
        if schema != PROVENANCE_SCHEMA {
            return Err(format!(
                "unknown provenance schema '{schema}' (want '{PROVENANCE_SCHEMA}')"
            ));
        }
        Ok(ProvenanceSection {
            spans: spans.ok_or("provenance missing 'spans'")??,
            recorded: recorded.flatten().unwrap_or(0),
            evicted: evicted.flatten().unwrap_or(0),
        })
    })())
}

/// A span total: a decimal string, else `None`.
fn read_total(r: &mut Reader<'_>) -> Result<Option<u64>, ParseError> {
    Ok(r.opt_str()?.and_then(|s| s.parse().ok()))
}

/// The `spans` array, up to the first bad span; the rest is skipped.
fn read_spans(r: &mut Reader<'_>) -> Decoded<Vec<Span>> {
    if r.peek()? != Kind::Arr {
        r.skip()?;
        return Ok(Err("provenance missing 'spans'".into()));
    }
    let mut spans = Ok(Vec::new());
    r.begin_arr()?;
    while r.next_item()? {
        match &mut spans {
            Ok(list) => match read_span(r)? {
                Ok(span) => list.push(span),
                Err(e) => spans = Err(e),
            },
            Err(_) => r.skip()?,
        }
    }
    Ok(spans)
}

/// One span as [`emit_span`] writes it.
fn read_span(r: &mut Reader<'_>) -> Decoded<Span> {
    if r.peek()? != Kind::Obj {
        r.skip()?;
        return Ok(Err("span missing 'id'".into()));
    }
    let (mut id, mut kind, mut name, mut parents) = (None, None, None, None);
    let (mut sim_cost_us, mut wall_ns, mut attrs) = (None, None, None);
    r.begin_obj()?;
    while let Some(key) = r.next_key()? {
        match &*key {
            "id" => r.first(&mut id, Reader::opt_str)?,
            "kind" => r.first(&mut kind, Reader::opt_str)?,
            "name" => r.first(&mut name, Reader::opt_str)?,
            "parents" => r.first(&mut parents, read_parents)?,
            "sim_cost_us" => r.first(&mut sim_cost_us, Reader::opt_u64)?,
            "wall_ns" => r.first(&mut wall_ns, Reader::opt_u64)?,
            "attrs" => r.first(&mut attrs, read_attrs)?,
            _ => r.skip()?,
        }
    }
    Ok((|| -> Result<Span, String> {
        let id: SpanId = id.flatten().ok_or("span missing 'id'")?.parse()?;
        let label = kind.flatten().ok_or("span missing 'kind'")?;
        let kind = SpanKind::parse(&label).ok_or_else(|| format!("unknown span kind '{label}'"))?;
        let name = name.flatten().ok_or("span missing 'name'")?;
        let parents = parents.ok_or("span missing 'parents'")??;
        let mut span = Span::new(id, kind, name, parents);
        span.sim_cost_us = sim_cost_us.flatten().unwrap_or(0);
        span.wall_ns = wall_ns.flatten().unwrap_or(0);
        span.attrs = attrs.unwrap_or_default();
        Ok(span)
    })())
}

/// A span's parent ids, up to the first bad one.
fn read_parents(r: &mut Reader<'_>) -> Decoded<Vec<SpanId>> {
    if r.peek()? != Kind::Arr {
        r.skip()?;
        return Ok(Err("span missing 'parents'".into()));
    }
    let mut parents = Ok(Vec::new());
    r.begin_arr()?;
    while r.next_item()? {
        let parent = r.opt_str()?;
        if let Ok(list) = &mut parents {
            match parent.map(|p| p.parse::<SpanId>()) {
                Some(Ok(id)) => list.push(id),
                Some(Err(e)) => parents = Err(e),
                None => parents = Err("non-string parent id".into()),
            }
        }
    }
    Ok(parents)
}

/// A span's attrs: its string-valued pairs, in order (none when the value
/// is not an object).
fn read_attrs(r: &mut Reader<'_>) -> Result<Vec<(String, String)>, ParseError> {
    let mut attrs = Vec::new();
    if r.peek()? != Kind::Obj {
        r.skip()?;
        return Ok(attrs);
    }
    r.begin_obj()?;
    while let Some(key) = r.next_key()? {
        if let Some(value) = r.opt_str()? {
            attrs.push((key.into_owned(), value.into_owned()));
        }
    }
    Ok(attrs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_trace::{recorder::INHERIT_EVICTED, Label};

    /// Two nodes with 2-slot rings. Node 0 sends twice; timer churn pushes
    /// its first send off the ring before anyone exports node 1's delivery
    /// of it. Returns the fleet and the evicted send's id.
    fn fleet_with_an_evicted_send() -> (Vec<FlightRecorder>, SpanId) {
        let mut sender = FlightRecorder::with_capacity(0, 2);
        let mut receiver = FlightRecorder::with_capacity(1, 2);
        let first = sender.record_slot(1_000, SpanKind::Send, Label::text("Ping { n: 1 }"), None);
        let tick = sender.record_slot(2_000, SpanKind::Timer, Label::Timer(7), None);
        receiver.record_slot(5_000, SpanKind::Deliver, Label::Inherit, Some(first));
        let second = sender.record_slot(
            6_000,
            SpanKind::Send,
            Label::text("Ping { n: 2 }"),
            Some(tick),
        );
        receiver.record_slot(9_000, SpanKind::Deliver, Label::Inherit, Some(second));
        (vec![sender, receiver], first)
    }

    #[test]
    fn delivery_of_an_evicted_send_renders_the_placeholder_deterministically() {
        let (fleet, evicted) = fleet_with_an_evicted_send();
        assert_eq!(fleet[0].evicted(), 1);
        let tail = collect_tail(&fleet, TAIL_PER_NODE);
        let names: Vec<(SpanKind, &str)> = tail.iter().map(|s| (s.kind, s.name.as_str())).collect();
        assert_eq!(
            names,
            vec![
                (SpanKind::Timer, "timer:7"),
                (SpanKind::Deliver, INHERIT_EVICTED),
                (SpanKind::Send, "Ping { n: 2 }"),
                (SpanKind::Deliver, "Ping { n: 2 }"),
            ]
        );
        // The edge to the lost send survives; blame reports it unresolved.
        assert_eq!(tail[1].parents, vec![evicted]);
        let chain = cb_trace::blame(&tail, tail[1].id).expect("delivery is in the tail");
        assert_eq!(chain.unresolved, vec![evicted]);
        // A second, independently built run exports the same bytes.
        let (again, _) = fleet_with_an_evicted_send();
        let json = |fleet: &[FlightRecorder]| {
            provenance_json(&collect_tail(fleet, TAIL_PER_NODE), 5, 1, true).to_string_compact()
        };
        assert_eq!(json(&fleet), json(&again));
    }

    #[test]
    fn closure_reaches_past_the_per_node_window_within_budget() {
        let (fleet, _) = fleet_with_an_evicted_send();
        // One span per node seeds {second send, second delivery}; the budget
        // of 4 lets the closure pull in the send's timer parent.
        let ids = |spans: Vec<Span>| spans.iter().map(|s| s.id.to_string()).collect::<Vec<_>>();
        assert_eq!(
            ids(collect_tail(&fleet, 1)),
            vec!["t2000.n0.s2", "t6000.n0.s3", "t9000.n1.s2"]
        );
        assert!(collect_tail(&fleet, 0).is_empty());
    }

    #[test]
    fn tail_lines_name_time_id_kind_name_and_parents() {
        let (fleet, _) = fleet_with_an_evicted_send();
        let tail = collect_tail(&fleet, TAIL_PER_NODE);
        let lines: Vec<String> = tail[1..]
            .iter()
            .map(|s| tail_line(s.id, s.kind, &s.name, &s.parents))
            .collect();
        assert_eq!(
            lines,
            vec![
                "[t+5us] t5000.n1.s1 deliver <send evicted> <- t1000.n0.s1",
                "[t+6us] t6000.n0.s3 send Ping { n: 2 } <- t2000.n0.s2",
                "[t+9us] t9000.n1.s2 deliver Ping { n: 2 } <- t6000.n0.s3",
            ]
        );
        let root = &tail[0];
        assert_eq!(
            tail_line(root.id, root.kind, &root.name, &root.parents),
            "[t+2us] t2000.n0.s2 timer timer:7"
        );
    }

    /// A green ring report, its tail unread.
    fn green_report() -> crate::scenario::RunReport {
        use crate::scenario::Scenario;
        let ring = crate::toy::RingScenario::default();
        let report = ring.run(5, &ring.default_plan(5));
        assert!(!report.violated(), "{:?}", report.verdicts);
        assert!(!report.provenance.is_rendered());
        report
    }

    #[test]
    fn a_green_tail_renders_on_first_read_as_collect_tail_would() {
        let report = green_report();
        let eager = collect_tail(report.provenance.recorders(), TAIL_PER_NODE);
        assert!(!eager.is_empty());
        assert!(!report.provenance.is_rendered(), "rendering is on read");
        assert_eq!(*report.provenance, eager);
        assert!(report.provenance.is_rendered());
        // A `&mut` access renders as well, and drops the recorders.
        let mut report = green_report();
        report.provenance.push(sample_span());
        assert!(report.provenance.recorders().is_empty());
        assert_eq!(report.provenance[..eager.len()], eager[..]);
    }

    #[test]
    fn a_cloned_unrendered_report_renders_the_same_tail() {
        let report = green_report();
        let eager = collect_tail(report.provenance.recorders(), TAIL_PER_NODE);
        let copy = report.clone();
        drop(report);
        assert!(
            copy.provenance.recorders().is_empty(),
            "a clone copies spans"
        );
        assert_eq!(*copy.provenance, eager);
        assert_eq!(format!("{:?}", copy.provenance), format!("{eager:?}"));
        assert_eq!(*Tail::from(eager.clone()), eager);
    }

    fn sample_span() -> Span {
        let mut s = Span::new(
            SpanId {
                at_ns: 1_500_000,
                node: 2,
                seq: 9,
            },
            SpanKind::Decision,
            "decide:parent.pick",
            vec![SpanId {
                at_ns: 1_400_000,
                node: 2,
                seq: 8,
            }],
        );
        s.sim_cost_us = 40;
        s.wall_ns = 12_345;
        s.attrs.push(("chosen".into(), "1".into()));
        s.attrs.push(("options".into(), "3".into()));
        s
    }

    /// Decodes one whole document with `read`: `Err` for text that is not
    /// JSON, else the decoder's verdict.
    fn decode<T>(text: &str, read: fn(&mut Reader<'_>) -> Decoded<T>) -> Result<T, String> {
        let mut r = Reader::new(text);
        let decoded = read(&mut r).map_err(|e| e.to_string())?;
        r.finish().map_err(|e| e.to_string())?;
        decoded
    }

    #[test]
    fn span_round_trips_through_json() {
        let s = sample_span();
        let back = decode(&span_json(&s).to_string_pretty(), read_span).expect("decode");
        assert_eq!(back, s);
    }

    #[test]
    fn provenance_round_trips_and_lists_violations() {
        let v = Span::new(
            SpanId {
                at_ns: 2_000_000,
                node: VIOLATION_NODE,
                seq: 1,
            },
            SpanKind::Violation,
            "tree.reachable",
            vec![sample_span().id],
        );
        let spans = vec![sample_span(), v.clone()];
        let j = provenance_json(&spans, 10, 0, false);
        assert_eq!(
            j.get("violations").and_then(Json::as_array).unwrap().len(),
            1
        );
        let back = decode(&j.to_string_compact(), read_provenance).expect("decode");
        assert_eq!(
            back,
            ProvenanceSection {
                spans,
                recorded: 10,
                evicted: 0
            }
        );
    }

    #[test]
    fn masked_rendering_zeroes_wall_only() {
        let spans = vec![sample_span()];
        let mut other = sample_span();
        other.wall_ns = 99_999;
        let a = provenance_json(&spans, 1, 0, true).to_string_compact();
        let b = provenance_json(&[other.clone()], 1, 0, true).to_string_compact();
        assert_eq!(a, b, "masked exports must ignore wall noise");
        let unmasked = provenance_json(&[other], 1, 0, false).to_string_compact();
        assert_ne!(a, unmasked);
    }

    #[test]
    fn span_decoder_rejects_damage() {
        let j = span_json(&sample_span());
        let without = |key: &str| {
            let mut damaged = j.clone();
            if let Json::Obj(pairs) = &mut damaged {
                pairs.retain(|(k, _)| k != key);
            }
            decode(&damaged.to_string_compact(), read_span)
        };
        for key in ["id", "kind", "name", "parents"] {
            let err = without(key).expect_err(key);
            assert_eq!(err, format!("span missing '{key}'"));
        }
        // Masked exports blank the wall clock; the rest reads back.
        assert_eq!(without("wall_ns").map(|s| s.wall_ns), Ok(0));
        let bad = |text: &str| decode(text, read_span).expect_err(text);
        assert!(bad(r#"{"id":"garbage"}"#).contains("invalid span id"));
        assert!(
            bad(r#"{"id":"t1.n2.s3","kind":"nope","name":"x","parents":[]}"#)
                .contains("unknown span kind 'nope'")
        );
        assert_eq!(
            bad(r#"{"id":"t1.n2.s3","kind":"send","name":"x","parents":[7]}"#),
            "non-string parent id"
        );
        assert_eq!(bad("[]"), "span missing 'id'");
        // Not JSON at all, even where the decoder only skips.
        assert!(bad(r#"{"id":"t1.n2.s3","extra":[1,]}"#).contains("json parse error"));
    }

    #[test]
    fn the_first_of_a_repeated_key_counts_and_odd_attrs_drop() {
        let text = r#"{"id":"t1.n2.s3","id":"garbage","kind":"send","name":"a","name":7,
            "parents":["t0.n2.s1"],"sim_cost_us":5,"sim_cost_us":"9","wall_ns":"x",
            "attrs":{"k":"v","n":3,"k":"w"},"attrs":{"lost":"yes"},"more":{"deep":[null]}}"#;
        let span = decode(text, read_span).expect("decode");
        assert_eq!(span.id.to_string(), "t1.n2.s3");
        assert_eq!(span.name, "a");
        assert_eq!((span.sim_cost_us, span.wall_ns), (5, 0));
        assert_eq!(
            span.attrs,
            vec![("k".into(), "v".into()), ("k".into(), "w".into())]
        );
    }
}
