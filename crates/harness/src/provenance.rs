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

use crate::json::{Json, Sink};
use cb_simnet::prelude::{Actor, Sim, SimTime};
use cb_trace::{FlightRecorder, Span, SpanId, SpanKind, SpanRef};

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

/// The last `k` spans recorded fleet-wide, in span-id order, one line each:
/// `[time] <span id> <kind> <name> <- <parent ids>`. What a failing report
/// embeds as `last_trace`, the "what happened right before" window.
pub fn trace_tail(fleet: &[FlightRecorder], k: usize) -> Vec<String> {
    let mut last: Vec<SpanRef<'_>> = fleet.iter().flat_map(|rec| rec.tail(k)).collect();
    last.sort_unstable_by_key(|s| s.id());
    last[last.len().saturating_sub(k)..]
        .iter()
        .map(|s| tail_line(s.id(), s.kind(), &s.name(fleet), s.parents()))
        .collect()
}

/// One [`trace_tail`] line: `[time] <span id> <kind> <name> <- <parent ids>`.
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

fn field_u64(j: &Json, key: &str) -> u64 {
    match j.get(key) {
        Some(Json::Str(s)) => s.parse().unwrap_or(0),
        Some(v) => v.as_u64().unwrap_or(0),
        None => 0,
    }
}

/// Parses one span rendered by [`span_json`]. Tolerates blanked/absent
/// `wall_ns` (masked exports) but rejects structural damage.
pub fn span_from_json(j: &Json) -> Result<Span, String> {
    let id: SpanId = j
        .get("id")
        .and_then(Json::as_str)
        .ok_or("span missing 'id'")?
        .parse()?;
    let kind_label = j
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("span missing 'kind'")?;
    let kind =
        SpanKind::parse(kind_label).ok_or_else(|| format!("unknown span kind '{kind_label}'"))?;
    let name = j
        .get("name")
        .and_then(Json::as_str)
        .ok_or("span missing 'name'")?
        .to_string();
    let mut parents = Vec::new();
    for p in j
        .get("parents")
        .and_then(Json::as_array)
        .ok_or("span missing 'parents'")?
    {
        parents.push(p.as_str().ok_or("non-string parent id")?.parse()?);
    }
    let mut span = Span::new(id, kind, name, parents);
    span.sim_cost_us = field_u64(j, "sim_cost_us");
    span.wall_ns = field_u64(j, "wall_ns");
    if let Some(Json::Obj(pairs)) = j.get("attrs") {
        for (k, v) in pairs {
            if let Some(text) = v.as_str() {
                span.attrs.push((k.clone(), text.to_string()));
            }
        }
    }
    Ok(span)
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

/// Parses a `provenance` section back into spans. Used by the `trace` CLI
/// and the replay tail-equality check.
pub fn parse_provenance(j: &Json) -> Result<Vec<Span>, String> {
    let schema = j
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("provenance missing 'schema'")?;
    if schema != PROVENANCE_SCHEMA {
        return Err(format!(
            "unknown provenance schema '{schema}' (want '{PROVENANCE_SCHEMA}')"
        ));
    }
    j.get("spans")
        .and_then(Json::as_array)
        .ok_or_else(|| "provenance missing 'spans'".to_string())?
        .iter()
        .map(span_from_json)
        .collect()
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
    fn trace_tail_are_the_last_k_spans_fleet_wide_in_id_order() {
        let (fleet, _) = fleet_with_an_evicted_send();
        assert_eq!(
            trace_tail(&fleet, 3),
            vec![
                "[t+5us] t5000.n1.s1 deliver <send evicted> <- t1000.n0.s1",
                "[t+6us] t6000.n0.s3 send Ping { n: 2 } <- t2000.n0.s2",
                "[t+9us] t9000.n1.s2 deliver Ping { n: 2 } <- t6000.n0.s3",
            ]
        );
        assert_eq!(trace_tail(&fleet, 99).len(), 4);
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

    #[test]
    fn span_round_trips_through_json() {
        let s = sample_span();
        let j = span_json(&s);
        let back = span_from_json(&j).expect("parse");
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
        let back = parse_provenance(&j).expect("parse");
        assert_eq!(back, spans);
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
    fn span_from_json_rejects_damage() {
        let j = span_json(&sample_span());
        let mut missing = j.clone();
        if let Json::Obj(pairs) = &mut missing {
            pairs.retain(|(k, _)| k != "kind");
        }
        assert!(span_from_json(&missing).is_err());
        let bad = Json::obj().with("id", "garbage");
        assert!(span_from_json(&bad).is_err());
    }
}
