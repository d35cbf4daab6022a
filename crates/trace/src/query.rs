//! Queries over a set of spans: `explain`, `blame`, `slowest`, acyclicity.
//!
//! All queries operate on a flat slice of spans (typically the merged
//! flight-recorder tails embedded in a harness artifact) and are pure
//! functions — same spans in, same answer out.

use crate::span::{Span, SpanId, SpanKind};
use std::collections::{BTreeSet, HashMap, VecDeque};

/// An index from span id to span, for parent resolution.
pub struct SpanIndex<'a> {
    by_id: HashMap<SpanId, &'a Span>,
}

impl<'a> SpanIndex<'a> {
    /// Build an index over `spans`.
    pub fn new(spans: &'a [Span]) -> Self {
        let mut by_id = HashMap::with_capacity(spans.len());
        for s in spans {
            by_id.insert(s.id, s);
        }
        SpanIndex { by_id }
    }

    /// Resolve an id to its span, if retained.
    pub fn get(&self, id: SpanId) -> Option<&'a Span> {
        self.by_id.get(&id).copied()
    }

    /// Find the first span (in slice order) of a given kind.
    pub fn first_of_kind(spans: &'a [Span], kind: SpanKind) -> Option<&'a Span> {
        spans.iter().find(|s| s.kind == kind)
    }

    /// Find the last span (in slice order) of a given kind.
    pub fn last_of_kind(spans: &'a [Span], kind: SpanKind) -> Option<&'a Span> {
        spans.iter().rev().find(|s| s.kind == kind)
    }
}

/// Result of a [`blame`] walk: the causal chain leading to a target span.
#[derive(Debug, Clone)]
pub struct BlameChain {
    /// Spans on the chain, deterministic visit order (breadth-first from the
    /// target, ties broken by span id). Includes the target itself.
    pub chain: Vec<Span>,
    /// Parent ids referenced by the chain that were not resolvable (evicted
    /// from the ring or outside the collected tail).
    pub unresolved: Vec<SpanId>,
    /// Ids of `Decision` spans reached by the walk, in visit order.
    pub decisions: Vec<SpanId>,
    /// Distinct node ids the chain crosses (excluding the harness-synthetic
    /// node `u32::MAX`).
    pub nodes: Vec<u32>,
}

/// Walk parent edges backwards from `from`, collecting the full causal
/// closure. Cycle-safe (visited set); missing parents are reported in
/// `unresolved` rather than aborting the walk.
pub fn blame(spans: &[Span], from: SpanId) -> Option<BlameChain> {
    let index = SpanIndex::new(spans);
    let start = index.get(from)?;
    let mut visited: BTreeSet<SpanId> = BTreeSet::new();
    let mut unresolved: BTreeSet<SpanId> = BTreeSet::new();
    let mut chain: Vec<Span> = Vec::new();
    let mut decisions: Vec<SpanId> = Vec::new();
    let mut nodes: BTreeSet<u32> = BTreeSet::new();
    let mut queue: VecDeque<&Span> = VecDeque::new();

    visited.insert(start.id);
    queue.push_back(start);
    while let Some(span) = queue.pop_front() {
        chain.push(span.clone());
        if span.kind == SpanKind::Decision {
            decisions.push(span.id);
        }
        if span.id.node != u32::MAX {
            nodes.insert(span.id.node);
        }
        // Deterministic expansion order: parents sorted by id.
        let mut parents = span.parents.clone();
        parents.sort();
        for p in parents {
            if visited.contains(&p) {
                continue;
            }
            visited.insert(p);
            match index.get(p) {
                Some(ps) => queue.push_back(ps),
                None => {
                    unresolved.insert(p);
                }
            }
        }
    }

    Some(BlameChain {
        chain,
        unresolved: unresolved.into_iter().collect(),
        decisions,
        nodes: nodes.into_iter().collect(),
    })
}

/// Render a human-readable explanation of a `Decision` span: the option
/// table (key, objective, violations, states), the winner, and the
/// resolver/governor context that shaped the pick. The winner's reason is
/// the lookahead rule only when every option carries a prediction;
/// otherwise it names the resolver (and its ladder rung and policy
/// disposition, when recorded) and how many options were predicted.
/// Returns `None` if `id` is not a retained `Decision` span.
pub fn explain(spans: &[Span], id: SpanId) -> Option<String> {
    let index = SpanIndex::new(spans);
    let span = index.get(id)?;
    if span.kind != SpanKind::Decision {
        return None;
    }
    let mut out = String::new();
    out.push_str(&format!("decision {} `{}`\n", span.id, span.name));
    for key in [
        "choice",
        "context",
        "workload",
        "resolver",
        "governor.level",
        "governor.cause",
        "ladder.rung",
        "policy",
        "verdict",
    ] {
        if let Some(v) = span.attr(key) {
            out.push_str(&format!("  {key:<22} {v}\n"));
        }
    }
    out.push_str(&format!("  {:<22} {} sim-us\n", "cost", span.sim_cost_us));

    // Option table: attrs opt{i}.key / opt{i}.objective / opt{i}.violations /
    // opt{i}.states, chosen index in attr "chosen".
    let chosen: Option<usize> = span.attr("chosen").and_then(|v| v.parse().ok());
    let n: usize = span
        .attr("options")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    if n > 0 {
        out.push_str("  options:\n");
        out.push_str(&format!(
            "    {:>3} {:<24} {:>12} {:>10} {:>8}\n",
            "#", "key", "objective", "violations", "states"
        ));
        for i in 0..n {
            let key = span.attr(&format!("opt{i}.key")).unwrap_or("?");
            let obj = span.attr(&format!("opt{i}.objective")).unwrap_or("-");
            let vio = span.attr(&format!("opt{i}.violations")).unwrap_or("-");
            let st = span.attr(&format!("opt{i}.states")).unwrap_or("-");
            let marker = if chosen == Some(i) { "*" } else { " " };
            out.push_str(&format!(
                "   {marker}{i:>3} {key:<24} {obj:>12} {vio:>10} {st:>8}\n"
            ));
        }
        if let Some(c) = chosen {
            out.push_str(&format!(
                "  winner: option {c} ({})\n",
                winner_reason(span, n)
            ));
        }
    }
    if !span.parents.is_empty() {
        let parents: Vec<String> = span.parents.iter().map(|p| p.to_string()).collect();
        out.push_str(&format!("  caused by: {}\n", parents.join(", ")));
    }
    Some(out)
}

/// Why a decision's winner won, from what its span records: the lookahead
/// rule when all `n` options were predicted, else the resolver that picked.
fn winner_reason(span: &Span, n: usize) -> String {
    let predicted = (0..n)
        .filter(|i| span.attr(&format!("opt{i}.objective")).is_some())
        .count();
    if predicted == n {
        return "lowest violations, then best objective".to_string();
    }
    let mut picker = format!("resolver {}", span.attr("resolver").unwrap_or("?"));
    if let Some(rung) = span.attr("ladder.rung") {
        picker.push_str(&format!(", rung {rung}"));
    }
    if let Some(policy) = span.attr("policy") {
        picker.push_str(&format!(", policy {policy}"));
    }
    match predicted {
        0 => format!("{picker}; no prediction was made"),
        k => format!("{picker}; {k} of {n} options predicted"),
    }
}

/// Top-`k` `Decision` spans by `sim_cost_us`, descending (ties broken by
/// span id for determinism).
pub fn slowest(spans: &[Span], k: usize) -> Vec<&Span> {
    let mut decisions: Vec<&Span> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Decision)
        .collect();
    decisions.sort_by(|a, b| b.sim_cost_us.cmp(&a.sim_cost_us).then(a.id.cmp(&b.id)));
    decisions.truncate(k);
    decisions
}

/// Check that parent edges form a DAG. Parents missing from `spans` are
/// treated as external roots (not an error — rings evict). Returns the first
/// cycle found as a vector of ids, or `None` if acyclic.
pub fn find_cycle(spans: &[Span]) -> Option<Vec<SpanId>> {
    let index = SpanIndex::new(spans);
    // Colors: 0 = unvisited, 1 = on stack, 2 = done.
    let mut color: HashMap<SpanId, u8> = HashMap::with_capacity(spans.len());
    for s in spans {
        if color.get(&s.id).copied().unwrap_or(0) != 0 {
            continue;
        }
        // Iterative DFS with explicit stack to avoid recursion depth limits.
        let mut stack: Vec<(SpanId, usize)> = vec![(s.id, 0)];
        let mut path: Vec<SpanId> = vec![s.id];
        color.insert(s.id, 1);
        while let Some((id, pi)) = stack.last().copied() {
            let span = index.get(id).expect("stacked ids are resolvable");
            if pi < span.parents.len() {
                stack.last_mut().unwrap().1 += 1;
                let p = span.parents[pi];
                match index.get(p) {
                    None => continue, // evicted/external parent: fine
                    Some(_) => match color.get(&p).copied().unwrap_or(0) {
                        0 => {
                            color.insert(p, 1);
                            stack.push((p, 0));
                            path.push(p);
                        }
                        1 => {
                            // Cycle: slice of path from p to the end.
                            let start = path.iter().position(|&x| x == p).unwrap_or(0);
                            return Some(path[start..].to_vec());
                        }
                        _ => continue,
                    },
                }
            } else {
                color.insert(id, 2);
                stack.pop();
                path.pop();
            }
        }
    }
    None
}

/// True when parent edges form a DAG (see [`find_cycle`]).
pub fn is_acyclic(spans: &[Span]) -> bool {
    find_cycle(spans).is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Span;

    fn id(node: u32, seq: u32) -> SpanId {
        SpanId {
            at_ns: (node as u64) * 100 + seq as u64,
            node,
            seq,
        }
    }

    fn span(node: u32, seq: u32, kind: SpanKind, parents: Vec<SpanId>) -> Span {
        Span::new(id(node, seq), kind, format!("n{node}s{seq}"), parents)
    }

    #[test]
    fn blame_walks_cross_node_chain() {
        // node0: decision(1) -> send(2); node1: deliver(1, parent send) ->
        // violation-ish fire(2, parent deliver).
        let spans = vec![
            span(0, 1, SpanKind::Decision, vec![]),
            span(0, 2, SpanKind::Send, vec![id(0, 1)]),
            span(1, 1, SpanKind::Deliver, vec![id(0, 2)]),
            span(1, 2, SpanKind::SteeringFire, vec![id(1, 1)]),
        ];
        let chain = blame(&spans, id(1, 2)).unwrap();
        assert_eq!(chain.chain.len(), 4);
        assert_eq!(chain.decisions, vec![id(0, 1)]);
        assert_eq!(chain.nodes, vec![0, 1]);
        assert!(chain.unresolved.is_empty());
    }

    #[test]
    fn blame_reports_unresolved_parents_and_survives_cycles() {
        // b's parent a was "evicted" (absent); c and d form a cycle.
        let spans = vec![
            span(0, 2, SpanKind::Deliver, vec![id(0, 1)]), // parent missing
            Span::new(id(0, 3), SpanKind::Timer, "c", vec![id(0, 4)]),
            Span::new(id(0, 4), SpanKind::Timer, "d", vec![id(0, 3), id(0, 2)]),
        ];
        let chain = blame(&spans, id(0, 4)).unwrap();
        assert_eq!(chain.unresolved, vec![id(0, 1)]);
        assert_eq!(chain.chain.len(), 3); // visits each once despite cycle
    }

    #[test]
    fn blame_of_unknown_target_is_none() {
        assert!(blame(&[], id(0, 1)).is_none());
    }

    #[test]
    fn explain_renders_option_table_with_winner() {
        let mut d = span(3, 1, SpanKind::Decision, vec![]);
        d.sim_cost_us = 40;
        d.attrs = vec![
            ("choice".into(), "parent-pick".into()),
            ("resolver".into(), "lookahead".into()),
            ("options".into(), "2".into()),
            ("chosen".into(), "1".into()),
            ("opt0.key".into(), "5".into()),
            ("opt0.objective".into(), "3.0".into()),
            ("opt0.violations".into(), "1".into()),
            ("opt0.states".into(), "20".into()),
            ("opt1.key".into(), "9".into()),
            ("opt1.objective".into(), "1.0".into()),
            ("opt1.violations".into(), "0".into()),
            ("opt1.states".into(), "20".into()),
        ];
        let spans = vec![d];
        let text = explain(&spans, id(3, 1)).unwrap();
        assert!(text.contains("parent-pick"));
        assert!(text.contains("lookahead"));
        assert!(text.contains("*  1"));
        assert!(text.contains("winner: option 1 (lowest violations, then best objective)\n"));
        // Non-decision or unknown ids render nothing.
        assert!(explain(&spans, id(3, 2)).is_none());
    }

    /// A two-option decision with `extra` attrs and `opt{i}.objective` on
    /// the options in `predicted`.
    fn decision(extra: &[(&str, &str)], predicted: &[usize]) -> Span {
        let mut d = span(2, 1, SpanKind::Decision, vec![]);
        let mut attrs = vec![("options", "2"), ("chosen", "0")];
        attrs.extend_from_slice(extra);
        d.attrs = attrs
            .into_iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        for i in 0..2 {
            d.attrs.push((format!("opt{i}.key"), format!("{}", 10 + i)));
        }
        for i in predicted {
            d.attrs.push((format!("opt{i}.objective"), "1".into()));
        }
        d
    }

    fn winner_line(d: Span) -> String {
        let text = explain(&[d], id(2, 1)).unwrap();
        let line = text.lines().find(|l| l.contains("winner:"));
        line.expect("a winner line").trim().to_string()
    }

    #[test]
    fn explain_names_the_resolver_of_an_unpredicted_pick() {
        assert_eq!(
            winner_line(decision(&[("resolver", "random")], &[])),
            "winner: option 0 (resolver random; no prediction was made)"
        );
    }

    #[test]
    fn explain_names_the_rung_and_policy_of_an_unpredicted_ladder_pick() {
        let ladder = [
            ("resolver", "ladder"),
            ("ladder.rung", "4"),
            ("policy", "off"),
        ];
        assert_eq!(
            winner_line(decision(&ladder, &[])),
            "winner: option 0 (resolver ladder, rung 4, policy off; no prediction was made)"
        );
    }

    #[test]
    fn explain_counts_the_options_a_partial_prediction_covered() {
        assert_eq!(
            winner_line(decision(
                &[("resolver", "ladder"), ("ladder.rung", "0")],
                &[1]
            )),
            "winner: option 0 (resolver ladder, rung 0; 1 of 2 options predicted)"
        );
    }

    #[test]
    fn explain_gives_the_lookahead_rule_when_every_option_was_predicted() {
        assert_eq!(
            winner_line(decision(
                &[("resolver", "ladder"), ("ladder.rung", "0")],
                &[0, 1]
            )),
            "winner: option 0 (lowest violations, then best objective)"
        );
    }

    #[test]
    fn slowest_orders_by_cost_then_id() {
        let mut a = span(0, 1, SpanKind::Decision, vec![]);
        a.sim_cost_us = 10;
        let mut b = span(0, 2, SpanKind::Decision, vec![]);
        b.sim_cost_us = 30;
        let mut c = span(1, 1, SpanKind::Decision, vec![]);
        c.sim_cost_us = 30;
        let other = span(1, 2, SpanKind::Send, vec![]);
        let spans = vec![a, b, c, other];
        let top: Vec<SpanId> = slowest(&spans, 2).iter().map(|s| s.id).collect();
        assert_eq!(top, vec![id(0, 2), id(1, 1)]);
    }

    #[test]
    fn acyclicity_detects_cycles_and_accepts_dags() {
        let dag = vec![
            span(0, 1, SpanKind::Send, vec![]),
            span(0, 2, SpanKind::Deliver, vec![id(0, 1)]),
            span(0, 3, SpanKind::Timer, vec![id(0, 1), id(0, 2)]),
        ];
        assert!(is_acyclic(&dag));
        let cyc = vec![
            Span::new(id(0, 1), SpanKind::Timer, "a", vec![id(0, 2)]),
            Span::new(id(0, 2), SpanKind::Timer, "b", vec![id(0, 1)]),
        ];
        assert!(!is_acyclic(&cyc));
        assert!(find_cycle(&cyc).unwrap().len() >= 2);
        // Missing parents are treated as external roots, not cycles.
        let dangling = vec![span(0, 2, SpanKind::Deliver, vec![id(0, 1)])];
        assert!(is_acyclic(&dangling));
    }
}
