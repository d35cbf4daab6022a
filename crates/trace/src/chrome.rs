//! Chrome trace-event JSON export (loadable in Perfetto / chrome://tracing).
//!
//! Each span becomes a complete ("X") event: `ts` is simulated time in
//! microseconds, `dur` the span's sim-cost (min 1 µs so zero-cost events stay
//! visible), `pid` 0 and `tid` the node id — so Perfetto renders one track
//! per node. Each parent edge becomes a flow `s`/`f` pair so causal arrows
//! survive across node tracks. Emission order is deterministic (input order,
//! then per-span parent order), and `wall_ns` is emitted as an `args` field
//! named `wall_ns` only when unmasked.

use crate::span::{Span, SpanId};
use cb_policy::Fnv1a;

/// Minimal JSON string escaper (dependency-free, mirrors the harness JSON
/// writer's escaping rules).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Stable id for a flow arrow between two spans (FNV-1a over both compact
/// ids — deterministic and collision-unlikely within one trace).
fn flow_id(parent: SpanId, child: SpanId) -> u64 {
    let mut h = Fnv1a::new();
    for v in [parent.compact(), child.compact(), parent.at_ns, child.at_ns] {
        h.write_u64(v);
    }
    h.finish()
}

/// Render spans as a Chrome trace-event JSON document:
/// `{"traceEvents": [...], "displayTimeUnit": "ms"}`.
///
/// With `masked = true` the nondeterministic `wall_ns` arg is omitted, so the
/// output is byte-identical across reruns of the same seed.
pub fn chrome_trace_json(spans: &[Span], masked: bool) -> String {
    let mut events: Vec<String> = Vec::with_capacity(spans.len() * 2);
    for span in spans {
        let ts = span.id.at_ns / 1000; // sim ns -> us
        let dur = span.sim_cost_us.max(1);
        let mut args = String::new();
        args.push_str(&format!("\"id\":\"{}\"", span.id));
        if !masked && span.wall_ns != 0 {
            args.push_str(&format!(",\"wall_ns\":\"{}\"", span.wall_ns));
        }
        for (k, v) in &span.attrs {
            args.push_str(&format!(",\"{}\":\"{}\"", escape(k), escape(v)));
        }
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},\"args\":{{{}}}}}",
            escape(&span.name),
            span.kind.label(),
            ts,
            dur,
            span.id.node,
            args
        ));
        for parent in &span.parents {
            let fid = flow_id(*parent, span.id);
            let pts = parent.at_ns / 1000;
            events.push(format!(
                "{{\"name\":\"cause\",\"cat\":\"flow\",\"ph\":\"s\",\"ts\":{},\"pid\":0,\"tid\":{},\"id\":{}}}",
                pts, parent.node, fid
            ));
            events.push(format!(
                "{{\"name\":\"cause\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"ts\":{},\"pid\":0,\"tid\":{},\"id\":{}}}",
                ts, span.id.node, fid
            ));
        }
    }
    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}",
        events.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Span, SpanKind};

    fn sample() -> Vec<Span> {
        let a = SpanId {
            at_ns: 1_000,
            node: 0,
            seq: 1,
        };
        let b = SpanId {
            at_ns: 2_000,
            node: 1,
            seq: 1,
        };
        let mut s1 = Span::new(a, SpanKind::Send, "msg \"x\"\n", vec![]);
        s1.wall_ns = 555;
        let mut s2 = Span::new(b, SpanKind::Deliver, "msg", vec![a]);
        s2.sim_cost_us = 7;
        vec![s1, s2]
    }

    #[test]
    fn emits_complete_events_and_flow_pairs() {
        let out = chrome_trace_json(&sample(), true);
        assert!(out.starts_with("{\"traceEvents\":["));
        assert!(out.contains("\"ph\":\"X\""));
        assert!(out.contains("\"ph\":\"s\""));
        assert!(out.contains("\"ph\":\"f\""));
        assert!(out.contains("\"tid\":1"));
        // name with quote and newline is escaped
        assert!(out.contains("msg \\\"x\\\"\\n"));
        // masked: no wall_ns anywhere
        assert!(!out.contains("wall_ns"));
    }

    #[test]
    fn unmasked_includes_wall_and_masked_is_deterministic() {
        let spans = sample();
        let unmasked = chrome_trace_json(&spans, false);
        assert!(unmasked.contains("\"wall_ns\":\"555\""));
        let m1 = chrome_trace_json(&spans, true);
        let m2 = chrome_trace_json(&spans, true);
        assert_eq!(m1, m2);
    }

    #[test]
    fn flow_ids_are_stable() {
        let a = SpanId {
            at_ns: 1,
            node: 0,
            seq: 1,
        };
        let b = SpanId {
            at_ns: 2,
            node: 1,
            seq: 1,
        };
        assert_eq!(flow_id(a, b), flow_id(a, b));
        assert_ne!(flow_id(a, b), flow_id(b, a));
        // Golden: exported traces name their flow arrows by these ids.
        assert_eq!(flow_id(a, b), 0xd897_eec5_68ba_d337);
        assert_eq!(flow_id(b, a), 0xf439_ab91_4b76_4257);
    }
}
