//! Decision-provenance queries over campaign failure artifacts.
//!
//! ```text
//! trace explain ARTIFACT.json [SPAN_ID]     # why a decision picked what it picked
//! trace blame   ARTIFACT.json [SPAN_ID]     # causal chain behind a violation / steering fire
//! trace slowest ARTIFACT.json [K]           # top-K most expensive decisions
//! trace chrome  ARTIFACT.json [--out FILE] [--masked]
//! ```
//!
//! Artifacts are the JSON failure files the `campaign` binary writes under
//! `results/campaigns/`; their `report.provenance` section embeds the fleet's
//! flight-recorder tail. A file goes through `cb_harness::read_artifact`,
//! the decoder replay and corpus ingest use, so what is not an artifact
//! (a bare report among it) is refused. Span ids use the
//! `t<ns>.n<node>.s<seq>` notation printed by every query.
//!
//! * `explain` renders a decision span's option table (per-option objective,
//!   predicted violations, explored states), the winner, the resolver and
//!   ladder rung that picked it, and the governor's level + dominant
//!   pressure cause. Default span: the **last** decision in the tail.
//! * `blame` walks parent edges backwards from a violation (default: the
//!   first synthesised `violation` span; falls back to the last
//!   `steering_fire`) and prints the causal chain, the originating decision
//!   spans it reaches, and any parent ids that fell off the bounded ring.
//! * `slowest` ranks decisions by their deterministic sim-cost.
//! * `chrome` converts the tail to Chrome trace-event JSON: load the file at
//!   `ui.perfetto.dev` (or `chrome://tracing`) to see per-node tracks with
//!   flow arrows along every causal edge. `--masked` blanks wall clocks for
//!   byte-stable output.
//!
//! Exit status: 0 = query answered, 1 = span not found / nothing to blame,
//! 2 = usage, artifact or output error. A reader that closes the pipe early,
//! as `| head` does, stops the printing but not the status.

use cb_bench::cli::write_stdout;
use cb_bench::outln;
use cb_harness::read_artifact;
use cb_trace::{blame, chrome_trace_json, explain, slowest, Span, SpanId, SpanIndex, SpanKind};
use std::path::Path;

fn usage() -> ! {
    eprintln!(
        "usage: trace explain ARTIFACT.json [SPAN_ID]\n\
         \x20      trace blame   ARTIFACT.json [SPAN_ID]\n\
         \x20      trace slowest ARTIFACT.json [K]\n\
         \x20      trace chrome  ARTIFACT.json [--out FILE] [--masked]\n\
         span ids look like t1500000000.n3.s27 (see artifact 'provenance.spans')"
    );
    std::process::exit(2);
}

/// The provenance spans of a failure artifact: its report's tail, from the
/// run the oracle flagged.
fn load_spans(path: &str) -> Vec<Span> {
    match read_artifact(Path::new(path)) {
        Ok(artifact) => artifact.provenance,
        Err(e) => {
            eprintln!("trace: {path}: {e}");
            std::process::exit(2);
        }
    }
}

fn parse_span_id(text: &str) -> SpanId {
    text.parse().unwrap_or_else(|e: String| {
        eprintln!("trace: {e}");
        std::process::exit(2);
    })
}

fn span_line(s: &Span) -> String {
    let mut line = format!(
        "{:>14} ns  node {:>3}  {:<16} {}",
        s.id.at_ns,
        if s.id.node == u32::MAX {
            "harness".to_string()
        } else {
            s.id.node.to_string()
        },
        s.kind.label(),
        s.name
    );
    if s.sim_cost_us > 0 {
        line.push_str(&format!("  [{} sim-us]", s.sim_cost_us));
    }
    line
}

fn cmd_explain(spans: &[Span], target: Option<&str>) -> i32 {
    let id = match target {
        Some(t) => parse_span_id(t),
        None => match SpanIndex::last_of_kind(spans, SpanKind::Decision) {
            Some(s) => s.id,
            None => {
                eprintln!("trace: no decision spans in the tail");
                return 1;
            }
        },
    };
    match explain(spans, id) {
        Some(text) => {
            write_stdout(format_args!("{text}"));
            0
        }
        None => {
            eprintln!("trace: {id} is not a retained decision span");
            1
        }
    }
}

fn cmd_blame(spans: &[Span], target: Option<&str>) -> i32 {
    let id = match target {
        Some(t) => parse_span_id(t),
        None => match SpanIndex::first_of_kind(spans, SpanKind::Violation)
            .or_else(|| SpanIndex::last_of_kind(spans, SpanKind::SteeringFire))
        {
            Some(s) => s.id,
            None => {
                eprintln!("trace: nothing to blame (no violation or steering_fire span)");
                return 1;
            }
        },
    };
    let Some(chain) = blame(spans, id) else {
        eprintln!("trace: {id} is not a retained span");
        return 1;
    };
    outln!(
        "blame {id}: {} spans on the causal chain",
        chain.chain.len()
    );
    const SHOWN: usize = 32;
    for s in chain.chain.iter().take(SHOWN) {
        outln!("  {}", span_line(s));
    }
    if chain.chain.len() > SHOWN {
        outln!(
            "  ... ({} more spans on the chain)",
            chain.chain.len() - SHOWN
        );
    }
    if !chain.decisions.is_empty() {
        let ids: Vec<String> = chain.decisions.iter().map(|d| d.to_string()).collect();
        outln!(
            "originating decisions ({}): {}",
            chain.decisions.len(),
            ids.join(", ")
        );
        outln!(
            "  (run `trace explain ARTIFACT {}` for the option table)",
            ids[0]
        );
    } else {
        outln!("originating decisions: none reached");
    }
    outln!(
        "nodes crossed: {:?}{}",
        chain.nodes,
        if chain.unresolved.is_empty() {
            String::new()
        } else {
            format!(
                "  ({} parent(s) evicted from the ring: {})",
                chain.unresolved.len(),
                chain
                    .unresolved
                    .iter()
                    .map(|u| u.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        }
    );
    0
}

fn cmd_slowest(spans: &[Span], k: usize) -> i32 {
    let top = slowest(spans, k);
    if top.is_empty() {
        eprintln!("trace: no decision spans in the tail");
        return 1;
    }
    outln!("top {} decisions by sim-cost:", top.len());
    for s in top {
        outln!("  {}  [{}]", span_line(s), s.id);
    }
    0
}

fn cmd_chrome(spans: &[Span], out: Option<&str>, masked: bool) -> i32 {
    let json = chrome_trace_json(spans, masked);
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, json + "\n") {
                eprintln!("trace: cannot write {path}: {e}");
                return 2;
            }
            outln!("wrote chrome trace ({} spans) to {path}", spans.len());
        }
        None => outln!("{json}"),
    }
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(cmd), Some(artifact)) = (args.first(), args.get(1)) else {
        usage();
    };
    let spans = load_spans(artifact);
    let code = match cmd.as_str() {
        "explain" => cmd_explain(&spans, args.get(2).map(String::as_str)),
        "blame" => cmd_blame(&spans, args.get(2).map(String::as_str)),
        "slowest" => {
            let k = match args.get(2) {
                Some(t) => t.parse().unwrap_or_else(|_| {
                    eprintln!("trace: K must be a number");
                    std::process::exit(2);
                }),
                None => 10,
            };
            cmd_slowest(&spans, k)
        }
        "chrome" => {
            let mut out: Option<&str> = None;
            let mut masked = false;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--out" => {
                        i += 1;
                        out = Some(args.get(i).map(String::as_str).unwrap_or_else(|| {
                            eprintln!("--out needs a path");
                            usage();
                        }));
                    }
                    "--masked" => masked = true,
                    other => {
                        eprintln!("unknown argument: {other}");
                        usage();
                    }
                }
                i += 1;
            }
            cmd_chrome(&spans, out, masked)
        }
        other => {
            eprintln!("unknown command: {other}");
            usage();
        }
    };
    std::process::exit(code);
}
