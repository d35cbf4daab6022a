//! Quickstart: write a service against the explicit-choice model.
//!
//! A tiny work-dispatch service: node 0 hands work items to workers. *Which
//! worker* is the kind of decision the paper says should not be hard-coded:
//! we expose it as the choice `"dispatch.worker"`, give the runtime the
//! measured latency of each worker as a feature, and let a learned resolver
//! figure out that the slow worker should be avoided — no dispatch policy
//! appears anywhere in the service code.
//!
//! Run with: `cargo run --release --example quickstart`

use cb_core::prelude::*;
use std::collections::HashMap;

/// Work-dispatch messages.
#[derive(Clone, Debug, Hash)]
enum Msg {
    /// A unit of work.
    Work(u32),
    /// Completion report.
    Done(u32),
}

/// The dispatcher (node 0) and the workers (everyone else).
struct Dispatch {
    /// Items completed, as reported back to the dispatcher.
    completed: u32,
    /// Items this node processed as a worker.
    processed: u32,
    /// Items still to hand out (dispatcher only).
    backlog: u32,
    /// Outstanding items: item -> (worker key, dispatch time).
    pending: HashMap<u32, (u64, SimTime)>,
}

const DISPATCH_TIMER: u64 = 1;

impl Service for Dispatch {
    type Msg = Msg;
    type Checkpoint = u32;

    fn on_start(&mut self, ctx: &mut ServiceCtx<'_, '_, Msg, u32>) {
        if ctx.id() == NodeId(0) {
            ctx.set_timer(SimDuration::from_millis(50), DISPATCH_TIMER);
        }
    }

    fn on_timer(&mut self, ctx: &mut ServiceCtx<'_, '_, Msg, u32>, tag: u64) {
        if tag != DISPATCH_TIMER || self.backlog == 0 {
            return;
        }
        self.backlog -= 1;
        let item = self.backlog;
        // The exposed choice: which worker gets this item? Features carry
        // the runtime's own latency estimate per worker.
        let now = ctx.now();
        let options: Vec<OptionDesc> = (1..ctx.host_count() as u32)
            .map(|w| {
                let latency_ms = ctx
                    .net_model()
                    .predicted_latency(NodeId(w), now)
                    .map_or(25.0, |(l, _)| l.as_millis_f64());
                OptionDesc::peer(NodeId(w), vec![latency_ms])
            })
            .collect();
        let pick = ctx.choose("dispatch.worker", ContextKey::default(), &options);
        let worker = NodeId(options[pick].key as u32);
        self.pending.insert(item, (options[pick].key, ctx.now()));
        ctx.send(worker, Msg::Work(item));
        if self.backlog > 0 {
            ctx.set_timer(SimDuration::from_millis(50), DISPATCH_TIMER);
        }
    }

    fn on_message(&mut self, ctx: &mut ServiceCtx<'_, '_, Msg, u32>, from: NodeId, msg: Msg) {
        match msg {
            Msg::Work(item) => {
                self.processed += 1;
                ctx.send(from, Msg::Done(item));
            }
            Msg::Done(item) => {
                self.completed += 1;
                // Close the learning loop: fast turnaround = high reward.
                if let Some((worker, sent)) = self.pending.remove(&item) {
                    let elapsed = ctx.now().saturating_since(sent).as_secs_f64();
                    let reward = 0.05 / (0.05 + elapsed);
                    ctx.feedback("dispatch.worker", ContextKey::default(), worker, reward);
                }
            }
        }
    }

    fn checkpoint(&self, _model: &StateModel<u32>) -> u32 {
        self.completed
    }

    fn neighbors(&self) -> Vec<NodeId> {
        Vec::new()
    }
}

fn main() {
    // A star network where worker 3 sits behind a 150 ms spoke while the
    // others enjoy 5 ms.
    let mut topo = Topology::star(4, SimDuration::from_millis(5), 10_000_000);
    topo.add_path_latency(NodeId(0), NodeId(3), SimDuration::from_millis(150));

    let mut sim = Sim::new(topo, 7, |_| {
        RuntimeNode::new(
            Dispatch {
                completed: 0,
                processed: 0,
                backlog: 60,
                pending: HashMap::new(),
            },
            RuntimeConfig::new(Box::new(LearnedResolver::new(
                BanditPolicy::Ucb1 { c: 0.5 },
                11,
            ))),
        )
    });
    sim.start_all();
    sim.run_until_quiescent(SimTime::from_secs(60));

    let dispatcher = sim.actor(NodeId(0));
    println!(
        "dispatched 60 items; {} completions observed",
        dispatcher.service().completed
    );
    println!("\nper-worker load (learned dispatch should starve the slow worker 3):");
    for w in 1..4u32 {
        let processed = sim.actor(NodeId(w)).service().processed;
        let lat = dispatcher
            .net_model()
            .predicted_latency(NodeId(w), sim.now())
            .map_or_else(|| "unmeasured".into(), |(l, _)| format!("{l}"));
        println!("  worker {w}: {processed:2} items   measured one-way latency: {lat}");
    }
    println!("\nfirst five decisions, read from the dispatcher's Decision spans:");
    let decisions = sim
        .flight_recorder(NodeId(0))
        .spans()
        .filter(|s| s.kind() == SpanKind::Decision)
        .map(|s| s.render(&[]));
    for d in decisions.take(5) {
        let attr = |key: &str| d.attr(key).unwrap_or("?").to_string();
        let chosen = attr("chosen");
        println!(
            "  [{}] {}: chose {} of {} options",
            SimTime::from_nanos(d.id.at_ns),
            attr("choice"),
            attr(&format!("opt{chosen}.key")),
            attr("options"),
        );
    }
    let slow = sim.actor(NodeId(3)).service().processed;
    let fast: u32 = (1..3)
        .map(|w| sim.actor(NodeId(w)).service().processed)
        .sum();
    assert!(
        slow * 3 < fast,
        "learned resolver failed to avoid the slow worker ({slow} vs {fast})"
    );
    println!("\nok: the runtime learned to avoid the slow worker without any dispatch policy in the service");
}
