//! Execution steering: predict an inconsistency, filter it away.
//!
//! A deliberately unsafe toy protocol: every node accepts the first value
//! it hears and forwards it — but two sources race to set *different*
//! values, so without intervention some nodes adopt 1 and others 2 (a
//! classic inconsistency). The CrystalBall-style steering advisor watches
//! the checkpoints of a node's neighborhood; when prediction says an
//! incoming message from a divergent peer would produce a conflicting
//! adoption, it installs an event filter that drops the message and breaks
//! the connection (the paper's universally available corrective action).
//!
//! Run with: `cargo run --release --example steering`

use cb_core::model::state::NodeView;
use cb_core::prelude::*;

/// The toy protocol: adopt the first value heard, forward it onward after
/// a propagation delay (two waves crawl toward each other from opposite
/// ends of the id space, slowly enough that checkpoints and prediction run
/// ahead of them).
#[derive(Clone, Debug, Hash)]
struct SetValue(u32);

const FORWARD_TIMER: u64 = 1;
const HOP_DELAY: SimDuration = SimDuration::from_millis(400);

struct Register {
    me: NodeId,
    value: Option<u32>,
    /// Conflicting adoptions this node *observed* (received a different
    /// value after adopting one) — the inconsistency we want to avoid.
    conflicts_seen: u32,
}

impl Register {
    fn adopt(&mut self, ctx: &mut ServiceCtx<'_, '_, SetValue, Option<u32>>, v: u32) {
        self.value = Some(v);
        ctx.set_timer(HOP_DELAY, FORWARD_TIMER);
    }

    /// Forward toward higher ids when carrying value 1 (wave from node 0),
    /// toward lower ids when carrying value 2 (wave from the top).
    fn forward_targets(&self, ctx: &ServiceCtx<'_, '_, SetValue, Option<u32>>) -> Vec<NodeId> {
        let n = ctx.host_count() as u32;
        match self.value {
            Some(1) if self.me.0 + 1 < n => vec![NodeId(self.me.0 + 1)],
            Some(2) if self.me.0 > 0 => vec![NodeId(self.me.0 - 1)],
            _ => Vec::new(),
        }
    }
}

impl Service for Register {
    type Msg = SetValue;
    type Checkpoint = Option<u32>;

    fn on_start(&mut self, ctx: &mut ServiceCtx<'_, '_, SetValue, Option<u32>>) {
        // Two sources race with different values from opposite ends.
        let n = ctx.host_count() as u32;
        match self.me {
            NodeId(0) => self.adopt(ctx, 1),
            m if m.0 == n - 1 => self.adopt(ctx, 2),
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut ServiceCtx<'_, '_, SetValue, Option<u32>>, tag: u64) {
        if tag == FORWARD_TIMER {
            if let Some(v) = self.value {
                for t in self.forward_targets(ctx) {
                    ctx.send(t, SetValue(v));
                }
            }
        }
    }

    fn on_message(
        &mut self,
        ctx: &mut ServiceCtx<'_, '_, SetValue, Option<u32>>,
        _from: NodeId,
        msg: SetValue,
    ) {
        match self.value {
            None => self.adopt(ctx, msg.0),
            Some(v) if v != msg.0 => self.conflicts_seen += 1,
            Some(_) => {}
        }
    }

    fn checkpoint(&self, _m: &StateModel<Option<u32>>) -> Option<u32> {
        self.value
    }

    fn neighbors(&self) -> Vec<NodeId> {
        // Everyone checkpoints to everyone in this tiny deployment.
        (0..8).map(NodeId).filter(|&n| n != self.me).collect()
    }
}

fn run(with_steering: bool) -> (u32, u64) {
    let topo = Topology::star(8, SimDuration::from_millis(20), 10_000_000);
    let mut sim = Sim::new(topo, 3, move |_id| {
        let mut config: RuntimeConfig<Option<u32>> =
            RuntimeConfig::new(Box::new(RandomResolver::new(1)))
                .controller_every(SimDuration::from_millis(50));
        if with_steering {
            // The advisor: if my checkpointed value differs from a
            // neighbor's, predict that its next message would cause a
            // conflicting adoption here and filter it.
            let advisor: SteeringAdvisor<Option<u32>> = Box::new(|input| {
                let Some(mine) = input.my_state else {
                    return Vec::new();
                };
                input
                    .model
                    .known()
                    .filter_map(|peer| match input.model.view(peer) {
                        NodeView::Known(s) => match s.state {
                            Some(theirs) if theirs != mine => Some(SteeringAdvice {
                                reason: format!("predicted conflict: {mine} vs {theirs}"),
                                from: peer,
                                action: FilterAction::DropAndBreak,
                            }),
                            _ => None,
                        },
                        NodeView::Generic => None,
                    })
                    .collect()
            });
            config = config.with_advisor(advisor);
        }
        RuntimeNode::new(
            Register {
                me: _id,
                value: None,
                conflicts_seen: 0,
            },
            config,
        )
    });
    sim.start_all();
    sim.run_until_quiescent(SimTime::from_secs(30));
    let conflicts: u32 = sim
        .topology()
        .hosts()
        .map(|n| sim.actor(n).service().conflicts_seen)
        .sum();
    let steered: u64 = sim
        .topology()
        .hosts()
        .map(|n| sim.actor(n).steering_stats().0)
        .sum();
    (conflicts, steered)
}

fn main() {
    let (conflicts_plain, _) = run(false);
    let (conflicts_steered, filtered) = run(true);
    println!("without steering: {conflicts_plain} conflicting deliveries observed");
    println!(
        "with steering:    {conflicts_steered} conflicting deliveries ({filtered} messages filtered)"
    );
    assert!(
        conflicts_steered < conflicts_plain,
        "steering failed to reduce conflicts ({conflicts_steered} vs {conflicts_plain})"
    );
    println!("\nok: predicted-violation filters cut the inconsistency down");
}
