//! The unified Paxos node: replica or client, one [`Service`] type.
//!
//! The simulator hosts one actor type per run, so replicas and clients are
//! two roles of a single service; dispatch is by construction, not by
//! message inspection.

use crate::client::{Client, CLIENT_SWEEP_TIMER, SUBMIT_TIMER};
use crate::proto::PaxosMsg;
use crate::replica::{Replica, ReplicaCheckpoint};
use cb_core::model::state::StateModel;
use cb_core::runtime::{Service, ServiceCtx};
use cb_simnet::time::SimDuration;
use cb_simnet::topology::NodeId;

/// A node of the consensus deployment.
pub enum PaxosNode {
    /// A replica (acceptor + learner + proposer).
    Replica(Replica),
    /// A command-submitting client.
    Client(Client),
    /// A host that takes no part (topology filler).
    Idle,
}

impl PaxosNode {
    /// The replica inside, if this is one.
    pub fn as_replica(&self) -> Option<&Replica> {
        match self {
            PaxosNode::Replica(r) => Some(r),
            _ => None,
        }
    }

    /// The client inside, if this is one.
    pub fn as_client(&self) -> Option<&Client> {
        match self {
            PaxosNode::Client(c) => Some(c),
            _ => None,
        }
    }
}

impl Service for PaxosNode {
    type Msg = PaxosMsg;
    type Checkpoint = ReplicaCheckpoint;

    fn on_start(&mut self, ctx: &mut ServiceCtx<'_, '_, PaxosMsg, ReplicaCheckpoint>) {
        if let PaxosNode::Client(c) = self {
            // Probe every replica so the network model is warm before the
            // first proposer choice.
            ctx.probe(c.group.iter().copied());
            let jitter = SimDuration::from_nanos(ctx.rng().gen_below(c.period().as_nanos().max(1)));
            ctx.set_timer(c.period() + jitter, SUBMIT_TIMER);
            ctx.set_timer(SimDuration::from_secs(5), CLIENT_SWEEP_TIMER);
        }
    }

    fn on_timer(&mut self, ctx: &mut ServiceCtx<'_, '_, PaxosMsg, ReplicaCheckpoint>, tag: u64) {
        let PaxosNode::Client(c) = self else { return };
        match tag {
            SUBMIT_TIMER => {
                c.submit_next(ctx);
                if !c.done() {
                    ctx.set_timer(c.period(), SUBMIT_TIMER);
                }
            }
            CLIENT_SWEEP_TIMER => {
                c.sweep(ctx);
                if !c.done() {
                    ctx.set_timer(SimDuration::from_secs(5), CLIENT_SWEEP_TIMER);
                }
            }
            _ => {}
        }
    }

    fn on_message(
        &mut self,
        ctx: &mut ServiceCtx<'_, '_, PaxosMsg, ReplicaCheckpoint>,
        from: NodeId,
        msg: PaxosMsg,
    ) {
        match self {
            PaxosNode::Replica(r) => r.handle(ctx, from, msg),
            PaxosNode::Client(c) => {
                if let PaxosMsg::Committed { cmd } = msg {
                    c.on_committed(ctx, cmd);
                }
            }
            PaxosNode::Idle => {}
        }
    }

    fn checkpoint(&self, _model: &StateModel<ReplicaCheckpoint>) -> ReplicaCheckpoint {
        match self {
            PaxosNode::Replica(r) => ReplicaCheckpoint {
                learned: r.learned.len() as u64,
                log_high: r.learned.keys().next_back().map_or(0, |&s| s + 1),
            },
            _ => ReplicaCheckpoint {
                learned: 0,
                log_high: 0,
            },
        }
    }

    fn neighbors(&self) -> Vec<NodeId> {
        match self {
            PaxosNode::Replica(r) => r.group_peers(),
            _ => Vec::new(),
        }
    }
}
