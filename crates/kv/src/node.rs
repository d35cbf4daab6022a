//! The unified KV node: replica or client session, one [`Service`] type.

use crate::loadgen::{LoadGen, GEN_RETRY, GEN_WINDOW};
use crate::proto::KvMsg;
use crate::replica::{KvCheckpoint, Replica, REPLICA_TICK, WORK_TICK};
use crate::session::{Session, OP_TIMER, SWEEP_TIMER};
use cb_core::model::state::StateModel;
use cb_core::runtime::{Service, ServiceCtx};
use cb_simnet::topology::NodeId;

/// A node of the KV deployment.
pub enum KvNode {
    /// A storage replica.
    Replica(Replica),
    /// A client session.
    Client(Session),
    /// The aggregate open-loop workload generator.
    Load(LoadGen),
    /// A host that takes no part (topology filler).
    Idle,
}

impl KvNode {
    /// The replica inside, if this is one.
    pub fn as_replica(&self) -> Option<&Replica> {
        match self {
            KvNode::Replica(r) => Some(r),
            _ => None,
        }
    }

    /// The session inside, if this is one.
    pub fn as_session(&self) -> Option<&Session> {
        match self {
            KvNode::Client(s) => Some(s),
            _ => None,
        }
    }

    /// The workload generator inside, if this is one.
    pub fn as_loadgen(&self) -> Option<&LoadGen> {
        match self {
            KvNode::Load(g) => Some(g),
            _ => None,
        }
    }
}

impl Service for KvNode {
    type Msg = KvMsg;
    type Checkpoint = KvCheckpoint;

    fn on_start(&mut self, ctx: &mut ServiceCtx<'_, '_, KvMsg, KvCheckpoint>) {
        match self {
            KvNode::Replica(r) => r.on_start(ctx),
            KvNode::Client(s) => {
                // Probe every replica so the network model is warm before
                // the first read-replica choice.
                ctx.probe(s.group.iter().copied());
                s.on_start(ctx);
            }
            KvNode::Load(g) => g.on_start(ctx),
            KvNode::Idle => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut ServiceCtx<'_, '_, KvMsg, KvCheckpoint>, tag: u64) {
        match self {
            KvNode::Replica(r) => match tag {
                REPLICA_TICK => r.tick(ctx),
                WORK_TICK => r.drain_work(ctx),
                _ => {}
            },
            KvNode::Client(s) => match tag {
                OP_TIMER => s.next_op(ctx),
                SWEEP_TIMER if !s.done() => s.sweep(ctx),
                _ => {}
            },
            KvNode::Load(g) => match tag {
                GEN_WINDOW => g.on_window(ctx),
                GEN_RETRY => g.on_retry_sweep(ctx),
                _ => {}
            },
            KvNode::Idle => {}
        }
    }

    fn on_message(
        &mut self,
        ctx: &mut ServiceCtx<'_, '_, KvMsg, KvCheckpoint>,
        from: NodeId,
        msg: KvMsg,
    ) {
        match self {
            KvNode::Replica(r) => r.handle(ctx, from, msg),
            KvNode::Client(s) => match msg {
                KvMsg::PutAck { client_seq } => s.on_put_ack(ctx, client_seq),
                KvMsg::GetAck { read_id, value } => s.on_get_ack(ctx, read_id, value),
                KvMsg::Redirect { leader } => s.on_redirect(leader),
                _ => {}
            },
            KvNode::Load(g) => match msg {
                KvMsg::BatchAck {
                    bucket,
                    attempt,
                    shed,
                    ..
                } => g.on_batch_ack(ctx, bucket, attempt, shed),
                KvMsg::BatchDone {
                    bucket,
                    attempt,
                    served,
                    expired,
                } => g.on_batch_done(ctx, bucket, attempt, served, expired),
                _ => {}
            },
            KvNode::Idle => {}
        }
    }

    fn checkpoint(&self, _model: &StateModel<KvCheckpoint>) -> KvCheckpoint {
        match self {
            KvNode::Replica(r) => r.checkpoint(),
            _ => KvCheckpoint {
                term: 0,
                role: 0,
                keys: 0,
            },
        }
    }

    fn neighbors(&self) -> Vec<NodeId> {
        match self {
            KvNode::Replica(r) => r.group_peers(),
            _ => Vec::new(),
        }
    }
}
