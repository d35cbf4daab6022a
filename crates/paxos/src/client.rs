//! The consensus client: where the proposer choice lives.
//!
//! §3.1: "an implementation can expose the choice of a proposer and let the
//! runtime pick the best proposer for high performance across a range of
//! deployment settings." Our client submits each command to a proposer
//! picked by one of three regimes:
//!
//! * [`ProposerRegime::FixedLeader`] — everything goes to replica 0, the
//!   classic deployment that degrades when the leader's uplink or CPU
//!   saturates or the client is far away.
//! * [`ProposerRegime::RoundRobin`] — Mencius-style rotation: load spreads,
//!   but a client routinely submits to far-away proposers.
//! * [`ProposerRegime::Resolved`] — the proposer is an **exposed choice**
//!   (`"paxos.proposer"`) with the runtime-measured latency as a feature;
//!   commit-latency feedback teaches the learned resolver which proposer
//!   is best for *this* client under the *current* load.

use crate::proto::{Command, PaxosMsg};
use crate::replica::ReplicaCheckpoint;
use cb_core::choice::ContextKey;
use cb_core::runtime::ServiceCtx;
use cb_simnet::time::{SimDuration, SimTime};
use cb_simnet::topology::NodeId;
use std::collections::HashMap;

/// Client submit-loop timer tag.
pub const SUBMIT_TIMER: u64 = 10;

/// Client retry-sweep timer tag.
pub const CLIENT_SWEEP_TIMER: u64 = 11;

/// Commands unacknowledged for this long are resubmitted.
const RESUBMIT_AFTER: SimDuration = SimDuration::from_secs(10);

/// How a client picks the proposer for each command.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProposerRegime {
    /// Always the fixed leader (replica index 0).
    FixedLeader,
    /// Rotate deterministically across all replicas.
    RoundRobin,
    /// Exposed choice resolved by the runtime.
    Resolved,
}

impl ProposerRegime {
    /// Label for experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            ProposerRegime::FixedLeader => "Fixed leader",
            ProposerRegime::RoundRobin => "Round-robin",
            ProposerRegime::Resolved => "Runtime-Resolved",
        }
    }
}

/// A closed-loop-ish client: submits at a fixed rate up to a command budget
/// and records commit latencies.
pub struct Client {
    me: NodeId,
    /// The replica group, in index order.
    pub group: Vec<NodeId>,
    regime: ProposerRegime,
    period: SimDuration,
    /// Total commands to submit.
    pub target: u32,
    next_seq: u32,
    /// Outstanding commands: seq -> (submitted at, proposer used, attempt).
    pending: HashMap<u32, (SimTime, NodeId, u32)>,
    /// Commit latencies, seconds, in completion order.
    pub latencies: Vec<f64>,
    /// Commands resubmitted after a timeout.
    pub resubmits: u64,
}

impl Client {
    /// Creates a client submitting `target` commands every `period`.
    pub fn new(
        me: NodeId,
        group: Vec<NodeId>,
        regime: ProposerRegime,
        period: SimDuration,
        target: u32,
    ) -> Self {
        Client {
            me,
            group,
            regime,
            period,
            target,
            next_seq: 0,
            pending: HashMap::new(),
            latencies: Vec::new(),
            resubmits: 0,
        }
    }

    /// Commands committed so far.
    pub fn committed(&self) -> usize {
        self.latencies.len()
    }

    /// Mean commit latency in seconds (infinite when nothing committed).
    pub fn mean_latency_secs(&self) -> f64 {
        if self.latencies.is_empty() {
            f64::INFINITY
        } else {
            self.latencies.iter().sum::<f64>() / self.latencies.len() as f64
        }
    }

    fn pick_proposer(
        &mut self,
        ctx: &mut ServiceCtx<'_, '_, PaxosMsg, ReplicaCheckpoint>,
        seq: u32,
        attempt: u32,
    ) -> NodeId {
        match self.regime {
            // Fixed schedules fail over by rotating on retries.
            ProposerRegime::FixedLeader => self.group[attempt as usize % self.group.len()],
            ProposerRegime::RoundRobin => {
                self.group[(seq as usize + attempt as usize) % self.group.len()]
            }
            ProposerRegime::Resolved => ctx.choose_peer("paxos.proposer", &self.group),
        }
    }

    /// Submits the next command, if the budget allows.
    pub fn submit_next(&mut self, ctx: &mut ServiceCtx<'_, '_, PaxosMsg, ReplicaCheckpoint>) {
        if self.next_seq >= self.target {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let proposer = self.pick_proposer(ctx, seq, 0);
        self.pending.insert(seq, (ctx.now(), proposer, 0));
        ctx.send_sized(
            proposer,
            PaxosMsg::Submit {
                cmd: Command::new(self.me, seq),
            },
            crate::scenario::CMD_BYTES,
        );
    }

    /// Handles a commit acknowledgement.
    pub fn on_committed(
        &mut self,
        ctx: &mut ServiceCtx<'_, '_, PaxosMsg, ReplicaCheckpoint>,
        cmd: Command,
    ) {
        if cmd.client() != self.me {
            return;
        }
        if let Some((sent, proposer, _attempt)) = self.pending.remove(&cmd.seq()) {
            let lat = ctx.now().saturating_since(sent).as_secs_f64();
            self.latencies.push(lat);
            if self.regime == ProposerRegime::Resolved {
                // Saturating reward: ~1 for instant commits, ~0 for seconds.
                let reward = 0.2 / (0.2 + lat);
                ctx.feedback(
                    "paxos.proposer",
                    ContextKey::default(),
                    proposer.0 as u64,
                    reward,
                );
            }
        }
    }

    /// Resubmits commands that timed out (through a fresh proposer choice).
    pub fn sweep(&mut self, ctx: &mut ServiceCtx<'_, '_, PaxosMsg, ReplicaCheckpoint>) {
        let now = ctx.now();
        let expired: Vec<u32> = self
            .pending
            .iter()
            .filter(|(_, (at, _, _))| now.saturating_since(*at) > RESUBMIT_AFTER)
            .map(|(&s, _)| s)
            .collect();
        for seq in expired {
            self.resubmits += 1;
            let (_, old, attempt) = self.pending[&seq];
            if self.regime == ProposerRegime::Resolved {
                ctx.feedback("paxos.proposer", ContextKey::default(), old.0 as u64, 0.0);
            }
            let proposer = self.pick_proposer(ctx, seq, attempt + 1);
            self.pending.insert(seq, (now, proposer, attempt + 1));
            ctx.send_sized(
                proposer,
                PaxosMsg::Submit {
                    cmd: Command::new(self.me, seq),
                },
                crate::scenario::CMD_BYTES,
            );
        }
    }

    /// True when every command has been committed.
    pub fn done(&self) -> bool {
        self.next_seq >= self.target && self.pending.is_empty()
    }

    /// The submit period.
    pub fn period(&self) -> SimDuration {
        self.period
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regime_labels() {
        assert_eq!(ProposerRegime::FixedLeader.label(), "Fixed leader");
        assert_eq!(ProposerRegime::RoundRobin.label(), "Round-robin");
        assert_eq!(ProposerRegime::Resolved.label(), "Runtime-Resolved");
    }

    #[test]
    fn fresh_client_state() {
        let c = Client::new(
            NodeId(9),
            (0..5).map(NodeId).collect(),
            ProposerRegime::FixedLeader,
            SimDuration::from_millis(100),
            20,
        );
        assert_eq!(c.committed(), 0);
        assert!(!c.done());
        assert_eq!(c.mean_latency_secs(), f64::INFINITY);
    }
}
