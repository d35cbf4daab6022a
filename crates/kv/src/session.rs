//! The KV client session: closed-loop workload + history recorder.
//!
//! Each session runs one operation at a time — invoke, wait for the ack,
//! think, invoke the next — and records every operation as a
//! [`cb_harness::linearizability::Op`] with its real-time invoke/respond
//! window. The concatenated session histories are exactly what the
//! campaign's `kv.linearizable` oracle feeds to the WGL checker.
//!
//! The session owns the scenario's third exposed choice:
//! `kv.read_replica` — which replica a read is sent to. Under guarded
//! reads any target works (followers forward to the leader), so the choice
//! only shapes latency; under the `--unsafe-reads` arm the chosen replica
//! answers from its local store, and a partitioned pick turns directly
//! into a stale read the oracle flags — which is what makes the choice's
//! decision span the root cause `trace blame` should find.

use crate::proto::KvMsg;
use crate::replica::KvCheckpoint;
use cb_core::choice::ContextKey;
use cb_core::runtime::ServiceCtx;
use cb_harness::linearizability::{Op, OpKind};
use cb_simnet::time::{SimDuration, SimTime};
use cb_simnet::topology::NodeId;

/// Next-operation timer tag.
pub const OP_TIMER: u64 = 10;

/// Retry-sweep timer tag.
pub const SWEEP_TIMER: u64 = 11;

/// Think time between an ack and the next operation.
const THINK: SimDuration = SimDuration::from_millis(500);

/// Operations unacknowledged for this long are resubmitted.
const RESUBMIT_AFTER: SimDuration = SimDuration::from_secs(2);

type Cx<'a, 'b> = ServiceCtx<'a, 'b, KvMsg, KvCheckpoint>;

/// What the session currently has in flight.
enum InFlight {
    /// Nothing; the next op fires on [`OP_TIMER`].
    Idle,
    /// A write: key, value, sequence, submit time, routing attempt.
    Put {
        key: u64,
        value: u64,
        seq: u32,
        at: SimTime,
        attempt: u32,
    },
    /// A read: key, read id, submit time, replica picked.
    Get {
        key: u64,
        read_id: u32,
        at: SimTime,
        replica: NodeId,
    },
}

/// One closed-loop client session.
pub struct Session {
    me: NodeId,
    /// The replica group, in index order.
    pub group: Vec<NodeId>,
    /// Keys are drawn from `0..keys`.
    pub keys: u64,
    /// Operations to run before going quiet.
    pub target: u32,
    /// Where this session currently believes the leader is.
    leader_hint: usize,
    seq: u32,
    next_read: u32,
    inflight: InFlight,
    /// Index into `history` of the in-flight op (respond backfilled there).
    open_idx: usize,
    /// Every operation this session invoked, in invoke order.
    pub history: Vec<Op>,
    /// Operations resubmitted after a timeout.
    pub resubmits: u64,
}

impl Session {
    /// Creates a session running `target` ops over `keys` keys.
    pub fn new(me: NodeId, group: Vec<NodeId>, keys: u64, target: u32) -> Self {
        Session {
            me,
            group,
            keys,
            target,
            leader_hint: 0,
            seq: 0,
            next_read: 0,
            inflight: InFlight::Idle,
            open_idx: 0,
            history: Vec::new(),
            resubmits: 0,
        }
    }

    /// Completed operations (acked, so their history windows are closed).
    pub fn completed(&self) -> usize {
        self.history
            .iter()
            .filter(|op| op.respond_ns.is_some())
            .count()
    }

    /// True once every targeted op has been invoked and acked.
    pub fn done(&self) -> bool {
        self.seq + self.next_read >= self.target && matches!(self.inflight, InFlight::Idle)
    }

    /// Schedules the opening timers.
    pub fn on_start(&mut self, ctx: &mut Cx<'_, '_>) {
        // Stagger session starts so invocations interleave across clients.
        let first = SimDuration::from_millis(200 + ctx.rng().gen_below(800));
        ctx.set_timer(first, OP_TIMER);
        ctx.set_timer(SimDuration::from_secs(1), SWEEP_TIMER);
    }

    fn pick_read_replica(&mut self, ctx: &mut Cx<'_, '_>) -> NodeId {
        ctx.choose_peer("kv.read_replica", &self.group)
    }

    /// Invokes the next operation, if idle and under budget.
    pub fn next_op(&mut self, ctx: &mut Cx<'_, '_>) {
        if !matches!(self.inflight, InFlight::Idle) || self.seq + self.next_read >= self.target {
            return;
        }
        let key = ctx.rng().gen_below(self.keys);
        let now = ctx.now();
        if ctx.rng().gen_below(2) == 0 {
            // A write of a globally unique, never-zero value: the session id
            // in the high half and the sequence in the low half, so any
            // read's result names exactly one write (or the initial 0).
            self.seq += 1;
            let seq = self.seq;
            let value = ((self.me.0 as u64) << 32) | seq as u64;
            self.open_idx = self.history.len();
            self.history.push(Op::pending_write(
                self.me.0 as u64,
                key,
                value,
                now.as_nanos(),
            ));
            self.inflight = InFlight::Put {
                key,
                value,
                seq,
                at: now,
                attempt: 0,
            };
            let target = self.group[self.leader_hint];
            ctx.send(
                target,
                KvMsg::Put {
                    client: self.me,
                    key,
                    value,
                    client_seq: seq,
                },
            );
        } else {
            self.next_read += 1;
            let read_id = self.next_read;
            let replica = self.pick_read_replica(ctx);
            self.open_idx = self.history.len();
            self.history
                .push(Op::pending_read(self.me.0 as u64, key, now.as_nanos()));
            self.inflight = InFlight::Get {
                key,
                read_id,
                at: now,
                replica,
            };
            ctx.send(
                replica,
                KvMsg::Get {
                    client: self.me,
                    key,
                    read_id,
                },
            );
        }
    }

    /// Handles a write acknowledgement.
    pub fn on_put_ack(&mut self, ctx: &mut Cx<'_, '_>, client_seq: u32) {
        if let InFlight::Put { seq, .. } = self.inflight {
            if seq == client_seq {
                self.history[self.open_idx].respond_ns = Some(ctx.now().as_nanos());
                self.inflight = InFlight::Idle;
                ctx.set_timer(THINK, OP_TIMER);
            }
        }
    }

    /// Handles a read result.
    pub fn on_get_ack(&mut self, ctx: &mut Cx<'_, '_>, read_id: u32, value: u64) {
        if let InFlight::Get {
            read_id: want,
            at,
            replica,
            ..
        } = self.inflight
        {
            if want == read_id {
                let op = &mut self.history[self.open_idx];
                op.kind = OpKind::Read(value);
                op.respond_ns = Some(ctx.now().as_nanos());
                let lat = ctx.now().saturating_since(at).as_secs_f64();
                ctx.feedback(
                    "kv.read_replica",
                    ContextKey::default(),
                    replica.0 as u64,
                    0.2 / (0.2 + lat),
                );
                self.inflight = InFlight::Idle;
                ctx.set_timer(THINK, OP_TIMER);
            }
        }
    }

    /// Follows a leader redirect.
    pub fn on_redirect(&mut self, leader: NodeId) {
        if let Some(i) = self.group.iter().position(|&r| r == leader) {
            self.leader_hint = i;
        }
    }

    /// Resubmits the in-flight op if it has been outstanding too long.
    /// Writes rotate the leader hint; reads make a *fresh* replica choice,
    /// opening a new decision span for the retry.
    pub fn sweep(&mut self, ctx: &mut Cx<'_, '_>) {
        let now = ctx.now();
        enum Retry {
            Put {
                key: u64,
                value: u64,
                seq: u32,
                attempt: u32,
            },
            Get {
                key: u64,
                read_id: u32,
            },
        }
        let retry = match &mut self.inflight {
            InFlight::Idle => None,
            InFlight::Put {
                key,
                value,
                seq,
                at,
                attempt,
            } => {
                if now.saturating_since(*at) > RESUBMIT_AFTER {
                    *at = now;
                    *attempt += 1;
                    Some(Retry::Put {
                        key: *key,
                        value: *value,
                        seq: *seq,
                        attempt: *attempt,
                    })
                } else {
                    None
                }
            }
            InFlight::Get {
                key, read_id, at, ..
            } => {
                if now.saturating_since(*at) > RESUBMIT_AFTER {
                    *at = now;
                    Some(Retry::Get {
                        key: *key,
                        read_id: *read_id,
                    })
                } else {
                    None
                }
            }
        };
        match retry {
            None => {}
            Some(Retry::Put {
                key,
                value,
                seq,
                attempt,
            }) => {
                self.resubmits += 1;
                self.leader_hint = (self.leader_hint + attempt as usize) % self.group.len();
                let target = self.group[self.leader_hint];
                ctx.send(
                    target,
                    KvMsg::Put {
                        client: self.me,
                        key,
                        value,
                        client_seq: seq,
                    },
                );
            }
            Some(Retry::Get { key, read_id }) => {
                self.resubmits += 1;
                let replica = self.pick_read_replica(ctx);
                if let InFlight::Get { replica: r, .. } = &mut self.inflight {
                    *r = replica;
                }
                ctx.send(
                    replica,
                    KvMsg::Get {
                        client: self.me,
                        key,
                        read_id,
                    },
                );
            }
        }
        ctx.set_timer(SimDuration::from_secs(1), SWEEP_TIMER);
    }
}
