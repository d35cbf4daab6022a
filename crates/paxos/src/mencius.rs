//! Mencius-flavored multi-leader KV: a replicated state machine over the
//! coordinated-Paxos core, with every replica proposing in its own slots.
//!
//! Where `crates/kv` routes all writes through a single elected leader,
//! this layer runs the paper's other deployment shape: **every replica is
//! a leader** for the log slots it owns (round-robin schedule — the
//! Mencius arrangement the core's implicit round-0 promise was built for),
//! and the client-facing choice is *which replica to submit through*
//! (`mencius.submitter`). Commands are tiny KV operations packed into the
//! consensus [`Command`] word; results flow back at **execution** time:
//!
//! * a replica executes its learned log strictly in slot order, applying
//!   puts to a local store and sending a [`PaxosMsg::Result`] to the
//!   submitting client for each executed command;
//! * a client is acked only when some replica's contiguous executed
//!   prefix reaches its command — *not* at accept-quorum. This is the
//!   linearizability-critical rule: a put acked at quorum time could be
//!   ordered after a later-invoked get that snuck into an earlier unfilled
//!   slot; execution-time acks make "acked" imply "every earlier slot
//!   decided", restoring real-time order.
//! * idle owners leave holes; any replica whose execution cursor stalls
//!   while later slots are learned **revokes** the missing slots with
//!   no-op proposals (explicit phase 1, so already-accepted values are
//!   adopted, never overwritten).
//!
//! Restart safety: a restarted replica has forgotten which of its owned
//! slots it used, and re-proposing at its base ballot could put a second
//! value under an already-decided ballot. Restarted replicas therefore
//! never use the implicit-promise fast path again — fresh commands go
//! through explicit phase 1 in a fresh owned slot beyond everything they
//! have learned. Two further amnesia hazards are closed the same way:
//! the incarnation's explicit ballots are floored above anything its
//! predecessor could have used (a forgotten bumped ballot reused for a
//! different value is the same double-decide), and the incarnation never
//! serves as an **acceptor** again — its forgotten promises and accepts
//! would let a second quorum form for a slot the old incarnation already
//! helped decide. It stays a learner and proposer, which a 5-replica
//! group tolerates: quorums only need 3 of the 4 intact acceptors.

use crate::campaign::agreement;
use crate::proto::{Command, PaxosMsg};
use crate::replica::{Replica, ReplicaCheckpoint, SlotOwnership};
use cb_core::choice::ContextKey;
use cb_core::resolve::random::RandomResolver;
use cb_core::runtime::{fleet_telemetry, RuntimeConfig, RuntimeNode, Service, ServiceCtx};
use cb_harness::linearizability::{Op, OpKind, INIT_VALUE};
use cb_harness::overload;
use cb_harness::prelude::*;
use cb_harness::scenario::RunReport;
use cb_simnet::prelude::*;
use cb_telemetry::keys;
use cb_workload::{ArrivalEngine, WorkloadProfile};
use std::collections::BTreeMap;

/// Replica execution/revocation tick tag.
pub const MENCIUS_TICK: u64 = 1;

/// Client next-operation timer tag.
pub const MOP_TIMER: u64 = 10;

/// Client retry-sweep timer tag.
pub const MSWEEP_TIMER: u64 = 11;

/// Workload-generator window timer tag.
pub const MGEN_WINDOW: u64 = 30;

/// Workload-generator retry-sweep timer tag.
pub const MGEN_SWEEP: u64 = 31;

/// Ticks the execution cursor may stall (with later slots learned) before
/// the replica revokes the missing slots with no-ops.
const REVOKE_AFTER_TICKS: u32 = 3;

/// Think time between an ack and a session's next operation.
const THINK: SimDuration = SimDuration::from_millis(500);

/// Operations unacknowledged for this long are resubmitted.
const RESUBMIT_AFTER: SimDuration = SimDuration::from_secs(3);

/// KV operation kinds packed into a [`Command`].
const KIND_PUT: u8 = 0;
const KIND_GET: u8 = 1;
const KIND_NOOP: u8 = 2;
/// An aggregate bulk marker from the open-loop workload generator: the
/// command word carries `(generator, seq, region)`; the user-request
/// *count* it stands for stays in the generator's local ledger, so a
/// window of thousands of arrivals costs one consensus slot per region.
const KIND_BULK: u8 = 3;

/// Packs a KV operation into a consensus command word: client id in the
/// high 32 bits (keeping [`Command::client`] routing intact), then
/// `[seq:16][kind:8][key:8]` in the low 32.
fn encode(client: NodeId, seq: u16, kind: u8, key: u8) -> Command {
    Command(((client.0 as u64) << 32) | ((seq as u64) << 16) | ((kind as u64) << 8) | key as u64)
}

/// Unpacks the `(seq, kind, key)` triple of a command word.
fn decode(cmd: Command) -> (u16, u8, u8) {
    ((cmd.0 >> 16) as u16, (cmd.0 >> 8) as u8, cmd.0 as u8)
}

/// The value a put writes, derived at execution: session id over sequence,
/// never zero, unique per operation — so any read result names exactly one
/// write (or the initial [`INIT_VALUE`]).
fn put_value(client: NodeId, seq: u16) -> u64 {
    ((client.0 as u64) << 32) | seq as u64
}

/// A no-op used to revoke an unfilled slot. It carries the *revoking
/// replica's* id in the client field so the core's commit ack routes to a
/// replica (which ignores it) instead of an arbitrary node.
fn noop(owner: NodeId) -> Command {
    encode(owner, 0, KIND_NOOP, 0)
}

type Cx<'a, 'b> = ServiceCtx<'a, 'b, PaxosMsg, ReplicaCheckpoint>;

/// A Mencius KV replica: the consensus core plus an executed state machine.
pub struct MenciusReplica {
    /// The coordinated-Paxos core (acceptor/learner/proposer).
    pub core: Replica,
    /// First log slot not yet executed.
    pub exec_cursor: u64,
    /// The executed KV state.
    pub store: BTreeMap<u8, u64>,
    /// client id -> highest executed put sequence (duplicate suppression:
    /// a resubmitted put may occupy two slots, and re-applying the earlier
    /// copy after an intervening write would clobber it).
    last_exec: BTreeMap<u32, u16>,
    /// Set when this incarnation started with the clock already running —
    /// the implicit-promise fast path is poisoned for it (see module docs).
    pub restarted: bool,
    /// Restarted-path proposal cursor: the next fresh command goes in an
    /// owned slot at or after this (keeps concurrent submissions from
    /// contending for the same explicit-phase-1 slot).
    restarted_next: u64,
    exec_cursor_at_tick: u64,
    stall_ticks: u32,
    /// Counts stall epochs; rotates which replica is the designated
    /// revoker of a hole so revocations do not duel.
    revoke_epoch: u64,
    /// Slots this replica revoked with no-ops (report color).
    pub revocations: u64,
}

impl MenciusReplica {
    /// Creates replica `index` of `group` under the round-robin schedule.
    pub fn new(me: NodeId, index: u64, group: Vec<NodeId>) -> Self {
        MenciusReplica {
            core: Replica::new(me, index, group, SlotOwnership::RoundRobin),
            exec_cursor: 0,
            store: BTreeMap::new(),
            last_exec: BTreeMap::new(),
            restarted: false,
            restarted_next: 0,
            exec_cursor_at_tick: 0,
            stall_ticks: 0,
            revoke_epoch: 0,
            revocations: 0,
        }
    }

    fn me(&self) -> NodeId {
        self.core.group[self.core.index as usize]
    }

    fn highest_learned(&self) -> Option<u64> {
        self.core.learned.keys().next_back().copied()
    }

    /// Executes every contiguously learned slot, sending execution results
    /// to the submitting clients.
    fn execute_ready(&mut self, ctx: &mut Cx<'_, '_>) {
        while let Some(&cmd) = self.core.learned.get(&self.exec_cursor) {
            self.exec_cursor += 1;
            let (seq, kind, key) = decode(cmd);
            match kind {
                KIND_PUT => {
                    let c = cmd.client();
                    // Duplicate puts from resubmission: the closed-loop
                    // session makes put sequences monotone in slot order,
                    // so `seq <= last_exec` identifies a stale copy.
                    if self.last_exec.get(&c.0).copied().unwrap_or(0) < seq {
                        self.last_exec.insert(c.0, seq);
                        self.store.insert(key, put_value(c, seq));
                    }
                    ctx.send(
                        c,
                        PaxosMsg::Result {
                            cmd,
                            value: put_value(c, seq),
                        },
                    );
                }
                KIND_GET => {
                    let value = self.store.get(&key).copied().unwrap_or(INIT_VALUE);
                    ctx.send(cmd.client(), PaxosMsg::Result { cmd, value });
                }
                KIND_BULK => {
                    // Aggregate workload batch: no state-machine effect,
                    // but the generator is acked at execution time like any
                    // client (duplicates from resubmission dedup there).
                    ctx.send(cmd.client(), PaxosMsg::Result { cmd, value: 0 });
                }
                _ => {} // no-op filler
            }
        }
    }

    /// A fresh client submission. Non-restarted replicas use the owned-slot
    /// fast path, fast-forwarded past everything learned so the proposal
    /// cannot land in the past — and no-op-fill the owned slots the
    /// fast-forward jumps over (Mencius "skip" messages), so the holes are
    /// closed at creation instead of waiting for revocation. Restarted
    /// replicas run explicit phase 1 in a fresh owned slot beyond their
    /// whole log view.
    fn on_submit(&mut self, ctx: &mut Cx<'_, '_>, cmd: Command) {
        let floor = self.highest_learned().map_or(0, |h| h + 1);
        if self.restarted {
            if self
                .highest_learned()
                .is_some_and(|h| self.exec_cursor <= h)
            {
                // Still copying history: this replica's log view is stale,
                // and proposing at `floor` would contend for long-decided
                // slots (the command silently loses to the adopted value).
                // Hand the submission to an intact peer instead.
                let peers: Vec<NodeId> = self
                    .core
                    .group
                    .iter()
                    .copied()
                    .filter(|&p| p != self.me())
                    .collect();
                let peer = peers[ctx.rng().gen_below(peers.len() as u64) as usize];
                ctx.send(peer, PaxosMsg::Submit { cmd });
                return;
            }
            let from = (floor + self.core.group.len() as u64).max(self.restarted_next);
            if let Some(slot) = self.core.first_owned_at_or_after(from) {
                self.restarted_next = slot + 1;
                self.core.propose_in_slot(ctx, slot, cmd);
            }
        } else {
            let skipped = self.core.fast_forward_owned(floor);
            let filler = noop(self.me());
            for slot in skipped {
                self.core.propose_base_in_slot(ctx, slot, filler);
            }
            self.core.propose_owned(ctx, cmd);
        }
    }

    /// Periodic tick: detect a stalled execution cursor and revoke the
    /// missing slots below the learned frontier with no-ops. Exactly one
    /// replica is the designated revoker of a hole per stall epoch —
    /// rotating from the hole's owner (the replica most likely to be the
    /// dead one) — so revocations do not duel over ballots.
    pub fn tick(&mut self, ctx: &mut Cx<'_, '_>) {
        if self.restarted {
            // An amnesiac's holes are its own, not the cluster's: revoking
            // them would storm phase 1 over the entire decided history
            // (and congest everyone else into stalling). Copy the decided
            // log from a peer instead — `exec_cursor` is exactly the first
            // slot this replica is missing.
            if self
                .highest_learned()
                .is_some_and(|h| h >= self.exec_cursor)
            {
                let peers: Vec<NodeId> = self
                    .core
                    .group
                    .iter()
                    .copied()
                    .filter(|&p| p != self.me())
                    .collect();
                let peer = peers[ctx.rng().gen_below(peers.len() as u64) as usize];
                ctx.send(
                    peer,
                    PaxosMsg::LearnReq {
                        from_slot: self.exec_cursor,
                    },
                );
            }
            self.execute_ready(ctx);
            let delay = SimDuration::from_millis(400 + ctx.rng().gen_below(200));
            ctx.set_timer(delay, MENCIUS_TICK);
            return;
        }
        if self.exec_cursor != self.exec_cursor_at_tick {
            self.exec_cursor_at_tick = self.exec_cursor;
            self.stall_ticks = 0;
        } else if let Some(h) = self.highest_learned() {
            if h >= self.exec_cursor {
                self.stall_ticks += 1;
                if self.stall_ticks >= REVOKE_AFTER_TICKS {
                    self.stall_ticks = 0;
                    self.revoke_epoch += 1;
                    let replicas = self.core.group.len() as u64;
                    let missing: Vec<u64> = (self.exec_cursor..h)
                        .filter(|s| !self.core.learned.contains_key(s))
                        .collect();
                    let filler = noop(self.me());
                    for slot in missing {
                        let revoker = (slot % replicas + self.revoke_epoch) % replicas;
                        if revoker == self.core.index {
                            self.revocations += 1;
                            self.core.propose_in_slot(ctx, slot, filler);
                        }
                    }
                }
            }
        }
        self.execute_ready(ctx);
        let delay = SimDuration::from_millis(400 + ctx.rng().gen_below(200));
        ctx.set_timer(delay, MENCIUS_TICK);
    }

    /// Dispatches one message through the core, then drains newly
    /// executable slots.
    pub fn handle(&mut self, ctx: &mut Cx<'_, '_>, from: NodeId, msg: PaxosMsg) {
        match msg {
            PaxosMsg::Submit { cmd } => self.on_submit(ctx, cmd),
            // A restarted incarnation has forgotten its promises and
            // accepted values; answering phase 1/2 again could seat a
            // second quorum under a slot it already helped decide. It
            // stays a learner and proposer only.
            PaxosMsg::Prepare { .. } | PaxosMsg::Accept { .. } if self.restarted => {}
            other => self.core.handle(ctx, from, other),
        }
        self.execute_ready(ctx);
    }
}

/// What a Mencius session currently has in flight.
enum MInFlight {
    Idle,
    /// The command word, submit time, and whether it is a put.
    Op {
        cmd: Command,
        at: SimTime,
    },
}

/// One closed-loop Mencius KV client session.
pub struct MenciusSession {
    me: NodeId,
    /// The replica group, in index order.
    pub group: Vec<NodeId>,
    /// Keys are drawn from `0..keys`.
    pub keys: u8,
    /// Operations to run before going quiet.
    pub target: u32,
    seq: u16,
    inflight: MInFlight,
    open_idx: usize,
    submitted_to: NodeId,
    /// Every operation this session invoked, in invoke order.
    pub history: Vec<Op>,
    /// Operations resubmitted after a timeout.
    pub resubmits: u64,
}

impl MenciusSession {
    /// Creates a session running `target` ops over `keys` keys.
    pub fn new(me: NodeId, group: Vec<NodeId>, keys: u8, target: u32) -> Self {
        MenciusSession {
            me,
            group,
            keys,
            target,
            seq: 0,
            inflight: MInFlight::Idle,
            open_idx: 0,
            submitted_to: NodeId(0),
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

    /// Schedules the opening timers.
    pub fn on_start(&mut self, ctx: &mut Cx<'_, '_>) {
        ctx.probe(self.group.iter().copied());
        let first = SimDuration::from_millis(200 + ctx.rng().gen_below(800));
        ctx.set_timer(first, MOP_TIMER);
        ctx.set_timer(SimDuration::from_secs(1), MSWEEP_TIMER);
    }

    /// The exposed submitter choice: which replica carries this command.
    fn pick_submitter(&mut self, ctx: &mut Cx<'_, '_>) -> NodeId {
        ctx.choose_peer("mencius.submitter", &self.group)
    }

    /// Invokes the next operation, if idle and under budget.
    pub fn next_op(&mut self, ctx: &mut Cx<'_, '_>) {
        if !matches!(self.inflight, MInFlight::Idle) || self.seq as u32 >= self.target {
            return;
        }
        self.seq += 1;
        let seq = self.seq;
        let key = ctx.rng().gen_below(self.keys as u64) as u8;
        let now = ctx.now();
        let cmd = if ctx.rng().gen_below(2) == 0 {
            self.open_idx = self.history.len();
            self.history.push(Op::pending_write(
                self.me.0 as u64,
                key as u64,
                put_value(self.me, seq),
                now.as_nanos(),
            ));
            encode(self.me, seq, KIND_PUT, key)
        } else {
            self.open_idx = self.history.len();
            self.history.push(Op::pending_read(
                self.me.0 as u64,
                key as u64,
                now.as_nanos(),
            ));
            encode(self.me, seq, KIND_GET, key)
        };
        self.inflight = MInFlight::Op { cmd, at: now };
        let to = self.pick_submitter(ctx);
        self.submitted_to = to;
        ctx.send(to, PaxosMsg::Submit { cmd });
    }

    /// Handles an execution result (the first replica to execute wins;
    /// later copies are ignored).
    pub fn on_result(&mut self, ctx: &mut Cx<'_, '_>, cmd: Command, value: u64) {
        let MInFlight::Op { cmd: want, at } = self.inflight else {
            return;
        };
        if cmd != want {
            return;
        }
        let (_, kind, _) = decode(cmd);
        let op = &mut self.history[self.open_idx];
        if kind == KIND_GET {
            op.kind = OpKind::Read(value);
        }
        op.respond_ns = Some(ctx.now().as_nanos());
        let lat = ctx.now().saturating_since(at).as_secs_f64();
        ctx.feedback(
            "mencius.submitter",
            ContextKey::default(),
            self.submitted_to.0 as u64,
            0.2 / (0.2 + lat),
        );
        self.inflight = MInFlight::Idle;
        ctx.set_timer(THINK, MOP_TIMER);
    }

    /// Resubmits the in-flight command (same word — duplicates are deduped
    /// at execution) through a fresh submitter choice.
    pub fn sweep(&mut self, ctx: &mut Cx<'_, '_>) {
        let now = ctx.now();
        let resend = match &mut self.inflight {
            MInFlight::Op { cmd, at } if now.saturating_since(*at) > RESUBMIT_AFTER => {
                *at = now;
                Some(*cmd)
            }
            _ => None,
        };
        if let Some(cmd) = resend {
            self.resubmits += 1;
            let to = self.pick_submitter(ctx);
            self.submitted_to = to;
            ctx.send(to, PaxosMsg::Submit { cmd });
        }
        ctx.set_timer(SimDuration::from_secs(1), MSWEEP_TIMER);
    }

    /// True once every targeted op has been invoked and acked.
    pub fn done(&self) -> bool {
        self.seq as u32 >= self.target && matches!(self.inflight, MInFlight::Idle)
    }
}

/// One outstanding aggregate bulk command.
struct BulkInFlight {
    /// User requests this command stands for.
    count: u64,
    /// Send attempts so far (the first submission is attempt 1).
    attempt: u32,
    /// Last submission time.
    at: SimTime,
    /// The originating region (drives the submitter rotation).
    region: u64,
}

/// The open-loop workload generator for the Mencius deployment: the same
/// [`ArrivalEngine`] population model as the kv generator, but driven
/// through the scenario's *existing entry point* — each loaded region's
/// window total rides one `KIND_BULK` consensus command, acked at
/// execution time and resubmitted with backoff within the profile's retry
/// budget. Consensus work therefore scales with windows x regions, never
/// with users.
pub struct MenciusLoadGen {
    me: NodeId,
    /// The replica group the bulk commands are submitted through.
    pub group: Vec<NodeId>,
    engine: ArrivalEngine,
    windows: u64,
    emitted: u64,
    seq: u16,
    /// seq -> in-flight bulk ledger (the counts never travel).
    outstanding: BTreeMap<u16, BulkInFlight>,
    /// Total user requests offered (report color).
    pub offered: u64,
    /// Total per-request send attempts, retries included.
    pub attempts: u64,
    /// Requests whose bulk command committed and executed.
    pub served: u64,
    /// Requests that exhausted their retry budget.
    pub failed: u64,
}

impl MenciusLoadGen {
    /// A generator emitting `windows` windows of `profile` traffic through
    /// the replica `group`.
    pub fn new(
        me: NodeId,
        group: Vec<NodeId>,
        profile: WorkloadProfile,
        seed: u64,
        windows: u64,
    ) -> Self {
        MenciusLoadGen {
            me,
            group,
            engine: ArrivalEngine::new(profile, seed),
            windows,
            emitted: 0,
            seq: 0,
            outstanding: BTreeMap::new(),
            offered: 0,
            attempts: 0,
            served: 0,
            failed: 0,
        }
    }

    /// Startup: window 0 immediately, then the window clock plus a 1 s
    /// resubmission sweep.
    pub fn on_start(&mut self, ctx: &mut Cx<'_, '_>) {
        self.emit_window(ctx);
        if self.emitted < self.windows {
            let w = self.engine.profile().window;
            ctx.set_timer(w, MGEN_WINDOW);
        }
        ctx.set_timer(SimDuration::from_secs(1), MGEN_SWEEP);
    }

    /// The window timer: one engine step, one bulk command per loaded
    /// region.
    pub fn on_window(&mut self, ctx: &mut Cx<'_, '_>) {
        self.emit_window(ctx);
        if self.emitted < self.windows {
            let w = self.engine.profile().window;
            ctx.set_timer(w, MGEN_WINDOW);
        }
    }

    fn emit_window(&mut self, ctx: &mut Cx<'_, '_>) {
        if self.emitted >= self.windows {
            return;
        }
        let w = self.engine.window(self.emitted);
        self.emitted += 1;
        self.offered += w.total;
        ctx.count(keys::WORKLOAD_OFFERED, w.total);
        let now = ctx.now();
        for (region, &count) in w.per_region.clone().iter().enumerate() {
            if count == 0 {
                continue;
            }
            self.seq += 1;
            let seq = self.seq;
            self.outstanding.insert(
                seq,
                BulkInFlight {
                    count,
                    attempt: 1,
                    at: now,
                    region: region as u64,
                },
            );
            self.submit(ctx, seq, region as u64, 1, count);
        }
    }

    fn submit(&mut self, ctx: &mut Cx<'_, '_>, seq: u16, region: u64, attempt: u32, count: u64) {
        // Rotate region -> submitter per seq so the Zipf-heavy region does
        // not pin one replica; retries rotate further by attempt.
        let idx = (region + seq as u64 + attempt as u64 - 1) % self.group.len() as u64;
        let to = self.group[idx as usize];
        self.attempts += count;
        ctx.count(keys::WORKLOAD_ATTEMPTS, count);
        let cmd = encode(self.me, seq, KIND_BULK, region as u8);
        ctx.send(to, PaxosMsg::Submit { cmd });
    }

    /// An execution-time ack: credit the whole batch as served. Later
    /// copies of a resubmitted bulk find no ledger entry and fall through.
    pub fn on_result(&mut self, ctx: &mut Cx<'_, '_>, cmd: Command) {
        let (seq, kind, _) = decode(cmd);
        if kind != KIND_BULK || cmd.client() != self.me {
            return;
        }
        if let Some(b) = self.outstanding.remove(&seq) {
            self.served += b.count;
            ctx.count(keys::WORKLOAD_SERVED, b.count);
        }
    }

    /// The resubmission sweep: any bulk unacked past its backoff goes out
    /// again, within the profile's retry budget.
    pub fn on_sweep(&mut self, ctx: &mut Cx<'_, '_>) {
        let now = ctx.now();
        let p = self.engine.profile();
        let budget = p.retry_budget;
        let mut resend: Vec<(u16, u64, u32, u64)> = Vec::new();
        let mut exhausted: Vec<u16> = Vec::new();
        for (&seq, b) in &self.outstanding {
            // Exponential backoff on the consensus resubmission timeout.
            let wait = RESUBMIT_AFTER.mul_f64((1u64 << (b.attempt - 1).min(4)) as f64);
            if now.saturating_since(b.at) <= wait {
                continue;
            }
            match budget {
                Some(max) if b.attempt >= max => exhausted.push(seq),
                _ => resend.push((seq, b.region, b.attempt + 1, b.count)),
            }
        }
        for seq in exhausted {
            if let Some(b) = self.outstanding.remove(&seq) {
                self.failed += b.count;
                ctx.count(keys::WORKLOAD_FAILED, b.count);
            }
        }
        for (seq, region, attempt, count) in resend {
            ctx.count(keys::WORKLOAD_RETRIES, count);
            if let Some(b) = self.outstanding.get_mut(&seq) {
                b.attempt = attempt;
                b.at = now;
            }
            self.submit(ctx, seq, region, attempt, count);
        }
        ctx.set_timer(SimDuration::from_secs(1), MGEN_SWEEP);
    }
}

/// A node of the Mencius KV deployment.
pub enum MenciusNode {
    /// A replica (consensus core + executed state machine).
    Replica(MenciusReplica),
    /// A client session.
    Client(MenciusSession),
    /// The aggregate open-loop workload generator.
    Load(MenciusLoadGen),
    /// A host that takes no part (topology filler).
    Idle,
}

impl MenciusNode {
    /// The replica inside, if this is one.
    pub fn as_replica(&self) -> Option<&MenciusReplica> {
        match self {
            MenciusNode::Replica(r) => Some(r),
            _ => None,
        }
    }

    /// The session inside, if this is one.
    pub fn as_session(&self) -> Option<&MenciusSession> {
        match self {
            MenciusNode::Client(s) => Some(s),
            _ => None,
        }
    }

    /// The workload generator inside, if this is one.
    pub fn as_loadgen(&self) -> Option<&MenciusLoadGen> {
        match self {
            MenciusNode::Load(g) => Some(g),
            _ => None,
        }
    }
}

impl Service for MenciusNode {
    type Msg = PaxosMsg;
    type Checkpoint = ReplicaCheckpoint;

    fn on_start(&mut self, ctx: &mut Cx<'_, '_>) {
        match self {
            MenciusNode::Replica(r) => {
                // An incarnation starting mid-run is a restart: the
                // owned-slot fast path is no longer safe for it.
                if ctx.now() > SimTime::ZERO {
                    r.restarted = true;
                    // Floor this incarnation's explicit ballots above any
                    // round the forgotten one can have reached (ballot
                    // duels bump rounds one at a time; wall-clock millis
                    // dwarf that).
                    r.core.set_ballot_round_floor(ctx.now().as_millis() + 1);
                }
                let first = SimDuration::from_millis(50 + ctx.rng().gen_below(200));
                ctx.set_timer(first, MENCIUS_TICK);
            }
            MenciusNode::Client(s) => s.on_start(ctx),
            MenciusNode::Load(g) => g.on_start(ctx),
            MenciusNode::Idle => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Cx<'_, '_>, tag: u64) {
        match self {
            MenciusNode::Replica(r) => {
                if tag == MENCIUS_TICK {
                    r.tick(ctx);
                }
            }
            MenciusNode::Client(s) => match tag {
                MOP_TIMER => s.next_op(ctx),
                MSWEEP_TIMER if !s.done() => s.sweep(ctx),
                _ => {}
            },
            MenciusNode::Load(g) => match tag {
                MGEN_WINDOW => g.on_window(ctx),
                MGEN_SWEEP => g.on_sweep(ctx),
                _ => {}
            },
            MenciusNode::Idle => {}
        }
    }

    fn on_message(&mut self, ctx: &mut Cx<'_, '_>, from: NodeId, msg: PaxosMsg) {
        match self {
            MenciusNode::Replica(r) => r.handle(ctx, from, msg),
            MenciusNode::Client(s) => {
                if let PaxosMsg::Result { cmd, value } = msg {
                    s.on_result(ctx, cmd, value);
                }
            }
            MenciusNode::Load(g) => {
                if let PaxosMsg::Result { cmd, .. } = msg {
                    g.on_result(ctx, cmd);
                }
            }
            MenciusNode::Idle => {}
        }
    }

    fn checkpoint(
        &self,
        _model: &cb_core::model::state::StateModel<ReplicaCheckpoint>,
    ) -> ReplicaCheckpoint {
        match self {
            MenciusNode::Replica(r) => ReplicaCheckpoint {
                learned: r.core.learned.len() as u64,
                log_high: r.core.learned.keys().next_back().map_or(0, |&s| s + 1),
            },
            _ => ReplicaCheckpoint {
                learned: 0,
                log_high: 0,
            },
        }
    }

    fn neighbors(&self) -> Vec<NodeId> {
        match self {
            MenciusNode::Replica(r) => r.core.group_peers(),
            _ => Vec::new(),
        }
    }
}

/// The campaign-facing Mencius KV scenario.
pub struct MenciusCampaign {
    /// Number of replicas (ids `0..replicas`).
    pub replicas: usize,
    /// Number of client sessions (ids `replicas..replicas+clients`).
    pub clients: usize,
    /// Operations per session.
    pub ops_per_client: u32,
    /// Distinct keys the workload touches.
    pub keys: u8,
    /// Run horizon.
    pub horizon: SimTime,
    /// Layer stalls, delay spikes, and heavier loss onto the default plan.
    pub storm: bool,
    /// Drive the deployment with an open-loop aggregate workload through
    /// the consensus entry point: one extra generator node submitting
    /// `KIND_BULK` commands, judged by the goodput-floor oracle. Driven by
    /// `campaign --workload <profile>`.
    pub workload: Option<WorkloadProfile>,
}

impl Default for MenciusCampaign {
    fn default() -> Self {
        MenciusCampaign {
            replicas: 5,
            clients: 4,
            ops_per_client: 10,
            keys: 4,
            horizon: SimTime::from_secs(180),
            storm: false,
            workload: None,
        }
    }
}

impl Scenario for MenciusCampaign {
    fn name(&self) -> &'static str {
        "mencius"
    }

    fn node_count(&self) -> usize {
        // The workload generator, when present, is the last node.
        self.replicas + self.clients + usize::from(self.workload.is_some())
    }

    fn default_plan(&self, seed: u64) -> FaultPlan {
        FaultPlan::replica_group(self.replicas, self.node_count(), seed, self.storm)
    }

    fn run(&self, seed: u64, plan: &FaultPlan) -> RunReport {
        let topo = Topology::star(self.node_count(), SimDuration::from_millis(20), 20_000_000);
        let group: Vec<NodeId> = (0..self.replicas as u32).map(NodeId).collect();
        let replicas = self.replicas;
        let clients = self.clients;
        let per_client = self.ops_per_client;
        let keys = self.keys;
        let group_clone = group.clone();
        let workload = self.workload.clone();
        let windows = workload.as_ref().map_or(0, |p| p.windows(self.horizon));
        let mut sim: Sim<RuntimeNode<MenciusNode>> = Sim::new(topo, seed, move |id| {
            let svc = if (id.0 as usize) < replicas {
                MenciusNode::Replica(MenciusReplica::new(id, id.0 as u64, group_clone.clone()))
            } else if (id.0 as usize) < replicas + clients {
                MenciusNode::Client(MenciusSession::new(
                    id,
                    group_clone.clone(),
                    keys,
                    per_client,
                ))
            } else if let Some(p) = workload
                .clone()
                .filter(|_| id.0 as usize == replicas + clients)
            {
                MenciusNode::Load(MenciusLoadGen::new(
                    id,
                    group_clone.clone(),
                    p,
                    seed,
                    windows,
                ))
            } else {
                MenciusNode::Idle
            };
            RuntimeNode::new(
                svc,
                RuntimeConfig::new(Box::new(RandomResolver::new(seed ^ ((id.0 as u64) << 24))))
                    .controller_every(SimDuration::from_secs(5)),
            )
        });
        sim.start_all();
        plan.drive(&mut sim, seed ^ 0x5eed, self.horizon);

        // Linearizability: the WGL checker over all sessions' histories.
        let mut history: Vec<Op> = Vec::new();
        let mut completed = 0usize;
        for i in replicas as u32..(replicas + clients) as u32 {
            if let Some(s) = sim.actor(NodeId(i)).service().as_session() {
                history.extend(s.history.iter().cloned());
                completed += s.completed();
            }
        }
        let target = clients * per_client as usize;
        let fleet = fleet_telemetry(&sim);
        let mut verdicts = vec![
            agreement(
                "mencius.agreement",
                group
                    .iter()
                    .filter_map(|&r| sim.actor(r).service().as_replica())
                    .map(|m| &m.core),
            ),
            linearizability_verdict("mencius.linearizable", &history),
            OracleVerdict::check(
                "mencius.progress",
                completed >= target,
                format!("{completed}/{target} ops completed"),
            ),
        ];
        if let Some(p) = &self.workload {
            verdicts.push(overload::goodput_floor(&fleet, p.goodput_floor));
        }
        RunReport::from_sim(self.name(), seed, plan, &mut sim, verdicts, fleet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_packing_round_trips() {
        let cmd = encode(NodeId(7), 513, KIND_GET, 3);
        assert_eq!(cmd.client(), NodeId(7));
        assert_eq!(decode(cmd), (513, KIND_GET, 3));
        assert_ne!(put_value(NodeId(7), 1), INIT_VALUE);
    }

    #[test]
    fn fault_free_run_passes() {
        let s = MenciusCampaign::default();
        let r = s.run(1, &FaultPlan::none());
        assert!(!r.violated(), "{:?}", r.verdicts);
    }

    #[test]
    fn default_plan_recovers() {
        let s = MenciusCampaign::default();
        let plan = s.default_plan(3);
        let r = s.run(3, &plan);
        assert!(!r.violated(), "{:?}", r.verdicts);
    }

    #[test]
    fn storm_keeps_agreement_and_linearizability() {
        let s = MenciusCampaign {
            storm: true,
            ..MenciusCampaign::default()
        };
        let plan = s.default_plan(5);
        let r = s.run(5, &plan);
        let failing = r.failing_oracles();
        assert!(!failing.contains(&"mencius.agreement"), "{:?}", r.verdicts);
        assert!(
            !failing.contains(&"mencius.linearizable"),
            "{:?}",
            r.verdicts
        );
    }

    #[test]
    fn workload_arm_commits_aggregate_bulks_above_the_goodput_floor() {
        let s = MenciusCampaign {
            workload: WorkloadProfile::by_name("steady"),
            ..MenciusCampaign::default()
        };
        let r = s.run(9, &FaultPlan::none());
        assert!(!r.violated(), "{:?}", r.verdicts);
        let offered = r.telemetry.counter(keys::WORKLOAD_OFFERED);
        let served = r.telemetry.counter(keys::WORKLOAD_SERVED);
        assert!(offered > 10_000, "offered only {offered}");
        assert!(
            served as f64 >= 0.5 * offered as f64,
            "served {served} of {offered}"
        );
        // Aggregate flows: consensus work scales with windows, not users
        // (per-request consensus would cost several events per op; the
        // bulk path stays well under one).
        assert!(
            r.events_processed < offered / 4,
            "{} events for {offered} offered ops",
            r.events_processed
        );
    }

    #[test]
    fn majority_loss_stalls_progress_but_keeps_safety() {
        let s = MenciusCampaign::default();
        let others: Vec<u32> = (0..9u32).filter(|&i| i > 2).collect();
        let plan = FaultPlan::none().partition(&[0, 1, 2], &others, 5_000, None);
        let r = s.run(7, &plan);
        assert!(r.violated(), "{:?}", r.verdicts);
        let failing = r.failing_oracles();
        assert!(failing.contains(&"mencius.progress"), "{failing:?}");
        assert!(!failing.contains(&"mencius.agreement"), "{failing:?}");
        assert!(!failing.contains(&"mencius.linearizable"), "{failing:?}");
    }
}
