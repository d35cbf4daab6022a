//! The KV replica: leader, follower, or recovering amnesiac.
//!
//! A term-based primary/backup protocol shaped like Viewstamped
//! Replication:
//!
//! * **Writes** go to the leader, which assigns a `(term, seq)` version,
//!   applies locally, and replicates to a **fan-out** of followers chosen
//!   through the exposed `kv.fanout` choice (a 1 s repair sweep re-sends
//!   unacked entries to everyone, so the choice trades commit latency
//!   against message load, never safety). A write commits — and the client
//!   is acked — once a majority holds it.
//! * **Reads** are fenced by a **guard** round: the leader asks a majority
//!   to confirm its term is still the newest they know, then answers from
//!   the committed map. A guard majority intersects any newer election
//!   majority, so a deposed leader can never serve a stale read. The
//!   `unsafe_reads` arm skips the guard and answers from the local store of
//!   whichever replica the client picked — the deliberately-injected
//!   staleness the linearizability oracle and `trace blame` exist to catch.
//! * **Elections**: a follower that misses heartbeats nominates a leader
//!   through the exposed `kv.leader` choice and broadcasts a vote request
//!   for the next term. Each replica votes at most once per term (term
//!   monotonicity is the guard) and its grant carries a full store
//!   snapshot; the winner merges a majority's snapshots per-key by max
//!   version — every committed write lives in every majority, so the merge
//!   cannot lose one. The new leader **re-replicates** the merged store
//!   under its own term and serves no client traffic until that round
//!   commits, closing the window where merged-but-uncommitted state could
//!   be served and then lost.
//! * **Restarts** are amnesia: the simulator rebuilds the actor from
//!   scratch. A replica that starts with the clock already running knows it
//!   is an amnesiac and enters the *recovering* role: it never votes and
//!   never acks writes (its empty store must not count toward quorum
//!   intersection) until the current leader answers its `SyncReq` with a
//!   full state transfer.

use crate::proto::{Entry, KvMsg, SeqSnapshot, StoreSnapshot, Version};
use cb_core::choice::{ContextKey, OptionDesc};
use cb_core::runtime::ServiceCtx;
use cb_harness::linearizability::INIT_VALUE;
use cb_simnet::time::{SimDuration, SimTime};
use cb_simnet::topology::NodeId;
use cb_telemetry::keys;
use cb_workload::WorkloadProfile;
use std::collections::{BTreeMap, VecDeque};

/// The replica's periodic timer tag (heartbeat / election check / repair).
pub const REPLICA_TICK: u64 = 1;
/// The aggregate work-queue drain timer (workload arms only).
pub const WORK_TICK: u64 = 2;

const TICK_BASE_MS: u64 = 400;
const TICK_JITTER_MS: u64 = 250;
/// A follower that misses heartbeats for this long starts an election.
const ELECTION_AFTER: SimDuration = SimDuration::from_millis(2_500);
/// Pending writes unacked for this long are re-replicated to everyone.
const REPAIR_AFTER: SimDuration = SimDuration::from_millis(1_000);
/// Guarded reads a deposed leader can never finish are dropped after this.
const GUARD_TTL: SimDuration = SimDuration::from_secs(5);

/// What a replica currently is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Normal backup: applies replicated writes, votes, acks guards.
    Follower,
    /// The primary of `term`: accepts writes, fences reads.
    Leader,
    /// Freshly restarted amnesiac: no votes, no write acks, until synced.
    Recovering,
}

/// Front-end overload knobs, lifted from a [`WorkloadProfile`]: how fast
/// the replica drains aggregate work, when queued work is too old to be
/// worth serving, and whether admission control guards the queue at all.
#[derive(Clone, Debug)]
pub struct OverloadConfig {
    /// Profile name, stamped as the `workload` attr on admission decisions.
    pub workload: &'static str,
    /// Admission control + load shedding on (off = the metastable arm).
    pub admission: bool,
    /// Requests served per drain interval.
    pub service_rate: u64,
    /// Drain interval.
    pub drain_every: SimDuration,
    /// Queue wait beyond which a request is served too late to count.
    pub deadline: SimDuration,
    /// Admission limit: max backlog in drain-interval units.
    pub admit_limit: u64,
}

impl OverloadConfig {
    /// The overload knobs of `profile`.
    pub fn from_profile(profile: &WorkloadProfile) -> Self {
        OverloadConfig {
            workload: profile.name,
            admission: profile.admission,
            service_rate: profile.service_rate.max(1),
            drain_every: profile.drain_every,
            deadline: profile.deadline,
            admit_limit: profile.admit_limit,
        }
    }
}

/// An admitted aggregate bucket waiting in the front-end queue.
struct WorkBucket {
    enqueued: SimTime,
    origin: NodeId,
    bucket: u64,
    attempt: u32,
    /// Requests still unserved in this bucket.
    remaining: u64,
    /// Served-in-time so far (partial drains across ticks).
    served: u64,
    /// Served-too-late so far.
    expired: u64,
}

/// The aggregate front-end work queue (workload arms only).
struct WorkQueue {
    cfg: OverloadConfig,
    queue: VecDeque<WorkBucket>,
    /// Total requests queued (sum of `remaining`).
    depth: u64,
}

/// A write the leader has accepted but not yet committed.
struct PendingWrite {
    key: u64,
    value: u64,
    client: NodeId,
    client_seq: u32,
    /// Replicas known to hold the write (includes the leader).
    acks: Vec<NodeId>,
    /// Clients to notify on commit (empty for takeover re-replication).
    ackers: Vec<NodeId>,
    /// Last (re)send time, driving the repair sweep.
    since: SimTime,
    /// When the write was first accepted (fan-out reward clock).
    accepted_at: SimTime,
    /// Part of the post-election re-replication round.
    takeover: bool,
    /// The fan-out degree the `kv.fanout` choice picked (feedback key).
    fanout: usize,
}

/// An in-flight guarded read.
struct GuardRead {
    client: NodeId,
    key: u64,
    read_id: u32,
    acks: Vec<NodeId>,
    since: SimTime,
}

/// Service checkpoint: enough for peers' state models to see progress.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct KvCheckpoint {
    /// Current term.
    pub term: u64,
    /// 0 follower, 1 leader, 2 recovering.
    pub role: u8,
    /// Keys held.
    pub keys: u64,
}

type Cx<'a, 'b> = ServiceCtx<'a, 'b, KvMsg, KvCheckpoint>;

/// One replica of the KV group.
pub struct Replica {
    me: NodeId,
    /// The replica group, in index order.
    pub group: Vec<NodeId>,
    /// Answer reads locally without a guard round (the injected-bug arm).
    pub unsafe_reads: bool,
    /// Current term (monotone; doubles as the single-vote-per-term guard).
    pub term: u64,
    /// Current role.
    pub role: Role,
    leader: Option<NodeId>,
    last_heartbeat: SimTime,
    store: BTreeMap<u64, Entry>,
    /// client id -> highest write sequence applied (exactly-once dedup).
    last_seq: BTreeMap<u32, u32>,
    /// Leader-only: per-key last *committed* (version, value) — what
    /// guarded reads serve.
    committed: BTreeMap<u64, (Version, u64)>,
    next_seq: u64,
    pending: BTreeMap<Version, PendingWrite>,
    /// Leader-only: the takeover re-replication round has committed and
    /// client traffic may be served.
    ready: bool,
    guards: BTreeMap<u64, GuardRead>,
    next_guard: u64,
    /// Candidate tally: term -> voter -> snapshot.
    grants: BTreeMap<u64, BTreeMap<NodeId, (StoreSnapshot, SeqSnapshot)>>,
    fanout_cursor: usize,
    /// This incarnation started with the clock already running. Unlike
    /// [`Role::Recovering`] (which a sync clears), this never clears: the
    /// incarnation has forgotten any vote or guard ack its predecessor
    /// gave, so granting either again could seat a second quorum in a
    /// term the predecessor already helped decide.
    was_restarted: bool,
    /// Elections this replica started (report color).
    pub elections_started: u64,
    /// Terms this replica won (report color).
    pub terms_led: u64,
    /// Aggregate front-end work queue; present only in workload arms.
    work: Option<WorkQueue>,
}

impl Replica {
    /// Creates a replica of `group`.
    pub fn new(me: NodeId, group: Vec<NodeId>, unsafe_reads: bool) -> Self {
        Replica {
            me,
            group,
            unsafe_reads,
            term: 0,
            role: Role::Follower,
            leader: None,
            last_heartbeat: SimTime::ZERO,
            store: BTreeMap::new(),
            last_seq: BTreeMap::new(),
            committed: BTreeMap::new(),
            next_seq: 0,
            pending: BTreeMap::new(),
            ready: false,
            guards: BTreeMap::new(),
            next_guard: 0,
            grants: BTreeMap::new(),
            fanout_cursor: 0,
            was_restarted: false,
            elections_started: 0,
            terms_led: 0,
            work: None,
        }
    }

    /// Enables the aggregate front-end work queue (open-loop workload
    /// arms): [`KvMsg::Batch`] buckets pass the `kv.admission` choice,
    /// queue, and drain at `cfg.service_rate` per [`WORK_TICK`].
    pub fn with_overload(mut self, cfg: OverloadConfig) -> Self {
        self.work = Some(WorkQueue {
            cfg,
            queue: VecDeque::new(),
            depth: 0,
        });
        self
    }

    /// Current front-end backlog in requests (0 without a workload arm).
    pub fn backlog(&self) -> u64 {
        self.work.as_ref().map_or(0, |w| w.depth)
    }

    fn quorum(&self) -> usize {
        self.group.len() / 2 + 1
    }

    /// The other group members, in group order.
    fn others(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.group.iter().copied().filter(move |&n| n != self.me)
    }

    fn peers(&self) -> Vec<NodeId> {
        self.others().collect()
    }

    /// The other group members (checkpoint recipients).
    pub fn group_peers(&self) -> Vec<NodeId> {
        self.peers()
    }

    fn store_snapshot(&self) -> StoreSnapshot {
        self.store.iter().map(|(k, e)| (*k, e.clone())).collect()
    }

    fn seq_snapshot(&self) -> SeqSnapshot {
        self.last_seq.iter().map(|(c, s)| (*c, *s)).collect()
    }

    fn merge_entry(&mut self, key: u64, e: Entry) {
        let newer = self.store.get(&key).is_none_or(|cur| e.ver > cur.ver);
        if newer {
            self.store.insert(key, e);
        }
    }

    fn merge_seq(&mut self, client: u32, seq: u32) {
        let c = self.last_seq.entry(client).or_insert(0);
        *c = (*c).max(seq);
    }

    /// Startup (and restart): a replica whose clock is already running is
    /// an amnesiac and must recover before participating in quorums.
    pub fn on_start(&mut self, ctx: &mut Cx<'_, '_>) {
        if ctx.now() > SimTime::ZERO {
            self.role = Role::Recovering;
            self.was_restarted = true;
        }
        let first = SimDuration::from_millis(50 + ctx.rng().gen_below(TICK_JITTER_MS));
        ctx.set_timer(first, REPLICA_TICK);
        if let Some(w) = &self.work {
            ctx.set_timer(w.cfg.drain_every, WORK_TICK);
        }
    }

    /// Admission: the front door of the aggregate work queue. Below the
    /// limit the whole bucket is admitted outright; above it, the exposed
    /// `kv.admission` choice picks between two *safe* dispositions —
    /// trim-to-limit or shed-the-bucket — so any resolver arm (random,
    /// ladder, policy-warmed) keeps the queue bounded. With admission off,
    /// everything is admitted and only the deadline protects capacity
    /// (it does not: that arm is the metastable one).
    pub fn on_batch(
        &mut self,
        ctx: &mut Cx<'_, '_>,
        origin: NodeId,
        bucket: u64,
        attempt: u32,
        count: u64,
    ) {
        let now = ctx.now();
        let Some(w) = &mut self.work else {
            // Not a workload arm: shed everything, deterministically.
            ctx.send(
                origin,
                KvMsg::BatchAck {
                    bucket,
                    attempt,
                    admitted: 0,
                    shed: count,
                },
            );
            return;
        };
        let cfg = w.cfg.clone();
        let limit = cfg.admit_limit * cfg.service_rate;
        let backlog_units = w.depth / cfg.service_rate;
        let admitted = if !cfg.admission || w.depth + count <= limit {
            count
        } else {
            // Overload: both options keep the queue bounded; the choice is
            // how much of this bucket survives. Features feed heuristic /
            // learned rungs: current backlog (in drain units) and the
            // incoming bucket, in the same units.
            let headroom = limit.saturating_sub(w.depth);
            let opts = [
                OptionDesc::with_features(
                    0,
                    vec![backlog_units as f64, (count / cfg.service_rate) as f64],
                ),
                OptionDesc::with_features(
                    1,
                    vec![backlog_units as f64, (count / cfg.service_rate) as f64],
                ),
            ];
            ctx.decision_attr("workload", cfg.workload);
            let chosen = ctx.choose("kv.admission", ContextKey(backlog_units), &opts);
            if chosen == 0 {
                headroom
            } else {
                0
            }
        };
        let shed = count - admitted;
        ctx.count(keys::WORKLOAD_ADMITTED, admitted);
        ctx.count(keys::WORKLOAD_SHED, shed);
        let w = self.work.as_mut().expect("work queue present");
        if admitted > 0 {
            w.depth += admitted;
            w.queue.push_back(WorkBucket {
                enqueued: now,
                origin,
                bucket,
                attempt,
                remaining: admitted,
                served: 0,
                expired: 0,
            });
        }
        ctx.send(
            origin,
            KvMsg::BatchAck {
                bucket,
                attempt,
                admitted,
                shed,
            },
        );
        ctx.report_load(w.depth / w.cfg.service_rate);
    }

    /// One drain interval: serve up to `service_rate` queued requests in
    /// FIFO order. Work that waited past the deadline is "served" into the
    /// void — the capacity is spent, but its users already gave up — and
    /// reported as expired so the generator can model their retries. Also
    /// refreshes the runtime's load signal, which is what steps the
    /// governor down under sustained overload.
    pub fn drain_work(&mut self, ctx: &mut Cx<'_, '_>) {
        let Some(w) = &mut self.work else { return };
        let now = ctx.now();
        let mut budget = w.cfg.service_rate;
        let mut done: Vec<(NodeId, u64, u32, u64, u64)> = Vec::new();
        while budget > 0 {
            let Some(front) = w.queue.front_mut() else {
                break;
            };
            let late = now.saturating_since(front.enqueued) > w.cfg.deadline;
            let take = budget.min(front.remaining);
            front.remaining -= take;
            if late {
                front.expired += take;
            } else {
                front.served += take;
            }
            budget -= take;
            w.depth -= take;
            if front.remaining == 0 {
                let b = w.queue.pop_front().expect("front exists");
                done.push((b.origin, b.bucket, b.attempt, b.served, b.expired));
            }
        }
        let load = w.depth / w.cfg.service_rate;
        let interval = w.cfg.drain_every;
        for (origin, bucket, attempt, served, expired) in done {
            ctx.count(keys::WORKLOAD_SERVED, served);
            ctx.count(keys::WORKLOAD_EXPIRED, expired);
            ctx.send(
                origin,
                KvMsg::BatchDone {
                    bucket,
                    attempt,
                    served,
                    expired,
                },
            );
        }
        ctx.report_load(load);
        ctx.set_timer(interval, WORK_TICK);
    }

    /// The periodic tick: heartbeats + repair (leader), election check
    /// (follower), sync retry (recovering).
    pub fn tick(&mut self, ctx: &mut Cx<'_, '_>) {
        let now = ctx.now();
        match self.role {
            Role::Leader => {
                ctx.multicast(self.others(), KvMsg::Heartbeat { term: self.term });
                self.repair(ctx, now);
                self.guards
                    .retain(|_, g| now.saturating_since(g.since) < GUARD_TTL);
            }
            Role::Follower => {
                if now.saturating_since(self.last_heartbeat) > ELECTION_AFTER {
                    self.start_election(ctx);
                }
            }
            Role::Recovering => {
                ctx.multicast(self.others(), KvMsg::SyncReq);
            }
        }
        let delay = SimDuration::from_millis(TICK_BASE_MS + ctx.rng().gen_below(TICK_JITTER_MS));
        ctx.set_timer(delay, REPLICA_TICK);
    }

    fn repair(&mut self, ctx: &mut Cx<'_, '_>, now: SimTime) {
        let term = self.term;
        let mut resend = Vec::new();
        for (&ver, p) in self.pending.iter_mut() {
            if now.saturating_since(p.since) >= REPAIR_AFTER {
                p.since = now;
                resend.push((ver, p.key, p.value, p.client, p.client_seq));
            }
        }
        for (ver, key, value, client, client_seq) in resend {
            ctx.multicast(
                self.others(),
                KvMsg::Replicate {
                    term,
                    ver,
                    key,
                    value,
                    client,
                    client_seq,
                },
            );
        }
    }

    fn start_election(&mut self, ctx: &mut Cx<'_, '_>) {
        self.elections_started += 1;
        let term = self.term + 1;
        // The exposed leader-election choice: nominate any group member,
        // with the runtime-measured latency as a feature so learned
        // resolvers can prefer well-connected leaders.
        let candidate = ctx.choose_peer("kv.leader", &self.group);
        ctx.multicast(self.others(), KvMsg::VoteReq { term, candidate });
        self.on_vote_req(ctx, term, candidate);
    }

    fn step_down(&mut self) {
        self.role = Role::Follower;
        self.leader = None;
        self.pending.clear();
        self.guards.clear();
        self.committed.clear();
        self.ready = false;
    }

    /// Adopt a strictly newer term observed on any message.
    fn observe_newer_term(&mut self, term: u64) {
        if term > self.term {
            self.term = term;
            if self.role == Role::Leader {
                self.step_down();
            }
        }
    }

    fn on_vote_req(&mut self, ctx: &mut Cx<'_, '_>, term: u64, candidate: NodeId) {
        // One vote per term: granting sets `self.term = term`, so a second
        // request for the same term fails the strict comparison. Amnesiacs
        // never vote — their empty store must not count toward the
        // election quorum that guarantees committed writes survive.
        // A restarted incarnation stays banned even after it syncs: the
        // in-memory single-vote guard cannot cover a grant its forgotten
        // predecessor gave, and a double grant lets two candidates both
        // reach quorum in the same term.
        if self.was_restarted || self.role == Role::Recovering || term <= self.term {
            return;
        }
        self.observe_newer_term(term);
        self.leader = None;
        self.last_heartbeat = ctx.now(); // grace period for the winner
        let store = self.store_snapshot();
        let last_seq = self.seq_snapshot();
        if candidate == self.me {
            self.on_vote_grant(ctx, self.me, term, store, last_seq);
        } else {
            ctx.send(
                candidate,
                KvMsg::VoteGrant {
                    term,
                    store,
                    last_seq,
                },
            );
        }
    }

    fn on_vote_grant(
        &mut self,
        ctx: &mut Cx<'_, '_>,
        from: NodeId,
        term: u64,
        store: StoreSnapshot,
        last_seq: SeqSnapshot,
    ) {
        if term < self.term || self.role == Role::Recovering {
            return;
        }
        if self.role == Role::Leader && self.term == term {
            return;
        }
        let quorum = self.quorum();
        let tally = self.grants.entry(term).or_default();
        tally.insert(from, (store, last_seq));
        if tally.len() >= quorum {
            self.become_leader(ctx, term);
        }
    }

    fn become_leader(&mut self, ctx: &mut Cx<'_, '_>, term: u64) {
        self.term = term;
        self.role = Role::Leader;
        self.leader = Some(self.me);
        self.terms_led += 1;
        self.next_seq = 0;
        self.pending.clear();
        self.guards.clear();
        self.committed.clear();
        let tally = self.grants.remove(&term).unwrap_or_default();
        self.grants.retain(|&t, _| t > term);
        for (_, (store, seqs)) in tally {
            for (k, e) in store {
                self.merge_entry(k, e);
            }
            for (c, s) in seqs {
                self.merge_seq(c, s);
            }
        }
        // Re-replicate the merged store under this term before serving any
        // client: a merged entry might be uncommitted (held by one voter),
        // and serving it before a fresh majority holds it could surface a
        // value that a subsequent failover then loses.
        self.ready = self.store.is_empty();
        let now = ctx.now();
        let peers = self.peers();
        let entries: Vec<(u64, Entry)> = self.store.iter().map(|(k, e)| (*k, e.clone())).collect();
        for (key, e) in entries {
            self.pending.insert(
                e.ver,
                PendingWrite {
                    key,
                    value: e.value,
                    client: e.client,
                    client_seq: e.client_seq,
                    acks: vec![self.me],
                    ackers: Vec::new(),
                    since: now,
                    accepted_at: now,
                    takeover: true,
                    fanout: peers.len(),
                },
            );
            ctx.multicast(
                peers.iter().copied(),
                KvMsg::Replicate {
                    term,
                    ver: e.ver,
                    key,
                    value: e.value,
                    client: e.client,
                    client_seq: e.client_seq,
                },
            );
        }
        ctx.multicast(peers, KvMsg::Heartbeat { term });
    }

    fn on_heartbeat(&mut self, ctx: &mut Cx<'_, '_>, from: NodeId, term: u64) {
        if term < self.term {
            return;
        }
        self.observe_newer_term(term);
        if self.role == Role::Recovering {
            // Remember who leads so recovery has a target, but stay out of
            // quorums until synced.
            self.leader = Some(from);
            return;
        }
        self.role = Role::Follower;
        self.leader = Some(from);
        self.last_heartbeat = ctx.now();
    }

    #[allow(clippy::too_many_arguments)]
    fn on_replicate(
        &mut self,
        ctx: &mut Cx<'_, '_>,
        from: NodeId,
        term: u64,
        ver: Version,
        key: u64,
        value: u64,
        client: NodeId,
        client_seq: u32,
    ) {
        if term < self.term {
            return; // stale leader
        }
        self.observe_newer_term(term);
        if self.role == Role::Recovering {
            self.leader = Some(from);
            return; // no acks until synced
        }
        self.role = Role::Follower;
        self.leader = Some(from);
        self.last_heartbeat = ctx.now();
        self.merge_entry(
            key,
            Entry {
                ver,
                value,
                client,
                client_seq,
            },
        );
        self.merge_seq(client.0, client_seq);
        // Ack even when the entry was superseded locally: the ack means
        // "my state reflects this write or a newer one", which is exactly
        // what the commit quorum needs.
        ctx.send(from, KvMsg::ReplicateAck { term, ver });
    }

    fn on_replicate_ack(&mut self, ctx: &mut Cx<'_, '_>, from: NodeId, term: u64, ver: Version) {
        if self.role != Role::Leader || term != self.term {
            return;
        }
        let quorum = self.quorum();
        let Some(p) = self.pending.get_mut(&ver) else {
            return;
        };
        if !p.acks.contains(&from) {
            p.acks.push(from);
        }
        if p.acks.len() < quorum {
            return;
        }
        let p = self.pending.remove(&ver).expect("entry present");
        let newer = self.committed.get(&p.key).is_some_and(|(cv, _)| *cv > ver);
        if !newer {
            self.committed.insert(p.key, (ver, p.value));
        }
        self.merge_seq(p.client.0, p.client_seq);
        ctx.multicast(
            p.ackers.iter().copied(),
            KvMsg::PutAck {
                client_seq: p.client_seq,
            },
        );
        if p.takeover {
            if !self.pending.values().any(|q| q.takeover) {
                self.ready = true;
            }
        } else {
            let lat = ctx.now().saturating_since(p.accepted_at).as_secs_f64();
            ctx.feedback(
                "kv.fanout",
                ContextKey::default(),
                p.fanout as u64,
                0.2 / (0.2 + lat),
            );
        }
    }

    fn on_put(&mut self, ctx: &mut Cx<'_, '_>, client: NodeId, key: u64, value: u64, seq: u32) {
        match self.role {
            Role::Leader if self.ready => {
                // Exactly-once: a resubmit of an in-flight write just joins
                // its ack list; a resubmit of a committed one is acked on
                // the spot (the value is already durable — possibly long
                // since superseded, which is fine: it took effect).
                if let Some(p) = self
                    .pending
                    .values_mut()
                    .find(|p| p.client == client && p.client_seq == seq)
                {
                    if !p.ackers.contains(&client) {
                        p.ackers.push(client);
                    }
                    return;
                }
                if self.last_seq.get(&client.0).copied().unwrap_or(0) >= seq {
                    ctx.send(client, KvMsg::PutAck { client_seq: seq });
                    return;
                }
                self.next_seq += 1;
                let ver = Version {
                    term: self.term,
                    seq: self.next_seq,
                };
                self.store.insert(
                    key,
                    Entry {
                        ver,
                        value,
                        client,
                        client_seq: seq,
                    },
                );
                // The exposed replication fan-out choice: how many
                // followers to hit synchronously. The minimum still
                // reaches a majority (with the leader); the repair sweep
                // covers the rest, so this trades latency vs load only.
                let peers = self.peers();
                let min_d = self.quorum() - 1;
                let max_d = peers.len();
                let options: Vec<OptionDesc> = (min_d..=max_d)
                    .map(|d| OptionDesc::with_features(d as u64, vec![d as f64]))
                    .collect();
                let i = ctx.choose("kv.fanout", ContextKey::default(), &options);
                let fanout = min_d + i;
                let now = ctx.now();
                self.pending.insert(
                    ver,
                    PendingWrite {
                        key,
                        value,
                        client,
                        client_seq: seq,
                        acks: vec![self.me],
                        ackers: vec![client],
                        since: now,
                        accepted_at: now,
                        takeover: false,
                        fanout,
                    },
                );
                let term = self.term;
                let cursor = self.fanout_cursor;
                ctx.multicast(
                    (0..fanout).map(|j| peers[(cursor + j) % peers.len()]),
                    KvMsg::Replicate {
                        term,
                        ver,
                        key,
                        value,
                        client,
                        client_seq: seq,
                    },
                );
                self.fanout_cursor = (self.fanout_cursor + 1) % peers.len();
            }
            Role::Leader => {} // not ready yet; the client will resubmit
            Role::Follower => {
                if let Some(l) = self.leader {
                    ctx.send(
                        l,
                        KvMsg::Put {
                            client,
                            key,
                            value,
                            client_seq: seq,
                        },
                    );
                    ctx.send(client, KvMsg::Redirect { leader: l });
                }
            }
            Role::Recovering => {}
        }
    }

    fn on_get(&mut self, ctx: &mut Cx<'_, '_>, client: NodeId, key: u64, read_id: u32) {
        if self.unsafe_reads {
            // Injected-bug arm: whatever replica the client picked answers
            // from its local store, guard-free. Partitioned followers serve
            // stale values here — by design.
            let value = self.store.get(&key).map_or(INIT_VALUE, |e| e.value);
            ctx.send(client, KvMsg::GetAck { read_id, value });
            return;
        }
        match self.role {
            Role::Leader if self.ready => {
                self.next_guard += 1;
                let gid = self.next_guard;
                self.guards.insert(
                    gid,
                    GuardRead {
                        client,
                        key,
                        read_id,
                        acks: vec![self.me],
                        since: ctx.now(),
                    },
                );
                let term = self.term;
                ctx.multicast(
                    self.others(),
                    KvMsg::Guard {
                        term,
                        guard_id: gid,
                    },
                );
            }
            Role::Leader => {}
            Role::Follower => {
                if let Some(l) = self.leader {
                    ctx.send(
                        l,
                        KvMsg::Get {
                            client,
                            key,
                            read_id,
                        },
                    );
                }
            }
            Role::Recovering => {}
        }
    }

    fn on_guard(&mut self, ctx: &mut Cx<'_, '_>, from: NodeId, term: u64, guard_id: u64) {
        if term < self.term {
            return; // the guarding leader is deposed; let its read starve
        }
        self.observe_newer_term(term);
        if self.role == Role::Recovering {
            self.leader = Some(from);
        } else {
            self.role = Role::Follower;
            self.leader = Some(from);
            self.last_heartbeat = ctx.now();
        }
        // A guard certifies term currency, and a restarted incarnation's
        // term knowledge is NOT sound: its predecessor may have granted a
        // newer term it has forgotten, and its ack here could complete a
        // deposed leader's guard after the new term committed writes. It
        // never acks guards again; a 5-group leader still finds its
        // quorum among the intact replicas.
        if !self.was_restarted {
            ctx.send(from, KvMsg::GuardAck { term, guard_id });
        }
    }

    fn on_guard_ack(&mut self, ctx: &mut Cx<'_, '_>, from: NodeId, term: u64, guard_id: u64) {
        if self.role != Role::Leader || term != self.term {
            return;
        }
        let quorum = self.quorum();
        let Some(g) = self.guards.get_mut(&guard_id) else {
            return;
        };
        if !g.acks.contains(&from) {
            g.acks.push(from);
        }
        if g.acks.len() < quorum {
            return;
        }
        let g = self.guards.remove(&guard_id).expect("guard present");
        let value = self.committed.get(&g.key).map_or(INIT_VALUE, |(_, v)| *v);
        ctx.send(
            g.client,
            KvMsg::GetAck {
                read_id: g.read_id,
                value,
            },
        );
    }

    fn on_sync_req(&mut self, ctx: &mut Cx<'_, '_>, from: NodeId) {
        if self.role == Role::Leader && self.ready {
            ctx.send(
                from,
                KvMsg::Sync {
                    term: self.term,
                    store: self.store_snapshot(),
                    last_seq: self.seq_snapshot(),
                },
            );
        }
    }

    fn on_sync(
        &mut self,
        ctx: &mut Cx<'_, '_>,
        from: NodeId,
        term: u64,
        store: StoreSnapshot,
        last_seq: SeqSnapshot,
    ) {
        if term < self.term {
            return;
        }
        self.observe_newer_term(term);
        if self.role == Role::Leader {
            return;
        }
        for (k, e) in store {
            self.merge_entry(k, e);
        }
        for (c, s) in last_seq {
            self.merge_seq(c, s);
        }
        self.role = Role::Follower;
        self.leader = Some(from);
        self.last_heartbeat = ctx.now();
    }

    /// Dispatches one protocol message.
    pub fn handle(&mut self, ctx: &mut Cx<'_, '_>, from: NodeId, msg: KvMsg) {
        match msg {
            KvMsg::Put {
                client,
                key,
                value,
                client_seq,
            } => self.on_put(ctx, client, key, value, client_seq),
            KvMsg::Get {
                client,
                key,
                read_id,
            } => self.on_get(ctx, client, key, read_id),
            KvMsg::Heartbeat { term } => self.on_heartbeat(ctx, from, term),
            KvMsg::Replicate {
                term,
                ver,
                key,
                value,
                client,
                client_seq,
            } => self.on_replicate(ctx, from, term, ver, key, value, client, client_seq),
            KvMsg::ReplicateAck { term, ver } => self.on_replicate_ack(ctx, from, term, ver),
            KvMsg::Guard { term, guard_id } => self.on_guard(ctx, from, term, guard_id),
            KvMsg::GuardAck { term, guard_id } => self.on_guard_ack(ctx, from, term, guard_id),
            KvMsg::VoteReq { term, candidate } => self.on_vote_req(ctx, term, candidate),
            KvMsg::VoteGrant {
                term,
                store,
                last_seq,
            } => self.on_vote_grant(ctx, from, term, store, last_seq),
            KvMsg::SyncReq => self.on_sync_req(ctx, from),
            KvMsg::Sync {
                term,
                store,
                last_seq,
            } => self.on_sync(ctx, from, term, store, last_seq),
            KvMsg::Batch {
                origin,
                bucket,
                attempt,
                count,
            } => self.on_batch(ctx, origin, bucket, attempt, count),
            KvMsg::PutAck { .. }
            | KvMsg::GetAck { .. }
            | KvMsg::Redirect { .. }
            | KvMsg::BatchAck { .. }
            | KvMsg::BatchDone { .. } => {}
        }
    }

    /// The service checkpoint.
    pub fn checkpoint(&self) -> KvCheckpoint {
        KvCheckpoint {
            term: self.term,
            role: match self.role {
                Role::Follower => 0,
                Role::Leader => 1,
                Role::Recovering => 2,
            },
            keys: self.store.len() as u64,
        }
    }
}
