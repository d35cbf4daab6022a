//! The Paxos replica: acceptor, learner, and (on demand) proposer.
//!
//! Every replica can propose — the point of the §3.1 consensus example.
//! Slot ownership decides who proposes *cheaply*: the owner of a slot
//! enjoys an implicit round-0 promise from all acceptors (Mencius-style
//! coordinated Paxos) and commits in one round trip; a non-owner must run
//! explicit Prepare/Promise with a higher ballot, and correctness is
//! preserved by the usual promise/accept rules.

use crate::proto::{Ballot, Command, PaxosMsg};
use cb_core::runtime::ServiceCtx;
use cb_simnet::time::SimDuration;
use cb_simnet::topology::NodeId;
use std::collections::{BTreeMap, HashMap};

/// How log slots are assigned to proposing replicas.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotOwnership {
    /// One fixed leader owns every slot (classic multi-Paxos deployment).
    FixedLeader {
        /// Index of the leader among the replicas.
        leader: u64,
    },
    /// Slot `s` is owned by replica `s % replicas` (Mencius schedule).
    RoundRobin,
}

impl SlotOwnership {
    /// The owner of `slot` among `replicas` replicas.
    pub fn owner(self, slot: u64, replicas: u64) -> u64 {
        match self {
            SlotOwnership::FixedLeader { leader } => leader,
            SlotOwnership::RoundRobin => slot % replicas,
        }
    }
}

/// Per-slot acceptor state.
#[derive(Clone, Debug, Default)]
struct AcceptorSlot {
    /// Explicitly promised ballot, if any (the implicit owner promise is
    /// computed, not stored).
    promised: Option<Ballot>,
    /// Highest accepted (ballot, value).
    accepted: Option<(Ballot, Command)>,
}

/// Per-slot proposer state.
#[derive(Clone, Debug)]
struct Proposal {
    ballot: Ballot,
    value: Command,
    /// Phase 1 promises gathered (by acceptor), with any accepted values.
    promises: HashMap<NodeId, Option<(Ballot, Command)>>,
    /// Phase 2 accepts gathered.
    accepts: Vec<NodeId>,
    /// Whether phase 2 has been launched.
    accepting: bool,
    /// Whether the slot has been committed (Learn sent).
    committed: bool,
}

/// Checkpoint: how much of the log this replica has learned.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ReplicaCheckpoint {
    /// Number of learned slots.
    pub learned: u64,
    /// Highest learned slot + 1.
    pub log_high: u64,
}

/// A Paxos replica.
pub struct Replica {
    me: NodeId,
    /// This replica's index among the replica group.
    pub index: u64,
    /// The replica group, in index order.
    pub group: Vec<NodeId>,
    ownership: SlotOwnership,
    /// Acceptor state by slot.
    acceptors: BTreeMap<u64, AcceptorSlot>,
    /// Proposer state by slot.
    proposals: BTreeMap<u64, Proposal>,
    /// Next owned slot to use for a fresh command.
    next_owned_slot: Option<u64>,
    /// Lowest ballot round this replica's explicit (phase-1) proposals may
    /// use. Restarted incarnations raise it above anything the previous
    /// incarnation could have proposed — an amnesiac reusing a forgotten
    /// ballot for a different value would let two values decide in one
    /// slot.
    ballot_round_floor: u64,
    /// Learned log: slot -> command.
    pub learned: BTreeMap<u64, Command>,
    /// Commands committed by this replica acting as proposer.
    pub committed_here: u64,
    /// Phase-1 conflicts observed (Nacks received).
    pub nacks_seen: u64,
}

impl Replica {
    /// Creates replica `index` of `group` with the given slot ownership.
    pub fn new(me: NodeId, index: u64, group: Vec<NodeId>, ownership: SlotOwnership) -> Self {
        let mut r = Replica {
            me,
            index,
            group,
            ownership,
            acceptors: BTreeMap::new(),
            proposals: BTreeMap::new(),
            next_owned_slot: None,
            ballot_round_floor: 0,
            learned: BTreeMap::new(),
            committed_here: 0,
            nacks_seen: 0,
        };
        r.next_owned_slot = r.first_owned_slot_from(0);
        r
    }

    /// This replica's node.
    pub(crate) fn id(&self) -> NodeId {
        self.me
    }

    /// The replica the schedule designates for fresh commands when this one
    /// owns no slots.
    fn schedule_leader(&self) -> NodeId {
        let owner = self.ownership.owner(0, self.replicas()) as usize;
        self.group[owner]
    }

    fn replicas(&self) -> u64 {
        self.group.len() as u64
    }

    fn quorum(&self) -> usize {
        self.group.len() / 2 + 1
    }

    /// The first slot at or after `from` this replica owns, or `None` when
    /// the schedule never assigns it one (a non-leader under a fixed-leader
    /// schedule).
    fn first_owned_slot_from(&self, from: u64) -> Option<u64> {
        // Ownership is periodic in the group size; one period suffices.
        (from..from + self.replicas())
            .find(|&s| self.ownership.owner(s, self.replicas()) == self.index)
    }

    /// The ballot an acceptor implicitly promises for a slot: the owner's
    /// base ballot.
    fn implicit_promise(&self, slot: u64) -> Ballot {
        Ballot::base(self.ownership.owner(slot, self.replicas()))
    }

    fn effective_promise(&self, slot: u64) -> Ballot {
        let implicit = self.implicit_promise(slot);
        match self.acceptors.get(&slot).and_then(|a| a.promised) {
            Some(p) => p.max(implicit),
            None => implicit,
        }
    }

    /// Starts consensus for `value` in the next slot this replica owns
    /// (skipping the explicit phase 1 thanks to the implicit promise).
    pub fn propose_owned(
        &mut self,
        ctx: &mut ServiceCtx<'_, '_, PaxosMsg, ReplicaCheckpoint>,
        value: Command,
    ) {
        let Some(slot) = self.next_owned_slot else {
            // This replica owns no slots (fixed-leader schedule): relay the
            // submission to the designated leader.
            let leader = self.schedule_leader();
            ctx.send(leader, PaxosMsg::Submit { cmd: value });
            return;
        };
        self.next_owned_slot = self.first_owned_slot_from(slot + 1);
        self.propose_base_in_slot(ctx, slot, value);
    }

    /// Phase-2-only proposal at this replica's base ballot in a specific
    /// slot. Safe only for owned slots this incarnation has never proposed
    /// in before — [`Replica::propose_owned`] and the Mencius skip-fill
    /// path both draw slots from the monotone owned cursor, which
    /// guarantees exactly that.
    pub(crate) fn propose_base_in_slot(
        &mut self,
        ctx: &mut ServiceCtx<'_, '_, PaxosMsg, ReplicaCheckpoint>,
        slot: u64,
        value: Command,
    ) {
        let ballot = Ballot::base(self.index);
        self.proposals.insert(
            slot,
            Proposal {
                ballot,
                value,
                promises: HashMap::new(),
                accepts: Vec::new(),
                accepting: true,
                committed: false,
            },
        );
        ctx.multicast_sized(
            self.group.iter().copied(),
            PaxosMsg::Accept {
                slot,
                ballot,
                value,
            },
            crate::scenario::CMD_BYTES,
        );
    }

    /// Raises the minimum ballot round for this replica's explicit
    /// proposals (see the `ballot_round_floor` field).
    pub(crate) fn set_ballot_round_floor(&mut self, floor: u64) {
        self.ballot_round_floor = self.ballot_round_floor.max(floor);
    }

    /// Clamps a ballot to the configured round floor.
    fn floored(&self, b: Ballot) -> Ballot {
        if b.round() < self.ballot_round_floor {
            Ballot::new(self.ballot_round_floor, self.index)
        } else {
            b
        }
    }

    /// Starts consensus for `value` in an arbitrary slot with an explicit
    /// phase 1 (used when contending for a slot this replica does not own).
    pub fn propose_in_slot(
        &mut self,
        ctx: &mut ServiceCtx<'_, '_, PaxosMsg, ReplicaCheckpoint>,
        slot: u64,
        value: Command,
    ) {
        if self.proposals.get(&slot).is_some_and(|p| p.committed) {
            return;
        }
        // Start above everything this replica has already seen promised
        // for the slot, not just the implicit owner promise: a re-proposal
        // that opens below the going rate is pure nack traffic (under a
        // revocation storm, enough of it to congest the network and starve
        // the very slot it is trying to close). And never regress below —
        // or reuse — our own earlier attempt's ballot: a reused ballot
        // with a different value could decide twice.
        let mut ballot = self.floored(self.effective_promise(slot).bump_for(self.index));
        if let Some(p) = self.proposals.get(&slot) {
            if p.ballot.proposer() == self.index && p.ballot >= ballot {
                ballot = p.ballot.bump_for(self.index);
            }
        }
        self.proposals.insert(
            slot,
            Proposal {
                ballot,
                value,
                promises: HashMap::new(),
                accepts: Vec::new(),
                accepting: false,
                committed: false,
            },
        );
        ctx.multicast(
            self.group.iter().copied(),
            PaxosMsg::Prepare { slot, ballot },
        );
    }

    fn on_prepare(
        &mut self,
        ctx: &mut ServiceCtx<'_, '_, PaxosMsg, ReplicaCheckpoint>,
        from: NodeId,
        slot: u64,
        ballot: Ballot,
    ) {
        let current = self.effective_promise(slot);
        if ballot >= current {
            let entry = self.acceptors.entry(slot).or_default();
            entry.promised = Some(ballot);
            let accepted = entry.accepted;
            ctx.send(
                from,
                PaxosMsg::Promise {
                    slot,
                    ballot,
                    accepted,
                },
            );
        } else {
            ctx.send(
                from,
                PaxosMsg::Nack {
                    slot,
                    promised: current,
                },
            );
        }
    }

    fn on_promise(
        &mut self,
        ctx: &mut ServiceCtx<'_, '_, PaxosMsg, ReplicaCheckpoint>,
        from: NodeId,
        slot: u64,
        ballot: Ballot,
        accepted: Option<(Ballot, Command)>,
    ) {
        let quorum = self.quorum();
        let Some(p) = self.proposals.get_mut(&slot) else {
            return;
        };
        if p.ballot != ballot || p.accepting || p.committed {
            return;
        }
        p.promises.insert(from, accepted);
        if p.promises.len() >= quorum {
            // Adopt the highest previously accepted value, if any.
            if let Some((_, v)) = p
                .promises
                .values()
                .filter_map(|a| *a)
                .max_by_key(|(b, _)| *b)
            {
                p.value = v;
            }
            p.accepting = true;
            let (b, v) = (p.ballot, p.value);
            ctx.multicast_sized(
                self.group.iter().copied(),
                PaxosMsg::Accept {
                    slot,
                    ballot: b,
                    value: v,
                },
                crate::scenario::CMD_BYTES,
            );
        }
    }

    fn on_accept(
        &mut self,
        ctx: &mut ServiceCtx<'_, '_, PaxosMsg, ReplicaCheckpoint>,
        from: NodeId,
        slot: u64,
        ballot: Ballot,
        value: Command,
    ) {
        let current = self.effective_promise(slot);
        if ballot >= current {
            let entry = self.acceptors.entry(slot).or_default();
            entry.promised = Some(ballot);
            entry.accepted = Some((ballot, value));
            ctx.send(from, PaxosMsg::Accepted { slot, ballot });
        } else {
            ctx.send(
                from,
                PaxosMsg::Nack {
                    slot,
                    promised: current,
                },
            );
        }
    }

    fn on_accepted(
        &mut self,
        ctx: &mut ServiceCtx<'_, '_, PaxosMsg, ReplicaCheckpoint>,
        from: NodeId,
        slot: u64,
        ballot: Ballot,
    ) {
        let quorum = self.quorum();
        let Some(p) = self.proposals.get_mut(&slot) else {
            return;
        };
        if p.ballot != ballot || p.committed {
            return;
        }
        if !p.accepts.contains(&from) {
            p.accepts.push(from);
        }
        if p.accepts.len() >= quorum {
            p.committed = true;
            let v = p.value;
            self.committed_here += 1;
            ctx.multicast_sized(
                self.group.iter().copied(),
                PaxosMsg::Learn { slot, value: v },
                crate::scenario::CMD_BYTES,
            );
            ctx.send(v.client(), PaxosMsg::Committed { cmd: v });
        }
    }

    fn on_nack(
        &mut self,
        ctx: &mut ServiceCtx<'_, '_, PaxosMsg, ReplicaCheckpoint>,
        slot: u64,
        promised: Ballot,
    ) {
        self.nacks_seen += 1;
        // Only a nack that post-dates our current attempt is news. Stale
        // nacks (crossed in flight with a bump they themselves caused)
        // MUST be dropped: retrying on each would answer every nack of a
        // broadcast with another full Prepare broadcast — a self-feeding
        // message storm that congests the network and starves the slot.
        match self.proposals.get(&slot) {
            None => return,
            Some(p) if p.committed || promised <= p.ballot => return,
            Some(_) => {}
        }
        // Retry phase 1 with a ballot above the one we lost to.
        let ballot = self.floored(promised.bump_for(self.index));
        let p = self.proposals.get_mut(&slot).expect("checked above");
        p.ballot = ballot;
        p.promises.clear();
        p.accepts.clear();
        p.accepting = false;
        ctx.multicast(
            self.group.iter().copied(),
            PaxosMsg::Prepare { slot, ballot },
        );
    }
}

impl Replica {
    /// Dispatches one protocol message (called by the unified
    /// [`crate::node::PaxosNode`] service).
    pub fn handle(
        &mut self,
        ctx: &mut ServiceCtx<'_, '_, PaxosMsg, ReplicaCheckpoint>,
        from: NodeId,
        msg: PaxosMsg,
    ) {
        match msg {
            PaxosMsg::Submit { cmd } => self.propose_owned(ctx, cmd),
            PaxosMsg::SubmitAt { slot, cmd } => self.propose_in_slot(ctx, slot, cmd),
            PaxosMsg::Prepare { slot, ballot } => self.on_prepare(ctx, from, slot, ballot),
            PaxosMsg::Promise {
                slot,
                ballot,
                accepted,
            } => self.on_promise(ctx, from, slot, ballot, accepted),
            PaxosMsg::Accept {
                slot,
                ballot,
                value,
            } => self.on_accept(ctx, from, slot, ballot, value),
            PaxosMsg::Accepted { slot, ballot } => self.on_accepted(ctx, from, slot, ballot),
            PaxosMsg::Nack { slot, promised } => self.on_nack(ctx, slot, promised),
            PaxosMsg::Learn { slot, value } => {
                self.learned.insert(slot, value);
            }
            PaxosMsg::LearnReq { from_slot } => self.on_learn_req(ctx, from, from_slot),
            PaxosMsg::Committed { .. } | PaxosMsg::Result { .. } => {}
        }
    }

    /// Learner catch-up: re-send a bounded batch of learned slots starting
    /// at `from_slot` to the requester. Decided values only, so this can
    /// never conflict with anything.
    fn on_learn_req(
        &mut self,
        ctx: &mut ServiceCtx<'_, '_, PaxosMsg, ReplicaCheckpoint>,
        from: NodeId,
        from_slot: u64,
    ) {
        const CATCHUP_BATCH: usize = 64;
        for (&slot, &value) in self.learned.range(from_slot..).take(CATCHUP_BATCH) {
            ctx.send_sized(
                from,
                PaxosMsg::Learn { slot, value },
                crate::scenario::CMD_BYTES,
            );
        }
    }

    /// Advances the owned-slot cursor to the first owned slot at or after
    /// `floor` (never backwards), returning the owned slots that were
    /// jumped over. The Mencius layer calls this before every fresh
    /// proposal — so an owner that learned about later slots does not
    /// propose into the past — and no-op-fills the returned slots so
    /// execution never stalls on holes this skip created.
    pub(crate) fn fast_forward_owned(&mut self, floor: u64) -> Vec<u64> {
        let mut skipped = Vec::new();
        let Some(mut cur) = self.next_owned_slot else {
            return skipped;
        };
        while cur < floor {
            skipped.push(cur);
            match self.first_owned_slot_from(cur + 1) {
                Some(next) => cur = next,
                None => {
                    self.next_owned_slot = None;
                    return skipped;
                }
            }
        }
        self.next_owned_slot = Some(cur);
        skipped
    }

    /// The first slot at or after `from` this replica owns (see
    /// [`SlotOwnership`]).
    pub(crate) fn first_owned_at_or_after(&self, from: u64) -> Option<u64> {
        self.first_owned_slot_from(from)
    }

    /// The other members of the replica group (checkpoint recipients).
    pub fn group_peers(&self) -> Vec<NodeId> {
        self.group
            .iter()
            .copied()
            .filter(|&n| n != self.me)
            .collect()
    }
}

/// Convenience for tests and scenarios.
pub fn retry_interval() -> SimDuration {
    SimDuration::from_secs(3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ownership_schedules() {
        let rr = SlotOwnership::RoundRobin;
        assert_eq!(rr.owner(0, 5), 0);
        assert_eq!(rr.owner(7, 5), 2);
        let fl = SlotOwnership::FixedLeader { leader: 3 };
        assert_eq!(fl.owner(0, 5), 3);
        assert_eq!(fl.owner(99, 5), 3);
    }

    #[test]
    fn first_owned_slot_respects_schedule() {
        let group: Vec<NodeId> = (0..5).map(NodeId).collect();
        let r = Replica::new(NodeId(2), 2, group.clone(), SlotOwnership::RoundRobin);
        assert_eq!(r.next_owned_slot, Some(2));
        assert_eq!(r.first_owned_slot_from(3), Some(7));
        let follower = Replica::new(
            NodeId(1),
            1,
            group,
            SlotOwnership::FixedLeader { leader: 0 },
        );
        assert_eq!(follower.next_owned_slot, None);
    }

    #[test]
    fn implicit_promise_belongs_to_owner() {
        let group: Vec<NodeId> = (0..5).map(NodeId).collect();
        let r = Replica::new(NodeId(0), 0, group, SlotOwnership::RoundRobin);
        assert_eq!(r.implicit_promise(3), Ballot::base(3));
        assert_eq!(r.effective_promise(3), Ballot::base(3));
    }
}
