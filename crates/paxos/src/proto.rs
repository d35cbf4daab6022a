//! Paxos wire protocol and ballot arithmetic.
//!
//! A multi-decree Paxos in the coordinated (Mencius-like) style: the log is
//! partitioned into slot ranges with a designated **owner** per slot, and
//! an owner's base ballot is implicitly promised by every acceptor — so the
//! owner commits in one round trip (Accept/Accepted), while any other
//! proposer must run an explicit Prepare/Promise with a higher ballot
//! first. This is what lets "every node propose" cheaply, the property the
//! paper's consensus example (§3.1) wants exposed as a choice.

use cb_simnet::topology::NodeId;

/// Maximum replicas a ballot can encode (ballot = round × MAX + owner).
pub const MAX_REPLICAS: u64 = 64;

/// A ballot number: globally ordered, collision-free across proposers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ballot(pub u64);

impl Ballot {
    /// The base (round-0) ballot of a proposer.
    pub fn base(proposer: u64) -> Ballot {
        Ballot(proposer)
    }

    /// Creates the ballot for `round` belonging to `proposer`.
    ///
    /// # Panics
    ///
    /// Panics if `proposer >= MAX_REPLICAS`.
    pub fn new(round: u64, proposer: u64) -> Ballot {
        assert!(
            proposer < MAX_REPLICAS,
            "proposer id {proposer} out of range"
        );
        Ballot(round * MAX_REPLICAS + proposer)
    }

    /// The proposer this ballot belongs to.
    pub fn proposer(self) -> u64 {
        self.0 % MAX_REPLICAS
    }

    /// The round of this ballot.
    pub fn round(self) -> u64 {
        self.0 / MAX_REPLICAS
    }

    /// The next-higher ballot belonging to `proposer`.
    pub fn bump_for(self, proposer: u64) -> Ballot {
        Ballot::new(self.round() + 1, proposer)
    }
}

/// A replicated command: packs the submitting client and a sequence number
/// so the committing proposer can acknowledge the right client.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Command(pub u64);

impl Command {
    /// Builds a command from a client node and its local sequence number.
    pub fn new(client: NodeId, seq: u32) -> Command {
        Command(((client.0 as u64) << 32) | seq as u64)
    }

    /// The submitting client.
    pub fn client(self) -> NodeId {
        NodeId((self.0 >> 32) as u32)
    }

    /// The client-local sequence number.
    pub fn seq(self) -> u32 {
        self.0 as u32
    }
}

/// Paxos messages.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum PaxosMsg {
    /// Client asks a proposer to get a command committed.
    Submit {
        /// The command.
        cmd: Command,
    },
    /// Phase 1a: ask acceptors to promise `ballot` for `slot`.
    Prepare {
        /// Log slot.
        slot: u64,
        /// Proposed ballot.
        ballot: Ballot,
    },
    /// Phase 1b: a promise, carrying any previously accepted value.
    Promise {
        /// Log slot.
        slot: u64,
        /// The promised ballot.
        ballot: Ballot,
        /// Highest accepted (ballot, value) at this acceptor, if any.
        accepted: Option<(Ballot, Command)>,
    },
    /// Phase 2a: ask acceptors to accept `value` at `ballot`.
    Accept {
        /// Log slot.
        slot: u64,
        /// The ballot.
        ballot: Ballot,
        /// The value.
        value: Command,
    },
    /// Phase 2b: the acceptor accepted.
    Accepted {
        /// Log slot.
        slot: u64,
        /// The accepted ballot.
        ballot: Ballot,
    },
    /// Rejection: the acceptor has promised a higher ballot.
    Nack {
        /// Log slot.
        slot: u64,
        /// The ballot the acceptor is holding out for.
        promised: Ballot,
    },
    /// The chosen value, broadcast to learners.
    Learn {
        /// Log slot.
        slot: u64,
        /// The chosen value.
        value: Command,
    },
    /// Ack to the submitting client.
    Committed {
        /// The committed command.
        cmd: Command,
    },
    /// Operations/repair hook: drive consensus for a *specific* slot
    /// through the receiving replica, even if it does not own the slot
    /// (runs the explicit higher-ballot phase 1; any already-accepted
    /// value is adopted, preserving safety).
    SubmitAt {
        /// The slot to contend for.
        slot: u64,
        /// The value to propose if the slot is free.
        cmd: Command,
    },
    /// Learner catch-up: ask a peer to re-send its learned log from
    /// `from_slot` up (bounded batch). Decided values are safe to copy —
    /// this is how a restarted amnesiac rejoins without ever touching the
    /// acceptor or revocation paths for its missing history.
    LearnReq {
        /// First slot the requester is missing.
        from_slot: u64,
    },
    /// State-machine execution result, sent to the submitting client by
    /// each replica whose executed prefix reaches the command's slot. The
    /// Mencius KV layer acks clients with this — *after* every earlier
    /// slot is decided and executed — rather than with [`PaxosMsg::Committed`],
    /// which fires at accept-quorum and would break the real-time ordering
    /// the linearizability oracle checks.
    Result {
        /// The executed command.
        cmd: Command,
        /// Execution result: the read value for gets, the written value
        /// for puts.
        value: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ballot_round_trip() {
        let b = Ballot::new(7, 3);
        assert_eq!(b.round(), 7);
        assert_eq!(b.proposer(), 3);
        assert!(Ballot::new(7, 4) > b);
        assert!(Ballot::new(8, 0) > b);
    }

    #[test]
    fn base_ballots_order_by_proposer() {
        assert!(Ballot::base(2) > Ballot::base(1));
        assert_eq!(Ballot::base(5).round(), 0);
    }

    #[test]
    fn bump_produces_strictly_higher_ballot_for_any_proposer() {
        let b = Ballot::new(3, 9);
        let higher = b.bump_for(1);
        assert!(higher > b);
        assert_eq!(higher.proposer(), 1);
        assert_eq!(higher.round(), 4);
    }

    #[test]
    fn command_packs_client_and_seq() {
        let c = Command::new(NodeId(12), 99);
        assert_eq!(c.client(), NodeId(12));
        assert_eq!(c.seq(), 99);
        assert_ne!(Command::new(NodeId(12), 100), c);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_proposer_rejected() {
        let _ = Ballot::new(0, MAX_REPLICAS);
    }
}
