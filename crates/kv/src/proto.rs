//! Wire protocol of the replicated KV service.
//!
//! Writes carry a `(term, seq)` [`Version`] assigned by the leader of the
//! term that accepted them; versions order totally (lexicographically), so
//! replicas can merge state by keeping the per-key maximum. Every message
//! between replicas carries the sender's notion of the current term — the
//! single monotone clock the whole protocol hangs off.

use cb_simnet::topology::NodeId;

/// A write's position in the global order: the accepting leader's term and
/// the per-term sequence number it assigned. Lexicographic comparison gives
/// the replication order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Version {
    /// Term of the leader that accepted the write.
    pub term: u64,
    /// Per-term sequence assigned by that leader (starting at 1).
    pub seq: u64,
}

/// One key's stored state: the winning version, its value, and the client
/// write it came from (kept for exactly-once resubmit handling).
#[derive(Clone, Debug, Hash)]
pub struct Entry {
    /// Version of the write that produced this value.
    pub ver: Version,
    /// The stored value.
    pub value: u64,
    /// The client that issued the write.
    pub client: NodeId,
    /// That client's sequence number for the write.
    pub client_seq: u32,
}

/// A full-store snapshot, shipped in vote grants and recovery syncs.
pub type StoreSnapshot = Vec<(u64, Entry)>;

/// Per-client highest-applied-write sequence numbers (`client id`, `seq`).
pub type SeqSnapshot = Vec<(u32, u32)>;

/// Every message of the KV deployment.
#[derive(Clone, Debug, Hash)]
pub enum KvMsg {
    /// Client write request (routed to the leader; followers forward).
    Put {
        /// The issuing client (kept in the message so forwards preserve
        /// the ack route).
        client: NodeId,
        /// Key to write.
        key: u64,
        /// Value to write.
        value: u64,
        /// Client-local sequence number — the exactly-once dedup handle.
        client_seq: u32,
    },
    /// Client read request, sent to the replica the client's
    /// `kv.read_replica` choice picked.
    Get {
        /// The issuing client.
        client: NodeId,
        /// Key to read.
        key: u64,
        /// Client-local id matching the response to the request.
        read_id: u32,
    },
    /// Leader → client: the write committed (majority-replicated).
    PutAck {
        /// Echo of the request's sequence number.
        client_seq: u32,
    },
    /// Replica → client: the read's result.
    GetAck {
        /// Echo of the request's read id.
        read_id: u32,
        /// The observed value.
        value: u64,
    },
    /// Follower → client: where the leader actually is.
    Redirect {
        /// The sender's current leader.
        leader: NodeId,
    },
    /// Leader → followers: liveness beacon for term `term`.
    Heartbeat {
        /// The leader's term.
        term: u64,
    },
    /// Leader → follower: apply this write.
    Replicate {
        /// The replicating leader's term (may exceed `ver.term` when a new
        /// leader re-replicates merged entries from older terms).
        term: u64,
        /// The write's version.
        ver: Version,
        /// Key written.
        key: u64,
        /// Value written.
        value: u64,
        /// Originating client (for dedup state).
        client: NodeId,
        /// Originating client sequence.
        client_seq: u32,
    },
    /// Follower → leader: the write is applied here.
    ReplicateAck {
        /// Echo of the replicating term.
        term: u64,
        /// Echo of the write's version.
        ver: Version,
    },
    /// Leader → followers: "is term `term` still current?" — the
    /// linearizable-read fence.
    Guard {
        /// The leader's term.
        term: u64,
        /// Correlates acks to the pending read.
        guard_id: u64,
    },
    /// Follower → leader: term `term` is still the newest this follower
    /// has seen.
    GuardAck {
        /// Echo of the guarded term.
        term: u64,
        /// Echo of the guard id.
        guard_id: u64,
    },
    /// Election: the sender asks every replica to vote `candidate` into
    /// leadership of `term`.
    VoteReq {
        /// The proposed (strictly newer) term.
        term: u64,
        /// The replica the sender's `kv.leader` choice nominated.
        candidate: NodeId,
    },
    /// A replica's vote, sent to the candidate. Carries the voter's full
    /// store so the winner can merge a majority's worth of state — any
    /// committed write lives in every majority.
    VoteGrant {
        /// The granted term.
        term: u64,
        /// The voter's store.
        store: StoreSnapshot,
        /// The voter's per-client dedup state.
        last_seq: SeqSnapshot,
    },
    /// Open-loop workload generator → replica: an aggregate bucket of
    /// `count` user requests arriving in one window/region (cb-workload's
    /// millions-of-users-for-thousands-of-events representation).
    Batch {
        /// The generator node to notify (admission and service outcomes).
        origin: NodeId,
        /// Bucket identity: `window << 8 | region`.
        bucket: u64,
        /// Send attempt, starting at 1 (retries increment).
        attempt: u32,
        /// Aggregated request count in this bucket.
        count: u64,
    },
    /// Replica → generator: admission outcome for a batch. `shed > 0`
    /// means the `kv.admission` choice trimmed or rejected the bucket;
    /// the generator may retry the shed portion within its budget.
    BatchAck {
        /// Echo of the bucket id.
        bucket: u64,
        /// Echo of the attempt.
        attempt: u32,
        /// Requests enqueued for service.
        admitted: u64,
        /// Requests shed at admission.
        shed: u64,
    },
    /// Replica → generator: terminal service outcome for the admitted part
    /// of a bucket. `expired` requests waited past the deadline before
    /// reaching the server — wasted capacity their users will retry.
    BatchDone {
        /// Echo of the bucket id.
        bucket: u64,
        /// Echo of the attempt.
        attempt: u32,
        /// Requests served within the deadline (goodput).
        served: u64,
        /// Requests served too late to count.
        expired: u64,
    },
    /// A restarted (amnesiac) replica asking the leader for a full sync.
    SyncReq,
    /// Leader → recovering replica: full state transfer.
    Sync {
        /// The leader's term.
        term: u64,
        /// The leader's store.
        store: StoreSnapshot,
        /// The leader's per-client dedup state.
        last_seq: SeqSnapshot,
    },
}
