//! The RandTree wire protocol and checkpoint, shared by the baseline and
//! the choice-exposed implementations.
//!
//! RandTree (Killian et al., Mace) builds a random overlay tree: nodes join
//! through the root, and join requests are forwarded down the tree until a
//! node with spare child capacity adopts the joiner. Both of our
//! implementations speak exactly this protocol — they differ only in *how
//! the forwarding decision is made*, which is the entire point of the
//! paper's case study (§4).

use cb_simnet::time::SimDuration;
use cb_simnet::topology::NodeId;

/// Maximum children per node (binary tree, as in the 31-node case study:
/// optimal depth 5 levels for 31 nodes).
pub const MAX_CHILDREN: usize = 2;

/// The service timer tag for (re)join attempts.
pub const JOIN_TIMER: u64 = 1;

/// The service timer tag for the join-retry timeout.
pub const RETRY_TIMER: u64 = 2;

/// The service timer tag for the periodic parent-lease check.
pub const LEASE_TIMER: u64 = 3;

/// How often a child validates its parent lease.
pub const LEASE_CHECK_EVERY: SimDuration = SimDuration::from_secs(2);

/// Parent-view staleness beyond which the attachment lease is considered
/// expired and the child must rejoin.
///
/// A parent checkpoints to each child every controller cycle (hundreds of
/// milliseconds), so a live parent link keeps the child's model view of
/// the parent fresh; ~12 s of silence means dozens of consecutive missed
/// checkpoints — the link is dead in a way the transport never reported.
/// The classic interleaving is a break notification lost to a
/// crash/stall/partition window: the parent disowns the child and moves
/// on while the child still believes in the link, and nothing in the
/// base protocol ever repairs the asymmetry. The lease is the backstop
/// that restores mutual consistency.
pub const LEASE_TIMEOUT: SimDuration = SimDuration::from_secs(12);

/// Messages of the RandTree protocol.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum TreeMsg {
    /// A join request on behalf of `joiner`, forwarded down the tree.
    Join {
        /// The node that wants to join.
        joiner: NodeId,
    },
    /// The adopter tells the joiner it is attached.
    JoinAccepted {
        /// The new parent.
        parent: NodeId,
        /// The joiner's depth in levels (root = 1).
        depth: u32,
    },
    /// A parent informs a child that its depth changed (after the parent
    /// itself re-attached elsewhere).
    DepthUpdate {
        /// The child's new depth in levels.
        depth: u32,
    },
}

/// The checkpoint RandTree ships to its neighbors (parent and children).
///
/// Besides the local links it carries **aggregated subtree statistics**,
/// which each node computes from its children's last-reported checkpoints —
/// the paper's "service contributes state that keeps track of information
/// in other nodes" (§3.3.2). They propagate upward one controller cycle per
/// level, so they are eventually consistent, never exact.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TreeCheckpoint {
    /// Current parent, if attached.
    pub parent: Option<u32>,
    /// Current children (node ids).
    pub children: Vec<u32>,
    /// Own depth in levels (root = 1); 0 when not attached.
    pub depth: u32,
    /// Nodes in this subtree including self, per last child reports.
    pub subtree_size: u32,
    /// Height of this subtree in levels including self, per last reports.
    pub subtree_height: u32,
}

/// The tree-membership state both implementations maintain.
#[derive(Clone, Debug, Default)]
pub struct TreeState {
    /// This node's parent, when attached.
    pub parent: Option<NodeId>,
    /// Adopted children.
    pub children: Vec<NodeId>,
    /// Depth in levels (root = 1); 0 while unattached.
    pub depth: u32,
    /// True once attached (the root is attached from the start).
    pub attached: bool,
}

impl TreeState {
    /// Fresh state for a node: the root starts attached at depth 1.
    pub fn new(me: NodeId, root: NodeId) -> Self {
        if me == root {
            TreeState {
                parent: None,
                children: Vec::new(),
                depth: 1,
                attached: true,
            }
        } else {
            TreeState::default()
        }
    }

    /// True when another child can be adopted.
    pub fn has_capacity(&self) -> bool {
        self.children.len() < MAX_CHILDREN
    }

    /// Adds a child if not already present; returns whether it was added.
    pub fn adopt(&mut self, child: NodeId) -> bool {
        if self.children.contains(&child) {
            false
        } else {
            self.children.push(child);
            true
        }
    }

    /// Removes a child; returns whether it was present.
    pub fn disown(&mut self, child: NodeId) -> bool {
        let before = self.children.len();
        self.children.retain(|&c| c != child);
        self.children.len() != before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_starts_attached() {
        let s = TreeState::new(NodeId(0), NodeId(0));
        assert!(s.attached);
        assert_eq!(s.depth, 1);
        assert!(s.parent.is_none());
    }

    #[test]
    fn non_root_starts_detached() {
        let s = TreeState::new(NodeId(3), NodeId(0));
        assert!(!s.attached);
        assert_eq!(s.depth, 0);
    }

    #[test]
    fn capacity_is_max_children() {
        let mut s = TreeState::new(NodeId(0), NodeId(0));
        assert!(s.has_capacity());
        for i in 1..=MAX_CHILDREN as u32 {
            assert!(s.adopt(NodeId(i)));
        }
        assert!(!s.has_capacity());
    }

    #[test]
    fn adopt_is_idempotent() {
        let mut s = TreeState::new(NodeId(0), NodeId(0));
        assert!(s.adopt(NodeId(1)));
        assert!(!s.adopt(NodeId(1)));
        assert_eq!(s.children.len(), 1);
    }

    #[test]
    fn disown_removes() {
        let mut s = TreeState::new(NodeId(0), NodeId(0));
        s.adopt(NodeId(1));
        assert!(s.disown(NodeId(1)));
        assert!(!s.disown(NodeId(1)));
        assert!(s.children.is_empty());
    }
}
