//! The baseline RandTree: the released, hard-coded implementation style.
//!
//! This is the "before" picture of the paper's case study (§4): the same
//! join protocol as [`crate::choice`], but with the forwarding strategy —
//! and all of its incidental policy — buried in one monolithic handler.
//! The handler mixes basic functionality with the embedded strategy: guard
//! cases, duplicate suppression, recently-used-child avoidance, occasional
//! bounce-to-parent, and several pseudo-random draws, exactly the texture
//! the paper describes ("the logic for making the forwarding decision is
//! fairly complex, and involves a few calls to a pseudo-random number
//! generator").
//!
//! The code-metrics experiment (E1) counts the lines and branching of the
//! region between the `[handlers:begin]` / `[handlers:end]` markers here
//! and in the choice version.

use crate::proto::{
    TreeCheckpoint, TreeMsg, TreeState, JOIN_TIMER, LEASE_CHECK_EVERY, LEASE_TIMEOUT, LEASE_TIMER,
    RETRY_TIMER,
};
use cb_core::model::state::{NodeView, StateModel};
use cb_core::runtime::{Service, ServiceCtx};
use cb_simnet::time::{SimDuration, SimTime};
use cb_simnet::topology::NodeId;
use std::collections::HashMap;

/// The service context type of both RandTree implementations.
type Ctx<'a, 'b> = ServiceCtx<'a, 'b, TreeMsg, TreeCheckpoint>;

/// How long a joiner waits before retrying an unanswered join.
const RETRY_AFTER: SimDuration = SimDuration::from_secs(8);

/// The baseline RandTree service with the hard-coded forwarding policy.
pub struct BaselineRandTree {
    me: NodeId,
    root: NodeId,
    join_delay: SimDuration,
    /// Tree membership.
    pub tree: TreeState,
    /// Last child each joiner's request was forwarded to (ping-pong
    /// avoidance — part of the embedded strategy).
    last_forward: HashMap<NodeId, NodeId>,
    /// Round-robin cursor over children (more embedded strategy state).
    rr_cursor: usize,
    /// Joins this node forwarded.
    pub forwarded: u64,
    /// Joins this node adopted.
    pub adopted: u64,
    /// When the current attachment was established (lease baseline).
    attached_at: SimTime,
    /// Attachment leases that expired and forced a rejoin.
    pub lease_expired: u64,
}

impl BaselineRandTree {
    /// Creates the service for node `me`.
    pub fn new(me: NodeId, root: NodeId, join_delay: SimDuration) -> Self {
        BaselineRandTree {
            me,
            root,
            join_delay,
            tree: TreeState::new(me, root),
            last_forward: HashMap::new(),
            rr_cursor: 0,
            forwarded: 0,
            adopted: 0,
            attached_at: SimTime::ZERO,
            lease_expired: 0,
        }
    }

    // [handlers:begin]

    /// The monolithic join handler: protocol logic and forwarding strategy
    /// interleaved, as in the released implementation.
    fn handle_join(&mut self, ctx: &mut Ctx<'_, '_>, from: NodeId, joiner: NodeId) {
        if joiner == self.me {
            return;
        }
        if !self.tree.attached && self.me != self.root {
            if let Some(p) = self.tree.parent {
                ctx.send(p, TreeMsg::Join { joiner });
            }
            return;
        }
        if self.tree.children.contains(&joiner) {
            let depth = self.tree.depth + 1;
            ctx.send(
                joiner,
                TreeMsg::JoinAccepted {
                    parent: self.me,
                    depth,
                },
            );
            return;
        }
        if self.tree.has_capacity() {
            if Some(joiner) == self.tree.parent {
                if let Some(p) = self.tree.parent {
                    ctx.send(p, TreeMsg::Join { joiner });
                    return;
                }
            }
            self.tree.adopt(joiner);
            self.adopted += 1;
            self.last_forward.remove(&joiner);
            let depth = self.tree.depth + 1;
            ctx.send(
                joiner,
                TreeMsg::JoinAccepted {
                    parent: self.me,
                    depth,
                },
            );
            return;
        }
        // Full: the embedded forwarding strategy. Mostly random, with
        // special cases accreted over time.
        let n = self.tree.children.len();
        let mut target;
        if n == 1 {
            target = self.tree.children[0];
        } else {
            let r = ctx.rng().gen_f64();
            if r < 0.70 {
                // Usual case: a uniformly random child.
                let i = ctx.rng().gen_index(n);
                target = self.tree.children[i];
            } else if r < 0.90 {
                // Sometimes rotate a cursor instead, to spread load.
                self.rr_cursor = (self.rr_cursor + 1) % n;
                target = self.tree.children[self.rr_cursor];
            } else {
                // Occasionally bounce upward to rebalance near the root.
                if let Some(p) = self.tree.parent {
                    if from != p {
                        target = p;
                    } else {
                        let i = ctx.rng().gen_index(n);
                        target = self.tree.children[i];
                    }
                } else {
                    let i = ctx.rng().gen_index(n);
                    target = self.tree.children[i];
                }
            }
            // Ping-pong avoidance: do not resend where we sent last time,
            // unless the draw says so twice.
            if let Some(&prev) = self.last_forward.get(&joiner) {
                if prev == target && ctx.rng().gen_f64() < 0.75 {
                    let mut alternatives: Vec<NodeId> = self
                        .tree
                        .children
                        .iter()
                        .copied()
                        .filter(|&c| c != prev)
                        .collect();
                    if let Some(p) = self.tree.parent {
                        if p != prev && p != from {
                            alternatives.push(p);
                        }
                    }
                    if !alternatives.is_empty() {
                        let i = ctx.rng().gen_index(alternatives.len());
                        target = alternatives[i];
                    }
                }
            }
        }
        if target == joiner {
            // Never forward a join to the joiner itself.
            if let Some(&other) = self.tree.children.iter().find(|&&c| c != joiner) {
                target = other;
            } else {
                return;
            }
        }
        self.last_forward.insert(joiner, target);
        self.forwarded += 1;
        ctx.send(target, TreeMsg::Join { joiner });
    }

    /// Accept/update handler: attachment bookkeeping plus child
    /// notifications, kept in one place as released code tends to.
    fn handle_accept_or_update(&mut self, ctx: &mut Ctx<'_, '_>, msg: TreeMsg) {
        match msg {
            TreeMsg::JoinAccepted { parent, depth } => {
                if !self.tree.attached {
                    self.tree.parent = Some(parent);
                    self.tree.depth = depth;
                    self.tree.attached = true;
                    self.attached_at = ctx.now();
                } else if self.tree.parent == Some(parent) && self.tree.depth != depth {
                    self.tree.depth = depth;
                    let children = self.tree.children.iter().copied();
                    ctx.multicast(children, TreeMsg::DepthUpdate { depth: depth + 1 });
                }
            }
            TreeMsg::DepthUpdate { depth } => {
                if self.tree.depth != depth {
                    self.tree.depth = depth;
                    let children = self.tree.children.iter().copied();
                    ctx.multicast(children, TreeMsg::DepthUpdate { depth: depth + 1 });
                }
            }
            TreeMsg::Join { .. } => unreachable!("routed to handle_join"),
        }
    }

    // [handlers:end]

    /// The child-side attachment lease; see
    /// [`ChoiceRandTree::check_parent_lease`](crate::choice::ChoiceRandTree)
    /// — both implementations carry the identical repair so the §4
    /// comparison stays about the forwarding decision alone.
    fn check_parent_lease(&mut self, ctx: &mut Ctx<'_, '_>) {
        if !self.tree.attached || self.me == self.root {
            return;
        }
        let Some(p) = self.tree.parent else { return };
        let renewed = match ctx.state_model().view(p) {
            NodeView::Known(s) => s.taken_at.max(self.attached_at),
            NodeView::Generic => self.attached_at,
        };
        if ctx.now().saturating_since(renewed) > LEASE_TIMEOUT {
            self.lease_expired += 1;
            self.tree.parent = None;
            self.tree.attached = false;
            self.tree.depth = 0;
            ctx.set_timer(SimDuration::from_millis(500), JOIN_TIMER);
        }
    }
}

impl Service for BaselineRandTree {
    type Msg = TreeMsg;
    type Checkpoint = TreeCheckpoint;

    fn on_start(&mut self, ctx: &mut Ctx<'_, '_>) {
        if self.me != self.root {
            ctx.set_timer(self.join_delay, JOIN_TIMER);
            ctx.set_timer(LEASE_CHECK_EVERY, LEASE_TIMER);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, '_>, tag: u64) {
        if tag == LEASE_TIMER {
            self.check_parent_lease(ctx);
            ctx.set_timer(LEASE_CHECK_EVERY, LEASE_TIMER);
            return;
        }
        if (tag == JOIN_TIMER || tag == RETRY_TIMER) && !self.tree.attached {
            ctx.send(self.root, TreeMsg::Join { joiner: self.me });
            ctx.set_timer(RETRY_AFTER, RETRY_TIMER);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, '_>, from: NodeId, msg: TreeMsg) {
        match msg {
            TreeMsg::Join { joiner } => self.handle_join(ctx, from, joiner),
            other => self.handle_accept_or_update(ctx, other),
        }
    }

    fn on_conn_broken(&mut self, ctx: &mut Ctx<'_, '_>, peer: NodeId) {
        self.tree.disown(peer);
        self.last_forward.retain(|_, &mut t| t != peer);
        if self.tree.parent == Some(peer) {
            self.tree.parent = None;
            self.tree.attached = self.me == self.root;
            self.tree.depth = if self.me == self.root { 1 } else { 0 };
            ctx.set_timer(SimDuration::from_millis(500), JOIN_TIMER);
        }
    }

    fn checkpoint(&self, model: &StateModel<TreeCheckpoint>) -> TreeCheckpoint {
        let mut size = 1;
        let mut height = 1;
        for &c in &self.tree.children {
            match model.view(c) {
                NodeView::Known(s) => {
                    size += s.state.subtree_size;
                    height = height.max(1 + s.state.subtree_height);
                }
                NodeView::Generic => {
                    size += 1;
                    height = height.max(2);
                }
            }
        }
        TreeCheckpoint {
            parent: self.tree.parent.map(|p| p.0),
            children: self.tree.children.iter().map(|c| c.0).collect(),
            depth: self.tree.depth,
            subtree_size: size,
            subtree_height: height,
        }
    }

    fn neighbors(&self) -> Vec<NodeId> {
        let mut n = self.tree.children.clone();
        if let Some(p) = self.tree.parent {
            n.push(p);
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_core::resolve::random::RandomResolver;
    use cb_core::runtime::{RuntimeConfig, RuntimeNode};
    use cb_simnet::prelude::SpanKind;
    use cb_simnet::sim::Sim;
    use cb_simnet::time::SimTime;
    use cb_simnet::topology::Topology;

    fn run_join(n: usize, seed: u64) -> Sim<RuntimeNode<BaselineRandTree>> {
        let topo = Topology::star(n, SimDuration::from_millis(10), 50_000_000);
        let mut sim = Sim::new(topo, seed, move |id| {
            let delay = SimDuration::from_millis(200) * (id.0 as u64 + 1);
            RuntimeNode::new(
                BaselineRandTree::new(id, NodeId(0), delay),
                RuntimeConfig::new(Box::new(RandomResolver::new(seed ^ id.0 as u64)))
                    .controller_every(SimDuration::from_millis(500)),
            )
        });
        sim.start_all();
        sim.run_until_quiescent(SimTime::from_secs(120));
        sim
    }

    #[test]
    fn all_nodes_attach() {
        let sim = run_join(15, 11);
        for n in sim.topology().hosts() {
            assert!(
                sim.actor(n).service().tree.attached,
                "node {n} not attached"
            );
        }
    }

    #[test]
    fn tree_is_acyclic_and_rooted() {
        let sim = run_join(15, 12);
        for n in sim.topology().hosts() {
            let mut at = n;
            for _ in 0..20 {
                match sim.actor(at).service().tree.parent {
                    Some(p) => at = p,
                    None => break,
                }
            }
            assert_eq!(at, NodeId(0), "walk from {n} did not reach root");
        }
    }

    #[test]
    fn baseline_makes_no_exposed_choices() {
        let sim = run_join(15, 13);
        for rec in sim.flight_recorders() {
            assert!(
                rec.spans().all(|s| s.kind() != SpanKind::Decision),
                "baseline must not call choose()"
            );
        }
    }

    #[test]
    fn respects_capacity() {
        let sim = run_join(31, 14);
        for n in sim.topology().hosts() {
            let c = sim.actor(n).service().tree.children.len();
            assert!(c <= crate::proto::MAX_CHILDREN, "node {n} has {c} children");
        }
    }

    #[test]
    fn parent_child_links_agree() {
        let sim = run_join(15, 15);
        for n in sim.topology().hosts() {
            if let Some(p) = sim.actor(n).service().tree.parent {
                assert!(sim.actor(p).service().tree.children.contains(&n));
            }
        }
    }
}
