//! The choice-exposed RandTree (the paper's new programming model, §4).
//!
//! Compare with [`crate::baseline`]: the protocol is identical, but the
//! forwarding policy is gone. Where the baseline's monolithic join handler
//! buries a hard-coded strategy in nested conditionals and RNG calls, this
//! implementation consists of several short handlers, and the single real
//! decision — *where to forward a join when full* — is exposed to the
//! runtime as the choice point `"randtree.forward"`. The installed
//! objective ("prioritize building a balanced tree") is expressed as
//! *minimize the predicted attach depth* over the [`JoinDescent`] model.
//!
//! The code-metrics experiment (E1) counts the lines and branching of the
//! regions between the `[handlers:begin]` / `[handlers:end]` markers in
//! this file and the baseline's.

use crate::model::{attach_depth, JState, JoinDescent};
use crate::proto::{
    TreeCheckpoint, TreeMsg, TreeState, JOIN_TIMER, LEASE_CHECK_EVERY, LEASE_TIMEOUT, LEASE_TIMER,
    RETRY_TIMER,
};
use cb_core::choice::{ContextKey, OptionDesc};
use cb_core::model::state::NodeView;
use cb_core::objective::ObjectiveSet;
use cb_core::predict::{ModelEvaluator, PredictConfig};
use cb_core::runtime::{Service, ServiceCtx};
use cb_simnet::time::{SimDuration, SimTime};
use cb_simnet::topology::NodeId;
use std::collections::BTreeMap;

/// The service context type of both RandTree implementations.
type Ctx<'a, 'b> = ServiceCtx<'a, 'b, TreeMsg, TreeCheckpoint>;

/// How long a joiner waits before retrying an unanswered join.
const RETRY_AFTER: SimDuration = SimDuration::from_secs(8);

/// The choice-exposed RandTree service.
pub struct ChoiceRandTree {
    me: NodeId,
    root: NodeId,
    join_delay: SimDuration,
    /// Tree membership.
    pub tree: TreeState,
    objectives: ObjectiveSet<JState>,
    predict: PredictConfig,
    /// Joins this node forwarded (for experiment accounting).
    pub forwarded: u64,
    /// Joins this node adopted.
    pub adopted: u64,
    /// When the current attachment was established (lease baseline).
    attached_at: SimTime,
    /// Attachment leases that expired and forced a rejoin.
    pub lease_expired: u64,
}

impl ChoiceRandTree {
    /// Creates the service for node `me`; non-root nodes start their join
    /// `join_delay` after the node starts.
    pub fn new(me: NodeId, root: NodeId, join_delay: SimDuration) -> Self {
        ChoiceRandTree {
            me,
            root,
            join_delay,
            tree: TreeState::new(me, root),
            objectives: ObjectiveSet::new()
                .minimize("attach depth", 1.0, |s: &JState| attach_depth(s) as f64),
            predict: PredictConfig {
                depth: 8,
                walks: 16,
                ..Default::default()
            },
            forwarded: 0,
            adopted: 0,
            attached_at: SimTime::ZERO,
            lease_expired: 0,
        }
    }

    /// Overrides the prediction budget used when the resolver evaluates
    /// forwarding options (the A1 ablation sweeps this).
    pub fn with_predict_config(mut self, predict: PredictConfig) -> Self {
        self.predict = predict;
        self
    }

    /// Collects the known checkpoints (neighbors plus self) for the
    /// join-descent model.
    fn known_map(&self, ctx: &Ctx<'_, '_>) -> BTreeMap<u32, TreeCheckpoint> {
        let mut known: BTreeMap<u32, TreeCheckpoint> = ctx
            .state_model()
            .known()
            .filter_map(|n| match ctx.state_model().view(n) {
                NodeView::Known(s) => Some((n.0, s.state.clone())),
                NodeView::Generic => None,
            })
            .collect();
        known.insert(self.me.0, self.local_checkpoint(ctx.state_model()));
        known
    }

    /// Checkpoint with subtree aggregates folded in from the children's
    /// latest reports.
    fn local_checkpoint(
        &self,
        model: &cb_core::model::state::StateModel<TreeCheckpoint>,
    ) -> TreeCheckpoint {
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

    // [handlers:begin]

    /// Handler: a join request while this node has spare capacity — adopt.
    fn handle_join_adopt(&mut self, ctx: &mut Ctx<'_, '_>, joiner: NodeId) {
        self.tree.adopt(joiner);
        self.adopted += 1;
        ctx.send(
            joiner,
            TreeMsg::JoinAccepted {
                parent: self.me,
                depth: self.tree.depth + 1,
            },
        );
    }

    /// Handler: a join request while full — forward it. The target is an
    /// exposed choice; the runtime resolves it against the balanced-tree
    /// objective.
    fn handle_join_forward(&mut self, ctx: &mut Ctx<'_, '_>, joiner: NodeId) {
        let candidates: Vec<NodeId> = self.tree.children.clone();
        let known = self.known_map(ctx);
        let my_depth = self.tree.depth;
        let options: Vec<OptionDesc> = candidates
            .iter()
            .map(|c| {
                let (h, s) = match known.get(&c.0) {
                    Some(ck) => (ck.subtree_height as f64, ck.subtree_size as f64),
                    None => (1.0, 1.0),
                };
                OptionDesc::peer(*c, vec![h, s])
            })
            .collect();
        let rng = ctx.rng().fork();
        let mut eval = ModelEvaluator::new(
            |i| JoinDescent {
                known: known.clone(),
                start: candidates[i].0,
                start_depth: my_depth + 1,
                start_height: known
                    .get(&candidates[i].0)
                    .map_or(1, |ck| ck.subtree_height),
            },
            &self.objectives,
            self.predict.clone(),
            rng,
        );
        let context = ContextKey(candidates.len() as u64);
        let idx = ctx.choose_with("randtree.forward", context, &options, &mut eval);
        self.forwarded += 1;
        ctx.send(candidates[idx], TreeMsg::Join { joiner });
    }

    /// Handler: the join answer — record the attachment.
    fn handle_join_accepted(&mut self, ctx: &mut Ctx<'_, '_>, parent: NodeId, depth: u32) {
        self.tree.parent = Some(parent);
        self.tree.depth = depth;
        self.tree.attached = true;
        self.attached_at = ctx.now();
    }

    /// Handler: an ancestor moved — adjust depth and tell the children.
    fn handle_depth_update(&mut self, ctx: &mut Ctx<'_, '_>, depth: u32) {
        self.tree.depth = depth;
        let children = self.tree.children.iter().copied();
        ctx.multicast(children, TreeMsg::DepthUpdate { depth: depth + 1 });
    }

    // [handlers:end]

    /// The child-side attachment lease (gray-failure repair).
    ///
    /// A live parent checkpoints to each child every controller cycle, so
    /// a healthy parent link keeps this node's model view of the parent
    /// fresh. When that view goes stale past
    /// [`LEASE_TIMEOUT`](crate::proto::LEASE_TIMEOUT) the link died in a
    /// way the transport never told us about — e.g. the break
    /// notification was lost to a partition window, superseded by a later
    /// reconnect, or this node was stalled across the whole incident. The
    /// parent has long since disowned us; rejoining restores mutual
    /// parent/child consistency.
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

impl Service for ChoiceRandTree {
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

    fn on_message(&mut self, ctx: &mut Ctx<'_, '_>, _from: NodeId, msg: TreeMsg) {
        match msg {
            TreeMsg::Join { joiner } if joiner == self.me || !self.tree.attached => {}
            TreeMsg::Join { joiner } if self.tree.children.contains(&joiner) => {
                // Duplicate (retry overtook the answer): re-answer.
                let depth = self.tree.depth + 1;
                ctx.send(
                    joiner,
                    TreeMsg::JoinAccepted {
                        parent: self.me,
                        depth,
                    },
                );
            }
            TreeMsg::Join { joiner } if self.tree.has_capacity() => {
                self.handle_join_adopt(ctx, joiner);
            }
            TreeMsg::Join { joiner } => self.handle_join_forward(ctx, joiner),
            TreeMsg::JoinAccepted { parent, depth } => {
                self.handle_join_accepted(ctx, parent, depth);
            }
            TreeMsg::DepthUpdate { depth } => self.handle_depth_update(ctx, depth),
        }
    }

    fn on_conn_broken(&mut self, ctx: &mut Ctx<'_, '_>, peer: NodeId) {
        self.tree.disown(peer);
        if self.tree.parent == Some(peer) {
            self.tree.parent = None;
            self.tree.attached = self.me == self.root;
            self.tree.depth = if self.me == self.root { 1 } else { 0 };
            ctx.set_timer(SimDuration::from_millis(500), JOIN_TIMER);
        }
    }

    fn checkpoint(
        &self,
        model: &cb_core::model::state::StateModel<TreeCheckpoint>,
    ) -> TreeCheckpoint {
        self.local_checkpoint(model)
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
    use cb_simnet::prelude::{Span, SpanKind};
    use cb_simnet::sim::Sim;
    use cb_simnet::time::SimTime;
    use cb_simnet::topology::Topology;

    /// Every node's retained `Decision` spans.
    fn decision_spans<S: Service>(sim: &Sim<RuntimeNode<S>>) -> Vec<Span> {
        sim.flight_recorders()
            .iter()
            .flat_map(|rec| rec.spans())
            .filter(|s| s.kind() == SpanKind::Decision)
            .map(|s| s.render(&[]))
            .collect()
    }

    fn run_join(n: usize, seed: u64) -> Sim<RuntimeNode<ChoiceRandTree>> {
        let topo = Topology::star(n, SimDuration::from_millis(10), 50_000_000);
        let mut sim = Sim::new(topo, seed, move |id| {
            let delay = SimDuration::from_millis(200) * (id.0 as u64 + 1);
            RuntimeNode::new(
                ChoiceRandTree::new(id, NodeId(0), delay),
                RuntimeConfig::new(Box::new(RandomResolver::new(seed ^ id.0 as u64)))
                    .controller_every(SimDuration::from_millis(500)),
            )
        });
        sim.start_all();
        sim.run_until_quiescent(SimTime::from_secs(120));
        sim
    }

    #[test]
    fn seven_nodes_all_attach() {
        let sim = run_join(7, 3);
        for n in sim.topology().hosts() {
            let t = &sim.actor(n).service().tree;
            assert!(t.attached, "node {n} not attached: {t:?}");
        }
        // Exactly n-1 adoptions happened.
        let adopted: u64 = sim
            .topology()
            .hosts()
            .map(|n| sim.actor(n).service().adopted)
            .sum();
        assert_eq!(adopted, 6);
    }

    #[test]
    fn tree_is_acyclic_and_rooted() {
        let sim = run_join(15, 4);
        for n in sim.topology().hosts() {
            // Walk to the root; must terminate well within n steps.
            let mut at = n;
            for _ in 0..20 {
                match sim.actor(at).service().tree.parent {
                    Some(p) => at = p,
                    None => break,
                }
            }
            assert_eq!(at, NodeId(0), "walk from {n} did not reach the root");
        }
    }

    #[test]
    fn parent_child_links_agree() {
        let sim = run_join(15, 5);
        for n in sim.topology().hosts() {
            if let Some(p) = sim.actor(n).service().tree.parent {
                assert!(
                    sim.actor(p).service().tree.children.contains(&n),
                    "{p} does not know child {n}"
                );
            }
        }
    }

    #[test]
    fn depths_are_consistent_with_parents() {
        let sim = run_join(15, 6);
        for n in sim.topology().hosts() {
            let svc = sim.actor(n).service();
            if let Some(p) = svc.tree.parent {
                let pd = sim.actor(p).service().tree.depth;
                assert_eq!(svc.tree.depth, pd + 1, "depth of {n} vs parent {p}");
            }
        }
    }

    #[test]
    fn forwarding_makes_choices() {
        let sim = run_join(15, 7);
        let decisions = decision_spans(&sim);
        assert!(
            !decisions.is_empty(),
            "a 15-node join must forward at least once"
        );
        // Every decision came from the single exposed choice point.
        for d in &decisions {
            assert_eq!(d.attr("choice"), Some("randtree.forward"));
        }
    }

    #[test]
    fn crystalball_decisions_carry_predictions() {
        use cb_core::resolve::lookahead::LookaheadResolver;
        let topo = Topology::star(15, SimDuration::from_millis(10), 50_000_000);
        let mut sim = Sim::new(topo, 9, move |id| {
            let delay = SimDuration::from_millis(200) * (id.0 as u64 + 1);
            RuntimeNode::new(
                ChoiceRandTree::new(id, NodeId(0), delay),
                RuntimeConfig::new(Box::new(LookaheadResolver::new()))
                    .controller_every(SimDuration::from_millis(500)),
            )
        });
        sim.start_all();
        sim.run_until_quiescent(SimTime::from_secs(120));
        // A decision carries its prediction as the chosen option's
        // `opt{i}.objective`.
        let with_predictions = decision_spans(&sim)
            .iter()
            .filter(|d| {
                let chosen = d.attr("chosen").expect("every decision names its pick");
                d.attr(&format!("opt{chosen}.objective")).is_some()
            })
            .count();
        assert!(
            with_predictions > 0,
            "lookahead decisions must log their predictions"
        );
    }

    #[test]
    fn checkpoint_aggregates_children() {
        let sim = run_join(7, 8);
        let root = sim.actor(NodeId(0));
        let ck = root.service().local_checkpoint(root.state_model());
        assert!(
            ck.subtree_size >= 3,
            "root sees subtree of {}",
            ck.subtree_size
        );
        assert!(ck.subtree_height >= 2);
    }
}
