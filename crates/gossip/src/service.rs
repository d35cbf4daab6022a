//! Epidemic dissemination with an exposed peer choice.
//!
//! Gossip is the paper's first motivating example (§3.1): every round each
//! node picks a partner and pushes the rumors it knows. *Which partner* is
//! the whole game:
//!
//! * [`PeerStrategy::Restricted`] — BAR Gossip's verifiable pseudo-random
//!   partner: exactly one partner per round, derived from the round number
//!   over the full membership. Robust to view manipulation by Byzantine
//!   nodes, but blind to performance (the partner may sit behind a slow
//!   uplink).
//! * [`PeerStrategy::FreeRandom`] — uniform over the node's *view*, the
//!   classic epidemic choice. Fast when the view is honest, vulnerable to
//!   **view pollution**: Byzantine nodes advertise themselves aggressively
//!   and soak up rounds.
//! * [`PeerStrategy::Resolved`] — the paper's model: the choice is exposed
//!   (`"gossip.peer"`) with per-peer features (estimated latency from the
//!   runtime's network model; observed usefulness), and the configured
//!   resolver — typically a learned bandit — picks. Feedback closes the
//!   loop from round outcomes.
//!
//! Byzantine behavior modelled: accept rumors, never push them, and
//! aggressively advertise Byzantine ids into honest views.

use cb_core::choice::{ContextKey, OptionDesc};
use cb_core::model::state::StateModel;
use cb_core::runtime::{Service, ServiceCtx};
use cb_mck::hash::fingerprint;
use cb_simnet::time::{SimDuration, SimTime};
use cb_simnet::topology::NodeId;
use std::collections::HashMap;

/// The gossip round timer tag.
pub const ROUND_TIMER: u64 = 1;

/// Rumor payload size in bytes (a content chunk).
pub const RUMOR_BYTES: u32 = 8_192;

/// Maximum entries in the advertisement-weighted view.
const VIEW_CAP: usize = 64;

/// How a node picks its gossip partner each round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PeerStrategy {
    /// One deterministic pseudo-random partner per round (BAR Gossip).
    Restricted,
    /// Uniform over the (pollutable) view.
    FreeRandom,
    /// Exposed choice resolved by the runtime.
    Resolved,
}

impl PeerStrategy {
    /// Label for experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            PeerStrategy::Restricted => "Restricted",
            PeerStrategy::FreeRandom => "FreeRandom",
            PeerStrategy::Resolved => "Runtime-Resolved",
        }
    }
}

/// Gossip protocol messages.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum GossipMsg {
    /// Push the listed rumor ids (payload priced by count × RUMOR_BYTES).
    Push {
        /// Rumor identifiers.
        rumors: Vec<u32>,
    },
    /// Partner's receipt: how many pushed rumors were new to it.
    Ack {
        /// Newly accepted rumor count.
        accepted: u32,
    },
    /// Membership advertisement (Byzantine nodes pollute with this).
    Advert {
        /// Advertised node ids.
        ids: Vec<u32>,
    },
}

/// Compact checkpoint: rumor count and view size.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct GossipCheckpoint {
    /// Rumors known.
    pub rumors: u32,
    /// View entries.
    pub view: u32,
}

/// A gossip participant.
pub struct GossipNode {
    me: NodeId,
    n: usize,
    strategy: PeerStrategy,
    /// True when this node behaves Byzantine (absorb, never push, pollute).
    pub byzantine: bool,
    round_period: SimDuration,
    /// Rumor id -> local arrival time.
    pub received: HashMap<u32, SimTime>,
    /// Advertisement-weighted view (a multiset; duplicates = weight).
    view: Vec<NodeId>,
    /// Ids already pushed to each peer (suppresses re-sends).
    sent_to: HashMap<NodeId, Vec<u32>>,
    /// Observed usefulness per peer: (useful rounds, total rounds).
    usefulness: HashMap<NodeId, (u32, u32)>,
    /// Partner of the last round and when it was contacted.
    pending_partner: Option<(NodeId, SimTime)>,
    round: u64,
    /// Rumors this node originates at start (the source sets this > 0).
    pub publish_count: u32,
}

impl GossipNode {
    /// Creates a node. `n` is the full membership size (assumed known, as
    /// BAR Gossip does).
    pub fn new(
        me: NodeId,
        n: usize,
        strategy: PeerStrategy,
        byzantine: bool,
        round_period: SimDuration,
    ) -> Self {
        GossipNode {
            me,
            n,
            strategy,
            byzantine,
            round_period,
            received: HashMap::new(),
            view: Vec::new(),
            sent_to: HashMap::new(),
            usefulness: HashMap::new(),
            pending_partner: None,
            round: 0,
            publish_count: 0,
        }
    }

    /// All rumor ids this node knows, sorted.
    pub fn known_rumors(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.received.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    fn restricted_partner(&self) -> NodeId {
        // Verifiable pseudo-random schedule over the full membership.
        let h = fingerprint(&(self.me.0, self.round));
        let mut pick = (h % self.n as u64) as u32;
        if pick == self.me.0 {
            pick = (pick + 1) % self.n as u32;
        }
        NodeId(pick)
    }

    fn view_candidates(&self) -> Vec<NodeId> {
        let mut c: Vec<NodeId> = self
            .view
            .iter()
            .copied()
            .filter(|&p| p != self.me)
            .collect();
        if c.is_empty() {
            // Bootstrap: everyone knows the source.
            c.push(NodeId(0));
        }
        c
    }

    fn pick_partner(
        &mut self,
        ctx: &mut ServiceCtx<'_, '_, GossipMsg, GossipCheckpoint>,
    ) -> NodeId {
        match self.strategy {
            PeerStrategy::Restricted => self.restricted_partner(),
            PeerStrategy::FreeRandom => {
                let c = self.view_candidates();
                *ctx.rng().choose(&c).expect("candidates never empty")
            }
            PeerStrategy::Resolved => {
                // A small random candidate sample keeps epidemic breadth;
                // the resolver then avoids the slow/Byzantine ones among
                // them using the network model and observed usefulness.
                let mut distinct: Vec<NodeId> = self.view_candidates();
                distinct.sort_unstable();
                distinct.dedup();
                // Random order: scoring ties must not favor low ids, or
                // the epidemic clusters on a few hot nodes.
                ctx.rng().shuffle(&mut distinct);
                distinct.truncate(6);
                let now = ctx.now();
                let options: Vec<OptionDesc> = distinct
                    .iter()
                    .map(|&p| {
                        let latency_ms = ctx
                            .net_model()
                            .predicted_latency(p, now)
                            .map_or(50.0, |(l, _)| l.as_millis_f64());
                        let (useful, total) = self.usefulness.get(&p).copied().unwrap_or((0, 0));
                        let use_rate = if total == 0 {
                            0.5
                        } else {
                            useful as f64 / total as f64
                        };
                        OptionDesc::peer(p, vec![latency_ms, use_rate])
                    })
                    .collect();
                let i = ctx.choose("gossip.peer", ContextKey::default(), &options);
                distinct[i]
            }
        }
    }

    fn run_round(&mut self, ctx: &mut ServiceCtx<'_, '_, GossipMsg, GossipCheckpoint>) {
        self.round += 1;
        if self.byzantine {
            // Pollute two random honest views with Byzantine ids.
            for _ in 0..2 {
                let t = NodeId(ctx.rng().gen_below(self.n as u64) as u32);
                if t != self.me {
                    ctx.send(
                        t,
                        GossipMsg::Advert {
                            ids: vec![self.me.0],
                        },
                    );
                }
            }
            return;
        }
        let partner = self.pick_partner(ctx);
        // Count the round for usefulness even if nothing is pushed; an ack
        // marks it useful.
        let entry = self.usefulness.entry(partner).or_insert((0, 0));
        entry.1 += 1;
        self.pending_partner = Some((partner, ctx.now()));
        let sent = self.sent_to.entry(partner).or_default();
        let mut fresh: Vec<u32> = self
            .received
            .keys()
            .copied()
            .filter(|id| !sent.contains(id))
            .collect();
        // HashMap iteration order is nondeterministic; the payload order
        // ends up in the trace, which must be a pure function of the seed.
        fresh.sort_unstable();
        if !fresh.is_empty() {
            sent.extend(fresh.iter().copied());
            let bytes = RUMOR_BYTES.saturating_mul(fresh.len() as u32);
            ctx.send_sized(partner, GossipMsg::Push { rumors: fresh }, bytes);
        }
        // Honest membership advertisement: one random view entry + self.
        let mut ids = vec![self.me.0];
        if let Some(&p) = ctx.rng().choose(&self.view) {
            ids.push(p.0);
        }
        let t = NodeId(ctx.rng().gen_below(self.n as u64) as u32);
        if t != self.me {
            ctx.send(t, GossipMsg::Advert { ids });
        }
    }

    fn admit_view(&mut self, ids: &[u32]) {
        for &id in ids {
            if id as usize >= self.n || id == self.me.0 {
                continue;
            }
            if self.view.len() >= VIEW_CAP {
                self.view.remove(0);
            }
            self.view.push(NodeId(id));
        }
    }
}

impl Service for GossipNode {
    type Msg = GossipMsg;
    type Checkpoint = GossipCheckpoint;

    fn on_start(&mut self, ctx: &mut ServiceCtx<'_, '_, GossipMsg, GossipCheckpoint>) {
        // Seed the view with a few random members.
        let n = self.n;
        for _ in 0..4 {
            let p = NodeId(ctx.rng().gen_below(n as u64) as u32);
            if p != self.me {
                self.view.push(p);
            }
        }
        for r in 0..self.publish_count {
            self.received.insert(r, ctx.now());
        }
        let jitter =
            SimDuration::from_nanos(ctx.rng().gen_below(self.round_period.as_nanos().max(1)));
        ctx.set_timer(self.round_period + jitter, ROUND_TIMER);
    }

    fn on_timer(&mut self, ctx: &mut ServiceCtx<'_, '_, GossipMsg, GossipCheckpoint>, tag: u64) {
        if tag == ROUND_TIMER {
            self.run_round(ctx);
            ctx.set_timer(self.round_period, ROUND_TIMER);
        }
    }

    fn on_message(
        &mut self,
        ctx: &mut ServiceCtx<'_, '_, GossipMsg, GossipCheckpoint>,
        from: NodeId,
        msg: GossipMsg,
    ) {
        match msg {
            GossipMsg::Push { rumors } => {
                let mut accepted = 0;
                let now = ctx.now();
                for id in rumors {
                    if self.received.try_insert_time(id, now) {
                        accepted += 1;
                    }
                    // The sender evidently has it: no need to push back.
                    self.sent_to.entry(from).or_default().push(id);
                }
                ctx.send(from, GossipMsg::Ack { accepted });
                self.admit_view(&[from.0]);
            }
            GossipMsg::Ack { accepted } => {
                if let Some((partner, started)) = self.pending_partner.take() {
                    if partner != from {
                        self.pending_partner = Some((partner, started));
                    } else {
                        if accepted > 0 {
                            self.usefulness.entry(from).or_insert((0, 0)).0 += 1;
                        }
                        if self.strategy == PeerStrategy::Resolved {
                            // Close the learning loop: useful rounds pay, and
                            // pay more when the exchange finished quickly
                            // (slow partners earn fractional rewards).
                            let elapsed = ctx.now().saturating_since(started).as_secs_f64();
                            let reward = if accepted > 0 {
                                0.3 / (0.3 + elapsed)
                            } else {
                                0.0
                            };
                            ctx.feedback(
                                "gossip.peer",
                                ContextKey::default(),
                                from.0 as u64,
                                reward,
                            );
                        }
                    }
                }
            }
            GossipMsg::Advert { ids } => self.admit_view(&ids),
        }
    }

    fn on_conn_broken(
        &mut self,
        _ctx: &mut ServiceCtx<'_, '_, GossipMsg, GossipCheckpoint>,
        peer: NodeId,
    ) {
        // A broken connection usually means the peer crashed; it restarts
        // with an empty rumor store. Forget what we have pushed to it so
        // future rounds that land on it re-send everything — otherwise the
        // `sent_to` suppression starves a restarted node forever.
        self.sent_to.remove(&peer);
        if let Some((partner, _)) = self.pending_partner {
            if partner == peer {
                self.pending_partner = None;
            }
        }
    }

    fn checkpoint(&self, _model: &StateModel<GossipCheckpoint>) -> GossipCheckpoint {
        GossipCheckpoint {
            rumors: self.received.len() as u32,
            view: self.view.len() as u32,
        }
    }

    fn neighbors(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.view.to_vec();
        v.sort_unstable();
        v.dedup();
        v.truncate(4);
        v
    }
}

/// Small extension trait so rumor insertion reads naturally above.
trait TryInsertTime {
    fn try_insert_time(&mut self, id: u32, at: SimTime) -> bool;
}

impl TryInsertTime for HashMap<u32, SimTime> {
    fn try_insert_time(&mut self, id: u32, at: SimTime) -> bool {
        use std::collections::hash_map::Entry;
        match self.entry(id) {
            Entry::Occupied(_) => false,
            Entry::Vacant(v) => {
                v.insert(at);
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restricted_partner_is_deterministic_and_not_self() {
        let mut a = GossipNode::new(
            NodeId(3),
            16,
            PeerStrategy::Restricted,
            false,
            SimDuration::from_millis(500),
        );
        a.round = 7;
        let p1 = a.restricted_partner();
        let p2 = a.restricted_partner();
        assert_eq!(p1, p2);
        assert_ne!(p1, NodeId(3));
        a.round = 8;
        // A different round (almost surely) yields a different partner.
        let p3 = a.restricted_partner();
        assert!(p3.0 < 16);
    }

    #[test]
    fn view_is_capped_and_excludes_self() {
        let mut a = GossipNode::new(
            NodeId(0),
            200,
            PeerStrategy::FreeRandom,
            false,
            SimDuration::from_millis(500),
        );
        let ids: Vec<u32> = (1..150).collect();
        a.admit_view(&ids);
        assert!(a.view.len() <= VIEW_CAP);
        a.admit_view(&[0]); // self: ignored
        assert!(!a.view.contains(&NodeId(0)));
        a.admit_view(&[9999]); // out of range: ignored
        assert!(!a.view.contains(&NodeId(9999)));
    }

    #[test]
    fn known_rumors_sorted() {
        let mut a = GossipNode::new(
            NodeId(0),
            4,
            PeerStrategy::FreeRandom,
            false,
            SimDuration::from_millis(500),
        );
        a.received.insert(5, SimTime::ZERO);
        a.received.insert(1, SimTime::ZERO);
        assert_eq!(a.known_rumors(), vec![1, 5]);
    }
}
