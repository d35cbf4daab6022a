//! Swarming content distribution with an exposed block-selection choice.
//!
//! The BulletPrime/BitTorrent example of §3.1: peers download a file of
//! blocks from each other, maintaining **file maps** (which peer has which
//! block — the paper's example of state the service exports to the model)
//! and choosing which block to request next:
//!
//! * [`BlockStrategy::Random`] — uniform over the blocks the peer has and
//!   we lack (BitTorrent's opening strategy).
//! * [`BlockStrategy::RarestRandom`] — uniform over the *rarest* such
//!   blocks, by observed availability (BulletPrime's choice).
//! * [`BlockStrategy::Resolved`] — the decision "which strategy applies
//!   right now" is exposed to the runtime (`"dissem.block-strategy"`) with
//!   the download phase as the scenario context, and learned from block
//!   arrival feedback — replacing BitTorrent's "ad-hoc mechanism to make a
//!   one-time switch from one to the other".

use cb_core::choice::{ContextKey, OptionDesc};
use cb_core::model::state::StateModel;
use cb_core::runtime::{Service, ServiceCtx};
use cb_simnet::time::{SimDuration, SimTime};
use cb_simnet::topology::NodeId;
use std::collections::{HashMap, HashSet};

/// Block payload size in bytes.
pub const BLOCK_BYTES: u32 = 65_536;

/// Request-loop timer tag.
pub const REQUEST_TIMER: u64 = 1;

/// Pending-request timeout sweep tag.
pub const SWEEP_TIMER: u64 = 2;

/// Maximum outstanding block requests per downloader.
const MAX_IN_FLIGHT: usize = 4;

/// Re-request blocks pending longer than this.
const REQUEST_TIMEOUT: SimDuration = SimDuration::from_secs(6);

/// Option keys for the exposed strategy choice.
const KEY_RANDOM: u64 = 0;
const KEY_RAREST: u64 = 1;

/// How the next block to request from a peer is picked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockStrategy {
    /// Uniform over missing blocks the peer offers.
    Random,
    /// Uniform over the rarest missing blocks the peer offers.
    RarestRandom,
    /// Strategy exposed as a runtime choice with phase context.
    Resolved,
}

impl BlockStrategy {
    /// Label for experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            BlockStrategy::Random => "Random",
            BlockStrategy::RarestRandom => "Rarest-Random",
            BlockStrategy::Resolved => "Runtime-Resolved",
        }
    }
}

/// Swarm protocol messages.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum SwarmMsg {
    /// Full file map announcement (sent on start to each neighbor).
    Bitmap {
        /// Blocks the sender holds.
        blocks: Vec<u32>,
    },
    /// Incremental map update: the sender acquired one block.
    Have {
        /// The acquired block.
        block: u32,
    },
    /// Ask the peer for a block.
    Request {
        /// The wanted block.
        block: u32,
    },
    /// A block payload (priced at [`BLOCK_BYTES`]).
    Data {
        /// The block id.
        block: u32,
    },
}

/// Checkpoint: completion summary.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SwarmCheckpoint {
    /// Blocks held.
    pub blocks: u32,
    /// Total blocks in the file.
    pub total: u32,
}

/// A swarm participant.
pub struct SwarmNode {
    me: NodeId,
    /// Total blocks in the file.
    pub total_blocks: u32,
    strategy: BlockStrategy,
    /// Neighbor set handed out by the tracker.
    pub neighbors: Vec<NodeId>,
    /// Blocks held, with arrival times.
    pub have: HashMap<u32, SimTime>,
    /// File maps of peers (the exported state model of §3.3.1).
    pub peer_maps: HashMap<NodeId, HashSet<u32>>,
    /// Outstanding requests: block -> (peer, when, strategy key used).
    in_flight: HashMap<u32, (NodeId, SimTime, u64)>,
    /// When this node completed the file.
    pub completed_at: Option<SimTime>,
    /// Payload bytes received from another domain (ISP transit cost).
    pub transit_bytes_in: u64,
    /// Duplicate data receipts (wasted bandwidth).
    pub duplicate_blocks: u64,
    request_period: SimDuration,
}

impl SwarmNode {
    /// Creates a participant; the seed passes `seeded = true`.
    pub fn new(
        me: NodeId,
        total_blocks: u32,
        strategy: BlockStrategy,
        neighbors: Vec<NodeId>,
        seeded: bool,
        request_period: SimDuration,
    ) -> Self {
        let mut have = HashMap::new();
        if seeded {
            for b in 0..total_blocks {
                have.insert(b, SimTime::ZERO);
            }
        }
        SwarmNode {
            me,
            total_blocks,
            strategy,
            neighbors,
            have,
            peer_maps: HashMap::new(),
            in_flight: HashMap::new(),
            completed_at: None,
            transit_bytes_in: 0,
            duplicate_blocks: 0,
            request_period,
        }
    }

    /// True when every block is held.
    pub fn complete(&self) -> bool {
        self.have.len() as u32 >= self.total_blocks
    }

    /// Observed availability of `block` across known peer maps (plus self).
    fn availability(&self, block: u32) -> u32 {
        let peers = self
            .peer_maps
            .values()
            .filter(|m| m.contains(&block))
            .count() as u32;
        peers + u32::from(self.have.contains_key(&block))
    }

    /// Candidate blocks requestable from `peer` right now.
    fn candidates(&self, peer: NodeId) -> Vec<u32> {
        let Some(map) = self.peer_maps.get(&peer) else {
            return Vec::new();
        };
        let mut c: Vec<u32> = map
            .iter()
            .copied()
            .filter(|b| !self.have.contains_key(b) && !self.in_flight.contains_key(b))
            .collect();
        c.sort_unstable();
        c
    }

    fn pick_random(
        &self,
        ctx: &mut ServiceCtx<'_, '_, SwarmMsg, SwarmCheckpoint>,
        cands: &[u32],
    ) -> u32 {
        cands[ctx.rng().gen_index(cands.len())]
    }

    fn pick_rarest(
        &self,
        ctx: &mut ServiceCtx<'_, '_, SwarmMsg, SwarmCheckpoint>,
        cands: &[u32],
    ) -> u32 {
        let min_avail = cands
            .iter()
            .map(|&b| self.availability(b))
            .min()
            .expect("nonempty candidates");
        let rare: Vec<u32> = cands
            .iter()
            .copied()
            .filter(|&b| self.availability(b) == min_avail)
            .collect();
        rare[ctx.rng().gen_index(rare.len())]
    }

    /// The download phase used as the learned resolver's context: 0 while
    /// under half done, 1 after.
    fn phase(&self) -> ContextKey {
        ContextKey(u64::from(self.have.len() as u32 * 2 >= self.total_blocks))
    }

    fn pick_block(
        &mut self,
        ctx: &mut ServiceCtx<'_, '_, SwarmMsg, SwarmCheckpoint>,
        cands: &[u32],
    ) -> (u32, u64) {
        match self.strategy {
            BlockStrategy::Random => (self.pick_random(ctx, cands), KEY_RANDOM),
            BlockStrategy::RarestRandom => (self.pick_rarest(ctx, cands), KEY_RAREST),
            BlockStrategy::Resolved => {
                let options = [OptionDesc::key(KEY_RANDOM), OptionDesc::key(KEY_RAREST)];
                let i = ctx.choose("dissem.block-strategy", self.phase(), &options);
                if options[i].key == KEY_RAREST {
                    (self.pick_rarest(ctx, cands), KEY_RAREST)
                } else {
                    (self.pick_random(ctx, cands), KEY_RANDOM)
                }
            }
        }
    }

    fn issue_requests(&mut self, ctx: &mut ServiceCtx<'_, '_, SwarmMsg, SwarmCheckpoint>) {
        if self.complete() {
            return;
        }
        // Visit neighbors in a rotating order for fairness.
        let mut order = self.neighbors.clone();
        let rot = ctx.rng().gen_index(order.len().max(1));
        order.rotate_left(rot);
        for peer in order {
            if self.in_flight.len() >= MAX_IN_FLIGHT {
                break;
            }
            // One outstanding request per peer.
            if self.in_flight.values().any(|(p, _, _)| *p == peer) {
                continue;
            }
            let cands = self.candidates(peer);
            if cands.is_empty() {
                continue;
            }
            let (block, skey) = self.pick_block(ctx, &cands);
            self.in_flight.insert(block, (peer, ctx.now(), skey));
            ctx.send(peer, SwarmMsg::Request { block });
        }
    }

    fn sweep_timeouts(&mut self, ctx: &mut ServiceCtx<'_, '_, SwarmMsg, SwarmCheckpoint>) {
        let now = ctx.now();
        let expired: Vec<u32> = self
            .in_flight
            .iter()
            .filter(|(_, (_, at, _))| now.saturating_since(*at) > REQUEST_TIMEOUT)
            .map(|(&b, _)| b)
            .collect();
        for b in expired {
            let (_, _, skey) = self.in_flight.remove(&b).expect("present");
            if self.strategy == BlockStrategy::Resolved {
                // A timed-out request is the negative signal.
                ctx.feedback("dissem.block-strategy", self.phase(), skey, 0.0);
            }
        }
    }
}

impl Service for SwarmNode {
    type Msg = SwarmMsg;
    type Checkpoint = SwarmCheckpoint;

    fn on_start(&mut self, ctx: &mut ServiceCtx<'_, '_, SwarmMsg, SwarmCheckpoint>) {
        let blocks = {
            let mut b: Vec<u32> = self.have.keys().copied().collect();
            b.sort_unstable();
            b
        };
        ctx.multicast(self.neighbors.iter().copied(), SwarmMsg::Bitmap { blocks });
        if self.complete() {
            self.completed_at = Some(ctx.now());
        }
        let jitter =
            SimDuration::from_nanos(ctx.rng().gen_below(self.request_period.as_nanos().max(1)));
        ctx.set_timer(self.request_period + jitter, REQUEST_TIMER);
        ctx.set_timer(SimDuration::from_secs(2), SWEEP_TIMER);
    }

    fn on_timer(&mut self, ctx: &mut ServiceCtx<'_, '_, SwarmMsg, SwarmCheckpoint>, tag: u64) {
        match tag {
            REQUEST_TIMER => {
                self.issue_requests(ctx);
                if !self.complete() {
                    ctx.set_timer(self.request_period, REQUEST_TIMER);
                }
            }
            SWEEP_TIMER => {
                self.sweep_timeouts(ctx);
                if !self.complete() {
                    ctx.set_timer(SimDuration::from_secs(2), SWEEP_TIMER);
                }
            }
            _ => {}
        }
    }

    fn on_message(
        &mut self,
        ctx: &mut ServiceCtx<'_, '_, SwarmMsg, SwarmCheckpoint>,
        from: NodeId,
        msg: SwarmMsg,
    ) {
        match msg {
            SwarmMsg::Bitmap { blocks } => {
                // Connections are bidirectional: adopt reverse neighbors and
                // answer first contact with our own map, so a peer that the
                // tracker pointed at us can request from us and vice versa.
                let first_contact = !self.peer_maps.contains_key(&from);
                self.peer_maps.entry(from).or_default().extend(blocks);
                if !self.neighbors.contains(&from) {
                    self.neighbors.push(from);
                }
                if first_contact {
                    let mut mine: Vec<u32> = self.have.keys().copied().collect();
                    mine.sort_unstable();
                    ctx.send(from, SwarmMsg::Bitmap { blocks: mine });
                }
            }
            SwarmMsg::Have { block } => {
                self.peer_maps.entry(from).or_default().insert(block);
            }
            SwarmMsg::Request { block } => {
                if self.have.contains_key(&block) {
                    ctx.send_sized(from, SwarmMsg::Data { block }, BLOCK_BYTES);
                }
            }
            SwarmMsg::Data { block } => {
                if ctx.domain(from) != ctx.domain(self.me) {
                    self.transit_bytes_in += BLOCK_BYTES as u64;
                }
                if self.have.contains_key(&block) {
                    self.duplicate_blocks += 1;
                    return;
                }
                self.have.insert(block, ctx.now());
                if let Some((_, _, skey)) = self.in_flight.remove(&block) {
                    if self.strategy == BlockStrategy::Resolved {
                        ctx.feedback("dissem.block-strategy", self.phase(), skey, 1.0);
                    }
                }
                let others = self.neighbors.iter().copied().filter(|&p| p != from);
                ctx.multicast(others, SwarmMsg::Have { block });
                if self.complete() && self.completed_at.is_none() {
                    self.completed_at = Some(ctx.now());
                    ctx.note(format!("{} completed the file", self.me));
                }
            }
        }
    }

    fn on_conn_broken(
        &mut self,
        _ctx: &mut ServiceCtx<'_, '_, SwarmMsg, SwarmCheckpoint>,
        peer: NodeId,
    ) {
        // A broken connection usually means the peer crashed; it will come
        // back with *no* blocks. Forget its map so its next Bitmap counts
        // as first contact (and gets answered with ours), and abandon any
        // request we had outstanding against it so the request loop
        // re-issues the block elsewhere instead of waiting out the sweep.
        self.peer_maps.remove(&peer);
        self.in_flight.retain(|_, (p, _, _)| *p != peer);
    }

    fn checkpoint(&self, _model: &StateModel<SwarmCheckpoint>) -> SwarmCheckpoint {
        SwarmCheckpoint {
            blocks: self.have.len() as u32,
            total: self.total_blocks,
        }
    }

    fn neighbors(&self) -> Vec<NodeId> {
        self.neighbors.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(strategy: BlockStrategy) -> SwarmNode {
        SwarmNode::new(
            NodeId(1),
            8,
            strategy,
            vec![NodeId(0), NodeId(2)],
            false,
            SimDuration::from_millis(200),
        )
    }

    #[test]
    fn seed_starts_complete() {
        let s = SwarmNode::new(
            NodeId(0),
            8,
            BlockStrategy::Random,
            vec![],
            true,
            SimDuration::from_millis(200),
        );
        assert!(s.complete());
        assert_eq!(s.have.len(), 8);
    }

    #[test]
    fn availability_counts_peers_and_self() {
        let mut n = node(BlockStrategy::Random);
        assert_eq!(n.availability(3), 0);
        n.peer_maps.entry(NodeId(0)).or_default().insert(3);
        n.peer_maps.entry(NodeId(2)).or_default().insert(3);
        assert_eq!(n.availability(3), 2);
        n.have.insert(3, SimTime::ZERO);
        assert_eq!(n.availability(3), 3);
    }

    #[test]
    fn candidates_exclude_held_and_in_flight() {
        let mut n = node(BlockStrategy::Random);
        n.peer_maps.entry(NodeId(0)).or_default().extend([1, 2, 3]);
        n.have.insert(1, SimTime::ZERO);
        n.in_flight.insert(2, (NodeId(0), SimTime::ZERO, 0));
        assert_eq!(n.candidates(NodeId(0)), vec![3]);
        assert!(
            n.candidates(NodeId(5)).is_empty(),
            "unknown peer offers nothing"
        );
    }

    #[test]
    fn duplicate_data_is_counted_not_reannounced() {
        use cb_core::resolve::random::RandomResolver;
        use cb_core::runtime::{Envelope, RuntimeConfig, RuntimeNode};
        use cb_simnet::sim::Sim;
        use cb_simnet::time::SimTime;
        use cb_simnet::topology::Topology;

        let topo = Topology::star(3, SimDuration::from_millis(5), 10_000_000);
        let mut sim = Sim::new(topo, 3, |id| {
            RuntimeNode::new(
                SwarmNode::new(
                    id,
                    4,
                    BlockStrategy::Random,
                    vec![],
                    id == NodeId(0),
                    SimDuration::from_secs(3600), // no request loop
                ),
                RuntimeConfig::new(Box::new(RandomResolver::new(1))),
            )
        });
        sim.start_all();
        sim.run_until(SimTime::ZERO);
        // Deliver block 2 twice to node 1.
        for _ in 0..2 {
            sim.invoke(NodeId(0), |_, ctx| {
                let now = ctx.now();
                ctx.send(
                    NodeId(1),
                    Envelope::App {
                        msg: SwarmMsg::Data { block: 2 },
                        sent_at: now,
                    },
                );
            });
        }
        sim.run_until_quiescent(SimTime::from_secs(10));
        let svc = sim.actor(NodeId(1)).service();
        assert_eq!(svc.have.len(), 1);
        assert_eq!(svc.duplicate_blocks, 1);
    }

    #[test]
    fn phase_flips_at_half() {
        let mut n = node(BlockStrategy::Resolved);
        assert_eq!(n.phase(), ContextKey(0));
        for b in 0..4 {
            n.have.insert(b, SimTime::ZERO);
        }
        assert_eq!(n.phase(), ContextKey(1));
    }
}
