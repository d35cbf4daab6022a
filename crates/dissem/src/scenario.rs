//! Swarm experiments: block-strategy crossover (E5) and tracker bias (E6).

use crate::swarm::{BlockStrategy, SwarmNode, BLOCK_BYTES};
use crate::tracker::{assign_neighbors, TrackerPolicy};
use cb_core::choice::Resolver;
use cb_core::resolve::learned::{BanditPolicy, LearnedResolver};
use cb_core::resolve::random::RandomResolver;
use cb_core::runtime::{RuntimeConfig, RuntimeNode};
use cb_simnet::sim::Sim;
use cb_simnet::time::{SimDuration, SimTime};
use cb_simnet::topology::{AccessLink, NodeId, Topology, TransitStubConfig};

/// Swarm scenario parameters.
#[derive(Clone, Debug)]
pub struct SwarmConfig {
    /// Number of peers (including the seed, node 0).
    pub peers: usize,
    /// Blocks in the file.
    pub blocks: u32,
    /// Tracker neighbor degree.
    pub degree: usize,
    /// Seed's uplink capacity, bits per second.
    pub seed_uplink_bps: u64,
    /// Peer uplink capacity, bits per second.
    pub peer_uplink_bps: u64,
    /// Tracker policy.
    pub tracker: TrackerPolicy,
    /// Simulated time limit.
    pub horizon: SimDuration,
    /// Seed for topology, tracker, and protocol randomness.
    pub seed: u64,
}

impl Default for SwarmConfig {
    fn default() -> Self {
        SwarmConfig {
            peers: 32,
            blocks: 64,
            degree: 6,
            seed_uplink_bps: 20_000_000,
            peer_uplink_bps: 20_000_000,
            tracker: TrackerPolicy::Random,
            horizon: SimDuration::from_secs(600),
            seed: 1,
        }
    }
}

/// Outcome of one swarm run.
#[derive(Clone, Debug)]
pub struct SwarmOutcome {
    /// Strategy that ran.
    pub strategy: BlockStrategy,
    /// Peers (excluding the seed) that completed within the horizon.
    pub completed: usize,
    /// Mean completion time over finishers, seconds.
    pub mean_time_secs: f64,
    /// Slowest finisher, seconds (the "last peer" metric).
    pub max_time_secs: f64,
    /// Total payload bytes that crossed a domain boundary (ISP transit).
    pub transit_bytes: u64,
    /// Total bytes sent by everyone.
    pub bytes_sent: u64,
    /// Duplicate block deliveries (wasted capacity).
    pub duplicates: u64,
}

fn resolver_for(strategy: BlockStrategy, seed: u64) -> Box<dyn Resolver> {
    match strategy {
        BlockStrategy::Random | BlockStrategy::RarestRandom => Box::new(RandomResolver::new(seed)),
        BlockStrategy::Resolved => Box::new(LearnedResolver::new(
            BanditPolicy::EpsilonGreedy { epsilon: 0.1 },
            seed,
        )),
    }
}

/// Runs one swarm experiment arm.
pub fn run_swarm(cfg: &SwarmConfig, strategy: BlockStrategy) -> SwarmOutcome {
    let ts = TransitStubConfig {
        transit_routers: 4,
        stubs_per_transit: 1,
        hosts_per_stub: cfg.peers.div_ceil(4),
        ..Default::default()
    };
    let mut trng = cb_simnet::rng::SimRng::seed_from(cfg.seed.wrapping_mul(0x5DEECE66D));
    let mut topo = Topology::transit_stub(&ts, &mut trng);
    for p in 0..cfg.peers as u32 {
        let up = if p == 0 {
            cfg.seed_uplink_bps
        } else {
            cfg.peer_uplink_bps
        };
        topo.set_access(
            NodeId(p),
            AccessLink {
                up_bps: up,
                down_bps: 100_000_000,
            },
        );
    }
    let mut arng = cb_simnet::rng::SimRng::seed_from(cfg.seed.wrapping_add(17));
    let assignments = assign_neighbors(&topo, cfg.peers, cfg.degree, cfg.tracker, &mut arng);
    let blocks = cfg.blocks;
    let seed = cfg.seed;
    let peers = cfg.peers;
    let mut sim = Sim::new(topo, seed, move |id| {
        let nbrs = if (id.0 as usize) < peers {
            assignments[id.0 as usize].clone()
        } else {
            Vec::new()
        };
        let svc = SwarmNode::new(
            id,
            blocks,
            strategy,
            nbrs,
            id == NodeId(0),
            SimDuration::from_millis(250),
        );
        RuntimeNode::new(
            svc,
            RuntimeConfig::new(resolver_for(strategy, seed ^ ((id.0 as u64) << 20)))
                .controller_every(SimDuration::from_secs(5)),
        )
    });
    for p in 0..peers as u32 {
        sim.schedule_start(NodeId(p), SimTime::ZERO);
    }
    sim.run_until(SimTime::ZERO + cfg.horizon);

    let mut times: Vec<f64> = Vec::new();
    let mut transit = 0u64;
    let mut duplicates = 0u64;
    for p in 1..peers as u32 {
        let svc = sim.actor(NodeId(p)).service();
        transit += svc.transit_bytes_in;
        duplicates += svc.duplicate_blocks;
        if let Some(t) = svc.completed_at {
            times.push(t.as_secs_f64());
        }
    }
    let completed = times.len();
    let mean = if times.is_empty() {
        f64::INFINITY
    } else {
        times.iter().sum::<f64>() / completed as f64
    };
    let max = times.iter().cloned().fold(0.0f64, f64::max);
    SwarmOutcome {
        strategy,
        completed,
        mean_time_secs: mean,
        max_time_secs: if completed == 0 { f64::INFINITY } else { max },
        transit_bytes: transit,
        bytes_sent: sim.summary().bytes_sent,
        duplicates,
    }
}

/// The ideal lower bound on distribution time: the seed must push every
/// block once, then the swarm can replicate in parallel.
pub fn seed_serialization_floor_secs(cfg: &SwarmConfig) -> f64 {
    (cfg.blocks as u64 * BLOCK_BYTES as u64 * 8) as f64 / cfg.seed_uplink_bps as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(seed: u64) -> SwarmConfig {
        SwarmConfig {
            peers: 12,
            blocks: 24,
            degree: 4,
            horizon: SimDuration::from_secs(400),
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn everyone_completes_with_each_strategy() {
        for strategy in [
            BlockStrategy::Random,
            BlockStrategy::RarestRandom,
            BlockStrategy::Resolved,
        ] {
            let out = run_swarm(&quick(3), strategy);
            assert_eq!(out.completed, 11, "{}: {out:?}", strategy.label());
            assert!(out.mean_time_secs.is_finite());
            assert!(out.max_time_secs >= out.mean_time_secs);
        }
    }

    #[test]
    fn completion_respects_seed_serialization_floor() {
        let cfg = SwarmConfig {
            peers: 8,
            blocks: 32,
            degree: 4,
            seed_uplink_bps: 2_000_000,
            horizon: SimDuration::from_secs(900),
            seed: 4,
            ..Default::default()
        };
        let floor = seed_serialization_floor_secs(&cfg);
        let out = run_swarm(&cfg, BlockStrategy::RarestRandom);
        assert!(out.completed > 0);
        assert!(
            out.max_time_secs >= floor * 0.9,
            "finished in {:.1}s, below the {:.1}s seed floor",
            out.max_time_secs,
            floor
        );
    }

    #[test]
    fn rarest_beats_random_when_seed_is_constrained() {
        // Constrained seed: every duplicate fetch of a common block wastes
        // scarce seed uplink; rarest-first equalizes availability.
        let mut random_total = 0.0;
        let mut rarest_total = 0.0;
        for seed in [5u64, 6, 7] {
            let cfg = SwarmConfig {
                peers: 12,
                blocks: 32,
                degree: 4,
                seed_uplink_bps: 2_000_000,
                horizon: SimDuration::from_secs(1200),
                seed,
                ..Default::default()
            };
            random_total += run_swarm(&cfg, BlockStrategy::Random).max_time_secs;
            rarest_total += run_swarm(&cfg, BlockStrategy::RarestRandom).max_time_secs;
        }
        assert!(
            rarest_total <= random_total * 1.1,
            "rarest {rarest_total:.0}s should not lose to random {random_total:.0}s under a constrained seed"
        );
    }

    #[test]
    fn locality_bias_cuts_transit_bytes() {
        let base = quick(8);
        let random = run_swarm(&base, BlockStrategy::RarestRandom);
        let biased_cfg = SwarmConfig {
            tracker: TrackerPolicy::LocalityBiased {
                local_fraction: 0.8,
            },
            ..base
        };
        let biased = run_swarm(&biased_cfg, BlockStrategy::RarestRandom);
        assert_eq!(biased.completed, 11, "{biased:?}");
        assert!(
            biased.transit_bytes < random.transit_bytes,
            "bias did not reduce transit: {} vs {}",
            biased.transit_bytes,
            random.transit_bytes
        );
    }
}
