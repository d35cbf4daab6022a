//! Gossip experiments: Byzantine pressure and slow-uplink cohorts (E4).
//!
//! Quantifies the §3.1 claims: restricting the peer choice (BAR Gossip)
//! keeps dissemination robust when Byzantine nodes pollute views, but pays
//! when the schedule lands on slow peers; exposing the choice to a learning
//! runtime gets both robustness and performance (FlightPath's "relax the
//! choice" observation).

use crate::service::{GossipNode, PeerStrategy};
use cb_core::choice::Resolver;
use cb_core::resolve::heuristic::HeuristicResolver;
use cb_core::resolve::random::RandomResolver;
use cb_core::runtime::{RuntimeConfig, RuntimeNode};
use cb_simnet::sim::Sim;
use cb_simnet::time::{SimDuration, SimTime};
use cb_simnet::topology::{AccessLink, NodeId, Topology, TransitStubConfig};

/// Gossip scenario parameters.
#[derive(Clone, Debug)]
pub struct GossipConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Fraction of Byzantine nodes in `[0, 1)` (node 0 is always honest).
    pub byzantine_frac: f64,
    /// Fraction of nodes behind a slow uplink (node 0 always fast).
    pub slow_frac: f64,
    /// Uplink of the slow cohort, bits per second.
    pub slow_uplink_bps: u64,
    /// Rumors the source publishes.
    pub rumors: u32,
    /// Gossip round period.
    pub round: SimDuration,
    /// Simulated run length.
    pub horizon: SimDuration,
    /// Fraction of nodes subject to churn (crash/restart cycles) during
    /// the run; node 0 never churns.
    pub churn_frac: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for GossipConfig {
    fn default() -> Self {
        GossipConfig {
            nodes: 64,
            byzantine_frac: 0.0,
            slow_frac: 0.0,
            slow_uplink_bps: 256_000,
            rumors: 8,
            round: SimDuration::from_millis(500),
            horizon: SimDuration::from_secs(120),
            churn_frac: 0.0,
            seed: 1,
        }
    }
}

/// Outcome of one gossip run.
#[derive(Clone, Debug)]
pub struct GossipOutcome {
    /// Strategy that ran.
    pub strategy: PeerStrategy,
    /// Fraction of honest nodes holding all rumors at the horizon.
    pub coverage: f64,
    /// Mean time (seconds) for a rumor to reach 90% of honest nodes;
    /// `None` when any rumor missed the mark.
    pub t90_secs: Option<f64>,
    /// Same metric restricted to honest nodes with fast links — how the
    /// strategy performs for the well-provisioned majority.
    pub t90_fast_secs: Option<f64>,
    /// Mean per-rumor delivery latency over honest nodes, seconds.
    pub mean_latency_secs: f64,
    /// Total payload bytes sent.
    pub bytes_sent: u64,
}

fn resolver_for(strategy: PeerStrategy, seed: u64) -> Box<dyn Resolver> {
    match strategy {
        // Restricted/FreeRandom never call choose(); resolver is inert.
        PeerStrategy::Restricted | PeerStrategy::FreeRandom => Box::new(RandomResolver::new(seed)),
        PeerStrategy::Resolved => {
            // Features are [measured latency ms, observed usefulness rate];
            // prefer responsive peers that still accept new rumors.
            let _ = seed;
            Box::new(HeuristicResolver::new("gossip-model", |o| {
                let latency_ms = o.features.first().copied().unwrap_or(50.0);
                let use_rate = o.features.get(1).copied().unwrap_or(0.5);
                // Penalize only pathological links (a slow cohort shows up
                // as hundreds of ms of serialization delay); mild WAN
                // differences must not cluster the epidemic regionally.
                use_rate - 0.005 * (latency_ms - 250.0).max(0.0)
            }))
        }
    }
}

/// Runs one gossip experiment arm.
pub fn run_gossip(cfg: &GossipConfig, strategy: PeerStrategy) -> GossipOutcome {
    let ts = TransitStubConfig::default().with_at_least_hosts(cfg.nodes);
    let mut trng = cb_simnet::rng::SimRng::seed_from(cfg.seed.wrapping_mul(0xA5A5_5A5A));
    let mut topo = Topology::transit_stub(&ts, &mut trng);
    // Deterministic cohort assignment: Byzantine from the top ids, slow
    // from the next band down, source (0) untouched.
    let n = cfg.nodes;
    let byz_count = (n as f64 * cfg.byzantine_frac) as usize;
    let slow_count = (n as f64 * cfg.slow_frac) as usize;
    let byz_set: Vec<u32> = ((n - byz_count) as u32..n as u32).collect();
    let slow_set: Vec<u32> =
        ((n - byz_count - slow_count) as u32..(n - byz_count) as u32).collect();
    for &s in &slow_set {
        topo.set_access(
            NodeId(s),
            AccessLink {
                up_bps: cfg.slow_uplink_bps,
                down_bps: cfg.slow_uplink_bps,
            },
        );
    }
    let rumors = cfg.rumors;
    let round = cfg.round;
    let seed = cfg.seed;
    let byz_clone = byz_set.clone();
    let mut sim = Sim::new(topo, seed, move |id| {
        let byzantine = byz_clone.contains(&id.0);
        let mut svc = GossipNode::new(id, n, strategy, byzantine, round);
        if id == NodeId(0) {
            svc.publish_count = rumors;
        }
        RuntimeNode::new(
            svc,
            RuntimeConfig::new(resolver_for(strategy, seed ^ ((id.0 as u64) << 16)))
                .controller_every(SimDuration::from_secs(2)),
        )
    });
    for i in 0..n as u32 {
        sim.schedule_start(NodeId(i), SimTime::ZERO);
    }
    if cfg.churn_frac > 0.0 {
        // Churn a band of honest, fast nodes (ids 1..=churners).
        let churners: Vec<NodeId> = (1..=(n as f64 * cfg.churn_frac) as u32)
            .map(NodeId)
            .collect();
        sim.schedule_churn(
            &churners,
            SimTime::from_secs(2),
            SimTime::ZERO + cfg.horizon - SimDuration::from_secs(20),
            SimDuration::from_secs(15),
            SimDuration::from_secs(3),
            cfg.seed.wrapping_add(0xC0FFEE),
        );
    }
    sim.run_until(SimTime::ZERO + cfg.horizon);

    // Honest nodes only (the source counts).
    let honest: Vec<NodeId> = (0..n as u32)
        .map(NodeId)
        .filter(|id| !byz_set.contains(&id.0))
        .collect();
    let fast_honest: Vec<NodeId> = honest
        .iter()
        .copied()
        .filter(|id| !slow_set.contains(&id.0))
        .collect();
    let h = honest.len() as f64;
    let mut full = 0usize;
    let mut latencies: Vec<f64> = Vec::new();
    let mut t90 = Vec::new();
    let mut t90_fast = Vec::new();
    for r in 0..rumors {
        let mut times: Vec<f64> = honest
            .iter()
            .filter_map(|&id| sim.actor(id).service().received.get(&r))
            .map(|t| t.as_secs_f64())
            .collect();
        times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        latencies.extend(times.iter());
        let need = (0.9 * h).ceil() as usize;
        if times.len() >= need {
            t90.push(times[need - 1]);
        }
        let mut fast_times: Vec<f64> = fast_honest
            .iter()
            .filter_map(|&id| sim.actor(id).service().received.get(&r))
            .map(|t| t.as_secs_f64())
            .collect();
        fast_times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        let need_fast = (0.9 * fast_honest.len() as f64).ceil() as usize;
        if fast_times.len() >= need_fast && need_fast > 0 {
            t90_fast.push(fast_times[need_fast - 1]);
        }
    }
    for &id in &honest {
        if (0..rumors).all(|r| sim.actor(id).service().received.contains_key(&r)) {
            full += 1;
        }
    }
    let coverage = full as f64 / h;
    let t90_secs = if t90.len() == rumors as usize {
        Some(t90.iter().sum::<f64>() / t90.len() as f64)
    } else {
        None
    };
    let t90_fast_secs = if t90_fast.len() == rumors as usize {
        Some(t90_fast.iter().sum::<f64>() / t90_fast.len() as f64)
    } else {
        None
    };
    let mean_latency_secs = if latencies.is_empty() {
        f64::INFINITY
    } else {
        latencies.iter().sum::<f64>() / latencies.len() as f64
    };
    GossipOutcome {
        strategy,
        coverage,
        t90_secs,
        t90_fast_secs,
        mean_latency_secs,
        bytes_sent: sim.summary().bytes_sent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(nodes: usize, byz: f64, slow: f64, seed: u64) -> GossipConfig {
        GossipConfig {
            nodes,
            byzantine_frac: byz,
            slow_frac: slow,
            rumors: 4,
            horizon: SimDuration::from_secs(60),
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn clean_network_all_strategies_disseminate() {
        for strategy in [
            PeerStrategy::Restricted,
            PeerStrategy::FreeRandom,
            PeerStrategy::Resolved,
        ] {
            let out = run_gossip(&quick(24, 0.0, 0.0, 2), strategy);
            assert!(
                out.coverage > 0.95,
                "{}: coverage {}",
                strategy.label(),
                out.coverage
            );
            assert!(out.t90_secs.is_some(), "{}: t90 missing", strategy.label());
        }
    }

    #[test]
    fn byzantine_nodes_slow_free_random_more_than_restricted() {
        let seeds = [3u64, 4, 5];
        let mut restricted = 0.0;
        let mut free = 0.0;
        for &s in &seeds {
            let cfg = quick(32, 0.3, 0.0, s);
            restricted += run_gossip(&cfg, PeerStrategy::Restricted)
                .t90_secs
                .unwrap_or(cfg.horizon.as_secs_f64());
            free += run_gossip(&cfg, PeerStrategy::FreeRandom)
                .t90_secs
                .unwrap_or(cfg.horizon.as_secs_f64());
        }
        assert!(
            restricted <= free * 1.05,
            "restricted {restricted:.1}s should not lose to polluted free-random {free:.1}s"
        );
    }

    #[test]
    fn resolved_learns_around_byzantine_peers() {
        let cfg = quick(32, 0.3, 0.0, 6);
        let resolved = run_gossip(&cfg, PeerStrategy::Resolved);
        assert!(
            resolved.coverage > 0.9,
            "resolved coverage {}",
            resolved.coverage
        );
    }

    #[test]
    fn outcome_fields_are_sane() {
        let out = run_gossip(&quick(16, 0.0, 0.25, 7), PeerStrategy::FreeRandom);
        assert!(out.bytes_sent > 0);
        assert!(out.mean_latency_secs.is_finite());
        assert!((0.0..=1.0).contains(&out.coverage));
    }
}
