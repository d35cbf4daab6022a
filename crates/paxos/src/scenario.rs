//! The consensus experiment: proposer regimes across a WAN (E7).
//!
//! Five replicas, one per region of a transit-stub WAN; clients spread over
//! the regions submit at a configurable aggregate rate. Replica uplinks are
//! modest, so a fixed leader saturates as load grows — the §3.1 failure
//! mode ("reduced performance due to CPU overload or network congestion") —
//! while rotating or runtime-resolved proposers spread the load, and the
//! resolved regime additionally keeps commits near the client.

use crate::client::{Client, ProposerRegime};
use crate::node::PaxosNode;
use crate::proto::PaxosMsg;
use crate::replica::{Replica, SlotOwnership};
use cb_core::choice::Resolver;
use cb_core::resolve::learned::{BanditPolicy, LearnedResolver};
use cb_core::resolve::random::RandomResolver;
use cb_core::runtime::{RuntimeConfig, RuntimeNode};
use cb_simnet::sim::Sim;
use cb_simnet::time::{SimDuration, SimTime};
use cb_simnet::topology::{AccessLink, NodeId, Topology, TransitStubConfig};

/// Size ascribed to Accept/Learn payloads (command + metadata), bytes.
/// Large enough that proposer uplink bandwidth matters.
pub const CMD_BYTES: u32 = 8_192;

/// Consensus scenario parameters.
#[derive(Clone, Debug)]
pub struct PaxosConfig {
    /// Number of replicas (one per region; 5 regions are generated).
    pub replicas: usize,
    /// Number of clients, spread round-robin over the regions.
    pub clients: usize,
    /// Commands per client.
    pub commands_per_client: u32,
    /// Per-client submit period (aggregate rate = clients / period).
    pub submit_period: SimDuration,
    /// Replica uplink capacity, bits per second (the contended resource).
    pub replica_uplink_bps: u64,
    /// Simulated run limit.
    pub horizon: SimDuration,
    /// Seed.
    pub seed: u64,
}

impl Default for PaxosConfig {
    fn default() -> Self {
        PaxosConfig {
            replicas: 5,
            clients: 10,
            commands_per_client: 40,
            submit_period: SimDuration::from_millis(250),
            replica_uplink_bps: 20_000_000,
            horizon: SimDuration::from_secs(300),
            seed: 1,
        }
    }
}

/// Outcome of one consensus run.
#[derive(Clone, Debug)]
pub struct PaxosOutcome {
    /// The regime that ran.
    pub regime: ProposerRegime,
    /// Commands committed across all clients.
    pub committed: usize,
    /// Commands submitted across all clients.
    pub submitted: usize,
    /// Mean commit latency over committed commands, seconds.
    pub mean_latency_secs: f64,
    /// 99th-percentile commit latency, seconds.
    pub p99_latency_secs: f64,
    /// Client resubmissions after timeouts.
    pub resubmits: u64,
    /// Ballot conflicts (Nacks) observed at replicas.
    pub nacks: u64,
    /// Commands proposed by each replica (load distribution).
    pub per_replica_commits: Vec<u64>,
}

fn resolver_for(regime: ProposerRegime, seed: u64) -> Box<dyn Resolver> {
    match regime {
        ProposerRegime::FixedLeader | ProposerRegime::RoundRobin => {
            Box::new(RandomResolver::new(seed))
        }
        ProposerRegime::Resolved => {
            // The feature is the runtime-measured latency (ms); the prior
            // mirrors the client's commit-latency reward so new arms start
            // from the network model instead of forced exploration.
            Box::new(
                LearnedResolver::new(BanditPolicy::Ucb1 { c: 0.3 }, seed).with_prior(
                    |o| {
                        let rtt = 2.0 * o.features.first().copied().unwrap_or(40.0) / 1000.0;
                        0.2 / (0.2 + rtt + 0.05)
                    },
                    3.0,
                ),
            )
        }
    }
}

/// Runs one consensus experiment arm.
pub fn run_paxos(cfg: &PaxosConfig, regime: ProposerRegime) -> PaxosOutcome {
    let regions = 5;
    let hosts_needed = cfg.replicas + cfg.clients;
    let ts = TransitStubConfig {
        transit_routers: regions,
        stubs_per_transit: 1,
        hosts_per_stub: hosts_needed.div_ceil(regions),
        ..Default::default()
    };
    let mut trng = cb_simnet::rng::SimRng::seed_from(cfg.seed.wrapping_mul(0x1234_5677));
    let mut topo = Topology::transit_stub(&ts, &mut trng);

    // One replica per region: pick the first host of each domain.
    let mut replicas: Vec<NodeId> = Vec::new();
    for d in 0..regions as u32 {
        let host = topo
            .hosts()
            .find(|&h| topo.domain(h) == d)
            .expect("every region has hosts");
        replicas.push(host);
        if replicas.len() == cfg.replicas {
            break;
        }
    }
    for &r in &replicas {
        topo.set_access(
            r,
            AccessLink {
                up_bps: cfg.replica_uplink_bps,
                down_bps: 100_000_000,
            },
        );
    }
    // Clients: remaining hosts, round-robin across regions.
    let mut clients: Vec<NodeId> = Vec::new();
    let mut by_domain: Vec<Vec<NodeId>> = vec![Vec::new(); regions];
    for h in topo.hosts() {
        if !replicas.contains(&h) {
            by_domain[topo.domain(h) as usize].push(h);
        }
    }
    'outer: loop {
        for domain in by_domain.iter_mut() {
            if let Some(h) = domain.pop() {
                clients.push(h);
                if clients.len() == cfg.clients {
                    break 'outer;
                }
            }
        }
        if by_domain.iter().all(Vec::is_empty) {
            break;
        }
    }
    assert_eq!(clients.len(), cfg.clients, "not enough hosts for clients");

    let ownership = match regime {
        ProposerRegime::FixedLeader => SlotOwnership::FixedLeader { leader: 0 },
        _ => SlotOwnership::RoundRobin,
    };
    let group = replicas.clone();
    let seed = cfg.seed;
    let period = cfg.submit_period;
    let per_client = cfg.commands_per_client;
    let clients_clone = clients.clone();
    let mut sim = Sim::new(topo, seed, move |id| {
        let svc = if let Some(idx) = group.iter().position(|&r| r == id) {
            PaxosNode::Replica(Replica::new(id, idx as u64, group.clone(), ownership))
        } else if clients_clone.contains(&id) {
            PaxosNode::Client(Client::new(id, group.clone(), regime, period, per_client))
        } else {
            PaxosNode::Idle
        };
        RuntimeNode::new(
            svc,
            RuntimeConfig::new(resolver_for(regime, seed ^ ((id.0 as u64) << 24)))
                .controller_every(SimDuration::from_secs(5)),
        )
    });
    for &r in &replicas {
        sim.schedule_start(r, SimTime::ZERO);
    }
    for &c in &clients {
        sim.schedule_start(c, SimTime::ZERO);
    }
    sim.run_until(SimTime::ZERO + cfg.horizon);

    let mut latencies: Vec<f64> = Vec::new();
    let mut resubmits = 0;
    for &c in &clients {
        let client = sim.actor(c).service().as_client().expect("client role");
        latencies.extend(client.latencies.iter());
        resubmits += client.resubmits;
    }
    let submitted = clients.len() * cfg.commands_per_client as usize;
    let committed = latencies.len();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let mean = if committed == 0 {
        f64::INFINITY
    } else {
        latencies.iter().sum::<f64>() / committed as f64
    };
    let p99 = if committed == 0 {
        f64::INFINITY
    } else {
        latencies[((committed as f64 * 0.99).ceil() as usize).clamp(1, committed) - 1]
    };
    let mut per_replica_commits = Vec::new();
    let mut nacks = 0;
    for &r in &replicas {
        let rep = sim.actor(r).service().as_replica().expect("replica role");
        per_replica_commits.push(rep.committed_here);
        nacks += rep.nacks_seen;
    }
    PaxosOutcome {
        regime,
        committed,
        submitted,
        mean_latency_secs: mean,
        p99_latency_secs: p99,
        resubmits,
        nacks,
        per_replica_commits,
    }
}

/// The message type alias used by integration tests.
pub type Msg = PaxosMsg;

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(seed: u64) -> PaxosConfig {
        PaxosConfig {
            clients: 5,
            commands_per_client: 20,
            horizon: SimDuration::from_secs(120),
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn all_regimes_commit_everything() {
        for regime in [
            ProposerRegime::FixedLeader,
            ProposerRegime::RoundRobin,
            ProposerRegime::Resolved,
        ] {
            let out = run_paxos(&quick(2), regime);
            assert_eq!(out.committed, out.submitted, "{}: {out:?}", regime.label());
            assert!(out.mean_latency_secs.is_finite());
            assert!(out.p99_latency_secs >= out.mean_latency_secs * 0.5);
        }
    }

    #[test]
    fn fixed_leader_concentrates_load_round_robin_spreads_it() {
        let fixed = run_paxos(&quick(3), ProposerRegime::FixedLeader);
        assert!(fixed.per_replica_commits[0] > 0);
        assert!(
            fixed.per_replica_commits[1..].iter().all(|&c| c == 0),
            "{:?}",
            fixed.per_replica_commits
        );
        let rr = run_paxos(&quick(3), ProposerRegime::RoundRobin);
        let active = rr.per_replica_commits.iter().filter(|&&c| c > 0).count();
        assert_eq!(active, 5, "{:?}", rr.per_replica_commits);
    }

    #[test]
    fn learned_log_agrees_across_replicas() {
        let cfg = quick(4);
        let regime = ProposerRegime::RoundRobin;
        // Re-run and inspect learned logs directly.
        let out = run_paxos(&cfg, regime);
        assert_eq!(out.committed, out.submitted);
        // Safety proxy: no replica observed a ballot conflict in the
        // uncontended schedule.
        assert_eq!(out.nacks, 0, "unexpected ballot conflicts");
    }

    #[test]
    fn resolved_regime_is_not_slower_than_fixed_leader() {
        let mut fixed = 0.0;
        let mut resolved = 0.0;
        for seed in [5u64, 6] {
            fixed += run_paxos(&quick(seed), ProposerRegime::FixedLeader).mean_latency_secs;
            resolved += run_paxos(&quick(seed), ProposerRegime::Resolved).mean_latency_secs;
        }
        assert!(
            resolved <= fixed * 1.2,
            "resolved {resolved:.3}s much worse than fixed {fixed:.3}s"
        );
    }
}
