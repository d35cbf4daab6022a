//! Campaign registration: the block-dissemination swarm under faults.
//!
//! A small rarest-first swarm (seed = `NodeId 0`) checked for the only
//! invariant that matters to a file swarm: **completion** — every peer
//! that is up at the horizon holds the whole file. Crash/restart churn
//! wipes a peer's blocks (it must re-fetch), transient partitions and
//! loss slow the exchange down; an unhealed partition leaves an island
//! without the seed's blocks and violates the oracle.

use crate::swarm::{BlockStrategy, SwarmNode};
use crate::tracker::{assign_neighbors, TrackerPolicy};
use cb_core::resolve::random::RandomResolver;
use cb_core::runtime::{fleet_telemetry, RuntimeConfig, RuntimeNode};
use cb_harness::prelude::*;
use cb_harness::scenario::RunReport;
use cb_simnet::prelude::*;

/// The campaign-facing swarm scenario.
pub struct SwarmCampaign {
    /// Number of peers including the seed (`NodeId 0`).
    pub peers: usize,
    /// Blocks in the file.
    pub blocks: u32,
    /// Tracker neighbor degree.
    pub degree: usize,
    /// Run horizon.
    pub horizon: SimTime,
}

impl Default for SwarmCampaign {
    fn default() -> Self {
        SwarmCampaign {
            peers: 10,
            blocks: 16,
            degree: 4,
            horizon: SimTime::from_secs(600),
        }
    }
}

impl SwarmCampaign {
    /// The smallest swarm the tracker can wire: [`assign_neighbors`] needs
    /// more than `degree + 1` peers.
    pub fn min_peers(&self) -> usize {
        self.degree + 2
    }
}

impl Scenario for SwarmCampaign {
    fn name(&self) -> &'static str {
        "dissem"
    }

    fn node_count(&self) -> usize {
        self.peers
    }

    fn default_plan(&self, seed: u64) -> FaultPlan {
        // Crash a rotating non-seed peer mid-download (wiping its blocks),
        // restart it, split two other peers off behind a healed partition,
        // and add early loss. Everything heals with hundreds of simulated
        // seconds to spare.
        let n = self.peers as u64;
        let victim = 1 + (seed % (n - 1)) as u32;
        let pa = 1 + ((seed + 2) % (n - 1)) as u32;
        let mut plan = FaultPlan::none()
            .crash(victim, 20_000)
            .restart(victim, 60_000)
            .loss(0.05, 5_000, 40_000);
        if pa != victim {
            let others: Vec<u32> = (0..self.peers as u32).filter(|&i| i != pa).collect();
            plan = plan.partition(&[pa], &others, 30_000, Some(90_000));
        }
        plan
    }

    fn run(&self, seed: u64, plan: &FaultPlan) -> RunReport {
        // Small swarms keep the historical two-transit shape (and thus
        // historical fingerprints); large ones get a proportioned backbone
        // with an exact host count.
        let mut trng = SimRng::seed_from(seed.wrapping_mul(0x5DEE_CE66));
        let topo = if self.peers <= 64 {
            let ts = TransitStubConfig {
                transit_routers: 2,
                stubs_per_transit: 1,
                hosts_per_stub: self.peers.div_ceil(2),
                ..Default::default()
            };
            Topology::transit_stub(&ts, &mut trng)
        } else {
            Topology::transit_stub_exact(
                &TransitStubConfig::balanced_for(self.peers),
                self.peers,
                &mut trng,
            )
        };
        let mut arng = SimRng::seed_from(seed.wrapping_add(17));
        let assignments = assign_neighbors(
            &topo,
            self.peers,
            self.degree,
            TrackerPolicy::Random,
            &mut arng,
        );
        let peers = self.peers;
        let blocks = self.blocks;
        let mut sim: Sim<RuntimeNode<SwarmNode>> = Sim::new(topo, seed, move |id| {
            let nbrs = if (id.0 as usize) < peers {
                assignments[id.0 as usize].clone()
            } else {
                Vec::new()
            };
            let svc = SwarmNode::new(
                id,
                blocks,
                BlockStrategy::RarestRandom,
                nbrs,
                id == NodeId(0),
                SimDuration::from_millis(250),
            );
            RuntimeNode::new(
                svc,
                RuntimeConfig::new(Box::new(RandomResolver::new(seed ^ ((id.0 as u64) << 20))))
                    .controller_every(SimDuration::from_secs(5)),
            )
        });
        for p in 0..peers as u32 {
            sim.schedule_start(NodeId(p), SimTime::ZERO);
        }
        plan.drive(&mut sim, seed ^ 0xd155, self.horizon);

        // Oracle: every up non-seed peer completed the file.
        let mut incomplete = Vec::new();
        for p in 1..peers as u32 {
            let id = NodeId(p);
            if !sim.is_up(id) {
                continue;
            }
            if sim.actor(id).service().completed_at.is_none() {
                incomplete.push(format!("peer {p}"));
            }
        }
        let verdicts = vec![OracleVerdict::check(
            "swarm.completion",
            incomplete.is_empty(),
            if incomplete.is_empty() {
                "every up peer holds the full file".to_string()
            } else {
                format!("incomplete at horizon: {}", incomplete.join(", "))
            },
        )];
        let telemetry = fleet_telemetry(&sim);
        RunReport::from_sim(self.name(), seed, plan, &mut sim, verdicts, telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_run_passes() {
        let s = SwarmCampaign::default();
        let r = s.run(1, &FaultPlan::none());
        assert!(!r.violated(), "{:?}", r.verdicts);
    }

    #[test]
    fn default_plan_recovers() {
        let s = SwarmCampaign::default();
        let plan = s.default_plan(2);
        let r = s.run(2, &plan);
        assert!(!r.violated(), "{:?}", r.verdicts);
    }

    #[test]
    fn unhealed_partition_blocks_completion() {
        let s = SwarmCampaign::default();
        let others: Vec<u32> = (0..10u32).filter(|&i| i != 4).collect();
        let plan = FaultPlan::none().partition(&[4], &others, 0, None);
        let r = s.run(6, &plan);
        assert!(r.violated(), "{:?}", r.verdicts);
        assert!(r.failing_oracles().contains(&"swarm.completion"));
    }
}
