//! Campaign registration: push gossip under fault schedules.
//!
//! Runs the free-random gossip arm (no Byzantine cohort — the campaign is
//! about *environmental* faults) and checks epidemic robustness: after the
//! fault schedule heals, every node that is up at the horizon must hold
//! every rumor. Gossip's redundancy makes this a strong oracle — it holds
//! under crash/restart churn, transient partitions and loss, but an
//! unhealed partition starves one side and violates it.

use crate::service::{GossipNode, PeerStrategy};
use cb_core::choice::Resolver;
use cb_core::resolve::ladder::LadderResolver;
use cb_core::resolve::random::RandomResolver;
use cb_core::runtime::{fleet_telemetry, RuntimeConfig, RuntimeNode};
use cb_harness::prelude::*;
use cb_harness::scenario::RunReport;
use cb_simnet::prelude::*;

/// The campaign-facing gossip scenario.
pub struct GossipCampaign {
    /// Number of nodes (node 0 publishes).
    pub nodes: usize,
    /// Rumors the source publishes.
    pub rumors: u32,
    /// Run horizon.
    pub horizon: SimTime,
    /// Route partner selection through the exposed-choice path
    /// ([`PeerStrategy::Resolved`]) resolved by the degradation-governed
    /// [`LadderResolver`]. Gossip never predicts, so the ladder here is
    /// driven purely by model-health signals (checkpoint staleness,
    /// connection-break confidence collapse) — the complementary arm to
    /// randtree's deadline-driven degradation.
    pub ladder: bool,
    /// Layer a fault storm (gray-failure stalls + a latency spike) over
    /// the default churn/partition/loss schedule. Healed by t=30s; the
    /// coverage oracle must still hold at the horizon.
    pub storm: bool,
}

impl Default for GossipCampaign {
    fn default() -> Self {
        GossipCampaign {
            nodes: 16,
            rumors: 4,
            horizon: SimTime::from_secs(60),
            ladder: false,
            storm: false,
        }
    }
}

impl GossipCampaign {
    /// The smallest fleet the scenario builds: the publisher and one peer
    /// for the fault plan to pick among.
    pub fn min_nodes(&self) -> usize {
        2
    }
}

impl Scenario for GossipCampaign {
    fn name(&self) -> &'static str {
        "gossip"
    }

    fn node_count(&self) -> usize {
        self.nodes
    }

    fn default_plan(&self, seed: u64) -> FaultPlan {
        // Churn a third of the membership early, partition a pair away for
        // a few seconds mid-run, sprinkle loss. All healed by t=30s; the
        // remaining 30 s of rounds must re-spread every rumor.
        let n = self.nodes as u64;
        let pa = 1 + (seed % (n - 1)) as u32;
        let pb = 1 + ((seed + 3) % (n - 1)) as u32;
        let churners: Vec<u32> = (1..=(self.nodes as u32 / 3)).collect();
        let mut plan = FaultPlan::none()
            .churn(&churners, 2_000, 20_000, 6_000, 1_500)
            .loss(0.10, 5_000, 15_000);
        if pa != pb {
            let others: Vec<u32> = (0..self.nodes as u32)
                .filter(|&i| i != pa && i != pb)
                .collect();
            plan = plan.partition(&[pa, pb], &others, 10_000, Some(25_000));
        }
        if self.storm {
            // Gray failures on two rotating non-source nodes (paused, not
            // crashed: deferred events resume when the stall lifts) plus a
            // mesh-wide latency spike. All healed by t=30s.
            let sa = 1 + ((seed + 5) % (n - 1)) as u32;
            let sb = 1 + ((seed + 7) % (n - 1)) as u32;
            plan = plan
                .stall(sa, 12_000, 22_000)
                .delayspike(150, 8_000, 25_000);
            if sb != sa {
                plan = plan.stall(sb, 14_000, 24_000);
            }
        }
        plan
    }

    fn run(&self, seed: u64, plan: &FaultPlan) -> RunReport {
        // Small fleets keep the historical config (and thus historical
        // fingerprints); large ones get a backbone proportioned to the
        // fleet and an exact host count.
        let mut trng = SimRng::seed_from(seed.wrapping_mul(0xA5A5_5A5A));
        let topo = if self.nodes <= 64 {
            Topology::transit_stub(
                &TransitStubConfig::default().with_at_least_hosts(self.nodes),
                &mut trng,
            )
        } else {
            Topology::transit_stub_exact(
                &TransitStubConfig::balanced_for(self.nodes),
                self.nodes,
                &mut trng,
            )
        };
        let n = self.nodes;
        let rumors = self.rumors;
        let ladder = self.ladder;
        let round = SimDuration::from_millis(500);
        let mut sim: Sim<RuntimeNode<GossipNode>> = Sim::new(topo, seed, move |id| {
            let strategy = if ladder {
                PeerStrategy::Resolved
            } else {
                PeerStrategy::FreeRandom
            };
            let mut svc = GossipNode::new(id, n, strategy, false, round);
            if id == NodeId(0) {
                svc.publish_count = rumors;
            }
            let resolver: Box<dyn Resolver> = if ladder {
                Box::new(LadderResolver::new())
            } else {
                Box::new(RandomResolver::new(seed ^ ((id.0 as u64) << 16)))
            };
            RuntimeNode::new(
                svc,
                RuntimeConfig::new(resolver).controller_every(SimDuration::from_secs(2)),
            )
        });
        // Fleets at 1000+ nodes run in lite-trace mode: fingerprints come
        // from compact word records instead of rendered debug strings, and
        // per-node provenance rings stay empty. Deterministic either way.
        if n >= 1000 {
            sim.set_lite(true);
        }
        for i in 0..n as u32 {
            sim.schedule_start(NodeId(i), SimTime::ZERO);
        }
        plan.drive(&mut sim, seed ^ 0xbeef, self.horizon);

        // Oracle: every up node holds every rumor. Nodes that churned and
        // restarted lose state but must re-acquire via gossip; nodes down
        // at the horizon are excused.
        let mut starving = Vec::new();
        for i in 0..n as u32 {
            let id = NodeId(i);
            if !sim.is_up(id) {
                continue;
            }
            let got = (0..rumors)
                .filter(|r| sim.actor(id).service().received.contains_key(r))
                .count() as u32;
            if got < rumors {
                starving.push(format!("node {i} holds {got}/{rumors}"));
            }
        }
        let verdicts = vec![OracleVerdict::check(
            "gossip.coverage",
            starving.is_empty(),
            if starving.is_empty() {
                format!("all up nodes hold {rumors}/{rumors} rumors")
            } else {
                starving.join("; ")
            },
        )];
        let telemetry = fleet_telemetry(&sim);
        RunReport::from_sim(self.name(), seed, plan, &sim, verdicts, telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_run_passes() {
        let s = GossipCampaign::default();
        let r = s.run(2, &FaultPlan::none());
        assert!(!r.violated(), "{:?}", r.verdicts);
        assert!(r.telemetry.counter(cb_telemetry::keys::NET_MSGS_DELIVERED) > 0);
    }

    #[test]
    fn default_plan_recovers() {
        let s = GossipCampaign::default();
        let plan = s.default_plan(4);
        let r = s.run(4, &plan);
        assert!(!r.violated(), "{:?}", r.verdicts);
    }

    #[test]
    fn storm_ladder_arm_keeps_coverage() {
        // Fault storm + resolved peer selection through the ladder. The
        // epidemic must still cover every up node, deterministically, and
        // the ladder/governor accounting must be live (gossip never
        // predicts, so degradation here is driven by staleness and
        // confidence collapse, not deadlines).
        let s = GossipCampaign {
            ladder: true,
            storm: true,
            ..Default::default()
        };
        let plan = s.default_plan(6);
        let a = s.run(6, &plan);
        let b = s.run(6, &plan);
        assert!(!a.violated(), "{:?}", a.verdicts);
        assert_eq!(a.fingerprint, b.fingerprint, "ladder arm nondeterministic");
        let rungs = a.telemetry.counter("core.ladder.rung_lookahead")
            + a.telemetry.counter("core.ladder.rung_cached")
            + a.telemetry.counter("core.ladder.rung_heuristic")
            + a.telemetry.counter("core.ladder.rung_static");
        assert!(rungs > 0, "ladder never resolved a gossip.peer choice");
        assert!(
            a.telemetry.counter("core.governor.decisions_healthy")
                + a.telemetry.counter("core.governor.decisions_degraded")
                + a.telemetry.counter("core.governor.decisions_survival")
                > 0,
            "governor observed no decisions"
        );
    }

    #[test]
    fn unhealed_partition_starves_minority() {
        let s = GossipCampaign::default();
        let others: Vec<u32> = (0..16u32).filter(|&i| i != 9 && i != 10).collect();
        // Cut before the source's rumors can cross.
        let plan = FaultPlan::none().partition(&[9, 10], &others, 0, None);
        let r = s.run(8, &plan);
        assert!(r.violated(), "{:?}", r.verdicts);
        assert!(r.failing_oracles().contains(&"gossip.coverage"));
    }
}
