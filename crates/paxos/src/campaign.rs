//! Campaign registration: multi-Paxos under fault schedules.
//!
//! A small star-topology deployment — five replicas (`NodeId 0..5`) with
//! round-robin slot ownership, four clients (`NodeId 5..9`) — checked
//! against consensus's two defining invariants:
//!
//! * `paxos.agreement` (safety) — no two replicas ever learn different
//!   commands for the same slot, no matter what the fault schedule did;
//! * `paxos.progress` (liveness-by-horizon) — once faults heal and a
//!   majority is back, every submitted command commits before the horizon
//!   (clients resubmit on timeout, so transient faults only add latency).
//!
//! Agreement must hold under *any* plan; progress is only demanded of
//! plans that heal (the default plans do).

use crate::client::{Client, ProposerRegime};
use crate::node::PaxosNode;
use crate::replica::{Replica, SlotOwnership};
use cb_core::resolve::random::RandomResolver;
use cb_core::runtime::{fleet_telemetry, RuntimeConfig, RuntimeNode};
use cb_harness::prelude::*;
use cb_harness::scenario::RunReport;
use cb_simnet::prelude::*;
use std::collections::BTreeMap;

/// The campaign-facing consensus scenario.
pub struct PaxosCampaign {
    /// Number of replicas (ids `0..replicas`).
    pub replicas: usize,
    /// Number of clients (ids `replicas..replicas+clients`).
    pub clients: usize,
    /// Commands per client.
    pub commands_per_client: u32,
    /// Run horizon.
    pub horizon: SimTime,
}

impl Default for PaxosCampaign {
    fn default() -> Self {
        PaxosCampaign {
            replicas: 5,
            clients: 4,
            commands_per_client: 10,
            horizon: SimTime::from_secs(180),
        }
    }
}

impl Scenario for PaxosCampaign {
    fn name(&self) -> &'static str {
        "paxos"
    }

    fn node_count(&self) -> usize {
        self.replicas + self.clients
    }

    fn default_plan(&self, seed: u64) -> FaultPlan {
        FaultPlan::replica_group(self.replicas, self.node_count(), seed, false)
    }

    fn run(&self, seed: u64, plan: &FaultPlan) -> RunReport {
        let topo = Topology::star(self.node_count(), SimDuration::from_millis(20), 20_000_000);
        let group: Vec<NodeId> = (0..self.replicas as u32).map(NodeId).collect();
        let replicas = self.replicas;
        let clients = self.clients;
        let per_client = self.commands_per_client;
        let group_clone = group.clone();
        let mut sim: Sim<RuntimeNode<PaxosNode>> = Sim::new(topo, seed, move |id| {
            let svc = if (id.0 as usize) < replicas {
                PaxosNode::Replica(Replica::new(
                    id,
                    id.0 as u64,
                    group_clone.clone(),
                    SlotOwnership::RoundRobin,
                ))
            } else if (id.0 as usize) < replicas + clients {
                PaxosNode::Client(Client::new(
                    id,
                    group_clone.clone(),
                    ProposerRegime::RoundRobin,
                    SimDuration::from_millis(500),
                    per_client,
                ))
            } else {
                PaxosNode::Idle
            };
            RuntimeNode::new(
                svc,
                RuntimeConfig::new(Box::new(RandomResolver::new(seed ^ ((id.0 as u64) << 24))))
                    .controller_every(SimDuration::from_secs(5)),
            )
        });
        sim.start_all();
        plan.drive(&mut sim, seed ^ 0x5eed, self.horizon);

        // Progress: every client committed everything it submitted.
        let mut committed = 0usize;
        for i in replicas as u32..(replicas + clients) as u32 {
            if let Some(c) = sim.actor(NodeId(i)).service().as_client() {
                committed += c.committed();
            }
        }
        let submitted = clients * per_client as usize;
        let verdicts = vec![
            agreement(
                "paxos.agreement",
                group
                    .iter()
                    .filter_map(|&r| sim.actor(r).service().as_replica()),
            ),
            OracleVerdict::check(
                "paxos.progress",
                committed == submitted,
                format!("{committed}/{submitted} commands committed"),
            ),
        ];
        let telemetry = fleet_telemetry(&sim);
        RunReport::from_sim(self.name(), seed, plan, &mut sim, verdicts, telemetry)
    }
}

/// Consensus safety over a replica group: across `replicas`, every learned
/// slot maps to one command. A restarted replica has a truncated log;
/// that's fine — what it *has* learned must still agree. `name` is the
/// oracle's (`paxos.agreement`, `mencius.agreement`).
pub(crate) fn agreement<'a>(
    name: &str,
    replicas: impl IntoIterator<Item = &'a Replica>,
) -> OracleVerdict {
    let mut by_slot: BTreeMap<u64, (u64, NodeId)> = BTreeMap::new();
    let mut conflict = None;
    for rep in replicas {
        let me = rep.id();
        for (&slot, &cmd) in &rep.learned {
            match by_slot.get(&slot) {
                Some(&(prev, who)) if prev != cmd.0 => {
                    conflict = Some(format!(
                        "slot {slot}: replica {} learned {prev:#x}, replica {} learned {:#x}",
                        who.0, me.0, cmd.0
                    ));
                }
                Some(_) => {}
                None => {
                    by_slot.insert(slot, (cmd.0, me));
                }
            }
        }
    }
    OracleVerdict::check(
        name,
        conflict.is_none(),
        conflict.unwrap_or_else(|| {
            format!("{} learned slots consistent across replicas", by_slot.len())
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_run_passes() {
        let s = PaxosCampaign::default();
        let r = s.run(1, &FaultPlan::none());
        assert!(!r.violated(), "{:?}", r.verdicts);
    }

    #[test]
    fn default_plan_recovers() {
        let s = PaxosCampaign::default();
        let plan = s.default_plan(3);
        let r = s.run(3, &plan);
        assert!(!r.violated(), "{:?}", r.verdicts);
    }

    #[test]
    fn majority_loss_stalls_progress_but_keeps_agreement() {
        let s = PaxosCampaign::default();
        // Permanently cut three of five replicas off: no quorum, no
        // progress — but agreement must survive.
        let others: Vec<u32> = (0..9u32).filter(|&i| i > 2).collect();
        let plan = FaultPlan::none().partition(&[0, 1, 2], &others, 5_000, None);
        let r = s.run(7, &plan);
        assert!(r.violated(), "{:?}", r.verdicts);
        let failing = r.failing_oracles();
        assert!(failing.contains(&"paxos.progress"), "{failing:?}");
        assert!(!failing.contains(&"paxos.agreement"), "{failing:?}");
    }
}
