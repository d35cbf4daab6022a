//! Campaign registration: the replicated KV under fault schedules.
//!
//! A star-topology deployment — five replicas (`NodeId 0..5`), four client
//! sessions (`NodeId 5..9`) — checked against:
//!
//! * `kv.linearizable` (safety) — the concatenation of every session's
//!   recorded history is linearizable per key under the WGL checker. This
//!   is the scenario's heart: it holds regardless of crashes, partitions,
//!   elections, and fan-out choices — unless the `--unsafe-reads` arm
//!   removes the read guard, at which point a partitioned read replica
//!   serves stale values and this oracle fires.
//! * `kv.progress` (liveness-by-horizon) — once faults heal and a
//!   majority is back, every session finishes its operation budget before
//!   the horizon (sessions resubmit on timeout).

use crate::loadgen::LoadGen;
use crate::node::KvNode;
use crate::replica::{OverloadConfig, Replica};
use crate::session::Session;
use cb_core::choice::Resolver;
use cb_core::resolve::ladder::FleetPolicy;
use cb_core::resolve::random::RandomResolver;
use cb_core::runtime::{fleet_telemetry, RuntimeConfig, RuntimeNode};
use cb_harness::overload;
use cb_harness::prelude::*;
use cb_harness::scenario::RunReport;
use cb_simnet::prelude::*;
use cb_workload::WorkloadProfile;

/// The campaign-facing replicated-KV scenario.
pub struct KvCampaign {
    /// Number of replicas (ids `0..replicas`).
    pub replicas: usize,
    /// Number of client sessions (ids `replicas..replicas+clients`).
    pub clients: usize,
    /// Operations per session.
    pub ops_per_client: u32,
    /// Distinct keys the workload touches.
    pub keys: u64,
    /// Run horizon.
    pub horizon: SimTime,
    /// Layer stalls, delay spikes, and heavier loss onto the default plan.
    pub storm: bool,
    /// Serve reads from the chosen replica's local store without a guard
    /// round — the deliberately unsound arm that the linearizability
    /// oracle exists to catch.
    pub unsafe_reads: bool,
    /// Warm-start every node's resolver from this cross-run policy store
    /// (switches the fleet from `RandomResolver` to the ladder). Loaded by
    /// `campaign --policy`.
    pub policy: Option<std::sync::Arc<cb_policy::PolicyStore>>,
    /// Record fresh-lookahead decisions into a policy store attached to
    /// the report (switches to the ladder). Driven by
    /// `campaign --record-policy`.
    pub record_policy: bool,
    /// Drive the fleet with an open-loop aggregate workload (switches to
    /// the ladder so the governor sees the load signal): one extra
    /// generator node, replica-side admission control per the profile,
    /// and the goodput-floor + metastability oracles. Driven by
    /// `campaign --workload <profile>`.
    pub workload: Option<WorkloadProfile>,
}

impl Default for KvCampaign {
    fn default() -> Self {
        KvCampaign {
            replicas: 5,
            clients: 4,
            ops_per_client: 12,
            keys: 4,
            horizon: SimTime::from_secs(180),
            storm: false,
            unsafe_reads: false,
            policy: None,
            record_policy: false,
            workload: None,
        }
    }
}

impl Scenario for KvCampaign {
    fn name(&self) -> &'static str {
        "kv"
    }

    fn node_count(&self) -> usize {
        // The workload generator, when present, is the last node.
        self.replicas + self.clients + usize::from(self.workload.is_some())
    }

    fn default_plan(&self, seed: u64) -> FaultPlan {
        FaultPlan::replica_group(self.replicas, self.node_count(), seed, self.storm)
    }

    fn run(&self, seed: u64, plan: &FaultPlan) -> RunReport {
        let topo = Topology::star(self.node_count(), SimDuration::from_millis(20), 20_000_000);
        let group: Vec<NodeId> = (0..self.replicas as u32).map(NodeId).collect();
        let replicas = self.replicas;
        let clients = self.clients;
        let per_client = self.ops_per_client;
        let keys = self.keys;
        let unsafe_reads = self.unsafe_reads;
        // Workload arms always run the ladder: only a health-aware
        // resolver owns the governor the load signal is wired into.
        let ladder = self.policy.is_some() || self.record_policy || self.workload.is_some();
        let policy = FleetPolicy::new(self.name(), self.policy.clone(), self.record_policy);
        let arm = policy.clone();
        let workload = self.workload.clone();
        let windows = workload.as_ref().map_or(0, |p| p.windows(self.horizon));
        // Under a workload the controller runs faster: governor recovery
        // takes `up_patience` observations, and those must fit inside the
        // profile's recovery window even on nodes that stop deciding.
        let controller_every = if workload.is_some() {
            SimDuration::from_secs(1)
        } else {
            SimDuration::from_secs(5)
        };
        let mut sim: Sim<RuntimeNode<KvNode>> = Sim::new(topo, seed, move |id| {
            let svc = if (id.0 as usize) < replicas {
                let mut r = Replica::new(id, group.clone(), unsafe_reads);
                if let Some(p) = &workload {
                    r = r.with_overload(OverloadConfig::from_profile(p));
                }
                KvNode::Replica(r)
            } else if (id.0 as usize) < replicas + clients {
                KvNode::Client(Session::new(id, group.clone(), keys, per_client))
            } else if let Some(p) = workload
                .clone()
                .filter(|_| id.0 as usize == replicas + clients)
            {
                KvNode::Load(LoadGen::new(id, group.clone(), p, seed, windows))
            } else {
                KvNode::Idle
            };
            let resolver: Box<dyn Resolver> = if ladder {
                Box::new(arm.ladder())
            } else {
                Box::new(RandomResolver::new(seed ^ ((id.0 as u64) << 24)))
            };
            RuntimeNode::new(
                svc,
                RuntimeConfig::new(resolver).controller_every(controller_every),
            )
        });
        sim.start_all();
        plan.drive(&mut sim, seed ^ 0x5eed, self.horizon);

        // Linearizability: the WGL checker over all sessions' histories.
        // Progress: every session finished its budget.
        let mut history: Vec<Op> = Vec::new();
        let mut completed = 0usize;
        for i in replicas as u32..(replicas + clients) as u32 {
            if let Some(s) = sim.actor(NodeId(i)).service().as_session() {
                history.extend(s.history.iter().cloned());
                completed += s.completed();
            }
        }
        let target = clients * per_client as usize;
        let fleet = fleet_telemetry(&sim);
        let mut verdicts = vec![
            linearizability_verdict("kv.linearizable", &history),
            OracleVerdict::check(
                "kv.progress",
                completed >= target,
                format!("{completed}/{target} ops completed"),
            ),
        ];
        if let Some(p) = &self.workload {
            verdicts.push(overload::goodput_floor(&fleet, p.goodput_floor));
            // The overload source is the flash crowd when there is one,
            // otherwise the end of offered load altogether.
            let windows_end = SimTime::from_nanos(windows * p.window.as_nanos());
            let quiet_after = if p.flash_mult > 1.0 {
                p.flash_end.min(windows_end)
            } else {
                windows_end
            };
            verdicts.push(overload::metastability(
                &fleet,
                quiet_after,
                p.recovery_window,
                self.horizon,
            ));
        }
        let mut report = RunReport::from_sim(self.name(), seed, plan, &mut sim, verdicts, fleet);
        report.policy = policy.recorded();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_run_passes() {
        let s = KvCampaign::default();
        let r = s.run(1, &FaultPlan::none());
        assert!(!r.violated(), "{:?}", r.verdicts);
    }

    #[test]
    fn default_plan_recovers() {
        let s = KvCampaign::default();
        let plan = s.default_plan(3);
        let r = s.run(3, &plan);
        assert!(!r.violated(), "{:?}", r.verdicts);
    }

    #[test]
    fn storm_keeps_linearizability() {
        let s = KvCampaign {
            storm: true,
            ..KvCampaign::default()
        };
        let plan = s.default_plan(5);
        let r = s.run(5, &plan);
        let failing = r.failing_oracles();
        assert!(!failing.contains(&"kv.linearizable"), "{:?}", r.verdicts);
    }

    #[test]
    fn flash_crowd_sheds_steps_down_and_recovers() {
        use cb_telemetry::keys;
        // The steady profile is the control: same protections, no crowd.
        for profile in ["flash", "steady"] {
            let s = KvCampaign {
                workload: WorkloadProfile::by_name(profile),
                ..KvCampaign::default()
            };
            let r = s.run(11, &FaultPlan::none());
            // Includes the profile's goodput floor and the metastability
            // oracle.
            assert!(!r.violated(), "{profile}: {:?}", r.verdicts);
            let t = &r.telemetry;
            assert_eq!(
                t.gauge(keys::CORE_GOVERNOR_RUNG),
                0,
                "{profile}: every node Healthy at the horizon"
            );
            if profile == "flash" {
                assert!(
                    t.counter(keys::WORKLOAD_SHED) > 0,
                    "admission must shed under a 6x flash"
                );
                assert!(
                    t.counter(keys::CORE_GOVERNOR_CAUSE_LOAD) >= 1,
                    "the load signal must step the governor down"
                );
                assert!(
                    t.counter(keys::CORE_GOVERNOR_RECOVERIES) >= 1,
                    "the fleet must recover after the flash"
                );
            }
        }
    }

    #[test]
    fn retry_storm_seed_goes_metastable_without_protection() {
        // Seed-exact regression for the unprotected arm: admission off +
        // unbounded retries turn a finite flash crowd into self-sustaining
        // overload, and the metastability oracle must say so.
        let s = KvCampaign {
            workload: WorkloadProfile::by_name("flash-off"),
            ..KvCampaign::default()
        };
        let r = s.run(33, &FaultPlan::none());
        assert!(r.violated(), "{:?}", r.verdicts);
        assert!(
            r.failing_oracles().contains(&"workload.metastable"),
            "{:?}",
            r.verdicts
        );
        use cb_telemetry::keys;
        let offered = r.telemetry.counter(keys::WORKLOAD_OFFERED);
        let attempts = r.telemetry.counter(keys::WORKLOAD_ATTEMPTS);
        assert!(
            attempts > offered * 2,
            "retry amplification drives the storm: {attempts} attempts vs {offered} offered"
        );
        // The storm is deterministic: the same seed reproduces it exactly.
        let r2 = s.run(33, &FaultPlan::none());
        assert_eq!(r.fingerprint, r2.fingerprint);
        assert_eq!(attempts, r2.telemetry.counter(keys::WORKLOAD_ATTEMPTS));
    }

    #[test]
    fn a_million_users_cost_thousands_of_events_not_millions() {
        let s = KvCampaign {
            workload: WorkloadProfile::by_name("million"),
            ..KvCampaign::default()
        };
        let r = s.run(2, &FaultPlan::none());
        assert!(!r.violated(), "{:?}", r.verdicts);
        use cb_telemetry::keys;
        let offered = r.telemetry.counter(keys::WORKLOAD_OFFERED);
        assert!(offered >= 1_000_000, "offered only {offered}");
        // Aggregate-flow modeling: the whole population costs orders of
        // magnitude fewer sim events than users served.
        assert!(
            r.events_processed < offered / 10,
            "{} events for {offered} offered ops",
            r.events_processed
        );
    }

    #[test]
    fn majority_loss_stalls_progress_but_keeps_linearizability() {
        let s = KvCampaign::default();
        // Permanently cut three of five replicas off: no quorum, no
        // progress — but every answered op must still linearize.
        let others: Vec<u32> = (0..9u32).filter(|&i| i > 2).collect();
        let plan = FaultPlan::none().partition(&[0, 1, 2], &others, 5_000, None);
        let r = s.run(7, &plan);
        assert!(r.violated(), "{:?}", r.verdicts);
        let failing = r.failing_oracles();
        assert!(failing.contains(&"kv.progress"), "{failing:?}");
        assert!(!failing.contains(&"kv.linearizable"), "{failing:?}");
    }
}
