//! Campaign registration: the random-tree scenario under fault schedules.
//!
//! Exposes the §4 case-study protocol to the `cb-harness` campaign runner.
//! The default arm is Choice-Random (the cheap one); setting
//! [`RandTreeCampaign::lookahead`] switches to predictive lookahead so the
//! campaign exercises the fused-evaluation hot path — the
//! `campaign --lookahead` flag and the lookahead pins in
//! `tests/ladder_pins.rs` use it.
//!
//! The oracles check the paper's core correctness claims
//! about the overlay after faults heal:
//!
//! * `tree.well_formed` — parent/child links are mutually consistent and
//!   acyclic;
//! * `tree.reachable` — every node that is up at the end of the run is
//!   reachable from the root by child links (no orphaned islands after
//!   the fault schedule heals).

use crate::choice::ChoiceRandTree;
use crate::metrics::tree_stats;
use cb_core::choice::Resolver;
use cb_core::predict::PredictConfig;
use cb_core::resolve::ladder::FleetPolicy;
use cb_core::resolve::lookahead::LookaheadResolver;
use cb_core::resolve::random::RandomResolver;
use cb_core::runtime::{fleet_telemetry, RuntimeConfig, RuntimeNode};
use cb_harness::prelude::*;
use cb_harness::scenario::RunReport;
use cb_simnet::prelude::*;

/// The campaign-facing random-tree scenario.
pub struct RandTreeCampaign {
    /// Number of participants.
    pub nodes: usize,
    /// Run horizon.
    pub horizon: SimTime,
    /// Resolve the forwarding choice by predictive lookahead instead of
    /// uniformly at random. This routes every campaign decision through
    /// the [`cb_core::predict::ModelEvaluator`] hot path (the `campaign`
    /// binary flips it with `--lookahead`).
    pub lookahead: bool,
    /// Inert: nothing reads it. It once switched a per-decision evaluation
    /// cache that has since been deleted; the field stays so struct
    /// literals naming it still compile.
    pub evalcache: bool,
    /// Resolve choices through the degradation-governed ladder
    /// ([`LadderResolver`](cb_core::resolve::ladder::LadderResolver))
    /// instead of a fixed strategy. Takes precedence over
    /// [`lookahead`](Self::lookahead). Combined with
    /// [`deadline_states`](Self::deadline_states) this is the *enforced*
    /// arm of the degradation experiments: the evaluator stops exploring
    /// at the deadline, reports [`Partial`], and the ladder steps down.
    ///
    /// [`Partial`]: cb_core::choice::EvalVerdict::Partial
    pub ladder: bool,
    /// Per-decision prediction deadline, in explored states (0 = off).
    /// In the ladder arm it is *enforced* via
    /// [`PredictConfig::deadline_states`]; in the lookahead control arm
    /// it is *reported only* via
    /// [`RuntimeConfig::report_deadline`](cb_core::runtime::RuntimeConfig::report_deadline),
    /// so `core.predict.deadline_overruns` counts how often unbounded
    /// prediction would have blown the budget.
    pub deadline_states: u64,
    /// Replace the default fault schedule with a fault *storm*: gray
    /// failures (stalls), a latency spike and a loss window layered over
    /// the crash/restart churn. Everything still heals well before the
    /// horizon, so the oracles must hold.
    pub storm: bool,
    /// Warm-start every node's ladder from this cross-run policy store
    /// (forces the ladder arm). Loaded by `campaign --policy`.
    pub policy: Option<std::sync::Arc<cb_policy::PolicyStore>>,
    /// Record every fresh-lookahead decision into a policy store attached
    /// to the report (forces the ladder arm). Driven by
    /// `campaign --record-policy`.
    pub record_policy: bool,
}

impl Default for RandTreeCampaign {
    fn default() -> Self {
        RandTreeCampaign {
            nodes: 15,
            horizon: SimTime::from_secs(900),
            lookahead: false,
            evalcache: true,
            ladder: false,
            deadline_states: 0,
            storm: false,
            policy: None,
            record_policy: false,
        }
    }
}

impl Scenario for RandTreeCampaign {
    fn name(&self) -> &'static str {
        "randtree"
    }

    fn node_count(&self) -> usize {
        self.nodes
    }

    fn default_plan(&self, seed: u64) -> FaultPlan {
        // Crash/restart a rotating non-root victim mid-join, add a healed
        // partition that temporarily splits off two other non-root nodes,
        // and a short loss window. Everything heals well before the
        // horizon, so the oracles must hold.
        let n = self.nodes as u64;
        let victim = 1 + (seed % (n - 1)) as u32;
        let pa = 1 + ((seed + 1) % (n - 1)) as u32;
        let pb = 1 + ((seed + 2) % (n - 1)) as u32;
        let mut plan = FaultPlan::none()
            .crash(victim, 3_000)
            .restart(victim, 8_000)
            .loss(0.05, 1_000, 5_000);
        if pa != victim && pb != victim && pa != pb {
            let others: Vec<u32> = (0..self.nodes as u32)
                .filter(|&i| i != pa && i != pb)
                .collect();
            plan = plan.partition(&[pa, pb], &others, 4_000, Some(10_000));
        }
        if self.storm {
            // Gray failures + latency spike layered on top: stall two
            // rotating non-root nodes (they freeze, then resume with their
            // deferred events — no crash detection fires), and storm the
            // whole mesh with extra latency and loss mid-join. Healed by
            // t=12s; the remaining horizon must repair the overlay.
            let sa = 1 + ((seed + 3) % (n - 1)) as u32;
            let sb = 1 + ((seed + 5) % (n - 1)) as u32;
            plan = plan.stall(sa, 2_000, 9_000).delayspike(200, 3_000, 12_000);
            if sb != sa {
                plan = plan.stall(sb, 4_000, 11_000);
            }
            plan = plan.loss(0.10, 2_500, 10_000);
        }
        plan
    }

    fn run(&self, seed: u64, plan: &FaultPlan) -> RunReport {
        let topo = Topology::transit_stub(
            &TransitStubConfig::default().with_at_least_hosts(self.nodes),
            &mut SimRng::seed_from(seed.wrapping_mul(0x9E37_79B9)),
        );
        let nodes = self.nodes;
        let lookahead = self.lookahead;
        let ladder = self.ladder || self.policy.is_some() || self.record_policy;
        let deadline = self.deadline_states;
        let policy = FleetPolicy::new(self.name(), self.policy.clone(), self.record_policy);
        let arm = policy.clone();
        let mut sim: Sim<RuntimeNode<ChoiceRandTree>> = Sim::new(topo, seed, move |id| {
            let delay = SimDuration::from_millis(400) * (id.0 as u64 + 1);
            let resolver: Box<dyn Resolver> = if ladder {
                Box::new(arm.ladder())
            } else if lookahead {
                Box::new(LookaheadResolver::new())
            } else {
                Box::new(RandomResolver::new(seed ^ ((id.0 as u64) << 8)))
            };
            // Mirrors `ChoiceRandTree::new`'s default prediction budget
            // (the random arm never evaluates, so the config is inert
            // there). The ladder arm *enforces* the prediction deadline at
            // the evaluator; every other arm leaves it off and (when a
            // deadline is set) merely reports overruns via the runtime
            // knob.
            let service =
                ChoiceRandTree::new(id, NodeId(0), delay).with_predict_config(PredictConfig {
                    depth: 8,
                    walks: 16,
                    deadline_states: if ladder { deadline } else { 0 },
                    ..Default::default()
                });
            // Both arms report overruns against the same deadline; only
            // the ladder arm *enforces* it, so the control arm's overrun
            // counter is the experiment's headline number while the
            // ladder arm's must stay zero.
            let mut cfg =
                RuntimeConfig::new(resolver).controller_every(SimDuration::from_millis(500));
            if deadline > 0 {
                cfg = cfg.report_deadline(deadline);
            }
            RuntimeNode::new(service, cfg)
        });
        let participants: Vec<NodeId> = sim.topology().hosts().take(nodes).collect();
        for &n in &participants {
            sim.schedule_start(n, SimTime::ZERO);
        }
        plan.drive(&mut sim, seed ^ 0xc0ff_ee00, self.horizon);

        let stats = tree_stats(&sim, NodeId(0));
        let up = participants.iter().filter(|&&n| sim.is_up(n)).count();
        let verdicts = vec![
            OracleVerdict::check("tree.well_formed", stats.well_formed, format!("{stats:?}")),
            OracleVerdict::check(
                "tree.reachable",
                stats.reachable == up,
                format!("{} of {up} up nodes reachable from root", stats.reachable),
            ),
        ];
        let telemetry = fleet_telemetry(&sim);
        let mut report =
            RunReport::from_sim(self.name(), seed, plan, &mut sim, verdicts, telemetry);
        report.policy = policy.recorded();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_run_passes() {
        let s = RandTreeCampaign::default();
        let r = s.run(3, &FaultPlan::none());
        assert!(!r.violated(), "{:?}", r.verdicts);
    }

    #[test]
    fn default_plan_recovers() {
        let s = RandTreeCampaign::default();
        let plan = s.default_plan(5);
        let r = s.run(5, &plan);
        assert!(!r.violated(), "{:?}", r.verdicts);
    }

    #[test]
    fn lookahead_arm_recovers_deterministically_and_evaluates() {
        let s = RandTreeCampaign {
            lookahead: true,
            ..Default::default()
        };
        let plan = s.default_plan(7);
        let a = s.run(7, &plan);
        let b = s.run(7, &plan);
        assert!(!a.violated(), "{:?}", a.verdicts);
        assert_eq!(
            a.fingerprint, b.fingerprint,
            "lookahead arm nondeterministic"
        );
        // The lookahead arm routes decisions through the evaluator.
        assert!(
            a.telemetry.counter("core.lookahead.evaluations") > 0,
            "the lookahead arm never evaluated an option"
        );
        assert!(a.telemetry.counter("core.states_explored") > 0);
    }

    #[test]
    fn storm_ladder_arm_recovers_and_respects_the_deadline() {
        // The enforced arm: fault storm + LadderResolver + prediction
        // deadline. The overlay must still repair (oracles hold), every
        // decision must finish within the deadline (the runtime reports
        // overruns against the same budget — there must be none), and the
        // governor/ladder telemetry must show real degradation traffic:
        // at least one step-down and at least one recovery.
        let s = RandTreeCampaign {
            ladder: true,
            deadline_states: 20,
            storm: true,
            ..Default::default()
        };
        let plan = s.default_plan(9);
        let a = s.run(9, &plan);
        let b = s.run(9, &plan);
        assert!(!a.violated(), "{:?}", a.verdicts);
        assert_eq!(a.fingerprint, b.fingerprint, "ladder arm nondeterministic");
        let t = &a.telemetry;
        assert_eq!(
            t.counter("core.predict.deadline_overruns"),
            0,
            "enforced deadline overran"
        );
        assert!(
            t.counter("core.predict.partial_evals") > 0,
            "deadline never fired — the storm arm is not exercising degradation"
        );
        assert!(t.counter("core.governor.step_downs") > 0, "no step-down");
        assert!(t.counter("core.governor.recoveries") > 0, "no recovery");
        let rungs = t.counter("core.ladder.rung_lookahead")
            + t.counter("core.ladder.rung_cached")
            + t.counter("core.ladder.rung_heuristic")
            + t.counter("core.ladder.rung_static");
        assert!(rungs > 0, "ladder never resolved a decision");
        assert!(
            t.counter("core.ladder.rung_cached")
                + t.counter("core.ladder.rung_heuristic")
                + t.counter("core.ladder.rung_static")
                > 0,
            "ladder never left the lookahead rung"
        );
    }

    #[test]
    fn storm_lookahead_control_arm_records_deadline_overruns() {
        // The control arm: same storm, same deadline, but pure lookahead
        // with the deadline merely *reported*, not enforced. Unbounded
        // prediction must blow the budget — that contrast is the
        // experiment's headline.
        let s = RandTreeCampaign {
            lookahead: true,
            deadline_states: 20,
            storm: true,
            ..Default::default()
        };
        let plan = s.default_plan(9);
        let r = s.run(9, &plan);
        assert!(!r.violated(), "{:?}", r.verdicts);
        assert!(
            r.telemetry.counter("core.predict.deadline_overruns") > 0,
            "unbounded lookahead never overran the deadline"
        );
        assert_eq!(
            r.telemetry.counter("core.predict.partial_evals"),
            0,
            "control arm must not truncate evaluations"
        );
    }

    /// Regression (shrunk from the 32-seed storm sweep, seed 21): a
    /// joiner's `JoinAccepted` is dropped at a partition boundary, its
    /// retry later hits the parent's duplicate-reanswer path, and a stale
    /// ConnBroken from a pre-heal blocked send then disowns the child on
    /// the parent side only — the child still believes in the link. The
    /// attachment lease must detect the one-sided link and rejoin.
    #[test]
    fn dropped_accept_plus_stale_conn_break_heals_via_lease() {
        let s = RandTreeCampaign {
            lookahead: true,
            deadline_states: 20,
            storm: true,
            ..Default::default()
        };
        let plan = FaultPlan::from_spec(
            "part:9.10|0.1.2.3.4.5.6.7.8.11.12.13.14@4000-10000;delayspike:200@3000-12000",
        )
        .expect("spec");
        let r = s.run(21, &plan);
        assert!(!r.violated(), "{:?}", r.verdicts);
    }

    /// Regression (shrunk from the 32-seed storm sweep, seed 28): a node
    /// stalled across an entire partition window never transmits during
    /// it, so it never observes the link break that made its parent
    /// disown it. The peer-side break notification plus the attachment
    /// lease must restore mutual parent/child consistency.
    #[test]
    fn stall_across_partition_heals_via_peer_notification_and_lease() {
        let s = RandTreeCampaign {
            ladder: true,
            deadline_states: 20,
            storm: true,
            ..Default::default()
        };
        let plan = FaultPlan::from_spec(
            "part:2.3|0.1.4.5.6.7.8.9.10.11.12.13.14@4000-10000;stall:6@4000-11000",
        )
        .expect("spec");
        let r = s.run(28, &plan);
        assert!(!r.violated(), "{:?}", r.verdicts);
    }

    #[test]
    fn unhealed_partition_orphans_nodes() {
        let s = RandTreeCampaign::default();
        let others: Vec<u32> = (0..15u32).filter(|&i| i != 7 && i != 8).collect();
        let plan = FaultPlan::none().partition(&[7, 8], &others, 2_000, None);
        let r = s.run(11, &plan);
        assert!(r.violated(), "{:?}", r.verdicts);
        assert!(r.failing_oracles().contains(&"tree.reachable"));
    }
}
