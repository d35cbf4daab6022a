//! A tiny self-contained scenario used by the harness's own tests.
//!
//! `RingScenario` runs a heartbeat ring: every node periodically pings its
//! successor for a fixed number of rounds and records which peers it has
//! heard from. Its oracle demands that, after the run settles, every node
//! that is up has heard from its (up) predecessor — which holds under
//! transient faults but is violated by an unhealed partition or a node that
//! is never restarted. That gives the campaign/shrink tests a scenario with
//! a *controllable* violation at near-zero cost.

use crate::oracle::{self, OracleVerdict};
use crate::plan::FaultPlan;
use crate::scenario::{RunReport, Scenario};
use cb_simnet::prelude::*;
use std::collections::BTreeSet;

const ROUNDS: u64 = 20;
const PERIOD_MS: u64 = 100;

/// Heartbeat-ring actor: ping successor every `PERIOD_MS`, `ROUNDS` times.
pub struct RingNode {
    heard_from: BTreeSet<u32>,
    rounds_left: u64,
}

impl RingNode {
    fn new() -> Self {
        RingNode {
            heard_from: BTreeSet::new(),
            rounds_left: ROUNDS,
        }
    }

    fn succ(ctx: &Ctx<'_, Ping>) -> NodeId {
        NodeId((ctx.id().0 + 1) % ctx.host_count() as u32)
    }
}

/// The single message type: a heartbeat.
#[derive(Clone, Debug, Hash)]
pub struct Ping;

impl Actor for RingNode {
    type Msg = Ping;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Ping>) {
        ctx.set_timer(SimDuration::from_millis(PERIOD_MS), 0);
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_, Ping>, from: NodeId, _msg: Ping) {
        self.heard_from.insert(from.0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Ping>, _timer: TimerId, _tag: u64) {
        if self.rounds_left == 0 {
            return;
        }
        self.rounds_left -= 1;
        let succ = Self::succ(ctx);
        ctx.send_unreliable(succ, Ping);
        if self.rounds_left > 0 {
            ctx.set_timer(SimDuration::from_millis(PERIOD_MS), 0);
        }
    }
}

/// The ring heartbeat scenario. See module docs.
pub struct RingScenario {
    /// Number of nodes in the ring.
    pub nodes: usize,
    /// Run horizon.
    pub horizon: SimTime,
}

impl Default for RingScenario {
    fn default() -> Self {
        RingScenario {
            nodes: 8,
            horizon: SimTime::from_secs(10),
        }
    }
}

impl Scenario for RingScenario {
    fn name(&self) -> &'static str {
        "ring"
    }

    fn node_count(&self) -> usize {
        self.nodes
    }

    fn default_plan(&self, seed: u64) -> FaultPlan {
        // A transient crash of a rotating victim, healed well before the
        // heartbeat rounds end — the oracle holds under this plan.
        let victim = (seed % self.nodes as u64) as u32;
        FaultPlan::none()
            .crash(victim, 300)
            .restart(victim, 600)
            .loss(0.05, 200, 700)
    }

    fn run(&self, seed: u64, plan: &FaultPlan) -> RunReport {
        let topo = Topology::star(self.nodes, SimDuration::from_millis(5), 10_000_000);
        let mut sim: Sim<RingNode> = Sim::new(topo, seed, |_| RingNode::new());
        sim.start_all();
        plan.drive(&mut sim, seed ^ 0x9e37_79b9, self.horizon);

        // Oracle: every up node has heard from its nearest up predecessor.
        let n = self.nodes as u32;
        let mut missing = Vec::new();
        for i in 0..n {
            let me = NodeId(i);
            if !sim.is_up(me) {
                continue;
            }
            // Nearest up predecessor around the ring.
            let mut pred = None;
            for step in 1..n {
                let p = NodeId((i + n - step) % n);
                if sim.is_up(p) {
                    pred = Some(p);
                    break;
                }
            }
            let Some(p) = pred else { continue };
            // Only the immediate predecessor ever pings `me`, so if the
            // nearest up predecessor is not the immediate one, skip (its
            // pings went to its own successor, not to `me`).
            if (p.0 + 1) % n != i {
                continue;
            }
            if !sim.actor(me).heard_from.contains(&p.0) {
                missing.push(format!("{} never heard from {}", i, p.0));
            }
        }
        let verdicts = vec![
            OracleVerdict::check(
                "ring.heartbeat_connectivity",
                missing.is_empty(),
                if missing.is_empty() {
                    "every up node heard its predecessor".to_string()
                } else {
                    missing.join("; ")
                },
            ),
            oracle::quiescence(&sim, self.horizon),
        ];
        let telemetry = sim.telemetry();
        RunReport::from_sim(self.name(), seed, plan, &mut sim, verdicts, telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_run_passes() {
        let s = RingScenario::default();
        let report = s.run(7, &FaultPlan::none());
        assert!(!report.violated(), "verdicts: {:?}", report.verdicts);
        assert!(
            report
                .telemetry
                .counter(cb_telemetry::keys::NET_MSGS_DELIVERED)
                > 0
        );
        assert!(violations(&report).is_empty());
    }

    /// Names of the report's synthesised violation spans.
    fn violations(report: &RunReport) -> Vec<&str> {
        report
            .provenance
            .iter()
            .filter(|s| s.kind == SpanKind::Violation)
            .map(|s| s.name.as_str())
            .collect()
    }

    #[test]
    fn default_plan_recovers() {
        let s = RingScenario::default();
        for seed in [1, 2, 3] {
            let plan = s.default_plan(seed);
            let report = s.run(seed, &plan);
            assert!(
                !report.violated(),
                "seed {seed} verdicts: {:?}",
                report.verdicts
            );
        }
    }

    #[test]
    fn unhealed_partition_violates() {
        let s = RingScenario::default();
        // Cut node 3 off from everyone, forever.
        let others: Vec<u32> = (0..8u32).filter(|&i| i != 3).collect();
        let plan = FaultPlan::none().partition(&[3], &others, 0, None);
        let report = s.run(42, &plan);
        assert!(report.violated());
        assert!(report
            .failing_oracles()
            .contains(&"ring.heartbeat_connectivity"));
        assert_eq!(violations(&report), report.failing_oracles());
    }

    #[test]
    fn crash_without_restart_is_tolerated_by_oracle() {
        // A permanently dead node is skipped by the oracle (it's not "up"),
        // and its successor only misses heartbeats from it, which the
        // nearest-up-predecessor rule forgives.
        let s = RingScenario::default();
        let plan = FaultPlan::none().crash(5, 50);
        let report = s.run(9, &plan);
        assert!(!report.violated(), "verdicts: {:?}", report.verdicts);
    }

    #[test]
    fn same_seed_same_fingerprint() {
        let s = RingScenario::default();
        let plan = s.default_plan(11);
        let a = s.run(11, &plan);
        let b = s.run(11, &plan);
        assert_eq!(a.fingerprint, b.fingerprint);
        let c = s.run(12, &plan);
        assert_ne!(a.fingerprint, c.fingerprint);
    }
}
