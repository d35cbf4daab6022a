//! The steering laboratory (ablation A2).
//!
//! A deliberately inconsistent protocol — two adoption waves carrying
//! different values crawl toward each other — run with and without the
//! predicted-violation steering advisor, across controller cadences. The
//! point quantified here is §3.3.2's freshness requirement: steering only
//! works when the model/prediction loop runs *ahead* of the system, so
//! conflicts prevented degrade as the controller slows relative to the
//! wave's hop delay.

use cb_core::model::state::{NodeView, StateModel};
use cb_core::prelude::*;
use cb_simnet::time::{SimDuration, SimTime};

/// The racing-waves protocol message.
#[derive(Clone, Debug, Hash)]
pub struct SetValue(pub u32);

const FORWARD_TIMER: u64 = 1;

/// The adopt-first register node.
pub struct Register {
    me: NodeId,
    n: usize,
    hop_delay: SimDuration,
    /// Adopted value, if any.
    pub value: Option<u32>,
    /// Conflicting deliveries observed (the inconsistency to prevent).
    pub conflicts_seen: u32,
}

impl Register {
    fn adopt(&mut self, ctx: &mut ServiceCtx<'_, '_, SetValue, Option<u32>>, v: u32) {
        self.value = Some(v);
        ctx.set_timer(self.hop_delay, FORWARD_TIMER);
    }
}

impl Service for Register {
    type Msg = SetValue;
    type Checkpoint = Option<u32>;

    fn on_start(&mut self, ctx: &mut ServiceCtx<'_, '_, SetValue, Option<u32>>) {
        let n = ctx.host_count() as u32;
        match self.me {
            NodeId(0) => self.adopt(ctx, 1),
            m if m.0 == n - 1 => self.adopt(ctx, 2),
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut ServiceCtx<'_, '_, SetValue, Option<u32>>, tag: u64) {
        if tag != FORWARD_TIMER {
            return;
        }
        let n = ctx.host_count() as u32;
        // Value 1 flows toward higher ids, value 2 toward lower ids.
        let target = match self.value {
            Some(1) if self.me.0 + 1 < n => Some(NodeId(self.me.0 + 1)),
            Some(2) if self.me.0 > 0 => Some(NodeId(self.me.0 - 1)),
            _ => None,
        };
        if let (Some(t), Some(v)) = (target, self.value) {
            ctx.send(t, SetValue(v));
        }
    }

    fn on_message(
        &mut self,
        ctx: &mut ServiceCtx<'_, '_, SetValue, Option<u32>>,
        _from: NodeId,
        msg: SetValue,
    ) {
        match self.value {
            None => self.adopt(ctx, msg.0),
            Some(v) if v != msg.0 => self.conflicts_seen += 1,
            Some(_) => {}
        }
    }

    fn checkpoint(&self, _m: &StateModel<Option<u32>>) -> Option<u32> {
        self.value
    }

    fn neighbors(&self) -> Vec<NodeId> {
        (0..self.n as u32)
            .map(NodeId)
            .filter(|&n| n != self.me)
            .collect()
    }
}

/// One steering-lab run.
#[derive(Clone, Debug)]
pub struct LabOutcome {
    /// Conflicting deliveries observed across all nodes.
    pub conflicts: u32,
    /// Messages the steering filters dropped.
    pub filtered: u64,
}

/// The predicted-violation advisor: drop (and break the connection to)
/// any peer whose last checkpoint adopted a different value than ours.
fn conflict_advisor() -> SteeringAdvisor<Option<u32>> {
    Box::new(|input| {
        let Some(mine) = input.my_state else {
            return Vec::new();
        };
        input
            .model
            .known()
            .filter_map(|peer| match input.model.view(peer) {
                NodeView::Known(s) => match s.state {
                    Some(theirs) if theirs != mine => Some(SteeringAdvice {
                        reason: format!("predicted conflict {mine} vs {theirs}"),
                        from: peer,
                        action: FilterAction::DropAndBreak,
                    }),
                    _ => None,
                },
                NodeView::Generic => None,
            })
            .collect()
    })
}

/// The racing waves over `nodes` nodes, run to quiescence.
///
/// `controller_interval = None` disables the advisor entirely (the
/// unprotected baseline, controller every 100 ms); `Some(cadence)` runs
/// the conflict advisor on that cadence.
fn lab_fleet(
    nodes: usize,
    hop_delay: SimDuration,
    controller_interval: Option<SimDuration>,
    seed: u64,
) -> Sim<RuntimeNode<Register>> {
    let topo = Topology::star(nodes, SimDuration::from_millis(10), 10_000_000);
    let mut sim = Sim::new(topo, seed, move |id| {
        let config = RuntimeConfig::new(Box::new(RandomResolver::new(1)));
        let config = match controller_interval {
            None => config.controller_every(SimDuration::from_millis(100)),
            Some(interval) => config
                .controller_every(interval)
                .with_advisor(conflict_advisor()),
        };
        RuntimeNode::new(
            Register {
                me: id,
                n: nodes,
                hop_delay,
                value: None,
                conflicts_seen: 0,
            },
            config,
        )
    });
    sim.start_all();
    sim.run_until_quiescent(SimTime::from_secs(60));
    sim
}

/// Runs the racing waves over `nodes` nodes to quiescence. `None`
/// disables the advisor (the unprotected baseline); `Some(cadence)` runs
/// the conflict advisor on that cadence.
pub fn run_lab(
    nodes: usize,
    hop_delay: SimDuration,
    controller_interval: Option<SimDuration>,
    seed: u64,
) -> LabOutcome {
    let sim = lab_fleet(nodes, hop_delay, controller_interval, seed);
    let conflicts = sim
        .topology()
        .hosts()
        .map(|n| sim.actor(n).service().conflicts_seen)
        .sum();
    let filtered = sim
        .topology()
        .hosts()
        .map(|n| sim.actor(n).steering_stats().0)
        .sum();
    LabOutcome {
        conflicts,
        filtered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unprotected_waves_conflict() {
        let out = run_lab(12, SimDuration::from_millis(400), None, 3);
        assert!(out.conflicts > 0, "waves never met: {out:?}");
        assert_eq!(out.filtered, 0);
    }

    #[test]
    fn fast_controller_prevents_conflicts() {
        let base = run_lab(12, SimDuration::from_millis(400), None, 3);
        let steered = run_lab(
            12,
            SimDuration::from_millis(400),
            Some(SimDuration::from_millis(50)),
            3,
        );
        assert!(
            steered.conflicts < base.conflicts,
            "steering did not help: {steered:?} vs {base:?}"
        );
        assert!(steered.filtered > 0);
    }

    #[test]
    fn fleet_telemetry_carries_the_filter_lifecycle_deterministically() {
        use cb_core::runtime::fleet_telemetry;
        use cb_telemetry::keys;

        for seed in [1, 2] {
            let run = || {
                let sim = lab_fleet(
                    12,
                    SimDuration::from_millis(400),
                    Some(SimDuration::from_millis(50)),
                    seed,
                );
                (sim.trace().fingerprint(), fleet_telemetry(&sim))
            };
            let (fingerprint, t) = run();
            let (again, t2) = run();
            assert_eq!(fingerprint, again, "seed {seed}: lab run nondeterministic");
            assert_eq!(
                t.masked(),
                t2.masked(),
                "seed {seed}: masked telemetry differs"
            );
            let installed = t.counter(keys::CORE_STEERING_INSTALLED);
            let fired = t.counter(keys::CORE_STEERING_FIRED);
            let expired = t.counter(keys::CORE_STEERING_EXPIRED);
            let removed = t.counter(keys::CORE_STEERING_REMOVED);
            assert!(installed > 0, "seed {seed}: no filters installed");
            assert!(fired > 0, "seed {seed}: no filter ever fired");
            // Lifecycle conservation: every filter that left did so by
            // budget exhaustion or explicit removal, and never more left
            // than entered.
            assert!(
                expired + removed <= installed,
                "more filters left ({expired} expired + {removed} removed) than installed ({installed})"
            );
            // The legacy drop counter and the lifecycle fired counter
            // describe the same events from two vantage points.
            assert_eq!(fired, t.counter(keys::CORE_STEERING_DROPPED));
        }
    }

    #[test]
    fn slow_controller_is_less_effective() {
        let fast = run_lab(
            12,
            SimDuration::from_millis(400),
            Some(SimDuration::from_millis(50)),
            3,
        );
        let slow = run_lab(
            12,
            SimDuration::from_millis(400),
            Some(SimDuration::from_secs(5)),
            3,
        );
        assert!(
            fast.conflicts <= slow.conflicts,
            "freshness inversion: fast {fast:?} vs slow {slow:?}"
        );
    }
}
