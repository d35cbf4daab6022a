//! The case-study scenarios: 31-node join and subtree-failure/rejoin.
//!
//! Reproduces the live experiment of §4: 31 participants on an
//! Internet-like (transit-stub) topology join the tree; then an entire
//! subtree — about half the nodes — fails and rejoins. Three setups are
//! compared: **Baseline** (hard-coded policy), **Choice-Random** (exposed
//! choice resolved uniformly), and **Choice-CrystalBall** (exposed choice
//! resolved by lookahead over the predictive model). The metric is maximum
//! tree depth in levels.

use crate::baseline::BaselineRandTree;
use crate::choice::ChoiceRandTree;
use crate::metrics::{tree_stats, HasTree, TreeStats};
use crate::proto::{TreeCheckpoint, TreeMsg};
use cb_core::choice::Resolver;
use cb_core::predict::PredictConfig;
use cb_core::resolve::lookahead::LookaheadResolver;
use cb_core::resolve::random::RandomResolver;
use cb_core::runtime::{RuntimeConfig, RuntimeNode, Service};
use cb_simnet::sim::Sim;
use cb_simnet::time::{SimDuration, SimTime};
use cb_simnet::topology::{NodeId, Topology, TransitStubConfig};
use cb_telemetry::keys;
use std::collections::HashMap;

/// The three experimental arms of §4.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Setup {
    /// Hard-coded forwarding policy, no exposed choices.
    Baseline,
    /// Exposed choice resolved uniformly at random.
    ChoiceRandom,
    /// Exposed choice resolved by predictive lookahead.
    ChoiceCrystalBall,
}

impl Setup {
    /// All arms, in table order.
    pub const ALL: [Setup; 3] = [
        Setup::Baseline,
        Setup::ChoiceRandom,
        Setup::ChoiceCrystalBall,
    ];

    /// The label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            Setup::Baseline => "Baseline",
            Setup::ChoiceRandom => "Choice-Random",
            Setup::ChoiceCrystalBall => "Choice-CrystalBall",
        }
    }

    fn resolver(self, seed: u64) -> Box<dyn Resolver> {
        match self {
            // The baseline never calls choose(); the resolver is inert.
            Setup::Baseline | Setup::ChoiceRandom => Box::new(RandomResolver::new(seed)),
            Setup::ChoiceCrystalBall => Box::new(LookaheadResolver::new()),
        }
    }
}

/// Scenario parameters.
#[derive(Clone, Debug)]
pub struct ScenarioConfig {
    /// Number of participants (the paper uses 31).
    pub nodes: usize,
    /// Base seed; every arm uses the same topology seed.
    pub seed: u64,
    /// Gap between consecutive joins.
    pub join_spacing: SimDuration,
    /// Prediction budget for the Choice-CrystalBall arm (None = default).
    pub predict: Option<PredictConfig>,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            nodes: 31,
            seed: 1,
            join_spacing: SimDuration::from_millis(400),
            predict: None,
        }
    }
}

/// Outcome of one scenario run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Which arm ran.
    pub setup: Setup,
    /// Tree statistics after the join phase.
    pub after_join: TreeStats,
    /// Tree statistics after failure + rejoin (`None` for join-only runs).
    pub after_rejoin: Option<TreeStats>,
    /// Messages sent in total (cost accounting).
    pub msgs_sent: u64,
    /// Choice decisions logged across all nodes.
    pub decisions: u64,
}

fn internet_topology(nodes: usize, seed: u64) -> Topology {
    let cfg = TransitStubConfig::default().with_at_least_hosts(nodes);
    let mut rng = cb_simnet::rng::SimRng::seed_from(seed.wrapping_mul(0x9E37_79B9));
    Topology::transit_stub(&cfg, &mut rng)
}

fn run_generic<S, F>(
    cfg: &ScenarioConfig,
    setup: Setup,
    with_failure: bool,
    make_service: F,
) -> Outcome
where
    S: Service<Msg = TreeMsg, Checkpoint = TreeCheckpoint> + HasTree,
    F: Fn(NodeId, SimDuration) -> S + Clone + 'static,
{
    let topo = internet_topology(cfg.nodes, cfg.seed);
    let nodes = cfg.nodes;
    let seed = cfg.seed;
    let spacing = cfg.join_spacing;
    let mut sim = Sim::new(topo, seed, move |id| {
        let delay = spacing * (id.0 as u64 + 1);
        RuntimeNode::new(
            make_service(id, delay),
            RuntimeConfig::new(setup.resolver(seed ^ (id.0 as u64) << 8))
                .controller_every(SimDuration::from_millis(500)),
        )
    });
    // Only the first `nodes` hosts participate (topology may be larger).
    let participants: Vec<NodeId> = sim.topology().hosts().take(nodes).collect();
    for &n in &participants {
        sim.schedule_start(n, SimTime::ZERO);
    }
    sim.run_until_quiescent(SimTime::from_secs(600));
    let after_join = tree_stats(&sim, NodeId(0));

    let after_rejoin = if with_failure {
        // Fail the largest depth-2 subtree (about half the nodes).
        let parent_of: HashMap<NodeId, Option<NodeId>> = participants
            .iter()
            .map(|&n| (n, sim.actor(n).service().tree().parent))
            .collect();
        let root_children: Vec<NodeId> = sim.actor(NodeId(0)).service().tree().children.clone();
        let subtree_of = |top: NodeId| -> Vec<NodeId> {
            let mut members = vec![top];
            let mut grew = true;
            while grew {
                grew = false;
                for &n in &participants {
                    if members.contains(&n) {
                        continue;
                    }
                    if let Some(Some(p)) = parent_of.get(&n) {
                        if members.contains(p) {
                            members.push(n);
                            grew = true;
                        }
                    }
                }
            }
            members
        };
        let victim_subtree = root_children
            .iter()
            .map(|&c| subtree_of(c))
            .max_by_key(|s| s.len())
            .unwrap_or_default();
        let t_fail = sim.now() + SimDuration::from_secs(5);
        for &n in &victim_subtree {
            sim.schedule_crash(n, t_fail);
        }
        // Staggered restarts; each rejoins via the root on its own timer.
        for (i, &n) in victim_subtree.iter().enumerate() {
            sim.schedule_restart(n, t_fail + SimDuration::from_secs(3) + spacing * i as u64);
        }
        sim.run_until_quiescent(sim.now() + SimDuration::from_secs(600));
        Some(tree_stats(&sim, NodeId(0)))
    } else {
        None
    };

    let msgs_sent = sim.summary().msgs_sent;
    let decisions = participants
        .iter()
        .map(|&n| sim.actor(n).telemetry().counter(keys::CORE_DECISIONS_TOTAL))
        .sum();
    Outcome {
        setup,
        after_join,
        after_rejoin,
        msgs_sent,
        decisions,
    }
}

/// Runs the join phase of the case study for one arm.
pub fn run_join(cfg: &ScenarioConfig, setup: Setup) -> Outcome {
    run_scenario(cfg, setup, false)
}

/// Runs join, subtree failure, and rejoin for one arm.
pub fn run_failure_rejoin(cfg: &ScenarioConfig, setup: Setup) -> Outcome {
    run_scenario(cfg, setup, true)
}

fn run_scenario(cfg: &ScenarioConfig, setup: Setup, with_failure: bool) -> Outcome {
    match setup {
        Setup::Baseline => run_generic(cfg, setup, with_failure, |id, delay| {
            BaselineRandTree::new(id, NodeId(0), delay)
        }),
        Setup::ChoiceRandom | Setup::ChoiceCrystalBall => {
            let predict = cfg.predict.clone();
            run_generic(cfg, setup, with_failure, move |id, delay| {
                let svc = ChoiceRandTree::new(id, NodeId(0), delay);
                match &predict {
                    Some(p) => svc.with_predict_config(p.clone()),
                    None => svc,
                }
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::optimal_depth;

    fn small() -> ScenarioConfig {
        ScenarioConfig {
            nodes: 15,
            seed: 3,
            ..Default::default()
        }
    }

    #[test]
    fn join_all_arms_produce_full_trees() {
        for setup in Setup::ALL {
            let out = run_join(&small(), setup);
            assert!(
                out.after_join.well_formed,
                "{setup:?}: {:?}",
                out.after_join
            );
            assert_eq!(out.after_join.reachable, 15, "{setup:?}");
            assert!(
                out.after_join.max_depth >= optimal_depth(15, 2),
                "{setup:?}"
            );
            assert!(out.msgs_sent > 0);
        }
    }

    #[test]
    fn choice_arms_log_decisions_baseline_does_not() {
        let base = run_join(&small(), Setup::Baseline);
        assert_eq!(base.decisions, 0);
        let rand = run_join(&small(), Setup::ChoiceRandom);
        assert!(rand.decisions > 0);
        let cb = run_join(&small(), Setup::ChoiceCrystalBall);
        assert!(cb.decisions > 0);
    }

    #[test]
    fn failure_rejoin_recovers_membership() {
        for setup in [Setup::ChoiceRandom, Setup::ChoiceCrystalBall] {
            let out = run_failure_rejoin(&small(), setup);
            let after = out.after_rejoin.expect("rejoin stats");
            assert!(after.well_formed, "{setup:?}: {after:?}");
            assert_eq!(after.reachable, 15, "{setup:?}: {after:?}");
        }
    }

    #[test]
    fn crystalball_join_not_worse_than_random() {
        // Averaged over a few seeds to damp variance in the small test.
        let mut sum_rand = 0u32;
        let mut sum_cb = 0u32;
        for seed in [5u64, 6, 7] {
            let cfg = ScenarioConfig {
                nodes: 15,
                seed,
                ..Default::default()
            };
            sum_rand += run_join(&cfg, Setup::ChoiceRandom).after_join.max_depth;
            sum_cb += run_join(&cfg, Setup::ChoiceCrystalBall)
                .after_join
                .max_depth;
        }
        assert!(
            sum_cb <= sum_rand,
            "lookahead total depth {sum_cb} worse than random {sum_rand}"
        );
    }
}
