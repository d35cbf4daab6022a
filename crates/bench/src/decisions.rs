//! The decision hot-path models and their exact gates.
//!
//! The paper's bet is that choice resolution runs "on the side without
//! stalling the system" (§3.4) — which makes *predicted states per resolved
//! decision* the runtime's hot-path cost. This module drives that hot path
//! for one representative predictive decision per registered scenario
//! (randtree / gossip / paxos / dissem / ring) in two modes:
//!
//! * **baseline** — the pre-fusion three-pass evaluation
//!   ([`ModelEvaluator::evaluate_multipass`]): violation search, walks, and
//!   a dedicated liveness BFS;
//! * **optimized** — the fused single pass ([`OptionEvaluator::evaluate`]):
//!   one violation+liveness search plus walks;
//!
//! and then through the cross-run policy store, cold and warm
//! ([`PolicyArm`]). Costs are **exact**: states explored per decision, a
//! pure function of the seed. The tests below hold the gates over
//! [`run_all`] (≥ 3 scenarios at a ≥ 2× reduction; warm ≡ cold agreement
//! exactly 1.0, no stale entry, ≥ 5× fewer states warm); what a decision
//! costs in wall time is the `benchmark/` package's `decide-cold` /
//! `decide-warm` workloads, which time these same models.
//!
//! The workloads reuse the real predictive models where the workspace has
//! them (RandTree's [`JoinDescent`], the gossip [`Flood`] used by E8) and
//! small protocol-shaped systems defined here for the rest (a Paxos-style
//! quorum race, block dissemination, a token ring).
//!
//! [`OptionEvaluator::evaluate`]: cb_core::choice::OptionEvaluator::evaluate

use crate::models::{flood_coverage, Flood};
use cb_core::choice::{ChoiceRequest, OptionDesc, OptionEvaluator, Prediction, Resolver};
use cb_core::governor::HealthSignals;
use cb_core::objective::ObjectiveSet;
use cb_core::predict::{ModelEvaluator, PredictConfig};
use cb_core::resolve::ladder::{LadderResolver, PolicyDisposition};
use cb_mck::props::Property;
use cb_mck::system::TransitionSystem;
use cb_policy::PolicyStore;
use cb_randtree::{attach_depth, JState, JoinDescent, TreeCheckpoint};
use cb_simnet::rng::SimRng;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Aggregate cost of running one mode over a scenario's decision stream.
#[derive(Clone, Debug, Default)]
pub struct ModeStats {
    /// States explored, summed over every option of every decision.
    pub total_states: u64,
    /// Dedicated liveness searches the fused pass avoided.
    pub fused_searches_saved: u64,
}

/// The cross-run policy-store arm: the same decision
/// stream resolved **cold** (a recording ladder running full lookahead per
/// decision, training the store) and then **warm** (a fresh ladder serving
/// store-hits, falling back to lookahead only on the governed refresh
/// cadence).
#[derive(Clone, Debug, Default)]
pub struct PolicyArm {
    /// Entries the cold pass recorded.
    pub trained_entries: u64,
    /// Content id of the trained store (deterministic).
    pub store_content_id: u64,
    /// States explored by the cold (training) pass.
    pub cold_total_states: u64,
    /// Decisions in the cold pass.
    pub cold_decisions: u64,
    /// States explored by the warm replay (refresh decisions only; pure
    /// hits cost zero modeled states).
    pub warm_total_states: u64,
    /// Decisions in the warm replay (several laps over the stream, so the
    /// refresh cadence actually fires).
    pub warm_decisions: u64,
    /// Store hits in the warm replay.
    pub hits: u64,
    /// Store misses in the warm replay.
    pub misses: u64,
    /// Stale entries the refresh cadence caught (0 for a deterministic
    /// evaluator).
    pub stale: u64,
    /// Refresh re-resolutions that ran real lookahead.
    pub refreshes: u64,
    /// Fraction of warm decisions resolving the same option key as the
    /// cold pass. The transparency contract pins this at exactly 1.0.
    pub agreement: f64,
}

impl PolicyArm {
    /// Mean states per decision in the cold (training) pass.
    pub fn cold_states_per_decision(&self) -> f64 {
        self.cold_total_states as f64 / self.cold_decisions.max(1) as f64
    }

    /// Mean states per decision in the warm replay.
    pub fn warm_states_per_decision(&self) -> f64 {
        self.warm_total_states as f64 / self.warm_decisions.max(1) as f64
    }

    /// Deterministic warm-vs-cold speedup in states explored per
    /// decision.
    pub fn speedup(&self) -> f64 {
        self.cold_states_per_decision() / self.warm_states_per_decision().max(1e-9)
    }
}

/// One scenario's before/after record.
#[derive(Clone, Debug)]
pub struct ScenarioBench {
    /// Registered scenario name this workload models.
    pub scenario: &'static str,
    /// Decisions resolved per mode.
    pub decisions: u64,
    /// Options per decision.
    pub options: usize,
    /// Three-pass reference cost.
    pub baseline: ModeStats,
    /// Fused single-pass cost.
    pub optimized: ModeStats,
    /// Fraction of decisions where both modes picked the same option.
    pub agreement: f64,
    /// The cross-run policy-store arm over the same decision stream.
    pub policy: PolicyArm,
}

impl ScenarioBench {
    /// Mean states explored per resolved decision in a mode.
    pub fn states_per_decision(stats: &ModeStats, decisions: u64) -> f64 {
        stats.total_states as f64 / decisions.max(1) as f64
    }

    /// Deterministic sim-cost reduction: baseline / optimized states per
    /// decision.
    pub fn reduction(&self) -> f64 {
        let b = Self::states_per_decision(&self.baseline, self.decisions);
        let o = Self::states_per_decision(&self.optimized, self.decisions).max(1e-9);
        b / o
    }
}

/// Drives `decisions` resolutions of an `n_options`-way choice through both
/// evaluation modes and returns the cost record.
///
/// `mk(d, i)` builds the predictive system for option `i` of decision `d`;
/// both modes see the same systems and the same walk RNG seed, so the only
/// difference is the evaluation pipeline itself.
fn drive<T, F>(
    scenario: &'static str,
    decisions: u64,
    n_options: usize,
    cfg: PredictConfig,
    objectives: &ObjectiveSet<T::State>,
    seed: u64,
    mk: F,
) -> ScenarioBench
where
    T: TransitionSystem,
    F: Fn(u64, usize) -> T,
{
    let mut baseline = ModeStats::default();
    let mut optimized = ModeStats::default();
    let mut agreements = 0u64;
    for d in 0..decisions {
        let rng_seed = seed ^ d.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // Baseline: three passes.
        let mut eval = ModelEvaluator::new(
            |i| mk(d, i),
            objectives,
            cfg.clone(),
            SimRng::seed_from(rng_seed),
        );
        let mut base_pick = 0usize;
        let mut base_best: Option<Prediction> = None;
        for i in 0..n_options {
            let p = eval.evaluate_multipass(i);
            baseline.total_states += p.states_explored;
            // Same rule as LookaheadResolver: earliest wins ties.
            if base_best.as_ref().is_none_or(|b| p.better_than(b)) {
                base_pick = i;
                base_best = Some(p);
            }
        }
        // Optimized: the fused single pass.
        let mut eval = ModelEvaluator::new(
            |i| mk(d, i),
            objectives,
            cfg.clone(),
            SimRng::seed_from(rng_seed),
        );
        let mut opt_pick = 0usize;
        let mut opt_best: Option<Prediction> = None;
        for i in 0..n_options {
            let p = eval.evaluate(i);
            optimized.total_states += p.states_explored;
            if opt_best.as_ref().is_none_or(|b| p.better_than(b)) {
                opt_pick = i;
                opt_best = Some(p);
            }
        }
        optimized.fused_searches_saved += eval.fused_searches_saved();
        if base_pick == opt_pick {
            agreements += 1;
        }
    }
    let policy = policy_arm(scenario, decisions, n_options, &cfg, objectives, seed, &mk);
    ScenarioBench {
        scenario,
        decisions,
        options: n_options,
        baseline,
        optimized,
        agreement: agreements as f64 / decisions.max(1) as f64,
        policy,
    }
}

/// The policy-store arm over the same decision stream as [`drive`]: train a
/// store through a *recording* ladder resolving cold (full fused
/// lookahead per decision), then replay the stream through a *warm* ladder
/// loaded with that store. The replay loops the stream enough times that the
/// governor-gated refresh cadence (every 16th hit) actually fires, so the
/// reported warm cost includes the honesty re-checks — the steady-state
/// amortized cost, not the best case.
fn policy_arm<T, F>(
    scenario: &'static str,
    decisions: u64,
    n_options: usize,
    cfg: &PredictConfig,
    objectives: &ObjectiveSet<T::State>,
    seed: u64,
    mk: &F,
) -> PolicyArm
where
    T: TransitionSystem,
    F: Fn(u64, usize) -> T,
{
    let options: Vec<OptionDesc> = (0..n_options as u64).map(OptionDesc::key).collect();
    // Per-decision state fingerprint: distinct decisions in the stream are
    // distinct store entries (same scenario, different modeled snapshot).
    let state_fp = |d: u64| mix(seed ^ d);

    // Cold pass: a recording ladder trains the store.
    let rec = Arc::new(Mutex::new(PolicyStore::new(scenario)));
    let mut trainer = LadderResolver::new().recording_into(rec.clone());
    let mut arm = PolicyArm {
        cold_decisions: decisions,
        ..PolicyArm::default()
    };
    let mut cold_picks = Vec::with_capacity(decisions as usize);
    for d in 0..decisions {
        let rng_seed = seed ^ d.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut eval = ModelEvaluator::new(
            |i| mk(d, i),
            objectives,
            cfg.clone(),
            SimRng::seed_from(rng_seed),
        );
        trainer.observe_health(&HealthSignals::default());
        let req = ChoiceRequest::new(scenario, &options).with_state_fp(state_fp(d));
        let pick = trainer.resolve(&req, &mut eval);
        arm.cold_total_states += eval.states_spent();
        cold_picks.push(pick);
    }
    let store = rec.lock().expect("policy recorder poisoned").clone();
    arm.trained_entries = store.len() as u64;
    arm.store_content_id = store.content_id();
    let store = Arc::new(store);

    // Warm replay: enough laps over the stream that at least two refresh
    // re-checks fire at the default cadence of 16 hits.
    let laps = (32 / decisions.max(1)).max(4);
    let mut warm = LadderResolver::new().with_policy(store);
    let mut agreements = 0u64;
    for _ in 0..laps {
        for d in 0..decisions {
            let rng_seed = seed ^ d.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut eval = ModelEvaluator::new(
                |i| mk(d, i),
                objectives,
                cfg.clone(),
                SimRng::seed_from(rng_seed),
            );
            warm.observe_health(&HealthSignals::default());
            let req = ChoiceRequest::new(scenario, &options).with_state_fp(state_fp(d));
            let pick = warm.resolve(&req, &mut eval);
            arm.warm_total_states += eval.states_spent();
            arm.warm_decisions += 1;
            if matches!(
                warm.last_policy(),
                PolicyDisposition::Refreshed | PolicyDisposition::Stale
            ) {
                arm.refreshes += 1;
            }
            if pick == cold_picks[d as usize] {
                agreements += 1;
            }
        }
    }
    let (hits, misses, stale, _) = warm.policy_counters();
    arm.hits = hits;
    arm.misses = misses;
    arm.stale = stale;
    arm.agreement = agreements as f64 / arm.warm_decisions.max(1) as f64;
    arm
}

fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

// ---------------------------------------------------------------------------
// randtree: forward-join descent over the real JoinDescent model.
// ---------------------------------------------------------------------------

fn randtree_known(d: u64) -> BTreeMap<u32, TreeCheckpoint> {
    let ck = |parent, children: Vec<u32>, depth, size, height| TreeCheckpoint {
        parent,
        children,
        depth,
        subtree_size: size,
        subtree_height: height,
    };
    // A full 3-level known core; the grandchildren's subtrees are generic
    // with heights that vary per decision (churn shifting the snapshot).
    let h = 2 + (mix(d) % 3) as u32;
    let mut m = BTreeMap::new();
    m.insert(0, ck(None, vec![1, 2], 1, 14, h + 2));
    m.insert(1, ck(Some(0), vec![3, 4], 2, 7, h + 1));
    m.insert(2, ck(Some(0), vec![5, 6], 2, 6, h));
    m.insert(3, ck(Some(1), vec![7, 8], 3, 3, h));
    m
}

fn randtree_bench(decisions: u64) -> ScenarioBench {
    let objectives: ObjectiveSet<JState> = ObjectiveSet::new()
        .minimize("attach depth", 1.0, |s: &JState| attach_depth(s) as f64)
        .safety(Property::safety("attach stays shallow", |s: &JState| {
            attach_depth(s) <= 6
        }))
        .liveness(Property::eventually("join attaches", |s: &JState| {
            s.done.is_some()
        }));
    let starts = [1u32, 2, 3];
    drive(
        "randtree",
        decisions,
        starts.len(),
        PredictConfig {
            depth: 8,
            walks: 8,
            max_states: 20_000,
            ..Default::default()
        },
        &objectives,
        0x5eed_0001,
        move |d, i| JoinDescent {
            known: randtree_known(d),
            start: starts[i],
            start_depth: 2 + (i == 2) as u32,
            start_height: 2 + (mix(d) % 3) as u32,
        },
    )
}

// ---------------------------------------------------------------------------
// gossip: flooding broadcast (the E8 model); option = push fanout.
// ---------------------------------------------------------------------------

fn gossip_bench(decisions: u64) -> ScenarioBench {
    use crate::models::FloodState;
    let objectives: ObjectiveSet<FloodState> = ObjectiveSet::new()
        .maximize("coverage", 1.0, flood_coverage)
        .safety(Property::safety("send queue bounded", |s: &FloodState| {
            s.pending.len() <= 8
        }))
        .liveness(Property::eventually(
            "datum reaches everyone",
            |s: &FloodState| s.received.iter().all(|&r| r),
        ));
    drive(
        "gossip",
        decisions,
        3,
        PredictConfig {
            depth: 4,
            walks: 8,
            max_states: 20_000,
            ..Default::default()
        },
        &objectives,
        0x5eed_0002,
        |d, i| Flood {
            n: 5 + (mix(d) % 2) as usize,
            fanout: 1 + i,
        },
    )
}

// ---------------------------------------------------------------------------
// paxos: a quorum race between two competing ballots.
// ---------------------------------------------------------------------------

/// Acceptor votes: 0 = none, 1 = ballot A, 2 = ballot B.
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
pub struct RaceState(pub Vec<u8>);

/// One acceptor casting its vote.
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
pub struct Vote(pub u8, pub u8);

/// Two proposers race for a quorum of `n` acceptors; the exposed choice is
/// which acceptor our ballot (A) courts first. Every undecided acceptor may
/// vote either way at any point — the interleavings are the state blow-up a
/// real Paxos prediction wades through.
#[derive(Clone, Debug)]
pub struct QuorumRace {
    /// Acceptor count.
    pub n: u8,
    /// Votes needed to win.
    pub quorum: u8,
    /// Acceptor pre-voted for A (the courted one).
    pub courted: u8,
    /// Acceptor pre-voted for B (the rival's head start).
    pub rival: u8,
}

impl QuorumRace {
    fn tally(s: &RaceState) -> (u8, u8) {
        let a = s.0.iter().filter(|&&v| v == 1).count() as u8;
        let b = s.0.iter().filter(|&&v| v == 2).count() as u8;
        (a, b)
    }
}

impl TransitionSystem for QuorumRace {
    type State = RaceState;
    type Action = Vote;

    fn initial(&self) -> RaceState {
        let mut votes = vec![0u8; self.n as usize];
        votes[self.courted as usize] = 1;
        if self.rival != self.courted {
            votes[self.rival as usize] = 2;
        }
        RaceState(votes)
    }

    fn actions(&self, s: &RaceState) -> Vec<Vote> {
        let (a, b) = Self::tally(s);
        if a >= self.quorum || b >= self.quorum {
            return Vec::new(); // decided
        }
        let mut acts = Vec::new();
        for (i, &v) in s.0.iter().enumerate() {
            if v == 0 {
                acts.push(Vote(i as u8, 1));
                acts.push(Vote(i as u8, 2));
            }
        }
        acts
    }

    fn step(&self, s: &RaceState, a: &Vote) -> RaceState {
        let mut next = s.clone();
        next.0[a.0 as usize] = a.1;
        next
    }

    fn locus(&self, a: &Vote) -> usize {
        a.0 as usize
    }
}

fn paxos_bench(decisions: u64) -> ScenarioBench {
    let quorum = 3u8;
    let objectives: ObjectiveSet<RaceState> = ObjectiveSet::new()
        .maximize("our votes", 1.0, |s: &RaceState| {
            QuorumRace::tally(s).0 as f64
        })
        .safety(Property::safety("rival stays short of quorum", move |s| {
            QuorumRace::tally(s).1 < quorum
        }))
        .liveness(Property::eventually("some ballot wins", move |s| {
            let (a, b) = QuorumRace::tally(s);
            a >= quorum || b >= quorum
        }));
    drive(
        "paxos",
        decisions,
        3,
        PredictConfig {
            depth: 5,
            walks: 4,
            max_states: 20_000,
            ..Default::default()
        },
        &objectives,
        0x5eed_0003,
        move |d, i| QuorumRace {
            n: 5,
            quorum,
            courted: i as u8,
            rival: 3 + (mix(d) % 2) as u8,
        },
    )
}

// ---------------------------------------------------------------------------
// dissem: block dissemination around a ring of peers.
// ---------------------------------------------------------------------------

/// Per-peer bitmask of blocks held.
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
pub struct SpreadState(pub Vec<u16>);

/// Peer `from` forwards block `block` to its ring successor.
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
pub struct Forward {
    /// Sending peer.
    pub from: u8,
    /// Block index.
    pub block: u8,
}

/// `blocks` blocks spread peer-to-peer around a ring; any held block can be
/// forwarded to the successor that lacks it, so transfers of different
/// blocks interleave freely. The exposed choice is which peer seeds the
/// swarm.
#[derive(Clone, Debug)]
pub struct BlockSpread {
    /// Ring size.
    pub peers: u8,
    /// Number of blocks.
    pub blocks: u8,
    /// Peer initially holding every block.
    pub seeded: u8,
    /// A second peer starting with block 0 (varies per decision).
    pub booster: u8,
}

impl TransitionSystem for BlockSpread {
    type State = SpreadState;
    type Action = Forward;

    fn initial(&self) -> SpreadState {
        let mut held = vec![0u16; self.peers as usize];
        held[self.seeded as usize] = (1 << self.blocks) - 1;
        held[self.booster as usize] |= 1;
        SpreadState(held)
    }

    fn actions(&self, s: &SpreadState) -> Vec<Forward> {
        let mut acts = Vec::new();
        for p in 0..self.peers {
            let succ = ((p + 1) % self.peers) as usize;
            for b in 0..self.blocks {
                if s.0[p as usize] & (1 << b) != 0 && s.0[succ] & (1 << b) == 0 {
                    acts.push(Forward { from: p, block: b });
                }
            }
        }
        acts
    }

    fn step(&self, s: &SpreadState, a: &Forward) -> SpreadState {
        let mut next = s.clone();
        let succ = ((a.from + 1) % self.peers) as usize;
        next.0[succ] |= 1 << a.block;
        next
    }

    fn locus(&self, a: &Forward) -> usize {
        a.from as usize
    }
}

fn dissem_bench(decisions: u64) -> ScenarioBench {
    let peers = 4u8;
    let blocks = 3u8;
    let full = (1u16 << blocks) - 1;
    let objectives: ObjectiveSet<SpreadState> = ObjectiveSet::new()
        .maximize("blocks held", 1.0, move |s: &SpreadState| {
            s.0.iter().map(|m| m.count_ones() as f64).sum()
        })
        .safety(Property::safety(
            "masks stay in range",
            move |s: &SpreadState| s.0.iter().all(|&m| m <= full),
        ))
        .liveness(Property::eventually(
            "swarm completes",
            move |s: &SpreadState| s.0.iter().all(|&m| m == full),
        ));
    drive(
        "dissem",
        decisions,
        3,
        PredictConfig {
            depth: 5,
            walks: 4,
            max_states: 20_000,
            ..Default::default()
        },
        &objectives,
        0x5eed_0004,
        move |d, i| BlockSpread {
            peers,
            blocks,
            seeded: i as u8,
            booster: (i as u8 + 1 + (mix(d) % 2) as u8) % peers,
        },
    )
}

// ---------------------------------------------------------------------------
// ring: the harness's token-passing toy.
// ---------------------------------------------------------------------------

/// Token position and steps taken so far.
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
pub struct TokenState {
    /// Which node holds the token.
    pub pos: u8,
    /// Steps taken.
    pub steps: u8,
}

/// A token circles `n` nodes; exactly one action is enabled at a time. The
/// exposed choice is where the token is injected.
#[derive(Clone, Debug)]
pub struct TokenLap {
    /// Ring size.
    pub n: u8,
    /// Injection point.
    pub start: u8,
}

impl TransitionSystem for TokenLap {
    type State = TokenState;
    type Action = u8;

    fn initial(&self) -> TokenState {
        TokenState {
            pos: self.start % self.n,
            steps: 0,
        }
    }

    fn actions(&self, s: &TokenState) -> Vec<u8> {
        vec![s.pos]
    }

    fn step(&self, s: &TokenState, _a: &u8) -> TokenState {
        TokenState {
            pos: (s.pos + 1) % self.n,
            steps: s.steps + 1,
        }
    }

    fn locus(&self, a: &u8) -> usize {
        *a as usize
    }
}

fn ring_bench(decisions: u64) -> ScenarioBench {
    let objectives: ObjectiveSet<TokenState> = ObjectiveSet::new()
        .maximize("progress", 1.0, |s: &TokenState| s.steps as f64)
        .safety(Property::safety(
            "token stays on the ring",
            |s: &TokenState| s.pos < 8,
        ))
        .liveness(Property::eventually(
            "token reaches node 0",
            |s: &TokenState| s.pos == 0 && s.steps > 0,
        ));
    drive(
        "ring",
        decisions,
        3,
        PredictConfig {
            depth: 6,
            walks: 4,
            max_states: 20_000,
            ..Default::default()
        },
        &objectives,
        0x5eed_0005,
        |d, i| TokenLap {
            n: 4 + (mix(d) % 3) as u8,
            start: (i as u8) * 2,
        },
    )
}

/// Runs the full benchmark: one workload per registered scenario.
pub fn run_all(decisions: u64) -> Vec<ScenarioBench> {
    vec![
        randtree_bench(decisions),
        gossip_bench(decisions),
        paxos_bench(decisions),
        dissem_bench(decisions),
        ring_bench(decisions),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_scenario_is_benched() {
        let benches = run_all(2);
        let names: Vec<&str> = benches.iter().map(|b| b.scenario).collect();
        assert_eq!(names, vec!["randtree", "gossip", "paxos", "dissem", "ring"]);
        for b in &benches {
            assert!(
                b.baseline.total_states > 0,
                "{}: empty baseline",
                b.scenario
            );
            assert!(
                b.optimized.total_states > 0,
                "{}: empty optimized",
                b.scenario
            );
            assert!(
                b.optimized.total_states < b.baseline.total_states,
                "{}: fusion must reduce explored states",
                b.scenario
            );
        }
    }

    #[test]
    fn bench_is_deterministic() {
        let a = run_all(2);
        let b = run_all(2);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.baseline.total_states, y.baseline.total_states);
            assert_eq!(x.optimized.total_states, y.optimized.total_states);
        }
    }

    #[test]
    fn at_least_three_scenarios_hit_2x() {
        let benches = run_all(4);
        let at_2x = benches.iter().filter(|b| b.reduction() >= 2.0).count();
        assert!(
            at_2x >= 3,
            "only {at_2x} scenarios at >=2x: {:?}",
            benches
                .iter()
                .map(|b| (b.scenario, b.reduction()))
                .collect::<Vec<_>>()
        );
    }

    /// Exact counts of `run_all(4)`, per scenario: baseline states,
    /// optimized states, the policy arm's cold and warm states, and the
    /// trained store's content id. An evaluation refactor must leave every
    /// one alone.
    #[test]
    fn run_all_counts_are_pinned() {
        let got: Vec<(&str, [u64; 5])> = run_all(4)
            .iter()
            .map(|b| {
                (
                    b.scenario,
                    [
                        b.baseline.total_states,
                        b.optimized.total_states,
                        b.policy.cold_total_states,
                        b.policy.warm_total_states,
                        b.policy.store_content_id,
                    ],
                )
            })
            .collect();
        let pins: [(&str, [u64; 5]); 5] = [
            ("randtree", [391, 298, 298, 152, 0xb749_c942_acd4_7b06]),
            ("gossip", [2_064, 791, 791, 386, 0xe51b_a469_0018_ce66]),
            ("paxos", [505, 205, 205, 100, 0xd027_7b63_8a5a_2118]),
            ("dissem", [843, 348, 348, 174, 0xdcc9_2857_50c7_f109]),
            ("ring", [456, 372, 372, 186, 0x17ee_7f1c_a644_06a0]),
        ];
        assert_eq!(got, pins, "observed {got:?}");
    }

    #[test]
    fn policy_arm_is_transparent_and_amortizes_lookahead() {
        for b in run_all(2) {
            let p = &b.policy;
            assert_eq!(
                p.agreement, 1.0,
                "{}: warm resolution must agree with cold exactly",
                b.scenario
            );
            assert!(p.trained_entries > 0, "{}: nothing recorded", b.scenario);
            assert!(p.cold_total_states > 0, "{}: free cold pass?", b.scenario);
            assert!(
                p.refreshes >= 2,
                "{}: refresh cadence never fired ({} warm decisions)",
                b.scenario,
                p.warm_decisions
            );
            assert_eq!(
                p.stale, 0,
                "{}: deterministic evaluator went stale",
                b.scenario
            );
            assert!(
                p.speedup() >= 5.0,
                "{}: warm speedup only {:.2}x",
                b.scenario,
                p.speedup()
            );
        }
    }

    #[test]
    fn policy_arm_is_deterministic() {
        let a = run_all(2);
        let b = run_all(2);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.policy.store_content_id, y.policy.store_content_id);
            assert_eq!(x.policy.cold_total_states, y.policy.cold_total_states);
            assert_eq!(x.policy.warm_total_states, y.policy.warm_total_states);
            assert_eq!(x.policy.hits, y.policy.hits);
        }
    }
}
