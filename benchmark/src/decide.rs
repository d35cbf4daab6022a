//! The decide workloads: decision streams resolved with no simulator.
//!
//! The five predictive models, objectives and `PredictConfig`s are the ones
//! `cb_bench::decisions` drives (its objectives are private, so they are
//! restated here); what differs is that every `resolve` is timed.
//!
//! * `decide-cold` resolves each decision through
//!   `LadderResolver::new().recording_into(..)`: full fused lookahead plus
//!   the store insert.
//! * `decide-warm` replays the stream, several laps, through
//!   `LadderResolver::new().with_policy(store)`: a store hit, except that
//!   every 16th hit re-runs the lookahead. The store is recorded in set-up.

use crate::spans::Span;
use crate::sweep::{Ctx, Unit};
use crate::workloads::{Metrics, Scale, Workload};
use cb_bench::decisions::{BlockSpread, QuorumRace, RaceState, SpreadState, TokenLap, TokenState};
use cb_bench::models::{flood_coverage, Flood, FloodState};
use cb_core::choice::{ChoiceRequest, OptionDesc, OptionEvaluator, Resolver};
use cb_core::governor::HealthSignals;
use cb_core::objective::ObjectiveSet;
use cb_core::predict::{ModelEvaluator, PredictConfig};
use cb_core::resolve::ladder::{LadderResolver, RUNGS};
use cb_mck::props::Property;
use cb_mck::system::TransitionSystem;
use cb_policy::PolicyStore;
use cb_randtree::{attach_depth, JState, JoinDescent, TreeCheckpoint};
use cb_simnet::rng::SimRng;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Exact counts of one pass over the streams.
#[derive(Clone, Debug, Default, PartialEq)]
struct Tally {
    decisions: u64,
    options: u64,
    states: u64,
    evalcache_hits: u64,
    evalcache_misses: u64,
    rungs: [u64; RUNGS],
    policy_hits: u64,
    policy_misses: u64,
    policy_stale: u64,
    refreshes: u64,
    entries: u64,
}

/// What a pass resolves with.
enum Pass<'a> {
    /// A recording ladder; the picks and the trained store come back.
    Cold,
    /// A ladder warmed from `store`, `laps` times over the stream; every
    /// pick must equal the cold pick.
    Warm {
        store: &'a Arc<PolicyStore>,
        picks: &'a [usize],
        laps: u64,
    },
}

/// One model's decision stream with its types erased.
trait Stream {
    /// Resolves the stream. `key` tells this stream's operations from the
    /// other streams' in `cx`.
    fn run(
        &self,
        pass: Pass<'_>,
        key: u64,
        cx: &Ctx,
        tally: &mut Tally,
    ) -> (Unit, Vec<usize>, PolicyStore);
}

struct ModelStream<T: TransitionSystem, F> {
    scenario: &'static str,
    decisions: u64,
    n_options: usize,
    cfg: PredictConfig,
    objectives: ObjectiveSet<T::State>,
    seed: u64,
    mk: F,
}

fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl<T, F> Stream for ModelStream<T, F>
where
    T: TransitionSystem,
    T::State: 'static,
    F: Fn(u64, usize) -> T,
{
    fn run(
        &self,
        pass: Pass<'_>,
        key: u64,
        cx: &Ctx,
        tally: &mut Tally,
    ) -> (Unit, Vec<usize>, PolicyStore) {
        let options: Vec<OptionDesc> = (0..self.n_options as u64).map(OptionDesc::key).collect();
        let recorder = Arc::new(Mutex::new(PolicyStore::new(self.scenario)));
        let (mut ladder, laps, expect) = match pass {
            Pass::Cold => (
                LadderResolver::new().recording_into(recorder.clone()),
                1,
                None,
            ),
            Pass::Warm { store, picks, laps } => (
                LadderResolver::new().with_policy(store.clone()),
                laps,
                Some(picks),
            ),
        };
        let mut unit = Unit::default();
        let mut picks = Vec::new();
        for lap in 0..laps {
            for d in 0..self.decisions {
                let mut eval = ModelEvaluator::new(
                    |i| (self.mk)(d, i),
                    &self.objectives,
                    self.cfg.clone(),
                    SimRng::seed_from(self.seed ^ d.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                );
                ladder.observe_health(&HealthSignals::default());
                // Distinct decisions are distinct store entries.
                let req =
                    ChoiceRequest::new(self.scenario, &options).with_state_fp(mix(self.seed ^ d));
                // The n-th resolve of the stream is the same work in every
                // repetition, a hit or a refresh alike.
                let nth = key << 32 | (lap * self.decisions + d);
                let pick = cx.op("core.resolve", nth, d, || ladder.resolve(&req, &mut eval));
                let right = match expect {
                    None => pick < self.n_options,
                    Some(cold) => pick == cold[d as usize],
                };
                unit.attempted += 1;
                unit.failed += u64::from(!right);
                unit.steps += eval.states_spent();
                if let Some(cache) = eval.cache() {
                    tally.evalcache_hits += cache.hits();
                    tally.evalcache_misses += cache.misses();
                }
                if expect.is_none() {
                    picks.push(pick);
                }
            }
        }
        unit.ops = laps * self.decisions;
        tally.decisions += unit.ops;
        tally.options += unit.ops * self.n_options as u64;
        tally.states += unit.steps;
        for (sum, n) in tally.rungs.iter_mut().zip(ladder.rung_hits()) {
            *sum += n;
        }
        let (hits, misses, stale, _inserts) = ladder.policy_counters();
        tally.policy_hits += hits;
        tally.policy_misses += misses;
        tally.policy_stale += stale;
        tally.refreshes += ladder.policy_refreshes();
        let store = recorder.lock().expect("policy recorder poisoned").clone();
        tally.entries += store.len() as u64;
        (unit, picks, store)
    }
}

/// The five streams; `seed` varies every model's per-decision parameters,
/// walk seeds and state fingerprints.
fn streams(seed: u64, decisions: u64) -> Vec<Box<dyn Stream>> {
    let lookahead = |depth, walks| PredictConfig {
        depth,
        walks,
        max_states: 20_000,
        ..PredictConfig::default()
    };

    let randtree_known = |d: u64| {
        let ck = |parent, children: Vec<u32>, depth, size, height| TreeCheckpoint {
            parent,
            children,
            depth,
            subtree_size: size,
            subtree_height: height,
        };
        let h = 2 + (mix(d) % 3) as u32;
        let mut m = BTreeMap::new();
        m.insert(0, ck(None, vec![1, 2], 1, 14, h + 2));
        m.insert(1, ck(Some(0), vec![3, 4], 2, 7, h + 1));
        m.insert(2, ck(Some(0), vec![5, 6], 2, 6, h));
        m.insert(3, ck(Some(1), vec![7, 8], 3, 3, h));
        m
    };
    let starts = [1u32, 2, 3];
    let s1 = seed ^ 0x5eed_0001;
    let randtree = ModelStream {
        scenario: "randtree",
        decisions,
        n_options: starts.len(),
        cfg: lookahead(8, 8),
        objectives: ObjectiveSet::new()
            .minimize("attach depth", 1.0, |s: &JState| attach_depth(s) as f64)
            .safety(Property::safety("attach stays shallow", |s: &JState| {
                attach_depth(s) <= 6
            }))
            .liveness(Property::eventually("join attaches", |s: &JState| {
                s.done.is_some()
            })),
        seed: s1,
        mk: move |d: u64, i: usize| JoinDescent {
            known: randtree_known(d ^ s1),
            start: starts[i],
            start_depth: 2 + (i == 2) as u32,
            start_height: 2 + (mix(d ^ s1) % 3) as u32,
        },
    };

    let s2 = seed ^ 0x5eed_0002;
    let gossip = ModelStream {
        scenario: "gossip",
        decisions,
        n_options: 3,
        cfg: lookahead(4, 8),
        objectives: ObjectiveSet::new()
            .maximize("coverage", 1.0, flood_coverage)
            .safety(Property::safety("send queue bounded", |s: &FloodState| {
                s.pending.len() <= 8
            }))
            .liveness(Property::eventually(
                "datum reaches everyone",
                |s: &FloodState| s.received.iter().all(|&r| r),
            )),
        seed: s2,
        mk: move |d: u64, i: usize| Flood {
            n: 5 + (mix(d ^ s2) % 2) as usize,
            fanout: 1 + i,
        },
    };

    let tally = |s: &RaceState| {
        let votes = |ballot| s.0.iter().filter(|&&v| v == ballot).count() as u8;
        (votes(1), votes(2))
    };
    let quorum = 3u8;
    let s3 = seed ^ 0x5eed_0003;
    let paxos = ModelStream {
        scenario: "paxos",
        decisions,
        n_options: 3,
        cfg: lookahead(5, 4),
        objectives: ObjectiveSet::new()
            .maximize("our votes", 1.0, move |s: &RaceState| tally(s).0 as f64)
            .safety(Property::safety(
                "rival stays short of quorum",
                move |s: &RaceState| tally(s).1 < quorum,
            ))
            .liveness(Property::eventually(
                "some ballot wins",
                move |s: &RaceState| {
                    let (a, b) = tally(s);
                    a >= quorum || b >= quorum
                },
            )),
        seed: s3,
        mk: move |d: u64, i: usize| QuorumRace {
            n: 5,
            quorum,
            courted: i as u8,
            rival: 3 + (mix(d ^ s3) % 2) as u8,
        },
    };

    let (peers, blocks) = (4u8, 3u8);
    let full = (1u16 << blocks) - 1;
    let s4 = seed ^ 0x5eed_0004;
    let dissem = ModelStream {
        scenario: "dissem",
        decisions,
        n_options: 3,
        cfg: lookahead(5, 4),
        objectives: ObjectiveSet::new()
            .maximize("blocks held", 1.0, |s: &SpreadState| {
                s.0.iter().map(|m| m.count_ones() as f64).sum()
            })
            .safety(Property::safety(
                "masks stay in range",
                move |s: &SpreadState| s.0.iter().all(|&m| m <= full),
            ))
            .liveness(Property::eventually(
                "swarm completes",
                move |s: &SpreadState| s.0.iter().all(|&m| m == full),
            )),
        seed: s4,
        mk: move |d: u64, i: usize| BlockSpread {
            peers,
            blocks,
            seeded: i as u8,
            booster: (i as u8 + 1 + (mix(d ^ s4) % 2) as u8) % peers,
        },
    };

    let s5 = seed ^ 0x5eed_0005;
    let ring = ModelStream {
        scenario: "ring",
        decisions,
        n_options: 3,
        cfg: lookahead(6, 4),
        objectives: ObjectiveSet::new()
            .maximize("progress", 1.0, |s: &TokenState| s.steps as f64)
            .safety(Property::safety(
                "token stays on the ring",
                |s: &TokenState| s.pos < 8,
            ))
            .liveness(Property::eventually(
                "token reaches node 0",
                |s: &TokenState| s.pos == 0 && s.steps > 0,
            )),
        seed: s5,
        mk: move |d: u64, i: usize| TokenLap {
            n: 4 + (mix(d ^ s5) % 3) as u8,
            start: (i as u8) * 2,
        },
    };

    vec![
        Box::new(randtree),
        Box::new(gossip),
        Box::new(paxos),
        Box::new(dissem),
        Box::new(ring),
    ]
}

/// Decisions per stream and unit: five streams of these are ~0.4 s cold.
const DECISIONS: u64 = 4000;

/// `decide-cold` or `decide-warm`.
pub struct Decide {
    streams: Vec<Box<dyn Stream>>,
    /// Cold picks and trained store per stream; empty for the cold workload.
    trained: Vec<(Vec<usize>, Arc<PolicyStore>)>,
    laps: u64,
    /// Counts of the last repetition.
    tally: Tally,
}

impl Decide {
    /// The cold workload: nothing to set up beyond the models.
    pub fn cold(seed: u64, scale: Scale) -> Decide {
        Decide {
            streams: streams(seed, scale.pick(DECISIONS, 40)),
            trained: Vec::new(),
            laps: 1,
            tally: Tally::default(),
        }
    }

    /// The warm workload: set-up records the store with one cold pass.
    pub fn warm(seed: u64, scale: Scale) -> Decide {
        let streams = streams(seed, scale.pick(DECISIONS, 40));
        let cx = Ctx::new(false);
        let trained = streams
            .iter()
            .map(|s| {
                let (_, picks, store) = s.run(Pass::Cold, 0, &cx, &mut Tally::default());
                (picks, Arc::new(store))
            })
            .collect();
        Decide {
            streams,
            trained,
            laps: scale.pick(8, 4),
            tally: Tally::default(),
        }
    }
}

impl Workload for Decide {
    fn parallel(&self) -> bool {
        false
    }

    fn unit(&mut self, _workers: usize, cx: &Ctx) -> Unit {
        let mut unit = Unit::default();
        let mut tally = Tally::default();
        for (i, stream) in self.streams.iter().enumerate() {
            let pass = match self.trained.get(i) {
                None => Pass::Cold,
                Some((picks, store)) => Pass::Warm {
                    store,
                    picks,
                    laps: self.laps,
                },
            };
            let (part, _, _) = cx.call(|| {
                cx.tracer.span("bench.stream", i as u64, || {
                    stream.run(pass, i as u64, cx, &mut tally)
                })
            });
            unit.add(part);
        }
        self.tally = tally;
        unit
    }

    fn traced_unit(&mut self, cx: &Ctx) -> Unit {
        self.unit(1, cx)
    }

    fn layer_metrics(&mut self, spans: &[Span], out: &mut Metrics) {
        let t = &self.tally;
        let resolve_ns: f64 = crate::spans::durations_of(spans, "core.resolve")
            .iter()
            .sum();
        let per_decision = t.states as f64 / t.decisions.max(1) as f64;
        let mut put = |name: &str, v: f64| out.insert(name.into(), v);
        if self.trained.is_empty() {
            put("core.ns_per_state", resolve_ns / t.states.max(1) as f64);
            put("core.states_per_decision_cold", per_decision);
            put(
                "core.evaluate_ns_per_option",
                resolve_ns / t.options.max(1) as f64,
            );
            put("policy.entries", t.entries as f64);
        } else {
            put("core.states_per_decision_warm", per_decision);
            put(
                "core.policy_hit_ratio",
                t.policy_hits as f64 / (t.policy_hits + t.policy_misses).max(1) as f64,
            );
            put(
                "core.refresh_share",
                t.refreshes as f64 / t.decisions.max(1) as f64,
            );
            put("core.policy_stale", t.policy_stale as f64);
            let entries: usize = self.trained.iter().map(|(_, s)| s.len()).sum();
            put("policy.entries", entries as f64);
        }
        put(
            "core.evalcache_hit_ratio",
            t.evalcache_hits as f64 / (t.evalcache_hits + t.evalcache_misses).max(1) as f64,
        );
        for (rung, n) in t.rungs.iter().enumerate() {
            put(&format!("core.ladder_rung_{rung}"), *n as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_picks_equal_cold_picks_and_every_sixteenth_hit_refreshes() {
        let cx = Ctx::new(false);
        let mut cold = Decide::cold(7, Scale::Smoke);
        let unit = cold.unit(1, &cx);
        assert_eq!((unit.ops, unit.attempted, unit.failed), (200, 200, 0));
        assert!(unit.steps > 0, "cold decisions explore states");
        assert_eq!(cold.tally.entries, 200, "one store entry per decision");
        assert_eq!(
            cold.tally.rungs[0], 200,
            "cold resolves on the lookahead rung"
        );

        assert_eq!(cx.ops.lock().unwrap().len(), 200, "every resolve is timed");
        assert_eq!(cx.calls.lock().unwrap().len(), 5, "one call per stream");

        let cx = Ctx::new(false);
        let mut warm = Decide::warm(7, Scale::Smoke);
        let unit = warm.unit(1, &cx);
        assert_eq!((unit.ops, unit.failed), (800, 0), "warm pick == cold pick");
        assert_eq!(warm.tally.policy_hits, 800);
        assert_eq!(warm.tally.policy_misses, 0);
        assert_eq!(warm.tally.refreshes, 5 * (160 / 16));
        assert_eq!(
            cx.ops.lock().unwrap().len(),
            800,
            "a lap's resolves are its own"
        );
    }
}
