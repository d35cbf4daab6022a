//! Differential property tests for the fused single-pass evaluator and the
//! cross-option evaluation cache.
//!
//! Three invariants, over randomized transition systems:
//!
//! 1. **Fusion is exact (BFS mode).** [`ModelEvaluator::evaluate`] returns
//!    bitwise the same `violations` and `objective` as the pre-fusion
//!    three-pass reference [`ModelEvaluator::evaluate_multipass`], while
//!    exploring no more (and with liveness in play, strictly fewer) states.
//!    In consequence mode the violation count still matches exactly
//!    (liveness satisfaction there is judged over chains, a documented
//!    semantic refinement).
//! 2. **The cache is transparent.** Resolving the same choice with the
//!    [`EvalCache`] on and off picks the same option *key*, for arbitrary
//!    option sets and rotations of their order.
//! 3. **Memoized predicates survive parallel exploration.** A property
//!    wrapped in a shared `EvalCache` verdict memo produces the same
//!    exploration report as the unwrapped property while 1/2/4/8 threads
//!    run `bfs` against the one cache at once — the only concurrent
//!    exercise of the cache's mutex.

use cb_core::choice::{ChoiceRequest, OptionDesc, OptionEvaluator, Resolver};
use cb_core::evalcache::EvalCache;
use cb_core::objective::ObjectiveSet;
use cb_core::predict::{ModelEvaluator, PredictConfig};
use cb_core::resolve::LookaheadResolver;
use cb_mck::explore::{bfs, ExplorationReport, ExploreConfig};
use cb_mck::hash::fingerprint;
use cb_mck::props::Property;
use cb_mck::system::TransitionSystem;
use cb_simnet::rng::SimRng;
use proptest::prelude::*;
use std::sync::Arc;

/// A seed-parameterized random digraph over `0..states`: from `s`, action
/// `i in 0..fanout` steps to `mix(seed, s, i) % states`. Deterministic,
/// cyclic, and irregular — the shape that shakes out traversal-order and
/// memoization bugs.
#[derive(Clone)]
struct RandGraph {
    seed: u64,
    states: u64,
    fanout: u64,
}

fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl TransitionSystem for RandGraph {
    type State = u64;
    type Action = u64;

    fn initial(&self) -> u64 {
        0
    }

    fn actions(&self, s: &u64) -> Vec<u64> {
        (0..self.fanout)
            .map(|i| mix(self.seed ^ s.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i) % self.states)
            .collect()
    }

    fn step(&self, _s: &u64, a: &u64) -> u64 {
        *a
    }
}

/// The standard objective mix for these tests: a performance metric, a
/// safety property that some graphs violate, and a bounded-liveness goal.
fn objectives() -> ObjectiveSet<u64> {
    ObjectiveSet::new()
        .maximize("value", 1.0, |s: &u64| (*s % 17) as f64)
        .safety(Property::safety("state is not 1 mod 7", |s: &u64| {
            s % 7 != 1
        }))
        .liveness(Property::eventually("reaches 0 mod 5", |s: &u64| {
            s.is_multiple_of(5)
        }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fused single-pass == three-pass reference, bitwise, in BFS mode —
    /// with and without the cache — at a strictly lower state count.
    #[test]
    fn fused_matches_multipass_in_bfs_mode(
        seed in any::<u64>(),
        states in 2u64..60,
        fanout in 1u64..4,
        depth in 1usize..6,
        walks in 0usize..6,
    ) {
        let objectives = objectives();
        let cfg = PredictConfig {
            depth,
            walks,
            consequence: false,
            max_states: 100_000,
            ..Default::default()
        };
        let mk = move |i: usize| RandGraph {
            seed: seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            states,
            fanout,
        };
        for cache in [true, false] {
            let cfg = PredictConfig { cache, ..cfg.clone() };
            let mut fused =
                ModelEvaluator::new(mk, &objectives, cfg.clone(), SimRng::seed_from(seed));
            let mut multi =
                ModelEvaluator::new(mk, &objectives, cfg, SimRng::seed_from(seed));
            for option in 0..2usize {
                let f = fused.evaluate(option);
                let m = multi.evaluate_multipass(option);
                prop_assert_eq!(f.violations, m.violations, "cache={}", cache);
                prop_assert_eq!(f.objective, m.objective, "cache={}", cache);
                prop_assert!(
                    f.states_explored < m.states_explored,
                    "fused must drop the dedicated liveness pass: {} vs {}",
                    f.states_explored,
                    m.states_explored
                );
            }
        }
    }

    /// In consequence mode the fused pass still reports exactly the
    /// violations the reference search finds.
    #[test]
    fn fused_matches_multipass_violations_in_consequence_mode(
        seed in any::<u64>(),
        states in 2u64..60,
        fanout in 1u64..4,
        depth in 1usize..6,
    ) {
        let objectives = objectives();
        let cfg = PredictConfig {
            depth,
            walks: 0,
            consequence: true,
            max_states: 100_000,
            ..Default::default()
        };
        let mk = move |_| RandGraph { seed, states, fanout };
        let mut fused =
            ModelEvaluator::new(mk, &objectives, cfg.clone(), SimRng::seed_from(seed));
        let mut multi = ModelEvaluator::new(mk, &objectives, cfg, SimRng::seed_from(seed));
        prop_assert_eq!(fused.evaluate(0).violations, multi.evaluate_multipass(0).violations);
    }

    /// Cache transparency end to end: a predictive resolution picks the
    /// same option key with the cache on and off, for every rotation of
    /// the option order.
    #[test]
    fn cache_never_changes_the_resolved_key(
        seed in any::<u64>(),
        states in 2u64..40,
        fanout in 1u64..4,
        n_options in 2usize..5,
        walks in 0usize..5,
        consequence in any::<bool>(),
    ) {
        let objectives = objectives();
        let base: Vec<OptionDesc> = (0..n_options as u64).map(OptionDesc::key).collect();
        for rot in 0..n_options {
            let mut options = base.clone();
            options.rotate_left(rot);
            let req = ChoiceRequest::new("prop.predict", &options);
            let resolve_with = |cache: bool| {
                let cfg = PredictConfig {
                    depth: 3,
                    walks,
                    consequence,
                    cache,
                    max_states: 100_000,
                    ..Default::default()
                };
                // The option *key* (not its position) selects the system,
                // so rotations reorder evaluation without changing what
                // each option means.
                let opts = options.clone();
                let mut eval = ModelEvaluator::new(
                    move |i: usize| RandGraph {
                        seed: seed ^ (opts[i].key + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                        states,
                        fanout,
                    },
                    &objectives,
                    cfg,
                    SimRng::seed_from(seed),
                );
                let idx = LookaheadResolver::new().resolve(&req, &mut eval);
                options[idx].key
            };
            prop_assert_eq!(
                resolve_with(true),
                resolve_with(false),
                "cache changed the decision at rotation {}",
                rot
            );
        }
    }

    /// An `EvalCache`-memoized property predicate is interchangeable with
    /// the raw predicate while any number of threads explore against the
    /// same cache concurrently.
    #[test]
    fn memoized_predicates_survive_parallel_exploration(
        seed in any::<u64>(),
        states in 2u64..80,
        fanout in 1u64..4,
        max_depth in 1usize..7,
    ) {
        let sys = RandGraph { seed, states, fanout };
        let cfg = ExploreConfig {
            max_depth,
            max_states: 1_000_000,
            max_violations: 1_000_000,
            stop_at_first_violation: false,
        };
        let plain = [Property::safety("state is not 1 mod 7", |s: &u64| s % 7 != 1)];
        let reference = face(&bfs(&sys, &plain, &cfg));
        // One shared cache across every thread count: later runs are
        // all-hits and must still agree.
        let cache = Arc::new(EvalCache::new());
        let memo_cache = Arc::clone(&cache);
        let memoized = [Property::safety("state is not 1 mod 7", move |s: &u64| {
            memo_cache.verdict(0, fingerprint(s), || s % 7 != 1)
        })];
        for threads in [1usize, 2, 4, 8] {
            let faces: Vec<ReportFace> = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..threads)
                    .map(|_| scope.spawn(|| face(&bfs(&sys, &memoized, &cfg))))
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().expect("explorer thread panicked"))
                    .collect()
            });
            for f in &faces {
                prop_assert_eq!(
                    f,
                    &reference,
                    "memoized predicate diverged at {} threads",
                    threads
                );
            }
        }
        prop_assert_eq!(
            cache.hits() + cache.misses() > 0,
            true,
            "the memo must actually be exercised"
        );
    }
}

/// The comparable face of an exploration report.
type ReportFace = (u64, u64, u64, u64, usize, bool, Vec<(String, usize)>);

fn face(r: &ExplorationReport<u64>) -> ReportFace {
    let viols = r
        .violations
        .iter()
        .map(|v| (v.property.clone(), v.path.len()))
        .collect();
    (
        r.states_visited,
        r.states_expanded,
        r.transitions,
        r.dedup_hits,
        r.max_depth_reached,
        r.truncated,
        viols,
    )
}
