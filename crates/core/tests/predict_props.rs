//! Differential property tests for the fused single-pass evaluator.
//!
//! **Fusion is exact (BFS mode).** [`ModelEvaluator::evaluate`] returns
//! bitwise the same `violations` and `objective` as the pre-fusion
//! three-pass reference [`ModelEvaluator::evaluate_multipass`], while
//! exploring no more (and with liveness in play, strictly fewer) states,
//! over randomized transition systems. In consequence mode the violation
//! count still matches exactly (liveness satisfaction there is judged over
//! chains, a documented semantic refinement).

use cb_core::choice::OptionEvaluator;
use cb_core::objective::ObjectiveSet;
use cb_core::predict::{ModelEvaluator, PredictConfig};
use cb_mck::props::Property;
use cb_mck::system::TransitionSystem;
use cb_simnet::rng::SimRng;
use proptest::prelude::*;

/// A seed-parameterized random digraph over `0..states`: from `s`, action
/// `i in 0..fanout` steps to `mix(seed, s, i) % states`. Deterministic,
/// cyclic, and irregular — the shape that shakes out traversal-order bugs.
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

    /// Fused single-pass == three-pass reference, bitwise, in BFS mode, at
    /// a strictly lower state count.
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
        let mut fused =
            ModelEvaluator::new(mk, &objectives, cfg.clone(), SimRng::seed_from(seed));
        let mut multi = ModelEvaluator::new(mk, &objectives, cfg, SimRng::seed_from(seed));
        for option in 0..2usize {
            let f = fused.evaluate(option);
            let m = multi.evaluate_multipass(option);
            prop_assert_eq!(f.violations, m.violations);
            prop_assert_eq!(f.objective, m.objective);
            prop_assert!(
                f.states_explored < m.states_explored,
                "fused must drop the dedicated liveness pass: {} vs {}",
                f.states_explored,
                m.states_explored
            );
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
}
