//! Property-based tests of the exploration engines.

use cb_mck::explore::{bfs, ExploreConfig};
use cb_mck::props::Property;
use cb_mck::system::{replay, TransitionSystem};
use proptest::prelude::*;

/// A randomized bounded counter grid: `n` counters, each incrementable up
/// to `cap`. Reachable states are exactly the product lattice.
#[derive(Clone)]
struct Grid {
    n: usize,
    cap: u8,
}

impl TransitionSystem for Grid {
    type State = Vec<u8>;
    type Action = usize;

    fn initial(&self) -> Vec<u8> {
        vec![0; self.n]
    }

    fn actions(&self, s: &Vec<u8>) -> Vec<usize> {
        (0..self.n).filter(|&i| s[i] < self.cap).collect()
    }

    fn step(&self, s: &Vec<u8>, a: &usize) -> Vec<u8> {
        let mut next = s.clone();
        next[*a] += 1;
        next
    }

    fn locus(&self, a: &usize) -> usize {
        *a
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// With a deep-enough bound, BFS visits exactly the product lattice.
    #[test]
    fn bfs_counts_the_lattice(n in 1usize..4, cap in 1u8..4) {
        let sys = Grid { n, cap };
        let cfg = ExploreConfig { max_depth: n * (cap as usize) + 1, max_states: 1_000_000, ..Default::default() };
        let report = bfs(&sys, &[], &cfg);
        let expected = ((cap as u64) + 1).pow(n as u32);
        prop_assert_eq!(report.states_visited, expected);
        prop_assert!(!report.truncated);
    }

    /// Consequence prediction never visits more states than BFS.
    #[test]
    fn consequence_is_a_pruning(n in 1usize..4, cap in 1u8..4, depth in 1usize..6) {
        let sys = Grid { n, cap };
        let cfg = ExploreConfig { max_depth: depth, max_states: 1_000_000, ..Default::default() };
        let full = bfs(&sys, &[], &cfg);
        let chains = cb_mck::consequence::predict(&sys, &[], &cfg);
        prop_assert!(chains.report.states_visited <= full.states_visited,
            "chains {} > bfs {}", chains.report.states_visited, full.states_visited);
    }

    /// Every violation's counterexample path replays to a violating state.
    #[test]
    fn counterexamples_replay(n in 1usize..4, cap in 2u8..5, limit in 1u32..6) {
        let sys = Grid { n, cap };
        let threshold = limit.min(cap as u32) as u8;
        let prop_name = "sum below threshold";
        let props = [Property::safety(prop_name, move |s: &Vec<u8>| {
            s.iter().map(|&c| c as u32).sum::<u32>() < threshold as u32
        })];
        let cfg = ExploreConfig { max_depth: 8, max_violations: 64, ..Default::default() };
        let report = bfs(&sys, &props, &cfg);
        for v in &report.violations {
            let states = replay(&sys, &v.path);
            let last = states.last().expect("nonempty");
            let sum: u32 = last.iter().map(|&c| c as u32).sum();
            prop_assert!(sum >= threshold as u32, "replayed state {last:?} does not violate");
        }
        // The threshold is reachable, so violations must exist.
        prop_assert!(!report.safe());
    }

    /// Budgets are hard limits.
    #[test]
    fn budgets_bound_the_search(n in 2usize..4, cap in 2u8..5, budget in 2usize..40) {
        let sys = Grid { n, cap };
        let cfg = ExploreConfig { max_depth: 50, max_states: budget, ..Default::default() };
        let report = bfs(&sys, &[], &cfg);
        prop_assert!(report.states_visited as usize <= budget);
    }

}
