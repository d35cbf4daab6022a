//! Bounded breadth-first state-space exploration.
//!
//! This is the workhorse the paper's §3.4 refers to as "state space
//! exploration up to a certain depth": walk every interleaving of enabled
//! actions from the initial state, prune states already seen (by stable
//! fingerprint), check safety on every state, and track bounded liveness
//! along terminated paths. Budgets — depth and state count — make the cost
//! predictable, which is what lets the runtime run exploration on the side
//! without stalling the system.

use crate::hash::{fingerprint, FingerprintSet};
use crate::props::{Property, PropertyKind, Violation};
use crate::system::TransitionSystem;
use cb_telemetry::{keys, Registry};
use std::collections::VecDeque;

/// Exploration budgets and switches.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Maximum path length from the initial state.
    pub max_depth: usize,
    /// Maximum number of distinct states to visit before truncating.
    pub max_states: usize,
    /// Stop at the first safety violation instead of collecting several.
    pub stop_at_first_violation: bool,
    /// Upper bound on collected violations (ignored when stopping at first).
    pub max_violations: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_depth: 5,
            max_states: 100_000,
            stop_at_first_violation: false,
            max_violations: 16,
        }
    }
}

impl ExploreConfig {
    /// A config with the given depth and the default budgets.
    pub fn depth(max_depth: usize) -> Self {
        ExploreConfig {
            max_depth,
            ..Default::default()
        }
    }
}

/// Result of a liveness check for one `eventually` property.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LivenessOutcome {
    /// Complete paths examined (terminated by depth bound or deadlock).
    pub paths_checked: u64,
    /// Paths on which the predicate never held.
    pub paths_missed: u64,
}

impl LivenessOutcome {
    /// Fraction of checked paths that satisfied the property, in `[0, 1]`.
    /// Returns 1.0 when no path was checked.
    pub fn satisfaction(&self) -> f64 {
        if self.paths_checked == 0 {
            1.0
        } else {
            1.0 - self.paths_missed as f64 / self.paths_checked as f64
        }
    }
}

/// What an exploration saw.
#[derive(Clone, Debug)]
pub struct ExplorationReport<A> {
    /// Distinct states visited (including the initial state).
    pub states_visited: u64,
    /// States whose successors were generated.
    pub states_expanded: u64,
    /// Transitions taken (successor generations).
    pub transitions: u64,
    /// Transitions whose successor had already been visited (the dedup
    /// ratio is `dedup_hits / transitions`).
    pub dedup_hits: u64,
    /// Peak size of the pending frontier (the BFS queue), in states.
    pub frontier_peak: u64,
    /// Deepest level reached.
    pub max_depth_reached: usize,
    /// True when a budget cut the search short.
    pub truncated: bool,
    /// Detected safety violations with counterexample paths.
    pub violations: Vec<Violation<A>>,
    /// Bounded-liveness outcomes, one per `eventually` property, in the
    /// order the properties were supplied.
    pub liveness: Vec<(String, LivenessOutcome)>,
}

impl<A> ExplorationReport<A> {
    /// True when no safety property was violated.
    pub fn safe(&self) -> bool {
        self.violations.is_empty()
    }

    pub(crate) fn new() -> Self {
        ExplorationReport {
            states_visited: 0,
            states_expanded: 0,
            transitions: 0,
            dedup_hits: 0,
            frontier_peak: 0,
            max_depth_reached: 0,
            truncated: false,
            violations: Vec::new(),
            liveness: Vec::new(),
        }
    }

    /// Accumulates this report's exploration budget into a telemetry
    /// registry under the standard `mck.*` keys: counters add (multiple
    /// explorations per run sum), peak gauges keep the maximum.
    pub fn record_into(&self, reg: &mut Registry) {
        reg.add(keys::MCK_STATES_VISITED, self.states_visited);
        reg.add(keys::MCK_STATES_EXPANDED, self.states_expanded);
        reg.add(keys::MCK_TRANSITIONS, self.transitions);
        reg.add(keys::MCK_DEDUP_HITS, self.dedup_hits);
        reg.gauge_raise(keys::MCK_FRONTIER_PEAK, self.frontier_peak as i64);
        reg.gauge_raise(keys::MCK_MAX_DEPTH, self.max_depth_reached as i64);
    }
}

/// Arena node for path reconstruction without storing a path per queue entry.
///
/// Shared with `consequence::predict`, whose chain frames reference arena
/// indices instead of carrying cloned paths.
pub(crate) struct SearchNode<A> {
    pub(crate) parent: Option<(usize, A)>,
    pub(crate) depth: usize,
    /// Bitmask: which `eventually` properties have held somewhere on the
    /// path to this node (supports up to 64, far beyond practical use).
    pub(crate) eventually_seen: u64,
}

pub(crate) fn reconstruct<A: Clone>(arena: &[SearchNode<A>], mut idx: usize) -> Vec<A> {
    let mut path = Vec::with_capacity(arena[idx].depth);
    while let Some((parent, action)) = &arena[idx].parent {
        path.push(action.clone());
        idx = *parent;
    }
    path.reverse();
    path
}

/// Explores breadth-first from the initial state.
///
/// Safety properties are checked on every distinct state; `eventually`
/// properties are judged on complete paths (cut by the depth bound, a
/// deadlock, or a previously visited state).
///
/// # Examples
///
/// ```
/// use cb_mck::explore::{bfs, ExploreConfig};
/// use cb_mck::props::Property;
/// use cb_mck::system::TransitionSystem;
///
/// struct Counter;
/// impl TransitionSystem for Counter {
///     type State = u32;
///     type Action = u32; // add this much
///     fn initial(&self) -> u32 { 0 }
///     fn actions(&self, _: &u32) -> Vec<u32> { vec![1, 2] }
///     fn step(&self, s: &u32, a: &u32) -> u32 { s + a }
/// }
///
/// let report = bfs(
///     &Counter,
///     &[Property::safety("below 4", |s: &u32| *s < 4)],
///     &ExploreConfig::depth(3),
/// );
/// assert!(!report.safe());
/// ```
pub fn bfs<T: TransitionSystem>(
    sys: &T,
    props: &[Property<T::State>],
    cfg: &ExploreConfig,
) -> ExplorationReport<T::Action> {
    let mut report = ExplorationReport::new();
    let safety: Vec<&Property<T::State>> = props
        .iter()
        .filter(|p| p.kind() == PropertyKind::Safety)
        .collect();
    let eventually: Vec<&Property<T::State>> = props
        .iter()
        .filter(|p| p.kind() == PropertyKind::EventuallyWithinHorizon)
        .collect();
    assert!(
        eventually.len() <= 64,
        "at most 64 eventually-properties supported"
    );
    let mut liveness: Vec<LivenessOutcome> = vec![LivenessOutcome::default(); eventually.len()];

    let initial = sys.initial();
    // Fingerprints already went through the avalanche finalizer: store them
    // in an identity-hashed set instead of paying SipHash per probe.
    let mut visited = FingerprintSet::default();
    visited.insert(fingerprint(&initial));
    let mut arena: Vec<SearchNode<T::Action>> = Vec::new();
    let mut seen0 = 0u64;
    for (i, p) in eventually.iter().enumerate() {
        if p.holds(&initial) {
            seen0 |= 1 << i;
        }
    }
    arena.push(SearchNode {
        parent: None,
        depth: 0,
        eventually_seen: seen0,
    });
    report.states_visited = 1;

    for p in &safety {
        if !p.holds(&initial) {
            report.violations.push(Violation {
                property: p.name().to_string(),
                kind: PropertyKind::Safety,
                path: Vec::new(),
            });
            if cfg.stop_at_first_violation {
                return report;
            }
        }
    }

    // Queue holds (arena index, state). States stay in the queue only while
    // pending expansion, bounding live memory to the frontier.
    let mut queue: VecDeque<(usize, T::State)> = VecDeque::new();
    queue.push_back((0, initial));
    report.frontier_peak = 1;

    let finish_path =
        |idx: usize, arena: &[SearchNode<T::Action>], liveness: &mut Vec<LivenessOutcome>| {
            let seen = arena[idx].eventually_seen;
            for (i, out) in liveness.iter_mut().enumerate() {
                out.paths_checked += 1;
                if seen & (1 << i) == 0 {
                    out.paths_missed += 1;
                }
            }
        };

    // One actions buffer for the whole search instead of a Vec per state.
    let mut actions_buf: Vec<T::Action> = Vec::new();
    while let Some((idx, state)) = queue.pop_front() {
        let depth = arena[idx].depth;
        report.max_depth_reached = report.max_depth_reached.max(depth);
        if depth >= cfg.max_depth {
            finish_path(idx, &arena, &mut liveness);
            continue;
        }
        actions_buf.clear();
        sys.actions_into(&state, &mut actions_buf);
        if actions_buf.is_empty() {
            finish_path(idx, &arena, &mut liveness);
            continue;
        }
        report.states_expanded += 1;
        let mut any_new = false;
        for action in actions_buf.drain(..) {
            report.transitions += 1;
            let next = sys.step(&state, &action);
            let fp = fingerprint(&next);
            if !visited.insert(fp) {
                report.dedup_hits += 1;
                continue;
            }
            any_new = true;
            report.states_visited += 1;
            let mut seen = arena[idx].eventually_seen;
            for (i, p) in eventually.iter().enumerate() {
                if seen & (1 << i) == 0 && p.holds(&next) {
                    seen |= 1 << i;
                }
            }
            let child = arena.len();
            arena.push(SearchNode {
                parent: Some((idx, action)),
                depth: depth + 1,
                eventually_seen: seen,
            });
            for p in &safety {
                if !p.holds(&next) {
                    report.violations.push(Violation {
                        property: p.name().to_string(),
                        kind: PropertyKind::Safety,
                        path: reconstruct(&arena, child),
                    });
                    if cfg.stop_at_first_violation || report.violations.len() >= cfg.max_violations
                    {
                        report.truncated = true;
                        for (i, p) in eventually.iter().enumerate() {
                            report
                                .liveness
                                .push((p.name().to_string(), liveness[i].clone()));
                        }
                        return report;
                    }
                }
            }
            if report.states_visited as usize >= cfg.max_states {
                report.truncated = true;
                for (i, p) in eventually.iter().enumerate() {
                    report
                        .liveness
                        .push((p.name().to_string(), liveness[i].clone()));
                }
                return report;
            }
            queue.push_back((child, next));
            report.frontier_peak = report.frontier_peak.max(queue.len() as u64);
        }
        if !any_new {
            // Every successor was already visited: treat as a path end for
            // liveness purposes (the cycle/merge has been accounted for).
            finish_path(idx, &arena, &mut liveness);
        }
    }
    for (i, p) in eventually.iter().enumerate() {
        report
            .liveness
            .push((p.name().to_string(), liveness[i].clone()));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::toy::{CounterRing, RingState, TokenRing};

    #[test]
    fn bfs_counts_reachable_states_exactly() {
        // CounterRing(2, modulus 3): 3*3 = 9 reachable states.
        let sys = CounterRing { n: 2, modulus: 3 };
        let report = bfs(
            &sys,
            &[],
            &ExploreConfig {
                max_depth: 10,
                ..Default::default()
            },
        );
        assert_eq!(report.states_visited, 9);
        assert!(report.safe());
        assert!(!report.truncated);
    }

    #[test]
    fn bfs_depth_bound_limits_reach() {
        let sys = TokenRing { n: 100 };
        let report = bfs(&sys, &[], &ExploreConfig::depth(5));
        // Token advances one position per step: exactly depth+1 states.
        assert_eq!(report.states_visited, 6);
        assert_eq!(report.max_depth_reached, 5);
    }

    #[test]
    fn bfs_finds_shallowest_violation() {
        let sys = TokenRing { n: 10 };
        let props = [Property::safety("below 3", |s: &usize| *s < 3)];
        let report = bfs(&sys, &props, &ExploreConfig::depth(10));
        // States 3..=9 all violate; BFS reports the shallowest first.
        assert_eq!(report.violations.len(), 7);
        assert_eq!(report.violations[0].path.len(), 3);
    }

    #[test]
    fn counterexample_path_replays_to_violation() {
        let sys = CounterRing { n: 3, modulus: 4 };
        let props = [Property::safety("no counter hits 2", |s: &RingState| {
            !s.0.contains(&2)
        })];
        let report = bfs(&sys, &props, &ExploreConfig::depth(4));
        assert!(!report.safe());
        let path = &report.violations[0].path;
        let states = crate::system::replay(&sys, path);
        let last = states.last().expect("nonempty");
        assert!(last.0.contains(&2), "replayed end state {last:?}");
    }

    #[test]
    fn violation_in_initial_state_has_empty_path() {
        let sys = TokenRing { n: 4 };
        let props = [Property::safety("nonzero", |s: &usize| *s != 0)];
        let report = bfs(&sys, &props, &ExploreConfig::depth(2));
        assert_eq!(report.violations[0].path.len(), 0);
    }

    #[test]
    fn stop_at_first_violation_short_circuits() {
        let sys = CounterRing { n: 4, modulus: 8 };
        let props = [Property::safety("all zero", |s: &RingState| {
            s.0.iter().all(|&c| c == 0)
        })];
        let cfg = ExploreConfig {
            stop_at_first_violation: true,
            ..ExploreConfig::depth(3)
        };
        let report = bfs(&sys, &props, &cfg);
        assert_eq!(report.violations.len(), 1);
    }

    #[test]
    fn state_budget_truncates() {
        let sys = CounterRing { n: 4, modulus: 10 };
        let cfg = ExploreConfig {
            max_states: 50,
            ..ExploreConfig::depth(20)
        };
        let report = bfs(&sys, &[], &cfg);
        assert!(report.truncated);
        assert_eq!(report.states_visited, 50);
    }

    #[test]
    fn liveness_satisfied_on_forced_path() {
        let sys = TokenRing { n: 5 };
        let props = [Property::eventually("token reaches 3", |s: &usize| *s == 3)];
        let report = bfs(&sys, &props, &ExploreConfig::depth(6));
        assert_eq!(report.liveness.len(), 1);
        let (name, out) = &report.liveness[0];
        assert_eq!(name, "token reaches 3");
        assert!(out.paths_checked > 0);
        assert_eq!(out.paths_missed, 0);
        assert_eq!(out.satisfaction(), 1.0);
    }

    #[test]
    fn liveness_miss_when_horizon_too_short() {
        let sys = TokenRing { n: 10 };
        let props = [Property::eventually("token reaches 7", |s: &usize| *s == 7)];
        let report = bfs(&sys, &props, &ExploreConfig::depth(3));
        let (_, out) = &report.liveness[0];
        assert!(out.paths_missed > 0);
        assert!(out.satisfaction() < 1.0);
    }

    #[test]
    fn deterministic_reports() {
        let sys = CounterRing { n: 3, modulus: 3 };
        let r1 = bfs(&sys, &[], &ExploreConfig::depth(4));
        let r2 = bfs(&sys, &[], &ExploreConfig::depth(4));
        assert_eq!(r1.states_visited, r2.states_visited);
        assert_eq!(r1.transitions, r2.transitions);
    }
}
