//! Bridging choices to the model checker: predictive option evaluation.
//!
//! A [`ModelEvaluator`] is the glue between an exposed choice and the
//! prediction machinery of `cb-mck`. The service (or the runtime on its
//! behalf) supplies a factory that builds a [`TransitionSystem`] modelling
//! the system's near future *as if option `i` had been chosen* — typically
//! instantiated from the latest consistent snapshot plus the network model,
//! exactly as Figure 1 of the paper wires it. Evaluation then runs a
//! **fused single pass**:
//!
//! 1. one exploration (**consequence prediction** or BFS) that checks
//!    safety *and* judges bounded liveness in the same traversal, and
//! 2. **weighted random walks** to estimate the expected objective score of
//!    the reachable futures (the "model checker as simulator").
//!
//! Earlier revisions ran up to three searches per option — a violation
//! search, the walks, and a *second full BFS* just for liveness
//! satisfaction. The exploration kernels now carry liveness bitmasks
//! through every search, so the dedicated liveness pass is gone; the
//! pre-fusion behavior survives as [`ModelEvaluator::evaluate_multipass`]
//! for differential tests and as the perf-bench baseline. Properties and
//! objectives are evaluated as given, with no memo between them: a
//! per-decision cache of verdicts and scores was measured slower than
//! recomputing them, and was removed.
//!
//! Note one semantic refinement of the fusion: with
//! [`PredictConfig::consequence`] enabled, liveness satisfaction is now
//! judged over the *same causally related futures* the violation search
//! explores, instead of over a separate exhaustive BFS. The two agree
//! exactly in BFS mode.
//!
//! The result is a [`Prediction`] the [`LookaheadResolver`] can rank.
//!
//! [`LookaheadResolver`]: crate::resolve::lookahead::LookaheadResolver

use crate::choice::{EvalVerdict, OptionEvaluator, Prediction};
use crate::objective::ObjectiveSet;
use cb_mck::explore::ExploreConfig;
use cb_mck::system::TransitionSystem;
use cb_mck::walk::{random_walks, WalkConfig};
use cb_simnet::rng::SimRng;
use cb_telemetry::{keys, Registry};

/// Budget and mode of a predictive evaluation.
#[derive(Clone, Debug)]
pub struct PredictConfig {
    /// Exploration depth ("several levels of state space into the future").
    pub depth: usize,
    /// State budget for the violation search.
    pub max_states: usize,
    /// Random walks used to estimate the objective (0 disables walk-based
    /// scoring; the objective is then evaluated on the initial state only).
    pub walks: usize,
    /// Use consequence prediction (chains) for the violation search; when
    /// false, exhaustive BFS is used instead. The E8 ablation flips this.
    pub consequence: bool,
    /// Weight of bounded-liveness satisfaction in the objective: each
    /// `eventually` property contributes `weight × satisfaction` (paper
    /// §3.2: the number of liveness properties expected to hold is a
    /// generically useful objective). 0 skips liveness scoring.
    pub liveness_weight: f64,
    /// Per-decision prediction deadline, as a sim-cost budget in explored
    /// states (the decision-latency clock prices one state at 1 µs of
    /// sim-cost). `0` disables the deadline. When set, the cumulative
    /// states explored across all option evaluations of one decision never
    /// exceed this: the search budget and walk count of each evaluation
    /// are capped at what remains, and once the budget is exhausted
    /// further evaluations return [`Prediction::unknown`] immediately.
    /// Any cut-short evaluation flips the evaluator's verdict to
    /// [`EvalVerdict::Partial`] — an explicit signal, not a silent
    /// truncation — which the resolver ladder treats as a deadline firing.
    pub deadline_states: u64,
}

impl Default for PredictConfig {
    fn default() -> Self {
        PredictConfig {
            depth: 4,
            max_states: 20_000,
            walks: 24,
            consequence: true,
            liveness_weight: 1.0,
            deadline_states: 0,
        }
    }
}

/// The per-decision evaluation memo [`ModelEvaluator`] no longer keeps.
/// It has no values, so [`ModelEvaluator::cache`] is always `None`; the
/// type stays only so callers written against the memo still compile.
pub enum EvalCache {}

impl EvalCache {
    /// Lookups answered from a memoized entry (there are none).
    pub fn hits(&self) -> u64 {
        match *self {}
    }

    /// Lookups that computed fresh (there are none).
    pub fn misses(&self) -> u64 {
        match *self {}
    }
}

/// An [`OptionEvaluator`] that scores options by exploring their futures.
///
/// `F` builds the transition system for a given option index. The same
/// evaluator is handed to the resolver for one choice and then discarded —
/// it borrows the models that back the factory.
pub struct ModelEvaluator<'a, T, F>
where
    T: TransitionSystem,
    F: FnMut(usize) -> T,
{
    make_system: F,
    objectives: &'a ObjectiveSet<T::State>,
    cfg: PredictConfig,
    rng: SimRng,
    /// Dedicated liveness searches the fused pass avoided.
    fused_searches_saved: u64,
    /// Cumulative states explored across this decision's evaluations
    /// (deadline accounting).
    spent_states: u64,
    /// Evaluations cut short by the prediction deadline.
    evals_cut_short: u64,
}

impl<'a, T, F> ModelEvaluator<'a, T, F>
where
    T: TransitionSystem,
    F: FnMut(usize) -> T,
{
    /// Creates an evaluator for one decision.
    ///
    /// `rng` seeds the walk sampler; fork it from the node's stream so
    /// evaluation stays deterministic per run.
    pub fn new(
        make_system: F,
        objectives: &'a ObjectiveSet<T::State>,
        cfg: PredictConfig,
        rng: SimRng,
    ) -> Self {
        ModelEvaluator {
            make_system,
            objectives,
            cfg,
            rng,
            fused_searches_saved: 0,
            spent_states: 0,
            evals_cut_short: 0,
        }
    }

    /// Always `None`: evaluation keeps no memo (see [`EvalCache`]).
    pub fn cache(&self) -> Option<&EvalCache> {
        None
    }

    /// Dedicated liveness searches the fused pass avoided so far.
    pub fn fused_searches_saved(&self) -> u64 {
        self.fused_searches_saved
    }

    /// Cumulative states explored across this decision's evaluations.
    pub fn spent_states(&self) -> u64 {
        self.spent_states
    }

    /// Evaluations cut short by the prediction deadline so far.
    pub fn evals_cut_short(&self) -> u64 {
        self.evals_cut_short
    }

    fn explore_cfg(&self) -> ExploreConfig {
        ExploreConfig {
            max_depth: self.cfg.depth,
            max_states: self.cfg.max_states,
            stop_at_first_violation: false,
            // Never cut the traversal on violation count: the fused pass
            // must finish its liveness accounting, and rankings get full
            // violation resolution.
            max_violations: usize::MAX,
        }
    }

    fn want_liveness(&self) -> bool {
        self.cfg.liveness_weight != 0.0 && !self.objectives.liveness_properties().is_empty()
    }

    /// The pre-fusion reference evaluation: a violation-only search, the
    /// walks, and a **second full BFS** for liveness satisfaction. Kept
    /// (a) as the baseline the decision perf bench measures against, and
    /// (b) for differential tests pinning that fusion did not change
    /// predictions — in BFS mode the two return identical `Prediction`s up
    /// to `states_explored`, which is exactly the cost the fusion removes.
    pub fn evaluate_multipass(&mut self, index: usize) -> Prediction {
        let sys = (self.make_system)(index);
        let props = self.objectives.properties();
        let explore_cfg = self.explore_cfg();
        // Pass 1: violation search over causally related futures.
        let (violations, states_a) = if self.cfg.consequence {
            let r = cb_mck::consequence::predict(&sys, &props, &explore_cfg);
            (r.report.violations.len() as u64, r.report.states_visited)
        } else {
            let r = cb_mck::explore::bfs(&sys, &props, &explore_cfg);
            (r.violations.len() as u64, r.states_visited)
        };
        // Pass 2: objective estimation over sampled futures.
        let (mut objective, states_b) = if self.cfg.walks == 0 {
            (self.objectives.score(&sys.initial()), 0)
        } else {
            let wcfg = WalkConfig {
                walks: self.cfg.walks,
                depth: self.cfg.depth,
            };
            let report = random_walks(&sys, &[], &wcfg, &mut self.rng, |s| {
                self.objectives.score(s)
            });
            (report.mean_score(), report.steps)
        };
        // Pass 3: a dedicated liveness search.
        let mut states_c = 0;
        if self.want_liveness() {
            let live_props: Vec<_> = self.objectives.liveness_properties().to_vec();
            let r = cb_mck::explore::bfs(&sys, &live_props, &explore_cfg);
            states_c = r.states_visited;
            for (_, outcome) in &r.liveness {
                objective += self.cfg.liveness_weight * outcome.satisfaction();
            }
        }
        Prediction {
            objective,
            violations,
            states_explored: states_a + states_b + states_c,
        }
    }
}

impl<'a, T, F> OptionEvaluator for ModelEvaluator<'a, T, F>
where
    T: TransitionSystem,
    F: FnMut(usize) -> T,
{
    fn evaluate(&mut self, index: usize) -> Prediction {
        // Deadline accounting: the per-decision sim-cost budget that is
        // still unspent. `deadline_states == 0` disables the whole
        // mechanism, leaving evaluation bit-identical to the undeadlined
        // path (the differential tests pin this).
        let deadline = self.cfg.deadline_states;
        let budget = if deadline == 0 {
            u64::MAX
        } else {
            deadline.saturating_sub(self.spent_states)
        };
        if budget == 0 {
            // Earlier options already exhausted the decision's budget:
            // stop explicitly (Partial) instead of silently truncating.
            self.evals_cut_short += 1;
            return Prediction::unknown();
        }
        let sys = (self.make_system)(index);
        let props = self.objectives.properties();
        let mut explore_cfg = self.explore_cfg();
        if deadline != 0 {
            explore_cfg.max_states = explore_cfg.max_states.min(budget as usize);
        }
        let want_live = self.want_liveness();
        // One fused search: safety violations AND bounded-liveness
        // satisfaction from the same traversal.
        let (violations, states_a, liveness) = if self.cfg.consequence {
            let r = cb_mck::consequence::predict(&sys, &props, &explore_cfg);
            (
                r.report.violations.len() as u64,
                r.report.states_visited,
                r.report.liveness,
            )
        } else {
            let r = cb_mck::explore::bfs(&sys, &props, &explore_cfg);
            (r.violations.len() as u64, r.states_visited, r.liveness)
        };
        // What the walks may still spend after the fused search, and
        // whether the search itself consumed its entire allowance (in
        // which case it may have been truncated by the deadline cap).
        self.spent_states += states_a;
        let walk_budget = budget.saturating_sub(states_a);
        let mut cut_short = deadline != 0 && states_a >= budget;
        let effective_walks = if deadline == 0 {
            self.cfg.walks
        } else {
            let affordable = (walk_budget / self.cfg.depth.max(1) as u64) as usize;
            self.cfg.walks.min(affordable)
        };
        if effective_walks < self.cfg.walks {
            cut_short = true;
        }
        // Objective estimation over sampled futures.
        let (mut objective, states_b) = if effective_walks == 0 {
            (self.objectives.score(&sys.initial()), 0)
        } else {
            let wcfg = WalkConfig {
                walks: effective_walks,
                depth: self.cfg.depth,
            };
            let report = random_walks(&sys, &[], &wcfg, &mut self.rng, |s| {
                self.objectives.score(s)
            });
            (report.mean_score(), report.steps)
        };
        self.spent_states += states_b;
        if cut_short {
            self.evals_cut_short += 1;
        }
        // Bounded liveness folded from the same search — this is the whole
        // exploration the pre-fusion path spent on a second BFS.
        if want_live {
            self.fused_searches_saved += 1;
            for (_, outcome) in &liveness {
                objective += self.cfg.liveness_weight * outcome.satisfaction();
            }
        }
        Prediction {
            objective,
            violations,
            states_explored: states_a + states_b,
        }
    }

    fn verdict(&self) -> EvalVerdict {
        if self.evals_cut_short > 0 {
            EvalVerdict::Partial
        } else {
            EvalVerdict::Complete
        }
    }

    fn states_spent(&self) -> u64 {
        self.spent_states
    }

    fn export_metrics(&self, reg: &mut Registry) {
        reg.add(
            keys::CORE_EVALCACHE_FUSED_SEARCHES_SAVED,
            self.fused_searches_saved,
        );
        reg.add(keys::CORE_PREDICT_PARTIAL_EVALS, self.evals_cut_short);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::choice::{ChoiceRequest, OptionDesc, Resolver};
    use crate::resolve::lookahead::LookaheadResolver;
    use cb_mck::props::Property;

    /// A one-dimensional walk that drifts by `bias` per step; option = bias.
    #[derive(Clone)]
    struct Drift {
        start: i64,
        bias: i64,
    }

    impl TransitionSystem for Drift {
        type State = i64;
        type Action = i64;
        fn initial(&self) -> i64 {
            self.start
        }
        fn actions(&self, s: &i64) -> Vec<i64> {
            // The action carries the successor value so that each step
            // newly enables the next one (a causal chain).
            vec![s + self.bias]
        }
        fn step(&self, _s: &i64, a: &i64) -> i64 {
            *a
        }
    }

    #[test]
    fn evaluator_prefers_option_with_higher_future_score() {
        let objectives: ObjectiveSet<i64> =
            ObjectiveSet::new().maximize("value", 1.0, |s: &i64| *s as f64);
        let biases = [-2i64, 0, 3];
        let mut eval = ModelEvaluator::new(
            |i| Drift {
                start: 0,
                bias: biases[i],
            },
            &objectives,
            PredictConfig {
                depth: 5,
                walks: 8,
                ..Default::default()
            },
            SimRng::seed_from(1),
        );
        let p_down = eval.evaluate(0);
        let p_up = eval.evaluate(2);
        assert!(p_up.objective > p_down.objective, "{p_up:?} vs {p_down:?}");
    }

    #[test]
    fn evaluator_counts_future_violations() {
        let objectives: ObjectiveSet<i64> =
            ObjectiveSet::new().safety(Property::safety("stays below 3", |s: &i64| *s < 3));
        let biases = [0i64, 1];
        let mut eval = ModelEvaluator::new(
            |i| Drift {
                start: 0,
                bias: biases[i],
            },
            &objectives,
            PredictConfig {
                depth: 6,
                walks: 0,
                ..Default::default()
            },
            SimRng::seed_from(2),
        );
        assert_eq!(eval.evaluate(0).violations, 0);
        assert!(
            eval.evaluate(1).violations > 0,
            "upward drift crosses 3 within depth 6"
        );
    }

    #[test]
    fn lookahead_plus_evaluator_end_to_end() {
        let objectives: ObjectiveSet<i64> = ObjectiveSet::new()
            .maximize("value", 1.0, |s: &i64| *s as f64)
            .safety(Property::safety("stays below 10", |s: &i64| *s < 10));
        let biases = [1i64, 5]; // option 1 scores higher but violates within depth 4
        let opts = [OptionDesc::key(0), OptionDesc::key(1)];
        let req = ChoiceRequest::new("drift", &opts);
        let mut resolver = LookaheadResolver::new();
        let mut eval = ModelEvaluator::new(
            |i| Drift {
                start: 0,
                bias: biases[i],
            },
            &objectives,
            PredictConfig {
                depth: 4,
                walks: 8,
                ..Default::default()
            },
            SimRng::seed_from(3),
        );
        // bias 5 reaches 10 in 2 steps -> violation; safety dominates.
        assert_eq!(resolver.resolve(&req, &mut eval), 0);
    }

    #[test]
    fn zero_walks_scores_initial_state() {
        let objectives: ObjectiveSet<i64> =
            ObjectiveSet::new().maximize("value", 1.0, |s: &i64| *s as f64);
        let mut eval = ModelEvaluator::new(
            |_| Drift {
                start: 7,
                bias: 100,
            },
            &objectives,
            PredictConfig {
                walks: 0,
                ..Default::default()
            },
            SimRng::seed_from(4),
        );
        assert_eq!(eval.evaluate(0).objective, 7.0);
    }

    #[test]
    fn bfs_mode_also_finds_violations() {
        let objectives: ObjectiveSet<i64> =
            ObjectiveSet::new().safety(Property::safety("below 2", |s: &i64| *s < 2));
        let mut eval = ModelEvaluator::new(
            |_| Drift { start: 0, bias: 1 },
            &objectives,
            PredictConfig {
                consequence: false,
                walks: 0,
                depth: 4,
                ..Default::default()
            },
            SimRng::seed_from(5),
        );
        assert!(eval.evaluate(0).violations > 0);
    }

    #[test]
    fn liveness_satisfaction_rewards_options() {
        // Objective: eventually reach 6. Upward drift satisfies it within
        // the horizon; downward drift never does.
        let objectives: ObjectiveSet<i64> =
            ObjectiveSet::new().liveness(Property::eventually("reaches 6", |s: &i64| *s >= 6));
        let biases = [-1i64, 2];
        let mut eval = ModelEvaluator::new(
            |i| Drift {
                start: 0,
                bias: biases[i],
            },
            &objectives,
            PredictConfig {
                depth: 4,
                walks: 0,
                liveness_weight: 5.0,
                ..Default::default()
            },
            SimRng::seed_from(7),
        );
        let down = eval.evaluate(0);
        let up = eval.evaluate(1);
        assert!(up.objective > down.objective + 2.0, "{up:?} vs {down:?}");
    }

    #[test]
    fn fused_skips_the_liveness_search_and_accounts_it() {
        let objectives: ObjectiveSet<i64> =
            ObjectiveSet::new().liveness(Property::eventually("reaches 3", |s: &i64| *s >= 3));
        let cfg = PredictConfig {
            depth: 4,
            walks: 0,
            consequence: false,
            ..Default::default()
        };
        let mk = |i: usize| {
            let _ = i;
            Drift { start: 0, bias: 1 }
        };
        let mut fused = ModelEvaluator::new(mk, &objectives, cfg.clone(), SimRng::seed_from(8));
        let mut multi = ModelEvaluator::new(mk, &objectives, cfg, SimRng::seed_from(8));
        let f = fused.evaluate(0);
        let m = multi.evaluate_multipass(0);
        // Same verdicts and objective, roughly half the explored states.
        assert_eq!(f.violations, m.violations);
        assert_eq!(f.objective, m.objective);
        assert!(
            f.states_explored < m.states_explored,
            "fused {} vs multipass {}",
            f.states_explored,
            m.states_explored
        );
        assert_eq!(fused.fused_searches_saved(), 1);
        let mut reg = Registry::new();
        fused.export_metrics(&mut reg);
        assert_eq!(reg.counter(keys::CORE_EVALCACHE_FUSED_SEARCHES_SAVED), 1);
        // The memo's keys stay in the schema and are never written.
        assert_eq!(reg.counter(keys::CORE_EVALCACHE_HITS), 0);
        assert_eq!(reg.counter(keys::CORE_EVALCACHE_MISSES), 0);
    }

    #[test]
    fn deadline_caps_spent_states_and_reports_partial() {
        let objectives: ObjectiveSet<i64> = ObjectiveSet::new()
            .maximize("value", 1.0, |s: &i64| *s as f64)
            .safety(Property::safety("below 1000", |s: &i64| *s < 1000));
        let cfg = PredictConfig {
            depth: 8,
            walks: 16,
            deadline_states: 12,
            ..Default::default()
        };
        let mut eval = ModelEvaluator::new(
            |_| Drift { start: 0, bias: 1 },
            &objectives,
            cfg,
            SimRng::seed_from(13),
        );
        // Several options: the budget spans the whole decision.
        let mut total = 0;
        for i in 0..4 {
            total += eval.evaluate(i).states_explored;
        }
        assert!(total <= 12, "deadline overrun: spent {total} > 12");
        assert_eq!(eval.spent_states(), total);
        assert_eq!(eval.verdict(), EvalVerdict::Partial);
        assert!(eval.evals_cut_short() > 0);
        let mut reg = Registry::new();
        eval.export_metrics(&mut reg);
        assert_eq!(
            reg.counter(keys::CORE_PREDICT_PARTIAL_EVALS),
            eval.evals_cut_short()
        );
    }

    #[test]
    fn exhausted_deadline_returns_unknown_immediately() {
        let objectives: ObjectiveSet<i64> =
            ObjectiveSet::new().maximize("value", 1.0, |s: &i64| *s as f64);
        let mut eval = ModelEvaluator::new(
            |_| Drift { start: 0, bias: 1 },
            &objectives,
            PredictConfig {
                depth: 6,
                walks: 8,
                deadline_states: 3,
                ..Default::default()
            },
            SimRng::seed_from(14),
        );
        let _ = eval.evaluate(0); // consumes the whole (tiny) budget
        let p = eval.evaluate(1);
        assert_eq!(
            p,
            Prediction::unknown(),
            "exhausted budget must be explicit"
        );
        assert_eq!(eval.verdict(), EvalVerdict::Partial);
    }

    #[test]
    fn no_deadline_is_bitwise_identical_to_the_default_path() {
        let objectives: ObjectiveSet<i64> = ObjectiveSet::new()
            .maximize("value", 1.0, |s: &i64| *s as f64)
            .safety(Property::safety("below 100", |s: &i64| *s < 100));
        let run = |deadline: u64| {
            let mut eval = ModelEvaluator::new(
                |_| Drift { start: 0, bias: 1 },
                &objectives,
                PredictConfig {
                    depth: 5,
                    walks: 8,
                    deadline_states: deadline,
                    ..Default::default()
                },
                SimRng::seed_from(15),
            );
            (eval.evaluate(0), eval.verdict())
        };
        let (p_off, v_off) = run(0);
        // A deadline generous enough to never fire is also transparent.
        let (p_big, v_big) = run(1_000_000);
        assert_eq!(p_off, p_big);
        assert_eq!(v_off, EvalVerdict::Complete);
        assert_eq!(v_big, EvalVerdict::Complete);
    }

    #[test]
    fn deterministic_given_seed() {
        let objectives: ObjectiveSet<i64> =
            ObjectiveSet::new().maximize("value", 1.0, |s: &i64| *s as f64);
        let run = |seed| {
            let mut eval = ModelEvaluator::new(
                |_| Drift { start: 0, bias: 1 },
                &objectives,
                PredictConfig::default(),
                SimRng::seed_from(seed),
            );
            eval.evaluate(0)
        };
        assert_eq!(run(9), run(9));
    }
}
