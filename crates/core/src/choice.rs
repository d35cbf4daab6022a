//! Exposed choices: the heart of the programming model.
//!
//! Instead of burying "which peer do I pick?" inside a message handler, the
//! service *exposes* the decision: it names the choice point, lists the
//! options (with optional feature vectors and a scenario context), and asks
//! the runtime to resolve it (paper §3.1). Everything a resolver — random,
//! heuristic, predictive, or learned — needs to know about a decision is in
//! the [`ChoiceRequest`]; what the runtime decided and why is recorded once,
//! as the decision's `Decision` span (see [`crate::runtime`]).

use cb_simnet::topology::NodeId;

/// Identifies a choice point in the service's code, e.g.
/// `"randtree.forward-join"`. Static strings keep request construction
/// allocation-free on the hot path.
pub type ChoiceId = &'static str;

/// A discretized scenario context, used by learned resolvers to generalize
/// across "similar scenarios" (paper §3.4). Services derive it from whatever
/// coarse state matters: load level, churn regime, round phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct ContextKey(pub u64);

/// One selectable alternative at a choice point.
#[derive(Clone, Debug, PartialEq)]
pub struct OptionDesc {
    /// Application-level identity of the option (e.g. a peer's `NodeId.0`,
    /// a block index, a handler index).
    pub key: u64,
    /// Optional features for heuristic/learned resolvers, e.g.
    /// `[estimated latency ms, tree depth, load]`. May be empty.
    pub features: Vec<f64>,
    /// Whether the option is a peer (its key a `NodeId.0`): the runtime
    /// folds the network model's confidence in the links to the peers a
    /// choice offers into the decision's health signals, and in no others.
    /// Set only by [`OptionDesc::peer`].
    pub peer: bool,
}

impl OptionDesc {
    /// An option with no features.
    pub fn key(key: u64) -> Self {
        Self::with_features(key, Vec::new())
    }

    /// An option with features.
    pub fn with_features(key: u64, features: Vec<f64>) -> Self {
        OptionDesc {
            key,
            features,
            peer: false,
        }
    }

    /// The option of sending to `node`, with features.
    pub fn peer(node: NodeId, features: Vec<f64>) -> Self {
        OptionDesc {
            key: node.0 as u64,
            features,
            peer: true,
        }
    }
}

/// A choice the service asks the runtime to resolve.
#[derive(Clone, Debug)]
pub struct ChoiceRequest<'a> {
    /// Which choice point this is.
    pub id: ChoiceId,
    /// The alternatives, in the service's preference-neutral order.
    pub options: &'a [OptionDesc],
    /// Scenario context for learned resolution.
    pub context: ContextKey,
    /// Optional fingerprint of the decision-relevant state beyond the
    /// option set itself (e.g. a hash of the workload position). Folded
    /// into the cross-run policy store's content address; `0` means "the
    /// option set is the state", which is the right default for runtime
    /// decisions whose options already name the live alternatives.
    pub state_fp: u64,
}

impl<'a> ChoiceRequest<'a> {
    /// Builds a request with the default (empty) context.
    pub fn new(id: ChoiceId, options: &'a [OptionDesc]) -> Self {
        ChoiceRequest {
            id,
            options,
            context: ContextKey::default(),
            state_fp: 0,
        }
    }

    /// Sets the scenario context.
    pub fn in_context(mut self, context: ContextKey) -> Self {
        self.context = context;
        self
    }

    /// Sets an explicit state fingerprint for cross-run memoization.
    pub fn with_state_fp(mut self, state_fp: u64) -> Self {
        self.state_fp = state_fp;
        self
    }

    /// Number of options.
    pub fn len(&self) -> usize {
        self.options.len()
    }

    /// True when there is nothing to choose from.
    pub fn is_empty(&self) -> bool {
        self.options.is_empty()
    }
}

/// What a predictive evaluation of one option concluded.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Prediction {
    /// Predicted objective value if this option is chosen (higher is
    /// better).
    pub objective: f64,
    /// Number of safety violations predicted in the explored future.
    pub violations: u64,
    /// How much future was examined (states or walks), for cost accounting.
    pub states_explored: u64,
}

impl Prediction {
    /// A neutral prediction (no information).
    pub fn unknown() -> Self {
        Prediction {
            objective: 0.0,
            violations: 0,
            states_explored: 0,
        }
    }

    /// Orders predictions: fewer predicted violations first (safety
    /// dominates), then higher objective.
    pub fn better_than(&self, other: &Prediction) -> bool {
        match self.violations.cmp(&other.violations) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => self.objective > other.objective,
        }
    }
}

/// Whether a predictive evaluation ran to completion or was cut short.
///
/// A [`Partial`](EvalVerdict::Partial) verdict is an *explicit* signal that
/// the evaluator hit its per-decision prediction deadline (sim-cost budget)
/// and stopped early instead of silently truncating the search: downstream
/// consumers (the degradation governor, the resolver ladder) treat it as a
/// deadline firing and step down to cheaper resolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvalVerdict {
    /// Every evaluation this decision ran within budget.
    Complete,
    /// At least one evaluation was cut short by the prediction deadline;
    /// predictions from this decision may be under-informed.
    Partial,
}

/// Evaluates the future of individual options at a choice point.
///
/// Predictive resolvers call [`OptionEvaluator::evaluate`]; cheap resolvers
/// never do, so the (possibly expensive) prediction machinery only runs when
/// the strategy wants it.
pub trait OptionEvaluator {
    /// Predicts the outcome of picking option `index`.
    fn evaluate(&mut self, index: usize) -> Prediction;

    /// Whether the evaluations so far this decision all completed, or a
    /// prediction deadline fired ([`EvalVerdict::Partial`]). Default:
    /// [`EvalVerdict::Complete`] (evaluators without a deadline never run
    /// out of budget).
    fn verdict(&self) -> EvalVerdict {
        EvalVerdict::Complete
    }

    /// Total predicted states this evaluator has explored this decision,
    /// across every option — the number the prediction deadline is charged
    /// against. The runtime uses it to *report* overruns for evaluators
    /// whose deadline is not enforced (the control arm of the degradation
    /// experiments). Default: 0 (evaluators with no exploration cost).
    fn states_spent(&self) -> u64 {
        0
    }

    /// Accumulates evaluator-internal telemetry (evaluation-cache hit/miss
    /// counts, fused-pass savings, …) into `reg` under the standard
    /// `core.*` keys. Unlike [`Resolver::export_metrics`] this has *delta*
    /// semantics: the runtime calls it exactly once per decision, after
    /// resolution, and implementations `add` what this evaluator observed.
    /// Default: exports nothing.
    fn export_metrics(&self, reg: &mut cb_telemetry::Registry) {
        let _ = reg;
    }
}

/// An evaluator with no predictive model: every option looks the same.
pub struct NullEvaluator;

impl OptionEvaluator for NullEvaluator {
    fn evaluate(&mut self, _index: usize) -> Prediction {
        Prediction::unknown()
    }
}

/// An evaluator backed by a closure (used by services that evaluate options
/// with app-specific logic, and pervasively by tests).
pub struct FnEvaluator<F: FnMut(usize) -> Prediction>(pub F);

impl<F: FnMut(usize) -> Prediction> OptionEvaluator for FnEvaluator<F> {
    fn evaluate(&mut self, index: usize) -> Prediction {
        (self.0)(index)
    }
}

/// A resolver turns a [`ChoiceRequest`] into the index of the chosen option.
///
/// Implementations must return an index `< request.len()`; the runtime
/// asserts this. The [`feedback`](Resolver::feedback) channel closes the
/// loop for learned resolvers: the service (or the runtime's objective
/// machinery) reports the realized reward of a past decision.
pub trait Resolver {
    /// Resolves the request. `eval` predicts option futures on demand.
    fn resolve(&mut self, request: &ChoiceRequest<'_>, eval: &mut dyn OptionEvaluator) -> usize;

    /// Reports the realized reward of having picked `option_key` at this
    /// choice point in this context. Default: ignored.
    fn feedback(&mut self, id: ChoiceId, context: ContextKey, option_key: u64, reward: f64) {
        let _ = (id, context, option_key, reward);
    }

    /// Feeds the resolver the runtime's model-health signals for the
    /// decision about to be resolved (snapshot staleness, network-model
    /// confidence, steering pressure). Health-aware resolvers — the
    /// [`LadderResolver`](crate::resolve::ladder::LadderResolver) — route
    /// these into their degradation governor; everything else ignores
    /// them. Called by the runtime immediately before
    /// [`resolve`](Resolver::resolve). Default: no-op.
    fn observe_health(&mut self, signals: &crate::governor::HealthSignals) {
        let _ = signals;
    }

    /// A short name for reports and experiment tables.
    fn name(&self) -> &'static str;

    /// The prediction backing the most recent decision, when the resolver
    /// produced one (predictive resolvers override this; others return
    /// `None`). The runtime bills its explored states to the decision's
    /// span and telemetry.
    fn last_prediction(&self) -> Option<Prediction> {
        None
    }

    /// Exports resolver-internal telemetry (cache hit/miss/refresh rates,
    /// lookahead evaluation counts, …) into `reg` under the standard
    /// `core.*` keys. Snapshot semantics: called at export time, must be
    /// idempotent (use absolute sets, not increments). Wrapping resolvers
    /// delegate to their inner resolver. Default: exports nothing.
    fn export_metrics(&self, reg: &mut cb_telemetry::Registry) {
        let _ = reg;
    }

    /// Appends resolver-specific attributes describing the decision *just
    /// resolved* to a DecisionSpan's attr list (ladder rung taken, governor
    /// level and dominant pressure cause, cache disposition, …). Called by the runtime immediately after
    /// [`resolve`](Resolver::resolve) while recording the decision's
    /// provenance span. Default: appends nothing.
    fn decision_attrs(&self, out: &mut Vec<(String, String)>) {
        let _ = out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_desc_builders() {
        let a = OptionDesc::key(7);
        assert!(a.features.is_empty());
        let b = OptionDesc::with_features(8, vec![1.0, 2.0]);
        assert_eq!(b.features, vec![1.0, 2.0]);
        assert!(!a.peer && !b.peer);
        let c = OptionDesc::peer(NodeId(9), vec![3.0]);
        assert_eq!((c.key, c.features, c.peer), (9, vec![3.0], true));
    }

    #[test]
    fn request_context_builder() {
        let opts = [OptionDesc::key(1), OptionDesc::key(2)];
        let req = ChoiceRequest::new("x", &opts).in_context(ContextKey(9));
        assert_eq!(req.len(), 2);
        assert!(!req.is_empty());
        assert_eq!(req.context, ContextKey(9));
    }

    #[test]
    fn prediction_ordering_safety_dominates() {
        let safe_bad = Prediction {
            objective: -5.0,
            violations: 0,
            states_explored: 1,
        };
        let unsafe_good = Prediction {
            objective: 100.0,
            violations: 1,
            states_explored: 1,
        };
        assert!(safe_bad.better_than(&unsafe_good));
        assert!(!unsafe_good.better_than(&safe_bad));
        let better_obj = Prediction {
            objective: 1.0,
            violations: 0,
            states_explored: 1,
        };
        assert!(better_obj.better_than(&safe_bad));
    }

    #[test]
    fn fn_evaluator_delegates() {
        let mut eval = FnEvaluator(|i| Prediction {
            objective: i as f64,
            violations: 0,
            states_explored: 1,
        });
        assert_eq!(eval.evaluate(3).objective, 3.0);
        assert_eq!(NullEvaluator.evaluate(3), Prediction::unknown());
    }
}
