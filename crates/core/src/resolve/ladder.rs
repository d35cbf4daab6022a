//! The resolver fallback ladder: graceful degradation of choice resolution.
//!
//! Prediction quality tracks model health (paper §3.4). Instead of a binary
//! predict-or-don't switch, the ladder composes six rungs of decreasing
//! cost and model dependence and lets the
//! [`DegradationGovernor`](crate::governor::DegradationGovernor) pick the
//! rung per decision:
//!
//! | rung | strategy | needs |
//! |---|---|---|
//! | 0 | full lookahead ([`LookaheadResolver`]) | fresh models, budget |
//! | 1 | cached lookahead ([`CachedResolver`]) | occasionally-fresh models |
//! | 2 | policy-store hit ([`PolicyStore`]) | a cross-run store entry for this exact decision |
//! | 3 | learned bandit ([`LearnedResolver`]) | prior feedback or warm-start |
//! | 4 | feature heuristic (lowest first feature) | option features only |
//! | 5 | static safe default (first option) | nothing |
//!
//! The governor's three health levels map onto the *fallback chain*
//! lookahead → cached → heuristic → static (rungs 0, 1, 4, 5); a
//! [`Partial`](EvalVerdict::Partial) verdict from the previous decision's
//! evaluator bumps the next decision one chain position further down.
//! Rungs 2 and 3 are the *fast rungs*: they answer only when they actually
//! know something — rung 2 when a loaded [`PolicyStore`] has a
//! content-addressed entry for the exact decision at hand, rung 3 when the
//! bandit has arm statistics for the (choice, context) pair — and are
//! consulted *before* the expensive chain rungs, so a warm store turns the
//! common-case decision into a table lookup (~ns, zero modeled states).
//!
//! The ladder holds three tables and no copy of any of them: the store
//! (rung 2 answers from the entry itself — its index is the position of
//! the stored option key among the offered ones), the rung-1 cache, and
//! the bandit's arms. Rungs 0 and 1 share one `LookaheadResolver`, so
//! `core.lookahead.evaluations` is one counter.
//!
//! Staleness degrades safely two ways. A stored entry whose chosen option
//! key is no longer offered is a miss, never a wrong answer. And while the
//! governor reports `Healthy` — the only level at which fresh lookahead is
//! trustworthy — every 16th store hit (`REFRESH_EVERY`) is re-resolved
//! by full lookahead and compared against the store ("governor-gated
//! background refresh"): a mismatch counts `core.policy.stale`, serves the
//! *fresh* answer, and re-records it.
//!
//! While the governor reports `Healthy`, no deadline fired, and no policy
//! store is loaded, the ladder remains a *pure delegation* to its rung-0
//! `LookaheadResolver` — decision-for-decision identical, which the
//! differential tests assert.

use crate::choice::{
    ChoiceId, ChoiceRequest, ContextKey, EvalVerdict, OptionEvaluator, Prediction, Resolver,
};
use crate::governor::{DegradationGovernor, GovernorConfig, Health, HealthSignals};
use crate::resolve::cached::CachedResolver;
use crate::resolve::learned::{BanditPolicy, LearnedResolver};
use crate::resolve::lookahead::LookaheadResolver;
use cb_mck::hash::fingerprint;
use cb_policy::{PolicyEntry, PolicyKey, PolicyStore};
use cb_telemetry::{keys, Registry};
use std::sync::{Arc, Mutex};

/// Number of rungs on the ladder.
pub const RUNGS: usize = 6;

/// Uses between refreshes, shared by both refresh cadences: the rung-1
/// cache's reuse budget, and the policy-store refresh (every 16th store hit
/// is re-resolved by fresh lookahead while `Healthy`).
const REFRESH_EVERY: u64 = 16;

/// The health-driven fallback chain: governor level + deadline bump pick a
/// position here, not a raw rung index (the fast rungs 2–3 are gated on
/// knowledge, not health).
const CHAIN: [usize; 4] = [0, 1, 4, 5];

/// The content address of a choice request in the cross-run policy store:
/// hashed choice id, raw context key, and an order-independent fingerprint
/// of the offered option keys folded with the request's explicit state
/// fingerprint. Option *rotations* (same set, different order) address the
/// same entry; the stored value is an option key, not an index, so the
/// answer is rotation-stable too.
pub fn policy_key(request: &ChoiceRequest<'_>) -> PolicyKey {
    let mut keys: Vec<u64> = request.options.iter().map(|o| o.key).collect();
    keys.sort_unstable();
    let set = fingerprint(&keys);
    PolicyKey::for_choice(
        request.id,
        request.context.0,
        set ^ cb_policy::mix64(request.state_fp),
    )
}

/// How the policy store participated in the most recent decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyDisposition {
    /// No store is loaded.
    Off,
    /// Served from the store (rung 2, zero modeled states).
    Hit,
    /// Store loaded but could not answer; the health chain resolved.
    Miss,
    /// Refresh cadence fired: fresh lookahead agreed with the store.
    Refreshed,
    /// Refresh cadence fired and caught a stale entry: the fresh answer
    /// was served and re-recorded.
    Stale,
}

impl PolicyDisposition {
    /// Stable label for provenance attributes.
    pub fn label(&self) -> &'static str {
        match self {
            PolicyDisposition::Off => "off",
            PolicyDisposition::Hit => "hit",
            PolicyDisposition::Miss => "miss",
            PolicyDisposition::Refreshed => "refresh",
            PolicyDisposition::Stale => "stale",
        }
    }
}

/// A health-governed resolver that steps down a ladder of strategies as the
/// predictive model degrades, and climbs back only after sustained health.
pub struct LadderResolver {
    /// Rungs 0 and 1 share one `LookaheadResolver`: rung 1 is the cache,
    /// which runs it only on misses and refreshes; rung 0 (and a due
    /// policy refresh) runs it directly, past the cache.
    cached: CachedResolver<LookaheadResolver>,
    /// Rung 3: contextual bandit, trained by live feedback and warm-started
    /// from policy-store hits. ε=0 (pure exploitation): the rung only fires
    /// when arms exist, and exploration is the store's job, not survival
    /// mode's.
    learned: LearnedResolver,
    /// The health state machine deciding the base chain position.
    governor: DegradationGovernor,
    /// Set when the previous decision's evaluator reported a `Partial`
    /// verdict (prediction deadline fired): the next decision is resolved
    /// one chain position lower than the governor alone would pick.
    deadline_pending: bool,
    /// Decisions resolved on each rung.
    rung_hits: [u64; RUNGS],
    /// Rung used for the most recent decision.
    last_rung: usize,
    /// The prediction backing the most recent decision (rungs 0–2 only).
    last_prediction: Option<Prediction>,
    /// Warm side: the loaded cross-run policy store. Rung 2 answers
    /// straight from it.
    policy: Option<Arc<PolicyStore>>,
    /// Training side: where rung-0 decisions are recorded.
    recorder: Option<Arc<Mutex<PolicyStore>>>,
    policy_hits: u64,
    policy_misses: u64,
    policy_stale: u64,
    policy_inserts: u64,
    /// Refresh lookaheads actually performed. Diverges from
    /// `policy_hits / REFRESH_EVERY` exactly when the governor
    /// suppressed refreshes under degradation.
    policy_refreshes: u64,
    last_policy: PolicyDisposition,
}

impl LadderResolver {
    /// A ladder with the default governor thresholds, whose rung-1 cache
    /// and policy-store refresh both come due every 16 uses.
    pub fn new() -> Self {
        LadderResolver {
            cached: CachedResolver::new(LookaheadResolver::new(), REFRESH_EVERY),
            learned: LearnedResolver::new(BanditPolicy::EpsilonGreedy { epsilon: 0.0 }, 0),
            governor: DegradationGovernor::new(GovernorConfig::default()),
            deadline_pending: false,
            rung_hits: [0; RUNGS],
            last_rung: 0,
            last_prediction: None,
            policy: None,
            recorder: None,
            policy_hits: 0,
            policy_misses: 0,
            policy_stale: 0,
            policy_inserts: 0,
            policy_refreshes: 0,
            last_policy: PolicyDisposition::Off,
        }
    }

    /// Loads a cross-run policy store: content-addressed hits are served on
    /// rung 2 without evaluating anything.
    pub fn with_policy(mut self, store: Arc<PolicyStore>) -> Self {
        self.policy = Some(store);
        self
    }

    /// Records every rung-0 (fresh lookahead) decision into `recorder` so a
    /// campaign sweep can persist it as a policy store.
    pub fn recording_into(mut self, recorder: Arc<Mutex<PolicyStore>>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// The governor's current health level.
    pub fn health(&self) -> Health {
        self.governor.health()
    }

    /// Read access to the governor (transition counters etc.).
    pub fn governor(&self) -> &DegradationGovernor {
        &self.governor
    }

    /// Decisions resolved on each rung, index 0 (lookahead) to 5 (static).
    pub fn rung_hits(&self) -> [u64; RUNGS] {
        self.rung_hits
    }

    /// The rung used for the most recent decision.
    pub fn last_rung(&self) -> usize {
        self.last_rung
    }

    /// How the policy store participated in the most recent decision.
    pub fn last_policy(&self) -> PolicyDisposition {
        self.last_policy
    }

    /// Policy-store counters: (hits, misses, stale, inserts).
    pub fn policy_counters(&self) -> (u64, u64, u64, u64) {
        (
            self.policy_hits,
            self.policy_misses,
            self.policy_stale,
            self.policy_inserts,
        )
    }

    /// Refresh lookaheads actually performed (suppressed while the
    /// governor reports worse than `Healthy`).
    pub fn policy_refreshes(&self) -> u64 {
        self.policy_refreshes
    }

    /// Whether the next decision will be bumped a rung down because the
    /// previous decision's prediction deadline fired.
    pub fn deadline_pending(&self) -> bool {
        self.deadline_pending
    }

    /// Rung 4: prefer the lowest first feature (conventionally the
    /// cheapest/closest option); options without features score as
    /// `+INFINITY` cost and lose to any featured option. Ties break to the
    /// earliest option, keeping the rung deterministic.
    fn heuristic_pick(request: &ChoiceRequest<'_>) -> usize {
        let mut best = 0;
        let mut best_cost = f64::INFINITY;
        for (i, opt) in request.options.iter().enumerate() {
            let cost = opt.features.first().copied().unwrap_or(f64::INFINITY);
            if cost < best_cost {
                best = i;
                best_cost = cost;
            }
        }
        best
    }

    /// Fresh lookahead past the rung-1 cache: rung 0, and a due policy
    /// refresh.
    fn lookahead(&mut self, request: &ChoiceRequest<'_>, eval: &mut dyn OptionEvaluator) -> usize {
        let lookahead = self.cached.inner_mut();
        let idx = lookahead.resolve(request, eval);
        self.last_prediction = lookahead.last_prediction();
        idx
    }

    /// Records the decision just made (chosen key + backing prediction)
    /// into the training store, if one is attached.
    fn record(&mut self, request: &ChoiceRequest<'_>, idx: usize) {
        if let (Some(rec), Some(p)) = (&self.recorder, self.last_prediction) {
            let entry = PolicyEntry::new(
                request.options[idx].key,
                p.objective,
                p.violations,
                p.states_explored,
            );
            rec.lock()
                .expect("policy recorder poisoned")
                .insert(policy_key(request), entry);
            self.policy_inserts += 1;
        }
    }

    /// Consults the loaded policy store. `Some((idx, rung))` when the store
    /// answered (or a due refresh re-resolved); `None` on miss.
    fn consult_policy(
        &mut self,
        request: &ChoiceRequest<'_>,
        eval: &mut dyn OptionEvaluator,
        base: usize,
    ) -> Option<(usize, usize)> {
        let store = self.policy.clone()?;
        let entry = match store.get(&policy_key(request)) {
            Some(e) => *e,
            None => {
                self.policy_misses += 1;
                return None;
            }
        };
        let Some(idx) = request
            .options
            .iter()
            .position(|o| o.key == entry.chosen_key)
        else {
            // The stored option left the set (peer gone, block done): a
            // safe miss, never a wrong answer.
            self.policy_misses += 1;
            return None;
        };
        self.policy_hits += 1;
        // Governor-gated honesty check: only while Healthy is fresh
        // lookahead trustworthy enough to arbitrate staleness — and under
        // Degraded/Survival overload, refresh work is exactly the load we
        // shed first. `base == 0` already implies Healthy with no deadline
        // bump; the health check makes the gate explicit and keeps it if
        // the chain mapping ever changes.
        let refresh_due = base == 0
            && self.governor.health() == Health::Healthy
            && self.policy_hits.is_multiple_of(REFRESH_EVERY);
        if refresh_due {
            self.policy_refreshes += 1;
            let fresh = self.lookahead(request, eval);
            self.last_policy = if request.options[fresh].key != entry.chosen_key {
                self.policy_stale += 1;
                PolicyDisposition::Stale
            } else {
                PolicyDisposition::Refreshed
            };
            self.record(request, fresh);
            return Some((fresh, 0));
        }
        // The store's answer also warms the bandit with a prior arm, so
        // rung 3 can generalize when the option set shifts later.
        self.last_policy = PolicyDisposition::Hit;
        if self
            .learned
            .arm(request.id, request.context, entry.chosen_key)
            .is_none()
        {
            self.learned
                .feedback(request.id, request.context, entry.chosen_key, 1.0);
        }
        self.last_prediction = Some(Prediction {
            objective: entry.objective(),
            violations: entry.violations,
            states_explored: 0,
        });
        Some((idx, 2))
    }
}

impl Default for LadderResolver {
    fn default() -> Self {
        LadderResolver::new()
    }
}

/// The policy-store side of a fleet of ladders: the warm store every node
/// serves rung 2 from, and the one store every node records its rung-0
/// decisions into. Cloning shares both, so a fleet factory can hold one.
#[derive(Clone)]
pub struct FleetPolicy {
    warm: Option<Arc<PolicyStore>>,
    recorder: Option<Arc<Mutex<PolicyStore>>>,
}

impl FleetPolicy {
    /// Serves hits from `warm` when set; records into a fresh store for
    /// `scenario` when `record` is.
    pub fn new(scenario: &str, warm: Option<Arc<PolicyStore>>, record: bool) -> Self {
        FleetPolicy {
            warm,
            recorder: record.then(|| Arc::new(Mutex::new(PolicyStore::new(scenario)))),
        }
    }

    /// A default ladder wired to this arm's stores.
    pub fn ladder(&self) -> LadderResolver {
        let mut ladder = LadderResolver::new();
        if let Some(store) = &self.warm {
            ladder = ladder.with_policy(store.clone());
        }
        if let Some(rec) = &self.recorder {
            ladder = ladder.recording_into(rec.clone());
        }
        ladder
    }

    /// What the fleet recorded so far (`None` unless recording).
    pub fn recorded(&self) -> Option<PolicyStore> {
        let rec = self.recorder.as_ref()?;
        Some(rec.lock().expect("policy recorder poisoned").clone())
    }
}

impl Resolver for LadderResolver {
    fn resolve(&mut self, request: &ChoiceRequest<'_>, eval: &mut dyn OptionEvaluator) -> usize {
        assert!(!request.is_empty(), "cannot resolve an empty choice");
        let mut pos = self.governor.health().rung();
        if self.deadline_pending {
            pos = (pos + 1).min(CHAIN.len() - 1);
        }
        let base = CHAIN[pos];
        self.last_policy = if self.policy.is_some() {
            PolicyDisposition::Miss
        } else {
            PolicyDisposition::Off
        };
        // The store-backed fast path runs at every non-static level: a
        // content-addressed hit is cheaper than anything else the ladder
        // can do, and under degradation it is also *better* (it memoizes a
        // healthy run's lookahead).
        let resolved = if base < 5 {
            self.consult_policy(request, eval, base)
        } else {
            None
        };
        let (idx, rung) = match resolved {
            Some(v) => v,
            None => match base {
                0 => {
                    let i = self.lookahead(request, eval);
                    self.record(request, i);
                    (i, 0)
                }
                1 => {
                    let i = self.cached.resolve(request, eval);
                    self.last_prediction = self.cached.last_prediction();
                    (i, 1)
                }
                4 => {
                    self.last_prediction = None;
                    if self.learned.has_arms(request.id, request.context) {
                        // Survival with a trained bandit: exploit what past
                        // feedback (or a warm store) taught, model-free.
                        (self.learned.resolve(request, eval), 3)
                    } else {
                        (Self::heuristic_pick(request), 4)
                    }
                }
                _ => {
                    // Static safe default: the service's first-listed option.
                    self.last_prediction = None;
                    (0, 5)
                }
            },
        };
        self.last_rung = rung;
        self.rung_hits[rung] += 1;
        // A Partial verdict means this decision's prediction hit its
        // deadline: bump the next decision down a rung. Non-evaluating
        // rungs leave the verdict Complete and the bump self-clears — the
        // ladder automatically re-probes the governor's level.
        self.deadline_pending = eval.verdict() == EvalVerdict::Partial;
        idx
    }

    fn feedback(&mut self, id: ChoiceId, context: ContextKey, option_key: u64, reward: f64) {
        self.cached.feedback(id, context, option_key, reward);
        self.learned.feedback(id, context, option_key, reward);
    }

    fn observe_health(&mut self, signals: &HealthSignals) {
        // Carry the pending deadline event into the governor's view: the
        // runtime may not know the evaluator's verdict, but the ladder does.
        let mut s = *signals;
        s.deadline_fired = s.deadline_fired || self.deadline_pending;
        self.governor.observe(&s);
    }

    fn name(&self) -> &'static str {
        "ladder"
    }

    fn last_prediction(&self) -> Option<Prediction> {
        self.last_prediction
    }

    fn decision_attrs(&self, out: &mut Vec<(String, String)>) {
        out.push(("ladder.rung".into(), self.last_rung.to_string()));
        out.push((
            "governor.level".into(),
            self.governor.health().label().into(),
        ));
        out.push((
            "governor.cause".into(),
            self.governor.last_cause().label().into(),
        ));
        out.push((
            "ladder.deadline_pending".into(),
            self.deadline_pending.to_string(),
        ));
        out.push(("policy".into(), self.last_policy.label().into()));
    }

    fn export_metrics(&self, reg: &mut Registry) {
        reg.set_counter(keys::CORE_LADDER_RUNG_LOOKAHEAD, self.rung_hits[0]);
        reg.set_counter(keys::CORE_LADDER_RUNG_CACHED, self.rung_hits[1]);
        reg.set_counter(keys::CORE_LADDER_RUNG_PRECOMPUTED, self.rung_hits[2]);
        reg.set_counter(keys::CORE_LADDER_RUNG_LEARNED, self.rung_hits[3]);
        reg.set_counter(keys::CORE_LADDER_RUNG_HEURISTIC, self.rung_hits[4]);
        reg.set_counter(keys::CORE_LADDER_RUNG_STATIC, self.rung_hits[5]);
        reg.set_counter(keys::CORE_POLICY_HITS, self.policy_hits);
        reg.set_counter(keys::CORE_POLICY_MISSES, self.policy_misses);
        reg.set_counter(keys::CORE_POLICY_STALE, self.policy_stale);
        reg.set_counter(keys::CORE_POLICY_INSERTS, self.policy_inserts);
        reg.set_counter(keys::CORE_POLICY_REFRESH, self.policy_refreshes);
        self.governor.export_metrics(reg);
        // Cache hit/miss/refresh counts plus the shared lookahead
        // resolver's evaluations, whichever rung ran them.
        self.cached.export_metrics(reg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::choice::OptionDesc;
    use cb_simnet::time::SimDuration;

    fn opts(n: u64) -> Vec<OptionDesc> {
        (0..n)
            .map(|k| OptionDesc::with_features(k, vec![(n - k) as f64]))
            .collect()
    }

    fn survival_signals() -> HealthSignals {
        HealthSignals {
            snapshot_staleness: Some(SimDuration::from_secs(100)),
            ..HealthSignals::default()
        }
    }

    struct RisingEval;
    impl OptionEvaluator for RisingEval {
        fn evaluate(&mut self, index: usize) -> Prediction {
            Prediction {
                objective: index as f64,
                violations: 0,
                states_explored: 5,
            }
        }
    }

    #[test]
    fn healthy_ladder_matches_pure_lookahead() {
        let o = opts(5);
        let req = ChoiceRequest::new("t", &o);
        let mut ladder = LadderResolver::new();
        let mut reference = LookaheadResolver::new();
        for _ in 0..20 {
            ladder.observe_health(&HealthSignals::default());
            let a = ladder.resolve(&req, &mut RisingEval);
            let b = reference.resolve(&req, &mut RisingEval);
            assert_eq!(a, b);
            assert_eq!(ladder.last_rung(), 0);
            assert_eq!(ladder.last_policy(), PolicyDisposition::Off);
            assert_eq!(ladder.last_prediction(), reference.last_prediction());
        }
        assert_eq!(ladder.rung_hits(), [20, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn degraded_health_steps_down_to_cached_then_heuristic() {
        let o = opts(4);
        let req = ChoiceRequest::new("t", &o);
        let mut ladder = LadderResolver::new();
        // Two bad observations step Healthy -> Degraded (down_patience 2).
        for _ in 0..2 {
            ladder.observe_health(&survival_signals());
        }
        assert_eq!(ladder.health(), Health::Degraded);
        ladder.resolve(&req, &mut RisingEval);
        assert_eq!(ladder.last_rung(), 1);
        // Two more: Degraded -> Survival; rung 4 = heuristic (no policy
        // store, no trained bandit, so both fast rungs stay silent).
        for _ in 0..2 {
            ladder.observe_health(&survival_signals());
        }
        assert_eq!(ladder.health(), Health::Survival);
        let pick = ladder.resolve(&req, &mut RisingEval);
        assert_eq!(ladder.last_rung(), 4);
        // Heuristic prefers the lowest first feature: key 3 (cost 1.0).
        assert_eq!(pick, 3);
        assert!(ladder.last_prediction().is_none());
    }

    #[test]
    fn survival_with_trained_bandit_uses_learned_rung() {
        let o = opts(3);
        let req = ChoiceRequest::new("t", &o);
        let mut ladder = LadderResolver::new();
        // Live feedback taught the bandit that key 1 pays off.
        for _ in 0..3 {
            ladder.feedback("t", ContextKey::default(), 1, 1.0);
            ladder.feedback("t", ContextKey::default(), 0, 0.1);
            ladder.feedback("t", ContextKey::default(), 2, 0.1);
        }
        for _ in 0..4 {
            ladder.observe_health(&survival_signals());
        }
        assert_eq!(ladder.health(), Health::Survival);
        let pick = ladder.resolve(&req, &mut RisingEval);
        assert_eq!(ladder.last_rung(), 3, "trained bandit beats heuristic");
        assert_eq!(pick, 1);
        assert!(ladder.last_prediction().is_none());
    }

    #[test]
    fn partial_verdict_bumps_next_decision_one_rung() {
        struct PartialEval;
        impl OptionEvaluator for PartialEval {
            fn evaluate(&mut self, _index: usize) -> Prediction {
                Prediction::unknown()
            }
            fn verdict(&self) -> EvalVerdict {
                EvalVerdict::Partial
            }
        }
        let o = opts(3);
        let req = ChoiceRequest::new("t", &o);
        let mut ladder = LadderResolver::new();
        ladder.observe_health(&HealthSignals::default());
        ladder.resolve(&req, &mut PartialEval);
        assert_eq!(ladder.last_rung(), 0);
        assert!(ladder.deadline_pending());
        // Next decision runs a chain position lower even though health is
        // Healthy…
        ladder.observe_health(&HealthSignals::default());
        ladder.resolve(&req, &mut RisingEval);
        assert_eq!(ladder.last_rung(), 1);
        // …and the bump clears once an evaluation completes in budget.
        assert!(!ladder.deadline_pending());
        ladder.observe_health(&HealthSignals::default());
        ladder.resolve(&req, &mut RisingEval);
        assert_eq!(ladder.last_rung(), 0);
    }

    #[test]
    fn survival_plus_deadline_caps_at_static_rung() {
        let o = opts(3);
        let req = ChoiceRequest::new("t", &o);
        let mut ladder = LadderResolver::new();
        for _ in 0..4 {
            ladder.observe_health(&survival_signals());
        }
        assert_eq!(ladder.health(), Health::Survival);
        struct PartialEval;
        impl OptionEvaluator for PartialEval {
            fn evaluate(&mut self, _i: usize) -> Prediction {
                Prediction::unknown()
            }
            fn verdict(&self) -> EvalVerdict {
                EvalVerdict::Partial
            }
        }
        // Force deadline_pending while already in Survival: the chain
        // position caps at its last entry, the static rung.
        ladder.deadline_pending = true;
        let pick = ladder.resolve(&req, &mut PartialEval);
        assert_eq!(ladder.last_rung(), 5);
        assert_eq!(pick, 0, "static rung takes the first option");
    }

    #[test]
    fn static_rung_takes_first_option_and_heuristic_handles_no_features() {
        let bare = [OptionDesc::key(7), OptionDesc::key(8)];
        let req = ChoiceRequest::new("t", &bare);
        assert_eq!(LadderResolver::heuristic_pick(&req), 0);
        let mixed = [OptionDesc::key(7), OptionDesc::with_features(8, vec![3.0])];
        let req2 = ChoiceRequest::new("t", &mixed);
        assert_eq!(LadderResolver::heuristic_pick(&req2), 1);
    }

    #[test]
    fn export_metrics_covers_rungs_and_governor() {
        let o = opts(3);
        let req = ChoiceRequest::new("t", &o);
        let mut ladder = LadderResolver::new();
        ladder.observe_health(&HealthSignals::default());
        ladder.resolve(&req, &mut RisingEval);
        for _ in 0..2 {
            ladder.observe_health(&survival_signals());
        }
        ladder.resolve(&req, &mut RisingEval);
        let mut reg = Registry::new();
        ladder.export_metrics(&mut reg);
        ladder.export_metrics(&mut reg); // idempotent snapshot
        assert_eq!(reg.counter(keys::CORE_LADDER_RUNG_LOOKAHEAD), 1);
        assert_eq!(reg.counter(keys::CORE_LADDER_RUNG_CACHED), 1);
        assert_eq!(reg.counter(keys::CORE_GOVERNOR_STEP_DOWNS), 1);
        // Rung 0 evaluated 3 options; rung 1's miss evaluated 3 more.
        assert_eq!(reg.counter(keys::CORE_LOOKAHEAD_EVALUATIONS), 6);
        assert_eq!(reg.counter(keys::CORE_CACHE_MISSES), 1);
        assert_eq!(reg.counter(keys::CORE_POLICY_HITS), 0);
    }

    /// Trains a store by resolving through a recording ladder, then
    /// replays through a warm ladder.
    fn train_store(req: &ChoiceRequest<'_>, decisions: usize) -> PolicyStore {
        let rec = Arc::new(Mutex::new(PolicyStore::new("test")));
        let mut trainer = LadderResolver::new().recording_into(rec.clone());
        for _ in 0..decisions {
            trainer.observe_health(&HealthSignals::default());
            trainer.resolve(req, &mut RisingEval);
        }
        assert!(trainer.policy_counters().3 >= 1, "inserts recorded");
        let store = rec.lock().unwrap().clone();
        assert!(!store.is_empty());
        store
    }

    #[test]
    fn warm_hit_serves_store_answer_with_zero_states() {
        let o = opts(4);
        let req = ChoiceRequest::new("t", &o);
        let store = Arc::new(train_store(&req, 1));
        let mut warm = LadderResolver::new().with_policy(store);
        let mut cold = LookaheadResolver::new();
        // 15 decisions stay under the refresh cadence (16): all pure hits.
        for _ in 0..15 {
            warm.observe_health(&HealthSignals::default());
            let mut panicking = crate::choice::FnEvaluator(|_| {
                panic!("warm hit must not evaluate");
            });
            let w = warm.resolve(&req, &mut panicking);
            let c = cold.resolve(&req, &mut RisingEval);
            assert_eq!(w, c, "warm ≡ cold resolved index");
            assert_eq!(warm.last_rung(), 2);
            assert_eq!(warm.last_policy(), PolicyDisposition::Hit);
            let p = warm.last_prediction().expect("stored prediction");
            assert_eq!(p.states_explored, 0, "warm decisions cost ~0 states");
        }
        let (hits, misses, stale, _) = warm.policy_counters();
        assert_eq!((hits, misses, stale), (15, 0, 0));
        assert_eq!(warm.rung_hits()[2], 15);
    }

    #[test]
    fn refresh_cadence_reruns_lookahead_and_detects_agreement() {
        let o = opts(4);
        let req = ChoiceRequest::new("t", &o);
        let store = Arc::new(train_store(&req, 1));
        let mut warm = LadderResolver::new().with_policy(store);
        let mut refreshes = 0;
        for _ in 0..32 {
            warm.observe_health(&HealthSignals::default());
            warm.resolve(&req, &mut RisingEval);
            if warm.last_policy() == PolicyDisposition::Refreshed {
                refreshes += 1;
                assert_eq!(warm.last_rung(), 0, "refresh runs real lookahead");
            }
        }
        assert_eq!(refreshes, 2, "every 16th hit re-checks the store");
        let (_, _, stale, _) = warm.policy_counters();
        assert_eq!(stale, 0, "deterministic evaluator never goes stale");
    }

    #[test]
    fn refresh_is_suppressed_during_a_storm_and_resumes_on_recovery() {
        let o = opts(4);
        let req = ChoiceRequest::new("t", &o);
        let store = Arc::new(train_store(&req, 1));
        let mut warm = LadderResolver::new().with_policy(store);
        // Storm: two bad observations step the governor to Degraded.
        for _ in 0..2 {
            warm.observe_health(&survival_signals());
        }
        assert_eq!(warm.health(), Health::Degraded);
        // 20 hits cross the 16-hit cadence, but a panicking evaluator
        // proves no refresh lookahead runs while degraded.
        for _ in 0..20 {
            warm.observe_health(&survival_signals());
            let mut panicking = crate::choice::FnEvaluator(|_| {
                panic!("degraded refresh must be suppressed");
            });
            warm.resolve(&req, &mut panicking);
            assert_eq!(warm.last_policy(), PolicyDisposition::Hit);
        }
        assert_eq!(warm.policy_refreshes(), 0, "core.policy.refresh flat");
        // Recovery: the storm pushed the governor all the way to Survival,
        // so two up_patience streaks (Survival→Degraded→Healthy) are needed
        // before the next cadence multiple refreshes again.
        for _ in 0..16 {
            warm.observe_health(&HealthSignals::default());
        }
        assert_eq!(warm.health(), Health::Healthy);
        for _ in 0..16 {
            warm.observe_health(&HealthSignals::default());
            warm.resolve(&req, &mut RisingEval);
        }
        assert!(warm.policy_refreshes() >= 1, "refresh resumes on recovery");
        let mut reg = Registry::new();
        warm.export_metrics(&mut reg);
        assert_eq!(
            reg.counter(keys::CORE_POLICY_REFRESH),
            warm.policy_refreshes()
        );
    }

    #[test]
    fn stale_entry_is_caught_by_refresh_and_fresh_answer_served() {
        let o = opts(4);
        let req = ChoiceRequest::new("t", &o);
        // A store whose entry claims key 0 is best; the live evaluator
        // disagrees (RisingEval prefers the last option).
        let mut store = PolicyStore::new("test");
        store.insert(policy_key(&req), PolicyEntry::new(0, 99.0, 0, 5));
        let mut warm = LadderResolver::new().with_policy(Arc::new(store));
        let mut served_stale = None;
        for _ in 0..16 {
            warm.observe_health(&HealthSignals::default());
            let idx = warm.resolve(&req, &mut RisingEval);
            if warm.last_policy() == PolicyDisposition::Stale {
                served_stale = Some(idx);
            }
        }
        assert_eq!(
            served_stale,
            Some(3),
            "refresh must catch the stale entry and serve the fresh answer"
        );
        let (_, _, stale, _) = warm.policy_counters();
        assert_eq!(stale, 1);
    }

    #[test]
    fn missing_option_key_is_a_safe_miss() {
        let o = opts(3);
        let req = ChoiceRequest::new("t", &o);
        let mut store = PolicyStore::new("test");
        // Entry addresses this exact option set but names a departed key.
        store.insert(policy_key(&req), PolicyEntry::new(77, 1.0, 0, 5));
        let mut warm = LadderResolver::new().with_policy(Arc::new(store));
        warm.observe_health(&HealthSignals::default());
        let idx = warm.resolve(&req, &mut RisingEval);
        assert_eq!(warm.last_policy(), PolicyDisposition::Miss);
        assert_eq!(warm.last_rung(), 0, "miss falls through to lookahead");
        assert_eq!(idx, 2, "lookahead answer, not the departed key");
        let (hits, misses, _, _) = warm.policy_counters();
        assert_eq!((hits, misses), (0, 1));
    }

    #[test]
    fn store_hit_survives_degradation() {
        let o = opts(4);
        let req = ChoiceRequest::new("t", &o);
        let store = Arc::new(train_store(&req, 1));
        let mut warm = LadderResolver::new().with_policy(store);
        for _ in 0..4 {
            warm.observe_health(&survival_signals());
        }
        assert_eq!(warm.health(), Health::Survival);
        let mut panicking = crate::choice::FnEvaluator(|_| {
            panic!("survival store hit must not evaluate");
        });
        let idx = warm.resolve(&req, &mut panicking);
        assert_eq!(warm.last_rung(), 2, "store answers even in survival");
        assert_eq!(warm.last_policy(), PolicyDisposition::Hit);
        assert_eq!(idx, 3, "the memoized healthy-lookahead answer");
    }

    #[test]
    fn warm_resolution_is_rotation_invariant() {
        let o = opts(5);
        let req = ChoiceRequest::new("t", &o);
        let store = Arc::new(train_store(&req, 1));
        let chosen_key = {
            let mut cold = LookaheadResolver::new();
            let i = cold.resolve(&req, &mut RisingEval);
            o[i].key
        };
        for rot in 0..o.len() {
            let mut rotated = o.clone();
            rotated.rotate_left(rot);
            // RisingEval scores by *index*, so re-rank per rotation to keep
            // the cold reference honest: the warm path must return the same
            // *key* regardless of option order.
            let req_rot = ChoiceRequest::new("t", &rotated);
            let mut warm = LadderResolver::new().with_policy(store.clone());
            warm.observe_health(&HealthSignals::default());
            let mut panicking = crate::choice::FnEvaluator(|_| {
                panic!("rotation hit must not evaluate");
            });
            let idx = warm.resolve(&req_rot, &mut panicking);
            assert_eq!(warm.last_policy(), PolicyDisposition::Hit);
            assert_eq!(
                rotated[idx].key, chosen_key,
                "rotation {rot} must resolve the same option key"
            );
        }
    }

    proptest::proptest! {
        /// Differential transparency: for arbitrary option sets, a warm
        /// ladder serving from a store trained by cold lookahead resolves
        /// the same option *key* as cold lookahead itself — across every
        /// rotation of the option order.
        #[test]
        fn prop_warm_equals_cold_across_rotations(
            n in 2usize..8,
            salt in 0u64..1_000,
            rot in 0usize..8,
        ) {
            use proptest::prop_assert_eq;
            // Deterministic per-key objective: evaluator scores an option
            // by a hash of its key, independent of position.
            let objective_of = move |key: u64| {
                (cb_policy::mix64(key ^ salt) % 1_000) as f64
            };
            let options: Vec<OptionDesc> = (0..n as u64)
                .map(|k| OptionDesc::key(k * 3 + 1))
                .collect();
            let req = ChoiceRequest::new("prop", &options).with_state_fp(salt);

            // Cold reference: pure lookahead with the key-keyed evaluator.
            let keys: Vec<u64> = options.iter().map(|o| o.key).collect();
            let keys_for_cold = keys.clone();
            let mut cold_eval = crate::choice::FnEvaluator(move |i: usize| Prediction {
                objective: objective_of(keys_for_cold[i]),
                violations: 0,
                states_explored: 3,
            });
            let mut cold = LookaheadResolver::new();
            let cold_key = options[cold.resolve(&req, &mut cold_eval)].key;

            // Train a store through a recording ladder.
            let rec = Arc::new(Mutex::new(PolicyStore::new("prop")));
            let mut trainer = LadderResolver::new().recording_into(rec.clone());
            trainer.observe_health(&HealthSignals::default());
            let keys_for_train = keys.clone();
            let mut train_eval = crate::choice::FnEvaluator(move |i: usize| Prediction {
                objective: objective_of(keys_for_train[i]),
                violations: 0,
                states_explored: 3,
            });
            trainer.resolve(&req, &mut train_eval);
            let store = Arc::new(rec.lock().unwrap().clone());

            // Warm replay over a rotated option order.
            let mut rotated = options.clone();
            rotated.rotate_left(rot % n);
            let req_rot = ChoiceRequest::new("prop", &rotated).with_state_fp(salt);
            let mut warm = LadderResolver::new().with_policy(store);
            warm.observe_health(&HealthSignals::default());
            let mut panicking = crate::choice::FnEvaluator(|_| {
                panic!("warm hit must not evaluate")
            });
            let idx = warm.resolve(&req_rot, &mut panicking);
            prop_assert_eq!(warm.last_policy(), PolicyDisposition::Hit);
            prop_assert_eq!(rotated[idx].key, cold_key);
        }
    }
}
