//! The cached resolver: keep expensive prediction off the critical path.
//!
//! Paper §3.4: "a useful design decision is removing complex mechanisms for
//! making the choices from the critical path, using choices based on
//! previous similar scenarios as a fast alternative, and updating the
//! choices as more information becomes available." This wrapper memoizes an
//! inner (expensive) resolver's decision per (choice point, context,
//! option-set) and refreshes it every `refresh_every` uses — the refresh
//! standing in for the background recomputation a multi-core deployment
//! would run concurrently.

use crate::choice::{ChoiceId, ChoiceRequest, ContextKey, OptionEvaluator, Prediction, Resolver};
use cb_mck::hash::fingerprint;
use std::collections::BTreeMap;

type CacheKey = (ChoiceId, ContextKey, u64);

struct CacheEntry {
    /// The chosen option's key (not index: option order may vary between
    /// requests with the same set).
    chosen_key: u64,
    /// The inner resolver's prediction for that option when it was cached.
    prediction: Option<Prediction>,
    /// Uses since the last refresh.
    uses: u64,
}

/// Wraps a resolver and serves cached decisions, recomputing periodically.
///
/// # Examples
///
/// ```
/// use cb_core::choice::{ChoiceRequest, NullEvaluator, OptionDesc, Prediction, FnEvaluator, Resolver};
/// use cb_core::resolve::cached::CachedResolver;
/// use cb_core::resolve::lookahead::LookaheadResolver;
///
/// let mut r = CachedResolver::new(LookaheadResolver::new(), 100);
/// let opts = [OptionDesc::key(0), OptionDesc::key(1)];
/// let req = ChoiceRequest::new("x", &opts);
/// let mut evals = 0u32;
/// for _ in 0..50 {
///     let mut eval = FnEvaluator(|i| { evals += 1; Prediction { objective: i as f64, violations: 0, states_explored: 1 } });
///     r.resolve(&req, &mut eval);
/// }
/// // Only the first call evaluated (2 options); 49 were served from cache.
/// assert_eq!(evals, 2);
/// ```
pub struct CachedResolver<R: Resolver> {
    inner: R,
    refresh_every: u64,
    cache: BTreeMap<CacheKey, CacheEntry>,
    hits: u64,
    misses: u64,
    refreshes: u64,
    /// The prediction backing the most recent resolve: the inner
    /// resolver's on a miss or refresh, the entry's own on a hit.
    last_prediction: Option<Prediction>,
}

impl<R: Resolver> CachedResolver<R> {
    /// Wraps `inner`, recomputing each cached decision after
    /// `refresh_every` cache hits.
    ///
    /// # Panics
    ///
    /// Panics if `refresh_every` is zero.
    pub fn new(inner: R, refresh_every: u64) -> Self {
        assert!(refresh_every > 0, "refresh interval must be positive");
        CachedResolver {
            inner,
            refresh_every,
            cache: BTreeMap::new(),
            hits: 0,
            misses: 0,
            refreshes: 0,
            last_prediction: None,
        }
    }

    /// Cache hits served so far (no inner resolution).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cold misses so far: no usable entry existed (new key or option-set
    /// hash collision), so the inner resolver ran.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Scheduled refreshes so far: an entry existed but had reached its
    /// reuse budget, so the inner resolver recomputed it.
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// Total resolves served. Invariant: `hits + misses + refreshes ==
    /// resolves` — every resolve is exactly one of the three.
    pub fn resolves(&self) -> u64 {
        self.hits + self.misses + self.refreshes
    }

    /// The wrapped resolver, for a caller that sometimes resolves past the
    /// cache (the ladder's rung 0).
    pub fn inner_mut(&mut self) -> &mut R {
        &mut self.inner
    }

    fn option_set_hash(request: &ChoiceRequest<'_>) -> u64 {
        let mut keys: Vec<u64> = request.options.iter().map(|o| o.key).collect();
        keys.sort_unstable();
        fingerprint(&keys)
    }
}

impl<R: Resolver> Resolver for CachedResolver<R> {
    fn resolve(&mut self, request: &ChoiceRequest<'_>, eval: &mut dyn OptionEvaluator) -> usize {
        assert!(!request.is_empty(), "cannot resolve an empty choice");
        let key = (request.id, request.context, Self::option_set_hash(request));
        // Every resolve is exactly one of hit / miss / refresh:
        //   hit     — live entry served without touching the inner resolver;
        //   refresh — entry exists but exhausted its reuse budget;
        //   miss    — no usable entry (cold key or option-set hash
        //             collision).
        let is_refresh = match self.cache.get_mut(&key) {
            Some(entry) if entry.uses < self.refresh_every => {
                entry.uses += 1;
                // The cached key must still be present (same option-set hash
                // guarantees it barring hash collisions).
                if let Some(idx) = request
                    .options
                    .iter()
                    .position(|o| o.key == entry.chosen_key)
                {
                    self.hits += 1;
                    // A hit reports the prediction of the decision it
                    // memoizes, at no exploration cost.
                    self.last_prediction = entry.prediction.map(|p| Prediction {
                        states_explored: 0,
                        ..p
                    });
                    return idx;
                }
                false // collision: treat as a cold miss
            }
            Some(_) => true,
            None => false,
        };
        if is_refresh {
            self.refreshes += 1;
        } else {
            self.misses += 1;
        }
        let idx = self.inner.resolve(request, eval);
        assert!(
            idx < request.len(),
            "inner resolver returned out-of-range index"
        );
        self.last_prediction = self.inner.last_prediction();
        self.cache.insert(
            key,
            CacheEntry {
                chosen_key: request.options[idx].key,
                prediction: self.last_prediction,
                uses: 0,
            },
        );
        idx
    }

    fn feedback(&mut self, id: ChoiceId, context: ContextKey, option_key: u64, reward: f64) {
        self.inner.feedback(id, context, option_key, reward);
    }

    fn name(&self) -> &'static str {
        "cached"
    }

    fn last_prediction(&self) -> Option<Prediction> {
        self.last_prediction
    }

    fn export_metrics(&self, reg: &mut cb_telemetry::Registry) {
        reg.set_counter(cb_telemetry::keys::CORE_CACHE_HITS, self.hits);
        reg.set_counter(cb_telemetry::keys::CORE_CACHE_MISSES, self.misses);
        reg.set_counter(cb_telemetry::keys::CORE_CACHE_REFRESHES, self.refreshes);
        self.inner.export_metrics(reg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::choice::{NullEvaluator, OptionDesc};
    use crate::resolve::random::RandomResolver;

    fn opts(keys: &[u64]) -> Vec<OptionDesc> {
        keys.iter().map(|&k| OptionDesc::key(k)).collect()
    }

    #[test]
    fn caches_until_refresh() {
        let mut r = CachedResolver::new(RandomResolver::new(1), 5);
        let o = opts(&[10, 20, 30]);
        let req = ChoiceRequest::new("c", &o);
        let first = r.resolve(&req, &mut NullEvaluator);
        for _ in 0..5 {
            assert_eq!(r.resolve(&req, &mut NullEvaluator), first);
        }
        assert_eq!(r.misses(), 1);
        assert_eq!(r.hits(), 5);
        assert_eq!(r.refreshes(), 0);
        // Sixth reuse triggers a refresh (not a cold miss).
        let _ = r.resolve(&req, &mut NullEvaluator);
        assert_eq!(r.misses(), 1);
        assert_eq!(r.refreshes(), 1);
        assert_eq!(r.resolves(), r.hits() + r.misses() + r.refreshes());
        assert_eq!(r.resolves(), 7);
    }

    #[test]
    fn cache_keyed_by_option_set_not_order() {
        let mut r = CachedResolver::new(RandomResolver::new(3), 100);
        let a = opts(&[1, 2, 3]);
        let b = opts(&[3, 2, 1]);
        let pick_a = r.resolve(&ChoiceRequest::new("c", &a), &mut NullEvaluator);
        let pick_b = r.resolve(&ChoiceRequest::new("c", &b), &mut NullEvaluator);
        // Same decision by key, found at a different index.
        assert_eq!(a[pick_a].key, b[pick_b].key);
        assert_eq!(r.misses(), 1);
    }

    #[test]
    fn different_option_sets_miss() {
        let mut r = CachedResolver::new(RandomResolver::new(3), 100);
        let a = opts(&[1, 2]);
        let b = opts(&[1, 2, 3]);
        r.resolve(&ChoiceRequest::new("c", &a), &mut NullEvaluator);
        r.resolve(&ChoiceRequest::new("c", &b), &mut NullEvaluator);
        assert_eq!(r.misses(), 2);
    }

    #[test]
    fn different_contexts_miss() {
        let mut r = CachedResolver::new(RandomResolver::new(3), 100);
        let o = opts(&[1, 2]);
        r.resolve(
            &ChoiceRequest::new("c", &o).in_context(ContextKey(1)),
            &mut NullEvaluator,
        );
        r.resolve(
            &ChoiceRequest::new("c", &o).in_context(ContextKey(2)),
            &mut NullEvaluator,
        );
        assert_eq!(r.misses(), 2);
    }

    #[test]
    fn export_metrics_snapshots_absolute_counts() {
        use cb_telemetry::{keys, Registry};
        let mut r = CachedResolver::new(RandomResolver::new(1), 2);
        let o = opts(&[10, 20]);
        let req = ChoiceRequest::new("c", &o);
        for _ in 0..6 {
            r.resolve(&req, &mut NullEvaluator);
        }
        let mut reg = Registry::new();
        r.export_metrics(&mut reg);
        r.export_metrics(&mut reg); // idempotent
        assert_eq!(reg.counter(keys::CORE_CACHE_HITS), r.hits());
        assert_eq!(reg.counter(keys::CORE_CACHE_MISSES), r.misses());
        assert_eq!(reg.counter(keys::CORE_CACHE_REFRESHES), r.refreshes());
        assert_eq!(
            reg.counter(keys::CORE_CACHE_HITS)
                + reg.counter(keys::CORE_CACHE_MISSES)
                + reg.counter(keys::CORE_CACHE_REFRESHES),
            6
        );
    }

    #[test]
    fn a_hit_reports_its_own_prediction_at_zero_states() {
        use crate::choice::FnEvaluator;
        use crate::resolve::lookahead::LookaheadResolver;
        let mut r = CachedResolver::new(LookaheadResolver::new(), 100);
        let o = opts(&[1, 2]);
        let (a, b) = (ChoiceRequest::new("a", &o), ChoiceRequest::new("b", &o));
        let scored = |base: f64| {
            FnEvaluator(move |i| Prediction {
                objective: base + i as f64,
                violations: 0,
                states_explored: 7,
            })
        };
        r.resolve(&a, &mut scored(10.0)); // miss A
        r.resolve(&b, &mut scored(20.0)); // miss B
        assert_eq!(r.last_prediction().map(|p| p.objective), Some(21.0));
        r.resolve(&a, &mut scored(99.0)); // hit A: the evaluator is not asked
        assert_eq!(r.hits(), 1);
        assert_eq!(
            r.last_prediction(),
            Some(Prediction {
                objective: 11.0,
                violations: 0,
                states_explored: 0,
            }),
            "a hit must not bill the last miss"
        );
    }

    #[test]
    #[should_panic(expected = "refresh interval")]
    fn zero_refresh_rejected() {
        let _ = CachedResolver::new(RandomResolver::new(0), 0);
    }
}
