//! Cross-option memoization for predictive evaluation.
//!
//! Sibling options of one [`ChoiceRequest`] explore futures that overlap
//! almost entirely: the predictive models differ only in the first step, so
//! most states reached by option *i*'s search are reached again by option
//! *i+1*'s. An [`EvalCache`] exploits that overlap by memoizing — keyed by
//! state **fingerprint** — the two pure-per-decision quantities evaluation
//! keeps recomputing:
//!
//! * **property verdicts** (`Property::holds` per safety/liveness property),
//! * **objective scores** (`ObjectiveSet::score` on walk end states).
//!
//! The cache lives for one decision: [`ModelEvaluator::new`] creates one
//! and shares it across the options of that choice, and it is dropped with
//! the evaluator — a verdict never outlives the snapshot the predictive
//! models were built from.
//!
//! # Transparency
//!
//! Caching must never change which option a resolver picks. That holds by
//! construction: a memoized verdict/score is exactly the value the
//! predicate/metric returned for that fingerprint, search traversal order
//! is untouched, and walk RNG consumption depends only on action weights,
//! never on scores. Two states that collide on their 64-bit fingerprint
//! would share a verdict — the same identification the visited-set dedup in
//! `cb-mck` already makes. The proptest suite pins this: resolutions with
//! the cache on and off must pick the same option key.
//!
//! [`ChoiceRequest`]: crate::choice::ChoiceRequest
//! [`ModelEvaluator::new`]: crate::predict::ModelEvaluator::new

use cb_mck::hash::FingerprintMap;
use std::sync::Mutex;

/// Up to this many properties can be memoized per decision (bitmask width).
pub const MAX_CACHED_PROPS: usize = 64;

#[derive(Default)]
struct Inner {
    /// fingerprint -> (checked bitmask, holds bitmask), one bit per
    /// property slot.
    verdicts: FingerprintMap<(u64, u64)>,
    /// fingerprint -> combined weighted objective score.
    scores: FingerprintMap<f64>,
    hits: u64,
    misses: u64,
}

/// Per-decision memo of property verdicts and objective scores, keyed by
/// state fingerprint. See the module docs for lifecycle and transparency.
///
/// Thread-safe (`Mutex`-guarded) so wrapped property predicates satisfy the
/// `Send + Sync` bound `Property` requires; within one decision the lock is
/// uncontended.
#[derive(Default)]
pub struct EvalCache {
    inner: Mutex<Inner>,
}

impl EvalCache {
    /// An empty cache.
    pub fn new() -> Self {
        EvalCache::default()
    }

    /// Returns the memoized verdict of property `slot` on the state with
    /// fingerprint `fp`, computing and recording it on first sight.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= MAX_CACHED_PROPS`.
    pub fn verdict(&self, slot: usize, fp: u64, compute: impl FnOnce() -> bool) -> bool {
        assert!(slot < MAX_CACHED_PROPS, "property slot out of range");
        let bit = 1u64 << slot;
        let mut inner = self.inner.lock().expect("evalcache poisoned");
        let entry = inner.verdicts.entry(fp).or_insert((0, 0));
        if entry.0 & bit != 0 {
            let holds = entry.1 & bit != 0;
            inner.hits += 1;
            return holds;
        }
        let holds = compute();
        entry.0 |= bit;
        if holds {
            entry.1 |= bit;
        }
        inner.misses += 1;
        holds
    }

    /// Returns the memoized objective score of the state with fingerprint
    /// `fp`, computing and recording it on first sight.
    pub fn score(&self, fp: u64, compute: impl FnOnce() -> f64) -> f64 {
        let mut inner = self.inner.lock().expect("evalcache poisoned");
        if let Some(&score) = inner.scores.get(&fp) {
            inner.hits += 1;
            return score;
        }
        let score = compute();
        inner.scores.insert(fp, score);
        inner.misses += 1;
        score
    }

    /// Lookups answered from a memoized entry.
    pub fn hits(&self) -> u64 {
        self.inner.lock().expect("evalcache poisoned").hits
    }

    /// Lookups that computed fresh.
    pub fn misses(&self) -> u64 {
        self.inner.lock().expect("evalcache poisoned").misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_memoize_per_slot_and_fingerprint() {
        let cache = EvalCache::new();
        let mut calls = 0;
        assert!(cache.verdict(0, 7, || {
            calls += 1;
            true
        }));
        // Same slot+fp: served from cache, compute not run.
        assert!(cache.verdict(0, 7, || {
            calls += 1;
            false // would flip the verdict if (wrongly) recomputed
        }));
        assert_eq!(calls, 1);
        // Different slot on the same fingerprint is independent.
        assert!(!cache.verdict(1, 7, || false));
        // Different fingerprint on the same slot is independent.
        assert!(!cache.verdict(0, 8, || false));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 3);
    }

    #[test]
    fn false_verdicts_are_cached_too() {
        let cache = EvalCache::new();
        assert!(!cache.verdict(3, 42, || false));
        // A hit must return the recorded false, not "unchecked".
        assert!(!cache.verdict(3, 42, || panic!("must not recompute")));
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn scores_memoize() {
        let cache = EvalCache::new();
        assert_eq!(cache.score(5, || 2.5), 2.5);
        assert_eq!(cache.score(5, || panic!("must not recompute")), 2.5);
        assert_eq!(cache.score(6, || -1.0), -1.0);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    #[should_panic(expected = "slot out of range")]
    fn slot_overflow_rejected() {
        EvalCache::new().verdict(64, 0, || true);
    }
}
