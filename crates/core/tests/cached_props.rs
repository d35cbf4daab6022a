//! Property tests for the cached resolver (paper §3.4: cached decisions
//! keep expensive prediction off the critical path — but only if the cache
//! is *transparent*).
//!
//! Two properties:
//!
//! 1. **Transparency.** For a deterministic, stateless inner resolver, the
//!    cached wrapper serves the *same chosen option key* the inner resolver
//!    would pick — for arbitrary option orders, context keys, and any
//!    refresh interval. (Indices may differ; the key may not.)
//! 2. **Accounting.** Every resolve is exactly one of hit / miss / refresh:
//!    `hits + misses + refreshes == resolves`, with misses bounded below by
//!    the number of distinct (context, option-set) cache keys touched.

use cb_core::choice::{ChoiceRequest, ContextKey, NullEvaluator, OptionDesc, Resolver};
use cb_core::resolve::CachedResolver;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A deterministic, stateless inner resolver: always picks the option with
/// the smallest key. Its decision depends only on the option *set*, never
/// on order or history — the ideal reference for cache transparency.
struct MinKey;

impl Resolver for MinKey {
    fn resolve(
        &mut self,
        request: &ChoiceRequest<'_>,
        _eval: &mut dyn cb_core::choice::OptionEvaluator,
    ) -> usize {
        request
            .options
            .iter()
            .enumerate()
            .min_by_key(|(_, o)| o.key)
            .expect("nonempty request")
            .0
    }

    fn name(&self) -> &'static str {
        "minkey"
    }
}

/// Builds a distinct-key option list from raw generator output.
fn distinct_options(raw: &[u64]) -> Vec<OptionDesc> {
    let keys: BTreeSet<u64> = raw.iter().map(|k| k % 50).collect();
    keys.into_iter().map(OptionDesc::key).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cache transparency: same chosen key as the inner resolver, for any
    /// option rotation and context.
    #[test]
    fn cached_serves_the_inner_resolvers_key(
        raw_keys in prop::collection::vec(any::<u64>(), 1..8),
        ops in prop::collection::vec(any::<u32>(), 1..60),
        refresh_every in 1u64..6,
    ) {
        let base = distinct_options(&raw_keys);
        let min_key = base.iter().map(|o| o.key).min().expect("nonempty");
        let mut cached = CachedResolver::new(MinKey, refresh_every);
        for &op in &ops {
            // Arbitrary option order: rotate by an op-derived amount.
            let mut options = base.clone();
            let rot = op as usize % options.len();
            options.rotate_left(rot);
            let context = ContextKey(u64::from(op >> 8) % 3);
            let req = ChoiceRequest::new("prop.cache", &options).in_context(context);
            let idx = cached.resolve(&req, &mut NullEvaluator);
            prop_assert_eq!(
                options[idx].key, min_key,
                "cached wrapper diverged from inner resolver"
            );
        }
    }

    /// Accounting: hit + miss + refresh partitions the resolve count, and
    /// cold misses cover at least every distinct cache key touched.
    #[test]
    fn hit_miss_refresh_partitions_resolves(
        raw_keys in prop::collection::vec(any::<u64>(), 1..8),
        ops in prop::collection::vec(any::<u32>(), 1..60),
        refresh_every in 1u64..6,
    ) {
        let base = distinct_options(&raw_keys);
        let mut cached = CachedResolver::new(MinKey, refresh_every);
        let mut contexts = BTreeSet::new();
        for &op in &ops {
            let mut options = base.clone();
            let rot = op as usize % options.len();
            options.rotate_left(rot);
            let context = ContextKey(u64::from(op >> 8) % 3);
            contexts.insert(context.0);
            let req = ChoiceRequest::new("prop.cache", &options).in_context(context);
            let _ = cached.resolve(&req, &mut NullEvaluator);
        }
        prop_assert_eq!(
            cached.hits() + cached.misses() + cached.refreshes(),
            ops.len() as u64,
            "every resolve must be exactly one of hit/miss/refresh"
        );
        prop_assert_eq!(cached.resolves(), ops.len() as u64);
        // One option set, so cache keys = contexts touched; each needs at
        // least one cold miss before it can ever hit.
        prop_assert!(
            cached.misses() >= contexts.len() as u64,
            "misses {} < distinct cache keys {}",
            cached.misses(),
            contexts.len()
        );
        // Refreshes only happen once an entry has exhausted its budget, so
        // hits dominate refreshes by the refresh factor.
        prop_assert!(
            cached.hits() >= cached.refreshes().saturating_sub(1) * refresh_every,
            "hits {} vs refreshes {} at interval {}",
            cached.hits(),
            cached.refreshes(),
            refresh_every
        );
    }
}
