//! Property tests for fault-plan spec round-tripping and shrink
//! compatibility, over arbitrary plans drawn from *every* fault kind —
//! including the gray-failure `stall` and the `delayspike` latency storm.
//!
//! Invariants:
//!
//! 1. **Spec round-trip.** `to_spec` → `from_spec` reproduces the plan
//!    exactly, and the printed spec is a fixed point.
//! 2. **Shrink compatibility.** Dropping any single fault with `without`
//!    yields a plan one fault smaller that is a subset of the original and
//!    still round-trips; the original is not a subset of the smaller plan.
//! 3. **Boundaries.** Fault window boundaries come out sorted and deduped
//!    for arbitrary plans.

use cb_harness::plan::FaultPlan;
use proptest::prelude::*;

/// Builds one arbitrary fault of any kind through the public builder API,
/// deterministically from `rng`. Loss percentages are whole percent so the
/// printed spec (`loss:<pct>@...`) is exact; windows are well-ordered.
fn push_fault(plan: FaultPlan, rng: &mut TestRng) -> FaultPlan {
    let node = rng.below(16) as u32;
    let from = rng.below(5_000);
    let until = 5_000 + rng.below(5_000);
    match rng.below(7) {
        0 => plan.crash(node, from),
        1 => plan.restart(node, from),
        2 => {
            let a: Vec<u32> = (0..1 + rng.below(2)).map(|_| rng.below(8) as u32).collect();
            let b: Vec<u32> = (0..1 + rng.below(2))
                .map(|_| 8 + rng.below(8) as u32)
                .collect();
            let heal = if rng.below(2) == 0 { Some(until) } else { None };
            plan.partition(&a, &b, from, heal)
        }
        3 => plan.loss(rng.below(96) as f64 / 100.0, from, until),
        4 => {
            let nodes: Vec<u32> = (0..1 + rng.below(3))
                .map(|_| rng.below(16) as u32)
                .collect();
            plan.churn(
                &nodes,
                from.min(1_999),
                2_000 + rng.below(6_000),
                100 + rng.below(1_900),
                100 + rng.below(900),
            )
        }
        5 => plan.stall(node, from, until),
        _ => plan.delayspike(1 + rng.below(1_999), from, until),
    }
}

fn gen_plan(seed: u64, n_faults: usize) -> FaultPlan {
    let mut rng = TestRng::seed_from(seed);
    (0..n_faults).fold(FaultPlan::none(), |p, _| push_fault(p, &mut rng))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Printing a plan and parsing it back is the identity, and the spec
    /// string itself is stable under a second round-trip.
    #[test]
    fn spec_round_trips_for_every_fault_kind(seed in any::<u64>(), n in 0usize..8) {
        let plan = gen_plan(seed, n);
        let spec = plan.to_spec();
        let back = FaultPlan::from_spec(&spec).expect("parse printed spec");
        prop_assert_eq!(&back, &plan);
        prop_assert_eq!(back.to_spec(), spec);
    }

    /// Every single-fault removal shrinks the plan by exactly one, stays a
    /// subset of the original, and still survives the spec round-trip —
    /// the contract the campaign shrinker depends on.
    #[test]
    fn without_shrinks_compatibly(seed in any::<u64>(), n in 1usize..8) {
        let plan = gen_plan(seed, n);
        for i in 0..plan.len() {
            let smaller = plan.without(i..i + 1);
            prop_assert_eq!(smaller.len(), plan.len() - 1);
            prop_assert!(smaller.is_subset_of(&plan), "without({}) not a subset", i);
            prop_assert!(
                !plan.is_subset_of(&smaller),
                "original still a subset after dropping fault {}",
                i
            );
            let spec = smaller.to_spec();
            let back = FaultPlan::from_spec(&spec).expect("parse shrunk spec");
            prop_assert_eq!(&back, &smaller);
        }
    }
}
