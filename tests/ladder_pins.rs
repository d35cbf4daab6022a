//! Behaviour pins for the resolver ladder: one seed of every ladder-driven
//! arm, built through `cb_bench::registry`, recorded at PR 22 before the
//! ladder's rung 2 stopped copying store hits into a private table and
//! required equal ever since. Two seeds of the plain lookahead arm joined
//! them before the per-decision evaluation cache was deleted.
//!
//! Each pin is `(fingerprint, events_processed)` plus the fifteen counters
//! the ladder, the rung-1 cache and the lookahead resolver export (the
//! lookahead arm also pins its exploration totals). A change
//! that only restructures the ladder must leave every number alone; a
//! deliberate behaviour change re-records them (a mismatch prints the
//! observed row in source form). The fingerprints were re-recorded once,
//! alone, when a send's content word became the payload's `derive(Hash)`;
//! no count moved.
//!
//! The second half checks what a failure report of the storm arm and of the
//! warm arm must carry (until PR 24, python in `ci.yml` over the artifacts).

use cb_bench::registry::{configure, ArmSpec};
use cb_harness::prelude::*;
use cb_policy::PolicyPile;
use std::sync::Arc;

const COUNTERS: [&str; 15] = [
    "core.ladder.rung_lookahead",
    "core.ladder.rung_cached",
    "core.ladder.rung_precomputed",
    "core.ladder.rung_learned",
    "core.ladder.rung_heuristic",
    "core.ladder.rung_static",
    "core.policy.hits",
    "core.policy.misses",
    "core.policy.stale",
    "core.policy.inserts",
    "core.policy.refresh",
    "core.cache.hits",
    "core.cache.misses",
    "core.cache.refreshes",
    "core.lookahead.evaluations",
];

type Pin = (u64, u64, [u64; 15]);

fn run(name: &str, arm: &ArmSpec, seed: u64) -> RunReport {
    let scenario = configure(name, arm).expect("arm configures");
    scenario.run(seed, &scenario.default_plan(seed))
}

#[track_caller]
fn assert_pin(what: &str, r: &RunReport, pin: Pin) {
    let got: Pin = (
        r.fingerprint,
        r.events_processed,
        COUNTERS.map(|k| r.telemetry.counter(k)),
    );
    assert_eq!(
        got, pin,
        "{what}: observed ({:#018x}, {}, {:?})",
        got.0, got.1, got.2
    );
}

/// The pile `campaign --record-policy` would save for these reports: the
/// per-seed stores merged in seed order, filed under the scenario's name.
fn pile_of(reports: impl IntoIterator<Item = RunReport>) -> Arc<PolicyPile> {
    let merged = reports
        .into_iter()
        .map(|r| r.policy.expect("recording arm attaches its store"))
        .reduce(|mut all, store| {
            all.merge(&store);
            all
        })
        .expect("at least one report");
    let mut pile = PolicyPile::new();
    pile.insert_store(merged);
    Arc::new(pile)
}

/// The exploration totals the lookahead arm adds to its [`Pin`].
const EXPLORATION: [&str; 2] = ["core.states_explored", "mck.states_visited"];

/// Every randtree decision through the predictive evaluator, no ladder:
/// the arm whose counts would move first if evaluation changed.
#[test]
fn randtree_lookahead_is_pinned() {
    let arm = ArmSpec {
        lookahead: true,
        ..ArmSpec::default()
    };
    let pins: [(u64, Pin, [u64; 2]); 2] = [
        (
            1,
            (
                0xa476_3dc6_7b40_6eec,
                83_479,
                [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 56],
            ),
            [704, 0],
        ),
        (
            2,
            (
                0x15ce_366e_02a2_b3e3,
                83_482,
                [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 58],
            ),
            [777, 0],
        ),
    ];
    for (seed, pin, explored) in pins {
        let what = format!("randtree lookahead seed {seed}");
        let r = run("randtree", &arm, seed);
        assert_pin(&what, &r, pin);
        assert_eq!(
            EXPLORATION.map(|k| r.telemetry.counter(k)),
            explored,
            "{what}: {EXPLORATION:?}"
        );
    }
}

#[test]
fn randtree_storm_ladder_deadline_is_pinned() {
    let arm = ArmSpec {
        ladder: true,
        storm: true,
        deadline_states: 20,
        ..ArmSpec::default()
    };
    assert_pin(
        "randtree storm+ladder+deadline=20 seed 3",
        &run("randtree", &arm, 3),
        (
            0xd0cd_c7ea_529d_45fc,
            83_373,
            [8, 14, 0, 0, 9, 0, 0, 0, 0, 0, 0, 10, 4, 0, 24],
        ),
    );
}

#[test]
fn randtree_record_then_warm_is_pinned() {
    let record = ArmSpec {
        record_policy: true,
        ..ArmSpec::default()
    };
    let cold = run("randtree", &record, 3);
    assert_pin(
        "randtree record-policy seed 3",
        &cold,
        (
            0xf637_31db_863b_a9a0,
            83_519,
            [24, 0, 0, 0, 0, 0, 0, 0, 0, 24, 0, 0, 0, 0, 48],
        ),
    );
    let warm = ArmSpec {
        policy: Some(pile_of([cold])),
        ..ArmSpec::default()
    };
    assert_pin(
        "randtree warm seed 3",
        &run("randtree", &warm, 3),
        (
            0x3957_f684_0535_ca22,
            83_515,
            [11, 0, 34, 0, 0, 0, 35, 10, 1, 0, 1, 0, 0, 0, 22],
        ),
    );
}

#[test]
fn gossip_storm_ladder_is_pinned() {
    let arm = ArmSpec {
        ladder: true,
        storm: true,
        ..ArmSpec::default()
    };
    assert_pin(
        "gossip storm+ladder seed 3",
        &run("gossip", &arm, 3),
        (
            0x74ad_8301_a8ce_55ce,
            6_795,
            [630, 273, 0, 805, 0, 0, 0, 0, 0, 0, 0, 0, 273, 0, 5_323],
        ),
    );
}

#[test]
fn kv_storm_and_warm_pile_are_pinned() {
    let storm = ArmSpec {
        storm: true,
        ..ArmSpec::default()
    };
    assert_pin(
        "kv storm seed 3",
        &run("kv", &storm, 3),
        (0xf2ce_7751_72d7_5ef9, 4_913, [0; 15]),
    );
    let record = ArmSpec {
        record_policy: true,
        ..ArmSpec::default()
    };
    let warm = ArmSpec {
        policy: Some(pile_of((1..=4).map(|seed| run("kv", &record, seed)))),
        ..ArmSpec::default()
    };
    assert_pin(
        "kv warm from a 4-seed pile, seed 3",
        &run("kv", &warm, 3),
        (
            0x754a_1a39_6370_0576,
            4_948,
            [1, 0, 66, 0, 0, 0, 67, 0, 0, 0, 1, 0, 0, 0, 3],
        ),
    );
}

// --- Failure reports of the ladder arms ---------------------------------
//
// What a failure artifact of each arm must carry, checked on the report the
// artifact is written from: two runs of the same `(arm, seed, plan)` are
// equal once wall clocks are masked, and the telemetry shows the ladder
// doing the work the arm exists to show.

fn has_counter(r: &RunReport, key: &str) -> bool {
    r.telemetry.counters().any(|(k, _)| k == key)
}

#[track_caller]
fn assert_masked_equal(a: &RunReport, b: &RunReport) {
    assert_eq!(a.fingerprint, b.fingerprint);
    assert_eq!(a.failing_oracles(), b.failing_oracles());
    assert_eq!(
        a.telemetry.masked(),
        b.telemetry.masked(),
        "masked telemetry differs across reruns"
    );
    assert_eq!(
        a.provenance_masked_json().to_string_compact(),
        b.provenance_masked_json().to_string_compact(),
        "masked provenance differs across reruns"
    );
}

/// An unhealed partition under the storm trips `tree.reachable`; the report
/// must record the governor working (a step-down during the storm, a
/// hysteresis recovery after it clears) and the enforced deadline turning
/// overruns into partial verdicts.
#[test]
fn storm_failure_report_carries_governor_telemetry() {
    let arm = ArmSpec {
        ladder: true,
        storm: true,
        deadline_states: 20,
        ..ArmSpec::default()
    };
    let plan = FaultPlan::from_spec(
        "part:1.2|0.3.4.5.6.7.8.9.10.11.12.13.14@4000-never;\
         stall:6@2000-9000;delayspike:200@3000-12000",
    )
    .expect("plan spec");
    let scenario = configure("randtree", &arm).expect("arm configures");
    let a = scenario.run(1, &plan);
    assert!(
        !a.failing_oracles().is_empty(),
        "the unhealed partition must violate"
    );
    assert_masked_equal(&a, &scenario.run(1, &plan));
    for key in [
        "core.governor.transitions",
        "core.governor.step_downs",
        "core.governor.recoveries",
        "core.governor.decisions_healthy",
        "core.governor.decisions_degraded",
        "core.governor.decisions_survival",
        "core.ladder.rung_lookahead",
        "core.ladder.rung_cached",
        "core.ladder.rung_heuristic",
        "core.ladder.rung_static",
        "core.predict.deadline_overruns",
        "core.predict.partial_evals",
    ] {
        assert!(has_counter(&a, key), "missing counter: {key}");
    }
    let t = &a.telemetry;
    assert!(t.counter("core.governor.step_downs") >= 1);
    assert!(t.counter("core.governor.recoveries") >= 1);
    assert_eq!(t.counter("core.predict.deadline_overruns"), 0);
    assert!(t.counter("core.predict.partial_evals") >= 1);
}

/// Crash-restart the replica the store memoizes while the unsafe-read arm
/// is on: the amnesiac serves stale local reads, the linearizability oracle
/// fires, and the report must record the store-served decisions.
#[test]
fn warm_failure_report_carries_policy_telemetry() {
    let record = ArmSpec {
        record_policy: true,
        ..ArmSpec::default()
    };
    let arm = ArmSpec {
        unsafe_reads: true,
        policy: Some(pile_of((1..=4).map(|seed| run("kv", &record, seed)))),
        ..ArmSpec::default()
    };
    let plan = FaultPlan::from_spec("crash:0@6000;restart:0@8000").expect("plan spec");
    let scenario = configure("kv", &arm).expect("arm configures");
    let a = scenario.run(2, &plan);
    assert!(
        a.failing_oracles().contains(&"kv.linearizable"),
        "the planted bug must still violate warm, got {:?}",
        a.failing_oracles()
    );
    assert_masked_equal(&a, &scenario.run(2, &plan));
    for key in [
        "core.policy.hits",
        "core.policy.misses",
        "core.policy.stale",
        "core.policy.inserts",
    ] {
        assert!(has_counter(&a, key), "missing counter: {key}");
    }
    assert!(a.telemetry.counter("core.policy.hits") > 0);
    assert_eq!(a.telemetry.counter("core.policy.stale"), 0);
    assert!(
        a.provenance
            .iter()
            .any(|s| s.kind == cb_trace::SpanKind::Decision
                && s.attrs.iter().any(|(k, v)| k == "policy" && v == "hit")),
        "no store-served decision span in the warm report"
    );
}
