//! Integration tests for decision provenance: the causal span graph that
//! campaign reports embed, and the blame/explain queries over it.
//!
//! Six layers:
//! 1. Property tests that the exported span graph is acyclic and
//!    parent-resolvable, and — crucially — **independent of the campaign
//!    worker count** (1/2/4/8 threads must record byte-identical masked
//!    provenance, the dual-clock discipline applied to spans).
//! 2. A seed-exact E11 regression: on the storm arm's recorded
//!    `tree.reachable` violation, `blame` walks from the synthesised
//!    violation span back to at least one originating lookahead decision,
//!    crossing nodes.
//! 3. Masked provenance is byte-identical across two runs of the same
//!    `(scenario, seed, plan)`.
//! 4. What the failure artifacts CI hands to the `trace` CLI must carry:
//!    the storm arm's tail exports as valid Chrome trace-event JSON, and a
//!    flash-crowd violation's admission decisions name their workload.
//! 5. The masked tails of red and green seeds, and one green report with
//!    its wall keys masked, are pinned byte for byte.
//! 6. A run on flight-recorder rings recycled from an earlier run on the
//!    same thread records exactly what a run on fresh rings does.

use cb_bench::registry::{configure, ArmSpec};
use cb_harness::prelude::*;
use cb_harness::toy::RingScenario;
use cb_harness::Json;
use cb_telemetry::keys;
use cb_trace::{blame, chrome_trace_json, explain, is_acyclic, SpanIndex, SpanKind};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The ring scenario's guaranteed violation: node 3 partitioned away,
/// never healed — its successor's heartbeats starve.
fn ring_violating_plan() -> FaultPlan {
    let others: Vec<u32> = (0..8u32).filter(|&i| i != 3).collect();
    FaultPlan::none().partition(&[3], &others, 0, None)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn provenance_graph_is_acyclic_resolvable_and_worker_independent(seed in 1u64..200) {
        let scenario = RingScenario::default();
        let mut masked_exports: Vec<String> = Vec::new();
        for workers in [1usize, 2, 4, 8] {
            let cfg = CampaignConfig {
                base_seed: seed,
                seeds: 1,
                workers,
                check_determinism: false,
                shrink: false,
                artifact_dir: None,
                plan_override: Some(ring_violating_plan()),
                keep_reports: false,
            };
            let outcome = run_campaign(&scenario, &cfg);
            prop_assert_eq!(outcome.failures.len(), 1, "plan must violate");
            let report = &outcome.failures[0].report;
            let spans = &report.provenance;
            prop_assert!(!spans.is_empty());

            // Parent edges form a DAG (evicted parents are external roots).
            prop_assert!(is_acyclic(spans), "cycle in span parent edges");

            // Violation spans are synthesised with parents anchored to the
            // collected tail: every one of their parent edges must resolve.
            let index = SpanIndex::new(spans);
            let violations: Vec<_> = spans
                .iter()
                .filter(|s| s.kind == SpanKind::Violation)
                .collect();
            prop_assert!(!violations.is_empty(), "failing report must embed a violation span");
            for v in &violations {
                prop_assert!(!v.parents.is_empty());
                for p in &v.parents {
                    prop_assert!(index.get(*p).is_some(), "violation parent {p} not in tail");
                }
            }

            // When the tail holds every span ever recorded, *all* parent
            // edges must resolve — nothing was evicted or truncated.
            let non_synthetic = spans.iter().filter(|s| s.kind != SpanKind::Violation).count();
            let counter = |key| report.telemetry.counter(key);
            if counter(keys::TRACE_SPANS_EVICTED) == 0
                && non_synthetic as u64 == counter(keys::TRACE_SPANS_RECORDED)
            {
                for s in spans {
                    for p in &s.parents {
                        prop_assert!(index.get(*p).is_some(), "dangling parent {p}");
                    }
                }
            }

            masked_exports.push(report.provenance_masked_json().to_string_compact());
        }
        // The recorded span graph is a pure function of (seed, plan): the
        // worker count must not leak into it.
        prop_assert!(
            masked_exports.windows(2).all(|w| w[0] == w[1]),
            "masked provenance differs across campaign worker counts"
        );
    }
}

/// Seed-exact E11 regression: the storm arm (lookahead control, 20-state
/// deadline) under an unhealed partition of nodes 7 and 8 violates
/// `tree.reachable`; `blame` from the synthesised violation span must walk
/// the causal chain back to at least one originating lookahead decision,
/// crossing nodes on the way.
#[test]
fn e11_storm_blame_reaches_an_originating_decision() {
    let scenario = cb_randtree::RandTreeCampaign {
        lookahead: true,
        storm: true,
        deadline_states: 20,
        ..Default::default()
    };
    let plan = FaultPlan::from_spec("part:7.8|0.1.2.3.4.5.6.9.10.11.12.13.14@2000-never")
        .expect("plan spec");
    let report = scenario.run(1, &plan);
    assert!(
        report.failing_oracles().contains(&"tree.reachable"),
        "expected tree.reachable violation, got {:?}",
        report.failing_oracles()
    );

    let spans = &report.provenance;
    let violation = spans
        .iter()
        .find(|s| s.kind == SpanKind::Violation)
        .expect("failing report embeds a violation span");
    let chain = blame(spans, violation.id).expect("violation span is retained");
    assert!(
        !chain.decisions.is_empty(),
        "blame must reach at least one originating decision span"
    );
    assert!(
        chain.nodes.len() >= 2,
        "the causal chain must cross nodes, got {:?}",
        chain.nodes
    );
    // The reached decision explains itself: option table with a winner.
    let text = explain(spans, chain.decisions[0]).expect("decision is explainable");
    assert!(text.contains("decide:"), "{text}");
    assert!(text.contains("options:"), "{text}");
}

/// Masked provenance (wall clocks blanked) is byte-identical across two
/// independent runs of the same `(scenario, seed, plan)` — the property the
/// replay tail-equality check relies on.
#[test]
fn masked_provenance_is_byte_identical_across_runs() {
    let scenario = RingScenario::default();
    let plan = ring_violating_plan();
    let a = scenario.run(7, &plan);
    let b = scenario.run(7, &plan);
    assert_eq!(
        a.fingerprint, b.fingerprint,
        "scenario must be deterministic"
    );
    assert_eq!(
        a.provenance_masked_json().to_string_compact(),
        b.provenance_masked_json().to_string_compact(),
        "masked provenance must be byte-identical across replays"
    );
}

/// The failing report of `scenario` in `arm`, seed `seed`, under `plan`.
fn failing_run(scenario: &str, arm: &ArmSpec, seed: u64, plan: &str) -> RunReport {
    let scenario = configure(scenario, arm).expect("arm configures");
    let report = scenario.run(seed, &FaultPlan::from_spec(plan).expect("plan spec"));
    assert!(report.violated(), "the plan must violate");
    report
}

/// CI's storm artifact (randtree `--storm --ladder --deadline 20`, seed 1,
/// an unhealed partition under stalls and a delay spike) exports as Chrome
/// trace-event JSON: every event names its `name`, `ph`, `ts`, `pid` and
/// `tid`, and the phases include complete slices and both ends of a flow
/// arrow.
#[test]
fn storm_tail_exports_valid_chrome_trace_events() {
    let arm = ArmSpec {
        storm: true,
        ladder: true,
        deadline_states: 20,
        ..ArmSpec::default()
    };
    let report = failing_run(
        "randtree",
        &arm,
        1,
        "part:1.2|0.3.4.5.6.7.8.9.10.11.12.13.14@4000-never;\
         stall:6@2000-9000;delayspike:200@3000-12000",
    );
    let trace = Json::parse(&chrome_trace_json(&report.provenance, false)).expect("valid JSON");
    let events = trace
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents is a list");
    assert!(!events.is_empty(), "traceEvents must be nonempty");
    let mut phases = BTreeSet::new();
    for e in events {
        for key in ["name", "ph", "ts", "pid", "tid"] {
            assert!(e.get(key).is_some(), "event missing {key}: {e:?}");
        }
        phases.insert(e.get("ph").and_then(Json::as_str).expect("ph is a string"));
    }
    for ph in ["X", "s", "f"] {
        assert!(phases.contains(ph), "no '{ph}' event: {phases:?}");
    }
}

/// The flash artifact `crates/bench/tests/campaign_cli.rs` blames (kv
/// `--workload flash`, seed 2, a quorum-killing partition at 40 s): every admission decision in the tail carries the
/// driving profile as its `workload` attr.
#[test]
fn flash_admission_decisions_carry_the_workload() {
    let arm = ArmSpec {
        workload: cb_workload::WorkloadProfile::by_name("flash"),
        ..ArmSpec::default()
    };
    let report = failing_run("kv", &arm, 2, "part:1.2.3.4|0.5.6.7.8.9@40000-never");
    let admissions: Vec<_> = report
        .provenance
        .iter()
        .filter(|s| s.kind == SpanKind::Decision && s.name == "decide:kv.admission")
        .collect();
    assert!(
        !admissions.is_empty(),
        "no admission decision span in the tail"
    );
    for s in admissions {
        assert_eq!(s.attr("workload"), Some("flash"), "{:?}", s.attrs);
    }
}

/// The masked provenance of two red seeds whose tails hold long payload
/// labels — kv `--unsafe-reads` seed 2 (`App {…}` envelopes) and the storm
/// artifact above (`Checkpoint {…}` broadcasts) — pinned as the
/// `cb_corpus::fnv1a` of its compact text. Recorded before the simulator
/// stopped formatting whole payloads; a change to how a send's label is
/// produced must leave both alone.
#[test]
fn red_tails_are_pinned() {
    let unsafe_reads = ArmSpec {
        unsafe_reads: true,
        ..ArmSpec::default()
    };
    let storm = ArmSpec {
        storm: true,
        ladder: true,
        deadline_states: 20,
        ..ArmSpec::default()
    };
    let kv = configure("kv", &unsafe_reads).expect("arm configures");
    let kv = kv.run(2, &kv.default_plan(2));
    assert!(kv.violated(), "the planted bug must violate");
    let tree = failing_run(
        "randtree",
        &storm,
        1,
        "part:1.2|0.3.4.5.6.7.8.9.10.11.12.13.14@4000-never;\
         stall:6@2000-9000;delayspike:200@3000-12000",
    );
    let got = [&kv, &tree].map(|r| {
        let text = r.provenance_masked_json().to_string_compact();
        (cb_corpus::fnv1a(text.as_bytes()), text.len())
    });
    for (r, needle) in [(&kv, "App {"), (&tree, "Checkpoint {")] {
        let long = r
            .provenance
            .iter()
            .any(|s| s.name.starts_with(needle) && s.name.ends_with('…'));
        assert!(long, "{}: no cut `{needle}…` label in the tail", r.scenario);
    }
    assert_eq!(
        got,
        [
            (0x437a_d43d_7856_2135, 359_217),
            (0x1e9c_973d_e468_24a4, 662_186)
        ],
        "observed (fnv1a, bytes) of the masked provenance"
    );
}

/// Every object value under a key containing `wall` blanked: what is left
/// of a report is a pure function of `(scenario, seed, plan)`.
fn mask_wall(json: &Json) -> Json {
    match json {
        Json::Obj(entries) => Json::Obj(
            entries
                .iter()
                .map(|(k, v)| {
                    let v = if k.contains("wall") {
                        Json::Null
                    } else {
                        mask_wall(v)
                    };
                    (k.clone(), v)
                })
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(mask_wall).collect()),
        other => other.clone(),
    }
}

/// The masked provenance of four green seeds — stock kv, paxos and gossip
/// and randtree `--lookahead`, each at seed 1 under its default plan —
/// pinned as the `cb_corpus::fnv1a` of its compact text, beside the
/// `(fnv1a, bytes)` of kv's whole report with wall keys masked. A green
/// report's tail carries no violation span; a change to when or how the
/// tail is rendered must leave every value alone.
#[test]
fn green_tails_are_pinned() {
    let lookahead = ArmSpec {
        lookahead: true,
        ..ArmSpec::default()
    };
    let stock = ArmSpec::default();
    let reports = [
        ("kv", &stock),
        ("paxos", &stock),
        ("gossip", &stock),
        ("randtree", &lookahead),
    ]
    .map(|(name, arm)| {
        let scenario = configure(name, arm).expect("arm configures");
        let report = scenario.run(1, &scenario.default_plan(1));
        assert!(!report.violated(), "{name}: seed 1 must be green");
        report
    });
    let digest = |text: String| (cb_corpus::fnv1a(text.as_bytes()), text.len());
    let got = reports
        .each_ref()
        .map(|r| digest(r.provenance_masked_json().to_string_compact()));
    assert_eq!(
        got,
        [
            (0x427f_d9d3_f787_7893, 372_923),
            (0xf5b5_62d9_aead_0e5c, 234_492),
            (0x4764_be8d_a333_1856, 610_004),
            (0xce61_4635_27d7_c663, 671_415)
        ],
        "observed (fnv1a, bytes) of the masked provenance"
    );
    assert_eq!(
        digest(mask_wall(&reports[0].to_json()).to_string_compact()),
        (0x6e5a_5f23_946e_b54a, 378_005),
        "observed (fnv1a, bytes) of kv's masked report"
    );
}

/// One run's fingerprint, with the `(fnv1a, bytes)` of its masked tail and
/// of its whole report with wall keys masked.
fn run_digest(name: &str, arm: &ArmSpec, seed: u64) -> (u64, (u64, usize), (u64, usize)) {
    let scenario = configure(name, arm).expect("arm configures");
    let report = scenario.run(seed, &scenario.default_plan(seed));
    let digest = |text: String| (cb_corpus::fnv1a(text.as_bytes()), text.len());
    (
        report.fingerprint,
        digest(report.provenance_masked_json().to_string_compact()),
        digest(mask_wall(&report.to_json()).to_string_compact()),
    )
}

/// A run on flight-recorder rings a dropped fleet left on its thread
/// records what a run on fresh rings does: three green seeds and the
/// planted stale read's red one, each run on a new thread and then twice on
/// this one, agree on their fingerprint, their masked tail and their
/// wall-masked report.
#[test]
fn warm_rings_record_what_cold_ones_do() {
    let lookahead = ArmSpec {
        lookahead: true,
        ..ArmSpec::default()
    };
    let unsafe_reads = ArmSpec {
        unsafe_reads: true,
        ..ArmSpec::default()
    };
    let stock = ArmSpec::default();
    for (name, arm, seed) in [
        ("kv", &stock, 1),
        ("paxos", &stock, 1),
        ("randtree", &lookahead, 1),
        ("kv", &unsafe_reads, 2),
    ] {
        // A new thread's free list is empty. On this thread, each run's
        // report is dropped before the next run starts, so the second run
        // takes the first one's rings.
        let spawned = arm.clone();
        let cold = std::thread::spawn(move || run_digest(name, &spawned, seed))
            .join()
            .expect("cold run");
        for pass in ["first", "second"] {
            let warm = run_digest(name, arm, seed);
            assert_eq!(cold, warm, "{name} seed {seed}: {pass} run on this thread");
        }
    }
}
