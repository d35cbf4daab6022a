//! Scenario-conformance harness: the campaign contracts every registered
//! scenario must uphold, checked uniformly across the whole registry.
//!
//! A scenario that joins the registry (see `cb_bench::registry`) inherits
//! three promises the rest of the tooling builds on:
//!
//! 1. **Replay determinism** — running the same `(seed, plan)` twice
//!    produces the same fingerprint, byte-identical masked provenance, and
//!    identical telemetry. This is what makes failure artifacts replayable
//!    and `trace explain/blame` trustworthy.
//! 2. **Worker-count invariance** — a campaign's outcome (which seeds
//!    passed, which failed with what fingerprint, total events) is a pure
//!    function of `(scenario, seeds, plan)`; the thread count used to sweep
//!    must not leak in.
//! 3. **Well-formed provenance** — the exported span graph is acyclic,
//!    violation spans anchor to retained parents, and when nothing was
//!    evicted every parent edge resolves.
//!
//! New scenarios get these checks for free by registering; a scenario that
//! can't pass them has no business in the campaign runner.

use cb_bench::registry::{accepts, all_scenarios, configure, scenario_names, ArmField, ArmSpec};
use cb_harness::prelude::*;
use cb_telemetry::keys;
use cb_trace::{is_acyclic, SpanIndex, SpanKind};
use cb_workload::WorkloadProfile;
use std::collections::HashMap;
use std::sync::Arc;

/// Telemetry digest with the wall-clock metrics masked out: histograms
/// keyed `*_wall_ns` time the host machine, not the simulation, and are
/// nondeterministic by design (same reason provenance masks `wall_ns`).
/// Everything else — counters, gauges, sim-clock histograms — must be a
/// pure function of `(seed, plan)`.
fn masked_telemetry_digest(reg: &Registry) -> String {
    let mut out = String::new();
    for (k, v) in reg.counters() {
        out.push_str(&format!("c {k}={v}\n"));
    }
    for (k, v) in reg.gauges() {
        out.push_str(&format!("g {k}={v}\n"));
    }
    for (k, h) in reg.hists() {
        if k.contains("wall_ns") {
            // Deterministic in count only; values time the host.
            out.push_str(&format!("h {k} count={}\n", h.count()));
        } else if h.is_empty() {
            out.push_str(&format!("h {k} empty\n"));
        } else {
            out.push_str(&format!(
                "h {k} count={} min={} max={} p50={} p99={}\n",
                h.count(),
                h.min(),
                h.max(),
                h.quantile(0.5),
                h.quantile(0.99)
            ));
        }
    }
    out
}

/// Seeds swept per scenario. Small (tier-1 runs in debug) but enough to mix
/// passing and failing runs on the fault-injected scenarios.
const SEEDS: u64 = 4;
const BASE_SEED: u64 = 1;

/// Contracts 1 and 3: per `(scenario, seed)`, two direct runs under the
/// scenario's default plan must agree byte-for-byte, and each report's
/// provenance graph must be structurally sound.
#[test]
fn replay_is_deterministic_and_provenance_well_formed() {
    for scenario in all_scenarios() {
        for seed in BASE_SEED..BASE_SEED + SEEDS {
            let plan = scenario.default_plan(seed);
            let a = scenario.run(seed, &plan);
            let b = scenario.run(seed, &plan);
            let tag = format!("{} seed {seed}", scenario.name());

            assert_eq!(a.fingerprint, b.fingerprint, "{tag}: fingerprint drift");
            assert_eq!(
                a.events_processed, b.events_processed,
                "{tag}: event count drift"
            );
            assert_eq!(
                a.provenance_masked_json().to_string_pretty(),
                b.provenance_masked_json().to_string_pretty(),
                "{tag}: masked provenance not byte-identical on replay"
            );
            assert_eq!(
                masked_telemetry_digest(&a.telemetry),
                masked_telemetry_digest(&b.telemetry),
                "{tag}: telemetry drift on replay"
            );
            let verdicts = |r: &RunReport| -> Vec<(String, bool)> {
                r.verdicts
                    .iter()
                    .map(|v| (v.name.clone(), v.passed))
                    .collect()
            };
            assert_eq!(verdicts(&a), verdicts(&b), "{tag}: verdict drift");

            // Contract 3 on the first report.
            let spans = &a.provenance;
            assert!(is_acyclic(spans), "{tag}: cycle in span parent edges");
            let index = SpanIndex::new(spans);
            for v in spans.iter().filter(|s| s.kind == SpanKind::Violation) {
                assert!(!v.parents.is_empty(), "{tag}: unanchored violation span");
                for p in &v.parents {
                    assert!(
                        index.get(*p).is_some(),
                        "{tag}: violation parent {p} not in tail"
                    );
                }
            }
            let non_synthetic = spans
                .iter()
                .filter(|s| s.kind != SpanKind::Violation)
                .count() as u64;
            let counter = |key| a.telemetry.counter(key);
            if counter(keys::TRACE_SPANS_EVICTED) == 0
                && non_synthetic == counter(keys::TRACE_SPANS_RECORDED)
            {
                for s in spans {
                    for p in &s.parents {
                        assert!(index.get(*p).is_some(), "{tag}: dangling parent {p}");
                    }
                }
            }
        }
    }
}

/// A two-seed sweep config for the arm checks (the stock-scenario tests
/// cover the wider seed range). Reports are kept so the sweeps double as
/// the replay check.
fn arm_sweep(workers: usize) -> CampaignConfig {
    CampaignConfig {
        base_seed: BASE_SEED,
        seeds: 2,
        workers,
        check_determinism: false,
        shrink: false,
        artifact_dir: None,
        plan_override: None,
        keep_reports: true,
    }
}

/// Every arm field set at once; `.only(..)` carves the arms under test
/// out of it.
fn every_field_set() -> ArmSpec {
    ArmSpec {
        storm: true,
        ladder: true,
        lookahead: true,
        deadline_states: 20,
        unsafe_reads: true,
        nodes: Some(24),
        // `flash`, not `steady`: its scale hint is 2, so the scenarios the
        // profile drives through that hint run a different fleet.
        workload: WorkloadProfile::by_name("flash"),
        policy: Some(Arc::new(cb_policy::PolicyPile::new())),
        record_policy: true,
    }
}

/// The arm that sets `field` alone on `scenario`, after the arm it is
/// measured against. That base is stock except for the field that only
/// tunes another arm: a prediction deadline is enforced in the ladder arm.
fn single_field_arm(scenario: &str, field: ArmField) -> (ArmSpec, ArmSpec) {
    use ArmField::*;
    let all = every_field_set();
    match field {
        Deadline => (all.only(&[Ladder]), all.only(&[Ladder, Deadline])),
        Policy => {
            // Warm-start from a pile this scenario recorded itself.
            let recorder = configure(scenario, &all.only(&[RecordPolicy]))
                .expect("a scenario that takes a pile can record one");
            let store = run_campaign(recorder.as_ref(), &arm_sweep(2))
                .policy
                .unwrap_or_else(|| panic!("{scenario}: recording sweep produced no store"));
            let mut pile = cb_policy::PolicyPile::new();
            pile.insert_store(store);
            let arm = ArmSpec {
                policy: Some(Arc::new(pile)),
                ..ArmSpec::default()
            };
            (ArmSpec::default(), arm)
        }
        _ => (ArmSpec::default(), all.only(&[field])),
    }
}

/// What an arm field may move: the run itself, its telemetry, the default
/// fault plan, or the fleet size. `report` is the scenario's run of
/// `BASE_SEED` under its default plan.
fn observable(scenario: &dyn Scenario, report: &RunReport) -> String {
    format!(
        "nodes={} plan={} fp={}\n{}",
        scenario.node_count(),
        scenario.default_plan(BASE_SEED).to_spec(),
        report.fingerprint,
        masked_telemetry_digest(&report.telemetry)
    )
}

/// [`observable`] of the named scenario in the `base` arm.
fn base_observable(name: &str, base: &ArmSpec) -> String {
    let scenario = configure(name, base).unwrap_or_else(|e| panic!("{name} base arm: {e}"));
    let report = scenario.run(BASE_SEED, &scenario.default_plan(BASE_SEED));
    observable(scenario.as_ref(), &report)
}

/// Contracts 1 and 2 for `scenario` configured as `arm`: the campaign
/// outcome is invariant across 1/2/4/8 workers, and two of those sweeps'
/// runs of the same `(seed, plan)` are byte-identical (fingerprint,
/// masked provenance, telemetry). `may_fail` names the one oracle the arm
/// is allowed to trip. Returns the arm's [`observable`].
fn check_arm(tag: &str, scenario: &dyn Scenario, may_fail: Option<&str>) -> String {
    let sweeps =
        [1usize, 2, 4, 8].map(|workers| (workers, run_campaign(scenario, &arm_sweep(workers))));

    // Contract 2: outcome invariant across worker counts.
    let digest = |outcome: &CampaignOutcome| {
        let failures: Vec<String> = outcome
            .failures
            .iter()
            .map(|f| format!("seed {} fp {}", f.report.seed, f.report.fingerprint))
            .collect();
        format!(
            "passed={} failures={failures:?} events={}",
            outcome.passed, outcome.total_events
        )
    };
    for pair in sweeps.windows(2) {
        assert_eq!(
            digest(&pair[0].1),
            digest(&pair[1].1),
            "{tag}: campaign outcome differs between {} and {} workers",
            pair[0].0,
            pair[1].0
        );
    }
    for f in &sweeps[0].1.failures {
        for oracle in f.report.failing_oracles() {
            assert_eq!(
                Some(oracle),
                may_fail,
                "{tag}: seed {} violated",
                f.report.seed
            );
        }
    }

    // Contract 1: the 1- and 2-worker sweeps each ran `BASE_SEED` under
    // the default plan; the two runs agree byte-for-byte.
    let (a, b) = (&sweeps[0].1.reports[0], &sweeps[1].1.reports[0]);
    assert_eq!((a.seed, b.seed), (BASE_SEED, BASE_SEED));
    assert_eq!(a.fingerprint, b.fingerprint, "{tag}: fingerprint drift");
    assert_eq!(
        a.provenance_masked_json().to_string_pretty(),
        b.provenance_masked_json().to_string_pretty(),
        "{tag}: masked provenance not byte-identical on replay"
    );
    assert_eq!(
        masked_telemetry_digest(&a.telemetry),
        masked_telemetry_digest(&b.telemetry),
        "{tag}: telemetry drift on replay"
    );
    observable(scenario, a)
}

/// `check_arm` over every `(scenario, accepted field)` pair of the
/// registry's accept-table that `wanted` selects, plus, per pair: the
/// field moves something observable, so the table row is not a dead
/// letter. A field outside the accept-set must be refused.
fn check_single_field_arms(wanted: impl Fn(ArmField) -> bool) {
    for name in scenario_names() {
        let accepted = accepts(name).expect("registered");
        // Most fields share a base arm (stock): run each base once.
        let mut bases: HashMap<String, String> = HashMap::new();
        for field in ArmField::ALL.into_iter().filter(|f| wanted(*f)) {
            let tag = format!("{name} ({field:?} arm)");
            if !accepted.contains(&field) {
                let refused = configure(name, &every_field_set().only(&[field])).err();
                assert_eq!(
                    refused.and_then(|e| e.field),
                    Some(field),
                    "{tag}: outside the accept-set, must be refused"
                );
                continue;
            }
            let (base, arm) = single_field_arm(name, field);
            let scenario = configure(name, &arm).unwrap_or_else(|e| panic!("{tag}: {e}"));
            assert_eq!(scenario.name(), name, "{tag}: arm renamed the scenario");
            // The planted bug is the one arm whose point is to violate.
            let may_fail = (field == ArmField::UnsafeReads).then_some("kv.linearizable");
            let seen = check_arm(&tag, scenario.as_ref(), may_fail);
            let unmoved = bases
                .entry(format!("{:?}", base.set_fields()))
                .or_insert_with(|| base_observable(name, &base));
            assert_ne!(&seen, unmoved, "{tag}: accepted field changes nothing");
        }
    }
}

/// Contracts 1 and 2 under the open-loop workload arm
/// (`campaign --workload`): every scenario that accepts a workload must
/// keep its promises when driven by the aggregate client population too —
/// telemetry now carries the `workload.*` counters and governor dwell
/// histograms.
#[test]
fn workload_arm_keeps_replay_determinism_and_worker_invariance() {
    check_single_field_arms(|f| f == ArmField::Workload);
}

/// The same for every other accepted single field, and the two composite
/// arms CI sweeps.
#[test]
fn every_other_arm_keeps_replay_determinism_and_worker_invariance() {
    check_single_field_arms(|f| f != ArmField::Workload);
    use ArmField::*;
    let all = every_field_set();
    let composites = [
        ("randtree", all.only(&[Storm, Ladder, Deadline])),
        ("gossip", all.only(&[Storm, Ladder])),
    ];
    for (name, arm) in composites {
        let tag = format!("{name} ({:?} arm)", arm.set_fields());
        let scenario = configure(name, &arm).unwrap_or_else(|e| panic!("{tag}: {e}"));
        check_arm(&tag, scenario.as_ref(), None);
    }
}

/// Contract 2: a campaign's observable outcome must not depend on how many
/// worker threads swept it. Compares pass/fail sets (with per-failure
/// fingerprints), determinism flags, and total event counts across
/// 1-, 2-, 4-, and 8-worker sweeps of the same seed range.
#[test]
fn campaign_outcome_is_worker_count_invariant() {
    for scenario in all_scenarios() {
        let mut digests: Vec<(usize, String)> = Vec::new();
        for workers in [1usize, 2, 4, 8] {
            let cfg = CampaignConfig {
                base_seed: BASE_SEED,
                seeds: SEEDS,
                workers,
                check_determinism: false,
                shrink: false,
                artifact_dir: None,
                plan_override: None,
                keep_reports: false,
            };
            let outcome = run_campaign(scenario.as_ref(), &cfg);
            let failures: Vec<String> = outcome
                .failures
                .iter()
                .map(|f| {
                    format!(
                        "seed {} fp {} oracles {:?}",
                        f.report.seed,
                        f.report.fingerprint,
                        f.report.failing_oracles()
                    )
                })
                .collect();
            digests.push((
                workers,
                format!(
                    "passed={} failures={failures:?} nondet={:?} events={}",
                    outcome.passed, outcome.nondeterministic_seeds, outcome.total_events
                ),
            ));
        }
        for pair in digests.windows(2) {
            assert_eq!(
                pair[0].1,
                pair[1].1,
                "{}: campaign outcome differs between {} and {} workers",
                scenario.name(),
                pair[0].0,
                pair[1].0
            );
        }
    }
}
