//! Cross-crate determinism: a run is a pure function of its seed.
//!
//! Every layer of the stack — simulator, runtime, resolvers, applications —
//! draws randomness only from seeded streams, so identical seeds must yield
//! byte-identical traces and identical experiment outcomes. These tests
//! pin that property end to end; if any component starts consulting an
//! outside source of entropy (hash-map iteration order, wall clock, …),
//! they fail.

use cb_gossip::{run_gossip, GossipConfig, PeerStrategy};
use cb_paxos::{run_paxos, PaxosConfig, ProposerRegime};
use cb_randtree::{run_join, ScenarioConfig, Setup};
use cb_simnet::prelude::*;

#[test]
fn randtree_join_is_deterministic_per_seed() {
    for setup in Setup::ALL {
        let cfg = ScenarioConfig {
            nodes: 15,
            seed: 42,
            ..Default::default()
        };
        let a = run_join(&cfg, setup);
        let b = run_join(&cfg, setup);
        assert_eq!(a.after_join.max_depth, b.after_join.max_depth, "{setup:?}");
        assert_eq!(
            a.after_join.mean_depth, b.after_join.mean_depth,
            "{setup:?}"
        );
        assert_eq!(a.msgs_sent, b.msgs_sent, "{setup:?}");
        assert_eq!(a.decisions, b.decisions, "{setup:?}");
    }
}

#[test]
fn randtree_seeds_actually_matter() {
    let outcomes: Vec<u64> = (1..=8)
        .map(|seed| {
            let cfg = ScenarioConfig {
                nodes: 15,
                seed,
                ..Default::default()
            };
            run_join(&cfg, Setup::ChoiceRandom).msgs_sent
        })
        .collect();
    let mut distinct = outcomes.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert!(
        distinct.len() > 1,
        "eight seeds produced identical traffic: {outcomes:?}"
    );
}

#[test]
fn gossip_outcome_is_deterministic_per_seed() {
    let cfg = GossipConfig {
        nodes: 16,
        rumors: 3,
        horizon: SimDuration::from_secs(30),
        seed: 7,
        ..Default::default()
    };
    let a = run_gossip(&cfg, PeerStrategy::Resolved);
    let b = run_gossip(&cfg, PeerStrategy::Resolved);
    assert_eq!(a.coverage, b.coverage);
    assert_eq!(a.t90_secs, b.t90_secs);
    assert_eq!(a.bytes_sent, b.bytes_sent);
}

#[test]
fn paxos_outcome_is_deterministic_per_seed() {
    let cfg = PaxosConfig {
        clients: 4,
        commands_per_client: 10,
        horizon: SimDuration::from_secs(60),
        seed: 9,
        ..Default::default()
    };
    let a = run_paxos(&cfg, ProposerRegime::Resolved);
    let b = run_paxos(&cfg, ProposerRegime::Resolved);
    assert_eq!(a.committed, b.committed);
    assert_eq!(a.mean_latency_secs, b.mean_latency_secs);
    assert_eq!(a.per_replica_commits, b.per_replica_commits);
}

#[test]
fn campaign_run_is_deterministic_under_faults() {
    // The harness's replay guarantee: a scenario run is a pure function of
    // (seed, fault plan). Crash/restart, a healed partition, and a loss
    // window all in one plan; two fresh runs must agree byte-for-byte on
    // the trace fingerprint and on every oracle verdict.
    use cb_harness::prelude::*;
    use cb_harness::toy::RingScenario;

    let scenario = RingScenario::default();
    let others: Vec<u32> = (0..8u32).filter(|&i| i != 2 && i != 5).collect();
    let plan = FaultPlan::none()
        .crash(1, 300)
        .restart(1, 900)
        .partition(&[2, 5], &others, 400, Some(1_500))
        .loss(0.10, 200, 2_000);

    let a = scenario.run(1234, &plan);
    let b = scenario.run(1234, &plan);
    assert_eq!(a.fingerprint, b.fingerprint, "same seed+plan, same trace");
    assert_eq!(a.events_processed, b.events_processed);
    assert_eq!(a.violated(), b.violated());
    assert_eq!(a.failing_oracles(), b.failing_oracles());

    let c = scenario.run(1235, &plan);
    assert_ne!(a.fingerprint, c.fingerprint, "a different seed must differ");
}

#[test]
fn campaign_plan_spec_round_trip_preserves_the_run() {
    // Replay goes through the artifact's spec string: parsing the rendered
    // plan back must reproduce the identical run.
    use cb_harness::prelude::*;
    use cb_harness::toy::RingScenario;

    let scenario = RingScenario::default();
    let plan = scenario.default_plan(7);
    let reparsed = FaultPlan::from_spec(&plan.to_spec()).expect("round trip");
    let a = scenario.run(7, &plan);
    let b = scenario.run(7, &reparsed);
    assert_eq!(a.fingerprint, b.fingerprint);
}

#[test]
fn artifact_telemetry_is_deterministic_after_wall_masking() {
    // The telemetry section of a campaign artifact must be byte-identical
    // across same-seed runs once the wall-clock (fingerprint-exempt)
    // metrics are masked — and the masking must not disturb the key set.
    use cb_harness::prelude::*;
    use cb_harness::telemetry_json;

    let scenario = cb_randtree::RandTreeCampaign::default();
    let plan = scenario.default_plan(11);
    let a = scenario.run(11, &plan);
    let b = scenario.run(11, &plan);
    assert_eq!(a.fingerprint, b.fingerprint, "trace fingerprints agree");

    // Decisions happened, so the registries are non-trivial.
    assert!(
        a.telemetry
            .counter(cb_telemetry::keys::CORE_DECISIONS_TOTAL)
            > 0,
        "randtree exposes choices; decisions expected"
    );
    // The raw sections contain real wall-clock samples and therefore differ…
    let wall = a
        .telemetry
        .hist(cb_telemetry::keys::CORE_DECISION_LATENCY_WALL_NS)
        .expect("wall histogram present");
    assert!(!wall.is_empty(), "wall-clock side was sampled");
    // …but masking blanks exactly the wall keys, making the rendered JSON
    // byte-identical.
    let ja = telemetry_json(&a.telemetry.masked()).to_string_pretty();
    let jb = telemetry_json(&b.telemetry.masked()).to_string_pretty();
    assert_eq!(ja, jb, "masked telemetry sections must be byte-identical");

    // Masking preserves the schema: same counter keys before and after.
    let keys_raw: Vec<&str> = a.telemetry.counters().map(|(k, _)| k).collect();
    let masked = a.telemetry.masked();
    let keys_masked: Vec<&str> = masked.counters().map(|(k, _)| k).collect();
    assert_eq!(keys_raw, keys_masked);

    // A different seed produces different deterministic telemetry (the
    // masked section is a function of the seed, not a constant).
    let plan2 = scenario.default_plan(12);
    let c = scenario.run(12, &plan2);
    let jc = telemetry_json(&c.telemetry.masked()).to_string_pretty();
    assert_ne!(ja, jc, "different seeds should differ even after masking");
}

/// The `telemetry` section of a report's artifact JSON, parsed back, with
/// the sections and summary keys every artifact carries and the
/// evaluation-cache / exploration-kernel counters preregistered (zero when
/// no predictive resolver ran) so sweeps can diff them across arms.
fn telemetry_section(report: &cb_harness::RunReport) -> cb_harness::Json {
    use cb_harness::Json;

    let text = report.to_json().to_string_pretty();
    let back = Json::parse(&text).expect("artifact JSON parses");
    let tel = back.get("telemetry").expect("telemetry section present");
    for section in ["counters", "gauges", "histograms", "summary"] {
        assert!(tel.get(section).is_some(), "missing {section}");
    }
    let summary = tel.get("summary").unwrap();
    for key in [
        "decisions",
        "decision_p50_sim_us",
        "decision_p99_sim_us",
        // Cache hit rate is present as a key even when no cached resolver
        // ran.
        "cache_hit_rate",
        "states_per_decision",
    ] {
        assert!(summary.get(key).is_some(), "missing summary key {key}");
    }
    let counters = tel.get("counters").unwrap();
    for key in [
        "core.evalcache.hits",
        "core.evalcache.misses",
        "core.evalcache.fused_searches_saved",
        "mck.states_visited",
        "mck.transitions",
        "mck.dedup_hits",
    ] {
        assert!(counters.get(key).is_some(), "missing counter {key}");
    }
    tel.clone()
}

#[test]
fn full_artifact_json_telemetry_section_is_well_formed() {
    // The embedded `telemetry` section of a run report parses back and
    // carries the required critical-path statistics: for a runtime fleet,
    // and for the plain-actor ring whose failure artifact CI writes.
    use cb_harness::prelude::*;
    use cb_harness::toy::RingScenario;

    let scenario = cb_randtree::RandTreeCampaign::default();
    let tel = telemetry_section(&scenario.run(3, &scenario.default_plan(3)));
    let summary = tel.get("summary").unwrap();
    assert!(summary.get("decisions").and_then(Json::as_u64).unwrap() > 0);
    assert!(summary
        .get("decision_p50_sim_us")
        .and_then(Json::as_u64)
        .is_some());
    assert!(summary
        .get("decision_p99_sim_us")
        .and_then(Json::as_u64)
        .is_some());
    let lat = tel
        .get("histograms")
        .unwrap()
        .get(cb_telemetry::keys::CORE_DECISION_LATENCY_SIM_US)
        .expect("decision latency histogram");
    assert!(lat.get("count").and_then(Json::as_u64).unwrap() > 0);

    // CI's injected violation: node 3 cut off for the whole run.
    let plan = FaultPlan::from_spec("part:3|0.1.2.4.5.6.7@0-never").expect("plan spec");
    let ring = RingScenario::default().run(1, &plan);
    assert!(ring.violated(), "the never-healed cut must violate");
    let tel = telemetry_section(&ring);
    // The ring delivers traffic, so the network counters are live.
    let delivered = tel
        .get("counters")
        .unwrap()
        .get(cb_telemetry::keys::NET_MSGS_DELIVERED)
        .and_then(Json::as_u64);
    assert!(delivered.unwrap() > 0, "net.msgs_delivered {delivered:?}");
}

#[test]
fn raw_sim_trace_fingerprints_match() {
    struct Echo;
    impl Actor for Echo {
        type Msg = u8;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
            let n = ctx.host_count() as u32;
            let to = NodeId(ctx.rng().gen_below(n as u64) as u32);
            if to != ctx.id() {
                ctx.send(to, 1);
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, u8>, from: NodeId, msg: u8) {
            if msg < 4 {
                ctx.send(from, msg + 1);
            }
        }
    }
    let run = |seed: u64| {
        let topo = Topology::star(6, SimDuration::from_millis(3), 5_000_000);
        let mut sim = Sim::new(topo, seed, |_| Echo);
        sim.start_all();
        sim.run_until_quiescent(SimTime::from_secs(5));
        sim.trace().fingerprint()
    };
    assert_eq!(run(5), run(5));
    assert_ne!(run(5), run(6));
}

#[test]
fn ten_thousand_node_gossip_campaign_replays_byte_identically() {
    // The internet-scale arm: a 10 000-node fleet on a generated
    // transit-stub topology, running the hierarchical event wheel with
    // lite tracing (both engage automatically at this size). Two replays
    // of the same (seed, plan) must agree on the trace fingerprint and
    // render byte-identical campaign artifacts once the wall-clock
    // telemetry keys are masked. The horizon is far below the campaign
    // default so the test fits a debug-mode budget; the full 60s arm runs
    // in CI via `campaign --scenario gossip --nodes 10000`.
    use cb_harness::prelude::*;

    let scenario = cb_gossip::GossipCampaign {
        nodes: 10_000,
        horizon: SimTime::from_secs(3),
        ..Default::default()
    };
    let plan = scenario.default_plan(5);
    let a = scenario.run(5, &plan);
    let b = scenario.run(5, &plan);
    assert_eq!(a.fingerprint, b.fingerprint, "same seed, same trace");
    assert_eq!(a.events_processed, b.events_processed);
    assert!(
        a.events_processed > 100_000,
        "a 10k fleet should generate serious traffic, got {}",
        a.events_processed
    );

    // Full artifact byte-identity, wall-clock telemetry masked. Verdicts
    // ride along, so oracle evaluation is pinned too (whatever the
    // verdicts are at this short horizon, they must replay identically).
    let render = |mut r: cb_harness::RunReport| {
        r.telemetry = r.telemetry.masked();
        r.to_json().to_string_pretty()
    };
    assert_eq!(
        render(a),
        render(b),
        "masked artifacts must be byte-identical"
    );
}
