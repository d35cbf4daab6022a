//! Short probes of single layers, run only in a traced run.
//!
//! [`fixed_probes`] call one layer's public entry points on inputs of their
//! own, the same on every workload: they give the ceiling (bare engine,
//! bare search) or the unit cost (one push, one lookup) that the spans
//! around whole calls cannot separate. [`report_probes`] and
//! [`failure_probes`] work on what the workload's traced repetition
//! produced.

use crate::stats::median;
use crate::workloads::Metrics;
use cb_bench::models::{Flood, FloodState};
use cb_corpus::SeedRecord;
use cb_harness::campaign::CampaignOutcome;
use cb_harness::linearizability::{check_history, synthetic_history};
use cb_harness::scenario::RunReport;
use cb_mck::consequence::predict;
use cb_mck::explore::{bfs, ExploreConfig};
use cb_mck::props::Property;
use cb_policy::{PolicyEntry, PolicyKey, PolicyPile, PolicyStore};
use cb_simnet::prelude::*;
use cb_telemetry::Registry;
use cb_trace::{blame, chrome_trace_json, FlightRecorder, SpanKind};
use cb_workload::{ArrivalEngine, WorkloadProfile};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Wall ns of `f`.
fn time_ns<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_nanos() as f64)
}

/// Median wall ns of `reps` calls of `f`.
fn median_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let times: Vec<f64> = (0..reps).map(|_| time_ns(|| black_box(f())).1).collect();
    median(&times)
}

/// Report serialization and distillation, on up to 16 of the repetition's
/// reports.
pub fn report_probes<'a>(reports: impl Iterator<Item = &'a RunReport>, out: &mut Metrics) {
    let (mut json_ns, mut json_kb, mut record_ns) = (Vec::new(), Vec::new(), Vec::new());
    for report in reports.take(16) {
        let (text, ns) = time_ns(|| report.to_json().to_string_pretty());
        json_ns.push(ns);
        json_kb.push(text.len() as f64 / 1e3);
        record_ns.push(time_ns(|| black_box(SeedRecord::from_report(report))).1);
    }
    out.insert("harness.report_json_ms_p50".into(), median(&json_ns) / 1e6);
    out.insert("harness.report_json_kb".into(), median(&json_kb));
    out.insert("corpus.from_report_us".into(), median(&record_ns) / 1e3);
}

/// Provenance queries a developer runs on a failing report.
pub fn failure_probes(outcome: &CampaignOutcome, out: &mut Metrics) {
    let (mut blame_ns, mut chrome_ns) = (Vec::new(), Vec::new());
    for failure in &outcome.failures {
        let spans = &failure.report.provenance;
        if let Some(v) = spans.iter().find(|s| s.kind == SpanKind::Violation) {
            blame_ns.push(time_ns(|| black_box(blame(spans, v.id))).1);
        }
        chrome_ns.push(time_ns(|| black_box(chrome_trace_json(spans, false))).1);
    }
    out.insert("trace.blame_ms_p50".into(), median(&blame_ns) / 1e6);
    out.insert(
        "trace.chrome_export_ms_p50".into(),
        median(&chrome_ns) / 1e6,
    );
}

/// The probes that need no workload. `scratch` holds the policy pile file.
pub fn fixed_probes(seed: u64, scratch: &Path, out: &mut Metrics) {
    let mut put = |name: &str, v: f64| out.insert(name.into(), v);

    // cb-simnet: the bare engine on a tick fleet, no app, no oracles — the
    // ceiling for events/s in each trace mode. `run_size` runs all four
    // engine arms five times each and keeps the best, so horizons are short.
    for (nodes, horizon_s) in [(100usize, 5), (1000, 1)] {
        let bench = cb_bench::simnet::run_size(
            nodes,
            seed,
            SimTime::from_secs(horizon_s),
            SimDuration::from_millis(100),
        );
        for arm in bench.arms.iter().filter(|a| a.scheduler == "wheel") {
            put(
                &format!("simnet.bare_{}_{nodes}_events_per_s", arm.mode),
                arm.events_per_sec(),
            );
        }
    }
    let topo_ns = median_ns(3, || {
        let transit = Topology::transit_stub_exact(
            &TransitStubConfig::balanced_for(2000),
            2000,
            &mut SimRng::seed_from(seed),
        );
        let fat = Topology::fat_tree(
            &FatTreeConfig::for_hosts(1000),
            &mut SimRng::seed_from(seed),
        );
        (transit.host_count(), fat.host_count())
    });
    put("simnet.topology_build_ms", topo_ns / 1e6);

    // cb-mck: exhaustive search and consequence prediction on the flood
    // model, no evaluator around them.
    let flood = Flood { n: 7, fanout: 2 };
    let props = [Property::safety("queue bounded", |s: &FloodState| {
        s.pending.len() <= 14
    })];
    let cfg = ExploreConfig {
        max_depth: 10,
        max_states: 50_000,
        ..ExploreConfig::default()
    };
    let (report, ns) = time_ns(|| bfs(&flood, &props, &cfg));
    put(
        "mck.bfs_states_per_s",
        report.states_visited as f64 / (ns / 1e9),
    );
    put(
        "mck.dedup_ratio",
        report.dedup_hits as f64 / report.transitions.max(1) as f64,
    );
    let mut states = 0u64;
    let ns = time_ns(|| {
        for _ in 0..200 {
            states += predict(&flood, &props, &cfg).report.states_visited;
        }
    })
    .1;
    put("mck.predict_states_per_s", states as f64 / (ns / 1e9));

    // cb-trace: one push into a full ring (every push evicts).
    let mut recorder = FlightRecorder::new(0);
    let pushes = 200_000u64;
    let ns = time_ns(|| {
        for i in 0..pushes {
            recorder.record(i, SpanKind::Deliver, "probe", Vec::new());
        }
    })
    .1;
    black_box(recorder.len());
    put("trace.push_ns_per_span", ns / pushes as f64);

    // cb-telemetry: one histogram record by key.
    let mut registry = Registry::new();
    cb_telemetry::keys::preregister_standard(&mut registry);
    let records = 200_000u64;
    let ns = time_ns(|| {
        for i in 0..records {
            registry.record(cb_telemetry::keys::CORE_DECISION_LATENCY_SIM_US, i & 1023);
        }
    })
    .1;
    black_box(registry.counter("probe"));
    put("telemetry.record_ns", ns / records as f64);

    // cb-policy: point operations and the on-disk round trip.
    let entries = 50_000u64;
    let key = |i: u64| PolicyKey::new(1, 2, cb_policy::mix64(i ^ seed));
    let mut store = PolicyStore::new("probe");
    let ns = time_ns(|| {
        for i in 0..entries {
            store.insert(key(i), PolicyEntry::new(i, 1.0, 0, 32));
        }
    })
    .1;
    put("policy.insert_ns", ns / entries as f64);
    let ns = time_ns(|| {
        let mut found = 0u64;
        for i in 0..entries {
            found += u64::from(store.get(&key(i)).is_some());
        }
        assert_eq!(found, entries, "every inserted key is found");
    })
    .1;
    put("policy.get_ns", ns / entries as f64);
    let mut pile = PolicyPile::new();
    pile.insert_store(store);
    let mb = pile.to_bytes().len() as f64 / 1e6;
    let path = scratch.join("probe.cbp");
    let save_ns = median_ns(3, || pile.save(&path).expect("policy pile saves"));
    let load_ns = median_ns(3, || {
        PolicyPile::load(&path).expect("policy pile loads").len()
    });
    put("policy.save_mb_per_s", mb / (save_ns / 1e9));
    put("policy.load_mb_per_s", mb / (load_ns / 1e9));

    // cb-workload: arrival windows of the million-user profile.
    let profile = WorkloadProfile::by_name("million").expect("the million profile is built in");
    let mut engine = ArrivalEngine::new(profile, seed);
    let windows = 100_000u64;
    let ns = time_ns(|| {
        let mut total = 0u64;
        for w in 0..windows {
            total += engine.window(w).total;
        }
        black_box(total)
    })
    .1;
    put("workload.windows_per_s", windows as f64 / (ns / 1e9));

    // cb-harness: the WGL checker alone on a 1000-op single-key history.
    let history = synthetic_history(1000, 8, 1, seed);
    let ns = median_ns(5, || {
        assert!(
            check_history(&history).is_ok(),
            "a linearizable history is refused"
        )
    });
    put("harness.lincheck_ms_per_kop", ns / 1e6);
}
