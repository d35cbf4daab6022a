//! The metric tables: every name the benchmark prints, with its unit, its
//! direction and (end to end) its regression bound. `BENCHMARK.json` at the
//! repository root is `--contract`'s output, and a test keeps them equal.

use crate::workloads::WORKLOADS;

/// Measured seconds per run that `BENCHMARK.json` asks the driver for.
pub const RUN_SECONDS: u64 = 15;

/// One metric of the contract.
pub struct MetricDef {
    /// Name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen; end to
    /// end only.
    pub bound: Option<f64>,
}

/// What a user of the system sees. Every workload reports every one; what
/// an operation and a step are is the workload's (see the README).
pub fn end_to_end() -> Vec<MetricDef> {
    [
        ("ops_per_s", "1/s", "higher", 0.25),
        ("steps_per_s", "1/s", "higher", 0.25),
        ("op_us_p50", "us", "lower", 0.25),
        ("op_us_tail", "us", "lower", 0.25),
        ("peak_rss_mb", "MB", "lower", 0.25),
        ("setup_s", "s", "lower", 0.25),
    ]
    .into_iter()
    .map(|(name, unit, better, bound)| MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound: Some(bound),
    })
    .collect()
}

/// Every campaign arm of every workload.
pub const ARMS: [&str; 12] = [
    "kv",
    "mencius",
    "paxos",
    "gossip",
    "dissem",
    "kv-million",
    "gossip-1000",
    "dissem-1000",
    "randtree-lookahead",
    "randtree-ladder",
    "randtree-policy",
    "kv-unsafe",
];

/// Layers a span name can start with; each gets a `share.<layer>` metric.
pub const LAYERS: [&str; 7] = [
    "sim",
    "core",
    "harness",
    "telemetry",
    "policy",
    "corpus",
    "bench",
];

const PER_LAYER: [(&str, &str, &str); 62] = [
    // cb-simnet (probes; simnet.events is the workload's exact count)
    ("simnet.bare_full_100_events_per_s", "1/s", "higher"),
    ("simnet.bare_lite_100_events_per_s", "1/s", "higher"),
    ("simnet.bare_full_1000_events_per_s", "1/s", "higher"),
    ("simnet.bare_lite_1000_events_per_s", "1/s", "higher"),
    ("simnet.topology_build_ms", "ms", "lower"),
    ("simnet.events", "count", "lower"),
    // cb-harness
    ("harness.rerun_share", "share", "lower"),
    ("harness.worker_scaling_2w", "ratio", "higher"),
    ("harness.report_json_ms_p50", "ms", "lower"),
    ("harness.report_json_kb", "kB", "lower"),
    ("harness.artifact_parse_mb_per_s", "MB/s", "higher"),
    ("harness.shrink_runs", "count", "lower"),
    ("harness.shrink_ms_p50", "ms", "lower"),
    ("harness.lincheck_ms_per_kop", "ms", "lower"),
    // cb-trace
    ("trace.push_ns_per_span", "ns", "lower"),
    ("trace.spans_recorded", "count", "lower"),
    ("trace.spans_evicted", "count", "lower"),
    ("trace.tail_spans", "count", "lower"),
    ("trace.blame_ms_p50", "ms", "lower"),
    ("trace.chrome_export_ms_p50", "ms", "lower"),
    // cb-telemetry
    ("telemetry.record_ns", "ns", "lower"),
    ("telemetry.merge_us", "us", "lower"),
    // cb-core
    ("core.ns_per_state", "ns", "lower"),
    ("core.states_per_decision_cold", "count", "lower"),
    ("core.states_per_decision_warm", "count", "lower"),
    ("core.evalcache_hit_ratio", "ratio", "higher"),
    ("core.policy_hit_ratio", "ratio", "higher"),
    ("core.policy_stale", "count", "lower"),
    ("core.refresh_share", "share", "lower"),
    ("core.evaluate_ns_per_option", "ns", "lower"),
    ("core.ladder_rung_0", "count", "lower"),
    ("core.ladder_rung_1", "count", "lower"),
    ("core.ladder_rung_2", "count", "higher"),
    ("core.ladder_rung_3", "count", "lower"),
    ("core.ladder_rung_4", "count", "lower"),
    ("core.ladder_rung_5", "count", "lower"),
    ("core.live_decisions", "count", "lower"),
    ("core.live_decide_ns_mean", "ns", "lower"),
    ("core.live_decide_share", "share", "lower"),
    // cb-mck (probes)
    ("mck.bfs_states_per_s", "1/s", "higher"),
    ("mck.predict_states_per_s", "1/s", "higher"),
    ("mck.dedup_ratio", "ratio", "higher"),
    // cb-policy
    ("policy.get_ns", "ns", "lower"),
    ("policy.insert_ns", "ns", "lower"),
    ("policy.save_mb_per_s", "MB/s", "higher"),
    ("policy.load_mb_per_s", "MB/s", "higher"),
    ("policy.entries", "count", "lower"),
    // cb-workload
    ("workload.windows_per_s", "1/s", "higher"),
    ("workload.offered_per_event", "ratio", "higher"),
    // cb-corpus
    ("corpus.from_report_us", "us", "lower"),
    ("corpus.ingest_mb_per_s", "MB/s", "higher"),
    ("corpus.save_ms", "ms", "lower"),
    ("corpus.load_ms", "ms", "lower"),
    ("corpus.select_us", "us", "lower"),
    ("corpus.top_blame_us", "us", "lower"),
    ("corpus.diff_ms", "ms", "lower"),
    ("corpus.query_ms_p50", "ms", "lower"),
    ("corpus.index_bytes", "B", "lower"),
    // the benchmark itself
    ("bench.trace_overhead_share", "share", "lower"),
    ("bench.rep_iqr_share", "share", "lower"),
    ("bench.nproc", "count", "higher"),
    ("bench.loadavg_start", "count", "lower"),
];

/// Metrics of single layers, printed by a traced run. A metric of a layer
/// the workload does not exercise reads 0.
pub fn per_layer() -> Vec<MetricDef> {
    let def = |name: String, unit, better| MetricDef {
        name,
        unit,
        better,
        bound: None,
    };
    let mut defs: Vec<MetricDef> = LAYERS
        .iter()
        .map(|layer| def(format!("share.{layer}"), "share", "lower"))
        .collect();
    for arm in ARMS {
        defs.push(def(format!("arm.{arm}.seed_ms_p50"), "ms", "lower"));
        defs.push(def(format!("arm.{arm}.ns_per_event"), "ns", "lower"));
    }
    defs.extend(
        PER_LAYER
            .iter()
            .map(|&(name, unit, better)| def(name.to_string(), unit, better)),
    );
    defs
}

fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let list = |rows: Vec<String>| format!("[\n    {}\n  ]", rows.join(",\n    "));
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| format!("{{\"name\": {}, \"why\": {}}}", quote(name), quote(why)))
        .collect();
    let metric = |m: &MetricDef| {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "{{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
            quote(&m.name),
            quote(m.unit),
            quote(m.better)
        )
    };
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.map(quote).join(", "),
        list(workloads),
        list(end_to_end().iter().map(metric).collect()),
        list(per_layer().iter().map(metric).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_harness::Json;

    fn valid_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        s.len() <= 64
            && s.chars().all(ok)
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn committed_benchmark_json_is_the_contract() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `cargo run --release --manifest-path benchmark/Cargo.toml -- --contract`"
        );
        assert!(committed.len() <= 64 * 1024);
        Json::parse(&committed).expect("BENCHMARK.json parses");
    }

    #[test]
    fn tables_stay_inside_the_contract_limits() {
        let (e2e, layers) = (end_to_end(), per_layer());
        assert!((1..=16).contains(&e2e.len()));
        assert!(
            (1..=128).contains(&layers.len()),
            "{} per-layer",
            layers.len()
        );
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names: Vec<&str> = e2e.iter().chain(&layers).map(|m| m.name.as_str()).collect();
        names.extend(WORKLOADS.iter().map(|(n, _)| *n));
        for n in &names {
            assert!(valid_name(n), "bad name {n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in e2e.iter().chain(&layers) {
            assert!(
                m.unit.len() <= 16 && !m.unit.is_empty(),
                "unit of {}",
                m.name
            );
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(["higher", "lower"].contains(&m.better));
        }
        for m in &e2e {
            assert!(
                m.bound.is_some_and(|b| b > 0.0 && b <= 0.25),
                "bound of {}",
                m.name
            );
        }
        let setup = e2e.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        for (name, why) in WORKLOADS {
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why is {} long",
                why.len()
            );
        }
        // 4 + 22 runs per workload, with set-up and two builds, inside 3420 s.
        let runs = 4 + 22 * WORKLOADS.len() as u64;
        assert!(
            runs * (RUN_SECONDS + 8) + 2 * 90 < 3420,
            "{runs} runs do not fit"
        );
    }
}
