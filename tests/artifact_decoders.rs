//! The two decoders a red seed's artifact goes through — `read_artifact`
//! (replay) and `Corpus::ingest_dir` (corpus) — against one real kv artifact:
//!
//! 1. Golden bytes: the file `write_artifact` streams equals the artifact
//!    tree rendered pretty plus a newline, and the compact text sink equals
//!    the tree rendered compact (one shape, two sinks).
//! 2. Damage: truncated at a random byte, one bit flipped, two halves
//!    spliced, or nested deeper than any stack — both decoders return `Ok` or
//!    `Err`, never panic, overflow the stack or hang; and each agrees with
//!    [`reference`], the tree-building decoders they replaced, on `Ok`/`Err`
//!    and on the value. The streaming decoder skips every section it does
//!    not build, so this is what shows that skipping weakened no check.
//! 3. A whole `--unsafe-reads` sweep with shrinking on: its artifacts ingest
//!    to exactly the records the sweep's red reports distill to in process.
//! 4. Every shape: a new (v2) artifact is three keys, its report the one
//!    copy of scenario, seed, plan, arm and verdicts; a v1 artifact (the
//!    four top-level copies back and no arm) and one in the oldest shape
//!    (which also carried the shrunk run's report, a rendered `last_trace`
//!    and a `metrics` copy of the `net.*` counters) still decode to the
//!    same artifact minus the arm, replay with the arm given, and ingest
//!    to exactly the index the new one does.

use cb_bench::registry::{configure, ArmSpec};
use cb_corpus::{Corpus, SeedRecord};
use cb_harness::prelude::*;
use cb_harness::{
    artifact_json, decode_artifact, emit_artifact, write_artifact, Artifact, TextSink,
};
use cb_kv::KvCampaign;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cb-decoders-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The kv arm with unguarded reads.
fn unsafe_reads() -> ArmSpec {
    ArmSpec {
        unsafe_reads: true,
        ..ArmSpec::default()
    }
}

/// kv with unguarded reads, built by the registry (so its reports record
/// the arm), seed 3: red on `kv.linearizable`, shrunk to no faults, a
/// 2 000-span tail per report.
fn red_kv() -> (RunReport, FaultPlan, RunReport) {
    let scenario = configure("kv", &unsafe_reads()).unwrap();
    let report = scenario.run(3, &scenario.default_plan(3));
    assert_eq!(report.failing_oracles(), vec!["kv.linearizable"]);
    let (shrunk, shrunk_report) = shrink_plan(scenario.as_ref(), 3, &report.plan, &report);
    assert!(shrunk.is_empty(), "the planted stale read needs no fault");
    (report, shrunk, shrunk_report)
}

/// The bytes of that artifact, written once.
fn kv_artifact() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let (report, shrunk, shrunk_report) = red_kv();
        let dir = temp_dir("source");
        let path = write_artifact(&dir, &report, &shrunk, &shrunk_report).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    })
}

#[test]
fn streamed_kv_artifact_equals_the_rendered_tree() {
    let (report, shrunk, shrunk_report) = red_kv();
    let tree = artifact_json(&report, &shrunk);
    let dir = temp_dir("golden");
    let path = write_artifact(&dir, &report, &shrunk, &shrunk_report).unwrap();
    let streamed = std::fs::read_to_string(&path).unwrap();
    assert!(streamed.len() > 300_000, "a kv artifact is about 0.6 MB");
    assert!(streamed == tree.to_string_pretty() + "\n", "pretty differs");
    let mut compact = TextSink::new(Vec::new(), false);
    emit_artifact(&report, &shrunk, &mut compact);
    assert!(
        compact.finish().unwrap() == tree.to_string_compact().into_bytes(),
        "compact differs"
    );
    // And the undamaged file goes through both decoders.
    let artifact = read_artifact(&path).expect("reads");
    assert_eq!(artifact.fingerprint, report.fingerprint);
    assert_eq!(artifact.provenance.len(), report.provenance.len());
    let mut corpus = Corpus::new();
    assert_eq!(corpus.ingest_dir(&dir).expect("ingests"), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The artifact fields replay reads, the way the tree decoder returned
/// them.
fn replay_fields(a: &Artifact) -> String {
    format!(
        "{:?}",
        (
            &a.scenario,
            a.seed,
            &a.plan,
            &a.shrunk_plan,
            &a.failing_oracles,
            a.fingerprint,
            &a.provenance,
            a.spans_recorded,
            a.spans_evicted,
            &a.arm
        )
    )
}

#[test]
fn a_new_artifact_holds_one_report_and_no_repeated_section() {
    let text = std::str::from_utf8(kv_artifact()).expect("utf-8");
    let tree = Json::parse(text).expect("parses");
    let Json::Obj(fields) = &tree else {
        panic!("an artifact is an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["schema", "shrunk_plan", "report"]);
    assert_eq!(
        tree.get("report").and_then(|r| r.get("arm")),
        Some(&Json::obj().with("unsafe-reads", true)),
        "the report names its arm"
    );
    /// Every object key in `j`, at any depth.
    fn all_keys<'a>(j: &'a Json, out: &mut Vec<&'a str>) {
        match j {
            Json::Obj(fields) => {
                for (k, v) in fields {
                    out.push(k);
                    all_keys(v, out);
                }
            }
            Json::Arr(items) => items.iter().for_each(|v| all_keys(v, out)),
            _ => {}
        }
    }
    let mut found = Vec::new();
    all_keys(&tree, &mut found);
    for gone in ["shrunk_report", "last_trace", "metrics"] {
        assert!(!found.contains(&gone), "the artifact still has '{gone}'");
    }
}

/// Inserts `key: value` into the object `obj` just before the key
/// `before`, or at the end.
fn insert_before(obj: &mut Json, before: Option<&str>, key: &str, value: Json) {
    let Json::Obj(fields) = obj else {
        panic!("not an object");
    };
    let at = before.map_or(fields.len(), |b| {
        fields
            .iter()
            .position(|(k, _)| k == b)
            .unwrap_or_else(|| panic!("no '{b}'"))
    });
    fields.insert(at, (key.to_string(), value));
}

/// `report` as artifacts wrote it when a report also carried a `metrics`
/// copy of the `net.*` counters and its newest 40 tail spans as rendered
/// `last_trace` lines.
fn old_shape_report(report: &RunReport) -> Json {
    use cb_telemetry::keys;
    let mut tree = report.to_json();
    let counter = |key| report.telemetry.counter(key);
    let metrics = Json::obj()
        .with("msgs_sent", counter(keys::NET_MSGS_SENT))
        .with("msgs_delivered", counter(keys::NET_MSGS_DELIVERED))
        .with("msgs_dropped", counter(keys::NET_MSGS_DROPPED))
        .with("bytes_sent", counter(keys::NET_BYTES_SENT));
    insert_before(&mut tree, Some("telemetry"), "metrics", metrics);
    let spans: Vec<_> = report
        .provenance
        .iter()
        .filter(|s| s.kind != cb_trace::SpanKind::Violation)
        .collect();
    let lines = spans[spans.len().saturating_sub(40)..]
        .iter()
        .map(|s| Json::from(format!("{} {} {}", s.id, s.kind.label(), s.name)))
        .collect();
    insert_before(
        &mut tree,
        Some("provenance"),
        "last_trace",
        Json::Arr(lines),
    );
    tree
}

/// `new`, a v2 artifact, in the v1 shape: the v1 schema, the report's
/// scenario, seed, plan and failing oracles copied to the top level, and
/// no `report.arm`.
fn v1_shape(new: &Json, report: &RunReport) -> Json {
    let mut v1 = new.clone();
    let Json::Obj(fields) = &mut v1 else {
        panic!("an artifact is an object");
    };
    for (key, value) in fields.iter_mut() {
        match (key.as_str(), value) {
            ("schema", value) => *value = Json::from("cb-campaign-failure/v1"),
            ("report", Json::Obj(section)) => section.retain(|(k, _)| k != "arm"),
            _ => {}
        }
    }
    let failing: Vec<String> = report
        .failing_oracles()
        .iter()
        .map(|s| s.to_string())
        .collect();
    for (key, value) in [
        ("scenario", Json::from(report.scenario.as_str())),
        ("seed", Json::from(report.seed.to_string())),
        ("plan", Json::from(report.plan.to_spec())),
    ] {
        insert_before(&mut v1, Some("shrunk_plan"), key, value);
    }
    insert_before(&mut v1, Some("report"), "failing_oracles", failing.into());
    v1
}

#[test]
fn an_old_shape_artifact_decodes_and_ingests_like_a_new_one() {
    let (report, shrunk, shrunk_report) = red_kv();
    let new = artifact_json(&report, &shrunk);
    let v1 = v1_shape(&new, &report);
    let mut oldest = v1.clone();
    if let Json::Obj(fields) = &mut oldest {
        let (_, section) = fields
            .iter_mut()
            .find(|(k, _)| k == "report")
            .expect("a report section");
        let mut unarmed = report.clone();
        unarmed.arm = None;
        *section = old_shape_report(&unarmed);
    }
    insert_before(
        &mut oldest,
        None,
        "shrunk_report",
        old_shape_report(&shrunk_report),
    );
    let [new, v1, oldest] = [new, v1, oldest].map(|tree| tree.to_string_pretty() + "\n");
    assert!(
        oldest.len() > new.len() * 3 / 2,
        "the oldest shape carries two reports"
    );

    let decoded = decode_artifact(&new).expect("the new shape decodes");
    assert_eq!(decoded.arm, Some(unsafe_reads().to_json("kv")));
    let mut unarmed = decoded.clone();
    unarmed.arm = None;
    for (tag, text) in [("v1", &v1), ("oldest", &oldest)] {
        let old = decode_artifact(text).unwrap_or_else(|e| panic!("{tag}: {e}"));
        assert_eq!(format!("{old:?}"), format!("{unarmed:?}"), "{tag}");
        assert_eq!(
            reference::read_artifact(text),
            Ok(replay_fields(&unarmed)),
            "{tag}"
        );
        assert_eq!(reference::record(text), reference::record(&new), "{tag}");
        // No arm recorded: it replays in the arm its caller gives.
        let scenario = configure("kv", &unsafe_reads()).unwrap();
        let replayed = replay_artifact(scenario.as_ref(), &old).expect("replays");
        assert_eq!(replayed.fingerprint, decoded.fingerprint, "{tag}");
    }

    let index = |text: &str, tag: &str| {
        let dir = temp_dir(tag);
        std::fs::write(dir.join("kv-seed3.json"), text).unwrap();
        let mut corpus = Corpus::new();
        assert_eq!(corpus.ingest_dir(&dir).expect("ingests"), 1, "{tag}");
        let _ = std::fs::remove_dir_all(&dir);
        corpus.index_bytes()
    };
    let want = index(&new, "new-shape");
    assert!(index(&v1, "v1-shape") == want);
    assert!(index(&oldest, "oldest-shape") == want);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn damaged_artifacts_are_refused_not_fatal(kind in 0u32..4, a in any::<u64>(), b in any::<u64>()) {
        let whole = kv_artifact();
        let at = |x: u64| (x % whole.len() as u64) as usize;
        let damaged: Vec<u8> = match kind {
            0 => whole[..at(a)].to_vec(),
            1 => {
                let mut bytes = whole.to_vec();
                bytes[at(a)] ^= 1 << (b % 8);
                bytes
            }
            2 => [&whole[..at(a)], &whole[at(b)..]].concat(),
            _ => {
                let mut bytes = br#"{"schema":"cb-campaign-failure/v1","x":"#.to_vec();
                let opener = if b % 2 == 0 { &b"["[..] } else { &br#"{"k":"#[..] };
                bytes.extend(opener.repeat(129 + (a % 200_000) as usize));
                bytes
            }
        };
        let dir = temp_dir("damaged");
        let path = dir.join("kv-seed3.json");
        std::fs::write(&path, &damaged).unwrap();
        // Either answer is fine; coming back is the property.
        let read = read_artifact(&path);
        let mut corpus = Corpus::new();
        let ingested = corpus.ingest_dir(&dir);
        if kind == 3 {
            prop_assert!(read.is_err() && ingested.is_err(), "deep nesting must be refused");
        }
        // And the answer is the one the tree decoders gave. (Text that is
        // not UTF-8 never reaches either: reading the file refuses it.)
        if let Ok(text) = std::str::from_utf8(&damaged) {
            let want = reference::read_artifact(text);
            prop_assert_eq!(
                read.as_ref().map(replay_fields).map_err(|_| ()),
                want.clone().map_err(|_| ()),
                "read_artifact differs from the tree decoder"
            );
            let record = want.and_then(|_| reference::record(text));
            prop_assert_eq!(ingested.is_ok(), record.is_ok(), "ingest differs: {:?}", record);
            if let Ok(record) = record {
                let got = corpus.iter().next().expect("one record");
                prop_assert_eq!(got, &record);
                prop_assert_eq!(got.content_id(), record.content_id());
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_shrunk_sweep_reingests_to_the_records_of_its_red_reports() {
    let dir = temp_dir("sweep");
    let scenario = KvCampaign {
        unsafe_reads: true,
        ..KvCampaign::default()
    };
    let outcome = run_campaign(
        &scenario,
        &CampaignConfig {
            base_seed: 2,
            seeds: 8,
            check_determinism: false,
            artifact_dir: Some(dir.clone()),
            ..CampaignConfig::default()
        },
    );
    assert!(outcome.failures.len() >= 4, "{}", outcome.summary_line());
    let mut corpus = Corpus::new();
    assert_eq!(
        corpus.ingest_dir(&dir).expect("ingests"),
        outcome.failures.len()
    );
    let mut records = corpus.iter();
    for failure in &outcome.failures {
        // Shrinking changed the plan; the record is still the original run's.
        assert_ne!(failure.shrunk_plan, failure.report.plan);
        let want = SeedRecord::from_report(&failure.report);
        let got = records.next().expect("a record per red seed");
        assert_eq!(got, &want, "seed {}", failure.report.seed);
        assert_eq!(got.content_id(), want.content_id());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The decoders the streaming one replaced: parse the whole document into
/// a tree, then look fields up. The oracle for the damage test, under the
/// v2 rule: scenario, seed, plan and failing oracles come from the report,
/// v1 and v2 schemas are both read, and a record's plan is the parsed plan
/// rendered again.
mod reference {
    use cb_corpus::SeedRecord;
    use cb_harness::{FaultPlan, Json, ARTIFACT_SCHEMA};
    use cb_telemetry::is_wall_key;
    use cb_trace::{blame, Span, SpanId, SpanKind};
    use std::collections::BTreeMap;

    /// The schemas the decoder reads.
    fn known_schema(schema: &str) -> bool {
        schema == ARTIFACT_SCHEMA || schema == "cb-campaign-failure/v1"
    }

    /// The replay fields of `read_artifact`, as `super::replay_fields`
    /// renders them: everything but the shrunk plan from the report.
    pub fn read_artifact(text: &str) -> Result<String, String> {
        let json = Json::parse(text).map_err(|e| format!("{e}"))?;
        let schema = json
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing 'schema'")?;
        if !known_schema(schema) {
            return Err(format!("unknown schema '{schema}'"));
        }
        let report = json.get("report");
        let get_str = |section: Option<&Json>, key: &str| -> Result<String, String> {
            section
                .and_then(|s| s.get(key))
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing '{key}'"))
        };
        let plan = FaultPlan::from_spec(&get_str(report, "plan")?).map_err(|e| format!("{e}"))?;
        let shrunk_plan = FaultPlan::from_spec(&get_str(Some(&json), "shrunk_plan")?)
            .map_err(|e| format!("{e}"))?;
        let seed = report
            .and_then(|r| r.get("seed"))
            .and_then(Json::as_u64)
            .ok_or("missing 'seed'")?;
        let scenario = get_str(report, "scenario")?;
        let failing_oracles: Vec<String> = report
            .and_then(|r| r.get("oracles"))
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .filter(|o| !matches!(o.get("passed"), Some(Json::Bool(true))))
            .filter_map(|o| o.get("name").and_then(Json::as_str))
            .map(str::to_string)
            .collect();
        let fingerprint = report
            .and_then(|r| r.get("fingerprint"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        let prov_section = report.and_then(|r| r.get("provenance"));
        let provenance = match prov_section {
            Some(section) => parse_provenance(section)?,
            None => Vec::new(),
        };
        let prov_u64 = |key: &str| -> u64 {
            prov_section
                .and_then(|s| s.get(key))
                .and_then(Json::as_str)
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        };
        Ok(format!(
            "{:?}",
            (
                &scenario,
                seed,
                &plan,
                &shrunk_plan,
                &failing_oracles,
                fingerprint,
                &provenance,
                prov_u64("recorded"),
                prov_u64("evicted"),
                &report.and_then(|r| r.get("arm")).cloned()
            )
        ))
    }

    /// `SeedRecord::from_artifact_json`.
    pub fn record(text: &str) -> Result<SeedRecord, String> {
        let artifact = Json::parse(text).map_err(|e| format!("{e}"))?;
        let schema = artifact
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("artifact missing 'schema'")?;
        if !known_schema(schema) {
            return Err(format!("unknown artifact schema '{schema}'"));
        }
        let report = artifact.get("report").ok_or("artifact missing 'report'")?;
        let mut oracles = Vec::new();
        let mut passed = true;
        for o in report
            .get("oracles")
            .and_then(Json::as_array)
            .unwrap_or(&[])
        {
            let name = o
                .get("name")
                .and_then(Json::as_str)
                .ok_or("oracle missing 'name'")?;
            let ok = matches!(o.get("passed"), Some(Json::Bool(true)));
            passed &= ok;
            oracles.push((name.to_string(), ok));
        }
        oracles.sort();
        let telemetry = report
            .get("telemetry")
            .ok_or("report missing 'telemetry'")?;
        let spans = match report.get("provenance") {
            Some(section) => parse_provenance(section)?,
            None => Vec::new(),
        };
        let mut targets: std::collections::BTreeSet<String> = Default::default();
        for violation in spans.iter().filter(|s| s.kind == SpanKind::Violation) {
            if let Some(chain) = blame(&spans, violation.id) {
                for span in &chain.chain {
                    if span.kind == SpanKind::Decision {
                        targets.insert(span.name.clone());
                    }
                }
            }
        }
        let get_str = |key: &str| -> Result<String, String> {
            report
                .get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("report missing '{key}'"))
        };
        Ok(SeedRecord {
            scenario: get_str("scenario")?,
            seed: report
                .get("seed")
                .and_then(Json::as_u64)
                .ok_or("report missing 'seed'")?,
            plan: FaultPlan::from_spec(&get_str("plan")?)
                .map_err(|e| format!("{e}"))?
                .to_spec(),
            passed,
            fingerprint: report
                .get("fingerprint")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            events: report
                .get("events_processed")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            oracles,
            counters: counters(telemetry.get("counters"))?,
            gauges: gauges(telemetry.get("gauges"))?,
            hists: hists(telemetry.get("histograms"))?,
            blame: targets.into_iter().collect(),
        })
    }

    fn counters(section: Option<&Json>) -> Result<BTreeMap<String, u64>, String> {
        let mut out = BTreeMap::new();
        if let Some(Json::Obj(entries)) = section {
            for (k, v) in entries {
                let v = v
                    .as_u64()
                    .ok_or_else(|| format!("counter '{k}' is not a u64"))?;
                out.insert(k.clone(), if is_wall_key(k) { 0 } else { v });
            }
        }
        Ok(out)
    }

    fn gauges(section: Option<&Json>) -> Result<BTreeMap<String, i64>, String> {
        let mut out = BTreeMap::new();
        if let Some(Json::Obj(entries)) = section {
            for (k, v) in entries {
                let v = v
                    .as_f64()
                    .ok_or_else(|| format!("gauge '{k}' is not a number"))?;
                out.insert(k.clone(), if is_wall_key(k) { 0 } else { v as i64 });
            }
        }
        Ok(out)
    }

    #[allow(clippy::type_complexity)]
    fn hists(section: Option<&Json>) -> Result<BTreeMap<String, Vec<(u32, u64)>>, String> {
        let mut out = BTreeMap::new();
        if let Some(Json::Obj(entries)) = section {
            for (k, v) in entries {
                if is_wall_key(k) {
                    out.insert(k.clone(), Vec::new());
                    continue;
                }
                let buckets = v.get("buckets").and_then(Json::as_array).unwrap_or(&[]);
                let mut pairs = Vec::with_capacity(buckets.len());
                for pair in buckets {
                    let p = pair
                        .as_array()
                        .filter(|p| p.len() == 2)
                        .ok_or_else(|| format!("histogram '{k}': malformed bucket pair"))?;
                    let b = p[0]
                        .as_u64()
                        .ok_or_else(|| format!("histogram '{k}': bad bucket index"))?;
                    let c = p[1]
                        .as_u64()
                        .ok_or_else(|| format!("histogram '{k}': bad bucket count"))?;
                    pairs.push((b as u32, c));
                }
                out.insert(k.clone(), pairs);
            }
        }
        Ok(out)
    }

    fn parse_provenance(j: &Json) -> Result<Vec<Span>, String> {
        let schema = j
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("provenance missing 'schema'")?;
        if schema != "cb-provenance/v1" {
            return Err(format!("unknown provenance schema '{schema}'"));
        }
        j.get("spans")
            .and_then(Json::as_array)
            .ok_or_else(|| "provenance missing 'spans'".to_string())?
            .iter()
            .map(span_from_json)
            .collect()
    }

    fn field_u64(j: &Json, key: &str) -> u64 {
        match j.get(key) {
            Some(Json::Str(s)) => s.parse().unwrap_or(0),
            Some(v) => v.as_u64().unwrap_or(0),
            None => 0,
        }
    }

    fn span_from_json(j: &Json) -> Result<Span, String> {
        let id: SpanId = j
            .get("id")
            .and_then(Json::as_str)
            .ok_or("span missing 'id'")?
            .parse()?;
        let kind_label = j
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("span missing 'kind'")?;
        let kind = SpanKind::parse(kind_label)
            .ok_or_else(|| format!("unknown span kind '{kind_label}'"))?;
        let name = j
            .get("name")
            .and_then(Json::as_str)
            .ok_or("span missing 'name'")?
            .to_string();
        let mut parents = Vec::new();
        for p in j
            .get("parents")
            .and_then(Json::as_array)
            .ok_or("span missing 'parents'")?
        {
            parents.push(p.as_str().ok_or("non-string parent id")?.parse()?);
        }
        let mut span = Span::new(id, kind, name, parents);
        span.sim_cost_us = field_u64(j, "sim_cost_us");
        span.wall_ns = field_u64(j, "wall_ns");
        if let Some(Json::Obj(pairs)) = j.get("attrs") {
            for (k, v) in pairs {
                if let Some(text) = v.as_str() {
                    span.attrs.push((k.clone(), text.to_string()));
                }
            }
        }
        Ok(span)
    }
}
