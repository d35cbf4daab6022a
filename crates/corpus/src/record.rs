//! One seed's run distilled into a typed, content-addressed record.
//!
//! A record has two sources with one result: a [`RunReport`] in process
//! ([`SeedRecord::from_report`]) and a failure artifact on disk
//! ([`SeedRecord::from_artifact`], over what [`cb_harness::decode_artifact`]
//! read from the artifact's original report). A record is stored only as a
//! row of the corpus index; its canonical JSON rendering
//! ([`SeedRecord::to_json`]) is what its content id hashes and what
//! `corpus query --json` prints.

use crate::fnv1a;
use cb_harness::json::Json;
use cb_harness::scenario::RunReport;
use cb_harness::Artifact;
use cb_telemetry::is_wall_key;
use cb_trace::{blame, Span, SpanKind};
use std::collections::{BTreeMap, BTreeSet};

/// Schema tag of a serialized [`SeedRecord`].
pub const RECORD_SCHEMA: &str = "cb-corpus-record/v1";

/// Everything the corpus keeps from one seed's run: outcome, oracle
/// verdicts, the full (wall-masked) telemetry registry as typed columns,
/// and the provenance blame targets of every violation.
///
/// A record is a pure function of `(scenario, seed, plan)` — wall-clock
/// metrics are blanked at construction — so its content id, and any index
/// built over records, is invariant under ingestion order and campaign
/// worker count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeedRecord {
    /// Scenario name.
    pub scenario: String,
    /// The seed that ran.
    pub seed: u64,
    /// Fault-plan spec string the run used.
    pub plan: String,
    /// Whether every oracle passed.
    pub passed: bool,
    /// Trace fingerprint of the run.
    pub fingerprint: u64,
    /// Total simulator events processed.
    pub events: u64,
    /// Oracle verdicts, sorted by name.
    pub oracles: Vec<(String, bool)>,
    /// Telemetry counters (wall keys present but blanked to 0).
    pub counters: BTreeMap<String, u64>,
    /// Telemetry gauges (wall keys present but blanked to 0).
    pub gauges: BTreeMap<String, i64>,
    /// Telemetry histograms as `(log bucket, count)` pairs, ascending
    /// (wall keys present but blanked to empty).
    pub hists: BTreeMap<String, Vec<(u32, u64)>>,
    /// Names of `Decision` spans reachable from the run's `Violation`
    /// spans by the blame walk — the record's regression-triage hook.
    /// Sorted, deduplicated; empty for passing seeds.
    pub blame: Vec<String>,
}

impl SeedRecord {
    /// Distills a campaign run report into a record. The report's
    /// telemetry is masked ([`cb_telemetry::Registry::masked`]) so the
    /// record is deterministic; blame targets come from walking each
    /// synthesised `Violation` span back to the `Decision` spans on its
    /// causal chain.
    pub fn from_report(report: &RunReport) -> SeedRecord {
        let masked = report.telemetry.masked();
        let counters = masked.counters().map(|(k, v)| (k.to_string(), v)).collect();
        let gauges = masked.gauges().map(|(k, v)| (k.to_string(), v)).collect();
        let hists = masked
            .hists()
            .map(|(k, h)| (k.to_string(), h.buckets().collect()))
            .collect();
        let mut oracles: Vec<(String, bool)> = report
            .verdicts
            .iter()
            .map(|v| (v.name.clone(), v.passed))
            .collect();
        oracles.sort();
        SeedRecord {
            scenario: report.scenario.clone(),
            seed: report.seed,
            plan: report.plan.to_spec(),
            passed: !report.violated(),
            fingerprint: report.fingerprint,
            events: report.events_processed,
            oracles,
            counters,
            gauges,
            hists,
            blame: blame_targets(&report.provenance),
        }
    }

    /// Content id: FNV-64 of the canonical compact JSON rendering. The
    /// index stores it and re-verifies it on load; it deduplicates
    /// re-ingestion.
    pub fn content_id(&self) -> u64 {
        fnv1a(self.to_json().to_string_compact().as_bytes())
    }

    /// Canonical JSON rendering (schema [`RECORD_SCHEMA`]). Key order is
    /// fixed and maps are sorted, so equal records render byte-equal.
    pub fn to_json(&self) -> Json {
        let mut counters = Json::obj();
        for (k, v) in &self.counters {
            counters.set(k.as_str(), *v);
        }
        let mut gauges = Json::obj();
        for (k, v) in &self.gauges {
            gauges.set(k.as_str(), Json::Num(*v as f64));
        }
        let mut hists = Json::obj();
        for (k, pairs) in &self.hists {
            hists.set(
                k.as_str(),
                Json::Arr(
                    pairs
                        .iter()
                        .map(|(b, c)| Json::Arr(vec![Json::Num(*b as f64), Json::Num(*c as f64)]))
                        .collect(),
                ),
            );
        }
        Json::obj()
            .with("schema", RECORD_SCHEMA)
            .with("scenario", self.scenario.as_str())
            // Decimal strings: seeds, fingerprints, and content ids use the
            // full u64 range, beyond the f64-backed number type's 2^53.
            .with("seed", self.seed.to_string())
            .with("plan", self.plan.as_str())
            .with("passed", self.passed)
            .with("fingerprint", self.fingerprint.to_string())
            .with("events", self.events)
            .with(
                "oracles",
                Json::Arr(
                    self.oracles
                        .iter()
                        .map(|(name, passed)| {
                            Json::obj()
                                .with("name", name.as_str())
                                .with("passed", *passed)
                        })
                        .collect(),
                ),
            )
            .with("counters", counters)
            .with("gauges", gauges)
            .with("histograms", hists)
            .with("blame", self.blame.clone())
    }

    /// Distills a campaign **failure artifact**, decoded by
    /// [`cb_harness::decode_artifact`], into a record: the `corpus ingest`
    /// path for artifacts written by sweeps that did not run with
    /// `--corpus`. The record comes from the artifact's original `report`
    /// (not the shrunk one) and is the one [`SeedRecord::from_report`]
    /// distills from that report in process: the telemetry section is
    /// wall-masked here, and blame targets come from the embedded tail.
    pub fn from_artifact(artifact: &Artifact) -> Result<SeedRecord, String> {
        let report = &artifact.report;
        let mut oracles = Vec::new();
        for (name, passed) in &report.oracles {
            let name = name.clone().ok_or("oracle missing 'name'")?;
            oracles.push((name, *passed));
        }
        oracles.sort();
        let telemetry = report
            .telemetry
            .as_ref()
            .ok_or("report missing 'telemetry'")?;
        Ok(SeedRecord {
            scenario: artifact.scenario.clone(),
            seed: artifact.seed,
            plan: artifact.plan.to_spec(),
            passed: oracles.iter().all(|(_, passed)| *passed),
            fingerprint: artifact.fingerprint,
            events: report.events,
            oracles,
            counters: parse_counters(telemetry.get("counters"))?,
            gauges: parse_gauges(telemetry.get("gauges"))?,
            hists: parse_hists(telemetry.get("histograms"))?,
            blame: blame_targets(&artifact.provenance),
        })
    }
}

/// Names of the `Decision` spans on the blame chains of `spans`'
/// `Violation` spans: sorted, deduplicated.
fn blame_targets(spans: &[Span]) -> Vec<String> {
    let mut targets = BTreeSet::new();
    for violation in spans.iter().filter(|s| s.kind == SpanKind::Violation) {
        if let Some(chain) = blame(spans, violation.id) {
            for span in &chain.chain {
                if span.kind == SpanKind::Decision {
                    targets.insert(span.name.clone());
                }
            }
        }
    }
    targets.into_iter().collect()
}

// The artifact's telemetry section, wall-masked as
// `cb_telemetry::Registry::masked` masks a report's registry.

fn parse_counters(section: Option<&Json>) -> Result<BTreeMap<String, u64>, String> {
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

fn parse_gauges(section: Option<&Json>) -> Result<BTreeMap<String, i64>, String> {
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
fn parse_hists(section: Option<&Json>) -> Result<BTreeMap<String, Vec<(u32, u64)>>, String> {
    let mut out = BTreeMap::new();
    if let Some(Json::Obj(entries)) = section {
        for (k, v) in entries {
            if is_wall_key(k) {
                out.insert(k.clone(), Vec::new());
                continue;
            }
            // The bucket array nests under the histogram summary object
            // (absent for an empty histogram).
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

#[cfg(test)]
mod tests {
    use super::*;
    use cb_harness::prelude::*;
    use cb_harness::toy::RingScenario;

    fn failing_report() -> RunReport {
        let s = RingScenario::default();
        let others: Vec<u32> = (0..8u32).filter(|&i| i != 3).collect();
        let plan = FaultPlan::none().partition(&[3], &others, 0, None);
        s.run(40, &plan)
    }

    #[test]
    fn record_is_deterministic_across_reruns() {
        let a = SeedRecord::from_report(&failing_report());
        let b = SeedRecord::from_report(&failing_report());
        assert_eq!(a, b);
        assert_eq!(
            a.to_json().to_string_compact(),
            b.to_json().to_string_compact()
        );
    }

    #[test]
    fn wall_metrics_are_blanked() {
        let record = SeedRecord::from_report(&failing_report());
        for (k, v) in &record.counters {
            if cb_telemetry::is_wall_key(k) {
                assert_eq!(*v, 0, "wall counter '{k}' not masked");
            }
        }
        for (k, pairs) in &record.hists {
            if cb_telemetry::is_wall_key(k) {
                assert!(pairs.is_empty(), "wall histogram '{k}' not masked");
            }
        }
    }

    #[test]
    fn artifact_ingestion_matches_in_process_distillation() {
        let report = failing_report();
        let text = cb_harness::artifact_json(&report, &report.plan).to_string_pretty();
        let artifact = cb_harness::decode_artifact(&text).expect("decode");
        let from_artifact = SeedRecord::from_artifact(&artifact).expect("ingest");
        let from_report = SeedRecord::from_report(&report);
        assert_eq!(from_artifact, from_report);
        assert_eq!(from_artifact.content_id(), from_report.content_id());
    }

    #[test]
    fn failing_record_names_blame_targets() {
        use cb_trace::{Span, SpanId};
        // The ring toy makes no runtime decisions, so plant a Decision span
        // on the violation's causal chain and check the blame walk finds it.
        let mut report = failing_report();
        let d_id = SpanId {
            at_ns: 10,
            node: 0,
            seq: 90_001,
        };
        let v_id = SpanId {
            at_ns: 20,
            node: u32::MAX,
            seq: 90_002,
        };
        report.provenance.push(Span::new(
            d_id,
            SpanKind::Decision,
            "decide:ring.next_hop",
            vec![],
        ));
        report.provenance.push(Span::new(
            v_id,
            SpanKind::Violation,
            "violation:planted",
            vec![d_id],
        ));
        let record = SeedRecord::from_report(&report);
        assert!(record.blame.contains(&"decide:ring.next_hop".to_string()));

        let passing = {
            let s = RingScenario::default();
            s.run(1, &FaultPlan::none())
        };
        assert!(!passing.violated());
        let record = SeedRecord::from_report(&passing);
        assert!(record.passed);
        assert!(record.blame.is_empty());
    }
}
