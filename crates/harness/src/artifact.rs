//! Reading a failure artifact back.
//!
//! [`decode_artifact`] is the one decoder of the `cb-campaign-failure/v1`
//! schema; [`read_artifact`] (replay, the benchmark's `triage-io`) and
//! `cb_corpus` ingestion both go through it. It walks the text once with
//! the [`Reader`] pull cursor: it builds the provenance tail's spans and the
//! handful of fields its callers use, and skips — validating, not building
//! — the rest, including the `shrunk_report`, `last_trace` and `metrics`
//! sections that artifacts written before each fact was stored once still
//! carry. A file it accepts is one [`Json::parse`] accepts.

use crate::campaign::{ReplayError, ARTIFACT_SCHEMA};
use crate::json::{Json, Kind, ParseError, Reader};
use crate::plan::FaultPlan;
use crate::provenance::{read_provenance, ProvenanceSection};
use cb_trace::Span;
use std::borrow::Cow;
use std::path::Path;

/// The parsed essentials of a failure artifact.
#[derive(Clone, Debug)]
pub struct Artifact {
    /// Scenario name recorded in the artifact.
    pub scenario: String,
    /// Failing seed.
    pub seed: u64,
    /// Original plan.
    pub plan: FaultPlan,
    /// Shrunk plan: the 1-minimal repro, for a person to re-run. Replay
    /// runs the original `plan`, the one the recorded tail came from.
    pub shrunk_plan: FaultPlan,
    /// Oracles the artifact says failed.
    pub failing_oracles: Vec<String>,
    /// Fingerprint of the original failing run.
    pub fingerprint: u64,
    /// The embedded flight-recorder tail (empty for artifacts written
    /// before the provenance section existed).
    pub provenance: Vec<Span>,
    /// Total spans the original run's recorders pushed.
    pub spans_recorded: u64,
    /// Spans the original run's bounded rings evicted.
    pub spans_evicted: u64,
    /// The original report's own fields that corpus ingestion distills.
    pub report: ArtifactReport,
}

/// Fields of an artifact's `report` section beyond the fingerprint and the
/// tail, as written: `None` where a field is absent or of another type.
/// Replay reads none of them; `cb_corpus` turns them into a record and
/// refuses an artifact that lacks what a record needs.
#[derive(Clone, Debug, Default)]
pub struct ArtifactReport {
    /// `report.scenario`.
    pub scenario: Option<String>,
    /// `report.seed`.
    pub seed: Option<u64>,
    /// `report.plan`, the spec string.
    pub plan: Option<String>,
    /// `report.events_processed` (0 when absent).
    pub events: u64,
    /// `report.oracles` as `(name, passed)`: the name is `None` for an
    /// entry without a string `name`, and an entry passed only if its
    /// `passed` is `true`. Empty when the section is not an array.
    pub oracles: Vec<(Option<String>, bool)>,
    /// `report.telemetry`, the small registry section, as a tree.
    pub telemetry: Option<Json>,
}

/// Reads and decodes an artifact file (see [`decode_artifact`]).
pub fn read_artifact(path: &Path) -> Result<Artifact, ReplayError> {
    let text = std::fs::read_to_string(path).map_err(ReplayError::Io)?;
    decode_artifact(&text).map_err(ReplayError::Malformed)
}

/// Decodes a `cb-campaign-failure/v1` document, or says why not. Refused:
/// text that is not JSON (anywhere, including skipped sections), another
/// schema, a missing or non-string `scenario`, a missing `seed`, a `plan`
/// or `shrunk_plan` that is not a valid spec, and a malformed
/// `report.provenance`. Tolerated: unknown keys (skipped), and
/// a missing `fingerprint` or `provenance` (read as 0 and an empty tail).
/// Of a key given twice, the first occurrence counts, as with
/// [`Json::get`].
pub fn decode_artifact(text: &str) -> Result<Artifact, String> {
    let mut r = Reader::new(text);
    let fields = read_fields(&mut r).map_err(|e| e.to_string())?;
    r.finish().map_err(|e| e.to_string())?;
    fields.into_artifact()
}

/// The top level's first occurrence of each key the decoder keeps.
#[derive(Default)]
struct Fields<'a> {
    schema: Option<Option<Cow<'a, str>>>,
    scenario: Option<Option<Cow<'a, str>>>,
    seed: Option<Option<u64>>,
    plan: Option<Option<Cow<'a, str>>>,
    shrunk_plan: Option<Option<Cow<'a, str>>>,
    failing_oracles: Option<Vec<String>>,
    report: Option<Report<'a>>,
}

/// The `report` section's first occurrence of each key the decoder keeps.
#[derive(Default)]
struct Report<'a> {
    scenario: Option<Option<Cow<'a, str>>>,
    seed: Option<Option<u64>>,
    plan: Option<Option<Cow<'a, str>>>,
    fingerprint: Option<Option<u64>>,
    events: Option<Option<u64>>,
    oracles: Option<Vec<(Option<String>, bool)>>,
    telemetry: Option<Json>,
    provenance: Option<Result<ProvenanceSection, String>>,
}

fn read_fields<'a>(r: &mut Reader<'a>) -> Result<Fields<'a>, ParseError> {
    let mut f = Fields::default();
    if r.peek()? != Kind::Obj {
        r.skip()?;
        return Ok(f);
    }
    r.begin_obj()?;
    while let Some(key) = r.next_key()? {
        match &*key {
            "schema" => r.first(&mut f.schema, Reader::opt_str)?,
            "scenario" => r.first(&mut f.scenario, Reader::opt_str)?,
            "seed" => r.first(&mut f.seed, Reader::opt_u64)?,
            "plan" => r.first(&mut f.plan, Reader::opt_str)?,
            "shrunk_plan" => r.first(&mut f.shrunk_plan, Reader::opt_str)?,
            "failing_oracles" => r.first(&mut f.failing_oracles, read_strings)?,
            "report" => r.first(&mut f.report, read_report)?,
            // An older artifact's `shrunk_report` among them.
            _ => r.skip()?,
        }
    }
    Ok(f)
}

/// The `report` section (all fields `None` when it is not an object).
fn read_report<'a>(r: &mut Reader<'a>) -> Result<Report<'a>, ParseError> {
    let mut report = Report::default();
    if r.peek()? != Kind::Obj {
        r.skip()?;
        return Ok(report);
    }
    r.begin_obj()?;
    while let Some(key) = r.next_key()? {
        match &*key {
            "scenario" => r.first(&mut report.scenario, Reader::opt_str)?,
            "seed" => r.first(&mut report.seed, Reader::opt_u64)?,
            "plan" => r.first(&mut report.plan, Reader::opt_str)?,
            "fingerprint" => r.first(&mut report.fingerprint, Reader::opt_u64)?,
            "events_processed" => r.first(&mut report.events, Reader::opt_u64)?,
            "oracles" => r.first(&mut report.oracles, read_oracles)?,
            "telemetry" => r.first(&mut report.telemetry, Reader::value)?,
            "provenance" => r.first(&mut report.provenance, read_provenance)?,
            // An older report's `last_trace` and `metrics` among them.
            _ => r.skip()?,
        }
    }
    Ok(report)
}

/// The strings of an array, in order (other items and non-arrays give
/// nothing).
fn read_strings(r: &mut Reader<'_>) -> Result<Vec<String>, ParseError> {
    let mut out = Vec::new();
    if r.peek()? != Kind::Arr {
        r.skip()?;
        return Ok(out);
    }
    r.begin_arr()?;
    while r.next_item()? {
        if let Some(s) = r.opt_str()? {
            out.push(s.into_owned());
        }
    }
    Ok(out)
}

/// `report.oracles` (see [`ArtifactReport::oracles`]).
fn read_oracles(r: &mut Reader<'_>) -> Result<Vec<(Option<String>, bool)>, ParseError> {
    let mut out = Vec::new();
    if r.peek()? != Kind::Arr {
        r.skip()?;
        return Ok(out);
    }
    r.begin_arr()?;
    while r.next_item()? {
        let (mut name, mut passed) = (None, None);
        if r.peek()? == Kind::Obj {
            r.begin_obj()?;
            while let Some(key) = r.next_key()? {
                match &*key {
                    "name" => r.first(&mut name, Reader::opt_str)?,
                    "passed" => r.first(&mut passed, |r| match r.peek()? {
                        Kind::Bool => r.bool(),
                        _ => r.skip().map(|()| false),
                    })?,
                    _ => r.skip()?,
                }
            }
        } else {
            r.skip()?;
        }
        out.push((name.flatten().map(Cow::into_owned), passed == Some(true)));
    }
    Ok(out)
}

impl<'a> Fields<'a> {
    /// Checks what replay needs, in the order the checks were always made.
    fn into_artifact(self) -> Result<Artifact, String> {
        let required = |slot: Option<Option<Cow<'a, str>>>, key: &str| {
            slot.flatten()
                .map(Cow::into_owned)
                .ok_or_else(|| format!("missing '{key}'"))
        };
        let schema = required(self.schema, "schema")?;
        if schema != ARTIFACT_SCHEMA {
            return Err(format!(
                "unknown schema '{schema}' (want '{ARTIFACT_SCHEMA}')"
            ));
        }
        let parse_plan =
            |slot, key| FaultPlan::from_spec(&required(slot, key)?).map_err(|e| e.to_string());
        let plan = parse_plan(self.plan, "plan")?;
        let shrunk_plan = parse_plan(self.shrunk_plan, "shrunk_plan")?;
        let seed = self.seed.flatten().ok_or("missing 'seed'")?;
        let report = self.report.unwrap_or_default();
        let provenance = report.provenance.transpose()?.unwrap_or_default();
        Ok(Artifact {
            scenario: required(self.scenario, "scenario")?,
            seed,
            plan,
            shrunk_plan,
            failing_oracles: self.failing_oracles.unwrap_or_default(),
            fingerprint: report.fingerprint.flatten().unwrap_or(0),
            provenance: provenance.spans,
            spans_recorded: provenance.recorded,
            spans_evicted: provenance.evicted,
            report: ArtifactReport {
                scenario: report.scenario.flatten().map(Cow::into_owned),
                seed: report.seed.flatten(),
                plan: report.plan.flatten().map(Cow::into_owned),
                events: report.events.flatten().unwrap_or(0),
                oracles: report.oracles.unwrap_or_default(),
                telemetry: report.telemetry,
            },
        })
    }
}
