//! The scenario abstraction and per-run reports.
//!
//! A [`Scenario`] packages one protocol experiment — topology construction,
//! actor wiring, workload, fault application, and invariant oracles — behind
//! a uniform interface so the campaign runner can sweep seeds over any of
//! them. Every registered scenario implements it in its crate's `campaign`
//! module (randtree, gossip, paxos, dissem, kv; mencius in
//! `cb_paxos::mencius`); the harness ships the ring toy for its own tests
//! (see `toy.rs`). What scenarios share lives here and beside it — the
//! replica-group plan ([`FaultPlan::replica_group`]), the quiescence and
//! linearizability verdicts, one report constructor
//! ([`RunReport::from_sim`]) — so a `run` body holds only its fleet, its
//! drive salt and its own oracles.

use crate::json::{Json, Sink};
use crate::oracle::OracleVerdict;
use crate::plan::FaultPlan;
use crate::provenance::{self, emit_provenance, provenance_json};
use crate::telemetry::emit_telemetry;
use cb_simnet::prelude::{Actor, Sim, SimTime};
use cb_telemetry::{keys, Registry};
use cb_trace::Span;

/// Everything the campaign runner keeps from one seed's run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Scenario name.
    pub scenario: String,
    /// The seed the run used.
    pub seed: u64,
    /// The fault plan that was applied.
    pub plan: FaultPlan,
    /// The arm the scenario was configured as, as its constructor records
    /// it (`cb_bench::registry` stamps every scenario it builds); `None`
    /// for a scenario built directly.
    pub arm: Option<Json>,
    /// Trace fingerprint at the end of the run — equal seeds and plans must
    /// produce equal fingerprints.
    pub fingerprint: u64,
    /// Total simulator events processed.
    pub events_processed: u64,
    /// Events still queued when the run stopped (nonzero = hit the horizon
    /// before quiescing).
    pub pending_events: usize,
    /// Sim clock when the run settled.
    pub end: SimTime,
    /// All oracle verdicts, scenario-specific first, generic last.
    pub verdicts: Vec<OracleVerdict>,
    /// The flight-recorder tail: the last spans of every node's recorder,
    /// closed over retained causal parents, plus one synthesised
    /// `Violation` span per failing oracle. Deterministic except for each
    /// span's `wall_ns`.
    pub provenance: Vec<Span>,
    /// Full telemetry registry for the run, handed to
    /// [`RunReport::from_sim`]: the standard schema pre-registered, the
    /// `net.*` traffic summary and the `trace.spans_{recorded,evicted}`
    /// totals ([`Sim::telemetry`]), plus every node's registry for runtime
    /// fleets (`cb_core::runtime::fleet_telemetry`). The report's only copy
    /// of those counts.
    pub telemetry: Registry,
    /// The policy store this run recorded (scenarios running with
    /// `--record-policy` set it); the campaign runner merges per-seed
    /// stores deterministically.
    pub policy: Option<cb_policy::PolicyStore>,
}

impl RunReport {
    /// Builds a report by inspecting a finished sim: `verdicts` are every
    /// oracle result in report order, `telemetry` the run's registry
    /// ([`Sim::telemetry`], or a runtime fleet's
    /// `cb_core::runtime::fleet_telemetry`). Snapshots the flight-recorder
    /// tail.
    pub fn from_sim<A: Actor>(
        scenario: &str,
        seed: u64,
        plan: &FaultPlan,
        sim: &Sim<A>,
        verdicts: Vec<OracleVerdict>,
        telemetry: Registry,
    ) -> Self {
        let failed = verdicts.iter().any(|v| !v.passed);
        // Decision provenance: the flight-recorder tail rides every report;
        // failing runs additionally get one Violation span per failing
        // oracle, anchored to the last span (and last decision) per node.
        let mut provenance =
            provenance::collect_tail(sim.flight_recorders(), provenance::TAIL_PER_NODE);
        if failed {
            let failing: Vec<(String, String)> = verdicts
                .iter()
                .filter(|v| !v.passed)
                .map(|v| (v.name.clone(), v.detail.clone()))
                .collect();
            provenance.extend(provenance::violation_spans(sim, &failing));
        }
        RunReport {
            scenario: scenario.to_string(),
            seed,
            plan: plan.clone(),
            arm: None,
            fingerprint: sim.trace().fingerprint(),
            events_processed: sim.events_processed(),
            pending_events: sim.pending_events(),
            end: sim.now(),
            verdicts,
            provenance,
            telemetry,
            policy: None,
        }
    }

    /// Spans the fleet's recorders pushed and spans their bounded rings
    /// evicted (the tail may be incomplete when nonzero), from telemetry.
    pub(crate) fn span_totals(&self) -> (u64, u64) {
        (
            self.telemetry.counter(keys::TRACE_SPANS_RECORDED),
            self.telemetry.counter(keys::TRACE_SPANS_EVICTED),
        )
    }

    /// Whether any oracle failed.
    pub fn violated(&self) -> bool {
        self.verdicts.iter().any(|v| !v.passed)
    }

    /// Names of failing oracles.
    pub fn failing_oracles(&self) -> Vec<&str> {
        self.verdicts
            .iter()
            .filter(|v| !v.passed)
            .map(|v| v.name.as_str())
            .collect()
    }

    /// Emits the report's document shape (the `report` section of failure
    /// artifacts).
    pub fn emit(&self, sink: &mut dyn Sink) {
        sink.begin_obj();
        sink.key("scenario");
        sink.str(&self.scenario);
        // Decimal strings: u64 values survive the f64-backed JSON number
        // type only up to 2^53.
        sink.key("seed");
        sink.display(&self.seed);
        sink.key("plan");
        sink.str(&self.plan.to_spec());
        if let Some(arm) = &self.arm {
            sink.key("arm");
            arm.emit(sink);
        }
        sink.key("fingerprint");
        sink.display(&self.fingerprint);
        sink.key("events_processed");
        sink.num(self.events_processed as f64);
        sink.key("pending_events");
        sink.num(self.pending_events as f64);
        sink.key("end_ms");
        sink.num(self.end.as_millis() as f64);
        sink.key("telemetry");
        emit_telemetry(&self.telemetry, sink);
        sink.key("oracles");
        sink.begin_arr();
        for v in &self.verdicts {
            sink.begin_obj();
            sink.key("name");
            sink.str(&v.name);
            sink.key("passed");
            sink.bool(v.passed);
            sink.key("detail");
            sink.str(&v.detail);
            sink.end_obj();
        }
        sink.end_arr();
        sink.key("provenance");
        let (recorded, evicted) = self.span_totals();
        emit_provenance(&self.provenance, recorded, evicted, false, sink);
        if let Some(policy) = &self.policy {
            sink.key("policy");
            policy_json(policy).emit(sink);
        }
        sink.end_obj();
    }

    /// Serializes the report as a tree (see [`RunReport::emit`]).
    pub fn to_json(&self) -> Json {
        Json::build(|sink| self.emit(sink))
    }

    /// The `provenance` section with every span's wall clock blanked —
    /// byte-identical across replays of the same `(scenario, seed, plan)`.
    pub fn provenance_masked_json(&self) -> Json {
        let (recorded, evicted) = self.span_totals();
        provenance_json(&self.provenance, recorded, evicted, true)
    }
}

/// One registered experiment the campaign runner can sweep.
///
/// Implementations must be deterministic: `run(seed, plan)` twice must
/// produce reports with identical fingerprints (the runner enforces this).
pub trait Scenario: Sync + Send {
    /// Short unique name used on the CLI and in artifact paths.
    fn name(&self) -> &'static str;

    /// How many hosts the scenario's topology has (lets callers build valid
    /// fault plans without constructing the scenario).
    fn node_count(&self) -> usize;

    /// The default fault plan for a given seed — what the campaign injects
    /// when the user does not supply an explicit plan.
    fn default_plan(&self, seed: u64) -> FaultPlan;

    /// Runs the scenario once under `plan` and reports.
    fn run(&self, seed: u64, plan: &FaultPlan) -> RunReport;
}

/// Schema tag of the `policy` section inside reports and artifacts.
pub const POLICY_SCHEMA: &str = "cb-policy/v1";

/// Serializes a recorded policy store's summary: scenario, entry count, and
/// the content id that doubles as the on-disk checksum — enough for CI to
/// assert cross-worker determinism without embedding every entry.
pub fn policy_json(store: &cb_policy::PolicyStore) -> Json {
    Json::obj()
        .with("schema", POLICY_SCHEMA)
        .with("scenario", store.scenario())
        .with("entries", store.len() as u64)
        // Decimal string: content ids use the full u64 range, beyond the
        // f64-backed JSON number type's 2^53.
        .with("content_id", store.content_id().to_string())
}
