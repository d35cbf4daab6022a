//! # cb-harness — deterministic multi-seed simulation campaigns
//!
//! The paper's pitch is that a single development substrate — deployment,
//! simulation, model checking — makes distributed systems debuggable. This
//! crate is the *campaign* layer on top of the `cb-simnet` simulator: run a
//! protocol scenario across many seeds in parallel, compose fault schedules
//! declaratively, check invariant oracles, and when something breaks, leave
//! behind everything needed to debug it:
//!
//! * a **JSON failure artifact** (seed, fault plan, oracle verdicts,
//!   telemetry, the flight-recorder tail) under `results/campaigns/`;
//! * an **exact replay** path — the artifact's `seed` + `plan` spec string
//!   rebuild the identical run, fingerprint and all;
//! * a **shrunk plan** — the shrinker drops chunks of faults, then single
//!   faults to a fixpoint, while the violation persists, so the artifact
//!   names a 1-minimal repro.
//!
//! Layout:
//!
//! * [`plan`] — declarative [`FaultPlan`]s (crash/restart, partitions,
//!   loss windows, churn) with a round-trippable spec string.
//! * [`oracle`] — the [`Oracle`] trait and [`OracleVerdict`]s.
//! * [`linearizability`] — per-key WGL-style history checking (plus the
//!   brute-force ground truth it is differentially tested against).
//! * [`scenario`] — the [`Scenario`] trait and per-run [`RunReport`]s.
//! * [`campaign`] — the parallel sweep, shrinking, artifacts, replay.
//! * [`artifact`] — the one decoder of failure artifacts, for replay and
//!   corpus ingestion alike.
//! * [`json`] — a dependency-free JSON writer, tree parser and pull reader.
//! * [`toy`] — a tiny ring-heartbeat scenario used by the harness's own
//!   tests (and handy as an implementation template).
//!
//! # Quick example
//!
//! ```
//! use cb_harness::prelude::*;
//! use cb_harness::toy::RingScenario;
//!
//! let scenario = RingScenario::default();
//! let cfg = CampaignConfig {
//!     seeds: 4,
//!     artifact_dir: None, // keep doctests filesystem-clean
//!     ..CampaignConfig::default()
//! };
//! let outcome = run_campaign(&scenario, &cfg);
//! assert!(outcome.all_passed(), "{}", outcome.summary_line());
//! ```

#![warn(missing_docs)]

pub mod artifact;
pub mod campaign;
pub mod json;
pub mod linearizability;
pub mod oracle;
pub mod overload;
pub mod plan;
pub mod provenance;
pub mod scenario;
pub mod telemetry;
pub mod toy;

pub use artifact::{decode_artifact, read_artifact, Artifact};
pub use campaign::{
    artifact_json, emit_artifact, in_order, replay_artifact, run_campaign, shrink_plan,
    write_artifact, CampaignConfig, CampaignOutcome, Failure, ReplayError, TailDifference,
    ARTIFACT_SCHEMA,
};
pub use json::{Json, Sink, TextSink, TreeSink};
pub use linearizability::{
    brute_force_check, check_history, linearizability_verdict, synthetic_history, wgl_check,
    LinViolation, Op, OpKind, INIT_VALUE,
};
pub use oracle::{check_all, Oracle, OracleVerdict};
pub use plan::{Fault, FaultPlan, PlanParseError};
pub use provenance::{provenance_json, read_provenance, span_json, ProvenanceSection};
pub use scenario::{RunReport, Scenario};
pub use telemetry::telemetry_json;

/// Everything most campaign authors need, in one import.
pub mod prelude {
    pub use crate::campaign::{
        read_artifact, replay_artifact, run_campaign, shrink_plan, CampaignConfig, CampaignOutcome,
        Failure,
    };
    pub use crate::json::Json;
    pub use crate::linearizability::{linearizability_verdict, Op, OpKind};
    pub use crate::oracle::{Oracle, OracleVerdict};
    pub use crate::plan::{Fault, FaultPlan};
    pub use crate::scenario::{RunReport, Scenario};
    pub use crate::telemetry::telemetry_json;
    pub use cb_telemetry::{Registry, TelemetrySummary};
}
