//! # cb-trace — decision-provenance tracing
//!
//! A tracing layer for the CrystalBall runtime, depending only on
//! `cb-policy`'s content hash (for Chrome flow ids). The unit of
//! record is a [`Span`]: a causally-linked event with a deterministic identity
//! derived from *simulated* time, the node that recorded it, and a per-node
//! monotonic sequence number. Parent edges capture the causal structure the
//! paper's predictive runtime needs to be auditable after the fact:
//!
//! * message `Send` → `Deliver` (cross-node),
//! * `Timer` set → `Timer` fire,
//! * `Decision` → emitted effects (sends, timers, conn breaks),
//! * `SteeringInstall` → `SteeringFire`.
//!
//! Spans are recorded into a bounded per-node [`FlightRecorder`] ring; a
//! pinned side-ring rescues the last [`DECISION_PIN_CAPACITY`] `Decision`
//! spans from eviction so blame chains keep reaching decisions even after
//! long stretches of timer churn. Recording is fixed-width and
//! allocation-free — a plain event is an id, a kind, one parent and a
//! [`Label`] — and text is rendered on the read side, when a [`SpanRef`] is
//! turned into a [`Span`]. The ring follows the PR-2 masked/dual-clock
//! discipline: every field of a span
//! is a deterministic function of `(scenario, seed, plan)` **except**
//! `wall_ns`, which carries fingerprint-exempt wall-clock latency and is
//! blanked by [`Span::masked`] so masked exports stay byte-identical across
//! reruns of the same seed.
//!
//! The [`query`] module answers the three questions the `trace` CLI exposes:
//! `explain` (why did this decision pick what it picked), `blame` (walk the
//! causal chain backwards from a violation or steering fire to the
//! originating decisions, across nodes) and `slowest` (top-k decisions by
//! sim-cost). The [`chrome`] module exports Chrome trace-event JSON loadable
//! in Perfetto.

pub mod chrome;
pub mod query;
pub mod recorder;
pub mod span;

pub use chrome::chrome_trace_json;
pub use query::{blame, explain, is_acyclic, slowest, BlameChain, SpanIndex};
pub use recorder::{
    find_in, FlightRecorder, Label, SpanRef, DECISION_PIN_CAPACITY, DEFAULT_CAPACITY,
};
pub use span::{Span, SpanId, SpanKind};
