//! The standard metric-name schema for the workspace.
//!
//! Components record under fixed dotted names so artifacts from different
//! scenarios, runs, and campaigns line up key-for-key. Names containing
//! the [`crate::WALL_MARKER`] substring (`"wall"`) are wall-clock metrics:
//! real hardware cost, nondeterministic, and therefore blanked by
//! [`crate::Registry::masked`] before determinism comparisons. Everything
//! else must be a pure function of `(scenario, seed, plan)`.
//!
//! [`preregister_standard`] pre-creates the whole schema at zero so hot
//! paths never allocate map keys and the exported key set is stable even
//! for components that never fire (e.g. the cache counters of a scenario
//! that runs a plain `RandomResolver`).

use crate::registry::Registry;

// ---- cb-core runtime: per-choice-point decision accounting ----

/// Total choice-point resolutions the runtime performed.
pub const CORE_DECISIONS_TOTAL: &str = "core.decisions_total";
/// Deterministic modeled decision cost, in sim-cost µs (1 µs per state the
/// resolver's prediction explored; 0 for non-predictive resolvers).
pub const CORE_DECISION_LATENCY_SIM_US: &str = "core.decision_latency_sim_us";
/// Real wall-clock decision latency, ns. Fingerprint-exempt.
pub const CORE_DECISION_LATENCY_WALL_NS: &str = "core.decision_latency_wall_ns";
/// Shared base for the dual-clock decision-latency pair.
pub const CORE_DECISION_LATENCY_BASE: &str = "core.decision_latency";
/// Sum of `Prediction.states_explored` over all decisions.
pub const CORE_STATES_EXPLORED: &str = "core.states_explored";
/// Cache lookups served from a live entry.
pub const CORE_CACHE_HITS: &str = "core.cache.hits";
/// Cache lookups that found no usable entry (cold key, collision, or
/// post-invalidation) and resolved inner.
pub const CORE_CACHE_MISSES: &str = "core.cache.misses";
/// Cache lookups that found a stale entry and re-resolved inner.
pub const CORE_CACHE_REFRESHES: &str = "core.cache.refreshes";
/// Full lookahead evaluations performed by a `LookaheadResolver`.
pub const CORE_LOOKAHEAD_EVALUATIONS: &str = "core.lookahead.evaluations";
/// Lookups answered by the per-decision evaluation cache that cb-core no
/// longer has: always 0, kept because the name is on disk in artifacts and
/// corpus records.
pub const CORE_EVALCACHE_HITS: &str = "core.evalcache.hits";
/// Lookups the deleted evaluation cache computed fresh: always 0, kept for
/// the same reason as [`CORE_EVALCACHE_HITS`].
pub const CORE_EVALCACHE_MISSES: &str = "core.evalcache.misses";
/// Dedicated liveness searches the fused single-pass evaluation avoided
/// (one whole exploration saved per option evaluation with liveness
/// objectives).
pub const CORE_EVALCACHE_FUSED_SEARCHES_SAVED: &str = "core.evalcache.fused_searches_saved";
/// Options dropped by the safety steering filter.
pub const CORE_STEERING_DROPPED: &str = "core.steering.dropped";
/// Times steering filtered every option (fell back to unsteered choice).
pub const CORE_STEERING_BREAKS: &str = "core.steering.breaks";
/// Event filters installed on this node (by local prediction or a
/// controller broadcast).
pub const CORE_STEERING_INSTALLED: &str = "core.steering.installed";
/// Event-filter matches: a filter actually vetoed/redirected an option.
pub const CORE_STEERING_FIRED: &str = "core.steering.fired";
/// Event filters that aged out at their expiry time without being removed.
pub const CORE_STEERING_EXPIRED: &str = "core.steering.expired";
/// Event filters removed explicitly (e.g. a controller retraction).
pub const CORE_STEERING_REMOVED: &str = "core.steering.removed";
/// Option evaluations cut short by the per-decision prediction deadline
/// (`PredictConfig::deadline_states`); each one yields a `Partial` verdict.
pub const CORE_PREDICT_PARTIAL_EVALS: &str = "core.predict.partial_evals";
/// Decisions whose *unenforced* prediction spend exceeded the reporting
/// deadline (`RuntimeConfig::report_deadline_states`). This is the control
/// arm's overrun counter: the ladder arm enforces the deadline inside the
/// evaluator and therefore never overruns by construction.
pub const CORE_PREDICT_DEADLINE_OVERRUNS: &str = "core.predict.deadline_overruns";

// ---- cb-core degradation governor + resolver ladder ----

/// Governor state transitions of any direction.
pub const CORE_GOVERNOR_TRANSITIONS: &str = "core.governor.transitions";
/// Transitions toward worse health (Healthy→Degraded, Degraded→Survival).
pub const CORE_GOVERNOR_STEP_DOWNS: &str = "core.governor.step_downs";
/// Transitions toward better health (Survival→Degraded, Degraded→Healthy).
pub const CORE_GOVERNOR_RECOVERIES: &str = "core.governor.recoveries";
/// Decisions resolved while the governor reported `Healthy`.
pub const CORE_GOVERNOR_DECISIONS_HEALTHY: &str = "core.governor.decisions_healthy";
/// Decisions resolved while the governor reported `Degraded`.
pub const CORE_GOVERNOR_DECISIONS_DEGRADED: &str = "core.governor.decisions_degraded";
/// Decisions resolved while the governor reported `Survival`.
pub const CORE_GOVERNOR_DECISIONS_SURVIVAL: &str = "core.governor.decisions_survival";
/// Step-downs whose dominant pressure input was snapshot staleness.
pub const CORE_GOVERNOR_CAUSE_STALENESS: &str = "core.governor.cause_staleness";
/// Step-downs whose dominant pressure input was peer-confidence collapse.
pub const CORE_GOVERNOR_CAUSE_CONFIDENCE: &str = "core.governor.cause_confidence";
/// Step-downs whose dominant pressure input was steering-filter pressure.
pub const CORE_GOVERNOR_CAUSE_STEERING: &str = "core.governor.cause_steering";
/// Step-downs whose dominant pressure input was a prediction-deadline
/// firing.
pub const CORE_GOVERNOR_CAUSE_DEADLINE: &str = "core.governor.cause_deadline";
/// Step-downs whose dominant pressure input was service-load backlog.
pub const CORE_GOVERNOR_CAUSE_LOAD: &str = "core.governor.cause_load";
/// Current governor rung (0 Healthy, 1 Degraded, 2 Survival). Gauge:
/// fleet merges keep the worst node, so a campaign artifact's value is
/// the fleet's worst health at end of run.
pub const CORE_GOVERNOR_RUNG: &str = "core.governor.rung";
/// Sim-ns spent in `Healthy`, one histogram sample per node — a fleet
/// merge yields the cross-node time-in-state distribution.
pub const CORE_GOVERNOR_HEALTHY_NS: &str = "core.governor.in_healthy_sim_ns";
/// Sim-ns spent in `Degraded`, one histogram sample per node.
pub const CORE_GOVERNOR_DEGRADED_NS: &str = "core.governor.in_degraded_sim_ns";
/// Sim-ns spent in `Survival`, one histogram sample per node.
pub const CORE_GOVERNOR_SURVIVAL_NS: &str = "core.governor.in_survival_sim_ns";
/// Decisions the ladder resolved on the full-lookahead rung (rung 0).
pub const CORE_LADDER_RUNG_LOOKAHEAD: &str = "core.ladder.rung_lookahead";
/// Decisions the ladder resolved on the cached-lookahead rung (rung 1).
pub const CORE_LADDER_RUNG_CACHED: &str = "core.ladder.rung_cached";
/// Decisions the ladder resolved on rung 2, a policy-store hit. The name
/// predates the store (it is on disk in artifacts and corpus records).
pub const CORE_LADDER_RUNG_PRECOMPUTED: &str = "core.ladder.rung_precomputed";
/// Decisions the ladder resolved on the learned-bandit rung (rung 3).
pub const CORE_LADDER_RUNG_LEARNED: &str = "core.ladder.rung_learned";
/// Decisions the ladder resolved on the feature-heuristic rung (rung 4).
pub const CORE_LADDER_RUNG_HEURISTIC: &str = "core.ladder.rung_heuristic";
/// Decisions the ladder resolved on the static-safe-default rung (rung 5).
pub const CORE_LADDER_RUNG_STATIC: &str = "core.ladder.rung_static";
/// Decisions answered from the cross-run policy store.
pub const CORE_POLICY_HITS: &str = "core.policy.hits";
/// Decisions a loaded policy store could not answer (no entry, or the
/// stored option key was not among the offered options).
pub const CORE_POLICY_MISSES: &str = "core.policy.misses";
/// Governor-gated refresh checks whose fresh lookahead disagreed with the
/// stored entry — staleness caught and the fresh answer served.
pub const CORE_POLICY_STALE: &str = "core.policy.stale";
/// Decisions recorded into a policy store being trained this run.
pub const CORE_POLICY_INSERTS: &str = "core.policy.inserts";
/// Governor-gated refresh lookaheads actually performed (the every-Nth-hit
/// re-run). Suppressed outside `Healthy`: refresh work is the first thing
/// shed under overload.
pub const CORE_POLICY_REFRESH: &str = "core.policy.refresh";
/// Controller (background prediction) cycles executed.
pub const CORE_CONTROLLER_CYCLES: &str = "core.controller.cycles";
/// Checkpoints sent to neighbors.
pub const CORE_CHECKPOINTS_SENT: &str = "core.checkpoints.sent";
/// Checkpoints received from neighbors.
pub const CORE_CHECKPOINTS_RECEIVED: &str = "core.checkpoints.received";
/// Prefix for per-resolver-arm decision counters: the full key is
/// `core.resolver_arm.<arm>` where `<arm>` is [`crate::keys`]-free text
/// supplied by the resolver (e.g. `random`, `first`, `lookahead`, `cached`).
pub const CORE_RESOLVER_ARM_PREFIX: &str = "core.resolver_arm.";

// ---- cb-workload: open-loop aggregate client load ----

/// First-attempt aggregate user operations offered by load generators.
pub const WORKLOAD_OFFERED: &str = "workload.offered";
/// Total aggregate send attempts, first tries plus retries.
pub const WORKLOAD_ATTEMPTS: &str = "workload.attempts";
/// Retry attempts only (attempts minus offered).
pub const WORKLOAD_RETRIES: &str = "workload.retries";
/// Aggregate operations admitted into service queues.
pub const WORKLOAD_ADMITTED: &str = "workload.admitted";
/// Aggregate operations shed at admission.
pub const WORKLOAD_SHED: &str = "workload.shed";
/// Admitted operations dropped in queue past their service deadline.
pub const WORKLOAD_EXPIRED: &str = "workload.expired";
/// Admitted operations drained within deadline — the goodput numerator.
pub const WORKLOAD_SERVED: &str = "workload.served";
/// Operations abandoned after exhausting their retry budget.
pub const WORKLOAD_FAILED: &str = "workload.failed";

// ---- cb-simnet: network-level counters ----

/// Messages handed to the network.
pub const NET_MSGS_SENT: &str = "net.msgs_sent";
/// Messages delivered to a live destination.
pub const NET_MSGS_DELIVERED: &str = "net.msgs_delivered";
/// Messages dropped (loss, partition, or dead destination).
pub const NET_MSGS_DROPPED: &str = "net.msgs_dropped";
/// Payload bytes handed to the network.
pub const NET_BYTES_SENT: &str = "net.bytes_sent";
/// Connections that reached the established state.
pub const NET_CONNS_ESTABLISHED: &str = "net.conns_established";
/// Established connections torn down by faults.
pub const NET_CONNS_BROKEN: &str = "net.conns_broken";
/// End-to-end delivery latency histogram, sim µs (deterministic).
pub const NET_DELIVERY_LATENCY_US: &str = "net.delivery_latency_us";

// ---- provenance tracing (cb-trace flight recorders) ----

/// Provenance spans recorded across all per-node flight recorders.
pub const TRACE_SPANS_RECORDED: &str = "trace.spans_recorded";
/// Provenance spans evicted from the bounded flight-recorder rings.
pub const TRACE_SPANS_EVICTED: &str = "trace.spans_evicted";

// ---- cb-mck: model-checker exploration budgets ----

/// Unique states inserted into the visited set.
pub const MCK_STATES_VISITED: &str = "mck.states_visited";
/// States popped and expanded.
pub const MCK_STATES_EXPANDED: &str = "mck.states_expanded";
/// Transitions (edges) examined.
pub const MCK_TRANSITIONS: &str = "mck.transitions";
/// Transitions that led to an already-visited state (dedup ratio is
/// `dedup_hits / transitions`).
pub const MCK_DEDUP_HITS: &str = "mck.dedup_hits";
/// Peak frontier size (gauge; merge keeps the max).
pub const MCK_FRONTIER_PEAK: &str = "mck.frontier_peak";
/// Deepest level reached (gauge; merge keeps the max).
pub const MCK_MAX_DEPTH: &str = "mck.max_depth";
/// Shard-lock contention events of the parallel explorer that cb-mck no
/// longer has: always 0, kept because the name is on disk in artifacts
/// and corpus records (`wall`: fingerprint-exempt).
pub const MCK_SHARD_CONTENTION_WALL: &str = "mck.shard_contention_wall";

/// Pre-creates every standard metric at its zero value (idempotent).
///
/// Call once per registry before the run starts. This keeps the steady
/// state allocation-free and — just as important for artifact diffing —
/// makes every run export the same key set regardless of which components
/// actually fired.
pub fn preregister_standard(reg: &mut Registry) {
    for c in [
        CORE_DECISIONS_TOTAL,
        CORE_STATES_EXPLORED,
        CORE_CACHE_HITS,
        CORE_CACHE_MISSES,
        CORE_CACHE_REFRESHES,
        CORE_LOOKAHEAD_EVALUATIONS,
        CORE_EVALCACHE_HITS,
        CORE_EVALCACHE_MISSES,
        CORE_EVALCACHE_FUSED_SEARCHES_SAVED,
        CORE_STEERING_DROPPED,
        CORE_STEERING_BREAKS,
        CORE_STEERING_INSTALLED,
        CORE_STEERING_FIRED,
        CORE_STEERING_EXPIRED,
        CORE_STEERING_REMOVED,
        CORE_PREDICT_PARTIAL_EVALS,
        CORE_PREDICT_DEADLINE_OVERRUNS,
        CORE_GOVERNOR_TRANSITIONS,
        CORE_GOVERNOR_STEP_DOWNS,
        CORE_GOVERNOR_RECOVERIES,
        CORE_GOVERNOR_DECISIONS_HEALTHY,
        CORE_GOVERNOR_DECISIONS_DEGRADED,
        CORE_GOVERNOR_DECISIONS_SURVIVAL,
        CORE_GOVERNOR_CAUSE_STALENESS,
        CORE_GOVERNOR_CAUSE_CONFIDENCE,
        CORE_GOVERNOR_CAUSE_STEERING,
        CORE_GOVERNOR_CAUSE_DEADLINE,
        CORE_GOVERNOR_CAUSE_LOAD,
        CORE_LADDER_RUNG_LOOKAHEAD,
        CORE_LADDER_RUNG_CACHED,
        CORE_LADDER_RUNG_PRECOMPUTED,
        CORE_LADDER_RUNG_LEARNED,
        CORE_LADDER_RUNG_HEURISTIC,
        CORE_LADDER_RUNG_STATIC,
        CORE_POLICY_HITS,
        CORE_POLICY_MISSES,
        CORE_POLICY_STALE,
        CORE_POLICY_INSERTS,
        CORE_POLICY_REFRESH,
        WORKLOAD_OFFERED,
        WORKLOAD_ATTEMPTS,
        WORKLOAD_RETRIES,
        WORKLOAD_ADMITTED,
        WORKLOAD_SHED,
        WORKLOAD_EXPIRED,
        WORKLOAD_SERVED,
        WORKLOAD_FAILED,
        CORE_CONTROLLER_CYCLES,
        CORE_CHECKPOINTS_SENT,
        CORE_CHECKPOINTS_RECEIVED,
        NET_MSGS_SENT,
        NET_MSGS_DELIVERED,
        NET_MSGS_DROPPED,
        NET_BYTES_SENT,
        NET_CONNS_ESTABLISHED,
        NET_CONNS_BROKEN,
        TRACE_SPANS_RECORDED,
        TRACE_SPANS_EVICTED,
        MCK_STATES_VISITED,
        MCK_STATES_EXPANDED,
        MCK_TRANSITIONS,
        MCK_DEDUP_HITS,
        MCK_SHARD_CONTENTION_WALL,
    ] {
        reg.register_counter(c);
    }
    for g in [MCK_FRONTIER_PEAK, MCK_MAX_DEPTH, CORE_GOVERNOR_RUNG] {
        reg.register_gauge(g);
    }
    for h in [
        CORE_DECISION_LATENCY_SIM_US,
        CORE_DECISION_LATENCY_WALL_NS,
        NET_DELIVERY_LATENCY_US,
        CORE_GOVERNOR_HEALTHY_NS,
        CORE_GOVERNOR_DEGRADED_NS,
        CORE_GOVERNOR_SURVIVAL_NS,
    ] {
        reg.register_hist(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::is_wall_key;

    #[test]
    fn preregister_is_idempotent_and_zero() {
        let mut r = Registry::new();
        preregister_standard(&mut r);
        r.inc(CORE_DECISIONS_TOTAL);
        preregister_standard(&mut r);
        assert_eq!(r.counter(CORE_DECISIONS_TOTAL), 1);
        assert_eq!(r.counter(NET_MSGS_SENT), 0);
        assert_eq!(r.gauge(MCK_FRONTIER_PEAK), 0);
        assert!(r.hist(CORE_DECISION_LATENCY_SIM_US).unwrap().is_empty());
    }

    #[test]
    fn wall_exemptions_are_exactly_the_wall_keys() {
        assert!(is_wall_key(CORE_DECISION_LATENCY_WALL_NS));
        assert!(is_wall_key(MCK_SHARD_CONTENTION_WALL));
        for deterministic in [
            CORE_DECISIONS_TOTAL,
            CORE_DECISION_LATENCY_SIM_US,
            NET_DELIVERY_LATENCY_US,
            MCK_STATES_VISITED,
            MCK_DEDUP_HITS,
        ] {
            assert!(!is_wall_key(deterministic), "{deterministic}");
        }
    }

    #[test]
    fn dual_clock_names_share_the_base() {
        assert_eq!(
            CORE_DECISION_LATENCY_SIM_US,
            format!("{CORE_DECISION_LATENCY_BASE}_sim_us")
        );
        assert_eq!(
            CORE_DECISION_LATENCY_WALL_NS,
            format!("{CORE_DECISION_LATENCY_BASE}_wall_ns")
        );
    }
}
