//! # cb-corpus — the queryable campaign corpus
//!
//! Campaigns emit rich per-seed artifacts — telemetry counters and
//! log-bucket histograms, oracle verdicts, governor dwell times, policy
//! hit rates, workload goodput, provenance blame targets — but each one is
//! a write-once JSON blob. This crate turns thousands of such blobs into
//! leverage (ROADMAP item 4):
//!
//! * [`record`] — a [`SeedRecord`]: one seed's outcome distilled into
//!   typed columns, content-addressed by the FNV-64 of its canonical
//!   (wall-masked) JSON rendering.
//! * [`store`] — the [`Corpus`]: one deterministic binary columnar index
//!   per corpus directory (`index.cbc`, checksummed like the policy pile
//!   format), filled from campaign outcomes in process or from failure
//!   artifacts on disk. The index bytes are invariant under ingestion
//!   order and campaign worker count.
//! * [`query`] — [`Predicate`] combinators plus a small text syntax that
//!   answer the roadmap's canonical questions, e.g.
//!   `hist_count(core.governor.in_survival_sim_ns) >= 2` ("all seeds
//!   where the governor hit Survival at least twice") and
//!   [`top_blame`] ("blame targets shared by ≥3 violating seeds").
//! * [`diff`] — compares two campaigns' telemetry distributions (counter
//!   deltas with noise thresholds, log-bucket histogram divergence,
//!   pass-rate drops, newly failing oracles) into a deterministic
//!   regression report: `diff(A, A)` is always empty.
//!
//! The determinism discipline matches the rest of the workspace: every
//! wall-clock metric (name containing [`cb_telemetry::WALL_MARKER`]) is
//! masked at ingestion, so records — and therefore index and diff bytes —
//! are pure functions of `(scenario, seed, plan)`.

#![warn(missing_docs)]

pub mod diff;
pub mod query;
pub mod record;
pub mod store;

pub use diff::{diff, DiffConfig, DiffReport, Finding, DIFF_SCHEMA};
pub use query::{parse_predicate, select, top_blame, BlameTally, Cmp, Predicate};
pub use record::{SeedRecord, RECORD_SCHEMA};
pub use store::{Corpus, CorpusError, INDEX_FILE, INDEX_MAGIC};

/// FNV-1a 64-bit hash — the workspace's one content hash, owned by
/// `cb-policy` (record content ids and the index checksum are this).
pub use cb_policy::fnv1a;

#[cfg(test)]
mod tests {
    /// Record content ids and the `index.cbc` checksum are this hash.
    #[test]
    fn fnv1a_is_golden() {
        assert_eq!(super::fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(super::fnv1a(b"cb-corpus"), 0x5613_c3ec_cea1_9bd3);
    }
}
