//! The campaign runner.
//!
//! A campaign sweeps N seeds in parallel over one [`Scenario`]: each
//! worker thread claims seeds off a shared counter, builds a fresh
//! deterministic `Sim` per seed, applies the scenario's (or a caller-
//! supplied) fault plan, and checks the scenario's oracles plus the generic
//! determinism oracle (run the seed twice, compare trace fingerprints).
//!
//! On violation the worker that ran the seed also:
//!
//! 1. **shrinks** the fault plan to a 1-minimal reproduction — try dropping
//!    chunks of `len, len/2, …, 1` faults, left to right, keep a drop
//!    whenever the violation persists, and finish with single-fault passes
//!    to a fixpoint, so no single remaining fault can be dropped (a bug that
//!    needs no fault at all is found by the first run);
//! 2. writes a **JSON failure artifact** (the shrunk plan spec and the
//!    original run's report: scenario, seed, plan, arm, oracle verdicts,
//!    telemetry, the flight-recorder tail) under `results/campaigns/`,
//!    streamed through the same emitters that build the [`Json`] tree;
//!
//! and hands the finished row to [`in_order`], which folds rows into the
//! [`CampaignOutcome`] strictly in seed order as soon as the next expected
//! seed is done — so the outcome is the same at every worker count, and a
//! green seed's report is dropped (or moved into `reports`) the moment it
//! is folded. **Exact replay**: [`replay_artifact`] reloads the artifact,
//! re-runs seed + plan, and checks the same violation (and, span by span,
//! the same flight-recorder tail) reappears.

pub use crate::artifact::{read_artifact, Artifact};
use crate::json::{Json, Sink, TextSink};
use crate::plan::FaultPlan;
use crate::provenance::tail_line;
use crate::scenario::{RunReport, Scenario};
use cb_trace::Span;
use std::collections::{BTreeMap, HashSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Configuration for one campaign sweep.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Seeds `base_seed..base_seed + seeds` are swept.
    pub base_seed: u64,
    /// How many seeds to run.
    pub seeds: u64,
    /// Worker threads (0 = one per available CPU, capped at 8).
    pub workers: usize,
    /// Re-run every seed and require identical fingerprints.
    pub check_determinism: bool,
    /// Shrink failing plans to a minimal repro before writing artifacts.
    pub shrink: bool,
    /// Where failure artifacts go; `None` disables writing.
    pub artifact_dir: Option<PathBuf>,
    /// Override the scenario's default plan for every seed.
    pub plan_override: Option<FaultPlan>,
    /// Keep every seed's first-run report in [`CampaignOutcome::reports`]
    /// (passing seeds' reports are otherwise dropped after merging). Corpus
    /// ingestion turns this on; sweeps that only need the aggregate leave
    /// it off to avoid retaining per-seed telemetry and provenance.
    pub keep_reports: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            base_seed: 1,
            seeds: 32,
            workers: 0,
            check_determinism: true,
            shrink: true,
            artifact_dir: Some(PathBuf::from("results/campaigns")),
            plan_override: None,
            keep_reports: false,
        }
    }
}

/// One seed's failure, with the shrunk repro.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The full report from the failing run (original plan).
    pub report: RunReport,
    /// The plan after shrinking (== original when shrinking is off or
    /// nothing could be dropped).
    pub shrunk_plan: FaultPlan,
    /// The report from the final shrunk run (kept in memory; the artifact
    /// does not carry it).
    pub shrunk_report: RunReport,
    /// Artifact path, when one was written.
    pub artifact: Option<PathBuf>,
}

/// Aggregate outcome of a sweep.
#[derive(Debug, Default)]
pub struct CampaignOutcome {
    /// Scenario name.
    pub scenario: String,
    /// Seeds that passed every oracle.
    pub passed: u64,
    /// Failures, in seed order.
    pub failures: Vec<Failure>,
    /// Seeds whose re-run produced a different fingerprint (determinism
    /// violations are reported separately from oracle failures).
    pub nondeterministic_seeds: Vec<u64>,
    /// Total events processed across all runs.
    pub total_events: u64,
    /// Telemetry merged across every seed's first run (counters add, gauges
    /// keep peaks, histograms merge) — the per-scenario aggregate that
    /// `cb-bench` summarizes.
    pub telemetry: cb_telemetry::Registry,
    /// Policy stores recorded by the seeds' runs, merged in seed order.
    /// The merge rule is commutative, associative, and idempotent, so the
    /// result is invariant under worker count and determinism re-runs.
    pub policy: Option<cb_policy::PolicyStore>,
    /// Every seed's first-run report, in seed order — populated only when
    /// [`CampaignConfig::keep_reports`] is set. Because each report is a
    /// pure function of `(scenario, seed, plan)`, this vector is invariant
    /// under worker count.
    pub reports: Vec<RunReport>,
    /// Failing seeds whose artifact could not be written, with the I/O
    /// error, in seed order (their [`Failure::artifact`] is `None`).
    pub artifact_errors: Vec<(u64, String)>,
}

impl CampaignOutcome {
    /// Whether every seed passed every oracle and determinism held.
    pub fn all_passed(&self) -> bool {
        self.failures.is_empty() && self.nondeterministic_seeds.is_empty()
    }

    /// One-line human summary.
    pub fn summary_line(&self) -> String {
        let mut line = format!(
            "campaign[{}]: {} passed, {} failed, {} nondeterministic ({} events)",
            self.scenario,
            self.passed,
            self.failures.len(),
            self.nondeterministic_seeds.len(),
            self.total_events
        );
        if !self.artifact_errors.is_empty() {
            line.push_str(&format!(
                ", {} artifacts NOT WRITTEN",
                self.artifact_errors.len()
            ));
        }
        line
    }

    /// Folds one finished seed in; [`run_campaign`] calls this in seed
    /// order.
    fn fold(&mut self, row: SeedRow, keep_reports: bool) {
        let SeedRow {
            report,
            deterministic,
            red,
        } = row;
        let seed = report.seed;
        self.total_events += report.events_processed;
        self.telemetry.merge(&report.telemetry);
        if let Some(recorded) = &report.policy {
            match &mut self.policy {
                Some(merged) => merged.merge(recorded),
                None => self.policy = Some(recorded.clone()),
            }
        }
        if !deterministic {
            self.nondeterministic_seeds.push(seed);
        }
        let Some((shrunk_plan, shrunk_report, written)) = red else {
            if deterministic {
                self.passed += 1;
            }
            if keep_reports {
                self.reports.push(report);
            }
            return;
        };
        if keep_reports {
            // A red seed's report has two owners, `reports` and `failures`.
            self.reports.push(report.clone());
        }
        let artifact = match written {
            Some(Ok(path)) => Some(path),
            Some(Err(e)) => {
                self.artifact_errors.push((seed, e.to_string()));
                None
            }
            None => None,
        };
        self.failures.push(Failure {
            report,
            shrunk_plan,
            shrunk_report,
            artifact,
        });
    }
}

/// Runs `produce(i)` for every `i` in `0..n` on `workers` threads (0 = one
/// per available CPU, capped at 8; the calling thread is one of them) and
/// hands each result to `consume` strictly in index order, as soon as every
/// earlier index has been consumed. Workers claim indices off a shared
/// counter; a finished result waits in a reorder buffer only while an
/// earlier index is still running, so what `consume` builds does not depend
/// on the worker count and at most a few results are alive at once.
pub fn in_order<T: Send>(
    n: usize,
    workers: usize,
    produce: impl Fn(usize) -> T + Sync,
    consume: impl FnMut(usize, T) + Send,
) {
    struct Reorder<T, C> {
        next: usize,
        ready: BTreeMap<usize, T>,
        consume: C,
    }
    let workers = match workers {
        0 => std::thread::available_parallelism().map_or(4, |n| n.get().min(8)),
        w => w,
    };
    let claimed = AtomicUsize::new(0);
    let reorder = Mutex::new(Reorder {
        next: 0,
        ready: BTreeMap::new(),
        consume,
    });
    let work = || loop {
        // Relaxed: the counter hands out indices and publishes nothing.
        let i = claimed.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let result = produce(i);
        let mut guard = reorder.lock().expect("a consumer panicked");
        let state = &mut *guard;
        state.ready.insert(i, result);
        while let Some(result) = state.ready.remove(&state.next) {
            (state.consume)(state.next, result);
            state.next += 1;
        }
    };
    // The caller is one of the workers. Measured alternatives cost memory:
    // with every worker spawned and the caller asleep, `peak_rss_mb` on
    // `sweep-predict` rose by a fifth; with the caller consuming from a
    // channel it reaches the next sweep's spawns while the last worker is
    // still exiting, those threads get fresh malloc arenas, and 4 of 10
    // `fleet-large` runs kept a third simulator's worth of freed memory.
    std::thread::scope(|scope| {
        for _ in 1..workers.min(n) {
            scope.spawn(work);
        }
        work();
    });
}

/// Everything one seed's worker hands to the fold.
struct SeedRow {
    report: RunReport,
    deterministic: bool,
    /// For a violating seed: the shrunk plan, its report, and the artifact
    /// write's result (`None` when artifacts are off).
    red: Option<(FaultPlan, RunReport, Option<std::io::Result<PathBuf>>)>,
}

/// One seed, start to finish: first pass, determinism re-run, and for a red
/// seed the shrink and the artifact — all pure functions of `(scenario,
/// seed, plan)`, writing a file no other seed writes.
fn run_seed(scenario: &dyn Scenario, config: &CampaignConfig, seed: u64) -> SeedRow {
    let plan = config
        .plan_override
        .clone()
        .unwrap_or_else(|| scenario.default_plan(seed));
    let report = scenario.run(seed, &plan);
    let deterministic =
        !config.check_determinism || scenario.run(seed, &plan).fingerprint == report.fingerprint;
    let red = report.violated().then(|| {
        let (shrunk_plan, shrunk_report) = if config.shrink {
            shrink_plan(scenario, seed, &report.plan, &report)
        } else {
            (report.plan.clone(), report.clone())
        };
        let written = config
            .artifact_dir
            .as_deref()
            .map(|dir| write_artifact(dir, &report, &shrunk_plan, &shrunk_report));
        (shrunk_plan, shrunk_report, written)
    });
    SeedRow {
        report,
        deterministic,
        red,
    }
}

/// Sweeps seeds over a scenario according to `config`.
pub fn run_campaign(scenario: &dyn Scenario, config: &CampaignConfig) -> CampaignOutcome {
    let mut outcome = CampaignOutcome {
        scenario: scenario.name().to_string(),
        ..CampaignOutcome::default()
    };
    in_order(
        config.seeds as usize,
        config.workers,
        |i| run_seed(scenario, config, config.base_seed + i as u64),
        |_, row| outcome.fold(row, config.keep_reports),
    );
    outcome
}

/// Returns true when `candidate` reproduces the *same* violation as
/// `original` — i.e. every oracle that failed originally still fails.
fn same_violation(original: &RunReport, candidate: &RunReport) -> bool {
    let orig: Vec<&str> = original.failing_oracles();
    let cand = candidate.failing_oracles();
    !orig.is_empty() && orig.iter().all(|name| cand.contains(name))
}

/// Shrinks `plan` to a 1-minimal fault set that still reproduces the
/// violation in `failing`: try dropping chunks of `len, len/2, …, 1` faults,
/// left to right, keeping a drop whenever the failing oracles still fail,
/// then repeat the single-fault pass until nothing more can be dropped — so
/// removing any one fault of the result loses the violation. A plan whose
/// violation needs no fault costs one run, one where nothing can be dropped
/// fewer than `2 * len`; no plan is run twice.
///
/// Returns the shrunk plan and the report of its (still-failing) run.
pub fn shrink_plan(
    scenario: &dyn Scenario,
    seed: u64,
    plan: &FaultPlan,
    failing: &RunReport,
) -> (FaultPlan, RunReport) {
    let mut best_plan = plan.clone();
    let mut best_report = None;
    // Specs that were run and lost the violation. A kept candidate becomes
    // `best_plan`, and every later candidate is smaller, so it never recurs.
    let mut lost: HashSet<String> = HashSet::new();
    let mut chunk = best_plan.len();
    while chunk > 0 {
        let mut dropped = false;
        let mut i = 0;
        while i < best_plan.len() {
            let candidate = best_plan.without(i..(i + chunk).min(best_plan.len()));
            let spec = candidate.to_spec();
            if !lost.contains(&spec) {
                let report = scenario.run(seed, &candidate);
                if same_violation(failing, &report) {
                    best_plan = candidate;
                    best_report = Some(report);
                    dropped = true;
                    // Do not advance i: the faults now at i are untested.
                    continue;
                }
                lost.insert(spec);
            }
            i += chunk;
        }
        // Halve down to single faults, then stay there until a whole pass
        // drops nothing.
        chunk = if chunk > 1 {
            chunk / 2
        } else {
            dropped as usize
        };
    }
    (best_plan, best_report.unwrap_or_else(|| failing.clone()))
}

/// Artifact schema version tag. [`decode_artifact`](crate::decode_artifact)
/// also reads `cb-campaign-failure/v1`, which repeated the report's
/// scenario, seed, plan and failing oracles at the top level.
pub const ARTIFACT_SCHEMA: &str = "cb-campaign-failure/v2";

/// Emits a failure artifact's document shape: the schema, the shrunk plan
/// and the original run's report, which is the one copy of the scenario,
/// seed, plan, arm and verdicts. The shrunk run's report is not written:
/// nothing reads it, and `campaign --seeds 1 --base-seed SEED --plan
/// SHRUNK_PLAN` in the recorded arm regenerates it.
pub fn emit_artifact(report: &RunReport, shrunk_plan: &FaultPlan, sink: &mut dyn Sink) {
    sink.begin_obj();
    sink.key("schema");
    sink.str(ARTIFACT_SCHEMA);
    sink.key("shrunk_plan");
    sink.str(&shrunk_plan.to_spec());
    sink.key("report");
    report.emit(sink);
    sink.end_obj();
}

/// Serializes a failure artifact as a tree (see [`emit_artifact`]).
pub fn artifact_json(report: &RunReport, shrunk_plan: &FaultPlan) -> Json {
    Json::build(|sink| emit_artifact(report, shrunk_plan, sink))
}

/// Writes a failure artifact under `dir`, returning its path. The document
/// is streamed to the file: the bytes are those of
/// `artifact_json(..).to_string_pretty()` plus a newline, without the tree.
/// `_shrunk_report` is accepted and not written (see [`emit_artifact`]).
pub fn write_artifact(
    dir: &Path,
    report: &RunReport,
    shrunk_plan: &FaultPlan,
    _shrunk_report: &RunReport,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}-seed{}.json", report.scenario, report.seed));
    let file = std::io::BufWriter::with_capacity(1 << 16, std::fs::File::create(&path)?);
    let mut sink = TextSink::new(file, true);
    emit_artifact(report, shrunk_plan, &mut sink);
    let mut file = sink.finish()?;
    file.write_all(b"\n")?;
    file.flush()?;
    Ok(path)
}

/// Error from [`replay_artifact`].
#[derive(Debug)]
pub enum ReplayError {
    /// The artifact file could not be read.
    Io(std::io::Error),
    /// The artifact was not valid JSON / not the expected schema.
    Malformed(String),
    /// The replay ran, but did not reproduce the recorded violation.
    NotReproduced {
        /// Oracles the artifact says failed.
        expected: Vec<String>,
        /// Oracles that failed on replay.
        got: Vec<String>,
    },
    /// The replay reproduced the violation, but its masked flight-recorder
    /// tail differs from the artifact's — a determinism bug in the span
    /// layer (the deterministic half of every span is supposed to be a pure
    /// function of seed and plan).
    ProvenanceMismatch {
        /// Spans recorded in the artifact's tail.
        artifact_spans: usize,
        /// Spans in the replay's tail.
        replay_spans: usize,
        /// Where the two first differ.
        first: TailDifference,
    },
}

/// Where an artifact's flight-recorder tail and its replay's first differ.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TailDifference {
    /// The fleets pushed a different number of spans in total.
    Recorded {
        /// Total in the artifact.
        artifact: u64,
        /// Total on replay.
        replay: u64,
    },
    /// The rings evicted a different number of spans.
    Evicted {
        /// Evictions in the artifact.
        artifact: u64,
        /// Evictions on replay.
        replay: u64,
    },
    /// The tails differ at span `index`; each side rendered as one line,
    /// `[time] <span id> <kind> <name> <- <parent ids>` (`None` where that
    /// tail has ended), followed by cost and attrs when the lines alone
    /// would read the same.
    Span {
        /// Index into both tails.
        index: usize,
        /// The artifact's span there.
        artifact: Option<String>,
        /// The replay's span there.
        replay: Option<String>,
    },
}

impl std::fmt::Display for TailDifference {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TailDifference::Recorded { artifact, replay } => {
                write!(f, "spans recorded: artifact {artifact}, replay {replay}")
            }
            TailDifference::Evicted { artifact, replay } => {
                write!(f, "spans evicted: artifact {artifact}, replay {replay}")
            }
            TailDifference::Span {
                index,
                artifact,
                replay,
            } => {
                let side = |s: &Option<String>| s.clone().unwrap_or_else(|| "<tail ends>".into());
                write!(
                    f,
                    "first difference at span {index}:\n  artifact: {}\n  replay:   {}",
                    side(artifact),
                    side(replay)
                )
            }
        }
    }
}

/// Compares the recorded tail with the replayed one, every span field but
/// `wall_ns` (the only nondeterministic one).
fn tail_difference(artifact: &Artifact, replay: &RunReport) -> Option<TailDifference> {
    let (recorded, evicted) = replay.span_totals();
    if artifact.spans_recorded != recorded {
        return Some(TailDifference::Recorded {
            artifact: artifact.spans_recorded,
            replay: recorded,
        });
    }
    if artifact.spans_evicted != evicted {
        return Some(TailDifference::Evicted {
            artifact: artifact.spans_evicted,
            replay: evicted,
        });
    }
    let same = |a: &Span, b: &Span| {
        let Span {
            id,
            kind,
            name,
            parents,
            sim_cost_us,
            wall_ns: _,
            attrs,
        } = a;
        (id, kind, name, parents, sim_cost_us, attrs)
            == (
                &b.id,
                &b.kind,
                &b.name,
                &b.parents,
                &b.sim_cost_us,
                &b.attrs,
            )
    };
    let (recorded, replayed) = (&artifact.provenance, &replay.provenance);
    let index = (0..recorded.len().max(replayed.len())).find(
        |&i| !matches!((recorded.get(i), replayed.get(i)), (Some(a), Some(b)) if same(a, b)),
    )?;
    let mut sides = [recorded.get(index), replayed.get(index)]
        .map(|s| s.map(|s| tail_line(s.id, s.kind, &s.name, &s.parents)));
    if sides[0] == sides[1] {
        for (line, span) in sides.iter_mut().zip([&recorded[index], &replayed[index]]) {
            let line = line.as_mut().expect("equal lines are both present");
            line.push_str(&format!(" cost {} us {:?}", span.sim_cost_us, span.attrs));
        }
    }
    let [artifact, replay] = sides;
    Some(TailDifference::Span {
        index,
        artifact,
        replay,
    })
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Io(e) => write!(f, "replay: {e}"),
            ReplayError::Malformed(m) => write!(f, "replay: malformed artifact: {m}"),
            ReplayError::NotReproduced { expected, got } => write!(
                f,
                "replay: violation not reproduced (expected {expected:?}, got {got:?})"
            ),
            ReplayError::ProvenanceMismatch {
                artifact_spans,
                replay_spans,
                first,
            } => write!(
                f,
                "replay: masked provenance tail diverged \
                 ({artifact_spans} artifact spans vs {replay_spans} replayed)\n{first}"
            ),
        }
    }
}

/// Replays an artifact against `scenario`: re-runs the recorded seed under
/// the recorded (original) plan and checks that every recorded failing
/// oracle fails again — and, when the artifact embeds a provenance tail,
/// that the replay's tail equals the recorded one span for span, `wall_ns`
/// aside (wall clocks are the only nondeterministic span field). Returns
/// the replay report.
pub fn replay_artifact(
    scenario: &dyn Scenario,
    artifact: &Artifact,
) -> Result<RunReport, ReplayError> {
    let report = scenario.run(artifact.seed, &artifact.plan);
    let got: Vec<String> = report
        .failing_oracles()
        .iter()
        .map(|s| s.to_string())
        .collect();
    let reproduced = !artifact.failing_oracles.is_empty()
        && artifact.failing_oracles.iter().all(|o| got.contains(o));
    if !reproduced {
        return Err(ReplayError::NotReproduced {
            expected: artifact.failing_oracles.clone(),
            got,
        });
    }
    if !artifact.provenance.is_empty() {
        if let Some(first) = tail_difference(artifact, &report) {
            return Err(ReplayError::ProvenanceMismatch {
                artifact_spans: artifact.provenance.len(),
                replay_spans: report.provenance.len(),
                first,
            });
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::RingScenario;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cb-harness-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn clean_campaign_passes_all_seeds() {
        let s = RingScenario::default();
        let cfg = CampaignConfig {
            seeds: 8,
            artifact_dir: None,
            ..CampaignConfig::default()
        };
        let out = run_campaign(&s, &cfg);
        assert!(out.all_passed(), "{}", out.summary_line());
        assert_eq!(out.passed, 8);
        assert!(out.total_events > 0);
    }

    #[test]
    fn keep_reports_retains_every_seed_in_order() {
        let s = RingScenario::default();
        let cfg = CampaignConfig {
            seeds: 4,
            base_seed: 9,
            artifact_dir: None,
            keep_reports: true,
            ..CampaignConfig::default()
        };
        let out = run_campaign(&s, &cfg);
        let seeds: Vec<u64> = out.reports.iter().map(|r| r.seed).collect();
        assert_eq!(seeds, vec![9, 10, 11, 12]);
        // Off by default: nothing retained.
        let out = run_campaign(
            &s,
            &CampaignConfig {
                seeds: 2,
                artifact_dir: None,
                ..CampaignConfig::default()
            },
        );
        assert!(out.reports.is_empty());
    }

    #[test]
    fn failing_campaign_writes_shrunk_artifact_and_replays() {
        let s = RingScenario::default();
        let dir = tmpdir("artifact");
        // Inject an unhealed partition plus irrelevant noise faults; the
        // shrinker should strip the noise.
        let others: Vec<u32> = (0..8u32).filter(|&i| i != 3).collect();
        let plan = FaultPlan::none()
            .crash(5, 400)
            .restart(5, 800)
            .partition(&[3], &others, 0, None)
            .loss(0.02, 100, 300);
        let cfg = CampaignConfig {
            seeds: 2,
            base_seed: 40,
            plan_override: Some(plan.clone()),
            artifact_dir: Some(dir.clone()),
            ..CampaignConfig::default()
        };
        let out = run_campaign(&s, &cfg);
        assert_eq!(out.failures.len(), 2);
        let failure = &out.failures[0];
        // Shrunk to just the partition.
        assert_eq!(failure.shrunk_plan.len(), 1);
        assert!(failure.shrunk_plan.is_subset_of(&plan));
        assert!(failure.shrunk_report.violated());
        // Artifact exists, parses, and replays to the same violation.
        let path = failure.artifact.clone().expect("artifact written");
        let artifact = read_artifact(&path).expect("parse artifact");
        assert_eq!(artifact.seed, failure.report.seed);
        assert_eq!(artifact.plan, plan);
        let replayed = replay_artifact(&s, &artifact).expect("replay reproduces");
        assert_eq!(replayed.fingerprint, artifact.fingerprint);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_detects_non_reproduction() {
        let s = RingScenario::default();
        let artifact = Artifact {
            scenario: "ring".into(),
            seed: 5,
            plan: FaultPlan::none(), // fault-free: cannot violate
            shrunk_plan: FaultPlan::none(),
            failing_oracles: vec!["ring.heartbeat_connectivity".into()],
            fingerprint: 0,
            provenance: Vec::new(),
            spans_recorded: 0,
            spans_evicted: 0,
            arm: None,
            report: Default::default(),
        };
        match replay_artifact(&s, &artifact) {
            Err(ReplayError::NotReproduced { expected, got }) => {
                assert_eq!(expected.len(), 1);
                assert!(got.is_empty());
            }
            other => panic!("expected NotReproduced, got {other:?}"),
        }
    }

    #[test]
    fn failure_artifacts_embed_a_blameable_provenance_tail() {
        use cb_trace::{blame, SpanKind};
        let s = RingScenario::default();
        let others: Vec<u32> = (0..8u32).filter(|&i| i != 3).collect();
        let plan = FaultPlan::none().partition(&[3], &others, 0, None);
        let dir = tmpdir("provenance");
        let cfg = CampaignConfig {
            seeds: 1,
            base_seed: 40,
            plan_override: Some(plan),
            artifact_dir: Some(dir.clone()),
            ..CampaignConfig::default()
        };
        let out = run_campaign(&s, &cfg);
        assert_eq!(out.failures.len(), 1);
        let path = out.failures[0].artifact.clone().expect("artifact written");
        let artifact = read_artifact(&path).expect("parse artifact");
        // The tail is present and carries a synthesised violation span.
        assert!(!artifact.provenance.is_empty());
        let violation = artifact
            .provenance
            .iter()
            .find(|s| s.kind == SpanKind::Violation)
            .expect("violation span embedded");
        assert_eq!(violation.id.node, u32::MAX);
        assert!(!violation.parents.is_empty());
        // Blame from the violation walks a non-trivial causal chain.
        let chain = blame(&artifact.provenance, violation.id).expect("violation resolvable");
        assert!(chain.chain.len() > 1, "blame chain is only the violation");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_artifact_rejects_garbage() {
        let dir = tmpdir("garbage");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(&path, "{not json").unwrap();
        assert!(matches!(
            read_artifact(&path),
            Err(ReplayError::Malformed(_))
        ));
        std::fs::write(&path, "{\"schema\": \"other/v9\"}").unwrap();
        assert!(matches!(
            read_artifact(&path),
            Err(ReplayError::Malformed(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The ring, with every `run` logged and the verdict replaced: the
    /// planted bug shows iff the plan still holds every fault of `needed`.
    struct Planted {
        needed: FaultPlan,
        ran: Mutex<Vec<String>>,
    }

    impl Scenario for Planted {
        fn name(&self) -> &'static str {
            "planted"
        }
        fn node_count(&self) -> usize {
            8
        }
        fn default_plan(&self, _seed: u64) -> FaultPlan {
            FaultPlan::none()
        }
        fn run(&self, seed: u64, plan: &FaultPlan) -> RunReport {
            self.ran.lock().unwrap().push(plan.to_spec());
            let mut report = RingScenario::default().run(seed, plan);
            report.verdicts = vec![crate::oracle::OracleVerdict::check(
                "planted.bug",
                !self.needed.is_subset_of(plan),
                "the planted bug",
            )];
            report
        }
    }

    #[test]
    fn chunked_shrink_run_counts_on_pinned_plans() {
        let four = FaultPlan::none()
            .crash(1, 100)
            .restart(1, 300)
            .loss(0.05, 100, 200)
            .stall(2, 100, 200);
        // (faults the bug needs, most runs the shrinker may spend)
        let cases = [
            (FaultPlan::none(), 1),
            (four.without(0..2).without(1..2), 5), // the loss window alone
            (four.clone(), 7),
        ];
        for (needed, budget) in cases {
            let s = Planted {
                needed: needed.clone(),
                ran: Mutex::new(Vec::new()),
            };
            let report = s.run(5, &four);
            assert!(report.violated());
            s.ran.lock().unwrap().clear();
            let (shrunk, shrunk_report) = shrink_plan(&s, 5, &four, &report);
            assert_eq!(shrunk, needed, "not shrunk to exactly the needed faults");
            assert_eq!(shrunk_report.plan, shrunk);
            let ran = s.ran.into_inner().unwrap();
            assert!(
                ran.len() <= budget,
                "{} runs for a bug needing '{needed}' (budget {budget}): {ran:?}",
                ran.len()
            );
            let distinct: HashSet<&String> = ran.iter().collect();
            assert_eq!(distinct.len(), ran.len(), "a plan was run twice: {ran:?}");
            assert!(
                !ran.contains(&four.to_spec()),
                "the failing plan was re-run"
            );
        }
    }

    /// The ring, with an unhealed partition (plus noise for the shrinker to
    /// strip) planted on every seed that is 1 mod 3.
    struct SomeRed(RingScenario);

    impl Scenario for SomeRed {
        fn name(&self) -> &'static str {
            "ring"
        }
        fn node_count(&self) -> usize {
            self.0.node_count()
        }
        fn default_plan(&self, seed: u64) -> FaultPlan {
            if seed % 3 != 1 {
                return self.0.default_plan(seed);
            }
            let others: Vec<u32> = (0..8u32).filter(|&i| i != 3).collect();
            FaultPlan::none()
                .crash(5, 400)
                .restart(5, 800)
                .partition(&[3], &others, 0, None)
                .loss(0.02, 100, 300)
        }
        fn run(&self, seed: u64, plan: &FaultPlan) -> RunReport {
            self.0.run(seed, plan)
        }
    }

    /// Blanks the value of every key containing "wall".
    fn mask_wall(json: &mut Json) {
        match json {
            Json::Obj(fields) => {
                for (k, v) in fields {
                    if k.contains("wall") {
                        *v = Json::Null;
                    } else {
                        mask_wall(v);
                    }
                }
            }
            Json::Arr(items) => items.iter_mut().for_each(mask_wall),
            _ => {}
        }
    }

    #[test]
    fn outcome_and_artifacts_are_the_same_at_every_worker_count() {
        let s = SomeRed(RingScenario::default());
        let sweep = |workers: usize| {
            let dir = tmpdir(&format!("workers{workers}"));
            let out = run_campaign(
                &s,
                &CampaignConfig {
                    seeds: 8,
                    base_seed: 0,
                    workers,
                    keep_reports: true,
                    artifact_dir: Some(dir.clone()),
                    ..CampaignConfig::default()
                },
            );
            let failures: Vec<(u64, String, u64, u64)> = out
                .failures
                .iter()
                .map(|f| {
                    (
                        f.report.seed,
                        f.shrunk_plan.to_spec(),
                        f.report.fingerprint,
                        f.shrunk_report.fingerprint,
                    )
                })
                .collect();
            let reports: Vec<(u64, u64)> = out
                .reports
                .iter()
                .map(|r| (r.seed, r.fingerprint))
                .collect();
            let artifacts: Vec<Json> = out
                .failures
                .iter()
                .map(|f| {
                    let path = f.artifact.as_ref().expect("artifact written");
                    let mut json = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
                    mask_wall(&mut json);
                    json
                })
                .collect();
            let _ = std::fs::remove_dir_all(&dir);
            let totals = (out.passed, out.total_events, out.nondeterministic_seeds);
            (failures, reports, artifacts, totals)
        };
        let one = sweep(1);
        assert_eq!(
            one.0.iter().map(|f| f.0).collect::<Vec<_>>(),
            vec![1, 4, 7],
            "three red seeds, in seed order"
        );
        assert_eq!(one.1.len(), 8);
        assert_eq!(one.3 .0, 5);
        for workers in [2, 4, 8] {
            assert!(sweep(workers) == one, "{workers} workers differ from 1");
        }
    }

    #[test]
    fn in_order_consumes_in_index_order_whoever_finishes_first() {
        let want: Vec<(usize, usize)> = (0..20).map(|i| (i, i * i)).collect();
        for workers in [1, 2, 3, 8] {
            // With more than one worker, index 0 finishes only after index
            // 1 has: its result must wait in the reorder buffer.
            let (tx, rx) = std::sync::mpsc::channel();
            let (tx, rx) = (Mutex::new(tx), Mutex::new(rx));
            let mut seen = Vec::new();
            in_order(
                20,
                workers,
                |i| {
                    match i {
                        0 if workers > 1 => rx.lock().unwrap().recv().unwrap(),
                        1 => tx.lock().unwrap().send(()).unwrap(),
                        _ => {}
                    }
                    i * i
                },
                |i, sq| seen.push((i, sq)),
            );
            assert_eq!(seen, want, "{workers} workers");
        }
        in_order(0, 4, |i| i, |_, _| panic!("nothing to consume"));
    }

    #[test]
    fn a_failed_artifact_write_is_reported() {
        let s = SomeRed(RingScenario::default());
        let dir = tmpdir("notadir");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("plain-file");
        std::fs::write(&file, "in the way").unwrap();
        let out = run_campaign(
            &s,
            &CampaignConfig {
                seeds: 3,
                base_seed: 0,
                artifact_dir: Some(file),
                ..CampaignConfig::default()
            },
        );
        assert_eq!(out.failures.len(), 1);
        assert!(out.failures[0].artifact.is_none());
        assert_eq!(out.artifact_errors.len(), 1);
        assert_eq!(out.artifact_errors[0].0, 1);
        assert!(!out.artifact_errors[0].1.is_empty());
        assert!(
            out.summary_line().ends_with(", 1 artifacts NOT WRITTEN"),
            "{}",
            out.summary_line()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_says_where_the_tail_diverged() {
        let s = SomeRed(RingScenario::default());
        let report = s.run(1, &s.default_plan(1));
        assert!(report.violated());
        let dir = tmpdir("diverged");
        let path = write_artifact(&dir, &report, &report.plan, &report).unwrap();
        let mut artifact = read_artifact(&path).expect("parse artifact");
        replay_artifact(&s, &artifact).expect("the untouched artifact replays");

        // One parent edge altered.
        let index = artifact
            .provenance
            .iter()
            .position(|s| !s.parents.is_empty())
            .expect("some span has a parent");
        artifact.provenance[index].parents[0].seq += 1;
        let err = replay_artifact(&s, &artifact).expect_err("altered tail must not replay");
        let ReplayError::ProvenanceMismatch { first, .. } = &err else {
            panic!("expected ProvenanceMismatch, got {err:?}");
        };
        let TailDifference::Span {
            index: at,
            artifact: Some(recorded),
            replay: Some(replayed),
        } = first
        else {
            panic!("expected a span difference, got {first:?}");
        };
        assert_eq!(*at, index);
        assert_ne!(recorded, replayed);
        assert!(recorded.contains(" <- "), "{recorded}");
        let text = err.to_string();
        assert!(
            text.contains(&format!("first difference at span {index}:")),
            "{text}"
        );
        assert!(text.contains(recorded) && text.contains(replayed), "{text}");

        // Differences the line alone would hide, and differing totals.
        artifact = read_artifact(&path).unwrap();
        artifact.provenance[index].sim_cost_us += 1;
        let text = replay_artifact(&s, &artifact).unwrap_err().to_string();
        assert!(text.contains(" cost "), "{text}");
        artifact = read_artifact(&path).unwrap();
        artifact.spans_evicted += 1;
        let text = replay_artifact(&s, &artifact).unwrap_err().to_string();
        assert!(text.contains("spans evicted: artifact"), "{text}");
        artifact = read_artifact(&path).unwrap();
        artifact.provenance.pop();
        let text = replay_artifact(&s, &artifact).unwrap_err().to_string();
        assert!(text.contains("artifact: <tail ends>"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streamed_artifact_bytes_equal_the_rendered_tree() {
        let s = SomeRed(RingScenario::default());
        let report = s.run(4, &s.default_plan(4));
        assert!(report.violated());
        let (shrunk, shrunk_report) = shrink_plan(&s, 4, &report.plan, &report);
        let dir = tmpdir("golden");
        let path = write_artifact(&dir, &report, &shrunk, &shrunk_report).unwrap();
        let tree = artifact_json(&report, &shrunk);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            tree.to_string_pretty() + "\n"
        );
        let mut compact = TextSink::new(Vec::new(), false);
        emit_artifact(&report, &shrunk, &mut compact);
        assert_eq!(
            String::from_utf8(compact.finish().unwrap()).unwrap(),
            tree.to_string_compact()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shrink_preserves_violation_and_subset() {
        let s = RingScenario::default();
        let others: Vec<u32> = (0..8u32).filter(|&i| i != 2).collect();
        let plan = FaultPlan::none()
            .loss(0.1, 0, 500)
            .partition(&[2], &others, 0, None)
            .crash(6, 900)
            .restart(6, 1200);
        let report = s.run(77, &plan);
        assert!(report.violated());
        let (shrunk, shrunk_report) = shrink_plan(&s, 77, &plan, &report);
        assert!(shrunk.is_subset_of(&plan));
        assert!(shrunk_report.violated());
        assert!(shrunk.len() <= plan.len());
        // Dropping anything further breaks reproduction.
        for i in 0..shrunk.len() {
            let candidate = shrunk.without(i..i + 1);
            let r = s.run(77, &candidate);
            assert!(
                !same_violation(&report, &r),
                "shrunk plan not minimal: could drop fault {i}"
            );
        }
    }
}
