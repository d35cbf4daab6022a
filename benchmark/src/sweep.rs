//! Shared machinery of the campaign workloads: arms, the timing wrapper
//! around `Scenario::run`, the measured unit (`run_campaign`) and its
//! single-threaded, call-by-call twin for the traced run.

use crate::spans::Tracer;
use cb_harness::campaign::{
    run_campaign, shrink_plan, write_artifact, CampaignConfig, CampaignOutcome, Failure,
};
use cb_harness::plan::FaultPlan;
use cb_harness::scenario::{RunReport, Scenario};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// What one repetition of a workload's fixed work unit did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Unit {
    /// Operations completed: seeds swept or decisions resolved.
    pub ops: u64,
    /// Simulated steps: simulator events or model states explored.
    pub steps: u64,
    /// Checks made on the program's outputs.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
}

impl Unit {
    /// Adds another part of the same unit.
    pub fn add(&mut self, other: Unit) {
        self.ops += other.ops;
        self.steps += other.steps;
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What a unit is run with: where spans and timings go.
///
/// Every repetition does the same work, so a timing has an identity — the
/// n-th public call of the unit, or one operation's key — and the context
/// keeps, per identity, the **fastest** repetition. The machine's
/// interference only ever adds time, in episodes from milliseconds to tens
/// of seconds (see the README), so the fastest of a dozen repetitions of one
/// call is that call's own cost far more repeatably than their median is.
pub struct Ctx {
    /// Span sink; switched off outside traced repetitions.
    pub tracer: Tracer,
    /// Fastest wall ns seen per individually timed operation.
    pub ops: Mutex<HashMap<u64, u32>>,
    /// Wall seconds of the public calls the current repetition is made of,
    /// in call order.
    pub calls: Mutex<Vec<f64>>,
}

impl Ctx {
    /// A context whose tracer records (`traced`) or only calls through.
    pub fn new(traced: bool) -> Self {
        Ctx {
            tracer: Tracer::new(traced),
            ops: Mutex::new(HashMap::new()),
            calls: Mutex::new(Vec::new()),
        }
    }

    /// Times `f` as the operation `key`: a span while traced, and the
    /// fastest time per key always.
    pub fn op<R>(&self, span: &'static str, key: u64, op: u64, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = self.tracer.span(span, op, f);
        let ns = t0.elapsed().as_nanos().min(u32::MAX as u128) as u32;
        let mut ops = self.ops.lock().expect("an operation panicked");
        let best = ops.entry(key).or_insert(u32::MAX);
        *best = ns.min(*best);
        out
    }

    /// Times `f` as the next public call of the repetition.
    pub fn call<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        let s = t0.elapsed().as_secs_f64();
        self.calls.lock().expect("a call panicked").push(s);
        out
    }
}

/// One scenario configuration and how many seeds of it a unit sweeps.
pub struct Arm {
    /// Name used in `arm.<name>.*` metrics.
    pub name: &'static str,
    /// The scenario, configured.
    pub scenario: Box<dyn Scenario>,
    /// Seeds per unit.
    pub seeds: u64,
    /// Oracles this arm is built to fail (a planted bug); any other failing
    /// oracle is a failed check.
    pub may_fail: &'static [&'static str],
    /// A fault plan for every seed in place of the scenario's own.
    pub plan: Option<FaultPlan>,
}

impl Arm {
    /// An arm on which every oracle must pass.
    pub fn green(name: &'static str, scenario: impl Scenario + 'static, seeds: u64) -> Arm {
        Arm {
            name,
            scenario: Box::new(scenario),
            seeds,
            may_fail: &[],
            plan: None,
        }
    }
}

/// A `Scenario` that times every `run` of the scenario it wraps — from
/// outside, whoever calls it: `run_campaign`'s workers, `shrink_plan`,
/// `replay_artifact`, or the traced loop.
pub struct Timed<'a> {
    inner: &'a dyn Scenario,
    cx: &'a Ctx,
    /// The arm's index, when every run is an operation of its own.
    sampled: Option<u64>,
}

impl<'a> Timed<'a> {
    /// Wraps `inner`. With `sampled: Some(arm)` every run is a span and an
    /// operation, keyed by arm, seed and plan (the first pass and the re-run
    /// of a seed are the same computation, so they share a key); with `None`
    /// the caller times a larger operation around the run, which is a span
    /// only.
    pub fn new(inner: &'a dyn Scenario, sampled: Option<u64>, cx: &'a Ctx) -> Self {
        Timed { inner, cx, sampled }
    }
}

impl Scenario for Timed<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn default_plan(&self, seed: u64) -> FaultPlan {
        self.inner.default_plan(seed)
    }

    fn run(&self, seed: u64, plan: &FaultPlan) -> RunReport {
        match self.sampled {
            Some(arm) => {
                let key = cb_corpus::fnv1a(format!("{arm} {seed} {}", plan.to_spec()).as_bytes());
                self.cx
                    .op("sim.run", key, seed, || self.inner.run(seed, plan))
            }
            None => self
                .cx
                .tracer
                .span("sim.run", seed, || self.inner.run(seed, plan)),
        }
    }
}

/// Checks one arm's outcome: every seed deterministic on re-run, and no
/// oracle failing that the arm was not built to fail.
pub fn check_outcome(arm: &Arm, outcome: &CampaignOutcome) -> Unit {
    let mut failed = outcome.nondeterministic_seeds.len() as u64;
    for seed in &outcome.nondeterministic_seeds {
        eprintln!(
            "FAILED {} seed {seed}: nondeterministic on re-run",
            arm.name
        );
    }
    for f in &outcome.failures {
        let unexpected: Vec<String> = f
            .report
            .verdicts
            .iter()
            .filter(|v| !v.passed && !arm.may_fail.contains(&v.name.as_str()))
            .map(|v| format!("{}: {:.120}", v.name, v.detail))
            .collect();
        if !unexpected.is_empty() {
            failed += 1;
            eprintln!("FAILED {} seed {}: {unexpected:?}", arm.name, f.report.seed);
        }
    }
    Unit {
        ops: arm.seeds,
        steps: outcome.total_events,
        attempted: arm.seeds,
        failed,
    }
}

/// The measured unit: each arm through `run_campaign` with the default
/// configuration (determinism re-run and shrinking on, artifacts written).
/// Each `run_campaign` is one call of the repetition.
pub fn sweep(
    arms: &[Arm],
    base_seed: u64,
    workers: usize,
    artifacts: &Path,
    sample_runs: bool,
    cx: &Ctx,
) -> (Unit, Vec<CampaignOutcome>) {
    let mut unit = Unit::default();
    let mut outcomes = Vec::with_capacity(arms.len());
    for (index, arm) in arms.iter().enumerate() {
        let config = CampaignConfig {
            base_seed,
            seeds: arm.seeds,
            workers,
            artifact_dir: Some(artifacts.to_path_buf()),
            plan_override: arm.plan.clone(),
            ..CampaignConfig::default()
        };
        let timed = Timed::new(
            arm.scenario.as_ref(),
            sample_runs.then_some(index as u64),
            cx,
        );
        let outcome = cx.call(|| run_campaign(&timed, &config));
        unit.add(check_outcome(arm, &outcome));
        outcomes.push(outcome);
    }
    (unit, outcomes)
}

/// The same work as [`sweep`] on one thread, one public call at a time with
/// a span around each: what `run_campaign` does per seed, in its order.
pub fn sweep_traced(
    arms: &[Arm],
    base_seed: u64,
    artifacts: &Path,
    sample_runs: bool,
    cx: &Ctx,
) -> (Unit, Vec<CampaignOutcome>) {
    let t = &cx.tracer;
    let mut unit = Unit::default();
    let mut outcomes = Vec::with_capacity(arms.len());
    for (index, arm) in arms.iter().enumerate() {
        let outcome = t.span("bench.arm", index as u64, || {
            let timed = Timed::new(
                arm.scenario.as_ref(),
                sample_runs.then_some(index as u64),
                cx,
            );
            let mut outcome = CampaignOutcome {
                scenario: timed.name().to_string(),
                ..CampaignOutcome::default()
            };
            for seed in base_seed..base_seed + arm.seeds {
                let plan = arm.plan.clone().unwrap_or_else(|| timed.default_plan(seed));
                let report = t.span("harness.first", seed, || timed.run(seed, &plan));
                let again = t.span("harness.rerun", seed, || timed.run(seed, &plan));
                outcome.total_events += report.events_processed;
                t.span("telemetry.merge", seed, || {
                    outcome.telemetry.merge(&report.telemetry)
                });
                if let Some(recorded) = &report.policy {
                    t.span("policy.merge", seed, || match &mut outcome.policy {
                        Some(merged) => merged.merge(recorded),
                        None => outcome.policy = Some(recorded.clone()),
                    });
                }
                let deterministic = again.fingerprint == report.fingerprint;
                if !deterministic {
                    outcome.nondeterministic_seeds.push(seed);
                }
                if report.violated() {
                    let (shrunk_plan, shrunk_report) = t.span("harness.shrink", seed, || {
                        shrink_plan(&timed, seed, &report.plan, &report)
                    });
                    let artifact = t.span("harness.artifact_write", seed, || {
                        write_artifact(artifacts, &report, &shrunk_plan, &shrunk_report).ok()
                    });
                    outcome.failures.push(Failure {
                        report,
                        shrunk_plan,
                        shrunk_report,
                        artifact,
                    });
                } else {
                    if deterministic {
                        outcome.passed += 1;
                    }
                    outcome.reports.push(report);
                }
            }
            outcome
        });
        unit.add(check_outcome(arm, &outcome));
        outcomes.push(outcome);
    }
    (unit, outcomes)
}
