//! The workloads and what each is for.
//!
//! Every workload is a closed-loop batch job: a fixed work unit, repeated,
//! whose next operation starts when the previous one completes. The
//! campaign workloads run their unit on two worker threads (the container
//! has two cores); the decide workloads are single-threaded.

use crate::spans::{durations_of, Span};
use crate::stats::median;
use crate::sweep::{sweep, sweep_traced, Arm, Ctx, Unit};
use crate::{decide, triage};
use cb_dissem::SwarmCampaign;
use cb_gossip::GossipCampaign;
use cb_harness::campaign::{run_campaign, CampaignConfig, CampaignOutcome};
use cb_harness::plan::FaultPlan;
use cb_harness::scenario::RunReport;
use cb_kv::KvCampaign;
use cb_paxos::{MenciusCampaign, PaxosCampaign};
use cb_policy::PolicyPile;
use cb_randtree::RandTreeCampaign;
use cb_simnet::prelude::SimTime;
use cb_telemetry::keys;
use cb_workload::WorkloadProfile;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Per-layer metrics of one traced run, by name.
pub type Metrics = BTreeMap<String, f64>;

/// Worker threads of a campaign unit: the container's two cores.
pub const WORKERS: usize = 2;

/// How much work a unit holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// A few seeds and decisions: `--smoke` and the package's tests.
    Smoke,
}

impl Scale {
    /// `full` at the measured size, `smoke` in a smoke run.
    pub fn pick(self, full: u64, smoke: u64) -> u64 {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
}

/// One workload, set up and ready to repeat its unit.
pub trait Workload {
    /// Whether the unit runs on worker threads.
    fn parallel(&self) -> bool;

    /// One repetition of the fixed work unit through the public entry
    /// points a user calls, on `workers` threads where the unit has any.
    fn unit(&mut self, workers: usize, cx: &Ctx) -> Unit;

    /// The same inputs on one thread, one public call at a time, each in a
    /// span of `cx.tracer`.
    fn traced_unit(&mut self, cx: &Ctx) -> Unit;

    /// Per-layer metrics from the spans of the last traced repetition and
    /// from what that repetition produced.
    fn layer_metrics(&mut self, spans: &[Span], out: &mut Metrics);
}

/// Name and one-line reason of every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "sweep-small",
        "5-16-node fleets, full trace, fault plans, oracles incl. lincheck: time sits in the \
         simnet step loop, trace recorders, handlers and reports; none in prediction",
    ),
    (
        "fleet-large",
        "gossip and dissem at 1000 nodes: lite trace, timer wheel, generated topologies; a \
         trace-path change predicts no change here, and rings at every size show in peak_rss_mb",
    ),
    (
        "sweep-predict",
        "randtree fleets resolving live through lookahead, storm+ladder+deadline and a warmed \
         policy store: whether a decision-path gain survives a running simulator",
    ),
    (
        "decide-cold",
        "five predictive models resolved through a recording ladder, no simulator: cb-core, \
         cb-mck and the policy insert do all the work; the write side of the store",
    ),
    (
        "decide-warm",
        "the same decision stream through a store-warmed ladder: p50 is a store hit, the tail is \
         the every-16th refresh lookahead; the read side of the store",
    ),
    (
        "triage-io",
        "the red-seed journey on kv with unguarded reads: sweep, shrink, 1 MB artifacts, read and \
         replay, corpus ingest, save, load and query: JSON, cb-corpus and the filesystem",
    ),
];

/// Seeds every campaign arm was swept over and found green on (see the
/// README): `--seed` picks a window of them, so no operation fails.
const SEED_POOL: u64 = 1000;

/// The first campaign seed for `--seed seed`.
pub fn base_seed(seed: u64) -> u64 {
    1 + seed % SEED_POOL
}

/// Sets up the workload called `name`, or `None` for an unknown name.
/// `scratch` is an empty directory of the workload's own.
pub fn build(name: &str, seed: u64, scale: Scale, scratch: &Path) -> Option<Box<dyn Workload>> {
    Some(match name {
        "sweep-small" => Box::new(sweep_small(seed, scale, scratch)),
        "fleet-large" => Box::new(fleet_large(seed, scale, scratch)),
        "sweep-predict" => Box::new(sweep_predict(seed, scale, scratch)),
        "decide-cold" => Box::new(decide::Decide::cold(seed, scale)),
        "decide-warm" => Box::new(decide::Decide::warm(seed, scale)),
        "triage-io" => Box::new(triage::Triage::new(seed, scale, scratch)),
        _ => return None,
    })
}

/// A workload that is nothing but arms swept by `run_campaign`.
pub struct Sweep {
    arms: Vec<Arm>,
    base_seed: u64,
    artifacts: PathBuf,
    /// Outcomes of the last traced repetition, per arm.
    last: Vec<CampaignOutcome>,
}

impl Sweep {
    fn new(arms: Vec<Arm>, seed: u64, scratch: &Path) -> Sweep {
        Sweep {
            arms,
            base_seed: base_seed(seed),
            artifacts: scratch.join("artifacts"),
            last: Vec::new(),
        }
    }
}

/// Stock arms of every small scenario plus kv under the `million` profile.
/// Seed counts put each arm at 10-25 % of the unit.
fn sweep_small(seed: u64, scale: Scale, scratch: &Path) -> Sweep {
    let million = WorkloadProfile::by_name("million").expect("the million profile is built in");
    let n = |full| scale.pick(full, 1);
    Sweep::new(
        vec![
            Arm::green("kv", KvCampaign::default(), n(8)),
            Arm::green("mencius", MenciusCampaign::default(), n(8)),
            Arm::green("paxos", PaxosCampaign::default(), n(32)),
            Arm::green("gossip", GossipCampaign::default(), n(6)),
            Arm::green("dissem", SwarmCampaign::default(), n(6)),
            Arm::green(
                "kv-million",
                KvCampaign {
                    workload: Some(million),
                    ..KvCampaign::default()
                },
                n(6),
            ),
        ],
        seed,
        scratch,
    )
}

/// The two scenarios with a `--nodes` arm, at the size where they switch to
/// lite tracing and generated topologies.
///
/// At the stock horizons one 1000-node seed with its re-run costs 2.2 s, so
/// no run of a few seconds could repeat a unit often enough for a median.
/// Horizons are cut to 24 s (of 60) and 60 s (of 600), and each arm gets a
/// fault plan of the stock shape that heals inside the shorter horizon:
/// push gossip needs ~17 rounds of 500 ms to reach the last of 1000 nodes
/// even without faults, so churn takes an eighth of the fleet, not a third.
/// The swarm's partition starts after the download completes: a peer cut off
/// mid-download never finishes (see the README's findings).
fn fleet_large(seed: u64, scale: Scale, scratch: &Path) -> Sweep {
    let nodes = scale.pick(1000, 96) as u32;
    let all_but = |cut: &[u32]| -> Vec<u32> { (0..nodes).filter(|i| !cut.contains(i)).collect() };
    let churners: Vec<u32> = (1..=nodes / 8).collect();
    let gossip_plan = FaultPlan::none()
        .churn(&churners, 1_000, 5_000, 2_000, 500)
        .loss(0.10, 1_000, 5_000)
        .partition(&[7, 11], &all_but(&[7, 11]), 3_000, Some(7_000));
    let swarm_plan = FaultPlan::none()
        .crash(5, 4_000)
        .restart(5, 12_000)
        .loss(0.05, 1_000, 8_000)
        .partition(&[9], &all_but(&[9]), 30_000, Some(40_000));
    let seeds = scale.pick(2, 1);
    Sweep::new(
        vec![
            Arm {
                plan: Some(gossip_plan),
                ..Arm::green(
                    "gossip-1000",
                    GossipCampaign {
                        nodes: nodes as usize,
                        horizon: SimTime::from_secs(24),
                        ..GossipCampaign::default()
                    },
                    seeds,
                )
            },
            Arm {
                plan: Some(swarm_plan),
                ..Arm::green(
                    "dissem-1000",
                    SwarmCampaign {
                        peers: nodes as usize,
                        blocks: 8,
                        horizon: SimTime::from_secs(60),
                        ..SwarmCampaign::default()
                    },
                    seeds,
                )
            },
        ],
        seed,
        scratch,
    )
}

/// Randtree resolving its choices by prediction while the fleet runs. The
/// third arm's store is recorded, saved and loaded here, in set-up.
fn sweep_predict(seed: u64, scale: Scale, scratch: &Path) -> Sweep {
    let seeds = scale.pick(2, 1);
    let stock = || RandTreeCampaign {
        horizon: SimTime::from_secs(scale.pick(900, 120)),
        ..RandTreeCampaign::default()
    };
    let recorded = run_campaign(
        &RandTreeCampaign {
            record_policy: true,
            ..stock()
        },
        &CampaignConfig {
            base_seed: base_seed(seed),
            seeds,
            workers: WORKERS,
            check_determinism: false,
            artifact_dir: None,
            ..CampaignConfig::default()
        },
    );
    let mut pile = PolicyPile::new();
    pile.insert_store(
        recorded
            .policy
            .expect("a recording sweep returns its store"),
    );
    let path = scratch.join("policy.cbp");
    pile.save(&path).expect("policy pile saves");
    let store = PolicyPile::load(&path)
        .expect("policy pile loads")
        .get("randtree")
        .expect("the pile holds the randtree store")
        .clone();
    Sweep::new(
        vec![
            Arm::green(
                "randtree-lookahead",
                RandTreeCampaign {
                    lookahead: true,
                    evalcache: true,
                    ..stock()
                },
                seeds,
            ),
            Arm::green(
                "randtree-ladder",
                RandTreeCampaign {
                    ladder: true,
                    storm: true,
                    deadline_states: 20,
                    ..stock()
                },
                seeds,
            ),
            Arm::green(
                "randtree-policy",
                RandTreeCampaign {
                    policy: Some(Arc::new(store)),
                    ..stock()
                },
                seeds,
            ),
        ],
        seed,
        scratch,
    )
}

impl Workload for Sweep {
    fn parallel(&self) -> bool {
        true
    }

    fn unit(&mut self, workers: usize, cx: &Ctx) -> Unit {
        sweep(
            &self.arms,
            self.base_seed,
            workers,
            &self.artifacts,
            true,
            cx,
        )
        .0
    }

    fn traced_unit(&mut self, cx: &Ctx) -> Unit {
        let (unit, outcomes) = sweep_traced(&self.arms, self.base_seed, &self.artifacts, true, cx);
        self.last = outcomes;
        unit
    }

    fn layer_metrics(&mut self, spans: &[Span], out: &mut Metrics) {
        sweep_metrics(&self.arms, &self.last, spans, out);
    }
}

/// Every report an outcome of [`sweep_traced`] holds.
pub fn reports(outcome: &CampaignOutcome) -> impl Iterator<Item = &RunReport> {
    outcome
        .reports
        .iter()
        .chain(outcome.failures.iter().map(|f| &f.report))
}

fn median_ms(ns: &[f64]) -> f64 {
    median(ns) / 1e6
}

/// Per-layer metrics every campaign workload has: the per-arm cost of a
/// seed, the harness's own shares, and the exact counts.
pub fn sweep_metrics(
    arms: &[Arm],
    outcomes: &[CampaignOutcome],
    spans: &[Span],
    out: &mut Metrics,
) {
    let name_of = |i: Option<u32>| i.map(|i| spans[i as usize].name);
    // First-pass `Scenario::run` calls, per arm: sim.run < harness.first <
    // bench.arm (whose op is the arm's index).
    let mut first_ns: Vec<Vec<f64>> = vec![Vec::new(); arms.len()];
    let (mut shrink_runs, mut rerun_ns, mut root_ns) = (0u64, 0u64, 0u64);
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        match (s.name, name_of(s.parent)) {
            ("sim.run", Some("harness.first")) => {
                let first = &spans[s.parent.expect("matched") as usize];
                if let Some(arm) = first.parent.map(|i| &spans[i as usize]) {
                    first_ns[arm.op as usize].push(dur as f64);
                }
            }
            ("sim.run", Some("harness.shrink")) => shrink_runs += 1,
            ("harness.rerun", _) => rerun_ns += dur,
            ("bench.unit", None) => root_ns += dur,
            _ => {}
        }
    }
    let mut merged = cb_telemetry::Registry::new();
    let (mut events, mut tail_spans) = (0u64, 0u64);
    for ((arm, outcome), first_ns) in arms.iter().zip(outcomes).zip(&first_ns) {
        out.insert(format!("arm.{}.seed_ms_p50", arm.name), median_ms(first_ns));
        out.insert(
            format!("arm.{}.ns_per_event", arm.name),
            first_ns.iter().sum::<f64>() / outcome.total_events.max(1) as f64,
        );
        events += outcome.total_events;
        tail_spans += reports(outcome)
            .map(|r| r.provenance.len() as u64)
            .sum::<u64>();
        merged.merge(&outcome.telemetry);
    }
    out.insert("simnet.events".into(), events as f64);
    out.insert(
        "harness.rerun_share".into(),
        rerun_ns as f64 / root_ns.max(1) as f64,
    );
    out.insert("harness.shrink_runs".into(), shrink_runs as f64);
    out.insert(
        "harness.shrink_ms_p50".into(),
        median_ms(&durations_of(spans, "harness.shrink")),
    );
    out.insert(
        "telemetry.merge_us".into(),
        median(&durations_of(spans, "telemetry.merge")) / 1e3,
    );
    out.insert(
        "trace.spans_recorded".into(),
        merged.counter(keys::TRACE_SPANS_RECORDED) as f64,
    );
    out.insert(
        "trace.spans_evicted".into(),
        merged.counter(keys::TRACE_SPANS_EVICTED) as f64,
    );
    out.insert("trace.tail_spans".into(), tail_spans as f64);
    out.insert(
        "core.live_decisions".into(),
        merged.counter(keys::CORE_DECISIONS_TOTAL) as f64,
    );
    if let Some(h) = merged.hist(keys::CORE_DECISION_LATENCY_WALL_NS) {
        // The exact mean: the histogram's quantiles are 12.5 %-wide buckets.
        out.insert("core.live_decide_ns_mean".into(), h.mean());
        // Decision time inside the first-pass `Scenario::run`s (whose
        // telemetry the histogram merges), as a share of those runs.
        let first_total: f64 = first_ns.iter().flatten().sum();
        out.insert(
            "core.live_decide_share".into(),
            h.mean() * h.count() as f64 / first_total.max(1.0),
        );
    }
    let hits = merged.counter(keys::CORE_EVALCACHE_HITS) as f64;
    let misses = merged.counter(keys::CORE_EVALCACHE_MISSES) as f64;
    if hits + misses > 0.0 {
        out.insert("core.evalcache_hit_ratio".into(), hits / (hits + misses));
    }
    let offered = merged.counter(keys::WORKLOAD_OFFERED) as f64;
    if offered > 0.0 {
        let million: u64 = arms
            .iter()
            .zip(outcomes)
            .filter(|(a, _)| a.name == "kv-million")
            .map(|(_, o)| o.total_events)
            .sum();
        out.insert(
            "workload.offered_per_event".into(),
            offered / million.max(1) as f64,
        );
    }
    crate::probes::report_probes(outcomes.iter().flat_map(reports), out);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::sweep::check_outcome;

    /// Sweeps `arms` over the whole seed pool, once per seed.
    pub(crate) fn assert_green_over_pool(arms: &[Arm]) {
        for arm in arms {
            let outcome = run_campaign(
                arm.scenario.as_ref(),
                &CampaignConfig {
                    base_seed: 1,
                    seeds: SEED_POOL + arm.seeds,
                    workers: WORKERS,
                    check_determinism: false,
                    shrink: false,
                    artifact_dir: None,
                    plan_override: arm.plan.clone(),
                    ..CampaignConfig::default()
                },
            );
            let failed = check_outcome(arm, &outcome).failed;
            assert_eq!(failed, 0, "{}: {failed} seeds of the pool fail", arm.name);
        }
    }

    /// Builds a workload in a scratch directory of its own and sweeps its
    /// arms over the pool.
    fn over_pool(name: &str, build: fn(u64, Scale, &Path) -> Sweep) {
        let scratch =
            std::env::temp_dir().join(format!("cb-benchmark-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).expect("temp dir");
        assert_green_over_pool(&build(0, Scale::Full, &scratch).arms);
        let _ = std::fs::remove_dir_all(&scratch);
    }

    #[test]
    #[ignore = "takes a minute: run after changing an arm or a scenario"]
    fn sweep_small_is_green_over_the_seed_pool() {
        over_pool("sweep-small", sweep_small);
    }

    #[test]
    #[ignore = "takes minutes: run after changing an arm or a scenario"]
    fn fleet_large_is_green_over_the_seed_pool() {
        over_pool("fleet-large", fleet_large);
    }

    #[test]
    #[ignore = "takes minutes: run after changing an arm or a scenario"]
    fn sweep_predict_is_green_over_the_seed_pool() {
        over_pool("sweep-predict", sweep_predict);
    }
}
