//! Multi-seed fault-injection campaigns over the registered scenarios.
//!
//! ```text
//! campaign [--scenario NAME] [--seeds N] [--base-seed S] [--plan SPEC]
//!          [--workers N] [--no-shrink] [--no-determinism] [--out DIR]
//!          [--telemetry] [--lookahead]
//!          [--storm] [--ladder] [--deadline STATES]
//!          [--nodes N] [--unsafe-reads] [--workload PROFILE]
//!          [--record-policy PILE.cbp] [--policy PILE.cbp]
//!          [--corpus DIR]
//! campaign --replay ARTIFACT.json [--policy PILE.cbp]
//! campaign --list
//! ```
//!
//! With no `--scenario`, sweeps every registered scenario. On an oracle
//! violation a JSON failure artifact lands under `--out` (default
//! `results/campaigns/`) carrying the shrunk minimal repro and the failing
//! run's report: scenario, seed, fault-plan spec, arm, oracle verdicts,
//! telemetry and the flight-recorder tail. `--seeds 1 --base-seed SEED
//! --plan SHRUNK_PLAN` with the arm's flags re-runs the shrunk repro.
//! `--replay` re-runs an artifact and verifies the violation reproduces.
//! The report records the arm its scenario was built as (`report.arm`: the
//! non-stock fields, keyed by flag name), and the scenario, seed and plan,
//! so replay rebuilds the run from the artifact alone. A sweep flag
//! (`--scenario`, `--seeds`, `--base-seed`, `--plan`, `--workers`,
//! `--no-shrink`, `--no-determinism`, `--out`, `--corpus`, `--telemetry`)
//! or an arm flag beside `--replay` is a usage error. `--policy PILE` is
//! the exception, because a pile is an input file: an arm that loaded a
//! policy store records the store's content id, and replay needs the pile
//! that holds that store. An artifact that records no arm (schema v1, or
//! written by a scenario built outside the registry) replays in the arm
//! the flags given.
//! Sweep and replay build the scenario through the one
//! `registry::configure`, so the same arm gives the same run. Which arm
//! flags a scenario accepts is declared in the registry — see `--list`;
//! naming a scenario (`--scenario`, or the one an artifact records) with a
//! flag it does not accept is a usage error, and so is a `--nodes` below
//! the smallest fleet it can build, while a sweep of the whole registry
//! hands each scenario the flags it accepts. `--base-seed S --seeds N`
//! with `S + N` past the largest u64 is a usage error too.
//! `--telemetry` prints a per-scenario digest of the merged telemetry
//! (decision-latency p50/p99 on the sim-cost clock, cache hit rate,
//! states explored per decision) after each summary line.
//! `--lookahead` switches the randtree scenario to its predictive-lookahead
//! arm (every decision runs the fused evaluator).
//! `--storm` layers the fault-storm schedule (gray-failure stalls, a
//! latency spike, extra loss) onto the default plan; `--unsafe-reads`
//! switches the kv scenario to its deliberately unsound local-read arm
//! (no guard round), the planted bug the linearizability oracle exists to
//! catch — a sweep with it is *expected* to exit 1;
//! `--ladder` resolves their choices through the degradation-governed
//! resolver ladder; `--deadline STATES` sets the per-decision prediction
//! deadline on randtree (enforced in the ladder arm, reported-only in the
//! lookahead control arm). Together they reproduce experiment E11.
//! `--nodes N` overrides the fleet size — `--nodes 10000` is the
//! internet-scale arm; fleets of 1000+ nodes automatically use lite
//! tracing.
//! `--record-policy PILE` trains the cross-run policy store: the
//! scenarios resolve through the recording ladder, the per-seed
//! stores are merged deterministically (worker-count invariant), and the
//! result is saved as a versioned policy pile at PILE. `--policy PILE`
//! loads a previously recorded pile and warm-starts those scenarios'
//! ladders from it, so store-hits skip lookahead entirely (watch
//! `core.policy.hits` in `--telemetry` artifacts). The two flags compose:
//! load-and-re-record refreshes a pile in place.
//! `--workload PROFILE` drives the sweep with an open-loop aggregate
//! client population (`steady`, `flash`, `flash-off`, `million`): the kv
//! scenario gains a generator node, profile-driven admission control and
//! bounded retries, and the goodput-floor + metastability oracles; mencius
//! is driven through its consensus entry point; the remaining protocols
//! run harder via the profile's scale hint. Composes with every other
//! arm flag a scenario accepts. The `flash-off` profile is the
//! deliberately unprotected arm — a sweep with it is *expected* to exit 1
//! with a metastability detection.
//! `--corpus DIR` ingests **every** seed's run (passing and failing) into
//! the queryable campaign corpus at DIR — its deterministic `index.cbc` —
//! creating or extending it in place.
//! Records are wall-masked at ingestion, so the resulting index bytes are
//! identical for any `--workers` count; query and diff it with the
//! `corpus` binary.
//! `trace chrome ARTIFACT --out FILE` exports an artifact's provenance
//! tail as Chrome trace-event JSON, loadable at `ui.perfetto.dev`.
//! Exit status: 0 = all oracles passed, 1 = violations (or a replay that
//! did reproduce the recorded violation — that's what a repro is for),
//! 2 = usage error.

use cb_bench::registry::{
    accepted_flags, configure, configure_all, scenario_names, ArmField, ArmSpec,
};
use cb_harness::prelude::*;
use cb_harness::{read_artifact, replay_artifact};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: campaign [--scenario NAME] [--seeds N] [--base-seed S] [--plan SPEC]\n\
         \x20               [--workers N] [--no-shrink] [--no-determinism] [--out DIR]\n\
         \x20               [--telemetry] [--lookahead]\n\
         \x20               [--storm] [--ladder] [--deadline STATES]\n\
         \x20               [--nodes N] [--unsafe-reads] [--workload PROFILE]\n\
         \x20               [--record-policy PILE.cbp] [--policy PILE.cbp]\n\
         \x20               [--corpus DIR]\n\
         \x20      campaign --replay ARTIFACT.json [--policy PILE.cbp]\n\
         \x20      campaign --list\n\
         scenarios: {}\n\
         workload profiles: {}",
        scenario_names().join(", "),
        cb_workload::WorkloadProfile::names().join(", ")
    );
    std::process::exit(2);
}

/// Flags that shape a sweep, which `--replay` refuses: it re-runs the
/// artifact's own scenario, seed and plan.
const SWEEP_ONLY: &[&str] = &[
    "--scenario",
    "--seeds",
    "--base-seed",
    "--plan",
    "--workers",
    "--no-shrink",
    "--no-determinism",
    "--out",
    "--corpus",
    "--telemetry",
];

/// The argument following `flag`.
fn need(args: &[String], i: &mut usize, flag: &str) -> String {
    *i += 1;
    args.get(*i)
        .unwrap_or_else(|| {
            eprintln!("{flag} needs an argument");
            usage();
        })
        .clone()
}

/// The argument following `flag`, parsed; `wants` names it in the error.
fn need_parsed<T: std::str::FromStr>(args: &[String], i: &mut usize, flag: &str, wants: &str) -> T {
    need(args, i, flag).parse().unwrap_or_else(|_| {
        eprintln!("{flag} wants {wants}");
        usage();
    })
}

/// `--replay`: re-runs the artifact's `(seed, plan)` on its scenario in its
/// recorded arm (or, for an artifact that records none, the arm `flags`
/// give) and reports whether the recorded violation reproduces.
fn replay(path: &Path, flags: &ArmSpec) -> ! {
    let fail = |e: &dyn std::fmt::Display| -> ! {
        eprintln!("{e}");
        std::process::exit(2);
    };
    let artifact = read_artifact(path).unwrap_or_else(|e| fail(&e));
    let arm = match &artifact.arm {
        None => flags.clone(),
        Some(recorded) => {
            if let Some(field) = flags
                .set_fields()
                .into_iter()
                .find(|f| *f != ArmField::Policy)
            {
                fail(&format!(
                    "--replay does not take {}: the artifact records its arm {recorded}",
                    field.flag()
                ));
            }
            ArmSpec::from_recorded(recorded, &artifact.scenario, flags.policy.clone())
                .unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())))
        }
    };
    let scenario = configure(&artifact.scenario, &arm)
        .unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())));
    println!(
        "replaying {} seed {} plan '{}' arm {}",
        artifact.scenario,
        artifact.seed,
        artifact.plan.to_spec(),
        match &artifact.arm {
            Some(recorded) => recorded.to_string(),
            None => format!(
                "{} (not recorded; from the flags)",
                arm.to_json(&artifact.scenario)
            ),
        }
    );
    match replay_artifact(scenario.as_ref(), &artifact) {
        Ok(report) => {
            println!(
                "violation reproduced: {:?} (fingerprint {})",
                report.failing_oracles(),
                report.fingerprint
            );
            if report.fingerprint == artifact.fingerprint {
                println!("fingerprint matches the recorded run exactly");
            } else {
                println!(
                    "note: fingerprint differs from recorded {} (artifact predates a code change?)",
                    artifact.fingerprint
                );
            }
            std::process::exit(1);
        }
        Err(e) => fail(&e),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scenario_arg: Option<String> = None;
    let mut replay_path: Option<PathBuf> = None;
    let mut show_telemetry = false;
    let mut arm = ArmSpec::default();
    let mut record_policy: Option<PathBuf> = None;
    let mut corpus_dir: Option<PathBuf> = None;
    let mut cfg = CampaignConfig::default();
    let mut sweep_flag: Option<&str> = None;
    let mut i = 0;
    while i < args.len() {
        if SWEEP_ONLY.contains(&args[i].as_str()) {
            sweep_flag = sweep_flag.or(Some(&args[i]));
        }
        match args[i].as_str() {
            "--list" => {
                for name in scenario_names() {
                    println!("{name:<9} {}", accepted_flags(name));
                }
                return;
            }
            "--scenario" => scenario_arg = Some(need(&args, &mut i, "--scenario")),
            "--seeds" => cfg.seeds = need_parsed(&args, &mut i, "--seeds", "a number"),
            "--base-seed" => cfg.base_seed = need_parsed(&args, &mut i, "--base-seed", "a number"),
            "--plan" => {
                let spec = need(&args, &mut i, "--plan");
                cfg.plan_override = Some(FaultPlan::from_spec(&spec).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage();
                }));
            }
            "--workers" => cfg.workers = need_parsed(&args, &mut i, "--workers", "a number"),
            "--no-shrink" => cfg.shrink = false,
            "--lookahead" => arm.lookahead = true,
            "--storm" => arm.storm = true,
            "--unsafe-reads" => arm.unsafe_reads = true,
            "--ladder" => arm.ladder = true,
            "--deadline" => {
                arm.deadline_states =
                    need_parsed(&args, &mut i, "--deadline", "a number of explored states")
            }
            "--record-policy" => {
                record_policy = Some(PathBuf::from(need(&args, &mut i, "--record-policy")));
                arm.record_policy = true;
            }
            "--policy" => {
                // Warm-start pile: loaded once; each scenario whose
                // decisions route through the ladder takes its own store.
                let path = need(&args, &mut i, "--policy");
                let pile = cb_policy::PolicyPile::load(Path::new(&path)).unwrap_or_else(|e| {
                    eprintln!("--policy {path}: {e}");
                    std::process::exit(2);
                });
                arm.policy = Some(Arc::new(pile));
            }
            "--corpus" => {
                corpus_dir = Some(PathBuf::from(need(&args, &mut i, "--corpus")));
                cfg.keep_reports = true;
            }
            "--workload" => {
                let name = need(&args, &mut i, "--workload");
                arm.workload = Some(cb_workload::WorkloadProfile::by_name(&name).unwrap_or_else(
                    || {
                        eprintln!(
                            "unknown workload profile '{name}' (profiles: {})",
                            cb_workload::WorkloadProfile::names().join(", ")
                        );
                        usage();
                    },
                ));
            }
            "--nodes" => arm.nodes = Some(need_parsed(&args, &mut i, "--nodes", "a fleet size")),
            "--telemetry" => show_telemetry = true,
            "--no-determinism" => cfg.check_determinism = false,
            "--out" => cfg.artifact_dir = Some(PathBuf::from(need(&args, &mut i, "--out"))),
            "--replay" => replay_path = Some(PathBuf::from(need(&args, &mut i, "--replay"))),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
        i += 1;
    }

    if let Some(path) = replay_path {
        if let Some(flag) = sweep_flag {
            eprintln!(
                "--replay does not take {flag}: the artifact records the scenario, seed and plan"
            );
            usage();
        }
        replay(&path, &arm);
    }

    if cfg.base_seed.checked_add(cfg.seeds).is_none() {
        eprintln!(
            "--base-seed {} --seeds {} runs past the largest seed, {}",
            cfg.base_seed,
            cfg.seeds,
            u64::MAX
        );
        usage();
    }
    // A named scenario takes the arm as given — a flag it does not accept
    // is a usage error. A sweep of the whole registry hands each scenario
    // the flags it accepts; the others run without them.
    let scenarios: Vec<Box<dyn Scenario>> = match &scenario_arg {
        Some(name) => configure(name, &arm).map(|s| vec![s]),
        None => configure_all(&arm),
    }
    .unwrap_or_else(|e| {
        eprintln!("{e}");
        usage();
    });

    // Corpus auto-ingestion: load an existing corpus to extend in place,
    // or start fresh. Every seed's report is retained and distilled.
    let mut corpus = corpus_dir.as_ref().map(|dir| {
        if dir.join(cb_corpus::INDEX_FILE).exists() {
            cb_corpus::Corpus::load(dir).unwrap_or_else(|e| {
                eprintln!("--corpus {}: {e}", dir.display());
                std::process::exit(2);
            })
        } else {
            cb_corpus::Corpus::new()
        }
    });

    let mut any_failed = false;
    // Starting from the loaded pile (when both flags are given) makes
    // --policy --record-policy a refresh-in-place: stale entries are
    // overwritten by the merge rule, untouched scenarios keep theirs.
    let mut recorded_pile = match (&record_policy, &arm.policy) {
        (Some(_), Some(loaded)) => loaded.as_ref().clone(),
        _ => cb_policy::PolicyPile::new(),
    };
    for scenario in &scenarios {
        let start = std::time::Instant::now();
        let outcome = run_campaign(scenario.as_ref(), &cfg);
        if let Some(store) = &outcome.policy {
            recorded_pile.insert_store(store.clone());
        }
        if let Some(c) = corpus.as_mut() {
            c.ingest_outcome(&outcome);
        }
        println!(
            "{} ({:.1}s wall)",
            outcome.summary_line(),
            start.elapsed().as_secs_f64()
        );
        if show_telemetry {
            let s = cb_telemetry::summary::summarize(&outcome.telemetry);
            println!(
                "  telemetry: {} decisions, latency p50/p99 {}/{} sim-us, \
                 cache hit {}, {:.2} states/decision, {} states visited",
                s.decisions,
                s.decision_p50_sim_us,
                s.decision_p99_sim_us,
                cb_telemetry::summary::fmt_rate(s.cache_hit_rate),
                s.states_per_decision,
                s.states_visited
            );
        }
        for f in &outcome.failures {
            println!(
                "  seed {}: FAIL {:?}",
                f.report.seed,
                f.report.failing_oracles()
            );
            println!("    plan:   {}", f.report.plan);
            println!("    shrunk: {}", f.shrunk_plan);
            if let Some(p) = &f.artifact {
                println!("    artifact: {}", p.display());
            } else if let Some((_, e)) = outcome
                .artifact_errors
                .iter()
                .find(|(seed, _)| *seed == f.report.seed)
            {
                println!("    artifact: NOT WRITTEN ({e})");
            }
        }
        for seed in &outcome.nondeterministic_seeds {
            println!("  seed {seed}: NONDETERMINISTIC (fingerprint mismatch on re-run)");
        }
        any_failed |= !outcome.all_passed();
    }
    if let (Some(dir), Some(c)) = (&corpus_dir, &corpus) {
        match c.save(dir) {
            Ok(()) => println!("corpus: {} record(s) -> {}", c.len(), dir.display()),
            Err(e) => {
                eprintln!("--corpus {}: {e}", dir.display());
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = &record_policy {
        match recorded_pile.save(path) {
            Ok(()) => println!(
                "policy pile: {} scenario(s), {} entries, content id {} -> {}",
                recorded_pile.len(),
                recorded_pile.total_entries(),
                recorded_pile.content_id(),
                path.display()
            ),
            Err(e) => {
                eprintln!("--record-policy {}: {e}", path.display());
                std::process::exit(2);
            }
        }
    }
    std::process::exit(if any_failed { 1 } else { 0 });
}
