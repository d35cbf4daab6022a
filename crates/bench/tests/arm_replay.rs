//! Arm artifacts round-trip through `campaign --replay` with no arm flags.
//!
//! A report records the arm its scenario was built as, so replay rebuilds
//! the arm from the artifact. It used to ask for the sweep's arm flags
//! again, and a flag typed wrong or left out replayed another arm: a
//! `gossip --ladder` artifact replayed without `--ladder` reported a
//! provenance divergence, kv `--unsafe-reads` and `--workload flash-off`
//! ones "violation not reproduced". Now an arm flag beside `--replay` is
//! refused, except the `--policy` pile a warm arm's recorded store id
//! names; an artifact that records no arm (schema v1) still replays with
//! the flags given. Replay takes no sweep flag either: one beside
//! `--replay` used to be ignored (a shrunk `--plan` silently replayed the
//! recorded one) and is refused. Also here: the other usage errors
//! `campaign` answers with exit 2 — a flag the named scenario does not
//! accept, a fleet below the scenario's minimum, a seed range past the
//! largest u64. Drives the built binary, because the defects were in its
//! flag handling, not in the library.

use cb_harness::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn campaign(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(args)
        .output()
        .expect("campaign binary runs")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cb-arm-replay-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn utf8(path: &Path) -> &str {
    path.to_str().expect("utf-8 temp path")
}

/// Sweeps one seed of `scenario` with `sweep_flags` (the arm flags, and a
/// plan or base seed that makes it violate) into `dir`, and returns the
/// artifact.
fn red_artifact(dir: &Path, tag: &str, scenario: &str, sweep_flags: &[&str], seed: u64) -> PathBuf {
    let seed_arg = seed.to_string();
    let mut sweep = vec!["--scenario", scenario];
    sweep.extend_from_slice(sweep_flags);
    sweep.extend_from_slice(&[
        "--seeds",
        "1",
        "--base-seed",
        &seed_arg,
        "--no-determinism",
        "--no-shrink",
        "--out",
        utf8(dir),
    ]);
    let swept = campaign(&sweep);
    assert_eq!(
        swept.status.code(),
        Some(1),
        "{tag}: sweep must violate\n{}",
        String::from_utf8_lossy(&swept.stdout)
    );
    let artifact = dir.join(format!("{scenario}-seed{seed}.json"));
    assert!(artifact.exists(), "{tag}: no artifact written");
    artifact
}

/// Replays `artifact` with `flags` and asserts the run reproduced the
/// recorded one exactly.
fn replays_exactly(tag: &str, artifact: &Path, flags: &[&str]) {
    let mut replay = vec!["--replay", utf8(artifact)];
    replay.extend_from_slice(flags);
    let replayed = campaign(&replay);
    let stdout = String::from_utf8_lossy(&replayed.stdout);
    let stderr = String::from_utf8_lossy(&replayed.stderr);
    assert_eq!(
        replayed.status.code(),
        Some(1),
        "{tag}: replay must reproduce the violation\n{stdout}{stderr}"
    );
    assert!(
        stdout.contains("fingerprint matches the recorded run exactly"),
        "{tag}: replay ran a different arm\n{stdout}{stderr}"
    );
}

/// Replays `artifact` with `flags` and returns its stderr, asserting the
/// replay was refused (exit 2) without running.
fn refused(tag: &str, artifact: &Path, flags: &[&str]) -> String {
    let mut replay = vec!["--replay", utf8(artifact)];
    replay.extend_from_slice(flags);
    let replayed = campaign(&replay);
    let stderr = String::from_utf8_lossy(&replayed.stderr).into_owned();
    assert_eq!(replayed.status.code(), Some(2), "{tag} {flags:?}: {stderr}");
    stderr
}

/// Sweeps a red seed of `scenario` in the arm `arm_flags` (`extra` makes
/// it violate) and replays the artifact with `--replay ART` alone; the
/// same replay with the arm flags beside it is refused.
fn round_trip(tag: &str, scenario: &str, arm_flags: &[&str], extra: &[&str], seed: u64) {
    let dir = scratch_dir(tag);
    let artifact = red_artifact(&dir, tag, scenario, &[arm_flags, extra].concat(), seed);
    replays_exactly(tag, &artifact, &[]);
    let stderr = refused(tag, &artifact, arm_flags);
    assert!(
        stderr.contains("the artifact records its arm"),
        "{tag}: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gossip_ladder_artifact_replays_exactly() {
    round_trip(
        "gossip-ladder",
        "gossip",
        &["--ladder"],
        &[
            "--plan",
            "part:9.10|0.1.2.3.4.5.6.7.8.11.12.13.14.15@0-never",
        ],
        1,
    );
}

#[test]
fn gossip_nodes_artifact_replays_exactly() {
    // A never-healed cut of two nodes off a 32-node fleet.
    let rest: Vec<String> = (0..32u32)
        .filter(|n| ![9, 10].contains(n))
        .map(|n| n.to_string())
        .collect();
    let plan = format!("part:9.10|{}@0-never", rest.join("."));
    round_trip(
        "gossip-nodes",
        "gossip",
        &["--nodes", "32"],
        &["--plan", &plan],
        1,
    );
}

#[test]
fn randtree_workload_lookahead_artifact_replays_exactly() {
    round_trip(
        "randtree-workload-lookahead",
        "randtree",
        &["--workload", "steady", "--lookahead"],
        &["--plan", "part:3|0.1.2.4.5.6.7.8.9.10.11.12.13.14@0-never"],
        1,
    );
}

#[test]
fn kv_unsafe_reads_artifact_replays_exactly() {
    // The planted stale read shows on seed 2 under the default plan.
    round_trip("kv-unsafe-reads", "kv", &["--unsafe-reads"], &[], 2);
}

#[test]
fn kv_flash_off_artifact_replays_exactly() {
    round_trip("kv-flash-off", "kv", &["--workload", "flash-off"], &[], 1);
}

/// Records a kv policy pile from `seeds` seeds of `arm_flags` into `dir`.
fn record_pile(dir: &Path, name: &str, arm_flags: &[&str], seeds: &str) -> PathBuf {
    let pile = dir.join(name);
    let out = dir.join(format!("{name}-artifacts"));
    let mut args = vec!["--scenario", "kv", "--seeds", seeds, "--no-shrink"];
    args.extend_from_slice(arm_flags);
    args.extend_from_slice(&["--record-policy", utf8(&pile), "--out", utf8(&out)]);
    let recorded = campaign(&args);
    assert_eq!(
        recorded.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&recorded.stdout)
    );
    pile
}

#[test]
fn a_warm_arm_replays_with_its_pile_and_only_its_pile() {
    let dir = scratch_dir("warm");
    let pile = record_pile(&dir, "stock.cbp", &[], "2");
    let other = record_pile(&dir, "steady.cbp", &["--workload", "steady"], "2");
    // The unprotected flash crowd goes metastable in the warm arm too.
    let artifact = red_artifact(
        &dir,
        "warm",
        "kv",
        &["--policy", utf8(&pile), "--workload", "flash-off"],
        1,
    );
    let text = std::fs::read_to_string(&artifact).unwrap();
    let arm = Json::parse(&text)
        .unwrap()
        .get("report")
        .and_then(|r| r.get("arm"))
        .cloned()
        .expect("the report records its arm");
    let id = arm
        .get("policy")
        .and_then(Json::as_str)
        .expect("the arm records the store it loaded")
        .to_string();
    assert_eq!(
        arm.get("workload").and_then(Json::as_str),
        Some("flash-off")
    );

    replays_exactly("warm", &artifact, &["--policy", utf8(&pile)]);
    let missing = refused("warm, no pile", &artifact, &[]);
    assert!(missing.contains(&format!("policy store {id}")), "{missing}");
    let wrong = refused("warm, another pile", &artifact, &["--policy", utf8(&other)]);
    assert!(wrong.contains(&format!("policy store {id}")), "{wrong}");
    let flag = refused(
        "warm, an arm flag",
        &artifact,
        &["--policy", utf8(&pile), "--workload", "flash-off"],
    );
    assert!(flag.contains("the artifact records its arm"), "{flag}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_v1_artifact_replays_with_the_flags_given() {
    let dir = scratch_dir("v1");
    let artifact = red_artifact(&dir, "v1", "kv", &["--unsafe-reads"], 2);
    // The parent schema's shape: v1, the report's scenario, seed, plan and
    // failing oracles copied to the top level, no arm.
    let mut tree = Json::parse(&std::fs::read_to_string(&artifact).unwrap()).unwrap();
    let report = tree.get("report").cloned().expect("a report");
    let copy = |key: &str| report.get(key).cloned().expect("report field");
    let failing: Vec<Json> = report
        .get("oracles")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .filter(|o| o.get("passed") != Some(&Json::Bool(true)))
        .filter_map(|o| o.get("name").cloned())
        .collect();
    let Json::Obj(fields) = &mut tree else {
        panic!("an artifact is an object");
    };
    let Some((_, Json::Obj(section))) = fields.iter_mut().find(|(k, _)| k == "report") else {
        panic!("a report section");
    };
    section.retain(|(k, _)| k != "arm");
    let report = fields.pop().expect("report is last");
    let shrunk = fields.pop().expect("shrunk_plan");
    fields.clear();
    fields.push(("schema".into(), Json::from("cb-campaign-failure/v1")));
    for key in ["scenario", "seed", "plan"] {
        fields.push((key.into(), copy(key)));
    }
    fields.push(shrunk);
    fields.push(("failing_oracles".into(), Json::Arr(failing)));
    fields.push(report);
    let v1 = dir.join("v1.json");
    std::fs::write(&v1, tree.to_string_pretty() + "\n").unwrap();

    replays_exactly("v1", &v1, &["--unsafe-reads"]);
    // With no arm recorded, the flags are the arm: none is the stock arm.
    let stock = refused("v1, no flags", &v1, &[]);
    assert!(stock.contains("violation not reproduced"), "{stock}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fleets_below_a_scenarios_minimum_are_usage_errors() {
    for (scenario, nodes, min) in [
        ("gossip", "0", 2),
        ("gossip", "1", 2),
        ("dissem", "0", 6),
        ("dissem", "1", 6),
        ("dissem", "2", 6),
        ("dissem", "3", 6),
        ("dissem", "4", 6),
        ("dissem", "5", 6),
    ] {
        let out = campaign(&["--scenario", scenario, "--nodes", nodes, "--seeds", "1"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{scenario} {nodes}: {stderr}");
        assert!(
            stderr.contains(&format!(
                "scenario '{scenario}' needs --nodes {min} or more (got {nodes})"
            )),
            "{scenario} {nodes}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{scenario} {nodes}: a sweep ran");
    }
    // A sweep of the whole registry hands `--nodes` to both.
    let out = campaign(&["--nodes", "1", "--seeds", "1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "a sweep ran");
    // The minimum itself builds and runs.
    for (scenario, nodes) in [("gossip", "2"), ("dissem", "6")] {
        let dir = scratch_dir(&format!("min-{scenario}"));
        let out = campaign(&[
            "--scenario",
            scenario,
            "--nodes",
            nodes,
            "--seeds",
            "1",
            "--no-shrink",
            "--out",
            utf8(&dir),
        ]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            matches!(out.status.code(), Some(0 | 1)),
            "{scenario} {nodes}: {stdout}"
        );
        assert!(
            stdout.contains(&format!("campaign[{scenario}]")),
            "{stdout}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn a_seed_range_past_the_largest_seed_is_a_usage_error() {
    let out = campaign(&[
        "--scenario",
        "ring",
        "--base-seed",
        "18446744073709551615",
        "--seeds",
        "2",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("runs past the largest seed"), "{stderr}");
    assert!(out.stdout.is_empty(), "a sweep ran");
}

#[test]
fn a_flag_the_named_scenario_does_not_accept_is_a_usage_error() {
    let out = campaign(&["--scenario", "paxos", "--storm"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("'paxos' does not accept --storm"),
        "{stderr}"
    );
}

#[test]
fn retired_flags_are_unknown_arguments() {
    // `--chrome` wrote a sidecar into the artifact directory that
    // `corpus ingest` then refused; `trace chrome ART --out FILE` writes
    // the same bytes wherever asked.
    for flag in ["--chrome", "--no-evalcache"] {
        let out = campaign(&["--scenario", "ring", "--seeds", "1", flag]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown argument: {flag}")),
            "{stderr}"
        );
    }
}

#[test]
fn replay_refuses_every_sweep_flag() {
    let dir = scratch_dir("sweep-flags");
    let out = utf8(&dir);
    let swept = campaign(&[
        "--scenario",
        "ring",
        "--seeds",
        "1",
        "--no-determinism",
        "--plan",
        "part:3|0.1.2.4.5.6.7@0-never",
        "--out",
        out,
    ]);
    assert_eq!(swept.status.code(), Some(1), "the cut ring must violate");
    let artifact = dir.join("ring-seed1.json");
    let artifact = artifact.to_str().expect("utf-8 temp path");
    for flag in [
        &["--plan", ""][..],
        &["--scenario", "ring"],
        &["--seeds", "99"],
        &["--base-seed", "1"],
        &["--workers", "3"],
        &["--no-shrink"],
        &["--no-determinism"],
        &["--out", out],
        &["--corpus", out],
        &["--telemetry"],
    ] {
        let mut args = vec!["--replay", artifact];
        args.extend_from_slice(flag);
        let replayed = campaign(&args);
        let stderr = String::from_utf8_lossy(&replayed.stderr);
        assert_eq!(replayed.status.code(), Some(2), "{flag:?}: {stderr}");
        assert!(
            stderr.contains(&format!("--replay does not take {}", flag[0])),
            "{flag:?}: {stderr}"
        );
        assert!(replayed.stdout.is_empty(), "{flag:?}: a replay ran");
    }
    std::fs::remove_dir_all(&dir).ok();
}
