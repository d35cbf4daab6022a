//! Arm artifacts round-trip through `campaign --replay` with the flags
//! the sweep used.
//!
//! Artifacts record the fault plan but not the scenario arm, so replay
//! rebuilds the arm from the same flags. Sweep and replay used to rebuild
//! it in separate hand-written blocks that had drifted (no gossip arm on
//! replay at all; `--workload` shadowing randtree's `--lookahead`); both
//! now go through `registry::configure`. Replay takes the arm flags and
//! nothing else: a sweep flag beside `--replay` used to be ignored (a
//! shrunk `--plan` silently replayed the recorded one) and is now refused.
//! Drives the built binary, because the defects were in its flag
//! handling, not in the library.

use std::path::PathBuf;
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

/// Sweeps one seed of `scenario` in the arm `arm_flags` under a plan that
/// must violate, then replays the artifact with the same arm flags.
fn round_trip(tag: &str, scenario: &str, arm_flags: &[&str], plan: &str) {
    let dir = scratch_dir(tag);
    let out = dir.to_str().expect("utf-8 temp path");
    let mut sweep = vec!["--scenario", scenario];
    sweep.extend_from_slice(arm_flags);
    sweep.extend_from_slice(&[
        "--seeds",
        "1",
        "--no-determinism",
        "--no-shrink",
        "--plan",
        plan,
        "--out",
        out,
    ]);
    let swept = campaign(&sweep);
    assert_eq!(swept.status.code(), Some(1), "{tag}: sweep must violate");
    let artifact = dir.join(format!("{scenario}-seed1.json"));
    assert!(artifact.exists(), "{tag}: no artifact written");

    let mut replay = vec!["--replay", artifact.to_str().expect("utf-8 temp path")];
    replay.extend_from_slice(arm_flags);
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
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gossip_ladder_artifact_replays_exactly() {
    round_trip(
        "gossip-ladder",
        "gossip",
        &["--ladder"],
        "part:9.10|0.1.2.3.4.5.6.7.8.11.12.13.14.15@0-never",
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
    round_trip("gossip-nodes", "gossip", &["--nodes", "32"], &plan);
}

#[test]
fn randtree_workload_lookahead_artifact_replays_exactly() {
    round_trip(
        "randtree-workload-lookahead",
        "randtree",
        &["--workload", "steady", "--lookahead"],
        "part:3|0.1.2.4.5.6.7.8.9.10.11.12.13.14@0-never",
    );
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
    let out = dir.to_str().expect("utf-8 temp path");
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
