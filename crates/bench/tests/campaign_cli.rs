//! `campaign` sweeps end to end: the kv overload and policy-store arms,
//! blame from their violations to the choices behind them, and a reader
//! that closes stdout early.
//!
//! Drives the built `campaign` and `trace` binaries, as a person would.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn campaign(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(args)
        .output()
        .expect("campaign binary runs")
}

/// `trace blame ARTIFACT`'s stdout, after checking it exits 0.
fn blame(artifact: &Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_trace"))
        .arg("blame")
        .arg(artifact)
        .output()
        .expect("trace binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(out.status.code(), Some(0), "trace blame\n{stdout}");
    stdout
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cb-campaign-cli-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn utf8(path: &Path) -> &str {
    path.to_str().expect("utf-8 temp path")
}

/// Runs `args` and returns its stdout, after checking the exit status.
fn sweep(args: &[&str], status: i32) -> String {
    let out = campaign(args);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(status),
        "{args:?}\n{stdout}{stderr}"
    );
    stdout
}

#[test]
fn flash_survives_and_flash_off_goes_metastable() {
    // E13 at smoke scale. The protected arm (admission control and
    // budgeted retries) survives a 6x flash crowd on every seed; the same
    // seeds with both defenses off go metastable, every failure flagged by
    // the oracle. (That two such sweeps write equal artifacts once wall
    // keys are masked is masked_reruns.rs.)
    sweep(
        &["--scenario", "kv", "--workload", "flash", "--seeds", "8"],
        0,
    );
    sweep(
        &[
            "--scenario",
            "mencius",
            "--workload",
            "steady",
            "--seeds",
            "4",
        ],
        0,
    );
    let dir = scratch_dir("flash-off");
    let out = sweep(
        &[
            "--scenario",
            "kv",
            "--workload",
            "flash-off",
            "--seeds",
            "4",
            "--no-determinism",
            "--no-shrink",
            "--out",
            utf8(&dir),
        ],
        1,
    );
    assert_eq!(out.matches("workload.metastable").count(), 4, "{out}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn blame_walks_a_flash_crowd_violation_to_the_admission_choice() {
    // A quorum-killing partition pushes the protected flash arm past its
    // goodput floor; the violation's causal chain reaches the
    // decide:kv.admission spans that chose how to shed. (That each carries
    // workload=flash is tests/provenance.rs.)
    let dir = scratch_dir("flash-blame");
    sweep(
        &[
            "--scenario",
            "kv",
            "--workload",
            "flash",
            "--seeds",
            "1",
            "--base-seed",
            "2",
            "--plan",
            "part:1.2.3.4|0.5.6.7.8.9@40000-never",
            "--no-determinism",
            "--no-shrink",
            "--out",
            utf8(&dir),
        ],
        1,
    );
    let out = blame(&dir.join("kv-seed2.json"));
    assert!(out.contains("workload.goodput_floor"), "{out}");
    assert!(out.contains("decide:kv.admission"), "{out}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_policy_pile_is_worker_invariant_warms_reruns_and_blames_a_warm_read() {
    let dir = scratch_dir("policy");
    let pile = dir.join("kv-policy.cbp");
    // The merge is order-independent: 1, 2 and 4 workers (one seed each)
    // record equal bytes.
    let record = |path: &Path, workers: &str| {
        sweep(
            &[
                "--scenario",
                "kv",
                "--seeds",
                "4",
                "--workers",
                workers,
                "--no-shrink",
                "--record-policy",
                utf8(path),
            ],
            0,
        )
    };
    record(&pile, "1");
    let bytes = std::fs::read(&pile).expect("pile written");
    for workers in ["2", "4"] {
        let other = dir.join(format!("kv-policy-w{workers}.cbp"));
        record(&other, workers);
        assert_eq!(
            std::fs::read(&other).expect("pile written"),
            bytes,
            "{workers} workers"
        );
    }
    // A warm sweep loaded from the pile holds every oracle.
    sweep(
        &[
            "--scenario",
            "kv",
            "--seeds",
            "4",
            "--no-shrink",
            "--policy",
            utf8(&pile),
        ],
        0,
    );
    // Crash-restart the replica the store memoizes while the unsafe-read
    // arm is on: the amnesiac serves stale local reads, the
    // linearizability oracle fires, and blame walks back to a read-replica
    // decision. (What the artifact carries is tests/ladder_pins.rs.)
    let out = dir.join("kv-warm");
    sweep(
        &[
            "--scenario",
            "kv",
            "--unsafe-reads",
            "--seeds",
            "1",
            "--base-seed",
            "2",
            "--no-determinism",
            "--no-shrink",
            "--policy",
            utf8(&pile),
            "--plan",
            "crash:0@6000;restart:0@8000",
            "--out",
            utf8(&out),
        ],
        1,
    );
    let blamed = blame(&out.join("kv-seed2.json"));
    assert!(blamed.contains("decide:kv.read_replica"), "{blamed}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `args` with stdout closed before the first line and returns the
/// exit status, after checking nothing panicked.
fn to_a_closed_stdout(args: &[&str]) -> Option<i32> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("campaign runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("campaign ends");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    out.status.code()
}

#[test]
fn a_closed_stdout_stops_the_printing_not_the_work() {
    assert_eq!(to_a_closed_stdout(&["--list"]), Some(0));
    // A red sweep still writes its artifact and corpus, and still exits 1.
    let dir = scratch_dir("closed");
    let (out, corpus) = (dir.join("art"), dir.join("corpus"));
    let status = to_a_closed_stdout(&[
        "--scenario",
        "ring",
        "--seeds",
        "1",
        "--no-determinism",
        "--plan",
        "part:3|0.1.2.4.5.6.7@0-never",
        "--out",
        utf8(&out),
        "--corpus",
        utf8(&corpus),
    ]);
    assert_eq!(status, Some(1));
    assert!(out.join("ring-seed1.json").exists());
    assert!(corpus.join("index.cbc").exists());
    std::fs::remove_dir_all(&dir).ok();
}
