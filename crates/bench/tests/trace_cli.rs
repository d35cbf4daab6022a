//! The `trace` binary over a real failure artifact: a kv `--unsafe-reads`
//! seed, whose stale reads a read-replica decision routed. Every query
//! answers with its documented exit status, `chrome --masked` is
//! byte-stable, and a file that is not an artifact — a missing one, or a
//! bare report — is refused with exit 2, since `trace` reads files through
//! the one artifact decoder.

use cb_harness::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

fn trace(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_trace"), args)
}

fn scratch_dir() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("cb-trace-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    })
}

/// Seed 2 of the kv `--unsafe-reads` sweep, written once.
fn artifact() -> &'static str {
    static PATH: OnceLock<String> = OnceLock::new();
    PATH.get_or_init(|| {
        let dir = scratch_dir().join("artifacts");
        let out = dir.to_str().expect("utf-8 temp path");
        let swept = run(
            env!("CARGO_BIN_EXE_campaign"),
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
                "--out",
                out,
            ],
        );
        assert_eq!(swept.status.code(), Some(1), "the planted bug must violate");
        let path = dir.join("kv-seed2.json");
        assert!(path.exists(), "no artifact written");
        path.to_str().expect("utf-8 temp path").to_string()
    })
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn blame_walks_back_to_the_read_replica_decision() {
    let out = trace(&["blame", artifact()]);
    assert_eq!(out.status.code(), Some(0));
    assert!(
        stdout(&out).contains("decide:kv.read_replica"),
        "{}",
        stdout(&out)
    );
}

#[test]
fn explain_answers_for_the_default_span_and_not_for_an_unknown_one() {
    let out = trace(&["explain", artifact()]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert!(!out.stdout.is_empty());
    let out = trace(&["explain", artifact(), "t1.n0.s999999999"]);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn slowest_takes_a_count() {
    let out = trace(&["slowest", artifact(), "3"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout(&out).starts_with("top "), "{}", stdout(&out));
    let out = trace(&["slowest", artifact(), "x"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn masked_chrome_exports_are_byte_identical() {
    let files = ["a", "b"].map(|tag| {
        let path = scratch_dir().join(format!("chrome-{tag}.json"));
        let out = trace(&[
            "chrome",
            artifact(),
            "--masked",
            "--out",
            path.to_str().expect("utf-8 temp path"),
        ]);
        assert_eq!(out.status.code(), Some(0));
        std::fs::read(&path).expect("chrome trace written")
    });
    assert!(!files[0].is_empty());
    assert!(files[0] == files[1], "masked chrome exports differ");
}

#[test]
fn what_is_not_an_artifact_is_refused() {
    let missing = scratch_dir().join("no-such-artifact.json");
    let out = trace(&["blame", missing.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));

    // A bare report: the artifact's `report` section on its own.
    let text = std::fs::read_to_string(artifact()).unwrap();
    let report = Json::parse(&text)
        .unwrap()
        .get("report")
        .cloned()
        .expect("a report section");
    let bare = scratch_dir().join("bare-report.json");
    std::fs::write(&bare, report.to_string_pretty()).unwrap();
    for cmd in ["explain", "blame", "slowest", "chrome"] {
        let out = trace(&[cmd, bare.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{cmd}: {stderr}");
        assert!(stderr.contains("malformed artifact"), "{cmd}: {stderr}");
    }
}
