//! `corpus diff` refuses a threshold that would disarm or misfire its gates.
//!
//! Every gate compares a measured movement against a threshold with `>`,
//! so a NaN threshold made the comparison always false and switched its
//! gate off (a regressed candidate exited 0), and a negative one flagged
//! every scenario of a self-diff. An unknown flag used to be taken as a
//! corpus directory. A counter regression planted into every record must
//! flip the exit code. A closed stdout stops the printing, not the work: a
//! query still ends with exit 0, an ingest still saves its index and a
//! diff still exits 1 on a regression, none with a panic. Drives the built
//! binary against the committed baseline corpus and against artifacts a
//! red sweep writes into a temp directory; nothing untracked is read.

use std::process::{Command, Output, Stdio};

const USAGE: &str = "usage: corpus ingest CORPUS_DIR SRC_DIR";

fn baseline() -> String {
    format!(
        "{}/../../results/corpus-baseline",
        env!("CARGO_MANIFEST_DIR")
    )
}

fn corpus(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_corpus"))
        .args(args)
        .output()
        .expect("corpus binary runs")
}

/// `corpus diff BASELINE BASELINE` with `extra` appended.
fn self_diff(extra: &[&str]) -> Output {
    let dir = baseline();
    let mut args = vec!["diff", dir.as_str(), dir.as_str()];
    args.extend_from_slice(extra);
    corpus(&args)
}

/// Exit 2 with the usage line, before any corpus loaded or diffed.
#[track_caller]
fn assert_usage_error(out: &Output, what: &str) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
    assert!(stderr.contains(USAGE), "{what}: {stderr}");
    assert!(!stderr.contains("panicked"), "{what}: {stderr}");
    assert!(out.stdout.is_empty(), "{what}: a diff ran");
    stderr
}

#[test]
fn a_self_diff_is_clean_with_valid_thresholds() {
    for extra in [
        &[][..],
        &[
            "--rel",
            "0",
            "--abs-floor",
            "0",
            "--hist-divergence",
            "0.5",
            "--pass-rate-drop",
            "0",
        ],
    ] {
        let out = self_diff(extra);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{extra:?}: {stdout}");
        assert!(stdout.contains("no regressions flagged"), "{stdout}");
    }
}

#[test]
fn a_threshold_that_is_not_finite_and_non_negative_is_a_usage_error() {
    for flag in [
        "--hist-divergence",
        "--pass-rate-drop",
        "--rel",
        "--abs-floor",
    ] {
        for value in ["nan", "NaN", "inf", "-inf", "-1", "-0.5", "x"] {
            let stderr = assert_usage_error(&self_diff(&[flag, value]), &format!("{flag} {value}"));
            assert!(
                stderr.contains(&format!("{flag} wants a finite number >= 0, got '{value}'")),
                "{stderr}"
            );
        }
    }
}

#[test]
fn thresholds_are_checked_before_any_corpus_loads() {
    let missing = std::env::temp_dir().join(format!("cb-no-corpus-{}", std::process::id()));
    let missing = missing.to_str().expect("utf-8 temp path");
    let out = corpus(&["diff", missing, missing, "--hist-divergence", "nan"]);
    let stderr = assert_usage_error(&out, "missing corpora");
    assert!(!stderr.contains(missing), "a corpus was loaded: {stderr}");
}

#[test]
fn an_unknown_flag_is_a_usage_error_not_a_directory() {
    for flag in ["--hist-divergance", "--verbose", "-x"] {
        let stderr = assert_usage_error(&self_diff(&[flag]), flag);
        assert!(
            stderr.contains(&format!("unknown flag: {flag}")),
            "{stderr}"
        );
    }
}

/// Saves the baseline with `net.msgs_delivered` raised by 100 000 in every
/// record into a fresh temp dir named after `tag`, and returns the dir.
fn planted_corpus(tag: &str) -> std::path::PathBuf {
    let baseline = cb_corpus::Corpus::load(std::path::Path::new(&baseline())).expect("baseline");
    let mut planted = cb_corpus::Corpus::new();
    for record in baseline.iter() {
        let mut record = record.clone();
        *record
            .counters
            .entry("net.msgs_delivered".to_string())
            .or_insert(0) += 100_000;
        planted.insert(record);
    }
    assert_eq!(planted.len(), baseline.len());
    let dir = std::env::temp_dir().join(format!("cb-{tag}-corpus-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    planted.save(&dir).expect("save planted corpus");
    dir
}

#[test]
fn a_planted_counter_regression_is_flagged() {
    let baseline_dir = baseline();
    let dir = planted_corpus("planted");
    let out = corpus(&[
        "diff",
        &baseline_dir,
        dir.to_str().expect("utf-8 temp path"),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(1),
        "planted regression not flagged: {stdout}"
    );
    assert!(stdout.contains("net.msgs_delivered"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_reader_that_closes_early_ends_the_query_cleanly() {
    // `corpus query ... | head -1` with the head done before the first
    // line: the query meets a closed pipe and ends with exit 0.
    let mut child = Command::new(env!("CARGO_BIN_EXE_corpus"))
        .args(["query", &baseline(), "failed"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("corpus runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("corpus ends");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}

/// Runs `corpus args` with stdout closed before the first line and returns
/// the exit status, after checking nothing panicked.
fn to_a_closed_stdout(args: &[&str]) -> Option<i32> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_corpus"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("corpus runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("corpus ends");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    out.status.code()
}

#[test]
fn a_closed_stdout_stops_the_printing_not_the_work() {
    // An ingest still saves its index. Its input is a red ring sweep this
    // test writes itself: both seeds violate, so both leave an artifact.
    let dir = std::env::temp_dir().join(format!("cb-closed-corpus-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let (artifacts, ingested) = (dir.join("art"), dir.join("corpus"));
    let swept = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(["--scenario", "ring", "--seeds", "2", "--no-determinism"])
        .args(["--plan", "part:3|0.1.2.4.5.6.7@0-never", "--out"])
        .arg(&artifacts)
        .output()
        .expect("campaign runs");
    assert_eq!(
        swept.status.code(),
        Some(1),
        "the unhealed cut must violate"
    );
    let (from, to) = (
        artifacts.to_str().expect("utf-8 temp path"),
        ingested.to_str().expect("utf-8 temp path"),
    );
    assert_eq!(to_a_closed_stdout(&["ingest", to, from]), Some(0));
    let saved = cb_corpus::Corpus::load(&ingested).expect("ingest saved its index");
    assert_eq!(saved.len(), 2, "both red seeds ingested");
    std::fs::remove_dir_all(&dir).ok();

    // A diff that finds a regression still writes its report and exits 1.
    let planted = planted_corpus("closed-planted");
    let report = planted.join("diff.json");
    let status = to_a_closed_stdout(&[
        "diff",
        &baseline(),
        planted.to_str().expect("utf-8 temp path"),
        "--out",
        report.to_str().expect("utf-8 temp path"),
    ]);
    assert_eq!(status, Some(1));
    let written = std::fs::read_to_string(&report).expect("diff wrote its report");
    assert!(written.contains("net.msgs_delivered"), "{written}");
    std::fs::remove_dir_all(&planted).ok();
}
