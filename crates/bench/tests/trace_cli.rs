//! The `trace` binary over real failure artifacts: a kv `--unsafe-reads`
//! seed, whose stale reads a read-replica decision routed, and a randtree
//! seed under the fault storm with the resolver ladder, whose unhealed
//! partition trips `tree.reachable`. Every query answers with its
//! documented exit status, `explain` states each decision fact once and
//! gives the winner's reason the span supports, `chrome --masked` is
//! byte-stable, `chrome --out` writes trace-event JSON, a reader that
//! closes the pipe early ends the query with exit 0 rather than a panic,
//! and a file that is not an artifact — a missing one, or a bare report —
//! is refused with exit 2, since `trace` reads files through the one
//! artifact decoder.

use cb_harness::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
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

/// Seed 1 of randtree `--storm --ladder --deadline 20` under an unhealed
/// partition, written once.
fn storm_artifact() -> &'static str {
    static PATH: OnceLock<String> = OnceLock::new();
    PATH.get_or_init(|| {
        let dir = scratch_dir().join("storm");
        let out = dir.to_str().expect("utf-8 temp path");
        let plan = "part:1.2|0.3.4.5.6.7.8.9.10.11.12.13.14@4000-never;\
                    stall:6@2000-9000;delayspike:200@3000-12000";
        let swept = run(
            env!("CARGO_BIN_EXE_campaign"),
            &[
                "--scenario",
                "randtree",
                "--seeds",
                "1",
                "--storm",
                "--ladder",
                "--deadline",
                "20",
                "--no-determinism",
                "--no-shrink",
                "--plan",
                plan,
                "--out",
                out,
            ],
        );
        assert_eq!(
            swept.status.code(),
            Some(1),
            "the unhealed partition must violate"
        );
        let path = dir.join("randtree-seed1.json");
        assert!(path.exists(), "no artifact written");
        path.to_str().expect("utf-8 temp path").to_string()
    })
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The id of the first provenance span in `artifact` whose attributes
/// include every `(key, value)` of `attrs`.
fn span_with(artifact: &str, attrs: &[(&str, &str)]) -> String {
    let text = std::fs::read_to_string(artifact).unwrap();
    let json = Json::parse(&text).unwrap();
    let spans = json
        .get("report")
        .and_then(|r| r.get("provenance"))
        .and_then(|p| p.get("spans"))
        .and_then(Json::as_array)
        .expect("a provenance span list");
    let span = spans.iter().find(|s| {
        attrs
            .iter()
            .all(|(k, v)| s.get("attrs").and_then(|a| a.get(k)).and_then(Json::as_str) == Some(v))
    });
    let id = span.and_then(|s| s.get("id")).and_then(Json::as_str);
    id.unwrap_or_else(|| panic!("no span with {attrs:?}"))
        .to_string()
}

/// The `winner:` line of `trace explain ARTIFACT SPAN`, trimmed.
fn winner(artifact: &str, span: &str) -> String {
    let out = trace(&["explain", artifact, span]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    let text = stdout(&out);
    let line = text.lines().find(|l| l.contains("winner:"));
    line.unwrap_or_else(|| panic!("no winner line:\n{text}"))
        .trim()
        .to_string()
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
fn a_random_pick_is_explained_by_its_resolver() {
    let leader = span_with(
        artifact(),
        &[("choice", "kv.leader"), ("resolver", "random")],
    );
    assert!(
        winner(artifact(), &leader).ends_with("(resolver random; no prediction was made)"),
        "{}",
        winner(artifact(), &leader)
    );
}

#[test]
fn storm_violation_is_blamed_back_to_its_decisions() {
    let out = trace(&["blame", storm_artifact()]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    let originating = text
        .split("originating decisions (")
        .nth(1)
        .and_then(|rest| rest.chars().next());
    assert!(
        matches!(originating, Some('1'..='9')),
        "blame names no originating decision:\n{text}"
    );
    let out = trace(&["slowest", storm_artifact(), "5"]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
}

#[test]
fn storm_decision_states_each_fact_once() {
    let out = trace(&["explain", storm_artifact()]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains("governor.level"), "{text}");
    let rung_lines = text.lines().filter(|l| l.contains("ladder.rung")).count();
    assert_eq!(rung_lines, 1, "{text}");
    assert!(!text.contains("rungs_skipped"), "{text}");
    assert!(!text.contains("chosen_key"), "{text}");
    // The last decision was a lookahead pick over every option.
    assert!(
        text.contains("(lowest violations, then best objective)"),
        "{text}"
    );
    // A heuristic-rung pick predicted nothing, and says so.
    let heuristic = span_with(storm_artifact(), &[("ladder.rung", "4")]);
    assert_eq!(
        winner(storm_artifact(), &heuristic),
        "winner: option 1 (resolver ladder, rung 4, policy off; no prediction was made)"
    );
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
fn chrome_out_writes_the_storm_tail_as_trace_event_json() {
    let path = scratch_dir().join("storm-chrome.json");
    let out = trace(&[
        "chrome",
        storm_artifact(),
        "--out",
        path.to_str().expect("utf-8 temp path"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    let text = std::fs::read_to_string(&path).expect("chrome trace written");
    let json = Json::parse(&text).expect("the export parses as JSON");
    let events = json
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("a traceEvents list");
    assert!(!events.is_empty(), "the storm tail exported no events");
}

#[test]
fn a_reader_that_closes_early_ends_the_query_cleanly() {
    // The pipe's read end is closed before `trace` has loaded the artifact,
    // so its first line already meets a closed pipe (`trace ... | head -1`
    // with the head done at once).
    let mut child = Command::new(env!("CARGO_BIN_EXE_trace"))
        .args(["blame", storm_artifact()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("trace runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("trace ends");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
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
