//! `tables` refuses what it cannot do instead of doing nothing.
//!
//! An experiment id it does not have used to print nothing and exit 0, a
//! flag missing its value panicked, and a failed `--json` write panicked.
//! Drives the built binary, because the defects were in its argument and
//! error handling, not in the experiments.

use std::process::{Command, Output};

const USAGE: &str = "usage: tables [--quick] [--exp ID] [--telemetry] [--json DIR]";

fn tables(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(args)
        .output()
        .expect("tables binary runs")
}

/// Exit 2 with the usage line, before any experiment ran.
#[track_caller]
fn assert_usage_error(args: &[&str]) -> String {
    let out = tables(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(USAGE), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}: an experiment ran");
    stderr
}

#[test]
fn an_experiment_tables_does_not_have_is_a_usage_error() {
    // Both have sections in EXPERIMENTS.md but no table here.
    for id in ["e14", "e9"] {
        let stderr = assert_usage_error(&["--quick", "--exp", id]);
        assert!(
            stderr.contains(&format!("unknown experiment: {id}")),
            "{stderr}"
        );
        assert!(
            stderr.contains(
                "experiments: e1, e2, e3, e4, e5, e6, e7, e8, e10, e11, e12, e13, a1, a2, t1"
            ),
            "{stderr}"
        );
    }
}

#[test]
fn a_flag_without_its_value_is_a_usage_error() {
    for flag in ["--exp", "--json"] {
        let stderr = assert_usage_error(&["--quick", flag]);
        assert!(
            stderr.contains(&format!("{flag} needs an argument")),
            "{stderr}"
        );
    }
}

#[test]
fn a_failed_json_write_exits_1_and_names_the_path() {
    // A regular file where the JSON directory should be.
    let file = std::env::temp_dir().join(format!("cb-tables-json-{}", std::process::id()));
    std::fs::write(&file, "not a directory").expect("temp file");
    let dir = file.to_str().expect("utf-8 temp path");
    let out = tables(&["--quick", "--exp", "e1", "--json", dir]);
    std::fs::remove_file(&file).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(&format!("{dir}/e1.json")), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
