//! Two `campaign` processes sweeping the same red arm write the same
//! failure artifacts once wall-clock keys are masked, and those artifacts
//! carry the verdicts and telemetry the arm exists to show.
//!
//! Drives the built binary twice per arm, so the comparison crosses
//! process boundaries (allocation addresses, hash seeds, scheduling) the
//! way two CI runs do.

use cb_harness::json::Json;
use std::path::PathBuf;
use std::process::Command;

/// Runs one red sweep into a fresh directory and returns the directory.
fn sweep(tag: &str, run: usize, args: &[&str]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cb-masked-reruns-{tag}-{run}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(args)
        .args(["--no-determinism", "--no-shrink", "--out"])
        .arg(&dir)
        .output()
        .expect("campaign binary runs");
    assert_eq!(
        out.status.code(),
        Some(1),
        "{tag}: the arm must violate\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    dir
}

/// Every value under a key containing `wall` blanked to `null`.
fn mask(json: &Json) -> Json {
    match json {
        Json::Obj(entries) => Json::Obj(
            entries
                .iter()
                .map(|(k, v)| {
                    let v = if k.contains("wall") {
                        Json::Null
                    } else {
                        mask(v)
                    };
                    (k.clone(), v)
                })
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(mask).collect()),
        other => other.clone(),
    }
}

/// Sweeps `args` in two processes and returns `file` from the first,
/// after checking the two copies are equal once masked.
fn masked_equal_across_processes(tag: &str, args: &[&str], file: &str) -> Json {
    let dirs = [sweep(tag, 0, args), sweep(tag, 1, args)];
    let [a, b] = dirs.each_ref().map(|dir| {
        let text = std::fs::read_to_string(dir.join(file)).expect("artifact written");
        Json::parse(&text).expect("artifact parses")
    });
    assert!(
        mask(&a) == mask(&b),
        "{tag}: masked {file} differs across processes"
    );
    for dir in &dirs {
        std::fs::remove_dir_all(dir).ok();
    }
    a
}

/// The report's oracles that did not pass.
fn failing_oracles(artifact: &Json) -> Vec<&str> {
    artifact
        .get("report")
        .and_then(|r| r.get("oracles"))
        .and_then(Json::as_array)
        .expect("report.oracles")
        .iter()
        .filter(|o| o.get("passed") != Some(&Json::Bool(true)))
        .filter_map(|o| o.get("name").and_then(Json::as_str))
        .collect()
}

#[test]
fn unsafe_reads_artifact_is_masked_deterministic() {
    let artifact = masked_equal_across_processes(
        "unsafe-reads",
        &[
            "--scenario",
            "kv",
            "--unsafe-reads",
            "--seeds",
            "4",
            "--base-seed",
            "2",
        ],
        "kv-seed2.json",
    );
    let failing = failing_oracles(&artifact);
    assert!(failing.contains(&"kv.linearizable"), "{failing:?}");
}

#[test]
fn flash_off_artifact_carries_overload_telemetry_and_is_masked_deterministic() {
    let artifact = masked_equal_across_processes(
        "flash-off",
        &[
            "--scenario",
            "kv",
            "--workload",
            "flash-off",
            "--seeds",
            "4",
        ],
        "kv-seed1.json",
    );
    let failing = failing_oracles(&artifact);
    for oracle in ["workload.metastable", "workload.goodput_floor"] {
        assert!(failing.contains(&oracle), "{oracle}: {failing:?}");
    }
    let telemetry = artifact
        .get("report")
        .and_then(|r| r.get("telemetry"))
        .expect("report.telemetry");
    let counter = |key: &str| -> u64 {
        telemetry
            .get("counters")
            .and_then(|c| c.get(key))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("counter {key} missing"))
    };
    // The open-loop engine's fleet counters are live...
    for key in [
        "workload.offered",
        "workload.attempts",
        "workload.served",
        "workload.retries",
        "workload.expired",
    ] {
        assert!(counter(key) > 0, "{key} not live");
    }
    // ...and the unprotected arm shed nothing while amplifying load.
    assert_eq!(counter("workload.shed"), 0);
    assert!(counter("workload.attempts") > counter("workload.offered"));
    // The governor fought the overload: step-downs during the flash, at
    // least one hysteresis recovery attempt, and the per-state dwell-time
    // histograms recorded in deterministic sim-ns.
    for key in [
        "core.governor.step_downs",
        "core.governor.cause_load",
        "core.governor.recoveries",
    ] {
        assert!(counter(key) >= 1, "{key} = 0");
    }
    let hists = telemetry.get("histograms").expect("histograms");
    for h in [
        "core.governor.in_healthy_sim_ns",
        "core.governor.in_degraded_sim_ns",
        "core.governor.in_survival_sim_ns",
    ] {
        assert!(hists.get(h).is_some(), "missing dwell histogram {h}");
    }
    // Degraded/survival nodes must not burn refresh lookaheads.
    assert_eq!(counter("core.policy.refresh"), 0);
}
