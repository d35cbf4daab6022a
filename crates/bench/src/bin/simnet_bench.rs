//! The simulator hot-loop benchmark. Usage:
//!
//! ```text
//! simnet_bench [--quick] [--out PATH] [--seed N]
//! ```
//!
//! Runs the `{heap, wheel} × {full, lite}` engine arms over the same
//! seeded workload at 100 / 1 000 / 10 000 nodes (`--quick`: 100 / 1 000
//! with a shorter horizon) and writes the events/sec trajectory to `PATH`
//! (default: `BENCH_simnet.json` at the current directory). Within each
//! trace mode, heap and wheel fingerprints are asserted equal — the bench
//! doubles as the always-on scheduler differential. Keys suffixed `_wall`
//! are machine-dependent; mask them before comparing artifacts.
//!
//! Exit status: 0 when every size keeps `wheel_full ≥ 0.85 × heap_full`
//! events/sec (gate skipped under `--quick`, which exists for smoke
//! coverage, not measurement); 1 on a gate failure, 2 on usage error.

use cb_bench::simnet::{run_size, to_json, SizeBench};
use cb_simnet::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out = "BENCH_simnet.json".to_string();
    let mut seed = 42u64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--out" => {
                i += 1;
                out = args
                    .get(i)
                    .unwrap_or_else(|| {
                        eprintln!("--out needs a path");
                        std::process::exit(2);
                    })
                    .clone();
            }
            "--seed" => {
                i += 1;
                seed = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed needs a number");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: simnet_bench [--quick] [--out PATH] [--seed N]");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let (sizes, horizon) = if quick {
        (vec![100usize, 1000], SimTime::from_millis(2000))
    } else {
        (vec![100usize, 1000, 10000], SimTime::from_secs(5))
    };
    let tick = SimDuration::from_millis(100);

    println!("simnet hot loop: events/sec by scheduler arm (fingerprints asserted equal)");
    println!(
        "{:>7} {:>12} {:>14} {:>14} {:>14} {:>14} {:>9} {:>12}",
        "nodes",
        "events",
        "heap_full",
        "wheel_full",
        "heap_lite",
        "wheel_lite",
        "speedup",
        "rss_kb"
    );
    let mut results: Vec<SizeBench> = Vec::new();
    for &n in &sizes {
        let s = run_size(n, seed, horizon, tick);
        let eps = |sched: &str, mode: &str| {
            s.arms
                .iter()
                .find(|a| a.scheduler == sched && a.mode == mode)
                .map(|a| a.events_per_sec())
                .unwrap_or(0.0)
        };
        println!(
            "{:>7} {:>12} {:>14.0} {:>14.0} {:>14.0} {:>14.0} {:>8.2}x {:>12}",
            s.nodes,
            s.arms[0].events,
            eps("heap", "full"),
            eps("wheel", "full"),
            eps("heap", "lite"),
            eps("wheel", "lite"),
            s.speedup_vs_baseline(),
            s.peak_rss_kb,
        );
        results.push(s);
    }

    let json = to_json(&results, seed, horizon, quick);
    std::fs::write(&out, json.to_string_pretty() + "\n").expect("write bench artifact");
    println!("wrote {out}");

    if quick {
        return;
    }
    let mut failed = false;
    for s in &results {
        let ratio = s.wheel_full_vs_heap_full();
        if ratio < 0.85 {
            eprintln!(
                "regression: {} nodes wheel_full at {:.2}x of heap_full (gate 0.85)",
                s.nodes, ratio
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
