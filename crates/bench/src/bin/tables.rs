//! Regenerates the paper's tables. Usage:
//!
//! ```text
//! tables [--quick] [--exp e2] [--telemetry] [--json DIR]
//! ```
//!
//! With no arguments, runs every experiment at paper scale and prints the
//! tables. `--quick` shrinks sizes for a fast smoke run; `--exp ID`
//! selects one experiment; `--telemetry` is shorthand for `--exp t1` (the
//! per-scenario telemetry digest); `--json DIR` additionally writes one
//! JSON file per table into DIR.
//!
//! Exit status: 0 = tables printed, 1 = a JSON file could not be written,
//! 2 = usage error (an unknown flag or experiment id, or a flag missing
//! its value) — before any experiment runs.

use cb_bench::experiments::{self, Scale};
use cb_bench::Table;

/// An experiment entry: id plus its runner.
type Runner = (&'static str, fn(Scale) -> Table);

const RUNNERS: [Runner; 15] = [
    ("e1", experiments::e1),
    ("e2", experiments::e2),
    ("e3", experiments::e3),
    ("e4", experiments::e4),
    ("e5", experiments::e5),
    ("e6", experiments::e6),
    ("e7", experiments::e7),
    ("e8", experiments::e8),
    ("e10", experiments::e10),
    ("e11", experiments::e11),
    ("e12", experiments::e12),
    ("e13", experiments::e13),
    ("a1", experiments::a1),
    ("a2", experiments::a2),
    ("t1", experiments::t1),
];

/// Prints `problem`, the usage line and the experiment ids, and exits 2.
fn usage(problem: &str) -> ! {
    let ids: Vec<&str> = RUNNERS.iter().map(|(id, _)| *id).collect();
    eprintln!("{problem}");
    eprintln!("usage: tables [--quick] [--exp ID] [--telemetry] [--json DIR]");
    eprintln!("experiments: {}", ids.join(", "));
    std::process::exit(2);
}

/// The argument following `flag`.
fn need(args: &[String], i: &mut usize, flag: &str) -> String {
    *i += 1;
    args.get(*i)
        .unwrap_or_else(|| usage(&format!("{flag} needs an argument")))
        .clone()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::paper();
    let mut only: Option<String> = None;
    let mut json_dir: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => scale = Scale::quick(),
            "--exp" => only = Some(need(&args, &mut i, "--exp").to_lowercase()),
            "--telemetry" => only = Some("t1".to_string()),
            "--json" => json_dir = Some(need(&args, &mut i, "--json")),
            other => usage(&format!("unknown argument: {other}")),
        }
        i += 1;
    }
    if let Some(sel) = &only {
        if !RUNNERS.iter().any(|(id, _)| id == sel) {
            usage(&format!("unknown experiment: {sel}"));
        }
    }
    for (id, run) in RUNNERS {
        if only.as_ref().is_some_and(|sel| sel != id) {
            continue;
        }
        let start = std::time::Instant::now();
        let table = run(scale);
        println!("{table}");
        println!("   ({:.1}s)\n", start.elapsed().as_secs_f64());
        if let Some(dir) = &json_dir {
            let path = format!("{dir}/{id}.json");
            let written = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, table.to_json().to_string_pretty() + "\n"));
            if let Err(e) = written {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
