//! Query and diff the campaign corpus. Usage:
//!
//! ```text
//! corpus ingest CORPUS_DIR SRC_DIR [SRC_DIR ...]
//! corpus query CORPUS_DIR PREDICATE [--json]
//! corpus top-blame CORPUS_DIR [--min-seeds N] [--json]
//! corpus diff BASELINE_DIR CANDIDATE_DIR [--out FILE] [--json]
//!             [--rel FRAC] [--abs-floor N] [--hist-divergence FRAC]
//!             [--hist-min-count N] [--pass-rate-drop FRAC]
//! ```
//!
//! `ingest` folds the campaign failure artifacts (`cb-campaign-failure/v2`,
//! or the older v1) of each source directory into the corpus at `CORPUS_DIR`, creating or
//! extending its `index.cbc` in place. Every `*.json` file there must be
//! an artifact: the first one that is not stops the ingest (exit 2, naming
//! the file). Ingestion is idempotent and order-invariant: the saved
//! `index.cbc` bytes depend only on the record set. (Campaign sweeps can
//! also ingest directly via `campaign --corpus DIR` — that path captures
//! passing seeds too.)
//!
//! `query` evaluates a predicate over every record, e.g.
//!
//! ```text
//! corpus query results/corpus \
//!   'scenario=kv & hist_count(core.governor.in_survival_sim_ns) >= 2'
//! corpus query results/corpus 'failed & blame(decide:kv.read_replica)'
//! ```
//!
//! and prints matching seeds in deterministic corpus order. Exit 0 when
//! at least one record matches, 1 when none do.
//!
//! `top-blame` ranks the provenance blame targets shared by violating
//! seeds (default `--min-seeds 3`, the roadmap's canonical cross-seed
//! triage question). Feed any listed seed's failure artifact to
//! `trace blame` for the full causal chain. Exit 0 when any target
//! qualifies, 1 otherwise.
//!
//! `diff` compares two corpora and reports counter-mean movements past
//! the noise thresholds, histogram-distribution divergence, pass-rate
//! drops, newly failing oracles, and coverage drift. `--out` writes the
//! `cb-corpus-diff/v1` report JSON. Exit 0 when nothing is flagged,
//! 1 when anything is — the CI regression gate. Its thresholds must be
//! finite and >= 0, and an unknown flag is refused rather than read as a
//! directory.
//!
//! Exit status 2 on usage or I/O errors. Output goes through
//! [`cb_bench::cli`]: a reader that closes the pipe early (`| head`) stops
//! the printing, not the work — `ingest` still saves `index.cbc` and
//! `diff` still writes `--out` and exits with its verdict.

use cb_bench::outln;
use cb_corpus::{diff, parse_predicate, select, top_blame, Corpus, DiffConfig};
use cb_harness::json::Json;
use std::path::{Path, PathBuf};

fn usage() -> ! {
    eprintln!(
        "usage: corpus ingest CORPUS_DIR SRC_DIR [SRC_DIR ...]\n\
         \x20      corpus query CORPUS_DIR PREDICATE [--json]\n\
         \x20      corpus top-blame CORPUS_DIR [--min-seeds N] [--json]\n\
         \x20      corpus diff BASELINE_DIR CANDIDATE_DIR [--out FILE] [--json]\n\
         \x20             [--rel FRAC] [--abs-floor N] [--hist-divergence FRAC]\n\
         \x20             [--hist-min-count N] [--pass-rate-drop FRAC]"
    );
    std::process::exit(2);
}

fn load_corpus(dir: &Path) -> Corpus {
    Corpus::load(dir).unwrap_or_else(|e| {
        eprintln!("{}: {e}", dir.display());
        std::process::exit(2);
    })
}

fn cmd_ingest(args: &[String]) -> i32 {
    if args.len() < 2 {
        usage();
    }
    let corpus_dir = PathBuf::from(&args[0]);
    let mut corpus = if corpus_dir.join(cb_corpus::INDEX_FILE).exists() {
        load_corpus(&corpus_dir)
    } else {
        Corpus::new()
    };
    for src in &args[1..] {
        let fresh = corpus.ingest_dir(Path::new(src)).unwrap_or_else(|e| {
            eprintln!("{src}: {e}");
            std::process::exit(2);
        });
        outln!("{src}: {fresh} new record(s)");
    }
    if let Err(e) = corpus.save(&corpus_dir) {
        eprintln!("{}: {e}", corpus_dir.display());
        std::process::exit(2);
    }
    outln!(
        "corpus: {} record(s) -> {}",
        corpus.len(),
        corpus_dir.display()
    );
    0
}

fn cmd_query(args: &[String]) -> i32 {
    let mut json_out = false;
    let pos: Vec<&String> = args
        .iter()
        .filter(|a| {
            if a.as_str() == "--json" {
                json_out = true;
                false
            } else {
                true
            }
        })
        .collect();
    let [dir, predicate] = pos.as_slice() else {
        usage();
    };
    let corpus = load_corpus(Path::new(dir));
    let pred = parse_predicate(predicate).unwrap_or_else(|e| {
        eprintln!("bad predicate: {e}");
        std::process::exit(2);
    });
    let hits = select(&corpus, &pred);
    if json_out {
        let rows: Vec<Json> = hits.iter().map(|r| r.to_json()).collect();
        outln!("{}", Json::Arr(rows).to_string_pretty());
    } else {
        for r in &hits {
            outln!(
                "{} seed {} {} fingerprint {:#018x}{}",
                r.scenario,
                r.seed,
                if r.passed { "PASS" } else { "FAIL" },
                r.fingerprint,
                if r.blame.is_empty() {
                    String::new()
                } else {
                    format!(" blame {}", r.blame.join(","))
                }
            );
        }
        outln!("{} of {} record(s) match", hits.len(), corpus.len());
    }
    i32::from(hits.is_empty())
}

fn cmd_top_blame(args: &[String]) -> i32 {
    let mut json_out = false;
    let mut min_seeds = 3usize;
    let mut dir: Option<&String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json_out = true,
            "--min-seeds" => {
                i += 1;
                min_seeds = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--min-seeds wants a number");
                    usage();
                });
            }
            _ if dir.is_none() => dir = Some(&args[i]),
            _ => usage(),
        }
        i += 1;
    }
    let Some(dir) = dir else { usage() };
    let corpus = load_corpus(Path::new(dir));
    let tallies = top_blame(&corpus, min_seeds);
    if json_out {
        let rows: Vec<Json> = tallies
            .iter()
            .map(|t| {
                Json::obj()
                    .with("target", t.target.as_str())
                    .with("seeds", t.seeds.len())
                    .with(
                        "violating",
                        Json::Arr(
                            t.seeds
                                .iter()
                                .map(|(s, seed)| {
                                    Json::obj()
                                        .with("scenario", s.as_str())
                                        .with("seed", seed.to_string())
                                })
                                .collect(),
                        ),
                    )
            })
            .collect();
        outln!("{}", Json::Arr(rows).to_string_pretty());
    } else {
        for t in &tallies {
            let seeds: Vec<String> = t
                .seeds
                .iter()
                .map(|(s, seed)| format!("{s}/{seed}"))
                .collect();
            outln!(
                "{:<32} {:>3} seed(s)  {}",
                t.target,
                t.seeds.len(),
                seeds.join(" ")
            );
        }
        outln!(
            "{} blame target(s) shared by >= {} violating seed(s)",
            tallies.len(),
            min_seeds
        );
        if !tallies.is_empty() {
            outln!("next: `trace blame <artifact>` on any listed seed's failure artifact");
        }
    }
    i32::from(tallies.is_empty())
}

fn cmd_diff(args: &[String]) -> i32 {
    let mut cfg = DiffConfig::default();
    let mut out: Option<PathBuf> = None;
    let mut json_out = false;
    let mut pos: Vec<&String> = Vec::new();
    let mut i = 0;
    let need = |args: &[String], i: &mut usize, flag: &str| -> String {
        *i += 1;
        args.get(*i)
            .unwrap_or_else(|| {
                eprintln!("{flag} needs an argument");
                usage();
            })
            .clone()
    };
    // A threshold the gates compare against: NaN would make every
    // comparison false and silently switch its gate off, and a negative
    // one flags a clean diff.
    let parse_f64 = |s: String, flag: &str| -> f64 {
        match s.parse::<f64>() {
            Ok(v) if v.is_finite() && v >= 0.0 => v,
            _ => {
                eprintln!("{flag} wants a finite number >= 0, got '{s}'");
                usage();
            }
        }
    };
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json_out = true,
            "--out" => out = Some(PathBuf::from(need(args, &mut i, "--out"))),
            "--rel" => cfg.rel_threshold = parse_f64(need(args, &mut i, "--rel"), "--rel"),
            "--abs-floor" => {
                cfg.abs_floor = parse_f64(need(args, &mut i, "--abs-floor"), "--abs-floor")
            }
            "--hist-divergence" => {
                cfg.hist_divergence =
                    parse_f64(need(args, &mut i, "--hist-divergence"), "--hist-divergence")
            }
            "--hist-min-count" => {
                cfg.hist_min_count = need(args, &mut i, "--hist-min-count")
                    .parse()
                    .unwrap_or_else(|_| {
                        eprintln!("--hist-min-count wants a number");
                        usage();
                    })
            }
            "--pass-rate-drop" => {
                cfg.pass_rate_drop =
                    parse_f64(need(args, &mut i, "--pass-rate-drop"), "--pass-rate-drop")
            }
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag: {flag}");
                usage();
            }
            _ => pos.push(&args[i]),
        }
        i += 1;
    }
    let [baseline_dir, candidate_dir] = pos.as_slice() else {
        usage();
    };
    let baseline = load_corpus(Path::new(baseline_dir));
    let candidate = load_corpus(Path::new(candidate_dir));
    let report = diff(&baseline, &candidate, &cfg);
    let json = report.to_json();
    if let Some(path) = &out {
        if let Err(e) = std::fs::write(path, json.to_string_pretty() + "\n") {
            eprintln!("{}: {e}", path.display());
            return 2;
        }
        outln!("wrote {}", path.display());
    }
    if json_out {
        outln!("{}", json.to_string_pretty());
    } else {
        outln!(
            "baseline {} record(s), candidate {} record(s)",
            report.baseline_seeds,
            report.candidate_seeds
        );
        for f in &report.findings {
            outln!(
                "{:<18} {:<10} {:<36} {} -> {}  ({})",
                f.kind,
                f.scenario,
                f.key,
                f.baseline,
                f.candidate,
                f.detail
            );
        }
        if report.regressed() {
            outln!("{} regression finding(s)", report.findings.len());
        } else {
            outln!("no regressions flagged");
        }
    }
    i32::from(report.regressed())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage();
    };
    let code = match cmd.as_str() {
        "ingest" => cmd_ingest(rest),
        "query" => cmd_query(rest),
        "top-blame" => cmd_top_blame(rest),
        "diff" => cmd_diff(rest),
        _ => usage(),
    };
    std::process::exit(code);
}
