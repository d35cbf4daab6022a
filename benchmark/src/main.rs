//! Wall-clock benchmark of the crystalball workspace.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload NAME --seed S --seconds N --trace 0|1
//! ```
//!
//! runs one workload in its own process, checks what the program produced,
//! prints every metric as `name value unit` and, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. `--trace 0` measures the end-to-end metrics with nothing
//! recorded; `--trace 1` runs the same inputs on one thread with a span
//! around every call into the workspace and prints the per-layer metrics.
//! Everything is measured from outside, by timing calls into `pub`
//! functions. See `README.md` beside this package.

mod contract;
mod decide;
mod probes;
mod spans;
mod stats;
mod sweep;
mod triage;
mod workloads;

use contract::MetricDef;
use stats::{median, quartiles};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use sweep::{Ctx, Unit};
use workloads::{Metrics, Scale, WORKERS, WORKLOADS};

/// Set-ups per untraced run.
const SETUPS: usize = 3;
/// Timed repetitions a run makes even when `--seconds` is already over.
const MIN_REPS: usize = 3;
/// Spans written to the trace file at most.
const TRACE_FILE_SPANS: usize = 50_000;

/// Where the benchmark may write: `benchmark/out/`, inside the checkout.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A directory removed again when the run ends, however it ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new(workload: &str) -> Scratch {
        let scratch = Scratch(out_dir().join(format!("scratch-{workload}-{}", std::process::id())));
        scratch.reset();
        scratch
    }

    /// Empties the directory, creating it if need be.
    fn reset(&self) {
        let _ = std::fs::remove_dir_all(&self.0);
        std::fs::create_dir_all(&self.0).expect("benchmark/out is writable");
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Process high-water resident set, MB.
fn peak_rss_mb() -> f64 {
    cb_bench::simnet::peak_rss_kb() as f64 / 1e3
}

/// What one run found.
struct Outcome {
    metrics: Metrics,
    checks: Checks,
}

/// The checks a run has made on what the program produced.
#[derive(Default)]
struct Checks {
    /// What the first repetition did; every other must do the same.
    first: Option<Unit>,
    attempted: u64,
    failed: u64,
}

impl Checks {
    /// Counts one repetition's checks, and checks it against the first: the
    /// same inputs must do the same work, to the event.
    fn repetition(&mut self, unit: Unit) {
        self.attempted += unit.attempted + 1;
        self.failed += unit.failed;
        let first = self.first.get_or_insert(unit);
        if (first.ops, first.steps) != (unit.ops, unit.steps) {
            self.failed += 1;
            eprintln!(
                "FAILED repetition did different work: {} ops / {} steps, first did {} / {}",
                unit.ops, unit.steps, first.ops, first.steps
            );
        }
    }

    /// Folds one repetition's call times into the fastest seen per call. A
    /// repetition that made other calls than the first is a failed check.
    fn keep_fastest(&mut self, best: &mut Vec<f64>, calls: Vec<f64>) {
        if best.is_empty() {
            *best = calls;
        } else if best.len() != calls.len() {
            self.failed += 1;
            eprintln!(
                "FAILED repetition made {} calls, first made {}",
                calls.len(),
                best.len()
            );
        } else {
            for (best, s) in best.iter_mut().zip(calls) {
                *best = best.min(s);
            }
        }
    }
}

/// The untraced run: end-to-end metrics.
fn measure(name: &str, seed: u64, seconds: f64, scale: Scale) -> Option<Outcome> {
    let scratch = Scratch::new(name);
    let smoke = scale == Scale::Smoke;
    let mut checks = Checks::default();

    // Set-up is everything before the first timed repetition: building the
    // inputs, warming stores, and one discarded repetition, so that work a
    // change moves into lazy initialisation still shows here. Its pieces —
    // the build, then the repetition's calls — are each kept at the fastest
    // of the set-ups, like every other timing (see `Ctx`).
    let mut setup_parts = Vec::<f64>::new();
    let mut workload = None;
    for _ in 0..if smoke { 1 } else { SETUPS } {
        scratch.reset();
        drop(workload.take());
        let cx = Ctx::new(false);
        let mut w = cx.call(|| workloads::build(name, seed, scale, &scratch.0))?;
        let unit = w.unit(WORKERS, &cx);
        checks.repetition(unit);
        checks.keep_fastest(
            &mut setup_parts,
            cx.calls.into_inner().expect("a call panicked"),
        );
        workload = Some(w);
    }
    let mut workload = workload.expect("at least one set-up");

    // Timed repetitions. Every repetition makes the same public calls in the
    // same order; of each call the fastest repetition is kept (see `Ctx`).
    let cx = Ctx::new(false);
    let (mut unit_s, mut best_calls) = (Vec::new(), Vec::<f64>::new());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let min_reps = if smoke { 1 } else { MIN_REPS };
    while unit_s.len() < min_reps || (!smoke && Instant::now() < deadline) {
        let t0 = Instant::now();
        let unit = workload.unit(WORKERS, &cx);
        unit_s.push(t0.elapsed().as_secs_f64());
        checks.repetition(unit);
        let calls = std::mem::take(&mut *cx.calls.lock().expect("a call panicked"));
        checks.keep_fastest(&mut best_calls, calls);
    }
    let mut op_ns: Vec<u32> = cx
        .ops
        .lock()
        .expect("an operation panicked")
        .values()
        .copied()
        .collect();
    op_ns.sort_unstable();
    let tail_pct = stats::supported_tail(op_ns.len());

    let unit = checks.first.expect("at least one repetition");
    let quiet_s: f64 = best_calls.iter().sum();
    let (q1, med, q3) = quartiles(&unit_s);
    let best = unit_s.iter().copied().fold(f64::INFINITY, f64::min);
    println!(
        "# {name}: unit of {} ops / {} steps in {} calls; {} timed reps after {} set-ups: \
         calls' fastest reps sum to {quiet_s:.4} s; whole reps: best {best:.4} s, \
         quartiles {q1:.4} / {med:.4} / {q3:.4} s",
        unit.ops,
        unit.steps,
        best_calls.len(),
        unit_s.len(),
        if smoke { 1 } else { SETUPS }
    );
    println!(
        "# {name}: {} distinct operations, each at its fastest rep; op_us_tail is p{tail_pct}",
        op_ns.len()
    );
    let mut metrics = Metrics::new();
    metrics.insert("ops_per_s".into(), unit.ops as f64 / quiet_s);
    metrics.insert("steps_per_s".into(), unit.steps as f64 / quiet_s);
    metrics.insert("op_us_p50".into(), stats::mid_median(&op_ns) / 1e3);
    metrics.insert(
        "op_us_tail".into(),
        stats::percentile(&op_ns, tail_pct) as f64 / 1e3,
    );
    metrics.insert("peak_rss_mb".into(), peak_rss_mb());
    metrics.insert("setup_s".into(), setup_parts.iter().sum());
    Some(Outcome { metrics, checks })
}

/// The traced run: per-layer metrics, and the trace file.
fn trace(name: &str, seed: u64, seconds: f64, scale: Scale) -> Option<Outcome> {
    let loadavg = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .unwrap_or(0.0);
    let scratch = Scratch::new(name);
    let smoke = scale == Scale::Smoke;
    let mut checks = Checks::default();
    let mut workload = workloads::build(name, seed, scale, &scratch.0)?;
    let parallel = workload.parallel();
    let off = Ctx::new(false);
    let unit = workload.unit(WORKERS, &off);
    checks.repetition(unit);

    // Cycles of: traced, untraced on one thread, and (campaign workloads)
    // the measured unit on one and on two workers. Alternating keeps the
    // machine's slow episodes from landing on one side of a ratio.
    let on = Ctx::new(true);
    let (mut t_on, mut t_off, mut t_1w, mut t_2w) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut shares: Vec<Vec<f64>> = vec![Vec::new(); contract::LAYERS.len()];
    let mut last_spans = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut timed = |times: &mut Vec<f64>, f: &mut dyn FnMut() -> Unit| {
        let t0 = Instant::now();
        let unit = f();
        times.push(t0.elapsed().as_secs_f64());
        checks.repetition(unit);
    };
    while t_on.is_empty() || (!smoke && Instant::now() < deadline) {
        let rep = t_on.len() as u64;
        timed(&mut t_on, &mut || {
            on.tracer
                .span("bench.unit", rep, || workload.traced_unit(&on))
        });
        last_spans = on.tracer.drain();
        let by_layer = spans::self_ns_by_layer(&last_spans);
        let total: u64 = by_layer.values().sum();
        for (layer, shares) in contract::LAYERS.iter().zip(&mut shares) {
            let own = by_layer.get(layer).copied().unwrap_or(0);
            shares.push(own as f64 / total.max(1) as f64);
        }
        assert!(
            by_layer.keys().all(|l| contract::LAYERS.contains(l)),
            "a span's layer is missing from contract::LAYERS: {by_layer:?}"
        );
        timed(&mut t_off, &mut || workload.traced_unit(&off));
        if parallel {
            timed(&mut t_1w, &mut || workload.unit(1, &off));
            timed(&mut t_2w, &mut || workload.unit(WORKERS, &off));
        }
    }

    let mut metrics = Metrics::new();
    workload.layer_metrics(&last_spans, &mut metrics);
    if !smoke {
        probes::fixed_probes(seed, &scratch.0, &mut metrics);
    }
    for (layer, shares) in contract::LAYERS.iter().zip(&shares) {
        metrics.insert(format!("share.{layer}"), median(shares));
    }
    // Ratios cycle by cycle, then their median: both sides of a ratio ran
    // within seconds of each other.
    let ratios =
        |a: &[f64], b: &[f64]| -> Vec<f64> { a.iter().zip(b).map(|(a, b)| a / b).collect() };
    if parallel {
        metrics.insert(
            "harness.worker_scaling_2w".into(),
            median(&ratios(&t_1w, &t_2w)),
        );
    }
    metrics.insert(
        "bench.trace_overhead_share".into(),
        median(&ratios(&t_on, &t_off)) - 1.0,
    );
    metrics.insert(
        "bench.rep_iqr_share".into(),
        stats::iqr_share(if parallel { &t_2w } else { &t_off }),
    );
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    metrics.insert("bench.nproc".into(), nproc as f64);
    metrics.insert("bench.loadavg_start".into(), loadavg);

    let path = out_dir().join(format!("{name}.trace.json"));
    let kept = &last_spans[..last_spans.len().min(TRACE_FILE_SPANS)];
    std::fs::write(&path, spans::chrome_json(kept)).expect("benchmark/out is writable");
    println!(
        "# {name}: {} traced reps; last one's {} spans ({} written) in {}",
        t_on.len(),
        last_spans.len(),
        kept.len(),
        path.display()
    );
    Some(Outcome { metrics, checks })
}

/// Prints the metrics `defs` lists, readable and then as the result line.
/// A listed metric the run did not produce reads 0; an unlisted one is a
/// bug in the benchmark.
fn report(defs: &[MetricDef], outcome: &Outcome) -> String {
    for name in outcome.metrics.keys() {
        assert!(
            defs.iter().any(|d| d.name == *name),
            "metric {name} is not in the contract"
        );
    }
    let mut fields = Vec::new();
    for def in defs {
        let value = outcome.metrics.get(&def.name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        println!("{} {value} {}", def.name, def.unit);
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            def.name, def.unit
        ));
    }
    let share = stats::failed_share(outcome.checks.failed, outcome.checks.attempted);
    println!("failed_share {share} share");
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.checks.failed == 0,
        outcome.checks.attempted,
        outcome.checks.failed,
        fields.join(", ")
    )
}

/// One run of one workload; the result line goes last.
fn run(name: &str, seed: u64, seconds: f64, traced: bool, scale: Scale) -> Option<Outcome> {
    let (outcome, defs) = if traced {
        (trace(name, seed, seconds, scale)?, contract::per_layer())
    } else {
        (measure(name, seed, seconds, scale)?, contract::end_to_end())
    };
    println!("{}", report(&defs, &outcome));
    Some(outcome)
}

/// `--smoke`: every workload, both paths, one small repetition each.
fn smoke(seed: u64) -> bool {
    // The probes are the same on every workload: once is enough here.
    let scratch = Scratch::new("probes");
    let mut probed = Metrics::new();
    probes::fixed_probes(seed, &scratch.0, &mut probed);
    let mut ok = probed.values().all(|v| v.is_finite() && *v > 0.0);
    for (name, _) in WORKLOADS {
        for traced in [false, true] {
            let outcome = run(name, seed, 0.0, traced, Scale::Smoke).expect("a listed workload");
            ok &= outcome.checks.failed == 0 && outcome.checks.attempted > 0;
        }
    }
    ok
}

/// One child process per workload; the metrics of its result line.
fn child_run(name: &str, seed: u64) -> Option<Metrics> {
    let exe = std::env::current_exe().ok()?;
    let output = std::process::Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &contract::RUN_SECONDS.to_string(),
            "--trace",
            "0",
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .ok()?;
    let stdout = String::from_utf8(output.stdout).ok()?;
    let json = cb_harness::Json::parse(stdout.lines().last()?).ok()?;
    if !output.status.success() || json.get("failed")?.as_u64()? != 0 {
        return None;
    }
    let mut metrics = Metrics::new();
    for def in contract::end_to_end() {
        let value = json
            .get("metrics")?
            .get(&def.name)?
            .get("value")?
            .as_f64()?;
        metrics.insert(def.name, value);
    }
    Some(metrics)
}

/// `--selfcheck`: two full sets of runs of this build, back to back. A
/// metric whose two values differ by more than its own bound cannot resolve
/// a change of that size on this machine: it is reported as unresolved —
/// never as unchanged — and the check fails.
fn selfcheck(seed: u64) -> bool {
    let mut ok = true;
    for (name, _) in WORKLOADS {
        let (Some(a), Some(b)) = (child_run(name, seed), child_run(name, seed)) else {
            println!("{name}: a run failed");
            ok = false;
            continue;
        };
        for def in contract::end_to_end() {
            let (x, y) = (a[&def.name], b[&def.name]);
            let worse = if def.better == "higher" { y < x } else { y > x };
            let gap = (x - y).abs() / x.min(y);
            let bound = def.bound.expect("end-to-end metrics have bounds");
            let verdict = if gap <= bound { "agree" } else { "UNRESOLVED" };
            ok &= gap <= bound;
            println!(
                "{name} {}: {x} then {y} {} ({:.1} % {}, bound {:.0} %): {verdict}",
                def.name,
                def.unit,
                gap * 100.0,
                if worse { "worse" } else { "better" },
                bound * 100.0
            );
        }
    }
    ok
}

fn usage() -> ! {
    eprintln!(
        "usage: cb-benchmark --workload NAME --seed S [--seconds N] [--trace 0|1]\n\
         \x20      cb-benchmark --smoke | --selfcheck | --contract   [--seed S]\n\
         workloads: {}",
        WORKLOADS.map(|(n, _)| n).join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) =
        (None, 1u64, contract::RUN_SECONDS as f64, false);
    let mut mode = None;
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                traced = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--smoke" | "--selfcheck" | "--contract" => mode = Some(arg),
            _ => usage(),
        }
    }
    let ok = match (mode.as_deref(), workload) {
        (Some("--contract"), None) => {
            print!("{}", contract::benchmark_json());
            true
        }
        (Some("--smoke"), None) => smoke(seed),
        (Some("--selfcheck"), None) => selfcheck(seed),
        (None, Some(name)) => match run(&name, seed, seconds, traced, Scale::Full) {
            Some(outcome) => outcome.checks.failed == 0,
            None => usage(),
        },
        _ => usage(),
    };
    if !ok {
        std::process::exit(1);
    }
}
