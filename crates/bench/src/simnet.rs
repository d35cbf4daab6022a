//! The simulator hot-loop benchmark (`simnet_bench` binary,
//! `BENCH_simnet.json`).
//!
//! Drives an identical message/timer workload through the four engine
//! arms — `{heap, wheel} × {full, lite}` — at fleet sizes from 100 to
//! 10 000 nodes and records the events/sec trajectory. The heap arms run
//! the pre-wheel `BinaryHeap` scheduler kept as the differential
//! reference; the lite arms retain no spans and neither render nor digest
//! payloads, which is how large campaigns actually run. Both modes share
//! one fixed-width record path, so lite/full is a modest ratio (~2× at 100
//! nodes, ~1.5× at 1000) and is reported, not gated.
//!
//! Two properties are checked on every run, not just reported:
//!
//! * **Equivalence** — within a trace mode, heap and wheel must produce
//!   the same fingerprint and process the same number of events. A
//!   mismatch is a scheduler bug and panics the bench.
//! * **Performance** — the wheel must not regress like-for-like
//!   (`wheel_full ≥ 0.85 × heap_full` events/sec — a 10% regression
//!   allowance plus a measurement guard band: at small fleets tracing
//!   dominates and the schedulers measure within noise of parity). The
//!   binary exits nonzero otherwise.
//!
//! Wall-clock rates are real measurements and vary by machine; every such
//! key carries a `_wall` suffix so the determinism harness can mask them.
//! Everything else in `BENCH_simnet.json` (event counts, fingerprints,
//! config) is a pure function of the seed and must be byte-identical
//! across runs.

use cb_harness::json::Json;
use cb_simnet::prelude::*;

/// One measured (scheduler, mode, size) cell.
#[derive(Clone, Debug)]
pub struct ArmResult {
    /// `"heap"` or `"wheel"`.
    pub scheduler: &'static str,
    /// `"full"` or `"lite"`.
    pub mode: &'static str,
    /// Events dispatched by the engine over the horizon.
    pub events: u64,
    /// Trace fingerprint (mode-specific; comparable within a mode).
    pub fingerprint: u64,
    /// Wall-clock seconds for the run loop (machine-dependent).
    pub wall_secs: f64,
}

impl ArmResult {
    /// Events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.events as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// All four arms at one fleet size, plus the derived ratios.
#[derive(Clone, Debug)]
pub struct SizeBench {
    /// Fleet size (hosts).
    pub nodes: usize,
    /// `heap_full`, `wheel_full`, `heap_lite`, `wheel_lite` in that order.
    pub arms: Vec<ArmResult>,
    /// Process high-water RSS in kB after this size's arms (0 if the
    /// platform does not expose `/proc/self/status`).
    pub peak_rss_kb: u64,
}

impl SizeBench {
    fn arm(&self, scheduler: &str, mode: &str) -> &ArmResult {
        self.arms
            .iter()
            .find(|a| a.scheduler == scheduler && a.mode == mode)
            .expect("all four arms present")
    }

    /// Like-for-like scheduler ratio: wheel events/sec over heap, full mode.
    pub fn wheel_full_vs_heap_full(&self) -> f64 {
        let h = self.arm("heap", "full").events_per_sec();
        if h > 0.0 {
            self.arm("wheel", "full").events_per_sec() / h
        } else {
            0.0
        }
    }

    /// The large-fleet configuration (wheel + lite tracing) over the
    /// reference one (heap + full tracing). Reported, not gated.
    pub fn speedup_vs_baseline(&self) -> f64 {
        let h = self.arm("heap", "full").events_per_sec();
        if h > 0.0 {
            self.arm("wheel", "lite").events_per_sec() / h
        } else {
            0.0
        }
    }
}

/// The deterministic load shape: every node runs a repeating tick timer;
/// each tick fans out two unreliable datagrams to random peers and every
/// eighth tick opens/uses a reliable connection. Exercises the scheduler's
/// full event mix — timers, sends, deliveries, handshakes — with zero
/// quiescence (ticks re-arm forever, the horizon bounds the run).
struct LoadActor {
    n: u32,
    tick: SimDuration,
}

impl Actor for LoadActor {
    type Msg = u32;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
        // Stagger first ticks so 10k timers don't all land on one slot.
        let jitter = SimDuration::from_nanos(ctx.rng().gen_below(self.tick.as_nanos()));
        ctx.set_timer(self.tick + jitter, 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, _timer: TimerId, tag: u64) {
        for _ in 0..2 {
            let to = NodeId(ctx.rng().gen_below(self.n as u64) as u32);
            if to != ctx.id() {
                ctx.send_unreliable(to, tag as u32);
            }
        }
        if tag.is_multiple_of(8) {
            let to = NodeId(ctx.rng().gen_below(self.n as u64) as u32);
            if to != ctx.id() {
                ctx.send(to, u32::MAX);
            }
        }
        ctx.set_timer(self.tick, tag + 1);
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_, u32>, _from: NodeId, _msg: u32) {}
}

fn run_arm(
    topo: &Topology,
    nodes: usize,
    seed: u64,
    kind: SchedulerKind,
    lite: bool,
    horizon: SimTime,
    tick: SimDuration,
) -> ArmResult {
    let n = nodes as u32;
    let mut sim = Sim::new_with_scheduler(topo.clone(), seed, kind, move |_| LoadActor { n, tick });
    if lite {
        sim.set_lite(true);
    }
    sim.start_all();
    let t0 = std::time::Instant::now();
    sim.run_until(horizon);
    let wall_secs = t0.elapsed().as_secs_f64();
    ArmResult {
        scheduler: match kind {
            SchedulerKind::Heap => "heap",
            SchedulerKind::Wheel => "wheel",
        },
        mode: if lite { "lite" } else { "full" },
        events: sim.events_processed(),
        fingerprint: sim.trace().fingerprint(),
        wall_secs,
    }
}

/// Measurement repeats per arm. The gates compare ratios of wall-clock
/// rates, so each arm is timed several times and the fastest repeat wins
/// — the steady-state figure, least disturbed by allocator state and page
/// reclaim (the full-trace 10k arms touch ~1 GB). Cheap arms (lite mode,
/// small fleets) get extra repeats: their individual runs are short, so a
/// single unlucky scheduling hiccup shifts the ratio the most there.
fn reps_for(nodes: usize, lite: bool) -> usize {
    if lite || nodes <= 1000 {
        5
    } else {
        3
    }
}

/// Process high-water RSS in kB from `/proc/self/status`, 0 if unreadable.
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Runs all four arms at one fleet size and verifies scheduler
/// equivalence within each trace mode.
///
/// # Panics
///
/// Panics if heap and wheel disagree on the fingerprint or event count in
/// either mode — that is a scheduler correctness bug, not a perf result.
pub fn run_size(nodes: usize, seed: u64, horizon: SimTime, tick: SimDuration) -> SizeBench {
    let topo = Topology::transit_stub_exact(
        &TransitStubConfig::balanced_for(nodes),
        nodes,
        &mut SimRng::seed_from(seed ^ 0x00B5_EED0_u64),
    );
    // Repeats are interleaved across the arms (heap, wheel, heap, wheel,
    // …) rather than run back to back, so machine-throughput drift over
    // the measurement window hits every arm alike and the gate ratios
    // compare like conditions with like.
    let combos = [
        (SchedulerKind::Heap, false),
        (SchedulerKind::Wheel, false),
        (SchedulerKind::Heap, true),
        (SchedulerKind::Wheel, true),
    ];
    let mut arms: Vec<ArmResult> = Vec::with_capacity(combos.len());
    let max_reps = combos
        .iter()
        .map(|&(_, lite)| reps_for(nodes, lite))
        .max()
        .unwrap_or(1);
    for rep in 0..max_reps {
        for (i, &(kind, lite)) in combos.iter().enumerate() {
            if rep >= reps_for(nodes, lite) {
                continue;
            }
            let r = run_arm(&topo, nodes, seed, kind, lite, horizon, tick);
            if rep == 0 {
                arms.push(r);
            } else {
                assert_eq!(
                    (arms[i].events, arms[i].fingerprint),
                    (r.events, r.fingerprint),
                    "{nodes} nodes, {} {}: bench repeat nondeterministic",
                    r.scheduler,
                    r.mode
                );
                arms[i].wall_secs = arms[i].wall_secs.min(r.wall_secs);
            }
        }
    }
    for mode in ["full", "lite"] {
        let (h, w) = (
            arms.iter()
                .find(|a| a.scheduler == "heap" && a.mode == mode),
            arms.iter()
                .find(|a| a.scheduler == "wheel" && a.mode == mode),
        );
        let (h, w) = (h.expect("heap arm"), w.expect("wheel arm"));
        assert_eq!(
            h.fingerprint, w.fingerprint,
            "{nodes} nodes, {mode} mode: heap and wheel fingerprints diverge"
        );
        assert_eq!(
            h.events, w.events,
            "{nodes} nodes, {mode} mode: event counts diverge"
        );
    }
    SizeBench {
        nodes,
        arms,
        peak_rss_kb: peak_rss_kb(),
    }
}

/// Schema tag of `BENCH_simnet.json`.
pub const SIMNET_BENCH_SCHEMA: &str = "cb-bench-simnet/v1";

/// Serializes the benchmark into the `cb-bench-simnet/v1` schema (see
/// EXPERIMENTS.md, "Reading BENCH_simnet.json"). Keys with a `_wall`
/// suffix are machine-dependent; everything else is seed-deterministic.
pub fn to_json(sizes: &[SizeBench], seed: u64, horizon: SimTime, quick: bool) -> Json {
    let rows: Vec<Json> = sizes
        .iter()
        .map(|s| {
            let arms: Vec<Json> = s
                .arms
                .iter()
                .map(|a| {
                    Json::obj()
                        .with("scheduler", a.scheduler)
                        .with("mode", a.mode)
                        .with("events", a.events)
                        .with("fingerprint", format!("{:#018x}", a.fingerprint))
                        .with("secs_wall", a.wall_secs)
                        .with("events_per_sec_wall", a.events_per_sec())
                })
                .collect();
            Json::obj()
                .with("nodes", s.nodes)
                .with("events", s.arm("wheel", "lite").events)
                .with(
                    "fingerprint_full",
                    format!("{:#018x}", s.arm("wheel", "full").fingerprint),
                )
                .with(
                    "fingerprint_lite",
                    format!("{:#018x}", s.arm("wheel", "lite").fingerprint),
                )
                .with("arms", arms)
                .with("wheel_full_vs_heap_full_wall", s.wheel_full_vs_heap_full())
                .with("speedup_vs_baseline_wall", s.speedup_vs_baseline())
                .with("peak_rss_kb_wall", s.peak_rss_kb)
        })
        .collect();
    let largest = sizes.iter().max_by_key(|s| s.nodes);
    crate::benchjson::envelope(
        "simnet",
        SIMNET_BENCH_SCHEMA,
        "engine events dispatched per wall-clock second; fingerprints are seed-exact",
        Json::obj()
            .with("seed", seed)
            .with("horizon_ms", horizon.as_nanos() / 1_000_000)
            .with("quick", quick),
    )
    .with("sizes", rows)
    .with(
        "summary",
        Json::obj()
            .with("largest_nodes", largest.map(|s| s.nodes).unwrap_or(0))
            .with(
                "speedup_largest_wall",
                largest.map(|s| s.speedup_vs_baseline()).unwrap_or(0.0),
            )
            .with("like_for_like_gate", 0.85),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arms_agree_and_json_is_well_formed() {
        // Tiny sizes so this stays debug-mode cheap; the equivalence
        // asserts inside run_size are the real payload.
        let sizes: Vec<SizeBench> = [40usize, 120]
            .iter()
            .map(|&n| {
                run_size(
                    n,
                    7,
                    SimTime::from_millis(1500),
                    SimDuration::from_millis(200),
                )
            })
            .collect();
        for s in &sizes {
            assert_eq!(s.arms.len(), 4);
            assert!(s.arm("wheel", "lite").events > 0);
            // Event counts are mode-independent too: tracing must never
            // change what the engine dispatches.
            assert_eq!(s.arm("wheel", "full").events, s.arm("wheel", "lite").events);
        }
        let json = to_json(&sizes, 7, SimTime::from_millis(1500), true);
        let text = json.to_string_pretty();
        let back = Json::parse(&text).expect("bench artifact parses");
        crate::benchjson::validate(&back, "simnet", SIMNET_BENCH_SCHEMA, "sizes")
            .expect("shared envelope contract");
        let rows = back.get("sizes").and_then(Json::as_array).expect("sizes");
        assert_eq!(rows.len(), 2);
        for row in rows {
            for key in [
                "nodes",
                "events",
                "fingerprint_full",
                "fingerprint_lite",
                "arms",
                "wheel_full_vs_heap_full_wall",
                "speedup_vs_baseline_wall",
                "peak_rss_kb_wall",
            ] {
                assert!(row.get(key).is_some(), "missing {key}");
            }
        }
    }

    #[test]
    fn deterministic_sections_are_stable_across_runs() {
        let run = || {
            run_size(
                60,
                11,
                SimTime::from_millis(1200),
                SimDuration::from_millis(150),
            )
        };
        let (a, b) = (run(), run());
        for (x, y) in a.arms.iter().zip(&b.arms) {
            assert_eq!(x.events, y.events);
            assert_eq!(x.fingerprint, y.fingerprint);
        }
    }
}
