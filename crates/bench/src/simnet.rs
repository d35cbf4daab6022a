//! The simulator hot-loop probe: one load shape through the four engine
//! arms.
//!
//! [`run_size`] drives an identical message/timer workload through
//! `{heap, wheel} × {full, lite}` at one fleet size. The heap arms run the
//! pre-wheel `BinaryHeap` scheduler kept as the differential reference;
//! the lite arms retain no spans and neither render nor digest payloads,
//! which is how large campaigns actually run.
//!
//! **Equivalence is checked on every call, not just reported:** within a
//! trace mode, heap and wheel must produce the same fingerprint and
//! process the same number of events. A mismatch is a scheduler bug and
//! panics. The wall-clock rate of each arm is reported for the
//! `benchmark/` package (`simnet.bare_*_events_per_s`), which owns every
//! wall number and gate.

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

/// All four arms at one fleet size.
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
    sim.set_lite(lite);
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
    let bench = SizeBench {
        nodes,
        arms,
        peak_rss_kb: peak_rss_kb(),
    };
    for mode in ["full", "lite"] {
        let (h, w) = (bench.arm("heap", mode), bench.arm("wheel", mode));
        assert_eq!(
            h.fingerprint, w.fingerprint,
            "{nodes} nodes, {mode} mode: heap and wheel fingerprints diverge"
        );
        assert_eq!(
            h.events, w.events,
            "{nodes} nodes, {mode} mode: event counts diverge"
        );
    }
    bench
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arms_agree_across_schedulers_and_trace_modes() {
        // Tiny sizes so this stays debug-mode cheap; the equivalence
        // asserts inside run_size are the real payload.
        for n in [40usize, 120] {
            let s = run_size(
                n,
                7,
                SimTime::from_millis(1500),
                SimDuration::from_millis(200),
            );
            assert_eq!(s.arms.len(), 4);
            assert!(s.arm("wheel", "lite").events > 0);
            // Event counts are mode-independent too: tracing must never
            // change what the engine dispatches.
            assert_eq!(s.arm("wheel", "full").events, s.arm("wheel", "lite").events);
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

    /// The bare lite engine at 1000 hosts on three core shapes, so a
    /// topology-dependent cliff shows here before a campaign finds it
    /// (EXPERIMENTS.md holds a pasted run). A star is a full mesh as the
    /// path store sees it — a router per host, so the core route matrix is
    /// hosts² — where transit-stub keeps 15² routes and the fat-tree none.
    ///
    /// `cargo test --release -p cb-bench -- --ignored --nocapture per_topology`
    #[test]
    #[ignore = "release probe: prints wall-clock rates, gates nothing"]
    fn bare_lite_events_per_s_per_topology_at_1000_hosts() {
        let n = 1000;
        let seed = 1;
        let shapes: [(&str, Topology); 3] = [
            (
                "full mesh (star)",
                Topology::star(n, SimDuration::from_millis(40), 100_000_000),
            ),
            (
                "transit-stub",
                Topology::transit_stub_exact(
                    &TransitStubConfig::balanced_for(n),
                    n,
                    &mut SimRng::seed_from(seed),
                ),
            ),
            (
                "fat-tree",
                Topology::fat_tree(&FatTreeConfig::for_hosts(n), &mut SimRng::seed_from(seed)),
            ),
        ];
        println!("topology          | events  | best of 5, events/s");
        for (name, topo) in &shapes {
            let runs: Vec<ArmResult> = (0..5)
                .map(|_| {
                    run_arm(
                        topo,
                        n,
                        seed,
                        SchedulerKind::Wheel,
                        true,
                        SimTime::from_secs(2),
                        SimDuration::from_millis(100),
                    )
                })
                .collect();
            assert!(runs.iter().all(|r| r.fingerprint == runs[0].fingerprint));
            let best = runs
                .iter()
                .map(ArmResult::events_per_sec)
                .fold(0.0, f64::max);
            println!("{name:<17} | {:>7} | {best:>10.0}", runs[0].events);
        }
    }
}
