//! Differential pinning of the hierarchical event wheel against the
//! `BinaryHeap` reference scheduler.
//!
//! The wheel replaced the heap as the engine's default event queue; the
//! heap stays behind `SchedulerKind::Heap` exactly so these tests can keep
//! holding the two implementations against each other forever. Across
//! randomly generated schedules and workloads the two must agree on
//! everything observable: the dispatch order of every event, the trace
//! fingerprint in both full and lite modes, and the sim-clock telemetry
//! counters (the masked surface — wall-clock metrics are the only thing
//! allowed to differ between any two runs).

use cb_simnet::prelude::*;
use cb_simnet::wheel::EventWheel;
use proptest::prelude::*;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

// ---- queue level: pop order over adversarial timestamp distributions ----

/// Timestamp deltas spanning every wheel regime: sub-slot (collisions),
/// level 0, level 1, level 2, and the far-future overflow heap — plus
/// exact multiples of the slot and window widths, the boundary cases where
/// a wheel implementation is most likely to disagree with a heap.
fn adversarial_delta(rng: &mut SimRng) -> u64 {
    const SLOT_NS: u64 = 1 << 16; // level-0 slot width
    const WINDOW_NS: u64 = 1 << 26; // level-1 window width
    match rng.gen_below(8) {
        0 => rng.gen_below(SLOT_NS),                // same-slot collision
        1 => rng.gen_below(SLOT_NS * 1024),         // level 0
        2 => rng.gen_below(WINDOW_NS * 1024),       // level 1
        3 => rng.gen_below(WINDOW_NS * 1024 * 64),  // level 2
        4 => (1 + rng.gen_below(2048)) * SLOT_NS,   // slot-aligned
        5 => (1 + rng.gen_below(2048)) * WINDOW_NS, // window-aligned
        6 => rng.gen_below(1 << 46),                // deep overflow
        _ => 1 + rng.gen_below(100),                // near-now
    }
}

proptest! {
    /// The wheel pops in exactly the `(time, node, seq)` order a sorted
    /// reference produces, across random interleavings of pushes and pops
    /// whose timestamps straddle every level boundary.
    #[test]
    fn wheel_pops_in_reference_order(seed in any::<u64>()) {
        let mut rng = SimRng::seed_from(seed);
        let mut wheel: EventWheel<(u32, u64)> = EventWheel::new();
        let mut reference: BinaryHeap<Reverse<(u64, u32, u64)>> = BinaryHeap::new();
        let mut now = 0u64;
        let mut seq = 0u64;
        for _ in 0..600 {
            for _ in 0..=rng.gen_below(3) {
                let at = now + adversarial_delta(&mut rng);
                let node = rng.gen_below(64) as u32;
                wheel.push(at, node, seq, (node, seq));
                reference.push(Reverse((at, node, seq)));
                seq += 1;
            }
            for _ in 0..=rng.gen_below(3) {
                let got = wheel.pop();
                let want = reference.pop().map(|Reverse((at, node, s))| (at, (node, s)));
                prop_assert_eq!(got, want, "pop order diverged at seed {}", seed);
                if let Some((at, _)) = got {
                    // Keys are monotone, so new pushes land at or after the
                    // dispatch frontier, exactly like the engine clock.
                    now = at;
                }
            }
        }
        // Drain: the tail must come out in reference order too.
        while let Some(Reverse((at, node, s))) = reference.pop() {
            prop_assert_eq!(wheel.pop(), Some((at, (node, s))));
        }
        prop_assert_eq!(wheel.pop(), None);
        prop_assert!(wheel.is_empty());
    }
}

// ---- engine level: full-run equivalence over random workloads ----

/// A workload whose behavior is a function of the per-node sim RNG only:
/// timers re-arm with log-uniform delays (microseconds to tens of
/// seconds, so live events populate every wheel level at once), each
/// firing fans out a random mix of reliable and unreliable sends, and
/// receivers occasionally reply. Every callback appends to a log the whole
/// fleet shares, which is the global dispatch order (span ids sort by time
/// then node, so the recorders alone cannot show who went first within one
/// nanosecond).
struct ChaosActor {
    n: u32,
    log: DispatchLog,
}

type DispatchLog = Rc<RefCell<Vec<(SimTime, String)>>>;

impl ChaosActor {
    fn log(&self, ctx: &Ctx<'_, u32>, what: String) {
        let line = format!("n{} {what}", ctx.id().index());
        self.log.borrow_mut().push((ctx.now(), line));
    }
}

impl Actor for ChaosActor {
    type Msg = u32;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
        self.log(ctx, "start".to_string());
        let jitter = SimDuration::from_micros(1 + ctx.rng().gen_below(50_000));
        ctx.set_timer(jitter, 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, _timer: TimerId, tag: u64) {
        self.log(ctx, format!("timer {tag}"));
        for _ in 0..ctx.rng().gen_below(3) {
            let to = NodeId(ctx.rng().gen_below(self.n as u64) as u32);
            if to != ctx.id() {
                if ctx.rng().gen_below(2) == 0 {
                    ctx.send(to, tag as u32);
                } else {
                    ctx.send_unreliable(to, tag as u32);
                }
            }
        }
        // Log-uniform re-arm: 2^0..2^24 microseconds.
        let exp = ctx.rng().gen_below(25);
        let delay = SimDuration::from_micros(1 << exp);
        ctx.set_timer(delay, tag + 1);
    }

    fn on_conn_broken(&mut self, ctx: &mut Ctx<'_, u32>, peer: NodeId) {
        self.log(ctx, format!("conn broken {}", peer.index()));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, from: NodeId, msg: u32) {
        self.log(ctx, format!("deliver {msg} from {}", from.index()));
        if msg != u32::MAX && ctx.rng().gen_below(4) == 0 {
            ctx.send_unreliable(from, u32::MAX);
        }
    }
}

/// Builds a random topology family — star, generated transit-stub, or
/// fat-tree — from the schedule seed, so the differential covers both core
/// models of the path store (route matrix and closed form).
fn random_topology(seed: u64, hosts: usize) -> Topology {
    let mut rng = SimRng::seed_from(seed ^ 0x70_70);
    match seed % 3 {
        0 => Topology::star(
            hosts,
            SimDuration::from_micros(200 + rng.gen_below(3_000)),
            10_000_000,
        ),
        1 => Topology::transit_stub_exact(&TransitStubConfig::balanced_for(hosts), hosts, &mut rng),
        _ => Topology::fat_tree(&FatTreeConfig::for_hosts(hosts), &mut rng),
    }
}

fn run_chaos(
    kind: SchedulerKind,
    lite: bool,
    seed: u64,
    hosts: usize,
    horizon: SimTime,
) -> (u64, u64, MetricsSummary, SimTime, Vec<(SimTime, String)>) {
    let topo = random_topology(seed, hosts);
    let n = topo.host_count() as u32;
    let log = DispatchLog::default();
    let actor_log = log.clone();
    let mut sim = Sim::new_with_scheduler(topo, seed, kind, move |_| ChaosActor {
        n,
        log: actor_log.clone(),
    });
    if lite {
        sim.set_lite(true);
    }
    sim.start_all();
    // A little scheduled fault traffic so crash/restart events ride the
    // same queue as timers and deliveries.
    sim.schedule_crash(NodeId(1), SimTime::from_millis(40));
    sim.schedule_restart(NodeId(1), SimTime::from_millis(400));
    sim.run_until(horizon);
    // The dispatch log, then every span the recorders retained (sends and
    // drops included), rendered.
    let fleet = sim.flight_recorders();
    let mut records = log.take();
    records.extend(fleet.iter().flat_map(|rec| rec.spans()).map(|s| {
        let at = SimTime::from_nanos(s.id().at_ns);
        (at, format!("{:?}", s.render(fleet)))
    }));
    (
        sim.trace().fingerprint(),
        sim.events_processed(),
        sim.summary(),
        sim.now(),
        records,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Full mode: byte-identical dispatch. Every callback (timestamp, node
    /// and event) and every recorded span must match between the
    /// schedulers, which pins the dispatch order itself, not just its hash.
    #[test]
    fn schedulers_dispatch_identically_on_random_workloads(
        seed in any::<u64>(),
        hosts in 6usize..40,
    ) {
        let horizon = SimTime::from_millis(1500);
        let h = run_chaos(SchedulerKind::Heap, false, seed, hosts, horizon);
        let w = run_chaos(SchedulerKind::Wheel, false, seed, hosts, horizon);
        prop_assert_eq!(h.0, w.0, "fingerprint diverged at seed {}", seed);
        prop_assert_eq!(h.1, w.1, "event count diverged at seed {}", seed);
        prop_assert!(
            h.1 > hosts as u64,
            "workload dispatched almost nothing ({} events for {} hosts)",
            h.1,
            hosts
        );
        prop_assert_eq!(h.3, w.3, "final clock diverged at seed {}", seed);
        prop_assert_eq!(h.4.len(), w.4.len(), "record count diverged at seed {}", seed);
        for (i, (a, b)) in h.4.iter().zip(&w.4).enumerate() {
            prop_assert_eq!(a, b, "dispatch order diverged at record {} (seed {})", i, seed);
        }
    }

    /// Lite mode (how large campaigns actually run) plus the masked
    /// telemetry surface: word fingerprints and every sim-clock counter
    /// agree; only wall-clock measurements may ever differ.
    #[test]
    fn lite_fingerprints_and_masked_telemetry_agree(
        seed in any::<u64>(),
        hosts in 6usize..40,
    ) {
        let horizon = SimTime::from_millis(1500);
        let h = run_chaos(SchedulerKind::Heap, true, seed, hosts, horizon);
        let w = run_chaos(SchedulerKind::Wheel, true, seed, hosts, horizon);
        prop_assert_eq!(h.0, w.0, "lite fingerprint diverged at seed {}", seed);
        prop_assert_eq!(h.1, w.1, "event count diverged at seed {}", seed);
        let (sh, sw) = (&h.2, &w.2);
        prop_assert_eq!(sh.msgs_sent, sw.msgs_sent);
        prop_assert_eq!(sh.msgs_delivered, sw.msgs_delivered);
        prop_assert_eq!(sh.msgs_dropped, sw.msgs_dropped);
        prop_assert_eq!(sh.bytes_sent, sw.bytes_sent);
    }
}
