//! The allocation ruler: heap allocations and bytes allocated per simulated
//! event, for the stock arm of every registered scenario on seed 1 under its
//! default fault plan, each measured on a thread of its own, and for kv's
//! second run on one thread, which records on the first run's recycled
//! flight-recorder rings.
//!
//! Wall clocks on a shared machine drift by 2x between identical runs;
//! allocation counts do not. This binary installs a counting global
//! allocator whose counters are per thread, so tests running in parallel
//! never mix, and pins each arm's allocs/event and bytes/event as upper
//! bounds. A value above its bound fails; a value below it is printed
//! (`cargo test --test alloc_ruler -- --nocapture`) so the bound can be
//! tightened. The bounds hold for debug and release builds alike.

use cb_bench::registry::{configure, scenario_names, ArmSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // `try_with`: a thread's last deallocations can outlive its locals.
    let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, bytes)` made on this thread so far.
fn tally() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

/// What one measured run made: `(events, allocations, bytes)`.
type Tally = (u64, u64, u64);

/// Runs `name`'s stock arm on seed 1 under its default plan `runs` times on
/// a new thread, and tallies the last run. A new thread's flight-recorder
/// free list is empty, so the first run pays for every ring it grows and no
/// arm's count depends on the arm measured before it. Each report is
/// dropped before the next run, handing its rings back to the thread.
fn measure(name: &'static str, runs: usize) -> Tally {
    std::thread::spawn(move || {
        let scenario = configure(name, &ArmSpec::default()).expect("stock arm configures");
        let plan = scenario.default_plan(1);
        let mut last = (0, 0, 0);
        for _ in 0..runs {
            let before = tally();
            let report = scenario.run(1, &plan);
            let after = tally();
            last = (
                report.events_processed,
                after.0 - before.0,
                after.1 - before.1,
            );
        }
        last
    })
    .join()
    .expect("measured run")
}

/// Prints one row and returns a complaint when it is over its bounds.
fn check(
    row: &str,
    (events, allocs, bytes): Tally,
    max_allocs: f64,
    max_bytes: f64,
) -> Option<String> {
    let per_allocs = allocs as f64 / events.max(1) as f64;
    let per_bytes = bytes as f64 / events.max(1) as f64;
    println!(
        "{row:<14} {events:>6} events {allocs:>7} allocs {bytes:>9} bytes  \
         {per_allocs:.4} allocs/event (bound {max_allocs})  \
         {per_bytes:.1} bytes/event (bound {max_bytes})",
    );
    (per_allocs > max_allocs || per_bytes > max_bytes)
        .then(|| format!("{row}: {per_allocs:.3} allocs/event, {per_bytes:.1} bytes/event"))
}

/// Upper bounds per stock arm: `(scenario, allocs/event, bytes/event)`,
/// about 3 % above the values measured when each bound was set (listed in
/// EXPERIMENTS.md). Between runs, allocations move by one or two and bytes
/// by a fraction of a byte per event, with the digit counts of the
/// wall-clock values a report renders.
const BOUNDS: [(&str, f64, f64); 7] = [
    ("kv", 0.707, 384.0),
    ("paxos", 0.456, 583.0),
    ("mencius", 0.259, 325.0),
    ("gossip", 2.281, 582.0),
    ("dissem", 0.260, 458.0),
    ("randtree", 1.154, 131.0),
    ("ring", 0.654, 519.0),
];

/// The same kind of bound for kv's second run on one thread, whose
/// flight recorders take the rings the first run's fleet handed back.
const WARM_KV: (f64, f64) = (0.700, 316.0);

#[test]
fn stock_arms_stay_under_their_allocation_bounds() {
    let names = scenario_names();
    assert_eq!(names.len(), BOUNDS.len(), "a scenario without a bound");
    let mut over = Vec::new();
    for (name, max_allocs, max_bytes) in BOUNDS {
        assert!(names.contains(&name), "no scenario named {name}");
        over.extend(check(name, measure(name, 1), max_allocs, max_bytes));
    }
    let (max_allocs, max_bytes) = WARM_KV;
    over.extend(check("kv (warm)", measure("kv", 2), max_allocs, max_bytes));
    assert!(over.is_empty(), "over the bound: {}", over.join("; "));
}
