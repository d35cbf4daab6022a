//! The allocation ruler: heap allocations and bytes allocated per simulated
//! event, for the stock arm of every registered scenario on seed 1 under its
//! default fault plan.
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

/// Upper bounds per stock arm: `(scenario, allocs/event, bytes/event)`,
/// about 3 % above the values measured when each bound was set (listed in
/// EXPERIMENTS.md). Between runs, allocations move by one or two and bytes
/// by a fraction of a byte per event, with the digit counts of the
/// wall-clock values a report renders.
const BOUNDS: [(&str, f64, f64); 7] = [
    ("kv", 0.71, 552.0),
    ("paxos", 0.47, 793.0),
    ("mencius", 0.26, 366.0),
    ("gossip", 2.29, 741.0),
    ("dissem", 0.26, 648.0),
    ("randtree", 1.16, 174.0),
    ("ring", 0.73, 694.0),
];

#[test]
fn stock_arms_stay_under_their_allocation_bounds() {
    let names = scenario_names();
    assert_eq!(names.len(), BOUNDS.len(), "a scenario without a bound");
    let mut over = Vec::new();
    for (name, max_allocs, max_bytes) in BOUNDS {
        assert!(names.contains(&name), "no scenario named {name}");
        let scenario = configure(name, &ArmSpec::default()).expect("stock arm configures");
        let plan = scenario.default_plan(1);
        let before = tally();
        let report = scenario.run(1, &plan);
        let after = tally();
        let events = report.events_processed.max(1) as f64;
        let allocs = (after.0 - before.0) as f64 / events;
        let bytes = (after.1 - before.1) as f64 / events;
        println!(
            "{name:<9} {:>6} events {:>7} allocs {:>9} bytes  \
             {allocs:.4} allocs/event (bound {max_allocs})  \
             {bytes:.1} bytes/event (bound {max_bytes})",
            report.events_processed,
            after.0 - before.0,
            after.1 - before.1,
        );
        if allocs > max_allocs || bytes > max_bytes {
            over.push(format!(
                "{name}: {allocs:.3} allocs/event, {bytes:.1} bytes/event"
            ));
        }
    }
    assert!(over.is_empty(), "over the bound: {}", over.join("; "));
}
