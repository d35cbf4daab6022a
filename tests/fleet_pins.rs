//! Behaviour pins: `(fingerprint, events_processed, net.msgs_delivered)` of one
//! seed per scenario, recorded before the simulator's path store, link table
//! and per-node models changed representation (PR 22) and required equal
//! ever since.
//!
//! The corpus baseline pins kv only, and in full-trace mode; nothing else
//! held a *lite* fingerprint at the fleet size the benchmark measures. The
//! two 1000-node pins run the `fleet-large` workload's fault plans at a
//! short horizon so a debug build finishes each in a few seconds. A
//! representation change must leave every number here alone; a deliberate
//! behaviour change re-records them (run with `--nocapture`: a mismatch
//! prints the observed triple). The full-trace fingerprints were
//! re-recorded once, alone, when a send's content word became the
//! payload's `derive(Hash)` instead of a digest of its `Debug` text; the
//! lite pins and every count stayed as they were.

use cb_bench::registry::{configure, scenario_names, ArmSpec};
use cb_bench::steeringlab::run_lab;
use cb_dissem::SwarmCampaign;
use cb_gossip::GossipCampaign;
use cb_harness::prelude::*;
use cb_simnet::prelude::{SimDuration, SimTime};
use cb_telemetry::keys;
use cb_workload::WorkloadProfile;

type Pin = (u64, u64, u64);

fn observed(r: &RunReport) -> Pin {
    let delivered = r.telemetry.counter(keys::NET_MSGS_DELIVERED);
    (r.fingerprint, r.events_processed, delivered)
}

#[track_caller]
fn assert_pin(what: &str, r: &RunReport, pin: Pin) {
    let got = observed(r);
    assert_eq!(
        got, pin,
        "{what}: observed ({:#018x}, {}, {}), pinned ({:#018x}, {}, {})",
        got.0, got.1, got.2, pin.0, pin.1, pin.2
    );
}

const NODES: u32 = 1000;

fn all_but(cut: &[u32]) -> Vec<u32> {
    (0..NODES).filter(|i| !cut.contains(i)).collect()
}

/// `fleet-large`'s gossip arm (benchmark/src/workloads.rs) at a 6 s horizon.
#[test]
fn gossip_1000_lite_fingerprint_is_pinned() {
    let churners: Vec<u32> = (1..=NODES / 8).collect();
    let plan = FaultPlan::none()
        .churn(&churners, 1_000, 5_000, 2_000, 500)
        .loss(0.10, 1_000, 5_000)
        .partition(&[7, 11], &all_but(&[7, 11]), 3_000, Some(7_000));
    let scenario = GossipCampaign {
        nodes: NODES as usize,
        horizon: SimTime::from_secs(6),
        ..GossipCampaign::default()
    };
    assert_pin(
        "gossip-1000 seed 2",
        &scenario.run(2, &plan),
        (0x3715_b6ac_f213_39b8, 38_790, 18_004),
    );
}

/// `fleet-large`'s dissem arm at a 15 s horizon.
#[test]
fn dissem_1000_lite_fingerprint_is_pinned() {
    let plan = FaultPlan::none()
        .crash(5, 4_000)
        .restart(5, 12_000)
        .loss(0.05, 1_000, 8_000)
        .partition(&[9], &all_but(&[9]), 30_000, Some(40_000));
    let scenario = SwarmCampaign {
        peers: NODES as usize,
        blocks: 8,
        horizon: SimTime::from_secs(15),
        ..SwarmCampaign::default()
    };
    assert_pin(
        "dissem-1000 seed 2",
        &scenario.run(2, &plan),
        (0x01fd_e3ee_16a4_4fec, 165_600, 101_573),
    );
}

/// The stock arm of every registered scenario, seed 3, under its own
/// default plan.
#[test]
fn stock_scenarios_are_pinned() {
    let pins: [(&str, Pin); 7] = [
        ("randtree", (0xb531_baa3_6489_f8f0, 83_526, 50_180)),
        ("gossip", (0x425b_c91f_6669_a6e1, 7_000, 3_653)),
        ("paxos", (0x2f8a_7859_b71b_6ba8, 1_824, 1_335)),
        ("dissem", (0x688e_06e1_f457_25cf, 11_519, 9_872)),
        ("ring", (0x027b_8db7_95ca_e2da, 334, 158)),
        ("kv", (0x7504_ae0b_28b5_5a88, 4_987, 2_373)),
        ("mencius", (0x73ed_bb5e_3df5_fd44, 6_015, 3_681)),
    ];
    assert_eq!(
        pins.map(|(name, _)| name).as_slice(),
        scenario_names().as_slice(),
        "a registered scenario has no pin"
    );
    let mut wrong = Vec::new();
    for (name, pin) in pins {
        let scenario = configure(name, &ArmSpec::default()).expect("stock arm configures");
        let got = observed(&scenario.run(3, &scenario.default_plan(3)));
        if got != pin {
            wrong.push(format!(
                "(\"{name}\", ({:#018x}, {}, {})),",
                got.0, got.1, got.2
            ));
        }
    }
    assert!(wrong.is_empty(), "observed:\n{}", wrong.join("\n"));
}

/// Arms whose run bodies share the replica-group plan, the agreement and
/// linearizability oracles and the workload windows rule, seed 3 under the
/// default plan: `(fingerprint, events_processed, failing oracles)`.
/// Recorded before those decisions moved behind one definition each. The
/// kv flash pin moved once since, when the governor stopped reading
/// `kv.admission` and `kv.fanout` keys as peers.
#[test]
fn replica_group_arms_are_pinned() {
    let flash = || WorkloadProfile::by_name("flash");
    type OraclePin = (u64, u64, &'static [&'static str]);
    let arms: [(&str, ArmSpec, OraclePin); 3] = [
        (
            "kv",
            ArmSpec {
                workload: flash(),
                ..ArmSpec::default()
            },
            (0x6a5c_cb6e_89ae_3612, 15_442, &[]),
        ),
        (
            "mencius",
            ArmSpec {
                workload: flash(),
                ..ArmSpec::default()
            },
            (0xd0d4_93db_c520_697b, 46_752, &[]),
        ),
        (
            "kv",
            ArmSpec {
                unsafe_reads: true,
                ..ArmSpec::default()
            },
            (0x9e45_eb9c_b5bd_cd54, 4_802, &["kv.linearizable"]),
        ),
    ];
    let mut wrong = Vec::new();
    for (name, arm, pin) in arms {
        let scenario = configure(name, &arm).expect("arm configures");
        let r = scenario.run(3, &scenario.default_plan(3));
        let got = (r.fingerprint, r.events_processed, r.failing_oracles());
        if (got.0, got.1, got.2.as_slice()) != pin {
            wrong.push(format!(
                "(\"{name}\" {:?}): ({:#018x}, {}, &{:?}),",
                arm.set_fields(),
                got.0,
                got.1,
                got.2
            ));
        }
    }
    assert!(wrong.is_empty(), "observed:\n{}", wrong.join("\n"));
}

/// The A2 steering lab at its three cadences — advisor off, 50 ms, 5 s —
/// over the 12-node racing waves, seed 3: `(conflicts, filtered)`.
#[test]
fn steering_lab_cadences_are_pinned() {
    let hop = SimDuration::from_millis(400);
    let cadences = [
        None,
        Some(SimDuration::from_millis(50)),
        Some(SimDuration::from_secs(5)),
    ];
    let got = cadences.map(|cadence| {
        let out = run_lab(12, hop, cadence, 3);
        (out.conflicts, out.filtered)
    });
    assert_eq!(got, [(2, 0), (0, 1), (2, 0)]);
}
