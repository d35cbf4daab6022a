//! Seed-exact failover regressions.
//!
//! One fixed fault plan — replica 1 crashes at 20 s and restarts at 45 s,
//! replica 2 sits behind a partition from 25 s to 55 s (overlapping the
//! failover window), with a 5% loss band — exercised on both arms:
//!
//! * the **safe** arm must stay linearizable and finish every op, twice,
//!   with byte-identical masked provenance (the replay contract);
//! * the **unsafe-reads** arm must produce a linearizability violation
//!   whose synthesized `Violation` span `trace blame` can walk back to a
//!   `kv.read_replica` decision span — the exposed choice that routed a
//!   read to a stale replica. That chain is the whole point of decision
//!   provenance: the campaign does not just say "stale read", it says
//!   *which decision* picked the replica that served it.

use cb_harness::prelude::*;
use cb_kv::KvCampaign;
use cb_trace::{blame, explain, SpanKind};

/// The regression's fixed fault plan: a partition overlapping a failover.
fn failover_plan(nodes: usize) -> FaultPlan {
    let others: Vec<u32> = (0..nodes as u32).filter(|&i| i != 2).collect();
    FaultPlan::none()
        .crash(1, 20_000)
        .restart(1, 45_000)
        .loss(0.05, 15_000, 35_000)
        .partition(&[2], &others, 25_000, Some(55_000))
}

/// Seed pinned by search: the safe arm passes and the unsafe arm violates
/// under the same plan, so the pair isolates the read guard as the only
/// difference.
const SEED: u64 = 0;

#[test]
fn partition_during_failover_stays_linearizable() {
    let s = KvCampaign::default();
    let plan = failover_plan(s.node_count());
    let r = s.run(SEED, &plan);
    assert!(!r.violated(), "{:?}", r.verdicts);

    // Replay contract: same seed, same plan — identical fingerprint and
    // byte-identical masked provenance.
    let r2 = s.run(SEED, &plan);
    assert_eq!(r.fingerprint, r2.fingerprint);
    assert_eq!(
        r.provenance_masked_json().to_string_pretty(),
        r2.provenance_masked_json().to_string_pretty()
    );
}

#[test]
fn unsafe_reads_violate_and_blame_reaches_the_read_replica_decision() {
    let s = KvCampaign {
        unsafe_reads: true,
        ..KvCampaign::default()
    };
    let plan = failover_plan(s.node_count());
    let r = s.run(SEED, &plan);
    assert!(
        r.failing_oracles().contains(&"kv.linearizable"),
        "expected a stale read under unguarded reads: {:?}",
        r.verdicts
    );

    // The report synthesizes one Violation span per failing oracle,
    // parented on every node's last span and last decision span.
    let violation = r
        .provenance
        .iter()
        .find(|sp| sp.kind == SpanKind::Violation && sp.name == "kv.linearizable")
        .expect("violation span present in provenance");

    let chain = blame(&r.provenance, violation.id).expect("violation span resolvable");
    assert!(
        !chain.decisions.is_empty(),
        "blame walk reached no decisions"
    );

    // The walk must reach the decision that routed a read: some client's
    // last `kv.read_replica` pick.
    let read_pick = chain
        .chain
        .iter()
        .find(|sp| sp.kind == SpanKind::Decision && sp.name == "decide:kv.read_replica")
        .expect("blame chain contains a kv.read_replica decision");
    assert!(chain.decisions.contains(&read_pick.id));

    // And `trace explain` can render that decision.
    let rendered = explain(&r.provenance, read_pick.id).expect("explainable decision");
    assert!(rendered.contains("kv.read_replica"), "{rendered}");
}

#[test]
fn safe_and_unsafe_arms_differ_only_in_the_guard() {
    // Same seed, same plan, guard on vs off: the safe arm's verdicts are
    // all green while the unsafe arm fails linearizability — pinning the
    // violation on the read path rather than the fault schedule.
    let safe = KvCampaign::default();
    let unsafe_arm = KvCampaign {
        unsafe_reads: true,
        ..KvCampaign::default()
    };
    let plan = failover_plan(safe.node_count());
    assert!(!safe.run(SEED, &plan).violated());
    assert!(unsafe_arm
        .run(SEED, &plan)
        .failing_oracles()
        .contains(&"kv.linearizable"));
}

#[test]
fn deliveries_are_named_after_the_send_that_caused_them() {
    // The simulator renders a payload once, at send; the delivery's span
    // carries no text of its own and is named from its parent on export.
    let s = KvCampaign::default();
    let r = s.run(SEED, &failover_plan(s.node_count()));
    let by_id: std::collections::HashMap<_, _> =
        r.provenance.iter().map(|sp| (sp.id, sp)).collect();
    let mut pairs = 0;
    for deliver in r
        .provenance
        .iter()
        .filter(|sp| sp.kind == SpanKind::Deliver)
    {
        assert_eq!(deliver.parents.len(), 1, "{deliver:?}");
        let Some(send) = by_id.get(&deliver.parents[0]) else {
            continue; // the closure budget left this send out of the tail
        };
        assert_eq!(send.kind, SpanKind::Send);
        assert!(!send.name.is_empty());
        assert_eq!(deliver.name, send.name, "{}", deliver.id);
        assert_ne!(deliver.id.node, send.id.node);
        pairs += 1;
    }
    assert_eq!(pairs, 524, "seed-exact: send/deliver pairs in the tail");
    // The pinned seed shows real payload text, cut to the label width.
    let heartbeat = "App { msg: Heartbeat { term: ";
    assert!(r
        .provenance
        .iter()
        .any(|sp| sp.kind == SpanKind::Deliver && sp.name.starts_with(heartbeat)));
}
