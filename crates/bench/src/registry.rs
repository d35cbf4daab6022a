//! The scenario registry: every protocol the campaign runner can sweep,
//! and the one place an *arm* of a scenario is configured.
//!
//! An arm is plain data ([`ArmSpec`]); each registry row declares which
//! arm fields its scenario accepts beside the one struct literal that
//! applies them. [`configure`] is the only constructor — the `campaign`
//! binary's sweep and `--replay`, the conformance tests and the smoke
//! tests all resolve `(name, arm)` through it, so a flag means the same
//! thing everywhere and a field a scenario does not accept is an error
//! instead of a silent no-op.

use cb_harness::prelude::Scenario;
use cb_harness::toy::RingScenario;
use cb_policy::{PolicyPile, PolicyStore};
use cb_workload::WorkloadProfile;
use std::sync::Arc;

/// One settable field of an [`ArmSpec`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArmField {
    Storm,
    Ladder,
    Lookahead,
    Deadline,
    UnsafeReads,
    Nodes,
    Workload,
    Policy,
    RecordPolicy,
}

use ArmField::*;

impl ArmField {
    /// Every field, in usage order.
    pub const ALL: [ArmField; 9] = [
        Storm,
        Ladder,
        Lookahead,
        Deadline,
        UnsafeReads,
        Nodes,
        Workload,
        Policy,
        RecordPolicy,
    ];

    /// The `campaign` flag that moves this field off its stock value.
    pub fn flag(self) -> &'static str {
        match self {
            Storm => "--storm",
            Ladder => "--ladder",
            Lookahead => "--lookahead",
            Deadline => "--deadline",
            UnsafeReads => "--unsafe-reads",
            Nodes => "--nodes",
            Workload => "--workload",
            Policy => "--policy",
            RecordPolicy => "--record-policy",
        }
    }
}

/// A scenario arm as data: which non-stock behaviours a run switches on.
/// `Default` is the stock arm.
#[derive(Clone, Debug, Default)]
pub struct ArmSpec {
    /// Layer the fault-storm schedule over the default plan.
    pub storm: bool,
    /// Resolve choices through the degradation-governed resolver ladder.
    pub ladder: bool,
    /// Resolve choices by predictive lookahead.
    pub lookahead: bool,
    /// Per-decision prediction deadline in explored states (0 = off).
    pub deadline_states: u64,
    /// Serve reads without the guard round (the planted bug).
    pub unsafe_reads: bool,
    /// Fleet-size override.
    pub nodes: Option<usize>,
    /// Open-loop workload profile. The replicated-KV family carries the
    /// full aggregate engine; the other protocols are driven harder
    /// through their existing entry points by the profile's scale hint.
    pub workload: Option<WorkloadProfile>,
    /// Warm-start pile; each scenario takes the store filed under its name.
    pub policy: Option<Arc<PolicyPile>>,
    /// Record fresh-lookahead decisions into the run's policy store.
    pub record_policy: bool,
}

impl ArmSpec {
    /// The fields this spec moves off their stock values.
    pub fn set_fields(&self) -> Vec<ArmField> {
        [
            (Storm, self.storm),
            (Ladder, self.ladder),
            (Lookahead, self.lookahead),
            (Deadline, self.deadline_states > 0),
            (UnsafeReads, self.unsafe_reads),
            (Nodes, self.nodes.is_some()),
            (Workload, self.workload.is_some()),
            (Policy, self.policy.is_some()),
            (RecordPolicy, self.record_policy),
        ]
        .into_iter()
        .filter_map(|(field, set)| set.then_some(field))
        .collect()
    }

    /// This spec with every field outside `keep` back at its stock value.
    pub fn only(&self, keep: &[ArmField]) -> ArmSpec {
        let has = |f| keep.contains(&f);
        ArmSpec {
            storm: has(Storm) && self.storm,
            ladder: has(Ladder) && self.ladder,
            lookahead: has(Lookahead) && self.lookahead,
            deadline_states: if has(Deadline) {
                self.deadline_states
            } else {
                0
            },
            unsafe_reads: has(UnsafeReads) && self.unsafe_reads,
            nodes: self.nodes.filter(|_| has(Nodes)),
            workload: self.workload.clone().filter(|_| has(Workload)),
            policy: self.policy.clone().filter(|_| has(Policy)),
            record_policy: has(RecordPolicy) && self.record_policy,
        }
    }

    fn scale_hint(&self) -> u32 {
        self.workload.as_ref().map_or(1, |p| p.scale_hint())
    }

    fn store_for(&self, scenario: &str) -> Option<Arc<PolicyStore>> {
        let pile = self.policy.as_ref()?;
        pile.get(scenario).cloned().map(Arc::new)
    }
}

/// Why [`configure`] refused: the scenario does not accept `field`, or
/// (`field == None`) no scenario has that name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Unsupported {
    pub scenario: String,
    pub field: Option<ArmField>,
}

impl std::fmt::Display for Unsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.field {
            None => write!(f, "unknown scenario '{}'", self.scenario),
            Some(field) => write!(
                f,
                "scenario '{}' does not accept {} (it accepts: {})",
                self.scenario,
                field.flag(),
                accepted_flags(&self.scenario)
            ),
        }
    }
}

/// One registered scenario: its name, the arm fields it accepts, and the
/// only place its struct is built from an [`ArmSpec`].
struct Entry {
    name: &'static str,
    accepts: &'static [ArmField],
    build: fn(&ArmSpec) -> Box<dyn Scenario>,
}

/// All registered scenarios, in CLI listing order.
const REGISTRY: [Entry; 7] = [
    Entry {
        name: "randtree",
        accepts: &[
            Storm,
            Ladder,
            Lookahead,
            Deadline,
            Workload,
            Policy,
            RecordPolicy,
        ],
        build: |arm| {
            let d = cb_randtree::RandTreeCampaign::default();
            Box::new(cb_randtree::RandTreeCampaign {
                nodes: d.nodes * arm.scale_hint() as usize,
                lookahead: arm.lookahead,
                ladder: arm.ladder,
                deadline_states: arm.deadline_states,
                storm: arm.storm,
                policy: arm.store_for("randtree"),
                record_policy: arm.record_policy,
                ..d
            })
        },
    },
    Entry {
        name: "gossip",
        accepts: &[Storm, Ladder, Nodes, Workload],
        build: |arm| {
            let d = cb_gossip::GossipCampaign::default();
            Box::new(cb_gossip::GossipCampaign {
                nodes: arm.nodes.unwrap_or(d.nodes),
                rumors: d.rumors * arm.scale_hint(),
                ladder: arm.ladder,
                storm: arm.storm,
                ..d
            })
        },
    },
    Entry {
        name: "paxos",
        accepts: &[Workload],
        build: |arm| {
            let d = cb_paxos::PaxosCampaign::default();
            Box::new(cb_paxos::PaxosCampaign {
                commands_per_client: d.commands_per_client * arm.scale_hint(),
                ..d
            })
        },
    },
    Entry {
        name: "dissem",
        accepts: &[Nodes, Workload],
        build: |arm| {
            let d = cb_dissem::SwarmCampaign::default();
            Box::new(cb_dissem::SwarmCampaign {
                peers: arm.nodes.unwrap_or(d.peers),
                blocks: d.blocks * arm.scale_hint(),
                ..d
            })
        },
    },
    Entry {
        name: "ring",
        accepts: &[],
        build: |_| Box::new(RingScenario::default()),
    },
    Entry {
        name: "kv",
        accepts: &[Storm, UnsafeReads, Workload, Policy, RecordPolicy],
        build: |arm| {
            Box::new(cb_kv::KvCampaign {
                storm: arm.storm,
                unsafe_reads: arm.unsafe_reads,
                policy: arm.store_for("kv"),
                record_policy: arm.record_policy,
                workload: arm.workload.clone(),
                ..Default::default()
            })
        },
    },
    Entry {
        name: "mencius",
        accepts: &[Storm, Workload],
        build: |arm| {
            Box::new(cb_paxos::MenciusCampaign {
                storm: arm.storm,
                workload: arm.workload.clone(),
                ..Default::default()
            })
        },
    },
];

fn entry(name: &str) -> Option<&'static Entry> {
    REGISTRY.iter().find(|e| e.name == name)
}

/// The named scenario configured for `arm`. A set field outside the
/// scenario's accept-set is an error, never a silent no-op.
pub fn configure(name: &str, arm: &ArmSpec) -> Result<Box<dyn Scenario>, Unsupported> {
    let unsupported = |field| Unsupported {
        scenario: name.to_string(),
        field,
    };
    let entry = entry(name).ok_or_else(|| unsupported(None))?;
    match arm
        .set_fields()
        .into_iter()
        .find(|f| !entry.accepts.contains(f))
    {
        Some(field) => Err(unsupported(Some(field))),
        None => Ok((entry.build)(arm)),
    }
}

/// The arm fields the named scenario accepts (`None`: no such scenario).
pub fn accepts(name: &str) -> Option<&'static [ArmField]> {
    entry(name).map(|e| e.accepts)
}

/// The named scenario's accepted fields as `campaign` flags, for `--list`
/// and error messages.
pub fn accepted_flags(name: &str) -> String {
    match accepts(name) {
        Some([]) | None => "no arm flags".to_string(),
        Some(fields) => {
            let flags: Vec<&str> = fields.iter().map(|f| f.flag()).collect();
            flags.join(" ")
        }
    }
}

/// Every registered scenario, in CLI listing order, each configured with
/// the fields of `arm` it accepts and running without the rest — how a
/// sweep of the whole registry applies arm flags.
pub fn configure_all(arm: &ArmSpec) -> Vec<Box<dyn Scenario>> {
    REGISTRY
        .iter()
        .map(|e| (e.build)(&arm.only(e.accepts)))
        .collect()
}

/// All registered scenarios in their stock arm, in CLI listing order.
pub fn all_scenarios() -> Vec<Box<dyn Scenario>> {
    configure_all(&ArmSpec::default())
}

/// The registered scenario names, for usage/error messages.
pub fn scenario_names() -> Vec<&'static str> {
    REGISTRY.iter().map(|e| e.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let names = scenario_names();
        assert_eq!(
            names,
            ["randtree", "gossip", "paxos", "dissem", "ring", "kv", "mencius"]
        );
        for (n, s) in names.iter().zip(all_scenarios()) {
            assert_eq!(s.name(), *n, "registry row {n} builds another scenario");
        }
        assert_eq!(
            configure("nope", &ArmSpec::default()).err(),
            Some(Unsupported {
                scenario: "nope".to_string(),
                field: None
            })
        );
    }

    #[test]
    fn every_field_is_accepted_by_some_scenario() {
        // A sweep of the whole registry hands each scenario the fields it
        // accepts, so there a flag is never a usage error — as long as
        // some scenario accepts it.
        for field in ArmField::ALL {
            assert!(
                REGISTRY.iter().any(|e| e.accepts.contains(&field)),
                "{field:?} is accepted by no scenario"
            );
        }
    }

    #[test]
    fn every_scenario_has_a_workload_arm() {
        let arm = ArmSpec {
            workload: WorkloadProfile::by_name("steady"),
            ..Default::default()
        };
        // A `--workload` sweep of the whole registry runs every scenario
        // under its own name...
        let swept: Vec<&str> = configure_all(&arm).iter().map(|s| s.name()).collect();
        assert_eq!(swept, scenario_names());
        // ...and asked for by name, only the ring toy, which has no load
        // knob, refuses the profile instead of ignoring it.
        for n in scenario_names() {
            match configure(n, &arm) {
                Ok(s) => assert_eq!(s.name(), n, "workload arm renamed {n}"),
                Err(e) => {
                    assert_eq!((n, e.field), ("ring", Some(Workload)));
                    assert!(e.to_string().contains("--workload"), "{e}");
                }
            }
        }
    }

    #[test]
    fn only_resets_exactly_the_fields_outside_the_keep_set() {
        let full = ArmSpec {
            storm: true,
            ladder: true,
            lookahead: true,
            deadline_states: 20,
            unsafe_reads: true,
            nodes: Some(24),
            workload: WorkloadProfile::by_name("steady"),
            policy: Some(Arc::new(PolicyPile::new())),
            record_policy: true,
        };
        assert_eq!(full.set_fields(), ArmField::ALL);
        assert_eq!(ArmSpec::default().set_fields(), []);
        for field in ArmField::ALL {
            assert_eq!(full.only(&[field]).set_fields(), [field]);
        }
        assert_eq!(full.only(&ArmField::ALL).set_fields(), ArmField::ALL);
    }
}
