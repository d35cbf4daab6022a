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
//!
//! What the registry builds stamps every report with the arm it was built
//! as ([`ArmSpec::to_json`], written as `report.arm`), so a failure
//! artifact names its arm and `campaign --replay` rebuilds it
//! ([`ArmSpec::from_recorded`]) instead of asking for the flags again.

use cb_harness::prelude::{FaultPlan, Json, RunReport, Scenario};
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

    /// The field's key in a recorded arm: its flag without the `--`.
    pub fn key(self) -> &'static str {
        &self.flag()[2..]
    }

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

    /// The arm as `scenario`'s reports record it: an object holding the
    /// fields off their stock values, keyed by [`ArmField::key`] — `true`
    /// for a switch, the number for `deadline` and `nodes`, the profile
    /// name for `workload`, and for `policy` the content id (a decimal
    /// string) of the store `scenario` loads from the pile, absent when the
    /// pile has none for it. The stock arm is `{}`.
    pub fn to_json(&self, scenario: &str) -> Json {
        let mut arm = Json::obj();
        for field in self.set_fields() {
            let value = match field {
                Deadline => Json::from(self.deadline_states),
                Nodes => Json::from(self.nodes.unwrap_or_default()),
                Workload => Json::from(self.workload.as_ref().map_or("", |p| p.name)),
                Policy => match self.policy.as_ref().and_then(|p| p.get(scenario)) {
                    Some(store) => Json::from(store.content_id().to_string()),
                    None => continue,
                },
                Storm | Ladder | Lookahead | UnsafeReads | RecordPolicy => Json::Bool(true),
            };
            arm.set(field.key(), value);
        }
        arm
    }

    /// The spec a report's recorded arm (see [`ArmSpec::to_json`]) stands
    /// for. A recorded policy store is looked up in `pile` under
    /// `scenario` and must have the recorded content id; a pile beside an
    /// arm that loaded no store is refused too. Refused as well: a
    /// non-object, an unknown key, a value of the wrong type or an unknown
    /// workload profile. Of a key given twice, the first counts.
    pub fn from_recorded(
        arm: &Json,
        scenario: &str,
        pile: Option<Arc<PolicyPile>>,
    ) -> Result<ArmSpec, String> {
        let Json::Obj(entries) = arm else {
            return Err(format!("recorded arm {arm} is not an object"));
        };
        if let Some((key, _)) = entries
            .iter()
            .find(|(key, _)| !ArmField::ALL.iter().any(|f| f.key() == key))
        {
            return Err(format!("recorded arm has an unknown field '{key}'"));
        }
        let mut spec = ArmSpec::default();
        let mut store_id = None;
        for field in ArmField::ALL {
            let Some(value) = arm.get(field.key()) else {
                continue;
            };
            let bad = || format!("recorded arm field '{}' is {value}", field.key());
            let switch = || match value {
                Json::Bool(on) => Ok(*on),
                _ => Err(bad()),
            };
            let number = || value.as_u64().ok_or_else(bad);
            match field {
                Storm => spec.storm = switch()?,
                Ladder => spec.ladder = switch()?,
                Lookahead => spec.lookahead = switch()?,
                UnsafeReads => spec.unsafe_reads = switch()?,
                RecordPolicy => spec.record_policy = switch()?,
                Deadline => spec.deadline_states = number()?,
                Nodes => spec.nodes = Some(usize::try_from(number()?).map_err(|_| bad())?),
                Workload => {
                    let profile = value.as_str().and_then(WorkloadProfile::by_name);
                    spec.workload = Some(profile.ok_or_else(bad)?);
                }
                Policy => store_id = Some(number()?),
            }
        }
        match (store_id, pile) {
            (None, None) => {}
            (None, Some(_)) => {
                return Err("the recorded arm loaded no policy store: drop --policy".into())
            }
            (Some(id), None) => {
                return Err(format!(
                    "the recorded arm loaded policy store {id}: give its pile with --policy PILE"
                ))
            }
            (Some(id), Some(pile)) => {
                match pile.get(scenario).map(PolicyStore::content_id) {
                    Some(got) if got == id => {}
                    got => {
                        let got = got.map_or("none".to_string(), |g| g.to_string());
                        return Err(format!(
                            "the recorded arm loaded policy store {id}; \
                             the pile's {scenario} store is {got}"
                        ));
                    }
                }
                spec.policy = Some(pile);
            }
        }
        Ok(spec)
    }
}

/// Why [`configure`] refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Unsupported {
    /// No scenario has this name.
    Scenario(String),
    /// The scenario does not accept `field`.
    Field { scenario: String, field: ArmField },
    /// `nodes` is below the smallest fleet the scenario can build.
    Nodes {
        scenario: String,
        nodes: usize,
        min: usize,
    },
}

impl Unsupported {
    /// The refused field: `Some` for [`Unsupported::Field`].
    pub fn field(&self) -> Option<ArmField> {
        match self {
            Unsupported::Field { field, .. } => Some(*field),
            _ => None,
        }
    }
}

impl std::fmt::Display for Unsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Unsupported::Scenario(name) => write!(f, "unknown scenario '{name}'"),
            Unsupported::Field { scenario, field } => write!(
                f,
                "scenario '{scenario}' does not accept {} (it accepts: {})",
                field.flag(),
                accepted_flags(scenario)
            ),
            Unsupported::Nodes {
                scenario,
                nodes,
                min,
            } => write!(
                f,
                "scenario '{scenario}' needs --nodes {min} or more (got {nodes})"
            ),
        }
    }
}

/// One registered scenario: its name, the arm fields it accepts, the
/// smallest fleet it can build when it accepts `--nodes`, and the only
/// place its struct is built from an [`ArmSpec`].
struct Entry {
    name: &'static str,
    accepts: &'static [ArmField],
    min_nodes: Option<fn() -> usize>,
    build: fn(&ArmSpec) -> Box<dyn Scenario>,
}

impl Entry {
    /// The scenario built as `arm`, which holds only accepted fields,
    /// stamping its reports with the arm.
    fn configured(&self, arm: &ArmSpec) -> Result<Box<dyn Scenario>, Unsupported> {
        if let (Some(nodes), Some(min)) = (arm.nodes, self.min_nodes.map(|min| min())) {
            if nodes < min {
                return Err(Unsupported::Nodes {
                    scenario: self.name.to_string(),
                    nodes,
                    min,
                });
            }
        }
        Ok(Box::new(Armed {
            arm: arm.to_json(self.name),
            scenario: (self.build)(arm),
        }))
    }
}

/// A registry-built scenario: the one [`Entry::build`] made, with every
/// report stamped with the arm it was built as.
struct Armed {
    scenario: Box<dyn Scenario>,
    arm: Json,
}

impl Scenario for Armed {
    fn name(&self) -> &'static str {
        self.scenario.name()
    }

    fn node_count(&self) -> usize {
        self.scenario.node_count()
    }

    fn default_plan(&self, seed: u64) -> FaultPlan {
        self.scenario.default_plan(seed)
    }

    fn run(&self, seed: u64, plan: &FaultPlan) -> RunReport {
        let mut report = self.scenario.run(seed, plan);
        report.arm = Some(self.arm.clone());
        report
    }
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
        min_nodes: None,
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
        min_nodes: Some(|| cb_gossip::GossipCampaign::default().min_nodes()),
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
        min_nodes: None,
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
        min_nodes: Some(|| cb_dissem::SwarmCampaign::default().min_peers()),
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
        min_nodes: None,
        build: |_| Box::new(RingScenario::default()),
    },
    Entry {
        name: "kv",
        accepts: &[Storm, UnsafeReads, Workload, Policy, RecordPolicy],
        min_nodes: None,
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
        min_nodes: None,
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
/// scenario's accept-set is an error, never a silent no-op, and so is a
/// fleet smaller than the scenario can build.
pub fn configure(name: &str, arm: &ArmSpec) -> Result<Box<dyn Scenario>, Unsupported> {
    let entry = entry(name).ok_or_else(|| Unsupported::Scenario(name.to_string()))?;
    match arm
        .set_fields()
        .into_iter()
        .find(|f| !entry.accepts.contains(f))
    {
        Some(field) => Err(Unsupported::Field {
            scenario: name.to_string(),
            field,
        }),
        None => entry.configured(arm),
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
/// sweep of the whole registry applies arm flags. Each records that
/// effective arm, not `arm`.
pub fn configure_all(arm: &ArmSpec) -> Result<Vec<Box<dyn Scenario>>, Unsupported> {
    REGISTRY
        .iter()
        .map(|e| e.configured(&arm.only(e.accepts)))
        .collect()
}

/// All registered scenarios in their stock arm, in CLI listing order.
pub fn all_scenarios() -> Vec<Box<dyn Scenario>> {
    configure_all(&ArmSpec::default()).expect("every scenario builds its stock arm")
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
            Some(Unsupported::Scenario("nope".to_string()))
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
        let swept: Vec<&str> = configure_all(&arm)
            .unwrap()
            .iter()
            .map(|s| s.name())
            .collect();
        assert_eq!(swept, scenario_names());
        // ...and asked for by name, only the ring toy, which has no load
        // knob, refuses the profile instead of ignoring it.
        for n in scenario_names() {
            match configure(n, &arm) {
                Ok(s) => assert_eq!(s.name(), n, "workload arm renamed {n}"),
                Err(e) => {
                    assert_eq!((n, e.field()), ("ring", Some(Workload)));
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

    #[test]
    fn an_arm_records_its_non_stock_fields_and_decodes_back() {
        assert_eq!(ArmSpec::default().to_json("kv").to_string(), "{}");
        let full = ArmSpec {
            storm: true,
            ladder: true,
            lookahead: true,
            deadline_states: 20,
            unsafe_reads: true,
            nodes: Some(24),
            workload: WorkloadProfile::by_name("flash"),
            policy: None,
            record_policy: true,
        };
        let recorded = full.to_json("randtree");
        assert_eq!(
            recorded.to_string(),
            r#"{"storm":true,"ladder":true,"lookahead":true,"deadline":20,"unsafe-reads":true,"nodes":24,"workload":"flash","record-policy":true}"#
        );
        let back = ArmSpec::from_recorded(&recorded, "randtree", None).unwrap();
        assert_eq!(back.set_fields(), full.set_fields());
        assert_eq!(back.to_json("randtree"), recorded);
        // What each registry row builds records the fields it applied.
        let swept = configure_all(&full).unwrap();
        let gossip = swept.iter().find(|s| s.name() == "gossip").unwrap();
        let report = gossip.run(1, &FaultPlan::none());
        assert_eq!(
            report.arm.map(|a| a.to_string()).as_deref(),
            Some(r#"{"storm":true,"ladder":true,"nodes":24,"workload":"flash"}"#)
        );
    }

    #[test]
    fn a_recorded_arm_is_checked_field_by_field() {
        let parse = |text: &str| Json::parse(text).unwrap();
        for (text, why) in [
            ("[]", "is not an object"),
            (r#"{"speed":true}"#, "unknown field 'speed'"),
            (r#"{"ladder":1}"#, "field 'ladder' is 1"),
            (r#"{"nodes":"many"}"#, "field 'nodes' is \"many\""),
            (r#"{"workload":"gale"}"#, "field 'workload' is \"gale\""),
            (r#"{"policy":"7"}"#, "loaded policy store 7: give its pile"),
        ] {
            let err = ArmSpec::from_recorded(&parse(text), "kv", None).unwrap_err();
            assert!(err.contains(why), "{text}: {err}");
        }
        let pile = Arc::new(PolicyPile::new());
        let err = ArmSpec::from_recorded(&parse("{}"), "kv", Some(pile.clone())).unwrap_err();
        assert!(err.contains("loaded no policy store"), "{err}");
        let err =
            ArmSpec::from_recorded(&parse(r#"{"policy":"7"}"#), "kv", Some(pile)).unwrap_err();
        assert!(err.contains("the pile's kv store is none"), "{err}");
    }

    #[test]
    fn fleets_below_the_minimum_are_refused() {
        let nodes = |n| ArmSpec {
            nodes: Some(n),
            ..Default::default()
        };
        for (name, min) in [("gossip", 2), ("dissem", 6)] {
            for n in 0..min {
                assert_eq!(
                    configure(name, &nodes(n)).err(),
                    Some(Unsupported::Nodes {
                        scenario: name.to_string(),
                        nodes: n,
                        min
                    })
                );
            }
            assert_eq!(configure(name, &nodes(min)).unwrap().node_count(), min);
        }
        assert!(matches!(
            configure_all(&nodes(1)),
            Err(Unsupported::Nodes { .. })
        ));
    }
}
