//! Declarative fault plans.
//!
//! A [`FaultPlan`] is an ordered list of [`Fault`]s — crashes, restarts,
//! partitions, extra message loss, and churn windows — that a campaign
//! composes declaratively and the harness applies to a `Sim` before and
//! during a run. Plans round-trip through a compact spec string
//! ([`FaultPlan::to_spec`] / [`FaultPlan::from_spec`]) so a failure artifact
//! can name the exact plan that produced it and `--replay` can rebuild it.
//!
//! Spec grammar (faults joined by `;`):
//!
//! ```text
//! crash:<node>@<ms>
//! restart:<node>@<ms>
//! part:<a.b.c>|<d.e>@<from_ms>-<heal_ms|never>
//! loss:<pct>@<from_ms>-<until_ms>
//! churn:<n0.n1>@<from_ms>-<until_ms>/<up_mean_ms>/<down_mean_ms>
//! stall:<node>@<from_ms>-<until_ms>
//! delayspike:<extra_ms>@<from_ms>-<until_ms>
//! ```

use cb_simnet::prelude::{Actor, NodeId, Sim, SimDuration, SimTime};
use std::fmt;

/// One injected fault.
#[derive(Clone, Debug, PartialEq)]
pub enum Fault {
    /// Crash `node` at `at`.
    Crash {
        /// Victim node.
        node: NodeId,
        /// Crash time.
        at: SimTime,
    },
    /// Restart `node` (with fresh state) at `at`.
    Restart {
        /// Node to restart.
        node: NodeId,
        /// Restart time.
        at: SimTime,
    },
    /// Partition `group_a` from `group_b` during `[from, heal)`; if `heal`
    /// is `None` the partition is never healed.
    Partition {
        /// One side of the cut.
        group_a: Vec<NodeId>,
        /// Other side of the cut.
        group_b: Vec<NodeId>,
        /// When the cut starts.
        from: SimTime,
        /// When the cut heals (`None` = never).
        heal: Option<SimTime>,
    },
    /// Add `pct` (0..=0.95) extra loss on every path during
    /// `[from, until)`, then remove it.
    Loss {
        /// Extra loss probability added to every path.
        pct: f64,
        /// Window start.
        from: SimTime,
        /// Window end.
        until: SimTime,
    },
    /// Gray failure: pause `node` during `[from, until)` without breaking
    /// its connections. The node processes nothing while stalled — events
    /// addressed to it are deferred to `until` — so peers see it go quiet
    /// and their model snapshots of it age, but no crash is observed.
    Stall {
        /// Node to pause.
        node: NodeId,
        /// Window start.
        from: SimTime,
        /// Window end (events resume here).
        until: SimTime,
    },
    /// Latency storm: add `extra` one-way latency to every path during
    /// `[from, until)`, then remove it.
    DelaySpike {
        /// Extra one-way latency on every path.
        extra: SimDuration,
        /// Window start.
        from: SimTime,
        /// Window end.
        until: SimTime,
    },
    /// Crash/restart churn over `nodes` during `[from, until)` with
    /// exponential up/down times.
    Churn {
        /// Nodes subject to churn.
        nodes: Vec<NodeId>,
        /// Window start.
        from: SimTime,
        /// Window end.
        until: SimTime,
        /// Mean up-time.
        up_mean: SimDuration,
        /// Mean down-time.
        down_mean: SimDuration,
    },
}

impl Fault {
    /// Renders one fault in the spec mini-language.
    pub fn to_spec(&self) -> String {
        fn group(g: &[NodeId]) -> String {
            g.iter()
                .map(|n| n.0.to_string())
                .collect::<Vec<_>>()
                .join(".")
        }
        match self {
            Fault::Crash { node, at } => format!("crash:{}@{}", node.0, at.as_millis()),
            Fault::Restart { node, at } => format!("restart:{}@{}", node.0, at.as_millis()),
            Fault::Partition {
                group_a,
                group_b,
                from,
                heal,
            } => format!(
                "part:{}|{}@{}-{}",
                group(group_a),
                group(group_b),
                from.as_millis(),
                match heal {
                    Some(h) => h.as_millis().to_string(),
                    None => "never".to_string(),
                }
            ),
            Fault::Loss { pct, from, until } => format!(
                "loss:{}@{}-{}",
                (pct * 100.0).round() as u64,
                from.as_millis(),
                until.as_millis()
            ),
            Fault::Stall { node, from, until } => format!(
                "stall:{}@{}-{}",
                node.0,
                from.as_millis(),
                until.as_millis()
            ),
            Fault::DelaySpike { extra, from, until } => format!(
                "delayspike:{}@{}-{}",
                extra.as_millis(),
                from.as_millis(),
                until.as_millis()
            ),
            Fault::Churn {
                nodes,
                from,
                until,
                up_mean,
                down_mean,
            } => format!(
                "churn:{}@{}-{}/{}/{}",
                group(nodes),
                from.as_millis(),
                until.as_millis(),
                up_mean.as_millis(),
                down_mean.as_millis()
            ),
        }
    }

    /// Parses one fault from the spec mini-language.
    pub fn from_spec(spec: &str) -> Result<Fault, PlanParseError> {
        let err = |msg: &str| PlanParseError {
            spec: spec.to_string(),
            msg: msg.to_string(),
        };
        let (kind, rest) = spec.split_once(':').ok_or_else(|| err("missing ':'"))?;
        // Milliseconds that fit the nanosecond clock.
        let millis = |s: &str, what: &str| -> Result<u64, PlanParseError> {
            s.parse::<u64>()
                .ok()
                .filter(|ms| ms.checked_mul(1_000_000).is_some())
                .ok_or_else(|| err(what))
        };
        let parse_ms = |s: &str| millis(s, "bad millisecond value").map(SimTime::from_millis);
        let parse_group = |s: &str| -> Result<Vec<NodeId>, PlanParseError> {
            if s.is_empty() {
                return Err(err("empty node group"));
            }
            s.split('.')
                .map(|p| p.parse::<u32>().map(NodeId).map_err(|_| err("bad node id")))
                .collect()
        };
        match kind {
            "crash" | "restart" => {
                let (node, at) = rest.split_once('@').ok_or_else(|| err("missing '@'"))?;
                let node = NodeId(node.parse().map_err(|_| err("bad node id"))?);
                let at = parse_ms(at)?;
                Ok(if kind == "crash" {
                    Fault::Crash { node, at }
                } else {
                    Fault::Restart { node, at }
                })
            }
            "part" => {
                let (groups, window) = rest.split_once('@').ok_or_else(|| err("missing '@'"))?;
                let (ga, gb) = groups.split_once('|').ok_or_else(|| err("missing '|'"))?;
                let (from, heal) = window.split_once('-').ok_or_else(|| err("missing '-'"))?;
                Ok(Fault::Partition {
                    group_a: parse_group(ga)?,
                    group_b: parse_group(gb)?,
                    from: parse_ms(from)?,
                    heal: if heal == "never" {
                        None
                    } else {
                        Some(parse_ms(heal)?)
                    },
                })
            }
            "loss" => {
                let (pct, window) = rest.split_once('@').ok_or_else(|| err("missing '@'"))?;
                let (from, until) = window.split_once('-').ok_or_else(|| err("missing '-'"))?;
                let pct: f64 = pct.parse().map_err(|_| err("bad loss pct"))?;
                Ok(Fault::Loss {
                    pct: pct / 100.0,
                    from: parse_ms(from)?,
                    until: parse_ms(until)?,
                })
            }
            "stall" => {
                let (node, window) = rest.split_once('@').ok_or_else(|| err("missing '@'"))?;
                let (from, until) = window.split_once('-').ok_or_else(|| err("missing '-'"))?;
                Ok(Fault::Stall {
                    node: NodeId(node.parse().map_err(|_| err("bad node id"))?),
                    from: parse_ms(from)?,
                    until: parse_ms(until)?,
                })
            }
            "delayspike" => {
                let (extra, window) = rest.split_once('@').ok_or_else(|| err("missing '@'"))?;
                let (from, until) = window.split_once('-').ok_or_else(|| err("missing '-'"))?;
                Ok(Fault::DelaySpike {
                    extra: SimDuration::from_millis(millis(extra, "bad extra latency")?),
                    from: parse_ms(from)?,
                    until: parse_ms(until)?,
                })
            }
            "churn" => {
                let (nodes, rest2) = rest.split_once('@').ok_or_else(|| err("missing '@'"))?;
                let mut parts = rest2.split('/');
                let window = parts.next().ok_or_else(|| err("missing window"))?;
                let up = parts.next().ok_or_else(|| err("missing up mean"))?;
                let down = parts.next().ok_or_else(|| err("missing down mean"))?;
                let (from, until) = window.split_once('-').ok_or_else(|| err("missing '-'"))?;
                Ok(Fault::Churn {
                    nodes: parse_group(nodes)?,
                    from: parse_ms(from)?,
                    until: parse_ms(until)?,
                    up_mean: SimDuration::from_millis(millis(up, "bad up mean")?),
                    down_mean: SimDuration::from_millis(millis(down, "bad down mean")?),
                })
            }
            other => Err(err(&format!("unknown fault kind '{other}'"))),
        }
    }
}

/// Error from [`FaultPlan::from_spec`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanParseError {
    /// The offending fragment.
    pub spec: String,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault spec '{}': {}", self.spec, self.msg)
    }
}

impl std::error::Error for PlanParseError {}

/// A declarative, ordered fault schedule.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Faults in declaration order. Order is preserved through spec
    /// round-trips and matters for shrinking (faults are dropped by index).
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (fault-free run).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Builder: crash `node` at `at_ms` (milliseconds of sim time).
    pub fn crash(mut self, node: u32, at_ms: u64) -> Self {
        self.faults.push(Fault::Crash {
            node: NodeId(node),
            at: SimTime::from_millis(at_ms),
        });
        self
    }

    /// Builder: restart `node` at `at_ms`.
    pub fn restart(mut self, node: u32, at_ms: u64) -> Self {
        self.faults.push(Fault::Restart {
            node: NodeId(node),
            at: SimTime::from_millis(at_ms),
        });
        self
    }

    /// Builder: partition `a` from `b` during `[from_ms, heal_ms)`.
    pub fn partition(mut self, a: &[u32], b: &[u32], from_ms: u64, heal_ms: Option<u64>) -> Self {
        self.faults.push(Fault::Partition {
            group_a: a.iter().copied().map(NodeId).collect(),
            group_b: b.iter().copied().map(NodeId).collect(),
            from: SimTime::from_millis(from_ms),
            heal: heal_ms.map(SimTime::from_millis),
        });
        self
    }

    /// Builder: add `pct` loss (0..=0.95) on all paths during the window.
    pub fn loss(mut self, pct: f64, from_ms: u64, until_ms: u64) -> Self {
        self.faults.push(Fault::Loss {
            pct,
            from: SimTime::from_millis(from_ms),
            until: SimTime::from_millis(until_ms),
        });
        self
    }

    /// Builder: pause `node` (gray failure; connections stay up) during
    /// `[from_ms, until_ms)`.
    pub fn stall(mut self, node: u32, from_ms: u64, until_ms: u64) -> Self {
        self.faults.push(Fault::Stall {
            node: NodeId(node),
            from: SimTime::from_millis(from_ms),
            until: SimTime::from_millis(until_ms),
        });
        self
    }

    /// Builder: add `extra_ms` one-way latency on every path during
    /// `[from_ms, until_ms)`.
    pub fn delayspike(mut self, extra_ms: u64, from_ms: u64, until_ms: u64) -> Self {
        self.faults.push(Fault::DelaySpike {
            extra: SimDuration::from_millis(extra_ms),
            from: SimTime::from_millis(from_ms),
            until: SimTime::from_millis(until_ms),
        });
        self
    }

    /// Builder: churn `nodes` during the window with the given mean up/down
    /// times (milliseconds).
    pub fn churn(
        mut self,
        nodes: &[u32],
        from_ms: u64,
        until_ms: u64,
        up_mean_ms: u64,
        down_mean_ms: u64,
    ) -> Self {
        self.faults.push(Fault::Churn {
            nodes: nodes.iter().copied().map(NodeId).collect(),
            from: SimTime::from_millis(from_ms),
            until: SimTime::from_millis(until_ms),
            up_mean: SimDuration::from_millis(up_mean_ms),
            down_mean: SimDuration::from_millis(down_mean_ms),
        });
        self
    }

    /// The default plan of a replica group — replicas `0..replicas` among
    /// `hosts` nodes (paxos, kv, mencius): crash one rotating replica
    /// mid-run and restart it (a majority stays up), cut a different
    /// replica off behind a healed partition, and add a loss window; a
    /// `storm` layers a stall, a delay spike and heavier loss on top.
    /// Clients are never faulted.
    pub fn replica_group(replicas: usize, hosts: usize, seed: u64, storm: bool) -> FaultPlan {
        let r = replicas as u64;
        let victim = (seed % r) as u32;
        let cut = ((seed + 2) % r) as u32;
        let mut plan = FaultPlan::none()
            .crash(victim, 20_000)
            .restart(victim, 45_000)
            .loss(0.05, 10_000, 30_000);
        if cut != victim {
            let others: Vec<u32> = (0..hosts as u32).filter(|&i| i != cut).collect();
            plan = plan.partition(&[cut], &others, 30_000, Some(60_000));
        }
        if storm {
            let stalled = ((seed + 3) % r) as u32;
            plan = plan
                .stall(stalled, 12_000, 22_000)
                .delayspike(150, 8_000, 25_000)
                .loss(0.10, 65_000, 80_000);
        }
        plan
    }

    /// Number of faults in the plan.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan is fault-free.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// A copy of the plan with the faults at `range` removed (used by the
    /// shrinker).
    pub fn without(&self, range: std::ops::Range<usize>) -> FaultPlan {
        let mut faults = self.faults.clone();
        faults.drain(range);
        FaultPlan { faults }
    }

    /// Whether every fault of `self` also appears in `other` (multiset
    /// subset; the shrink proptests assert this about shrunk plans).
    pub fn is_subset_of(&self, other: &FaultPlan) -> bool {
        let mut pool: Vec<&Fault> = other.faults.iter().collect();
        for f in &self.faults {
            match pool.iter().position(|g| *g == f) {
                Some(i) => {
                    pool.remove(i);
                }
                None => return false,
            }
        }
        true
    }

    /// Renders the whole plan as a `;`-joined spec string.
    pub fn to_spec(&self) -> String {
        self.faults
            .iter()
            .map(Fault::to_spec)
            .collect::<Vec<_>>()
            .join(";")
    }

    /// Parses a `;`-joined spec string back into a plan.
    pub fn from_spec(spec: &str) -> Result<FaultPlan, PlanParseError> {
        let spec = spec.trim();
        if spec.is_empty() {
            return Ok(FaultPlan::none());
        }
        let faults = spec
            .split(';')
            .map(|s| Fault::from_spec(s.trim()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(FaultPlan { faults })
    }

    /// The sorted set of time boundaries at which the driver must regain
    /// control to apply or revert a topology-level fault (partition edges
    /// and loss-window edges). Crash/restart/churn are handled by the
    /// simulator's own scheduler and need no boundary.
    fn boundaries(&self) -> Vec<SimTime> {
        let mut ts = Vec::new();
        for f in &self.faults {
            match f {
                Fault::Partition { from, heal, .. } => {
                    ts.push(*from);
                    if let Some(h) = heal {
                        ts.push(*h);
                    }
                }
                Fault::Loss { from, until, .. } => {
                    ts.push(*from);
                    ts.push(*until);
                }
                // A stall only needs control at its start; the simulator
                // defers the node's events until the window end by itself.
                Fault::Stall { from, .. } => ts.push(*from),
                Fault::DelaySpike { from, until, .. } => {
                    ts.push(*from);
                    ts.push(*until);
                }
                _ => {}
            }
        }
        ts.sort();
        ts.dedup();
        ts
    }

    /// Applies the plan to `sim` and runs it to `horizon`.
    ///
    /// Crashes, restarts and churn are pre-scheduled through the simulator's
    /// event queue (so they interleave deterministically with protocol
    /// events). Partitions and loss windows are applied by stepping the sim
    /// to each window boundary and editing the blocked-pair set / topology
    /// in place. After the last boundary the sim runs until it is quiescent
    /// or `horizon` is reached, whichever comes first.
    ///
    /// Returns the sim time at which the run settled.
    pub fn drive<A: Actor>(&self, sim: &mut Sim<A>, churn_seed: u64, horizon: SimTime) -> SimTime {
        // Pre-schedule queue-borne faults.
        for f in &self.faults {
            match f {
                Fault::Crash { node, at } => sim.schedule_crash(*node, *at),
                Fault::Restart { node, at } => sim.schedule_restart(*node, *at),
                Fault::Churn {
                    nodes,
                    from,
                    until,
                    up_mean,
                    down_mean,
                } => {
                    sim.schedule_churn(nodes, *from, *until, *up_mean, *down_mean, churn_seed);
                }
                _ => {}
            }
        }
        // Step through topology-fault boundaries.
        for t in self.boundaries() {
            if t >= horizon {
                break;
            }
            sim.run_until(t);
            for f in &self.faults {
                match f {
                    Fault::Partition {
                        group_a,
                        group_b,
                        from,
                        heal,
                    } => {
                        if *from == t {
                            sim.partition(group_a, group_b);
                        }
                        if *heal == Some(t) {
                            // Per-pair unblock rather than heal_all so
                            // overlapping partitions stay intact.
                            for &a in group_a {
                                for &b in group_b {
                                    // Blackholes are directed; the partition
                                    // blocked both directions.
                                    sim.unblock(a, b);
                                    sim.unblock(b, a);
                                }
                            }
                        }
                    }
                    Fault::Loss { pct, from, until } => {
                        if *from == t {
                            sim.topology_mut().add_loss_all(*pct);
                        }
                        if *until == t {
                            sim.topology_mut().add_loss_all(-*pct);
                        }
                    }
                    Fault::Stall { node, from, until } if *from == t => {
                        sim.stall_until(*node, *until);
                    }
                    Fault::Stall { .. } => {}
                    Fault::DelaySpike { extra, from, until } => {
                        if *from == t {
                            sim.topology_mut().add_latency_all(*extra);
                        }
                        if *until == t {
                            sim.topology_mut().sub_latency_all(*extra);
                        }
                    }
                    _ => {}
                }
            }
        }
        sim.run_until_quiescent(horizon)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            write!(f, "(no faults)")
        } else {
            write!(f, "{}", self.to_spec())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> FaultPlan {
        FaultPlan::none()
            .crash(3, 500)
            .restart(3, 1500)
            .partition(&[0, 1], &[2, 3], 200, Some(900))
            .partition(&[4], &[5], 100, None)
            .loss(0.25, 50, 400)
            .churn(&[6, 7], 0, 2000, 300, 120)
            .stall(8, 100, 600)
            .delayspike(150, 250, 700)
    }

    #[test]
    fn spec_round_trip() {
        let plan = sample_plan();
        let spec = plan.to_spec();
        let back = FaultPlan::from_spec(&spec).expect("parse");
        assert_eq!(plan, back);
        // And the spec itself is stable.
        assert_eq!(back.to_spec(), spec);
    }

    #[test]
    fn empty_spec_is_empty_plan() {
        assert!(FaultPlan::from_spec("").unwrap().is_empty());
        assert!(FaultPlan::from_spec("  ").unwrap().is_empty());
        assert_eq!(FaultPlan::none().to_spec(), "");
    }

    #[test]
    fn bad_specs_error() {
        for bad in [
            "bogus:1@2",
            "crash:x@2",
            "crash:1",
            "part:1|2@5",
            "part:|2@5-9",
            "loss:ten@1-2",
            "churn:1@2-3/4",
            "stall:1@2",
            "stall:x@2-3",
            "delayspike:x@1-2",
            "delayspike:5@1",
        ] {
            assert!(FaultPlan::from_spec(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn without_drops_exactly_one() {
        let plan = sample_plan();
        let smaller = plan.without(2..3);
        assert_eq!(smaller.len(), plan.len() - 1);
        assert!(smaller.is_subset_of(&plan));
        assert!(!plan.is_subset_of(&smaller));
    }

    #[test]
    fn subset_is_multiset_aware() {
        let twice = FaultPlan::none().crash(1, 10).crash(1, 10);
        let once = FaultPlan::none().crash(1, 10);
        assert!(once.is_subset_of(&twice));
        assert!(!twice.is_subset_of(&once));
    }

    #[test]
    fn boundaries_sorted_deduped() {
        let plan = sample_plan();
        let b = plan.boundaries();
        let mut sorted = b.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(b, sorted);
        // part@200-900, part@100-never, loss@50-400, stall@100-600 (start
        // only), delayspike@250-700.
        assert_eq!(
            b,
            vec![
                SimTime::from_millis(50),
                SimTime::from_millis(100),
                SimTime::from_millis(200),
                SimTime::from_millis(250),
                SimTime::from_millis(400),
                SimTime::from_millis(700),
                SimTime::from_millis(900),
            ]
        );
    }

    #[test]
    fn display_uses_spec() {
        assert_eq!(format!("{}", FaultPlan::none()), "(no faults)");
        let p = FaultPlan::none().crash(1, 10);
        assert_eq!(format!("{p}"), "crash:1@10");
    }
}
