//! Invariant oracles.
//!
//! An [`Oracle`] inspects the world after a scenario run and produces an
//! [`OracleVerdict`]. Scenario-specific oracles (tree well-formedness, gossip
//! coverage, paxos agreement, swarm completion) live in the app crates; the
//! harness itself ships only the generic ones that every scenario gets for
//! free:
//!
//! * **quiescence** ([`quiescence`]) — the simulator ran out of work before
//!   the horizon, i.e. the protocol does not spin forever. Only scenarios
//!   that are meant to stop ask for it: runtime fleets re-arm their
//!   controller timers forever and never quiesce by design;
//! * **determinism** — re-running the same seed + fault plan yields an
//!   identical trace fingerprint (checked by the campaign runner itself
//!   because it needs a second run, see `campaign.rs`).

use cb_simnet::prelude::{Actor, Sim, SimTime};
use std::fmt;

/// The outcome of one oracle check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OracleVerdict {
    /// Which oracle produced this verdict (e.g. `"tree.well_formed"`).
    pub name: String,
    /// Whether the invariant held.
    pub passed: bool,
    /// Human-readable explanation, embedded in failure artifacts.
    pub detail: String,
}

impl OracleVerdict {
    /// A passing verdict.
    pub fn pass(name: &str, detail: impl Into<String>) -> Self {
        OracleVerdict {
            name: name.to_string(),
            passed: true,
            detail: detail.into(),
        }
    }

    /// A failing verdict.
    pub fn fail(name: &str, detail: impl Into<String>) -> Self {
        OracleVerdict {
            name: name.to_string(),
            passed: false,
            detail: detail.into(),
        }
    }

    /// Builds a verdict from a condition.
    pub fn check(name: &str, passed: bool, detail: impl Into<String>) -> Self {
        OracleVerdict {
            name: name.to_string(),
            passed,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for OracleVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}: {}",
            if self.passed { "ok" } else { "FAIL" },
            self.name,
            self.detail
        )
    }
}

/// `generic.quiescence`: no events are left queued once the run stopped at
/// `horizon`.
pub fn quiescence<A: Actor>(sim: &Sim<A>, horizon: SimTime) -> OracleVerdict {
    let pending = sim.pending_events();
    OracleVerdict::check(
        "generic.quiescence",
        pending == 0,
        format!(
            "{} events pending at horizon {} ms",
            pending,
            horizon.as_millis()
        ),
    )
}

/// An invariant checked against a world of type `W` after a run.
///
/// `W` is whatever the scenario hands its oracles — typically a reference to
/// the finished `Sim` plus scenario bookkeeping. The blanket impl lets plain
/// closures act as oracles.
pub trait Oracle<W: ?Sized> {
    /// Checks the invariant and reports a verdict.
    fn check(&self, world: &W) -> OracleVerdict;
}

impl<W: ?Sized, F> Oracle<W> for F
where
    F: Fn(&W) -> OracleVerdict,
{
    fn check(&self, world: &W) -> OracleVerdict {
        self(world)
    }
}

/// Runs every oracle in `oracles` against `world`, collecting verdicts.
pub fn check_all<W: ?Sized>(oracles: &[&dyn Oracle<W>], world: &W) -> Vec<OracleVerdict> {
    oracles.iter().map(|o| o.check(world)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_is_an_oracle() {
        let oracle =
            |w: &u32| OracleVerdict::check("is_even", w.is_multiple_of(2), format!("value={w}"));
        assert!(oracle.check(&4).passed);
        assert!(!oracle.check(&3).passed);
    }

    #[test]
    fn check_all_collects_in_order() {
        let a = |_: &()| OracleVerdict::pass("a", "");
        let b = |_: &()| OracleVerdict::fail("b", "boom");
        let verdicts = check_all(&[&a as &dyn Oracle<()>, &b], &());
        assert_eq!(verdicts.len(), 2);
        assert!(verdicts[0].passed);
        assert!(!verdicts[1].passed);
        assert_eq!(verdicts[1].name, "b");
    }

    #[test]
    fn display_marks_failures() {
        let v = OracleVerdict::fail("x", "bad");
        assert!(format!("{v}").contains("FAIL"));
        let p = OracleVerdict::pass("x", "good");
        assert!(format!("{p}").contains("ok"));
    }
}
