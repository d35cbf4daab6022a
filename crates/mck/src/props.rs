//! Safety and bounded-liveness properties.
//!
//! Properties are what the paper's §3.2 calls *exposed objectives* on the
//! correctness side: the developer states them once and the runtime checks
//! them against every explored future state. Safety is "nothing bad ever
//! happens" (checked on every state); bounded liveness is "something good
//! happens within the exploration horizon" (checked on the paths).

use std::fmt;
use std::rc::Rc;

/// A named predicate over states.
///
/// Cloneable and cheap to share: the predicate lives behind an [`Rc`].
pub struct Property<S> {
    name: String,
    kind: PropertyKind,
    pred: Rc<dyn Fn(&S) -> bool>,
}

impl<S> Clone for Property<S> {
    fn clone(&self) -> Self {
        Property {
            name: self.name.clone(),
            kind: self.kind,
            pred: Rc::clone(&self.pred),
        }
    }
}

impl<S> fmt::Debug for Property<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Property")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .finish()
    }
}

/// How a property is interpreted during exploration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PropertyKind {
    /// Must hold in **every** reachable state; a single falsifying state is
    /// a violation with a counterexample path.
    Safety,
    /// Should hold in **some** state of each explored path within the
    /// horizon; paths where it never holds are reported as liveness misses.
    EventuallyWithinHorizon,
}

impl<S> Property<S> {
    /// A safety property: `pred` must hold in every reachable state.
    pub fn safety(name: impl Into<String>, pred: impl Fn(&S) -> bool + 'static) -> Self {
        Property {
            name: name.into(),
            kind: PropertyKind::Safety,
            pred: Rc::new(pred),
        }
    }

    /// A bounded-liveness property: `pred` should hold somewhere along each
    /// explored path.
    pub fn eventually(name: impl Into<String>, pred: impl Fn(&S) -> bool + 'static) -> Self {
        Property {
            name: name.into(),
            kind: PropertyKind::EventuallyWithinHorizon,
            pred: Rc::new(pred),
        }
    }

    /// The property's name, used in violation reports.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The interpretation of the property.
    pub fn kind(&self) -> PropertyKind {
        self.kind
    }

    /// Evaluates the predicate on a state.
    pub fn holds(&self, state: &S) -> bool {
        (self.pred)(state)
    }
}

/// A detected violation: which property failed, and the action path from
/// the initial state to the failing state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation<A> {
    /// Name of the violated property.
    pub property: String,
    /// Kind of the violated property.
    pub kind: PropertyKind,
    /// Actions from the initial state to the violating state (for safety)
    /// or along the miss path (for liveness).
    pub path: Vec<A>,
}

impl<A: fmt::Debug> fmt::Display for Violation<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} violation of '{}' after {} steps",
            self.kind,
            self.property,
            self.path.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn safety_property_evaluates() {
        let p: Property<i32> = Property::safety("non-negative", |s| *s >= 0);
        assert_eq!(p.name(), "non-negative");
        assert_eq!(p.kind(), PropertyKind::Safety);
        assert!(p.holds(&3));
        assert!(!p.holds(&-1));
    }

    #[test]
    fn eventually_property_kind() {
        let p: Property<i32> = Property::eventually("reaches ten", |s| *s == 10);
        assert_eq!(p.kind(), PropertyKind::EventuallyWithinHorizon);
    }

    #[test]
    fn clones_share_the_predicate() {
        let p: Property<u8> = Property::safety("even", |s| s % 2 == 0);
        let q = p.clone();
        assert!(q.holds(&4));
        assert_eq!(q.name(), "even");
    }

    #[test]
    fn violation_renders() {
        let v = Violation {
            property: "x".into(),
            kind: PropertyKind::Safety,
            path: vec![1u8, 2],
        };
        let text = format!("{v}");
        assert!(text.contains("'x'"), "{text}");
        assert!(text.contains("2 steps"), "{text}");
    }
}
