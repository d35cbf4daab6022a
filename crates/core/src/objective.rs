//! Exposed objectives (paper §3.2).
//!
//! The developer states *what* the system should achieve — safety and
//! liveness properties on the correctness side, quantitative metrics on the
//! performance side — and the runtime maximizes it when resolving choices.
//! An [`ObjectiveSet`] bundles all of them over the model state type `S`;
//! weighted performance terms compose into a single scalar, and safety
//! dominates lexicographically at resolution time (see
//! [`crate::choice::Prediction::better_than`]).

use cb_mck::props::Property;
use std::fmt;
use std::rc::Rc;

/// A named, weighted quantitative objective over model states.
pub struct PerfObjective<S> {
    name: String,
    weight: f64,
    metric: Rc<dyn Fn(&S) -> f64>,
}

impl<S> Clone for PerfObjective<S> {
    fn clone(&self) -> Self {
        PerfObjective {
            name: self.name.clone(),
            weight: self.weight,
            metric: Rc::clone(&self.metric),
        }
    }
}

impl<S> fmt::Debug for PerfObjective<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PerfObjective")
            .field("name", &self.name)
            .field("weight", &self.weight)
            .finish()
    }
}

impl<S> PerfObjective<S> {
    /// An objective to **maximize**: higher `metric` is better.
    pub fn maximize(
        name: impl Into<String>,
        weight: f64,
        metric: impl Fn(&S) -> f64 + 'static,
    ) -> Self {
        PerfObjective {
            name: name.into(),
            weight,
            metric: Rc::new(metric),
        }
    }

    /// An objective to **minimize**: implemented as maximizing the negated
    /// metric, so everything downstream deals with one direction only.
    pub fn minimize(
        name: impl Into<String>,
        weight: f64,
        metric: impl Fn(&S) -> f64 + 'static,
    ) -> Self {
        PerfObjective {
            name: name.into(),
            weight,
            metric: Rc::new(move |s| -metric(s)),
        }
    }

    /// The objective's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The weighted value of this objective on a state.
    pub fn value(&self, state: &S) -> f64 {
        self.weight * (self.metric)(state)
    }
}

/// Everything the developer wants the runtime to uphold and maximize.
///
/// # Examples
///
/// ```
/// use cb_core::objective::ObjectiveSet;
/// use cb_mck::props::Property;
///
/// // Model state: (tree depth, node count).
/// let objectives: ObjectiveSet<(u32, u32)> = ObjectiveSet::new()
///     .maximize("nodes joined", 1.0, |s: &(u32, u32)| s.1 as f64)
///     .minimize("tree depth", 5.0, |s: &(u32, u32)| s.0 as f64)
///     .safety(Property::safety("no empty tree", |s: &(u32, u32)| s.1 > 0));
///
/// // Shallower trees with the same membership score higher.
/// assert!(objectives.score(&(3, 10)) > objectives.score(&(6, 10)));
/// ```
pub struct ObjectiveSet<S> {
    performance: Vec<PerfObjective<S>>,
    safety: Vec<Property<S>>,
    liveness: Vec<Property<S>>,
}

impl<S> Clone for ObjectiveSet<S> {
    fn clone(&self) -> Self {
        ObjectiveSet {
            performance: self.performance.clone(),
            safety: self.safety.clone(),
            liveness: self.liveness.clone(),
        }
    }
}

impl<S> fmt::Debug for ObjectiveSet<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObjectiveSet")
            .field("performance", &self.performance)
            .field("safety", &self.safety.len())
            .field("liveness", &self.liveness.len())
            .finish()
    }
}

impl<S> Default for ObjectiveSet<S> {
    fn default() -> Self {
        ObjectiveSet::new()
    }
}

impl<S> ObjectiveSet<S> {
    /// An empty objective set (score 0 everywhere, always safe).
    pub fn new() -> Self {
        ObjectiveSet {
            performance: Vec::new(),
            safety: Vec::new(),
            liveness: Vec::new(),
        }
    }

    /// Adds a metric to maximize with the given weight.
    pub fn maximize(
        mut self,
        name: impl Into<String>,
        weight: f64,
        metric: impl Fn(&S) -> f64 + 'static,
    ) -> Self {
        self.performance
            .push(PerfObjective::maximize(name, weight, metric));
        self
    }

    /// Adds a metric to minimize with the given weight.
    pub fn minimize(
        mut self,
        name: impl Into<String>,
        weight: f64,
        metric: impl Fn(&S) -> f64 + 'static,
    ) -> Self {
        self.performance
            .push(PerfObjective::minimize(name, weight, metric));
        self
    }

    /// Adds a safety property.
    ///
    /// # Panics
    ///
    /// Panics if the property is not a safety property.
    pub fn safety(mut self, prop: Property<S>) -> Self {
        assert_eq!(
            prop.kind(),
            cb_mck::props::PropertyKind::Safety,
            "expected a safety property"
        );
        self.safety.push(prop);
        self
    }

    /// Adds a bounded-liveness property.
    ///
    /// # Panics
    ///
    /// Panics if the property is not an `eventually` property.
    pub fn liveness(mut self, prop: Property<S>) -> Self {
        assert_eq!(
            prop.kind(),
            cb_mck::props::PropertyKind::EventuallyWithinHorizon,
            "expected an eventually-property"
        );
        self.liveness.push(prop);
        self
    }

    /// The combined weighted performance score of a state.
    pub fn score(&self, state: &S) -> f64 {
        self.performance.iter().map(|o| o.value(state)).sum()
    }

    /// All correctness properties (safety then liveness), as the checker
    /// expects them.
    pub fn properties(&self) -> Vec<Property<S>> {
        self.safety
            .iter()
            .chain(self.liveness.iter())
            .cloned()
            .collect()
    }

    /// The safety properties only.
    pub fn safety_properties(&self) -> &[Property<S>] {
        &self.safety
    }

    /// The liveness properties only.
    pub fn liveness_properties(&self) -> &[Property<S>] {
        &self.liveness
    }

    /// Number of performance terms.
    pub fn performance_len(&self) -> usize {
        self.performance.len()
    }

    /// Counts how many safety properties `state` violates right now (the
    /// "generically useful objective" of §3.2: the number of properties
    /// expected to hold).
    pub fn immediate_violations(&self, state: &S) -> u64 {
        self.safety.iter().filter(|p| !p.holds(state)).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_mck::props::PropertyKind;

    #[test]
    fn maximize_and_minimize_directions() {
        let obj: ObjectiveSet<f64> = ObjectiveSet::new()
            .maximize("up", 2.0, |s: &f64| *s)
            .minimize("down", 1.0, |s: &f64| *s);
        // score = 2s - s = s
        assert_eq!(obj.score(&3.0), 3.0);
        assert_eq!(obj.score(&-2.0), -2.0);
    }

    #[test]
    fn empty_set_scores_zero() {
        let obj: ObjectiveSet<u8> = ObjectiveSet::new();
        assert_eq!(obj.score(&9), 0.0);
        assert_eq!(obj.immediate_violations(&9), 0);
        assert!(obj.properties().is_empty());
    }

    #[test]
    fn metrics_and_properties_may_hold_single_threaded_state() {
        // Evaluation runs on the deciding thread, so a metric or predicate
        // may capture an `Rc` (neither `Send` nor `Sync`).
        let calls = Rc::new(std::cell::Cell::new(0u32));
        let (m, p) = (Rc::clone(&calls), Rc::clone(&calls));
        let obj: ObjectiveSet<i32> = ObjectiveSet::new()
            .minimize("x", 1.0, move |s: &i32| {
                m.set(m.get() + 1);
                *s as f64
            })
            .safety(Property::safety("positive", move |s: &i32| {
                p.set(p.get() + 1);
                *s > 0
            }));
        assert_eq!(obj.score(&3), -3.0);
        assert_eq!(obj.immediate_violations(&3), 0);
        assert_eq!(calls.get(), 2);
    }

    #[test]
    fn weights_scale_contributions() {
        let obj: ObjectiveSet<f64> = ObjectiveSet::new().maximize("x", 10.0, |s: &f64| *s);
        assert_eq!(obj.score(&2.0), 20.0);
    }

    #[test]
    fn violations_counted() {
        let obj: ObjectiveSet<i32> = ObjectiveSet::new()
            .safety(Property::safety("positive", |s: &i32| *s > 0))
            .safety(Property::safety("below ten", |s: &i32| *s < 10));
        assert_eq!(obj.immediate_violations(&5), 0);
        assert_eq!(obj.immediate_violations(&-3), 1);
        assert_eq!(obj.immediate_violations(&12), 1);
        assert_eq!(obj.safety_properties().len(), 2);
    }

    #[test]
    fn properties_preserve_kinds() {
        let obj: ObjectiveSet<i32> = ObjectiveSet::new()
            .safety(Property::safety("s", |_: &i32| true))
            .liveness(Property::eventually("l", |_: &i32| true));
        let props = obj.properties();
        assert_eq!(props[0].kind(), PropertyKind::Safety);
        assert_eq!(props[1].kind(), PropertyKind::EventuallyWithinHorizon);
        assert_eq!(obj.liveness_properties().len(), 1);
    }

    #[test]
    #[should_panic(expected = "expected a safety property")]
    fn wrong_kind_rejected() {
        let _ = ObjectiveSet::<i32>::new().safety(Property::eventually("l", |_: &i32| true));
    }

    #[test]
    fn clone_shares_metrics() {
        let obj: ObjectiveSet<f64> = ObjectiveSet::new().maximize("x", 1.0, |s: &f64| *s * 2.0);
        let cloned = obj.clone();
        assert_eq!(cloned.score(&4.0), 8.0);
        assert_eq!(cloned.performance_len(), 1);
    }
}
