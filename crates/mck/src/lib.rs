//! # cb-mck — explicit-state model checking with consequence prediction
//!
//! The prediction substrate of the explicit-choice runtime. The paper builds
//! its "predictive system model" on a model checker (Mace's, in the case
//! study); this crate is that component rebuilt as a library:
//!
//! * [`system::TransitionSystem`] — the abstraction being explored: states,
//!   enabled actions, a pure `step`.
//! * [`explore`] — bounded BFS with visited-state fingerprinting,
//!   safety checking on every state, bounded liveness on paths.
//! * [`consequence`] — CrystalBall's consequence prediction: explore
//!   causally related chains of events instead of all interleavings.
//! * [`walk`] — weighted random walks: the "model checker as simulator"
//!   mode used for performance prediction.
//! * [`props`] — safety and bounded-liveness properties with
//!   counterexample paths.
//! * [`hash`] — stable (non-randomized) state fingerprinting.
//!
//! # Example: checking a tiny protocol
//!
//! ```
//! use cb_mck::explore::{bfs, ExploreConfig};
//! use cb_mck::props::Property;
//! use cb_mck::system::TransitionSystem;
//!
//! /// Two flags that must never both be set.
//! struct Mutex2;
//! impl TransitionSystem for Mutex2 {
//!     type State = (bool, bool);
//!     type Action = u8;
//!     fn initial(&self) -> (bool, bool) { (false, false) }
//!     fn actions(&self, s: &(bool, bool)) -> Vec<u8> {
//!         let mut v = Vec::new();
//!         if !s.0 { v.push(0) }
//!         if !s.1 { v.push(1) }
//!         v
//!     }
//!     fn step(&self, s: &(bool, bool), a: &u8) -> (bool, bool) {
//!         if *a == 0 { (true, s.1) } else { (s.0, true) }
//!     }
//! }
//!
//! let report = bfs(
//!     &Mutex2,
//!     &[Property::safety("mutual exclusion", |s: &(bool, bool)| !(s.0 && s.1))],
//!     &ExploreConfig::depth(4),
//! );
//! assert!(!report.safe()); // both actions can fire
//! assert_eq!(report.violations[0].path.len(), 2);
//! ```

pub mod consequence;
pub mod explore;
pub mod hash;
pub mod props;
pub mod system;
pub mod walk;

pub use consequence::{predict, ConsequenceReport};
pub use explore::{bfs, ExplorationReport, ExploreConfig, LivenessOutcome};
pub use props::{Property, PropertyKind, Violation};
pub use system::{replay, TransitionSystem};
pub use walk::{random_walks, WalkConfig, WalkReport};
