//! Choice-resolution strategies.
//!
//! Every resolver implements [`crate::choice::Resolver`]; the experiments
//! compare them directly:
//!
//! * [`random`] — uniform choice, the "Choice-Random" control arm.
//! * [`heuristic`] — a fixed score over option features, the stand-in for
//!   hand-tuned adaptive mechanisms.
//! * [`lookahead`] — consequence prediction per option, the
//!   "Choice-CrystalBall" arm.
//! * [`learned`] — contextual bandits (ε-greedy / UCB1 / EXP3) fed by
//!   realized rewards: the fast learned alternative of §3.4.
//! * [`cached`] — memoizes any inner resolver to keep expensive prediction
//!   off the critical path.
//! * [`ladder`] — the health-governed fallback ladder: lookahead → cached →
//!   heuristic → static safe default, stepped by the
//!   [`DegradationGovernor`](crate::governor::DegradationGovernor). Its
//!   rung 2 is §3.4's "precompute the impact of actions before the system
//!   is deployed": a hit in a cross-run [`cb_policy::PolicyStore`], answered
//!   from the store itself. The ladder holds three tables — the store, the
//!   rung-1 cache and the bandit's arms — and no copy of any of them.
//!
//! Two memo layers sit on the decision path: the rung-1 cache and the
//! policy store. Below them, [`crate::predict::ModelEvaluator`] evaluates
//! every property and objective it is asked about; a per-decision memo of
//! those values cost more than recomputing them and was removed.

pub mod cached;
pub mod heuristic;
pub mod ladder;
pub mod learned;
pub mod lookahead;
pub mod random;

pub use cached::CachedResolver;
pub use heuristic::HeuristicResolver;
pub use ladder::LadderResolver;
pub use learned::{ArmStats, BanditPolicy, LearnedResolver};
pub use lookahead::LookaheadResolver;
pub use random::RandomResolver;
