//! # cb-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (and the
//! quantified §3.1 claims) over the crates of this workspace. The
//! `tables` binary prints them; the `campaign` binary sweeps seeds with
//! fault injection over the registered scenarios (see [`registry`], the
//! one place a scenario arm is configured); [`decisions`] and [`simnet`]
//! hold the exact decision-cost and scheduler-equivalence gates as
//! ordinary tests, and the models the wall-clock `benchmark/` package
//! times. See `EXPERIMENTS.md` at the repository root for the
//! paper-vs-measured record and `DESIGN.md` for the experiment index.

pub mod cli;
pub mod codemetrics;
pub mod decisions;
pub mod experiments;
pub mod models;
pub mod registry;
pub mod simnet;
pub mod steeringlab;
pub mod table;

pub use experiments::{all, Scale};
pub use table::Table;
