//! # cb-simnet — deterministic discrete-event network simulator
//!
//! The deployment substrate for the CrystalBall-style explicit-choice
//! runtime. It plays the role ModelNet played in the paper's case study:
//! an Internet-like network with controllable latency, bandwidth, loss,
//! partitions, and node failures — except fully deterministic, so every
//! experiment is reproducible from a seed.
//!
//! The crate is organized as:
//!
//! * [`time`] — virtual instants and durations.
//! * [`rng`] — self-contained xoshiro256\*\* randomness, forkable per node.
//! * [`topology`] — router graphs and the composed end-to-end path store;
//!   generators for star, dumbbell, Waxman, transit-stub and fat-tree
//!   shapes.
//! * [`sim`] — the engine: [`sim::Actor`]s, the event loop, the TCP-like
//!   and datagram transports, crashes/restarts/partitions.
//! * [`metrics`] — counters and log-bucketed histograms.
//! * [`hash`] — the one hasher for tables keyed by ids the program hands
//!   out itself (the engine's link table, the runtime's per-peer models).
//! * [`trace`] — the rolling run fingerprint (what happened is recorded in
//!   the per-node `cb-trace` flight recorders the engine owns).
//!
//! # Quick example
//!
//! ```
//! use cb_simnet::prelude::*;
//!
//! struct Hello;
//! impl Actor for Hello {
//!     type Msg = &'static str;
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, &'static str>) {
//!         let next = NodeId((ctx.id().0 + 1) % ctx.host_count() as u32);
//!         ctx.send(next, "hi");
//!     }
//!     fn on_message(&mut self, _ctx: &mut Ctx<'_, &'static str>, _from: NodeId, _m: &'static str) {}
//! }
//!
//! let topo = Topology::star(8, SimDuration::from_millis(5), 10_000_000);
//! let mut sim = Sim::new(topo, 1, |_| Hello);
//! sim.start_all();
//! sim.run_until_quiescent(SimTime::from_secs(5));
//! assert_eq!(sim.summary().msgs_delivered, 8);
//! ```

pub mod hash;
pub mod metrics;
pub mod rng;
pub mod sim;
pub mod time;
pub mod topology;
pub mod trace;
pub mod wheel;

/// Everything most users need, in one import.
pub mod prelude {
    pub use crate::metrics::{Histogram, HistogramExt, MetricsSummary, NodeMetrics};
    pub use crate::rng::SimRng;
    pub use crate::sim::{Actor, Ctx, SchedulerKind, Sim, TimerId, DEFAULT_MSG_BYTES};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::topology::{
        AccessLink, FatTreeConfig, LinkParams, NodeId, PathProps, Topology, TransitStubConfig,
    };
    pub use crate::trace::Trace;
    pub use cb_trace::{FlightRecorder, Span, SpanId, SpanKind};
}
