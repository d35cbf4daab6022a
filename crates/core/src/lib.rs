//! # cb-core — the explicit-choice programming model with a predictive runtime
//!
//! A Rust realization of *"Simplifying Distributed System Development"*
//! (Yabandeh, Vasić, Kostić, Kuncak — HotOS 2009): distributed services
//! **expose the choices** they need to make and **the objectives** they want
//! maximized; the runtime maintains a **predictive system model** (network +
//! state) and resolves the choices by predicting the future — or steers
//! execution away from predicted safety violations.
//!
//! ## Map of the crate (Figure 1 of the paper)
//!
//! | Paper component | Module |
//! |---|---|
//! | Exposed choices | [`choice`] |
//! | NFA multi-handler dispatch | [`nfa`] |
//! | Exposed objectives | [`objective`] |
//! | Network/state predictive model | [`model`] |
//! | Prediction of performance/reliability/correctness | [`predict`] (over `cb-mck`) |
//! | Choice resolution strategies | [`resolve`] |
//! | Execution steering (event filters) | [`steering`] |
//! | CrystalBall-enabled runtime (interposition) | [`runtime`] |
//!
//! ## A tiny end-to-end flavor
//!
//! ```
//! use cb_core::prelude::*;
//!
//! /// A service that pings a peer chosen by the runtime.
//! struct Pinger;
//! impl Service for Pinger {
//!     type Msg = &'static str;
//!     type Checkpoint = u8;
//!     fn on_start(&mut self, ctx: &mut ServiceCtx<'_, '_, &'static str, u8>) {
//!         if ctx.id() == NodeId(0) {
//!             let peers: Vec<OptionDesc> = (1..ctx.host_count() as u32)
//!                 .map(|n| OptionDesc::peer(NodeId(n), Vec::new()))
//!                 .collect();
//!             // The choice is exposed: the runtime decides which peer.
//!             let i = ctx.choose("pinger.peer", ContextKey::default(), &peers);
//!             let target = NodeId(peers[i].key as u32);
//!             ctx.send(target, "ping");
//!         }
//!     }
//!     fn on_message(&mut self, _ctx: &mut ServiceCtx<'_, '_, &'static str, u8>, _from: NodeId, _m: &'static str) {}
//!     fn checkpoint(&self, _model: &StateModel<u8>) -> u8 { 0 }
//!     fn neighbors(&self) -> Vec<NodeId> { Vec::new() }
//! }
//!
//! let topo = Topology::star(4, SimDuration::from_millis(5), 10_000_000);
//! let mut sim = Sim::new(topo, 42, |_| {
//!     RuntimeNode::new(Pinger, RuntimeConfig::new(Box::new(RandomResolver::new(7))))
//! });
//! sim.start_all();
//! sim.run_until_quiescent(SimTime::from_secs(5));
//! // The decision is recorded once, as a `Decision` span on node 0's ring.
//! let spans = sim.flight_recorder(NodeId(0)).spans();
//! assert_eq!(spans.filter(|s| s.kind() == SpanKind::Decision).count(), 1);
//! ```

pub mod choice;
pub mod governor;
pub mod model;
pub mod nfa;
pub mod objective;
pub mod predict;
pub mod resolve;
pub mod runtime;
pub mod steering;

/// Everything most services and experiments need, in one import.
pub mod prelude {
    pub use crate::choice::{
        ChoiceId, ChoiceRequest, ContextKey, EvalVerdict, FnEvaluator, NullEvaluator, OptionDesc,
        OptionEvaluator, Prediction, Resolver,
    };
    pub use crate::governor::{DegradationGovernor, GovernorConfig, Health, HealthSignals};
    pub use crate::model::net::NetworkModel;
    pub use crate::model::state::{NodeView, Snapshot, StateModel};
    pub use crate::nfa::{Dispatch, HandlerSet};
    pub use crate::objective::ObjectiveSet;
    pub use crate::predict::{ModelEvaluator, PredictConfig};
    pub use crate::resolve::{
        BanditPolicy, CachedResolver, HeuristicResolver, LadderResolver, LearnedResolver,
        LookaheadResolver, RandomResolver,
    };
    pub use crate::runtime::{
        fleet_telemetry, Envelope, RuntimeConfig, RuntimeNode, Service, ServiceCtx, SteeringAdvice,
        SteeringAdvisor, SteeringInput, CONTROLLER_TAG,
    };
    pub use crate::steering::{EventFilter, FilterAction, Steering};
    pub use cb_mck::props::Property;
    pub use cb_simnet::prelude::*;
    pub use cb_telemetry::{Registry, TelemetrySummary};
}
