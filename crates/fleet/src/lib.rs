//! # edgellm-fleet — heterogeneous multi-device fleet co-simulation
//!
//! The paper characterizes LLM inference on *single* Jetson-class edge
//! accelerators; a real deployment runs a mixed fleet of them behind a
//! request router. This crate co-simulates N per-device serving
//! simulations ([`edgellm_core::ServeSim`]) on a shared deterministic
//! event clock behind a pluggable front-end [`routing::RoutingPolicy`],
//! with scripted fault injection ([`fault::FaultPlan`]), thermal-throttle
//! coupling through the power crate's RC enclosure model, and optional
//! cloud-offload spillover via [`edgellm_core::CloudEndpoint`].
//!
//! Members can self-govern their power mode: attach an
//! [`edgellm_governor::GovernorPolicy`] with [`FleetDevice::governed`]
//! and the member retunes itself at iteration boundaries, the router's
//! energy/latency estimates follow every change, and the decisions land
//! in the router log ([`sim::RouterMark::GovernorStep`]) and the
//! [`sim::FleetAudit`] for the `edgellm-check` oracles.
//!
//! ```
//! use edgellm_core::{PoissonArrivals, RunConfig};
//! use edgellm_fleet::{FleetConfig, FleetDevice, JoinShortestQueue, run_fleet};
//! use edgellm_hw::DeviceSpec;
//! use edgellm_models::{Llm, Precision};
//!
//! let cfg = RunConfig::new(Llm::Llama31_8b, Precision::Fp16);
//! let fleet = vec![
//!     FleetDevice::new(DeviceSpec::orin_agx_64gb(), cfg.clone()),
//!     FleetDevice::new(DeviceSpec::orin_agx_64gb(), cfg),
//! ];
//! let reqs = PoissonArrivals::paper_shape(2.0).generate(16, 7);
//! let report = run_fleet(
//!     fleet,
//!     Box::new(JoinShortestQueue),
//!     FleetConfig::default(),
//!     &reqs,
//! )
//! .unwrap();
//! assert_eq!(report.completed, 16);
//! ```

pub mod device;
pub mod fault;
mod queue;
pub mod report;
pub mod routing;
pub mod sim;

pub use device::{FleetDevice, THERMAL_REARM_MARGIN_C};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use report::{DeviceReport, FleetReport};
pub use routing::{
    Decision, DeviceView, EnergyGreedy, JoinShortestQueue, LeastKvPressure, RoundRobin,
    RoutingPolicy, SloAware,
};
pub use sim::{run_fleet, FleetAudit, FleetConfig, FleetSim, RouterMark};
