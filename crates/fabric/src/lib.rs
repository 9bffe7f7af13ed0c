//! # fabric — simulated System Area Network
//!
//! The interconnect substrate of the VIBe reproduction: a single-switch
//! star network (the shape of the paper's testbed, which used dedicated
//! Myrinet, Gigabit Ethernet, and cLAN switches) with
//!
//! * per-direction FIFO link occupancy (serialization + propagation), so
//!   bandwidth contention and pipelining emerge naturally,
//! * a fixed-latency switch stage with per-output-port queueing,
//! * per-frame overhead bytes and a link MTU (upper layers fragment),
//! * seeded Bernoulli loss injection for the reliability benchmarks.
//!
//! Era presets for the paper's three interconnects live on
//! [`NetParams`].
//!
//! ```
//! use std::sync::Arc;
//! use simkit::Sim;
//! use fabric::{San, NetParams, NodeId};
//!
//! let sim = Sim::new();
//! let san = San::new(sim.clone(), NetParams::myrinet(), 2, 42);
//! san.attach(NodeId(1), Arc::new(|sim, d| {
//!     println!("{}: got {} bytes from {}", sim.now(), d.payload_bytes, d.src);
//! }));
//! san.send(NodeId(0), NodeId(1), 1024, Box::new(()));
//! sim.run_to_completion();
//! ```

#![warn(missing_docs)]

pub mod audit;
pub mod fault;
pub mod params;
pub mod san;
pub mod topo;

pub use audit::conservation_violations;
pub use fault::{FaultKind, FaultPlan, FaultWindow, REROUTE_DELAY};
pub use params::{LinkParams, LossModel, NetParams, SwitchParams};
pub use san::{Delivery, LossState, NodeId, RxHandler, San, SanStats, WeakSan};
pub use topo::{PortLimits, PortSnapshot, PortStats, PortTarget, Routes, Topology};
