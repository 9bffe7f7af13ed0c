//! # fabric — simulated System Area Network
//!
//! The interconnect substrate of the VIBe reproduction. [`San::new`] builds
//! a single-switch star (the shape of the paper's testbed, which used
//! dedicated Myrinet, Gigabit Ethernet, and cLAN switches);
//! [`San::new_topo`] takes any [`Topology`] — the star, a dumbbell or a
//! 2-level fat-tree of switches joined by trunks ([`topo`]), routed
//! shortest-path with deterministic ECMP. Either way the fabric models
//!
//! * per-direction FIFO link occupancy (serialization + propagation), so
//!   bandwidth contention and pipelining emerge naturally,
//! * a fixed-latency switch stage with per-output-port queueing, bounded
//!   ports with pause/drop on multi-switch shapes ([`PortLimits`]),
//! * per-frame overhead bytes and a link MTU (upper layers fragment),
//! * seeded loss on every link traversal, memoryless (Bernoulli) or
//!   bursty (Gilbert–Elliott), chosen by [`LossModel`],
//! * scripted fault windows ([`fault`], installed by
//!   [`San::install_faults`]): link-scoped (down, degrade), network-wide
//!   (corruption, switch brownout), switch- and trunk-scoped (a dead switch
//!   or severed trunk, with route reconvergence), and node- and NIC-scoped
//!   (a node crash, a NIC reset),
//! * conservation laws over a finished run's counters ([`audit`], checked
//!   by [`San::audit`]).
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
