//! # via — a complete Virtual Interface Architecture implementation
//!
//! A VIPL-flavoured VIA provider running over the simulated SAN
//! ([`fabric`]) and NIC/host mechanisms ([`vnic`]), with three calibrated
//! provider profiles reproducing the systems evaluated by the VIBe paper:
//! [`Profile::mvia`] (kernel-emulated VIA on Gigabit Ethernet),
//! [`Profile::bvia`] (Berkeley VIA on Myrinet), and [`Profile::clan`]
//! (Giganet's hardware VIA).
//!
//! Feature coverage: VI creation/destruction, connection dialogs,
//! memory registration with protection attributes, send/receive with
//! scatter-gather descriptors and immediate data, completion queues,
//! RDMA Write (and Read, for profiles that enable it), three reliability
//! levels with ACK/retransmission, polling and blocking completion waits.
//!
//! ```
//! use simkit::{Sim, WaitMode};
//! use via::{Cluster, Profile, Descriptor, MemAttributes, Discriminator, ViAttributes};
//!
//! let sim = Sim::new();
//! let cluster = Cluster::new(sim.clone(), Profile::clan(), 2, 7);
//! let (a, b) = (cluster.provider(0), cluster.provider(1));
//!
//! // Server: accept, post a receive, report what arrives.
//! let bh = {
//!     let b = b.clone();
//!     sim.spawn("server", Some(b.cpu()), move |ctx| {
//!         let vi = b.create_vi(ctx, ViAttributes::default(), None, None).unwrap();
//!         let buf = b.malloc(4096);
//!         let mh = b.register_mem(ctx, buf, 4096, MemAttributes::default()).unwrap();
//!         let desc = Descriptor::recv().segment(buf, mh, 4096);
//!         vi.post_recv(ctx, desc).unwrap();
//!         b.accept(ctx, &vi, Discriminator(9)).unwrap();
//!         let comp = vi.recv_wait(ctx, WaitMode::Poll);
//!         (comp.length, b.mem_read(buf, 5))
//!     })
//! };
//!
//! // Client: connect and send.
//! sim.spawn("client", Some(a.cpu()), move |ctx| {
//!     let vi = a.create_vi(ctx, ViAttributes::default(), None, None).unwrap();
//!     let buf = a.malloc(4096);
//!     let mh = a.register_mem(ctx, buf, 4096, MemAttributes::default()).unwrap();
//!     a.mem_write(buf, b"hello");
//!     a.connect(ctx, &vi, fabric::NodeId(1), Discriminator(9), None).unwrap();
//!     vi.post_send(ctx, Descriptor::send().segment(buf, mh, 5)).unwrap();
//!     vi.send_wait(ctx, WaitMode::Poll);
//! });
//!
//! sim.run_to_completion();
//! let (len, bytes) = bh.expect_result();
//! assert_eq!(len, 5);
//! assert_eq!(bytes, b"hello");
//! ```

#![warn(missing_docs)]

pub mod connect;
pub mod cq;
pub mod descriptor;
pub mod fastpath;
pub mod kit;
pub mod mem;
pub mod profile;
pub mod provider;
pub mod session;
pub mod transport;
pub mod types;
pub mod vi;
pub(crate) mod wire;

pub use cq::Cq;
pub use descriptor::{Completion, DataSegment, DescOp, Descriptor, RemoteSegment};
pub use kit::{registered, Mesh, RecvRing};
pub use mem::MemAttributes;
pub use profile::{CreditFlow, DataCosts, DataPathKind, HeartbeatParams, Profile, SetupCosts};
pub use provider::{AuditReport, Cluster, Provider, ProviderStats};
pub use session::{SessionReceiver, SessionSender, SessionStats, SESSION_HDR_BYTES};
pub use types::{
    CqId, Discriminator, MemHandle, QueueKind, Reliability, ViAttributes, ViId, ViaError, ViaResult,
};
pub use vi::{ConnState, ErrorCause, Vi};
