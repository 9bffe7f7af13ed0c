//! # mpl — a message-passing layer over VIA
//!
//! The kind of "programming model layer" the VIBe paper addresses (§1
//! names MPI implementors as a primary audience; §5 plans distributed-
//! memory-model micro-benchmarks): tag-matched, rank-addressed blocking
//! send/receive with automatic **eager/rendezvous** protocol selection,
//! built entirely on the `via` crate's public API.
//!
//! Design choices follow directly from VIBe's measurements:
//!
//! * eager messages bounce through a small ring of pre-registered buffers
//!   — maximum buffer reuse keeps NIC translation caches hot (Fig. 5);
//! * the eager threshold defaults to 8 KiB — the copy-vs-registration
//!   crossover the `buffer_strategies` example measures;
//! * rendezvous payloads travel on a dedicated bulk VI per pair so the
//!   FIFO receive queue can point at user memory without racing the ring;
//! * one CQ per rank multiplexes every connection (§3.2.3's pattern).
//!
//! ```
//! use simkit::Sim;
//! use via::{Cluster, Profile};
//! use mpl::{Mpl, MplConfig};
//!
//! let cluster = Cluster::new(Sim::new(), Profile::clan(), 2, 7);
//! let handles = Mpl::spawn_world(&cluster, MplConfig::default(),
//!     |ctx, mut mpl| {
//!         let buf = mpl.malloc(1 << 20);
//!         let mh = mpl.register(ctx, buf, 1 << 20);
//!         if mpl.rank() == 0 {
//!             mpl.mem_write(buf, b"forty-two");
//!             mpl.send(ctx, 1, 5, buf, mh, 9);
//!             Vec::new()
//!         } else {
//!             let n = mpl.recv(ctx, 0, 5, buf, mh, 1 << 20);
//!             mpl.mem_read(buf, n)
//!         }
//!     });
//! cluster.sim().run_to_completion();
//! assert_eq!(handles[1].expect_result(), b"forty-two");
//! ```

#![warn(missing_docs)]

pub mod endpoint;
pub mod proto;

pub use endpoint::{Mpl, MplConfig, MplStats, BARRIER_TAG};
pub use proto::{Kind, Tag};
