//! # dsm — page-migration software distributed shared memory over VIA
//!
//! The last programming model on the VIBe paper's §5 list ("distributed
//! shared-memory programming model"), and the one its authors were
//! building themselves — their reference \[7\] is TreadMarks over VIA on
//! exactly the interconnects this workspace simulates.
//!
//! ## Model
//!
//! A flat space of 4 KiB pages is shared by N ranks. Coherence is
//! **single-writer ownership migration with home-based directories**:
//!
//! * every page has a *home* rank (`page % ranks`) whose server holds the
//!   directory entry (who owns the page right now);
//! * ranks access pages through [`Dsm::read`]/[`Dsm::write`]; access to an
//!   *owned* page is local and free, anything else triggers an ownership
//!   fault;
//! * a fault sends a request to the home; the home either answers from its
//!   own copy or forwards to the current owner, which ships the page (and
//!   ownership) straight to the requester;
//! * concurrent requests racing a page in flight are parked at the new
//!   owner and served once the page lands — the classic forwarding race.
//!
//! Each rank runs two simulated processes on its node: the *application*
//! (yours) and a *pager* that serves inbound requests — which is how real
//! DSMs stayed responsive while the application computed, and which
//! exercises the VIA layer with the multi-process traffic patterns the
//! paper's CQ and multi-VI benchmarks anticipate.
//!
//! Reads and writes copy in/out (no references into the page store), so a
//! page migrating between two accesses is always coherent: each access
//! re-acquires ownership. With a single writer per page at any instant,
//! writes to one page are trivially serialized.

#![warn(missing_docs)]

pub mod node;
pub mod wire;

pub use node::{run_world, Dsm, DsmStats, PAGE_SIZE};
