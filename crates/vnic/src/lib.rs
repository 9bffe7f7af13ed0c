//! # vnic — host, I/O bus, and programmable-NIC mechanisms
//!
//! The node-local substrate of the VIBe reproduction. Where [`fabric`]
//! models the wires, this crate models everything between a user buffer and
//! the wire:
//!
//! * [`host::HostParams`] — host CPU cost table (trap, MMIO, memcpy,
//!   interrupts, page pinning), calibrated to the paper's 300 MHz PII.
//! * [`pci::PciBus`] — the shared 33 MHz/32-bit PCI bus every DMA crosses.
//! * [`xlate`] — the 2×2 address-translation design space (host/NIC
//!   translator × host/NIC tables) with a *real* capacity-limited NIC
//!   translation cache; Fig. 5's buffer-reuse sensitivity comes from here.
//! * [`doorbell::DoorbellKind`] — MMIO vs. kernel-trap notification.
//! * [`firmware::FirmwareModel`] — O(1) hardware doorbell FIFO vs. the
//!   per-VI polling loop that makes Berkeley VIA's latency grow with the
//!   number of open VIs (Fig. 6).
//! * [`intr::InterruptController`] — blocking-wait interrupt delivery
//!   (Fig. 4's latency/CPU trade).
//! * [`ring::DescRing`] — capacity-bounded device descriptor rings, so
//!   resource exhaustion is a visible, accountable event.
//!
//! The VIA engine in the `via` crate composes these mechanisms into the
//! three provider profiles.

#![warn(missing_docs)]

pub mod doorbell;
pub mod firmware;
pub mod host;
pub mod intr;
pub mod pci;
pub mod ring;
pub mod xlate;

pub use doorbell::DoorbellKind;
pub use firmware::{FirmwareModel, FirmwareStalls};
pub use host::HostParams;
pub use intr::InterruptController;
pub use pci::{PciBus, PciParams, PciStats};
pub use ring::DescRing;
pub use xlate::{
    NicTlb, PageOutcome, TableLocation, TlbStats, Translator, XlateConfig, XlateEngine,
};
