//! Provider profiles: one VIA engine, three architectures.
//!
//! All three systems the paper evaluates implement the same VIA spec; they
//! differ in *where* the work happens (host kernel vs. NIC firmware vs. NIC
//! hardware) and in constants. A [`Profile`] captures both. Every constant
//! below is either (a) anchored to a number the paper reports (Table 1,
//! Figs. 1–2, the §4.3 narrative) or (b) an era-accurate fill-in, marked as
//! such. The *mechanisms* (translation caches, firmware polling, copies,
//! interrupts) live in `vnic`/`transport`; a profile only selects and
//! prices them — which is what makes [`Profile::custom`] ablations
//! meaningful.

use fabric::NetParams;
use simkit::SimDuration;
use vnic::{DoorbellKind, FirmwareModel, HostParams, PciParams, XlateConfig};

use crate::types::Reliability;

/// Where the data path runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DataPathKind {
    /// The NIC DMAs user buffers directly (true zero-copy VIA: Berkeley
    /// VIA, cLAN).
    NicOffload,
    /// The kernel emulates VIA over a conventional NIC, copying between
    /// user buffers and kernel frame buffers (M-VIA).
    HostEmulated,
}

/// Non-data-transfer operation costs (the §3.1 benchmarks / Table 1 and
/// Figs. 1–2). All are host busy time.
#[derive(Clone, Copy, Debug)]
pub struct SetupCosts {
    /// `VipCreateVi`.
    pub create_vi: SimDuration,
    /// `VipDestroyVi`.
    pub destroy_vi: SimDuration,
    /// Client-side connection-manager processing during `VipConnectRequest`.
    pub connect_client: SimDuration,
    /// Server-side processing during `VipConnectWait`/`Accept`.
    pub connect_server: SimDuration,
    /// `VipDisconnect` at the initiator.
    pub teardown: SimDuration,
    /// `VipCQCreate`.
    pub create_cq: SimDuration,
    /// `VipCQDestroy`.
    pub destroy_cq: SimDuration,
    /// Fixed part of `VipRegisterMem`.
    pub reg_base: SimDuration,
    /// Per-page part of `VipRegisterMem` (pinning + table setup).
    pub reg_per_page: SimDuration,
    /// Fixed part of `VipDeregisterMem`.
    pub dereg_base: SimDuration,
    /// Per-page part of `VipDeregisterMem`.
    pub dereg_per_page: SimDuration,
}

/// Data-path costs beyond what the shared mechanisms already price.
#[derive(Clone, Copy, Debug)]
pub struct DataCosts {
    /// Fixed host cost per post beyond descriptor building.
    pub post_overhead: SimDuration,
    /// NIC processing per outbound fragment (LANai firmware is slow; cLAN
    /// hardware is fast; unused on the host-emulated path).
    pub tx_frag_nic: SimDuration,
    /// NIC processing per inbound fragment.
    pub rx_frag_nic: SimDuration,
    /// Kernel processing per outbound fragment (host-emulated path).
    pub kernel_tx_per_frag: SimDuration,
    /// Kernel processing per inbound fragment, including the per-frame
    /// interrupt overhead of the era's GigE driver (host-emulated path).
    pub kernel_rx_per_frag: SimDuration,
    /// Writing completion status back to the host-visible descriptor.
    pub completion_write: SimDuration,
    /// Extra delay for a completion to surface in a CQ rather than the work
    /// queue (the §4.3.3 "2–5 us on BVIA, negligible elsewhere" effect).
    pub cq_post: SimDuration,
    /// Host cost of one CQ poll.
    pub cq_check: SimDuration,
    /// Wire bytes of an ACK frame (reliable modes).
    pub ack_bytes: u32,
    /// NIC/kernel cost to emit or absorb an ACK.
    pub ack_processing: SimDuration,
    /// Retransmission timer for reliable modes. With the adaptive RTO
    /// estimator this is the *floor*: the provider never times out faster
    /// than its calibrated constant, so a clean wire behaves exactly as a
    /// fixed-timeout build.
    pub retransmit_timeout: SimDuration,
    /// Upper bound on the adaptive retransmission timeout, including
    /// exponential backoff (the cap keeps a flapping link from pushing
    /// recovery out to seconds).
    pub max_rto: SimDuration,
    /// Retries before the connection is declared lost.
    pub max_retries: u32,
}

/// Credit-based receive flow control for the reliable modes.
///
/// The receiver counts every receive descriptor it makes available as one
/// *credit*; the cumulative grant total rides back to the sender
/// piggybacked on each ACK. The sender consumes one credit per reliable
/// send and parks descriptors (never transmitting them) once the ledger
/// runs dry — instead of blasting messages the peer must drop for want of
/// a descriptor and rediscovering that via retransmission timeouts.
/// Unreliable VIs are exempt: the spec's UD semantics are silent drops.
#[derive(Clone, Copy, Debug)]
pub struct CreditFlow {
    /// Credits the sender assumes at connect time, before the first
    /// ACK-carried grant arrives. Sized to the work-queue depth so a
    /// receiver that pre-posts keeps the wire full from the first send.
    pub initial: u32,
}

/// Connection keepalive: each side of a connected VI emits a small
/// heartbeat control frame every `interval` and declares the peer dead —
/// `ConnState::Error { cause: PeerDown }`, flushing all descriptors —
/// after `timeout` of silence. Bounded-time crash detection for the
/// fault-tolerance experiments; `None` (the default on every paper
/// profile) arms no timers and sends no frames, so heartbeat-free runs
/// are event-for-event identical to builds without the feature.
#[derive(Clone, Copy, Debug)]
pub struct HeartbeatParams {
    /// Gap between consecutive heartbeat frames on a connected VI.
    pub interval: SimDuration,
    /// Silence tolerance before the peer is declared down. Must comfortably
    /// exceed `interval` (several multiples) so queueing jitter on a loaded
    /// uplink never masquerades as a crash.
    pub timeout: SimDuration,
}

impl HeartbeatParams {
    /// A conservative default tuned for the cLAN-class fabrics the crash
    /// experiments run on: 200 µs beat, 4-beat tolerance.
    pub fn fast() -> Self {
        HeartbeatParams {
            interval: SimDuration::from_micros(200),
            timeout: SimDuration::from_micros(800),
        }
    }
}

/// A complete VIA provider architecture + cost calibration.
#[derive(Clone, Debug)]
pub struct Profile {
    /// Short name used in reports ("M-VIA", "BVIA", "cLAN", …).
    pub name: &'static str,
    /// Data-path architecture.
    pub data_path: DataPathKind,
    /// Interconnect this provider runs on.
    pub net: NetParams,
    /// Host cost table.
    pub host: HostParams,
    /// I/O bus model.
    pub pci: PciParams,
    /// Doorbell mechanism.
    pub doorbell: DoorbellKind,
    /// Device-side descriptor scheduling.
    pub firmware: FirmwareModel,
    /// Address-translation architecture.
    pub xlate: XlateConfig,
    /// Fragment payload size the provider segments messages into.
    pub wire_mtu: u32,
    /// Bytes of VIA framing per fragment (counted on the wire).
    pub frag_header_bytes: u32,
    /// Provider cap on a single descriptor's data length (the spec's
    /// MaxTransferSize; the paper's MTU benchmark sweeps it).
    pub max_transfer_size: u32,
    /// Work-queue depth limit.
    pub max_queue_depth: usize,
    /// NIC transmit descriptor-ring capacity (jobs queued on the device
    /// awaiting the transmit engine). A full ring fails the post with
    /// `DescriptorError` instead of queueing unboundedly.
    pub nic_tx_ring: usize,
    /// Credit-based receive flow control (reliable modes).
    pub credit_flow: CreditFlow,
    /// Connection keepalive; `None` (all paper profiles) disables it.
    pub heartbeat: Option<HeartbeatParams>,
    /// Reliability levels this provider implements.
    pub reliability_levels: &'static [Reliability],
    /// RDMA Write support.
    pub supports_rdma_write: bool,
    /// RDMA Read support.
    pub supports_rdma_read: bool,
    /// Non-data-transfer costs.
    pub setup: SetupCosts,
    /// Data-path costs.
    pub data: DataCosts,
}

impl Profile {
    /// Whether `level` is available on this provider.
    pub fn supports_reliability(&self, level: Reliability) -> bool {
        self.reliability_levels.contains(&level)
    }

    /// **M-VIA 1.0 on Packet Engines GNIC-II Gigabit Ethernet.**
    ///
    /// Software VIA in a Linux 2.2 kernel module: kernel-trap doorbells, an
    /// extra copy on each side (the paper: "M-VIA requires extra data
    /// copies which are significant for longer messages"), per-frame
    /// interrupt + driver costs on receive, translation done by the kernel.
    /// Table-1 anchors: create VI 93 us, destroy 0.19 us, connect 6465 us,
    /// teardown 3 us, CQ create 17 us, CQ destroy 8.44 us.
    pub fn mvia() -> Self {
        Profile {
            name: "M-VIA",
            data_path: DataPathKind::HostEmulated,
            net: NetParams::gigabit_ethernet(),
            host: HostParams::pentium_ii_300(),
            pci: PciParams::pci_33_32(),
            doorbell: DoorbellKind::KernelTrap,
            firmware: FirmwareModel::mvia(),
            xlate: XlateConfig::mvia(),
            wire_mtu: 1440,
            frag_header_bytes: 24,
            max_transfer_size: 32 * 1024,
            max_queue_depth: 1024,
            nic_tx_ring: 4096,
            credit_flow: CreditFlow { initial: 1024 },
            heartbeat: None,
            reliability_levels: &[Reliability::Unreliable, Reliability::ReliableDelivery],
            supports_rdma_write: true,
            supports_rdma_read: false,
            setup: SetupCosts {
                create_vi: SimDuration::from_micros(93),         // Table 1
                destroy_vi: SimDuration::from_nanos(190),        // Table 1
                connect_client: SimDuration::from_micros(3_600), // Table 1 (6465 total)
                connect_server: SimDuration::from_micros(2_850),
                teardown: SimDuration::from_micros(3), // Table 1
                create_cq: SimDuration::from_micros(17), // Table 1
                destroy_cq: SimDuration::from_nanos(8_440), // Table 1
                reg_base: SimDuration::from_micros(2), // Fig 1 shape
                reg_per_page: SimDuration::from_nanos(4_000), // Fig 1: steepest slope
                dereg_base: SimDuration::from_micros(1), // Fig 2 shape
                dereg_per_page: SimDuration::from_nanos(2),
            },
            data: DataCosts {
                post_overhead: SimDuration::from_nanos(600),
                tx_frag_nic: SimDuration::ZERO,
                rx_frag_nic: SimDuration::ZERO,
                kernel_tx_per_frag: SimDuration::from_micros(4), // era GigE driver
                kernel_rx_per_frag: SimDuration::from_micros(10), // incl. per-frame IRQ
                completion_write: SimDuration::from_nanos(200),
                cq_post: SimDuration::from_nanos(150), // §4.3.3: negligible
                cq_check: SimDuration::from_nanos(150),
                ack_bytes: 16,
                ack_processing: SimDuration::from_micros(2),
                retransmit_timeout: SimDuration::from_millis(2),
                max_rto: SimDuration::from_millis(64),
                max_retries: 10,
            },
        }
    }

    /// **Berkeley VIA v2.2 on Myrinet (LANai 4.3).**
    ///
    /// NIC-centric VIA: MMIO doorbells into LANai memory, firmware that
    /// polls every VI's send block (Fig. 6's linear latency growth),
    /// translation on the NIC out of host-resident tables through a
    /// software cache (Fig. 5's buffer-reuse sensitivity), and a slow
    /// (~33 MHz) NIC processor that prices each fragment. Table-1 anchors:
    /// create VI 28 us, destroy 0.19 us, connect 496 us, teardown 9 us,
    /// CQ create 206 us, CQ destroy 35 us.
    pub fn bvia() -> Self {
        Profile {
            name: "BVIA",
            data_path: DataPathKind::NicOffload,
            net: NetParams::myrinet(),
            host: HostParams::pentium_ii_300(),
            pci: PciParams {
                setup: SimDuration::from_nanos(400),
                // The LANai's block-burst DMA sustains close to the 33 MHz
                // PCI theoretical rate.
                bandwidth_bps: 125_000_000,
            },
            doorbell: DoorbellKind::Mmio,
            firmware: FirmwareModel::bvia(),
            xlate: XlateConfig::bvia(),
            wire_mtu: 4096,
            frag_header_bytes: 16,
            max_transfer_size: 32 * 1024,
            max_queue_depth: 128,
            nic_tx_ring: 4096,
            credit_flow: CreditFlow { initial: 128 },
            heartbeat: None,
            reliability_levels: &[Reliability::Unreliable],
            supports_rdma_write: false,
            supports_rdma_read: false,
            setup: SetupCosts {
                create_vi: SimDuration::from_micros(28),       // Table 1
                destroy_vi: SimDuration::from_nanos(190),      // Table 1
                connect_client: SimDuration::from_micros(260), // Table 1 (496 total)
                connect_server: SimDuration::from_micros(225),
                teardown: SimDuration::from_micros(9), // Table 1
                create_cq: SimDuration::from_micros(206), // Table 1
                destroy_cq: SimDuration::from_micros(35), // Table 1
                reg_base: SimDuration::from_micros(19), // Fig 1: costliest < 20 KiB
                reg_per_page: SimDuration::from_nanos(700),
                dereg_base: SimDuration::from_micros(8), // Fig 2 shape
                dereg_per_page: SimDuration::from_nanos(4),
            },
            data: DataCosts {
                post_overhead: SimDuration::from_micros(2),
                tx_frag_nic: SimDuration::from_micros(10), // ~33 MHz LANai
                rx_frag_nic: SimDuration::from_micros(10),
                kernel_tx_per_frag: SimDuration::ZERO,
                kernel_rx_per_frag: SimDuration::ZERO,
                completion_write: SimDuration::from_nanos(500),
                cq_post: SimDuration::from_nanos(2_600), // §4.3.3: 2–5 us on BVIA
                cq_check: SimDuration::from_nanos(400),
                ack_bytes: 16,
                ack_processing: SimDuration::from_micros(3),
                retransmit_timeout: SimDuration::from_millis(2),
                max_rto: SimDuration::from_millis(64),
                max_retries: 10,
            },
        }
    }

    /// **Giganet cLAN 1.3.0 (cLAN1000 adapters, cLAN5000 switch).**
    ///
    /// Hardware VIA: MMIO doorbells into a hardware FIFO, translation
    /// tables in NIC memory (no reuse sensitivity), hardware ACK engine
    /// (Reliable Delivery native). The DMA engine sustains ~107 MB/s — the
    /// reason Berkeley VIA's Myrinet overtakes it for very large messages
    /// (paper Fig. 3) despite cLAN's far lower per-message overhead.
    /// Table-1 anchors: create VI 3 us, destroy 0.11 us, connect 2454 us,
    /// teardown 155 us, CQ create 54 us, CQ destroy 15 us.
    pub fn clan() -> Self {
        Profile {
            name: "cLAN",
            data_path: DataPathKind::NicOffload,
            net: NetParams::clan(),
            host: HostParams::pentium_ii_300(),
            pci: PciParams::pci_33_32(),
            doorbell: DoorbellKind::Mmio,
            firmware: FirmwareModel::clan(),
            xlate: XlateConfig::clan(),
            // The cLAN hardware pipelines transfers in 2 KiB cells, which
            // is what keeps its large-message *latency* low while the wire
            // data rate caps its bandwidth.
            wire_mtu: 2048,
            frag_header_bytes: 16,
            max_transfer_size: 64 * 1024,
            max_queue_depth: 1024,
            nic_tx_ring: 4096,
            credit_flow: CreditFlow { initial: 1024 },
            heartbeat: None,
            reliability_levels: &[
                Reliability::Unreliable,
                Reliability::ReliableDelivery,
                Reliability::ReliableReception,
            ],
            supports_rdma_write: true,
            supports_rdma_read: false,
            setup: SetupCosts {
                create_vi: SimDuration::from_micros(3),          // Table 1
                destroy_vi: SimDuration::from_nanos(110),        // Table 1
                connect_client: SimDuration::from_micros(1_350), // Table 1 (2454 total)
                connect_server: SimDuration::from_micros(1_095),
                teardown: SimDuration::from_micros(155), // Table 1
                create_cq: SimDuration::from_micros(54), // Table 1
                destroy_cq: SimDuration::from_micros(15), // Table 1
                reg_base: SimDuration::from_micros(4),   // Fig 1 shape
                reg_per_page: SimDuration::from_nanos(1_100),
                dereg_base: SimDuration::from_micros(3), // Fig 2 shape
                dereg_per_page: SimDuration::from_nanos(3),
            },
            data: DataCosts {
                post_overhead: SimDuration::from_nanos(300),
                tx_frag_nic: SimDuration::from_nanos(900),
                rx_frag_nic: SimDuration::from_nanos(900),
                kernel_tx_per_frag: SimDuration::ZERO,
                kernel_rx_per_frag: SimDuration::ZERO,
                completion_write: SimDuration::from_nanos(400),
                cq_post: SimDuration::from_nanos(150), // §4.3.3: negligible
                cq_check: SimDuration::from_nanos(150),
                ack_bytes: 16,
                ack_processing: SimDuration::from_nanos(600),
                retransmit_timeout: SimDuration::from_millis(1),
                max_rto: SimDuration::from_millis(32),
                max_retries: 10,
            },
        }
    }

    /// All three paper profiles, in the paper's reporting order.
    pub fn paper_trio() -> Vec<Profile> {
        vec![Profile::mvia(), Profile::bvia(), Profile::clan()]
    }

    /// A starting point for ablations: BVIA's architecture with every field
    /// public for modification.
    pub fn custom() -> Self {
        let mut p = Profile::bvia();
        p.name = "custom";
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_trio_names() {
        let names: Vec<_> = Profile::paper_trio().iter().map(|p| p.name).collect();
        assert_eq!(names, vec!["M-VIA", "BVIA", "cLAN"]);
    }

    #[test]
    fn table1_anchor_ordering() {
        // The qualitative Table-1 relations the paper calls out.
        let (m, b, c) = (Profile::mvia(), Profile::bvia(), Profile::clan());
        // "cost of establishing connections extremely high in cLAN;
        //  M-VIA higher than BVIA":
        let conn = |p: &Profile| p.setup.connect_client + p.setup.connect_server;
        assert!(conn(&m) > conn(&c));
        assert!(conn(&c) > conn(&b));
        // "cost of creating and destroying a CQ is higher in BVIA":
        assert!(b.setup.create_cq > m.setup.create_cq);
        assert!(b.setup.create_cq > c.setup.create_cq);
        assert!(b.setup.destroy_cq > m.setup.destroy_cq);
        // Create VI: cLAN < BVIA < M-VIA.
        assert!(c.setup.create_vi < b.setup.create_vi);
        assert!(b.setup.create_vi < m.setup.create_vi);
    }

    #[test]
    fn registration_crossover_near_20kib() {
        // Fig 1: "memory registration is more expensive in BVIA for
        // messages of up to 20 KB" — so M-VIA must overtake around there.
        let m = Profile::mvia().setup;
        let b = Profile::bvia().setup;
        let cost = |s: &SetupCosts, pages: u64| s.reg_base + s.reg_per_page * pages;
        assert!(cost(&b, 1) > cost(&m, 1)); // 4 KiB: BVIA dearer
        assert!(cost(&b, 4) > cost(&m, 4)); // 16 KiB: still dearer
        assert!(cost(&m, 7) > cost(&b, 7)); // 28 KiB: M-VIA overtook
    }

    #[test]
    fn reliability_support_sets() {
        assert!(Profile::clan().supports_reliability(Reliability::ReliableReception));
        assert!(!Profile::bvia().supports_reliability(Reliability::ReliableDelivery));
        assert!(Profile::mvia().supports_reliability(Reliability::ReliableDelivery));
        assert!(!Profile::mvia().supports_reliability(Reliability::ReliableReception));
    }

    #[test]
    fn architectural_flags_match_the_papers_descriptions() {
        assert_eq!(Profile::mvia().data_path, DataPathKind::HostEmulated);
        assert_eq!(Profile::bvia().data_path, DataPathKind::NicOffload);
        assert_eq!(Profile::mvia().doorbell, DoorbellKind::KernelTrap);
        assert_eq!(Profile::clan().doorbell, DoorbellKind::Mmio);
        assert!(matches!(
            Profile::bvia().firmware,
            FirmwareModel::PollingLoop { .. }
        ));
        assert!(matches!(
            Profile::clan().firmware,
            FirmwareModel::HardwareFifo { .. }
        ));
    }
}
