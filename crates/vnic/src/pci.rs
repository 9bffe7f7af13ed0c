//! The I/O bus between host memory and the NIC.
//!
//! A 33 MHz / 32-bit PCI bus is a single shared FIFO resource per node:
//! every DMA (descriptor fetch, translation-entry fetch, payload transfer)
//! serializes across it. The model is busy-until occupancy with a
//! per-transaction setup cost — enough for contention between concurrent
//! send and receive DMA streams to emerge, which is what shapes the large-
//! message bandwidth ceilings in the paper.

use std::sync::Arc;

use simkit::{Confined, EventClass, Sim, SimDuration, SimTime};

/// PCI bus characteristics.
#[derive(Clone, Copy, Debug)]
pub struct PciParams {
    /// Per-transaction arbitration + address-phase overhead.
    pub setup: SimDuration,
    /// Sustained burst bandwidth in bytes/second.
    pub bandwidth_bps: u64,
}

impl PciParams {
    /// 33 MHz / 32-bit PCI: 132 MB/s theoretical; ~120 MB/s sustained burst.
    pub fn pci_33_32() -> Self {
        PciParams {
            setup: SimDuration::from_nanos(400),
            bandwidth_bps: 120_000_000,
        }
    }

    /// Pure data time (setup excluded) for `bytes`.
    pub fn data_time(&self, bytes: u64) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        let ns = (bytes as u128 * 1_000_000_000u128).div_ceil(self.bandwidth_bps as u128);
        SimDuration::from_nanos(ns as u64)
    }
}

/// Per-bus transfer counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct PciStats {
    /// Completed transactions.
    pub transfers: u64,
    /// Total bytes moved.
    pub bytes: u64,
}

struct PciState {
    params: PciParams,
    busy_until: SimTime,
    stats: PciStats,
}

/// One node's PCI bus. Clonable handle; all clones share the occupancy,
/// which is confined to the thread running `sim` (no lock on the datapath).
#[derive(Clone)]
pub struct PciBus {
    sim: Sim,
    state: Arc<Confined<PciState>>,
}

impl PciBus {
    /// New idle bus.
    pub fn new(sim: Sim, params: PciParams) -> Self {
        let state = Arc::new(sim.confined(PciState {
            params,
            busy_until: SimTime::ZERO,
            stats: PciStats::default(),
        }));
        PciBus { sim, state }
    }

    /// Reserve the bus starting no earlier than `earliest` for a transfer of
    /// `bytes`; returns the completion instant. The reservation is made
    /// immediately (FIFO arbitration at call order).
    pub fn reserve_at(&self, earliest: SimTime, bytes: u64) -> SimTime {
        let mut st = self.state.lock();
        let start = st.busy_until.max(earliest);
        let end = start + st.params.setup + st.params.data_time(bytes);
        st.busy_until = end;
        st.stats.transfers += 1;
        st.stats.bytes += bytes;
        end
    }

    /// Reserve the bus starting now; returns the completion instant.
    pub fn reserve(&self, bytes: u64) -> SimTime {
        self.reserve_at(self.sim.now(), bytes)
    }

    /// Reserve the bus now and run `f` when the transfer completes. DMA
    /// completion accounts as [`EventClass::Firmware`]; use
    /// [`PciBus::transfer_then_as`] when the transfer belongs to another
    /// component (e.g. a completion write).
    pub fn transfer_then(&self, bytes: u64, f: impl FnOnce(&Sim) + Send + 'static) {
        self.transfer_then_as(EventClass::Firmware, bytes, f);
    }

    /// [`PciBus::transfer_then`] with an explicit [`EventClass`] tag.
    pub fn transfer_then_as(
        &self,
        class: EventClass,
        bytes: u64,
        f: impl FnOnce(&Sim) + Send + 'static,
    ) {
        let end = self.reserve(bytes);
        self.sim.call_at_as(class, end, f);
    }

    /// Instant the last reservation releases the bus. `SimTime::ZERO` for
    /// a bus that has never been reserved.
    pub fn busy_until(&self) -> SimTime {
        self.state.lock().busy_until
    }

    /// Whether the bus is free at `now` (no reservation extends past it).
    /// The fused fast path uses this as a contention guard: fusing only
    /// when the bus is idle keeps its eager reservations identical to the
    /// general event chain's.
    pub fn idle(&self, now: SimTime) -> bool {
        self.state.lock().busy_until <= now
    }

    /// Unloaded duration of a transfer (setup + data), ignoring occupancy.
    pub fn unloaded(&self, bytes: u64) -> SimDuration {
        let st = self.state.lock();
        st.params.setup + st.params.data_time(bytes)
    }

    /// Counters snapshot.
    pub fn stats(&self) -> PciStats {
        self.state.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    #[test]
    fn transfers_serialize_on_the_bus() {
        let sim = Sim::new();
        let bus = PciBus::new(sim.clone(), PciParams::pci_33_32());
        let t1 = bus.reserve(1200);
        let t2 = bus.reserve(1200);
        assert!(t2 > t1);
        assert_eq!(t2 - t1, bus.unloaded(1200));
    }

    #[test]
    fn data_time_exact() {
        let p = PciParams::pci_33_32();
        // 120 bytes at 120 MB/s = 1 us.
        assert_eq!(p.data_time(120), SimDuration::from_micros(1));
        assert_eq!(p.data_time(0), SimDuration::ZERO);
    }

    #[test]
    fn transfer_then_fires_at_completion() {
        let sim = Sim::new();
        let bus = PciBus::new(sim.clone(), PciParams::pci_33_32());
        let done = Arc::new(Mutex::new(None));
        let d2 = Arc::clone(&done);
        bus.transfer_then(120, move |s| {
            *d2.lock() = Some(s.now());
        });
        sim.run_to_completion();
        let expected = SimTime::ZERO + PciParams::pci_33_32().setup + SimDuration::from_micros(1);
        assert_eq!(done.lock().unwrap(), expected);
    }

    #[test]
    fn reserve_at_respects_earliest() {
        let sim = Sim::new();
        let bus = PciBus::new(sim.clone(), PciParams::pci_33_32());
        let later = SimTime::ZERO + SimDuration::from_micros(50);
        let end = bus.reserve_at(later, 0);
        assert_eq!(end, later + PciParams::pci_33_32().setup);
    }

    #[test]
    fn stats_accumulate() {
        let sim = Sim::new();
        let bus = PciBus::new(sim.clone(), PciParams::pci_33_32());
        bus.reserve(100);
        bus.reserve(200);
        let s = bus.stats();
        assert_eq!(s.transfers, 2);
        assert_eq!(s.bytes, 300);
    }
}
