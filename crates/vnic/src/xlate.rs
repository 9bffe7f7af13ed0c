//! Virtual→physical address translation machinery.
//!
//! This is the 2×2 design space of Banikazemi et al. (CANPC'00), which the
//! paper's §3.2.2 benchmark probes: translation performed by the **host** or
//! the **NIC**, with the translation tables resident in **host** or **NIC**
//! memory. When the NIC translates out of host-resident tables it keeps a
//! capacity-limited software cache (Berkeley VIA's design); a miss costs a
//! DMA fetch of the page-table entry across the PCI bus. The cache is real
//! — hits and misses depend on the actual page-number reference stream — so
//! the buffer-reuse benchmark (Fig. 5) exercises genuine locality behaviour.

use simkit::{SimDuration, SimTime};
use trace::{MsgId, TracePoint, Tracer};

use crate::pci::PciBus;

/// Who walks the translation tables.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Translator {
    /// Host CPU translates at post time (cost charged to the host).
    Host,
    /// NIC processor translates during the transfer.
    Nic,
}

/// Where the translation tables live.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TableLocation {
    /// Tables in host memory; a NIC translator needs DMA (or a cache hit).
    HostMemory,
    /// Tables in NIC memory; local lookups, capacity paid in NIC SRAM.
    NicMemory,
}

/// Translation-path configuration and costs.
#[derive(Clone, Copy, Debug)]
pub struct XlateConfig {
    /// Who translates.
    pub translator: Translator,
    /// Where the tables are.
    pub tables: TableLocation,
    /// Entries in the NIC's software translation cache (only meaningful for
    /// `Translator::Nic` + `TableLocation::HostMemory`; 0 disables caching).
    pub nic_cache_entries: usize,
    /// Host-side per-page lookup cost (`Translator::Host`).
    pub host_lookup: SimDuration,
    /// NIC-local per-page lookup cost (`TableLocation::NicMemory`).
    pub nic_local_lookup: SimDuration,
    /// NIC cache hit cost per page.
    pub nic_cache_hit: SimDuration,
    /// Extra NIC processing on a cache miss, on top of the PCI fetch of the
    /// page-table entry.
    pub nic_miss_penalty: SimDuration,
    /// Bytes DMA'd from host memory per missed page-table entry.
    pub pte_fetch_bytes: u64,
}

impl XlateConfig {
    /// Berkeley VIA: NIC translates, tables in host memory, software cache
    /// on the LANai.
    pub fn bvia() -> Self {
        XlateConfig {
            translator: Translator::Nic,
            tables: TableLocation::HostMemory,
            nic_cache_entries: 256,
            host_lookup: SimDuration::from_nanos(200),
            nic_local_lookup: SimDuration::from_nanos(350),
            nic_cache_hit: SimDuration::from_nanos(300),
            nic_miss_penalty: SimDuration::from_micros(8),
            pte_fetch_bytes: 8,
        }
    }

    /// cLAN: hardware translation out of NIC-resident tables.
    pub fn clan() -> Self {
        XlateConfig {
            translator: Translator::Nic,
            tables: TableLocation::NicMemory,
            nic_cache_entries: 0,
            host_lookup: SimDuration::from_nanos(200),
            nic_local_lookup: SimDuration::from_nanos(150),
            nic_cache_hit: SimDuration::from_nanos(150),
            nic_miss_penalty: SimDuration::ZERO,
            pte_fetch_bytes: 0,
        }
    }

    /// M-VIA: the kernel translates on the host during its copy; per-page
    /// work rides on the page tables already mapped.
    pub fn mvia() -> Self {
        XlateConfig {
            translator: Translator::Host,
            tables: TableLocation::HostMemory,
            nic_cache_entries: 0,
            host_lookup: SimDuration::from_nanos(250),
            nic_local_lookup: SimDuration::ZERO,
            nic_cache_hit: SimDuration::ZERO,
            nic_miss_penalty: SimDuration::ZERO,
            pte_fetch_bytes: 0,
        }
    }
}

/// Outcome of translating one page reference on the NIC.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PageOutcome {
    /// Found in the NIC software cache.
    Hit,
    /// Fetched from host memory (cache filled or bypassed).
    Miss,
    /// Local NIC-memory table lookup (no cache involved).
    Local,
}

/// Hit/miss counters for the NIC translation cache.
#[derive(Clone, Copy, Debug, Default)]
pub struct TlbStats {
    /// Cache hits.
    pub hits: u64,
    /// Cache misses (PTE fetched over PCI).
    pub misses: u64,
    /// Local (NIC-memory table) lookups.
    pub local: u64,
}

/// A direct-mapped software translation cache keyed by global page number.
///
/// Direct mapping matches the simple firmware caches of the era and gives
/// deterministic conflict behaviour.
pub struct NicTlb {
    slots: Vec<Option<u64>>,
    stats: TlbStats,
}

impl NicTlb {
    /// Cache with `entries` slots (0 = every lookup misses).
    pub fn new(entries: usize) -> Self {
        NicTlb {
            slots: vec![None; entries],
            stats: TlbStats::default(),
        }
    }

    /// Look up `page`, filling on miss. Returns whether it hit.
    pub fn access(&mut self, page: u64) -> bool {
        if self.slots.is_empty() {
            self.stats.misses += 1;
            return false;
        }
        let idx = (page % self.slots.len() as u64) as usize;
        if self.slots[idx] == Some(page) {
            self.stats.hits += 1;
            true
        } else {
            self.slots[idx] = Some(page);
            self.stats.misses += 1;
            false
        }
    }

    /// Drop every cached entry (e.g. after a deregistration).
    pub fn invalidate_all(&mut self) {
        for s in &mut self.slots {
            *s = None;
        }
    }

    /// Invalidate any slot holding a page in `[first, last]`.
    pub fn invalidate_range(&mut self, first: u64, last: u64) {
        for s in &mut self.slots {
            if let Some(p) = *s {
                if p >= first && p <= last {
                    *s = None;
                }
            }
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }
}

/// The NIC-side translation engine: owns the cache, prices each page
/// reference, and issues PTE-fetch DMAs on misses.
pub struct XlateEngine {
    config: XlateConfig,
    tlb: NicTlb,
}

impl XlateEngine {
    /// Engine for `config`.
    pub fn new(config: XlateConfig) -> Self {
        XlateEngine {
            tlb: NicTlb::new(
                if config.tables == TableLocation::HostMemory
                    && config.translator == Translator::Nic
                {
                    config.nic_cache_entries
                } else {
                    0
                },
            ),
            config,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &XlateConfig {
        &self.config
    }

    /// Price the NIC-side translation of `pages`, reserving PCI for PTE
    /// fetches on misses. Returns the total added NIC delay.
    pub fn nic_translate(&mut self, pages: impl Iterator<Item = u64>, pci: &PciBus) -> SimDuration {
        self.nic_translate_traced(pages, pci, &Tracer::disabled(), SimTime::ZERO, 0, None)
    }

    /// Like [`XlateEngine::nic_translate`], but stamps a
    /// [`TracePoint::XlateHit`] / [`TracePoint::XlateMiss`] record per page
    /// (aux = the page number; local NIC-memory lookups count as hits).
    /// Records are stamped `at` — the translation start — since per-page
    /// completion times are not individually modeled.
    pub fn nic_translate_traced(
        &mut self,
        pages: impl Iterator<Item = u64>,
        pci: &PciBus,
        tracer: &Tracer,
        at: SimTime,
        node: u32,
        msg: Option<MsgId>,
    ) -> SimDuration {
        if self.config.translator == Translator::Host {
            return SimDuration::ZERO; // host already attached physical addrs
        }
        let mut total = SimDuration::ZERO;
        for page in pages {
            match self.config.tables {
                TableLocation::NicMemory => {
                    self.tlb.stats.local += 1;
                    total += self.config.nic_local_lookup;
                    tracer.record(at, TracePoint::XlateHit, node, msg, page);
                }
                TableLocation::HostMemory => {
                    if self.tlb.access(page) {
                        total += self.config.nic_cache_hit;
                        tracer.record(at, TracePoint::XlateHit, node, msg, page);
                    } else {
                        total += self.config.nic_miss_penalty
                            + pci.unloaded(self.config.pte_fetch_bytes);
                        // Actually occupy the bus so concurrent DMA contends.
                        pci.reserve(self.config.pte_fetch_bytes);
                        tracer.record(at, TracePoint::XlateMiss, node, msg, page);
                    }
                }
            }
        }
        total
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TlbStats {
        self.tlb.stats()
    }

    /// Invalidate cached translations for a page range (deregistration).
    pub fn invalidate_range(&mut self, first: u64, last: u64) {
        self.tlb.invalidate_range(first, last);
    }

    /// Drop every cached translation (a device reset: the NIC's
    /// translation table is wiped wholesale). Counters survive — they
    /// describe history, and the cold refills after the reset show up as
    /// honest misses.
    pub fn invalidate_all(&mut self) {
        self.tlb.invalidate_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pci::PciParams;
    use simkit::Sim;

    #[test]
    fn tlb_hits_on_reuse() {
        let mut tlb = NicTlb::new(16);
        assert!(!tlb.access(5));
        assert!(tlb.access(5));
        assert!(tlb.access(5));
        let s = tlb.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn tlb_direct_mapped_conflicts() {
        let mut tlb = NicTlb::new(4);
        assert!(!tlb.access(1));
        assert!(!tlb.access(5)); // 5 % 4 == 1: evicts page 1
        assert!(!tlb.access(1)); // conflict miss
        assert_eq!(tlb.stats().misses, 3);
    }

    #[test]
    fn zero_entry_tlb_always_misses() {
        let mut tlb = NicTlb::new(0);
        for _ in 0..5 {
            assert!(!tlb.access(7));
        }
        assert_eq!(tlb.stats().misses, 5);
    }

    #[test]
    fn invalidate_range_evicts() {
        let mut tlb = NicTlb::new(8);
        tlb.access(3);
        tlb.access(4);
        tlb.invalidate_range(3, 3);
        assert!(!tlb.access(3), "page 3 must have been evicted");
        assert!(tlb.access(4), "page 4 must have survived");
    }

    #[test]
    fn bvia_engine_reuse_is_cheap_fresh_is_expensive() {
        let sim = Sim::new();
        let pci = PciBus::new(sim.clone(), PciParams::pci_33_32());
        let mut eng = XlateEngine::new(XlateConfig::bvia());
        let cold = eng.nic_translate(0..8, &pci);
        let warm = eng.nic_translate(0..8, &pci);
        assert!(cold > warm * 2, "cold={cold} warm={warm}");
        assert_eq!(eng.stats().misses, 8);
        assert_eq!(eng.stats().hits, 8);
    }

    #[test]
    fn clan_engine_is_reuse_insensitive() {
        let sim = Sim::new();
        let pci = PciBus::new(sim.clone(), PciParams::pci_33_32());
        let mut eng = XlateEngine::new(XlateConfig::clan());
        let a = eng.nic_translate(0..8, &pci);
        let b = eng.nic_translate(100..108, &pci);
        assert_eq!(a, b);
        assert_eq!(eng.stats().local, 16);
    }

    #[test]
    fn host_translator_adds_no_nic_delay() {
        let sim = Sim::new();
        let pci = PciBus::new(sim.clone(), PciParams::pci_33_32());
        let mut eng = XlateEngine::new(XlateConfig::mvia());
        assert_eq!(eng.nic_translate(0..64, &pci), SimDuration::ZERO);
    }

    #[test]
    fn miss_reserves_pci_bus() {
        let sim = Sim::new();
        let pci = PciBus::new(sim.clone(), PciParams::pci_33_32());
        let mut eng = XlateEngine::new(XlateConfig::bvia());
        let before = pci.stats().transfers;
        eng.nic_translate(0..4, &pci);
        assert_eq!(pci.stats().transfers - before, 4);
    }

    #[test]
    fn capacity_misses_beyond_cache_size() {
        let sim = Sim::new();
        let pci = PciBus::new(sim.clone(), PciParams::pci_33_32());
        let mut cfg = XlateConfig::bvia();
        cfg.nic_cache_entries = 32;
        let mut eng = XlateEngine::new(cfg);
        // Touch 64 distinct pages twice: second pass still misses everywhere
        // because 64 pages don't fit in 32 direct-mapped slots.
        eng.nic_translate(0..64, &pci);
        let second = eng.nic_translate(0..64, &pci);
        assert!(second > SimDuration::from_micros(32), "second={second}");
        assert_eq!(eng.stats().hits, 0);
    }
}
