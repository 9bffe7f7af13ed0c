//! Host-processor cost model.
//!
//! Calibrated to the paper's testbed: 300 MHz Pentium II, SDRAM, Linux 2.2.
//! Every constant is a *cost* the VIA layer charges to the node's CPU (via
//! [`simkit::ProcessCtx::busy`]) when the corresponding action happens on
//! the host.

use simkit::SimDuration;

/// Host CPU and memory-system cost constants.
#[derive(Clone, Copy, Debug)]
pub struct HostParams {
    /// Entering + leaving the kernel (trap/syscall round trip).
    pub kernel_trap: SimDuration,
    /// One uncached write across the PCI bus (MMIO doorbell ring).
    pub mmio_write: SimDuration,
    /// Fixed cost of starting a memcpy (call + cache warmup).
    pub memcpy_setup: SimDuration,
    /// Host memory copy bandwidth, bytes/second (~200 MB/s sustained for
    /// uncached kernel bounce buffers on a PII-300).
    pub copy_bandwidth_bps: u64,
    /// Building a descriptor's control segment and ringing bookkeeping.
    pub descriptor_build: SimDuration,
    /// Additional per-data-segment descriptor fill cost.
    pub per_segment_build: SimDuration,
    /// One poll of a descriptor/CQ status word.
    pub completion_check: SimDuration,
    /// CPU consumed handling one interrupt (handler + wakeup path).
    pub interrupt_cpu_cost: SimDuration,
    /// Delay from device interrupt assertion until the blocked process runs
    /// again (IRQ dispatch + scheduler).
    pub interrupt_latency: SimDuration,
    /// Virtual-memory page size (4 KiB on the testbed).
    pub page_size: u32,
}

impl HostParams {
    /// The paper's testbed host: 300 MHz Pentium II, 33 MHz/32-bit PCI,
    /// Linux 2.2.
    pub fn pentium_ii_300() -> Self {
        HostParams {
            kernel_trap: SimDuration::from_nanos(1_800),
            mmio_write: SimDuration::from_nanos(250),
            memcpy_setup: SimDuration::from_nanos(150),
            copy_bandwidth_bps: 200_000_000,
            descriptor_build: SimDuration::from_nanos(500),
            per_segment_build: SimDuration::from_nanos(150),
            completion_check: SimDuration::from_nanos(100),
            interrupt_cpu_cost: SimDuration::from_micros(4),
            interrupt_latency: SimDuration::from_micros(9),
            page_size: 4096,
        }
    }

    /// Time for the host CPU to copy `bytes` (setup + per-byte).
    pub fn copy_time(&self, bytes: u64) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        let ns = (bytes as u128 * 1_000_000_000u128).div_ceil(self.copy_bandwidth_bps as u128);
        self.memcpy_setup + SimDuration::from_nanos(ns as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_time_scales_linearly() {
        let h = HostParams::pentium_ii_300();
        // 200 KB at 200 MB/s = 1 ms (+ setup).
        let t = h.copy_time(200_000);
        assert_eq!(t, h.memcpy_setup + SimDuration::from_millis(1));
        assert_eq!(h.copy_time(0), SimDuration::ZERO);
    }

    #[test]
    fn copy_time_rounds_up() {
        let h = HostParams::pentium_ii_300();
        // 1 byte at 200 MB/s = 5 ns exactly.
        assert_eq!(t_minus_setup(&h, 1), 5);
        fn t_minus_setup(h: &HostParams, b: u64) -> u64 {
            (h.copy_time(b) - h.memcpy_setup).as_nanos()
        }
    }
}
