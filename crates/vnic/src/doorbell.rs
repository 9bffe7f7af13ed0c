//! Doorbell paths: how a host tells the NIC "a descriptor is posted".
//!
//! The VIA spec leaves the doorbell mechanism to the implementation; the two
//! designs in the paper's systems are a protected memory-mapped write
//! (cLAN, Berkeley VIA) and a kernel trap (M-VIA, which emulates VIA inside
//! the Linux kernel). The choice moves microseconds between the host and
//! the device on every single post — the §3.2.1 base benchmarks see it
//! directly.

use simkit::SimDuration;

use crate::host::HostParams;

/// The mechanism a post uses to notify the VIA provider.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DoorbellKind {
    /// User-space store to a memory-mapped, per-VI doorbell register.
    Mmio,
    /// Trap into the kernel (software VIA); the kernel performs the post.
    KernelTrap,
}

impl DoorbellKind {
    /// Host CPU time consumed ringing the doorbell once.
    pub fn host_cost(self, host: &HostParams) -> SimDuration {
        match self {
            DoorbellKind::Mmio => host.mmio_write,
            DoorbellKind::KernelTrap => host.kernel_trap,
        }
    }

    /// Delay until the device side observes the ring (beyond firmware
    /// scheduling, which [`crate::firmware::FirmwareModel`] adds).
    pub fn propagation(self) -> SimDuration {
        match self {
            // A posted PCI write surfaces in NIC memory almost immediately.
            DoorbellKind::Mmio => SimDuration::from_nanos(300),
            // The kernel *is* the provider: no device to propagate to.
            DoorbellKind::KernelTrap => SimDuration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trap_costs_more_host_time_than_mmio() {
        let h = HostParams::pentium_ii_300();
        assert!(DoorbellKind::KernelTrap.host_cost(&h) > DoorbellKind::Mmio.host_cost(&h));
    }

    #[test]
    fn mmio_has_device_propagation() {
        assert!(DoorbellKind::Mmio.propagation() > SimDuration::ZERO);
        assert_eq!(DoorbellKind::KernelTrap.propagation(), SimDuration::ZERO);
    }
}
