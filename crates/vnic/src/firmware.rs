//! NIC firmware service models.
//!
//! How fast the device notices and begins servicing a rung doorbell depends
//! on the firmware architecture. Berkeley VIA's LANai firmware *polls a
//! data structure containing the send descriptors for all VIs* (paper
//! §4.3.4) — so service delay grows with the number of active VIs, which is
//! exactly what Fig. 6 measures. cLAN's hardware pops doorbells from a FIFO
//! in O(1). M-VIA has no device-side descriptor processing at all.

use simkit::{SimDuration, SimTime};

/// Device-side descriptor scheduling model.
#[derive(Clone, Copy, Debug)]
pub enum FirmwareModel {
    /// Hardware doorbell FIFO: O(1) dispatch regardless of VI count.
    HardwareFifo {
        /// Fixed pop-and-dispatch time.
        dispatch: SimDuration,
    },
    /// Firmware scans the per-VI descriptor blocks in a loop; a ring is
    /// noticed after the scan walks the active VIs.
    PollingLoop {
        /// Loop overhead per pass (bookkeeping, branch back).
        pass_overhead: SimDuration,
        /// Cost of inspecting one VI's send block.
        per_vi: SimDuration,
    },
    /// No device-side scheduler (host-emulated VIA).
    HostEmulated,
}

impl FirmwareModel {
    /// Delay from doorbell visibility to the start of descriptor processing,
    /// given the number of VIs currently open on this NIC.
    pub fn service_delay(&self, active_vis: usize) -> SimDuration {
        match *self {
            FirmwareModel::HardwareFifo { dispatch } => dispatch,
            FirmwareModel::PollingLoop {
                pass_overhead,
                per_vi,
            } => {
                // Deterministic worst-of-one-pass: the firmware has just
                // passed this VI, so the ring is noticed after one full scan.
                pass_overhead + per_vi * active_vis.max(1) as u64
            }
            FirmwareModel::HostEmulated => SimDuration::ZERO,
        }
    }

    /// Berkeley VIA's LANai 4.3 polling firmware.
    pub fn bvia() -> Self {
        FirmwareModel::PollingLoop {
            pass_overhead: SimDuration::from_nanos(1_500),
            per_vi: SimDuration::from_nanos(950),
        }
    }

    /// cLAN's hardware doorbell engine.
    pub fn clan() -> Self {
        FirmwareModel::HardwareFifo {
            dispatch: SimDuration::from_nanos(350),
        }
    }

    /// M-VIA: the kernel path does the work inline.
    pub fn mvia() -> Self {
        FirmwareModel::HostEmulated
    }
}

/// Scripted firmware-stall windows: while a window is open the device's
/// descriptor scheduler services nothing (a wedged firmware loop, a
/// management-interrupt storm), so a doorbell rung inside the window is
/// noticed only once the window closes.
///
/// The fault layer of a provider installs windows; the transmit path adds
/// [`FirmwareStalls::delay_from`] on top of the normal
/// [`FirmwareModel::service_delay`]. With no windows installed the check is
/// one empty-`Vec` branch, so fault-free runs are timing-identical.
/// Meaningless on [`FirmwareModel::HostEmulated`] providers, which have no
/// device-side scheduler to stall.
#[derive(Clone, Debug, Default)]
pub struct FirmwareStalls {
    /// Closed-open stall intervals `[start, end)`.
    windows: Vec<(SimTime, SimTime)>,
}

impl FirmwareStalls {
    /// No stalls.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when no window has been installed.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Install a stall of `duration` starting at `at`.
    pub fn add(&mut self, at: SimTime, duration: SimDuration) {
        assert!(duration > SimDuration::ZERO, "stall must have extent");
        self.windows.push((at, at + duration));
    }

    /// Forget every installed window (a firmware reset: the device-side
    /// scheduler restarts with a clean stall script).
    pub fn clear(&mut self) {
        self.windows.clear();
    }

    /// Extra service delay for a doorbell being serviced at `now`: zero
    /// outside every window, otherwise the time left until the latest
    /// covering window closes (overlapping stalls extend each other).
    pub fn delay_from(&self, now: SimTime) -> SimDuration {
        if self.windows.is_empty() {
            return SimDuration::ZERO;
        }
        let mut release = now;
        // A stall can end inside another stall; chase the release time
        // until no window covers it.
        loop {
            let covered = self
                .windows
                .iter()
                .filter(|(start, end)| *start <= release && release < *end)
                .map(|&(_, end)| end)
                .max();
            match covered {
                Some(end) if end > release => release = end,
                _ => break,
            }
        }
        release.saturating_duration_since(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polling_grows_linearly_with_vis() {
        let fw = FirmwareModel::bvia();
        let d1 = fw.service_delay(1);
        let d8 = fw.service_delay(8);
        let d32 = fw.service_delay(32);
        assert!(d8 > d1);
        assert!(d32 > d8);
        // Slope: (d32 - d8) / 24 == per_vi.
        assert_eq!((d32 - d8) / 24, SimDuration::from_nanos(950));
    }

    #[test]
    fn fifo_is_flat_in_vi_count() {
        let fw = FirmwareModel::clan();
        assert_eq!(fw.service_delay(1), fw.service_delay(64));
    }

    #[test]
    fn host_emulated_is_free() {
        assert_eq!(FirmwareModel::mvia().service_delay(16), SimDuration::ZERO);
    }

    #[test]
    fn zero_vis_treated_as_one() {
        let fw = FirmwareModel::bvia();
        assert_eq!(fw.service_delay(0), fw.service_delay(1));
    }

    #[test]
    fn empty_stalls_are_free() {
        let stalls = FirmwareStalls::new();
        assert!(stalls.is_empty());
        assert_eq!(
            stalls.delay_from(SimTime::from_nanos(123)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn stall_delays_until_window_close() {
        let mut stalls = FirmwareStalls::new();
        stalls.add(SimTime::from_nanos(100), SimDuration::from_nanos(50));
        // Before, at the edge, inside, and after.
        assert_eq!(
            stalls.delay_from(SimTime::from_nanos(99)),
            SimDuration::ZERO
        );
        assert_eq!(
            stalls.delay_from(SimTime::from_nanos(100)),
            SimDuration::from_nanos(50)
        );
        assert_eq!(
            stalls.delay_from(SimTime::from_nanos(130)),
            SimDuration::from_nanos(20)
        );
        assert_eq!(
            stalls.delay_from(SimTime::from_nanos(150)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn overlapping_stalls_chain() {
        let mut stalls = FirmwareStalls::new();
        stalls.add(SimTime::from_nanos(100), SimDuration::from_nanos(50));
        stalls.add(SimTime::from_nanos(140), SimDuration::from_nanos(100));
        // Caught by the first window, released only when the second ends.
        assert_eq!(
            stalls.delay_from(SimTime::from_nanos(120)),
            SimDuration::from_nanos(120)
        );
    }

    #[test]
    #[should_panic(expected = "must have extent")]
    fn zero_length_stall_rejected() {
        FirmwareStalls::new().add(SimTime::ZERO, SimDuration::ZERO);
    }
}
