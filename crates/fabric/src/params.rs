//! Fabric configuration: link and switch parameters, era presets.

use simkit::SimDuration;

/// Frame-loss model applied independently on each link traversal.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LossModel {
    /// No loss.
    None,
    /// Independent (memoryless) loss with probability `p` per traversal.
    Bernoulli {
        /// Per-traversal drop probability.
        p: f64,
    },
    /// Two-state Gilbert–Elliott burst model: each link direction is in a
    /// Good or Bad state; transitions happen per frame, and the loss
    /// probability depends on the state. Captures the *bursty* errors real
    /// SAN links exhibit (connector glitches, buffer overruns) that
    /// memoryless loss cannot.
    GilbertElliott {
        /// P(Good → Bad) per frame.
        p_g2b: f64,
        /// P(Bad → Good) per frame.
        p_b2g: f64,
        /// Drop probability while Good.
        loss_good: f64,
        /// Drop probability while Bad.
        loss_bad: f64,
    },
}

impl LossModel {
    /// Long-run average drop probability of the model.
    pub fn mean_loss(&self) -> f64 {
        match *self {
            LossModel::None => 0.0,
            LossModel::Bernoulli { p } => p,
            LossModel::GilbertElliott {
                p_g2b,
                p_b2g,
                loss_good,
                loss_bad,
            } => {
                // Stationary distribution of the 2-state chain.
                let denom = p_g2b + p_b2g;
                if denom == 0.0 {
                    loss_good
                } else {
                    let pi_bad = p_g2b / denom;
                    (1.0 - pi_bad) * loss_good + pi_bad * loss_bad
                }
            }
        }
    }

    /// True when the model can never drop a frame.
    pub fn is_lossless(&self) -> bool {
        self.mean_loss() == 0.0
    }
}

/// Parameters of one full-duplex link (host↔switch, one direction modeled
/// independently).
#[derive(Clone, Copy, Debug)]
pub struct LinkParams {
    /// Usable wire bandwidth in bytes per second.
    pub bandwidth_bps: u64,
    /// One-way propagation delay (cable + PHY).
    pub propagation: SimDuration,
    /// Per-frame fixed overhead on the wire (headers, preamble, inter-frame
    /// gap), in bytes.
    pub frame_overhead_bytes: u32,
    /// Largest frame *payload* the link accepts. Senders must fragment.
    pub mtu: u32,
}

impl LinkParams {
    /// Serialization time for a frame with `payload_bytes` of payload.
    pub fn serialization(&self, payload_bytes: u32) -> SimDuration {
        let total = payload_bytes as u64 + self.frame_overhead_bytes as u64;
        // ceil(total * 1e9 / bw). Two `u32`s sum below 2^33 and
        // 2^33 * 1e9 < 2^64, so the product cannot overflow a `u64`.
        SimDuration::from_nanos((total * 1_000_000_000).div_ceil(self.bandwidth_bps))
    }
}

/// Parameters of the central switch.
#[derive(Clone, Copy, Debug)]
pub struct SwitchParams {
    /// Fixed forwarding latency (lookup + crossbar setup).
    pub latency: SimDuration,
    /// Cut-through switching: egress begins once the header is decoded, so
    /// an unloaded path pays one serialization, not two. Myrinet and cLAN
    /// switches cut through; the GigE switch stores-and-forwards.
    pub cut_through: bool,
}

/// Complete network description for a single-switch star SAN — the shape of
/// the paper's testbed (each interconnect had its own dedicated switch).
#[derive(Clone, Copy, Debug)]
pub struct NetParams {
    /// Per-direction link characteristics (uniform across nodes).
    pub link: LinkParams,
    /// Switch characteristics.
    pub switch: SwitchParams,
    /// Frame-loss model (applied independently on ingress and egress).
    pub loss: LossModel,
}

impl NetParams {
    /// Myrinet, as in the paper's testbed: 1.28 Gb/s links, cut-through
    /// switching with sub-microsecond forwarding, effectively unlimited
    /// frame size (the LANai firmware segments as it pleases).
    pub fn myrinet() -> Self {
        NetParams {
            link: LinkParams {
                bandwidth_bps: 160_000_000, // 1.28 Gb/s
                propagation: SimDuration::from_nanos(200),
                frame_overhead_bytes: 8,
                mtu: 64 * 1024,
            },
            switch: SwitchParams {
                latency: SimDuration::from_nanos(400),
                cut_through: true,
            },
            loss: LossModel::None,
        }
    }

    /// Packet Engines GNIC-II Gigabit Ethernet: 1.0 Gb/s, standard 1500 B
    /// MTU, 38 B of preamble/header/IFG overhead per frame.
    pub fn gigabit_ethernet() -> Self {
        NetParams {
            link: LinkParams {
                bandwidth_bps: 125_000_000, // 1.0 Gb/s
                propagation: SimDuration::from_nanos(300),
                frame_overhead_bytes: 38,
                mtu: 1500,
            },
            switch: SwitchParams {
                latency: SimDuration::from_micros(2),
                cut_through: false,
            },
            loss: LossModel::None,
        }
    }

    /// Giganet cLAN: 1.25 Gb/s (8b/10b-coded) hardware-VIA interconnect;
    /// the usable data rate after coding and flow-control overhead is
    /// ~110 MB/s, which is the ceiling the paper's cLAN bandwidth curves
    /// flatten at. Very low switch latency (cLAN5000 cluster switch).
    pub fn clan() -> Self {
        NetParams {
            link: LinkParams {
                bandwidth_bps: 110_000_000, // 1.25 Gb/s line rate, usable
                propagation: SimDuration::from_nanos(200),
                frame_overhead_bytes: 8,
                mtu: 64 * 1024,
            },
            switch: SwitchParams {
                latency: SimDuration::from_nanos(500),
                cut_through: true,
            },
            loss: LossModel::None,
        }
    }

    /// Builder-style override: independent loss with probability `p`.
    pub fn with_loss(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "loss probability out of range");
        self.loss = if p == 0.0 {
            LossModel::None
        } else {
            LossModel::Bernoulli { p }
        };
        self
    }

    /// Builder-style override: Gilbert–Elliott burst loss.
    pub fn with_burst_loss(
        mut self,
        p_g2b: f64,
        p_b2g: f64,
        loss_good: f64,
        loss_bad: f64,
    ) -> Self {
        for v in [p_g2b, p_b2g, loss_good, loss_bad] {
            assert!((0.0..=1.0).contains(&v), "probability out of range");
        }
        self.loss = LossModel::GilbertElliott {
            p_g2b,
            p_b2g,
            loss_good,
            loss_bad,
        };
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_in_u64_equals_the_wide_formula_at_the_extremes() {
        let wide = |l: &LinkParams, payload: u32| {
            let total = payload as u128 + l.frame_overhead_bytes as u128;
            (total * 1_000_000_000).div_ceil(l.bandwidth_bps as u128) as u64
        };
        for bandwidth_bps in [1, 3, 125_000_000, 160_000_000, u64::MAX] {
            for frame_overhead_bytes in [0, 38, u32::MAX] {
                let l = LinkParams {
                    bandwidth_bps,
                    frame_overhead_bytes,
                    ..NetParams::myrinet().link
                };
                for payload in [0, 1, 1500, 65_535, u32::MAX - 1, u32::MAX] {
                    assert_eq!(
                        l.serialization(payload).as_nanos(),
                        wide(&l, payload),
                        "{payload} B + {frame_overhead_bytes} B at {bandwidth_bps} B/s"
                    );
                }
            }
        }
    }

    #[test]
    fn serialization_scales_with_size() {
        let l = NetParams::gigabit_ethernet().link;
        // 1500 B payload + 38 B overhead at 125 MB/s = 12.304 us.
        let t = l.serialization(1500);
        assert_eq!(t.as_nanos(), 12_304);
        // Zero payload still pays the overhead.
        assert_eq!(l.serialization(0).as_nanos(), 304);
    }

    #[test]
    fn myrinet_is_faster_than_gige() {
        let m = NetParams::myrinet().link.serialization(4096);
        let g = NetParams::gigabit_ethernet().link.serialization(1500) * 3; // ~3 frames
        assert!(m < g);
    }

    #[test]
    fn with_loss_sets_probability() {
        let p = NetParams::myrinet().with_loss(0.01);
        assert_eq!(p.loss, LossModel::Bernoulli { p: 0.01 });
        assert!((p.loss.mean_loss() - 0.01).abs() < 1e-12);
        assert_eq!(NetParams::myrinet().with_loss(0.0).loss, LossModel::None);
    }

    #[test]
    fn gilbert_elliott_mean_loss() {
        // pi_bad = 0.01 / (0.01 + 0.19) = 0.05; mean = 0.95*0 + 0.05*0.5.
        let m = LossModel::GilbertElliott {
            p_g2b: 0.01,
            p_b2g: 0.19,
            loss_good: 0.0,
            loss_bad: 0.5,
        };
        assert!((m.mean_loss() - 0.025).abs() < 1e-12);
        assert!(!m.is_lossless());
        assert!(LossModel::None.is_lossless());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn with_loss_rejects_bad_probability() {
        let _ = NetParams::myrinet().with_loss(1.5);
    }
}
