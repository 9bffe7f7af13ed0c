//! Scripted, seeded fault injection for the SAN.
//!
//! A [`FaultPlan`] is a list of sim-time-scheduled fault windows, one
//! [`FaultKind`] each, in three scopes:
//! - host links and the network as a whole: down/up flaps, degradation
//!   bursts (extra latency and loss), frame corruption (CRC-fail drops,
//!   counted separately from congestion loss) and switch brownouts;
//! - switch fabric (multi-switch topologies): a dead switch or a severed
//!   trunk, both of which trigger route reconvergence;
//! - hosts: a node crash or a NIC reset.
//!
//! [`FaultPlan::randomized_topo`] draws every kind, and a unit test keeps
//! it so. [`crate::San::install_faults`] schedules the window edges on the
//! engine's slab timer core; inside a window the send path consults the
//! active fault set on every frame.
//!
//! Determinism: all fault drop decisions come from dedicated per-node
//! `SimRng::derive(seed, "fabric-fault-n*")` streams (a frame's decision
//! draws from the stream of the endpoint whose hop it is crossing), so
//! the per-link loss-injection streams see exactly the draws they see
//! without a plan, and a draw depends only on the frame order through
//! that endpoint — never on unrelated traffic. With no plan installed the per-frame
//! cost is a single `Option` branch and the timeline is bit-identical to
//! a fault-free build.

use simkit::{SimDuration, SimRng, SimTime};

use crate::san::NodeId;
use crate::topo::Topology;

/// Trace-record node id used for switch-scope fault edges (brownouts),
/// which belong to no attached node.
pub const SWITCH_NODE: u32 = u32::MAX;

/// One kind of injected fault.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// The node's link (both directions) is down: every frame entering or
    /// leaving the node during the window is dropped.
    LinkDown {
        /// The node whose link flaps.
        node: NodeId,
    },
    /// The node's link degrades: frames crossing it pay `extra_latency`
    /// and are dropped with probability `extra_loss` (on top of the
    /// configured loss model).
    Degrade {
        /// The node whose link degrades.
        node: NodeId,
        /// Added one-way latency per traversal.
        extra_latency: SimDuration,
        /// Added drop probability per traversal.
        extra_loss: f64,
    },
    /// Frames are corrupted (and dropped at CRC check) with probability
    /// `p`, network-wide. Checked once per frame at fabric ingress and
    /// counted in [`crate::SanStats::frames_corrupted`], distinct from
    /// loss-model drops.
    Corrupt {
        /// Per-frame corruption probability.
        p: f64,
    },
    /// Switch brownout: every frame traversing the switch pays
    /// `extra_latency` on top of the configured switch latency.
    Brownout {
        /// Added switch traversal latency.
        extra_latency: SimDuration,
    },
    /// A whole switch is dead (multi-switch topologies only): frames
    /// parked in its port FIFOs at window open are flushed, and every
    /// frame arriving at it during the window is dropped — both counted
    /// in [`crate::SanStats::frames_fault_dropped`]. Routing reconverges
    /// around it after [`REROUTE_DELAY`].
    SwitchDown {
        /// The dead switch.
        switch: u32,
    },
    /// One undirected trunk is severed (multi-switch topologies only):
    /// the two trunk-port FIFOs are flushed at window open and frames
    /// routed onto the trunk during the window are dropped. Routing
    /// reconverges around it after [`REROUTE_DELAY`].
    TrunkDown {
        /// Lower-numbered endpoint switch.
        a: u32,
        /// Higher-numbered endpoint switch.
        b: u32,
    },
    /// The whole host is down: its NIC rings, translation tables, and VI
    /// state are wiped at window open (the attached provider's crash hook
    /// fires), every frame to or from the node during the window drains to
    /// [`crate::SanStats::frames_fault_dropped`] and the per-node
    /// fault-drop counter, and at window close the node reboots with a
    /// freshly initialized NIC.
    NodeDown {
        /// The crashed node.
        node: NodeId,
    },
    /// The node's NIC resets: device state (rings, translations, VI
    /// connection state) is wiped and the link is dead for the window,
    /// but the host itself stays up. Wire behavior matches
    /// [`FaultKind::NodeDown`]; the two differ in the error cause the
    /// attached provider reports and in crash accounting.
    NicReset {
        /// The node whose NIC resets.
        node: NodeId,
    },
}

impl FaultKind {
    /// True for the kinds that target switch-fabric elements rather than
    /// host links — the kinds only a multi-switch SAN can apply. Each one
    /// invalidates routes and triggers deterministic reconvergence.
    pub fn is_switch_scoped(&self) -> bool {
        matches!(
            self,
            FaultKind::SwitchDown { .. } | FaultKind::TrunkDown { .. }
        )
    }

    /// True for the kinds that kill a host outright (node crash / NIC
    /// reset) — the kinds whose window edges fire the attached provider's
    /// crash and reboot hooks.
    pub fn is_node_scoped(&self) -> bool {
        matches!(
            self,
            FaultKind::NodeDown { .. } | FaultKind::NicReset { .. }
        )
    }

    /// The crashed/resetting node, for node-scoped kinds.
    pub fn node_scope(&self) -> Option<NodeId> {
        match self {
            FaultKind::NodeDown { node } | FaultKind::NicReset { node } => Some(*node),
            _ => None,
        }
    }

    /// How a window of this kind shows in the trace: the node its
    /// `LinkDown`/`LinkUp` edge records are filed under and their `aux`
    /// tag. `None` for kinds whose edges are not traced (their effect is
    /// visible per frame instead).
    pub(crate) fn edge_tag(&self) -> Option<(u32, u64)> {
        match *self {
            FaultKind::LinkDown { node } => Some((node.0, 1)),
            FaultKind::Brownout { .. } => Some((SWITCH_NODE, 2)),
            FaultKind::SwitchDown { .. } => Some((SWITCH_NODE, 3)),
            FaultKind::TrunkDown { .. } => Some((SWITCH_NODE, 4)),
            FaultKind::NodeDown { node } => Some((node.0, 6)),
            FaultKind::NicReset { node } => Some((node.0, 7)),
            FaultKind::Degrade { .. } | FaultKind::Corrupt { .. } => None,
        }
    }
}

/// Delay between a [`FaultKind::SwitchDown`] or [`FaultKind::TrunkDown`]
/// edge and the routing flip: 20 us for the control plane to detect the
/// failed element plus 30 us to recompute and install routes. Until then
/// routing keeps steering frames into the dead element (a blackhole,
/// dropped with honest counters); after it, routes are BFS routes
/// excluding every currently failed element, so the chosen paths are a
/// pure function of virtual time.
pub const REROUTE_DELAY: SimDuration = SimDuration::from_micros(20 + 30);

/// One scheduled fault window: `kind` is active on `[at, at + duration)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultWindow {
    /// Sim time the fault begins.
    pub at: SimTime,
    /// How long the fault lasts.
    pub duration: SimDuration,
    /// What happens during the window.
    pub kind: FaultKind,
}

/// A script of fault windows, applied to a [`crate::San`] via
/// [`crate::San::install_faults`]. Windows may overlap; effects stack
/// (latencies add, drop probabilities add with a cap at 1.0).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultWindow>,
}

impl FaultPlan {
    /// An empty plan (injects nothing; provably free on the send path).
    pub fn new() -> Self {
        Self::default()
    }

    /// True when the plan schedules no fault windows.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scheduled windows, in insertion order.
    pub fn events(&self) -> &[FaultWindow] {
        &self.events
    }

    /// Add an arbitrary window.
    pub fn window(mut self, at: SimTime, duration: SimDuration, kind: FaultKind) -> Self {
        assert!(
            duration > SimDuration::ZERO,
            "fault window must have extent"
        );
        self.events.push(FaultWindow { at, duration, kind });
        self
    }

    /// Take `node`'s link down for `duration` starting at `at`.
    pub fn link_flap(self, node: NodeId, at: SimTime, duration: SimDuration) -> Self {
        self.window(at, duration, FaultKind::LinkDown { node })
    }

    /// Degrade `node`'s link for `duration` starting at `at`.
    pub fn degrade(
        self,
        node: NodeId,
        at: SimTime,
        duration: SimDuration,
        extra_latency: SimDuration,
        extra_loss: f64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&extra_loss),
            "probability out of range"
        );
        self.window(
            at,
            duration,
            FaultKind::Degrade {
                node,
                extra_latency,
                extra_loss,
            },
        )
    }

    /// Corrupt frames network-wide with probability `p` during the window.
    pub fn corrupt(self, at: SimTime, duration: SimDuration, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.window(at, duration, FaultKind::Corrupt { p })
    }

    /// Brown the switch out (add `extra_latency` per traversal) during the
    /// window.
    pub fn brownout(self, at: SimTime, duration: SimDuration, extra_latency: SimDuration) -> Self {
        self.window(at, duration, FaultKind::Brownout { extra_latency })
    }

    /// Kill switch `switch` for `duration` starting at `at` (multi-switch
    /// SANs only; installation validates the id against the topology).
    pub fn switch_down(self, switch: u32, at: SimTime, duration: SimDuration) -> Self {
        self.window(at, duration, FaultKind::SwitchDown { switch })
    }

    /// Sever the undirected trunk between switches `a` and `b` for
    /// `duration` starting at `at` (the pair is normalized, so either
    /// endpoint order names the same trunk).
    pub fn trunk_down(self, a: u32, b: u32, at: SimTime, duration: SimDuration) -> Self {
        assert!(a != b, "a trunk joins two distinct switches");
        self.window(
            at,
            duration,
            FaultKind::TrunkDown {
                a: a.min(b),
                b: a.max(b),
            },
        )
    }

    /// Crash node `node` for `duration` starting at `at`: NIC and VI state
    /// wiped at window open, all frames to/from the node dropped during
    /// the window, reboot at window close.
    pub fn node_down(self, node: NodeId, at: SimTime, duration: SimDuration) -> Self {
        self.window(at, duration, FaultKind::NodeDown { node })
    }

    /// Reset node `node`'s NIC for `duration` starting at `at`: device
    /// state wiped and link dead for the window, host survives.
    pub fn nic_reset(self, node: NodeId, at: SimTime, duration: SimDuration) -> Self {
        self.window(at, duration, FaultKind::NicReset { node })
    }

    /// True when any window targets a switch-fabric element (switch or
    /// trunk) — installation requires a multi-switch topology.
    pub fn has_switch_faults(&self) -> bool {
        self.events.iter().any(|w| w.kind.is_switch_scoped())
    }

    /// True when any window kills a host (node crash or NIC reset).
    pub fn has_node_faults(&self) -> bool {
        self.events.iter().any(|w| w.kind.is_node_scoped())
    }

    /// Compose a randomized plan from a seeded RNG stream: zero to four
    /// fault windows of mixed kinds, each starting inside
    /// `[base, base + span)` with a duration of at most half the span and
    /// at least one microsecond. Every decision — window count, kind,
    /// placement, severity, victim node — draws from `rng` in a fixed
    /// order, so a given (seed, base, span, nodes) tuple always yields
    /// the same plan; the chaos harness's reproducibility hangs on this.
    /// All draws are integer-nanosecond, keeping the plan exactly
    /// representable at any worker count.
    pub fn randomized(rng: &mut SimRng, base: SimTime, span: SimDuration, nodes: u32) -> Self {
        assert!(nodes > 0, "need at least one node to fault");
        assert!(
            span >= SimDuration::from_micros(2),
            "need a usable span to place windows in"
        );
        let mut plan = FaultPlan::new();
        let windows = rng.below(5);
        for _ in 0..windows {
            let at = base + SimDuration::from_nanos(rng.below(span.as_nanos()));
            let duration = SimDuration::from_nanos(rng.below(span.as_nanos() / 2).max(1_000));
            let node = NodeId(rng.below(nodes as u64) as u32);
            plan = match rng.below(4) {
                0 => plan.link_flap(node, at, duration),
                1 => plan.degrade(
                    node,
                    at,
                    duration,
                    SimDuration::from_micros(1 + rng.below(20)),
                    rng.unit() * 0.3,
                ),
                2 => plan.corrupt(at, duration, rng.unit() * 0.3),
                _ => plan.brownout(at, duration, SimDuration::from_micros(1 + rng.below(30))),
            };
        }
        plan
    }

    /// Topology-aware [`FaultPlan::randomized`]: on a single-switch shape
    /// it delegates verbatim (identical draw sequence, so existing seeded
    /// plans do not move by a byte); on a multi-switch shape the kind draw
    /// widens to eight and may schedule [`FaultKind::SwitchDown`] and
    /// [`FaultKind::TrunkDown`] windows against the topology's actual
    /// switches and trunks, plus [`FaultKind::NodeDown`] and
    /// [`FaultKind::NicReset`] host-kill windows. Switch/trunk/node
    /// windows are capped at a quarter of the span so transports with
    /// bounded retry budgets — and hosts that must reboot before a
    /// post-plan recovery arc — can ride out the gap.
    pub fn randomized_topo(
        rng: &mut SimRng,
        base: SimTime,
        span: SimDuration,
        topo: &Topology,
    ) -> Self {
        if topo.is_single_switch() {
            return Self::randomized(rng, base, span, topo.nodes() as u32);
        }
        let nodes = topo.nodes() as u32;
        let trunks = topo.trunk_pairs();
        assert!(!trunks.is_empty(), "multi-switch topology has trunks");
        let mut plan = FaultPlan::new();
        let windows = rng.below(5);
        for _ in 0..windows {
            let at = base + SimDuration::from_nanos(rng.below(span.as_nanos()));
            let duration = SimDuration::from_nanos(rng.below(span.as_nanos() / 2).max(1_000));
            let short = SimDuration::from_nanos(duration.as_nanos().div_ceil(2).max(1_000));
            let node = NodeId(rng.below(nodes as u64) as u32);
            plan = match rng.below(8) {
                0 => plan.link_flap(node, at, duration),
                1 => plan.degrade(
                    node,
                    at,
                    duration,
                    SimDuration::from_micros(1 + rng.below(20)),
                    rng.unit() * 0.3,
                ),
                2 => plan.corrupt(at, duration, rng.unit() * 0.3),
                3 => plan.brownout(at, duration, SimDuration::from_micros(1 + rng.below(30))),
                4 => {
                    let sw = rng.below(topo.switches() as u64) as u32;
                    plan.switch_down(sw, at, short)
                }
                5 => {
                    let (a, b) = trunks[rng.below(trunks.len() as u64) as usize];
                    plan.trunk_down(a, b, at, short)
                }
                6 => plan.node_down(node, at, short),
                _ => plan.nic_reset(node, at, short),
            };
        }
        plan
    }
}

/// What happened to one frame on one host-link hop: the configured loss
/// model's roll (made by the SAN) or the active fault set's verdict.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum HopOutcome {
    /// Frame passes, delayed by `extra` (degradation + brownout).
    Pass {
        /// Added latency on this hop.
        extra: SimDuration,
    },
    /// Frame dropped by the configured [`crate::LossModel`]; never
    /// returned by [`FaultState`].
    LossDrop,
    /// Frame dropped: the link is down.
    Down,
    /// Frame dropped: corrupted (failed CRC).
    Corrupt,
    /// Frame dropped: degradation-burst loss.
    Lost,
    /// Frame dropped: the endpoint host is crashed (node down / NIC
    /// reset) — no NIC exists to source or sink the frame.
    NodeDead,
}

impl HopOutcome {
    /// An undelayed pass: the verdict of a link no fault window touches.
    pub(crate) const PASS: HopOutcome = HopOutcome::Pass {
        extra: SimDuration::ZERO,
    };
}

/// Runtime fault state, boxed into the SAN once a non-empty plan is
/// installed. Holds the currently active windows (window edges push/pop
/// entries) and one dedicated fault RNG stream per node.
pub(crate) struct FaultState {
    active: Vec<FaultKind>,
    rngs: Vec<SimRng>,
    /// Set once an installed plan holds a switch-scoped window
    /// ([`FaultKind::SwitchDown`], [`FaultKind::TrunkDown`]).
    pub(crate) switch_scoped: bool,
    /// Set once an installed plan holds a node-scoped window
    /// ([`FaultKind::NodeDown`], [`FaultKind::NicReset`]).
    pub(crate) node_scoped: bool,
}

impl FaultState {
    pub(crate) fn new(seed: u64, nodes: usize) -> Self {
        FaultState {
            active: Vec::new(),
            rngs: (0..nodes)
                .map(|n| SimRng::derive(seed, &format!("fabric-fault-n{n}")))
                .collect(),
            switch_scoped: false,
            node_scoped: false,
        }
    }

    /// Note what scopes of window `plan` installs; plans accumulate.
    pub(crate) fn record_plan(&mut self, plan: &FaultPlan) {
        self.switch_scoped |= plan.has_switch_faults();
        self.node_scoped |= plan.has_node_faults();
    }

    /// A window opened.
    pub(crate) fn begin(&mut self, kind: FaultKind) {
        self.active.push(kind);
    }

    /// A window closed: retire one matching active entry.
    pub(crate) fn end(&mut self, kind: FaultKind) {
        if let Some(pos) = self.active.iter().position(|k| *k == kind) {
            self.active.remove(pos);
        }
    }

    /// True while a node-scoped window ([`FaultKind::NodeDown`] or
    /// [`FaultKind::NicReset`]) covers `node` — the node has no working
    /// NIC, so frames to or from it die at the fabric edge.
    pub(crate) fn node_dead(&self, node: NodeId) -> bool {
        self.active.iter().any(|k| k.node_scope() == Some(node))
    }

    /// True while a [`FaultKind::SwitchDown`] window covers switch `sw`.
    pub(crate) fn switch_down(&self, sw: u32) -> bool {
        self.active
            .iter()
            .any(|k| matches!(k, FaultKind::SwitchDown { switch } if *switch == sw))
    }

    /// True while a [`FaultKind::TrunkDown`] window covers the undirected
    /// trunk between `x` and `y` (order-insensitive).
    pub(crate) fn trunk_down(&self, x: u32, y: u32) -> bool {
        let (lo, hi) = (x.min(y), x.max(y));
        self.active
            .iter()
            .any(|k| matches!(k, FaultKind::TrunkDown { a, b } if *a == lo && *b == hi))
    }

    /// Evaluate the active set for a frame entering the fabric on `src`'s
    /// uplink. Corruption is checked here (once per frame, at ingress);
    /// brownout latency is charged here too, since the uplink hop ends at
    /// the switch. `lossy` is false for loss-exempt control frames: a
    /// downed link still kills them (the wire is physically gone), but
    /// corruption and degradation loss honor the control channel's
    /// reliable-transport fiction, exactly like the configured loss model.
    pub(crate) fn on_uplink(&mut self, src: NodeId, lossy: bool) -> HopOutcome {
        self.on_hop(src, true, lossy)
    }

    /// Evaluate the active set for a frame leaving the switch on `dst`'s
    /// downlink.
    pub(crate) fn on_downlink(&mut self, dst: NodeId, lossy: bool) -> HopOutcome {
        self.on_hop(dst, false, lossy)
    }

    fn on_hop(&mut self, endpoint: NodeId, ingress: bool, lossy: bool) -> HopOutcome {
        let mut extra = SimDuration::ZERO;
        let mut corrupt_p = 0.0f64;
        let mut loss_p = 0.0f64;
        for k in &self.active {
            match *k {
                FaultKind::LinkDown { node } if node == endpoint => return HopOutcome::Down,
                FaultKind::NodeDown { node } | FaultKind::NicReset { node } if node == endpoint => {
                    return HopOutcome::NodeDead
                }
                FaultKind::Degrade {
                    node,
                    extra_latency,
                    extra_loss,
                } if node == endpoint => {
                    extra += extra_latency;
                    if lossy {
                        loss_p += extra_loss;
                    }
                }
                FaultKind::Corrupt { p } if ingress && lossy => corrupt_p += p,
                FaultKind::Brownout { extra_latency } if ingress => extra += extra_latency,
                _ => {}
            }
        }
        let rng = &mut self.rngs[endpoint.index()];
        if corrupt_p > 0.0 && rng.chance(corrupt_p.min(1.0)) {
            return HopOutcome::Corrupt;
        }
        if loss_p > 0.0 && rng.chance(loss_p.min(1.0)) {
            return HopOutcome::Lost;
        }
        HopOutcome::Pass { extra }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::new().is_empty());
        assert_eq!(FaultPlan::default(), FaultPlan::new());
    }

    #[test]
    fn builders_append_windows() {
        let t0 = SimTime::ZERO + SimDuration::from_micros(10);
        let plan = FaultPlan::new()
            .link_flap(NodeId(0), t0, SimDuration::from_micros(50))
            .degrade(
                NodeId(1),
                t0,
                SimDuration::from_micros(5),
                SimDuration::from_micros(1),
                0.25,
            )
            .corrupt(t0, SimDuration::from_micros(5), 0.1)
            .brownout(t0, SimDuration::from_micros(5), SimDuration::from_micros(2));
        assert_eq!(plan.events().len(), 4);
        assert!(!plan.is_empty());
        assert_eq!(
            plan.events()[0].kind,
            FaultKind::LinkDown { node: NodeId(0) }
        );
    }

    #[test]
    fn randomized_is_deterministic_and_bounded() {
        let base = SimTime::ZERO + SimDuration::from_micros(100);
        let span = SimDuration::from_millis(2);
        let gen = |seed| {
            let mut rng = SimRng::derive(seed, "chaos-test");
            FaultPlan::randomized(&mut rng, base, span, 2)
        };
        // Same seed, same plan — across as many windows as it schedules.
        assert_eq!(gen(11), gen(11));
        // Different seeds eventually differ.
        assert!((0..32).any(|s| gen(s) != gen(s + 100)));
        for seed in 0..32 {
            let plan = gen(seed);
            assert!(plan.events().len() <= 4);
            for w in plan.events() {
                assert!(w.at >= base);
                assert!(w.at < base + span);
                assert!(w.duration >= SimDuration::from_micros(1));
                assert!(w.duration <= span);
                match w.kind {
                    FaultKind::LinkDown { node } | FaultKind::Degrade { node, .. } => {
                        assert!(node.0 < 2)
                    }
                    FaultKind::Corrupt { p } => assert!((0.0..=0.3).contains(&p)),
                    FaultKind::Brownout { .. } => {}
                    _ => panic!("randomized never draws switch-scoped kinds"),
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn corrupt_rejects_bad_probability() {
        let _ = FaultPlan::new().corrupt(SimTime::ZERO, SimDuration::from_micros(1), 1.5);
    }

    #[test]
    #[should_panic(expected = "must have extent")]
    fn zero_length_window_rejected() {
        let _ = FaultPlan::new().corrupt(SimTime::ZERO, SimDuration::ZERO, 0.5);
    }

    #[test]
    fn link_down_beats_everything_on_its_node_only() {
        let mut st = FaultState::new(1, 3);
        st.begin(FaultKind::LinkDown { node: NodeId(2) });
        assert!(matches!(st.on_uplink(NodeId(2), true), HopOutcome::Down));
        assert!(matches!(st.on_downlink(NodeId(2), true), HopOutcome::Down));
        // Control frames die on a downed link too.
        assert!(matches!(st.on_uplink(NodeId(2), false), HopOutcome::Down));
        assert!(matches!(
            st.on_uplink(NodeId(0), true),
            HopOutcome::Pass {
                extra: SimDuration::ZERO
            }
        ));
        st.end(FaultKind::LinkDown { node: NodeId(2) });
        assert!(st.active.is_empty());
        assert!(matches!(
            st.on_uplink(NodeId(2), true),
            HopOutcome::Pass { .. }
        ));
    }

    #[test]
    fn degradation_and_brownout_latencies_stack() {
        let mut st = FaultState::new(1, 3);
        st.begin(FaultKind::Degrade {
            node: NodeId(0),
            extra_latency: SimDuration::from_micros(3),
            extra_loss: 0.0,
        });
        st.begin(FaultKind::Brownout {
            extra_latency: SimDuration::from_micros(2),
        });
        match st.on_uplink(NodeId(0), true) {
            HopOutcome::Pass { extra } => assert_eq!(extra, SimDuration::from_micros(5)),
            _ => panic!("expected pass"),
        }
        // Brownout is charged at the switch (ingress hop) only.
        match st.on_downlink(NodeId(0), true) {
            HopOutcome::Pass { extra } => assert_eq!(extra, SimDuration::from_micros(3)),
            _ => panic!("expected pass"),
        }
    }

    #[test]
    fn corruption_only_rolls_at_ingress_on_lossy_frames() {
        let mut st = FaultState::new(7, 3);
        st.begin(FaultKind::Corrupt { p: 1.0 });
        assert!(matches!(st.on_uplink(NodeId(0), true), HopOutcome::Corrupt));
        assert!(matches!(
            st.on_downlink(NodeId(1), true),
            HopOutcome::Pass { .. }
        ));
        // Control frames keep their reliable-channel exemption.
        assert!(matches!(
            st.on_uplink(NodeId(0), false),
            HopOutcome::Pass { .. }
        ));
    }

    #[test]
    fn switch_scoped_builders_normalize_and_classify() {
        let t0 = SimTime::ZERO + SimDuration::from_micros(10);
        let d = SimDuration::from_micros(50);
        let plan = FaultPlan::new()
            .switch_down(3, t0, d)
            .trunk_down(5, 2, t0, d);
        assert!(plan.has_switch_faults());
        assert_eq!(plan.events()[1].kind, FaultKind::TrunkDown { a: 2, b: 5 });
        assert!(plan.events()[0].kind.is_switch_scoped());
        assert!(plan.events()[1].kind.is_switch_scoped());
        // Host-link kinds are not switch-scoped.
        let host = FaultPlan::new().link_flap(NodeId(0), t0, d);
        assert!(!host.has_switch_faults());
    }

    #[test]
    fn fault_state_answers_switch_scoped_queries() {
        let mut st = FaultState::new(1, 2);
        st.begin(FaultKind::SwitchDown { switch: 4 });
        st.begin(FaultKind::TrunkDown { a: 1, b: 3 });
        assert!(st.switch_down(4));
        assert!(!st.switch_down(3));
        assert!(st.trunk_down(1, 3));
        assert!(st.trunk_down(3, 1), "trunk queries are order-insensitive");
        assert!(!st.trunk_down(1, 2));
        st.end(FaultKind::SwitchDown { switch: 4 });
        assert!(!st.switch_down(4));
        // Switch-scoped kinds never perturb host-link hop decisions.
        assert!(matches!(
            st.on_uplink(NodeId(0), true),
            HopOutcome::Pass {
                extra: SimDuration::ZERO
            }
        ));
    }

    #[test]
    fn randomized_topo_delegates_on_single_switch() {
        let base = SimTime::ZERO + SimDuration::from_micros(100);
        let span = SimDuration::from_millis(2);
        for seed in 0..16 {
            let mut a = SimRng::derive(seed, "topo-chaos");
            let mut b = SimRng::derive(seed, "topo-chaos");
            let star = Topology::star(2);
            assert_eq!(
                FaultPlan::randomized_topo(&mut a, base, span, &star),
                FaultPlan::randomized(&mut b, base, span, 2),
                "single-switch randomized_topo must not move a draw"
            );
        }
    }

    #[test]
    fn randomized_topo_draws_switch_windows_on_multi_switch() {
        use crate::params::LinkParams;
        let base = SimTime::ZERO + SimDuration::from_micros(100);
        let span = SimDuration::from_millis(2);
        let trunk = LinkParams {
            bandwidth_bps: 440_000_000,
            propagation: SimDuration::from_nanos(600),
            frame_overhead_bytes: 8,
            mtu: 64 * 1024,
        };
        let topo = Topology::fat_tree(3, 2, 2, trunk, crate::topo::PortLimits::default());
        let trunks = topo.trunk_pairs();
        let mut saw_switch_scoped = false;
        for seed in 0..64 {
            let mut rng = SimRng::derive(seed, "topo-chaos");
            let plan = FaultPlan::randomized_topo(&mut rng, base, span, &topo);
            let mut rng2 = SimRng::derive(seed, "topo-chaos");
            assert_eq!(
                plan,
                FaultPlan::randomized_topo(&mut rng2, base, span, &topo),
                "same seed, same plan"
            );
            for w in plan.events() {
                match w.kind {
                    FaultKind::SwitchDown { switch } => {
                        saw_switch_scoped = true;
                        assert!((switch as usize) < topo.switches());
                    }
                    FaultKind::TrunkDown { a, b } => {
                        saw_switch_scoped = true;
                        assert!(trunks.contains(&(a, b)), "trunk {a}-{b} must exist");
                    }
                    _ => {}
                }
            }
        }
        assert!(saw_switch_scoped, "64 seeds must draw some switch windows");
    }

    #[test]
    fn node_scoped_builders_and_queries() {
        let t0 = SimTime::ZERO + SimDuration::from_micros(10);
        let d = SimDuration::from_micros(50);
        let plan = FaultPlan::new()
            .node_down(NodeId(1), t0, d)
            .nic_reset(NodeId(2), t0, d);
        assert!(plan.has_node_faults());
        assert!(!plan.has_switch_faults());
        assert!(plan.events()[0].kind.is_node_scoped());
        assert_eq!(plan.events()[0].kind.node_scope(), Some(NodeId(1)));
        assert_eq!(plan.events()[1].kind.node_scope(), Some(NodeId(2)));
        assert!(!FaultKind::LinkDown { node: NodeId(1) }.is_node_scoped());

        let mut st = FaultState::new(1, 3);
        st.begin(FaultKind::NodeDown { node: NodeId(1) });
        assert!(st.node_dead(NodeId(1)));
        assert!(!st.node_dead(NodeId(0)));
        // Both directions die, control frames included: the NIC is gone.
        assert!(matches!(
            st.on_uplink(NodeId(1), true),
            HopOutcome::NodeDead
        ));
        assert!(matches!(
            st.on_downlink(NodeId(1), false),
            HopOutcome::NodeDead
        ));
        assert!(matches!(
            st.on_uplink(NodeId(0), true),
            HopOutcome::Pass { .. }
        ));
        st.end(FaultKind::NodeDown { node: NodeId(1) });
        assert!(!st.node_dead(NodeId(1)));
        st.begin(FaultKind::NicReset { node: NodeId(2) });
        assert!(st.node_dead(NodeId(2)));
        assert!(matches!(
            st.on_downlink(NodeId(2), true),
            HopOutcome::NodeDead
        ));
        st.end(FaultKind::NicReset { node: NodeId(2) });
        assert!(st.active.is_empty());
    }

    #[test]
    fn randomized_topo_draws_node_windows_on_multi_switch() {
        use crate::params::LinkParams;
        let base = SimTime::ZERO + SimDuration::from_micros(100);
        let span = SimDuration::from_millis(2);
        let trunk = LinkParams {
            bandwidth_bps: 440_000_000,
            propagation: SimDuration::from_nanos(600),
            frame_overhead_bytes: 8,
            mtu: 64 * 1024,
        };
        let topo = Topology::fat_tree(3, 2, 2, trunk, crate::topo::PortLimits::default());
        let nodes = topo.nodes() as u32;
        let mut saw_node_scoped = false;
        for seed in 0..64 {
            let mut rng = SimRng::derive(seed, "topo-chaos-node");
            let plan = FaultPlan::randomized_topo(&mut rng, base, span, &topo);
            for w in plan.events() {
                if let Some(n) = w.kind.node_scope() {
                    saw_node_scoped = true;
                    assert!(n.0 < nodes, "victim node must exist");
                    // Host-kill windows are quarter-span-capped like
                    // switch windows, so recovery arcs can outlive them.
                    assert!(w.duration <= span / 4 + SimDuration::from_nanos(1));
                }
            }
        }
        assert!(saw_node_scoped, "64 seeds must draw some node windows");
    }

    /// Every [`FaultKind`] is drawn by the randomized plans, so none is
    /// reachable only from its own unit tests. The shapes are chaos's
    /// two-node dumbbell and X-TOPO's 64-node fat-tree; the match below is
    /// exhaustive, so a new variant must be drawn here or this fails.
    #[test]
    fn randomized_plans_draw_every_fault_kind() {
        use crate::params::LinkParams;
        use crate::topo::PortLimits;
        const KINDS: usize = 8;
        fn kind_index(k: FaultKind) -> usize {
            match k {
                FaultKind::LinkDown { .. } => 0,
                FaultKind::Degrade { .. } => 1,
                FaultKind::Corrupt { .. } => 2,
                FaultKind::Brownout { .. } => 3,
                FaultKind::SwitchDown { .. } => 4,
                FaultKind::TrunkDown { .. } => 5,
                FaultKind::NodeDown { .. } => 6,
                FaultKind::NicReset { .. } => 7,
            }
        }
        let drawn = |topo: &Topology| {
            let mut seen = [false; KINDS];
            for seed in 0..64 {
                let mut rng = SimRng::derive(seed, "every-kind");
                let base = SimTime::ZERO + SimDuration::from_micros(100);
                let span = SimDuration::from_millis(5);
                for w in FaultPlan::randomized_topo(&mut rng, base, span, topo).events() {
                    seen[kind_index(w.kind)] = true;
                }
            }
            seen
        };
        let trunk = LinkParams {
            bandwidth_bps: 440_000_000,
            propagation: SimDuration::from_nanos(600),
            frame_overhead_bytes: 8,
            mtu: 64 * 1024,
        };
        let limits = PortLimits::default();
        for topo in [
            Topology::dumbbell(2, trunk, limits),
            Topology::fat_tree(8, 8, 4, trunk, limits),
        ] {
            assert_eq!(drawn(&topo), [true; KINDS], "{}", topo.name());
        }
        // A star draws exactly the host-link and switch-wide kinds.
        let star = drawn(&Topology::star(2));
        assert_eq!(star.iter().filter(|&&s| s).count(), 4, "{star:?}");
        assert!(star[..4].iter().all(|&s| s), "{star:?}");
    }

    #[test]
    fn overlapping_windows_retire_one_at_a_time() {
        let k = FaultKind::Corrupt { p: 1.0 };
        let mut st = FaultState::new(7, 3);
        st.begin(k);
        st.begin(k);
        st.end(k);
        assert!(!st.active.is_empty());
        st.end(k);
        assert!(st.active.is_empty());
    }
}
