//! The per-node VIA provider and the cluster builder.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, OnceLock};

use fabric::{NodeId, San, Topology};
use simkit::{Confined, ConfinedGuard, CpuId, ProcessCtx, Sim, SimDuration, WaitMode};
use trace::{TraceConfig, Tracer};
use vnic::{DescRing, FirmwareStalls, InterruptController, PciBus, XlateEngine};

use crate::cq::{Cq, CqState};
use crate::descriptor::Completion;
use crate::mem::{MemAttributes, ProcessMem};
use crate::profile::Profile;
use crate::transport;
use crate::types::{
    CqId, Discriminator, MemHandle, QueueKind, ViAttributes, ViId, ViaError, ViaResult,
};
use crate::vi::{Vi, ViState};
use crate::wire::Frame;

/// Result of a [`Cluster::audit`]: every conservation violation found in
/// the world's fabric, providers and engines, empty when nothing leaked.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    /// Human-readable description of each violation.
    pub violations: Vec<String>,
}

impl AuditReport {
    /// True when the audit found no violations.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Traffic / protocol counters for one provider.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProviderStats {
    /// Send-queue descriptors accepted by `post_send`.
    pub sends_posted: u64,
    /// Receive descriptors accepted by `post_recv`.
    pub recvs_posted: u64,
    /// Messages whose last fragment was handed to the wire.
    pub msgs_sent: u64,
    /// Messages fully delivered into local memory.
    pub msgs_delivered: u64,
    /// Inbound messages dropped because no receive descriptor was posted.
    pub recv_no_descriptor: u64,
    /// Out-of-order reliable messages turned away to keep the last posted
    /// receive descriptor free for the next in-order sequence (prevents
    /// parked out-of-order traffic from starving a gap message's retries).
    pub recv_descriptor_reserved: u64,
    /// Unreliable messages abandoned because fragments were lost.
    pub msgs_dropped_partial: u64,
    /// Duplicate messages discarded (reliable-mode retransmits).
    pub duplicates_dropped: u64,
    /// Message retransmissions performed.
    pub retransmissions: u64,
    /// ACK frames emitted.
    pub acks_sent: u64,
    /// ACK frames absorbed.
    pub acks_received: u64,
    /// Inbound RDMA operations refused by protection checks.
    pub protection_errors: u64,
    /// Inbound RDMA writes placed.
    pub rdma_writes_in: u64,
    /// RDMA-read requests served for remote initiators.
    pub rdma_reads_served: u64,
    /// Retransmission timers armed (one per reliable message put on the wire).
    pub retx_timers_armed: u64,
    /// Retransmission timers cancelled before firing (ACK arrived in time,
    /// or the connection was torn down). On a loss-free stream this equals
    /// `retx_timers_armed`: no timer ever fires dead.
    pub retx_timers_cancelled: u64,
    /// Connections declared dead (retry exhaustion drove a VI into the
    /// Error state and flushed its descriptors).
    pub conn_failures: u64,
    /// Reliable sends parked by credit-based flow control (receiver
    /// credits exhausted at post time).
    pub credit_stalls: u64,
    /// Parked sends released by ACK-carried credit grants.
    pub credit_grants: u64,
    /// Completion notifications lost to a full CQ, attributed per VI in
    /// [`crate::Vi::cq_overflows`]; this is the provider-wide total.
    pub cq_overflows: u64,
    /// Transmit jobs refused because the NIC descriptor ring was full
    /// (surfaced to the poster as `DescriptorError`).
    pub nic_ring_full: u64,
    /// Keepalive heartbeat frames emitted.
    pub heartbeats_sent: u64,
    /// Keepalive timers armed (initial arms plus periodic re-arms).
    pub heartbeat_timers_armed: u64,
    /// Keepalive timers cancelled before firing (teardown / error / crash
    /// disarmed them). Never exceeds `heartbeat_timers_armed`.
    pub heartbeat_timers_cancelled: u64,
    /// Connections declared dead by the keepalive watchdog (no heartbeat
    /// from the peer within the configured tolerance).
    pub heartbeat_timeouts: u64,
    /// Host-scoped crash windows this provider lived through (node_down
    /// fault windows that wiped and rebooted it).
    pub node_crashes: u64,
    /// Device-scoped reset windows this provider lived through (nic_reset
    /// fault windows: device state wiped, host state preserved).
    pub nic_resets: u64,
    /// Transmit jobs killed on the device ring by a crash/reset wipe.
    pub tx_jobs_wiped: u64,
}

impl ProviderStats {
    /// Count the timers a connection reset cancelled.
    pub(crate) fn count_reset(&mut self, reset: &crate::vi::ConnReset) {
        self.heartbeat_timers_cancelled += reset.heartbeat_cancelled;
        self.retx_timers_cancelled += reset.retx_cancelled;
    }
}

/// A pending inbound connection request (no listener yet).
pub(crate) struct PendingConnReq {
    pub client_node: NodeId,
    pub client_vi: ViId,
    pub reliability: crate::types::Reliability,
    pub max_transfer_size: u32,
}

/// A registered `accept` listener.
pub(crate) struct Listener {
    pub token: simkit::WaitToken,
    pub slot: Option<PendingConnReq>,
}

/// One queued NIC transmit job (identified; rebuilt from the inflight entry).
pub(crate) struct TxJobRef {
    pub vi: ViId,
    pub seq: u64,
}

pub(crate) struct NicTx {
    /// Bounded device transmit ring: a full ring rejects the job (the
    /// transport fails it with `DescriptorError`) instead of growing.
    pub queue: DescRing<TxJobRef>,
    pub busy: bool,
    /// End of the most recent *fused* send's precomputed pipeline (the
    /// instant its last fragment hit the wire). A fused send never sets
    /// `busy` — its whole pipeline was charged up front — but the device
    /// is still logically occupied until this instant, so followers that
    /// arrive inside the window queue exactly as they would behind a
    /// `busy` ring. `SimTime::ZERO` when no window is open.
    pub fused_until: simkit::SimTime,
    /// Whether a release event is already scheduled at `fused_until` to
    /// drain followers queued during the fused window.
    pub release_scheduled: bool,
}

pub(crate) struct ProviderState {
    pub mem: ProcessMem,
    /// Busy-until of the receive-side processing engine (NIC processor on
    /// the offload path, kernel on the emulated path): per-fragment receive
    /// work is serial on one engine.
    pub rx_engine_busy: simkit::SimTime,
    /// Indexed by [`ViId`]; a destroyed VI leaves its slot `None`. Only
    /// `create_vi` and `destroy_vi` fill or empty a slot, and each keeps
    /// `live_vis` in step.
    pub vis: Vec<Option<ViState>>,
    /// Occupied slots of `vis`, kept so the firmware's per-transmit scan
    /// cost is O(1) to look up ([`Provider::audit`] checks the count).
    live_vis: usize,
    pub cqs: Vec<Option<CqState>>,
    pub xlate: XlateEngine,
    pub listeners: HashMap<Discriminator, Listener>,
    pub pending_conn: HashMap<Discriminator, VecDeque<PendingConnReq>>,
    pub nic_tx: NicTx,
    /// Scripted firmware-stall fault windows (empty unless a fault
    /// experiment installed some via [`Provider::stall_firmware`]).
    pub fw_stalls: FirmwareStalls,
    /// True inside a node-scoped fault window (node_down / nic_reset):
    /// the fabric drops every frame to or from this node while set. Local
    /// operations are *not* gated on it — a crashed host can't call the
    /// API anyway, and the fabric enforces wire deadness — it exists so
    /// benchmarks and the session layer can observe the window.
    pub crashed: bool,
    pub stats: ProviderStats,
}

impl ProviderState {
    pub(crate) fn vi(&self, id: ViId) -> &ViState {
        self.try_vi(id)
            .unwrap_or_else(|| panic!("dangling ViId {id:?}"))
    }

    pub(crate) fn try_vi(&self, id: ViId) -> Option<&ViState> {
        self.vis.get(id.index()).and_then(|v| v.as_ref())
    }

    pub(crate) fn vi_mut(&mut self, id: ViId) -> &mut ViState {
        self.vis
            .get_mut(id.index())
            .and_then(|v| v.as_mut())
            .unwrap_or_else(|| panic!("dangling ViId {id:?}"))
    }

    pub(crate) fn try_vi_mut(&mut self, id: ViId) -> Option<&mut ViState> {
        self.vis.get_mut(id.index()).and_then(|v| v.as_mut())
    }

    pub(crate) fn cq_mut(&mut self, id: CqId) -> &mut CqState {
        self.cqs
            .get_mut(id.index())
            .and_then(|c| c.as_mut())
            .unwrap_or_else(|| panic!("dangling CqId {id:?}"))
    }

    /// Number of live VIs — what the firmware's polling loop scans.
    pub(crate) fn active_vis(&self) -> usize {
        self.live_vis
    }
}

/// Everything one node's provider is, allocated once: the fields fixed at
/// cluster construction, the tracer, and the mutable state in its
/// thread-confined cell. Every [`Provider`] handle to the node — one rides in nearly
/// every datapath closure — shares this one allocation, so capturing a
/// provider costs one reference count here (and one on the SAN), not one
/// per field.
///
/// **Observing nothing costs no lock.** The tracer lives beside `state`,
/// not in it: on an untraced cluster a would-be record is one load, and the
/// tracer may be consulted with the state guard held.
pub(crate) struct ProviderCore {
    pub sim: Sim,
    pub profile: Arc<Profile>,
    pub node: NodeId,
    pub cpu: CpuId,
    /// Cluster seed; keys the deterministic retransmission-backoff jitter.
    pub seed: u64,
    pub pci: PciBus,
    pub intr: InterruptController,
    /// Message-lifecycle tracer, set at most once by
    /// [`Cluster::enable_trace`].
    pub tracer: OnceLock<Tracer>,
    /// Confined to the thread running `sim`: only this node's events and
    /// processes touch it, all from inside `Sim::run`.
    pub state: Confined<ProviderState>,
}

/// Handle to one node's VIA provider: the node's shared core (identity,
/// profile, PCI bus, tracer, state — one allocation) and the SAN it
/// sends on, two pointers in all. Cheap to clone, and the datapath mostly
/// does not: a transmit job's stages and a frame's arrival hand one handle
/// from event to event.
///
/// The SAN handle stays beside the core rather than inside it because the
/// SAN owns this node's receive and fault hooks: they hold the core and a
/// *weak* SAN handle and pair the two per invocation, so no strong
/// `Provider → San → hook → Provider` cycle keeps a finished world alive.
#[derive(Clone)]
pub struct Provider {
    pub(crate) core: Arc<ProviderCore>,
    pub(crate) san: San,
}

impl Provider {
    /// The simulation handle.
    pub fn sim(&self) -> &Sim {
        &self.core.sim
    }

    /// This provider's node id.
    pub fn node(&self) -> NodeId {
        self.core.node
    }

    /// The CPU benchmarks should bind their process to.
    pub fn cpu(&self) -> CpuId {
        self.core.cpu
    }

    /// The architecture/cost profile in force.
    pub fn profile(&self) -> &Profile {
        &self.core.profile
    }

    pub(crate) fn lock(&self) -> ConfinedGuard<'_, ProviderState> {
        self.core.state.lock()
    }

    /// The attached tracer, or a disabled one: for
    /// `XlateEngine::nic_translate_traced`, which takes a `&Tracer` either way.
    pub(crate) fn tracer(&self) -> Tracer {
        self.core.tracer.get().cloned().unwrap_or_default()
    }

    /// True when a tracer observes individual events (the fused fast path
    /// must not elide any then).
    pub(crate) fn observed(&self) -> bool {
        self.core.tracer.get().is_some()
    }

    pub(crate) fn with_vi<R>(&self, id: ViId, f: impl FnOnce(&ViState) -> R) -> R {
        let st = self.lock();
        f(st.vi(id))
    }

    /// Allocate `len` bytes of page-aligned user memory; returns the VA.
    pub fn malloc(&self, len: u64) -> u64 {
        self.lock().mem.malloc(len)
    }

    /// Write bytes into user memory (test/example convenience; free).
    pub fn mem_write(&self, va: u64, data: &[u8]) {
        self.lock().mem.write(va, data);
    }

    /// Read bytes from user memory (test/example convenience; free).
    pub fn mem_read(&self, va: u64, len: u64) -> Vec<u8> {
        self.lock().mem.read(va, len)
    }

    /// `VipRegisterMem`: pin and register `[va, va+len)`.
    pub fn register_mem(
        &self,
        ctx: &mut ProcessCtx,
        va: u64,
        len: u64,
        attrs: MemAttributes,
    ) -> ViaResult<MemHandle> {
        let pages = {
            let st = self.lock();
            st.mem.page_count(va, len.max(1))
        };
        let cost = self.core.profile.setup.reg_base + self.core.profile.setup.reg_per_page * pages;
        ctx.busy(cost);
        self.lock().mem.register(va, len, attrs)
    }

    /// `VipDeregisterMem`: unpin and forget a registration; invalidates any
    /// NIC-cached translations for its pages.
    pub fn deregister_mem(&self, ctx: &mut ProcessCtx, handle: MemHandle) -> ViaResult<()> {
        let (first, last) = {
            let mut st = self.lock();
            let span = st.mem.deregister(handle)?;
            st.xlate.invalidate_range(span.0, span.1);
            span
        };
        let pages = last - first + 1;
        let cost =
            self.core.profile.setup.dereg_base + self.core.profile.setup.dereg_per_page * pages;
        ctx.busy(cost);
        Ok(())
    }

    /// `VipCreateVi`: create a VI, optionally associating its work queues
    /// with completion queues.
    pub fn create_vi(
        &self,
        ctx: &mut ProcessCtx,
        attrs: ViAttributes,
        send_cq: Option<&Cq>,
        recv_cq: Option<&Cq>,
    ) -> ViaResult<Vi> {
        if !self.core.profile.supports_reliability(attrs.reliability) {
            return Err(ViaError::NotSupported);
        }
        ctx.busy(self.core.profile.setup.create_vi);
        let mut st = self.lock();
        for cq in [send_cq, recv_cq].into_iter().flatten() {
            // CQ handles must belong to this provider.
            if !Arc::ptr_eq(&cq.provider.core, &self.core) {
                return Err(ViaError::InvalidParameter);
            }
            st.cq_mut(cq.id).refs += 1;
        }
        let id = ViId(st.vis.len() as u32);
        st.vis.push(Some(ViState::new(
            attrs,
            send_cq.map(|c| c.id),
            recv_cq.map(|c| c.id),
        )));
        st.live_vis += 1;
        Ok(Vi {
            provider: self.clone(),
            id,
        })
    }

    /// `VipDestroyVi`. The VI must be disconnected.
    pub fn destroy_vi(&self, ctx: &mut ProcessCtx, vi: Vi) -> ViaResult<()> {
        {
            let mut st = self.lock();
            let state = st.vi(vi.id);
            if matches!(state.conn, crate::vi::ConnState::Connected { .. }) {
                return Err(ViaError::Busy);
            }
            for cq in state.queues.each_ref().map(|q| q.cq).into_iter().flatten() {
                st.cq_mut(cq).refs -= 1;
            }
            st.vis[vi.id.index()] = None;
            st.live_vis -= 1;
        }
        ctx.busy(self.core.profile.setup.destroy_vi);
        Ok(())
    }

    /// `VipCQCreate`.
    pub fn create_cq(&self, ctx: &mut ProcessCtx, depth: usize) -> ViaResult<Cq> {
        if depth == 0 {
            return Err(ViaError::InvalidParameter);
        }
        ctx.busy(self.core.profile.setup.create_cq);
        let mut st = self.lock();
        let id = CqId(st.cqs.len() as u32);
        st.cqs.push(Some(CqState::new(depth)));
        Ok(Cq {
            provider: self.clone(),
            id,
        })
    }

    /// `VipCQDestroy`. Fails while any VI still references the CQ.
    pub fn destroy_cq(&self, ctx: &mut ProcessCtx, cq: Cq) -> ViaResult<()> {
        {
            let mut st = self.lock();
            if st.cq_mut(cq.id).refs > 0 {
                return Err(ViaError::Busy);
            }
            st.cqs[cq.id.index()] = None;
        }
        ctx.busy(self.core.profile.setup.destroy_cq);
        Ok(())
    }

    /// Snapshot of this provider's counters.
    pub fn stats(&self) -> ProviderStats {
        self.lock().stats
    }

    /// Append this node's resource-conservation violations. After a run has
    /// quiesced nothing may be leaked: an errored VI holds no descriptors
    /// (the Error transition flushed everything), every credit-parked send
    /// still has its in-flight entry, no credit ledger has gone negative,
    /// no keepalive outlives its connection, CQ reference counts match the
    /// VIs that actually point at them, the live-VI count matches the
    /// occupied VI slots, no job is stuck in the NIC transmit ring, and no
    /// timer was cancelled more often than armed. A clean node
    /// appends (and allocates) nothing. [`Cluster::audit`] runs it per node.
    pub(crate) fn audit(&self, violations: &mut Vec<String>) {
        use crate::vi::ConnState;
        let st = self.lock();
        let node = self.core.node.0;
        let initial = self.core.profile.credit_flow.initial as u64;
        for (index, vi) in st.vis.iter().enumerate() {
            let Some(vi) = vi else { continue };
            let tag = || format!("node {node} vi {index}");
            if matches!(vi.conn, ConnState::Error { .. }) {
                for (what, count) in [
                    ("in-flight sends", vi.send_inflight.len()),
                    ("posted receives", vi.recv_posted.len()),
                    ("reassemblies", vi.reassembly.len()),
                    ("parked completions", vi.parked_recv.len()),
                    ("credit-parked sends", vi.credit_waiting.len()),
                ] {
                    if count > 0 {
                        violations.push(format!("{}: Error state holds {count} {what}", tag()));
                    }
                }
            }
            for &seq in &vi.credit_waiting {
                if !vi.send_inflight.iter().any(|i| i.seq == seq) {
                    violations.push(format!(
                        "{}: credit-parked seq {seq} has no in-flight entry",
                        tag()
                    ));
                }
            }
            if vi.credit_waiting.len() > vi.send_inflight.len() {
                violations.push(format!(
                    "{}: more credit-parked sends ({}) than in-flight entries ({})",
                    tag(),
                    vi.credit_waiting.len(),
                    vi.send_inflight.len()
                ));
            }
            if vi.credits_consumed > initial + vi.credit_seen_total {
                violations.push(format!(
                    "{}: credit ledger negative (consumed {} > initial {initial} + seen {})",
                    tag(),
                    vi.credits_consumed,
                    vi.credit_seen_total
                ));
            }
            // Keepalives only watch live connections: any teardown, error
            // transition, or crash wipe must have disarmed the timer.
            if vi.heartbeat_timer.is_some() && !matches!(vi.conn, ConnState::Connected { .. }) {
                violations.push(format!(
                    "{}: heartbeat timer armed on a {:?} VI",
                    tag(),
                    vi.conn
                ));
            }
        }
        for (i, cq) in st.cqs.iter().enumerate() {
            let Some(cq) = cq else { continue };
            let refs = st
                .vis
                .iter()
                .flatten()
                .flat_map(|v| &v.queues)
                .filter_map(|q| q.cq)
                .filter(|c| c.index() == i)
                .count();
            if refs != cq.refs {
                violations.push(format!(
                    "node {node} cq {i}: {} VI references recorded, {refs} found",
                    cq.refs
                ));
            }
        }
        let occupied = st.vis.iter().flatten().count();
        if st.live_vis != occupied {
            violations.push(format!(
                "node {node}: {} live VIs counted, {occupied} VI slots occupied",
                st.live_vis
            ));
        }
        if !st.nic_tx.queue.is_empty() || st.nic_tx.busy {
            violations.push(format!(
                "node {node}: NIC transmit ring not drained ({} queued, busy={})",
                st.nic_tx.queue.len(),
                st.nic_tx.busy
            ));
        }
        if st.stats.retx_timers_cancelled > st.stats.retx_timers_armed {
            violations.push(format!(
                "node {node}: {} retransmit timers cancelled but only {} armed",
                st.stats.retx_timers_cancelled, st.stats.retx_timers_armed
            ));
        }
        if st.stats.heartbeat_timers_cancelled > st.stats.heartbeat_timers_armed {
            violations.push(format!(
                "node {node}: {} heartbeat timers cancelled but only {} armed",
                st.stats.heartbeat_timers_cancelled, st.stats.heartbeat_timers_armed
            ));
        }
    }

    /// True inside a node-scoped fault window (node_down / nic_reset).
    pub fn crashed(&self) -> bool {
        self.lock().crashed
    }

    /// A node-scoped fault window opened on this node: wipe the device.
    ///
    /// Device state dies — queued transmit jobs, NIC-cached translations,
    /// scripted firmware stalls, the receive-engine busy horizon, parked
    /// connection requests. Host-durable state survives (memory
    /// registrations, CQs, listeners, completed completions): a nic_reset
    /// leaves the host untouched by definition, and for node_down the
    /// benchmark process owns re-initialization after reboot. Connected
    /// VIs fail with a cause matching `kind`; a connect in flight resolves
    /// to `ConnectionLost` and wakes its waiter. In-flight pipeline stages
    /// (`nic_tx.busy`, fused windows) drain naturally: each stage re-checks
    /// VI state and finds the flushed connection.
    pub(crate) fn crash(&self, kind: fabric::FaultKind) {
        let cause = match kind {
            fabric::FaultKind::NicReset { .. } => crate::vi::ErrorCause::NicReset,
            _ => crate::vi::ErrorCause::NodeDown,
        };
        let mut to_fail = Vec::new();
        let mut waiters = Vec::new();
        {
            let mut st = self.lock();
            st.crashed = true;
            match kind {
                fabric::FaultKind::NicReset { .. } => st.stats.nic_resets += 1,
                _ => st.stats.node_crashes += 1,
            }
            st.stats.tx_jobs_wiped += st.nic_tx.queue.clear() as u64;
            st.xlate.invalidate_all();
            st.fw_stalls.clear();
            st.rx_engine_busy = simkit::SimTime::ZERO;
            st.pending_conn.clear();
            let mut cancelled = 0u64;
            for (index, vi) in st.vis.iter_mut().enumerate() {
                let Some(vi) = vi else { continue };
                match vi.conn {
                    crate::vi::ConnState::Connected { .. } => to_fail.push(ViId(index as u32)),
                    crate::vi::ConnState::Connecting => {
                        waiters.extend(vi.resolve_connect(Err(ViaError::ConnectionLost)));
                    }
                    _ => {
                        if vi.disarm_heartbeat() {
                            cancelled += 1;
                        }
                    }
                }
            }
            st.stats.heartbeat_timers_cancelled += cancelled;
        }
        // Connected VIs flush through the ordinary error path (which also
        // disarms their keepalives) so crash and retry-exhaustion leave
        // byte-identical state behind.
        for vi_id in to_fail {
            transport::fail_connection(self, vi_id, cause);
        }
        for token in waiters {
            self.core.sim.wake(token);
        }
    }

    /// The node-scoped fault window closed: the node is back. The wipe
    /// already happened at crash time, so this just clears the flag — the
    /// provider is exactly a freshly initialized one plus the host-durable
    /// state that legitimately survives.
    pub(crate) fn reboot(&self) {
        self.lock().crashed = false;
    }

    /// Install a firmware-stall fault window: doorbells rung during
    /// `[at, at + duration)` are not serviced until the window closes (a
    /// wedged device scheduler). A no-op on host-emulated providers, which
    /// have no firmware to stall.
    pub fn stall_firmware(&self, at: simkit::SimTime, duration: SimDuration) {
        self.lock().fw_stalls.add(at, duration);
    }

    /// Number of live VIs on this provider.
    pub fn active_vis(&self) -> usize {
        self.lock().active_vis()
    }

    // ------------------------------------------------------------------
    // Completion collection (send/recv queues).
    // ------------------------------------------------------------------

    pub(crate) fn queue_done(
        &self,
        ctx: &mut ProcessCtx,
        vi: ViId,
        kind: QueueKind,
    ) -> Option<Completion> {
        ctx.busy(self.core.profile.host.completion_check);
        self.lock().vi_mut(vi).queue(kind).completed.pop_front()
    }

    pub(crate) fn queue_wait(
        &self,
        ctx: &mut ProcessCtx,
        vi: ViId,
        kind: QueueKind,
        mode: WaitMode,
    ) -> Completion {
        loop {
            let token = {
                let mut st = self.lock();
                let q = st.vi_mut(vi).queue(kind);
                if let Some(c) = q.completed.pop_front() {
                    drop(st);
                    ctx.busy(self.core.profile.host.completion_check);
                    return c;
                }
                q.park(ctx.prepare_wait(), mode)
            };
            ctx.wait_mode(token, mode);
        }
    }

    /// Like [`Self::queue_wait`], but gives up — returning `None` — the
    /// moment the VI is observed in any state other than `Connected`.
    /// Plain `queue_wait` parks unconditionally, which is the right
    /// semantics for the VIPL surface (completions outlive the
    /// connection), but a recovery layer needs to notice that the peer
    /// tore the connection down *while it was blocked*: `teardown_local`
    /// and `fail_connection` wake stranded waiters precisely so this
    /// re-check runs (see `transport::wake_stranded_waiters`).
    pub(crate) fn queue_wait_conn(
        &self,
        ctx: &mut ProcessCtx,
        vi: ViId,
        kind: QueueKind,
        mode: WaitMode,
    ) -> Option<Completion> {
        loop {
            let token = {
                let mut st = self.lock();
                let v = st.vi_mut(vi);
                let connected = matches!(v.conn, crate::vi::ConnState::Connected { .. });
                let q = v.queue(kind);
                if let Some(c) = q.completed.pop_front() {
                    drop(st);
                    ctx.busy(self.core.profile.host.completion_check);
                    return Some(c);
                }
                if !connected {
                    return None;
                }
                q.park(ctx.prepare_wait(), mode)
            };
            ctx.wait_mode(token, mode);
        }
    }

    // ------------------------------------------------------------------
    // CQ collection.
    // ------------------------------------------------------------------

    pub(crate) fn cq_done(&self, ctx: &mut ProcessCtx, cq: CqId) -> Option<(ViId, QueueKind)> {
        ctx.busy(self.core.profile.data.cq_check);
        let mut st = self.lock();
        st.cq_mut(cq).entries.pop_front()
    }

    pub(crate) fn cq_wait(
        &self,
        ctx: &mut ProcessCtx,
        cq: CqId,
        mode: WaitMode,
    ) -> (ViId, QueueKind) {
        loop {
            let token = {
                let mut st = self.lock();
                let c = st.cq_mut(cq);
                if let Some(e) = c.entries.pop_front() {
                    drop(st);
                    ctx.busy(self.core.profile.data.cq_check);
                    return e;
                }
                let token = ctx.prepare_wait();
                c.waiters.push_back((token, mode));
                token
            };
            ctx.wait_mode(token, mode);
        }
    }

    pub(crate) fn cq_overflows(&self, cq: CqId) -> u64 {
        let mut st = self.lock();
        st.cq_mut(cq).overflows
    }

    // ------------------------------------------------------------------
    // Connection management lives in connect.rs; these are thin wrappers.
    // ------------------------------------------------------------------

    /// Client side: connect `vi` to whoever listens on `(remote, disc)`.
    /// Blocks until accepted, rejected, or `timeout` elapses.
    pub fn connect(
        &self,
        ctx: &mut ProcessCtx,
        vi: &Vi,
        remote: NodeId,
        disc: Discriminator,
        timeout: Option<SimDuration>,
    ) -> ViaResult<()> {
        crate::connect::connect(self, ctx, vi.id, remote, disc, timeout)
    }

    /// Server side: wait for a connection request on `disc` and accept it
    /// into `vi`. Returns the client's node.
    pub fn accept(&self, ctx: &mut ProcessCtx, vi: &Vi, disc: Discriminator) -> ViaResult<NodeId> {
        crate::connect::accept(self, ctx, vi.id, disc, None)
    }

    /// Like [`Self::accept`], but gives up with `ConnectFailed` if no
    /// request arrives within `timeout`. The session layer's linger-close
    /// uses this to wait for a possibly-dead peer without parking forever.
    pub fn accept_timeout(
        &self,
        ctx: &mut ProcessCtx,
        vi: &Vi,
        disc: Discriminator,
        timeout: Option<SimDuration>,
    ) -> ViaResult<NodeId> {
        crate::connect::accept(self, ctx, vi.id, disc, timeout)
    }

    /// `VipDisconnect`: tear down `vi`'s connection.
    pub fn disconnect(&self, ctx: &mut ProcessCtx, vi: &Vi) -> ViaResult<()> {
        crate::connect::disconnect(self, ctx, vi.id)
    }
}

/// A set of nodes running the same VIA implementation over one SAN — the
/// simulated analogue of the paper's testbed.
pub struct Cluster {
    sim: Sim,
    san: San,
    profile: Arc<Profile>,
    providers: Vec<Provider>,
}

impl Cluster {
    /// Build `nodes` providers running `profile` over a fresh SAN. `seed`
    /// feeds loss injection. The SAN is a one-switch [`Topology::star`].
    pub fn new(sim: Sim, profile: Profile, nodes: usize, seed: u64) -> Self {
        Self::new_topo(sim, profile, Topology::star(nodes), seed)
    }

    /// Build one provider per topology node over an explicit [`Topology`].
    /// Multi-switch shapes route frames hop by hop through buffered,
    /// backpressured switch ports (see `fabric::topo`).
    pub fn new_topo(sim: Sim, profile: Profile, topo: Topology, seed: u64) -> Self {
        let nodes = topo.nodes();
        assert!(nodes >= 2, "a SAN needs at least two nodes");
        let san = San::new_topo(sim.clone(), profile.net, topo, seed);
        // The fabric's forward-fold shares the global fuse knob so
        // `VIBE_FUSE=0` (or `fastpath::set_fuse(false)`) disables every
        // event-eliding path at once.
        san.set_fuse(crate::fastpath::fuse_enabled());
        let profile = Arc::new(profile);
        let mut providers = Vec::with_capacity(nodes);
        for i in 0..nodes {
            let node = NodeId(i as u32);
            let cpu = sim.add_cpu(format!("{}-node{}", profile.name, i));
            let core = Arc::new(ProviderCore {
                pci: PciBus::new(sim.clone(), profile.pci),
                intr: InterruptController::from_host(cpu, &profile.host),
                profile: Arc::clone(&profile),
                node,
                cpu,
                seed,
                tracer: OnceLock::new(),
                state: sim.confined(ProviderState {
                    mem: ProcessMem::new(profile.host.page_size),
                    rx_engine_busy: simkit::SimTime::ZERO,
                    vis: Vec::new(),
                    live_vis: 0,
                    cqs: Vec::new(),
                    xlate: XlateEngine::new(profile.xlate),
                    listeners: HashMap::new(),
                    pending_conn: HashMap::new(),
                    nic_tx: NicTx {
                        queue: DescRing::new(profile.nic_tx_ring),
                        busy: false,
                        fused_until: simkit::SimTime::ZERO,
                        release_scheduled: false,
                    },
                    fw_stalls: FirmwareStalls::new(),
                    crashed: false,
                    stats: ProviderStats::default(),
                }),
                sim: sim.clone(),
            });
            providers.push(Provider {
                core: Arc::clone(&core),
                san: san.clone(),
            });
            // The SAN owns the two hooks below, so they reach it through a
            // weak handle: a strong one (inside a captured `Provider`)
            // would close a cycle that keeps every simulated world alive
            // forever. The upgrade cannot fail inside a hook the SAN is
            // invoking.
            let (weak, on_frame) = (san.downgrade(), Arc::clone(&core));
            san.attach(
                node,
                Arc::new(move |sim, delivery| {
                    let Some(san) = weak.upgrade() else { return };
                    let frame = delivery
                        .body
                        .downcast::<Frame>()
                        .expect("non-VIA frame on a VIA SAN");
                    let provider = Provider {
                        core: Arc::clone(&on_frame),
                        san,
                    };
                    transport::handle_frame(provider, sim, delivery.src, *frame);
                }),
            );
            // Node-scoped fault windows (node_down / nic_reset) wipe and
            // reboot the victim's provider. The fabric fires the hook after
            // its own state flip, so a crash sees the node already dead.
            let weak = san.downgrade();
            san.on_node_fault(
                node,
                Arc::new(move |_sim, kind, open| {
                    let Some(san) = weak.upgrade() else { return };
                    let provider = Provider {
                        core: Arc::clone(&core),
                        san,
                    };
                    if open {
                        provider.crash(kind);
                    } else {
                        provider.reboot();
                    }
                }),
            );
        }
        Cluster {
            sim,
            san,
            profile,
            providers,
        }
    }

    /// The provider on node `i`.
    pub fn provider(&self, i: usize) -> Provider {
        self.providers[i].clone()
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.providers.len()
    }

    /// The underlying SAN.
    pub fn san(&self) -> &San {
        &self.san
    }

    /// The simulation handle.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// The profile all nodes run.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Audit every conservation law this world keeps, once its run has
    /// quiesced: the fabric's frame laws ([`San::audit`]), each node's
    /// resource laws (no leaked descriptor, credit, CQ reference, NIC-ring
    /// entry or timer), and the engine's macro-event ledger
    /// ([`simkit::SchedStats::audit`]). Returns every violation found —
    /// an empty report is a clean bill of health.
    pub fn audit(&self) -> AuditReport {
        let mut violations = self.san.audit();
        for p in &self.providers {
            p.audit(&mut violations);
        }
        violations.extend(self.sim.sched_stats().audit());
        AuditReport { violations }
    }

    /// Attach a message-lifecycle [`Tracer`] to every layer of this
    /// cluster: all providers (doorbell / firmware / translation / DMA /
    /// ACK / completion / interrupt points) and the SAN (wire tx / rx /
    /// drop). Engine events are counted by the engine itself
    /// ([`simkit::Sim::sched_stats`]). Returns the tracer handle;
    /// tracing adds **no virtual-time cost**, so a traced run's timeline
    /// is identical to an untraced one.
    ///
    /// # Panics
    /// A cluster takes one tracer for its lifetime; a second call panics.
    pub fn enable_trace(&self, config: TraceConfig) -> Tracer {
        let tracer = Tracer::new(config);
        for p in &self.providers {
            assert!(
                p.core.tracer.set(tracer.clone()).is_ok(),
                "a tracer is already attached to this cluster"
            );
        }
        self.san.set_tracer(tracer.clone());
        tracer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profile as P;
    use simkit::Sim;

    fn one_node_pair() -> (Sim, Provider) {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.clone(), P::clan(), 2, 0);
        let p = cluster.provider(0);
        (sim, p)
    }

    #[test]
    fn create_cq_rejects_zero_depth() {
        let (sim, p) = one_node_pair();
        sim.spawn("t", Some(p.cpu()), move |ctx| {
            assert!(matches!(
                p.create_cq(ctx, 0),
                Err(ViaError::InvalidParameter)
            ));
        });
        sim.run_to_completion();
    }

    #[test]
    fn memory_roundtrip_through_provider() {
        let (_sim, p) = one_node_pair();
        let va = p.malloc(128);
        p.mem_write(va + 5, b"abc");
        assert_eq!(p.mem_read(va + 5, 3), b"abc");
        assert_eq!(p.mem_read(va, 1), vec![0]);
    }

    #[test]
    fn active_vis_tracks_create_and_destroy() {
        let (sim, p) = one_node_pair();
        let p2 = p.clone();
        sim.spawn("t", Some(p.cpu()), move |ctx| {
            assert_eq!(p2.active_vis(), 0);
            let a = p2
                .create_vi(ctx, ViAttributes::default(), None, None)
                .unwrap();
            let _b = p2
                .create_vi(ctx, ViAttributes::default(), None, None)
                .unwrap();
            assert_eq!(p2.active_vis(), 2);
            p2.destroy_vi(ctx, a).unwrap();
            assert_eq!(p2.active_vis(), 1);
        });
        sim.run_to_completion();
        let mut violations = Vec::new();
        p.audit(&mut violations);
        assert_eq!(violations, Vec::<String>::new());
        // A count that drifts from the slots is a broken law.
        p.lock().live_vis += 1;
        p.audit(&mut violations);
        assert_eq!(
            violations,
            ["node 0: 2 live VIs counted, 1 VI slots occupied"]
        );
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn cluster_needs_two_nodes() {
        let sim = Sim::new();
        let _ = Cluster::new(sim, P::clan(), 1, 0);
    }
}
