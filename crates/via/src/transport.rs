//! The data-path engine: descriptor posting, NIC transmit pipeline,
//! fragment reception, reassembly, acknowledgments, and retransmission.
//!
//! Two architectures share this module (selected per [`Profile`](crate::Profile)):
//!
//! * **NIC offload** (BVIA, cLAN): post → doorbell → firmware service →
//!   descriptor-fetch DMA → NIC address translation → per-fragment
//!   data DMA + wire; receive is the mirror image, DMA-ing straight into
//!   the user buffer.
//! * **Host emulated** (M-VIA): the post itself traps into the kernel and
//!   *copies* the message; a conventional NIC then DMAs kernel buffers.
//!   Receive interrupts the kernel per frame and copies again — the "extra
//!   data copies \[that\] are significant for longer messages" (paper §4.3.1).
//!
//! All resource contention (PCI bus, wire, NIC engine) is modeled with
//! busy-until occupancy, so pipelining and its limits emerge rather than
//! being assumed.

use std::sync::Arc;

use fabric::NodeId;
use simkit::{EventClass, ProcessCtx, Sim, SimDuration, SimTime, TimerHandle, WaitMode, WaitToken};
use trace::{MsgId, TracePoint};
use vnic::DoorbellKind;

use crate::descriptor::{Completion, DescOp, Descriptor};
use crate::mem::ProcessMem;
use crate::profile::DataPathKind;
use crate::provider::{Provider, ProviderState, ProviderStats, TxJobRef};
use crate::types::{MemHandle, QueueKind, Reliability, ViAttributes, ViId, ViaError, ViaResult};
use crate::vi::{ConnState, InflightSend, Reassembly, RxTarget, TxBuffers};
use crate::wire::{DataFrame, Frame, MsgKind, RdmaReadReq, Window, RDMA_READ_REQ_BYTES};

/// [`MsgId`] of a message this node originated (transmit side).
pub(crate) fn tx_msg(provider: &Provider, vi: ViId, seq: u64) -> MsgId {
    MsgId {
        src_node: provider.core.node.0,
        vi: vi.raw(),
        seq,
    }
}

/// [`MsgId`] reconstructed on the receive side: the *sender's* coordinates,
/// taken from the fabric's source-node field and the frame header, so both
/// ends of a message stamp the same id.
fn rx_msg(src: NodeId, src_vi: ViId, seq: u64) -> MsgId {
    MsgId {
        src_node: src.0,
        vi: src_vi.raw(),
        seq,
    }
}

/// Record a lifecycle trace point. Does not touch [`ProviderState`]: with
/// tracing off it is one load, and it may be called with the state guard
/// held.
fn trace_at(
    provider: &Provider,
    at: SimTime,
    point: TracePoint,
    msg: impl Into<Option<MsgId>>,
    aux: u64,
) {
    if let Some(tracer) = provider.core.tracer.get() {
        tracer.record(at, point, provider.core.node.0, msg.into(), aux);
    }
}

// ---------------------------------------------------------------------
// Gather / scatter helpers.
// ---------------------------------------------------------------------

/// Concatenate a descriptor's segments out of user memory: the one copy a
/// message's bytes take on the sending side.
pub(crate) fn gather(mem: &ProcessMem, desc: &Descriptor) -> Vec<u8> {
    let mut out = Vec::with_capacity(desc.total_len() as usize);
    for seg in &desc.segments {
        out.extend_from_slice(mem.slice(seg.va, seg.len as u64));
    }
    out
}

/// Write `data`, which begins at message offset `offset`, across the
/// descriptor's segments.
pub(crate) fn scatter(mem: &mut ProcessMem, desc: &Descriptor, offset: u64, data: &[u8]) {
    let mut skip = offset;
    let mut rest = data;
    for seg in &desc.segments {
        if rest.is_empty() {
            return;
        }
        let seg_len = seg.len as u64;
        if skip >= seg_len {
            skip -= seg_len;
            continue;
        }
        let take = ((seg_len - skip) as usize).min(rest.len());
        mem.write(seg.va + skip, &rest[..take]);
        rest = &rest[take..];
        skip = 0;
    }
    assert!(rest.is_empty(), "scatter overran the descriptor");
}

/// The page-number reference stream a descriptor's segments generate.
pub(crate) fn pages_of_desc(mem: &ProcessMem, desc: &Descriptor) -> Vec<u64> {
    let mut pages = Vec::new();
    for seg in &desc.segments {
        let (first, last) = mem.page_span(seg.va, seg.len as u64);
        pages.extend(first..=last);
    }
    if pages.is_empty() {
        // A zero-length descriptor still names (at least) the CS page.
        pages.push(0);
    }
    pages
}

fn pages_of_range(mem: &ProcessMem, va: u64, len: u64) -> Vec<u64> {
    let (first, last) = mem.page_span(va, len.max(1));
    (first..=last).collect()
}

/// Number of wire fragments a message of `len` bytes takes at `mtu`. A
/// zero-length message still sends one (empty) fragment.
fn fragment_count(len: u64, mtu: u32) -> u32 {
    len.div_ceil(mtu as u64).max(1) as u32
}

/// `(offset, length)` of fragment `idx` of a message of `len` bytes at
/// `mtu`; `idx` must be below [`fragment_count`].
fn fragment_at(len: u64, mtu: u32, idx: u32) -> (u64, u32) {
    debug_assert!(idx < fragment_count(len, mtu));
    let off = idx as u64 * mtu as u64;
    (off, (len - off).min(mtu as u64) as u32)
}

// ---------------------------------------------------------------------
// Posting.
// ---------------------------------------------------------------------

/// What the transmit pipeline does after the last fragment leaves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LastAction {
    /// Deliver the local send completion (unreliable NIC-offload sends).
    CompleteLocal,
    /// Completion was already delivered at post time (host-emulated
    /// unreliable); just retire the in-flight entry.
    AlreadyCompleted,
    /// Arm the retransmission timer and wait for the ACK.
    ArmRetx,
    /// Nothing (RDMA reads complete when the response lands).
    Nothing,
}

/// A resolved transmit job (rebuilt from the in-flight entry each time so
/// retransmissions reuse the pipeline). Cloned once per fragment, so the
/// buffers it names are shared, not copied.
#[derive(Clone)]
pub(crate) struct JobSpec {
    pub(crate) src_vi: ViId,
    pub(crate) dst_node: NodeId,
    pub(crate) dst_vi: ViId,
    pub(crate) seq: u64,
    pub(crate) bufs: Arc<TxBuffers>,
    pub(crate) total_len: u64,
    pub(crate) desc_wire: u64,
    pub(crate) payload: JobPayload,
    pub(crate) reliability: Reliability,
    pub(crate) on_last: LastAction,
}

#[derive(Clone, Copy)]
pub(crate) enum JobPayload {
    Data(MsgKind),
    ReadReq {
        remote_va: u64,
        remote_handle: u32,
        len: u64,
    },
}

/// `VipPostSend` body (send / RDMA write / RDMA read).
pub(crate) fn post_send(
    provider: &Provider,
    ctx: &mut ProcessCtx,
    vi_id: ViId,
    desc: Descriptor,
) -> ViaResult<()> {
    desc.validate_shape()?;
    let profile = &*provider.core.profile;
    match desc.op {
        DescOp::RdmaWrite if !profile.supports_rdma_write => return Err(ViaError::NotSupported),
        DescOp::RdmaRead if !profile.supports_rdma_read => return Err(ViaError::NotSupported),
        _ => {}
    }
    let total_len = desc.total_len();
    let op = desc.op;

    // Validate against VI/connection state and registered memory.
    let (reliability, bufs) = {
        let st = provider.lock();
        for seg in &desc.segments {
            st.mem
                .check_registered(seg.handle, seg.va, seg.len as u64)?;
        }
        let vi = st.vi(vi_id);
        let Some(mtu) = vi.conn_mtu() else {
            return Err(ViaError::InvalidState);
        };
        if total_len > mtu as u64 {
            return Err(ViaError::DescriptorError);
        }
        if vi.send_inflight.len() >= profile.max_queue_depth {
            return Err(ViaError::QueueFull);
        }
        let reliability = vi.attrs.reliability;
        let data = if matches!(op, DescOp::Send | DescOp::RdmaWrite) {
            gather(&st.mem, &desc)
        } else {
            Vec::new()
        };
        let pages = pages_of_desc(&st.mem, &desc);
        (reliability, Arc::new(TxBuffers { data, pages }))
    };

    // Host-side costs of the post.
    let nsegs = desc.segments.len() as u64;
    let mut host_cost = profile.host.descriptor_build
        + profile.host.per_segment_build * nsegs
        + profile.data.post_overhead
        + profile.doorbell.host_cost(&profile.host);
    // Host-side translation, if this architecture translates on the host
    // (the NIC's engine runs this same `profile.xlate`).
    if profile.xlate.translator == vnic::Translator::Host
        && matches!(op, DescOp::Send | DescOp::RdmaWrite | DescOp::RdmaRead)
    {
        host_cost += profile.xlate.host_lookup * bufs.pages.len() as u64;
    }
    let host_emulated = profile.data_path == DataPathKind::HostEmulated;
    if host_emulated && matches!(op, DescOp::Send | DescOp::RdmaWrite) {
        // The kernel copies the whole message inside the post (that is why
        // the buffer is immediately reusable); per-frame framing/driver
        // work is charged fragment by fragment in the transmit loop, where
        // it pipelines with the wire.
        host_cost += profile.host.copy_time(total_len);
    }
    ctx.busy(host_cost);

    // Enqueue the in-flight entry.
    let (seq, complete_inline, parked) = {
        let mut st = provider.lock();
        let vi = st.vi_mut(vi_id);
        // Re-check: the connection may have died during our busy time.
        if !matches!(vi.conn, ConnState::Connected { .. }) {
            return Err(ViaError::InvalidState);
        }
        let seq = vi.next_seq;
        vi.next_seq += 1;
        let kind = match op {
            DescOp::Send => MsgKind::Send {
                imm: desc.immediate,
            },
            DescOp::RdmaWrite => {
                let r = desc.remote.expect("validated");
                MsgKind::RdmaWrite {
                    remote_va: r.va,
                    remote_handle: r.handle.raw(),
                    imm: desc.immediate,
                }
            }
            DescOp::RdmaRead => MsgKind::RdmaReadResp { req_seq: seq },
            DescOp::Recv => unreachable!(),
        };
        vi.send_inflight.push_back(InflightSend {
            seq,
            desc,
            bufs,
            total_len,
            kind,
            retries: 0,
            first_tx_at: None,
            done: false,
            retx_timer: None,
        });
        st.stats.sends_posted += 1;
        // Credit-based flow control: a reliable send consumes one receiver
        // credit; with the ledger dry — or older sends already parked,
        // since reliable delivery is in-order — the descriptor parks here
        // and enters the device pipeline only when an ACK-carried grant
        // releases it. RDMA ops are exempt (they consume no receive
        // descriptor), as is UD (the spec's silent-drop semantics).
        let parked = if reliability != Reliability::Unreliable && op == DescOp::Send {
            let vi = st.vi_mut(vi_id);
            let stall = vi.credits_available(profile.credit_flow.initial) == 0
                || !vi.credit_waiting.is_empty();
            if stall {
                vi.credit_waiting.push_back(seq);
            } else {
                vi.credits_consumed += 1;
            }
            stall
        } else {
            false
        };
        if parked {
            st.stats.credit_stalls += 1;
        }
        let inline = host_emulated
            && reliability == Reliability::Unreliable
            && matches!(op, DescOp::Send | DescOp::RdmaWrite);
        (seq, inline, parked)
    };

    let msg = tx_msg(provider, vi_id, seq);
    trace_at(
        provider,
        provider.core.sim.now(),
        TracePoint::SendPosted,
        msg,
        total_len,
    );
    if complete_inline {
        // Host-emulated unreliable: the buffer is reusable once the kernel
        // copy finished, i.e. now.
        let mut st = provider.lock();
        let vi = st.vi_mut(vi_id);
        if let Some(inf) = vi.send_inflight.iter_mut().find(|i| i.seq == seq) {
            inf.done = true;
        }
        let comp = Completion {
            op,
            status: Ok(()),
            length: total_len,
            immediate: None,
        };
        deliver_completion(provider, &mut st, vi_id, QueueKind::Send, comp);
    }

    if parked {
        // No doorbell: the descriptor reaches the device only when an
        // ACK-carried grant releases it (or teardown flushes it). A parked
        // post never reaches the device handoff, so it is a fuse attempt
        // lost to the credit stall.
        provider.core.sim.note_fuse_attempt();
        provider
            .core
            .sim
            .note_defuse(simkit::DefuseCause::CreditStall);
        trace_at(
            provider,
            provider.core.sim.now(),
            TracePoint::CreditStall,
            msg,
            seq,
        );
        return Ok(());
    }

    // Device handoff: try the fused fast path first — the whole transmit
    // pipeline as straight-line arithmetic, one macro-event instead of the
    // doorbell + firmware chain. Any guard miss falls through to the
    // general path below before the first side effect.
    provider.core.sim.note_fuse_attempt();
    match crate::fastpath::try_fuse_send(provider, vi_id, seq, op, total_len, host_emulated) {
        Ok(()) => return Ok(()),
        Err(cause) => provider.core.sim.note_defuse(cause),
    }

    // Hand the job to the device path. Both architectures serialize
    // messages through the (real or emulated) device transmit queue so a
    // connection's fragments hit the wire in message order.
    trace_at(
        provider,
        provider.core.sim.now(),
        TracePoint::DoorbellRing,
        msg,
        (profile.doorbell == DoorbellKind::KernelTrap) as u64,
    );
    let ring = profile.doorbell.propagation();
    if host_emulated {
        nic_enqueue(provider, TxJobRef { vi: vi_id, seq });
    } else {
        // The doorbell write propagates to the device; the firmware's
        // scheduling scan is charged per job in nic_tx_start (a polling
        // firmware walks every VI's send block before each dispatch).
        let p = provider.clone();
        provider
            .core
            .sim
            .call_in_as(EventClass::Doorbell, ring, move |_| {
                nic_enqueue(&p, TxJobRef { vi: vi_id, seq });
            });
    }
    Ok(())
}

/// `VipPostRecv` body.
pub(crate) fn post_recv(
    provider: &Provider,
    ctx: &mut ProcessCtx,
    vi_id: ViId,
    desc: Descriptor,
) -> ViaResult<()> {
    desc.validate_shape()?;
    let profile = &*provider.core.profile;
    let nsegs = desc.segments.len() as u64;
    {
        let mut st = provider.lock();
        for seg in &desc.segments {
            st.mem
                .check_registered(seg.handle, seg.va, seg.len as u64)?;
        }
        let vi = st.vi_mut(vi_id);
        // A VI in the error state refuses all posts until the application
        // acknowledges the failure with a disconnect (VIA spec error
        // semantics); Idle is fine — receives may be pre-posted.
        if matches!(vi.conn, ConnState::Error { .. }) {
            return Err(ViaError::InvalidState);
        }
        if vi.recv_posted.len() >= profile.max_queue_depth {
            return Err(ViaError::QueueFull);
        }
        vi.recv_posted.push_back(desc);
        // Each descriptor made available on a connected reliable VI is one
        // flow-control credit; the cumulative total rides out on the next
        // ACK. (Pre-connect posts are folded in by `credit_reset` at the
        // Connected transition instead.)
        if vi.attrs.reliability != Reliability::Unreliable
            && matches!(vi.conn, ConnState::Connected { .. })
        {
            vi.credits_granted_total += 1;
        }
        st.stats.recvs_posted += 1;
    }
    ctx.busy(
        profile.host.descriptor_build
            + profile.host.per_segment_build * nsegs
            + profile.data.post_overhead
            + profile.doorbell.host_cost(&profile.host),
    );
    Ok(())
}

// ---------------------------------------------------------------------
// NIC transmit pipeline.
// ---------------------------------------------------------------------

pub(crate) fn resolve_job(
    provider: &Provider,
    st: &ProviderState,
    job: &TxJobRef,
) -> Option<JobSpec> {
    let vi = st.try_vi(job.vi)?;
    let (peer_node, peer_vi) = vi.peer()?;
    let inf = vi.send_inflight.iter().find(|i| i.seq == job.seq)?;
    let reliability = vi.attrs.reliability;
    let host_emulated = provider.core.profile.data_path == DataPathKind::HostEmulated;
    let (payload, on_last) = match inf.desc.op {
        DescOp::Send | DescOp::RdmaWrite => {
            let kind = inf.kind;
            let on_last = if reliability == Reliability::Unreliable {
                if host_emulated {
                    LastAction::AlreadyCompleted
                } else {
                    LastAction::CompleteLocal
                }
            } else {
                LastAction::ArmRetx
            };
            (JobPayload::Data(kind), on_last)
        }
        DescOp::RdmaRead => {
            let r = inf.desc.remote.expect("validated");
            (
                JobPayload::ReadReq {
                    remote_va: r.va,
                    remote_handle: r.handle.raw(),
                    len: inf.total_len,
                },
                LastAction::Nothing,
            )
        }
        DescOp::Recv => unreachable!(),
    };
    Some(JobSpec {
        src_vi: job.vi,
        dst_node: peer_node,
        dst_vi: peer_vi,
        seq: job.seq,
        bufs: Arc::clone(&inf.bufs),
        total_len: inf.total_len,
        desc_wire: inf.desc.wire_size(),
        payload,
        reliability,
        on_last,
    })
}

/// Queue a job on the NIC transmit engine (runs as an event). The device
/// transmit ring is bounded: a full ring fails the job with
/// `DescriptorError` instead of queueing unboundedly in host memory.
pub(crate) fn nic_enqueue(provider: &Provider, job: TxJobRef) {
    trace_at(
        provider,
        provider.core.sim.now(),
        TracePoint::DevQueued,
        tx_msg(provider, job.vi, job.seq),
        0,
    );
    enum Enq {
        Start(TxJobRef),
        Queued,
        /// Queued behind an open fused window with no release scheduled
        /// yet: materialize the wire-time event the fused send elided so
        /// the ring drains when the device frees.
        Release(SimTime),
        /// Ring full. `silent` when the user already saw this entry
        /// complete (inline host-emulated unreliable completions, synthetic
        /// RDMA-read responses): it just retires, nothing to fail.
        Rejected {
            vi: ViId,
            seq: u64,
            silent: bool,
        },
    }
    let outcome = {
        let mut st = provider.lock();
        // A fused send leaves `busy` false (its pipeline was charged up
        // front) but holds the device until its wire time; followers
        // queue behind the window exactly as behind a busy ring.
        let windowed = st.nic_tx.fused_until > provider.core.sim.now();
        if st.nic_tx.busy || windowed {
            match st.nic_tx.queue.try_push(job) {
                Ok(()) => {
                    if windowed && !st.nic_tx.busy && !st.nic_tx.release_scheduled {
                        st.nic_tx.release_scheduled = true;
                        Enq::Release(st.nic_tx.fused_until)
                    } else {
                        Enq::Queued
                    }
                }
                Err(job) => {
                    st.stats.nic_ring_full += 1;
                    let silent = st
                        .vis
                        .get(job.vi.index())
                        .and_then(|v| v.as_ref())
                        .and_then(|vi| vi.send_inflight.iter().find(|i| i.seq == job.seq))
                        .is_none_or(|inf| inf.done);
                    Enq::Rejected {
                        vi: job.vi,
                        seq: job.seq,
                        silent,
                    }
                }
            }
        } else {
            st.nic_tx.busy = true;
            st.nic_tx.fused_until = SimTime::ZERO;
            Enq::Start(job)
        }
    };
    match outcome {
        Enq::Start(job) => nic_tx_start(provider, job),
        Enq::Queued => {}
        Enq::Release(at) => {
            // The fused send elided its wire-handoff Firmware event; this
            // follower needs it back (the general path's `wire_send` is
            // what chains `nic_tx_next`), so un-elide one Firmware hop and
            // fire the release as a real event — the logical event census
            // stays exactly what the general run counts.
            provider.core.sim.un_elide(EventClass::Firmware);
            let p = provider.clone();
            provider
                .core
                .sim
                .call_at_as(EventClass::Firmware, at, move |_| {
                    {
                        let mut st = p.lock();
                        st.nic_tx.release_scheduled = false;
                        st.nic_tx.fused_until = SimTime::ZERO;
                        st.nic_tx.busy = true;
                    }
                    nic_tx_next(&p);
                });
        }
        Enq::Rejected {
            vi,
            seq,
            silent: false,
        } => complete_send(provider, vi, seq, Err(ViaError::DescriptorError)),
        Enq::Rejected {
            vi,
            seq,
            silent: true,
        } => {
            let mut st = provider.lock();
            if let Some(v) = st.try_vi_mut(vi) {
                v.send_inflight.retain(|i| i.seq != seq);
            }
        }
    }
}

/// Take the device's next queued job, or mark the device idle.
fn nic_tx_pop(st: &mut ProviderState) -> Option<TxJobRef> {
    let next = st.nic_tx.queue.pop_front();
    if next.is_none() {
        st.nic_tx.busy = false;
    }
    next
}

fn nic_tx_next(provider: &Provider) {
    let next = nic_tx_pop(&mut provider.lock());
    if let Some(job) = next {
        nic_tx_start(provider, job);
    }
}

/// Stage 1: DMA-fetch the descriptor from host memory (NIC offload); the
/// host-emulated path already has the descriptor in the kernel and goes
/// straight to the fragment loop.
fn nic_tx_start(provider: &Provider, job: TxJobRef) {
    let profile = &*provider.core.profile;
    let host_emulated = profile.data_path == DataPathKind::HostEmulated;
    // One visit to the state: resolve the job and, on the offload path,
    // price one firmware scheduling pass (scan of every VI's send block on
    // a polling firmware; O(1) FIFO pop on hardware).
    let resolved = {
        let st = provider.lock();
        resolve_job(provider, &st, &job).map(|spec| {
            if host_emulated {
                return (spec, SimDuration::ZERO);
            }
            let now = provider.core.sim.now();
            // A stalled firmware notices nothing until its stall window
            // closes; the scan itself runs only after release.
            let stall = st.fw_stalls.delay_from(now);
            let vis = st.active_vis();
            let scan = profile.firmware.service_delay(vis);
            trace_at(
                provider,
                now + stall + scan,
                TracePoint::FwScan,
                tx_msg(provider, spec.src_vi, spec.seq),
                vis as u64,
            );
            (spec, stall + scan)
        })
    };
    let Some((spec, scan)) = resolved else {
        nic_tx_next(provider); // connection torn down while queued
        return;
    };
    // From here the job's stages hand one provider handle down the chain
    // (each event schedules the next on the `&Sim` it runs under — the
    // provider's own) instead of cloning one per stage.
    let (sim, p) = (&provider.core.sim, provider.clone());
    if host_emulated {
        tx_fragment(sim, p, spec, 0);
        return;
    }
    // The scan, then the descriptor fetch DMA.
    let msg = tx_msg(provider, spec.src_vi, spec.seq);
    sim.call_in_as(EventClass::Firmware, scan, move |sim| {
        let fetch_end = p.core.pci.reserve(spec.desc_wire);
        trace_at(&p, fetch_end, TracePoint::DescFetch, msg, spec.desc_wire);
        sim.call_at_as(EventClass::Firmware, fetch_end, move |sim| {
            nic_tx_xlate(sim, p, spec)
        });
    });
}

/// Stage 2: translate every page the descriptor touches.
fn nic_tx_xlate(sim: &Sim, provider: Provider, spec: JobSpec) {
    let msg = tx_msg(&provider, spec.src_vi, spec.seq);
    let delay = provider.lock().xlate.nic_translate_traced(
        spec.bufs.pages.iter().copied(),
        &provider.core.pci,
        &provider.tracer(),
        sim.now(),
        provider.core.node.0,
        Some(msg),
    );
    sim.call_in_as(EventClass::Firmware, delay, move |sim| {
        trace_at(&provider, sim.now(), TracePoint::Translated, msg, 0);
        tx_fragment(sim, provider, spec, 0)
    });
}

/// Stage 3 (repeated): DMA one fragment across PCI, then hand it to the
/// wire after the per-fragment NIC processing time.
fn tx_fragment(sim: &Sim, provider: Provider, spec: JobSpec, idx: u32) {
    let profile = &*provider.core.profile;
    // RDMA-read requests are a single small control frame, no data DMA.
    if let JobPayload::ReadReq {
        remote_va,
        remote_handle,
        len,
    } = spec.payload
    {
        let frame = Frame::RdmaRead(RdmaReadReq {
            dst_vi: spec.dst_vi,
            req_seq: spec.seq,
            remote_va,
            remote_handle,
            len,
        });
        provider.san.send_msg(
            provider.core.node,
            spec.dst_node,
            RDMA_READ_REQ_BYTES,
            Box::new(frame),
            Some(tx_msg(&provider, spec.src_vi, spec.seq)),
        );
        nic_tx_next(&provider);
        return;
    }

    let msg = tx_msg(&provider, spec.src_vi, spec.seq);
    let (off, len) = fragment_at(spec.total_len, profile.wire_mtu, idx);
    let dma_start = sim.now();
    let dma_end = provider.core.pci.reserve(len as u64);
    trace_at(&provider, dma_start, TracePoint::DmaStart, msg, len as u64);
    trace_at(&provider, dma_end, TracePoint::DmaEnd, msg, len as u64);
    let is_last = idx + 1 == fragment_count(spec.total_len, profile.wire_mtu);
    // Per-fragment engine cost: LANai/cLAN firmware on the offload path;
    // kernel framing + driver work (charged to the host CPU, serialized
    // with the next fragment's DMA) on the emulated path.
    let engine_cost = match profile.data_path {
        DataPathKind::NicOffload => profile.data.tx_frag_nic,
        DataPathKind::HostEmulated => {
            sim.charge(provider.core.cpu, profile.data.kernel_tx_per_frag);
            profile.data.kernel_tx_per_frag
        }
    };
    if !is_last {
        let (p, spec) = (provider.clone(), spec.clone());
        let next_at = match profile.data_path {
            // The NIC's DMA engine runs ahead of its fragment processor.
            DataPathKind::NicOffload => dma_end,
            // The kernel prepares the next frame after finishing this one.
            DataPathKind::HostEmulated => dma_end + engine_cost,
        };
        sim.call_at_as(EventClass::Firmware, next_at, move |sim| {
            tx_fragment(sim, p, spec, idx + 1)
        });
    }
    sim.call_at_as(EventClass::Firmware, dma_end + engine_cost, move |sim| {
        wire_send(sim, &provider, spec, idx, off, len, is_last);
    });
}

fn wire_send(
    sim: &Sim,
    provider: &Provider,
    spec: JobSpec,
    idx: u32,
    off: u64,
    len: u32,
    is_last: bool,
) {
    let profile = &*provider.core.profile;
    let kind = match spec.payload {
        JobPayload::Data(k) => k,
        JobPayload::ReadReq { .. } => unreachable!("handled in tx_fragment"),
    };
    let frame = Frame::Data(DataFrame {
        src_vi: spec.src_vi,
        dst_vi: spec.dst_vi,
        seq: spec.seq,
        frag_idx: idx,
        frag_count: fragment_count(spec.total_len, profile.wire_mtu),
        msg_len: spec.total_len,
        offset: off,
        payload: Window::new(spec.bufs, off, len),
        kind,
        reliability: spec.reliability,
    });
    provider.san.send_msg(
        provider.core.node,
        spec.dst_node,
        len + profile.frag_header_bytes,
        Box::new(frame),
        Some(tx_msg(provider, spec.src_vi, spec.seq)),
    );
    if !is_last {
        return;
    }
    // One visit to the state for everything the last fragment settles
    // there: the counter, the host-emulated retire, and the device's next
    // job (whose events are scheduled below, after this message's own).
    let next = {
        let mut st = provider.lock();
        st.stats.msgs_sent += 1;
        if spec.on_last == LastAction::AlreadyCompleted {
            if let Some(v) = st.try_vi_mut(spec.src_vi) {
                v.send_inflight.retain(|i| i.seq != spec.seq);
            }
        }
        nic_tx_pop(&mut st)
    };
    match spec.on_last {
        LastAction::CompleteLocal => {
            let p = provider.clone();
            let (vi, seq) = (spec.src_vi, spec.seq);
            sim.call_in_as(
                EventClass::Completion,
                profile.data.completion_write,
                move |_| {
                    complete_send(&p, vi, seq, Ok(()));
                },
            );
        }
        LastAction::ArmRetx => arm_retransmit(provider, spec.src_vi, spec.seq),
        LastAction::AlreadyCompleted | LastAction::Nothing => {}
    }
    if let Some(job) = next {
        nic_tx_start(provider, job);
    }
}

// ---------------------------------------------------------------------
// Reliability: ACKs and retransmission.
// ---------------------------------------------------------------------

/// Emit an ACK for `(dst_vi, seq)` on the peer, reading the piggybacked
/// credit grant total off `local_vi` (the VI the message arrived on).
fn send_ack(provider: &Provider, dst_node: NodeId, dst_vi: ViId, seq: u64, local_vi: ViId) {
    let profile = &provider.core.profile;
    // The ACK carries the *sender's* message coordinates back.
    let msg = rx_msg(dst_node, dst_vi, seq);
    trace_at(provider, provider.core.sim.now(), TracePoint::AckTx, msg, 0);
    let credit_total = {
        let mut st = provider.lock();
        st.stats.acks_sent += 1;
        st.try_vi_mut(local_vi)
            .map_or(0, |vi| vi.credits_granted_total)
    };
    let bytes = profile.data.ack_bytes;
    let frame = Frame::Ack {
        dst_vi,
        seq,
        credit_total,
    };
    // The ACK rides the lossy data path like every other frame and is
    // correlated to the message it acknowledges, so a traced run shows the
    // ACK's wire hop under the message's id — and a lost ACK shows up as a
    // WireDrop followed by the sender's retransmission.
    let p = provider.clone();
    provider.core.sim.call_in_as(
        EventClass::Retransmit,
        profile.data.ack_processing,
        move |_| {
            p.san
                .send_msg(p.core.node, dst_node, bytes, Box::new(frame), Some(msg));
        },
    );
}

fn handle_ack(provider: &Provider, vi_id: ViId, seq: u64, credit_total: u64) {
    enum AckOutcome {
        /// First ACK for a live send: complete it (its timer is cancelled
        /// by `complete_send` when the entry is removed).
        Complete,
        /// The entry is already `done` — a duplicate ACK, or the synthetic
        /// read-response entry that never completes to the user. Disarm any
        /// timer it still carries.
        Disarm(Option<simkit::TimerHandle>),
        Ignore,
    }
    let now = provider.core.sim.now();
    let initial = provider.core.profile.credit_flow.initial;
    let (outcome, released) = {
        let mut st = provider.lock();
        st.stats.acks_received += 1;
        let Some(vi) = st.try_vi_mut(vi_id) else {
            return;
        };
        // Absorb the piggybacked grant. The total is cumulative and the
        // ledger monotone, so late/reordered ACKs can never regress it.
        vi.credit_seen_total = vi.credit_seen_total.max(credit_total);
        let outcome = match vi.send_inflight.iter_mut().find(|i| i.seq == seq) {
            Some(inf) if !inf.done => {
                inf.done = true;
                // Karn's rule: only a never-retransmitted message yields an
                // RTT sample — an ACK after a retry is ambiguous.
                let rtt = (inf.retries == 0)
                    .then_some(inf.first_tx_at)
                    .flatten()
                    .map(|t| now.saturating_duration_since(t));
                if let Some(rtt) = rtt {
                    vi.rto.sample(rtt);
                }
                AckOutcome::Complete
            }
            Some(inf) => AckOutcome::Disarm(inf.retx_timer.take()),
            None => AckOutcome::Ignore,
        };
        // Fresh credits release parked sends, oldest first (preserving the
        // connection's post order).
        let mut released = Vec::new();
        while vi.credits_available(initial) > 0 && !vi.credit_waiting.is_empty() {
            let s = vi.credit_waiting.pop_front().expect("non-empty");
            vi.credits_consumed += 1;
            released.push(s);
        }
        if !released.is_empty() {
            st.stats.credit_grants += released.len() as u64;
        }
        (outcome, released)
    };
    match outcome {
        AckOutcome::Complete => complete_send(provider, vi_id, seq, Ok(())),
        AckOutcome::Disarm(Some(timer)) => {
            if timer.cancel() {
                provider.lock().stats.retx_timers_cancelled += 1;
            }
        }
        AckOutcome::Disarm(None) | AckOutcome::Ignore => {}
    }
    for s in released {
        trace_at(
            provider,
            now,
            TracePoint::CreditGrant,
            tx_msg(provider, vi_id, s),
            s,
        );
        nic_enqueue(provider, TxJobRef { vi: vi_id, seq: s });
    }
}

/// The adaptive timeout to arm for `(vi, seq)` at its current retry count:
/// the estimator's backed-off quote, plus (on backed-off timers only) a
/// deterministic jitter in `[0, timeout/16]` that de-synchronizes the retry
/// herd a burst fault creates. The jitter is content-keyed on
/// `(cluster seed, node, vi, seq, retries)`, so it is identical run-to-run
/// and independent of event-execution order, and it is *absent* on the
/// first retry — a clean or lightly lossy run arms exactly the timeouts a
/// fixed-timeout build would.
fn retx_timeout_for(
    provider: &Provider,
    st: &ProviderState,
    vi_id: ViId,
    seq: u64,
    retries: u32,
) -> SimDuration {
    let data = &provider.core.profile.data;
    let base = match st.try_vi(vi_id) {
        Some(vi) => vi
            .rto
            .backed_off(data.retransmit_timeout, data.max_rto, retries),
        None => data.retransmit_timeout,
    };
    if retries == 0 {
        return base;
    }
    let key = provider.core.seed
        ^ (provider.core.node.0 as u64).rotate_left(48)
        ^ (vi_id.raw() as u64).rotate_left(32)
        ^ seq.rotate_left(16)
        ^ retries as u64;
    let mut rng = simkit::SimRng::derive(key, "rto-jitter");
    base + SimDuration::from_nanos(rng.below(base.as_nanos() / 16 + 1))
}

fn arm_retransmit(provider: &Provider, vi_id: ViId, seq: u64) {
    arm_retransmit_at(provider, vi_id, seq, provider.core.sim.now());
}

/// Arm the retransmission timer as if the last fragment hit the wire at
/// `wire_at` (equal to "now" on the general path, where arming runs inside
/// the wire-handoff event; the fused sender arms from post time with its
/// precomputed wire instant). The timeout quote is stable across the gap:
/// the fuse guard admits no other in-flight send, so no ACK can resample
/// the RTO estimator inside the window.
pub(crate) fn arm_retransmit_at(provider: &Provider, vi_id: ViId, seq: u64, wire_at: SimTime) {
    let p = provider.clone();
    let (retries, timeout) = {
        let st = provider.lock();
        let retries = st
            .try_vi(vi_id)
            .and_then(|vi| vi.send_inflight.iter().find(|i| i.seq == seq))
            .map_or(0, |inf| inf.retries);
        (
            retries,
            retx_timeout_for(provider, &st, vi_id, seq, retries),
        )
    };
    if retries > 0 {
        trace_at(
            provider,
            wire_at,
            TracePoint::RtoBackoff,
            tx_msg(provider, vi_id, seq),
            timeout.as_nanos(),
        );
    }
    // A cancellable timer: the ACK path cancels it on arrival instead of
    // letting a dead closure ride the heap until the timeout elapses.
    let handle = provider
        .core
        .sim
        .timer_at(EventClass::Retransmit, wire_at + timeout, move |_| {
            let action = {
                let mut st = p.lock();
                let Some(vi) = st.try_vi_mut(vi_id) else {
                    return;
                };
                match vi.send_inflight.iter_mut().find(|i| i.seq == seq) {
                    Some(inf) if !inf.done => {
                        inf.retx_timer = None; // this firing consumed it
                        inf.retries += 1;
                        if inf.retries > p.core.profile.data.max_retries {
                            RetxAction::Fail
                        } else {
                            st.stats.retransmissions += 1;
                            RetxAction::Resend
                        }
                    }
                    _ => return, // acked or gone
                }
            };
            match action {
                RetxAction::Fail => {
                    fail_connection(&p, vi_id, crate::vi::ErrorCause::RetryExhausted)
                }
                RetxAction::Resend => {
                    trace_at(
                        &p,
                        p.core.sim.now(),
                        TracePoint::Retransmit,
                        tx_msg(&p, vi_id, seq),
                        0,
                    );
                    nic_enqueue(&p, TxJobRef { vi: vi_id, seq });
                }
            }
        });
    keep_timer(
        provider,
        handle,
        |st| {
            let inf = st
                .try_vi_mut(vi_id)?
                .send_inflight
                .iter_mut()
                .find(|i| i.seq == seq)?;
            if inf.retries == 0 && inf.first_tx_at.is_none() {
                // Last fragment of the first transmission (just) hit the
                // wire: the Karn-eligible RTT clock starts here.
                inf.first_tx_at = Some(wire_at);
            }
            Some(&mut inf.retx_timer)
        },
        |stats| &mut stats.retx_timers_armed,
    );
}

/// Store a just-armed timer in the slot `slot` finds and count it in
/// `armed`. With no slot left — the VI or its entry went away between the
/// decision to arm and here — the timer would fire dead, so it is taken
/// right back out of the queue instead.
pub(crate) fn keep_timer(
    provider: &Provider,
    handle: TimerHandle,
    slot: impl FnOnce(&mut ProviderState) -> Option<&mut Option<TimerHandle>>,
    armed: impl FnOnce(&mut ProviderStats) -> &mut u64,
) {
    let mut st = provider.lock();
    match slot(&mut st) {
        Some(slot) => {
            *slot = Some(handle);
            *armed(&mut st.stats) += 1;
        }
        None => {
            drop(st);
            handle.cancel();
        }
    }
}

enum RetxAction {
    Fail,
    Resend,
}

/// The connection is dead (retry exhaustion, keepalive expiry, or a
/// device/host fault). The VIA spec's VI error state machine: the VI
/// transitions to Error, **every** outstanding descriptor — in-flight
/// sends *and* posted receives — is flushed to its completion queue with
/// an error status, and new posts are refused until the application
/// disconnects and reconnects. `cause` is recorded in the error state so
/// recovery layers can tell a dead path from a dead peer. The sends are
/// flushed by the reset a clean teardown shares
/// ([`ViState::reset_connection`](crate::vi::ViState::reset_connection));
/// the receives only here.
pub(crate) fn fail_connection(provider: &Provider, vi_id: ViId, cause: crate::vi::ErrorCause) {
    let now = provider.core.sim.now();
    {
        let mut st = provider.lock();
        let Some(vi) = st.try_vi_mut(vi_id) else {
            return;
        };
        if matches!(vi.conn, ConnState::Error { .. }) {
            return; // several exhausted timers can race to the same verdict
        }
        let reset = vi.reset_connection(ConnState::Error { cause });
        let flushed: Vec<Completion> = vi
            .recv_posted
            .drain(..)
            .map(|desc| Completion::failed(desc.op, ViaError::ConnectionLost))
            .collect();
        st.stats.count_reset(&reset);
        st.stats.conn_failures += 1;
        if let Some(tracer) = provider.core.tracer.get() {
            let node = provider.core.node.0;
            let total = (reset.lost.len() + flushed.len()) as u64;
            tracer.record(now, TracePoint::ViError, node, None, total);
            for _ in &reset.lost {
                tracer.record(now, TracePoint::ViFlush, node, None, 0);
            }
            for _ in &flushed {
                tracer.record(now, TracePoint::ViFlush, node, None, 1);
            }
        }
        for c in reset.lost {
            deliver_completion(provider, &mut st, vi_id, QueueKind::Send, c);
        }
        for c in flushed {
            deliver_completion(provider, &mut st, vi_id, QueueKind::Recv, c);
        }
    }
    wake_stranded_waiters(provider, vi_id);
}

/// Wake any process still parked in a queue wait on a VI that just left
/// `Connected`. Runs *after* the flush completions are delivered, so a
/// waiter the delivery path already woke (and consumed) is not double
/// signalled: on the no-fault paths of the existing benchmarks this finds
/// both waiter slots empty and schedules nothing — keeping those goldens
/// byte-identical. The wake carries no completion; a plain `queue_wait`
/// re-parks, while `queue_wait_conn` observes the state change and
/// returns `None` to its recovery-layer caller.
pub(crate) fn wake_stranded_waiters(provider: &Provider, vi_id: ViId) {
    let mut tokens = [None, None];
    {
        let mut st = provider.lock();
        let Some(vi) = st.try_vi_mut(vi_id) else {
            return;
        };
        if !matches!(vi.conn, ConnState::Connected { .. }) {
            tokens = vi
                .queues
                .each_mut()
                .map(|q| q.waiter.take().map(|(t, _)| t));
        }
    }
    for t in tokens.into_iter().flatten() {
        provider.core.sim.wake(t);
    }
}

// ---------------------------------------------------------------------
// Completion delivery.
// ---------------------------------------------------------------------

pub(crate) fn complete_send(provider: &Provider, vi_id: ViId, seq: u64, status: ViaResult<()>) {
    trace_at(
        provider,
        provider.core.sim.now(),
        TracePoint::CqCompletion,
        tx_msg(provider, vi_id, seq),
        0,
    );
    let mut st = provider.lock();
    let Some(vi) = st.try_vi_mut(vi_id) else {
        return;
    };
    let Some(pos) = vi.send_inflight.iter().position(|i| i.seq == seq) else {
        return;
    };
    let mut inf = vi.send_inflight.remove(pos).expect("position valid");
    if inf.retx_timer.take().is_some_and(|t| t.cancel()) {
        st.stats.retx_timers_cancelled += 1;
    }
    let comp = Completion {
        op: inf.desc.op,
        status,
        length: inf.total_len,
        immediate: None,
    };
    deliver_completion(provider, &mut st, vi_id, QueueKind::Send, comp);
}

/// Queue `comp` on the VI's `kind` work queue and signal whoever waits for
/// it: the process parked on the queue, then the associated CQ. Runs under
/// the caller's state guard — every handler that completes a descriptor
/// already holds it — and enters nothing but the scheduler (to post the
/// wake), never the provider state again.
pub(crate) fn deliver_completion(
    provider: &Provider,
    st: &mut ProviderState,
    vi_id: ViId,
    kind: QueueKind,
    comp: Completion,
) {
    let Some(vi) = st.try_vi_mut(vi_id) else {
        return;
    };
    let q = vi.queue(kind);
    q.completed.push_back(comp);
    let (waiter, cq) = (q.waiter.take(), q.cq);
    if let Some((token, mode)) = waiter {
        wake_waiter(provider, token, mode);
    }
    if let Some(cq) = cq {
        cq_notify(provider, cq, vi_id, kind);
    }
}

fn wake_waiter(provider: &Provider, token: WaitToken, mode: WaitMode) {
    match mode {
        // The poller notices the status flip as soon as it is written.
        WaitMode::Poll => provider.core.sim.wake(token),
        // The blocked process needs an interrupt.
        WaitMode::Block => {
            let intr = &provider.core.intr;
            trace_at(
                provider,
                provider.core.sim.now(),
                TracePoint::Interrupt,
                None,
                intr.latency().as_nanos(),
            );
            intr.deliver(&provider.core.sim, token);
        }
    }
}

fn cq_notify(provider: &Provider, cq: crate::types::CqId, vi: ViId, kind: QueueKind) {
    let p = provider.clone();
    let delay = provider.core.profile.data.cq_post;
    provider
        .core
        .sim
        .call_in_as(EventClass::Completion, delay, move |_| {
            let waiter = {
                let mut st = p.lock();
                let c = st.cq_mut(cq);
                if c.entries.len() >= c.depth {
                    c.overflows += 1;
                    // Attribute the lost notification to the VI that owns
                    // it, not just the shared queue's aggregate counter.
                    st.stats.cq_overflows += 1;
                    if let Some(v) = st.try_vi_mut(vi) {
                        v.cq_overflows += 1;
                    }
                    return;
                }
                c.entries.push_back((vi, kind));
                c.waiters.pop_front()
            };
            if let Some((token, mode)) = waiter {
                wake_waiter(&p, token, mode);
            }
        });
}

// ---------------------------------------------------------------------
// Receive path.
// ---------------------------------------------------------------------

/// Entry point for every frame the fabric delivers to this node. `src` is
/// the fabric's source node, used to reconstruct the sender's [`MsgId`] on
/// the receive side.
///
/// Takes the handle the SAN's hook built for this frame and hands it on to
/// the event the frame leads to (the landing, the ACK's processing), so a
/// frame costs one handle, not one per stage.
pub(crate) fn handle_frame(provider: Provider, sim: &Sim, src: NodeId, frame: Frame) {
    match frame {
        Frame::Conn(cf) => crate::connect::handle_conn_frame(&provider, sim, cf),
        Frame::Ack {
            dst_vi,
            seq,
            credit_total,
        } => {
            // The ACK names a message *this* node originated.
            trace_at(
                &provider,
                sim.now(),
                TracePoint::AckRx,
                tx_msg(&provider, dst_vi, seq),
                0,
            );
            let delay = provider.core.profile.data.ack_processing;
            sim.call_in_as(EventClass::Retransmit, delay, move |_| {
                handle_ack(&provider, dst_vi, seq, credit_total);
            });
        }
        Frame::RdmaRead(req) => rx_read_request(&provider, req),
        Frame::Data(df) => rx_data(sim, provider, src, df),
    }
}

/// Serve an RDMA-read request: validate, snapshot, and stream the response
/// through the normal transmit pipeline (as a synthetic in-flight entry).
fn rx_read_request(provider: &Provider, req: RdmaReadReq) {
    let ok = {
        let mut st = provider.lock();
        let valid = st.try_vi(req.dst_vi).is_some_and(|vi| {
            matches!(vi.conn, ConnState::Connected { .. })
                && rdma_permitted(
                    &st.mem,
                    &vi.attrs,
                    DescOp::RdmaRead,
                    MemHandle(req.remote_handle),
                    req.remote_va,
                    req.len,
                )
        });
        if !valid {
            st.stats.protection_errors += 1;
            false
        } else {
            st.stats.rdma_reads_served += 1;
            true
        }
    };
    if !ok {
        return;
    }
    // Build a synthetic in-flight entry on the responder VI whose "send"
    // streams the data back tagged as a read response.
    let seq = {
        let mut st = provider.lock();
        let data = st.mem.read(req.remote_va, req.len);
        let pages = pages_of_range(&st.mem, req.remote_va, req.len);
        let vi = st.vi_mut(req.dst_vi);
        let seq = vi.next_seq;
        vi.next_seq += 1;
        vi.send_inflight.push_back(InflightSend {
            seq,
            desc: Descriptor::send(), // synthetic; never completed to the user
            bufs: Arc::new(TxBuffers { data, pages }),
            total_len: req.len,
            kind: MsgKind::RdmaReadResp {
                req_seq: req.req_seq,
            },
            retries: 0,
            first_tx_at: None,
            done: true, // never produces a local completion
            retx_timer: None,
        });
        seq
    };
    nic_enqueue(
        provider,
        TxJobRef {
            vi: req.dst_vi,
            seq,
        },
    );
}

/// The VIA protection check on an inbound RDMA `op` (read or write) of
/// `[va, va + len)` under `handle`: the target VI and the registration must
/// both enable the operation, and the range must lie inside the region.
fn rdma_permitted(
    mem: &ProcessMem,
    vi: &ViAttributes,
    op: DescOp,
    handle: MemHandle,
    va: u64,
    len: u64,
) -> bool {
    let enabled = |read: bool, write: bool| if op == DescOp::RdmaRead { read } else { write };
    enabled(vi.enable_rdma_read, vi.enable_rdma_write)
        && mem.check_registered(handle, va, len).is_ok()
        && mem
            .attrs(handle)
            .is_ok_and(|a| enabled(a.enable_rdma_read, a.enable_rdma_write))
}

/// A data fragment arrived at the NIC: book its arrival, then land it as
/// its own event at the landing instant.
fn rx_data(sim: &Sim, provider: Provider, src: NodeId, df: DataFrame) {
    let Some(landed_at) = rx_arrived(sim, &provider, src, &df) else {
        return;
    };
    sim.call_at_as(EventClass::Firmware, landed_at, move |sim| {
        rx_landed(sim, provider, src, df)
    });
}

/// Everything a fragment's arrival does short of landing its bytes. Returns
/// the landing instant; `None` when the fragment is dropped (no such
/// connection, a duplicate).
fn rx_arrived(sim: &Sim, provider: &Provider, src: NodeId, df: &DataFrame) -> Option<SimTime> {
    let profile = &*provider.core.profile;
    let now = sim.now();
    let host_emulated = profile.data_path == DataPathKind::HostEmulated;
    let msg = rx_msg(src, df.src_vi, df.seq);

    // One visit to the state for the whole arrival: admission, dedup,
    // classification, the fragment's bookkeeping and its price. What must
    // run unlocked (the ACK, the landing) is decided here and done after.
    let mut first_frag_xlate = SimDuration::ZERO;
    let (ack_to, landed_at, cpu_charge) = {
        let mut st = provider.lock();
        if !matches!(st.try_vi(df.dst_vi)?.conn, ConnState::Connected { .. }) {
            return None;
        }
        // Reliable-mode dedup of fully delivered messages.
        if df.reliability != Reliability::Unreliable && st.vi(df.dst_vi).delivered.contains(df.seq)
        {
            if df.frag_idx == 0 {
                st.stats.duplicates_dropped += 1;
                let (peer_node, _) = st.vi(df.dst_vi).peer().expect("connected");
                drop(st);
                // Re-ACK: the original ACK may have been lost.
                send_ack(provider, peer_node, df.src_vi, df.seq, df.dst_vi);
            }
            return None;
        }

        if !st.vi(df.dst_vi).reassembly.contains_key(&df.seq) {
            // New message: retire dead unreliable reassemblies (an in-order
            // fabric means an older incomplete message can never finish).
            if df.reliability == Reliability::Unreliable {
                // Only reassemblies still missing *arrivals* are dead; ones
                // whose fragments are merely mid-DMA will finish normally.
                let stale = st.vi(df.dst_vi).stale_reassemblies(df.seq);
                for s in stale {
                    let r = st
                        .vi_mut(df.dst_vi)
                        .reassembly
                        .remove(&s)
                        .expect("key just listed");
                    st.stats.msgs_dropped_partial += 1;
                    if let RxTarget::Recv { desc, .. } = r.target {
                        let comp = Completion::failed(desc.op, ViaError::MessageDropped);
                        deliver_completion(provider, &mut st, df.dst_vi, QueueKind::Recv, comp);
                    }
                }
            }

            // Classify the new message and (for NIC offload) translate the
            // destination pages up front. (The over-long case inserts its
            // entry itself so it can keep the consumed descriptor.)
            // Reliable modes park out-of-order messages until the gap seq
            // arrives, and every parked message consumes a posted receive
            // descriptor. If out-of-order arrivals are allowed to drain the
            // pool to zero, the gap seq's retransmissions find no descriptor,
            // are discarded un-ACKed, and retry until exhaustion while the
            // receiving application — blocked on the in-order prefix — never
            // reposts: a permanent starvation cycle. Reserving the *last*
            // descriptor for the next in-order seq breaks the cycle: the gap
            // message can always land, releasing the parked prefix.
            let reserve_for_in_order = df.reliability != Reliability::Unreliable
                && matches!(df.kind, MsgKind::Send { .. })
                && st.vi(df.dst_vi).recv_posted.len() == 1
                && st
                    .vi(df.dst_vi)
                    .delivered
                    .highwater()
                    .map_or(df.seq != 0, |h| df.seq != h + 1);
            let target = match df.kind {
                MsgKind::Send { .. } if reserve_for_in_order => {
                    st.stats.recv_descriptor_reserved += 1;
                    RxTarget::Discard
                }
                MsgKind::Send { imm } => match st.vi_mut(df.dst_vi).recv_posted.pop_front() {
                    None => {
                        st.stats.recv_no_descriptor += 1;
                        RxTarget::Discard
                    }
                    Some(desc) if df.msg_len > desc.total_len() => {
                        st.vi_mut(df.dst_vi).reassembly.insert(
                            df.seq,
                            Reassembly {
                                target: RxTarget::Recv { desc, imm },
                                msg_len: df.msg_len,
                                frag_count: df.frag_count,
                                arrived: 0,
                                landed: 0,
                                seen: vec![false; df.frag_count as usize],
                                error: Some(ViaError::DescriptorError),
                                reliability: df.reliability,
                            },
                        );
                        RxTarget::Discard // placeholder; the real entry was inserted above
                    }
                    Some(desc) => {
                        if !host_emulated {
                            let pages = pages_of_desc(&st.mem, &desc);
                            first_frag_xlate = st.xlate.nic_translate_traced(
                                pages.into_iter(),
                                &provider.core.pci,
                                &provider.tracer(),
                                now,
                                provider.core.node.0,
                                Some(msg),
                            );
                        }
                        RxTarget::Recv { desc, imm }
                    }
                },
                MsgKind::RdmaWrite {
                    remote_va,
                    remote_handle,
                    imm,
                } => {
                    let allowed = rdma_permitted(
                        &st.mem,
                        &st.vi(df.dst_vi).attrs,
                        DescOp::RdmaWrite,
                        MemHandle(remote_handle),
                        remote_va,
                        df.msg_len,
                    );
                    if allowed {
                        if !host_emulated {
                            let pages = pages_of_range(&st.mem, remote_va, df.msg_len);
                            first_frag_xlate = st.xlate.nic_translate_traced(
                                pages.into_iter(),
                                &provider.core.pci,
                                &provider.tracer(),
                                now,
                                provider.core.node.0,
                                Some(msg),
                            );
                        }
                        RxTarget::Rdma {
                            base_va: remote_va,
                            imm,
                        }
                    } else {
                        st.stats.protection_errors += 1;
                        RxTarget::Discard
                    }
                }
                MsgKind::RdmaReadResp { req_seq } => {
                    if st
                        .vi(df.dst_vi)
                        .send_inflight
                        .iter()
                        .any(|i| i.seq == req_seq)
                    {
                        RxTarget::ReadResp { req_seq }
                    } else {
                        RxTarget::Discard
                    }
                }
            };
            st.vi_mut(df.dst_vi)
                .reassembly
                .entry(df.seq)
                .or_insert(Reassembly {
                    target,
                    msg_len: df.msg_len,
                    frag_count: df.frag_count,
                    arrived: 0,
                    landed: 0,
                    seen: vec![false; df.frag_count as usize],
                    error: None,
                    reliability: df.reliability,
                });
        }

        // Record the fragment's arrival.
        let (fully_arrived, ackable) = {
            let vi = st.vi_mut(df.dst_vi);
            let reass = vi.reassembly.get_mut(&df.seq).expect("just ensured");
            if reass.seen[df.frag_idx as usize] {
                return None; // duplicate fragment of a partial retransmission
            }
            reass.seen[df.frag_idx as usize] = true;
            reass.arrived += 1;
            // A message that consumed a descriptor (even in error) is ACKed;
            // discarded ones are not, so the sender retries.
            let ackable = !matches!(reass.target, RxTarget::Discard) || reass.error.is_some();
            (reass.arrived == reass.frag_count, ackable)
        };

        // Reliable Delivery ACKs when the message has fully *arrived at the
        // NIC* — before placement in memory.
        let ack_to = (fully_arrived && df.reliability == Reliability::ReliableDelivery && ackable)
            .then(|| st.vi(df.dst_vi).peer().expect("connected").0);

        // Price the fragment's journey to memory. Per-fragment receive
        // processing is serial on one engine (the kernel for host-emulated
        // VIA, the NIC processor for offload), so it occupies
        // rx_engine_busy; the DMA engine is a separate (PCI-arbitrated)
        // unit.
        let bytes = df.payload.len() as u64;
        let (landed_at, cpu_charge) = if host_emulated {
            let dma_end = provider.core.pci.reserve_at(now, bytes);
            let kernel = profile.data.kernel_rx_per_frag + profile.host.copy_time(bytes);
            let start = st.rx_engine_busy.max(dma_end);
            st.rx_engine_busy = start + kernel;
            (start + kernel, kernel)
        } else {
            let nic_work = profile.data.rx_frag_nic + first_frag_xlate;
            let end = st.rx_engine_busy.max(now) + nic_work;
            st.rx_engine_busy = end;
            (provider.core.pci.reserve_at(end, bytes), SimDuration::ZERO)
        };
        (ack_to, landed_at, cpu_charge)
    };

    if let Some(peer_node) = ack_to {
        send_ack(provider, peer_node, df.src_vi, df.seq, df.dst_vi);
    }
    if !cpu_charge.is_zero() {
        sim.charge(provider.core.cpu, cpu_charge);
    }
    Some(landed_at)
}

/// A fragment's bytes finished DMA into their destination.
fn rx_landed(sim: &Sim, provider: Provider, src: NodeId, df: DataFrame) {
    let completion_write = provider.core.profile.data.completion_write;

    enum Finish {
        /// Receive completions now deliverable, in sequence order (the
        /// reliable path releases the contiguous prefix; the unreliable
        /// path passes its single completion straight through).
        RecvCompletions(Vec<(u64, Completion)>),
        None,
    }

    let (finish, ack_rr, peer) = {
        let mut st = provider.lock();
        // Land the bytes: memory and the VI table are disjoint parts of
        // the state, so the descriptor is scattered through where it sits.
        {
            let ProviderState { mem, vis, .. } = &mut *st;
            let Some(vi) = vis.get(df.dst_vi.index()).and_then(|v| v.as_ref()) else {
                return;
            };
            let Some(reass) = vi.reassembly.get(&df.seq) else {
                return; // aborted (stale unreliable abort / teardown)
            };
            match &reass.target {
                RxTarget::Recv { desc, .. } if reass.error.is_none() => {
                    scatter(mem, desc, df.offset, &df.payload)
                }
                RxTarget::Rdma { base_va, .. } => mem.write(base_va + df.offset, &df.payload),
                RxTarget::ReadResp { req_seq } => {
                    if let Some(inf) = vi.send_inflight.iter().find(|i| i.seq == *req_seq) {
                        scatter(mem, &inf.desc, df.offset, &df.payload)
                    }
                }
                _ => {}
            }
        }

        // Count the landing; take the reassembly if it is the last one.
        let done = {
            let vi = st.vi_mut(df.dst_vi);
            let reass = vi.reassembly.get_mut(&df.seq).expect("checked above");
            reass.landed += 1;
            if reass.landed == reass.frag_count {
                vi.reassembly.remove(&df.seq)
            } else {
                None
            }
        };
        let Some(reass) = done else {
            return;
        };

        let reliable = reass.reliability != Reliability::Unreliable;
        let mut ack_rr = false;
        let mut bump_highwater = false;
        let completion = match reass.target {
            RxTarget::Recv { desc, imm } => {
                bump_highwater = reliable;
                ack_rr = reass.reliability == Reliability::ReliableReception;
                let status = match reass.error {
                    Some(e) => Err(e),
                    None => Ok(()),
                };
                if status.is_ok() {
                    st.stats.msgs_delivered += 1;
                }
                Some(Completion {
                    op: desc.op,
                    status,
                    length: reass.msg_len,
                    immediate: imm,
                })
            }
            RxTarget::Rdma { imm, .. } => {
                bump_highwater = reliable;
                ack_rr = reass.reliability == Reliability::ReliableReception;
                st.stats.rdma_writes_in += 1;
                match imm {
                    Some(imm) => match st.vi_mut(df.dst_vi).recv_posted.pop_front() {
                        Some(desc) => Some(Completion {
                            op: desc.op,
                            status: Ok(()),
                            length: reass.msg_len,
                            immediate: Some(imm),
                        }),
                        None => {
                            st.stats.recv_no_descriptor += 1;
                            None
                        }
                    },
                    None => None,
                }
            }
            RxTarget::ReadResp { req_seq } => {
                // RDMA-read responses complete a *send-queue* descriptor on
                // the initiator and bypass the recv-ordering machinery.
                drop(st);
                trace_at(
                    &provider,
                    sim.now(),
                    TracePoint::RecvLanded,
                    rx_msg(src, df.src_vi, df.seq),
                    df.msg_len,
                );
                let vi_id = df.dst_vi;
                sim.call_in_as(EventClass::Completion, completion_write, move |_| {
                    complete_send(&provider, vi_id, req_seq, Ok(()));
                });
                return;
            }
            RxTarget::Discard => None,
        };
        let finish = if !bump_highwater {
            // Unreliable: deliver immediately; no ordering guarantee.
            match completion {
                Some(c) => Finish::RecvCompletions(vec![(df.seq, c)]),
                None => Finish::None,
            }
        } else {
            // Reliable: the spec guarantees in-order delivery. Park the
            // completion, advance the contiguity tracker, and release the
            // whole contiguous prefix.
            let vi = st.vi_mut(df.dst_vi);
            if let Some(c) = completion {
                vi.parked_recv.insert(df.seq, c);
            }
            vi.delivered.mark(df.seq);
            let mut ready = Vec::new();
            if let Some(hw) = vi.delivered.highwater() {
                let release: Vec<u64> = vi.parked_recv.range(..=hw).map(|(&s, _)| s).collect();
                for s in release {
                    let c = vi.parked_recv.remove(&s).expect("listed");
                    ready.push((s, c));
                }
            }
            if ready.is_empty() {
                Finish::None
            } else {
                Finish::RecvCompletions(ready)
            }
        };
        let peer = st.vi(df.dst_vi).peer();
        (finish, ack_rr, peer)
    };

    if !matches!(finish, Finish::None) || ack_rr {
        trace_at(
            &provider,
            sim.now(),
            TracePoint::RecvLanded,
            rx_msg(src, df.src_vi, df.seq),
            df.msg_len,
        );
    }

    // Reliable Reception ACKs only after the data is in memory.
    if ack_rr {
        if let Some((peer_node, _)) = peer {
            send_ack(&provider, peer_node, df.src_vi, df.seq, df.dst_vi);
        }
    }
    match finish {
        Finish::RecvCompletions(comps) => {
            let vi_id = df.dst_vi;
            // A VI is point-to-point connected, so every parked completion
            // released here came from the same peer (node, VI).
            let src_vi = df.src_vi;
            sim.call_in_as(EventClass::Completion, completion_write, move |sim| {
                let p = &provider;
                let mut st = p.lock();
                for (seq, comp) in comps {
                    let msg = rx_msg(src, src_vi, seq);
                    trace_at(p, sim.now(), TracePoint::CqCompletion, msg, 1);
                    deliver_completion(p, &mut st, vi_id, QueueKind::Recv, comp);
                }
            });
        }
        Finish::None => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemAttributes;

    /// Every fragment boundary of a message, built the long way: the
    /// oracle the closed forms are tested against.
    fn fragments(len: u64, mtu: u32) -> Vec<(u64, u32)> {
        if len == 0 {
            return vec![(0, 0)];
        }
        let mtu = mtu as u64;
        let mut out = Vec::with_capacity(len.div_ceil(mtu) as usize);
        let mut off = 0;
        while off < len {
            let l = (len - off).min(mtu);
            out.push((off, l as u32));
            off += l;
        }
        out
    }

    #[test]
    fn fragment_boundaries() {
        assert_eq!(fragments(0, 1024), vec![(0, 0)]);
        assert_eq!(fragments(1, 1024), vec![(0, 1)]);
        assert_eq!(fragments(1024, 1024), vec![(0, 1024)]);
        assert_eq!(fragments(1025, 1024), vec![(0, 1024), (1024, 1)]);
        assert_eq!(
            fragments(3000, 1024),
            vec![(0, 1024), (1024, 1024), (2048, 952)]
        );
        // At BVIA's 4096-byte wire MTU.
        let mtu = crate::Profile::bvia().wire_mtu;
        assert_eq!(fragment_count(0, mtu), 1);
        assert_eq!(fragment_count(1, mtu), 1);
        assert_eq!(fragment_count(4096, mtu), 1);
        assert_eq!(fragment_count(4097, mtu), 2);
        assert_eq!(fragment_count(28672, mtu), 7);
    }

    #[test]
    fn closed_form_fragments_agree_with_the_boundary_list() {
        let mut rng = simkit::SimRng::derive(0xF4A6, "fragments");
        let check = |len: u64, mtu: u32| {
            let oracle = fragments(len, mtu);
            let count = fragment_count(len, mtu);
            let closed: Vec<_> = (0..count).map(|i| fragment_at(len, mtu, i)).collect();
            assert_eq!(closed, oracle, "len {len} mtu {mtu}");
        };
        for _ in 0..2_000 {
            let mtu = 1 + rng.below(9_000) as u32;
            // Around the multiples of the MTU, where an off-by-one hides.
            let edge = rng.below(40) * mtu as u64;
            for len in [rng.below(300_000), edge, edge + 1, edge.saturating_sub(1)] {
                check(len, mtu);
            }
        }
        check(0, 1);
        check(0, u32::MAX);
        check(u32::MAX as u64 + 7, u32::MAX);
    }

    /// One run of a world in which three partial unreliable messages are
    /// stranded on one VI at once: the first halves of messages 12, 11 and
    /// 10 arrive in that order (their second halves are lost, and newest
    /// first so that none retires another on arrival), then message 13
    /// arrives whole and retires all three. Returns everything the run
    /// lets an observer see.
    fn strand_three_partials() -> String {
        use crate::types::{Discriminator, ViAttributes};
        use crate::{Cluster, Profile};
        let sim = Sim::new();
        let cluster = Cluster::new(sim.clone(), Profile::clan(), 2, 7);
        let (a, b) = (cluster.provider(0), cluster.provider(1));
        let server = {
            let b = b.clone();
            sim.spawn("server", Some(b.cpu()), move |ctx| {
                let vi = b
                    .create_vi(ctx, ViAttributes::default(), None, None)
                    .unwrap();
                let buf = b.malloc(4 * 4096);
                let mh = b
                    .register_mem(ctx, buf, 4 * 4096, MemAttributes::default())
                    .unwrap();
                for i in 0..4 {
                    let desc = Descriptor::recv().segment(buf + i * 4096, mh, 4096);
                    vi.post_recv(ctx, desc).unwrap();
                }
                b.accept(ctx, &vi, Discriminator(9)).unwrap();
                let statuses: Vec<_> = (0..4)
                    .map(|_| vi.recv_wait(ctx, WaitMode::Poll).status)
                    .collect();
                (statuses, ctx.now())
            })
        };
        let client = {
            let (a, b) = (a.clone(), b.clone());
            sim.spawn("client", Some(a.cpu()), move |ctx| {
                let vi = a
                    .create_vi(ctx, ViAttributes::default(), None, None)
                    .unwrap();
                a.connect(ctx, &vi, NodeId(1), Discriminator(9), None)
                    .unwrap();
                // Stand in for the wire: hand node 1 the fragments a lossy,
                // reordering fabric would have delivered.
                let (src_vi, dst_vi) = (vi.id, a.with_vi(vi.id, |v| v.peer().unwrap().1));
                let fragment = move |seq, frag_count, len: usize| DataFrame {
                    src_vi,
                    dst_vi,
                    seq,
                    frag_idx: 0,
                    frag_count,
                    msg_len: len as u64 * frag_count as u64,
                    offset: 0,
                    payload: vec![seq as u8; len].into(),
                    kind: MsgKind::Send { imm: None },
                    reliability: Reliability::Unreliable,
                };
                ctx.sim().call_in(SimDuration::from_micros(50), move |sim| {
                    for df in [
                        fragment(12, 2, 2048),
                        fragment(11, 2, 2048),
                        fragment(10, 2, 2048),
                        fragment(13, 1, 64),
                    ] {
                        handle_frame(b.clone(), sim, NodeId(0), Frame::Data(df));
                    }
                });
            })
        };
        sim.run_to_completion();
        client.expect_result();
        let (statuses, done_at) = server.expect_result();
        assert_eq!(
            statuses,
            [
                Err(ViaError::MessageDropped),
                Err(ViaError::MessageDropped),
                Err(ViaError::MessageDropped),
                Ok(()),
            ]
        );
        let stats = cluster.provider(1).stats();
        assert_eq!(stats.msgs_dropped_partial, 3);
        assert_eq!(stats.msgs_delivered, 1);
        assert!(cluster.audit().is_clean());
        format!(
            "{statuses:?} at {done_at:?}: {stats:?} {:?}",
            sim.sched_stats()
        )
    }

    #[test]
    fn three_stranded_partials_drop_in_one_arrival_identically_every_run() {
        // The three drops complete inside one arrival, under one visit to
        // the provider state. The completions are indistinguishable from
        // outside (a `Completion` does not name its descriptor), which is
        // how retiring them in hash-seed order stayed latent; their order
        // is pinned by `vi::tests::stale_reassemblies_come_out_in_*`.
        let first = strand_three_partials();
        for _ in 1..20 {
            assert_eq!(strand_three_partials(), first);
        }
    }

    #[test]
    fn gather_scatter_roundtrip_multi_segment() {
        let mut mem = ProcessMem::new(4096);
        let a = mem.malloc(4096);
        let b = mem.malloc(4096);
        let ha = mem.register(a, 4096, MemAttributes::default()).unwrap();
        let hb = mem.register(b, 4096, MemAttributes::default()).unwrap();
        let src: Vec<u8> = (0..600).map(|i| (i % 251) as u8).collect();
        mem.write(a, &src[..200]);
        mem.write(b + 8, &src[200..]);
        let d = Descriptor::send()
            .segment(a, ha, 200)
            .segment(b + 8, hb, 400);
        let gathered = gather(&mem, &d);
        assert_eq!(gathered, src);

        // Scatter back into a different layout, in two pieces.
        let c = mem.malloc(4096);
        let hc = mem.register(c, 4096, MemAttributes::default()).unwrap();
        let d2 = Descriptor::recv()
            .segment(c, hc, 100)
            .segment(c + 1000, hc, 500);
        scatter(&mut mem, &d2, 0, &gathered[..250]);
        scatter(&mut mem, &d2, 250, &gathered[250..]);
        let mut out = mem.read(c, 100);
        out.extend(mem.read(c + 1000, 500));
        assert_eq!(out, src);
    }

    #[test]
    fn pages_of_desc_counts_straddles() {
        let mut mem = ProcessMem::new(4096);
        let a = mem.malloc(3 * 4096);
        let h = mem.register(a, 3 * 4096, MemAttributes::default()).unwrap();
        let d = Descriptor::send().segment(a + 4000, h, 200); // straddles a page
        assert_eq!(pages_of_desc(&mem, &d).len(), 2);
        let d0 = Descriptor::send(); // zero-length
        assert_eq!(pages_of_desc(&mem, &d0).len(), 1);
    }

    #[test]
    #[should_panic(expected = "overran")]
    fn scatter_overrun_panics() {
        let mut mem = ProcessMem::new(4096);
        let a = mem.malloc(4096);
        let h = mem.register(a, 4096, MemAttributes::default()).unwrap();
        let d = Descriptor::recv().segment(a, h, 10);
        scatter(&mut mem, &d, 0, &[0u8; 20]);
    }
}
