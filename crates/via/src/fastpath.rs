//! The fused message-lifecycle fast path.
//!
//! An unfused single-fragment send costs seven engine events end to end:
//! doorbell propagation, firmware scan, descriptor-fetch DMA, NIC address
//! translation, fragment DMA + wire handoff (all `Firmware`-class), the
//! fabric forward hop, and the receive-side landing. Every stage's delay
//! is a pure function of state that is fully determined at post time
//! *provided nothing else can interleave* — so when a guard proves the
//! pipeline uncontended, the sender's stages up to the wire handoff
//! collapse into straight-line arithmetic executed inside the posting
//! call: one macro-event on the sender. The fabric may fold the forward
//! hop as well; the receive-side landing always runs as its own event
//! (see `transport::rx_data`).
//!
//! Exactness is the contract: a fused run must be byte-identical to the
//! unfused run in every committed artifact. The guards here are therefore
//! conservative — any whiff of contention, loss, faults, tracing, or
//! multi-fragment work falls back to the general event chain *before the
//! first side effect*, and each fallback is charged to a
//! [`DefuseCause`] so the X-PAR artifact can report why fusing missed.
//! Elided events are credited to the engine's logical ledger
//! ([`simkit::Sim::note_elided`]), keeping the per-class event census —
//! and thus every golden — identical. Design notes: DESIGN.md §4.5.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use simkit::{DefuseCause, EventClass};

use crate::descriptor::DescOp;
use crate::provider::{Provider, TxJobRef};
use crate::transport::{arm_retransmit_at, complete_send, resolve_job, tx_msg};
use crate::transport::{JobPayload, LastAction};
use crate::types::ViId;
use crate::wire::{DataFrame, Frame, Window};

/// The global fuse knob: `VIBE_FUSE=0` disables fusing for the process
/// (default on). Read once; [`set_fuse`] overrides it afterwards.
fn knob() -> &'static AtomicBool {
    static KNOB: OnceLock<AtomicBool> = OnceLock::new();
    KNOB.get_or_init(|| {
        let on = std::env::var("VIBE_FUSE").map_or(true, |v| v != "0");
        AtomicBool::new(on)
    })
}

/// Whether the fused fast path is enabled (the `VIBE_FUSE` env knob,
/// overridable with [`set_fuse`]).
pub fn fuse_enabled() -> bool {
    knob().load(Ordering::Relaxed)
}

/// Enable or disable the fused fast path in-process. Used by the
/// equivalence property tests and the `fuse` bench group to compare fused
/// and general runs inside one process; runs must not be in flight when
/// the knob flips.
pub fn set_fuse(on: bool) {
    knob().store(on, Ordering::Relaxed);
}

/// Attempt the fused send: execute the entire transmit pipeline —
/// doorbell, firmware scan, descriptor fetch, translation, data DMA,
/// wire handoff — as straight-line arithmetic inside the posting call,
/// eliding one `Doorbell` and four `Firmware` events (the fabric forward
/// hop is folded by [`fabric::San::send_msg_at`] when it can prove
/// sole-writer ordering). Returns the de-fuse cause when any guard fails;
/// no side effect has happened in that case and the caller falls back to
/// the general event chain.
///
/// The caller has already pushed the in-flight entry and charged the
/// host-side post cost, exactly as on the general path.
pub(crate) fn try_fuse_send(
    provider: &Provider,
    vi_id: ViId,
    seq: u64,
    op: DescOp,
    total_len: u64,
    host_emulated: bool,
) -> Result<(), DefuseCause> {
    let profile = &provider.core.profile;
    if !fuse_enabled() {
        return Err(DefuseCause::Disabled);
    }
    // Host-emulated posts trap into the kernel and RDMA verbs have their
    // own placement paths; only the NIC-offload plain send fuses.
    if host_emulated || op != DescOp::Send {
        return Err(DefuseCause::Other);
    }
    if total_len > profile.wire_mtu as u64 {
        return Err(DefuseCause::MultiFragment);
    }
    let san = &provider.san;
    // Switch-scoped fault windows can reconverge routing mid-message —
    // the precomputed timing would silently ignore the moved path.
    if san.switch_faults_installed() {
        return Err(DefuseCause::Reroute);
    }
    // Multi-switch fabrics route hop by hop through buffered switch ports;
    // the straight-line arithmetic below assumes the one-switch traversal.
    if !san.is_single_switch() {
        return Err(DefuseCause::Topology);
    }
    // Node-scoped windows (node_down / nic_reset) can kill either endpoint
    // inside the precomputed envelope — wiping the very rings and timers
    // the fold's arithmetic assumed would survive. Attributed separately
    // from generic fault windows so X-CRASH's ledger names the culprit.
    if san.node_faults_installed() {
        return Err(DefuseCause::NodeFault);
    }
    // Loss could drop the frame (consuming RNG we must not touch early)
    // and fault plans perturb every stage; both void the precomputation.
    if !san.is_lossless() || san.faults_installed() {
        return Err(DefuseCause::FaultWindow);
    }
    let now = provider.core.sim.now();
    // Tracing hooks observe individual events; eliding any would change the
    // trace stream.
    if provider.observed() {
        return Err(DefuseCause::TraceAttached);
    }
    {
        let st = provider.lock();
        if !st.fw_stalls.is_empty() {
            return Err(DefuseCause::FaultWindow);
        }
        if st.nic_tx.busy || !st.nic_tx.queue.is_empty() || st.nic_tx.fused_until > now {
            return Err(DefuseCause::RingBusy);
        }
        // Anything that could claim the PCI bus or the wire between now
        // and the precomputed wire time makes the eager reservations
        // inexact: an active receive engine, pending reassemblies (more
        // fragments are inbound), other in-flight sends (their ACKs
        // arrive mid-window), or busy links.
        if st.rx_engine_busy > now {
            return Err(DefuseCause::Contention);
        }
        let Some(vi) = st.try_vi(vi_id) else {
            return Err(DefuseCause::Other);
        };
        if vi.send_inflight.len() > 1 || !vi.reassembly.is_empty() {
            return Err(DefuseCause::Contention);
        }
    }
    if !provider.core.pci.idle(now)
        || !san.uplink_idle(provider.core.node)
        || !san.downlink_idle(provider.core.node)
    {
        return Err(DefuseCause::Contention);
    }
    let Some(spec) = resolve_job(provider, &provider.lock(), &TxJobRef { vi: vi_id, seq }) else {
        return Err(DefuseCause::Other);
    };
    let JobPayload::Data(kind) = spec.payload else {
        return Err(DefuseCause::Other);
    };

    // All guards passed: run the pipeline's arithmetic. Each instant below
    // is exactly what the corresponding general-path event would compute,
    // because the guards proved no other actor can touch the resources
    // in between (tracing is off, so the general path's trace records are
    // no-ops and its untraced costs are the ones computed here).
    let t_ring = now + profile.doorbell.propagation();
    let scan = {
        let st = provider.lock();
        profile.firmware.service_delay(st.active_vis())
    };
    let t_scan = t_ring + scan;
    let fetch_end = provider.core.pci.reserve_at(t_scan, spec.desc_wire);
    let xlate_delay = {
        let mut st = provider.lock();
        let st = &mut *st;
        // Table fetches on a miss reserve the PCI bus internally; the bus
        // was idle and the descriptor fetch just claimed it through
        // `fetch_end`, so those reservations chain exactly as the general
        // translation stage (running at `fetch_end`) would chain them.
        st.xlate
            .nic_translate(spec.bufs.pages.iter().copied(), &provider.core.pci)
    };
    let t_xlate = fetch_end + xlate_delay;
    let dma_end = provider.core.pci.reserve_at(t_xlate, total_len);
    let t_wire = dma_end + profile.data.tx_frag_nic;

    let msg = tx_msg(provider, vi_id, seq);
    let frame = Frame::Data(DataFrame {
        src_vi: vi_id,
        dst_vi: spec.dst_vi,
        seq,
        frag_idx: 0,
        frag_count: 1,
        msg_len: total_len,
        offset: 0,
        payload: Window::new(spec.bufs, 0, total_len as u32),
        kind,
        reliability: spec.reliability,
    });
    san.send_msg_at(
        provider.core.node,
        spec.dst_node,
        total_len as u32 + profile.frag_header_bytes,
        Box::new(frame),
        Some(msg),
        t_wire,
    );
    {
        let mut st = provider.lock();
        st.stats.msgs_sent += 1;
        // The device is logically occupied until the wire handoff; a
        // follower posted inside this window queues behind it exactly as
        // behind a busy ring (see `transport::nic_enqueue`).
        st.nic_tx.fused_until = t_wire;
        st.nic_tx.release_scheduled = false;
    }
    match spec.on_last {
        LastAction::ArmRetx => arm_retransmit_at(provider, vi_id, seq, t_wire),
        LastAction::CompleteLocal => {
            let p = provider.clone();
            provider.core.sim.call_at_as(
                EventClass::Completion,
                t_wire + profile.data.completion_write,
                move |_| complete_send(&p, vi_id, seq, Ok(())),
            );
        }
        // AlreadyCompleted is host-emulated only; Nothing is RDMA-read
        // only. Both were filtered above.
        LastAction::AlreadyCompleted | LastAction::Nothing => unreachable!(),
    }
    let sim = &provider.core.sim;
    sim.note_macro();
    sim.note_fuse_hit();
    sim.note_elided(EventClass::Doorbell, 1);
    sim.note_elided(EventClass::Firmware, 4);
    Ok(())
}
