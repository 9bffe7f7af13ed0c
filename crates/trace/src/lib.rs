//! # trace — deterministic message-lifecycle tracing
//!
//! A structured event recorder for the simulated VIA stack. Every layer
//! boundary a message crosses — doorbell ring, firmware scan, descriptor
//! fetch, address translation, DMA, wire, ACK, completion, interrupt — can
//! emit a fixed-size [`Record`] stamped with *sim time* (never wall clock),
//! correlated across layers and nodes by a stable [`MsgId`]. Because all
//! stamps are virtual and all seeds are content-keyed, a trace of a given
//! workload is byte-for-byte reproducible.
//!
//! ## Cost model
//!
//! A [`Tracer`] is either *attached* (it holds shared state) or *disabled*
//! (it holds nothing). Disabled is the default everywhere: every
//! [`Tracer::record`] call is then a single `Option` branch, so the hot
//! path of an untraced run stays allocation- and lock-free (the baseline
//! perfbench's `trace.attached_overhead_pct` measures the attached path
//! against). When attached, lifecycle *counters* are always on, while full
//! span [`Record`]s go into a bounded ring buffer only when
//! [`TraceConfig::capture_spans`] is set.
//!
//! ## Consumers
//!
//! * [`chrome_trace_json`] renders records as Chrome trace-event JSON,
//!   loadable in Perfetto / `chrome://tracing`.
//! * [`Tracer::snapshot`] reads the point counters and the ring's overflow
//!   count in one go.
//! * The `vibe` suite crate derives per-stage latency tables from records
//!   (the X-TRACE experiment) and the X-BRK component breakdown from
//!   the same records.

#![warn(missing_docs)]

use std::sync::Arc;

use parking_lot::Mutex;
use simkit::SimTime;

/// Stable identity of one message across layers and nodes.
///
/// Correlation rule: a message is identified by the *sender's* coordinates
/// — the node that posted the send, the VI it was posted on, and the
/// sender-side sequence number. Receive-side records reconstruct the same
/// id from the frame header plus the fabric's source-node field, so tx and
/// rx records of one message always share a `MsgId`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct MsgId {
    /// Node that posted the send.
    pub src_node: u32,
    /// Sender-side VI index.
    pub vi: u32,
    /// Sender-side sequence number on that VI.
    pub seq: u64,
}

impl std::fmt::Display for MsgId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}/vi{}/s{}", self.src_node, self.vi, self.seq)
    }
}

/// A layer-boundary event in a message's lifetime.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum TracePoint {
    /// Descriptor validated and queued by `post_send`.
    SendPosted,
    /// Doorbell rung (MMIO write or kernel trap issued).
    DoorbellRing,
    /// NIC firmware picked the work queue up in its scan.
    FwScan,
    /// Descriptor DMA'd across the PCI bus into the NIC.
    DescFetch,
    /// Address translation served from NIC table / cache.
    XlateHit,
    /// Address translation missed the NIC cache (PTE fetched over PCI).
    XlateMiss,
    /// Payload DMA for one fragment began.
    DmaStart,
    /// Payload DMA for one fragment finished.
    DmaEnd,
    /// Fragment handed to the fabric.
    WireTx,
    /// Fragment delivered by the fabric to the destination NIC.
    WireRx,
    /// Fragment dropped by loss injection.
    WireDrop,
    /// Retransmit timer fired and the message was re-queued.
    Retransmit,
    /// ACK frame sent by the receiver.
    AckTx,
    /// ACK frame processed by the sender.
    AckRx,
    /// Last fragment landed in the receive buffer.
    RecvLanded,
    /// Completion written to a queue (send or receive side).
    CqCompletion,
    /// Interrupt delivered to wake a blocked waiter.
    Interrupt,
    /// A fault plan took a link (or the switch) down. aux = 1 for a node
    /// link, 2 for a switch brownout, 3 for a dead switch, 4 for a severed
    /// trunk, 6 for a node crash and 7 for a NIC reset.
    LinkDown,
    /// The fault window closed and the link (or switch) came back.
    LinkUp,
    /// Frame dropped by CRC-failure corruption injection (distinct from
    /// congestion/loss drops).
    FrameCorrupt,
    /// The adaptive RTO backed off after a retransmit; aux = the new
    /// timeout in nanoseconds.
    RtoBackoff,
    /// A VI transitioned to the Error state; aux = descriptors flushed.
    ViError,
    /// One outstanding descriptor flushed with error status during the
    /// Error transition; aux = 0 for a send, 1 for a receive.
    ViFlush,
    /// A reliable send was parked by credit-based flow control (no receiver
    /// credits available); aux = the parked sequence number.
    CreditStall,
    /// An ACK-carried credit update released a parked send back onto the
    /// transmit path; aux = the released sequence number.
    CreditGrant,
    /// The doorbell reached the device: the send entered the NIC's (or, on
    /// the host-emulated path, the kernel's) transmit queue.
    DevQueued,
    /// Send-side address translation finished; payload DMA may begin.
    /// Absent on the host-emulated path, which translates nothing.
    Translated,
}

impl TracePoint {
    /// Every point, in lifecycle order (fault/recovery points trail the
    /// message-lifecycle ones: new variants append so indices stay stable).
    pub const ALL: [TracePoint; 27] = [
        TracePoint::SendPosted,
        TracePoint::DoorbellRing,
        TracePoint::FwScan,
        TracePoint::DescFetch,
        TracePoint::XlateHit,
        TracePoint::XlateMiss,
        TracePoint::DmaStart,
        TracePoint::DmaEnd,
        TracePoint::WireTx,
        TracePoint::WireRx,
        TracePoint::WireDrop,
        TracePoint::Retransmit,
        TracePoint::AckTx,
        TracePoint::AckRx,
        TracePoint::RecvLanded,
        TracePoint::CqCompletion,
        TracePoint::Interrupt,
        TracePoint::LinkDown,
        TracePoint::LinkUp,
        TracePoint::FrameCorrupt,
        TracePoint::RtoBackoff,
        TracePoint::ViError,
        TracePoint::ViFlush,
        TracePoint::CreditStall,
        TracePoint::CreditGrant,
        TracePoint::DevQueued,
        TracePoint::Translated,
    ];

    /// The original message-lifecycle vocabulary (none of the points
    /// appended since) — the stable row set of the X-TRACE lifecycle-count
    /// table.
    pub const LIFECYCLE: [TracePoint; 17] = [
        TracePoint::SendPosted,
        TracePoint::DoorbellRing,
        TracePoint::FwScan,
        TracePoint::DescFetch,
        TracePoint::XlateHit,
        TracePoint::XlateMiss,
        TracePoint::DmaStart,
        TracePoint::DmaEnd,
        TracePoint::WireTx,
        TracePoint::WireRx,
        TracePoint::WireDrop,
        TracePoint::Retransmit,
        TracePoint::AckTx,
        TracePoint::AckRx,
        TracePoint::RecvLanded,
        TracePoint::CqCompletion,
        TracePoint::Interrupt,
    ];

    /// Dense index for counter arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            TracePoint::SendPosted => "send_posted",
            TracePoint::DoorbellRing => "doorbell_ring",
            TracePoint::FwScan => "fw_scan",
            TracePoint::DescFetch => "desc_fetch",
            TracePoint::XlateHit => "xlate_hit",
            TracePoint::XlateMiss => "xlate_miss",
            TracePoint::DmaStart => "dma_start",
            TracePoint::DmaEnd => "dma_end",
            TracePoint::WireTx => "wire_tx",
            TracePoint::WireRx => "wire_rx",
            TracePoint::WireDrop => "wire_drop",
            TracePoint::Retransmit => "retransmit",
            TracePoint::AckTx => "ack_tx",
            TracePoint::AckRx => "ack_rx",
            TracePoint::RecvLanded => "recv_landed",
            TracePoint::CqCompletion => "cq_completion",
            TracePoint::Interrupt => "interrupt",
            TracePoint::LinkDown => "link_down",
            TracePoint::LinkUp => "link_up",
            TracePoint::FrameCorrupt => "frame_corrupt",
            TracePoint::RtoBackoff => "rto_backoff",
            TracePoint::ViError => "vi_error",
            TracePoint::ViFlush => "vi_flush",
            TracePoint::CreditStall => "credit_stall",
            TracePoint::CreditGrant => "credit_grant",
            TracePoint::DevQueued => "dev_queued",
            TracePoint::Translated => "translated",
        }
    }

    /// True for points that mark a fault/recovery rather than forward
    /// progress — rendered as instant markers, not span boundaries.
    pub fn is_instant(self) -> bool {
        matches!(
            self,
            TracePoint::WireDrop
                | TracePoint::Retransmit
                | TracePoint::XlateMiss
                | TracePoint::XlateHit
                | TracePoint::Interrupt
                | TracePoint::LinkDown
                | TracePoint::LinkUp
                | TracePoint::FrameCorrupt
                | TracePoint::RtoBackoff
                | TracePoint::ViError
                | TracePoint::ViFlush
                | TracePoint::CreditStall
                | TracePoint::CreditGrant
        )
    }
}

/// One fixed-size trace record. 40 bytes, `Copy`, no heap.
///
/// The stamp is **sim time only** — wall-clock never enters a record, which
/// is what makes traces deterministic artifacts rather than diagnostics.
/// Records may be emitted with a future stamp (e.g. `DmaEnd` is written
/// when the DMA is priced, stamped at its completion time), so consumers
/// sort by `at_ns` rather than relying on insertion order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Record {
    /// Virtual timestamp, nanoseconds since sim start.
    pub at_ns: u64,
    /// Which boundary fired.
    pub point: TracePoint,
    /// Node the record was emitted on.
    pub node: u32,
    /// Message this record belongs to (`None` for unattributed events).
    pub msg: Option<MsgId>,
    /// Point-specific payload: bytes for DMA/wire points, page number for
    /// translation points, zero otherwise.
    pub aux: u64,
}

/// Per-run capture policy.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Capture full span records (counters are always on once attached).
    pub capture_spans: bool,
    /// Ring-buffer capacity in records; the oldest records are overwritten
    /// (and counted in [`Tracer::dropped`]) once the ring is full.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            capture_spans: true,
            capacity: 1 << 16,
        }
    }
}

/// Span-record ring plus always-on lifecycle counters.
struct TraceState {
    ring: Vec<Record>,
    /// Next write position when the ring is at capacity.
    head: usize,
    dropped: u64,
    counters: [u64; TracePoint::ALL.len()],
}

struct TraceInner {
    config: TraceConfig,
    state: Mutex<TraceState>,
}

/// Handle to a trace sink; cheap to clone and thread through every layer.
///
/// The default ([`Tracer::disabled`]) holds no state: `record` is a single
/// branch and nothing is retained.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TraceInner>>,
}

impl Tracer {
    /// A tracer that records nothing (the zero-overhead default).
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// An attached tracer with the given capture policy.
    pub fn new(config: TraceConfig) -> Self {
        Tracer {
            inner: Some(Arc::new(TraceInner {
                config,
                state: Mutex::new(TraceState {
                    ring: Vec::with_capacity(config.capacity.min(1 << 20)),
                    head: 0,
                    dropped: 0,
                    counters: [0; TracePoint::ALL.len()],
                }),
            })),
        }
    }

    /// True when attached to a sink.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Emit one record. A no-op (one branch) when disabled; when attached,
    /// the point counter always increments and the full record is kept only
    /// if [`TraceConfig::capture_spans`] is set.
    #[inline]
    pub fn record(&self, at: SimTime, point: TracePoint, node: u32, msg: Option<MsgId>, aux: u64) {
        let Some(inner) = &self.inner else {
            return;
        };
        let mut st = inner.state.lock();
        st.counters[point.index()] += 1;
        if !inner.config.capture_spans {
            return;
        }
        let rec = Record {
            at_ns: at.as_nanos(),
            point,
            node,
            msg,
            aux,
        };
        if st.ring.len() < inner.config.capacity {
            st.ring.push(rec);
        } else if inner.config.capacity > 0 {
            let head = st.head;
            st.ring[head] = rec;
            st.head = (head + 1) % inner.config.capacity;
            st.dropped += 1;
        } else {
            st.dropped += 1;
        }
    }

    /// Lifetime count of one point (0 when disabled).
    pub fn count(&self, point: TracePoint) -> u64 {
        match &self.inner {
            Some(inner) => inner.state.lock().counters[point.index()],
            None => 0,
        }
    }

    /// All point counters in [`TracePoint::ALL`] order.
    pub fn counters(&self) -> [u64; TracePoint::ALL.len()] {
        match &self.inner {
            Some(inner) => inner.state.lock().counters,
            None => [0; TracePoint::ALL.len()],
        }
    }

    /// Records overwritten (or discarded) because the ring was full.
    pub fn dropped(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.state.lock().dropped,
            None => 0,
        }
    }

    /// Copy of the retained records, oldest first (insertion order; sort by
    /// [`Record::at_ns`] for a chronological view — see [`Record`]).
    pub fn records(&self) -> Vec<Record> {
        match &self.inner {
            Some(inner) => {
                let st = inner.state.lock();
                let mut out = Vec::with_capacity(st.ring.len());
                out.extend_from_slice(&st.ring[st.head..]);
                out.extend_from_slice(&st.ring[..st.head]);
                out
            }
            None => Vec::new(),
        }
    }

    /// Discard retained records (counters keep accumulating).
    pub fn clear(&self) {
        if let Some(inner) = &self.inner {
            let mut st = inner.state.lock();
            st.ring.clear();
            st.head = 0;
        }
    }

    /// The single snapshot path: point counters and the ring's overflow
    /// count. Empty when disabled.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(inner) = &self.inner else {
            return MetricsSnapshot::default();
        };
        let st = inner.state.lock();
        MetricsSnapshot {
            points: TracePoint::ALL
                .iter()
                .map(|p| (p.name(), st.counters[p.index()]))
                .collect(),
            records_dropped: st.dropped,
        }
    }
}

/// Everything a tracer knows, read through one path ([`Tracer::snapshot`]).
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Lifecycle point counters, in [`TracePoint::ALL`] order.
    pub points: Vec<(&'static str, u64)>,
    /// Span records lost to ring overflow.
    pub records_dropped: u64,
}

/// Render records as Chrome trace-event JSON (the `{"traceEvents": [...]}`
/// envelope), loadable in Perfetto or `chrome://tracing`.
///
/// * Each node becomes a process (`pid` = node, named via metadata events).
/// * Each message becomes a track: consecutive records of one [`MsgId`]
///   (sorted by stamp) form `"X"` complete events named `a->b`, with
///   `tid` = the sender-side VI index.
/// * Fault points ([`TracePoint::is_instant`]) become `"i"` instant events
///   rather than span boundaries.
///
/// Timestamps are sim-nanoseconds rendered as microseconds with fixed
/// 3-digit precision, so output is deterministic for a given record set.
pub fn chrome_trace_json(records: &[Record]) -> String {
    let us = |ns: u64| format!("{}.{:03}", ns / 1_000, ns % 1_000);
    let mut events: Vec<String> = Vec::new();

    // Stable chronological order: stamp, then insertion order (sort is
    // stable, so equal stamps keep emission order).
    let mut sorted: Vec<&Record> = records.iter().collect();
    sorted.sort_by_key(|r| r.at_ns);

    // Process metadata: one per node seen.
    let mut nodes: Vec<u32> = sorted.iter().map(|r| r.node).collect();
    nodes.sort_unstable();
    nodes.dedup();
    for n in &nodes {
        events.push(format!(
            r#"{{"name":"process_name","ph":"M","pid":{n},"tid":0,"args":{{"name":"node {n}"}}}}"#
        ));
    }

    // Group span-boundary records per message, preserving order.
    let mut msgs: Vec<MsgId> = sorted.iter().filter_map(|r| r.msg).collect();
    msgs.sort_unstable();
    msgs.dedup();
    for id in &msgs {
        let chain: Vec<&&Record> = sorted
            .iter()
            .filter(|r| r.msg == Some(*id) && !r.point.is_instant())
            .collect();
        for pair in chain.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            events.push(format!(
                r#"{{"name":"{}->{}","cat":"msg","ph":"X","pid":{},"tid":{},"ts":{},"dur":{},"args":{{"msg":"{}","aux":{}}}}}"#,
                a.point.name(),
                b.point.name(),
                a.node,
                id.vi,
                us(a.at_ns),
                us(b.at_ns - a.at_ns),
                id,
                a.aux,
            ));
        }
    }

    // Instant markers (drops, retransmits, translation outcomes,
    // interrupts) — scoped to their thread when attributed to a message.
    for r in &sorted {
        if !r.point.is_instant() {
            continue;
        }
        let (tid, msg) = match r.msg {
            Some(id) => (id.vi, format!("{id}")),
            None => (0, String::new()),
        };
        events.push(format!(
            r#"{{"name":"{}","cat":"mark","ph":"i","s":"t","pid":{},"tid":{},"ts":{},"args":{{"msg":"{}","aux":{}}}}}"#,
            r.point.name(),
            r.node,
            tid,
            us(r.at_ns),
            msg,
            r.aux,
        ));
    }

    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(&events.join(",\n"));
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at: u64, point: TracePoint, node: u32, seq: u64) -> Record {
        Record {
            at_ns: at,
            point,
            node,
            msg: Some(MsgId {
                src_node: 0,
                vi: 1,
                seq,
            }),
            aux: 0,
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        t.record(SimTime::ZERO, TracePoint::WireTx, 0, None, 0);
        assert!(!t.enabled());
        assert_eq!(t.count(TracePoint::WireTx), 0);
        assert!(t.records().is_empty());
        assert!(t.snapshot().points.is_empty());
    }

    #[test]
    fn counters_accumulate_without_span_capture() {
        let t = Tracer::new(TraceConfig {
            capture_spans: false,
            capacity: 0,
        });
        for _ in 0..5 {
            t.record(SimTime::ZERO, TracePoint::DoorbellRing, 0, None, 0);
        }
        assert_eq!(t.count(TracePoint::DoorbellRing), 5);
        assert!(t.records().is_empty(), "spans must be gated off");
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let t = Tracer::new(TraceConfig {
            capture_spans: true,
            capacity: 3,
        });
        for i in 0..5u64 {
            t.record(SimTime::from_nanos(i), TracePoint::WireTx, 0, None, i);
        }
        assert_eq!(t.dropped(), 2);
        let recs = t.records();
        assert_eq!(recs.len(), 3);
        // Oldest two (aux 0, 1) were overwritten; order is oldest-first.
        assert_eq!(
            recs.iter().map(|r| r.aux).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn msgid_correlates_across_nodes() {
        let t = Tracer::new(TraceConfig::default());
        let id = MsgId {
            src_node: 0,
            vi: 3,
            seq: 7,
        };
        t.record(SimTime::from_nanos(10), TracePoint::WireTx, 0, Some(id), 64);
        t.record(SimTime::from_nanos(90), TracePoint::WireRx, 1, Some(id), 64);
        let recs = t.records();
        assert_eq!(recs[0].msg, recs[1].msg);
        assert_eq!(format!("{id}"), "n0/vi3/s7");
    }

    #[test]
    fn chrome_export_builds_spans_and_instants() {
        let records = vec![
            rec(100, TracePoint::SendPosted, 0, 1),
            rec(300, TracePoint::DoorbellRing, 0, 1),
            rec(2_500, TracePoint::WireTx, 0, 1),
            Record {
                at_ns: 2_600,
                point: TracePoint::WireDrop,
                node: 0,
                msg: Some(MsgId {
                    src_node: 0,
                    vi: 1,
                    seq: 1,
                }),
                aux: 64,
            },
            rec(9_000, TracePoint::WireRx, 1, 1),
        ];
        let json = chrome_trace_json(&records);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains(r#""name":"send_posted->doorbell_ring""#));
        assert!(json.contains(r#""name":"wire_tx->wire_rx""#));
        assert!(json.contains(r#""ph":"X""#));
        // The drop is an instant marker, never a span boundary.
        assert!(json.contains(r#""name":"wire_drop","cat":"mark","ph":"i""#));
        assert!(!json.contains("wire_drop->"));
        // ts is microseconds with fixed sub-us digits: 2500 ns -> 2.500.
        assert!(json.contains(r#""ts":2.500"#));
        // Deterministic: same records, same bytes.
        assert_eq!(json, chrome_trace_json(&records));
    }

    #[test]
    fn future_dated_records_sort_into_place() {
        // DmaEnd is emitted before WireTx but stamped later than DmaStart;
        // the exporter must order by stamp.
        let records = vec![
            rec(100, TracePoint::DmaStart, 0, 1),
            rec(900, TracePoint::DmaEnd, 0, 1),
            rec(500, TracePoint::DescFetch, 0, 1),
        ];
        let json = chrome_trace_json(&records);
        // Chronological chain: dma_start(100) -> desc_fetch(500) -> dma_end(900).
        assert!(json.contains(r#""name":"dma_start->desc_fetch""#));
        assert!(json.contains(r#""name":"desc_fetch->dma_end""#));
        assert!(!json.contains(r#""name":"dma_end->desc_fetch""#));
        assert!(json.contains(r#""dur":0.400"#));
    }
}
