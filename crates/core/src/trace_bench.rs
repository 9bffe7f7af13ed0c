//! X-TRACE: trace-derived per-stage latency and lifecycle counters, and the
//! traced one-way stream X-BRK ([`crate::breakdown`]) reads too.
//!
//! Both experiments follow one warm message through the `trace` crate's
//! layer-boundary records — doorbell, firmware scan, descriptor fetch,
//! DMA, wire, landing, completion — of the same run ([`traced_stream`]) and
//! name the instants they subtract with one vocabulary ([`Cut`]); they
//! differ only in which cuts a row spans and in how a stage an
//! architecture skips reads (X-TRACE: a zero-duration row, so every
//! nanosecond stays attributed; X-BRK: the row contributes nothing).

use std::io::Write as _;

use simkit::{SimDuration, WaitMode};
use trace::{chrome_trace_json, MsgId, Record, TraceConfig, TracePoint};
use via::{registered, Descriptor, Profile};

use crate::harness::{DtConfig, Pair, Stream};
use crate::report::Table;

/// A traced one-way message stream: the full record set, the id of the
/// followed message, and the metrics snapshot of the run.
pub struct TracedRun {
    /// Every span record the run captured, in ring order.
    pub records: Vec<Record>,
    /// [`MsgId`] of the followed message: the last one the client posted.
    pub msg: MsgId,
    /// Lifecycle point counters at end of run.
    pub snapshot: trace::MetricsSnapshot,
    /// Engine events the traced world fired ([`simkit::SchedStats::fired`]).
    pub events: u64,
}

/// Messages a [`traced_stream`] sends; the last is the one followed, by
/// which time caches are warm and queues quiet.
const STREAM_MSGS: usize = 3;

/// Stream `STREAM_MSGS` one-way messages of `size` bytes on `profile`
/// with tracing enabled, spaced so that no two messages' timelines overlap.
pub fn traced_stream(profile: Profile, size: u64) -> TracedRun {
    let cfg = DtConfig {
        iters: 4,
        warmup: 0,
        ..DtConfig::base(profile, size)
    };
    let pair = Pair::new(&cfg);
    let tracer = pair.enable_trace(TraceConfig::default());
    let total = STREAM_MSGS;
    let scfg = cfg.clone();
    let ccfg = cfg.clone();
    pair.run(
        move |ctx, ep| {
            let cfg = scfg;
            let (buf, mh) = registered(ctx, &ep.provider, cfg.msg_size.max(1));
            for _ in 0..total {
                ep.vi
                    .post_recv(
                        ctx,
                        Descriptor::recv().segment(buf, mh, cfg.msg_size as u32),
                    )
                    .unwrap();
            }
            ep.sync(ctx);
            for _ in 0..total {
                let c = ep.vi.recv_wait(ctx, WaitMode::Poll);
                assert!(c.is_ok());
            }
        },
        move |ctx, ep| {
            let cfg = ccfg;
            let (buf, mh) = registered(ctx, &ep.provider, cfg.msg_size.max(1));
            ep.sync(ctx);
            let mut s = Stream::new(&ep.vi, 1, WaitMode::Poll);
            for _ in 0..total {
                s.post(
                    ctx,
                    Descriptor::send().segment(buf, mh, cfg.msg_size as u32),
                )
                .unwrap();
                // Space messages so timelines never overlap.
                ctx.sleep(SimDuration::from_millis(2));
            }
        },
    );
    let records = tracer.records();
    // The followed message is the last send the client posted.
    let mut posts: Vec<&Record> = records
        .iter()
        .filter(|r| r.point == TracePoint::SendPosted && r.node == 0)
        .collect();
    posts.sort_by_key(|r| r.at_ns);
    let msg = posts
        .get(STREAM_MSGS - 1)
        .and_then(|r| r.msg)
        .expect("followed message was posted");
    TracedRun {
        records,
        msg,
        snapshot: tracer.snapshot(),
        events: pair.sim().sched_stats().fired,
    }
}

/// An instant on a message's journey that a stage table can cut at.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Cut {
    /// `post_send` queued the descriptor.
    Posted,
    /// The doorbell was rung.
    Doorbell,
    /// The doorbell reached the device's transmit queue.
    DevQueued,
    /// The firmware's scan picked the queue up.
    FwScanned,
    /// The descriptor crossed the PCI bus.
    DescFetched,
    /// Send-side address translation finished.
    Translated,
    /// The first fragment's payload DMA began.
    FirstDma,
    /// The first fragment went onto the wire.
    FirstWireTx,
    /// The last fragment went onto the wire.
    LastWireTx,
    /// The last fragment reached the destination NIC.
    LastWireRx,
    /// The last fragment landed in the receive buffer.
    Landed,
    /// The receive completion was written.
    RecvCompleted,
}

impl TracedRun {
    /// Absolute ns at which the followed message crossed `cut`; `None` where
    /// the architecture skips that stage (e.g. the firmware scan on M-VIA).
    pub fn cut(&self, cut: Cut) -> Option<u64> {
        use TracePoint as P;
        let (point, last) = match cut {
            Cut::Posted => (P::SendPosted, false),
            Cut::Doorbell => (P::DoorbellRing, false),
            Cut::DevQueued => (P::DevQueued, false),
            Cut::FwScanned => (P::FwScan, false),
            Cut::DescFetched => (P::DescFetch, false),
            Cut::Translated => (P::Translated, false),
            Cut::FirstDma => (P::DmaStart, false),
            Cut::FirstWireTx => (P::WireTx, false),
            Cut::LastWireTx => (P::WireTx, true),
            Cut::LastWireRx => (P::WireRx, true),
            Cut::Landed => (P::RecvLanded, true),
            Cut::RecvCompleted => (P::CqCompletion, true),
        };
        // `CqCompletion` marks both queues; aux 1 is the receive side.
        let at = self
            .records
            .iter()
            .filter(|r| r.msg == Some(self.msg) && r.point == point)
            .filter(|r| cut != Cut::RecvCompleted || r.aux == 1)
            .map(|r| r.at_ns);
        if last {
            at.max()
        } else {
            at.min()
        }
    }
}

/// X-TRACE's cuts in pipeline order; each stage row spans two neighbours.
const CUTS: [Cut; 10] = [
    Cut::Posted,
    Cut::Doorbell,
    Cut::FwScanned,
    Cut::DescFetched,
    Cut::FirstDma,
    Cut::FirstWireTx,
    Cut::LastWireTx,
    Cut::LastWireRx,
    Cut::Landed,
    Cut::RecvCompleted,
];

/// X-TRACE's stage-row labels, one per pair of neighbouring [`CUTS`].
const STAGE_LABELS: [&str; CUTS.len() - 1] = [
    "post -> doorbell",
    "doorbell -> firmware scan",
    "firmware scan -> desc fetched",
    "desc fetched -> first DMA",
    "first DMA -> first wire tx",
    "tx streaming (first -> last wire)",
    "wire + rx (last tx -> last rx)",
    "rx placement (last rx -> landed)",
    "landed -> recv completion",
];

const TOTAL_LABEL: &str = "TOTAL (post -> recv completion)";

/// Absolute ns of each [`CUTS`] entry for the followed message. A cut an
/// architecture skips inherits the previous cut's stamp, so skipped stages
/// read as zero-duration rows and every nanosecond stays attributed to
/// some row.
fn inherited_stamps(run: &TracedRun) -> [u64; CUTS.len()] {
    let mut prev = 0;
    CUTS.map(|cut| {
        prev = run.cut(cut).unwrap_or(prev);
        prev
    })
}

/// Both X-TRACE tables for `profiles` at `size` bytes, from one traced run
/// per profile: per-stage latency of the warm followed message, and the
/// run's lifecycle-point counters.
pub fn x_trace_tables(profiles: &[Profile], size: u64) -> (Table, Table) {
    let cols: Vec<String> = profiles.iter().map(|p| p.name.to_string()).collect();
    let mut stages = Table::new(
        format!("X-TRACE: trace-derived stage latency of one warm {size} B transfer (us)"),
        cols.clone(),
    );
    let mut counts = Table::new(
        format!("X-TRACE: lifecycle records of a {size} B one-way stream (count)"),
        cols,
    );
    let runs: Vec<TracedRun> = profiles
        .iter()
        .map(|p| traced_stream(p.clone(), size))
        .collect();
    let stamps: Vec<[u64; CUTS.len()]> = runs.iter().map(inherited_stamps).collect();
    let us_between = |from: usize, to: usize| -> Vec<f64> {
        stamps
            .iter()
            .map(|s| s[to].saturating_sub(s[from]) as f64 / 1_000.0)
            .collect()
    };
    for (i, label) in STAGE_LABELS.iter().enumerate() {
        stages.push(*label, us_between(i, i + 1));
    }
    stages.push(TOTAL_LABEL, us_between(0, CUTS.len() - 1));
    // The committed golden pins exactly the message-lifecycle rows; the
    // fault/recovery points (zero in this clean workload) are excluded.
    for point in TracePoint::LIFECYCLE {
        let cells: Vec<f64> = runs
            .iter()
            .map(|r| r.snapshot.points[point.index()].1 as f64)
            .collect();
        counts.push(point.name(), cells);
    }
    // The engine's own count; the label is the golden's (x-trace.json).
    counts.push(
        "engine events (hooked)",
        runs.iter().map(|r| r.events as f64).collect(),
    );
    (stages, counts)
}

/// Write one Perfetto/Chrome-loadable JSON trace per profile into `dir`
/// (created if needed); returns the written file names. Each trace is a
/// `size`-byte one-way stream, the same workload the X-TRACE tables use.
pub fn write_chrome_traces(dir: &std::path::Path, size: u64) -> std::io::Result<Vec<String>> {
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    for profile in Profile::paper_trio() {
        let name = format!("x_trace_{}_{size}b.json", profile.name.to_lowercase());
        let run = traced_stream(profile, size);
        let mut f = std::fs::File::create(dir.join(&name))?;
        f.write_all(chrome_trace_json(&run.records).as_bytes())?;
        written.push(name);
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_table_is_monotone_and_totals_add_up() {
        let (stages, counts) = x_trace_tables(&[Profile::bvia()], 4096);
        let col = "BVIA";
        let parts: f64 = STAGE_LABELS
            .iter()
            .map(|label| stages.cell(label, col).unwrap())
            .sum();
        let total = stages.cell(TOTAL_LABEL, col).unwrap();
        assert!(
            (parts - total).abs() < 1e-6,
            "rows {parts} != total {total}"
        );
        assert!(total > 10.0, "a 4 KiB transfer takes tens of us: {total}");
        // The full offload pipeline leaves records at every forward stage.
        for point in [
            "send_posted",
            "doorbell_ring",
            "fw_scan",
            "desc_fetch",
            "dma_start",
            "wire_tx",
            "wire_rx",
            "recv_landed",
            "cq_completion",
        ] {
            assert!(counts.cell(point, col).unwrap() > 0.0, "no {point} records");
        }
    }

    #[test]
    fn host_emulated_skips_device_stage_rows() {
        let (stages, counts) = x_trace_tables(&[Profile::mvia()], 1024);
        // M-VIA has no firmware scan or descriptor-fetch DMA: those rows
        // read zero, and no FwScan/DescFetch records exist at all.
        assert_eq!(
            stages.cell("firmware scan -> desc fetched", "M-VIA"),
            Some(0.0)
        );
        assert_eq!(counts.cell("fw_scan", "M-VIA"), Some(0.0));
        assert_eq!(counts.cell("desc_fetch", "M-VIA"), Some(0.0));
        // But the kernel-trap doorbell and the wire still leave records.
        assert!(counts.cell("doorbell_ring", "M-VIA").unwrap() > 0.0);
        assert!(counts.cell("wire_tx", "M-VIA").unwrap() > 0.0);
    }

    #[test]
    fn chrome_export_writes_loadable_json() {
        let dir = std::env::temp_dir().join("vibe_x_trace_test");
        let _ = std::fs::remove_dir_all(&dir);
        let files = write_chrome_traces(&dir, 4096).unwrap();
        assert_eq!(files.len(), 3);
        for f in &files {
            let body = std::fs::read_to_string(dir.join(f)).unwrap();
            assert!(
                body.starts_with("{\"traceEvents\":["),
                "{f}: not a chrome trace"
            );
            assert!(body.contains("\"ph\":\"X\""), "{f}: no spans");
            assert!(body.contains("process_name"), "{f}: no node metadata");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
