//! The measurement harness: connected pairs, buffer pools, and the three
//! measurement primitives the whole suite is built from — ping-pong
//! latency (§3.2's "standard ping-pong test"), streamed bandwidth
//! ("messages sent repeatedly … sender waits for the last message to be
//! acknowledged"), and request/reply transactions (§3.3.1).
//!
//! Every workload body in the suite is written from the same three steps:
//! a buffer from [`registered`], sends through the one windowed sender
//! ([`Stream`]), and — where a fault fails the connection — the VIA spec's
//! one recovery arc ([`standby`] on the server, [`reconnect_resend`] on
//! the client).

use fabric::NodeId;
use simkit::{CpuMeter, ProcessCtx, Samples, Sim, SimBarrier, SimTime, WaitMode};
use via::{
    registered, Cluster, Cq, Descriptor, Discriminator, MemHandle, Profile, Provider, Reliability,
    Vi, ViAttributes, ViaError, ViaResult,
};

pub use simkit::SimDuration;

/// The base RNG seed every suite measurement derives its streams from.
///
/// Determinism in this codebase is *content-keyed*: a measurement's RNG
/// streams come from `SimRng::derive(seed, label)` where the label names
/// *what* is being measured, never *when* or *on which thread*. That is
/// what lets the suite runner split an experiment into per-sweep-point
/// jobs without perturbing a single sample: wherever a point runs, it
/// derives the identical streams from this seed.
pub const BASE_SEED: u64 = 0x5EED;

/// The message sizes the paper's figures sweep (bytes).
pub fn paper_sizes() -> Vec<u64> {
    vec![4, 16, 64, 256, 1024, 4096, 12288, 20480, 28672]
}

/// Configuration of one data-transfer experiment. Each VIBe data-transfer
/// micro-benchmark is this struct with exactly one knob moved off the
/// base setup (§3.2.1's five base properties).
#[derive(Clone, Debug)]
pub struct DtConfig {
    /// Provider/interconnect under test.
    pub profile: Profile,
    /// Message size in bytes.
    pub msg_size: u64,
    /// Measured iterations.
    pub iters: u32,
    /// Unmeasured warmup iterations.
    pub warmup: u32,
    /// Polling or blocking completion waits.
    pub wait: WaitMode,
    /// Check receive completions through a CQ (§3.2.3) instead of the
    /// work queue.
    pub use_recv_cq: bool,
    /// Percentage of iterations that re-use the previous buffer
    /// (§3.2.2): 100 = the base setup's single buffer; 0 = a fresh buffer
    /// every iteration.
    pub reuse_percent: u32,
    /// Total VIs created on each node (§3.2.4); the test uses one of them.
    pub active_vis: usize,
    /// Data segments the message is split across (§3.2.5 MDS).
    pub segments: usize,
    /// Reliability level (§3.2.5 REL).
    pub reliability: Reliability,
    /// Outstanding sends during the bandwidth test (§3.2.5 PIP/ASY).
    pub queue_depth: usize,
    /// RNG seed for the run.
    pub seed: u64,
    /// Fabric shape joining the two nodes. `None` (the base setup) is the
    /// single-switch star; a multi-switch shape routes the pair's
    /// traffic hop by hop — the chaos suite uses this to exercise
    /// switch/trunk fault windows end to end.
    pub topology: Option<fabric::Topology>,
}

impl DtConfig {
    /// The §3.2.1 base setup: 100% buffer reuse, one data segment, no CQ,
    /// one VI connection, polling.
    pub fn base(profile: Profile, msg_size: u64) -> Self {
        DtConfig {
            profile,
            msg_size,
            iters: 40,
            warmup: 8,
            wait: WaitMode::Poll,
            use_recv_cq: false,
            reuse_percent: 100,
            active_vis: 1,
            segments: 1,
            reliability: Reliability::Unreliable,
            queue_depth: 16,
            seed: BASE_SEED,
            topology: None,
        }
    }
}

/// The two-letter name row and series labels give a reliability level.
pub(crate) fn rel_short(r: Reliability) -> &'static str {
    match r {
        Reliability::Unreliable => "UD",
        Reliability::ReliableDelivery => "RD",
        Reliability::ReliableReception => "RR",
    }
}

/// Latency/CPU measurement output.
#[derive(Clone, Copy, Debug)]
pub struct PingPongResult {
    /// One-way latency in microseconds (half the mean round trip).
    pub latency_us: f64,
    /// Client CPU utilization over the measured interval, in `[0,1]`.
    pub client_util: f64,
    /// Server CPU utilization over the measured interval.
    pub server_util: f64,
}

/// Bandwidth measurement output.
#[derive(Clone, Copy, Debug)]
pub struct BandwidthResult {
    /// Delivered bandwidth in MB/s (10^6 bytes per second).
    pub mbps: f64,
    /// Sender CPU utilization over the measured interval.
    pub client_util: f64,
}

/// A registered, page-aligned buffer pool cycled according to the reuse
/// percentage (the §3.2.2 knob). Deterministic: iteration `i` takes a
/// fresh buffer iff the running fresh-quota `ceil((i+1)·(100-r)/100)`
/// increased.
pub struct BufferPool {
    bufs: Vec<(u64, MemHandle)>,
    cursor: usize,
    fresh_used: u64,
    reuse_percent: u32,
}

impl BufferPool {
    /// Allocate and register `count` buffers of `size` bytes.
    pub fn build(
        ctx: &mut ProcessCtx,
        provider: &Provider,
        count: usize,
        size: u64,
        reuse_percent: u32,
    ) -> Self {
        assert!(count >= 1);
        assert!(reuse_percent <= 100);
        let bufs = (0..count)
            .map(|_| registered(ctx, provider, size.max(1)))
            .collect();
        BufferPool {
            bufs,
            cursor: 0,
            fresh_used: 0,
            reuse_percent,
        }
    }

    /// How many distinct buffers a run of `iters` iterations needs (capped
    /// so even 0% reuse stays within memory; the cap still overwhelms any
    /// 256-entry NIC translation cache).
    pub fn count_for(iters: u32, warmup: u32, reuse_percent: u32) -> usize {
        if reuse_percent >= 100 {
            return 1;
        }
        let fresh = ((iters + warmup) as u64 * (100 - reuse_percent) as u64).div_ceil(100);
        (fresh as usize + 1).min(512)
    }

    /// The buffer for iteration `i`.
    pub fn pick(&mut self, i: u64) -> (u64, MemHandle) {
        let quota = ((i + 1) * (100 - self.reuse_percent) as u64).div_ceil(100);
        if self.fresh_used < quota {
            self.fresh_used += 1;
            self.cursor = (self.cursor + 1) % self.bufs.len();
        }
        self.bufs[self.cursor]
    }
}

/// The one windowed sender every one-way stream body is built from: sends
/// on one VI with at most `depth` outstanding — a post that fills the
/// window reaps one completion before it returns, [`Stream::drain`] reaps
/// the rest — and the ledger the body reports from (read its fields; only
/// the methods update them). An error completion panics unless the stream
/// is [`Stream::tolerant`]; a depth of 1 is a self-paced sender (post,
/// then wait for that send).
pub struct Stream<'v> {
    vi: &'v Vi,
    depth: u64,
    wait: WaitMode,
    strict: bool,
    watch: SimTime,
    /// Sends the VI accepted.
    pub posted: u64,
    /// Completions reaped OK.
    pub ok: u64,
    /// Completions reaped with an error status.
    pub errored: u64,
    /// Sends accepted and not yet reaped.
    pub outstanding: u64,
    /// Of the errored, those flushed as `ConnectionLost` by the VI error
    /// state machine.
    pub conn_lost: u64,
    /// The first completion reaped at or after the [`Stream::watch`]
    /// instant (any completion, until one is set).
    pub first_after_watch: Option<SimTime>,
}

impl<'v> Stream<'v> {
    /// A sender on `vi` keeping `depth` sends outstanding, reaping with
    /// `wait`.
    pub fn new(vi: &'v Vi, depth: usize, wait: WaitMode) -> Self {
        Stream {
            vi,
            depth: depth as u64,
            wait,
            strict: true,
            watch: SimTime::ZERO,
            posted: 0,
            ok: 0,
            errored: 0,
            outstanding: 0,
            conn_lost: 0,
            first_after_watch: None,
        }
    }

    /// Count error completions in the ledger instead of panicking on them
    /// (the fault-injection bodies, whose VI is meant to fail).
    pub fn tolerant(mut self) -> Self {
        self.strict = false;
        self
    }

    /// Record in [`Stream::first_after_watch`] the first completion reaped
    /// from `at` on.
    pub fn watch(&mut self, at: SimTime) {
        self.watch = at;
        self.first_after_watch = None;
    }

    /// Post `desc`. An accepted send is counted and, if it fills the
    /// window, one completion is reaped before this returns; a refused one
    /// leaves the ledger untouched. Returns the post's own result, so a
    /// caller that expects no refusal unwraps it.
    pub fn post(&mut self, ctx: &mut ProcessCtx, desc: Descriptor) -> ViaResult<()> {
        self.vi.post_send(ctx, desc)?;
        self.posted += 1;
        self.outstanding += 1;
        if self.outstanding >= self.depth {
            self.wait_one(ctx);
        }
        Ok(())
    }

    /// Reap one send completion into the ledger.
    pub fn wait_one(&mut self, ctx: &mut ProcessCtx) {
        let c = self.vi.send_wait(ctx, self.wait);
        self.outstanding -= 1;
        if c.is_ok() {
            self.ok += 1;
        } else {
            assert!(!self.strict, "stream send: {:?}", c.status);
            self.errored += 1;
            self.conn_lost += u64::from(c.status == Err(ViaError::ConnectionLost));
        }
        if self.first_after_watch.is_none() && ctx.now() >= self.watch {
            self.first_after_watch = Some(ctx.now());
        }
    }

    /// Reap every outstanding completion.
    pub fn drain(&mut self, ctx: &mut ProcessCtx) {
        while self.outstanding > 0 {
            self.wait_one(ctx);
        }
    }
}

/// One endpoint of a prepared pair: the provider, the connected test VI,
/// the optional receive CQ, and the start barrier.
pub struct Endpoint {
    /// The node's provider.
    pub provider: Provider,
    /// The connected VI under test.
    pub vi: Vi,
    /// Receive CQ, when the experiment checks completions through a CQ.
    pub recv_cq: Option<Cq>,
    barrier: SimBarrier,
}

impl Endpoint {
    /// Rendezvous with the peer (call once, right before the measured loop).
    pub fn sync(&self, ctx: &mut ProcessCtx) {
        self.barrier.wait(ctx);
    }

    /// Wait for one receive completion, honoring the experiment's CQ
    /// setting: through the CQ when configured (CQ-notify then collect,
    /// as `VipCQDone`→`VipRecvDone`), else directly on the work queue.
    pub fn recv_one(&self, ctx: &mut ProcessCtx, mode: WaitMode) -> via::Completion {
        match &self.recv_cq {
            Some(cq) => {
                let (_vi, _kind) = cq.wait(ctx, mode);
                self.vi
                    .recv_done(ctx)
                    .expect("CQ signaled a completion that is not there")
            }
            None => self.vi.recv_wait(ctx, mode),
        }
    }

    /// One client iteration of a request/response exchange: post the reply
    /// receive, post the request, wait for the reply, then reap the send.
    /// Both completions must be OK.
    pub fn ping(&self, ctx: &mut ProcessCtx, wait: WaitMode, recv: Descriptor, send: Descriptor) {
        self.vi.post_recv(ctx, recv).unwrap();
        self.vi.post_send(ctx, send).unwrap();
        let c = self.recv_one(ctx, wait);
        assert!(c.is_ok(), "ping: reply {:?}", c.status);
        let c = self.vi.send_wait(ctx, wait);
        assert!(c.is_ok(), "ping: send {:?}", c.status);
    }

    /// One server iteration, the mirror of [`Endpoint::ping`]: wait for the
    /// request (its receive was posted by the previous iteration, the
    /// first one before the rendezvous), post `next_recv` *before* replying
    /// so the peer's next request finds a descriptor, send the reply, reap
    /// it. Both completions must be OK.
    pub fn pong(
        &self,
        ctx: &mut ProcessCtx,
        wait: WaitMode,
        next_recv: Option<Descriptor>,
        send: Descriptor,
    ) {
        let c = self.recv_one(ctx, wait);
        assert!(c.is_ok(), "pong: request {:?}", c.status);
        if let Some(recv) = next_recv {
            self.vi.post_recv(ctx, recv).unwrap();
        }
        self.vi.post_send(ctx, send).unwrap();
        let c = self.vi.send_wait(ctx, wait);
        assert!(c.is_ok(), "pong: send {:?}", c.status);
    }

    /// Build a one-segment (or `segments`-way split) descriptor over
    /// `(va, mh)` covering `len` bytes.
    pub fn split_desc(
        &self,
        op_recv: bool,
        va: u64,
        mh: MemHandle,
        len: u64,
        segments: usize,
    ) -> Descriptor {
        let mut d = if op_recv {
            Descriptor::recv()
        } else {
            Descriptor::send()
        };
        if len == 0 {
            return d;
        }
        let segs = segments.max(1) as u64;
        let chunk = len.div_ceil(segs);
        let mut off = 0;
        while off < len {
            let l = chunk.min(len - off);
            d = d.segment(va + off, mh, l as u32);
            off += l;
        }
        d
    }
}

/// The discriminator a failed connection is redialled on: the server's
/// [`standby`] VI listens here, beside the original connection's 1.
pub const RECONNECT: Discriminator = Discriminator(2);

/// Server half of the VIA spec's recovery arc: a standby VI of
/// `reliability` beside `ep.vi`, and `msgs` receives of `size` bytes
/// pre-posted on each (`ep.vi` first; a standby may take receives while
/// still Idle), each VI stopping at the first post its work queue refuses
/// — a shrunken queue leaves later messages descriptor-less, which a
/// reliable stream must surface as retry exhaustion. Accept the standby
/// on [`RECONNECT`] when the client redials. Returns the standby and the
/// receives posted on both.
pub fn standby(
    ctx: &mut ProcessCtx,
    ep: &Endpoint,
    reliability: Reliability,
    msgs: u64,
    size: u64,
) -> (Vi, u64) {
    let attrs = ViAttributes::reliable(reliability);
    let vi2 = ep
        .provider
        .create_vi(ctx, attrs, None, None)
        .expect("standby vi");
    let (buf, mh) = registered(ctx, &ep.provider, size);
    let mut posted = 0;
    for vi in [&ep.vi, &vi2] {
        for _ in 0..msgs {
            if vi
                .post_recv(ctx, ep.split_desc(true, buf, mh, size, 1))
                .is_err()
            {
                break;
            }
            posted += 1;
        }
    }
    (vi2, posted)
}

/// Client half of the recovery arc, once stream `s` has failed `ep.vi`:
/// disconnect (the spec's only exit from the Error state), sit out the
/// fault until `resume` (the connect handshake has no retransmission of
/// its own), redial the server's [`standby`], then re-send the `msgs −
/// s.ok` messages that never completed through the same sender. `send`
/// posts one message and returns false when the VI refused it; the resend
/// stops at the first refusal or new error completion and then drains.
/// Returns whether it ran clean; `s.first_after_watch` is then the first
/// completion after the reconnect.
pub fn reconnect_resend<'v>(
    ctx: &mut ProcessCtx,
    ep: &Endpoint,
    s: &mut Stream<'v>,
    resume: SimTime,
    msgs: u64,
    mut send: impl FnMut(&mut ProcessCtx, &mut Stream<'v>) -> bool,
) -> bool {
    ep.provider.disconnect(ctx, &ep.vi).expect("disconnect");
    let wait = resume.saturating_duration_since(ctx.now());
    if wait > SimDuration::ZERO {
        ctx.busy(wait);
    }
    ep.provider
        .connect(ctx, &ep.vi, NodeId(1), RECONNECT, None)
        .expect("reconnect");
    s.watch(ctx.now());
    let before = s.errored;
    let clean = (0..msgs - s.ok).all(|_| send(ctx, s) && s.errored == before);
    s.drain(ctx);
    clean && s.errored == before
}

/// Prepared two-node experiment: cluster + closures runner.
pub struct Pair {
    sim: Sim,
    cluster: Cluster,
    /// Cluster seed, kept to name the world if its audit fails.
    seed: u64,
    attrs: ViAttributes,
    active_vis: usize,
    use_recv_cq: bool,
}

impl Pair {
    /// Build a two-node cluster per `cfg`. The test VIs accept inbound
    /// RDMA reads whenever the profile implements them, so one harness
    /// serves the send/receive, RDMA-write, and get/put benchmarks alike.
    pub fn new(cfg: &DtConfig) -> Self {
        let sim = Sim::new();
        let cluster = match &cfg.topology {
            Some(topo) => {
                assert_eq!(topo.nodes(), 2, "a Pair needs a two-node topology");
                Cluster::new_topo(sim.clone(), cfg.profile.clone(), topo.clone(), cfg.seed)
            }
            None => Cluster::new(sim.clone(), cfg.profile.clone(), 2, cfg.seed),
        };
        let attrs = ViAttributes {
            enable_rdma_read: cfg.profile.supports_rdma_read,
            ..ViAttributes::reliable(cfg.reliability)
        };
        Pair {
            sim,
            cluster,
            seed: cfg.seed,
            attrs,
            active_vis: cfg.active_vis.max(1),
            use_recv_cq: cfg.use_recv_cq,
        }
    }

    /// The simulation handle.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// Attach a tracer to every layer of this pair's cluster (providers and
    /// fabric). Call before [`Pair::run`].
    pub fn enable_trace(&self, config: trace::TraceConfig) -> trace::Tracer {
        self.cluster.enable_trace(config)
    }

    /// Fabric frame counters (sent / delivered / dropped / bytes).
    pub fn san_stats(&self) -> fabric::SanStats {
        self.cluster.san().stats()
    }

    /// Install a scripted fault plan on the pair's fabric. Call before
    /// [`Pair::run`]; an empty plan leaves the timeline bit-identical to a
    /// fault-free run.
    pub fn install_faults(&self, plan: &fabric::FaultPlan) {
        self.cluster.san().install_faults(plan);
    }

    /// Clone of the fabric handle. Workload closures capture this to
    /// install fault windows timed relative to their own progress (VI
    /// setup and the connection handshake consume sim time, so absolute
    /// pre-run timestamps would land the fault in the wrong phase).
    pub fn san(&self) -> fabric::San {
        self.cluster.san().clone()
    }

    /// Provider counters for node `node` (0 = client, 1 = server).
    pub fn provider_stats(&self, node: usize) -> via::ProviderStats {
        self.cluster.provider(node).stats()
    }

    /// Run `server` on node 1 and `client` on node 0, each handed a
    /// connected [`Endpoint`], then audit the world ([`Cluster::audit`]).
    /// Extra VIs (beyond the test VI) are created first so the firmware's
    /// scan length matches §3.2.4's setup.
    pub fn run<S, C, RS, RC>(&self, server: S, client: C) -> (RS, RC)
    where
        S: FnOnce(&mut ProcessCtx, Endpoint) -> RS + Send + 'static,
        C: FnOnce(&mut ProcessCtx, Endpoint) -> RC + Send + 'static,
        RS: Send + 'static,
        RC: Send + 'static,
    {
        let barrier = SimBarrier::new(&self.sim, 2);
        let attrs = self.attrs;
        let extra = self.active_vis - 1;
        let use_cq = self.use_recv_cq;
        let (pa, pb) = (self.cluster.provider(0), self.cluster.provider(1));
        let sh = {
            let pb = pb.clone();
            let barrier = barrier.clone();
            self.sim.spawn("server", Some(pb.cpu()), move |ctx| {
                let recv_cq = if use_cq {
                    Some(pb.create_cq(ctx, 1024).expect("cq"))
                } else {
                    None
                };
                for _ in 0..extra {
                    pb.create_vi(ctx, attrs, None, None).expect("extra vi");
                }
                let vi = pb
                    .create_vi(ctx, attrs, None, recv_cq.as_ref())
                    .expect("vi");
                pb.accept(ctx, &vi, Discriminator(1)).expect("accept");
                let ep = Endpoint {
                    provider: pb,
                    vi,
                    recv_cq,
                    barrier,
                };
                server(ctx, ep)
            })
        };
        let ch = {
            let pa = pa.clone();
            let barrier = barrier.clone();
            self.sim.spawn("client", Some(pa.cpu()), move |ctx| {
                let recv_cq = if use_cq {
                    Some(pa.create_cq(ctx, 1024).expect("cq"))
                } else {
                    None
                };
                for _ in 0..extra {
                    pa.create_vi(ctx, attrs, None, None).expect("extra vi");
                }
                let vi = pa
                    .create_vi(ctx, attrs, None, recv_cq.as_ref())
                    .expect("vi");
                pa.connect(ctx, &vi, NodeId(1), Discriminator(1), None)
                    .expect("connect");
                let ep = Endpoint {
                    provider: pa,
                    vi,
                    recv_cq,
                    barrier,
                };
                client(ctx, ep)
            })
        };
        self.sim.run_to_completion();
        let out = (sh.expect_result(), ch.expect_result());
        let rel = rel_short(self.attrs.reliability);
        finish_world(
            &self.cluster,
            format_args!("{rel} pair, seed {}", self.seed),
        );
        out
    }
}

/// Finish a world whose run has quiesced: check every conservation law its
/// layers keep ([`Cluster::audit`]), panicking with each violation under
/// the world's name (`world`, its profile and topology), then roll its
/// storm trips, fault-dropped frames and crash wipes into the running
/// job's [`crate::runner::FabricHealth`]. Every world the suite builds ends
/// here.
pub(crate) fn finish_world(cluster: &Cluster, world: std::fmt::Arguments) {
    let audit = cluster.audit();
    assert!(
        audit.is_clean(),
        "{world} ({} on {}): conservation violated:\n  {}",
        cluster.profile().name,
        cluster.san().topology().name(),
        audit.violations.join("\n  ")
    );
    crate::runner::ledger(|h| {
        for p in cluster.san().port_stats() {
            h.storm_trips += p.stats.storm_trips;
        }
        h.fault_dropped += cluster.san().stats().frames_fault_dropped;
        for i in 0..cluster.nodes() {
            let s = cluster.provider(i).stats();
            h.node_crashes += s.node_crashes + s.nic_resets;
        }
    });
}

/// The §3.2 ping-pong test under `cfg`: returns one-way latency and both
/// sides' CPU utilization.
pub fn ping_pong(cfg: &DtConfig) -> PingPongResult {
    ping_pong_on(&Pair::new(cfg), cfg, false).0
}

/// [`ping_pong`] on a world the caller built from `cfg` (and can therefore
/// read counters from or watch being freed), plus — when `keep_samples` —
/// every measured iteration's one-way time (half its round trip) in
/// microseconds. The samples are opt-in because they allocate per
/// iteration, which the per-message allocation gates would count.
pub(crate) fn ping_pong_on(
    pair: &Pair,
    cfg: &DtConfig,
    keep_samples: bool,
) -> (PingPongResult, Samples) {
    let total = (cfg.warmup + cfg.iters) as u64;
    let pool_n = BufferPool::count_for(cfg.iters, cfg.warmup, cfg.reuse_percent);
    let scfg = cfg.clone();
    let ccfg = cfg.clone();
    let (server_util, (lat, client_util, samples)) = pair.run(
        move |ctx, ep| {
            let cfg = scfg;
            let mut pool =
                BufferPool::build(ctx, &ep.provider, pool_n, cfg.msg_size, cfg.reuse_percent);
            // Pre-post the first receive before the rendezvous so the first
            // ping always finds a descriptor (as the paper's tests do).
            let (va, mh) = pool.pick(0);
            ep.vi
                .post_recv(ctx, ep.split_desc(true, va, mh, cfg.msg_size, cfg.segments))
                .unwrap();
            ep.sync(ctx);
            let meter = CpuMeter::start(ctx.sim(), ep.provider.cpu());
            for i in 0..total {
                let (va, mh) = pool.pick(i);
                let next = (i + 1 < total).then(|| {
                    let (nva, nmh) = pool.pick(i + 1);
                    ep.split_desc(true, nva, nmh, cfg.msg_size, cfg.segments)
                });
                let pong = ep.split_desc(false, va, mh, cfg.msg_size, cfg.segments);
                ep.pong(ctx, cfg.wait, next, pong);
            }
            meter.stop(ctx.sim()).utilization()
        },
        move |ctx, ep| {
            let cfg = ccfg;
            let mut pool =
                BufferPool::build(ctx, &ep.provider, pool_n, cfg.msg_size, cfg.reuse_percent);
            ep.sync(ctx);
            let mut t0 = ctx.now();
            let mut meter = CpuMeter::start(ctx.sim(), ep.provider.cpu());
            let mut samples = Samples::new();
            for i in 0..total {
                if i == cfg.warmup as u64 {
                    t0 = ctx.now();
                    meter = CpuMeter::start(ctx.sim(), ep.provider.cpu());
                }
                let (va, mh) = pool.pick(i);
                let sent = ctx.now();
                // Post the reply receive before pinging (paper §3.2.1).
                ep.ping(
                    ctx,
                    cfg.wait,
                    ep.split_desc(true, va, mh, cfg.msg_size, cfg.segments),
                    ep.split_desc(false, va, mh, cfg.msg_size, cfg.segments),
                );
                if keep_samples && i >= cfg.warmup as u64 {
                    samples.push((ctx.now() - sent).as_micros_f64() / 2.0);
                }
            }
            let elapsed = ctx.now() - t0;
            let util = meter.stop(ctx.sim()).utilization();
            let lat = elapsed.as_micros_f64() / (2.0 * cfg.iters as f64);
            (lat, util, samples)
        },
    );
    let result = PingPongResult {
        latency_us: lat,
        client_util,
        server_util,
    };
    (result, samples)
}

/// The §3.2 bandwidth test under `cfg`: the client streams `iters`
/// messages with at most `queue_depth` locally outstanding, the server
/// returns a 4-byte credit every `burst` messages (application-level flow
/// control, as real VIA bandwidth benchmarks used on unreliable
/// connections — a receiver slower than the sender must be able to slow it
/// down or messages are simply dropped), and a final 4-byte acknowledgment
/// stops the clock, as in the paper.
pub fn bandwidth(cfg: &DtConfig) -> BandwidthResult {
    let pair = Pair::new(cfg);
    let total = (cfg.warmup + cfg.iters) as u64;
    let pool_n = BufferPool::count_for(cfg.iters, cfg.warmup, cfg.reuse_percent);
    // Receive window and credit quantum.
    let window = (cfg.profile.max_queue_depth as u64)
        .saturating_sub(8)
        .clamp(16, 64);
    let burst = window / 2;
    let credits_total = total / burst; // + 1 final ack
    let scfg = cfg.clone();
    let ccfg = cfg.clone();
    let (_, (mbps, client_util)) = pair.run(
        move |ctx, ep| {
            let cfg = scfg;
            let mut pool =
                BufferPool::build(ctx, &ep.provider, pool_n, cfg.msg_size, cfg.reuse_percent);
            let (ack, ack_mh) = registered(ctx, &ep.provider, 16);
            let mut acks = Stream::new(&ep.vi, 1, cfg.wait);
            // Pre-post a window of receives.
            let prepost = window.min(total);
            for i in 0..prepost {
                let (va, mh) = pool.pick(i);
                ep.vi
                    .post_recv(ctx, ep.split_desc(true, va, mh, cfg.msg_size, cfg.segments))
                    .unwrap();
            }
            ep.sync(ctx);
            for i in 0..total {
                let comp = ep.recv_one(ctx, cfg.wait);
                assert!(comp.is_ok(), "bw recv {i}: {:?}", comp.status);
                let next = i + prepost;
                if next < total {
                    let (va, mh) = pool.pick(next);
                    ep.vi
                        .post_recv(ctx, ep.split_desc(true, va, mh, cfg.msg_size, cfg.segments))
                        .unwrap();
                }
                if (i + 1) % burst == 0 {
                    // Credit: the sender may advance another burst.
                    acks.post(ctx, Descriptor::send().segment(ack, ack_mh, 4))
                        .expect("credit");
                }
            }
            // Final application-level acknowledgment.
            acks.post(ctx, Descriptor::send().segment(ack, ack_mh, 4))
                .expect("final ack");
        },
        move |ctx, ep| {
            let cfg = ccfg;
            let mut pool =
                BufferPool::build(ctx, &ep.provider, pool_n, cfg.msg_size, cfg.reuse_percent);
            let (ack, ack_mh) = registered(ctx, &ep.provider, 16);
            let credit_desc = || Descriptor::recv().segment(ack, ack_mh, 16);
            let credit_recvs = 8u64.min(credits_total + 1);
            for _ in 0..credit_recvs {
                ep.vi.post_recv(ctx, credit_desc()).unwrap();
            }
            ep.sync(ctx);
            let t0 = ctx.now();
            let meter = CpuMeter::start(ctx.sim(), ep.provider.cpu());
            let mut s = Stream::new(&ep.vi, cfg.queue_depth, cfg.wait);
            // The server grants the first two bursts implicitly (its
            // receive window covers them); further bursts need credits.
            let mut allowance = (2 * burst).min(total.max(1));
            let mut credits_seen = 0u64;
            for i in 0..total {
                // Greedily absorb any credits that already arrived.
                if i % 8 == 0 {
                    while let Some(c) = ep.vi.recv_done(ctx) {
                        assert!(c.is_ok());
                        credits_seen += 1;
                        allowance += burst;
                        ep.vi.post_recv(ctx, credit_desc()).unwrap();
                    }
                }
                if i >= allowance {
                    let c = ep.recv_one(ctx, cfg.wait);
                    assert!(c.is_ok(), "credit wait: {:?}", c.status);
                    credits_seen += 1;
                    allowance += burst;
                    ep.vi.post_recv(ctx, credit_desc()).unwrap();
                }
                let (va, mh) = pool.pick(i);
                s.post(
                    ctx,
                    ep.split_desc(false, va, mh, cfg.msg_size, cfg.segments),
                )
                .expect("bw send");
            }
            s.drain(ctx);
            // Drain the remaining credits; the last message is the final
            // ACK (the fabric is FIFO, so it arrives after everything).
            while credits_seen < credits_total + 1 {
                let c = ep.recv_one(ctx, cfg.wait);
                assert!(c.is_ok(), "final drain: {:?}", c.status);
                credits_seen += 1;
            }
            let elapsed = ctx.now() - t0;
            let util = meter.stop(ctx.sim()).utilization();
            (
                simkit::megabytes_per_second(cfg.msg_size * total, elapsed),
                util,
            )
        },
    );
    BandwidthResult { mbps, client_util }
}

/// The §3.3.1 client-server transaction test: fixed `request` size,
/// varying `reply` size, two distinct buffers; returns transactions per
/// second.
pub fn transactions(cfg: &DtConfig, request: u64, reply: u64) -> f64 {
    let pair = Pair::new(cfg);
    let total = (cfg.warmup + cfg.iters) as u64;
    let warmup = cfg.warmup as u64;
    let iters = cfg.iters as f64;
    let wait = cfg.wait;
    let (_, tps) = pair.run(
        move |ctx, ep| {
            // Server: receive request, send reply.
            let (req, req_mh) = registered(ctx, &ep.provider, request.max(1));
            let (rep, rep_mh) = registered(ctx, &ep.provider, reply.max(1));
            ep.vi
                .post_recv(ctx, Descriptor::recv().segment(req, req_mh, request as u32))
                .unwrap();
            ep.sync(ctx);
            for i in 0..total {
                let next = (i + 1 < total)
                    .then(|| Descriptor::recv().segment(req, req_mh, request as u32));
                let rep = Descriptor::send().segment(rep, rep_mh, reply as u32);
                ep.pong(ctx, wait, next, rep);
            }
        },
        move |ctx, ep| {
            let (req, req_mh) = registered(ctx, &ep.provider, request.max(1));
            let (rep, rep_mh) = registered(ctx, &ep.provider, reply.max(1));
            ep.sync(ctx);
            let mut t0 = ctx.now();
            for i in 0..total {
                if i == warmup {
                    t0 = ctx.now();
                }
                ep.ping(
                    ctx,
                    wait,
                    Descriptor::recv().segment(rep, rep_mh, reply as u32),
                    Descriptor::send().segment(req, req_mh, request as u32),
                );
            }
            let elapsed = ctx.now() - t0;
            iters / elapsed.as_secs_f64()
        },
    );
    tps
}

/// RDMA-write one-way latency under `cfg` (used by the §3.2.5 RDMA
/// benchmark): the target publishes a registered region; the initiator
/// RDMA-writes with immediate data so the target still gets a completion
/// to bounce back a zero-byte send.
pub fn rdma_write_ping(cfg: &DtConfig) -> PingPongResult {
    let pair = Pair::new(cfg);
    let total = (cfg.warmup + cfg.iters) as u64;
    let slot = std::sync::Arc::new(pair.sim().confined(None::<(u64, MemHandle)>));
    let s2 = slot.clone();
    let scfg = cfg.clone();
    let ccfg = cfg.clone();
    let (server_util, (lat, client_util)) = pair.run(
        move |ctx, ep| {
            let cfg = scfg;
            let (buf, mh) = registered(ctx, &ep.provider, cfg.msg_size.max(1));
            *s2.lock() = Some((buf, mh));
            // Zero-segment receives absorb the RDMA-with-immediate events.
            ep.vi.post_recv(ctx, Descriptor::recv()).unwrap();
            ep.sync(ctx);
            let meter = CpuMeter::start(ctx.sim(), ep.provider.cpu());
            for i in 0..total {
                // Bounce a zero-byte send back as the pong.
                let next = (i + 1 < total).then(Descriptor::recv);
                ep.pong(ctx, cfg.wait, next, Descriptor::send());
            }
            meter.stop(ctx.sim()).utilization()
        },
        move |ctx, ep| {
            let cfg = ccfg;
            let (buf, mh) = registered(ctx, &ep.provider, cfg.msg_size.max(1));
            ep.sync(ctx);
            let (rva, rmh) = slot.lock().expect("target registered before barrier");
            let mut t0 = ctx.now();
            let mut meter = CpuMeter::start(ctx.sim(), ep.provider.cpu());
            for i in 0..total {
                if i == cfg.warmup as u64 {
                    t0 = ctx.now();
                    meter = CpuMeter::start(ctx.sim(), ep.provider.cpu());
                }
                let write = Descriptor::rdma_write(rva, rmh)
                    .segment(buf, mh, cfg.msg_size as u32)
                    .immediate(i as u32);
                ep.ping(ctx, cfg.wait, Descriptor::recv(), write);
            }
            let elapsed = ctx.now() - t0;
            let util = meter.stop(ctx.sim()).utilization();
            (elapsed.as_micros_f64() / (2.0 * cfg.iters as f64), util)
        },
    );
    PingPongResult {
        latency_us: lat,
        client_util,
        server_util,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_reuse_pattern_100_percent_is_one_buffer() {
        assert_eq!(BufferPool::count_for(100, 10, 100), 1);
    }

    #[test]
    fn pool_reuse_pattern_0_percent_is_all_fresh() {
        assert_eq!(BufferPool::count_for(100, 10, 0), 111);
        // Capped at 512.
        assert_eq!(BufferPool::count_for(10_000, 0, 0), 512);
    }

    #[test]
    fn pool_pick_fraction_matches_reuse() {
        // Simulate pick decisions without building a real pool.
        let reuse = 75u32;
        let iters = 400u64;
        let mut fresh_used = 0u64;
        let mut fresh_picks = 0u64;
        for i in 0..iters {
            let quota = ((i + 1) * (100 - reuse) as u64).div_ceil(100);
            if fresh_used < quota {
                fresh_used += 1;
                fresh_picks += 1;
            }
        }
        let frac = fresh_picks as f64 / iters as f64;
        assert!((frac - 0.25).abs() < 0.01, "fresh fraction {frac}");
    }

    #[test]
    fn base_ping_pong_runs_and_is_sane() {
        for p in Profile::paper_trio() {
            let cfg = DtConfig {
                iters: 10,
                warmup: 2,
                ..DtConfig::base(p, 1024)
            };
            let r = ping_pong(&cfg);
            assert!(r.latency_us > 1.0 && r.latency_us < 1000.0, "{r:?}");
            // Polling: both sides saturate their CPUs (§4.3.1: "100% when
            // polling is used"; no golden carries a polling CPU panel).
            assert!(r.client_util > 0.99, "{r:?}");
            assert!(r.server_util > 0.99, "{r:?}");
        }
    }

    #[test]
    fn base_bandwidth_runs_and_is_sane() {
        let cfg = DtConfig {
            iters: 60,
            warmup: 4,
            ..DtConfig::base(Profile::clan(), 16 * 1024)
        };
        let r = bandwidth(&cfg);
        assert!(r.mbps > 10.0 && r.mbps < 200.0, "{r:?}");
    }

    #[test]
    fn transactions_run_and_are_sane() {
        let cfg = DtConfig {
            iters: 20,
            warmup: 4,
            ..DtConfig::base(Profile::clan(), 0)
        };
        let tps = transactions(&cfg, 16, 256);
        assert!(tps > 1_000.0 && tps < 200_000.0, "tps={tps}");
    }

    #[test]
    fn blocking_mode_reduces_utilization() {
        let mk = |wait| DtConfig {
            iters: 10,
            warmup: 2,
            wait,
            ..DtConfig::base(Profile::clan(), 4096)
        };
        let poll = ping_pong(&mk(WaitMode::Poll));
        let block = ping_pong(&mk(WaitMode::Block));
        assert!(block.latency_us > poll.latency_us);
        assert!(block.client_util < poll.client_util);
    }

    #[test]
    fn rdma_ping_runs_on_clan() {
        let cfg = DtConfig {
            iters: 10,
            warmup: 2,
            ..DtConfig::base(Profile::clan(), 2048)
        };
        let r = rdma_write_ping(&cfg);
        assert!(r.latency_us > 1.0 && r.latency_us < 1000.0, "{r:?}");
    }
}
