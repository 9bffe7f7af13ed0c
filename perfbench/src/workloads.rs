//! The five workloads: input generation from a seed, one repetition, and
//! the checks on every simulated output.
//!
//! Each layer is driven from outside through its public API
//! (`harness::Pair`, `topo_bench`, `crash_bench`, `chaos`, `run_suite`);
//! nothing in the simulator is edited to be measured. A repetition is a
//! list of *legs*; a leg is one call into the program. The seed is the
//! only randomness: it feeds every `seed` parameter and picks message
//! sizes inside each workload's stated range, in a way that keeps the
//! amount of work per repetition the same for every seed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fabric::SanStats;
use simkit::{
    thread_events, thread_fuse_stats, thread_pool_stats, EventClass, FuseTally, PoolStats,
    ProcessCtx, Sim, SimDuration, SimRng, WaitMode,
};
use via::{Descriptor, MemAttributes, Profile, ProviderStats, Reliability};
use vibe::harness::{DtConfig, Endpoint, Pair};
use vibe::topo_bench::{self, StormShape};
use vibe::{chaos, crash_bench, Artifact};

use crate::bench_util::{digest, Spans, Usage};

/// Frozen repetition sizes (full scale). Chosen so one repetition takes
/// about 1.5 s pinned to one CPU of the 2-core sizing host.
pub mod sizes {
    /// `pingpong_small`: round trips per leg (6 legs).
    pub const PINGPONG_ROUND_TRIPS: u32 = 2_400;
    /// `stream_large`: messages per profile, a multiple of 7 so every page
    /// multiple 4..=28 KiB occurs equally often.
    pub const STREAM_MSGS: u32 = 6_720;
    /// `stream_large` send queue depth.
    pub const STREAM_QUEUE_DEPTH: usize = 16;
    /// `fattree_mixed`: calls per repetition.
    pub const A2A_RUNS: u32 = 2;
    /// 16-to-1 incast runs.
    pub const INCAST_RUNS: u32 = 4;
    /// Connection storms per shape (fat-tree and star).
    pub const STORM_RUNS: u32 = 4;
    /// `lossy_reliable`: RD ping-pong round trips per profile (1 KiB, 2 % loss).
    pub const LOSSY_ROUND_TRIPS: u32 = 2_600;
    /// RD stream messages per profile (4 KiB, 1 % loss).
    pub const LOSSY_STREAM_MSGS: u32 = 3_000;
    /// Node-kill runs.
    pub const NODE_KILL_RUNS: u32 = 6;
    /// Passes over all 25 chaos episodes.
    pub const CHAOS_ROUNDS: u32 = 3;
    /// Ping-pong loss probability.
    pub const PINGPONG_LOSS: f64 = 0.02;
    /// Stream loss probability.
    pub const STREAM_LOSS: f64 = 0.01;
    /// The experiments a scaled-down `suite_serial` (warm-up, `--smoke`)
    /// runs instead of all 27: about a third of a second together, and
    /// each has a committed golden.
    pub const SUITE_SUBSET: [&str; 7] = [
        "T1", "CQ", "X-SCHED", "X-REL", "X-FAULT", "X-CHAOS", "X-CRASH",
    ];
}

/// The paper's Table 1, verbatim (µs): the published reference the
/// regenerated table is validated against.
const PAPER_TABLE1: [(&str, [f64; 3]); 6] = [
    ("Creating VI", [93.0, 28.0, 3.0]),
    ("Destroying VI", [0.19, 0.19, 0.11]),
    ("Establishing Connection", [6465.0, 496.0, 2454.0]),
    ("Tearing Down Connection", [3.0, 9.0, 155.0]),
    ("Creating CQ", [17.0, 206.0, 54.0]),
    ("Destroying CQ", [8.44, 35.0, 15.0]),
];
const TABLE1_COLUMNS: [&str; 3] = ["M-VIA", "BVIA", "cLAN"];

/// Short profile keys used in leg and metric names, in `paper_trio` order.
const PROFILE_KEYS: [&str; 3] = ["mvia", "bvia", "clan"];

// ---------------------------------------------------------------------
// Input
// ---------------------------------------------------------------------

/// One call into the program.
pub enum Leg {
    /// `Pair` ping-pong of `cfg.iters` round trips.
    PingPong {
        name: String,
        profile: usize,
        cfg: DtConfig,
    },
    /// `Pair` stream of `sizes.len()` messages, message `i` being
    /// `sizes[i]` bytes.
    Stream {
        name: String,
        profile: usize,
        cfg: DtConfig,
        sizes: Arc<[u32]>,
    },
    /// `topo_bench::all_to_all(seed, 1)`.
    AllToAll { name: String, seed: u64 },
    /// `topo_bench::incast(seed, 1)`.
    Incast { name: String, seed: u64 },
    /// `topo_bench::storm(shape, seed, 1)`.
    Storm {
        name: String,
        shape: StormShape,
        seed: u64,
    },
    /// `crash_bench::node_kill(seed, 1)`.
    NodeKill { name: String, seed: u64 },
    /// All 25 `chaos::run_episode`s.
    Chaos { name: String },
    /// `run_suite(experiments, 1)` plus rendering; `ids == None` = all 27.
    Suite {
        name: String,
        ids: Option<&'static [&'static str]>,
        goldens: Arc<Vec<(String, String)>>,
    },
}

impl Leg {
    /// Span / digest key (`leg[clan/poll]`, `leg[a2a#0]`, …).
    pub fn name(&self) -> &str {
        match self {
            Leg::PingPong { name, .. }
            | Leg::Stream { name, .. }
            | Leg::AllToAll { name, .. }
            | Leg::Incast { name, .. }
            | Leg::Storm { name, .. }
            | Leg::NodeKill { name, .. }
            | Leg::Chaos { name }
            | Leg::Suite { name, .. } => name,
        }
    }
}

fn scaled(n: u32, scale: u32) -> u32 {
    (n / scale).max(1)
}

fn wait_key(w: WaitMode) -> &'static str {
    match w {
        WaitMode::Poll => "poll",
        WaitMode::Block => "block",
    }
}

/// A balanced, seed-shuffled sequence of page-multiple sizes (4–28 KiB):
/// every multiple occurs `n / 7` times, so bytes, fragments and events per
/// repetition are the same for every seed and only the order differs.
fn stream_sizes(seed: u64, label: &str, n: u32) -> Arc<[u32]> {
    let n = n.max(7) / 7 * 7;
    let mut v: Vec<u32> = (0..n).map(|i| 4096 * (1 + i % 7)).collect();
    SimRng::derive(seed, label).shuffle(&mut v);
    v.into()
}

fn lossy_profile(mut p: Profile, loss: f64) -> Profile {
    p.net = p.net.with_loss(loss);
    // A short timer keeps recovery inside the run, and a retry budget no
    // loss streak can exhaust keeps every operation succeeding.
    p.data.retransmit_timeout = SimDuration::from_micros(400);
    p.data.max_retries = 400;
    p
}

/// Committed goldens as `(experiment id, bytes)`, read once at set-up.
fn load_goldens() -> Vec<(String, String)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../tests/goldens");
    let mut out = Vec::new();
    let entries = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("reading goldens in {}: {e}", dir.display()));
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let id = path
            .file_stem()
            .and_then(|s| s.to_str())
            .map(str::to_uppercase)
            .expect("golden file name");
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        out.push((id, text));
    }
    out.sort();
    out
}

/// Generate workload `name`'s input from `seed`. `scale` divides every
/// repetition size (1 = the frozen full size, 3 = warm-up, 20 = smoke).
pub fn generate(name: &str, seed: u64, scale: u32) -> Vec<Leg> {
    let scale = scale.max(1);
    let trio = Profile::paper_trio();
    let mut legs = Vec::new();
    match name {
        "pingpong_small" => {
            let mut rng = SimRng::derive(seed, "pingpong_small/sizes");
            for (pi, p) in trio.iter().enumerate() {
                for wait in [WaitMode::Poll, WaitMode::Block] {
                    let size = 4 + rng.below(61); // 4..=64 B
                    legs.push(Leg::PingPong {
                        name: format!("leg[{}/{}]", PROFILE_KEYS[pi], wait_key(wait)),
                        profile: pi,
                        cfg: DtConfig {
                            iters: scaled(sizes::PINGPONG_ROUND_TRIPS, scale),
                            warmup: 0,
                            wait,
                            seed,
                            ..DtConfig::base(p.clone(), size)
                        },
                    });
                }
            }
        }
        "stream_large" => {
            for (pi, p) in trio.iter().enumerate() {
                let name = format!("leg[{}/stream]", PROFILE_KEYS[pi]);
                legs.push(Leg::Stream {
                    sizes: stream_sizes(seed, &name, scaled(sizes::STREAM_MSGS, scale)),
                    name,
                    profile: pi,
                    cfg: DtConfig {
                        warmup: 0,
                        queue_depth: sizes::STREAM_QUEUE_DEPTH,
                        seed,
                        ..DtConfig::base(p.clone(), 28 * 1024)
                    },
                });
            }
        }
        "fattree_mixed" => {
            for i in 0..scaled(sizes::A2A_RUNS, scale) {
                legs.push(Leg::AllToAll {
                    name: format!("leg[a2a#{i}]"),
                    seed: seed.wrapping_add(i as u64),
                });
            }
            for i in 0..scaled(sizes::INCAST_RUNS, scale) {
                legs.push(Leg::Incast {
                    name: format!("leg[incast#{i}]"),
                    seed: seed.wrapping_add(i as u64),
                });
            }
            for (shape, key) in [(StormShape::FatTree, "fattree"), (StormShape::Star, "star")] {
                for i in 0..scaled(sizes::STORM_RUNS, scale) {
                    legs.push(Leg::Storm {
                        name: format!("leg[storm-{key}#{i}]"),
                        shape,
                        seed: seed.wrapping_add(i as u64),
                    });
                }
            }
        }
        "lossy_reliable" => {
            // BVIA implements only Unreliable; the reliable legs run on
            // the two profiles that support Reliable Delivery.
            for pi in [0usize, 2] {
                legs.push(Leg::PingPong {
                    name: format!("leg[{}/rd-pingpong]", PROFILE_KEYS[pi]),
                    profile: pi,
                    cfg: DtConfig {
                        iters: scaled(sizes::LOSSY_ROUND_TRIPS, scale),
                        warmup: 0,
                        reliability: Reliability::ReliableDelivery,
                        seed,
                        ..DtConfig::base(
                            lossy_profile(trio[pi].clone(), sizes::PINGPONG_LOSS),
                            1024,
                        )
                    },
                });
            }
            for pi in [0usize, 2] {
                let n = scaled(sizes::LOSSY_STREAM_MSGS, scale);
                legs.push(Leg::Stream {
                    name: format!("leg[{}/rd-stream]", PROFILE_KEYS[pi]),
                    profile: pi,
                    sizes: vec![4096u32; n as usize].into(),
                    cfg: DtConfig {
                        warmup: 0,
                        reliability: Reliability::ReliableDelivery,
                        queue_depth: sizes::STREAM_QUEUE_DEPTH,
                        seed,
                        ..DtConfig::base(lossy_profile(trio[pi].clone(), sizes::STREAM_LOSS), 4096)
                    },
                });
            }
            for i in 0..scaled(sizes::NODE_KILL_RUNS, scale) {
                legs.push(Leg::NodeKill {
                    name: format!("leg[node-kill#{i}]"),
                    seed: seed.wrapping_add(i as u64),
                });
            }
            for i in 0..scaled(sizes::CHAOS_ROUNDS, scale) {
                legs.push(Leg::Chaos {
                    name: format!("leg[chaos#{i}]"),
                });
            }
        }
        "suite_serial" => legs.push(Leg::Suite {
            name: "leg[suite]".to_string(),
            ids: (scale > 1).then_some(&sizes::SUITE_SUBSET[..]),
            goldens: Arc::new(load_goldens()),
        }),
        other => panic!("unknown workload '{other}'"),
    }
    legs
}

// ---------------------------------------------------------------------
// Engine hook: wall attribution by event class
// ---------------------------------------------------------------------

/// Host wall and pop count per [`EventClass`], from `Sim::set_event_hook`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ClassWall {
    /// Events popped, by `EventClass::index`.
    pub pops: [u64; 6],
    /// Host nanoseconds between a pop of this class and the next pop.
    pub busy_ns: [u64; 6],
}

impl ClassWall {
    /// Σ busy over all classes, ns.
    pub fn total_busy_ns(&self) -> u64 {
        self.busy_ns.iter().sum()
    }
}

#[derive(Default)]
struct HookInner {
    open: Option<(Instant, usize)>,
    acc: ClassWall,
}

/// Attributes the wall between consecutive event pops to the class of the
/// earlier one. The hook runs on the scheduler thread just before an
/// event's action; with the baton protocol the scheduler is blocked while
/// a woken process runs, so a `user` interval covers the process wake and
/// the VIPL call it executes.
#[derive(Clone, Default)]
pub struct EngineHook(Arc<Mutex<HookInner>>);

impl EngineHook {
    fn install(&self, sim: &Sim) {
        let me = self.clone();
        sim.set_event_hook(Some(Arc::new(
            move |_: simkit::SimTime, class: EventClass| {
                let now = Instant::now();
                let mut h =
                    me.0.lock()
                        .expect("hook state is never poisoned mid-update");
                if let Some((since, c)) = h.open {
                    h.acc.busy_ns[c] += (now - since).as_nanos() as u64;
                }
                h.acc.pops[class.index()] += 1;
                h.open = Some((now, class.index()));
            },
        )));
    }

    /// Close the interval of the last event of a run.
    fn flush(&self) {
        let now = Instant::now();
        let mut h = self
            .0
            .lock()
            .expect("hook state is never poisoned mid-update");
        if let Some((since, c)) = h.open.take() {
            h.acc.busy_ns[c] += (now - since).as_nanos() as u64;
        }
    }

    /// Totals so far.
    pub fn totals(&self) -> ClassWall {
        self.0
            .lock()
            .expect("hook state is never poisoned mid-update")
            .acc
    }
}

// ---------------------------------------------------------------------
// Outcomes
// ---------------------------------------------------------------------

/// Exact counts a leg can read back through public APIs. Summed over a
/// repetition; a pure speed-up must leave every one identical.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub frames_sent: u64,
    pub frames_dropped: u64,
    pub frames_fault_dropped: u64,
    pub port_pauses: u64,
    pub port_drops: u64,
    pub retransmissions: u64,
    pub acks_sent: u64,
    pub duplicates_dropped: u64,
    pub retx_timers_cancelled: u64,
    pub timers_cancelled: u64,
    pub dead_popped: u64,
    pub sessions_recovered: u64,
}

impl Counters {
    fn add(&mut self, o: &Counters) {
        self.frames_sent += o.frames_sent;
        self.frames_dropped += o.frames_dropped;
        self.frames_fault_dropped += o.frames_fault_dropped;
        self.port_pauses += o.port_pauses;
        self.port_drops += o.port_drops;
        self.retransmissions += o.retransmissions;
        self.acks_sent += o.acks_sent;
        self.duplicates_dropped += o.duplicates_dropped;
        self.retx_timers_cancelled += o.retx_timers_cancelled;
        self.timers_cancelled += o.timers_cancelled;
        self.dead_popped += o.dead_popped;
        self.sessions_recovered += o.sessions_recovered;
    }

    fn add_san(&mut self, san: &SanStats) {
        self.frames_sent += san.frames_sent;
        self.frames_dropped += san.frames_dropped;
        self.frames_fault_dropped += san.frames_fault_dropped;
    }

    fn add_provider(&mut self, p: &ProviderStats) {
        self.retransmissions += p.retransmissions;
        self.acks_sent += p.acks_sent;
        self.duplicates_dropped += p.duplicates_dropped;
        self.retx_timers_cancelled += p.retx_timers_cancelled;
    }
}

/// Suite-only detail of a `suite_serial` leg.
#[derive(Clone, Debug, Default)]
pub struct SuiteDetail {
    /// `(experiment id, wall seconds)` from `SuiteRun.experiments`.
    pub experiment_wall_s: Vec<(&'static str, f64)>,
    /// `SuiteRun::total_events`.
    pub events: u64,
    /// Σ `render_json` over the experiments, seconds.
    pub render_json_s: f64,
    /// Σ `render_text` over the experiments, seconds.
    pub render_text_s: f64,
    /// `SuiteRun.wall` − Σ job wall, seconds.
    pub runner_overhead_s: f64,
    /// Max relative error of the 18 regenerated Table 1 cells vs the
    /// paper, percent (virtual time: repeats exactly).
    pub table1_max_err_pct: f64,
}

/// What one leg produced.
#[derive(Clone, Debug, Default)]
pub struct LegOutcome {
    /// Span / digest key.
    pub name: String,
    /// Simulated application messages delivered.
    pub msgs: u64,
    /// Fingerprint of the leg's simulated results.
    pub digest: String,
    /// Checks attempted (digest comparisons are added by the caller).
    pub attempted: u64,
    /// Descriptions of the checks that failed.
    pub failures: Vec<String>,
    /// Wall of the call into the layer, ns.
    pub simulate_ns: u64,
    /// Whole-leg wall (build + simulate + verify + render), ns.
    pub wall_ns: u64,
    /// Whether the engine hook observed this leg's `Sim`.
    pub hooked: bool,
    /// Per-operation span metric this leg feeds: `(metric, operations)`.
    pub per_op: Option<(String, u64)>,
    /// Exact counts.
    pub counters: Counters,
    /// Present on `suite_serial`.
    pub suite: Option<SuiteDetail>,
}

impl LegOutcome {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(format!("{}: {}", self.name, what()));
        }
    }
}

/// What one repetition produced.
#[derive(Clone, Debug)]
pub struct RepOutcome {
    /// Wall of the repetition, seconds.
    pub wall_s: f64,
    /// `getrusage` delta over the repetition.
    pub usage: Usage,
    /// Logical events (`thread_events` delta).
    pub events: u64,
    /// Event-arena churn (`thread_pool_stats` delta).
    pub pool: PoolStats,
    /// Fused-path ledger (`thread_fuse_stats` delta).
    pub fuse: FuseTally,
    /// Per-leg outcomes, in leg order.
    pub legs: Vec<LegOutcome>,
}

impl RepOutcome {
    /// Simulated application messages delivered.
    pub fn msgs(&self) -> u64 {
        self.legs.iter().map(|l| l.msgs).sum()
    }

    /// Exact counts summed over the legs.
    pub fn counters(&self) -> Counters {
        let mut c = Counters::default();
        for l in &self.legs {
            c.add(&l.counters);
        }
        c
    }

    /// Σ whole-leg wall of the hooked legs, seconds.
    pub fn hooked_wall_s(&self) -> f64 {
        self.legs
            .iter()
            .filter(|l| l.hooked)
            .map(|l| l.wall_ns)
            .sum::<u64>() as f64
            * 1e-9
    }

    /// Suite detail, on `suite_serial`.
    pub fn suite(&self) -> Option<&SuiteDetail> {
        self.legs.iter().find_map(|l| l.suite.as_ref())
    }

    /// `name -> digest` of every leg.
    pub fn digests(&self) -> Vec<(String, String)> {
        self.legs
            .iter()
            .map(|l| (l.name.clone(), l.digest.clone()))
            .collect()
    }
}

// ---------------------------------------------------------------------
// Running
// ---------------------------------------------------------------------

/// Per-repetition instrumentation: the span recorder (disabled in every
/// untraced repetition) and, in traced repetitions, the engine hook.
pub struct RepCtx<'a> {
    /// Span recorder.
    pub spans: &'a mut Spans,
    /// Engine hook to install on every `Sim` the benchmark owns.
    pub hook: Option<EngineHook>,
}

/// Run one repetition: every leg once, in order. A panicking leg is
/// caught and counts as one failed check.
pub fn run_rep(legs: &[Leg], ctx: &mut RepCtx<'_>) -> RepOutcome {
    let usage0 = Usage::now();
    let (ev0, pool0, fuse0) = (thread_events(), thread_pool_stats(), thread_fuse_stats());
    let t0 = Instant::now();
    let mut outs = Vec::with_capacity(legs.len());
    ctx.spans.enter("rep");
    for leg in legs {
        let depth = ctx.spans.depth();
        ctx.spans.enter(leg.name());
        let leg_t0 = Instant::now();
        let mut out = match catch_unwind(AssertUnwindSafe(|| run_leg(leg, ctx))) {
            Ok(out) => out,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic");
                LegOutcome {
                    name: leg.name().to_string(),
                    attempted: 1,
                    failures: vec![format!("{}: panicked: {msg}", leg.name())],
                    ..LegOutcome::default()
                }
            }
        };
        out.wall_ns = leg_t0.elapsed().as_nanos() as u64;
        ctx.spans.unwind_to(depth);
        outs.push(out);
    }
    ctx.spans.exit();
    RepOutcome {
        wall_s: t0.elapsed().as_secs_f64(),
        usage: Usage::now().since(&usage0),
        events: thread_events() - ev0,
        pool: thread_pool_stats().delta_since(&pool0),
        fuse: thread_fuse_stats().delta_since(&fuse0),
        legs: outs,
    }
}

fn run_leg(leg: &Leg, ctx: &mut RepCtx<'_>) -> LegOutcome {
    match leg {
        Leg::PingPong { name, profile, cfg } => pair_leg(name, *profile, cfg, None, ctx),
        Leg::Stream {
            name,
            profile,
            cfg,
            sizes,
        } => pair_leg(name, *profile, cfg, Some(sizes), ctx),
        Leg::AllToAll { name, seed } => a2a_leg(name, *seed, ctx),
        Leg::Incast { name, seed } => incast_leg(name, *seed, ctx),
        Leg::Storm { name, shape, seed } => storm_leg(name, *shape, *seed, ctx),
        Leg::NodeKill { name, seed } => node_kill_leg(name, *seed, ctx),
        Leg::Chaos { name } => chaos_leg(name, ctx),
        Leg::Suite { name, ids, goldens } => suite_leg(name, *ids, goldens, ctx),
    }
}

/// Time one call into a layer inside a `simulate` span.
fn simulate<R>(ctx: &mut RepCtx<'_>, out: &mut LegOutcome, f: impl FnOnce() -> R) -> R {
    ctx.spans.enter("simulate");
    let t0 = Instant::now();
    let r = f();
    out.simulate_ns = t0.elapsed().as_nanos() as u64;
    ctx.spans.exit();
    r
}

// --- Pair legs: ping-pong and stream ---------------------------------

fn register(ctx: &mut ProcessCtx, ep: &Endpoint, len: u64) -> (u64, via::MemHandle) {
    let va = ep.provider.malloc(len.max(1));
    let mh = ep
        .provider
        .register_mem(ctx, va, len.max(1), MemAttributes::default())
        .expect("register_mem");
    (va, mh)
}

/// The §3.2 ping-pong over a prepared pair; returns one-way latency, µs.
fn ping_pong(pair: &Pair, cfg: &DtConfig) -> f64 {
    let (total, size, wait) = (cfg.iters as u64, cfg.msg_size, cfg.wait);
    let (_, latency_us) = pair.run(
        move |ctx, ep| {
            let (buf, mh) = register(ctx, &ep, size);
            let recv = || Descriptor::recv().segment(buf, mh, size as u32);
            ep.vi.post_recv(ctx, recv()).expect("post_recv");
            ep.sync(ctx);
            for i in 0..total {
                let c = ep.recv_one(ctx, wait);
                assert!(c.is_ok() && c.length == size, "server recv {i}: {c:?}");
                if i + 1 < total {
                    ep.vi.post_recv(ctx, recv()).expect("post_recv");
                }
                ep.vi
                    .post_send(ctx, Descriptor::send().segment(buf, mh, size as u32))
                    .expect("post_send");
                assert!(ep.vi.send_wait(ctx, wait).is_ok(), "server send {i}");
            }
        },
        move |ctx, ep| {
            let (buf, mh) = register(ctx, &ep, size);
            ep.sync(ctx);
            let t0 = ctx.now();
            for i in 0..total {
                ep.vi
                    .post_recv(ctx, Descriptor::recv().segment(buf, mh, size as u32))
                    .expect("post_recv");
                ep.vi
                    .post_send(ctx, Descriptor::send().segment(buf, mh, size as u32))
                    .expect("post_send");
                let c = ep.recv_one(ctx, wait);
                assert!(c.is_ok() && c.length == size, "client recv {i}: {c:?}");
                assert!(ep.vi.send_wait(ctx, wait).is_ok(), "client send {i}");
            }
            (ctx.now() - t0).as_micros_f64() / (2.0 * total as f64)
        },
    );
    latency_us
}

/// The §3.2 bandwidth stream over a prepared pair, message `i` being
/// `sizes[i]` bytes, with the harness's application-level credit scheme
/// (a 4-byte credit every half window, so a slow receiver throttles the
/// sender instead of dropping); returns MB/s.
fn stream(pair: &Pair, cfg: &DtConfig, sizes: &Arc<[u32]>) -> f64 {
    let total = sizes.len() as u64;
    let max = sizes.iter().copied().max().unwrap_or(1) as u64;
    let bytes: u64 = sizes.iter().map(|&s| s as u64).sum();
    let wait = cfg.wait;
    let depth = cfg.queue_depth as u64;
    let window = (cfg.profile.max_queue_depth as u64)
        .saturating_sub(8)
        .clamp(16, 64);
    let burst = window / 2;
    let credits_total = total / burst + 1; // + the final acknowledgment
    let (ssizes, csizes) = (Arc::clone(sizes), Arc::clone(sizes));
    let (_, mbps) = pair.run(
        move |ctx, ep| {
            let (buf, mh) = register(ctx, &ep, max);
            let (ack, ack_mh) = register(ctx, &ep, 16);
            let recv = || Descriptor::recv().segment(buf, mh, max as u32);
            let prepost = window.min(total);
            for _ in 0..prepost {
                ep.vi.post_recv(ctx, recv()).expect("post_recv");
            }
            ep.sync(ctx);
            for i in 0..total {
                let c = ep.recv_one(ctx, wait);
                assert!(
                    c.is_ok() && c.length == ssizes[i as usize] as u64,
                    "stream recv {i}: {c:?}"
                );
                if i + prepost < total {
                    ep.vi.post_recv(ctx, recv()).expect("post_recv");
                }
                if (i + 1) % burst == 0 {
                    ep.vi
                        .post_send(ctx, Descriptor::send().segment(ack, ack_mh, 4))
                        .expect("credit");
                    assert!(ep.vi.send_wait(ctx, wait).is_ok(), "credit send");
                }
            }
            ep.vi
                .post_send(ctx, Descriptor::send().segment(ack, ack_mh, 4))
                .expect("final ack");
            assert!(ep.vi.send_wait(ctx, wait).is_ok(), "final ack send");
        },
        move |ctx, ep| {
            let (buf, mh) = register(ctx, &ep, max);
            let (ack, ack_mh) = register(ctx, &ep, 16);
            let credit = || Descriptor::recv().segment(ack, ack_mh, 16);
            for _ in 0..8u64.min(credits_total) {
                ep.vi.post_recv(ctx, credit()).expect("post_recv");
            }
            ep.sync(ctx);
            let t0 = ctx.now();
            let mut outstanding = 0u64;
            // The receive window covers the first two bursts.
            let mut allowance = (2 * burst).min(total.max(1));
            let mut credits_seen = 0u64;
            for i in 0..total {
                if i % 8 == 0 {
                    while let Some(c) = ep.vi.recv_done(ctx) {
                        assert!(c.is_ok(), "credit: {c:?}");
                        credits_seen += 1;
                        allowance += burst;
                        ep.vi.post_recv(ctx, credit()).expect("post_recv");
                    }
                }
                if i >= allowance {
                    let c = ep.recv_one(ctx, wait);
                    assert!(c.is_ok(), "credit wait: {c:?}");
                    credits_seen += 1;
                    allowance += burst;
                    ep.vi.post_recv(ctx, credit()).expect("post_recv");
                }
                ep.vi
                    .post_send(ctx, Descriptor::send().segment(buf, mh, csizes[i as usize]))
                    .expect("post_send");
                outstanding += 1;
                if outstanding >= depth {
                    assert!(ep.vi.send_wait(ctx, wait).is_ok(), "stream send {i}");
                    outstanding -= 1;
                }
            }
            while outstanding > 0 {
                assert!(ep.vi.send_wait(ctx, wait).is_ok(), "stream drain");
                outstanding -= 1;
            }
            // The fabric is FIFO: the final acknowledgment arrives last.
            while credits_seen < credits_total {
                let c = ep.recv_one(ctx, wait);
                assert!(c.is_ok(), "final drain: {c:?}");
                credits_seen += 1;
            }
            simkit::megabytes_per_second(bytes, ctx.now() - t0)
        },
    );
    mbps
}

fn pair_leg(
    name: &str,
    profile: usize,
    cfg: &DtConfig,
    sizes: Option<&Arc<[u32]>>,
    ctx: &mut RepCtx<'_>,
) -> LegOutcome {
    let mut out = LegOutcome {
        name: name.to_string(),
        ..LegOutcome::default()
    };
    ctx.spans.enter("build");
    let pair = Pair::new(cfg);
    if let Some(hook) = &ctx.hook {
        hook.install(pair.sim());
        out.hooked = true;
    }
    ctx.spans.exit();

    let hook = ctx.hook.clone();
    let result = simulate(ctx, &mut out, || {
        let r = match sizes {
            None => ping_pong(&pair, cfg),
            Some(sizes) => stream(&pair, cfg, sizes),
        };
        if let Some(hook) = &hook {
            hook.flush();
        }
        r
    });

    ctx.spans.enter("verify");
    let san = pair.san_stats();
    let (p0, p1) = (pair.provider_stats(0), pair.provider_stats(1));
    let sched = pair.sim().sched_stats();
    out.msgs = p0.msgs_delivered + p1.msgs_delivered;
    out.digest = digest(&format!("{result:?} {san:?} {p0:?} {p1:?}"));
    out.counters.add_san(&san);
    out.counters.add_provider(&p0);
    out.counters.add_provider(&p1);
    out.counters.timers_cancelled = sched.cancelled;
    out.counters.dead_popped = sched.dead_popped;
    let (kind, ops) = match sizes {
        None => ("roundtrip_ns", cfg.iters as u64),
        Some(s) => ("stream_msg_ns", s.len() as u64),
    };
    out.per_op = Some((
        format!("via.transport.{kind}.{}", PROFILE_KEYS[profile]),
        ops,
    ));

    let (msgs, posted) = (out.msgs, p0.sends_posted + p1.sends_posted);
    out.check(msgs == posted, || {
        format!("every posted message delivered exactly once: delivered {msgs} posted {posted}")
    });
    out.check(result.is_finite() && result > 0.0, || {
        format!("simulated result {result}")
    });
    if cfg.profile.net.loss.is_lossless() {
        out.check(san.frames_sent == san.frames_delivered, || {
            format!("lossless fabric lost frames: {san:?}")
        });
    } else {
        out.check(
            san.frames_sent == san.frames_delivered + san.frames_dropped
                && san.frames_dropped > 0
                && p0.conn_failures + p1.conn_failures == 0,
            || format!("lossy frame conservation / recovery: {san:?}"),
        );
    }
    ctx.spans.exit();
    out
}

// --- fattree_mixed legs ----------------------------------------------

fn conserved(san: &SanStats) -> bool {
    san.frames_sent
        == san.frames_delivered
            + san.frames_dropped
            + san.frames_faulted
            + san.frames_corrupted
            + san.frames_port_dropped
            + san.frames_fault_dropped
}

fn a2a_leg(name: &str, seed: u64, ctx: &mut RepCtx<'_>) -> LegOutcome {
    let mut out = LegOutcome {
        name: name.to_string(),
        ..LegOutcome::default()
    };
    let o = simulate(ctx, &mut out, || topo_bench::all_to_all(seed, 1));
    ctx.spans.enter("verify");
    out.msgs = o.per_edge.iter().map(|e| e.delivered).sum();
    out.digest = digest(&format!("{o:?}"));
    out.counters.add_san(&o.san);
    let (msgs, want) = (
        out.msgs,
        (topo_bench::A2A_NODES * (topo_bench::A2A_NODES - 1)) as u64,
    );
    out.check(msgs == want, || {
        format!("all-to-all delivered {msgs} of {want}")
    });
    out.check(conserved(&o.san), || {
        format!("frame conservation: {:?}", o.san)
    });
    ctx.spans.exit();
    out
}

fn incast_leg(name: &str, seed: u64, ctx: &mut RepCtx<'_>) -> LegOutcome {
    let mut out = LegOutcome {
        name: name.to_string(),
        ..LegOutcome::default()
    };
    let o = simulate(ctx, &mut out, || topo_bench::incast(seed, 1));
    ctx.spans.enter("verify");
    out.msgs = o.flows.iter().map(|f| f.delivered).sum();
    out.digest = digest(&format!("{o:?}"));
    out.counters.add_san(&o.san);
    out.counters.port_pauses = o.ports.iter().map(|p| p.stats.pauses).sum();
    out.counters.port_drops = o.ports.iter().map(|p| p.stats.drops).sum();
    let attributed: u64 = o
        .ports
        .iter()
        .map(|p| p.stats.drops + p.stats.storm_dropped)
        .sum();
    let msgs = out.msgs;
    out.check(msgs > 0, || "incast delivered nothing".to_string());
    out.check(conserved(&o.san), || {
        format!("frame conservation: {:?}", o.san)
    });
    out.check(attributed == o.san.frames_port_dropped, || {
        format!(
            "per-port drops {attributed} != fabric port_dropped {}",
            o.san.frames_port_dropped
        )
    });
    ctx.spans.exit();
    out
}

fn storm_leg(name: &str, shape: StormShape, seed: u64, ctx: &mut RepCtx<'_>) -> LegOutcome {
    let mut out = LegOutcome {
        name: name.to_string(),
        ..LegOutcome::default()
    };
    let o = simulate(ctx, &mut out, || topo_bench::storm(shape, seed, 1));
    ctx.spans.enter("verify");
    let pairs = (topo_bench::STORM_NODES / 2) as u64;
    out.msgs = o.delivered;
    out.digest = digest(&format!("{o:?}"));
    out.counters.add_san(&o.san);
    out.counters.port_pauses = o.pauses;
    out.counters.port_drops = o.port_drops;
    out.per_op = Some(("via.connect.storm_conn_ns".to_string(), pairs));
    out.check(o.delivered == pairs * topo_bench::STORM_MSGS, || {
        format!("storm delivered {}", o.delivered)
    });
    out.check(conserved(&o.san), || {
        format!("frame conservation: {:?}", o.san)
    });
    // No pause-storm watchdog trips here, so congestion drops are the
    // whole port-dropped bucket.
    out.check(o.port_drops == o.san.frames_port_dropped, || {
        format!(
            "per-port drops {} != fabric port_dropped {}",
            o.port_drops, o.san.frames_port_dropped
        )
    });
    ctx.spans.exit();
    out
}

// --- lossy_reliable legs ---------------------------------------------

fn node_kill_leg(name: &str, seed: u64, ctx: &mut RepCtx<'_>) -> LegOutcome {
    let mut out = LegOutcome {
        name: name.to_string(),
        ..LegOutcome::default()
    };
    // `node_kill` asserts its own session oracle (exactly once, in order,
    // bytes checked) and the fabric/audit oracles; a violation panics and
    // is counted by the caller.
    let o = simulate(ctx, &mut out, || crash_bench::node_kill(seed, 1));
    ctx.spans.enter("verify");
    out.msgs = o.flows.iter().map(|f| f.delivered).sum();
    out.digest = digest(&format!("{o:?}"));
    out.counters.add_san(&o.san);
    out.counters.sessions_recovered = o.sessions_recovered;
    out.per_op = Some(("via.session.node_kill_ns".to_string(), 1));
    for f in &o.flows {
        out.check(
            f.delivered == crash_bench::CRASH_MSGS
                && f.rx.delivered == crash_bench::CRASH_MSGS
                && f.tx.acked == crash_bench::CRASH_MSGS
                && f.rx.out_of_order == 0,
            || format!("flow {} not exactly-once: {f:?}", f.label),
        );
    }
    out.check(conserved(&o.san), || {
        format!("frame conservation: {:?}", o.san)
    });
    out.check(
        o.sessions_recovered == crash_bench::AFFECTED_FLOWS as u64,
        || format!("sessions recovered {}", o.sessions_recovered),
    );
    ctx.spans.exit();
    out
}

fn chaos_leg(name: &str, ctx: &mut RepCtx<'_>) -> LegOutcome {
    let mut out = LegOutcome {
        name: name.to_string(),
        ..LegOutcome::default()
    };
    let reports = simulate(ctx, &mut out, || {
        (0..chaos::EPISODES)
            .map(chaos::run_episode)
            .collect::<Vec<_>>()
    });
    ctx.spans.enter("verify");
    out.msgs = reports.iter().map(|r| r.completed).sum();
    out.digest = digest(&format!("{reports:?}"));
    for (i, r) in reports.iter().enumerate() {
        out.check(r.invariants_ok, || {
            format!("chaos episode {i} oracle: {r:?}")
        });
    }
    ctx.spans.exit();
    out
}

// --- suite_serial leg ------------------------------------------------

fn table1_max_err_pct(artifacts: &[Artifact]) -> Option<f64> {
    let table = artifacts.iter().find_map(|a| match a {
        Artifact::Table(t) => Some(t),
        Artifact::Figure(_) => None,
    })?;
    let mut worst = 0.0f64;
    for (row, paper) in PAPER_TABLE1 {
        for (col, want) in TABLE1_COLUMNS.iter().zip(paper) {
            let got = table.cell(row, col)?;
            worst = worst.max((got - want).abs() / want * 100.0);
        }
    }
    Some(worst)
}

fn suite_leg(
    name: &str,
    ids: Option<&[&str]>,
    goldens: &[(String, String)],
    ctx: &mut RepCtx<'_>,
) -> LegOutcome {
    let mut out = LegOutcome {
        name: name.to_string(),
        ..LegOutcome::default()
    };
    ctx.spans.enter("build");
    let experiments: Vec<_> = vibe::all_experiments()
        .into_iter()
        .filter(|e| ids.is_none_or(|ids| ids.contains(&e.id)))
        .collect();
    ctx.spans.exit();

    let fuse0 = thread_fuse_stats();
    ctx.spans.enter("simulate");
    let sim_start = ctx.spans.now_ns();
    let t0 = Instant::now();
    let run = vibe::run_suite(experiments, 1);
    out.simulate_ns = t0.elapsed().as_nanos() as u64;
    // One child span per experiment, laid end to end from the start of the
    // run (the serial runner executes them back to back).
    let mut at = sim_start;
    for e in &run.experiments {
        let ns = e.wall.as_nanos() as u64;
        ctx.spans.record(format!("exp[{}]", e.id), at, ns);
        at += ns;
    }
    ctx.spans.exit();

    ctx.spans.enter("render");
    let t0 = Instant::now();
    let json: Vec<String> = run.experiments.iter().map(|e| e.run_json()).collect();
    let render_json_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let text: Vec<String> = run.experiments.iter().map(|e| e.run_text()).collect();
    let render_text_s = t0.elapsed().as_secs_f64();
    ctx.spans.exit();

    ctx.spans.enter("verify");
    // Send posts stand in for application messages: the suite exposes no
    // delivered-message total, and every post evaluates the fuse guard.
    out.msgs = thread_fuse_stats().delta_since(&fuse0).attempts;
    out.digest = digest(&json.concat());
    out.check(text.iter().all(|t| !t.is_empty()), || {
        "an experiment rendered no text".to_string()
    });
    for (e, doc) in run.experiments.iter().zip(&json) {
        if let Some((_, want)) = goldens.iter().find(|(id, _)| id == e.id) {
            out.check(doc == want, || {
                format!("{} drifted from tests/goldens", e.id)
            });
        }
    }
    let t1 = run
        .experiments
        .iter()
        .find(|e| e.id == "T1")
        .and_then(|e| table1_max_err_pct(&e.artifacts));
    out.check(t1.is_some_and(|e| e <= 10.0), || {
        format!("Table 1 vs paper: max error {t1:?} % (want all 18 cells, within 10 %)")
    });
    let job_wall: f64 = run.jobs.iter().map(|j| j.wall.as_secs_f64()).sum();
    out.suite = Some(SuiteDetail {
        experiment_wall_s: run
            .experiments
            .iter()
            .map(|e| (e.id, e.wall.as_secs_f64()))
            .collect(),
        events: run.total_events(),
        render_json_s,
        render_text_s,
        runner_overhead_s: run.wall.as_secs_f64() - job_wall,
        table1_max_err_pct: t1.unwrap_or(0.0),
    });
    ctx.spans.exit();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(legs: &[Leg]) -> RepOutcome {
        let mut spans = Spans::new(false);
        run_rep(
            legs,
            &mut RepCtx {
                spans: &mut spans,
                hook: None,
            },
        )
    }

    #[test]
    fn same_seed_same_input_and_digests_stable_across_repetitions() {
        for name in ["pingpong_small", "stream_large", "lossy_reliable"] {
            let legs = generate(name, 7, 40);
            let (a, b) = (rep(&legs), rep(&legs));
            assert_eq!(a.digests(), b.digests(), "{name}");
            assert_eq!(a.counters(), b.counters(), "{name}");
            assert_eq!(a.events, b.events, "{name}");
            assert_eq!(a.msgs(), b.msgs(), "{name}");
            let failures: Vec<_> = a.legs.iter().flat_map(|l| l.failures.clone()).collect();
            assert!(failures.is_empty(), "{name}: {failures:?}");
            // A fresh generation from the same seed is the same input.
            assert_eq!(rep(&generate(name, 7, 40)).digests(), a.digests(), "{name}");
        }
    }

    #[test]
    fn a_different_seed_changes_the_input_but_not_the_amount_of_work() {
        let a = rep(&generate("stream_large", 1, 40));
        let b = rep(&generate("stream_large", 2, 40));
        assert_ne!(a.digests(), b.digests());
        assert_eq!(a.msgs(), b.msgs());
        assert_eq!(a.counters().frames_sent, b.counters().frames_sent);
    }

    #[test]
    fn stream_sizes_are_balanced_page_multiples() {
        let s = stream_sizes(9, "x", 70);
        assert_eq!(s.len(), 70);
        for k in 1..=7u32 {
            assert_eq!(s.iter().filter(|&&v| v == 4096 * k).count(), 10);
        }
        assert_ne!(&s[..], &stream_sizes(10, "x", 70)[..]);
    }

    #[test]
    fn a_panicking_leg_is_one_failed_check_and_spans_stay_balanced() {
        // `Pair::new` refuses a topology that is not two nodes wide: the
        // panic fires inside the leg's `build` span.
        let legs = vec![Leg::PingPong {
            name: "leg[bad]".into(),
            profile: 2,
            cfg: DtConfig {
                topology: Some(fabric::Topology::star(3)),
                ..DtConfig::base(Profile::clan(), 8)
            },
        }];
        let mut spans = Spans::new(true);
        let out = run_rep(
            &legs,
            &mut RepCtx {
                spans: &mut spans,
                hook: None,
            },
        );
        assert_eq!(out.legs[0].attempted, 1);
        assert_eq!(out.legs[0].failures.len(), 1, "{:?}", out.legs[0].failures);
        assert!(out.legs[0].failures[0].contains("panicked"));
        assert_eq!(spans.depth(), 0);
        assert!(spans.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn hook_attributes_wall_to_classes_on_owned_sims() {
        let legs = generate("pingpong_small", 3, 60);
        let mut spans = Spans::new(true);
        let hook = EngineHook::default();
        let out = run_rep(
            &legs,
            &mut RepCtx {
                spans: &mut spans,
                hook: Some(hook.clone()),
            },
        );
        let w = hook.totals();
        assert!(w.pops[EventClass::User.index()] > 0, "{w:?}");
        assert!(w.total_busy_ns() > 0);
        assert!(out.legs.iter().all(|l| l.hooked));
        assert!(w.total_busy_ns() as f64 * 1e-9 <= out.hooked_wall_s());
        // rep -> leg -> build/simulate/verify
        let names: Vec<_> = spans.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            &names[..5],
            ["rep", "leg[mvia/poll]", "build", "simulate", "verify"]
        );
    }
}
