//! Measuring one workload in one process: the untraced run that yields the
//! end-to-end metrics, and the traced run (spans, engine hook, probes)
//! that yields the per-layer metrics.
//!
//! Method, fixed: closed loop, one benchmark thread, one simulated world
//! at a time, the process pinned to one CPU. A timing is the median of the
//! measured repetitions of identical generated input; repetitions continue
//! until the requested seconds are spent, never fewer than three. End-to-
//! end metrics are never taken from a traced repetition.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::bench_util::{median, peak_rss_kib, CpuSet, Json, Spans, Summary};
use crate::probes;
use crate::spec;
use crate::workloads::{generate, run_rep, ClassWall, EngineHook, Leg, RepCtx, RepOutcome};

/// Default `--seed`: `harness::BASE_SEED`.
pub const DEFAULT_SEED: u64 = vibe::harness::BASE_SEED;
/// Default `--seconds`, and `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 20;
/// Fewest measured repetitions, whatever `--seconds` says.
pub const MIN_REPS: usize = 3;
/// Set-ups per full-size run (`--smoke` does one); `setup_s` is their median.
pub const SETUP_SAMPLES: usize = 5;
/// The warm-up repetition inside each set-up runs at 1/this of full size:
/// enough to fill caches, the allocator and the thread-stack pool.
pub const WARMUP_DIVISOR: u32 = 3;
/// Size divisor of `--smoke`.
pub const SMOKE_SCALE: u32 = 20;
/// Untraced baseline and traced repetitions of a traced run, interleaved.
pub const TRACED_REPS: usize = 2;

/// Digests recorded for the default seed at full size (`--bless` rewrites
/// the file): a simulator speed-up must leave every simulated statistic
/// identical, so a mismatch is a failed check.
const RECORDED_DIGESTS: &str = include_str!("../digests.json");

/// Where and how the process runs.
#[derive(Clone, Debug)]
pub struct Host {
    /// CPU the process pinned itself to, and the allowed set it started with.
    pub pinned: Option<(CpuSet, usize)>,
    /// CPUs the process was allowed before pinning.
    pub nproc: usize,
    /// Load averages at start.
    pub loadavg: Option<[f64; 3]>,
}

impl Host {
    /// JSON rendering for the detail line and the `--all` document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "pinned_cpu",
                self.pinned.map_or(Json::Null, |(_, c)| Json::Num(c as f64)),
            ),
            ("nproc", Json::Num(self.nproc as f64)),
            (
                "loadavg",
                self.loadavg.map_or(Json::Null, |l| Json::nums(&l)),
            ),
        ])
    }
}

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Size divisor: 1, or [`SMOKE_SCALE`].
    pub scale: u32,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Report {
    /// Checks attempted.
    pub attempted: u64,
    /// Descriptions of failed checks.
    pub failures: Vec<String>,
    /// `(name, value)`: every end-to-end metric (untraced) or every
    /// per-layer metric (traced), in `spec` order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Median/min/max/samples behind the sampled metrics.
    pub summaries: Vec<(&'static str, Summary)>,
    /// Measured repetitions (untraced) or baseline + traced (traced).
    pub reps: usize,
    /// Leg digests of repetition 0.
    pub digests: Vec<(String, String)>,
}

impl Report {
    /// The contract's result object: `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.failures.is_empty())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failures.len() as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|&(name, v)| {
                    let value = if v.is_finite() { v } else { 0.0 };
                    (
                        name,
                        Json::obj([
                            ("value", Json::Num(value)),
                            (
                                "unit",
                                Json::str(spec::unit_of(name).unwrap_or_else(|| {
                                    panic!("metric '{name}' is not in spec.rs")
                                })),
                            ),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// Everything `--all` and `--compare` want beyond the result object.
    pub fn detail_json(&self, opts: &Options, host: &Host) -> Json {
        Json::obj([
            ("workload", Json::str(&opts.workload)),
            ("seed", Json::Num(opts.seed as f64)),
            ("trace", Json::Bool(opts.trace)),
            ("scale", Json::Num(opts.scale as f64)),
            ("reps", Json::Num(self.reps as f64)),
            ("host", host.to_json()),
            (
                "summaries",
                Json::obj(self.summaries.iter().map(|(name, s)| {
                    (
                        *name,
                        Json::obj([
                            ("median", Json::Num(s.median)),
                            ("min", Json::Num(s.min)),
                            ("max", Json::Num(s.max)),
                            ("n", Json::Num(s.samples.len() as f64)),
                            ("samples", Json::nums(&s.samples)),
                        ]),
                    )
                })),
            ),
            (
                "digests",
                Json::obj(self.digests.iter().map(|(k, v)| (k.as_str(), Json::str(v)))),
            ),
            (
                "failures",
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
        ])
    }
}

/// Check tally across repetitions.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    fn absorb(&mut self, rep: &RepOutcome) {
        for l in &rep.legs {
            self.attempted += l.attempted;
            self.failures.extend(l.failures.iter().cloned());
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Every leg's digest equals repetition 0's and, for the default seed
    /// at full size, the recorded one.
    fn check_digests(&mut self, opts: &Options, reps: &[&RepOutcome]) {
        let first = reps[0].digests();
        for (i, rep) in reps.iter().enumerate().skip(1) {
            for ((name, d0), (_, d)) in first.iter().zip(rep.digests()) {
                self.check(*d0 == d, || {
                    format!("{name}: repetition {i} digest {d} != repetition 0's {d0}")
                });
            }
        }
        if opts.seed == DEFAULT_SEED && opts.scale == 1 {
            let recorded = recorded_digests(&opts.workload);
            for (name, d) in &first {
                let want = recorded.get(name.as_str());
                self.check(want == Some(d), || {
                    format!("{name}: digest {d} != recorded {want:?} (perfbench/digests.json; --bless after an intended change)")
                });
            }
        }
    }
}

fn recorded_digests(workload: &str) -> BTreeMap<String, String> {
    let doc = Json::parse(RECORDED_DIGESTS).expect("perfbench/digests.json parses");
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(Json::as_obj)
        .map(|legs| {
            legs.iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
                .collect()
        })
        .unwrap_or_default()
}

fn untraced_rep(legs: &[Leg]) -> RepOutcome {
    run_rep(
        legs,
        &mut RepCtx {
            spans: &mut Spans::new(false),
            hook: None,
        },
    )
}

/// One set-up: generate the input and run the reduced-size warm-up
/// repetition. Returns the full-size input.
fn set_up(opts: &Options, tally: &mut Tally) -> Vec<Leg> {
    let legs = generate(&opts.workload, opts.seed, opts.scale);
    let warm = generate(&opts.workload, opts.seed, opts.scale * WARMUP_DIVISOR);
    tally.absorb(&untraced_rep(&warm));
    legs
}

fn mib(kib: u64) -> f64 {
    kib as f64 / 1024.0
}

/// The untraced run: end-to-end metrics.
pub fn run_untraced(opts: &Options, process_start: Instant) -> Report {
    let mut tally = Tally::default();
    // `setup_s` is process start -> first measured repetition; set-up is
    // repeated so its median is steady, and only the first sample also
    // holds process start-up.
    let samples = if opts.scale == 1 { SETUP_SAMPLES } else { 1 };
    let mut setup_s = Vec::with_capacity(samples);
    let mut legs = Vec::new();
    for i in 0..samples {
        let t0 = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        legs = set_up(opts, &mut tally);
        setup_s.push(t0.elapsed().as_secs_f64());
    }

    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut reps = Vec::new();
    let mut rss_kib = 0;
    while reps.len() < MIN_REPS || Instant::now() < deadline {
        reps.push(untraced_rep(&legs));
        if reps.len() == MIN_REPS {
            // Read the high-water mark after a fixed amount of work, not
            // at exit: simulated worlds are not all freed, so the mark
            // climbs with every repetition a longer run fits in.
            rss_kib = peak_rss_kib();
        }
    }
    for rep in &reps {
        tally.absorb(rep);
    }
    tally.check_digests(opts, &reps.iter().collect::<Vec<_>>());

    let per_rep =
        |f: &dyn Fn(&RepOutcome) -> f64| Summary::of(&reps.iter().map(f).collect::<Vec<_>>());
    let summaries = vec![
        ("wall_s", per_rep(&|r| r.wall_s)),
        ("events_per_s", per_rep(&|r| r.events as f64 / r.wall_s)),
        ("msgs_per_s", per_rep(&|r| r.msgs() as f64 / r.wall_s)),
        ("cpu_s", per_rep(&|r| r.usage.cpu_s())),
        ("setup_s", Summary::of(&setup_s)),
    ];
    let metrics: Vec<(&'static str, f64)> = spec::END_TO_END
        .iter()
        .map(|m| {
            let v = match m.name {
                "peak_rss_mb" => mib(rss_kib),
                name => summaries
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, s)| s.median)
                    .unwrap_or_else(|| panic!("no value for end-to-end metric '{name}'")),
            };
            (m.name, v)
        })
        .collect();
    Report {
        attempted: tally.attempted,
        failures: tally.failures,
        metrics,
        summaries,
        reps: reps.len(),
        digests: reps[0].digests(),
    }
}

/// Median over repetitions of Σ `simulate_ns` ÷ Σ operations for each
/// per-operation span metric the legs feed.
fn per_op_ns(reps: &[&RepOutcome]) -> BTreeMap<String, f64> {
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for rep in reps {
        let mut sums: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for l in &rep.legs {
            if let Some((metric, ops)) = &l.per_op {
                let e = sums.entry(metric).or_default();
                e.0 += l.simulate_ns;
                e.1 += ops;
            }
        }
        for (metric, (ns, ops)) in sums {
            samples
                .entry(metric.to_string())
                .or_default()
                .push(ns as f64 / ops.max(1) as f64);
        }
    }
    samples.into_iter().map(|(k, v)| (k, median(&v))).collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The traced run: per-layer metrics, and `out/<workload>.trace.json`.
pub fn run_traced(opts: &Options, host: &Host, trace_dir: &std::path::Path) -> Report {
    let mut tally = Tally::default();
    let legs = set_up(opts, &mut tally);

    let mut spans = Spans::new(true);
    let mut baseline = Vec::with_capacity(TRACED_REPS);
    let mut traced: Vec<(RepOutcome, ClassWall)> = Vec::with_capacity(TRACED_REPS);
    for i in 0..TRACED_REPS {
        // Interleaved, so drift in the host hits both kinds alike.
        baseline.push(untraced_rep(&legs));
        let hook = EngineHook::default();
        spans.set_rep(i as u32);
        let rep = run_rep(
            &legs,
            &mut RepCtx {
                spans: &mut spans,
                hook: Some(hook.clone()),
            },
        );
        traced.push((rep, hook.totals()));
    }
    let all: Vec<&RepOutcome> = baseline
        .iter()
        .chain(traced.iter().map(|(r, _)| r))
        .collect();
    for rep in &all {
        tally.absorb(rep);
    }
    tally.check_digests(opts, &all);

    let base: Vec<&RepOutcome> = baseline.iter().collect();
    let exact = &traced.last().expect("at least one traced repetition").0;
    let counters = exact.counters();
    let msgs = exact.msgs() as f64;
    let base_med =
        |f: &dyn Fn(&RepOutcome) -> f64| median(&base.iter().map(|r| f(r)).collect::<Vec<_>>());
    let base_wall = Summary::of(&base.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let traced_wall = median(&traced.iter().map(|(r, _)| r.wall_s).collect::<Vec<_>>());
    let class_busy_s = |c: usize| {
        median(
            &traced
                .iter()
                .map(|(_, w)| w.busy_ns[c] as f64 * 1e-9)
                .collect::<Vec<_>>(),
        )
    };
    let unattributed = median(
        &traced
            .iter()
            .map(|(r, w)| {
                let hooked = r.hooked_wall_s();
                if hooked == 0.0 {
                    0.0
                } else {
                    1.0 - w.total_busy_ns() as f64 * 1e-9 / hooked
                }
            })
            .collect::<Vec<_>>(),
    );
    let per_op = per_op_ns(&base);
    let suite_med = |f: &dyn Fn(&crate::workloads::SuiteDetail) -> f64| {
        let v: Vec<f64> = base.iter().filter_map(|r| r.suite().map(f)).collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    };

    let probe_values: BTreeMap<&str, f64> = probes::run_all(opts.scale, host.pinned.as_ref())
        .into_iter()
        .collect();

    let failed_share = ratio(tally.failures.len() as f64, tally.attempted as f64);
    let metrics: Vec<(&'static str, f64)> = spec::PER_LAYER
        .iter()
        .map(|m| {
            let name = m.name;
            let v = if let Some(v) = probe_values.get(name) {
                *v
            } else if let Some(rest) = name.strip_prefix("simkit.engine.class.") {
                let (class, field) = rest.split_once('.').expect("class.<name>.<field>");
                let c = simkit::EventClass::ALL
                    .iter()
                    .find(|c| c.name() == class)
                    .unwrap_or_else(|| panic!("unknown event class in '{name}'"))
                    .index();
                match field {
                    "pops" => traced.last().map_or(0.0, |(_, w)| w.pops[c] as f64),
                    _ => class_busy_s(c),
                }
            } else if let Some(id) = name
                .strip_prefix("core.suite.exp.")
                .and_then(|r| r.strip_suffix(".wall_s"))
            {
                suite_med(&|s| {
                    s.experiment_wall_s
                        .iter()
                        .find(|(e, _)| *e == id)
                        .map_or(0.0, |(_, w)| *w)
                })
            } else if let Some(v) = per_op.get(name) {
                *v
            } else {
                match name {
                    "failed_share" => failed_share,
                    "table1_max_err_pct" => exact.suite().map_or(0.0, |s| s.table1_max_err_pct),
                    "simkit.engine.events" => exact.events as f64,
                    "simkit.engine.events_per_msg" => ratio(exact.events as f64, msgs),
                    "simkit.engine.timers_cancelled" => counters.timers_cancelled as f64,
                    "simkit.engine.dead_popped" => counters.dead_popped as f64,
                    "simkit.engine.events_boxed" => exact.pool.boxed as f64,
                    "simkit.engine.pool_hit_rate" => exact.pool.pool_hit_rate(),
                    "simkit.process.vcsw_per_msg" => {
                        base_med(&|r| ratio(r.usage.vcsw as f64, r.msgs() as f64))
                    }
                    "simkit.process.sys_cpu_share" => {
                        base_med(&|r| ratio(r.usage.sys_s, r.usage.cpu_s()))
                    }
                    "simkit.process.ivcsw" => base_med(&|r| r.usage.ivcsw as f64),
                    "fabric.san.frames_sent" => counters.frames_sent as f64,
                    "fabric.san.frames_per_msg" => ratio(counters.frames_sent as f64, msgs),
                    "fabric.san.frames_dropped" => counters.frames_dropped as f64,
                    "fabric.fault.frames_fault_dropped" => counters.frames_fault_dropped as f64,
                    "fabric.topo.port_pauses" => counters.port_pauses as f64,
                    "fabric.topo.port_drops" => counters.port_drops as f64,
                    "via.transport.retransmissions" => counters.retransmissions as f64,
                    "via.transport.acks_sent" => counters.acks_sent as f64,
                    "via.transport.duplicates_dropped" => counters.duplicates_dropped as f64,
                    "via.transport.retx_timers_cancelled" => counters.retx_timers_cancelled as f64,
                    "via.fastpath.attempts" => exact.fuse.attempts as f64,
                    "via.fastpath.hits" => exact.fuse.hits as f64,
                    "via.fastpath.hit_rate" => {
                        ratio(exact.fuse.hits as f64, exact.fuse.attempts as f64)
                    }
                    "via.session.sessions_recovered" => counters.sessions_recovered as f64,
                    "core.suite.events" => exact.suite().map_or(0.0, |s| s.events as f64),
                    "core.report.render_json_s" => suite_med(&|s| s.render_json_s),
                    "core.report.render_text_s" => suite_med(&|s| s.render_text_s),
                    "core.runner.overhead_s" => suite_med(&|s| s.runner_overhead_s),
                    "bench.trace_overhead_pct" => (traced_wall / base_wall.median - 1.0) * 100.0,
                    "bench.unattributed_share" => unattributed,
                    "bench.wall_spread_pct" => base_wall.spread() * 100.0,
                    // Span metrics no leg of this workload feeds.
                    _ if m.kind == spec::Kind::Span => 0.0,
                    other => panic!("per-layer metric '{other}' has no source"),
                }
            };
            (name, v)
        })
        .collect();

    if let Err(e) = std::fs::create_dir_all(trace_dir).and_then(|()| {
        std::fs::write(
            trace_dir.join(format!("{}.trace.json", opts.workload)),
            spans.chrome_trace_json(&format!("perfbench {}", opts.workload)),
        )
    }) {
        eprintln!(
            "perfbench: could not write the trace file under {}: {e}",
            trace_dir.display()
        );
    }

    Report {
        attempted: tally.attempted,
        failures: tally.failures,
        metrics,
        summaries: vec![
            ("wall_s", base_wall),
            (
                "traced_wall_s",
                Summary::of(&traced.iter().map(|(r, _)| r.wall_s).collect::<Vec<_>>()),
            ),
        ],
        reps: all.len(),
        digests: all[0].digests(),
    }
}

/// One full-size repetition of every workload at the default seed;
/// returns the `digests.json` document.
pub fn bless() -> Json {
    let workloads = spec::WORKLOADS.iter().map(|w| {
        eprintln!("perfbench: blessing {}", w.name);
        let rep = untraced_rep(&generate(w.name, DEFAULT_SEED, 1));
        let failures: Vec<_> = rep.legs.iter().flat_map(|l| l.failures.iter()).collect();
        assert!(
            failures.is_empty(),
            "refusing to bless failing output: {failures:?}"
        );
        (
            w.name,
            Json::obj(rep.digests().into_iter().map(|(k, v)| (k, Json::Str(v)))),
        )
    });
    Json::obj([
        ("seed", Json::Num(DEFAULT_SEED as f64)),
        ("workloads", Json::obj(workloads.collect::<Vec<_>>())),
    ])
}
