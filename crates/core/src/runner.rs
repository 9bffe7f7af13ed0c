//! The deterministic parallel suite runner.
//!
//! Every VIBe experiment is a set of independent discrete-event
//! simulations, so the suite parallelizes embarrassingly well — *if* the
//! artifacts come out byte-identical at any worker count. This module
//! makes that hold by construction:
//!
//! 1. Each experiment declares a **plan**: a list of self-contained
//!    [`Job`]s in canonical order, each a closure over the same leaf
//!    builders the serial path uses, narrowed to one slice of the sweep
//!    (one profile, one sweep point, one table). Each job restates the
//!    base seed its measurements derive from ([`crate::harness::BASE_SEED`]);
//!    since RNG streams are content-keyed (`SimRng::derive(seed, label)`),
//!    no job can observe *when* or *where* another job ran.
//! 2. Workers pull jobs from a shared queue (an atomic cursor — the
//!    degenerate but optimal form of work stealing for independent
//!    one-shot jobs) inside a [`std::thread::scope`], so the pool needs no
//!    `'static` bounds and no lingering threads.
//! 3. Job outputs are reassembled **in canonical job order** via
//!    [`merge_artifacts`], which replays the exact append order of the
//!    serial builders — so the merged artifact set is byte-identical to
//!    the serial one.
//!
//! With `workers <= 1` ([`run_suite`]'s serial fallback, what
//! `VIBE_JOBS=1` selects) no pool is spun up at all: each experiment's
//! `produce` runs directly on the calling thread — the exact pre-parallel
//! code path CI's golden comparison pins.
//!
//! The runner also harvests the per-thread scheduler telemetry simkit
//! maintains ([`thread_events`], [`thread_pool_stats`]) to attribute
//! wall-clock, event throughput, and event-arena churn to each job —
//! surfaced as the X-PAR artifact ([`SuiteRun::xpar_artifacts`]).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use simkit::{
    thread_events, thread_fuse_stats, thread_pool_stats, DefuseCause, FuseTally, PoolStats,
};

use crate::report::{merge_artifacts, Artifact, Table};
use crate::suite::{render_csv, render_json, render_text, Experiment};

/// One self-contained unit of suite work: a labeled closure producing a
/// slice of an experiment's artifacts.
pub struct Job {
    label: String,
    seed: u64,
    run: Box<dyn FnOnce() -> Vec<Artifact> + Send>,
}

impl Job {
    /// Package a closure as a job. `label` names the slice (for reports);
    /// `seed` is the base seed the job's measurements derive their RNG
    /// streams from (restated here so the seed-per-job discipline is
    /// visible in the plan, not buried in leaf defaults).
    pub fn new(
        label: impl Into<String>,
        seed: u64,
        run: impl FnOnce() -> Vec<Artifact> + Send + 'static,
    ) -> Job {
        Job {
            label: label.into(),
            seed,
            run: Box::new(run),
        }
    }

    /// The job's display label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The base RNG seed the job's measurements derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Execute the job, consuming it.
    pub fn run(self) -> Vec<Artifact> {
        (self.run)()
    }
}

/// Telemetry for one executed job.
#[derive(Clone, Debug)]
pub struct JobReport {
    /// Id of the experiment the job belongs to.
    pub experiment: &'static str,
    /// The job's label within the experiment plan.
    pub label: String,
    /// Wall-clock the job took on its worker.
    pub wall: Duration,
    /// Simulation events the job executed.
    pub events: u64,
    /// Event-arena churn attributed to the job.
    pub pool: PoolStats,
    /// Fused-fast-path ledger attributed to the job (attempts, hits,
    /// de-fuse cause breakdown).
    pub fuse: FuseTally,
}

/// One experiment's reassembled output plus its serial-equivalent cost.
pub struct ExperimentRun {
    /// Experiment id ("T1", "F3", …).
    pub id: &'static str,
    /// Experiment title.
    pub title: &'static str,
    /// The merged artifact set — byte-identical to the serial build.
    pub artifacts: Vec<Artifact>,
    /// Sum of the experiment's job wall-clocks (serial-equivalent cost).
    pub wall: Duration,
    /// Simulation events across the experiment's jobs.
    pub events: u64,
}

impl ExperimentRun {
    /// Paper-style text rendering (same code path as [`Experiment::run_text`]).
    pub fn run_text(&self) -> String {
        render_text(&self.artifacts)
    }

    /// JSON rendering (same code path as [`Experiment::run_json`]).
    pub fn run_json(&self) -> String {
        render_json(self.id, self.title, &self.artifacts)
    }

    /// CSV rendering (same code path as [`Experiment::run_csv`]).
    pub fn run_csv(&self) -> Vec<(String, String)> {
        render_csv(self.id, &self.artifacts)
    }
}

/// The outcome of one suite invocation.
pub struct SuiteRun {
    /// Per-experiment merged outputs, in registry order.
    pub experiments: Vec<ExperimentRun>,
    /// Per-job telemetry, in canonical job order.
    pub jobs: Vec<JobReport>,
    /// Worker threads used (1 = serial fallback, no pool).
    pub workers: usize,
    /// End-to-end wall-clock of the whole run.
    pub wall: Duration,
    /// Event-arena churn aggregated over every job.
    pub pool: PoolStats,
    /// Sharded-engine runs recorded by this suite's jobs (empty when every
    /// experiment ran on a serial engine).
    pub shard_runs: Vec<ShardRunRecord>,
    /// Fabric-robustness counters accumulated by this suite's jobs.
    pub fabric_health: FabricHealth,
}

impl SuiteRun {
    /// Total simulation events across all jobs.
    pub fn total_events(&self) -> u64 {
        self.jobs.iter().map(|j| j.events).sum()
    }

    /// Serial-equivalent cost: the sum of all job wall-clocks — what one
    /// worker would have spent executing the same jobs back to back.
    pub fn serial_wall(&self) -> Duration {
        self.jobs.iter().map(|j| j.wall).sum()
    }

    /// Parallel speedup: serial-equivalent cost over actual wall-clock.
    pub fn speedup(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall <= 0.0 {
            1.0
        } else {
            self.serial_wall().as_secs_f64() / wall
        }
    }

    /// The X-PAR artifact set: per-experiment wall-clock / event
    /// throughput plus a run summary (workers, speedup, arena hit rates).
    ///
    /// Deliberately **not** a golden: every cell is host wall-clock
    /// dependent. It exists to make the suite's performance trajectory
    /// visible per run / per PR.
    pub fn xpar_artifacts(&self) -> Vec<Artifact> {
        let mut per_exp = Table::new(
            "X-PAR: per-experiment wall-clock and event throughput",
            vec![
                "jobs".to_string(),
                "wall (ms)".to_string(),
                "events".to_string(),
                "Mevents/s".to_string(),
            ],
        );
        for e in &self.experiments {
            let njobs = self.jobs.iter().filter(|j| j.experiment == e.id).count();
            let secs = e.wall.as_secs_f64();
            let meps = if secs > 0.0 {
                e.events as f64 / secs / 1e6
            } else {
                0.0
            };
            per_exp.push(e.id, vec![njobs as f64, secs * 1e3, e.events as f64, meps]);
        }
        let mut summary = Table::new("X-PAR: suite summary", vec!["value".to_string()]);
        let wall = self.wall.as_secs_f64();
        let events = self.total_events();
        summary.push("workers", vec![self.workers as f64]);
        summary.push("jobs", vec![self.jobs.len() as f64]);
        summary.push("suite wall (ms)", vec![wall * 1e3]);
        summary.push(
            "serial-equivalent wall (ms)",
            vec![self.serial_wall().as_secs_f64() * 1e3],
        );
        summary.push("speedup", vec![self.speedup()]);
        summary.push("events", vec![events as f64]);
        summary.push(
            "Mevents/s (suite)",
            vec![if wall > 0.0 {
                events as f64 / wall / 1e6
            } else {
                0.0
            }],
        );
        summary.push("events pooled", vec![self.pool.pooled() as f64]);
        summary.push("events boxed", vec![self.pool.boxed as f64]);
        summary.push("pool hit rate (%)", vec![self.pool.pool_hit_rate() * 100.0]);
        summary.push(
            "slot reuse rate (%)",
            vec![self.pool.slot_reuse_rate() * 100.0],
        );
        summary.push("same-time batches", vec![self.pool.batches as f64]);
        // The fused-path table: where the fast path engaged and why it
        // missed, per experiment. Deterministic in serial runs (the
        // ledger counts logical protocol decisions, not wall-clock), but
        // kept out of the goldens with the rest of X-PAR since job
        // attribution shifts with worker count.
        let mut fuse_tbl = Table::new(
            "X-PAR: fused fast path (hits and de-fuse causes)",
            ["attempts", "hits", "hit rate (%)"]
                .into_iter()
                .map(String::from)
                .chain(DefuseCause::ALL.iter().map(|c| c.name().to_string()))
                .collect(),
        );
        for e in &self.experiments {
            let mut fuse = FuseTally::default();
            for j in self.jobs.iter().filter(|j| j.experiment == e.id) {
                fuse.merge(&j.fuse);
            }
            let mut row = vec![
                fuse.attempts as f64,
                fuse.hits as f64,
                fuse.hit_rate() * 100.0,
            ];
            row.extend(fuse.causes().map(|(_, n)| n as f64));
            fuse_tbl.push(e.id, row);
        }
        let mut artifacts = vec![per_exp.into(), summary.into(), fuse_tbl.into()];
        if !self.shard_runs.is_empty() {
            let mut shard_tbl = Table::new(
                "X-PAR: sharded-engine balance (per shard)",
                vec![
                    "shards".to_string(),
                    "horizon grants".to_string(),
                    "events".to_string(),
                    "msgs sent".to_string(),
                    "msgs received".to_string(),
                    "barrier stall (ms)".to_string(),
                ],
            );
            for rec in &self.shard_runs {
                for (i, s) in rec.per_shard.iter().enumerate() {
                    shard_tbl.push(
                        format!("{}/s{i}", rec.label),
                        vec![
                            rec.shards as f64,
                            rec.rounds as f64,
                            s.events as f64,
                            s.sent as f64,
                            s.received as f64,
                            s.stall.as_secs_f64() * 1e3,
                        ],
                    );
                }
            }
            artifacts.push(shard_tbl.into());
        }
        artifacts
    }
}

/// Worker count selected by the environment: `VIBE_JOBS` if set (must be
/// a positive integer), else the machine's available parallelism.
pub fn default_workers() -> usize {
    match std::env::var("VIBE_JOBS") {
        Ok(v) => v
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| panic!("VIBE_JOBS must be a positive integer, got '{v}'")),
        Err(_) => std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// Engine shard count selected by the environment: `VIBE_SHARDS` if set
/// (must be a positive integer), else 1 — the serial engine, the exact
/// path the committed goldens pin. Experiments that drive a sharded
/// engine (X-SHARD) read this; their artifacts are byte-identical at any
/// value, which CI enforces.
pub fn default_shards() -> usize {
    match std::env::var("VIBE_SHARDS") {
        Ok(v) => v
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| panic!("VIBE_SHARDS must be a positive integer, got '{v}'")),
        Err(_) => 1,
    }
}

/// Fuse knob selected by the environment: `VIBE_FUSE=0` disables the
/// fused message-lifecycle fast path, anything else (or unset) leaves it
/// on. The committed goldens are byte-identical either way — CI runs a
/// `VIBE_FUSE=0` leg to enforce that — so the knob only trades simulator
/// wall-clock for an event-by-event general path (useful when bisecting
/// a suspected fusing bug).
pub fn default_fuse() -> bool {
    std::env::var("VIBE_FUSE").map_or(true, |v| v.trim() != "0")
}

/// Telemetry from one sharded-engine run, recorded by workloads that
/// drive a [`simkit::ShardedSim`] so the X-PAR artifact can surface
/// shard balance. One horizon grant = one synchronization round (every
/// shard receives one granted horizon per round).
#[derive(Clone, Debug)]
pub struct ShardRunRecord {
    /// Workload label ("mvia-ring", …).
    pub label: String,
    /// Shard count the engine ran with.
    pub shards: usize,
    /// Synchronization rounds == horizon grants per shard.
    pub rounds: u64,
    /// Per-shard engine telemetry for the run.
    pub per_shard: Vec<simkit::ShardStats>,
}

static SHARD_RUNS: std::sync::Mutex<Vec<ShardRunRecord>> = std::sync::Mutex::new(Vec::new());

/// Record one sharded-engine run for the next [`SuiteRun::xpar_artifacts`]
/// snapshot. Serial runs (one shard, zero rounds) are worth recording
/// too: they pin the bypass path's zero barrier-stall in the artifact.
pub fn record_shard_run(rec: ShardRunRecord) {
    SHARD_RUNS.lock().unwrap().push(rec);
}

/// Drain every recorded sharded-engine run, sorted by label for a
/// worker-schedule-independent order.
pub fn take_shard_runs() -> Vec<ShardRunRecord> {
    let mut runs = std::mem::take(&mut *SHARD_RUNS.lock().unwrap());
    runs.sort_by(|a, b| a.label.cmp(&b.label));
    runs
}

/// Fabric-robustness counters accumulated across a suite run's workloads
/// — pause-storm watchdog trips and fault-window frame drops. Surfaced
/// as the runner binary's `[fabric: ...]` summary line so a PR diff shows
/// at a glance when the suite's fault exposure changed. Sums are
/// order-independent, so the totals are identical at any `VIBE_JOBS`
/// worker count (each workload records exactly once whether it ran on
/// the serial `produce` path or as a plan job).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FabricHealth {
    /// Pause-storm watchdog trips across every recorded run.
    pub storm_trips: u64,
    /// Frames dropped by switch/trunk/node fault windows (FIFO flushes,
    /// dead-element refusals, no-route drops) across every recorded run.
    pub fault_dropped: u64,
    /// Node-scoped crash wipes (node_down + nic_reset window opens)
    /// across every recorded run.
    pub node_crashes: u64,
    /// Session-layer channels that survived at least one reconnect
    /// (journal replay + dedup) across every recorded run.
    pub sessions_recovered: u64,
}

static FABRIC_HEALTH: std::sync::Mutex<FabricHealth> = std::sync::Mutex::new(FabricHealth {
    storm_trips: 0,
    fault_dropped: 0,
    node_crashes: 0,
    sessions_recovered: 0,
});

/// Accumulate one run's fabric-robustness counters for the suite summary.
pub fn record_fabric_health(storm_trips: u64, fault_dropped: u64) {
    let mut h = FABRIC_HEALTH.lock().unwrap();
    h.storm_trips += storm_trips;
    h.fault_dropped += fault_dropped;
}

/// Accumulate one run's node-crash / session-recovery counters for the
/// suite summary (the `node_crashes=… sessions_recovered=…` half of the
/// `[fabric: ...]` roll-up line). Sums are order-independent, so the
/// totals are deterministic at any worker/shard/fuse setting.
pub fn record_crash_health(node_crashes: u64, sessions_recovered: u64) {
    let mut h = FABRIC_HEALTH.lock().unwrap();
    h.node_crashes += node_crashes;
    h.sessions_recovered += sessions_recovered;
}

/// Drain the accumulated fabric-robustness counters.
pub fn take_fabric_health() -> FabricHealth {
    std::mem::take(&mut *FABRIC_HEALTH.lock().unwrap())
}

struct JobOutcome {
    artifacts: Vec<Artifact>,
    wall: Duration,
    events: u64,
    pool: PoolStats,
    fuse: FuseTally,
}

fn execute(job: Job) -> JobOutcome {
    let ev0 = thread_events();
    let pool0 = thread_pool_stats();
    let fuse0 = thread_fuse_stats();
    let t0 = Instant::now();
    let artifacts = job.run();
    JobOutcome {
        artifacts,
        wall: t0.elapsed(),
        events: thread_events() - ev0,
        pool: thread_pool_stats().delta_since(&pool0),
        fuse: thread_fuse_stats().delta_since(&fuse0),
    }
}

/// Run a set of experiments on `workers` threads and reassemble the
/// artifacts deterministically (see the module docs for why the output is
/// byte-identical at any worker count).
pub fn run_suite(experiments: Vec<Experiment>, workers: usize) -> SuiteRun {
    let t0 = Instant::now();
    // Drop stale sharded-engine and fabric-health records from earlier
    // runs in this process so the snapshots cover exactly this suite's
    // jobs.
    drop(take_shard_runs());
    let _ = take_fabric_health();
    if workers <= 1 {
        // Serial fallback: the exact pre-parallel path — `produce` on the
        // calling thread, no plan, no pool. CI pins goldens in this mode.
        let mut runs = Vec::with_capacity(experiments.len());
        let mut jobs = Vec::with_capacity(experiments.len());
        let mut pool = PoolStats::zero();
        for e in experiments {
            let out = execute(Job::new(
                format!("{}/serial", e.id),
                crate::harness::BASE_SEED,
                e.produce,
            ));
            pool.merge(&out.pool);
            jobs.push(JobReport {
                experiment: e.id,
                label: format!("{}/serial", e.id),
                wall: out.wall,
                events: out.events,
                pool: out.pool,
                fuse: out.fuse,
            });
            runs.push(ExperimentRun {
                id: e.id,
                title: e.title,
                artifacts: out.artifacts,
                wall: out.wall,
                events: out.events,
            });
        }
        return SuiteRun {
            experiments: runs,
            jobs,
            workers: 1,
            wall: t0.elapsed(),
            pool,
            shard_runs: take_shard_runs(),
            fabric_health: take_fabric_health(),
        };
    }

    // Flatten every experiment's plan into one canonical job list.
    let mut exp_of_job: Vec<usize> = Vec::new();
    let mut slots: Vec<Mutex<Option<Job>>> = Vec::new();
    for (ei, e) in experiments.iter().enumerate() {
        for job in (e.plan)() {
            exp_of_job.push(ei);
            slots.push(Mutex::new(Some(job)));
        }
    }
    let labels: Vec<String> = slots
        .iter()
        .map(|s| {
            s.lock()
                .as_ref()
                .expect("job present before run")
                .label()
                .to_string()
        })
        .collect();
    let results: Vec<Mutex<Option<JobOutcome>>> = slots.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..workers.min(slots.len()).max(1) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = slots.get(i) else { break };
                let job = slot.lock().take().expect("job claimed twice");
                *results[i].lock() = Some(execute(job));
            });
        }
    });

    let outcomes: Vec<JobOutcome> = results
        .into_iter()
        .map(|m| m.into_inner().expect("worker pool left a job unexecuted"))
        .collect();

    let mut pool = PoolStats::zero();
    let mut jobs = Vec::with_capacity(outcomes.len());
    let mut per_exp_parts: Vec<Vec<Vec<Artifact>>> =
        experiments.iter().map(|_| Vec::new()).collect();
    let mut per_exp_wall: Vec<Duration> = vec![Duration::ZERO; experiments.len()];
    let mut per_exp_events: Vec<u64> = vec![0; experiments.len()];
    for ((out, ei), label) in outcomes.into_iter().zip(exp_of_job).zip(labels) {
        pool.merge(&out.pool);
        per_exp_wall[ei] += out.wall;
        per_exp_events[ei] += out.events;
        jobs.push(JobReport {
            experiment: experiments[ei].id,
            label,
            wall: out.wall,
            events: out.events,
            pool: out.pool,
            fuse: out.fuse,
        });
        per_exp_parts[ei].push(out.artifacts);
    }

    let runs: Vec<ExperimentRun> = experiments
        .iter()
        .zip(per_exp_parts)
        .zip(per_exp_wall.iter().zip(&per_exp_events))
        .map(|((e, parts), (wall, events))| ExperimentRun {
            id: e.id,
            title: e.title,
            artifacts: merge_artifacts(parts),
            wall: *wall,
            events: *events,
        })
        .collect();

    SuiteRun {
        experiments: runs,
        jobs,
        workers,
        wall: t0.elapsed(),
        pool,
        shard_runs: take_shard_runs(),
        fabric_health: take_fabric_health(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::find;

    #[test]
    fn default_workers_reads_env_or_parallelism() {
        // Can't mutate the environment safely in a threaded test binary;
        // just assert the fallback is sane.
        assert!(default_workers() >= 1);
    }

    #[test]
    fn job_carries_label_and_seed() {
        let j = Job::new("T1/cLAN", 0x5EED, Vec::new);
        assert_eq!(j.label(), "T1/cLAN");
        assert_eq!(j.seed(), 0x5EED);
        assert!(j.run().is_empty());
    }

    #[test]
    fn single_experiment_parallel_matches_serial() {
        // The cheapest registry entry with a multi-job plan: X-SCHED.
        let serial = find("X-SCHED").unwrap().run_json();
        let run = run_suite(vec![find("X-SCHED").unwrap()], 4);
        assert_eq!(run.experiments.len(), 1);
        assert_eq!(run.experiments[0].run_json(), serial);
        assert!(run.jobs.len() > 1, "X-SCHED should decompose");
        assert!(run.total_events() > 0);
    }

    #[test]
    fn serial_fallback_reports_one_job_per_experiment() {
        let run = run_suite(vec![find("CQ").unwrap()], 1);
        assert_eq!(run.workers, 1);
        assert_eq!(run.jobs.len(), 1);
        assert_eq!(run.jobs[0].label, "CQ/serial");
        assert!(
            run.jobs[0].events > 0,
            "events attributed via thread counter"
        );
        assert!(run.pool.pooled() + run.pool.boxed > 0);
        let xpar = run.xpar_artifacts();
        // A fourth table (shard balance) follows when a test running
        // beside this one recorded a `Rig` run in the process-wide ledger
        // during the suite.
        assert!(xpar.len() >= 3);
        assert!(xpar[0].title().starts_with("X-PAR"));
        assert!(xpar[2].title().contains("fused fast path"));
    }

    #[test]
    fn fuse_ledger_attributed_to_jobs() {
        let run = run_suite(vec![find("CQ").unwrap()], 1);
        let fuse = &run.jobs[0].fuse;
        assert_eq!(
            fuse.attempts,
            fuse.hits + fuse.defused(),
            "per-job fuse ledger must balance: {fuse:?}"
        );
        assert!(
            fuse.attempts > 0,
            "CQ posts sends, so the guard must have been evaluated (even \
             VIBE_FUSE=0 runs count attempts, as Disabled de-fuses)"
        );
    }
}
