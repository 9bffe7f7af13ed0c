//! The deterministic parallel suite runner.
//!
//! Every VIBe experiment is a set of independent discrete-event
//! simulations, so the suite parallelizes embarrassingly well — *if* the
//! artifacts come out byte-identical at any worker count. This module
//! makes that hold by construction:
//!
//! 1. Each experiment declares a **plan**: a list of self-contained
//!    [`Job`]s in canonical order — one per point of a figure's
//!    [`crate::sweep::Sweep`], or a closure over a table builder narrowed
//!    to one slice (one profile, one row, one table). Every measurement
//!    derives its RNG streams from [`crate::harness::BASE_SEED`] by
//!    content (`SimRng::derive(seed, label)`), so no job can observe
//!    *when* or *where* another job ran.
//! 2. Workers pull jobs from a shared queue (an atomic cursor — the
//!    degenerate but optimal form of work stealing for independent
//!    one-shot jobs) inside a [`std::thread::scope`], so the pool needs no
//!    `'static` bounds and no lingering threads.
//! 3. Job outputs are reassembled **in canonical job order** via
//!    [`merge_artifacts`], which replays the append order of the leaf
//!    builders — so the merged artifact set does not depend on which
//!    worker ran what, or when.
//!
//! The plan is the only definition of an experiment. With `workers <= 1`
//! (what `VIBE_JOBS=1` selects) the same jobs run in canonical order on
//! the calling thread — no pool, no thread spawn — and go through the
//! same merge, so a serial run is the parallel run with one worker, not a
//! second code path. The committed goldens pin the result across time.
//!
//! The runner also harvests the per-thread scheduler telemetry simkit
//! maintains ([`thread_events`], [`thread_pool_stats`]) to attribute
//! wall-clock, event throughput, and event-arena churn to each job —
//! surfaced as the X-PAR artifact ([`SuiteRun::xpar_artifacts`]). What a
//! workload wants the suite summary to know (fabric health) goes into a
//! per-job ledger that exists only while the job's closure runs, so
//! concurrent suites in one process cannot see each other's records.

use std::cell::RefCell;
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
    run: Box<dyn FnOnce() -> Vec<Artifact> + Send>,
}

impl Job {
    /// Package a closure as a job. `label` names the slice (for reports).
    pub fn new(
        label: impl Into<String>,
        run: impl FnOnce() -> Vec<Artifact> + Send + 'static,
    ) -> Job {
        Job {
            label: label.into(),
            run: Box::new(run),
        }
    }

    /// The job's display label.
    pub fn label(&self) -> &str {
        &self.label
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
    /// The merged artifact set — byte-identical at any worker count.
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
    /// Workers used (1 = the calling thread, no pool).
    pub workers: usize,
    /// End-to-end wall-clock of the whole run.
    pub wall: Duration,
    /// Event-arena churn aggregated over every job.
    pub pool: PoolStats,
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
        vec![per_exp.into(), summary.into(), fuse_tbl.into()]
    }
}

/// Parse a worker count given as `what` (a flag or an environment
/// variable): a positive integer, or a message naming `what`.
pub fn parse_count(what: &str, value: &str) -> Result<usize, String> {
    let n = value.trim().parse::<usize>().ok().filter(|&n| n >= 1);
    n.ok_or_else(|| format!("{what} must be a positive integer, got '{value}'"))
}

/// The count in environment variable `name`, if it is set.
fn env_count(name: &str) -> Result<Option<usize>, String> {
    match std::env::var(name) {
        Ok(v) => parse_count(name, &v).map(Some),
        Err(_) => Ok(None),
    }
}

/// Worker count selected by the environment: `VIBE_JOBS` if set (must be
/// a positive integer, else an error saying so), else the machine's
/// available parallelism.
pub fn try_default_workers() -> Result<usize, String> {
    let parallelism = || std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(env_count("VIBE_JOBS")?.unwrap_or_else(parallelism))
}

/// [`try_default_workers`] for callers with nobody to report to. Panics on
/// a malformed `VIBE_JOBS`; a front end checks with the `try_` form first.
pub fn default_workers() -> usize {
    try_default_workers().unwrap_or_else(|e| panic!("{e}"))
}

/// Fabric-robustness counters accumulated across a suite run's workloads
/// — pause-storm watchdog trips and fault-window frame drops. Surfaced
/// as the runner binary's `[fabric: ...]` summary line so a PR diff shows
/// at a glance when the suite's fault exposure changed. Sums are
/// order-independent, so the totals are identical at any `VIBE_JOBS`
/// worker count (each workload records exactly once, inside its plan
/// job).
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

impl FabricHealth {
    fn merge(&mut self, other: &FabricHealth) {
        self.storm_trips += other.storm_trips;
        self.fault_dropped += other.fault_dropped;
        self.node_crashes += other.node_crashes;
        self.sessions_recovered += other.sessions_recovered;
    }
}

thread_local! {
    /// The fabric health the job running on this thread reported:
    /// `execute` opens it before the job's closure and closes it after.
    static LEDGER: RefCell<Option<FabricHealth>> = const { RefCell::new(None) };
}

/// Write into the running job's ledger. A workload driven outside a suite
/// job (a unit test, `perfbench`'s direct legs) has no ledger and the
/// record is dropped — nothing accumulates for the life of the process.
pub(crate) fn ledger(write: impl FnOnce(&mut FabricHealth)) {
    LEDGER.with_borrow_mut(|l| l.as_mut().map(write));
}

struct JobOutcome {
    artifacts: Vec<Artifact>,
    wall: Duration,
    events: u64,
    pool: PoolStats,
    fuse: FuseTally,
    health: FabricHealth,
}

fn execute(job: Job) -> JobOutcome {
    let ev0 = thread_events();
    let pool0 = thread_pool_stats();
    let fuse0 = thread_fuse_stats();
    LEDGER.set(Some(FabricHealth::default()));
    let t0 = Instant::now();
    let artifacts = job.run();
    JobOutcome {
        artifacts,
        wall: t0.elapsed(),
        events: thread_events() - ev0,
        pool: thread_pool_stats().delta_since(&pool0),
        fuse: thread_fuse_stats().delta_since(&fuse0),
        health: LEDGER.take().expect("ledger stays open for the whole job"),
    }
}

/// Run a set of experiments on `workers` threads and reassemble the
/// artifacts deterministically (see the module docs for why the output is
/// byte-identical at any worker count).
pub fn run_suite(experiments: Vec<Experiment>, workers: usize) -> SuiteRun {
    let t0 = Instant::now();
    let workers = workers.max(1);

    // Flatten every experiment's plan into one canonical job list.
    let mut exp_of_job: Vec<usize> = Vec::new();
    let mut labels: Vec<String> = Vec::new();
    let mut slots: Vec<Mutex<Option<Job>>> = Vec::new();
    for (ei, e) in experiments.iter().enumerate() {
        for job in (e.plan)() {
            exp_of_job.push(ei);
            labels.push(job.label().to_string());
            slots.push(Mutex::new(Some(job)));
        }
    }
    let results: Vec<Mutex<Option<JobOutcome>>> = slots.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let work = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = slots.get(i) else { break };
        let job = slot.lock().take().expect("job claimed twice");
        *results[i].lock() = Some(execute(job));
    };
    if workers == 1 {
        // One worker is the calling thread: canonical order, no spawn.
        work();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..workers.min(slots.len()) {
                scope.spawn(work);
            }
        });
    }

    let mut pool = PoolStats::zero();
    let mut fabric_health = FabricHealth::default();
    let mut jobs = Vec::with_capacity(results.len());
    let mut runs: Vec<(ExperimentRun, Vec<Vec<Artifact>>)> = experiments
        .iter()
        .map(|e| {
            let run = ExperimentRun {
                id: e.id,
                title: e.title,
                artifacts: Vec::new(),
                wall: Duration::ZERO,
                events: 0,
            };
            (run, Vec::new())
        })
        .collect();
    for ((result, ei), label) in results.into_iter().zip(exp_of_job).zip(labels) {
        let out = result
            .into_inner()
            .expect("worker pool left a job unexecuted");
        pool.merge(&out.pool);
        fabric_health.merge(&out.health);
        let (run, parts) = &mut runs[ei];
        run.wall += out.wall;
        run.events += out.events;
        parts.push(out.artifacts);
        jobs.push(JobReport {
            experiment: run.id,
            label,
            wall: out.wall,
            events: out.events,
            pool: out.pool,
            fuse: out.fuse,
        });
    }

    SuiteRun {
        experiments: runs
            .into_iter()
            .map(|(run, parts)| ExperimentRun {
                artifacts: merge_artifacts(parts),
                ..run
            })
            .collect(),
        jobs,
        workers,
        wall: t0.elapsed(),
        pool,
        fabric_health,
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
    fn counts_must_be_positive_integers() {
        assert_eq!(parse_count("--jobs", " 4 "), Ok(4));
        for bad in ["0", "x", "-1", ""] {
            let err = parse_count("VIBE_JOBS", bad).unwrap_err();
            assert_eq!(
                err,
                format!("VIBE_JOBS must be a positive integer, got '{bad}'")
            );
        }
    }

    #[test]
    fn job_carries_label() {
        let j = Job::new("T1/cLAN", Vec::new);
        assert_eq!(j.label(), "T1/cLAN");
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

    thread_local! {
        /// Labels of the traced jobs that ran on *this* thread, in order.
        static RAN_HERE: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
    }

    /// CQ's plan, each job wrapped to note the thread it ran on.
    fn traced_cq_plan() -> Vec<Job> {
        (find("CQ").unwrap().plan)()
            .into_iter()
            .map(|j| {
                let label = j.label().to_string();
                Job::new(label.clone(), move || {
                    RAN_HERE.with_borrow_mut(|r| r.push(label));
                    j.run()
                })
            })
            .collect()
    }

    #[test]
    fn one_worker_runs_the_plan_in_order_on_the_calling_thread() {
        let plan: Vec<String> = (find("CQ").unwrap().plan)()
            .iter()
            .map(|j| j.label().to_string())
            .collect();
        assert!(plan.len() > 1, "CQ should decompose");
        let traced = || Experiment {
            plan: traced_cq_plan,
            ..find("CQ").unwrap()
        };
        let pooled = run_suite(vec![traced()], 2);
        assert_eq!(pooled.jobs.len(), plan.len());
        assert!(RAN_HERE.take().is_empty(), "two workers are a pool");

        let run = run_suite(vec![traced()], 1);
        assert_eq!(
            run.experiments[0].run_json(),
            pooled.experiments[0].run_json()
        );
        assert_eq!(run.workers, 1);
        assert_eq!(
            RAN_HERE.take(),
            plan,
            "exactly the plan's jobs, in plan order, on the calling thread"
        );
        let reported: Vec<&str> = run.jobs.iter().map(|j| j.label.as_str()).collect();
        assert_eq!(reported, plan, "with the plan's labels");
        assert!(
            run.jobs.iter().all(|j| j.events > 0),
            "events attributed via thread counter"
        );
        assert!(run.pool.pooled() + run.pool.boxed > 0);
        let xpar = run.xpar_artifacts();
        assert_eq!(xpar.len(), 3);
        assert!(xpar[0].title().starts_with("X-PAR"));
        assert!(xpar[2].title().contains("fused fast path"));
    }

    #[test]
    fn concurrent_suites_keep_their_own_ledgers() {
        // Suites on threads of one process: each must report exactly its
        // own fabric health — the sums every finished
        // world rolls up, pinned to the values before the roll-up moved
        // into `harness::finish_world`.
        let suite =
            |id: &'static str| std::thread::spawn(move || run_suite(vec![find(id).unwrap()], 1));
        let health = |storm_trips, fault_dropped, node_crashes, sessions_recovered| FabricHealth {
            storm_trips,
            fault_dropped,
            node_crashes,
            sessions_recovered,
        };
        for _ in 0..3 {
            let (ring, failover) = (suite("X-SHARD"), suite("X-FAILOVER"));
            let (ring, failover) = (ring.join().unwrap(), failover.join().unwrap());
            assert_eq!(ring.fabric_health, FabricHealth::default());
            assert_eq!(failover.fabric_health, health(1, 11, 0, 0));
            assert_eq!(ring.xpar_artifacts().len(), 3);
        }
        let (chaos, crash) = (suite("X-CHAOS"), suite("X-CRASH"));
        assert_eq!(chaos.join().unwrap().fabric_health, health(0, 8, 4, 0));
        assert_eq!(crash.join().unwrap().fabric_health, health(0, 64, 1, 3));
        // Outside a job there is no ledger: the record is dropped.
        ledger(|_| panic!("no job is open on the test thread"));
    }

    #[test]
    fn fuse_ledger_attributed_to_jobs() {
        let run = run_suite(vec![find("CQ").unwrap()], 1);
        let mut fuse = FuseTally::default();
        for j in &run.jobs {
            fuse.merge(&j.fuse);
        }
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
