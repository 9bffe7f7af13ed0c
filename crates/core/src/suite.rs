//! The experiment registry: every table and figure the paper reports (plus
//! the tech-report extras and our extensions) mapped to a runnable that
//! regenerates it as structured [`Artifact`]s — renderable as paper-style
//! text or CSV. Drives the `run_suite` example binary.

use via::Profile;

use crate::report::{json_str, merge_artifacts, Artifact, Figure};
use crate::runner::Job;
use crate::sweep::{Metric, Sweep};
use crate::{
    base, breakdown, chaos, client_server, cqimpact, crash_bench, dsm_bench, extra, failover_bench,
    fault_bench, getput, mpl_bench, mvi, nondata, scale, sched_bench, shard_bench, topo_bench,
    trace_bench, xlate,
};
use simkit::WaitMode;

/// Which paper category an experiment belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Category {
    /// §3.1 non-data-transfer benchmarks.
    NonDataTransfer,
    /// §3.2 data-transfer benchmarks.
    DataTransfer,
    /// §3.3 programming-model benchmarks.
    ProgrammingModel,
}

/// One runnable experiment.
pub struct Experiment {
    /// Short id ("T1", "F3", "X-MDS", …).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Paper category.
    pub category: Category,
    /// The experiment's only definition: self-contained [`Job`]s in
    /// canonical order, whose outputs [`merge_artifacts`] reassembles
    /// into the artifact set — on one worker or many.
    pub plan: fn() -> Vec<Job>,
}

impl Experiment {
    /// Run the plan's jobs in order on the calling thread and merge them.
    fn artifacts(&self) -> Vec<Artifact> {
        merge_artifacts((self.plan)().into_iter().map(Job::run))
    }

    /// Run and render every artifact as paper-style text.
    pub fn run_text(&self) -> String {
        render_text(&self.artifacts())
    }

    /// Run and serialize the artifact set as one JSON document (the
    /// paper's planned "repository of VIBe results" interchange form).
    pub fn run_json(&self) -> String {
        render_json(self.id, self.title, &self.artifacts())
    }

    /// Run and render every artifact as `(slug, csv)` pairs suitable for
    /// writing to files.
    pub fn run_csv(&self) -> Vec<(String, String)> {
        render_csv(self.id, &self.artifacts())
    }
}

/// Render an artifact set as paper-style text. Shared by
/// [`Experiment::run_text`] and the suite runner.
pub fn render_text(artifacts: &[Artifact]) -> String {
    artifacts
        .iter()
        .map(Artifact::render)
        .collect::<Vec<_>>()
        .join("\n")
}

/// Serialize an artifact set as one JSON document (see
/// [`Experiment::run_json`]).
pub fn render_json(id: &str, title: &str, artifacts: &[Artifact]) -> String {
    let items: Vec<String> = artifacts.iter().map(|a| a.to_json()).collect();
    format!(
        "{{\n  \"id\": {},\n  \"title\": {},\n  \"artifacts\": [\n{}\n  ]\n}}",
        json_str(id),
        json_str(title),
        items.join(",\n")
    )
}

/// Render an artifact set as `(slug, csv)` pairs (see
/// [`Experiment::run_csv`]).
pub fn render_csv(id: &str, artifacts: &[Artifact]) -> Vec<(String, String)> {
    artifacts
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let slug: String = a
                .title()
                .chars()
                .map(|c| {
                    if c.is_alphanumeric() {
                        c.to_ascii_lowercase()
                    } else {
                        '_'
                    }
                })
                .collect();
            (format!("{}_{}_{}", id.to_lowercase(), i, slug), a.to_csv())
        })
        .collect()
}

fn trio() -> Vec<Profile> {
    Profile::paper_trio()
}

fn f1_f2(profiles: &[Profile]) -> Vec<Artifact> {
    let sizes = nondata::registration_sizes();
    let mut reg = Figure::new(
        "Fig 1: cost of memory registration",
        "buffer bytes",
        "cost (us)",
    );
    let mut dereg = Figure::new(
        "Fig 2: cost of memory deregistration",
        "buffer bytes",
        "cost (us)",
    );
    for p in profiles {
        let (r, d) = nondata::registration_costs(p.clone(), &sizes);
        reg.push(r);
        dereg.push(d);
    }
    vec![reg.into(), dereg.into()]
}

const F6_SIZES: [u64; 4] = [4, 256, 4096, 28672];
const F6_CPU_COUNTS: [usize; 3] = [1, 8, 32];

fn getput_profiles() -> Vec<Profile> {
    // An RDMA-read-capable variant provides the model's `get` mapping.
    let mut custom = Profile::custom();
    custom.name = "custom+rd-read";
    custom.supports_rdma_read = true;
    vec![Profile::clan(), Profile::mvia(), custom]
}

const GETPUT_SIZES: [u64; 4] = [4, 256, 4096, 28672];

const X_TRACE_SIZE: u64 = 4096;

const X_FAULT_FLAPS: [u64; 4] = [0, 500, 2_000, 8_000];

// ---------------------------------------------------------------------
// Plans: each experiment's one definition. A figure is one or more
// `Sweep`s, and its plan is their points, one job each, sweep by sweep.
// Tables, and F1-F2 (one run per profile yields a point of both panels),
// are hand-written jobs, each calling a leaf builder narrowed to one
// slice (one profile, one row, one table). Replaying the slices in plan
// order through `merge_artifacts` builds the artifact set, whichever
// workers ran them. The committed goldens (`tests/goldens/<id>.json`,
// all 27) pin the bytes.
// ---------------------------------------------------------------------

/// The points of `sweeps` as jobs, sweep by sweep.
fn sweep_jobs(id: &str, sweeps: impl IntoIterator<Item = Sweep>) -> Vec<Job> {
    sweeps.into_iter().flat_map(|s| s.jobs(id)).collect()
}

/// One job per profile, each producing a full artifact slice for it.
fn per_profile_jobs(
    id: &str,
    run: impl Fn(Profile) -> Vec<Artifact> + Clone + Send + 'static,
) -> Vec<Job> {
    trio()
        .into_iter()
        .map(|p| {
            let run = run.clone();
            Job::new(format!("{id}/{}", p.name), move || run(p))
        })
        .collect()
}

fn plan_t1() -> Vec<Job> {
    // Table 1 has fixed cost rows and one column per profile: per-profile
    // jobs column-merge.
    per_profile_jobs("T1", |p| vec![nondata::table1(&[p], 3).into()])
}

fn plan_f1_f2() -> Vec<Job> {
    per_profile_jobs("F1-F2", |p| f1_f2(&[p]))
}

fn plan_f3() -> Vec<Job> {
    let panel = |m| base::base_sweep(&trio(), WaitMode::Poll, m);
    sweep_jobs("F3", [Metric::Latency, Metric::Bandwidth].map(panel))
}

fn plan_f4() -> Vec<Job> {
    let panel = |m| base::base_sweep(&trio(), WaitMode::Block, m);
    sweep_jobs("F4", [Metric::Latency, Metric::Cpu].map(panel))
}

fn plan_f5() -> Vec<Job> {
    let panel = |m, levels: &[u32]| xlate::reuse_sweep(Profile::bvia(), m, levels);
    sweep_jobs(
        "F5",
        [
            panel(Metric::Latency, &xlate::reuse_levels()),
            panel(Metric::Bandwidth, &xlate::reuse_levels()),
            panel(Metric::Cpu, &[100, 0]),
        ],
    )
}

fn plan_cq() -> Vec<Job> {
    // One row per profile in a shared-column table: row merge.
    per_profile_jobs("CQ", |p| vec![cqimpact::cq_overhead_table(&[p], 64).into()])
}

fn plan_f6() -> Vec<Job> {
    let panel = |m, counts: &[usize]| mvi::vi_sweep(Profile::bvia(), m, counts, &F6_SIZES);
    sweep_jobs(
        "F6",
        [
            panel(Metric::Latency, &mvi::vi_counts()),
            panel(Metric::Bandwidth, &mvi::vi_counts()),
            panel(Metric::Cpu, &F6_CPU_COUNTS),
        ],
    )
}

fn plan_f7() -> Vec<Job> {
    client_server::transaction_sweep(
        &trio(),
        &client_server::request_sizes(),
        &client_server::reply_sizes(),
    )
    .jobs("F7")
}

fn plan_mds() -> Vec<Job> {
    extra::mds_sweep(&trio(), 8192).jobs("X-MDS")
}

fn plan_asy() -> Vec<Job> {
    extra::asy_sweep(&trio(), 256).jobs("X-ASY")
}

fn plan_rdma() -> Vec<Job> {
    extra::rdma_sweep(&trio(), &[4, 256, 4096, 28672]).jobs("X-RDMA")
}

fn plan_pip() -> Vec<Job> {
    extra::pip_sweep(&trio(), 4096).jobs("X-PIP")
}

fn plan_mtu() -> Vec<Job> {
    sweep_jobs("X-MTU", extra::mtu_sweeps(Profile::clan(), 28672))
}

fn plan_rel() -> Vec<Job> {
    vec![
        Job::new("X-REL/levels", || {
            vec![extra::rel_table(Profile::clan(), 4096).into()]
        }),
        Job::new("X-REL/loss", || {
            vec![extra::rel_loss_table(Profile::clan(), 4096, &[0.0, 0.01, 0.05]).into()]
        }),
        Job::new("X-REL/tail", || {
            vec![extra::rel_tail_table(Profile::clan(), 1024, &[0.0, 0.01, 0.03]).into()]
        }),
    ]
}

fn plan_getput() -> Vec<Job> {
    getput::getput_sweep(&getput_profiles(), &GETPUT_SIZES).jobs("X-GETPUT")
}

fn plan_mpl() -> Vec<Job> {
    sweep_jobs(
        "X-MPL",
        [
            mpl_bench::overhead_sweep(&trio()),
            mpl_bench::threshold_sweep(Profile::bvia(), 16384),
        ],
    )
}

fn plan_dsm() -> Vec<Job> {
    let mut jobs = per_profile_jobs("X-DSM/migration", |p| {
        vec![dsm_bench::migration_table(&[p]).into()]
    });
    jobs.extend(dsm_bench::false_sharing_sweep(Profile::clan()).jobs("X-DSM"));
    jobs
}

fn plan_breakdown() -> Vec<Job> {
    // NOT per profile: `breakdown_table` drops rows that are zero across
    // *all* profiles, so splitting the profile set could change which rows
    // survive. Decompose per message size only.
    [4u64, 28672]
        .into_iter()
        .map(|size| {
            Job::new(format!("X-BRK/{size}"), move || {
                vec![breakdown::breakdown_table(&trio(), size).into()]
            })
        })
        .collect()
}

fn plan_trace() -> Vec<Job> {
    // Both X-TRACE tables have fixed rows and one column per profile:
    // per-profile jobs column-merge (each job emits both table slices).
    per_profile_jobs("X-TRACE", |p| {
        let (stages, counts) = trace_bench::x_trace_tables(&[p], X_TRACE_SIZE);
        vec![stages.into(), counts.into()]
    })
}

fn plan_scale() -> Vec<Job> {
    scale::fan_in_sweep(&trio(), &[1, 2, 4, 8], 1024).jobs("X-SCALE")
}

fn plan_sched() -> Vec<Job> {
    let mut jobs = vec![Job::new("X-SCHED/classes", || {
        vec![sched_bench::class_table(Profile::clan(), 64).into()]
    })];
    // Per-profile retransmit rows; profiles without reliable delivery
    // contribute a zero-row slice, which row-merges as a no-op.
    jobs.extend(per_profile_jobs("X-SCHED/retx", |p| {
        vec![sched_bench::retx_timer_table(&[p], &[0.0, 0.05], 64).into()]
    }));
    jobs
}

fn plan_fault() -> Vec<Job> {
    // Per-profile jobs for each table; rows merge in registry order.
    // Unreliable-only profiles contribute zero-row recovery slices.
    let mut jobs = per_profile_jobs("X-FAULT/recovery", |p| {
        vec![fault_bench::recovery_table(&[p], &X_FAULT_FLAPS).into()]
    });
    jobs.extend(per_profile_jobs("X-FAULT/burst", |p| {
        vec![fault_bench::burst_goodput_table(&[p]).into()]
    }));
    jobs.extend(per_profile_jobs("X-FAULT/stall", |p| {
        vec![fault_bench::stall_table(&[p]).into()]
    }));
    jobs.push(Job::new("X-FAULT/reconnect", || {
        vec![fault_bench::reconnect_table(Profile::clan()).into()]
    }));
    jobs
}

fn plan_chaos() -> Vec<Job> {
    // One job per episode: each emits a single-row slice of the shared
    // table, and same-column slices row-merge back in episode order.
    (0..chaos::EPISODES)
        .map(|i| {
            Job::new(format!("X-CHAOS/ep{i:02}"), move || {
                vec![chaos::episode_table(i).into()]
            })
        })
        .collect()
}

fn plan_ring() -> Vec<Job> {
    // One ring per profile; each job is a whole table, so slices
    // column-merge trivially.
    per_profile_jobs("X-SHARD", |p| vec![shard_bench::ring_table(p).into()])
}

fn plan_topo() -> Vec<Job> {
    use topo_bench::StormShape;
    vec![
        // The storm rows share one table: single-row slices row-merge in
        // job order (star control first).
        Job::new("X-TOPO/storm-star", || {
            vec![topo_bench::storm_table(&[StormShape::Star]).into()]
        }),
        Job::new("X-TOPO/storm-fat-tree", || {
            vec![topo_bench::storm_table(&[StormShape::FatTree]).into()]
        }),
        // One incast run feeds both incast artifacts; splitting it would
        // run the workload twice for identical tables.
        Job::new("X-TOPO/incast", || {
            let (flows, ports) = topo_bench::incast_tables();
            vec![flows.into(), ports.into()]
        }),
        Job::new("X-TOPO/all-to-all", || {
            vec![topo_bench::all_to_all_table().into()]
        }),
    ]
}

fn plan_crash() -> Vec<Job> {
    // One node-kill run feeds both of its artifacts.
    vec![Job::new("X-CRASH/node-kill", || {
        let (flows, summary) = crash_bench::node_kill_tables();
        vec![flows.into(), summary.into()]
    })]
}

fn plan_failover() -> Vec<Job> {
    vec![
        // One spine-kill run feeds both of its artifacts.
        Job::new("X-FAILOVER/spine-kill", || {
            let (flows, summary) = failover_bench::spine_kill_tables();
            vec![flows.into(), summary.into()]
        }),
        Job::new("X-FAILOVER/pause-cascade", || {
            vec![failover_bench::pause_cascade_table().into()]
        }),
    ]
}

/// Every experiment, in the paper's reporting order.
pub fn all_experiments() -> Vec<Experiment> {
    use Category::*;
    vec![
        Experiment {
            id: "T1",
            title: "Table 1: non-data transfer costs",
            category: NonDataTransfer,
            plan: plan_t1,
        },
        Experiment {
            id: "F1-F2",
            title: "Figs 1-2: memory registration / deregistration",
            category: NonDataTransfer,
            plan: plan_f1_f2,
        },
        Experiment {
            id: "F3",
            title: "Fig 3: base latency & bandwidth (polling)",
            category: DataTransfer,
            plan: plan_f3,
        },
        Experiment {
            id: "F4",
            title: "Fig 4: base latency & CPU utilization (blocking)",
            category: DataTransfer,
            plan: plan_f4,
        },
        Experiment {
            id: "F5",
            title: "Fig 5: buffer-reuse sweep (BVIA)",
            category: DataTransfer,
            plan: plan_f5,
        },
        Experiment {
            id: "CQ",
            title: "Sec 4.3.3: completion-queue overhead",
            category: DataTransfer,
            plan: plan_cq,
        },
        Experiment {
            id: "F6",
            title: "Fig 6: active-VI sweep (BVIA)",
            category: DataTransfer,
            plan: plan_f6,
        },
        Experiment {
            id: "F7",
            title: "Fig 7: client/server transactions",
            category: ProgrammingModel,
            plan: plan_f7,
        },
        Experiment {
            id: "X-MDS",
            title: "TR: multiple data segments",
            category: DataTransfer,
            plan: plan_mds,
        },
        Experiment {
            id: "X-ASY",
            title: "TR: asynchronous message handling",
            category: DataTransfer,
            plan: plan_asy,
        },
        Experiment {
            id: "X-RDMA",
            title: "TR: RDMA write vs send/receive",
            category: DataTransfer,
            plan: plan_rdma,
        },
        Experiment {
            id: "X-PIP",
            title: "TR: sender pipeline length",
            category: DataTransfer,
            plan: plan_pip,
        },
        Experiment {
            id: "X-MTU",
            title: "TR: maximum transfer unit",
            category: DataTransfer,
            plan: plan_mtu,
        },
        Experiment {
            id: "X-REL",
            title: "TR: reliability levels (incl. loss injection)",
            category: DataTransfer,
            plan: plan_rel,
        },
        Experiment {
            id: "X-GETPUT",
            title: "Future work (Sec 5): get/put programming model",
            category: ProgrammingModel,
            plan: plan_getput,
        },
        Experiment {
            id: "X-SCALE",
            title: "Extension: fan-in scalability (aggregate bandwidth vs clients)",
            category: ProgrammingModel,
            plan: plan_scale,
        },
        Experiment {
            id: "X-SCHED",
            title: "Extension: scheduler event classes & retransmit-timer ledger",
            category: DataTransfer,
            plan: plan_sched,
        },
        Experiment {
            id: "X-BRK",
            title: "Extension: per-component breakdown of one transfer",
            category: DataTransfer,
            plan: plan_breakdown,
        },
        Experiment {
            id: "X-TRACE",
            title: "Extension: trace-derived stage latency & lifecycle counters",
            category: DataTransfer,
            plan: plan_trace,
        },
        Experiment {
            id: "X-FAULT",
            title: "Extension: fault injection, recovery latency & VI error states",
            category: DataTransfer,
            plan: plan_fault,
        },
        Experiment {
            id: "X-CHAOS",
            title: "Extension: seeded chaos episodes & conservation invariants",
            category: DataTransfer,
            plan: plan_chaos,
        },
        Experiment {
            id: "X-SHARD",
            title: "Extension: sharded-engine ring traffic (lookahead synchronization)",
            category: DataTransfer,
            plan: plan_ring,
        },
        Experiment {
            id: "X-TOPO",
            title: "Extension: multi-switch topologies, port backpressure & scale-out",
            category: DataTransfer,
            plan: plan_topo,
        },
        Experiment {
            id: "X-FAILOVER",
            title: "Extension: switch fault domains, deterministic reroute & the pause watchdog",
            category: DataTransfer,
            plan: plan_failover,
        },
        Experiment {
            id: "X-CRASH",
            title: "Extension: node fault domains, heartbeat detection & session recovery",
            category: DataTransfer,
            plan: plan_crash,
        },
        Experiment {
            id: "X-MPL",
            title: "Future work (Sec 5): message-passing layer over VIA",
            category: ProgrammingModel,
            plan: plan_mpl,
        },
        Experiment {
            id: "X-DSM",
            title: "Future work (Sec 5): distributed shared memory over VIA",
            category: ProgrammingModel,
            plan: plan_dsm,
        },
    ]
}

/// Find an experiment by id (case-insensitive).
pub fn find(id: &str) -> Option<Experiment> {
    all_experiments()
        .into_iter()
        .find(|e| e.id.eq_ignore_ascii_case(id))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_paper_artifact() {
        let ids: Vec<&str> = all_experiments().iter().map(|e| e.id).collect();
        for id in ["T1", "F1-F2", "F3", "F4", "F5", "CQ", "F6", "F7"] {
            assert!(ids.contains(&id), "missing {id}");
        }
        // The six TR-only benchmarks of §3.2.5 plus the extensions.
        for id in [
            "X-MDS",
            "X-ASY",
            "X-RDMA",
            "X-PIP",
            "X-MTU",
            "X-REL",
            "X-GETPUT",
            "X-SCALE",
            "X-SCHED",
            "X-FAULT",
            "X-CHAOS",
            "X-SHARD",
            "X-TOPO",
            "X-FAILOVER",
            "X-CRASH",
        ] {
            assert!(ids.contains(&id), "missing {id}");
        }
    }

    #[test]
    fn every_job_label_is_unique() {
        // A label names one simulation: X-PAR rows and any replay key on it.
        let mut seen = std::collections::HashSet::new();
        for e in all_experiments() {
            for job in (e.plan)() {
                assert!(job.label().starts_with(e.id), "{}", job.label());
                assert!(
                    seen.insert(job.label().to_string()),
                    "duplicate job label '{}'",
                    job.label()
                );
            }
        }
        assert!(seen.len() > all_experiments().len());
    }

    #[test]
    fn render_json_escapes_id_and_title() {
        let doc = render_json("X-\"Q\"", "a \"quoted\" title\\", &[]);
        assert!(doc.contains(r#""id": "X-\"Q\"","#), "{doc}");
        assert!(doc.contains(r#""title": "a \"quoted\" title\\","#), "{doc}");
    }

    #[test]
    fn find_is_case_insensitive() {
        assert!(find("t1").is_some());
        assert!(find("x-rel").is_some());
        assert!(find("nope").is_none());
    }

    #[test]
    fn cq_experiment_renders_text_and_csv() {
        let e = find("CQ").unwrap();
        let text = e.run_text();
        for needle in ["M-VIA", "BVIA", "cLAN", "direct", "via CQ", "overhead"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
        let csvs = e.run_csv();
        assert_eq!(csvs.len(), 1);
        assert!(csvs[0].0.starts_with("cq_0_"), "{}", csvs[0].0);
        assert!(
            csvs[0].1.starts_with("row,direct,via CQ,overhead"),
            "{}",
            csvs[0].1
        );
    }
}
