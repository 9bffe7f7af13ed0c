//! # vibe — the VIBe micro-benchmark suite
//!
//! The paper's contribution: a structured suite of micro-benchmarks that
//! evaluates VIA implementations beyond raw latency/bandwidth, organized
//! in the paper's three categories:
//!
//! 1. **Non-data-transfer** ([`nondata`]): VI create/destroy, connection
//!    establish/teardown, memory registration/deregistration, CQ
//!    create/destroy (Table 1, Figs. 1–2).
//! 2. **Data-transfer** ([`base`], [`xlate`], [`cqimpact`], [`mvi`],
//!    [`extra`]): the base ping-pong/bandwidth/CPU tests and the
//!    one-knob-at-a-time variants — buffer reuse (address translation),
//!    completion queues, active-VI count, plus the tech-report extras
//!    (multiple data segments, asynchronous sends, RDMA, pipeline length,
//!    MTU, reliability levels) (Figs. 3–6 and §3.2.5).
//! 3. **Programming-model** ([`client_server`], [`getput`]): the
//!    request/reply transaction benchmark (Fig. 7) and the get/put model
//!    the paper's §5 announces as future work.
//!
//! [`scale`] adds the fan-in scalability study the paper's introduction
//! motivates ("insight about the number of VIs to be used in an
//! implementation and scalability studies"), [`sched_bench`] surfaces
//! the simulator's own per-class scheduler ledger (timer cancellation
//! behavior) as artifacts, and [`fault_bench`] drives scripted fault
//! windows through the fabric to measure recovery and the VI error-state
//! machinery.
//!
//! [`harness`] holds the measurement machinery; [`sweep`] states a
//! figure's loop once, as data (panel, curve, x → one simulation), read
//! both as a figure and as one job per point; [`report`] renders
//! paper-style tables/figures; [`suite`] is the experiment registry the
//! `run_suite` example binary drives; [`runner`] runs the registry's
//! per-experiment job plans on one worker or many and reassembles the
//! artifacts deterministically.

#![warn(missing_docs)]

pub mod base;
pub mod breakdown;
pub mod chaos;
pub mod client_server;
pub mod cqimpact;
pub mod crash_bench;
pub mod dsm_bench;
pub mod extra;
pub mod failover_bench;
pub mod fault_bench;
pub(crate) mod flow;
pub mod getput;
pub mod harness;
pub mod mpl_bench;
pub mod mvi;
pub mod nondata;
pub mod report;
pub mod runner;
pub mod scale;
pub mod sched_bench;
pub mod shard_bench;
pub mod suite;
pub mod sweep;
pub mod topo_bench;
pub mod trace_bench;
pub mod xlate;

pub use harness::{
    bandwidth, paper_sizes, ping_pong, rdma_write_ping, transactions, BandwidthResult, BufferPool,
    DtConfig, Endpoint, Pair, PingPongResult,
};
pub use report::{merge_artifacts, Artifact, Figure, Series, Table};
pub use runner::{default_workers, run_suite, Job, JobReport, SuiteRun};
pub use suite::{all_experiments, Experiment};
