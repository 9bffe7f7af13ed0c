//! Golden-artifact tests: the suite must be *byte-identical* run to run —
//! every reported microsecond is virtual time, so there is no tolerance to
//! grant. Every experiment in the registry is pinned as a committed JSON
//! golden (the `run_suite --json` interchange form), and an experiment
//! without one fails [`every_experiment_matches_its_golden`]. The plan is
//! an experiment's only definition, so these files are what holds it
//! still across time; CI regenerates them through the example binary at
//! every `VIBE_JOBS` / `VIBE_FUSE` leg and diffs the
//! directory.
//!
//! The same run is where the paper's claims are checked ([`claims`]):
//! the artifacts a claim reads are the bytes the goldens pin, and
//! EXPERIMENTS.md's scoreboard is rendered from them.
//!
//! To bless intentional changes (e.g. a recalibration) — goldens and
//! scoreboard both; a claim that no longer holds still fails:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test goldens
//! ```

mod claims;

use std::path::Path;
use std::sync::OnceLock;

use vibe_suite::vibe::runner::ExperimentRun;
use vibe_suite::vibe::{all_experiments, default_workers, run_suite};

/// One suite run shared by every test in this file.
fn runs() -> &'static [ExperimentRun] {
    static RUN: OnceLock<Vec<ExperimentRun>> = OnceLock::new();
    RUN.get_or_init(|| run_suite(all_experiments(), default_workers()).experiments)
}

fn blessing() -> bool {
    std::env::var_os("UPDATE_GOLDENS").is_some()
}

fn check(id: &str) {
    let got = runs()
        .iter()
        .find(|r| r.id == id)
        .unwrap_or_else(|| panic!("unknown experiment {id}"))
        .run_json();
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(format!("{}.json", id.to_lowercase()));
    if blessing() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run UPDATE_GOLDENS=1 cargo test --test goldens",
            path.display()
        )
    });
    assert_eq!(
        got,
        want,
        "{id} artifacts drifted from {}; if intentional, re-bless with \
         UPDATE_GOLDENS=1 cargo test --test goldens",
        path.display()
    );
}

#[test]
fn every_experiment_matches_its_golden() {
    // All 27, so a new registry entry cannot land without a golden. The
    // named tests below single out the ones whose goldens pin something
    // worth a sentence.
    for e in all_experiments() {
        check(e.id);
    }
}

#[test]
fn t1_matches_golden() {
    // Non-data-transfer category.
    check("T1");
}

#[test]
fn cq_matches_golden() {
    // Data-transfer category.
    check("CQ");
}

#[test]
fn x_mpl_matches_golden() {
    // Programming-model category.
    check("X-MPL");
}

#[test]
fn x_sched_matches_golden() {
    // The scheduler-ledger extension: pins the exact per-class event and
    // timer-cancellation counts, so any scheduling change is visible.
    check("X-SCHED");
}

#[test]
fn x_trace_matches_golden() {
    // The tracing extension: pins every trace-derived stage latency and
    // lifecycle-record count, so any instrumentation or data-path change
    // is visible down to the record.
    check("X-TRACE");
}

#[test]
fn x_rel_matches_golden() {
    // The reliability extension: pins retransmission counts, ACK traffic
    // and the tail-latency table (including the conn-failures column), so
    // any change to the retransmit/ACK protocol is visible.
    check("X-REL");
}

#[test]
fn x_chaos_matches_golden() {
    // The chaos extension: 25 seeded randomized fault episodes whose
    // conservation invariants panic on violation, so this regeneration
    // doubles as the chaos smoke test; the pinned table makes any drift
    // in episode composition or outcome visible row by row.
    check("X-CHAOS");
}

#[test]
fn x_shard_matches_golden() {
    // The ring extension: per-node delivery counts and times, goodput and
    // fabric counters of an 8-node ring over a one-switch star, all
    // virtual-time quantities.
    check("X-SHARD");
}

#[test]
fn x_topo_matches_golden() {
    // The topology extension: 64-node fat-tree connection storms, 16-to-1
    // incast and 64-way all-to-all. Pins per-flow goodput, per-tier port
    // occupancy/pause/drop counters and the fabric frame-conservation
    // ledger; regenerating it re-runs every per-port oracle. CI diffs it
    // across the full VIBE_JOBS x VIBE_FUSE matrix.
    check("X-TOPO");
}

#[test]
fn x_failover_matches_golden() {
    // The fault-domain extension: a scripted spine kill mid-stream on the
    // 64-node fat-tree (deterministic reroute, RTO-recovered fault drops)
    // and a 24-to-8 pause cascade that trips the pause-storm watchdog.
    // Pins per-flow stall/recovery telemetry, the fault timeline, the
    // fault_dropped conservation bucket and per-tier storm counters;
    // regenerating it re-runs the fault-domain oracles. CI diffs it
    // across the full VIBE_JOBS x VIBE_FUSE matrix.
    check("X-FAILOVER");
}

#[test]
fn x_crash_matches_golden() {
    // The node-fault-domain extension: a scripted node kill mid-stream on
    // the 64-node fat-tree with the heartbeat watchdog armed. Pins
    // per-session delivery/replay/reconnect telemetry, peer-down
    // detection latencies, the reconnect-storm size and the victim's
    // fault-drop accounting; regenerating it re-runs the exactly-once
    // session-conservation oracle. CI diffs it across the full
    // VIBE_JOBS x VIBE_FUSE matrix.
    check("X-CRASH");
}

#[test]
fn x_fault_matches_golden() {
    // The fault-injection extension: pins recovery latencies, degraded
    // goodput, firmware-stall penalties and the full error/reconnect
    // accounting. Fault windows are seeded sim events, so these numbers
    // are exact — any drift means the fault plumbing or the VI error
    // state machine changed behaviour.
    check("X-FAULT");
}

const BEGIN: &str = "<!-- claims:begin -->\n";
const END: &str = "<!-- claims:end -->";

#[test]
fn every_claim_holds_and_experiments_md_shows_it() {
    let (board, failed) = claims::scoreboard(runs());
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("EXPERIMENTS.md");
    let doc = std::fs::read_to_string(&path).unwrap();
    let (head, rest) = doc
        .split_once(BEGIN)
        .expect("EXPERIMENTS.md: no claims:begin");
    let (block, tail) = rest.split_once(END).expect("EXPERIMENTS.md: no claims:end");
    if blessing() {
        std::fs::write(&path, format!("{head}{BEGIN}{board}{END}{tail}")).unwrap();
    }
    assert!(
        failed.is_empty(),
        "claims that do not hold:\n{}",
        failed.join("\n")
    );
    if !blessing() {
        assert_eq!(
            block, board,
            "EXPERIMENTS.md's claim scoreboard is stale; re-bless with \
             UPDATE_GOLDENS=1 cargo test --test goldens"
        );
    }
}

#[test]
fn with_no_artifacts_every_claim_fails_naming_its_lookup() {
    let ids: Vec<&str> = all_experiments().iter().map(|e| e.id).collect();
    for c in claims::CLAIMS {
        let v = c.eval(&[]);
        let lookup = v.measured.strip_prefix("missing ").unwrap_or_default();
        let exp = lookup.split(' ').next().unwrap_or_default();
        assert!(!v.holds && ids.contains(&exp), "{}: {}", c.id, v.measured);
    }
}
