//! The benchmark's vocabulary: every workload and metric name, with unit,
//! direction, bound and kind. `BENCHMARK.json` at the repository root must
//! list exactly these (`--list` and the unit tests check the two against
//! each other), and the runner refuses to emit a name that is not here.

/// Which way is better.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How a per-layer metric is obtained.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Deterministic count; repeats bit-for-bit.
    Exact,
    /// Isolated timed loop over one layer's public API.
    Probe,
    /// `Sim::set_event_hook` wall attribution in the traced repetitions.
    Hook,
    /// `getrusage` delta.
    Rusage,
    /// Wall of a span around a call into the layer.
    Span,
    /// Computed from other metrics; describes the benchmark itself.
    Derived,
}

impl Kind {
    /// Lower-case name for listings.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Exact => "exact",
            Kind::Probe => "probe",
            Kind::Hook => "hook",
            Kind::Rusage => "rusage",
            Kind::Span => "span",
            Kind::Derived => "derived",
        }
    }
}

/// One workload: its name and the one-line reason it exists.
pub struct WorkloadSpec {
    /// Normative name.
    pub name: &'static str,
    /// Why the workload was chosen (which layers it stresses).
    pub why: &'static str,
}

/// The five workloads, in reporting order.
pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "pingpong_small",
        why: "4-64 B ping-pong, trio x Poll/Block: process hand-off does ~97% of the work; where same-thread switching and the fused path must show",
    },
    WorkloadSpec {
        name: "stream_large",
        why: "4-28 KiB streams, trio, depth 16: few hand-offs per event; engine dispatch, vnic per-fragment work and the single-switch fabric path dominate",
    },
    WorkloadSpec {
        name: "fattree_mixed",
        why: "all-to-all, incast and connection storms on the 64-node fat-tree: multi-switch fabric path, 64+ processes, via::connect; fused path fully bypassed",
    },
    WorkloadSpec {
        name: "lossy_reliable",
        why: "RD ping-pong/stream under loss, node kills, chaos episodes: timer arm/cancel churn, retransmit/ACK/dedup, fault windows, session replay; fuse hit rate 0",
    },
    WorkloadSpec {
        name: "suite_serial",
        why: "run_suite(all 27 experiments, 1 worker) plus rendering: what a user runs; mixes every layer and carries the goldens and Table 1 anchors",
    },
];

/// An end-to-end metric, reported per workload under the same name.
pub struct EndToEndSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the baseline median by which it may worsen.
    pub bound: f64,
    /// Absolute slack `--compare` adds to the relative bound (in `unit`).
    pub abs_slack: f64,
}

/// End-to-end metrics, in reporting order. All host-time numbers are
/// measured pinned to one CPU.
pub const END_TO_END: [EndToEndSpec; 6] = [
    EndToEndSpec {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        abs_slack: 0.0,
    },
    EndToEndSpec {
        name: "events_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        abs_slack: 0.0,
    },
    EndToEndSpec {
        name: "msgs_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        abs_slack: 0.0,
    },
    EndToEndSpec {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        abs_slack: 0.0,
    },
    EndToEndSpec {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
        abs_slack: 2.0,
    },
    EndToEndSpec {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        abs_slack: 0.1,
    },
];

/// A per-layer metric (`layer = crate.module`). No bound: these explain
/// the end-to-end numbers, they do not gate.
pub struct PerLayerSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// How it is obtained.
    pub kind: Kind,
}

const fn pl(name: &'static str, unit: &'static str, better: Better, kind: Kind) -> PerLayerSpec {
    PerLayerSpec {
        name,
        unit,
        better,
        kind,
    }
}

use Better::{Higher, Lower};
use Kind::{Derived, Exact, Hook, Probe, Rusage, Span};

/// Per-layer metrics, in reporting order. A metric that does not apply to
/// a workload (no owned `Sim` to hook, no suite experiments, …) reads 0
/// there.
pub const PER_LAYER: [PerLayerSpec; 81] = [
    // Correctness figures the contract's end-to-end list cannot hold (it
    // wants the same never-zero metrics on every workload); `--all`
    // reports them with the end-to-end block.
    pl("failed_share", "ratio", Lower, Derived),
    pl("table1_max_err_pct", "%", Lower, Exact),
    // simkit.engine
    pl("simkit.engine.events", "count", Lower, Exact),
    pl("simkit.engine.events_per_msg", "count", Lower, Exact),
    pl("simkit.engine.dispatch_ns", "ns", Lower, Probe),
    pl("simkit.engine.timer_cancel_ns", "ns", Lower, Probe),
    pl("simkit.engine.class.fabric.pops", "count", Lower, Hook),
    pl("simkit.engine.class.fabric.busy_s", "s", Lower, Hook),
    pl("simkit.engine.class.firmware.pops", "count", Lower, Hook),
    pl("simkit.engine.class.firmware.busy_s", "s", Lower, Hook),
    pl("simkit.engine.class.doorbell.pops", "count", Lower, Hook),
    pl("simkit.engine.class.doorbell.busy_s", "s", Lower, Hook),
    pl("simkit.engine.class.retransmit.pops", "count", Lower, Hook),
    pl("simkit.engine.class.retransmit.busy_s", "s", Lower, Hook),
    pl("simkit.engine.class.completion.pops", "count", Lower, Hook),
    pl("simkit.engine.class.completion.busy_s", "s", Lower, Hook),
    pl("simkit.engine.class.user.pops", "count", Lower, Hook),
    pl("simkit.engine.class.user.busy_s", "s", Lower, Hook),
    pl("simkit.engine.timers_cancelled", "count", Lower, Exact),
    pl("simkit.engine.dead_popped", "count", Lower, Exact),
    pl("simkit.engine.events_boxed", "count", Lower, Exact),
    pl("simkit.engine.pool_hit_rate", "ratio", Higher, Exact),
    // simkit.process
    pl("simkit.process.handoff_ns", "ns", Lower, Probe),
    pl("simkit.process.spawn_ns", "ns", Lower, Probe),
    pl("simkit.process.vcsw_per_msg", "count", Lower, Rusage),
    pl("simkit.process.sys_cpu_share", "ratio", Lower, Rusage),
    pl("simkit.process.ivcsw", "count", Lower, Rusage),
    // simkit.shard
    pl("simkit.shard.ring_s1_wall_s", "s", Lower, Probe),
    pl("simkit.shard.ring_s2_wall_s", "s", Lower, Probe),
    pl("simkit.shard.s2_over_s1", "ratio", Lower, Probe),
    // fabric
    pl("fabric.san.star_frame_ns", "ns", Lower, Probe),
    pl("fabric.topo.fattree_frame_ns", "ns", Lower, Probe),
    pl("fabric.fault.empty_plan_frame_ns", "ns", Lower, Probe),
    pl("fabric.fault.armed_frame_ns", "ns", Lower, Probe),
    pl("fabric.san.frames_sent", "count", Lower, Exact),
    pl("fabric.san.frames_per_msg", "count", Lower, Exact),
    pl("fabric.san.frames_dropped", "count", Lower, Exact),
    pl("fabric.fault.frames_fault_dropped", "count", Lower, Exact),
    pl("fabric.topo.port_pauses", "count", Lower, Exact),
    pl("fabric.topo.port_drops", "count", Lower, Exact),
    // vnic
    pl("vnic.pci.reserve_ns", "ns", Lower, Probe),
    pl("vnic.xlate.translate_hit_ns", "ns", Lower, Probe),
    pl("vnic.xlate.translate_miss_ns", "ns", Lower, Probe),
    pl("vnic.ring.push_pop_ns", "ns", Lower, Probe),
    pl("vnic.intr.deliver_ns", "ns", Lower, Probe),
    // via
    pl("via.transport.roundtrip_ns.mvia", "ns", Lower, Span),
    pl("via.transport.roundtrip_ns.bvia", "ns", Lower, Span),
    pl("via.transport.roundtrip_ns.clan", "ns", Lower, Span),
    pl("via.transport.stream_msg_ns.mvia", "ns", Lower, Span),
    pl("via.transport.stream_msg_ns.bvia", "ns", Lower, Span),
    pl("via.transport.stream_msg_ns.clan", "ns", Lower, Span),
    pl("via.transport.retransmissions", "count", Lower, Exact),
    pl("via.transport.acks_sent", "count", Lower, Exact),
    pl("via.transport.duplicates_dropped", "count", Lower, Exact),
    pl("via.transport.retx_timers_cancelled", "count", Lower, Exact),
    pl("via.fastpath.attempts", "count", Lower, Exact),
    pl("via.fastpath.hits", "count", Higher, Exact),
    pl("via.fastpath.hit_rate", "ratio", Higher, Exact),
    pl("via.connect.storm_conn_ns", "ns", Lower, Span),
    pl("via.session.node_kill_ns", "ns", Lower, Span),
    pl("via.session.sessions_recovered", "count", Higher, Exact),
    // mpl / dsm / trace
    pl("mpl.layer_msg_ns", "ns", Lower, Probe),
    pl("dsm.page_pingpong_ns", "ns", Lower, Probe),
    pl("trace.record_ns", "ns", Lower, Probe),
    pl("trace.attached_overhead_pct", "%", Lower, Probe),
    // core
    pl("core.suite.exp.F3.wall_s", "s", Lower, Span),
    pl("core.suite.exp.F5.wall_s", "s", Lower, Span),
    pl("core.suite.exp.F6.wall_s", "s", Lower, Span),
    pl("core.suite.exp.F7.wall_s", "s", Lower, Span),
    pl("core.suite.exp.X-ASY.wall_s", "s", Lower, Span),
    pl("core.suite.exp.X-TOPO.wall_s", "s", Lower, Span),
    pl("core.suite.exp.X-SCALE.wall_s", "s", Lower, Span),
    pl("core.suite.exp.X-PIP.wall_s", "s", Lower, Span),
    pl("core.suite.events", "count", Lower, Exact),
    pl("core.report.render_json_s", "s", Lower, Span),
    pl("core.report.render_text_s", "s", Lower, Span),
    pl("core.runner.overhead_s", "s", Lower, Span),
    pl("core.harness.pair_setup_ns", "ns", Lower, Probe),
    // the benchmark's own quality
    pl("bench.trace_overhead_pct", "%", Lower, Derived),
    pl("bench.unattributed_share", "ratio", Lower, Derived),
    pl("bench.wall_spread_pct", "%", Lower, Derived),
];

/// Look up a workload by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Look up an end-to-end metric by name.
pub fn end_to_end(name: &str) -> Option<&'static EndToEndSpec> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Look up a per-layer metric by name.
pub fn per_layer(name: &str) -> Option<&'static PerLayerSpec> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// Unit of any metric, end-to-end or per-layer.
pub fn unit_of(name: &str) -> Option<&'static str> {
    end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| per_layer(name).map(|m| m.unit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_util::{valid_name, valid_unit, Json};
    use std::collections::BTreeSet;

    #[test]
    fn names_and_units_follow_the_contract_and_are_unique() {
        let mut seen = BTreeSet::new();
        for n in WORKLOADS.iter().map(|w| w.name) {
            assert!(valid_name(n), "{n}");
            assert!(seen.insert(n), "duplicate {n}");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for (n, u) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(valid_name(n), "{n}");
            assert!(valid_unit(u), "{n}: {u}");
            assert!(seen.insert(n), "duplicate {n}");
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(PER_LAYER.len() <= 128);
    }

    /// The drift check: `BENCHMARK.json` and this file name the same
    /// workloads and metrics with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let drift = crate::drift_against(&doc);
        assert!(
            drift.is_empty(),
            "BENCHMARK.json drifted from spec.rs:\n{}",
            drift.join("\n")
        );
    }
}
