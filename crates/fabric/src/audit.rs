//! The fabric's conservation laws, stated once; [`crate::San::audit`]
//! checks them over a finished run's counters.

use crate::san::SanStats;
use crate::topo::{PortSnapshot, PortStats};

/// Every law a run's fabric counters must satisfy, one line per broken
/// law (empty when the books balance):
///
/// 1. every frame sent ends in exactly one bucket — delivered, loss-dropped,
///    link-down, corrupted, port-dropped or fault-dropped;
/// 2. Σ per-port `drops + storm_dropped` = `frames_port_dropped`;
/// 3. Σ per-port `fault_dropped` ≤ `frames_fault_dropped` (switch-wide
///    kills and no-route drops have no port to blame);
/// 4. Σ `node_fault_dropped` ≤ `frames_fault_dropped`;
/// 5. node-attributed drops occur only when node windows are installed.
pub fn conservation_violations(
    san: &SanStats,
    ports: &[PortSnapshot],
    node_fault_dropped: &[u64],
    node_windows: bool,
) -> Vec<String> {
    let (sent, port_total, fault_total) = (
        san.frames_sent,
        san.frames_port_dropped,
        san.frames_fault_dropped,
    );
    let buckets = san.frames_delivered
        + san.frames_dropped
        + san.frames_faulted
        + san.frames_corrupted
        + port_total
        + fault_total;
    let sum = |f: fn(&PortStats) -> u64| ports.iter().map(|p| f(&p.stats)).sum::<u64>();
    let port_dropped = sum(|s| s.drops + s.storm_dropped);
    let port_faulted = sum(|s| s.fault_dropped);
    let node_dropped: u64 = node_fault_dropped.iter().sum();
    let mut violations = Vec::new();
    let mut law = |held: bool, broken: &dyn Fn() -> String| {
        if !held {
            violations.push(broken());
        }
    };
    law(sent == buckets, &|| {
        format!("frame conservation: {sent} sent != {buckets} delivered or dropped: {san:?}")
    });
    law(port_dropped == port_total, &|| {
        format!("port drops: ports attribute {port_dropped}, the fabric counted {port_total}")
    });
    law(port_faulted <= fault_total, &|| {
        format!("port fault attribution {port_faulted} exceeds the fabric total {fault_total}")
    });
    law(node_dropped <= fault_total, &|| {
        format!("node fault attribution {node_dropped} exceeds the fabric total {fault_total}")
    });
    law(node_windows || node_dropped == 0, &|| {
        format!("{node_dropped} node-attributed drops without node windows")
    });
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo::PortTarget;

    /// A balanced run: 10 sent, 4 delivered, one frame in each drop bucket,
    /// the port-dropped one blamed on the port, the fault-dropped one a
    /// trunk refusal at the same port that also counts against node 1.
    fn balanced() -> (SanStats, Vec<PortSnapshot>, Vec<u64>) {
        let san = SanStats {
            frames_sent: 10,
            frames_delivered: 4,
            frames_dropped: 1,
            frames_faulted: 1,
            frames_corrupted: 1,
            frames_port_dropped: 2,
            frames_fault_dropped: 1,
            ..SanStats::default()
        };
        let port = PortSnapshot {
            switch: 0,
            target: PortTarget::Node(1),
            stats: PortStats {
                drops: 1,
                storm_dropped: 1,
                fault_dropped: 1,
                ..PortStats::default()
            },
        };
        (san, vec![port], vec![0, 1])
    }

    fn check(san: SanStats, ports: &[PortSnapshot], nodes: &[u64], windows: bool) -> Vec<String> {
        conservation_violations(&san, ports, nodes, windows)
    }

    #[test]
    fn balanced_counters_are_clean() {
        let (san, ports, nodes) = balanced();
        assert!(check(san, &ports, &nodes, true).is_empty());
        let none = check(SanStats::default(), &[], &[0, 0], false);
        assert!(none.is_empty(), "an idle fabric: {none:?}");
    }

    fn only(violations: Vec<String>, law: &str) {
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains(law), "{violations:?}");
    }

    #[test]
    fn a_vanished_frame_breaks_frame_conservation() {
        let (mut san, ports, nodes) = balanced();
        san.frames_sent += 1;
        only(check(san, &ports, &nodes, true), "frame conservation");
    }

    #[test]
    fn an_unattributed_port_drop_breaks_port_attribution() {
        let (san, mut ports, nodes) = balanced();
        ports[0].stats.storm_dropped = 0;
        only(check(san, &ports, &nodes, true), "port drops");
    }

    #[test]
    fn port_fault_drops_cannot_exceed_the_fabric_total() {
        let (san, mut ports, nodes) = balanced();
        ports[0].stats.fault_dropped = 2;
        only(check(san, &ports, &nodes, true), "port fault attribution");
    }

    #[test]
    fn node_fault_drops_cannot_exceed_the_fabric_total() {
        let (san, ports, _) = balanced();
        only(check(san, &ports, &[1, 1], true), "node fault attribution");
    }

    #[test]
    fn node_drops_need_node_windows() {
        let (san, ports, nodes) = balanced();
        only(check(san, &ports, &nodes, false), "without node windows");
    }
}
