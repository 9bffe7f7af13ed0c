//! Impact of completion queues (§3.2.3): the base tests with receive
//! completions checked through a CQ instead of the work queue. The paper
//! (§4.3.3) reports the overhead as negligible for M-VIA and cLAN and
//! 2–5 us for Berkeley VIA.

use via::Profile;

use crate::harness::{ping_pong, DtConfig};
use crate::report::Table;

/// Latency with and without a CQ at `size` bytes, per profile.
pub fn cq_overhead_table(profiles: &[Profile], size: u64) -> Table {
    let mut t = Table::new(
        format!("CQ overhead at {size} B (us, polling)"),
        vec![
            "direct".to_string(),
            "via CQ".to_string(),
            "overhead".to_string(),
        ],
    );
    for p in profiles {
        let direct = ping_pong(&DtConfig {
            iters: 30,
            ..DtConfig::base(p.clone(), size)
        })
        .latency_us;
        let via_cq = ping_pong(&DtConfig {
            iters: 30,
            use_recv_cq: true,
            ..DtConfig::base(p.clone(), size)
        })
        .latency_us;
        t.push(p.name, vec![direct, via_cq, via_cq - direct]);
    }
    t
}
