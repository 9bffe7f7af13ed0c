//! Component breakdown of a single transfer (§3's promise: the benchmarks
//! "identify how much time is spent in each of the components in the
//! implementation, and pinpoint the bottlenecks").
//!
//! Follows one warm message of [`traced_stream`] through its trace records
//! and reports where the microseconds went, per implementation — the table
//! a VIA implementor would read before deciding what to optimize.

use simkit::SimTime;
use via::Profile;

use crate::report::Table;
use crate::trace_bench::{traced_stream, Cut, TracedRun};

/// Component rows: `(label, from-cut, to-cut)`, tx side then rx side.
const ROWS: [(&str, Cut, Cut); 9] = [
    ("host post + doorbell", Cut::Posted, Cut::DevQueued),
    ("firmware scheduling", Cut::DevQueued, Cut::FwScanned),
    ("descriptor fetch", Cut::FwScanned, Cut::DescFetched),
    ("address translation", Cut::DescFetched, Cut::Translated),
    ("data DMA (first frag)", Cut::Translated, Cut::FirstWireTx),
    ("tx streaming (rest)", Cut::FirstWireTx, Cut::LastWireTx),
    ("wire + rx to arrival", Cut::LastWireTx, Cut::LastWireRx),
    ("rx placement (DMA)", Cut::LastWireRx, Cut::Landed),
    ("completion delivery", Cut::Landed, Cut::RecvCompleted),
];

const TOTAL: &str = "TOTAL (post -> recv completion)";

/// Microseconds from posting to `cut`; `None` where the architecture skips
/// the stage. Both stamps become float microseconds *before* the
/// subtraction, and a row subtracts two of these again: that order produced
/// the committed golden's low digits (`0.3000000000001819`).
fn mark(run: &TracedRun, cut: Cut) -> Option<f64> {
    let us = |c| Some(SimTime::from_nanos(run.cut(c)?).as_micros_f64());
    Some(us(cut)? - us(Cut::Posted)?)
}

/// Per-component breakdown table of one warm `size`-byte transfer across
/// profiles: each row is the time spent between two cuts, 0 for a profile
/// that skips either; a row that is zero for every profile is omitted.
pub fn breakdown_table(profiles: &[Profile], size: u64) -> Table {
    let mut t = Table::new(
        format!("Component breakdown of one warm {size} B transfer (us)"),
        profiles.iter().map(|p| p.name.to_string()).collect(),
    );
    let runs: Vec<TracedRun> = profiles
        .iter()
        .map(|p| traced_stream(p.clone(), size))
        .collect();
    for (label, from, to) in ROWS {
        let cells: Vec<f64> = runs
            .iter()
            .map(|r| match (mark(r, from), mark(r, to)) {
                (Some(f), Some(t)) => t - f,
                _ => 0.0,
            })
            .collect();
        if cells.iter().any(|c| *c != 0.0) {
            t.push(label, cells);
        }
    }
    t.push(
        TOTAL,
        runs.iter()
            .map(|r| mark(r, Cut::RecvCompleted).expect("the followed message completed"))
            .collect(),
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{ping_pong, DtConfig};

    /// Every cut a [`ROWS`] entry names, in pipeline order.
    fn cuts() -> Vec<Cut> {
        let mut cuts = vec![ROWS[0].1];
        cuts.extend(ROWS.iter().map(|(_, _, to)| *to));
        cuts
    }

    #[test]
    fn rows_telescope_to_the_total() {
        for size in [4, 4096, 28672] {
            let t = breakdown_table(&Profile::paper_trio(), size);
            let parts = |col: &str| -> f64 {
                ROWS.iter()
                    .filter_map(|(label, _, _)| t.cell(label, col))
                    .sum()
            };
            for col in ["BVIA", "cLAN"] {
                let total = t.cell(TOTAL, col).unwrap();
                assert!(
                    (parts(col) - total).abs() < 1e-9,
                    "{col} at {size} B: rows {} != total {total}",
                    parts(col)
                );
            }
            // M-VIA's kernel send path (software queue -> first fragment on
            // the wire) lies between a cut it has and three it skips, so no
            // row claims it: its rows undershoot the total by that much.
            let total = t.cell(TOTAL, "M-VIA").unwrap();
            assert!(parts("M-VIA") < total, "{size} B");
        }
    }

    #[test]
    fn timeline_stages_are_monotone_and_complete_for_offload() {
        for p in [Profile::bvia(), Profile::clan()] {
            let run = traced_stream(p.clone(), 4096);
            let marks: Vec<f64> = cuts()
                .into_iter()
                .map(|c| mark(&run, c).unwrap_or_else(|| panic!("{}: no {c:?} cut", p.name)))
                .collect();
            assert!(marks.windows(2).all(|w| w[0] <= w[1]), "{marks:?}");
            assert_eq!(marks[0], 0.0);
        }
    }

    #[test]
    fn host_emulated_skips_device_stages() {
        // M-VIA has no firmware scan, NIC descriptor fetch or translation
        // between the kernel's software queue and the first fragment: those
        // cuts are absent (not inherited), so their rows read exactly 0.0.
        let run = traced_stream(Profile::mvia(), 1024);
        for c in [Cut::FwScanned, Cut::DescFetched, Cut::Translated] {
            assert_eq!(run.cut(c), None, "{c:?}");
        }
        assert!(run.cut(Cut::DevQueued).is_some());
        assert!(run.cut(Cut::RecvCompleted).is_some());
        let t = breakdown_table(&Profile::paper_trio(), 1024);
        for (label, _, _) in &ROWS[1..5] {
            assert_eq!(t.cell(label, "M-VIA"), Some(0.0), "{label}");
        }
    }

    #[test]
    fn breakdown_total_tracks_pingpong_latency() {
        for p in [Profile::bvia(), Profile::clan()] {
            let total = breakdown_table(std::slice::from_ref(&p), 4096)
                .cell(TOTAL, p.name)
                .unwrap();
            let pp = ping_pong(&DtConfig {
                iters: 20,
                ..DtConfig::base(p.clone(), 4096)
            })
            .latency_us;
            // The one-way total excludes the receiver's completion check
            // and the next post; allow 20% slack.
            let ratio = total / pp;
            assert!(
                (0.7..=1.2).contains(&ratio),
                "{}: one-way {total} vs ping-pong {pp}",
                p.name
            );
        }
    }

    #[test]
    fn bvia_bottleneck_is_where_the_paper_says() {
        // For a 4 KiB transfer on BVIA, per-fragment NIC processing + DMA
        // dominates; firmware scheduling is small at 1 VI but visible.
        let t = breakdown_table(&[Profile::bvia()], 4096);
        let fw = t.cell("firmware scheduling", "BVIA").unwrap();
        assert!((1.0..5.0).contains(&fw), "fw {fw}");
        let dma = t.cell("data DMA (first frag)", "BVIA").unwrap();
        assert!(dma > 30.0, "4 KiB over 33 MHz PCI must dominate: {dma}");
    }
}
