//! The paper's claims, each stated once as a predicate over the suite's
//! artifacts. `tests/goldens.rs` evaluates them on the run whose bytes it
//! pins to `tests/goldens/*.json` and renders EXPERIMENTS.md's scoreboard.
//! A lookup that finds nothing (experiment, artifact, curve, x or cell)
//! fails its claim naming the lookup; it never passes.

use std::cmp::Ordering::Less;
use std::fmt::{Display, Write as _};

use vibe_suite::vibe::client_server::reply_sizes;
use vibe_suite::vibe::nondata::registration_sizes;
use vibe_suite::vibe::runner::ExperimentRun;
use vibe_suite::vibe::xlate::reuse_levels;
use vibe_suite::vibe::{paper_sizes, Artifact};

type Runs = [ExperimentRun];
type Lookup<T> = Result<T, String>;

pub struct Claim {
    pub id: &'static str,
    /// "§4.3.1", "Table 1", "TR §3.2.5", …; "TR" marks a condition on a
    /// panel only the companion tech report plots (the blocking-CPU ones).
    pub source: &'static str,
    /// What the paper says, quoted where it says it in words.
    pub paper: &'static str,
    /// States the conditions; `Err` names a lookup that found nothing.
    pub check: fn(&Runs, &mut Conds) -> Lookup<()>,
}

pub struct Verdict {
    pub holds: bool,
    pub measured: String,
}

/// A claim's conditions `a < b`, each kept at its tightest point (the
/// largest `a / b`): that is what the scoreboard shows.
#[derive(Default)]
pub struct Conds {
    failed: bool,
    tightest: Vec<(&'static str, f64, f64, String)>,
}

impl Conds {
    fn lt(&mut self, what: &'static str, a: f64, b: f64, at: impl Display) {
        self.failed |= a.partial_cmp(&b) != Some(Less);
        let row = (what, a, b, at.to_string());
        match self.tightest.iter_mut().find(|t| t.0 == what) {
            Some(t) if t.1 / t.2 >= a / b => {}
            Some(t) => *t = row,
            None => self.tightest.push(row),
        }
    }
}

impl Claim {
    /// A failed lookup, or a claim with no conditions, does not hold.
    pub fn eval(&self, runs: &Runs) -> Verdict {
        let mut c = Conds::default();
        let found = (self.check)(runs, &mut c);
        let holds = found.is_ok() && !c.failed && !c.tightest.is_empty();
        let show = |(what, a, b, at): &(_, f64, f64, _)| format!("{what}: {a:.2} < {b:.2} at {at}");
        let measured = match found {
            Err(lookup) => format!("missing {lookup}"),
            Ok(()) => c.tightest.iter().map(show).collect::<Vec<_>>().join("; "),
        };
        Verdict { holds, measured }
    }
}

/// One artifact: (experiment id, artifact title).
#[derive(Clone, Copy)]
struct Panel(&'static str, &'static str);

impl Panel {
    fn artifact(self, runs: &Runs) -> Option<&Artifact> {
        let run = runs.iter().find(|r| r.id == self.0)?;
        run.artifacts.iter().find(|a| a.title() == self.1)
    }

    /// `Figure::series(curve)?.at(x)`.
    fn at(self, runs: &Runs, curve: &str, x: f64) -> Lookup<f64> {
        let point = match self.artifact(runs) {
            Some(Artifact::Figure(f)) => f.series(curve).and_then(|s| s.at(x)),
            _ => None,
        };
        point.ok_or_else(|| format!("{} '{}' {curve} at {x}", self.0, self.1))
    }

    fn row<const N: usize>(self, runs: &Runs, curves: [&str; N], x: f64) -> Lookup<[f64; N]> {
        let mut ys = [0.0; N];
        for (y, curve) in ys.iter_mut().zip(curves) {
            *y = self.at(runs, curve, x)?;
        }
        Ok(ys)
    }

    /// `Table::cell(row, col)`.
    fn cell(self, runs: &Runs, row: &str, col: &str) -> Lookup<f64> {
        let cell = match self.artifact(runs) {
            Some(Artifact::Table(t)) => t.cell(row, col),
            _ => None,
        };
        cell.ok_or_else(|| format!("{} '{}' [{row}, {col}]", self.0, self.1))
    }
}

/// A sweep's sizes as x values.
fn xs(sizes: Vec<u64>) -> impl Iterator<Item = f64> {
    sizes.into_iter().map(|x| x as f64)
}

const MVIA: &str = "M-VIA";
const BVIA: &str = "BVIA";
const CLAN: &str = "cLAN";
const TRIO: [&str; 3] = [MVIA, BVIA, CLAN];
const KIB28: f64 = 28672.0;

/// The paper's Table 1 (µs), verbatim: M-VIA, BVIA, cLAN.
const TABLE1: [(&str, [f64; 3]); 6] = [
    ("Creating VI", [93.0, 28.0, 3.0]),
    ("Destroying VI", [0.19, 0.19, 0.11]),
    ("Establishing Connection", [6465.0, 496.0, 2454.0]),
    ("Tearing Down Connection", [3.0, 9.0, 155.0]),
    ("Creating CQ", [17.0, 206.0, 54.0]),
    ("Destroying CQ", [8.44, 35.0, 15.0]),
];

const T1: Panel = Panel("T1", "Table 1: non-data transfer micro-benchmarks (us)");
const REG: Panel = Panel("F1-F2", "Fig 1: cost of memory registration");
const DEREG: Panel = Panel("F1-F2", "Fig 2: cost of memory deregistration");
const F3_LAT: Panel = Panel("F3", "Base latency with polling (Fig 3)");
const F3_BW: Panel = Panel("F3", "Base bandwidth with polling (Fig 3)");
const F4_LAT: Panel = Panel("F4", "Base latency with blocking (Fig 4)");
const F4_CPU: Panel = Panel("F4", "Base CPU utilization with blocking (Fig 4)");
const F5_LAT: Panel = Panel("F5", "BVIA: latency vs buffer reuse (Fig 5)");
const F5_BW: Panel = Panel("F5", "BVIA: bandwidth vs buffer reuse (Fig 5)");
const F5_CPU: Panel = Panel("F5", "BVIA: CPU utilization vs buffer reuse (TR)");
const CQ: Panel = Panel("CQ", "CQ overhead at 64 B (us, polling)");
const F6_LAT: Panel = Panel("F6", "BVIA: latency vs number of active VIs (Fig 6)");
const F6_BW: Panel = Panel("F6", "BVIA: bandwidth vs number of active VIs (Fig 6)");
const F6_CPU: Panel = Panel("F6", "BVIA: CPU utilization vs number of active VIs (TR)");
const F7: Panel = Panel("F7", "Client/server transactions per second (Fig 7)");
const MDS: Panel = Panel("X-MDS", "MDS: latency vs data segments (8192 B total)");
const ASY: Panel = Panel("X-ASY", "ASY: per-message time vs burst size (256 B)");
const RDMA: Panel = Panel("X-RDMA", "RDMA: send/receive vs RDMA-write latency");
const PIP: Panel = Panel("X-PIP", "PIP: bandwidth vs sender pipeline length (4096 B)");
const MTU_LAT: Panel = Panel("X-MTU", "cLAN: latency vs wire MTU (28672 B message)");
const MTU_BW: Panel = Panel("X-MTU", "cLAN: bandwidth vs wire MTU (28672 B message)");
const REL: Panel = Panel("X-REL", "cLAN: reliability levels at 4096 B");
const LOSS: Panel = Panel("X-REL", "cLAN: Reliable Delivery under frame loss (4096 B)");
const TAIL: Panel = Panel(
    "X-REL",
    "cLAN: RD one-way latency distribution under loss (1024 B, us)",
);

/// The claim table, in the paper's order.
pub const CLAIMS: &[Claim] = &[
    Claim {
        id: "T1",
        source: "Table 1",
        paper: "the 18 published costs (µs)",
        check: |r, c| {
            for (row, paper) in TABLE1 {
                for (col, want) in TRIO.into_iter().zip(paper) {
                    let err = (T1.cell(r, row, col)? - want).abs();
                    let band = want * 0.1 + 0.02;
                    c.lt("Δ < 10 % + 0.02 µs", err, band, format!("{row}, {col}"));
                }
            }
            Ok(())
        },
    },
    Claim {
        id: "F1",
        source: "§4.2",
        paper: "\"memory registration is more expensive in BVIA for messages of up to 20 KB\"",
        check: |r, c| {
            for x in xs(registration_sizes()) {
                let [m, b] = REG.row(r, [MVIA, BVIA], x)?;
                match x <= 20480.0 {
                    true => c.lt("M-VIA < BVIA", m, b, x),
                    false => c.lt("BVIA < M-VIA", b, m, x),
                }
            }
            Ok(())
        },
    },
    Claim {
        id: "F2",
        source: "§4.2",
        paper: "deregistration is \"much smaller\" than registration",
        check: |r, c| {
            for p in TRIO {
                for x in xs(registration_sizes()) {
                    let (d, g) = (DEREG.at(r, p, x)?, REG.at(r, p, x)?);
                    c.lt("deregister < register", d, g, format!("{p}, {x}"));
                }
            }
            Ok(())
        },
    },
    Claim {
        id: "F3-lat",
        source: "§4.3.1",
        paper: "\"cLAN provides the lowest latency\"; \"M-VIA has a lower latency for short \
                messages. BVIA outperforms M-VIA for longer messages\"",
        check: |r, c| {
            for x in xs(paper_sizes()) {
                let [m, b, cl] = F3_LAT.row(r, TRIO, x)?;
                c.lt("cLAN < next", cl, m.min(b), x);
                match x <= 256.0 {
                    true => c.lt("M-VIA < BVIA to 256", m, b, x),
                    false => c.lt("BVIA < M-VIA from 1024", b, m, x),
                }
            }
            Ok(())
        },
    },
    Claim {
        id: "F3-bw",
        source: "§4.3.1",
        paper: "\"superiority of cLAN … for a large range of message sizes. However, for large \
                messages, BVIA outperforms both\"",
        check: |r, c| {
            for x in xs(paper_sizes()).filter(|&x| x <= 12288.0) {
                let [m, b, cl] = F3_BW.row(r, TRIO, x)?;
                c.lt("next < cLAN to 12288", m.max(b), cl, x);
            }
            let [m, b, cl] = F3_BW.row(r, TRIO, KIB28)?;
            c.lt("cLAN < BVIA", cl, b, KIB28);
            c.lt("M-VIA < cLAN", m, cl, KIB28);
            Ok(())
        },
    },
    Claim {
        id: "F4",
        source: "§4.3.1",
        paper: "\"latency results with blocking show a significant increase\"; M-VIA \"has a \
                higher CPU utilization for small messages\"",
        check: |r, c| {
            for p in TRIO {
                for x in xs(paper_sizes()) {
                    let (poll, block) = (F3_LAT.at(r, p, x)?, F4_LAT.at(r, p, x)?);
                    let at = format!("{p}, {x}");
                    c.lt("poll + 5 µs < block", poll + 5.0, block, &at);
                    c.lt("CPU < 90 %", F4_CPU.at(r, p, x)?, 90.0, &at);
                }
            }
            for x in [4.0, 16.0] {
                let [m, b, cl] = F4_CPU.row(r, TRIO, x)?;
                c.lt("next < M-VIA CPU", b.max(cl), m, x);
            }
            Ok(())
        },
    },
    Claim {
        id: "F5",
        source: "§4.3.2, TR",
        paper: "buffer reuse has \"a significant effect on the latency\" and \"the bandwidth\" \
                of BVIA, \"more severe for large messages\" (more pages)",
        check: |r, c| {
            let at = |p: Panel, reuse: u32, x| p.at(r, &format!("{reuse}% reuse"), x);
            for x in xs(paper_sizes()) {
                for w in reuse_levels().windows(2) {
                    let (more, less) = (at(F5_LAT, w[0], x)?, at(F5_LAT, w[1], x)?);
                    c.lt("more reuse < less", more, less, format!("{x}, {}%", w[1]));
                }
            }
            let (l64, fresh64) = (at(F5_LAT, 100, 64.0)?, at(F5_LAT, 0, 64.0)?);
            let penalty64 = fresh64 - l64;
            let penalty = at(F5_LAT, 0, KIB28)? - at(F5_LAT, 100, KIB28)?;
            c.lt("1.10 × 100 % < 0 % reuse", 1.10 * l64, fresh64, 64);
            c.lt(
                "3 × penalty at 64 < penalty",
                3.0 * penalty64,
                penalty,
                KIB28,
            );
            c.lt("30 µs < penalty", 30.0, penalty, KIB28);
            let (bw, bw_fresh) = (at(F5_BW, 100, KIB28)?, at(F5_BW, 0, KIB28)?);
            c.lt("bandwidth 0 % < 100 %", bw_fresh, bw, KIB28);
            let (cpu, cpu_fresh) = (at(F5_CPU, 100, KIB28)?, at(F5_CPU, 0, KIB28)?);
            c.lt("CPU 0 % < 100 %", cpu_fresh, cpu, KIB28);
            Ok(())
        },
    },
    Claim {
        id: "CQ",
        source: "§4.3.3",
        paper: "\"in M-VIA and cLAN … negligible. For BVIA, 2-5 microsec overhead\"",
        check: |r, c| {
            let [m, b, cl] = TRIO.map(|p| CQ.cell(r, p, "overhead"));
            let (m, b, cl) = (m?, b?, cl?);
            c.lt("2 µs < BVIA", 2.0, b, 64);
            c.lt("BVIA < 5 µs", b, 5.0, 64);
            c.lt("0 µs < M-VIA, cLAN", 0.0, m.min(cl), 64);
            c.lt("M-VIA, cLAN < 1 µs", m.max(cl), 1.0, 64);
            Ok(())
        },
    },
    Claim {
        id: "F6",
        source: "§4.3.4, TR",
        paper: "with more VIs \"the latency of messages increases significantly\"; \"impact … \
                on bandwidth is also significant\"",
        check: |r, c| {
            let [l1, l8, l32] = F6_LAT.row(r, ["1 VIs", "8 VIs", "32 VIs"], 256.0)?;
            c.lt("1 VI + 3 µs < 8 VIs", l1 + 3.0, l8, 256);
            c.lt("8 VIs + 10 µs < 32 VIs", l8 + 10.0, l32, 256);
            c.lt("0.5 < µs per VI", 0.5, (l32 - l1) / 31.0, 256);
            c.lt("µs per VI < 1.5", (l32 - l1) / 31.0, 1.5, 256);
            let [b1, b32] = F6_BW.row(r, ["1 VIs", "32 VIs"], 256.0)?;
            c.lt("32-VI bandwidth < 0.8 × 1-VI", b32, 0.8 * b1, 256);
            let [u1, u32] = F6_CPU.row(r, ["1 VIs", "32 VIs"], 256.0)?;
            c.lt("32-VI CPU < 1-VI", u32, u1, 256);
            Ok(())
        },
    },
    Claim {
        id: "F7",
        source: "§4.4",
        paper: "\"cLAN … outperforms BVIA and M-VIA. M-VIA outperforms BVIA for short … \
                outperformed by BVIA for mid-size messages\"; long replies \"similar\"",
        check: |r, c| {
            let tps = |p: &str, req, x| F7.at(r, &format!("{p} {req}"), x);
            for x in xs(reply_sizes()) {
                for req in [16, 256] {
                    let [m, b, cl] = ["m-via", "bvia", "clan"].map(|p| tps(p, req, x));
                    let (m, b, cl) = (m?, b?, cl?);
                    let at = format!("{req}/{x}");
                    c.lt("next < cLAN", m.max(b), cl, &at);
                    match x {
                        4.0 => c.lt("BVIA < M-VIA", b, m, &at),
                        12288.0 => c.lt("M-VIA < BVIA", m, b, &at),
                        KIB28 => c.lt("BVIA < 1.8 × M-VIA", b, 1.8 * m, &at),
                        _ => {}
                    }
                }
                let (big, small) = (tps("clan", 256, x)?, tps("clan", 16, x)?);
                c.lt("cLAN 256 < 16", big, small, x);
            }
            let peak = tps("clan", 16, 4.0)?;
            c.lt("20 k/s < cLAN", 20e3, peak, "16/4");
            c.lt("cLAN < 90 k/s", peak, 90e3, "16/4");
            Ok(())
        },
    },
    Claim {
        id: "X-MDS",
        source: "TR §3.2.5",
        paper: "extra segments cost NIC-offload latency (build, fetch, translate)",
        check: |r, c| {
            let (l1, l16) = (MDS.at(r, BVIA, 1.0)?, MDS.at(r, BVIA, 16.0)?);
            c.lt("1 < 16 segments", l1, l16, BVIA);
            Ok(())
        },
    },
    Claim {
        id: "X-ASY",
        source: "TR §3.2.5",
        paper: "bursts amortize per-message time",
        check: |r, c| {
            let (k1, k16) = (ASY.at(r, CLAN, 1.0)?, ASY.at(r, CLAN, 16.0)?);
            c.lt("burst 16 < 0.8 × burst 1", k16, 0.8 * k1, CLAN);
            Ok(())
        },
    },
    Claim {
        id: "X-RDMA",
        source: "TR §3.2.5",
        paper: "RDMA write is never much slower than send/receive",
        check: |r, c| {
            let [send, rdma] = RDMA.row(r, ["cLAN send", "cLAN rdma"], 4096.0)?;
            c.lt("RDMA write < 1.2 × send", rdma, 1.2 * send, "cLAN, 4096");
            Ok(())
        },
    },
    Claim {
        id: "X-PIP",
        source: "TR §3.2.5",
        paper: "under RD, depth bounds the in-flight window and saturates; UD sends complete \
                locally, so depth barely matters",
        check: |r, c| {
            let rd = |depth| PIP.at(r, "cLAN (RD)", depth);
            let (d1, d16, d64) = (rd(1.0)?, rd(16.0)?, rd(64.0)?);
            c.lt("1.5 × depth 1 < depth 16", 1.5 * d1, d16, "cLAN RD");
            c.lt("depth 64 < 1.25 × depth 16", d64, 1.25 * d16, "cLAN RD");
            let (u1, u64) = (PIP.at(r, "BVIA (UD)", 1.0)?, PIP.at(r, "BVIA (UD)", 64.0)?);
            c.lt("depth 64 < 1.3 × depth 1", u64, 1.3 * u1, "BVIA UD");
            Ok(())
        },
    },
    Claim {
        id: "X-MTU",
        source: "TR §3.2.5",
        paper: "coarse fragments pipeline worse; fine ones pay per-fragment overhead",
        check: |r, c| {
            let (l2k, l16k) = (MTU_LAT.at(r, CLAN, 2048.0)?, MTU_LAT.at(r, CLAN, 16384.0)?);
            c.lt("latency, MTU 2048 < 16384", l2k, l16k, KIB28);
            let (b512, b8k) = (MTU_BW.at(r, CLAN, 512.0)?, MTU_BW.at(r, CLAN, 8192.0)?);
            c.lt("bandwidth, MTU 512 < 8192", b512, b8k, KIB28);
            Ok(())
        },
    },
    Claim {
        id: "X-REL",
        source: "TR §3.2.5",
        paper: "ACKs ride the reverse path: latency kept, bandwidth pays; loss costs RD \
                bandwidth and lands in the tail, not the median",
        check: |r, c| {
            let lat = |row| REL.cell(r, row, "latency (us)");
            let bw = |row| REL.cell(r, row, "bandwidth (MB/s)");
            let ud = lat("Unreliable Delivery")?;
            for row in ["Reliable Delivery", "Reliable Reception"] {
                let l = lat(row)?;
                c.lt("0.95 × UD < RD, RR latency", 0.95 * ud, l, row);
            }
            let (bw_ud, bw_rr) = (bw("Unreliable Delivery")?, bw("Reliable Reception")?);
            c.lt("RR < 1.02 × UD bandwidth", bw_rr, 1.02 * bw_ud, 4096);
            let loss = |rate, col| LOSS.cell(r, rate, col);
            let bw_loss = |rate| loss(rate, "bandwidth (MB/s)");
            let (clean, lossy) = (bw_loss("loss 0%")?, bw_loss("loss 5%")?);
            c.lt("5 % < 0 % loss bandwidth", lossy, clean, 4096);
            for col in ["retransmissions", "frames dropped"] {
                let (clean, lossy) = (loss("loss 0%", col)?, loss("loss 5%", col)?);
                c.lt("count at 0 % loss < 1", clean, 1.0, col);
                c.lt("0 < count at 5 % loss", 0.0, lossy, col);
            }
            let tail = |rate, col| TAIL.cell(r, rate, col);
            let (p50, p99) = (tail("loss 0%", "p50")?, tail("loss 0%", "p99")?);
            let (p50_3, p99_3) = (tail("loss 3%", "p50")?, tail("loss 3%", "p99")?);
            c.lt("clean p99 − p50 < 1 µs", p99 - p50, 1.0, 1024);
            c.lt("3 % p50 < 1.5 × clean", p50_3, 1.5 * p50, 1024);
            c.lt("clean p99 + 150 µs < 3 % p99", p99 + 150.0, p99_3, 1024);
            Ok(())
        },
    },
];

/// The markdown scoreboard, and each failed claim with its numbers.
pub fn scoreboard(runs: &Runs) -> (String, Vec<String>) {
    let mut board = String::from("| claim | source | paper | measured | holds |\n");
    board.push_str("|---|---|---|---|---|\n");
    let mut failed = Vec::new();
    for c in CLAIMS {
        let v = c.eval(runs);
        let (id, source, paper, measured) = (c.id, c.source, c.paper, &v.measured);
        let mark = if v.holds { "✓" } else { "✗" };
        let _ = writeln!(board, "| {id} | {source} | {paper} | {measured} | {mark} |");
        if !v.holds {
            failed.push(format!("{id}: {measured}"));
        }
    }
    (board, failed)
}
