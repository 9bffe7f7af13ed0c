//! `--compare <a.json> <b.json>`: apply the bounds to two `--all`
//! documents (`a` = baseline, `b` = candidate). One row per workload ×
//! end-to-end metric — improved / unchanged / unresolved / regressed —
//! plus every exact per-layer metric and leg digest that differs.
//!
//! The rule (choosing-metrics §6): a median that worsened by more than
//! the metric's bound is a regression; where the uncertainty of a side's
//! median (see [`Side::spread`]) is wider than the bound the row is
//! *unresolved*, not unchanged, unless every candidate sample beats every
//! baseline sample; a gain is held to the same bound as a loss, because
//! back-to-back runs of one commit on the sizing host differ by 10-20 %.

use crate::bench_util::{Json, Summary};
use crate::spec::{self, Better, Kind};

/// Outcome of one row.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Better by more than the bound.
    Improved,
    /// Within the bound, either way.
    Unchanged,
    /// Spread wider than the bound: the data cannot tell.
    Unresolved,
    /// Worse by more than the bound.
    Regressed,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "REGRESSED",
        }
    }
}

/// One side of a row: the reported value and its samples, if sampled.
pub struct Side {
    /// Reported value (the median of `samples` when there are any).
    pub value: f64,
    /// Per-repetition samples; empty for single-reading metrics.
    pub samples: Vec<f64>,
}

impl Side {
    /// Uncertainty of the reported median, as a share of it: the quartile
    /// spread of the repetitions over the square root of their count (the
    /// median's standard error, to within a constant near one). The raw
    /// repetition spread would overstate it: on a shared host single
    /// repetitions swing by 20 % while medians of a dozen agree to 2-3 %.
    fn spread(&self) -> f64 {
        if self.samples.len() < 2 {
            0.0
        } else {
            Summary::of(&self.samples).quartile_spread() / (self.samples.len() as f64).sqrt()
        }
    }

    fn samples_or_value(&self) -> Vec<f64> {
        if self.samples.is_empty() {
            vec![self.value]
        } else {
            self.samples.clone()
        }
    }
}

/// Judge candidate `b` against baseline `a`. `bound` is relative to the
/// baseline; `abs_slack` (in the metric's unit) widens it for metrics
/// whose baseline can be small.
pub fn judge(a: &Side, b: &Side, better: Better, bound: f64, abs_slack: f64) -> (Verdict, f64) {
    let base = a.value.abs().max(f64::MIN_POSITIVE);
    // Positive = worse, as a share of the baseline.
    let worse_by = match better {
        Better::Lower => (b.value - a.value) / base,
        Better::Higher => (a.value - b.value) / base,
    };
    let allowed = bound + abs_slack / base;
    let spread = a.spread().max(b.spread());
    let verdict = if spread > allowed {
        let (xa, xb) = (a.samples_or_value(), b.samples_or_value());
        let lo = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = |xs: &[f64]| xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let clear_win = match better {
            Better::Lower => hi(&xb) < lo(&xa),
            Better::Higher => lo(&xb) > hi(&xa),
        };
        if clear_win {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > allowed {
        Verdict::Regressed
    } else if -worse_by > allowed {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (verdict, worse_by)
}

fn side(doc: &Json, workload: &str, block: &str, metric: &str) -> Option<Side> {
    let m = doc
        .get("workloads")?
        .get(workload)?
        .get(block)?
        .get(metric)?;
    Some(Side {
        value: m.get("value")?.as_f64()?,
        samples: m
            .get("samples")
            .and_then(Json::as_arr)
            .map(|s| s.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default(),
    })
}

/// Compare two `--all` documents; returns the report text and whether
/// every row is improved or unchanged and every exact value identical.
pub fn compare(a: &Json, b: &Json) -> (String, bool) {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut clean = true;
    let _ = writeln!(
        out,
        "{:<16} {:<14} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "baseline", "candidate", "change", "bound", "spread"
    );
    for w in &spec::WORKLOADS {
        for m in &spec::END_TO_END {
            let (Some(sa), Some(sb)) = (
                side(a, w.name, "end_to_end", m.name),
                side(b, w.name, "end_to_end", m.name),
            ) else {
                let _ = writeln!(out, "{:<16} {:<14} missing on one side", w.name, m.name);
                clean = false;
                continue;
            };
            let (verdict, worse_by) = judge(&sa, &sb, m.better, m.bound, m.abs_slack);
            clean &= matches!(verdict, Verdict::Improved | Verdict::Unchanged);
            let signed = match m.better {
                Better::Lower => worse_by,
                Better::Higher => -worse_by,
            };
            let _ = writeln!(
                out,
                "{:<16} {:<14} {:>14.6} {:>14.6} {:>+7.1}% {:>6.0}% {:>6.1}%  {}",
                w.name,
                m.name,
                sa.value,
                sb.value,
                signed * 100.0,
                m.bound * 100.0,
                sa.spread().max(sb.spread()) * 100.0,
                verdict.as_str()
            );
        }
        // "Any increase" metrics: correctness may not get worse at all.
        for name in ["failed_share", "table1_max_err_pct"] {
            if let (Some(sa), Some(sb)) = (
                side(a, w.name, "end_to_end", name),
                side(b, w.name, "end_to_end", name),
            ) {
                let verdict = if sb.value > sa.value {
                    Verdict::Regressed
                } else {
                    Verdict::Unchanged
                };
                clean &= verdict == Verdict::Unchanged;
                let _ = writeln!(
                    out,
                    "{:<16} {:<14} {:>14.6} {:>14.6} {:>8} {:>7} {:>7}  {}",
                    w.name,
                    name,
                    sa.value,
                    sb.value,
                    "",
                    "any",
                    "",
                    verdict.as_str()
                );
            }
        }
    }

    let mut diffs = Vec::new();
    for w in &spec::WORKLOADS {
        for m in spec::PER_LAYER.iter().filter(|m| m.kind == Kind::Exact) {
            let (va, vb) = (
                side(a, w.name, "per_layer", m.name).map(|s| s.value),
                side(b, w.name, "per_layer", m.name).map(|s| s.value),
            );
            if va != vb {
                diffs.push(format!(
                    "{:<16} {:<40} {:?} -> {:?}",
                    w.name, m.name, va, vb
                ));
            }
        }
        let digests = |d: &Json| {
            d.get("workloads")
                .and_then(|x| x.get(w.name))
                .and_then(|x| x.get("digests"))
                .cloned()
        };
        if digests(a) != digests(b) {
            diffs.push(format!(
                "{:<16} leg digests differ (simulated results changed, or the seeds differ)",
                w.name
            ));
        }
    }
    let _ = writeln!(out);
    if diffs.is_empty() {
        let _ = writeln!(out, "exact metrics and leg digests: identical");
    } else {
        clean = false;
        let _ = writeln!(out, "exact metrics and leg digests that differ:");
        for d in diffs {
            let _ = writeln!(out, "  {d}");
        }
    }
    (out, clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(samples: &[f64]) -> Side {
        Side {
            value: Summary::of(samples).median,
            samples: samples.to_vec(),
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = s(&[1.00, 1.01, 0.99, 1.00, 1.005]);
        // Lower is better, bound 10 %.
        let j = |b: &Side| judge(&base, b, Better::Lower, 0.10, 0.0).0;
        assert_eq!(j(&s(&[1.02, 1.03, 1.01, 1.02, 1.02])), Verdict::Unchanged);
        assert_eq!(j(&s(&[1.20, 1.21, 1.19, 1.20, 1.20])), Verdict::Regressed);
        assert_eq!(j(&s(&[0.80, 0.81, 0.79, 0.80, 0.80])), Verdict::Improved);
        // Spread wider than the bound: unresolved, unless a clear win.
        assert_eq!(j(&s(&[0.7, 1.0, 1.3, 0.8, 1.2])), Verdict::Unresolved);
        assert_eq!(j(&s(&[0.5, 0.6, 0.9, 0.55, 0.8])), Verdict::Improved);
        // Higher is better.
        let (v, worse) = judge(
            &s(&[100.0, 101.0, 99.0]),
            &s(&[80.0, 81.0, 79.0]),
            Better::Higher,
            0.10,
            0.0,
        );
        assert_eq!(v, Verdict::Regressed);
        assert!((worse - 0.2).abs() < 1e-9);
        // Absolute slack: +0.05 s on a 0.1 s set-up is inside "+25 % or +0.1 s".
        let single = |v: f64| Side {
            value: v,
            samples: vec![],
        };
        assert_eq!(
            judge(&single(0.10), &single(0.15), Better::Lower, 0.25, 0.1).0,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&single(0.10), &single(0.15), Better::Lower, 0.25, 0.0).0,
            Verdict::Regressed
        );
    }

    #[test]
    fn identical_documents_compare_clean_and_a_slowdown_does_not() {
        let metric = |v: f64| {
            Json::obj([
                ("value", Json::Num(v)),
                ("samples", Json::nums(&[v, v * 1.01, v * 0.99])),
            ])
        };
        let doc = |wall: f64, events: f64| {
            Json::obj([(
                "workloads",
                Json::obj(spec::WORKLOADS.iter().map(|w| {
                    (
                        w.name,
                        Json::obj([
                            (
                                "end_to_end",
                                Json::obj(spec::END_TO_END.iter().map(|m| (m.name, metric(wall)))),
                            ),
                            (
                                "per_layer",
                                Json::obj([(
                                    "simkit.engine.events",
                                    Json::obj([("value", Json::Num(events))]),
                                )]),
                            ),
                            ("digests", Json::obj([("leg[x]", Json::str("00"))])),
                        ]),
                    )
                })),
            )])
        };
        let (text, clean) = compare(&doc(1.0, 5.0), &doc(1.0, 5.0));
        assert!(clean, "{text}");
        assert!(text.contains("identical"));
        let (text, clean) = compare(&doc(1.0, 5.0), &doc(1.5, 5.0));
        assert!(!clean);
        assert!(text.contains("REGRESSED"), "{text}");
        let (text, clean) = compare(&doc(1.0, 5.0), &doc(1.0, 6.0));
        assert!(!clean);
        assert!(text.contains("simkit.engine.events"), "{text}");
    }
}
