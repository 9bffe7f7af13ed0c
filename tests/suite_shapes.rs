//! Repo-level integration tests: drive the full published surface
//! (simkit → fabric → vnic → via → vibe) the way a downstream user would,
//! and verify the paper's headline claims end-to-end plus rendering and
//! determinism of the suite itself.

use vibe_suite::via::Profile;
use vibe_suite::vibe::{self, suite};

#[test]
fn full_table1_reproduces_paper_within_ten_percent() {
    let t = vibe::nondata::table1(&Profile::paper_trio(), 2);
    // The paper's Table 1, verbatim.
    let paper: &[(&str, [f64; 3])] = &[
        ("Creating VI", [93.0, 28.0, 3.0]),
        ("Destroying VI", [0.19, 0.19, 0.11]),
        ("Establishing Connection", [6465.0, 496.0, 2454.0]),
        ("Tearing Down Connection", [3.0, 9.0, 155.0]),
        ("Creating CQ", [17.0, 206.0, 54.0]),
        ("Destroying CQ", [8.44, 35.0, 15.0]),
    ];
    for (row, want) in paper {
        for (col, want) in ["M-VIA", "BVIA", "cLAN"].iter().zip(want) {
            let got = t
                .cell(row, col)
                .unwrap_or_else(|| panic!("{row}/{col} missing"));
            assert!(
                (got - want).abs() <= want * 0.10 + 0.02,
                "{row}/{col}: got {got}, paper {want}"
            );
        }
    }
}

#[test]
fn experiment_registry_runs_and_renders_cq() {
    // Smoke the registry end-to-end through one cheap experiment.
    let e = suite::find("CQ").expect("CQ registered");
    let text = e.run_text();
    for needle in ["M-VIA", "BVIA", "cLAN", "direct", "via CQ"] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
}

/// Split one CSV record into fields, honouring RFC 4180 quoting.
fn csv_fields(line: &str) -> Vec<String> {
    let (mut fields, mut field, mut quoted) = (Vec::new(), String::new(), false);
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if quoted && chars.peek() == Some(&'"') => {
                chars.next();
                field.push('"');
            }
            '"' => quoted = !quoted,
            ',' if !quoted => fields.push(std::mem::take(&mut field)),
            c => field.push(c),
        }
    }
    assert!(!quoted, "unterminated quote in: {line}");
    fields.push(field);
    fields
}

#[test]
fn figures_emit_valid_csv() {
    let sizes = vibe::nondata::registration_sizes();
    // X-DSM's x label carries a comma; a legend may carry a quote.
    let x_label = "layout (0 = same page, 1 = separate pages)";
    let mut fig = vibe::report::Figure::new("Fig 1", x_label, "us");
    for mut p in Profile::paper_trio() {
        if p.name == "BVIA" {
            p.name = "BVIA \"beta\", rev 2";
        }
        let (reg, _) = vibe::nondata::registration_costs(p, &sizes);
        fig.push(reg);
    }
    let csv = fig.to_csv();
    let mut lines = csv.lines();
    let header = lines.next().unwrap();
    assert_eq!(
        header,
        "\"layout (0 = same page, 1 = separate pages)\",M-VIA,\"BVIA \"\"beta\"\", rev 2\",cLAN"
    );
    assert_eq!(
        csv_fields(header),
        [x_label, "M-VIA", "BVIA \"beta\", rev 2", "cLAN"]
    );
    let rows: Vec<&str> = lines.collect();
    assert_eq!(rows.len(), sizes.len());
    for row in rows {
        let cells = csv_fields(row);
        assert_eq!(cells.len(), 4, "row: {row}");
        for cell in cells {
            cell.parse::<f64>().expect("numeric cell");
        }
    }
    // Tables quote through the same helper, row labels included.
    let mut t = vibe::report::Table::new("t", vec!["a, b".into()]);
    t.push("row \"1\"", vec![1.5]);
    let csv = t.to_csv();
    assert_eq!(csv, "row,\"a, b\"\n\"row \"\"1\"\"\",1.5\n");
    for line in csv.lines() {
        assert_eq!(csv_fields(line).len(), 2, "line: {line}");
    }
}

#[test]
fn experiments_are_deterministic() {
    // The same experiment must render byte-identically across runs:
    // the whole stack is driven by seeded virtual time.
    let run = || suite::find("CQ").unwrap().run_text();
    assert_eq!(run(), run());
}

#[test]
fn blocking_penalty_appears_in_every_profile() {
    use simkit::WaitMode;
    use vibe::harness::{ping_pong, DtConfig};
    for p in Profile::paper_trio() {
        let poll = ping_pong(&DtConfig {
            iters: 12,
            ..DtConfig::base(p.clone(), 1024)
        });
        let block = ping_pong(&DtConfig {
            iters: 12,
            wait: WaitMode::Block,
            ..DtConfig::base(p.clone(), 1024)
        });
        assert!(
            block.latency_us > poll.latency_us + 5.0,
            "{}: block {} vs poll {}",
            p.name,
            block.latency_us,
            poll.latency_us
        );
        assert!(poll.client_util > 0.99, "{} polling util", p.name);
        assert!(
            block.client_util < poll.client_util,
            "{} blocking util",
            p.name
        );
    }
}

#[test]
fn headline_crossovers_hold() {
    use vibe::harness::{bandwidth, ping_pong, DtConfig};
    let lat = |p: Profile, s| {
        ping_pong(&DtConfig {
            iters: 16,
            ..DtConfig::base(p, s)
        })
        .latency_us
    };
    let bw = |p: Profile, s| {
        bandwidth(&DtConfig {
            iters: 128,
            ..DtConfig::base(p, s)
        })
        .mbps
    };
    // Latency: cLAN lowest; M-VIA beats BVIA short; BVIA beats M-VIA long.
    assert!(lat(Profile::clan(), 4) < lat(Profile::mvia(), 4));
    assert!(lat(Profile::mvia(), 4) < lat(Profile::bvia(), 4));
    assert!(lat(Profile::bvia(), 28672) < lat(Profile::mvia(), 28672));
    // Bandwidth: cLAN best mid-size; BVIA best large; M-VIA worst large.
    assert!(bw(Profile::clan(), 1024) > bw(Profile::bvia(), 1024));
    assert!(bw(Profile::clan(), 1024) > bw(Profile::mvia(), 1024));
    let (b28, c28, m28) = (
        bw(Profile::bvia(), 28672),
        bw(Profile::clan(), 28672),
        bw(Profile::mvia(), 28672),
    );
    assert!(
        b28 > c28 && b28 > m28 && c28 > m28,
        "b={b28} c={c28} m={m28}"
    );
}
