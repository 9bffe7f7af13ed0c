//! Repo-level integration tests: drive the full published surface
//! (simkit → fabric → vnic → via → vibe) the way a downstream user would
//! and check the suite's CSV rendering. The paper's claims are checked
//! once, against the published artifacts, by `tests/goldens.rs`.

use vibe_suite::via::Profile;
use vibe_suite::vibe;

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
