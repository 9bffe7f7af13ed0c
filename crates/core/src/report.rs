//! Rendering of benchmark results: paper-style text tables and CSV.

use std::fmt::Write as _;

/// One curve of a figure: y = f(x) with a name (e.g. "BVIA").
#[derive(Clone, Debug)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// Points, in x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// New empty series.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Append a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// y value at the given x (exact match), if present.
    pub fn at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|(px, _)| (px - x).abs() < 1e-9)
            .map(|(_, y)| *y)
    }

    /// Final (largest-x) y value, if any.
    pub fn last_y(&self) -> Option<f64> {
        self.points.last().map(|(_, y)| *y)
    }
}

/// A bundle of series sharing axes — one paper figure panel.
#[derive(Clone, Debug)]
pub struct Figure {
    /// Panel title (e.g. "Fig 3: base latency, polling").
    pub title: String,
    /// x-axis label.
    pub x_label: String,
    /// y-axis label.
    pub y_label: String,
    /// The curves.
    pub series: Vec<Series>,
}

impl Figure {
    /// New empty figure.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Figure {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Add a curve.
    pub fn push(&mut self, s: Series) {
        self.series.push(s);
    }

    /// Find a series by name.
    pub fn series(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }

    /// Absorb another partial figure of the same panel (same title):
    /// points of a same-named series are appended in arrival order, new
    /// series are appended after the existing ones. Used by the parallel
    /// suite runner to reassemble per-job slices; feeding slices in
    /// canonical job order reproduces the serial build byte-for-byte.
    pub fn merge_from(&mut self, src: Figure) {
        debug_assert_eq!(self.title, src.title, "merging mismatched figure panels");
        for s in src.series {
            match self.series.iter_mut().find(|e| e.name == s.name) {
                Some(dst) => dst.points.extend(s.points),
                None => self.series.push(s),
            }
        }
    }

    /// The union of the series' x values, in order of first appearance.
    fn xs(&self) -> Vec<f64> {
        let mut xs: Vec<f64> = Vec::new();
        for s in &self.series {
            for (x, _) in &s.points {
                if !xs.iter().any(|e| (e - x).abs() < 1e-9) {
                    xs.push(*x);
                }
            }
        }
        xs
    }

    /// Render as an aligned text table: one x column, one column per series.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let mut headers = vec![self.x_label.clone()];
        headers.extend(self.series.iter().map(|s| s.name.clone()));
        let mut rows: Vec<Vec<String>> = Vec::new();
        for x in self.xs() {
            let mut row = vec![format_num(x)];
            for s in &self.series {
                row.push(s.at(x).map_or_else(|| "-".to_string(), format_num));
            }
            rows.push(row);
        }
        let _ = writeln!(out, "({})", self.y_label);
        render_aligned(&mut out, &headers, &rows);
        out
    }

    /// Render as CSV (header row, then one row per x).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let names = self.series.iter().map(|s| s.name.clone());
        csv_record(&mut out, &self.x_label, names);
        for x in self.xs() {
            let ys = self
                .series
                .iter()
                .map(|s| s.at(x).map_or_else(String::new, |y| format!("{y}")));
            csv_record(&mut out, &format!("{x}"), ys);
        }
        out
    }
}

/// A labeled-row table (Table 1 shape): row label + one value per column.
#[derive(Clone, Debug)]
pub struct Table {
    /// Table title.
    pub title: String,
    /// Column headers (after the row-label column).
    pub columns: Vec<String>,
    /// Rows: label + cells.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl Table {
    /// New empty table.
    pub fn new(title: impl Into<String>, columns: Vec<String>) -> Self {
        Table {
            title: title.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push(&mut self, label: impl Into<String>, cells: Vec<f64>) {
        let label = label.into();
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row '{label}' has wrong arity"
        );
        self.rows.push((label, cells));
    }

    /// Cell lookup by row label and column name.
    pub fn cell(&self, row: &str, col: &str) -> Option<f64> {
        let ci = self.columns.iter().position(|c| c == col)?;
        self.rows
            .iter()
            .find(|(label, _)| label == row)
            .map(|(_, cells)| cells[ci])
    }

    /// Absorb another partial table with the same title. Two shapes are
    /// supported, mirroring how experiments decompose:
    ///
    /// * **row merge** — identical columns: `src` rows are appended
    ///   (per-profile rows of a shared-column table, possibly zero rows);
    /// * **column merge** — identical row labels: `src` columns and cells
    ///   are appended to each row (per-profile columns of a fixed-row
    ///   table, like Table 1).
    ///
    /// Anything else is a plan bug and panics.
    pub fn merge_from(&mut self, src: Table) {
        debug_assert_eq!(self.title, src.title, "merging mismatched tables");
        if self.columns == src.columns {
            self.rows.extend(src.rows);
        } else if self.rows.len() == src.rows.len()
            && self
                .rows
                .iter()
                .zip(&src.rows)
                .all(|((a, _), (b, _))| a == b)
        {
            self.columns.extend(src.columns);
            for ((_, dst), (_, cells)) in self.rows.iter_mut().zip(src.rows) {
                dst.extend(cells);
            }
        } else {
            panic!(
                "table '{}': neither columns nor row labels line up for merging",
                self.title
            );
        }
    }

    /// Render as aligned text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let mut headers = vec![String::new()];
        headers.extend(self.columns.clone());
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(label, cells)| {
                let mut row = vec![label.clone()];
                row.extend(cells.iter().map(|c| format_num(*c)));
                row
            })
            .collect();
        render_aligned(&mut out, &headers, &rows);
        out
    }

    /// Render as CSV (header row, then one row per label).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        csv_record(&mut out, "row", self.columns.iter().cloned());
        for (label, cells) in &self.rows {
            csv_record(&mut out, label, cells.iter().map(|c| format!("{c}")));
        }
        out
    }
}

/// A rendered experiment output: a figure panel or a table.
#[derive(Clone, Debug)]
pub enum Artifact {
    /// Multi-series figure panel.
    Figure(Figure),
    /// Labeled-row table.
    Table(Table),
}

impl Artifact {
    /// The artifact's title.
    pub fn title(&self) -> &str {
        match self {
            Artifact::Figure(f) => &f.title,
            Artifact::Table(t) => &t.title,
        }
    }

    /// Aligned-text rendering.
    pub fn render(&self) -> String {
        match self {
            Artifact::Figure(f) => f.render(),
            Artifact::Table(t) => t.render(),
        }
    }

    /// CSV rendering.
    pub fn to_csv(&self) -> String {
        match self {
            Artifact::Figure(f) => f.to_csv(),
            Artifact::Table(t) => t.to_csv(),
        }
    }

    /// JSON rendering (for the paper's planned "repository of VIBe
    /// results": a machine-readable dump other tools can aggregate).
    ///
    /// Emitted by hand so the artifact pipeline has no serialization
    /// dependency; the document shape is externally-tagged on `kind`:
    /// `{"kind": "figure", "title": ..., "series": [{"name", "points"}]}`
    /// or `{"kind": "table", "title": ..., "columns": [...], "rows":
    /// [[label, [cells...]], ...]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        match self {
            Artifact::Figure(f) => {
                out.push_str("{\n  \"kind\": \"figure\",\n");
                let _ = writeln!(out, "  \"title\": {},", json_str(&f.title));
                let _ = writeln!(out, "  \"x_label\": {},", json_str(&f.x_label));
                let _ = writeln!(out, "  \"y_label\": {},", json_str(&f.y_label));
                out.push_str("  \"series\": [");
                for (i, s) in f.series.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(
                        out,
                        "\n    {{\"name\": {}, \"points\": [",
                        json_str(&s.name)
                    );
                    for (j, (x, y)) in s.points.iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        let _ = write!(out, "[{}, {}]", json_num(*x), json_num(*y));
                    }
                    out.push_str("]}");
                }
                out.push_str("\n  ]\n}");
            }
            Artifact::Table(t) => {
                out.push_str("{\n  \"kind\": \"table\",\n");
                let _ = writeln!(out, "  \"title\": {},", json_str(&t.title));
                out.push_str("  \"columns\": [");
                for (i, c) in t.columns.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&json_str(c));
                }
                out.push_str("],\n  \"rows\": [");
                for (i, (label, cells)) in t.rows.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\n    [{}, [", json_str(label));
                    for (j, c) in cells.iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        out.push_str(&json_num(*c));
                    }
                    out.push_str("]]");
                }
                out.push_str("\n  ]\n}");
            }
        }
        out
    }
}

/// Append one CSV record — a leading label, then `cells` — per RFC 4180:
/// a field containing a comma, a double quote or a line break is quoted,
/// with inner quotes doubled.
fn csv_record(out: &mut String, label: &str, cells: impl Iterator<Item = String>) {
    for (i, field) in std::iter::once(label.to_string()).chain(cells).enumerate() {
        if i > 0 {
            out.push(',');
        }
        if field.contains([',', '"', '\n', '\r']) {
            let _ = write!(out, "\"{}\"", field.replace('"', "\"\""));
        } else {
            out.push_str(&field);
        }
    }
    out.push('\n');
}

/// Escape and quote a string for JSON output.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Format an `f64` as a JSON number. Integral values keep a trailing
/// `.0` so the cell type is unambiguous; non-finite values (which no
/// artifact should produce) degrade to `null`.
fn json_num(v: f64) -> String {
    if !v.is_finite() {
        "null".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Reassemble per-job artifact slices into the serial artifact set.
///
/// `parts` must arrive in canonical job order (the order the experiment's
/// plan emitted them). Artifacts are matched by title: the first slice
/// bearing a title establishes the artifact and its position in the output;
/// later slices with the same title are folded in via
/// [`Figure::merge_from`] / [`Table::merge_from`]. Because every builder
/// appends series, points, rows, and columns in sweep order, replaying the
/// slices in plan order reproduces the serial construction exactly.
pub fn merge_artifacts(parts: impl IntoIterator<Item = Vec<Artifact>>) -> Vec<Artifact> {
    let mut out: Vec<Artifact> = Vec::new();
    for part in parts {
        for a in part {
            match out.iter_mut().find(|e| e.title() == a.title()) {
                None => out.push(a),
                Some(Artifact::Figure(dst)) => match a {
                    Artifact::Figure(src) => dst.merge_from(src),
                    Artifact::Table(t) => panic!("'{}': figure/table kind clash", t.title),
                },
                Some(Artifact::Table(dst)) => match a {
                    Artifact::Table(src) => dst.merge_from(src),
                    Artifact::Figure(f) => panic!("'{}': table/figure kind clash", f.title),
                },
            }
        }
    }
    out
}

impl From<Figure> for Artifact {
    fn from(f: Figure) -> Self {
        Artifact::Figure(f)
    }
}

impl From<Table> for Artifact {
    fn from(t: Table) -> Self {
        Artifact::Table(t)
    }
}

fn format_num(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 100_000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.3}")
    }
}

fn render_aligned(out: &mut String, headers: &[String], rows: &[Vec<String>]) {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut line = String::new();
    for (i, h) in headers.iter().enumerate() {
        let _ = write!(line, "{:>w$}  ", h, w = widths[i]);
        let _ = i;
    }
    let _ = writeln!(out, "{}", line.trim_end());
    let _ = writeln!(
        out,
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1))
    );
    for row in rows {
        let mut line = String::new();
        for (i, cell) in row.iter().enumerate() {
            let _ = write!(line, "{:>w$}  ", cell, w = widths[i]);
        }
        let _ = writeln!(out, "{}", line.trim_end());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_lookup() {
        let mut s = Series::new("cLAN");
        s.push(4.0, 8.5);
        s.push(1024.0, 18.0);
        assert_eq!(s.at(4.0), Some(8.5));
        assert_eq!(s.at(5.0), None);
        assert_eq!(s.last_y(), Some(18.0));
    }

    #[test]
    fn figure_renders_union_of_x() {
        let mut f = Figure::new("t", "bytes", "us");
        let mut a = Series::new("A");
        a.push(1.0, 10.0);
        a.push(2.0, 20.0);
        let mut b = Series::new("B");
        b.push(2.0, 200.0);
        f.push(a);
        f.push(b);
        let text = f.render();
        assert!(text.contains("A"), "{text}");
        assert!(text.contains('-'), "{text}");
        let csv = f.to_csv();
        assert!(csv.starts_with("bytes,A,B"));
        assert!(csv.contains("2,20,200"));
        assert!(csv.lines().count() == 3);
    }

    #[test]
    fn table_cells() {
        let mut t = Table::new("Table 1", vec!["M-VIA".into(), "BVIA".into()]);
        t.push("Creating VI", vec![93.0, 28.0]);
        assert_eq!(t.cell("Creating VI", "BVIA"), Some(28.0));
        assert_eq!(t.cell("Creating VI", "cLAN"), None);
        assert_eq!(t.cell("Nope", "BVIA"), None);
        let text = t.render();
        assert!(text.contains("93.0") || text.contains("93"), "{text}");
    }

    #[test]
    #[should_panic(expected = "wrong arity")]
    fn table_arity_checked() {
        let mut t = Table::new("x", vec!["a".into(), "b".into()]);
        t.push("r", vec![1.0]);
    }

    #[test]
    fn table_csv() {
        let mut t = Table::new("x", vec!["a".into(), "b".into()]);
        t.push("r1", vec![1.5, 2.0]);
        let csv = t.to_csv();
        assert_eq!(csv, "row,a,b\nr1,1.5,2\n");
    }

    #[test]
    fn artifact_dispatch() {
        let t = Table::new("tab", vec!["a".into()]);
        let a: Artifact = t.into();
        assert_eq!(a.title(), "tab");
        assert!(a.to_csv().starts_with("row,a"));
        let f = Figure::new("fig", "x", "y");
        let a: Artifact = f.into();
        assert_eq!(a.title(), "fig");
    }

    #[test]
    fn artifact_json_roundtrips_structure() {
        let mut t = Table::new("tab", vec!["a".into()]);
        t.push("r", vec![2.5]);
        let a: Artifact = t.into();
        let json = a.to_json();
        assert!(json.contains("\"kind\": \"table\""), "{json}");
        assert!(json.contains("2.5"), "{json}");
        assert!(json.contains("\"title\": \"tab\""), "{json}");
        assert!(json.contains("[\"r\", [2.5]]"), "{json}");
        // Structurally sane: brackets and braces balance.
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "{json}"
            );
        }
    }

    #[test]
    fn figure_json_shape() {
        let mut f = Figure::new("fig \"q\"", "x", "y");
        let mut s = Series::new("A");
        s.push(1.0, 2.5);
        f.push(s);
        let a: Artifact = f.into();
        let json = a.to_json();
        assert!(json.contains("\"kind\": \"figure\""), "{json}");
        assert!(json.contains("\"title\": \"fig \\\"q\\\"\""), "{json}");
        assert!(json.contains("[1.0, 2.5]"), "{json}");
    }

    fn fig(title: &str, series: &[(&str, &[(f64, f64)])]) -> Figure {
        let mut f = Figure::new(title, "x", "y");
        for (name, pts) in series {
            let mut s = Series::new(*name);
            for (x, y) in *pts {
                s.push(*x, *y);
            }
            f.push(s);
        }
        f
    }

    #[test]
    fn figure_merge_appends_points_and_series() {
        let mut dst = fig("p", &[("A", &[(1.0, 10.0)])]);
        dst.merge_from(fig("p", &[("A", &[(2.0, 20.0)]), ("B", &[(1.0, 5.0)])]));
        assert_eq!(dst.series.len(), 2);
        assert_eq!(
            dst.series("A").unwrap().points,
            vec![(1.0, 10.0), (2.0, 20.0)]
        );
        assert_eq!(dst.series("B").unwrap().points, vec![(1.0, 5.0)]);
    }

    #[test]
    fn table_row_and_column_merge() {
        // Row merge: same columns.
        let mut t = Table::new("t", vec!["a".into()]);
        t.push("r1", vec![1.0]);
        let mut more = Table::new("t", vec!["a".into()]);
        more.push("r2", vec![2.0]);
        t.merge_from(more);
        assert_eq!(t.rows.len(), 2);
        // Column merge: same row labels, new columns (Table 1 shape).
        let mut right = Table::new("t", vec!["b".into()]);
        right.push("r1", vec![10.0]);
        right.push("r2", vec![20.0]);
        t.merge_from(right);
        assert_eq!(t.columns, vec!["a".to_string(), "b".to_string()]);
        assert_eq!(t.cell("r2", "b"), Some(20.0));
        // Zero-row slice with matching columns is a no-op row merge
        // (a plan job whose profile contributes nothing).
        t.merge_from(Table::new("t", vec!["a".into(), "b".into()]));
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    #[should_panic(expected = "line up")]
    fn table_merge_rejects_disjoint_shapes() {
        let mut t = Table::new("t", vec!["a".into()]);
        t.push("r1", vec![1.0]);
        let mut bad = Table::new("t", vec!["b".into()]);
        bad.push("r9", vec![9.0]);
        t.merge_from(bad);
    }

    #[test]
    fn merge_artifacts_reproduces_serial_build() {
        // Serial: one figure with two 2-point series, built series-major.
        let serial = fig(
            "p",
            &[
                ("A", &[(1.0, 10.0), (2.0, 20.0)]),
                ("B", &[(1.0, 5.0), (2.0, 6.0)]),
            ],
        );
        // Jobs: one slice per (series, x) point, in canonical sweep order.
        let parts: Vec<Vec<Artifact>> = vec![
            vec![fig("p", &[("A", &[(1.0, 10.0)])]).into()],
            vec![fig("p", &[("A", &[(2.0, 20.0)])]).into()],
            vec![fig("p", &[("B", &[(1.0, 5.0)])]).into()],
            vec![fig("p", &[("B", &[(2.0, 6.0)])]).into()],
        ];
        let merged = merge_artifacts(parts);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].to_json(), Artifact::from(serial).to_json());
    }

    #[test]
    fn number_formatting() {
        assert_eq!(format_num(0.0), "0");
        assert_eq!(format_num(0.123456), "0.123");
        assert_eq!(format_num(8.5), "8.50");
        assert_eq!(format_num(123.456), "123.5");
        assert_eq!(format_num(123456.0), "123456");
    }
}
