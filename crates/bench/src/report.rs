//! Plain-text report formatting (aligned tables and CSV-style series).
//!
//! The experiment harness prints its results through these helpers so the
//! output of `cargo run -p grasp-bench --bin run_all -- --only E<n>` can be
//! pasted directly into EXPERIMENTS.md.

/// A simple column-aligned table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Table title printed above the header.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells (each row should match the header length).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given title and headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Format a [`Table`] with aligned columns.
pub fn format_table(table: &Table) -> String {
    let mut widths: Vec<usize> = table.headers.iter().map(|h| h.len()).collect();
    for row in &table.rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            } else {
                widths.push(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("== {} ==\n", table.title));
    let header: Vec<String> = table
        .headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{:<width$}", h, width = widths[i]))
        .collect();
    out.push_str(&header.join("  "));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in &table.rows {
        let cells: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| {
                format!(
                    "{:<width$}",
                    c,
                    width = widths.get(i).copied().unwrap_or(c.len())
                )
            })
            .collect();
        out.push_str(&cells.join("  "));
        out.push('\n');
    }
    out
}

/// A named (x, y…) series, printed as CSV — the "figure" output format.
#[derive(Debug, Clone, Default)]
pub struct Series {
    /// Series title printed above the CSV block.
    pub title: String,
    /// Column names (first is the x axis).
    pub columns: Vec<String>,
    /// Data points.
    pub points: Vec<Vec<f64>>,
}

impl Series {
    /// Create a series with the given title and column names.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Series {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            points: Vec::new(),
        }
    }

    /// Append a data point.
    pub fn push(&mut self, point: Vec<f64>) {
        self.points.push(point);
    }

    /// Number of data points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// Format a [`Series`] as a titled CSV block.
pub fn format_series(series: &Series) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {} ==\n", series.title));
    out.push_str(&series.columns.join(","));
    out.push('\n');
    for p in &series.points {
        let cells: Vec<String> = p.iter().map(|v| format!("{v:.6}")).collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

/// Escape a string for inclusion in a JSON document.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Emit a table cell as a JSON value: a bare number when the cell parses as
/// a finite float (so makespans and adaptation counts stay machine-usable),
/// a JSON string otherwise.
fn json_cell(cell: &str) -> String {
    match cell.trim().parse::<f64>() {
        // Re-format through Display so the emitted token is always a valid
        // JSON number (a cell like "1." parses but is not valid JSON).
        Ok(v) if v.is_finite() => format!("{v}"),
        _ => json_string(cell),
    }
}

/// Render a [`Table`] as a JSON object
/// (`{"type":"table","title":…,"headers":[…],"rows":[[…]]}`); numeric cells
/// become JSON numbers.  Used by `run_all` to emit `BENCH_results.json`.
pub fn table_json(table: &Table) -> String {
    let headers: Vec<String> = table.headers.iter().map(|h| json_string(h)).collect();
    let rows: Vec<String> = table
        .rows
        .iter()
        .map(|row| {
            let cells: Vec<String> = row.iter().map(|c| json_cell(c)).collect();
            format!("[{}]", cells.join(","))
        })
        .collect();
    format!(
        "{{\"type\":\"table\",\"title\":{},\"headers\":[{}],\"rows\":[{}]}}",
        json_string(&table.title),
        headers.join(","),
        rows.join(",")
    )
}

/// Render a structured failure record for `BENCH_results.json`
/// (`{"type":"failed","experiment":…,"error":…}`): what `run_all` emits when
/// one experiment panics, so a single broken experiment is visible in the
/// machine-readable trajectory instead of aborting the whole harness.  The
/// gate (`run_all --check`) turns recorded failures into a red build.
pub fn failed_json(experiment: &str, error: &str) -> String {
    format!(
        "{{\"type\":\"failed\",\"experiment\":{},\"error\":{}}}",
        json_string(experiment),
        json_string(error)
    )
}

/// Render a [`Series`] as a JSON object
/// (`{"type":"series","title":…,"columns":[…],"points":[[…]]}`).  Non-finite
/// points are emitted as `null` (JSON has no NaN).
pub fn series_json(series: &Series) -> String {
    let columns: Vec<String> = series.columns.iter().map(|c| json_string(c)).collect();
    let points: Vec<String> = series
        .points
        .iter()
        .map(|p| {
            let vals: Vec<String> = p
                .iter()
                .map(|v| {
                    if v.is_finite() {
                        format!("{v}")
                    } else {
                        "null".to_string()
                    }
                })
                .collect();
            format!("[{}]", vals.join(","))
        })
        .collect();
    format!(
        "{{\"type\":\"series\",\"title\":{},\"columns\":[{}],\"points\":[{}]}}",
        json_string(&series.title),
        columns.join(","),
        points.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_formats_aligned_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.push_row(vec!["a".into(), "1".into()]);
        t.push_row(vec!["long-name".into(), "22".into()]);
        let s = format_table(&t);
        assert!(s.contains("== demo =="));
        assert!(s.contains("long-name"));
        assert_eq!(s.lines().count(), 5);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn series_formats_as_csv() {
        let mut s = Series::new("fig", &["x", "y"]);
        s.push(vec![1.0, 2.0]);
        s.push(vec![2.0, 4.0]);
        let text = format_series(&s);
        assert!(text.contains("x,y"));
        assert!(text.contains("2.000000,4.000000"));
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn ragged_rows_do_not_panic() {
        let mut t = Table::new("ragged", &["a"]);
        t.push_row(vec!["1".into(), "extra".into()]);
        assert!(format_table(&t).contains("extra"));
    }

    #[test]
    fn table_json_emits_numbers_and_escaped_strings() {
        let mut t = Table::new("E\"42\": demo\n", &["name", "makespan_s"]);
        t.push_row(vec!["adaptive".into(), "12.50".into()]);
        t.push_row(vec!["1.".into(), "inf".into()]);
        let json = table_json(&t);
        assert!(json.starts_with("{\"type\":\"table\",\"title\":\"E\\\"42\\\": demo\\n\""));
        // Numeric cell emitted as a bare number…
        assert!(json.contains("[\"adaptive\",12.5]"), "{json}");
        // …and cells that parse but are not valid JSON numbers ("1." / inf)
        // fall back to strings.
        assert!(json.contains("[1,\"inf\"]"), "{json}");
    }

    #[test]
    fn failed_json_escapes_panic_messages() {
        let json = failed_json("E12", "assertion \"x\" failed\nleft: 1");
        assert_eq!(
            json,
            "{\"type\":\"failed\",\"experiment\":\"E12\",\
             \"error\":\"assertion \\\"x\\\" failed\\nleft: 1\"}"
        );
    }

    #[test]
    fn series_json_emits_points_and_nulls() {
        let mut s = Series::new("fig", &["x", "y"]);
        s.push(vec![1.0, 2.5]);
        s.push(vec![2.0, f64::NAN]);
        let json = series_json(&s);
        assert!(json.contains("\"columns\":[\"x\",\"y\"]"));
        assert!(json.contains("[1,2.5]"));
        assert!(json.contains("[2,null]"));
    }
}
