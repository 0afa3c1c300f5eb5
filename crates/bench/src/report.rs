//! Table rendering and machine-readable result dumps.

use mcond_obs::{Json, MetricsSnapshot};
use std::fmt;
use std::path::Path;

/// One result row: free-form key columns plus named numeric metrics.
#[derive(Clone, Debug)]
pub struct Row {
    /// Key columns (dataset, method, ratio, …) in table order.
    pub keys: Vec<(String, String)>,
    /// Metric columns (accuracy, time, memory, …) in table order.
    pub metrics: Vec<(String, f64)>,
}

impl Row {
    /// Starts a row.
    #[must_use]
    pub fn new() -> Self {
        Self { keys: Vec::new(), metrics: Vec::new() }
    }

    /// Adds a key column.
    #[must_use]
    pub fn key(mut self, name: &str, value: impl ToString) -> Self {
        self.keys.push((name.to_owned(), value.to_string()));
        self
    }

    /// Adds a metric column.
    #[must_use]
    pub fn metric(mut self, name: &str, value: f64) -> Self {
        self.metrics.push((name.to_owned(), value));
        self
    }

    fn to_json(&self) -> Json {
        let mut keys = Json::obj();
        for (k, v) in &self.keys {
            keys.insert(k, v.as_str());
        }
        let mut metrics = Json::obj();
        for (k, v) in &self.metrics {
            metrics.insert(k, *v);
        }
        Json::obj().with("keys", keys).with("metrics", metrics)
    }
}

impl Default for Row {
    fn default() -> Self {
        Self::new()
    }
}

/// A titled collection of rows, optionally carrying the observability
/// counters/histograms captured while the experiment ran.
#[derive(Clone, Debug)]
pub struct TableReport {
    /// Table/figure title (e.g. `"Table II — inductive accuracy"`).
    pub title: String,
    /// Result rows.
    pub rows: Vec<Row>,
    /// Pipeline metrics (kernel counters, serve latency histograms, …)
    /// folded into the JSON dump when non-empty.
    pub metrics: MetricsSnapshot,
    /// Free text printed above the table (not in the JSON dump).
    pub notes: String,
}

impl TableReport {
    /// An empty report.
    #[must_use]
    pub fn new(title: &str) -> Self {
        Self {
            title: title.to_owned(),
            rows: Vec::new(),
            metrics: MetricsSnapshot::default(),
            notes: String::new(),
        }
    }

    /// Appends a row.
    pub fn push(&mut self, row: Row) {
        self.rows.push(row);
    }

    /// Merges an observability snapshot into the report (e.g. a server's
    /// latency histograms or the global kernel counters).
    pub fn attach_metrics(&mut self, snapshot: &MetricsSnapshot) {
        self.metrics.counters.extend(snapshot.counters.iter().cloned());
        self.metrics.gauges.extend(snapshot.gauges.iter().cloned());
        self.metrics.histograms.extend(snapshot.histograms.iter().cloned());
    }

    /// The report as a JSON value: `{title, rows, [metrics]}`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let rows: Vec<Json> = self.rows.iter().map(Row::to_json).collect();
        let mut json = Json::obj().with("title", self.title.as_str()).with("rows", rows);
        if !self.metrics.is_empty() {
            json.insert("metrics", self.metrics.to_json());
        }
        json
    }

    /// Writes the rendered report to `dir/{stem}.txt` and its JSON to
    /// `dir/{stem}.json`, each under its final name only once it is
    /// complete.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn write(&self, dir: &Path, stem: &str) -> std::io::Result<()> {
        for (ext, body) in [("txt", self.to_string()), ("json", self.to_json().pretty())] {
            let tmp = dir.join(format!("{stem}.{ext}.tmp"));
            std::fs::write(&tmp, body)?;
            std::fs::rename(&tmp, dir.join(format!("{stem}.{ext}")))?;
        }
        Ok(())
    }
}

/// The notes, then the rows as an aligned text table.
impl fmt::Display for TableReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.notes)?;
        writeln!(f, "\n=== {} ===", self.title)?;
        let Some(first) = self.rows.first() else {
            return writeln!(f, "(no rows)");
        };
        let headers: Vec<String> = first
            .keys
            .iter()
            .map(|(k, _)| k.clone())
            .chain(first.metrics.iter().map(|(k, _)| k.clone()))
            .collect();
        let mut cells: Vec<Vec<String>> = vec![headers];
        for row in &self.rows {
            cells.push(
                row.keys
                    .iter()
                    .map(|(_, v)| v.clone())
                    .chain(row.metrics.iter().map(|(_, v)| format_metric(*v)))
                    .collect(),
            );
        }
        let cols = cells[0].len();
        if cols == 0 {
            return writeln!(f, "(no columns)");
        }
        let widths: Vec<usize> = (0..cols)
            .map(|c| cells.iter().map(|r| r.get(c).map_or(0, String::len)).max().unwrap_or(0))
            .collect();
        for (i, row) in cells.iter().enumerate() {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(cell, w)| format!("{cell:>w$}", w = *w))
                .collect();
            writeln!(f, "{}", line.join("  "))?;
            if i == 0 {
                writeln!(f, "{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)))?;
            }
        }
        Ok(())
    }
}

fn format_metric(v: f64) -> String {
    if v == 0.0 {
        "0".to_owned()
    } else if v.fract() == 0.0 && v.abs() < 1e7 {
        format!("{v:.0}")
    } else if v.abs() >= 1e6 {
        format!("{:.3e}", v)
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else if v.abs() >= 0.01 {
        format!("{v:.4}")
    } else {
        format!("{v:.2e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_keep_column_order() {
        let row = Row::new().key("dataset", "pubmed").key("r", 0.01).metric("acc", 0.78);
        assert_eq!(row.keys[0].0, "dataset");
        assert_eq!(row.keys[1].1, "0.01");
        assert_eq!(row.metrics[0], ("acc".to_owned(), 0.78));
    }

    #[test]
    fn json_dump_round_trips() {
        let mut report = TableReport::new("test");
        report.notes += "a note\n";
        report.push(Row::new().key("k", "v").metric("m", 1.5));
        let dir = std::env::temp_dir().join(format!("mcond_report_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        report.write(&dir, "view").unwrap();
        let text = std::fs::read_to_string(dir.join("view.json")).unwrap();
        assert!(text.contains("\"title\": \"test\""));
        assert!(text.contains("1.5"));
        assert!(!text.contains("a note"), "notes stay out of the JSON");
        // The dump is parseable JSON with the same structure.
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.get("title").and_then(Json::as_str), Some("test"));
        let rows = parsed.get("rows").and_then(Json::as_arr).unwrap();
        assert_eq!(
            rows[0].get("metrics").and_then(|m| m.get("m")).and_then(Json::as_f64),
            Some(1.5)
        );
        // The text file is the rendered report, notes first; no `.tmp` is left.
        let txt = std::fs::read_to_string(dir.join("view.txt")).unwrap();
        assert_eq!(txt, report.to_string());
        assert!(txt.starts_with("a note\n\n=== test ===\n"));
        let mut names: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        names.sort();
        assert_eq!(names, ["view.json", "view.txt"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn attached_metrics_appear_in_the_dump() {
        let mut report = TableReport::new("with metrics");
        report.push(Row::new().key("k", "v").metric("m", 2.0));
        let snap = MetricsSnapshot {
            counters: vec![("linalg.matmul.flops".to_owned(), 1234)],
            gauges: vec![],
            histograms: vec![],
        };
        report.attach_metrics(&snap);
        let json = report.to_json();
        assert_eq!(
            json.get("metrics")
                .and_then(|m| m.get("counters"))
                .and_then(|c| c.get("linalg.matmul.flops"))
                .and_then(Json::as_f64),
            Some(1234.0)
        );
        // Empty snapshots stay out of the dump entirely.
        let bare = TableReport::new("bare").to_json();
        assert!(bare.get("metrics").is_none());
    }

    #[test]
    fn print_table_survives_empty_rows_and_columns() {
        // No rows at all.
        assert_eq!(TableReport::new("empty").to_string(), "\n=== empty ===\n(no rows)\n");
        // A row with zero columns used to underflow the separator width.
        let mut report = TableReport::new("zero-cols");
        report.push(Row::new());
        assert!(report.to_string().ends_with("(no columns)\n"));
    }

    #[test]
    fn metric_formatting_scales() {
        assert_eq!(format_metric(0.0), "0");
        assert_eq!(format_metric(0.78125), "0.7812");
        assert_eq!(format_metric(123.456), "123.5");
        assert!(format_metric(2.5e7).contains('e'));
        assert!(format_metric(0.0001).contains('e'));
    }
}
