//! Table rendering and machine-readable result dumps.

use mcond_obs::{Json, MetricsSnapshot};

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
}

impl TableReport {
    /// An empty report.
    #[must_use]
    pub fn new(title: &str) -> Self {
        Self { title: title.to_owned(), rows: Vec::new(), metrics: MetricsSnapshot::default() }
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

    /// Writes the report as pretty-printed JSON to `path`.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn dump_json(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().pretty())
    }
}

/// Renders a report as an aligned text table to stdout.
pub fn print_table(report: &TableReport) {
    println!("\n=== {} ===", report.title);
    let Some(first) = report.rows.first() else {
        println!("(no rows)");
        return;
    };
    let headers: Vec<String> = first
        .keys
        .iter()
        .map(|(k, _)| k.clone())
        .chain(first.metrics.iter().map(|(k, _)| k.clone()))
        .collect();
    let mut cells: Vec<Vec<String>> = vec![headers];
    for row in &report.rows {
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
        println!("(no columns)");
        return;
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
        println!("{}", line.join("  "));
        if i == 0 {
            println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        }
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
        report.push(Row::new().key("k", "v").metric("m", 1.5));
        let path = std::env::temp_dir().join("mcond_report_test.json");
        report.dump_json(path.to_str().unwrap()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"title\": \"test\""));
        assert!(text.contains("1.5"));
        // The dump is parseable JSON with the same structure.
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.get("title").and_then(Json::as_str), Some("test"));
        let rows = parsed.get("rows").and_then(Json::as_arr).unwrap();
        assert_eq!(
            rows[0].get("metrics").and_then(|m| m.get("m")).and_then(Json::as_f64),
            Some(1.5)
        );
        std::fs::remove_file(&path).ok();
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
        print_table(&TableReport::new("empty"));
        // A row with zero columns used to underflow the separator width.
        let mut report = TableReport::new("zero-cols");
        report.push(Row::new());
        print_table(&report);
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
