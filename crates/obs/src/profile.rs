//! Call-tree profiles folded from a JSONL event log.
//!
//! [`Profile::from_jsonl`] folds every `span` record of a log into a
//! [`Profile`]: per span path, the call count, total wall time, and *self*
//! time (total minus the totals of direct children). The log is either an
//! `MCOND_LOG` file (the `trace-report` bin folds one) or an in-memory
//! [`crate::testing::capture`].
//!
//! Rendered two ways: [`Profile::table`] (sorted text table, self-time
//! descending) and [`Profile::folded`] (semicolon-separated folded-stack
//! lines, the input format of the common flamegraph tooling).

use crate::json::Json;
use std::collections::BTreeMap;

/// One folded call-tree node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileEntry {
    /// Slash-joined span path.
    pub path: String,
    /// Number of closes observed at this path.
    pub calls: u64,
    /// Total wall time across calls, microseconds.
    pub total_us: u64,
    /// Total minus the totals of direct children, microseconds.
    pub self_us: u64,
}

/// A folded call-tree profile; entries sorted by descending self time.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    entries: Vec<ProfileEntry>,
}

impl Profile {
    /// Folds a JSONL event log: every `span` record's `path`/`us` pair
    /// adds one call at that path. Non-JSON lines and other record kinds
    /// are skipped.
    #[must_use]
    pub fn from_jsonl(text: &str) -> Profile {
        // path → (calls, total µs)
        let mut map: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let Ok(j) = Json::parse(line) else { continue };
            if j.get("ev").and_then(Json::as_str) != Some("span") {
                continue;
            }
            let Some(path) = j.get("path").and_then(Json::as_str) else { continue };
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let us = j.get("us").and_then(Json::as_f64).unwrap_or(0.0).max(0.0) as u64;
            let entry = map.entry(path.to_owned()).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += us;
        }
        let mut child_totals: BTreeMap<&str, u64> = BTreeMap::new();
        for (path, (_, total)) in &map {
            if let Some((parent, _)) = path.rsplit_once('/') {
                *child_totals.entry(parent).or_insert(0) += *total;
            }
        }
        let mut entries: Vec<ProfileEntry> = map
            .iter()
            .map(|(path, &(calls, total_us))| ProfileEntry {
                self_us: total_us
                    .saturating_sub(child_totals.get(path.as_str()).copied().unwrap_or(0)),
                path: path.clone(),
                calls,
                total_us,
            })
            .collect();
        entries.sort_by(|a, b| b.self_us.cmp(&a.self_us).then_with(|| a.path.cmp(&b.path)));
        Profile { entries }
    }

    /// Entries sorted by descending self time.
    #[must_use]
    pub fn entries(&self) -> &[ProfileEntry] {
        &self.entries
    }

    /// Looks up one exact path.
    #[must_use]
    pub fn get(&self, path: &str) -> Option<&ProfileEntry> {
        self.entries.iter().find(|e| e.path == path)
    }

    /// True when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sorted text table (self-time descending), one row per path.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = format!("{:>9}  {:>12}  {:>12}  path\n", "calls", "total_ms", "self_ms");
        #[allow(clippy::cast_precision_loss)]
        for e in &self.entries {
            out.push_str(&format!(
                "{:>9}  {:>12.3}  {:>12.3}  {}\n",
                e.calls,
                e.total_us as f64 / 1000.0,
                e.self_us as f64 / 1000.0,
                e.path
            ));
        }
        out
    }

    /// Folded-stack lines (`root;child;leaf self_us`), the flamegraph
    /// input format, sorted lexicographically.
    #[must_use]
    pub fn folded(&self) -> String {
        let mut lines: Vec<String> = self
            .entries
            .iter()
            .map(|e| format!("{} {}", e.path.replace('/', ";"), e.self_us))
            .collect();
        lines.sort();
        lines.join("\n")
    }
}
