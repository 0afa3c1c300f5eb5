//! Plain-text importers for real datasets.
//!
//! Real Pubmed/Flickr/Reddit (or any attributed graph) can be exported from
//! their Python loaders into two text files and imported here once, then
//! saved as a binary graph file with `mcond_store::save_graph`:
//!
//! * **edge list** — one `src dst` (or `src,dst` / `src\tdst`) pair per
//!   line; `#`-prefixed lines are comments; edges are made symmetric.
//! * **node table** — one line per node, ordered by node id:
//!   `label feat_0 feat_1 …` with the same separators.
//!
//! ```no_run
//! use mcond_graph::import_graph;
//! let g = import_graph(
//!     std::path::Path::new("reddit_edges.txt"),
//!     std::path::Path::new("reddit_nodes.txt"),
//! ).unwrap();
//! ```

use crate::Graph;
use mcond_linalg::DMat;
use mcond_sparse::Coo;
use std::io::{self, BufRead};
use std::path::Path;

/// Imports a graph from an edge-list file and a node table file.
///
/// # Errors
/// Returns `InvalidData` for malformed lines, inconsistent feature widths,
/// out-of-range node ids, or an empty node table.
pub fn import_graph(edges_path: &Path, nodes_path: &Path) -> io::Result<Graph> {
    let (labels, features) = read_node_table(nodes_path)?;
    let n = labels.len();
    let mut coo = Coo::new(n, n);
    for (lineno, line) in open_lines(edges_path)?.enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut fields = split_fields(trimmed);
        let src = parse_id(fields.next(), n, edges_path, lineno)?;
        let dst = parse_id(fields.next(), n, edges_path, lineno)?;
        if src != dst {
            coo.push_sym(src, dst, 1.0);
        }
    }
    let adj = coo.to_csr().map_values(|_| 1.0);
    let num_classes = labels.iter().copied().max().unwrap_or(0) + 1;
    Ok(Graph::new(adj, features, labels, num_classes))
}

/// Reads the `label feat…` node table; returns labels and the feature
/// matrix.
fn read_node_table(path: &Path) -> io::Result<(Vec<usize>, DMat)> {
    let mut labels = Vec::new();
    let mut data: Vec<f32> = Vec::new();
    let mut width: Option<usize> = None;
    for (lineno, line) in open_lines(path)?.enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut fields = split_fields(trimmed);
        let label: usize = fields
            .next()
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| bad_line(path, lineno, "expected integer label"))?;
        let row: Result<Vec<f32>, _> = fields.map(str::parse).collect();
        let row = row.map_err(|_| bad_line(path, lineno, "non-numeric feature"))?;
        match width {
            None => width = Some(row.len()),
            Some(w) if w != row.len() => {
                return Err(bad_line(path, lineno, "inconsistent feature width"));
            }
            _ => {}
        }
        labels.push(label);
        data.extend(row);
    }
    if labels.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: empty node table", path.display()),
        ));
    }
    let d = width.unwrap_or(0);
    Ok((labels.clone(), DMat::from_vec(labels.len(), d, data)))
}

fn open_lines(path: &Path) -> io::Result<impl Iterator<Item = io::Result<String>>> {
    Ok(io::BufReader::new(std::fs::File::open(path)?).lines())
}

/// Splits on whitespace, commas, or tabs.
fn split_fields(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| c.is_whitespace() || c == ',').filter(|f| !f.is_empty())
}

fn parse_id(
    field: Option<&str>,
    n: usize,
    path: &Path,
    lineno: usize,
) -> io::Result<usize> {
    let id: usize = field
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| bad_line(path, lineno, "expected node id"))?;
    if id >= n {
        return Err(bad_line(path, lineno, "node id exceeds node-table length"));
    }
    Ok(id)
}

fn bad_line(path: &Path, lineno: usize, msg: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{}:{}: {msg}", path.display(), lineno + 1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_files(edges: &str, nodes: &str, tag: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("mcond_import_{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        let e = dir.join("edges.txt");
        let v = dir.join("nodes.txt");
        std::fs::write(&e, edges).unwrap();
        std::fs::write(&v, nodes).unwrap();
        (e, v)
    }

    #[test]
    fn imports_whitespace_separated_files() {
        let (e, v) = write_files(
            "# a comment\n0 1\n1 2\n\n2 0\n",
            "0 1.0 2.0\n1 0.5 -1.0\n0 0.0 0.0\n",
            "basic",
        );
        let g = import_graph(&e, &v).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_classes, 2);
        assert_eq!(g.labels, vec![0, 1, 0]);
        assert_eq!(g.feature_dim(), 2);
        assert_eq!(g.adj.get(0, 1), 1.0);
        assert_eq!(g.adj.get(1, 0), 1.0);
    }

    #[test]
    fn accepts_commas_and_dedupes_edges() {
        let (e, v) = write_files("0,1\n1,0\n0,1\n", "0,1.0\n1,2.0\n", "commas");
        let g = import_graph(&e, &v).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.adj.get(0, 1), 1.0);
    }

    #[test]
    fn drops_self_loops() {
        let (e, v) = write_files("0 0\n0 1\n", "0 1.0\n0 1.0\n", "selfloop");
        let g = import_graph(&e, &v).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.adj.get(0, 0), 0.0);
    }

    #[test]
    fn rejects_out_of_range_ids() {
        let (e, v) = write_files("0 7\n", "0 1.0\n1 1.0\n", "range");
        let err = import_graph(&e, &v).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn rejects_ragged_features() {
        let (e, v) = write_files("0 1\n", "0 1.0 2.0\n1 1.0\n", "ragged");
        let err = import_graph(&e, &v).unwrap_err();
        assert!(err.to_string().contains("inconsistent"));
    }

    #[test]
    fn rejects_empty_node_table() {
        let (e, v) = write_files("", "# only comments\n", "empty");
        assert!(import_graph(&e, &v).is_err());
    }
}
