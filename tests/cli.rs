//! Drives the built `mcond-cli` binary: text export → graph file → `info`,
//! and what `info` does when the file's bytes are not what it wrote.

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mcond-cli")).args(args).output().expect("run mcond-cli")
}

#[test]
fn info_reads_an_imported_graph_and_answers_a_corrupt_one_with_an_error_line() {
    let dir = std::env::temp_dir().join("mcond_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    let (edges, nodes, graph) = (path("edges.txt"), path("nodes.txt"), path("graph.mcst"));
    std::fs::write(&edges, "0 1\n1 2\n2 3\n3 0\n").unwrap();
    std::fs::write(&nodes, "0 1.0 0.0\n1 0.0 1.0\n2 1.0 1.0\n1 0.5 0.5\n").unwrap();

    let out = cli(&["import", "--edges", &edges, "--nodes", &nodes, "--out", &graph]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let image = std::fs::read(&graph).unwrap();
    assert_eq!(image[..4], mcond::store::MAGIC);

    let out = cli(&["info", "--graph", &graph]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    for line in ["nodes      4", "edges      4", "features   2", "class sizes [1, 2, 1]"] {
        assert!(stdout.contains(line), "no {line:?} in:\n{stdout}");
    }

    let mut flipped = image.clone();
    *flipped.last_mut().unwrap() ^= 0x04;
    for (what, bytes) in [("bit flip", &flipped[..]), ("truncation", &image[..image.len() - 1])] {
        std::fs::write(&graph, bytes).unwrap();
        let out = cli(&["info", "--graph", &graph]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
        assert!(stderr.starts_with("error: "), "{what}: {stderr}");
        assert!(!stderr.contains("panicked"), "{what}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
