//! `mcond-cli` — condense graphs and serve inductive inference from the
//! command line.
//!
//! ```sh
//! # generate a bundled dataset and save the full graph
//! mcond-cli generate --dataset pubmed --scale small --out pubmed.mcst
//!
//! # condense it and save the deployable artifact bundle
//! mcond-cli condense --dataset pubmed --scale small --ratio 0.02 --out artifact/
//!
//! # evaluate inductive inference from the artifact
//! mcond-cli infer --artifact artifact/ --dataset pubmed --scale small
//!
//! # inspect any graph file
//! mcond-cli info --graph pubmed.mcst
//! ```

use mcond::graph::import_graph;
use mcond::store::{load_graph, save_graph};
use mcond::prelude::*;
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
usage: mcond-cli <command> [options]

commands:
  generate  --dataset NAME [--scale small|paper] [--seed N] --out FILE.mcst
  import    --edges FILE --nodes FILE --out FILE.mcst
  condense  --dataset NAME [--scale small|paper] [--seed N] [--ratio R]
            [--epochs N] --out DIR
  infer     --artifact DIR --dataset NAME [--scale small|paper] [--seed N]
            [--epochs N] [--graph-batch]
  info      --graph FILE.mcst";

/// Parses `--key value` pairs after the subcommand.
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected a --flag, got {key:?}"));
        };
        if name == "graph-batch" {
            flags.insert(name.to_owned(), "true".to_owned());
            continue;
        }
        let value = it.next().ok_or_else(|| format!("missing value for --{name}"))?;
        flags.insert(name.to_owned(), value.clone());
    }
    Ok(flags)
}

fn required<'a>(flags: &'a HashMap<String, String>, name: &str) -> Result<&'a str, String> {
    flags.get(name).map(String::as_str).ok_or_else(|| format!("missing --{name}"))
}

/// The value of `--name` parsed as a `T`, or `default` when it is absent.
fn flag_or<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("invalid --{name}: {v:?}")),
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some((command, rest)) = args.split_first() else {
        return Err("no command given".to_owned());
    };
    let flags = parse_flags(rest)?;
    match command.as_str() {
        "generate" => cmd_generate(&flags),
        "import" => cmd_import(&flags),
        "condense" => cmd_condense(&flags),
        "infer" => cmd_infer(&flags),
        "info" => cmd_info(&flags),
        other => Err(format!("unknown command {other:?}")),
    }
}

fn load_named(flags: &HashMap<String, String>) -> Result<InductiveDataset, String> {
    let name = required(flags, "dataset")?;
    let scale = flag_or(flags, "scale", Scale::Small)?;
    let seed = flag_or(flags, "seed", 0u64)?;
    load_dataset(name, scale, seed)
}

fn cmd_generate(flags: &HashMap<String, String>) -> Result<(), String> {
    let out = required(flags, "out")?;
    let data = load_named(flags)?;
    save_graph(&data.full, Path::new(out)).map_err(|e| e.to_string())?;
    let stats = data.full.stats();
    println!(
        "wrote {out}: {} nodes, {} edges, {} features, {} classes",
        stats.nodes, stats.edges, stats.features, stats.classes
    );
    Ok(())
}

fn cmd_import(flags: &HashMap<String, String>) -> Result<(), String> {
    let edges = required(flags, "edges")?;
    let nodes = required(flags, "nodes")?;
    let out = required(flags, "out")?;
    let graph = import_graph(Path::new(edges), Path::new(nodes)).map_err(|e| e.to_string())?;
    save_graph(&graph, Path::new(out)).map_err(|e| e.to_string())?;
    let stats = graph.stats();
    println!(
        "imported {out}: {} nodes, {} edges, {} features, {} classes, homophily {:.3}",
        stats.nodes,
        stats.edges,
        stats.features,
        stats.classes,
        graph.edge_homophily()
    );
    Ok(())
}

fn cmd_condense(flags: &HashMap<String, String>) -> Result<(), String> {
    let out = required(flags, "out")?;
    let data = load_named(flags)?;
    let ratio = flag_or(flags, "ratio", 0.02f64)?;
    let seed = flag_or(flags, "seed", 0u64)?;
    let cfg = McondConfig { ratio, seed, ..McondConfig::default() };
    println!(
        "condensing {} training nodes at r = {:.2}% ...",
        data.train_idx.len(),
        100.0 * ratio
    );
    let condensed = condense(&data, &cfg);
    mcond::core::save_condensed(&condensed, Path::new(out)).map_err(|e| e.to_string())?;
    println!(
        "wrote artifact to {out}: {} synthetic nodes, mapping nnz = {}",
        condensed.synthetic.num_nodes(),
        condensed.mapping.nnz()
    );
    Ok(())
}

fn cmd_infer(flags: &HashMap<String, String>) -> Result<(), String> {
    let dir = required(flags, "artifact")?;
    let artifact = mcond::core::load_condensed(Path::new(dir)).map_err(|e| e.to_string())?;
    let data = load_named(flags)?;
    let epochs = flag_or(flags, "epochs", 150usize)?;
    let seed = flag_or(flags, "seed", 0u64)?;
    let graph_batch = flags.contains_key("graph-batch");

    // Train SGC on the synthetic graph (the S->S deployment).
    let ops = GraphOps::from_adj(&artifact.synthetic.adj);
    let mut model = GnnModel::new(
        GnnKind::Sgc,
        artifact.synthetic.feature_dim(),
        64,
        artifact.synthetic.num_classes,
        seed,
    );
    train(
        &mut model,
        &ops,
        &artifact.synthetic.features,
        &artifact.synthetic.labels,
        &TrainConfig { epochs, lr: 0.03, ..TrainConfig::default() },
        None,
    );

    let server = InductiveServer::on_synthetic(&artifact.synthetic, &artifact.mapping, &model);
    let mut hits = 0.0;
    let mut total = 0usize;
    let start = std::time::Instant::now();
    for batch in data.test_batches(1000, graph_batch) {
        let logits = server.try_serve(&batch).map_err(|e| e.to_string())?;
        hits += accuracy(&logits, &batch.labels) * batch.len() as f64;
        total += batch.len();
    }
    let elapsed = start.elapsed();
    println!(
        "inductive accuracy on {} test nodes ({} batch): {:.2}%  ({:.1} ms total)",
        total,
        if graph_batch { "graph" } else { "node" },
        100.0 * hits / total as f64,
        1000.0 * elapsed.as_secs_f64()
    );
    println!("artifact footprint: {:.3} MB", artifact.storage_bytes() as f64 / 1e6);
    Ok(())
}

fn cmd_info(flags: &HashMap<String, String>) -> Result<(), String> {
    let path = required(flags, "graph")?;
    let graph = load_graph(Path::new(path)).map_err(|e| e.to_string())?;
    let stats = graph.stats();
    println!("graph {path}:");
    println!("  nodes      {}", stats.nodes);
    println!("  edges      {}", stats.edges);
    println!("  features   {}", stats.features);
    println!("  classes    {}", stats.classes);
    println!("  homophily  {:.4}", graph.edge_homophily());
    println!("  class sizes {:?}", graph.class_counts());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags_of(pairs: &[(&str, &str)]) -> HashMap<String, String> {
        pairs.iter().map(|(k, v)| ((*k).to_owned(), (*v).to_owned())).collect()
    }

    #[test]
    fn parse_flags_accepts_pairs_and_switches() {
        let args: Vec<String> = ["--dataset", "pubmed", "--graph-batch", "--seed", "3"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let flags = parse_flags(&args).unwrap();
        assert_eq!(flags.get("dataset").unwrap(), "pubmed");
        assert_eq!(flags.get("graph-batch").unwrap(), "true");
        assert_eq!(flags.get("seed").unwrap(), "3");
    }

    #[test]
    fn parse_flags_rejects_positional_arguments() {
        let args = vec!["pubmed".to_owned()];
        assert!(parse_flags(&args).is_err());
    }

    #[test]
    fn parse_flags_rejects_missing_value() {
        let args = vec!["--out".to_owned()];
        assert!(parse_flags(&args).is_err());
    }

    #[test]
    fn scale_parsing() {
        let scale = |pairs: &[(&str, &str)]| flag_or(&flags_of(pairs), "scale", Scale::Small);
        assert_eq!(scale(&[]).unwrap(), Scale::Small);
        assert_eq!(scale(&[("scale", "paper")]).unwrap(), Scale::Paper);
        assert!(scale(&[("scale", "huge")]).is_err());
    }

    #[test]
    fn numeric_parsing_uses_defaults() {
        let flags = flags_of(&[("ratio", "0.05")]);
        assert_eq!(flag_or(&flags, "ratio", 0.02f64).unwrap(), 0.05);
        assert_eq!(flag_or(&flags, "seed", 7u64).unwrap(), 7);
        assert!(flag_or(&flags_of(&[("seed", "x")]), "seed", 0u64).is_err());
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&["frobnicate".to_owned()]).is_err());
        assert!(run(&[]).is_err());
    }
}
