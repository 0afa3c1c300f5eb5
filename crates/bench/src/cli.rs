//! Argument parsing for the `repro` driver.

use crate::views::{View, VIEWS};
use mcond_graph::{Scale, DATASET_NAMES};

/// The run's options.
#[derive(Clone, Debug)]
pub struct BenchArgs {
    /// `--scale small|paper` (default `small`).
    pub scale: Scale,
    /// `--seed N` base seed (default 0).
    pub seed: u64,
    /// `--repeats N` independent runs per cell (default 3; the paper uses
    /// 5).
    pub repeats: usize,
    /// `--datasets a,b,c` filter (default: all three).
    pub datasets: Vec<String>,
    /// `--out DIR` also write `<view>.{txt,json}` there.
    pub out: Option<String>,
    /// `--epochs N` override GNN training epochs.
    pub epochs: Option<usize>,
    /// The positional view names, in [`VIEWS`] order (default: every view).
    pub views: Vec<&'static View>,
}

impl Default for BenchArgs {
    fn default() -> Self {
        Self {
            scale: Scale::Small,
            seed: 0,
            repeats: 3,
            datasets: DATASET_NAMES.map(str::to_owned).to_vec(),
            out: None,
            epochs: None,
            views: VIEWS.iter().collect(),
        }
    }
}

/// Parses `std::env::args`, exiting with a usage message on errors (exit
/// code 2; `--help` exits 0).
#[must_use]
pub fn parse_args() -> BenchArgs {
    parse_from(std::env::args().skip(1)).unwrap_or_else(|err| usage(&err))
}

/// The options `args` describe, or the usage error (empty for `--help`).
fn parse_from(args: impl Iterator<Item = String>) -> Result<BenchArgs, String> {
    let mut out = BenchArgs::default();
    let mut views: Vec<String> = Vec::new();
    let mut it = args;
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("missing value for {name}"));
        match flag.as_str() {
            "--scale" => out.scale = value("--scale")?.parse()?,
            "--seed" => out.seed = value("--seed")?.parse().map_err(|_| "bad --seed")?,
            "--repeats" => out.repeats = value("--repeats")?.parse().map_err(|_| "bad --repeats")?,
            "--datasets" => {
                out.datasets = value("--datasets")?.split(',').map(str::to_owned).collect()
            }
            "--out" => out.out = Some(value("--out")?),
            "--epochs" => {
                out.epochs = Some(value("--epochs")?.parse().map_err(|_| "bad --epochs")?)
            }
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with('-') => return Err(format!("unknown flag {other:?}")),
            view => views.push(view.to_owned()),
        }
    }
    if out.repeats == 0 {
        return Err("--repeats must be positive".to_owned());
    }
    if let Some(bad) = out.datasets.iter().find(|d| !DATASET_NAMES.contains(&d.as_str())) {
        return Err(format!("unknown dataset {bad:?}"));
    }
    if let Some(bad) = views.iter().find(|v| !VIEWS.iter().any(|view| view.name == *v)) {
        return Err(format!("unknown view {bad:?}"));
    }
    if !views.is_empty() {
        out.views.retain(|view| views.iter().any(|v| v == view.name));
    }
    Ok(out)
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    let names: Vec<&str> = VIEWS.iter().map(|v| v.name).collect();
    eprintln!(
        "usage: repro [VIEW…] [--scale small|paper] [--seed N] [--repeats N] \
         [--datasets pubmed,flickr,reddit] [--epochs N] [--out DIR]\n\
         views (default: all): {}",
        names.join(" ")
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(items: &[&str]) -> Result<BenchArgs, String> {
        parse_from(items.iter().map(|s| (*s).to_owned()))
    }

    fn names(args: &BenchArgs) -> Vec<&'static str> {
        args.views.iter().map(|v| v.name).collect()
    }

    #[test]
    fn defaults_are_sane() {
        let args = parse(&[]).unwrap();
        assert_eq!(args.scale, Scale::Small);
        assert_eq!(args.repeats, 3);
        assert_eq!(args.datasets.len(), 3);
        assert_eq!(args.out, None);
        assert_eq!(args.views.len(), VIEWS.len(), "every view by default");
    }

    #[test]
    fn flags_override_defaults() {
        let args = parse(&[
            "--scale", "paper", "--seed", "9", "--repeats", "5", "--datasets", "reddit",
            "--epochs", "40", "--out", "results",
        ])
        .unwrap();
        assert_eq!(args.scale, Scale::Paper);
        assert_eq!(args.seed, 9);
        assert_eq!(args.repeats, 5);
        assert_eq!(args.datasets, vec!["reddit".to_owned()]);
        assert_eq!(args.epochs, Some(40));
        assert_eq!(args.out.as_deref(), Some("results"));
    }

    /// Positional names pick views; the run keeps the registry's order.
    #[test]
    fn positional_names_select_views() {
        let args = parse(&["fig7_sensitivity", "--repeats", "1", "table2_accuracy"]).unwrap();
        assert_eq!(names(&args), ["table2_accuracy", "fig7_sensitivity"]);
        assert_eq!(args.repeats, 1);
    }

    /// Every error is a non-empty message, which `usage` turns into exit
    /// code 2; `--help` is the empty one (exit 0).
    #[test]
    fn bad_input_is_a_usage_error() {
        assert_eq!(parse(&["table9_nope"]).unwrap_err(), "unknown view \"table9_nope\"");
        assert_eq!(parse(&["--datasets", "cora"]).unwrap_err(), "unknown dataset \"cora\"");
        assert_eq!(parse(&["--json", "x.json"]).unwrap_err(), "unknown flag \"--json\"");
        assert_eq!(parse(&["--repeats", "0"]).unwrap_err(), "--repeats must be positive");
        assert_eq!(parse(&["--out"]).unwrap_err(), "missing value for --out");
        assert_eq!(parse(&["--scale", "huge"]).unwrap_err(), "unknown scale \"huge\"");
        assert_eq!(parse(&["--help"]).unwrap_err(), "");
    }
}
