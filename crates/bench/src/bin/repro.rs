//! Reproduces the paper's tables and figures in one process.
//!
//! ```text
//! repro [VIEW…] [--scale small|paper] [--seed N] [--repeats N]
//!       [--datasets pubmed,flickr,reddit] [--epochs N] [--out DIR]
//! ```
//!
//! Runs every selected view (default: all of `mcond_bench::views::VIEWS`)
//! on each selected dataset in turn, datasets outermost, over a job table
//! built fresh for each dataset. Once the run completes,
//! prints each view's table and, with `--out DIR`, writes it to
//! `DIR/<view>.{txt,json}`.

use mcond_bench::{parse_args, Jobs, TableReport};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = parse_args();
    if let Some(dir) = &args.out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("repro: cannot create {dir}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let views = &args.views;
    let mut reports: Vec<TableReport> = views.iter().map(|v| TableReport::new(v.title)).collect();
    for name in &args.datasets {
        let jobs = Jobs::new(args.clone());
        for (view, report) in views.iter().zip(&mut reports) {
            eprintln!("repro: {} on {name}", view.name);
            (view.run)(&jobs, name, report);
        }
    }
    for (view, report) in views.iter().zip(&reports) {
        print!("{report}");
        if let Some(dir) = &args.out {
            if let Err(e) = report.write(Path::new(dir), view.name) {
                eprintln!("repro: cannot write {dir}/{}: {e}", view.name);
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
