//! The paper-scale datasets are not solved by their features alone.
//!
//! `calibrate_datasets` trains SGC with 0 hops (feature-only) and with 2
//! hops (Whole) on the training graph. At paper scale its structure gain,
//! Whole minus feature-only test accuracy in points, must clear a floor
//! set from the small scale's calibration. Pubmed-paper and flickr-paper
//! are generated and trained here (release, ignored by default; `check.sh`
//! runs it). Reddit-paper needs ≈ 2.3 GB and most of an hour, so its row
//! is read from the committed `results/paper_scale/calibrate_datasets.json`.

use mcond_bench::views::VIEWS;
use mcond_bench::{BenchArgs, Jobs, TableReport};
use mcond_graph::Scale;
use mcond_obs::Json;

/// The least structure gain, in accuracy points, each dataset must show.
const MIN_GAIN: [(&str, f64); 3] = [("pubmed", 5.0), ("flickr", 2.0), ("reddit", 5.0)];

/// Asserts that structure beats features on `name` by its floor.
fn assert_structure_matters(name: &str, feature_only: f64, whole: f64) {
    let floor = MIN_GAIN.iter().find(|(n, _)| *n == name).expect("a floor per dataset").1;
    assert!(feature_only < whole, "{name}: feature-only {feature_only} ≥ whole {whole}");
    let gain = whole - feature_only;
    assert!(gain >= floor, "{name}: structure gain {gain:.1} < {floor} points");
}

#[test]
fn committed_paper_calibration_clears_every_floor() {
    let path =
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/paper_scale/calibrate_datasets.json");
    let text = std::fs::read_to_string(path).expect("committed paper-scale calibration");
    let json = Json::parse(&text).expect("valid JSON");
    let rows = json.get("rows").and_then(Json::as_arr).expect("a rows array");
    for (name, _) in MIN_GAIN {
        let row = rows
            .iter()
            .find(|r| r.get("keys").and_then(|k| k.get("dataset")?.as_str()) == Some(name))
            .unwrap_or_else(|| panic!("{name}: no row in {path}"));
        let metric = |m: &str| {
            row.get("metrics").and_then(|ms| ms.get(m)?.as_f64()).expect("a calibration metric")
        };
        assert_structure_matters(name, metric("feature_only_acc"), metric("whole_acc"));
    }
}

#[test]
#[ignore = "generates and trains pubmed-paper and flickr-paper; run in release by check.sh"]
fn paper_scale_pubmed_and_flickr_need_their_structure() {
    let args = BenchArgs { scale: Scale::Paper, ..BenchArgs::default() };
    let view = VIEWS.iter().find(|v| v.name == "calibrate_datasets").expect("registered view");
    let mut report = TableReport::new(view.title);
    for name in ["pubmed", "flickr"] {
        (view.run)(&Jobs::new(args.clone()), name, &mut report);
    }
    print!("{report}");
    for (row, name) in report.rows.iter().zip(["pubmed", "flickr"]) {
        let metric = |m: &str| row.metrics.iter().find(|(k, _)| k == m).expect("a metric").1;
        assert_structure_matters(name, metric("feature_only_acc"), metric("whole_acc"));
    }
}
