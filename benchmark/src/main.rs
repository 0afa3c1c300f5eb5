//! The repo's ruler: one command runs the same lifecycle for every
//! workload — generate dataset -> `condense()` -> train a GCN on the
//! synthetic graph -> `Checkpoint::save` -> `boot_slot` -> `spawn` ->
//! verify -> timed rounds — prints every metric by name with its unit,
//! and exits non-zero if any output is wrong. It claims no gain; its only
//! job is to be right and to repeat. See `README.md` beside this package
//! for the protocol and the glossary.
//!
//! ```text
//! benchmark --workload <name> --seed <u64> --seconds <s> --trace <0|1>
//!           [--world <u64>] [--smoke] [--out <dir>]
//! ```
//!
//! The process the user starts is the coordinator: it runs each episode
//! (see [`episode`]) in a child process of its own and aggregates them.

mod episode;
mod lifecycle;
mod probes;
mod report;
mod rounds;
mod spans;
mod stats;
mod workload;

use episode::{Episode, Outcome};
use mcond_obs::Json;
use report::{MetricDef, END_TO_END, PER_LAYER};
use rounds::{RoundValues, ROUND_METRICS};
use stats::{median, quiet_decile, spread};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use workload::{Counts, Workload, HTTP2_CLIENTS, WORKLOADS};

/// Episodes of an end-to-end run; `setup_s` is the median of their
/// set-ups. A traced or smoke run is one episode.
const EPISODES: usize = 4;
/// Fewest measured rounds of a run, however short `--seconds` is.
const MIN_ROUNDS: usize = 4;
/// Measured rounds of a `--smoke` run.
const SMOKE_ROUNDS: usize = 3;

pub struct Args {
    workload: Workload,
    /// Generates the graph, its condensation and the trained model.
    world: u64,
    /// Generates the requests.
    seed: u64,
    /// Wall seconds to spend in rounds: over all episodes for the
    /// coordinator, in this episode for a child.
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
    /// Set by the coordinator on the children it starts.
    episode: Option<Episode>,
}

impl Args {
    fn full(&self) -> bool {
        !(self.trace || self.smoke)
    }

    /// `condense()` calls of the whole run.
    fn condense_calls(&self) -> usize {
        if self.full() {
            self.workload.condense_repeats
        } else {
            1
        }
    }

    fn counts(&self) -> Counts {
        if self.smoke {
            self.workload.counts.tenth()
        } else {
            self.workload.counts
        }
    }
}

fn usage() -> String {
    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: benchmark --workload <{}> --seed <u64> --seconds <s> --trace <0|1> \
         [--world <u64>] [--smoke] [--out <dir>]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let (mut name, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    let (mut world, mut smoke, mut out) = (0u64, false, PathBuf::from("benchmark/out"));
    let (mut episode, mut artifact) = (None, None);
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || {
            argv.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => name = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--world" => world = value()?.parse().map_err(|e| format!("--world: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => smoke = true,
            "--out" => out = PathBuf::from(value()?),
            // Coordinator to child: `--episode <index>/<count> --artifact <dir>`.
            "--episode" => {
                let text = value()?;
                episode = text
                    .split_once('/')
                    .and_then(|(i, n)| Some((i.parse::<usize>().ok()?, n.parse::<usize>().ok()?)))
                    .filter(|(i, n)| i < n)
                    .map(Some)
                    .ok_or_else(|| format!("--episode takes <index>/<count>, not {text:?}"))?;
            }
            "--artifact" => artifact = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown argument {flag:?}\n{}", usage())),
        }
    }
    let name = name.ok_or_else(usage)?;
    let workload =
        workload::find(&name).ok_or_else(|| format!("unknown workload {name:?}\n{}", usage()))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_owned());
    }
    let episode = match (episode, artifact) {
        (Some((index, count)), Some(artifact)) => Some(Episode {
            index,
            count,
            artifact,
        }),
        (None, None) => None,
        _ => return Err("--episode and --artifact go together".to_owned()),
    };
    Ok(Args {
        workload,
        world,
        seed,
        seconds,
        trace,
        smoke,
        out,
        episode,
    })
}

/// Peak resident set (`VmHWM`) of this process in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mb needs /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib * 1024.0 / 1e6)
}

/// Quiet-decile aggregate and five-number spread of every per-round
/// metric over the given rounds.
fn aggregate<'a>(
    rounds: impl Iterator<Item = &'a RoundValues> + Clone,
) -> (BTreeMap<String, f64>, Json) {
    let mut values = BTreeMap::new();
    let mut spreads = Json::obj();
    for (i, (name, better)) in ROUND_METRICS.into_iter().enumerate() {
        let per_round: Vec<f64> = rounds.clone().map(|r| r[i]).collect();
        values.insert(name.to_owned(), quiet_decile(&per_round, better));
        let series = Json::Arr(per_round.iter().map(|&v| v.into()).collect());
        spreads.insert(
            name,
            report::spread_json(&spread(&per_round)).with("per_round", series),
        );
    }
    (values, spreads)
}

/// Runs one episode in a child process and reads its outcome off the last
/// line of its standard output. The child's standard error is this
/// process's, so what it has to say about a wrong output reaches the user.
fn spawn_episode(args: &Args, episode: &Episode, seconds: f64) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", args.workload.name])
        .args([
            "--world",
            &args.world.to_string(),
            "--seed",
            &args.seed.to_string(),
        ])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if args.trace { "1" } else { "0" },
        ])
        .args(["--episode", &format!("{}/{}", episode.index, episode.count)])
        .arg("--artifact")
        .arg(&episode.artifact)
        .arg("--out")
        .arg(&args.out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("start episode {}: {e}", episode.index))?;
    if !output.status.success() {
        return Err(format!(
            "episode {} failed ({})",
            episode.index, output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let json = Json::parse(last).map_err(|e| format!("episode {} outcome: {e}", episode.index))?;
    Outcome::from_json(&json)
}

fn protocol_json(args: &Args, outcomes: &[Outcome]) -> Json {
    let c = args.counts();
    Json::obj()
        .with("seconds", args.seconds)
        .with(
            "seconds_in_rounds",
            outcomes.iter().map(|o| o.seconds_in_rounds).sum::<f64>(),
        )
        .with(
            "rounds_measured",
            outcomes.iter().map(|o| o.rounds.len()).sum::<usize>(),
        )
        .with("episodes", outcomes.len())
        .with("warmup_rounds_discarded_per_episode", 1u32)
        .with("lib_requests_per_round", c.lib)
        .with("http1_requests_per_round", c.http1)
        .with("http2_requests_per_round", c.http2)
        .with("http2_clients", HTTP2_CLIENTS)
        .with("offline_slates_per_round", c.offline_slates)
        .with("boots_per_round", 1u32)
        .with("promotes_per_round", rounds::PROMOTES_PER_ROUND)
        .with("condense_calls", args.condense_calls())
}

fn numbers_json(values: impl Iterator<Item = f64>) -> Json {
    Json::Arr(values.map(Json::from).collect())
}

/// The per-layer metrics that need both the probes and the rounds.
fn derive_layer_metrics(
    values: &mut BTreeMap<String, f64>,
    untraced: &BTreeMap<String, f64>,
    traced: &BTreeMap<String, f64>,
) -> Result<(), String> {
    let get = |values: &BTreeMap<String, f64>, name: &str| {
        values
            .get(name)
            .copied()
            .ok_or_else(|| format!("metric {name} was not measured"))
    };
    let (lib, http) = (untraced["lib_p50_us"], untraced["http_p50_us"]);
    let queue_coalesce = http
        - get(values, "serve.http_floor_us")?
        - get(values, "serve.decode_batch_us")?
        - lib
        - get(values, "serve.encode_logits_us")?;
    let window_us = mcond_serve::ServeConfig::default()
        .coalesce_window
        .as_secs_f64()
        * 1e6;
    let unaccounted = (queue_coalesce - get(values, "serve.parse_us")? - window_us) / http;
    for (name, value) in [
        ("trace.lib_p50_us", lib),
        ("trace.http_p50_us", http),
        (
            "obs.trace_overhead_lib_pct",
            (traced["lib_p50_us"] / lib - 1.0) * 100.0,
        ),
        (
            "obs.trace_overhead_http_pct",
            (traced["http_p50_us"] / http - 1.0) * 100.0,
        ),
        ("serve.queue_coalesce_us", queue_coalesce),
        ("serve.unaccounted_share", unaccounted),
    ] {
        values.insert(name.to_owned(), value);
    }
    Ok(())
}

/// Starts the episodes one after another, each in its own process, and
/// gives each an equal share of the seconds not yet spent in rounds.
fn run_episodes(args: &Args, artifact: &Path) -> Result<Vec<Outcome>, String> {
    let count = if args.full() { EPISODES } else { 1 };
    let mut outcomes: Vec<Outcome> = Vec::with_capacity(count);
    let mut left_s = args.seconds;
    for index in 0..count {
        let episode = Episode {
            index,
            count,
            artifact: artifact.to_owned(),
        };
        #[allow(clippy::cast_precision_loss)]
        let share_s = (left_s / (count - index) as f64).max(f64::MIN_POSITIVE);
        let outcome = spawn_episode(args, &episode, share_s)?;
        left_s -= outcome.seconds_in_rounds;
        if let Some(first) = outcomes.first() {
            if first.checkpoint_id != outcome.checkpoint_id || first.accuracy != outcome.accuracy {
                return Err(format!(
                    "episode {index} built a different checkpoint than episode 0"
                ));
            }
        }
        outcomes.push(outcome);
    }
    Ok(outcomes)
}

fn coordinate(args: &Args) -> Result<(), String> {
    let w = &args.workload;
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("create {}: {e}", args.out.display()))?;
    let artifact = args
        .out
        .join(format!("{}.{}.condensed", w.name, std::process::id()));
    let outcomes = run_episodes(args, &artifact);
    std::fs::remove_dir_all(&artifact).ok();
    let outcomes = outcomes?;
    let last = outcomes.last().expect("at least one episode");

    let rounds = || outcomes.iter().flat_map(|o| &o.rounds);
    let (mut values, spreads) = aggregate(rounds().filter(|(traced, _)| !traced).map(|(_, r)| r));
    let defs: &[MetricDef] = if args.trace {
        let (traced, _) = aggregate(rounds().filter(|(traced, _)| *traced).map(|(_, r)| r));
        let untraced = std::mem::replace(&mut values, last.probes.clone());
        derive_layer_metrics(&mut values, &untraced, &traced)?;
        &PER_LAYER
    } else {
        let setups: Vec<f64> = outcomes.iter().map(|o| o.setup_s).collect();
        values.insert("setup_s".to_owned(), median(&setups));
        let fastest = outcomes
            .iter()
            .filter_map(|o| o.condense_s)
            .fold(f64::INFINITY, f64::min);
        values.insert("condense_s".to_owned(), fastest);
        values.insert("accuracy".to_owned(), last.accuracy);
        #[allow(clippy::cast_precision_loss)]
        values.insert(
            "checkpoint_mb".to_owned(),
            last.checkpoint_bytes as f64 / 1e6,
        );
        let peak = outcomes.iter().map(|o| o.peak_rss_mb).fold(0.0, f64::max);
        values.insert("peak_rss_mb".to_owned(), peak);
        &END_TO_END
    };

    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let mut out = Json::obj()
        .with("workload", w.name)
        .with("world", args.world)
        .with("seed", args.seed)
        .with("trace", args.trace)
        .with("smoke", args.smoke)
        // A throughput block with more clients than cores measures the
        // scheduler; a smoke run measures nothing.
        .with("valid", nproc >= HTTP2_CLIENTS && !args.smoke)
        .with("provenance", report::provenance())
        .with("protocol", protocol_json(args, &outcomes))
        .with("checkpoint_id", last.checkpoint_id.as_str())
        .with("last_set_up_phases_ms", last.phases_ms.clone())
        .with(
            "setup_secs",
            numbers_json(outcomes.iter().map(|o| o.setup_s)),
        )
        .with(
            "condense_secs",
            numbers_json(outcomes.iter().filter_map(|o| o.condense_s)),
        )
        .with(
            "peak_rss_mbs",
            numbers_json(outcomes.iter().map(|o| o.peak_rss_mb)),
        )
        .with("across_rounds", spreads)
        .with("metric_definitions", report::defs_json(defs));

    println!(
        "# {} world {} seed {} trace {}",
        w.name,
        args.world,
        args.seed,
        u8::from(args.trace)
    );
    let metrics = report::metrics_json(defs, &values)?;
    let result = Json::obj()
        .with("correct", true)
        .with(
            "attempted",
            outcomes.iter().map(|o| o.tally.attempted).sum::<u64>(),
        )
        .with(
            "failed",
            outcomes.iter().map(|o| o.tally.failed).sum::<u64>(),
        )
        .with("metrics", metrics);
    out.insert("result", result.clone());
    if args.trace {
        out.insert("self_time", last.self_time.clone());
    }
    let stem = if args.trace {
        format!("{}.trace", w.name)
    } else {
        w.name.to_owned()
    };
    let path = args.out.join(format!("{stem}.json"));
    std::fs::write(&path, out.pretty()).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("{}", result.dump());
    Ok(())
}

fn main() {
    let done = parse_args().and_then(|args| match &args.episode {
        Some(episode) => episode::run(&args, episode).map(|o| println!("{}", o.to_json().dump())),
        None => coordinate(&args),
    });
    if let Err(e) = done {
        eprintln!("benchmark: {e}");
        std::process::exit(1);
    }
}
