//! One episode: the whole lifecycle on a fresh stack **in a fresh
//! process**, and its share of the timed rounds.
//!
//! Some of what decides a 40 us call or a 0.8 ms round trip is fixed for
//! the life of a process or of a serving stack: the address-space layout,
//! where allocations landed, which core a connection handler shares with
//! its client. With one process per run that state moved whole runs (a
//! quarter of the runs of one binary had `lib_p50_us` at 49–52 us instead
//! of 40–43 us, every round of a run agreeing with its siblings). So the
//! command the user runs is only the coordinator: it starts one child per
//! episode, and takes the quiet decile over the rounds of all of them.
//!
//! The first episode condenses and leaves the deployable artifact behind;
//! the later ones load it, and those scheduled to time `condense()` again
//! must reproduce it bitwise.

use crate::lifecycle::{condense_timed, same_condensation, stand_up, Ctx, Tally};
use crate::probes;
use crate::report;
use crate::rounds::{RoundValues, Rounds};
use crate::spans::Recorder;
use crate::workload::make_inputs;
use crate::{peak_rss_mb, Args, MIN_ROUNDS, SMOKE_ROUNDS};
use mcond_core::{load_condensed, save_condensed, Artifact};
use mcond_obs::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Which episode of how many this process is, and where the artifact of
/// the first one lives.
#[derive(Clone, Debug)]
pub struct Episode {
    pub index: usize,
    pub count: usize,
    pub artifact: PathBuf,
}

impl Episode {
    /// `condense()` calls are spread evenly over the episodes, so that
    /// they span the run like the rounds do; the first episode always
    /// makes one.
    pub fn condenses(&self, calls: usize) -> bool {
        self.index == 0 || self.index * calls / self.count > (self.index - 1) * calls / self.count
    }
}

/// What an episode hands back to the coordinator.
pub struct Outcome {
    pub setup_s: f64,
    pub condense_s: Option<f64>,
    pub checkpoint_id: String,
    pub accuracy: f64,
    pub checkpoint_bytes: u64,
    /// Wall milliseconds of each set-up phase, by name.
    pub phases_ms: Json,
    /// `(spans recorded, values)` per measured round.
    pub rounds: Vec<(bool, RoundValues)>,
    pub seconds_in_rounds: f64,
    pub tally: Tally,
    pub peak_rss_mb: f64,
    /// Traced episodes only: the layer probes, and per-span-name self time.
    pub probes: BTreeMap<String, f64>,
    pub self_time: Json,
}

pub fn run(args: &Args, episode: &Episode) -> Result<Outcome, String> {
    let w = &args.workload;
    let mut ctx = Ctx {
        rec: Recorder::new(args.trace),
        tally: Tally::default(),
        out_dir: args.out.clone(),
    };
    if args.trace {
        // The front end turns aggregation on when it spawns; the traced
        // run needs the kernel counters from condensation on as well.
        mcond_obs::enable_metrics();
    }

    let t = Instant::now();
    let inputs = ctx
        .rec
        .time("phase.generate", || make_inputs(w, args.world, args.seed));
    let generate_s = t.elapsed().as_secs_f64();

    // Condensation needs the dataset and is a metric of its own, so it
    // interrupts the set-up without counting towards it.
    let flops = || mcond_obs::snapshot().counter("linalg.matmul.flops");
    let flops_before = flops();
    let condensed = episode
        .condenses(args.condense_calls())
        .then(|| condense_timed(&inputs.data, args.world, &mut ctx));
    let condense_flops = flops() - flops_before;
    let artifact = match (&condensed, episode.index) {
        (Some((condensed, _)), 0) => {
            save_condensed(condensed, &episode.artifact)
                .map_err(|e| format!("save {}: {e}", episode.artifact.display()))?;
            Artifact {
                synthetic: condensed.synthetic.clone(),
                mapping: condensed.mapping.clone(),
            }
        }
        (_, 0) => unreachable!("the first episode condenses"),
        (again, _) => {
            let artifact = load_condensed(&episode.artifact)
                .map_err(|e| format!("load {}: {e}", episode.artifact.display()))?;
            if again
                .as_ref()
                .is_some_and(|(c, _)| !same_condensation(c, &artifact))
            {
                return Err("condense() is not bitwise equal to the first episode's".to_owned());
            }
            artifact
        }
    };

    let t = Instant::now();
    let stack = stand_up(w, args.world, inputs, generate_s * 1e3, &artifact, &mut ctx)?;
    let setup_s = generate_s + t.elapsed().as_secs_f64();

    let mut rounds = Rounds::new(&stack, args.counts(), args.trace)?;
    ctx.rec.set_on(false);
    rounds.warm_up(&mut ctx)?;
    let mut probes = BTreeMap::new();
    if let (true, Some((condensed, condense_s))) = (args.trace, &condensed) {
        ctx.rec.set_on(true);
        let condense = (*condense_s, condense_flops);
        let values = probes::layer_probes(
            w,
            args.world,
            &stack,
            (condensed, &artifact),
            condense,
            &mut rounds,
            &mut ctx,
        )?;
        probes.extend(values.into_iter().map(|(name, v)| (name.to_owned(), v)));
    }

    // A traced episode records spans on every other round; the untraced
    // rounds beside them give the tracing overhead.
    let budget_s = args.seconds;
    let min_rounds = if args.smoke {
        SMOKE_ROUNDS
    } else {
        MIN_ROUNDS.div_ceil(episode.count)
    };
    let mut measured: Vec<(bool, RoundValues)> = Vec::new();
    let mut seconds_in_rounds = 0.0;
    while measured.len() < min_rounds || (!args.smoke && seconds_in_rounds < budget_s) {
        let traced = args.trace && measured.len() % 2 == 1;
        ctx.rec.set_on(traced);
        let t = Instant::now();
        measured.push((traced, rounds.round(&mut ctx)?));
        seconds_in_rounds += t.elapsed().as_secs_f64();
    }
    if let Some(mean) = rounds.coalesce_mean() {
        probes.insert("serve.coalesce_mean".to_owned(), mean);
        #[allow(clippy::cast_precision_loss)]
        let shed = mcond_obs::snapshot().counter("serve.http.shed") as f64;
        probes.insert("serve.shed".to_owned(), shed);
    }
    drop(rounds);

    let outcome = Outcome {
        setup_s,
        condense_s: condensed.as_ref().map(|(_, s)| *s),
        checkpoint_id: stack.checkpoint_id.clone(),
        accuracy: stack.accuracy,
        checkpoint_bytes: stack.bytes,
        phases_ms: stack.phases.to_json(),
        rounds: measured,
        seconds_in_rounds,
        tally: ctx.tally,
        peak_rss_mb: peak_rss_mb()?,
        probes,
        self_time: report::self_time_json(&ctx.rec),
    };
    stack.tear_down();
    if args.trace {
        let path = args.out.join(format!("{}.trace.jsonl", w.name));
        ctx.rec
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(outcome)
}

/// A number the JSON writer turned into `null` was not finite: a block
/// full of failures.
fn number(json: &Json) -> f64 {
    json.as_f64().unwrap_or(f64::INFINITY)
}

impl Outcome {
    pub fn to_json(&self) -> Json {
        let rounds = self.rounds.iter().map(|(traced, values)| {
            let values = values.iter().map(|&v| v.into()).collect();
            Json::obj()
                .with("traced", *traced)
                .with("values", Json::Arr(values))
        });
        let mut probes = Json::obj();
        for (name, value) in &self.probes {
            probes.insert(name, *value);
        }
        Json::obj()
            .with("setup_s", self.setup_s)
            .with("condense_s", self.condense_s.map_or(Json::Null, Json::from))
            .with("checkpoint_id", self.checkpoint_id.as_str())
            .with("accuracy", self.accuracy)
            .with("checkpoint_bytes", self.checkpoint_bytes)
            .with("phases_ms", self.phases_ms.clone())
            .with("rounds", Json::Arr(rounds.collect()))
            .with("seconds_in_rounds", self.seconds_in_rounds)
            .with("attempted", self.tally.attempted)
            .with("failed", self.tally.failed)
            .with("peak_rss_mb", self.peak_rss_mb)
            .with("probes", probes)
            .with("self_time", self.self_time.clone())
    }

    pub fn from_json(json: &Json) -> Result<Self, String> {
        let field = |name: &str| {
            json.get(name)
                .ok_or_else(|| format!("episode outcome lacks {name}"))
        };
        let mut rounds = Vec::new();
        for round in field("rounds")?.as_arr().unwrap_or_default() {
            let values: Vec<f64> = round
                .get("values")
                .and_then(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(number)
                .collect();
            let values = RoundValues::try_from(values)
                .map_err(|_| "episode outcome: a round of the wrong length".to_owned())?;
            rounds.push((round.get("traced") == Some(&Json::Bool(true)), values));
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let count = |name: &str| field(name).map(|v| number(v) as u64);
        Ok(Self {
            setup_s: number(field("setup_s")?),
            condense_s: field("condense_s")?.as_f64(),
            checkpoint_id: field("checkpoint_id")?
                .as_str()
                .unwrap_or_default()
                .to_owned(),
            accuracy: number(field("accuracy")?),
            checkpoint_bytes: count("checkpoint_bytes")?,
            phases_ms: field("phases_ms")?.clone(),
            rounds,
            seconds_in_rounds: number(field("seconds_in_rounds")?),
            tally: Tally {
                attempted: count("attempted")?,
                failed: count("failed")?,
            },
            peak_rss_mb: number(field("peak_rss_mb")?),
            probes: field("probes")?
                .as_obj()
                .unwrap_or_default()
                .iter()
                .map(|(name, v)| (name.clone(), number(v)))
                .collect(),
            self_time: field("self_time")?.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn episode(index: usize, count: usize) -> Episode {
        Episode {
            index,
            count,
            artifact: PathBuf::new(),
        }
    }

    #[test]
    fn condense_calls_are_spread_over_the_episodes() {
        let schedule = |calls| {
            (0..4)
                .map(|i| episode(i, 4).condenses(calls))
                .collect::<Vec<_>>()
        };
        assert_eq!(schedule(1), [true, false, false, false]);
        assert_eq!(schedule(2), [true, false, true, false]);
        assert_eq!(schedule(4), [true, true, true, true]);
        assert!(episode(0, 1).condenses(1));
    }

    #[test]
    fn an_outcome_survives_the_pipe_between_processes() {
        let outcome = Outcome {
            setup_s: 0.25,
            condense_s: None,
            checkpoint_id: "abc".to_owned(),
            accuracy: 0.818,
            checkpoint_bytes: 259_725,
            phases_ms: Json::obj().with("verify", 7.5),
            rounds: vec![
                (false, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.5]),
                (true, [f64::INFINITY, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]),
            ],
            seconds_in_rounds: 2.5,
            tally: Tally {
                attempted: 10,
                failed: 1,
            },
            peak_rss_mb: 31.5,
            probes: BTreeMap::from([("serve.shed".to_owned(), 0.0)]),
            self_time: Json::obj().with("round", Json::obj().with("count", 2u32)),
        };
        let text = outcome.to_json().dump();
        let back = Outcome::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.to_json().dump(), text);
        assert_eq!(back.rounds[1].1[0], f64::INFINITY);
        assert_eq!(back.rounds[0].1[7], 8.5);
        assert!(back.rounds[1].0 && !back.rounds[0].0);
        assert_eq!((back.tally.attempted, back.tally.failed), (10, 1));
        assert_eq!(back.condense_s, None);
        assert_eq!(back.phases_ms, outcome.phases_ms);
    }
}
