//! The repo benchmark: cold `entangle` verdict time over six workloads,
//! with a per-crate layer table. See `benchmark/README.md`.
//!
//! ```text
//! entangle-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//!                        [--smoke] [--expected FILE]
//! ```
//!
//! `run` prints every end-to-end metric by name with its unit; with
//! `--trace 1` it does the separate traced run for the per-layer metrics
//! instead. The last line of a workload's output is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`).
//!
//! `--workload`, `--seed`, `--seconds` and `--trace` are the four flags the
//! harness that runs `BENCHMARK.json` appends to its `command`; it always
//! passes that file's `run_seconds`, which is also the default here
//! ([`RUN_SECONDS`]). Bounds only hold between runs of that length.

mod cold;
mod driver;
mod inputs;
mod layers;
mod run;
mod spec;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use driver::{Env, Judge, EXPECTED_TSV};
use spec::{MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};

/// How long a run measures: `run_seconds` in `BENCHMARK.json` (a unit test
/// keeps the two in step).
pub const RUN_SECONDS: f64 = 15.0;

/// One workload's result, printed by name and as the closing JSON line.
pub struct Report {
    workload: String,
    seed: u64,
    attempted: u64,
    failed: u64,
    wrong_verdicts: u64,
    metrics: Vec<(String, f64)>,
    notes: Vec<String>,
}

impl Report {
    fn new(workload: &str, seed: u64, judge: &Judge) -> Report {
        Report {
            workload: workload.to_owned(),
            seed,
            attempted: judge.attempted,
            failed: judge.failed,
            wrong_verdicts: judge.wrong_verdicts,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn metric(&mut self, name: &str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|m| m.name == name),
            "{name} is not in the catalogue"
        );
        assert!(value.is_finite(), "{name} is not a finite number");
        self.metrics.push((name.to_owned(), value));
    }

    fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    /// Every metric of `specs`, by name with its unit, then the verdict
    /// tallies, the notes, and the JSON line.
    fn print(&self, specs: &[MetricSpec]) {
        println!("== {} (seed {}) ==", self.workload, self.seed);
        let value_of = |name: &str| {
            self.metrics
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"))
                .1
        };
        for spec in specs {
            println!(
                "{:<28} {:>16.4} {}",
                spec.name,
                value_of(spec.name),
                spec.unit
            );
        }
        println!(
            "{:<28} {:>16.4} share ({} of {} invocations)",
            "failed_share",
            self.failed as f64 / self.attempted as f64,
            self.failed,
            self.attempted
        );
        println!("{:<28} {:>16} count", "wrong_verdicts", self.wrong_verdicts);
        for note in &self.notes {
            println!("  {note}");
        }
        let metrics: Vec<String> = specs
            .iter()
            .map(|s| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    s.name,
                    value_of(s.name),
                    s.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    expected: Option<PathBuf>,
    // `setup` and `layers` (the children the benchmark runs itself in) only.
    dir: Option<PathBuf>,
    input: Option<String>,
    part: Option<layers::Part>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut it = argv.iter();
    let command = it.next().ok_or("missing subcommand (run)")?.clone();
    let mut args = Args {
        command,
        workload: None,
        seed: 0,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
        expected: None,
        dir: None,
        input: None,
        part: None,
    };
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: bad value {value:?}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!(
                        "no workload {value:?}; there are: {}",
                        WORKLOADS.join(", ")
                    ));
                }
                args.workload = Some(value.clone());
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=600.0).contains(&args.seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--expected" => args.expected = Some(PathBuf::from(value)),
            "--dir" => args.dir = Some(PathBuf::from(value)),
            "--input" => args.input = Some(value.clone()),
            "--part" => args.part = Some(layers::Part::parse(value).ok_or_else(bad)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn real_main() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    if args.command == "layers" {
        let missing = "layers needs --dir, --workload, --input and --part";
        return layers::child(
            args.dir.as_deref().ok_or(missing)?,
            args.workload.as_deref().ok_or(missing)?,
            args.input.as_deref().ok_or(missing)?,
            args.part.ok_or(missing)?,
        );
    }
    if args.command == "setup" {
        let missing = "setup needs --dir and --workload";
        driver::setup_child(
            args.workload.as_deref().ok_or(missing)?,
            args.seed,
            args.dir.as_deref().ok_or(missing)?,
        );
        return Ok(());
    }
    if args.command != "run" {
        return Err(format!("unknown subcommand {:?} (run)", args.command));
    }

    let tsv = match &args.expected {
        None => EXPECTED_TSV.to_owned(),
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?
        }
    };
    let env = Env::prepare()?;
    // A smoke run is one round of everything and leaves nothing outside
    // the cargo target directory.
    let seconds = if args.smoke { 0.0 } else { args.seconds };
    let out = if args.smoke {
        env.tmp
            .parent()
            .expect("scratch is below bench-tmp")
            .with_file_name("bench-smoke")
    } else {
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
    };
    let workloads: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut all_correct = true;
    for workload in workloads {
        let judge = Judge::new(&tsv)?;
        let report = if args.trace {
            let r = layers::run(&env, workload, args.seed, seconds, judge, &out)?;
            r.print(&PER_LAYER);
            r
        } else {
            let r = run::run(&env, workload, args.seed, seconds, args.smoke, judge)?;
            r.print(&END_TO_END);
            r
        };
        all_correct &= report.failed == 0;
    }
    if all_correct {
        Ok(())
    } else {
        Err("some invocations failed or gave a wrong verdict (see above)".to_owned())
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("entangle-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
