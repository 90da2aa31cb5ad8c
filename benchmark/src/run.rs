//! The untraced run: the end-to-end metrics of one workload.
//!
//! Closed loop, one client: a round is one cold invocation of every input
//! of the workload, one child at a time, each at its default `--jobs`.

use std::path::Path;
use std::time::Instant;

use crate::cold::Watchdog;
use crate::driver::{setup, Env, Judge};
use crate::inputs::presented;
use crate::stats::{median, quartiles, tail};
use crate::Report;

/// Set-up runs at least this often (`setup_s` is the median) …
const MIN_SETUPS: usize = 3;
/// … and then again between rounds, as long as it has had less than this
/// share of the run. Most set-ups take a few milliseconds and the sandbox's
/// speed shifts from one second to the next, so a burst of repetitions up
/// front measures one stretch of fast or slow machine; spread over the run,
/// the median sees the stretches the rounds see. The costly set-up
/// (`cert_recheck`, ~2 s) stays at the minimum.
const SETUP_SHARE: f64 = 0.07;
/// A median of fewer rounds is not worth a bound, so the workloads whose
/// round takes 3–4 s overrun `seconds` (to about 20 s) rather than stop at
/// three samples …
const MIN_ROUNDS: usize = 5;
/// … and more than this many add nothing.
const MAX_ROUNDS: usize = 100;

/// The set-up repetitions of one run.
#[derive(Default)]
struct Setups {
    /// What `setup_s` counts: building and writing, timed in the child.
    samples: Vec<f64>,
    /// What the repetitions cost the run, child start-up included.
    spent: f64,
}

impl Setups {
    fn again(&mut self, workload: &str, seed: u64, dir: &Path) -> Result<(), String> {
        let start = Instant::now();
        self.samples.push(setup(workload, seed, dir)?);
        self.spent += start.elapsed().as_secs_f64();
        Ok(())
    }

    fn spent_after_next(&self) -> f64 {
        self.spent + self.spent / self.samples.len() as f64
    }
}

/// A run — set-up and rounds — lasts `seconds`, whatever the commit: rounds
/// ([`MIN_ROUNDS`] to [`MAX_ROUNDS`]) continue while the next one is expected
/// to end in time. A `smoke` run is one set-up and one round.
///
/// # Errors
///
/// Returns a message when set-up fails.
pub fn run(
    env: &Env,
    workload: &str,
    seed: u64,
    seconds: f64,
    smoke: bool,
    judge: Judge,
) -> Result<Report, String> {
    let mut judge = judge;
    let dir = env.tmp.join(workload);
    let start = Instant::now();
    let elapsed = || start.elapsed().as_secs_f64();

    let inputs = presented(workload, seed);
    let mut setups = Setups::default();
    let (min_setups, min_rounds) = if smoke {
        (1, 1)
    } else {
        (MIN_SETUPS, MIN_ROUNDS)
    };
    for _ in 0..min_setups {
        setups.again(workload, seed, &dir)?;
    }

    let dog = Watchdog::start();
    let (mut wall_ms, mut cpu_ms) = (Vec::new(), Vec::new());
    let mut peak_rss_kib = 0;
    loop {
        let (mut wall, mut cpu) = (0.0, 0.0);
        for input in &inputs {
            let (reaped, _) = judge.invoke(env, &dir, input, &[], &dog);
            wall += reaped.wall.as_secs_f64() * 1e3;
            cpu += reaped.cpu.as_secs_f64() * 1e3;
            peak_rss_kib = peak_rss_kib.max(reaped.maxrss_kib);
        }
        wall_ms.push(wall);
        cpu_ms.push(cpu);
        let rounds = wall_ms.len();
        let out_of_time = elapsed() + median(&wall_ms) / 1e3 > seconds;
        if rounds >= min_rounds && (out_of_time || rounds >= MAX_ROUNDS) {
            break;
        }
        // Rewrites the same files: same seed, and no child is running.
        while !smoke && setups.spent_after_next() <= SETUP_SHARE * elapsed() {
            setups.again(workload, seed, &dir)?;
        }
    }

    let mut report = Report::new(workload, seed, &judge);
    report.metric("setup_s", median(&setups.samples));
    report.metric("wall_ms_p50", median(&wall_ms));
    report.metric("cpu_ms_p50", median(&cpu_ms));
    report.metric("peak_rss_mb", peak_rss_kib as f64 / 1024.0);
    // A median is reported with its sample count, its quartiles (from
    // which a bound can be re-derived) and the highest percentile that has
    // ten samples beyond it.
    report.note(format!(
        "rounds {} of {} inputs; set-ups {}",
        wall_ms.len(),
        inputs.len(),
        setups.samples.len()
    ));
    for (name, samples) in [("wall_ms", &wall_ms), ("cpu_ms", &cpu_ms)] {
        let q = quartiles(samples).map_or("n/a (one round)".to_owned(), |[q1, q2, q3]| {
            format!("{q1:.3} {q2:.3} {q3:.3}")
        });
        let t = tail(samples).map_or("n/a (under 20 rounds)".to_owned(), |(pct, v)| {
            format!("p{pct} = {v:.3}")
        });
        report.note(format!("{name} quartiles {q}; tail {t}"));
    }
    Ok(report)
}
