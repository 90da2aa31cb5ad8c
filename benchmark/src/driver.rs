//! What the untraced and the traced run share: locating and building the
//! binary under test, set-up, and judging each invocation against
//! `expected.tsv`.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use crate::cold::{self, Reaped, Watchdog};
use crate::inputs::{self, Input};

/// The answer file compiled into the benchmark; `--expected FILE` reads
/// another (to show that a wrong row is caught).
pub const EXPECTED_TSV: &str = include_str!("../expected.tsv");

/// Exit codes by which `entangle` states a verdict (verified, refinement
/// or expectation failed, lint errors, certificate rejected); any other
/// way of ending is a failure without a verdict.
const VERDICT_CODES: [i32; 4] = [0, 1, 3, 4];

/// Paths of one benchmark process.
pub struct Env {
    /// The release `entangle` binary.
    pub entangle: PathBuf,
    /// This process's scratch directory, below the cargo target directory.
    pub tmp: PathBuf,
}

impl Env {
    /// Builds `entangle` into the target directory this executable itself
    /// runs from (so both share one set of compiled crates, wherever
    /// `CARGO_TARGET_DIR` points) and creates the scratch directory.
    ///
    /// # Errors
    ///
    /// Returns a message when the build fails.
    pub fn prepare() -> Result<Env, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let target = exe
            .ancestors()
            .nth(2)
            .ok_or("the benchmark executable is not inside a cargo target directory")?;
        let status = Command::new("cargo")
            .args(["build", "--release", "--quiet", "-p", "entangle-cli"])
            .arg("--target-dir")
            .arg(target)
            // The repository root: this package sits directly below it.
            .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
            .status()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !status.success() {
            return Err(format!("building entangle-cli failed: {status}"));
        }
        let tmp = target
            .join("bench-tmp")
            .join(std::process::id().to_string());
        fs::create_dir_all(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
        Ok(Env {
            entangle: target.join("release").join("entangle"),
            tmp,
        })
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.tmp);
    }
}

/// Re-executes this executable with `args --dir DIR` and returns its
/// stdout: set-up and every layer measurement run in a process of their
/// own, on the files under `dir`.
///
/// # Errors
///
/// Returns the child's stderr when it cannot be run or fails.
pub fn run_self(args: &[&str], dir: &Path) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .arg("--dir")
        .arg(dir)
        .output()
        .map_err(|e| format!("cannot re-execute the benchmark: {e}"))?;
    if !out.status.success() {
        return Err(String::from_utf8_lossy(&out.stderr).into_owned());
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// Fills a fresh `dir` with the inputs of `workload` as `seed` presents
/// them — in a child process (the `setup` subcommand), see
/// [`crate::inputs`] — and returns the seconds building and writing took:
/// one `setup_s` sample.
///
/// # Errors
///
/// Returns a message when the child cannot be run or fails.
pub fn setup(workload: &str, seed: u64, dir: &Path) -> Result<f64, String> {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let seed = seed.to_string();
    run_self(&["setup", "--workload", workload, "--seed", &seed], dir)
        .and_then(|out| {
            out.trim()
                .parse()
                .map_err(|_| format!("bad output {out:?}"))
        })
        .map_err(|e| format!("set-up of {workload} failed: {e}"))
}

/// The `setup` subcommand: set-up proper, timed from inside (see
/// [`inputs::write_all`]) so that `setup_s` holds no process start-up.
pub fn setup_child(workload: &str, seed: u64, dir: &Path) {
    println!("{}", inputs::write_all(workload, seed, dir));
}

/// The known answer for one input.
struct Expected {
    code: i32,
    /// What the first line of stdout starts with.
    verdict: String,
}

/// How one invocation compares with its known answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The expected exit code and verdict line, and the same stdout as the
    /// input's first invocation.
    Ok,
    /// A verdict, but not the one in `expected.tsv`.
    WrongVerdict,
    /// No verdict (timeout, crash, usage error), or output that changed
    /// between invocations.
    Failed,
}

/// Judges invocations and keeps the tallies.
pub struct Judge {
    expected: HashMap<String, Expected>,
    first_stdout: HashMap<String, String>,
    pub attempted: u64,
    pub failed: u64,
    pub wrong_verdicts: u64,
}

impl Judge {
    /// Parses the `workload input exit verdict` rows of an answer file.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed row.
    pub fn new(tsv: &str) -> Result<Judge, String> {
        let expected = rows(tsv)?
            .into_iter()
            .map(|(_, id, code, verdict)| {
                let verdict = verdict.to_owned();
                (id.to_owned(), Expected { code, verdict })
            })
            .collect();
        Ok(Judge {
            expected,
            first_stdout: HashMap::new(),
            attempted: 0,
            failed: 0,
            wrong_verdicts: 0,
        })
    }

    /// Runs `input` once, cold, in `dir`, and judges it.
    pub fn invoke(
        &mut self,
        env: &Env,
        dir: &Path,
        input: &Input,
        extra: &[String],
        dog: &Watchdog,
    ) -> (Reaped, Outcome) {
        let mut argv = input.argv();
        argv.extend_from_slice(extra);
        let stdout_path = dir.join(format!("{}.stdout", input.id));
        let reaped = cold::run(&env.entangle, &argv, dir, &stdout_path, dog);
        let stdout = fs::read_to_string(&stdout_path).unwrap_or_default();
        let outcome = self.judge(&input.id, reaped.code, &stdout);
        self.attempted += 1;
        match outcome {
            Outcome::Ok => {}
            Outcome::WrongVerdict => {
                self.wrong_verdicts += 1;
                self.failed += 1;
            }
            Outcome::Failed => self.failed += 1,
        }
        if outcome != Outcome::Ok {
            eprintln!(
                "{}: {outcome:?}: exit {:?}, stdout starts {:?}",
                input.id,
                reaped.code,
                stdout.lines().next().unwrap_or("")
            );
        }
        (reaped, outcome)
    }

    fn judge(&mut self, id: &str, code: Option<i32>, stdout: &str) -> Outcome {
        let want = self
            .expected
            .get(id)
            .unwrap_or_else(|| panic!("expected.tsv has no row for {id}"));
        let Some(code) = code.filter(|c| VERDICT_CODES.contains(c)) else {
            return Outcome::Failed;
        };
        let first_line = stdout.lines().next().unwrap_or("");
        if code != want.code || !first_line.starts_with(&want.verdict) {
            return Outcome::WrongVerdict;
        }
        // The scheduler's cache tallies depend on which of two racing
        // workers reaches a key first; everything else must repeat.
        let stable: String = stdout
            .lines()
            .filter(|l| !l.starts_with("parallel :"))
            .flat_map(|l| [l, "\n"])
            .collect();
        match self.first_stdout.get(id) {
            Some(first) if *first != stable => Outcome::Failed,
            Some(_) => Outcome::Ok,
            None => {
                self.first_stdout.insert(id.to_owned(), stable);
                Outcome::Ok
            }
        }
    }
}

/// The `(workload, input, exit code, verdict line)` rows of an answer file;
/// `#` starts a comment line.
///
/// # Errors
///
/// Returns a message naming the first malformed row.
pub fn rows(tsv: &str) -> Result<Vec<(&str, &str, i32, &str)>, String> {
    tsv.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|line| {
            let cols: Vec<&str> = line.split('\t').collect();
            let code = cols.get(2).and_then(|c| c.parse().ok());
            match (cols.as_slice(), code) {
                ([workload, id, _, verdict], Some(code)) => Ok((*workload, *id, code, *verdict)),
                _ => Err(format!("expected.tsv: malformed row {line:?}")),
            }
        })
        .collect()
}
