//! The `entangle` command-line tool.
//!
//! Checks model refinement on computation graphs serialized in the JSON
//! interchange format (the §5 bridge through which any front end — a
//! TorchDynamo exporter, an HLO translator — can reach the checker):
//!
//! ```text
//! entangle check   <gs.json> <gd.json> --map 'A=(concat A1 A2 1)' [--map ...]
//! entangle check   <gs.json> <gd.json> --maps relations.txt
//! entangle certify <gs.json> <gd.json> --maps relations.txt --emit cert.json
//! entangle certify <gs.json> <gd.json> --check cert.json
//! entangle expect  <gs.json> <gd.json> --maps relations.txt --fs F --fd '(concat F1 F2 0)'
//! entangle lint    <graph.json>
//! entangle iso     <graph.json>
//! entangle info    <graph.json>
//! entangle trace   gpt-tp2
//! entangle report  [--json|--prom]
//! entangle --trace out.jsonl check <gs.json> <gd.json> --maps relations.txt
//! ```
//!
//! A maps file holds one `gs_tensor = s-expression` mapping per line
//! (`#`-prefixed lines are comments). Exit code 0 = verified, 1 = bug
//! found, 2 = usage/input error, 3 = static lint errors, 4 = certificate
//! rejected by the trusted kernel, 5 = rule-corpus analysis errors,
//! 6 = template-analysis errors, 7 = numeric-analysis errors,
//! 8 = `entangle report` found a regression against ledger history,
//! 141 = stdout or stderr was closed before the output was written.
//!
//! The global `--trace FILE` flag streams a JSON-lines structured trace of
//! any invocation (spans for every pipeline stage, saturation telemetry
//! events) to `FILE`; it never changes output on stdout or the exit code.
//! `entangle trace` runs a workload under an in-memory collector and prints
//! the timing profile: per-stage wall clock, the hottest lemmas by
//! cumulative apply time, and the e-graph growth curve.

#![forbid(unsafe_code)]

/// `print!` through [`out::write`]: a closed stdout ends the process with
/// `out::EXIT_CLOSED` instead of a panic.
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::out::write(false, format_args!($($arg)*))
    };
}

/// `println!` through [`out::write`].
macro_rules! outln {
    () => {
        out!("\n")
    };
    ($($arg:tt)*) => {
        out!("{}\n", format_args!($($arg)*))
    };
}

/// `eprintln!` through [`out::write`].
macro_rules! errln {
    ($($arg:tt)*) => {
        $crate::out::write(true, format_args!("{}\n", format_args!($($arg)*)))
    };
}

mod out;

use std::fmt;
use std::fs;
use std::time::{Duration, Instant};

use entangle::{check_expectation, check_refinement, CheckOptions, ExpectationError, Relation};
use entangle_ir::Graph;
use entangle_metrics::{ledger, LedgerRecord, NoiseBand, Registry};
use entangle_trace::{SpanGuard, TraceReport, Tracer};

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Refinement check between two graph files.
    Check {
        /// Path to the sequential graph JSON.
        gs: String,
        /// Path to the distributed graph JSON.
        gd: String,
        /// `name=expr` input mappings.
        maps: Vec<(String, String)>,
    },
    /// Proof-carrying refinement check: run the certified check and emit
    /// the kernel-accepted certificate, or re-check a saved one.
    Certify {
        /// Path to the sequential graph JSON.
        gs: String,
        /// Path to the distributed graph JSON.
        gd: String,
        /// `name=expr` input mappings (generation mode).
        maps: Vec<(String, String)>,
        /// Write the certificate JSON to this file after verification.
        emit: Option<String>,
        /// Re-check a saved certificate file instead of generating one.
        check: Option<String>,
        /// Print the certificate JSON to stdout.
        json: bool,
    },
    /// §4.4 expectation check.
    Expect {
        /// Path to the sequential graph JSON.
        gs: String,
        /// Path to the distributed graph JSON.
        gd: String,
        /// `name=expr` input mappings.
        maps: Vec<(String, String)>,
        /// `f_s` combiner expression over `G_s` tensor names.
        fs: String,
        /// `f_d` combiner expression over `G_d` tensor names.
        fd: String,
    },
    /// Run the static lint passes over one graph file.
    Lint {
        /// Path to the graph JSON.
        graph: String,
        /// Emit the report as JSON.
        json: bool,
    },
    /// Run the static rule-corpus analysis (`entangle-rules`) over the
    /// full lemma registry.
    Rules {
        /// Emit the analysis as JSON.
        json: bool,
    },
    /// Run the static numeric-soundness analysis (`entangle-num`) over the
    /// full lemma registry.
    Num {
        /// Emit the analysis as JSON.
        json: bool,
    },
    /// Run the sharding-propagation analysis over one graph file.
    Shard {
        /// Path to the distributed graph JSON.
        gd: String,
        /// Optional sequential graph JSON (enables cross-rank checks and
        /// relation hints).
        gs: Option<String>,
        /// `name=expr` input mappings (paired mode).
        maps: Vec<(String, String)>,
        /// Emit the analysis as JSON.
        json: bool,
    },
    /// Run the static graph-template analysis over one graph file.
    Iso {
        /// Path to the graph JSON.
        graph: String,
        /// Neighborhood radius for the canonical forms (`None` = default).
        radius: Option<usize>,
        /// Emit the analysis as JSON.
        json: bool,
    },
    /// Print a summary of one graph file.
    Info {
        /// Path to the graph JSON.
        graph: String,
        /// Emit Graphviz DOT instead of the summary.
        dot: bool,
    },
    /// Run a workload under full instrumentation and print its timing
    /// profile, or validate a previously captured trace file.
    Trace {
        /// Named zoo workload (`gpt-tp2`, `moe-tpsp2`, …), normalized to
        /// the `examples/graphs` file stems.
        workload: Option<String>,
        /// Path to the sequential graph JSON (file mode).
        gs: Option<String>,
        /// Path to the distributed graph JSON (file mode).
        gd: Option<String>,
        /// `name=expr` input mappings (file mode).
        maps: Vec<(String, String)>,
        /// How many rules to show in the hot-rule table.
        top: usize,
        /// Print the structured trace report as JSON instead of the tables.
        json: bool,
        /// Write a Chrome/Perfetto trace-event file.
        perfetto: Option<String>,
        /// Validate an existing JSON-lines trace file instead of running.
        check: Option<String>,
    },
    /// Compare the latest run of every workload in the run ledger against
    /// its history and flag regressions.
    Report {
        /// Emit the report as JSON.
        json: bool,
        /// Emit the latest metric snapshots in the Prometheus text
        /// exposition format.
        prom: bool,
    },
    /// Print usage.
    Help,
}

/// CLI-level errors (usage and I/O).
#[derive(Debug)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

/// The usage text.
pub const USAGE: &str = "\
entangle — static refinement checking for distributed ML models

USAGE:
  entangle check   <gs.json> <gd.json> (--map 'name=(expr)')* [--maps FILE]
  entangle certify <gs.json> <gd.json> [--map ...|--maps FILE]
                   [--emit FILE] [--json]
  entangle certify <gs.json> <gd.json> --check FILE
  entangle expect  <gs.json> <gd.json> [--map ...|--maps FILE] --fs EXPR --fd EXPR
  entangle lint    <graph.json> [--json]
  entangle rules   [--json]
  entangle num     [--json]
  entangle shard   <gd.json> [--gs <gs.json>] [--map ...|--maps FILE] [--json]
  entangle iso     <graph.json> [--radius N] [--json]
  entangle info    <graph.json> [--dot]
  entangle trace   <workload> [--top N] [--json] [--perfetto FILE]
  entangle trace   <gs.json> <gd.json> [--map ...|--maps FILE]
                   [--top N] [--json] [--perfetto FILE]
  entangle trace   --check FILE [--json] [--perfetto FILE]
  entangle report  [--json|--prom]
  entangle help

GLOBAL FLAGS (any subcommand):
  --trace FILE   stream a JSON-lines structured trace of the invocation to
                 FILE; never changes stdout output or the exit code
  --jobs N       worker threads for the refinement checker's dependency-
                 aware scheduler (default: detected cores). Results are
                 identical for any N; N=1 runs on the calling thread
  --ledger FILE  run-ledger path for check/certify/trace appends and for
                 `entangle report` (default: results/ledger.jsonl; appends
                 only engage when a results/ directory already exists)
  --no-ledger    never append to or read a run ledger

Mappings relate each G_s input tensor to an s-expression over G_d tensor
names, e.g.  --map 'A=(concat A1 A2 1)'. A --maps file holds one mapping
per line; '#' starts a comment.

lint runs the static diagnostics passes (well-formedness, distribution
consistency) over one graph and prints every finding; check runs them on
both graphs before any saturation (see E###/W### codes in the docs).

rules runs the static rule-corpus analysis (RL## codes) over the full
lemma registry: growth classification (simplifying / size-preserving /
generative), the rule-interaction graph with its generative cycles, the
backoff throttle set the checker derives from them, duplicate/subsumed/
dead rules, and abstract shape/dtype soundness of every pattern rule.

num runs the static numeric-soundness analysis (NU## codes) over the full
lemma registry: every rewrite is classified as bit-exact (rearrangement),
reassociation-only (exact over the reals; relative float error bounded by
(1+eps)^k - 1 with the rounding-site count k derived statically), or
value-changing (flagged — a numerics-breaking lemma). The same analysis
runs inside check/certify, composing per-step classes along the accepted
certificate into one derived comparison tolerance per output.

shard runs the abstract sharding-propagation analysis (SH## codes): with
--gs and mappings it seeds shard layouts from the input relation, checks
cross-rank consistency, and prints the relation hints it can prove;
without, it reports the per-tensor layout structure of the graph alone.

iso runs the static graph-template analysis (IS## codes): each operator's
producer-side neighborhood is canonicalized into a bounded-depth
fingerprint (leaf names dropped, slice bounds parameterized) and the graph
is partitioned into repeated template classes — the partition the checker
reuses to solve one representative per class. Findings cover fingerprint
collisions, near-miss templates (one instance out of step with a repeated
class), and non-bijective parameter-leaf alignment.

certify runs the proof-carrying check: the saturation engine's derivation
is extracted as a rewrite certificate and re-validated by the independent
trusted kernel before success is reported. --emit/--json export the
certificate; --check re-validates a previously exported certificate file
against the graphs without rerunning saturation.

trace runs the full certified pipeline over a named zoo workload (gpt-tp2,
gpt-tpsp2, llama3-tp2, llama3-tpsp2, qwen2-tp2, qwen2-tpsp2, moe-tpsp2) or
a graph pair, and prints the per-stage timing profile, the hottest lemmas
by cumulative apply time, the e-graph growth curve, and the saturation
stop-reason tally. --perfetto exports a chrome://tracing-compatible
trace-event file; --check parses a JSON-lines trace captured earlier with
--trace and verifies every span balances.

report reads the run ledger (one schema-versioned JSONL record per
check/certify/trace run: workload, problem fingerprint, verdict,
wall time, metric snapshot) and compares each workload's latest run
against its same-fingerprint history. Any verdict flip, and wall-time /
peak-e-node / cache-hit-rate deltas beyond the documented noise bands
(1.5x and +5ms; 1.2x and +512 nodes; -0.10 absolute), exit with code 8.
A fingerprint change (different graphs, corpus, or engine knobs) resets
the baseline instead of comparing numbers. --json emits the structured
report; --prom emits the latest snapshots in the Prometheus text format.

EXIT CODES:  0 verified   1 refinement/expectation failed   2 usage error
             3 static lint errors   4 certificate rejected
             5 rule-corpus analysis errors
             6 template-analysis errors   7 numeric-analysis errors
             8 report found a regression against ledger history
             141 stdout/stderr closed before the output was written";

/// The value after `flag`, or the usage error "`flag` needs `what`".
fn take_value<'a>(
    it: &mut std::slice::Iter<'a, String>,
    flag: &str,
    what: &str,
) -> Result<&'a String, CliError> {
    it.next()
        .ok_or_else(|| CliError(format!("{flag} needs {what}")))
}

/// Consumes the value of a `--map name=expr` or `--maps FILE` flag into
/// `maps`.
fn push_map_flag(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
    maps: &mut Vec<(String, String)>,
) -> Result<(), CliError> {
    if flag == "--map" {
        maps.push(parse_map_spec(take_value(it, flag, "name=expr")?)?);
    } else {
        let path = take_value(it, flag, "a file path")?;
        let text =
            fs::read_to_string(path).map_err(|e| CliError(format!("cannot read {path}: {e}")))?;
        maps.extend(parse_maps_file(&text)?);
    }
    Ok(())
}

/// Parses argv (without the program name).
///
/// # Errors
///
/// Returns a usage error for unknown subcommands, missing operands or
/// malformed `--map` arguments.
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let mut it = args.iter();
    let sub = it.next().map(String::as_str).unwrap_or("help");
    match sub {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "lint" => {
            let graph = it
                .next()
                .ok_or_else(|| CliError("lint: missing <graph.json>".into()))?
                .clone();
            let json = match it.next().map(String::as_str) {
                None => false,
                Some("--json") => true,
                Some(other) => return Err(CliError(format!("lint: unknown flag {other}"))),
            };
            Ok(Command::Lint { graph, json })
        }
        "rules" => {
            let json = match it.next().map(String::as_str) {
                None => false,
                Some("--json") => true,
                Some(other) => return Err(CliError(format!("rules: unknown flag {other}"))),
            };
            Ok(Command::Rules { json })
        }
        "num" => {
            let json = match it.next().map(String::as_str) {
                None => false,
                Some("--json") => true,
                Some(other) => return Err(CliError(format!("num: unknown flag {other}"))),
            };
            Ok(Command::Num { json })
        }
        "report" => {
            let mut json = false;
            let mut prom = false;
            for flag in it {
                match flag.as_str() {
                    "--json" => json = true,
                    "--prom" => prom = true,
                    other => return Err(CliError(format!("report: unknown flag {other}"))),
                }
            }
            if json && prom {
                return Err(CliError("report: --json and --prom are exclusive".into()));
            }
            Ok(Command::Report { json, prom })
        }
        "shard" => {
            let gd = it
                .next()
                .ok_or_else(|| CliError("shard: missing <gd.json>".into()))?
                .clone();
            let mut gs = None;
            let mut maps = Vec::new();
            let mut json = false;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--gs" => gs = Some(take_value(&mut it, flag, "a file path")?.clone()),
                    "--map" | "--maps" => push_map_flag(&mut it, flag, &mut maps)?,
                    "--json" => json = true,
                    other => return Err(CliError(format!("shard: unknown flag {other}"))),
                }
            }
            if gs.is_none() && !maps.is_empty() {
                return Err(CliError("shard: --map/--maps need --gs".into()));
            }
            Ok(Command::Shard { gd, gs, maps, json })
        }
        "iso" => {
            let graph = it
                .next()
                .ok_or_else(|| CliError("iso: missing <graph.json>".into()))?
                .clone();
            let mut radius = None;
            let mut json = false;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--radius" => {
                        let n = take_value(&mut it, flag, "a number")?;
                        radius = Some(
                            n.parse()
                                .map_err(|_| CliError(format!("--radius: not a number: {n:?}")))?,
                        );
                    }
                    "--json" => json = true,
                    other => return Err(CliError(format!("iso: unknown flag {other}"))),
                }
            }
            Ok(Command::Iso {
                graph,
                radius,
                json,
            })
        }
        "info" => {
            let graph = it
                .next()
                .ok_or_else(|| CliError("info: missing <graph.json>".into()))?
                .clone();
            let dot = match it.next().map(String::as_str) {
                None => false,
                Some("--dot") => true,
                Some(other) => return Err(CliError(format!("info: unknown flag {other}"))),
            };
            Ok(Command::Info { graph, dot })
        }
        "certify" => {
            let gs = it
                .next()
                .ok_or_else(|| CliError("certify: missing <gs.json>".into()))?
                .clone();
            let gd = it
                .next()
                .ok_or_else(|| CliError("certify: missing <gd.json>".into()))?
                .clone();
            let mut maps = Vec::new();
            let mut emit = None;
            let mut check = None;
            let mut json = false;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--map" | "--maps" => push_map_flag(&mut it, flag, &mut maps)?,
                    "--emit" => emit = Some(take_value(&mut it, flag, "a file path")?.clone()),
                    "--check" => check = Some(take_value(&mut it, flag, "a file path")?.clone()),
                    "--json" => json = true,
                    other => return Err(CliError(format!("certify: unknown flag {other}"))),
                }
            }
            if check.is_some() && (emit.is_some() || !maps.is_empty()) {
                return Err(CliError(
                    "certify: --check re-validates a saved certificate; it takes no \
                     --map/--maps/--emit"
                        .into(),
                ));
            }
            Ok(Command::Certify {
                gs,
                gd,
                maps,
                emit,
                check,
                json,
            })
        }
        "trace" => {
            let mut operands: Vec<String> = Vec::new();
            let mut maps = Vec::new();
            let mut top = 10usize;
            let mut json = false;
            let mut perfetto = None;
            let mut check = None;
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--map" | "--maps" => push_map_flag(&mut it, arg, &mut maps)?,
                    "--top" => {
                        let n = take_value(&mut it, arg, "a number")?;
                        top = n
                            .parse()
                            .map_err(|_| CliError(format!("--top: not a number: {n:?}")))?;
                    }
                    "--json" => json = true,
                    "--perfetto" => {
                        perfetto = Some(take_value(&mut it, arg, "a file path")?.clone());
                    }
                    "--check" => check = Some(take_value(&mut it, arg, "a file path")?.clone()),
                    flag if flag.starts_with("--") => {
                        return Err(CliError(format!("trace: unknown flag {flag}")))
                    }
                    _ => operands.push(arg.clone()),
                }
            }
            if check.is_some() {
                if !operands.is_empty() || !maps.is_empty() {
                    return Err(CliError(
                        "trace: --check validates a saved trace file; it takes no \
                         workload or --map/--maps"
                            .into(),
                    ));
                }
                return Ok(Command::Trace {
                    workload: None,
                    gs: None,
                    gd: None,
                    maps,
                    top,
                    json,
                    perfetto,
                    check,
                });
            }
            let (workload, gs, gd) = match operands.len() {
                1 => (Some(operands[0].replace('-', "_")), None, None),
                2 => (None, Some(operands[0].clone()), Some(operands[1].clone())),
                0 => {
                    return Err(CliError(
                        "trace: missing <workload> or <gs.json> <gd.json> (or --check FILE)".into(),
                    ))
                }
                _ => return Err(CliError("trace: too many operands".into())),
            };
            if workload.is_some() && !maps.is_empty() {
                return Err(CliError(
                    "trace: named workloads carry their own input maps; \
                     --map/--maps need the <gs.json> <gd.json> form"
                        .into(),
                ));
            }
            Ok(Command::Trace {
                workload,
                gs,
                gd,
                maps,
                top,
                json,
                perfetto,
                check,
            })
        }
        "check" | "expect" => {
            let gs = it
                .next()
                .ok_or_else(|| CliError(format!("{sub}: missing <gs.json>")))?
                .clone();
            let gd = it
                .next()
                .ok_or_else(|| CliError(format!("{sub}: missing <gd.json>")))?
                .clone();
            let mut maps = Vec::new();
            let mut fs = None;
            let mut fd = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--map" | "--maps" => push_map_flag(&mut it, flag, &mut maps)?,
                    "--fs" => fs = Some(take_value(&mut it, flag, "an expression")?.clone()),
                    "--fd" => fd = Some(take_value(&mut it, flag, "an expression")?.clone()),
                    other => return Err(CliError(format!("unknown flag {other}"))),
                }
            }
            if sub == "check" {
                Ok(Command::Check { gs, gd, maps })
            } else {
                Ok(Command::Expect {
                    gs,
                    gd,
                    maps,
                    fs: fs.ok_or_else(|| CliError("expect: missing --fs".into()))?,
                    fd: fd.ok_or_else(|| CliError("expect: missing --fd".into()))?,
                })
            }
        }
        other => Err(CliError(format!("unknown subcommand {other}"))),
    }
}

/// Global flags valid in any position, for any subcommand, extracted by
/// [`parse_invocation`] before subcommand parsing.
#[derive(Debug, Clone, Default)]
pub struct GlobalFlags {
    /// `--trace FILE`: stream a JSON-lines structured trace to FILE.
    pub trace: Option<String>,
    /// `--jobs N`: worker-thread count for the refinement checker's
    /// dependency-aware scheduler. `None` defers to the library default
    /// (the detected core count); `0` is normalized to 1 by the checker.
    pub jobs: Option<usize>,
    /// `--ledger FILE`: run-ledger path for check/certify/trace appends and
    /// `entangle report`. `None` defaults to `results/ledger.jsonl` — and,
    /// for appends, only when a `results/` directory already exists in the
    /// working directory (so casual invocations leave no files behind).
    pub ledger: Option<String>,
    /// `--no-ledger`: never append to (or read) a run ledger.
    pub no_ledger: bool,
}

/// Parses a full argv (without the program name), extracting the global
/// flags (`--trace FILE`, `--jobs N`) — valid in any position, for any
/// subcommand — before subcommand parsing.
///
/// # Errors
///
/// Returns a usage error when a global flag is missing or has a malformed
/// operand, or the remaining arguments do not parse.
pub fn parse_invocation(args: &[String]) -> Result<(Command, GlobalFlags), CliError> {
    let mut rest = Vec::with_capacity(args.len());
    let mut flags = GlobalFlags::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--trace" {
            flags.trace = Some(take_value(&mut it, a, "a file path")?.clone());
        } else if a == "--jobs" {
            let n = take_value(&mut it, a, "a thread count")?;
            let n: usize = n
                .parse()
                .map_err(|_| CliError(format!("--jobs: not a thread count: {n:?}")))?;
            flags.jobs = Some(n);
        } else if a == "--ledger" {
            flags.ledger = Some(take_value(&mut it, a, "a file path")?.clone());
        } else if a == "--no-ledger" {
            flags.no_ledger = true;
        } else {
            rest.push(a.clone());
        }
    }
    Ok((parse_args(&rest)?, flags))
}

/// Parses one `name=expr` mapping.
///
/// # Errors
///
/// Returns a usage error when the `=` separator is missing.
pub fn parse_map_spec(spec: &str) -> Result<(String, String), CliError> {
    let (name, expr) = spec
        .split_once('=')
        .ok_or_else(|| CliError(format!("malformed mapping {spec:?}: expected name=expr")))?;
    Ok((name.trim().to_owned(), expr.trim().to_owned()))
}

/// Parses a maps file (one `name = expr` per line, `#` comments).
///
/// # Errors
///
/// Returns a usage error for malformed lines.
pub fn parse_maps_file(text: &str) -> Result<Vec<(String, String)>, CliError> {
    let mut out = Vec::new();
    for (no, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push(parse_map_spec(line).map_err(|e| CliError(format!("line {}: {e}", no + 1)))?);
    }
    Ok(out)
}

fn load_graph(path: &str) -> Result<Graph, CliError> {
    load_graph_sized(path).map(|(g, _)| g)
}

/// [`load_graph`], and how many bytes it read.
fn load_graph_sized(path: &str) -> Result<(Graph, usize), CliError> {
    let text =
        fs::read_to_string(path).map_err(|e| CliError(format!("cannot read {path}: {e}")))?;
    let g = Graph::from_json(&text).map_err(|e| CliError(format!("{path}: {e}")))?;
    Ok((g, text.len()))
}

/// Reads and validates `G_s` and `G_d` under `sp` (a `stage:parse` span),
/// which gets the bytes read and the operators decoded.
fn load_pair(sp: &mut SpanGuard, gs: &str, gd: &str) -> Result<(Graph, Graph), CliError> {
    let (gs, gs_bytes) = load_graph_sized(gs)?;
    let (gd, gd_bytes) = load_graph_sized(gd)?;
    sp.attr("bytes", gs_bytes + gd_bytes);
    sp.attr("nodes", gs.nodes().len() + gd.nodes().len());
    Ok((gs, gd))
}

/// The `stage:parse` of a check: everything between the command line and
/// `check_refinement` — both graphs read and validated, `R_i` built.
fn parse_stage(
    tracer: &Tracer,
    gs: &str,
    gd: &str,
    maps: &[(String, String)],
) -> Result<(Graph, Graph, Relation), CliError> {
    let mut sp = tracer.span("stage:parse");
    let (gs, gd) = load_pair(&mut sp, gs, gd)?;
    let ri = build_relation(&gs, &gd, maps)?;
    Ok((gs, gd, ri))
}

/// Loads a graph for linting: decode-level checks only, so graphs the full
/// validator would reject (stale shapes, non-topological order) still load
/// and get proper diagnostics instead of a parse error.
fn load_graph_unvalidated(path: &str) -> Result<Graph, CliError> {
    let text =
        fs::read_to_string(path).map_err(|e| CliError(format!("cannot read {path}: {e}")))?;
    Graph::from_json_unvalidated(&text).map_err(|e| CliError(format!("{path}: {e}")))
}

fn build_relation(gs: &Graph, gd: &Graph, maps: &[(String, String)]) -> Result<Relation, CliError> {
    let mut b = Relation::builder(gs, gd);
    for (name, expr) in maps {
        b.map(name, expr)
            .map_err(|e| CliError(format!("mapping {name}: {e}")))?;
    }
    Ok(b.build())
}

/// The `entangle` program: parses `args` (without the program name), runs
/// the command and returns the process exit code.
pub fn run_args(args: &[String]) -> i32 {
    match parse_invocation(args) {
        Ok((cmd, flags)) => run_with(&cmd, &flags),
        Err(e) => {
            errln!("error: {e}\n\n{USAGE}");
            2
        }
    }
}

/// Runs a parsed command, printing to stdout; returns the process exit code.
pub fn run(cmd: &Command) -> i32 {
    run_traced(cmd, None)
}

/// Runs a parsed command under the global `--trace FILE` flag: the
/// invocation streams a JSON-lines structured trace to `trace_path` as it
/// executes. Tracing never changes stdout output or the exit code.
pub fn run_traced(cmd: &Command, trace_path: Option<&str>) -> i32 {
    run_with(
        cmd,
        &GlobalFlags {
            trace: trace_path.map(str::to_owned),
            ..GlobalFlags::default()
        },
    )
}

/// Runs a parsed command under the full set of global flags (`--trace`,
/// `--jobs`). Neither flag changes stdout verdict lines or the exit code;
/// `--jobs` only selects the checker's worker-thread count.
pub fn run_with(cmd: &Command, flags: &GlobalFlags) -> i32 {
    let trace_path = flags.trace.as_deref();
    if matches!(cmd, Command::Trace { .. }) {
        // The trace subcommand collects in memory — it analyzes its own
        // spans after the run — and honors --trace itself.
        return match run_trace(cmd, trace_path, flags) {
            Ok(code) => code,
            Err(e) => {
                errln!("error: {e}");
                errln!("\n{USAGE}");
                2
            }
        };
    }
    let tracer = match trace_path {
        None => Tracer::null(),
        Some(path) => match fs::File::create(path) {
            Ok(f) => Tracer::jsonl(std::io::BufWriter::new(f)),
            Err(e) => {
                errln!("error: cannot create trace file {path}: {e}");
                return 2;
            }
        },
    };
    let mut root = tracer.span(&format!("cli:{}", command_name(cmd)));
    let code = match run_inner(cmd, &tracer, flags) {
        Ok(code) => code,
        Err(e) => {
            errln!("error: {e}");
            errln!("\n{USAGE}");
            2
        }
    };
    root.attr("exit", code);
    drop(root);
    code
}

/// The default [`CheckOptions`] for a CLI invocation: tracing into the
/// invocation's tracer, worker count from `--jobs` when given, and a live
/// metrics registry — every CLI check collects the full instrument set
/// (`metrics_do_not_perturb_the_search` pins that it cannot change the
/// search), feeding both the stats line after the verdict and the
/// run-ledger record.
fn check_options(tracer: &Tracer, flags: &GlobalFlags) -> CheckOptions {
    let mut opts = CheckOptions {
        trace: tracer.clone(),
        metrics: Registry::new(),
        ..CheckOptions::default()
    };
    if let Some(j) = flags.jobs {
        opts.jobs = j;
    }
    opts
}

/// The `Numeric verdicts:` block of a successful check/certify: one line
/// per `R_o` output and, when any of them is `unknown`, a note with why
/// the analysis left the model.
fn print_numeric_verdicts(num: &entangle::CertAnalysis) {
    outln!("\nNumeric verdicts:");
    for o in &num.outputs {
        outln!(
            "  {} : {}",
            o.tensor,
            entangle::describe_verdict(&o.verdict)
        );
    }
    let unknown = |o: &entangle::OutputVerdict| o.verdict.class == entangle::NumClass::Unknown;
    if num.outputs.iter().any(unknown) {
        if let Some(why) = num.unclassified_reason() {
            outln!("  note: {why}");
        }
    }
}

/// One human-readable line summarizing the checker's scheduler and
/// cross-operator cache behavior, printed after check/certify/trace
/// verdicts — a view of the outcome's [`entangle::ParStats`].
fn par_summary(par: &entangle::ParStats) -> String {
    let cache = format!(
        "cache {} hits / {} misses ({:.0}% hit rate)",
        par.cache_hits,
        par.cache_misses,
        par.hit_rate() * 100.0
    );
    let templates = if par.template_classes > 0 {
        format!(
            "; templates {} classes, {} hits ({} kernel-instantiated, {} fallbacks)",
            par.template_classes,
            par.template_hits,
            par.template_instantiated,
            par.template_fallbacks
        )
    } else {
        String::new()
    };
    format!(
        "parallel : {} jobs on {} cores; {cache}{templates}",
        par.jobs, par.cores
    )
}

/// The ledger file this invocation should append to / report from, or
/// `None` when ledger I/O is off: `--no-ledger` wins, `--ledger FILE` is
/// explicit, and the `results/ledger.jsonl` default only engages when a
/// `results/` directory already exists (`require_dir`), so casual checks
/// outside a results workspace leave nothing behind.
fn ledger_path(flags: &GlobalFlags, require_dir: bool) -> Option<std::path::PathBuf> {
    if flags.no_ledger {
        return None;
    }
    if let Some(p) = &flags.ledger {
        return Some(std::path::PathBuf::from(p));
    }
    let dir = std::path::Path::new("results");
    (!require_dir || dir.is_dir()).then(|| dir.join("ledger.jsonl"))
}

/// The certified check behind `check`, `certify` and `trace`: runs
/// [`check_refinement`] and, when a run ledger is in play, appends one
/// schema-versioned record (verdict `verified` or `failed:<kind>`, stable
/// across runs so `entangle report` can flag verdict flips precisely).
/// The record — whose fingerprint re-renders both graphs and the lemma
/// corpus — is only built when there is a ledger to write it to. The
/// append is best-effort: a failed write warns on stderr and never changes
/// the verdict or exit code.
fn ledgered_check(
    gs: &Graph,
    gd: &Graph,
    ri: &Relation,
    opts: &CheckOptions,
    flags: &GlobalFlags,
) -> (
    Result<entangle::CheckOutcome, entangle::RefinementError>,
    Duration,
) {
    let start = Instant::now();
    let result = check_refinement(gs, gd, ri, opts);
    let wall = start.elapsed();
    if let Some(path) = ledger_path(flags, true) {
        let verdict = match &result {
            Ok(_) => "verified".to_owned(),
            Err(e) => format!("failed:{}", e.kind()),
        };
        let workload = format!("{}::{}", gs.name(), gd.name());
        let fingerprint = entangle::problem_fingerprint(gs, gd, ri, opts);
        let mut rec = LedgerRecord::new("check", &workload, &fingerprint, &verdict);
        rec.wall_ms = wall.as_secs_f64() * 1e3;
        rec.extra.insert("gs".to_owned(), gs.name().to_owned());
        rec.extra.insert("gd".to_owned(), gd.name().to_owned());
        rec.metrics = opts.metrics.snapshot();
        if let Err(e) = ledger::append(&path, &rec) {
            errln!("warning: cannot append run ledger {}: {e}", path.display());
        }
    }
    (result, wall)
}

/// The exit code of a failed check: 3 static lint errors, 4 certificate
/// rejected, 1 any other refinement failure.
fn failure_code(e: &entangle::RefinementError) -> i32 {
    match e {
        entangle::RefinementError::Lint { .. } => 3,
        entangle::RefinementError::CertRejected { .. } => 4,
        _ => 1,
    }
}

/// Prints a failed `check`/`certify` and returns its exit code.
fn report_failure(e: &entangle::RefinementError) -> i32 {
    match e {
        entangle::RefinementError::Lint { .. } => outln!("{e}"),
        entangle::RefinementError::CertRejected { .. } => outln!("Certificate REJECTED:\n{e}"),
        _ => outln!("Refinement FAILED:\n{e}"),
    }
    failure_code(e)
}

fn command_name(cmd: &Command) -> &'static str {
    match cmd {
        Command::Check { .. } => "check",
        Command::Certify { .. } => "certify",
        Command::Expect { .. } => "expect",
        Command::Lint { .. } => "lint",
        Command::Rules { .. } => "rules",
        Command::Num { .. } => "num",
        Command::Shard { .. } => "shard",
        Command::Iso { .. } => "iso",
        Command::Info { .. } => "info",
        Command::Trace { .. } => "trace",
        Command::Report { .. } => "report",
        Command::Help => "help",
    }
}

fn ms(d: Duration) -> String {
    format!("{:.1}ms", d.as_secs_f64() * 1e3)
}

fn run_inner(cmd: &Command, tracer: &Tracer, flags: &GlobalFlags) -> Result<i32, CliError> {
    let jobs = flags.jobs;
    match cmd {
        Command::Help => {
            outln!("{USAGE}");
            Ok(0)
        }
        Command::Lint { graph, json } => {
            let g = {
                let mut sp = tracer.span("load");
                sp.attr("path", graph);
                load_graph_unvalidated(graph)?
            };
            let report = {
                let mut sp = tracer.span("stage:lint");
                let report = entangle_lint::lint_graph(&g);
                sp.attr("errors", report.error_count());
                sp.attr("warnings", report.warning_count());
                report
            };
            if *json {
                outln!("{}", report.to_json(Some(&g)));
                return Ok(if report.is_clean() { 0 } else { 3 });
            }
            if !report.diagnostics.is_empty() {
                outln!("{}", report.render(Some(&g)));
            }
            outln!(
                "{}: {} ({} operators, {} tensors)",
                g.name(),
                report.summary(),
                g.num_nodes(),
                g.num_tensors(),
            );
            Ok(if report.is_clean() { 0 } else { 3 })
        }
        Command::Rules { json } => {
            let rewrites = entangle_lemmas::rewrites_of(&entangle_lemmas::registry());
            let analysis = {
                let mut sp = tracer.span("stage:rules");
                let analysis = entangle_rules::analyze(&rewrites);
                sp.attr("rules", analysis.classes.len());
                sp.attr("cycles", analysis.cycles.len());
                sp.attr("throttled", analysis.throttled.len());
                sp.attr("errors", analysis.report.error_count());
                sp.attr("warnings", analysis.report.warning_count());
                analysis
            };
            if *json {
                outln!("{}", analysis.to_json());
            } else {
                out!("{}", analysis.render());
                outln!();
            }
            Ok(if analysis.report.is_clean() { 0 } else { 5 })
        }
        Command::Num { json } => {
            let analysis = {
                let mut sp = tracer.span("stage:num");
                let analysis = entangle::analyze_registry();
                sp.attr("lemmas", analysis.entries.len());
                sp.attr("errors", analysis.error_count());
                sp.attr(
                    "warnings",
                    analysis.diagnostics.len() - analysis.error_count(),
                );
                analysis
            };
            if *json {
                outln!("{}", analysis.to_json());
            } else {
                out!("{}", analysis.render());
            }
            Ok(if analysis.is_clean() { 0 } else { 7 })
        }
        Command::Shard { gd, gs, maps, json } => {
            let gd = {
                let mut sp = tracer.span("load");
                sp.attr("path", gd);
                load_graph(gd)?
            };
            let analysis = {
                let mut sp = tracer.span("stage:shard");
                let analysis = match gs {
                    None => entangle_shard::analyze_graph(&gd),
                    Some(gs) => {
                        let gs = load_graph(gs)?;
                        let mut parsed = Vec::with_capacity(maps.len());
                        for (name, expr) in maps {
                            let e = expr
                                .parse()
                                .map_err(|e| CliError(format!("mapping {name}: {e}")))?;
                            parsed.push((name.clone(), e));
                        }
                        entangle_shard::analyze_pair(&gs, &gd, &parsed, &[])
                    }
                };
                sp.attr(
                    "outcome",
                    if analysis.is_clean() {
                        "ok"
                    } else {
                        "violation"
                    },
                );
                sp.attr("hinted_tensors", analysis.hints.len());
                analysis
            };
            if *json {
                outln!("{}", analysis.to_json(&gd));
                return Ok(if analysis.is_clean() { 0 } else { 3 });
            }
            outln!("layouts:");
            out!("{}", analysis.describe(&gd));
            if !analysis.report.diagnostics.is_empty() {
                outln!("{}", analysis.report.render(Some(&gd)));
            }
            if !analysis.hints.is_empty() {
                outln!("proven relation hints:");
                for h in &analysis.hints {
                    outln!("  {} = {}", h.gs_tensor, h.expr);
                }
            }
            outln!("{}: {}", gd.name(), analysis.summary());
            Ok(if analysis.is_clean() { 0 } else { 3 })
        }
        Command::Iso {
            graph,
            radius,
            json,
        } => {
            let g = {
                let mut sp = tracer.span("load");
                sp.attr("path", graph);
                load_graph(graph)?
            };
            let analysis = {
                let mut sp = tracer.span("stage:iso");
                let analysis = match radius {
                    Some(r) => entangle_iso::analyze_with(&g, *r),
                    None => entangle_iso::analyze(&g),
                };
                sp.attr("classes", analysis.class_count());
                sp.attr("covered", analysis.covered());
                sp.attr("errors", analysis.report.error_count());
                sp.attr("warnings", analysis.report.warning_count());
                analysis
            };
            if *json {
                outln!("{}", analysis.to_json(&g));
                return Ok(if analysis.report.is_clean() { 0 } else { 6 });
            }
            if !analysis.classes.is_empty() {
                outln!("template classes (radius {}):", analysis.radius);
                for c in &analysis.classes {
                    outln!(
                        "  #{} {:016x} {} ×{}  (representative {})",
                        c.id,
                        c.fingerprint,
                        c.op,
                        c.members.len(),
                        g.nodes()[c.representative()].name
                    );
                }
            }
            if !analysis.report.diagnostics.is_empty() {
                outln!("{}", analysis.report.render(Some(&g)));
            }
            outln!("{}: {}", g.name(), analysis.summary());
            Ok(if analysis.report.is_clean() { 0 } else { 6 })
        }
        Command::Info { graph, dot } => {
            let t0 = Instant::now();
            let g = {
                let mut sp = tracer.span("load");
                sp.attr("path", graph);
                load_graph(graph)?
            };
            let t_load = t0.elapsed();
            if *dot {
                out!("{}", g.to_dot());
                return Ok(0);
            }
            outln!("graph   : {}", g.name());
            outln!("operators: {}", g.num_nodes());
            outln!("tensors  : {}", g.num_tensors());
            outln!(
                "inputs   : {}",
                g.inputs()
                    .iter()
                    .map(|&t| format!("{} {}", g.tensor(t).name, g.tensor(t).shape))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            outln!(
                "outputs  : {}",
                g.outputs()
                    .iter()
                    .map(|&t| format!("{} {}", g.tensor(t).name, g.tensor(t).shape))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            let t1 = Instant::now();
            let lint = {
                let _sp = tracer.span("stage:lint");
                entangle_lint::lint_graph(&g)
            };
            let t_lint = t1.elapsed();
            let t2 = Instant::now();
            let shard = {
                let _sp = tracer.span("stage:shard");
                entangle_shard::analyze_graph(&g)
            };
            let t_shard = t2.elapsed();
            let t3 = Instant::now();
            let iso = {
                let _sp = tracer.span("stage:iso");
                entangle_iso::analyze(&g)
            };
            let t_iso = t3.elapsed();
            outln!("lint     : {}", lint.summary());
            outln!("shard    : {}", shard.summary());
            outln!("templates: {}", iso.summary());
            outln!(
                "corpus   : {} lemmas registered (see `entangle rules`)",
                entangle_lemmas::registry().len()
            );
            let t4 = Instant::now();
            let num = {
                let _sp = tracer.span("stage:num");
                entangle::analyze_registry()
            };
            let t_num = t4.elapsed();
            outln!(
                "numeric  : {} bit-exact, {} reassoc, {} unknown, {} value-changing (see `entangle num`)",
                num.count_class(entangle::NumClass::BitExact),
                num.count_class(entangle::NumClass::Reassoc),
                num.count_class(entangle::NumClass::Unknown),
                num.count_class(entangle::NumClass::ValueChanging)
            );
            outln!(
                "parallel : {} cores detected, checker runs {} jobs by default",
                entangle_par::available_jobs(),
                jobs.unwrap_or_else(entangle_par::available_jobs).max(1)
            );
            outln!(
                "timings  : load {}, lint {}, shard {}, iso {}, num {} (total {})",
                ms(t_load),
                ms(t_lint),
                ms(t_shard),
                ms(t_iso),
                ms(t_num),
                ms(t_load + t_lint + t_shard + t_iso + t_num)
            );
            Ok(0)
        }
        Command::Check { gs, gd, maps } => {
            let (gs, gd, ri) = parse_stage(tracer, gs, gd, maps)?;
            let opts = check_options(tracer, flags);
            match ledgered_check(&gs, &gd, &ri, &opts, flags).0 {
                Ok(outcome) => {
                    outln!("Refinement verification succeeded for {}.", gd.name());
                    outln!("{}", par_summary(&outcome.par));
                    outln!("\nOutput relation:");
                    out!("{}", outcome.output_relation.display(&gs));
                    if let Some(num) = &outcome.numeric {
                        print_numeric_verdicts(num);
                    }
                    Ok(0)
                }
                Err(e) => Ok(report_failure(&e)),
            }
        }
        Command::Certify {
            gs,
            gd,
            maps,
            emit,
            check,
            json,
        } => {
            // Re-check mode: validate a saved certificate with the trusted
            // kernel alone — no relation building, no saturation.
            if let Some(path) = check {
                let mut sp = tracer.span("stage:parse");
                let (gs, gd) = load_pair(&mut sp, gs, gd)?;
                let text = fs::read_to_string(path)
                    .map_err(|e| CliError(format!("cannot read {path}: {e}")))?;
                sp.attr("cert_bytes", text.len());
                let cert = match entangle_cert::from_json_counting(&text) {
                    Ok((cert, table_entries)) => {
                        sp.attr("cert_terms", table_entries);
                        cert
                    }
                    Err(e) => {
                        outln!("Certificate REJECTED:\n{e}");
                        return Ok(4);
                    }
                };
                drop(sp);
                let lemmas = entangle_lemmas::rewrites_of(&entangle_lemmas::registry());
                let mut sp = tracer.span("stage:certify");
                sp.attr("mappings", cert.mappings.len());
                sp.attr("steps", cert.total_steps());
                let (verdict, kernel) = entangle_cert::verify_reporting(
                    &cert,
                    &gs,
                    &gd,
                    &lemmas,
                    &entangle_symbolic::SymCtx::new(),
                );
                for (key, count) in kernel.attrs() {
                    sp.attr(key, count);
                }
                sp.attr(
                    "outcome",
                    if verdict.is_ok() {
                        "accepted"
                    } else {
                        "rejected"
                    },
                );
                drop(sp);
                return match verdict {
                    Ok(()) => {
                        outln!(
                            "Certificate verified: {} mappings, {} proof steps.",
                            cert.mappings.len(),
                            cert.total_steps()
                        );
                        Ok(0)
                    }
                    Err(e) => {
                        outln!("Certificate REJECTED:\n{e}");
                        Ok(4)
                    }
                };
            }

            let (gs, gd, ri) = parse_stage(tracer, gs, gd, maps)?;
            let opts = check_options(tracer, flags);
            match ledgered_check(&gs, &gd, &ri, &opts, flags).0 {
                Ok(outcome) => {
                    let cert = outcome
                        .certificate
                        .as_ref()
                        .expect("certify mode always produces a certificate");
                    let text = {
                        let mut sp = tracer.span("stage:emit");
                        let text = entangle_cert::to_json(cert)
                            .map_err(|e| CliError(format!("cannot serialize certificate: {e}")))?;
                        if let Some(path) = emit {
                            fs::write(path, &text)
                                .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
                        }
                        sp.attr("bytes", text.len());
                        text
                    };
                    if *json {
                        outln!("{text}");
                    } else {
                        outln!(
                            "Refinement certified for {}: {} mappings, {} proof steps \
                             (kernel accepted).",
                            gd.name(),
                            cert.mappings.len(),
                            cert.total_steps()
                        );
                        outln!("{}", par_summary(&outcome.par));
                        outln!("\nOutput relation:");
                        out!("{}", outcome.output_relation.display(&gs));
                        if let Some(num) = &outcome.numeric {
                            print_numeric_verdicts(num);
                        }
                    }
                    Ok(0)
                }
                Err(e) => Ok(report_failure(&e)),
            }
        }
        // Intercepted by `run_with`; kept for completeness if called
        // directly (no --trace file in that path).
        Command::Trace { .. } => run_trace(cmd, None, flags),
        Command::Report { json, prom } => {
            // Reading never requires an existing results/ directory: an
            // absent ledger is an empty, clean history.
            let Some(path) = ledger_path(flags, false) else {
                return Err(CliError(
                    "report: --no-ledger leaves nothing to report".into(),
                ));
            };
            let read = ledger::read(&path)
                .map_err(|e| CliError(format!("cannot read {}: {e}", path.display())))?;
            let mut sp = tracer.span("stage:report");
            sp.attr("records", read.records.len());
            sp.attr("malformed", read.malformed);
            let outcome = entangle_metrics::report::compare(&read, &NoiseBand::default());
            sp.attr("regressions", outcome.regressions.len());
            drop(sp);
            if *json {
                outln!("{}", outcome.to_json());
            } else if *prom {
                out!("{}", outcome.to_prometheus());
            } else {
                if read.records.is_empty() {
                    outln!(
                        "run ledger {} is empty — run `entangle check`/`certify` with a \
                         results/ directory present, or pass --ledger FILE.",
                        path.display()
                    );
                    return Ok(0);
                }
                out!("{}", outcome.to_text());
            }
            Ok(if outcome.is_clean() { 0 } else { 8 })
        }
        Command::Expect {
            gs,
            gd,
            maps,
            fs,
            fd,
        } => {
            let (gs, gd, ri) = parse_stage(tracer, gs, gd, maps)?;
            let fs = fs.parse().map_err(|e| CliError(format!("--fs: {e}")))?;
            let fd = fd.parse().map_err(|e| CliError(format!("--fd: {e}")))?;
            let opts = check_options(tracer, flags);
            match check_expectation(&gs, &gd, &ri, &fs, &fd, &opts) {
                Ok(_) => {
                    outln!("User expectation holds.");
                    Ok(0)
                }
                Err(ExpectationError::Invalid(e)) => Err(CliError(e.to_string())),
                Err(e) => {
                    outln!("{e}");
                    Ok(1)
                }
            }
        }
    }
}

/// The `entangle trace` subcommand: run a workload under an in-memory
/// collector and print its timing profile, or validate a saved trace file.
fn run_trace(
    cmd: &Command,
    trace_path: Option<&str>,
    flags: &GlobalFlags,
) -> Result<i32, CliError> {
    let Command::Trace {
        workload,
        gs,
        gd,
        maps,
        top,
        json,
        perfetto,
        check,
    } = cmd
    else {
        unreachable!("run_trace only handles Command::Trace");
    };

    // Validation mode: parse a JSON-lines trace captured with --trace and
    // verify every span balances; optionally convert it.
    if let Some(path) = check {
        let text =
            fs::read_to_string(path).map_err(|e| CliError(format!("cannot read {path}: {e}")))?;
        let report =
            TraceReport::from_jsonl(&text).map_err(|e| CliError(format!("{path}: {e}")))?;
        if let Some(out) = perfetto {
            fs::write(out, report.to_chrome_json())
                .map_err(|e| CliError(format!("cannot write {out}: {e}")))?;
        }
        if *json {
            outln!("{}", report.to_json());
        } else {
            outln!(
                "{path}: valid trace — {} spans, {} events, all balanced.",
                report.spans.len(),
                report.events.len()
            );
            // What the certificate kernel met, when the trace has a kernel
            // stage that recorded it.
            let attr = |span: &str, key: &str| report.find(span).and_then(|sp| sp.attr(key));
            if let Some(entries) = attr("stage:parse", "cert_terms") {
                outln!("certificate: {entries} term-table entries read");
            }
            if let Some(terms) = attr("stage:certify", "terms") {
                let of = |key| attr("stage:certify", key).unwrap_or("?");
                outln!(
                    "kernel   : {terms} distinct terms in {} slots, {} replays",
                    of("slots"),
                    of("replays")
                );
            }
        }
        return Ok(0);
    }

    let (name, gs, gd, ri) = match workload {
        Some(w) => {
            let mut cases = entangle_bench::zoo();
            let Some(pos) = cases.iter().position(|c| c.name == *w) else {
                let names: Vec<&str> = cases.iter().map(|c| c.name.as_str()).collect();
                return Err(CliError(format!(
                    "trace: unknown workload {w:?} (available: {})",
                    names.join(", ")
                )));
            };
            let case = cases.swap_remove(pos);
            let ri = case
                .dist
                .relation(&case.gs)
                .map_err(|e| CliError(format!("workload {w}: {e}")))?;
            (case.name, case.gs, case.dist.graph, ri)
        }
        None => {
            let gs_path = gs.as_ref().expect("parser guarantees file operands");
            let gd_path = gd.as_ref().expect("parser guarantees file operands");
            let gs = load_graph(gs_path)?;
            let gd = load_graph(gd_path)?;
            let ri = build_relation(&gs, &gd, maps)?;
            let name = gd.name().to_owned();
            (name, gs, gd, ri)
        }
    };

    // Full certified pipeline: every stage — lint, shard, mapping search,
    // outputs gate, trusted kernel — shows up in the profile.
    let (tracer, sink) = Tracer::collect();
    let opts = check_options(&tracer, flags);
    let (result, wall) = ledgered_check(&gs, &gd, &ri, &opts, flags);

    let records = sink.records();
    let report = TraceReport::from_records(&records)
        .map_err(|e| CliError(format!("internal: checker emitted an invalid trace: {e}")))?;

    if let Some(path) = trace_path {
        fs::write(path, sink.to_jsonl())
            .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
    }
    if let Some(path) = perfetto {
        fs::write(path, report.to_chrome_json())
            .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
    }

    let code = result.as_ref().map_or_else(failure_code, |_| 0);

    if *json {
        outln!("{}", report.to_json());
        return Ok(code);
    }

    outln!("workload : {name}");
    outln!(
        "graphs   : {} ({} ops) -> {} ({} ops)",
        gs.name(),
        gs.num_nodes(),
        gd.name(),
        gd.num_nodes()
    );
    match &result {
        Ok(outcome) => {
            outln!("verdict  : verified in {}", ms(wall));
            outln!("{}", par_summary(&outcome.par));
        }
        Err(_) => outln!("verdict  : FAILED in {}", ms(wall)),
    }
    outln!();
    print_stage_table(&report);
    match &result {
        Ok(outcome) => print_saturation_profile(&outcome.saturation, *top),
        Err(e) => outln!("\nRefinement FAILED:\n{e}"),
    }
    Ok(code)
}

/// Prints the per-stage wall-clock table from a collected trace. The
/// indented encode/saturate/extract rows are children of `stage:map` (per
/// sequential operator), so they sub-divide it rather than add to it. A
/// `saturate` span marked `replayed` repeats the duration of the run it
/// replays: it counts as a span, and adds no time.
fn print_stage_table(report: &TraceReport) {
    let total = report
        .find("check_refinement")
        .map(|s| s.dur_us)
        .unwrap_or(0)
        .max(1);
    let stages = [
        ("lint", "stage:lint"),
        ("shard", "stage:shard"),
        ("setup", "stage:setup"),
        ("map", "stage:map"),
        ("  encode", "encode"),
        ("  saturate", "saturate"),
        ("  extract", "extract"),
        ("outputs", "stage:outputs"),
        ("certify", "stage:certify"),
    ];
    let mut rows = Vec::new();
    for (label, span) in stages {
        let n = report.spans_named(span).count();
        if n == 0 {
            continue; // stage skipped (e.g. shard short-circuited the run)
        }
        let us: u64 = report
            .spans_named(span)
            .filter(|s| s.attr("replayed").is_none())
            .map(|s| s.dur_us)
            .sum();
        rows.push(vec![
            label.to_owned(),
            n.to_string(),
            format!("{:.1}ms", us as f64 / 1e3),
            format!("{:.1}%", us as f64 * 100.0 / total as f64),
        ]);
    }
    entangle_bench::print_table(&["stage", "spans", "time", "% of check"], &rows);
}

/// Prints the hot-rule table, the stop-reason tally and the e-graph growth
/// curve from the checker's saturation telemetry. Runs and iterations are
/// counted per operator with the executed ("fresh") share beside them; the
/// hot-rule table is built from the executed runs alone, so its times are
/// time the check spent.
fn print_saturation_profile(summary: &entangle::SaturationSummary, top: usize) {
    outln!(
        "\nsaturation: {} runs ({} fresh), {} iterations ({} fresh), peak {} e-nodes",
        summary.runs(),
        summary.fresh_runs(),
        summary.iterations(),
        summary.fresh_iterations(),
        summary.peak_nodes()
    );
    let stops: Vec<String> = summary
        .stop_counts()
        .iter()
        .filter(|(_, n)| *n > 0)
        .map(|(k, n)| format!("{k} {n}"))
        .collect();
    outln!("stops     : {}", stops.join(", "));
    outln!("growth    : {}", sparkline(&summary.growth()));

    let rules = summary.fresh.rules_by_apply_time();
    let shown = top.min(rules.len());
    outln!(
        "\nhot rules ({shown} of {} by cumulative apply time, fresh runs only):",
        rules.len()
    );
    let rows: Vec<Vec<String>> = rules
        .iter()
        .take(top)
        .map(|(name, r)| {
            vec![
                (*name).to_owned(),
                r.matches.to_string(),
                r.applications.to_string(),
                format!("{:.1}ms", r.search_us as f64 / 1e3),
                format!("{:.1}ms", r.apply_us as f64 / 1e3),
            ]
        })
        .collect();
    entangle_bench::print_table(
        &["rule", "matches", "applications", "search", "apply"],
        &rows,
    );
}

/// Renders per-iteration e-node counts as a compact block-character curve,
/// downsampled (bucket maxima) to at most 60 columns.
fn sparkline(values: &[usize]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return "(no saturation iterations)".to_owned();
    }
    let max = (*values.iter().max().expect("non-empty")).max(1);
    let buckets = 60.min(values.len());
    let mut out = String::new();
    for b in 0..buckets {
        let lo = b * values.len() / buckets;
        let hi = (((b + 1) * values.len()) / buckets).max(lo + 1);
        let v = *values[lo..hi].iter().max().expect("non-empty bucket");
        let idx = v * (BARS.len() - 1) / max;
        out.push(BARS[idx.min(BARS.len() - 1)]);
    }
    out.push_str(&format!(
        "  (peak {max} e-nodes, {} iterations)",
        values.len()
    ));
    out
}

#[cfg(test)]
mod tests;
