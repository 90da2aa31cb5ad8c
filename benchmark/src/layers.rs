//! The traced run: per-layer metrics, measured from outside the program.
//!
//! The parent half re-executes this executable once per input and part
//! (`layers` subcommand), so every reported time is the first call in its
//! process — what a cold `entangle` pays — and reads the `stage:*` spans
//! the real binary already emits under `--trace`. The child half records
//! a benchmark-owned span around each public call into a layer's crate,
//! keeps the spans in memory and prints them when it is done.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use entangle::{check_expectation, check_refinement, CheckOptions, CheckOutcome, Relation};
use entangle_egraph::{CompiledMatcher, RecExpr};
use entangle_ir::Graph;
use entangle_lemmas::{registry, rewrites_of};
use entangle_symbolic::SymCtx;
use entangle_trace::TraceReport;

use crate::cold::Watchdog;
use crate::driver::{run_self, setup, Env, Judge, Outcome};
use crate::inputs::{plans, presented, Input, Mode};
use crate::stats::median;
use crate::Report;

/// Which calls one child process makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part {
    /// Every layer's public calls once, then the check at one job for its
    /// counts and e-graph busy times (they add up and repeat exactly at one
    /// job). That check's own time is not reported: `backoff_schedule` is
    /// memoised process-wide and the standalone call before it has paid.
    Full,
    /// Only what the check needs, at one job: `core.check_ms`, cold.
    Check,
    /// The same at one job per core: with [`Part::Check`],
    /// `par.jobs_speedup`.
    CheckJobs,
    /// `analyze_registry` alone: the numeric corpus walk, cold.
    Corpus,
}

impl Part {
    pub fn parse(s: &str) -> Option<Part> {
        match s {
            "full" => Some(Part::Full),
            "check" => Some(Part::Check),
            "check-jobs" => Some(Part::CheckJobs),
            "corpus" => Some(Part::Corpus),
            _ => None,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            Part::Full => "full",
            Part::Check => "check",
            Part::CheckJobs => "check-jobs",
            Part::Corpus => "corpus",
        }
    }
}

// ---------------------------------------------------------------- child

/// Spans and counts of one child, in memory until [`Recorder::print`].
struct Recorder {
    origin: Instant,
    /// `(name, start µs, end µs)`.
    spans: Vec<(&'static str, u128, u128)>,
    counts: Vec<(&'static str, f64)>,
}

impl Recorder {
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.origin.elapsed().as_micros();
        let out = std::hint::black_box(f());
        self.spans
            .push((name, start, self.origin.elapsed().as_micros()));
        out
    }

    fn count(&mut self, name: &'static str, value: impl TryInto<u64>) {
        let value = value.try_into().unwrap_or(u64::MAX);
        self.counts.push((name, value as f64));
    }

    fn print(&self) {
        let total = self.origin.elapsed().as_micros();
        println!("span input 0 {total}");
        for (name, start, end) in &self.spans {
            println!("span {name} {start} {end}");
        }
        for (name, value) in &self.counts {
            println!("count {name} {value}");
        }
    }
}

/// The `layers` subcommand: one input, one part, in this process.
///
/// # Errors
///
/// Returns a message when the input's files cannot be read or decoded —
/// set-up wrote them, so that is a bug in the benchmark, not a verdict.
pub fn child(dir: &Path, workload: &str, id: &str, part: Part) -> Result<(), String> {
    let mut rec = Recorder {
        origin: Instant::now(),
        spans: Vec::new(),
        counts: Vec::new(),
    };
    if part == Part::Corpus {
        rec.span("num.corpus", entangle_num::analyze_registry);
        rec.print();
        return Ok(());
    }
    let plan = plans(workload)
        .into_iter()
        .find(|p| p.id == id)
        .ok_or_else(|| format!("workload {workload} has no input {id}"))?;
    let read = |ext: &str| {
        let path = dir.join(format!("{id}.{ext}"));
        fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))
    };

    let (gs_text, gd_text) = (read("gs.json")?, read("gd.json")?);
    let (gs, gd) = rec.span("ir.parse", || {
        (Graph::from_json(&gs_text), Graph::from_json(&gd_text))
    });
    let (gs, gd) = (
        gs.map_err(|e| format!("{id}.gs.json: {e}"))?,
        gd.map_err(|e| format!("{id}.gd.json: {e}"))?,
    );
    rec.count("ir.bytes", gs_text.len() + gd_text.len());
    rec.count("ir.nodes", gs.num_nodes() + gd.num_nodes());

    if matches!(plan.mode, Mode::Recheck { .. }) {
        let text = read("cert.json")?;
        let rewrites = rec.span("lemmas.registry", || rewrites_of(&registry()));
        rec.count("lemmas.rules", rewrites.len());
        let cert = rec
            .span("cert.from_json", || entangle_cert::from_json(&text))
            .map_err(|e| format!("{id}.cert.json: {e}"))?;
        rec.count("cert.bytes", text.len());
        rec.count("cert.json_bytes", text.len());
        rec.count("cert.mappings", cert.mappings.len());
        rec.count("cert.steps", cert.total_steps());
        // Accepted or (for the forgery) rejected: the binary's exit code
        // carries that verdict, this measures what reaching it costs.
        let _ = rec.span("cert.verify", || {
            entangle_cert::verify(&cert, &gs, &gd, &rewrites, &SymCtx::new())
        });
        rec.print();
        return Ok(());
    }

    let maps_text = read("maps")?;
    let maps = entangle_cli::parse_maps_file(&maps_text).map_err(|e| format!("{id}.maps: {e}"))?;
    let ri = rec
        .span(
            "core.relation",
            || -> Result<Relation, entangle_ir::IrError> {
                let mut b = Relation::builder(&gs, &gd);
                for (name, expr) in &maps {
                    b.map(name, expr)?;
                }
                Ok(b.build())
            },
        )
        .map_err(|e| format!("{id}.maps: {e}"))?;
    let opts = CheckOptions {
        numeric: false,
        jobs: if part == Part::CheckJobs { cores() } else { 1 },
        ..CheckOptions::default()
    };
    let check = |rec: &mut Recorder| -> Option<CheckOutcome> {
        let name = match part {
            Part::Full => "core.check_after_layers",
            Part::CheckJobs => "core.check_jobs",
            _ => "core.check",
        };
        rec.span(name, || match &plan.mode {
            Mode::Expect { fs, fd } => {
                let fs = fs.parse().expect("bug-case f_s parses");
                let fd = fd.parse().expect("bug-case f_d parses");
                check_expectation(&gs, &gd, &ri, &fs, &fd, &opts).ok()
            }
            _ => check_refinement(&gs, &gd, &ri, &opts).ok(),
        })
    };
    if part != Part::Full {
        check(&mut rec);
        rec.print();
        return Ok(());
    }

    rec.span("lint.graph", || {
        (
            entangle_lint::lint_graph(&gs),
            entangle_lint::lint_graph(&gd),
        )
    });
    let parsed: Vec<(String, RecExpr)> = maps
        .iter()
        .map(|(name, expr)| Ok((name.clone(), expr.parse::<RecExpr>()?)))
        .collect::<Result<_, entangle_egraph::ParseExprError>>()
        .map_err(|e| format!("{id}.maps: {e}"))?;
    let shard = rec.span("shard.analyze", || {
        entangle_shard::analyze_pair(&gs, &gd, &parsed, &[])
    });
    rec.count("shard.hinted_tensors", shard.hints.len());
    let iso = rec.span("iso.analyze", || entangle_iso::analyze(&gs));
    rec.count("iso.classes", iso.class_count());
    rec.count("iso.covered_ops", iso.covered());
    let rewrites = rec.span("lemmas.registry", || rewrites_of(&registry()));
    rec.count("lemmas.rules", rewrites.len());
    rec.span("rules.backoff_schedule", || {
        entangle_rules::backoff_schedule(&rewrites)
    });
    rec.span("egraph.compile", || CompiledMatcher::compile(&rewrites));

    // A detected bug ends here: no outcome, so no telemetry, certificate
    // or numeric analysis to measure.
    if let Some(outcome) = check(&mut rec) {
        let sat = &outcome.saturation;
        let busy = |f: fn(&entangle_egraph::IterationReport) -> u64| -> u64 {
            sat.telemetry.iterations.iter().map(f).sum()
        };
        rec.count("core.operators", outcome.op_reports.len());
        rec.count("core.saturation_runs", sat.runs());
        rec.count("egraph.search_us", busy(|i| i.search_us));
        rec.count("egraph.apply_us", busy(|i| i.apply_us));
        rec.count("egraph.rebuild_us", busy(|i| i.rebuild_us));
        rec.count("egraph.iterations", sat.iterations());
        rec.count("egraph.peak_nodes", sat.peak_nodes());
        let rules = sat.telemetry.rules.values();
        rec.count(
            "egraph.matches",
            rules.clone().map(|r| r.matches).sum::<u64>(),
        );
        rec.count(
            "egraph.applications",
            rules.map(|r| r.applications).sum::<u64>(),
        );
        rec.count("par.cache_hits", outcome.par.cache_hits);
        rec.count("par.cache_misses", outcome.par.cache_misses);
        rec.count("par.template_hits", outcome.par.template_hits);
        rec.count(
            "par.template_instantiated",
            outcome.par.template_instantiated,
        );
        rec.count("par.template_fallbacks", outcome.par.template_fallbacks);

        let cert = outcome.certificate.expect("certify is on by default");
        rec.count("cert.mappings", cert.mappings.len());
        rec.count("cert.steps", cert.total_steps());
        let _ = rec.span("cert.verify", || {
            entangle_cert::verify(&cert, &gs, &gd, &rewrites, &SymCtx::new())
        });
        let text = rec
            .span("cert.to_json", || entangle_cert::to_json(&cert))
            .map_err(|e| format!("{id}: certificate does not serialize: {e}"))?;
        rec.count("cert.bytes", text.len());
        rec.count("cert.json_bytes", 2 * text.len());
        let _ = rec.span("cert.from_json", || entangle_cert::from_json(&text));
        // The binary's own call, twice: the first is the cold cost every
        // CLI user pays, the second only ever printed beside it.
        rec.span("num.analyze", || {
            entangle_num::analyze_certificate_cached(&cert, &gs, &gd)
        });
        rec.span("num.analyze_cached", || {
            entangle_num::analyze_certificate_cached(&cert, &gs, &gd)
        });
    }
    rec.print();
    Ok(())
}

// --------------------------------------------------------------- parent

/// One span of the written trace.
struct Span {
    input: String,
    id: usize,
    parent: Option<usize>,
    name: String,
    start_us: u64,
    end_us: u64,
}

/// Sums of span durations (µs) and of counts, over the inputs of a round.
#[derive(Default)]
struct Totals {
    spans: Vec<Span>,
    busy_us: BTreeMap<String, f64>,
    counts: BTreeMap<String, f64>,
}

impl Totals {
    /// Runs one child and folds its spans and counts in.
    fn run_child(
        &mut self,
        dir: &Path,
        workload: &str,
        input: &str,
        part: Part,
    ) -> Result<(), String> {
        let args = ["layers", "--workload", workload, "--input", input];
        let args = [&args[..], &["--part", part.as_str()]].concat();
        let out = run_self(&args, dir)
            .map_err(|e| format!("layers child for {input} ({}) failed: {e}", part.as_str()))?;
        let root = self.spans.len();
        for line in out.lines() {
            let cols: Vec<&str> = line.split(' ').collect();
            match cols.as_slice() {
                ["span", name, start, end] => {
                    let (start_us, end_us) = (num(start)?, num(end)?);
                    let id = self.spans.len();
                    let name = if id == root {
                        format!("input:{}", part.as_str())
                    } else {
                        (*name).to_owned()
                    };
                    if id != root {
                        *self.busy_us.entry(name.clone()).or_default() += end_us - start_us;
                    }
                    self.spans.push(Span {
                        input: input.to_owned(),
                        id,
                        parent: (id != root).then_some(root),
                        name,
                        start_us: start_us as u64,
                        end_us: end_us as u64,
                    });
                }
                ["count", name, value] if part == Part::Full => {
                    let value = num(value)?;
                    let slot = self.counts.entry((*name).to_owned()).or_default();
                    // A round's peak is its largest e-graph, and every
                    // process registers the same corpus: not sums.
                    *slot = if ["egraph.peak_nodes", "lemmas.rules"].contains(name) {
                        slot.max(value)
                    } else {
                        *slot + value
                    };
                }
                ["count", ..] => {}
                _ => return Err(format!("layers child for {input}: bad line {line:?}")),
            }
        }
        Ok(())
    }

    fn ms(&self, span: &str) -> f64 {
        self.busy_us.get(span).copied().unwrap_or(0.0) / 1e3
    }

    fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut s = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{{\"input\":\"{}\",\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{},\"end_us\":{}}}{}",
                sp.input,
                sp.id,
                sp.name,
                sp.start_us,
                sp.end_us,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        s.push_str("],\"counts\":{");
        let counts: Vec<String> = self
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        s.push_str(&counts.join(","));
        s.push_str("}}\n");
        s
    }
}

fn num(s: &str) -> Result<f64, String> {
    s.parse().map_err(|_| format!("not a number: {s:?}"))
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The traced run of one workload; writes `trace-<workload>.json` under
/// `out`.
///
/// # Errors
///
/// Returns a message when a child cannot be run or the trace cannot be
/// written.
pub fn run(
    env: &Env,
    workload: &str,
    seed: u64,
    seconds: f64,
    judge: Judge,
    out: &Path,
) -> Result<Report, String> {
    let mut judge = judge;
    let dir = env.tmp.join(workload);
    setup(workload, seed, &dir)?;
    let inputs = presented(workload, seed);
    let dog = Watchdog::start();

    // The floor under every invocation: a process that parses its
    // arguments, prints and exits.
    let help = [String::from("help")];
    let floor: Vec<f64> = (0..20)
        .map(|_| {
            let r = crate::cold::run(&env.entangle, &help, &dir, &dir.join("help.stdout"), &dog);
            r.wall.as_secs_f64() * 1e3
        })
        .collect();

    // Untraced and `--trace` rounds alternate so drift hits both alike.
    let mut plain_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut stage_us: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    const STAGES: [&str; 5] = ["lint", "shard", "map", "certify", "numeric"];
    let mut stage_sum_share = Vec::new();
    let mut advisory_share = Vec::new();
    let start = Instant::now();
    loop {
        let wall_of = |judge: &mut Judge, input: &Input, extra: &[String]| {
            let (reaped, outcome) = judge.invoke(env, &dir, input, extra, &dog);
            (reaped.wall.as_secs_f64() * 1e3, outcome)
        };
        let mut plain = 0.0;
        for input in &inputs {
            plain += wall_of(&mut judge, input, &[]).0;
        }
        plain_ms.push(plain);

        let mut traced = 0.0;
        let mut round_stage_us: BTreeMap<&str, f64> = STAGES.iter().map(|s| (*s, 0.0)).collect();
        let mut all_stages_us = 0.0;
        for input in &inputs {
            let file = format!("{}.trace.jsonl", input.id);
            let (wall, outcome) = wall_of(&mut judge, input, &["--trace".to_owned(), file.clone()]);
            traced += wall;
            if outcome == Outcome::Failed {
                continue;
            }
            let text =
                fs::read_to_string(dir.join(&file)).map_err(|e| format!("read {file}: {e}"))?;
            let report = TraceReport::from_jsonl(&text).map_err(|e| format!("{file}: {e}"))?;
            for sp in report.spans.iter().filter(|s| s.name.starts_with("stage:")) {
                all_stages_us += sp.dur_us as f64;
            }
            for stage in STAGES {
                *round_stage_us.entry(stage).or_default() +=
                    report.total_us(&format!("stage:{stage}")) as f64;
            }
        }
        traced_ms.push(traced);
        stage_sum_share.push(ratio(all_stages_us / 1e3, traced));
        advisory_share.push(ratio(round_stage_us["numeric"] / 1e3, traced));
        for (stage, us) in round_stage_us {
            stage_us.entry(stage).or_default().push(us);
        }
        let pair_s = (median(&plain_ms) + median(&traced_ms)) / 1e3;
        if start.elapsed().as_secs_f64() + pair_s > seconds {
            break;
        }
    }

    let mut totals = Totals::default();
    for input in &inputs {
        totals.run_child(&dir, workload, &input.id, Part::Full)?;
        if !matches!(input.mode, Mode::Recheck { .. }) {
            totals.run_child(&dir, workload, &input.id, Part::Check)?;
            totals.run_child(&dir, workload, &input.id, Part::CheckJobs)?;
        }
    }
    totals.run_child(&dir, workload, "-", Part::Corpus)?;

    fs::create_dir_all(out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let trace_path: PathBuf = out.join(format!("trace-{workload}.json"));
    fs::write(&trace_path, totals.to_json(workload, seed))
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;

    let mut report = Report::new(workload, seed, &judge);
    report.metric("cli.spawn_floor_ms", median(&floor));
    report.metric("cli.stage_sum_share", median(&stage_sum_share));
    report.metric("cli.advisory_share", median(&advisory_share));
    let (plain, traced) = (median(&plain_ms), median(&traced_ms));
    report.metric("trace.overhead_pct", (traced / plain - 1.0) * 100.0);
    for stage in STAGES {
        report.metric(
            &format!("core.stage_{stage}_ms"),
            median(&stage_us[stage]) / 1e3,
        );
    }
    for span in [
        "core.relation",
        "core.check",
        "ir.parse",
        "lint.graph",
        "shard.analyze",
        "iso.analyze",
        "lemmas.registry",
        "rules.backoff_schedule",
        "egraph.compile",
        "cert.verify",
        "cert.to_json",
        "cert.from_json",
        "num.analyze",
        "num.analyze_cached",
        "num.corpus",
    ] {
        report.metric(&format!("{span}_ms"), totals.ms(span));
    }
    for busy in ["egraph.search", "egraph.apply", "egraph.rebuild"] {
        report.metric(
            &format!("{busy}_ms"),
            totals.count(&format!("{busy}_us")) / 1e3,
        );
    }
    for count in [
        "core.operators",
        "core.saturation_runs",
        "ir.nodes",
        "shard.hinted_tensors",
        "iso.classes",
        "iso.covered_ops",
        "lemmas.rules",
        "egraph.iterations",
        "egraph.peak_nodes",
        "egraph.matches",
        "egraph.applications",
        "par.template_hits",
        "par.template_instantiated",
        "par.template_fallbacks",
        "cert.mappings",
        "cert.steps",
        "cert.bytes",
    ] {
        report.metric(count, totals.count(count));
    }
    let mb = |bytes: f64| bytes / (1024.0 * 1024.0);
    report.metric(
        "ir.parse_mb_per_s",
        ratio(mb(totals.count("ir.bytes")), totals.ms("ir.parse") / 1e3),
    );
    report.metric(
        "cert.json_mb_per_s",
        ratio(
            mb(totals.count("cert.json_bytes")),
            (totals.ms("cert.to_json") + totals.ms("cert.from_json")) / 1e3,
        ),
    );
    report.metric(
        "egraph.useful_ratio",
        ratio(
            totals.count("egraph.applications"),
            totals.count("egraph.matches"),
        ),
    );
    let hits = totals.count("par.cache_hits");
    report.metric(
        "par.cache_hit_rate",
        ratio(hits, hits + totals.count("par.cache_misses")),
    );
    report.metric(
        "par.jobs_speedup",
        ratio(totals.ms("core.check"), totals.ms("core.check_jobs")),
    );

    // The tracing-overhead baseline for a later change that moves spans
    // into the program.
    report.note(format!(
        "cold wall per round: untraced {plain:.3} ms, --trace {traced:.3} ms ({} pairs)",
        plain_ms.len()
    ));
    let outside: f64 = [
        "lint.graph",
        "shard.analyze",
        "iso.analyze",
        "lemmas.registry",
        "rules.backoff_schedule",
        "egraph.compile",
        "cert.verify",
    ]
    .iter()
    .map(|s| totals.ms(s))
    .sum();
    let egraph_busy: f64 = ["egraph.search_us", "egraph.apply_us", "egraph.rebuild_us"]
        .iter()
        .map(|c| totals.count(c) / 1e3)
        .sum();
    report.note(format!(
        "layer self-time {:.3} ms (standalone calls {outside:.3} + e-graph busy {egraph_busy:.3}) \
         vs core.check_ms {:.3} (cold at one job; cold at {} jobs: {:.3}; after the \
         standalone calls: {:.3})",
        outside + egraph_busy,
        totals.ms("core.check"),
        cores(),
        totals.ms("core.check_jobs"),
        totals.ms("core.check_after_layers"),
    ));
    report.note(format!(
        "core.stage_numeric_ms {:.3} (inside the binary) vs num.analyze_ms {:.3} (from outside)",
        median(&stage_us["numeric"]) / 1e3,
        totals.ms("num.analyze"),
    ));
    report.note(format!("spans written to {}", trace_path.display()));
    Ok(report)
}
