use std::fs;

use entangle_models::{gpt, Arch, ModelConfig};
use entangle_parallel::{parallelize, Strategy};

use crate::{
    parse_args, parse_invocation, parse_map_spec, parse_maps_file, run, run_traced, run_with,
    Command, GlobalFlags,
};

/// A directory private to one test: tests run on parallel threads and each
/// removes its directory on exit.
fn tmpdir(test: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("entangle-cli-test-{}-{test}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn parse_check_command() {
    let args: Vec<String> = ["check", "a.json", "b.json", "--map", "A=(concat A1 A2 1)"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    match parse_args(&args).unwrap() {
        Command::Check { gs, gd, maps } => {
            assert_eq!(gs, "a.json");
            assert_eq!(gd, "b.json");
            assert_eq!(maps, vec![("A".to_owned(), "(concat A1 A2 1)".to_owned())]);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn parse_errors() {
    let to_args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    assert!(parse_args(&to_args(&["check"])).is_err());
    assert!(parse_args(&to_args(&["check", "a"])).is_err());
    assert!(parse_args(&to_args(&["check", "a", "b", "--map"])).is_err());
    assert!(parse_args(&to_args(&["check", "a", "b", "--bogus"])).is_err());
    assert!(parse_args(&to_args(&["expect", "a", "b"])).is_err()); // missing fs/fd
    assert!(parse_args(&to_args(&["frobnicate"])).is_err());
    assert!(parse_args(&to_args(&["info", "g.json", "--bogus"])).is_err());
    assert!(matches!(
        parse_args(&to_args(&["info", "g.json", "--dot"])),
        Ok(Command::Info { dot: true, .. })
    ));
    assert!(matches!(parse_args(&to_args(&["help"])), Ok(Command::Help)));
    assert!(matches!(parse_args(&[]), Ok(Command::Help)));
}

#[test]
fn parse_shard_command() {
    let to_args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    match parse_args(&to_args(&[
        "shard",
        "gd.json",
        "--gs",
        "gs.json",
        "--map",
        "A=(concat A1 A2 1)",
        "--json",
    ]))
    .unwrap()
    {
        Command::Shard { gd, gs, maps, json } => {
            assert_eq!(gd, "gd.json");
            assert_eq!(gs.as_deref(), Some("gs.json"));
            assert_eq!(maps.len(), 1);
            assert!(json);
        }
        other => panic!("unexpected {other:?}"),
    }
    // Self-seeded mode: just the graph.
    assert!(matches!(
        parse_args(&to_args(&["shard", "gd.json"])),
        Ok(Command::Shard {
            gs: None,
            json: false,
            ..
        })
    ));
    assert!(parse_args(&to_args(&["shard"])).is_err());
    // Mappings are meaningless without a G_s to resolve them against.
    assert!(parse_args(&to_args(&["shard", "gd.json", "--map", "A=B"])).is_err());
    assert!(parse_args(&to_args(&["lint", "g.json", "--json"])).is_ok());
}

#[test]
fn shard_command_end_to_end() {
    let dir = tmpdir("shard_command_end_to_end");
    let cfg = ModelConfig::tiny();
    let gs = gpt(&cfg);
    let dist = parallelize(&cfg, Arch::Gpt, &Strategy::tp(2));

    let gs_path = dir.join("shard_gs.json");
    let gd_path = dir.join("shard_gd.json");
    let maps_path = dir.join("shard_maps.txt");
    fs::write(&gs_path, gs.to_json().unwrap()).unwrap();
    fs::write(&gd_path, dist.graph.to_json().unwrap()).unwrap();
    let maps_text: String = dist
        .input_maps
        .iter()
        .map(|(name, expr)| format!("{name} = {expr}\n"))
        .collect();
    fs::write(&maps_path, maps_text).unwrap();

    // Paired mode over a correct TP(2) strategy: clean, exit 0.
    let cmd = Command::Shard {
        gd: gd_path.to_str().unwrap().to_owned(),
        gs: Some(gs_path.to_str().unwrap().to_owned()),
        maps: parse_maps_file(&fs::read_to_string(&maps_path).unwrap()).unwrap(),
        json: false,
    };
    assert_eq!(run(&cmd), 0, "correct TP(2) sharding analyzes clean");

    // Self-seeded and JSON modes also succeed on the same graph.
    let cmd = Command::Shard {
        gd: gd_path.to_str().unwrap().to_owned(),
        gs: None,
        maps: Vec::new(),
        json: true,
    };
    assert_eq!(run(&cmd), 0, "self-seeded shard analysis is clean");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn parse_trace_command() {
    let to_args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    // Workload mode, dashes normalized to the file-stem underscores.
    match parse_args(&to_args(&["trace", "gpt-tp2", "--top", "5"])).unwrap() {
        Command::Trace { workload, top, .. } => {
            assert_eq!(workload.as_deref(), Some("gpt_tp2"));
            assert_eq!(top, 5);
        }
        other => panic!("unexpected {other:?}"),
    }
    // File mode with flags.
    match parse_args(&to_args(&[
        "trace",
        "a.json",
        "b.json",
        "--map",
        "A=(concat A1 A2 1)",
        "--perfetto",
        "out.json",
        "--json",
    ]))
    .unwrap()
    {
        Command::Trace {
            workload,
            gs,
            gd,
            maps,
            json,
            perfetto,
            ..
        } => {
            assert_eq!(workload, None);
            assert_eq!(gs.as_deref(), Some("a.json"));
            assert_eq!(gd.as_deref(), Some("b.json"));
            assert_eq!(maps.len(), 1);
            assert!(json);
            assert_eq!(perfetto.as_deref(), Some("out.json"));
        }
        other => panic!("unexpected {other:?}"),
    }
    // Validation mode.
    assert!(matches!(
        parse_args(&to_args(&["trace", "--check", "t.jsonl"])),
        Ok(Command::Trace { check: Some(_), .. })
    ));
    // Errors: no operands, too many, --check with operands, maps on a
    // named workload, bad --top.
    assert!(parse_args(&to_args(&["trace"])).is_err());
    assert!(parse_args(&to_args(&["trace", "a", "b", "c"])).is_err());
    assert!(parse_args(&to_args(&["trace", "gpt-tp2", "--check", "t"])).is_err());
    assert!(parse_args(&to_args(&["trace", "gpt-tp2", "--map", "A=B"])).is_err());
    assert!(parse_args(&to_args(&["trace", "gpt-tp2", "--top", "many"])).is_err());
    assert!(parse_args(&to_args(&["trace", "gpt-tp2", "--bogus"])).is_err());
}

#[test]
fn parse_invocation_extracts_global_flags() {
    let to_args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    // Leading position.
    let (cmd, flags) =
        parse_invocation(&to_args(&["--trace", "out.jsonl", "lint", "g.json"])).unwrap();
    assert!(matches!(cmd, Command::Lint { .. }));
    assert_eq!(flags.trace.as_deref(), Some("out.jsonl"));
    assert_eq!(flags.jobs, None);
    // Trailing position.
    let (cmd, flags) =
        parse_invocation(&to_args(&["info", "g.json", "--trace", "t.jsonl"])).unwrap();
    assert!(matches!(cmd, Command::Info { .. }));
    assert_eq!(flags.trace.as_deref(), Some("t.jsonl"));
    // Absent.
    let (_, flags) = parse_invocation(&to_args(&["help"])).unwrap();
    assert_eq!(flags.trace, None);
    assert_eq!(flags.jobs, None);
    // --jobs in any position, combined with --trace.
    let (cmd, flags) = parse_invocation(&to_args(&[
        "--jobs", "4", "check", "a.json", "b.json", "--trace", "t.jsonl",
    ]))
    .unwrap();
    assert!(matches!(cmd, Command::Check { .. }));
    assert_eq!(flags.jobs, Some(4));
    assert_eq!(flags.trace.as_deref(), Some("t.jsonl"));
    let (_, flags) = parse_invocation(&to_args(&["lint", "g.json", "--jobs", "1"])).unwrap();
    assert_eq!(flags.jobs, Some(1));
    // Missing or malformed operands.
    assert!(parse_invocation(&to_args(&["lint", "g.json", "--trace"])).is_err());
    assert!(parse_invocation(&to_args(&["lint", "g.json", "--jobs"])).is_err());
    assert!(parse_invocation(&to_args(&["lint", "g.json", "--jobs", "many"])).is_err());
    assert!(parse_invocation(&to_args(&["check", "a", "b", "--jobs", "-2"])).is_err());
    // Anything else is not a global flag and is left for the subcommand to
    // reject.
    assert!(parse_invocation(&to_args(&["--no-compiled-matcher", "check", "a", "b"])).is_err());
}

#[test]
fn trace_subcommand_end_to_end() {
    let dir = tmpdir("trace_subcommand_end_to_end");
    let cfg = ModelConfig::tiny();
    let gs = gpt(&cfg);
    let dist = parallelize(&cfg, Arch::Gpt, &Strategy::tp(2));

    let gs_path = dir.join("trace_gs.json");
    let gd_path = dir.join("trace_gd.json");
    fs::write(&gs_path, gs.to_json().unwrap()).unwrap();
    fs::write(&gd_path, dist.graph.to_json().unwrap()).unwrap();

    let trace_path = dir.join("trace_out.jsonl");
    let perfetto_path = dir.join("trace_perfetto.json");
    let cmd = Command::Trace {
        workload: None,
        gs: Some(gs_path.to_str().unwrap().to_owned()),
        gd: Some(gd_path.to_str().unwrap().to_owned()),
        maps: dist
            .input_maps
            .iter()
            .map(|(n, e)| (n.clone(), e.to_string()))
            .collect(),
        top: 5,
        json: false,
        perfetto: Some(perfetto_path.to_str().unwrap().to_owned()),
        check: None,
    };
    assert_eq!(
        run_traced(&cmd, Some(trace_path.to_str().unwrap())),
        0,
        "correct TP implementation traces and verifies"
    );

    // The emitted JSON-lines trace parses, balances, and covers every
    // pipeline stage of the certified run.
    let report = entangle_trace::TraceReport::from_jsonl(&fs::read_to_string(&trace_path).unwrap())
        .expect("emitted trace is valid");
    for stage in [
        "check_refinement",
        "stage:lint",
        "stage:shard",
        "stage:map",
        "stage:outputs",
        "stage:certify",
    ] {
        assert!(report.find(stage).is_some(), "missing span {stage}");
    }
    // The Perfetto export is emitted and shaped like a trace-event file.
    let perfetto = fs::read_to_string(&perfetto_path).unwrap();
    assert!(perfetto.starts_with("{\"traceEvents\":["));

    // Validation mode accepts the file it just wrote.
    let cmd = Command::Trace {
        workload: None,
        gs: None,
        gd: None,
        maps: vec![],
        top: 10,
        json: false,
        perfetto: None,
        check: Some(trace_path.to_str().unwrap().to_owned()),
    };
    assert_eq!(run(&cmd), 0, "self-emitted trace validates");

    // Validation mode rejects garbage with a usage error.
    let bad_path = dir.join("trace_bad.jsonl");
    fs::write(
        &bad_path,
        "{\"type\":\"begin\",\"id\":1,\"name\":\"x\",\"t_us\":0}\n",
    )
    .unwrap();
    let cmd = Command::Trace {
        workload: None,
        gs: None,
        gd: None,
        maps: vec![],
        top: 10,
        json: false,
        perfetto: None,
        check: Some(bad_path.to_str().unwrap().to_owned()),
    };
    assert_eq!(run(&cmd), 2, "unbalanced trace is rejected");

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn global_trace_flag_is_exit_code_neutral() {
    let dir = tmpdir("global_trace_flag_is_exit_code_neutral");
    let cfg = ModelConfig::tiny();
    let gs = gpt(&cfg);
    let dist = parallelize(&cfg, Arch::Gpt, &Strategy::tp(2));

    let gs_path = dir.join("neutral_gs.json");
    let gd_path = dir.join("neutral_gd.json");
    fs::write(&gs_path, gs.to_json().unwrap()).unwrap();
    fs::write(&gd_path, dist.graph.to_json().unwrap()).unwrap();

    // A failing check keeps exit code 1 under --trace, and still emits a
    // balanced trace whose root records the failure.
    let mut bad_maps: Vec<(String, String)> = dist
        .input_maps
        .iter()
        .map(|(n, e)| (n.clone(), e.to_string()))
        .collect();
    for (name, expr) in &mut bad_maps {
        if name == "L0.wq" {
            *expr = "(concat L0.wq.1 L0.wq.0 1)".to_owned();
        }
    }
    let cmd = Command::Check {
        gs: gs_path.to_str().unwrap().to_owned(),
        gd: gd_path.to_str().unwrap().to_owned(),
        maps: bad_maps,
    };
    assert_eq!(run(&cmd), 1);
    let trace_path = dir.join("neutral_out.jsonl");
    assert_eq!(run_traced(&cmd, Some(trace_path.to_str().unwrap())), 1);
    let report = entangle_trace::TraceReport::from_jsonl(&fs::read_to_string(&trace_path).unwrap())
        .expect("failure trace is still balanced");
    let root = report.find("cli:check").expect("cli root span");
    assert_eq!(root.attr("exit"), Some("1"));
    // The swapped shards are caught by the propagation pass, before any
    // saturation runs.
    assert!(report.find("stage:parse").is_some(), "the inputs were read");
    let check = report.find("check_refinement").expect("checker root span");
    assert_eq!(check.attr("outcome"), Some("shard-violation"));
    assert!(report.find("stage:map").is_none(), "search never started");

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn map_spec_parsing() {
    assert_eq!(
        parse_map_spec("A = (concat A1 A2 1)").unwrap(),
        ("A".to_owned(), "(concat A1 A2 1)".to_owned())
    );
    assert!(parse_map_spec("no-equals-sign").is_err());
}

#[test]
fn maps_file_parsing() {
    let text = "# input relation\nA = (concat A1 A2 1)\n\nB=B_d\n";
    let maps = parse_maps_file(text).unwrap();
    assert_eq!(maps.len(), 2);
    assert_eq!(maps[1], ("B".to_owned(), "B_d".to_owned()));
    assert!(parse_maps_file("bad line without equals").is_err());
}

/// Writes the tiny GPT/TP2 pair and its maps file into `dir`.
fn write_gpt_tp2(
    dir: &std::path::Path,
) -> (std::path::PathBuf, std::path::PathBuf, std::path::PathBuf) {
    let cfg = ModelConfig::tiny();
    let gs = gpt(&cfg);
    let dist = parallelize(&cfg, Arch::Gpt, &Strategy::tp(2));

    let gs_path = dir.join("gs.json");
    let gd_path = dir.join("gd.json");
    let maps_path = dir.join("maps.txt");
    fs::write(&gs_path, gs.to_json().unwrap()).unwrap();
    fs::write(&gd_path, dist.graph.to_json().unwrap()).unwrap();
    let maps_text: String = dist
        .input_maps
        .iter()
        .map(|(n, e)| format!("{n} = {e}\n"))
        .collect();
    fs::write(&maps_path, maps_text).unwrap();
    (gs_path, gd_path, maps_path)
}

#[test]
fn end_to_end_check_via_files() {
    let dir = tmpdir("end_to_end_check_via_files");
    let (gs_path, gd_path, maps_path) = write_gpt_tp2(&dir);

    let cmd = Command::Check {
        gs: gs_path.to_str().unwrap().to_owned(),
        gd: gd_path.to_str().unwrap().to_owned(),
        maps: parse_maps_file(&fs::read_to_string(&maps_path).unwrap()).unwrap(),
    };
    assert_eq!(run(&cmd), 0, "correct TP implementation verifies");

    // A wrong mapping turns it into exit code 1.
    let mut bad_maps = parse_maps_file(&fs::read_to_string(&maps_path).unwrap()).unwrap();
    for (name, expr) in &mut bad_maps {
        if name == "L0.wq" {
            *expr = "(concat L0.wq.1 L0.wq.0 1)".to_owned();
        }
    }
    let cmd = Command::Check {
        gs: gs_path.to_str().unwrap().to_owned(),
        gd: gd_path.to_str().unwrap().to_owned(),
        maps: bad_maps,
    };
    assert_eq!(run(&cmd), 1, "swapped shards are a detected bug");

    // Missing files and malformed maps exit 2.
    let cmd = Command::Check {
        gs: "/nonexistent.json".to_owned(),
        gd: gd_path.to_str().unwrap().to_owned(),
        maps: vec![],
    };
    assert_eq!(run(&cmd), 2);

    let cmd = Command::Info {
        graph: gs_path.to_str().unwrap().to_owned(),
        dot: false,
    };
    assert_eq!(run(&cmd), 0);
    let cmd = Command::Info {
        graph: gs_path.to_str().unwrap().to_owned(),
        dot: true,
    };
    assert_eq!(run(&cmd), 0);

    fs::remove_dir_all(&dir).ok();
}

/// What a certified run does outside `check_refinement` is spanned too:
/// reading the inputs (`stage:parse`) and writing the certificate
/// (`stage:emit`), both directly under the `cli:*` root where
/// `benchmark/`'s stage sum finds them.
#[test]
fn parse_and_emit_are_stages_of_the_cli_root() {
    let dir = tmpdir("parse_and_emit_are_stages");
    let (gs_path, gd_path, maps_path) = write_gpt_tp2(&dir);
    let path = |p: &std::path::Path| p.to_str().unwrap().to_owned();
    let size = |p: &std::path::Path| fs::metadata(p).unwrap().len().to_string();
    let cert_path = dir.join("cert.json");
    let trace_path = dir.join("trace.jsonl");
    let traced = |cmd: &Command| {
        assert_eq!(run_traced(cmd, Some(trace_path.to_str().unwrap())), 0);
        entangle_trace::TraceReport::from_jsonl(&fs::read_to_string(&trace_path).unwrap())
            .expect("balanced trace")
    };
    let certify = |emit: Option<String>, check: Option<String>| Command::Certify {
        gs: path(&gs_path),
        gd: path(&gd_path),
        maps: parse_maps_file(&fs::read_to_string(&maps_path).unwrap()).unwrap(),
        emit,
        check,
        json: false,
    };
    let graph_bytes =
        (fs::metadata(&gs_path).unwrap().len() + fs::metadata(&gd_path).unwrap().len()).to_string();

    let report = traced(&certify(Some(path(&cert_path)), None));
    let root = report.find("cli:certify").expect("cli root span");
    let parse = report.find("stage:parse").expect("inputs are spanned");
    assert_eq!(parse.parent, Some(root.id));
    assert_eq!(parse.attr("bytes"), Some(graph_bytes.as_str()));
    assert!(parse.attr("nodes").is_some_and(|n| n != "0"));
    let emit = report.find("stage:emit").expect("the write is spanned");
    assert_eq!(emit.parent, Some(root.id));
    assert_eq!(emit.attr("bytes"), Some(size(&cert_path).as_str()));

    // The re-check reads one more file and writes none.
    let report = traced(&certify(None, Some(path(&cert_path))));
    let parse = report.find("stage:parse").expect("inputs are spanned");
    assert_eq!(parse.attr("bytes"), Some(graph_bytes.as_str()));
    assert_eq!(parse.attr("cert_bytes"), Some(size(&cert_path).as_str()));
    assert!(report.find("stage:emit").is_none());

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn ledger_record_is_written_only_when_a_ledger_is_in_play() {
    let dir = tmpdir("ledger_record");
    let (gs_path, gd_path, maps_path) = write_gpt_tp2(&dir);
    let maps = parse_maps_file(&fs::read_to_string(&maps_path).unwrap()).unwrap();
    let cmd = Command::Check {
        gs: gs_path.to_str().unwrap().to_owned(),
        gd: gd_path.to_str().unwrap().to_owned(),
        maps: maps.clone(),
    };
    let ledger_path = dir.join("ledger.jsonl");
    let mut flags = GlobalFlags {
        ledger: Some(ledger_path.to_str().unwrap().to_owned()),
        no_ledger: true,
        ..GlobalFlags::default()
    };

    // --no-ledger wins over --ledger: the check verifies and leaves nothing.
    assert_eq!(run_with(&cmd, &flags), 0);
    assert!(!ledger_path.exists(), "--no-ledger leaves no file");

    // An explicit ledger gets exactly one record, keyed by the library's
    // problem fingerprint (which ignores --jobs, tracing and metrics).
    flags.no_ledger = false;
    assert_eq!(run_with(&cmd, &flags), 0);
    let read = entangle_metrics::ledger::read(&ledger_path).unwrap();
    assert_eq!((read.records.len(), read.malformed), (1, 0));
    let gs = crate::load_graph(gs_path.to_str().unwrap()).unwrap();
    let gd = crate::load_graph(gd_path.to_str().unwrap()).unwrap();
    let ri = crate::build_relation(&gs, &gd, &maps).unwrap();
    let rec = &read.records[0];
    assert_eq!(
        rec.fingerprint,
        entangle::problem_fingerprint(&gs, &gd, &ri, &entangle::CheckOptions::default())
    );
    assert_eq!(rec.verdict, "verified");

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn expect_subcommand_end_to_end() {
    use entangle_ir::{DType, GraphBuilder, Op};
    let dir = tmpdir("expect_subcommand_end_to_end");
    // G_s: g = sum over rows; G_d: per-rank partials + aggregate.
    let mut gs = GraphBuilder::new("seq");
    let x = gs.input("x", &[4, 2], DType::F32);
    let g = gs
        .apply(
            "grad",
            Op::SumDim {
                dim: 0,
                keepdim: false,
            },
            &[x],
        )
        .unwrap();
    gs.mark_output(g);
    let gs = gs.finish().unwrap();

    let mut gd = GraphBuilder::new("dist");
    let x0 = gd.input("x.0", &[2, 2], DType::F32);
    let x1 = gd.input("x.1", &[2, 2], DType::F32);
    let g0 = gd
        .apply(
            "grad.0",
            Op::SumDim {
                dim: 0,
                keepdim: false,
            },
            &[x0],
        )
        .unwrap();
    let g1 = gd
        .apply(
            "grad.1",
            Op::SumDim {
                dim: 0,
                keepdim: false,
            },
            &[x1],
        )
        .unwrap();
    let agg = gd.apply("grad_agg", Op::AllReduce, &[g0, g1]).unwrap();
    gd.mark_output(g0);
    gd.mark_output(g1);
    gd.mark_output(agg);
    let gd = gd.finish().unwrap();

    let gs_path = dir.join("exp_gs.json");
    let gd_path = dir.join("exp_gd.json");
    fs::write(&gs_path, gs.to_json().unwrap()).unwrap();
    fs::write(&gd_path, gd.to_json().unwrap()).unwrap();

    let base = |fd: &str| Command::Expect {
        gs: gs_path.to_str().unwrap().to_owned(),
        gd: gd_path.to_str().unwrap().to_owned(),
        maps: vec![("x".to_owned(), "(concat x.0 x.1 0)".to_owned())],
        fs: "grad".to_owned(),
        fd: fd.to_owned(),
    };
    // Correct expectation: the aggregated gradient.
    assert_eq!(run(&base("grad_agg")), 0);
    // Wrong expectation: rank-local partial — violation, exit code 1.
    assert_eq!(run(&base("grad.0")), 1);
    // Malformed expectation — usage error, exit code 2.
    assert_eq!(run(&base("(concat nonexistent grad.0 0)")), 2);

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn lint_subcommand_parsing() {
    let to_args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    assert!(matches!(
        parse_args(&to_args(&["lint", "g.json"])),
        Ok(Command::Lint { .. })
    ));
    assert!(parse_args(&to_args(&["lint"])).is_err());
    assert!(parse_args(&to_args(&["lint", "g.json", "--bogus"])).is_err());
}

#[test]
fn lint_subcommand_end_to_end() {
    use entangle_ir::{DType, Dim, GraphBuilder, Op};
    let dir = tmpdir("lint_subcommand_end_to_end");

    // A well-formed graph lints clean: exit code 0.
    let cfg = ModelConfig::tiny();
    let clean_path = dir.join("lint_clean.json");
    fs::write(&clean_path, gpt(&cfg).to_json().unwrap()).unwrap();
    let cmd = Command::Lint {
        graph: clean_path.to_str().unwrap().to_owned(),
        json: false,
    };
    assert_eq!(run(&cmd), 0, "well-formed graph lints clean");

    // A gap-sharded graph (rows [4, 5) in no shard) exits 3.
    let mut gd = GraphBuilder::new("missharded");
    let x = gd.input("X", &[8, 4], DType::F32);
    let s1 = gd
        .apply(
            "S1",
            Op::Slice {
                dim: 0,
                start: Dim::from(0),
                end: Dim::from(4),
            },
            &[x],
        )
        .unwrap();
    let s2 = gd
        .apply(
            "S2",
            Op::Slice {
                dim: 0,
                start: Dim::from(5),
                end: Dim::from(8),
            },
            &[x],
        )
        .unwrap();
    gd.mark_output(s1);
    gd.mark_output(s2);
    let gd = gd.finish().unwrap();
    let bad_path = dir.join("lint_bad.json");
    fs::write(&bad_path, gd.to_json().unwrap()).unwrap();
    let cmd = Command::Lint {
        graph: bad_path.to_str().unwrap().to_owned(),
        json: false,
    };
    assert_eq!(run(&cmd), 3, "sharding gap is a lint error");

    // Missing file stays a usage error.
    let cmd = Command::Lint {
        graph: "/nonexistent.json".to_owned(),
        json: false,
    };
    assert_eq!(run(&cmd), 2);

    fs::remove_dir_all(&dir).ok();
}
