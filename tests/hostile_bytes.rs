//! Hostile bytes against the real binary: a file built to exhaust its stack
//! must be *refused* — exit 4 with a diagnostic from `certify --check`, the
//! trusted re-checker, exit 2 from the `--maps` reader and from `trace
//! --check`, a skipped line from the run-ledger reader — not abort it
//! (SIGABRT, 134). And a reader that goes away before the output is written
//! ends the run with exit 141, not a panic (101). Last, the plain case: two
//! cold runs of one check print the same bytes.
//!
//! These spawn `entangle` rather than call the library: an overflow inside
//! the test process would take the harness down with it instead of failing
//! one test.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::sync::OnceLock;

use entangle_ir::{DType, GraphBuilder, Op};

/// The `entangle` binary of this tree and profile, built (a no-op when it
/// is fresh) by the cargo that is running the tests. The root package does
/// not depend on `entangle-cli`, so cargo does not hand the path over.
fn entangle() -> &'static Path {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        // <target>/<profile>/deps/hostile_bytes-<hash>
        let exe = std::env::current_exe().expect("the test binary has a path");
        let profile_dir = exe
            .parent()
            .and_then(Path::parent)
            .expect("test binaries live in <target>/<profile>/deps");
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
        let mut build = Command::new(cargo);
        build
            .args(["build", "--quiet", "--offline", "-p", "entangle-cli"])
            .current_dir(env!("CARGO_MANIFEST_DIR"));
        if profile_dir.file_name().is_some_and(|p| p == "release") {
            build.arg("--release");
        }
        let built = build.output().expect("cargo runs");
        assert!(
            built.status.success(),
            "building entangle-cli failed:\n{}",
            String::from_utf8_lossy(&built.stderr)
        );
        let bin = profile_dir.join("entangle");
        assert!(bin.exists(), "{} was not built", bin.display());
        bin
    })
}

/// Runs `entangle <subcommand> gs gd <flag> <file>` on a tiny valid graph
/// pair and a file of the given bytes.
fn run(case: &str, subcommand: &str, flag: &str, bytes: &str) -> Output {
    let dir = std::env::temp_dir().join(format!("entangle-hostile-{}-{case}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let graph = |name: &str| {
        let mut b = GraphBuilder::new(name);
        let x = b.input("x", &[4, 4], DType::F32);
        let y = b.apply("y", Op::Neg, &[x]).expect("infers");
        b.mark_output(y);
        b.finish().expect("valid").to_json().expect("serializes")
    };
    let path = |file: &str| dir.join(file);
    std::fs::write(path("gs.json"), graph("gs")).expect("writes");
    std::fs::write(path("gd.json"), graph("gd")).expect("writes");
    std::fs::write(path("hostile"), bytes).expect("writes");
    let out = Command::new(entangle())
        .arg(subcommand)
        .args([path("gs.json"), path("gd.json")])
        .arg(flag)
        .arg(path("hostile"))
        .arg("--no-ledger")
        .output()
        .expect("entangle runs");
    std::fs::remove_dir_all(&dir).ok();
    out
}

/// `entangle certify gs gd --check <cert>` on the given certificate bytes.
fn recheck(case: &str, cert: &str) -> Output {
    run(case, "certify", "--check", cert)
}

fn assert_refused(out: &Output, diagnostic: &str) {
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(4),
        "expected exit 4 (certificate rejected), got {:?}\nstdout: {stdout}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("Certificate REJECTED") && stdout.contains(diagnostic),
        "no diagnostic naming {diagnostic:?} in: {stdout}"
    );
}

#[test]
fn a_hundred_thousand_link_term_chain_is_refused_not_a_stack_overflow() {
    // A well-formed table (every argument an earlier entry) spelling one
    // term 100 000 applications deep, and a certificate that uses it.
    let mut cert = String::from("{\"version\":2,\"gs\":\"gs\",\"gd\":\"gd\",\n\"terms\":[\n\"x\"");
    for link in 1..=100_000 {
        cert.push_str(&format!(",\n[\"neg\",{}]", link - 1));
    }
    cert.push_str(
        "\n],\n\"inputs\":[\n{\"tensor\":\"x\",\"exprs\":[100000]}\n],\n\
         \"mappings\":[],\n\"outputs\":[\n{\"tensor\":\"y\",\"expr\":100000}\n]}",
    );
    assert_refused(&recheck("chain", &cert), "nests deeper than");
}

#[test]
fn two_hundred_kilobytes_of_open_brackets_are_refused_not_a_stack_overflow() {
    assert_refused(
        &recheck("brackets", &"[".repeat(200 * 1024)),
        "nesting deeper than",
    );
}

#[test]
fn two_hundred_thousand_nested_applications_in_a_maps_file_are_a_usage_error() {
    let links = 200_000;
    let maps = format!("x = {}x{}\n", "(neg ".repeat(links), ")".repeat(links));
    let out = run("maps", "check", "--maps", &maps);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "expected exit 2 (usage error), got {:?}\nstderr: {stderr}",
        out.status
    );
    // One diagnostic line, then the usage text every exit 2 prints.
    let diagnostic = stderr.lines().next().unwrap_or_default();
    assert!(
        diagnostic.starts_with("error: mapping x:") && diagnostic.contains("nests deeper than"),
        "{stderr}"
    );
    assert!(
        !stderr.contains("panicked") && !stderr.contains("overflow"),
        "{stderr}"
    );
}

/// Runs `entangle <args>` with `file` holding `bytes` substituted for the
/// argument `"FILE"`.
fn run_on_file(case: &str, bytes: &str, args: &[&str]) -> Output {
    run_on_files(case, &[("FILE", bytes)], args)
}

/// Runs `entangle <args>` with each argument that names one of `files`
/// replaced by the path of a file holding its bytes.
fn run_on_files(case: &str, files: &[(&str, &str)], args: &[&str]) -> Output {
    let dir = std::env::temp_dir().join(format!("entangle-hostile-{}-{case}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (name, bytes) in files {
        std::fs::write(dir.join(name), bytes).expect("writes");
    }
    let out = Command::new(entangle())
        .args(args.iter().map(|&a| {
            if files.iter().any(|(name, _)| *name == a) {
                dir.join(a).into_os_string()
            } else {
                a.into()
            }
        }))
        .output()
        .expect("entangle runs");
    std::fs::remove_dir_all(&dir).ok();
    out
}

/// `entangle --ledger FILE report` on the given ledger bytes.
fn report(case: &str, ledger: &str) -> Output {
    run_on_file(case, ledger, &["--ledger", "FILE", "report"])
}

#[test]
fn three_hundred_thousand_open_brackets_in_a_ledger_line_are_skipped_not_a_stack_overflow() {
    let out = report("ledger-brackets", &format!("{}\n", "[".repeat(300_000)));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stdout}{stderr}");
    assert!(stdout.contains("skipped 1 malformed line(s)"), "{stdout}");
    assert!(!stderr.contains("overflow"), "{stderr}");
}

#[test]
fn report_on_a_ledger_of_malformed_lines_says_how_many_it_skipped() {
    let out = report(
        "ledger-garbage",
        "not json\n{\"schema\":1,\"kind\":\"ch\n\n",
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(
        stdout.contains("has no readable record: skipped 2 malformed line(s)"),
        "{stdout}"
    );
    // A ledger with no lines at all is empty, and says that instead.
    let out = report("ledger-empty", "");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("is empty"), "{stdout}");
}

#[test]
fn three_hundred_thousand_nested_attrs_objects_are_refused_not_a_stack_overflow() {
    let depth = 300_000;
    let record = format!(
        "{{\"type\":\"begin\",\"id\":1,\"parent\":null,\"name\":\"x\",\"t_us\":0,\"attrs\":{}\"v\"{}}}\n",
        "{\"a\":".repeat(depth),
        "}".repeat(depth)
    );
    let out = run_on_file("trace-attrs", &record, &["trace", "--check", "FILE"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    let diagnostic = stderr.lines().next().unwrap_or_default();
    assert!(
        diagnostic.starts_with("error: ") && diagnostic.contains("attrs is one flat object"),
        "{stderr}"
    );
    assert!(!stderr.contains("overflow"), "{stderr}");
}

/// A balanced trace of 200 000 spans, each the parent of the next: every
/// parent check is one lookup, so validating it is linear in the records
/// (a scan of the open stack per record took seconds at 40 000).
#[test]
fn two_hundred_thousand_nested_spans_check_in_linear_time() {
    let depth = 200_000;
    let mut trace = String::with_capacity(depth * 120);
    for id in 1..=depth {
        let parent = if id == 1 {
            "null".to_owned()
        } else {
            (id - 1).to_string()
        };
        trace.push_str(&format!(
            "{{\"type\":\"begin\",\"id\":{id},\"parent\":{parent},\"name\":\"s\",\"t_us\":0}}\n"
        ));
    }
    for id in (1..=depth).rev() {
        trace.push_str(&format!(
            "{{\"type\":\"end\",\"id\":{id},\"name\":\"s\",\"t_us\":1}}\n"
        ));
    }
    let start = std::time::Instant::now();
    let out = run_on_file("trace-deep", &trace, &["trace", "--check", "FILE"]);
    let elapsed = start.elapsed();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stdout}{stderr}");
    assert!(
        elapsed < std::time::Duration::from_secs(20),
        "trace --check took {elapsed:?}"
    );
}

#[test]
fn a_stdout_closed_before_the_output_is_a_quiet_exit_141() {
    // `entangle num --json | head -c 10`, with the reader gone before the
    // binary writes a byte, so no pipe buffer can absorb the output.
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    let out = Command::new(entangle())
        .args(["num", "--json", "--no-ledger"])
        .stdout(writer)
        .stderr(Stdio::piped())
        .spawn()
        .expect("entangle runs")
        .wait_with_output()
        .expect("entangle exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(141),
        "expected exit 141 (output closed), got {:?}\nstderr: {stderr}",
        out.status
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn two_cold_checks_print_identical_stdout_and_jobs_is_not_a_flag() {
    let base = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/graphs/moe_tpsp2");
    let file = |ext: &str| base.with_extension(ext);
    let check = |extra: &[&str]| {
        Command::new(entangle())
            .arg("check")
            .args([file("gs.json"), file("gd.json")])
            .arg("--maps")
            .arg(file("maps"))
            .arg("--no-ledger")
            .args(extra)
            .output()
            .expect("entangle runs")
    };
    let (first, second) = (check(&[]), check(&[]));
    let stdout = String::from_utf8_lossy(&first.stdout);
    assert_eq!(first.status.code(), Some(0), "{stdout}");
    assert!(
        stdout.lines().any(|l| l.starts_with("memo     : cache ")),
        "{stdout}"
    );
    assert_eq!(stdout, String::from_utf8_lossy(&second.stdout));
    let rejected = check(&["--jobs", "2"]);
    let stderr = String::from_utf8_lossy(&rejected.stderr);
    assert_eq!(rejected.status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with("error: unknown flag --jobs"), "{stderr}");
    assert!(rejected.stdout.is_empty(), "{stderr}");
}

/// `certify --check` of a certificate whose one mapping's proof is `levels`
/// congruence steps, each the only child of the one before: three levels of
/// JSON nesting per step.
fn nested_proof(levels: usize) -> String {
    let step = "{\"kind\":\"congruence\",\"before\":0,\"after\":0,\"children\":[[";
    format!(
        "{{\"version\":2,\"gs\":\"gs\",\"gd\":\"gd\",\"terms\":[\"x\"],\"inputs\":[],\
         \"mappings\":[{{\"tensor\":\"y\",\"operator\":\"y\",\"inputs\":[],\"expr\":0,\
         \"proof\":[{}{}]}}],\"outputs\":[]}}",
        step.repeat(levels),
        "]]}".repeat(levels)
    )
}

#[test]
fn congruence_children_nested_past_the_bound_are_refused_not_a_stack_overflow() {
    assert_refused(
        &recheck("children", &nested_proof(100)),
        "nesting deeper than",
    );
    assert_refused(
        &recheck("children-deep", &nested_proof(100_000)),
        "nesting deeper than",
    );
}

#[test]
fn an_unknown_member_nested_past_the_bound_is_refused_not_skipped() {
    let depth = 300;
    let cert = format!(
        "{{\"version\":2,\"comment\":{}{},\"gs\":\"gs\"}}",
        "[".repeat(depth),
        "]".repeat(depth)
    );
    assert_refused(&recheck("unknown-member", &cert), "nesting deeper than");
}

/// The `gpt_tp2` example pair: its `G_s`, `G_d` text and maps file.
fn example(ext: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples/graphs/gpt_tp2")
        .with_extension(ext)
}

/// `entangle check` of the `gpt_tp2` pair with `G_d` given as `gd` text.
fn check_gd(case: &str, gd: &str) -> Output {
    let (gs, maps) = (example("gs.json"), example("maps"));
    run_on_file(
        case,
        gd,
        &[
            "check",
            gs.to_str().expect("utf-8 path"),
            "FILE",
            "--maps",
            maps.to_str().expect("utf-8 path"),
            "--no-ledger",
        ],
    )
}

fn read_example(ext: &str) -> String {
    std::fs::read_to_string(example(ext)).expect("an example file")
}

#[test]
fn a_gd_file_nested_past_the_bound_is_a_usage_error_not_a_stack_overflow() {
    let depth = 300;
    let gd = read_example("gd.json").replacen(
        "{\n",
        &format!(
            "{{\n  \"extra\": {}{},\n",
            "[".repeat(depth),
            "]".repeat(depth)
        ),
        1,
    );
    let out = check_gd("gd-nesting", &gd);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    let diagnostic = stderr.lines().next().unwrap_or_default();
    assert!(
        diagnostic.starts_with("error: ") && diagnostic.contains("nesting deeper than 256"),
        "{stderr}"
    );
    assert!(!stderr.contains("overflow"), "{stderr}");
}

#[test]
fn a_graph_whose_nodes_come_before_its_tensors_loads() {
    let gd = read_example("gd.json");
    let section = |key: &str| {
        gd.find(&format!("\n  \"{key}\": "))
            .expect("a top-level member")
    };
    let (tensors, nodes, inputs) = (section("tensors"), section("nodes"), section("inputs"));
    let swapped = [
        &gd[..tensors],
        &gd[nodes..inputs],
        &gd[tensors..nodes],
        &gd[inputs..],
    ]
    .concat();
    assert_ne!(swapped, gd);
    let (original, reordered) = (
        check_gd("gd-in-order", &gd),
        check_gd("gd-swapped", &swapped),
    );
    let stdout = String::from_utf8_lossy(&reordered.stdout);
    assert_eq!(reordered.status.code(), Some(0), "{stdout}");
    assert_eq!(stdout, String::from_utf8_lossy(&original.stdout));
}

/// `entangle certify` of the `gpt_tp2` pair: `--emit`s its certificate
/// into a scratch directory, or `--check`s the given certificate text.
fn certify_example(case: &str, cert: Option<&str>) -> (Output, String) {
    let dir = std::env::temp_dir().join(format!("entangle-hostile-{}-{case}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = dir.join("cert.json");
    let mut cmd = Command::new(entangle());
    cmd.arg("certify")
        .args([example("gs.json"), example("gd.json")]);
    match cert {
        Some(text) => {
            std::fs::write(&file, text).expect("writes");
            cmd.arg("--check").arg(&file);
        }
        None => {
            cmd.arg("--maps")
                .arg(example("maps"))
                .arg("--emit")
                .arg(&file);
        }
    }
    let out = cmd.arg("--no-ledger").output().expect("entangle runs");
    let written = std::fs::read_to_string(&file).unwrap_or_default();
    std::fs::remove_dir_all(&dir).ok();
    (out, written)
}

#[test]
fn a_certificate_whose_mappings_come_before_its_terms_verifies_alike() {
    let (emitted, cert) = certify_example("cert-emit", None);
    assert_eq!(emitted.status.code(), Some(0), "{emitted:?}");
    let section = |key: &str| {
        cert.find(&format!(",\n\"{key}\":"))
            .expect("a top-level member")
    };
    let (terms, mappings, outputs) = (section("terms"), section("mappings"), section("outputs"));
    let moved = [
        &cert[..terms],
        &cert[mappings..outputs],
        &cert[terms..mappings],
        &cert[outputs..],
    ]
    .concat();
    assert_ne!(moved, cert);
    let (in_order, _) = certify_example("cert-in-order", Some(&cert));
    let (reordered, _) = certify_example("cert-moved", Some(&moved));
    let stdout = String::from_utf8_lossy(&reordered.stdout);
    assert_eq!(reordered.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("Certificate verified: "), "{stdout}");
    assert_eq!(stdout, String::from_utf8_lossy(&in_order.stdout));
}

#[test]
fn a_duplicated_member_is_refused() {
    let cert = "{\"version\":2,\"gs\":\"gs\",\"gs\":\"gs\"}";
    assert_refused(
        &recheck("duplicate-member", cert),
        "duplicate object key \"gs\"",
    );
    let gd = read_example("gd.json").replacen("{\n", "{\n  \"outputs\": [],\n", 1);
    let out = check_gd("gd-duplicate", &gd);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("duplicate object key \"outputs\""),
        "{stderr}"
    );
}

/// A one-operator graph: `y = op(x)` over `x: [4, 4]`.
fn one_op_graph(name: &str, op: Op) -> String {
    let mut b = GraphBuilder::new(name);
    let x = b.input("x", &[4, 4], DType::F32);
    let y = b.apply("y", op, &[x]).expect("infers");
    b.mark_output(y);
    b.finish().expect("valid").to_json().expect("serializes")
}

#[test]
fn a_scale_of_i64_min_over_minus_one_is_checked_not_a_panic() {
    let scale = Op::ScalarMul {
        numer: i64::MIN,
        denom: -1,
    };
    let (gs, gd) = (one_op_graph("gs", scale.clone()), one_op_graph("gd", scale));
    let out = run_on_files(
        "scale-overflow",
        &[("gs.json", &gs), ("gd.json", &gd)],
        &["check", "gs.json", "gd.json", "--map", "x=x", "--no-ledger"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn an_element_count_past_i64_is_a_usage_error_for_check_and_lint() {
    // `x: [2^62, 4]` reshaped to `[0]`: 2^64 elements wrap to 0 in `i64`,
    // so an unchecked count makes the reshape look element-preserving and
    // lint clean. Only the reader can refuse it.
    let graph = r#"{"name": "g", "tensors": [
        {"id": 0, "name": "x", "shape": [4611686018427387904, 4], "dtype": "F32", "producer": null},
        {"id": 1, "name": "y", "shape": [0], "dtype": "F32", "producer": 0}],
      "nodes": [{"id": 0, "name": "y", "op": {"Reshape": {"shape": [0]}}, "inputs": [0], "output": 1}],
      "inputs": [0], "outputs": [1]}"#;
    let at =
        graph.find("4611686018427387904, 4]").expect("the size") + "4611686018427387904, ".len();
    let files = [("gs.json", graph), ("gd.json", graph)];
    let check = ["check", "gs.json", "gd.json", "--map", "x=x", "--no-ledger"];
    for args in [&check[..], &["lint", "gd.json"]] {
        let out = run_on_files("huge-count", &files, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let diagnostic = stderr.lines().next().unwrap_or_default();
        assert!(
            diagnostic.contains(&format!(
                "tensor[0]: dimension 4 at byte {at} takes the element count past i64"
            )),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn a_negative_size_is_a_usage_error_for_check_and_lint() {
    // `y = x · w` with `x: [-4, 4]`, `w: [4, -3]`, `y: [-4, -3]`: consistent
    // under shape inference, so only the reader can refuse it.
    let graph = r#"{"name": "g", "tensors": [
        {"id": 0, "name": "x", "shape": [-4, 4], "dtype": "F32", "producer": null},
        {"id": 1, "name": "w", "shape": [4, -3], "dtype": "F32", "producer": null},
        {"id": 2, "name": "y", "shape": [-4, -3], "dtype": "F32", "producer": 0}],
      "nodes": [{"id": 0, "name": "y", "op": "Matmul", "inputs": [0, 1], "output": 2}],
      "inputs": [0, 1], "outputs": [2]}"#;
    let files = [("gs.json", graph), ("gd.json", graph)];
    let check = [
        "check",
        "gs.json",
        "gd.json",
        "--map",
        "x=x",
        "--map",
        "w=w",
        "--no-ledger",
    ];
    for args in [&check[..], &["lint", "gd.json"]] {
        let out = run_on_files("negative-size", &files, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let diagnostic = stderr.lines().next().unwrap_or_default();
        assert!(
            diagnostic.contains("tensor[0]: negative dimension -4 at byte 68"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn an_oversized_ones_leaf_leaves_the_model_not_the_process() {
    // `o = ones_like(x)` against `o = ones_like(neg(x))` at `x: [2³¹, 2]`
    // verifies through the synthetic leaf `~ones[2147483648, 2]`. Its 2³²
    // elements are past the numeric model's element cap, so the output is
    // `unknown` with a note, not a 64 GiB allocation (SIGABRT, 134).
    let graph = |name: &str, neg: bool| {
        let mut b = GraphBuilder::new(name);
        let mut x = b.input("x", &[1 << 31, 2], DType::F32);
        if neg {
            x = b.apply("n", Op::Neg, &[x]).expect("infers");
        }
        let o = b.apply("o", Op::OnesLike, &[x]).expect("infers");
        b.mark_output(o);
        b.finish().expect("valid").to_json().expect("serializes")
    };
    let (gs, gd) = (graph("gs", false), graph("gd", true));
    let out = run_on_files(
        "huge-ones",
        &[("gs.json", &gs), ("gd.json", &gd)],
        &["check", "gs.json", "gd.json", "--map", "x=x", "--no-ledger"],
    );
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert_eq!(out.status.code(), Some(0), "{stdout}{stderr}");
    assert!(
        stdout.contains(
            "  o : unknown\n  note: mapping o: step by lemma ones_like-canonical left the \
             model: leaf ?0[2147483648, 2] exceeds element cap (4294967296)\n"
        ),
        "{stdout}"
    );
}
