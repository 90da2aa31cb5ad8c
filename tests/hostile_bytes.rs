//! Hostile bytes against the real binary: a file built to exhaust its stack
//! must be *refused* — exit 4 with a diagnostic from `certify --check`, the
//! trusted re-checker, exit 2 from the `--maps` reader — not abort it
//! (SIGABRT, 134).
//!
//! These spawn `entangle` rather than call the library: an overflow inside
//! the test process would take the harness down with it instead of failing
//! one test.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
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
