//! The one-pass JSON reader against real documents: every example graph
//! and the certificate of every example pair read back to the bytes they
//! were written as, and no truncation, byte flip or splice of a real graph
//! or a real certificate makes either decoder panic — each is read or
//! refused.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use entangle::{check_refinement, CheckOptions, Relation};
use entangle_ir::Graph;
use proptest::prelude::*;

fn graphs_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/graphs")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every `examples/graphs/<pair>` base name, sorted.
fn pairs() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(graphs_dir())
        .expect("examples/graphs")
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            name.strip_suffix(".maps").map(str::to_owned)
        })
        .collect();
    names.sort();
    names
}

/// The certificate text of one example pair, as `certify --emit` writes it.
fn certificate(pair: &str) -> String {
    let base = graphs_dir().join(pair);
    let load = |ext: &str| {
        Graph::from_json(&read(&base.with_extension(ext))).expect("an example graph loads")
    };
    let (gs, gd) = (load("gs.json"), load("gd.json"));
    let mut ri = Relation::builder(&gs, &gd);
    for line in read(&base.with_extension("maps")).lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, expr) = line.split_once('=').expect("name = expr");
        ri.map(name.trim(), expr.trim())
            .expect("a mapping of the example");
    }
    let outcome = check_refinement(&gs, &gd, &ri.build(), &CheckOptions::default())
        .unwrap_or_else(|e| panic!("{pair} verifies: {e}"));
    entangle_cert::to_json(&outcome.certificate.expect("certify is on by default"))
        .expect("serializes")
}

/// A real graph and a real certificate to mutate.
fn documents() -> &'static [String; 2] {
    static DOCS: OnceLock<[String; 2]> = OnceLock::new();
    DOCS.get_or_init(|| {
        [
            read(&graphs_dir().join("gpt_tp2.gd.json")),
            certificate("gpt_tp2"),
        ]
    })
}

#[test]
fn graph_text_round_trips_on_every_example_graph() {
    let mut seen = 0;
    for pair in pairs() {
        for side in ["gs.json", "gd.json"] {
            let path = graphs_dir().join(&pair).with_extension(side);
            let text = read(&path);
            let graph = Graph::from_json(&text).expect("an example graph loads");
            assert!(
                graph.to_json().expect("serializes") == text,
                "{} does not read back to its own bytes",
                path.display()
            );
            seen += 1;
        }
    }
    assert_eq!(seen, 14, "seven example pairs");
}

#[test]
fn certificate_text_round_trips_on_every_example_pair() {
    let pairs = pairs();
    assert_eq!(pairs.len(), 7);
    for pair in pairs {
        let text = certificate(&pair);
        let cert = entangle_cert::from_json(&text).unwrap_or_else(|e| panic!("{pair}: {e}"));
        assert!(
            entangle_cert::to_json(&cert).expect("serializes") == text,
            "{pair}: the certificate does not read back to its own bytes"
        );
    }
}

/// `bytes` as a string, as a file read would hand it over (a mutation may
/// cut a multi-byte character: those bytes are replaced, not skipped).
fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// Both decoders on `text`: either may refuse it, neither may panic.
fn decode_both(text: &str) {
    let _ = Graph::from_json(text);
    let _ = entangle_cert::from_json(text);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_truncated_document_is_read_or_refused(doc in 0usize..2, at in 0usize..1 << 20) {
        let bytes = documents()[doc].as_bytes();
        decode_both(&text(&bytes[..at % bytes.len()]));
    }

    #[test]
    fn a_document_with_flipped_bytes_is_read_or_refused(
        doc in 0usize..2,
        flips in proptest::collection::vec((0usize..1 << 20, 0u8..8), 1..4),
    ) {
        let mut bytes = documents()[doc].as_bytes().to_vec();
        let len = bytes.len();
        for (at, bit) in flips {
            bytes[at % len] ^= 1 << bit;
        }
        decode_both(&text(&bytes));
    }

    #[test]
    fn a_spliced_document_is_read_or_refused(
        doc in 0usize..2,
        cut in 0usize..1 << 20,
        resume in 0usize..1 << 20,
    ) {
        // The text up to `cut`, then the text from `resume` on: a region
        // deleted, or (resume before cut) repeated.
        let bytes = documents()[doc].as_bytes();
        let (cut, resume) = (cut % bytes.len(), resume % bytes.len());
        decode_both(&text(&[&bytes[..cut], &bytes[resume..]].concat()));
    }
}
