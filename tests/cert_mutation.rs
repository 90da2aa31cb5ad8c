//! Mutation proptests for the trusted kernel: random single-step
//! corruptions of a real, kernel-accepted certificate — wrong lemma id,
//! corrupted substitution, truncated chain, shuffled chain — must all be
//! rejected. The base certificate comes from GPT under TP2, so the mutated
//! proofs are the genuine article, not synthetic strawmen.
//!
//! The second half forges the *file*: the term table a certificate's JSON
//! text shares its terms through. A bad reference is `Malformed` at the
//! reader; a reference to a different, well-formed term is the kernel's to
//! reject; a duplicated entry changes no term and must change no verdict.

use std::sync::OnceLock;

use entangle::{check_refinement, CheckOptions};
use entangle_cert::{exprs_eq, CertError, Certificate};
use entangle_egraph::{Proof, ProofStep, RecExpr};
use entangle_ir::Graph;
use entangle_lemmas::{registry, rewrites_of};
use entangle_models::{gpt, Arch, ModelConfig};
use entangle_parallel::{parallelize, Strategy};
use entangle_symbolic::SymCtx;
use proptest::prelude::*;

fn base() -> &'static (Graph, Graph, Certificate) {
    static CELL: OnceLock<(Graph, Graph, Certificate)> = OnceLock::new();
    CELL.get_or_init(|| {
        let cfg = ModelConfig::tiny();
        let gs = gpt(&cfg);
        let dist = parallelize(&cfg, Arch::Gpt, &Strategy::tp(2));
        let ri = dist.relation(&gs).expect("relation builds");
        let outcome = check_refinement(&gs, &dist.graph, &ri, &CheckOptions::default())
            .expect("gpt tp2 certifies");
        let cert = outcome.certificate.expect("certificate emitted");
        (gs, dist.graph, cert)
    })
}

fn kernel_rejects(cert: &Certificate) -> bool {
    let (gs, gd, _) = base();
    entangle_cert::verify(cert, gs, gd, &rewrites_of(&registry()), &SymCtx::new()).is_err()
}

/// `(mapping index, step index)` of every top-level [`ProofStep::Rule`].
fn rule_positions(cert: &Certificate, need_subst: bool) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (m, mc) in cert.mappings.iter().enumerate() {
        for (s, step) in mc.proof.steps.iter().enumerate() {
            if let ProofStep::Rule { subst, .. } = step {
                if !need_subst || !subst.is_empty() {
                    out.push((m, s));
                }
            }
        }
    }
    out
}

/// Deterministic xorshift for building permutations from a proptest seed.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x.max(1);
    x
}

/// Does `steps` still form a well-shaped chain with the same endpoints as
/// `orig`? (Endpoint + adjacency check only; used to discard the rare
/// shuffle that happens to reconstitute a valid chain.)
fn still_chains(steps: &[ProofStep], orig: &[ProofStep]) -> bool {
    exprs_eq(steps[0].before(), orig[0].before())
        && exprs_eq(steps[steps.len() - 1].after(), orig[orig.len() - 1].after())
        && steps
            .windows(2)
            .all(|w| exprs_eq(w[0].after(), w[1].before()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn unknown_lemma_ids_are_rejected(raw in 0usize..10_000, tag in 0u32..1000) {
        let (_, _, cert) = base();
        let rules = rule_positions(cert, false);
        prop_assert!(!rules.is_empty(), "base certificate has rule steps");
        let (m, s) = rules[raw % rules.len()];
        let mut bad = cert.clone();
        if let ProofStep::Rule { name, .. } = &mut bad.mappings[m].proof.steps[s] {
            *name = format!("no-such-lemma-{tag}");
        }
        prop_assert!(kernel_rejects(&bad), "forged lemma id at mapping {m} step {s}");
    }

    #[test]
    fn corrupted_substitutions_are_rejected(raw in 0usize..10_000, bind in 0usize..10_000) {
        let (_, _, cert) = base();
        let rules = rule_positions(cert, true);
        prop_assert!(!rules.is_empty(), "base certificate has rule steps with bindings");
        let (m, s) = rules[raw % rules.len()];
        let mut bad = cert.clone();
        if let ProofStep::Rule { subst, before, after, .. } = &mut bad.mappings[m].proof.steps[s] {
            let k = bind % subst.len();
            // Swap the binding for a different subterm of the step: the
            // kernel re-derives the true bindings by matching and must
            // notice the disagreement.
            let replacement: RecExpr = if exprs_eq(&subst[k].1, after) {
                before.clone()
            } else {
                after.clone()
            };
            prop_assume!(!exprs_eq(&subst[k].1, &replacement));
            subst[k].1 = replacement;
        }
        prop_assert!(kernel_rejects(&bad), "corrupted binding at mapping {m} step {s}");
    }

    #[test]
    fn truncated_chains_are_rejected(raw in 0usize..10_000) {
        let (_, _, cert) = base();
        let nonempty: Vec<usize> = cert
            .mappings
            .iter()
            .enumerate()
            .filter(|(_, mc)| !mc.proof.steps.is_empty())
            .map(|(m, _)| m)
            .collect();
        prop_assert!(!nonempty.is_empty(), "base certificate has nonempty proofs");
        let m = nonempty[raw % nonempty.len()];
        let mut bad = cert.clone();
        let dropped = bad.mappings[m].proof.steps.pop().expect("nonempty");
        // Dropping a reflexive step would leave the chain intact; real
        // chains never contain one, but guard the test against it.
        prop_assume!(!exprs_eq(dropped.before(), dropped.after()));
        prop_assert!(kernel_rejects(&bad), "truncated chain at mapping {m}");
    }

    #[test]
    fn shuffled_chains_are_rejected(raw in 0usize..10_000, seed in 1u64..u64::MAX) {
        let (_, _, cert) = base();
        let multi: Vec<usize> = cert
            .mappings
            .iter()
            .enumerate()
            .filter(|(_, mc)| mc.proof.steps.len() >= 2)
            .map(|(m, _)| m)
            .collect();
        prop_assert!(!multi.is_empty(), "base certificate has multi-step proofs");
        let m = multi[raw % multi.len()];
        let mut bad = cert.clone();
        let steps = &mut bad.mappings[m].proof.steps;
        let mut state = seed;
        for i in (1..steps.len()).rev() {
            let j = (xorshift(&mut state) as usize) % (i + 1);
            steps.swap(i, j);
        }
        // Discard the identity permutation and the (theoretical) shuffle
        // that still chains end to end.
        let orig: &Proof = &cert.mappings[m].proof;
        prop_assume!(!still_chains(steps, &orig.steps));
        prop_assert!(kernel_rejects(&bad), "shuffled chain at mapping {m}");
    }
}

// ---------------------------------------------------------------------------
// Forgery at the term table
// ---------------------------------------------------------------------------

/// The base certificate's JSON text, split around its term table: the
/// header line, one string per table entry (as written, no separator), and
/// everything from the table's closing bracket on.
fn base_table() -> (String, Vec<String>, String) {
    let (_, _, cert) = base();
    let text = entangle_cert::to_json(cert).expect("base certificate serializes");
    let (head, rest) = text
        .split_once("\"terms\":[\n")
        .expect("a version 2 certificate has a term table");
    let (table, tail) = rest.split_once("\n],").expect("the table closes");
    let entries = table.split(",\n").map(str::to_owned).collect();
    (
        format!("{head}\"terms\":[\n"),
        entries,
        format!("\n],{tail}"),
    )
}

fn assemble(head: &str, entries: &[String], tail: &str) -> String {
    format!("{head}{}{tail}", entries.join(",\n"))
}

/// Reads and re-checks a certificate text the way `certify --check` does.
fn recheck(text: &str) -> Result<(), CertError> {
    let (gs, gd, _) = base();
    let cert = entangle_cert::from_json(text)?;
    entangle_cert::verify(&cert, gs, gd, &rewrites_of(&registry()), &SymCtx::new())
}

/// Indices of the table entries that are applications (`[head, id, ...]`).
fn applications(entries: &[String]) -> Vec<usize> {
    (0..entries.len())
        .filter(|&i| entries[i].starts_with('['))
        .collect()
}

/// `["head",a,b,...]` → (`"head"`, [a, b, ...]).
fn parse_application(entry: &str) -> (String, Vec<usize>) {
    let inner = &entry[1..entry.len() - 1];
    let (head, args) = inner
        .split_once("\",")
        .expect("an application has arguments");
    let ids = args.split(',').map(|a| a.parse().expect("an id")).collect();
    (format!("{head}\""), ids)
}

fn application(head: &str, ids: &[usize]) -> String {
    let ids: Vec<String> = ids.iter().map(usize::to_string).collect();
    format!("[{head},{}]", ids.join(","))
}

/// The byte range of every step's `after` id in `tail`, with the id.
fn after_ids(tail: &str) -> Vec<(std::ops::Range<usize>, usize)> {
    tail.match_indices("\"after\":")
        .map(|(i, key)| {
            let start = i + key.len();
            let len = tail[start..]
                .find(|c: char| !c.is_ascii_digit())
                .expect("an id ends");
            (
                start..start + len,
                tail[start..start + len].parse().expect("an id"),
            )
        })
        .collect()
}

/// `tail` with the id at `at` replaced by `id`.
fn retarget(tail: &str, at: &std::ops::Range<usize>, id: usize) -> String {
    format!("{}{id}{}", &tail[..at.start], &tail[at.end..])
}

#[test]
fn the_untouched_text_rechecks() {
    let (head, entries, tail) = base_table();
    recheck(&assemble(&head, &entries, &tail)).expect("the base certificate is accepted");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn bad_table_references_are_malformed(raw in 0usize..10_000, arg in 0usize..8, kind in 0usize..4) {
        let (head, mut entries, tail) = base_table();
        let apps = applications(&entries);
        let at = apps[raw % apps.len()];
        let (op, mut ids) = parse_application(&entries[at]);
        let k = arg % ids.len();
        entries[at] = match kind {
            // Past the end of the table, itself, a later entry, no arguments.
            0 => { ids[k] = entries.len() + raw; application(&op, &ids) }
            1 => { ids[k] = at; application(&op, &ids) }
            2 => { ids[k] = at + 1 + raw % (entries.len() - at); application(&op, &ids) }
            _ => format!("[{op}]"),
        };
        let verdict = recheck(&assemble(&head, &entries, &tail));
        prop_assert!(
            matches!(verdict, Err(CertError::Malformed(_))),
            "entry {} forged as {} gave {:?}", at, entries[at], verdict
        );
    }

    #[test]
    fn positions_past_the_table_are_malformed(raw in 0usize..10_000) {
        let (head, entries, tail) = base_table();
        // Retarget one `"after":N` to an id the table does not have.
        let afters = after_ids(&tail);
        let (at, _) = &afters[raw % afters.len()];
        let forged = retarget(&tail, at, entries.len() + raw);
        let verdict = recheck(&assemble(&head, &entries, &forged));
        prop_assert!(matches!(verdict, Err(CertError::Malformed(_))), "{:?}", verdict);
    }

    #[test]
    fn a_position_retargeted_to_a_same_shaped_term_is_rejected(raw in 0usize..10_000) {
        let (head, mut entries, tail) = base_table();
        // A step's `after` that is an application whose first two arguments
        // differ: swapping them (add(a, b) → add(b, a), concat likewise on
        // equal shards) is a different term of the same shape.
        let candidates: Vec<(std::ops::Range<usize>, usize)> = after_ids(&tail)
            .into_iter()
            .filter(|(_, id)| {
                entries[*id].starts_with('[') && {
                    let (_, ids) = parse_application(&entries[*id]);
                    ids.len() >= 2 && ids[0] != ids[1]
                }
            })
            .collect();
        prop_assert!(!candidates.is_empty(), "the base certificate has binary steps");
        let (at, id) = &candidates[raw % candidates.len()];
        let (op, mut ids) = parse_application(&entries[*id]);
        ids.swap(0, 1);
        entries.push(application(&op, &ids));
        let forged = retarget(&tail, at, entries.len() - 1);
        let text = assemble(&head, &entries, &forged);
        // Well-formed, so the reader takes it; the term changed, so the
        // kernel must not.
        prop_assert!(entangle_cert::from_json(&text).is_ok());
        let verdict = recheck(&text);
        prop_assert!(
            matches!(verdict, Err(CertError::Rejected { .. })),
            "swapped entry {} accepted as {:?}", entries[*id], verdict
        );
    }

    #[test]
    fn a_duplicated_entry_changes_nothing(raw in 0usize..10_000) {
        let (head, mut entries, tail) = base_table();
        // Copy one entry to the end of the table and point a position that
        // named the original at the copy: the same term under another id.
        let afters = after_ids(&tail);
        let (at, id) = &afters[raw % afters.len()];
        entries.push(entries[*id].clone());
        let forged = retarget(&tail, at, entries.len() - 1);
        let text = assemble(&head, &entries, &forged);
        prop_assert!(recheck(&text).is_ok(), "the kernel re-interns: ids are not trusted");
        // And the writer knows one canonical text per certificate.
        let (h, e, t) = base_table();
        let back = entangle_cert::from_json(&text).expect("parses");
        prop_assert_eq!(entangle_cert::to_json(&back).expect("serializes"), assemble(&h, &e, &t));
    }
}
