//! Input generation: what each workload feeds the `entangle` binary.
//!
//! An input is a `(G_s, G_d, R_i)` triple built with the repository's own
//! model and strategy builders, serialized to the JSON interchange files
//! the CLI reads, plus the subcommand to run on it. The seed never changes
//! *what* is checked — the cost of a check is a steep function of graph
//! shape and tensor sizes, so a seed that drew different models would make
//! runs incomparable — it changes how the same problems are presented:
//! the order of the inputs within a round, the line order of every
//! `.maps` file, and which registered lemma the forged certificate names.
//!
//! Listing the inputs ([`plans`], [`presented`]) is cheap and is all the
//! driver process does; building and writing them ([`write_all`]) happens
//! in a child of its own. The driver has to stay small: a spawned child's
//! `ru_maxrss` starts from the spawner's own resident set.

use std::fs;
use std::path::Path;
use std::time::Instant;

use entangle::{check_refinement, CheckOptions};
use entangle_bench::{gpt_workload, llama_workload, zoo};
use entangle_cert::Certificate;
use entangle_egraph::ProofStep;
use entangle_ir::Graph;
use entangle_parallel::bugs::bug;
use entangle_symbolic::SymCtx;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The subcommand an input is run through.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mode {
    /// `entangle check`.
    Check,
    /// `entangle certify --emit FILE`.
    CertifyEmit,
    /// `entangle expect --fs EXPR --fd EXPR`.
    Expect { fs: String, fd: String },
    /// `entangle certify --check FILE` on a certificate written in set-up;
    /// `forged`: with one proof step's lemma name swapped beforehand.
    Recheck { forged: bool },
}

/// Where an input's graphs come from; cheap to list, costly to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recipe {
    /// A member of `entangle_bench::zoo()`, by file stem.
    Zoo(&'static str),
    /// GPT under TP+SP+VP, parallelism 8, two layers.
    GptTp8,
    /// Llama-3 under TP, parallelism 8, sixteen layers.
    LlamaDeep,
    /// Table 3 bug `id`, with the fault (`buggy`) or its fixed twin.
    Bug { id: usize, buggy: bool },
}

/// One input: its id (the key into `expected.tsv`), where its graphs come
/// from, and how the binary is run on it. Cheap: the graphs are only built
/// when [`write_all`] needs them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Input {
    pub id: String,
    pub recipe: Recipe,
    pub mode: Mode,
}

fn input(id: &str, recipe: Recipe, mode: Mode) -> Input {
    Input {
        id: id.to_owned(),
        recipe,
        mode,
    }
}

/// The canonical inputs of `workload`, in canonical order.
///
/// # Panics
///
/// Panics on a name outside [`crate::spec::WORKLOADS`] (checked at the
/// command line).
pub fn plans(workload: &str) -> Vec<Input> {
    let recheck = |id: &str, recipe, forged| input(id, recipe, Mode::Recheck { forged });
    match workload {
        "zoo_tp2" => ["gpt_tp2", "llama3_tpsp2", "qwen2_tp2"]
            .into_iter()
            .map(|stem| input(stem, Recipe::Zoo(stem), Mode::Check))
            .collect(),
        "gpt_tp8" => vec![input("gpt_tp8_l2", Recipe::GptTp8, Mode::Check)],
        "llama_deep" => vec![input(
            "llama3_tp8_l16",
            Recipe::LlamaDeep,
            Mode::CertifyEmit,
        )],
        "moe_ep" => vec![input("moe_tpsp2", Recipe::Zoo("moe_tpsp2"), Mode::Check)],
        "bugs18" => (1..=9)
            .flat_map(|id| {
                [true, false].map(|buggy| {
                    let kind = if buggy { "buggy" } else { "fixed" };
                    // Bugs 5, 8 and 9 only show through a §4.4 expectation.
                    let mode = match bug(id, buggy).expectation {
                        Some((fs, fd)) => Mode::Expect { fs, fd },
                        None => Mode::Check,
                    };
                    input(&format!("bug{id}_{kind}"), Recipe::Bug { id, buggy }, mode)
                })
            })
            .collect(),
        "cert_recheck" => vec![
            recheck("llama3_tp8_l16.cert", Recipe::LlamaDeep, false),
            recheck("gpt_tp8_l2.cert", Recipe::GptTp8, false),
            recheck("moe_tpsp2.cert", Recipe::Zoo("moe_tpsp2"), false),
            recheck("gpt_tp8_l2.forged", Recipe::GptTp8, true),
        ],
        other => panic!("no workload {other:?}"),
    }
}

/// The inputs of `workload` in the order `seed` runs them within a round.
pub fn presented(workload: &str, seed: u64) -> Vec<Input> {
    let mut inputs = plans(workload);
    if seed != 0 {
        shuffle(&mut inputs, &mut StdRng::seed_from_u64(seed));
    }
    inputs
}

/// Set-up proper: builds and serializes every input of `workload` as `seed`
/// presents it, then writes the interchange files under `dir`. Returns the
/// seconds building and serializing took. Writing is left out of them: it
/// is the benchmark's plumbing, not the repository's code, and creating a
/// few dozen small files in the sandbox takes anything from 1 to 5 ms.
pub fn write_all(workload: &str, seed: u64, dir: &Path) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let start = Instant::now();
    let files: Vec<(String, String)> = plans(workload)
        .iter()
        .flat_map(|input| input.files(seed, &mut rng))
        .collect();
    let seconds = start.elapsed().as_secs_f64();
    for (name, text) in &files {
        let path = dir.join(name);
        fs::write(&path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    }
    seconds
}

/// Runs the certified check in-process to obtain the certificate that
/// `certify --emit` would write, without the advisory numeric stage (the
/// kernel never reads that section, and it is most of a cold run).
fn certify(id: &str, gs: &Graph, dist: &entangle_parallel::Distributed) -> Certificate {
    let ri = dist.relation(gs).expect("builder relations validate");
    let opts = CheckOptions {
        numeric: false,
        ..CheckOptions::default()
    };
    check_refinement(gs, &dist.graph, &ri, &opts)
        .unwrap_or_else(|e| panic!("{id}: set-up check failed: {e}"))
        .certificate
        .expect("certify is on by default")
}

/// Renames the lemma of the last top-level rule step — the kernel accepts
/// everything before it, so the forgery costs as much to refute as the
/// certificate costs to accept — to another registered lemma. A draw that
/// the kernel accepts (a twin or more general lemma justifies the step too)
/// is no forgery, and is drawn again.
fn forge(cert: &mut Certificate, gs: &Graph, gd: &Graph, rng: &mut StdRng) {
    let lemmas = entangle_lemmas::registry();
    let rewrites = entangle_lemmas::rewrites_of(&lemmas);
    let (mapping, step) = cert
        .mappings
        .iter()
        .enumerate()
        .rev()
        .find_map(|(m, mc)| {
            let is_rule = |s: &ProofStep| matches!(s, ProofStep::Rule { .. });
            Some((m, mc.proof.steps.iter().rposition(is_rule)?))
        })
        .expect("a certificate of a sharded model has rule steps");
    let ProofStep::Rule { name, .. } = &cert.mappings[mapping].proof.steps[step] else {
        unreachable!("rposition found a rule step");
    };
    let mut others: Vec<String> = lemmas
        .iter()
        .map(|l| l.name.clone())
        .filter(|n| n != name)
        .collect();
    loop {
        assert!(!others.is_empty(), "every other lemma justifies the step");
        let drawn = others.swap_remove(rng.gen_range(0..others.len()));
        if let ProofStep::Rule { name, .. } = &mut cert.mappings[mapping].proof.steps[step] {
            *name = drawn;
        }
        if entangle_cert::verify(cert, gs, gd, &rewrites, &SymCtx::new()).is_err() {
            return;
        }
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

impl Input {
    /// This input's interchange files, as `(name, text)`.
    fn files(&self, seed: u64, rng: &mut StdRng) -> Vec<(String, String)> {
        let (gs, mut dist) = match self.recipe {
            Recipe::Zoo(stem) => {
                let case = zoo()
                    .into_iter()
                    .find(|c| c.name == stem)
                    .unwrap_or_else(|| panic!("zoo has no {stem}"));
                (case.gs, case.dist)
            }
            Recipe::GptTp8 => {
                let w = gpt_workload(8, 2);
                (w.gs, w.dist)
            }
            Recipe::LlamaDeep => {
                let w = llama_workload(8, 16);
                (w.gs, w.dist)
            }
            Recipe::Bug { id, buggy } => {
                let case = bug(id, buggy);
                (case.gs, case.dist)
            }
        };
        let mut files = Vec::new();
        let mut put = |ext: &str, text: String| files.push((format!("{}.{ext}", self.id), text));
        if let Mode::Recheck { forged } = self.mode {
            let mut cert = certify(&self.id, &gs, &dist);
            if forged {
                forge(&mut cert, &gs, &dist.graph, rng);
            }
            let text = entangle_cert::to_json(&cert).expect("an accepted certificate serializes");
            put("cert.json", text);
        }
        put("gs.json", gs.to_json().expect("builder graphs serialize"));
        put(
            "gd.json",
            dist.graph.to_json().expect("builder graphs serialize"),
        );
        if seed != 0 {
            shuffle(&mut dist.input_maps, rng);
        }
        let maps: String = dist
            .input_maps
            .iter()
            .map(|(name, expr)| format!("{name} = {expr}\n"))
            .collect();
        put("maps", maps);
        files
    }

    /// The `entangle` arguments for this input, file names relative to the
    /// directory [`write_all`] filled (the child's working directory).
    pub fn argv(&self) -> Vec<String> {
        let file = |ext: &str| format!("{}.{ext}", self.id);
        let (sub, extra) = match &self.mode {
            Mode::Check => ("check", vec![]),
            Mode::CertifyEmit => ("certify", vec!["--emit".to_owned(), file("emitted.json")]),
            Mode::Expect { fs, fd } => (
                "expect",
                vec!["--fs".to_owned(), fs.clone(), "--fd".to_owned(), fd.clone()],
            ),
            Mode::Recheck { .. } => ("certify", vec!["--check".to_owned(), file("cert.json")]),
        };
        let mut argv = vec![sub.to_owned(), file("gs.json"), file("gd.json")];
        if !matches!(self.mode, Mode::Recheck { .. }) {
            argv.extend(["--maps".to_owned(), file("maps")]);
        }
        argv.extend(extra);
        argv.push("--no-ledger".to_owned());
        argv
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::driver::{rows, EXPECTED_TSV};
    use crate::spec::WORKLOADS;

    #[test]
    fn expected_tsv_and_the_generated_inputs_cover_each_other() {
        let answered: BTreeSet<(String, String)> = rows(EXPECTED_TSV)
            .expect("expected.tsv parses")
            .into_iter()
            .map(|(workload, id, _, _)| (workload.to_owned(), id.to_owned()))
            .collect();
        let generated: BTreeSet<(String, String)> = WORKLOADS
            .iter()
            .flat_map(|w| plans(w).into_iter().map(|i| ((*w).to_owned(), i.id)))
            .collect();
        assert_eq!(answered, generated);
    }

    #[test]
    fn a_seed_presents_the_same_problems_in_its_own_order() {
        let ids = |seed| -> Vec<String> {
            presented("bugs18", seed)
                .into_iter()
                .map(|i| i.id)
                .collect()
        };
        let canonical = ids(0);
        let shuffled = ids(7);
        assert_eq!(ids(7), shuffled, "the same seed gives the same inputs");
        assert_ne!(canonical, shuffled);
        let sorted = |mut v: Vec<String>| {
            v.sort();
            v
        };
        assert_eq!(sorted(canonical), sorted(shuffled));
    }
}
