//! Figure 4's models one step wider than the paper's sweep: GPT under
//! TP+SP+VP and Llama-3 under TP at parallelism 16 verify, and their
//! certificates pass the trusted kernel again after a JSON round-trip.
//!
//! At this width the relation's `concat` of 16 shards is 15 levels deep,
//! and distributing an operator over it takes about one saturation
//! iteration per level: a fixed per-round iteration limit of 12 reported
//! both correct models as "does not refine" at their first operator. A round
//! that stops at its answer, with an iteration guard that grows with the
//! height of the operator's input mappings, lets both verify.
//!
//! Both checks run in debug builds: with every rule under the match budget,
//! the GPT check's heaviest round (`ln_f`, 28 iterations, 2.7 k e-nodes)
//! takes 0.6 s in a debug build on a 2-core x86-64 box, and the whole file
//! about 4 s.
//!
//! Two depth pins ride along. Llama-3 at parallelism 16 also verifies at 4
//! layers. GPT at parallelism 8 keeps a layer's residual-stream mappings
//! the same size at every depth past the first. (GPT at parallelism 16 and
//! 4 layers does not verify today: `tests/reproduce.rs` pins that as a
//! known false alarm of Figure 4.)

use entangle::{check_refinement, CheckOptions, CheckOutcome};
use entangle_bench::{gpt_workload, gpt_workload_of, llama_workload_of, scaled_config, Workload};
use entangle_lemmas::{registry, rewrites_of};
use entangle_symbolic::SymCtx;

const PAR: usize = 16;

fn verifies_and_recertifies(w: &Workload) -> CheckOutcome {
    let ri = w.dist.relation(&w.gs).expect("relation builds");
    let opts = CheckOptions {
        numeric: false,
        ..CheckOptions::default()
    };
    let outcome = check_refinement(&w.gs, &w.dist.graph, &ri, &opts)
        .unwrap_or_else(|e| panic!("{} does not verify: {e}", w.name));
    let cert = outcome
        .certificate
        .as_ref()
        .expect("certify is on by default");
    let text = entangle_cert::to_json(cert).expect("certificate serializes");
    let read = entangle_cert::from_json(&text).expect("certificate reads back");
    entangle_cert::verify(
        &read,
        &w.gs,
        &w.dist.graph,
        &rewrites_of(&registry()),
        &SymCtx::new(),
    )
    .unwrap_or_else(|e| panic!("{}: the kernel refuses the certificate: {e}", w.name));
    outcome
}

#[test]
fn gpt_tp_sp_vp_at_parallelism_16_verifies() {
    verifies_and_recertifies(&gpt_workload_of(&scaled_config(PAR), PAR));
}

#[test]
fn llama3_tp_at_parallelism_16_verifies() {
    verifies_and_recertifies(&llama_workload_of(&scaled_config(PAR), PAR));
}

#[test]
fn llama3_tp_at_parallelism_16_verifies_at_4_layers() {
    verifies_and_recertifies(&llama_workload_of(&scaled_config(PAR).with_layers(4), PAR));
}

/// The node count of the smallest mapping of `Lk.res1` and `Lk.res2` is
/// one number for every layer `k ≥ 1` of GPT at parallelism 8 (`L0`'s are
/// smaller and left out).
#[test]
fn gpt_residual_mappings_stay_one_size_past_the_first_layer() {
    const LAYERS: usize = 4;
    let w = gpt_workload(8, LAYERS);
    let outcome = verifies_and_recertifies(&w);
    let smallest = |name: &str| {
        let t = w.gs.tensor_by_name(name).expect("a residual tensor of G_s");
        let mappings = outcome.full_relation.mappings(t.id).expect("mapped");
        mappings
            .iter()
            .map(|m| m.len())
            .min()
            .expect("one mapping at least")
    };
    let sizes: Vec<(String, usize)> = (1..LAYERS)
        .flat_map(|k| [format!("L{k}.res1"), format!("L{k}.res2")])
        .map(|name| {
            let n = smallest(&name);
            (name, n)
        })
        .collect();
    assert!(
        sizes.iter().all(|(_, n)| *n == sizes[0].1),
        "smallest residual mappings grow with depth: {sizes:?}"
    );
    assert_eq!(sizes[0].1, 41, "{sizes:?}");
}
