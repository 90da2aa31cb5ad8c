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

use entangle::{check_refinement, CheckOptions};
use entangle_bench::{gpt_workload_of, llama_workload_of, scaled_config, Workload};
use entangle_lemmas::{registry, rewrites_of};
use entangle_symbolic::SymCtx;

const PAR: usize = 16;

fn verifies_and_recertifies(w: &Workload) {
    let ri = w.dist.relation(&w.gs).expect("relation builds");
    let opts = CheckOptions {
        numeric: false,
        ..CheckOptions::default()
    };
    let outcome = check_refinement(&w.gs, &w.dist.graph, &ri, &opts)
        .unwrap_or_else(|e| panic!("{} does not verify: {e}", w.name));
    let cert = outcome.certificate.expect("certify is on by default");
    let text = entangle_cert::to_json(&cert).expect("certificate serializes");
    let read = entangle_cert::from_json(&text).expect("certificate reads back");
    entangle_cert::verify(
        &read,
        &w.gs,
        &w.dist.graph,
        &rewrites_of(&registry()),
        &SymCtx::new(),
    )
    .unwrap_or_else(|e| panic!("{}: the kernel refuses the certificate: {e}", w.name));
}

#[test]
fn gpt_tp_sp_vp_at_parallelism_16_verifies() {
    verifies_and_recertifies(&gpt_workload_of(&scaled_config(PAR), PAR));
}

#[test]
fn llama3_tp_at_parallelism_16_verifies() {
    verifies_and_recertifies(&llama_workload_of(&scaled_config(PAR), PAR));
}
