//! Allocation ceilings on the saturation hot path, counted by this test
//! binary's own global allocator.
//!
//! The counter is thread-local, so what the test harness's other threads do
//! never reaches it, and every measured call is single-threaded and
//! deterministic: the same inputs allocate the same number of times on
//! every run. Two properties are pinned:
//!
//! - a search into grown buffers allocates nothing, however many yields it
//!   stores (the flat per-rule match buffers are cleared, not freed), and a
//!   cold search allocates per rule, not per yield;
//! - an applied-memo hit allocates nothing (the fingerprint is a fold over
//!   ids, the substitution is only refilled past the memo, and a
//!   justification is only built for a union that happens).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use entangle_bench::zoo;
use entangle_egraph::hashing::FxHashSet;
use entangle_egraph::{CompiledMatcher, EGraph, RecExpr, Rewrite, Runner, SharedSearch, Subst};
use entangle_lemmas::{registry, rewrites_of, TensorAnalysis};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations (and reallocations) made on
/// the calling thread.
struct Counting;

fn count() {
    // `try_with`: the slot is gone while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only a thread-local `Cell<u64>`, which has no
// destructor and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// `g`'s e-graph grown by a short saturation run (as `tests/ematch_oracle.rs`
/// builds it): merged classes, alias ids, rewrite-produced terms.
fn saturated_egraph(g: &entangle_ir::Graph) -> EGraph<TensorAnalysis> {
    let mut analysis = TensorAnalysis::default();
    for t in g.tensors() {
        analysis.register_leaf(&t.name, t.shape.clone(), t.dtype);
    }
    let mut eg = EGraph::with_analysis(analysis);
    for n in g.nodes() {
        entangle::encode_node(&mut eg, g, n);
    }
    eg.rebuild();
    let mut runner = Runner::new(eg).with_iter_limit(3).with_node_limit(20_000);
    runner.run(&rewrites_of(&registry()));
    runner.egraph
}

#[test]
fn search_allocations_do_not_grow_with_yields() {
    let rewrites = rewrites_of(&registry());
    let matcher = CompiledMatcher::compile(&rewrites);
    let active = vec![true; rewrites.len()];
    let mut total_yields = 0;
    for case in zoo() {
        for g in [&case.gs, &case.dist.graph] {
            let eg = saturated_egraph(g);
            let mut search = SharedSearch::default();
            let cold = allocations(|| matcher.search_all(&eg, &active, &mut search));
            let yields = search.yields;
            total_yields += yields;
            // Measured: 30–307 allocations for 46–1 158 yields over the 14
            // graphs (each matching rule's two buffers and the class list
            // growing by doubling), where one substitution per yield would
            // be 1 158 on its own.
            assert!(
                cold <= 3 * rewrites.len() as u64,
                "{} / {}: a cold search allocated {cold} times for {yields} yields",
                case.name,
                g.name()
            );
            // Measured: 0. The same search into grown buffers stores every
            // yield again without allocating.
            let warm = allocations(|| matcher.search_all(&eg, &active, &mut search));
            assert_eq!(search.yields, yields);
            assert_eq!(
                warm,
                0,
                "{} / {}: a search into grown buffers allocated {warm} times",
                case.name,
                g.name()
            );
        }
    }
    assert!(total_yields > 1_000, "the zoo should exercise the matcher");
}

#[test]
fn an_applied_memo_hit_allocates_nothing() {
    let rewrites: Vec<Rewrite<()>> = vec![
        Rewrite::parse("add-comm", "(add ?a ?b)", "(add ?b ?a)").expect("parses"),
        Rewrite::parse("mul-comm", "(mul ?a ?b)", "(mul ?b ?a)").expect("parses"),
        Rewrite::parse(
            "distribute",
            "(mul ?a (add ?b ?c))",
            "(add (mul ?a ?b) (mul ?a ?c))",
        )
        .expect("parses"),
    ];
    let mut eg = EGraph::<()>::default();
    eg.add_expr(
        &"(mul x (add y (mul z (add x y))))"
            .parse::<RecExpr>()
            .expect("parses"),
    );
    eg.rebuild();
    let matcher = CompiledMatcher::compile(&rewrites);
    let active = vec![true; rewrites.len()];
    let mut search = SharedSearch::default();
    let mut memos: Vec<FxHashSet<u64>> = vec![FxHashSet::default(); rewrites.len()];
    let mut subst = Subst::new();
    // Apply until a round adds no fingerprint to any memo: the next search
    // then finds only matches every memo already holds.
    loop {
        matcher.search_all(&eg, &active, &mut search);
        let before: usize = memos.iter().map(FxHashSet::len).sum();
        for (i, rw) in rewrites.iter().enumerate() {
            rw.apply_deduped(
                &mut eg,
                &search.matches[i],
                matcher.vars(i),
                &mut memos[i],
                &mut subst,
            );
        }
        eg.rebuild();
        if memos.iter().map(FxHashSet::len).sum::<usize>() == before {
            break;
        }
    }
    matcher.search_all(&eg, &active, &mut search);
    let hits = search.yields;
    let memoized: usize = memos.iter().map(FxHashSet::len).sum();
    let applied = allocations(|| {
        for (i, rw) in rewrites.iter().enumerate() {
            let changed = rw.apply_deduped(
                &mut eg,
                &search.matches[i],
                matcher.vars(i),
                &mut memos[i],
                &mut subst,
            );
            assert_eq!(changed, 0);
        }
    });
    // No fingerprint was added, so every one of the round's matches was a
    // memo hit (none is rejected: the rules are unconditional).
    assert_eq!(memos.iter().map(FxHashSet::len).sum::<usize>(), memoized);
    assert!(hits > 10, "the round should be all memo hits, found {hits}");
    // Measured: 0 allocations for the round's 32 memo hits.
    assert_eq!(
        applied, 0,
        "{hits} applied-memo hits allocated {applied} times"
    );
}
