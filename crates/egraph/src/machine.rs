//! Compiled e-matching: a shared discrimination tree over every rule's
//! left-hand side, executed by a small abstract machine.
//!
//! The per-rule searcher ([`Pattern::search_with_stats`]) walks the e-graph
//! once per rule per iteration; with ~100 registry lemmas that is ~100
//! traversals of the same frozen graph. This module compiles every pattern
//! into a flat left-to-right instruction sequence ([`Token`]) and inserts
//! all sequences into one trie: rules sharing a pattern prefix (`(matmul
//! (concat ?a ?b ?d) …)` vs `(matmul (concat ?a ?b ?d) ?c)`) share trie
//! nodes, so the candidate e-nodes along the common prefix are examined
//! once for the whole group instead of once per rule.
//!
//! The abstract machine is a depth-first walk of trie × e-graph holding a
//! stack of pending e-class slots and a register file of variable bindings:
//!
//! - [`Token::Op`] pops a class slot, scans its nodes for the symbol/arity,
//!   and pushes the children (canonicalized) left-to-right;
//! - [`Token::Var`] pops a class slot and either binds the next register or
//!   — for a repeated variable — compares against the existing binding,
//!   short-circuiting the whole subtree *before* any child expansion;
//! - [`Token::Int`] pops a class slot and checks it is the class of that
//!   integer literal.
//!
//! Root tokens are grouped by symbol: an operator root visits the classes
//! [`EGraph::classes_with_op`] returns for it. A pattern that is a lone
//! variable or integer (`slices-cover-concat`'s `?x`) is no trie path: it
//! matches a class outright (any class, binding it; the literal's class),
//! checked against every canonical class in [`EGraph::class_ids`] order.
//! Either way the classes, and their order, are the reference searcher's.
//!
//! Equivalence with the reference searcher is exact, not just up to order:
//! the DFS enumerates a rule's substitutions in the same order as the
//! recursive matcher's child-wise cross product, variable registers are
//! numbered in first-occurrence order (so a yield's bindings, read against
//! [`CompiledMatcher::vars`], are the reference [`Subst`] in its order),
//! and per (rule, class) yields are deduplicated first-occurrence exactly
//! like [`Pattern::search_eclass`]. The differential oracle tests (here and
//! at zoo scale in `tests/ematch_oracle.rs`) pin this.
//!
//! Yields are stored flat ([`RuleMatches`]): one `Vec<Id>` of register
//! files per rule, cleared — not freed — between searches, so a search
//! allocates nothing once the buffers have grown to the graph.
//!
//! Backoff integration: [`CompiledMatcher::search_all`] takes a per-rule
//! `active` mask. Inactive (banned) rules never yield — and every trie node
//! carries a bitset of the rules reachable below it, so a subtree whose
//! reachable set is entirely banned is pruned without touching the e-graph.
//! This is how the scheduler's match-budget bans keep their win inside the
//! shared traversal: a ban removes the rule's whole share of the walk, not
//! just its output.

use crate::egraph::{Analysis, EGraph};
use crate::node::ENode;
use crate::pattern::{Pattern, PatternAst, Var};
use crate::rewrite::Rewrite;
use crate::symbol::Symbol;
use crate::unionfind::Id;

/// Generation number of the compiled-matcher implementation. Included in
/// the saturation-memo engine fingerprint (see `entangle`'s
/// `engine_fingerprint`) so any change to the compilation or execution
/// strategy invalidates cached solve results instead of replaying stale
/// ones, and so `entangle report` resets its baseline rather than compare
/// runs across matcher revisions.
pub const MATCHER_GENERATION: u32 = 2;

/// One instruction of a compiled pattern, in left-to-right preorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Token {
    /// Match an e-node with this head symbol and arity; push its children.
    Op(Symbol, u32),
    /// Bind register `k` to the current class, or — when `k` is already
    /// bound (a repeated pattern variable) — require equality.
    Var(u32),
    /// Require the current class to be the class of this integer literal.
    Int(i64),
}

#[derive(Debug, Clone, Default)]
struct TrieNode {
    /// Alternative next tokens, in rule-insertion order (deterministic).
    edges: Vec<(Token, u32)>,
    /// Rules whose full sequence ends here. Token sequences are prefix-free
    /// (a complete preorder consumes its slot stack exactly), so each rule
    /// terminates at a node no other rule passes through.
    rules: Vec<usize>,
    /// Bitset over rule indices: every rule recorded at or below this node.
    /// Lets the machine prune subtrees whose rules are all banned.
    reachable: Vec<u64>,
}

/// One root-symbol group: the trie edges out of the virtual root whose
/// token carries this symbol, plus the rules living below them (for
/// per-rule visited/skipped accounting).
#[derive(Debug, Clone)]
struct RootGroup {
    sym: Symbol,
    /// `(arity, trie node)` per distinct root token with this symbol.
    edges: Vec<(u32, u32)>,
    /// Rules rooted at this symbol.
    rules: Vec<usize>,
}

/// One rule's yields from a shared traversal, stored flat: per matched
/// class a `(class, start, count)` entry over one buffer of register files
/// (`width` ids each, in register order — see [`CompiledMatcher::vars`]).
#[derive(Debug, Clone, Default)]
pub struct RuleMatches {
    width: usize,
    classes: Vec<(Id, u32, u32)>,
    bindings: Vec<Id>,
}

impl RuleMatches {
    /// Empties the buffers, keeping their capacity, for a rule binding
    /// `width` registers.
    fn reset(&mut self, width: usize) {
        self.width = width;
        self.classes.clear();
        self.bindings.clear();
    }

    /// Deduplicated substitutions yielded (not classes).
    pub fn len(&self) -> usize {
        self.classes.iter().map(|&(_, _, n)| n as usize).sum()
    }

    /// `true` when the rule yielded nothing.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// The matched classes in search order, each with its yields' register
    /// files in first-occurrence order.
    pub fn classes(&self) -> impl Iterator<Item = (Id, impl Iterator<Item = &[Id]>)> {
        self.classes.iter().map(move |&(class, start, count)| {
            let (start, w) = (start as usize, self.width);
            (
                class,
                (0..count as usize)
                    .map(move |k| &self.bindings[start + k * w..start + (k + 1) * w]),
            )
        })
    }

    /// Every yield with its matched class, in search order.
    pub fn iter(&self) -> impl Iterator<Item = (Id, &[Id])> {
        self.classes()
            .flat_map(|(class, yields)| yields.map(move |ids| (class, ids)))
    }

    /// Records a yield of `class`, unless this class already yielded the
    /// same register file (first-occurrence dedup). Classes arrive in
    /// search order, each once per rule, so the class being searched is the
    /// last entry. Returns whether the yield is new.
    fn push(&mut self, class: Id, regs: &[Id]) -> bool {
        debug_assert_eq!(regs.len(), self.width);
        match self.classes.last_mut() {
            Some((c, start, count)) if *c == class => {
                let (start, w) = (*start as usize, self.width);
                let same = &self.bindings[start..];
                if (0..*count as usize).any(|k| &same[k * w..(k + 1) * w] == regs) {
                    return false;
                }
                *count += 1;
            }
            _ => self.classes.push((class, self.bindings.len() as u32, 1)),
        }
        self.bindings.extend_from_slice(regs);
        true
    }
}

/// Everything one shared traversal produced, plus the scratch space it ran
/// in. Hand the same value to every [`CompiledMatcher::search_all`] of a
/// run: each search clears the buffers and refills them, so after the first
/// iteration a search allocates nothing.
#[derive(Debug, Default)]
pub struct SharedSearch {
    /// Per-rule matches, indexed like the compiled rewrite slice. Inactive
    /// rules yield nothing. For active rules the contents are exactly what
    /// [`Rewrite::search_with_stats`] returns, flattened.
    pub matches: Vec<RuleMatches>,
    /// Classes visited, summed per active rule with the reference
    /// searcher's accounting (a rule is charged its root group's size).
    pub visited: u64,
    /// Classes skipped, summed the same way (including the operator-
    /// presence prefilter's all-skipped case).
    pub skipped: u64,
    /// E-nodes examined by `Op` instructions during the traversal — the
    /// work the trie sharing and ban pruning actually save.
    pub candidates: u64,
    /// Deduplicated substitutions yielded across all rules.
    pub yields: u64,
    mask: Vec<u64>,
    ids: Vec<Id>,
    regs: Vec<Id>,
    slots: Vec<Id>,
}

/// A rule corpus compiled into one shared discrimination tree.
///
/// Compiled once per check and handed to every [`crate::Runner::run_with`]
/// ([`crate::Runner::run`] compiles its own).
#[derive(Debug)]
pub struct CompiledMatcher {
    nodes: Vec<TrieNode>,
    groups: Vec<RootGroup>,
    /// Rules whose pattern is a single `Var` or `Int` token, which matches
    /// a class outright: no trie path, searched over every class.
    lone: Vec<(usize, Token)>,
    /// Per rule: the pattern variable each register holds
    /// (first-occurrence order). Renaming-equivalent patterns (`(add ?a
    /// ?b)` / `(add ?x ?y)`) share one trie path and differ only here.
    vars: Vec<Vec<Var>>,
    /// Per rule: the searcher's required operator symbols (the reference
    /// prefilter, reused both for exact visited/skipped parity and to mask
    /// trivially inapplicable rules out of the traversal).
    required: Vec<Vec<Symbol>>,
    n_rules: usize,
    words: usize,
}

fn set_bit(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

fn get_bit(bits: &[u64], i: usize) -> bool {
    bits[i / 64] & (1 << (i % 64)) != 0
}

fn intersects(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

/// Flattens a pattern into preorder tokens, assigning variable registers in
/// first-occurrence order.
fn flatten(ast: &PatternAst, tokens: &mut Vec<Token>, vars: &mut Vec<Var>) {
    match ast {
        PatternAst::Var(v) => {
            let k = vars.iter().position(|x| x == v).unwrap_or_else(|| {
                vars.push(*v);
                vars.len() - 1
            });
            tokens.push(Token::Var(k as u32));
        }
        PatternAst::Int(i) => tokens.push(Token::Int(*i)),
        PatternAst::Op(sym, ch) => {
            tokens.push(Token::Op(*sym, ch.len() as u32));
            for c in ch {
                flatten(c, tokens, vars);
            }
        }
    }
}

impl CompiledMatcher {
    /// Compiles every rewrite's left-hand side into the shared trie.
    pub fn compile<A: Analysis>(rewrites: &[Rewrite<A>]) -> CompiledMatcher {
        Self::compile_patterns(&rewrites.iter().map(Rewrite::searcher).collect::<Vec<_>>())
    }

    /// Compiles a pattern corpus directly (the rewrite-free entry point the
    /// differential oracle tests use).
    pub fn compile_patterns(patterns: &[&Pattern]) -> CompiledMatcher {
        let n_rules = patterns.len();
        let words = n_rules.div_ceil(64).max(1);
        let mut m = CompiledMatcher {
            nodes: vec![TrieNode {
                reachable: vec![0; words],
                ..TrieNode::default()
            }],
            groups: Vec::new(),
            lone: Vec::new(),
            vars: Vec::with_capacity(n_rules),
            required: Vec::with_capacity(n_rules),
            n_rules,
            words,
        };
        for (i, pat) in patterns.iter().enumerate() {
            m.required.push(pat.required_ops());
            let ast = pat.ast();
            let mut tokens = Vec::new();
            let mut vars = Vec::new();
            flatten(ast, &mut tokens, &mut vars);
            m.vars.push(vars);
            let PatternAst::Op(root_sym, _) = ast else {
                m.lone.push((i, tokens[0]));
                continue;
            };
            let mut cur = 0u32;
            for tok in tokens {
                cur = m.insert_edge(cur, tok);
                set_bit(&mut m.nodes[cur as usize].reachable, i);
            }
            m.nodes[cur as usize].rules.push(i);
            let group = match m.groups.iter_mut().find(|g| g.sym == *root_sym) {
                Some(g) => g,
                None => {
                    m.groups.push(RootGroup {
                        sym: *root_sym,
                        edges: Vec::new(),
                        rules: Vec::new(),
                    });
                    m.groups.last_mut().expect("just pushed")
                }
            };
            group.rules.push(i);
        }
        // Root edges, grouped by symbol for per-group class iteration.
        let root_edges = m.nodes[0].edges.clone();
        for (tok, tgt) in root_edges {
            let Token::Op(sym, ar) = tok else {
                unreachable!("root tokens are operator tokens");
            };
            let g = m
                .groups
                .iter_mut()
                .find(|g| g.sym == sym)
                .expect("group exists for every root symbol");
            g.edges.push((ar, tgt));
        }
        m
    }

    fn insert_edge(&mut self, from: u32, tok: Token) -> u32 {
        if let Some(&(_, tgt)) = self.nodes[from as usize]
            .edges
            .iter()
            .find(|(t, _)| *t == tok)
        {
            return tgt;
        }
        let tgt = self.nodes.len() as u32;
        self.nodes.push(TrieNode {
            reachable: vec![0; self.words],
            ..TrieNode::default()
        });
        self.nodes[from as usize].edges.push((tok, tgt));
        tgt
    }

    /// Number of trie nodes (excluding the virtual root) — the
    /// `ematch.trie.nodes` gauge. Smaller than the summed token counts of
    /// the corpus exactly by the shared-prefix savings.
    pub fn trie_nodes(&self) -> usize {
        self.nodes.len() - 1
    }

    /// The pattern variables rule `rule` binds, in register
    /// (first-occurrence) order: `vars(rule)[k]` is bound to the `k`-th id
    /// of each of the rule's yields in [`SharedSearch::matches`].
    pub fn vars(&self, rule: usize) -> &[Var] {
        &self.vars[rule]
    }

    /// Searches the whole e-graph for every rule in one shared traversal,
    /// into `out` (cleared first; its buffers are reused).
    ///
    /// `active[i]` is false for rules currently banned by the backoff
    /// scheduler: they yield nothing, contribute no visited/skipped
    /// accounting (their search is skipped, exactly like the reference
    /// scheduler's skip), and subtrees reaching only banned rules are
    /// pruned.
    ///
    /// # Panics
    ///
    /// Panics when `active` does not match the compiled corpus.
    pub fn search_all<A: Analysis>(
        &self,
        egraph: &EGraph<A>,
        active: &[bool],
        out: &mut SharedSearch,
    ) {
        assert_eq!(active.len(), self.n_rules, "active mask length mismatch");
        let total = egraph.num_classes() as u64;
        out.matches.resize_with(self.n_rules, RuleMatches::default);
        for (m, vars) in out.matches.iter_mut().zip(&self.vars) {
            m.reset(vars.len());
        }
        (out.visited, out.skipped, out.candidates, out.yields) = (0, 0, 0, 0);
        // The yield mask: active rules whose required operators are all
        // present. A rule failing the presence prefilter is charged the
        // reference all-skipped accounting and masked out of the walk.
        out.mask.clear();
        out.mask.resize(self.words, 0);
        for (i, &is_active) in active.iter().enumerate() {
            if !is_active {
                continue;
            }
            if self.required[i].iter().any(|&s| !egraph.has_op(s)) {
                out.skipped += total;
                continue;
            }
            set_bit(&mut out.mask, i);
        }
        let mut ids = std::mem::take(&mut out.ids);
        for group in &self.groups {
            if group
                .edges
                .iter()
                .all(|&(_, tgt)| !intersects(&self.nodes[tgt as usize].reachable, &out.mask))
            {
                continue; // every rule in this group is masked out
            }
            egraph.classes_with_op(group.sym, &mut ids);
            let visited = ids.len() as u64;
            for &r in &group.rules {
                if get_bit(&out.mask, r) {
                    out.visited += visited;
                    out.skipped += total.saturating_sub(visited);
                }
            }
            let mut machine = Machine {
                matcher: self,
                egraph,
                out: &mut *out,
                class: Id::from_index(0),
            };
            for &id in &ids {
                machine.class = id;
                for &(ar, tgt) in &group.edges {
                    if intersects(&self.nodes[tgt as usize].reachable, &machine.out.mask) {
                        machine.out.slots.push(id);
                        machine.edge(Token::Op(group.sym, ar), tgt, id);
                        machine.out.slots.clear();
                    }
                }
            }
        }
        // Lone-token patterns, charged a scan of every canonical class as
        // the reference charges it: a variable binds each class, an integer
        // matches its literal's class.
        for &(r, tok) in &self.lone {
            if !get_bit(&out.mask, r) {
                continue;
            }
            out.visited += total;
            let matches = &mut out.matches[r];
            match tok {
                Token::Var(_) => {
                    for class in egraph.classes() {
                        matches.push(class.id, &[class.id]);
                    }
                }
                Token::Int(i) => {
                    if let Some(id) = egraph.lookup(&ENode::Int(i)) {
                        matches.push(id, &[]);
                    }
                }
                Token::Op(..) => unreachable!("lone tokens are variables or integers"),
            }
            out.yields += matches.len() as u64;
        }
        out.ids = ids;
    }
}

/// The abstract machine: one DFS over trie × e-graph per (class, root
/// edge), with explicit save/restore of the slot stack and register file
/// (both live in the [`SharedSearch`] it writes to).
struct Machine<'a, A: Analysis> {
    matcher: &'a CompiledMatcher,
    egraph: &'a EGraph<A>,
    out: &'a mut SharedSearch,
    /// The root class being searched: every yield is one of its matches.
    class: Id,
}

impl<A: Analysis> Machine<'_, A> {
    fn step(&mut self, at: u32) {
        let node = &self.matcher.nodes[at as usize];
        if !intersects(&node.reachable, &self.out.mask) {
            return; // every rule below is banned or prefiltered out
        }
        for &rule in &node.rules {
            if get_bit(&self.out.mask, rule) {
                let out = &mut *self.out;
                if out.matches[rule].push(self.class, &out.regs) {
                    out.yields += 1;
                }
            }
        }
        if node.edges.is_empty() {
            return;
        }
        let class = *self.out.slots.last().expect("token sequences are balanced");
        for &(tok, tgt) in &node.edges {
            self.edge(tok, tgt, class);
        }
    }

    /// Executes one token against `class`, the top slot, then runs the trie
    /// below it; the slot stack is as it was on return.
    fn edge(&mut self, tok: Token, tgt: u32, class: Id) {
        match tok {
            Token::Var(k) => {
                let k = k as usize;
                if k < self.out.regs.len() {
                    // Repeated variable: consistency check *before* any
                    // child expansion below this point.
                    if self.out.regs[k] == class {
                        self.out.slots.pop();
                        self.step(tgt);
                        self.out.slots.push(class);
                    }
                } else {
                    self.out.regs.push(class);
                    self.out.slots.pop();
                    self.step(tgt);
                    self.out.slots.push(class);
                    self.out.regs.pop();
                }
            }
            Token::Int(i) => {
                if self.egraph.lookup(&ENode::Int(i)) == Some(class) {
                    self.out.slots.pop();
                    self.step(tgt);
                    self.out.slots.push(class);
                }
            }
            Token::Op(sym, arity) => {
                self.out.slots.pop();
                let depth = self.out.slots.len();
                for node in &self.egraph[class].nodes {
                    self.out.candidates += 1;
                    let ENode::Op(nsym, children) = node else {
                        continue;
                    };
                    if *nsym != sym || children.len() != arity as usize {
                        continue;
                    }
                    for &c in children.iter().rev() {
                        self.out.slots.push(self.egraph.find(c));
                    }
                    self.step(tgt);
                    self.out.slots.truncate(depth);
                }
                self.out.slots.push(class);
            }
        }
    }
}
