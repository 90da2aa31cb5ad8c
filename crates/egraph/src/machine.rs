//! Compiled e-matching: a shared discrimination tree over every rule's
//! left-hand side, executed by a small abstract machine.
//!
//! The per-rule searcher ([`Pattern::search_with_stats`]) walks the e-graph
//! once per rule per iteration; with ~100 registry lemmas that is ~100
//! traversals of the same frozen graph. This module compiles every
//! *operator-rooted* pattern into a flat left-to-right instruction sequence
//! ([`Token`]) and inserts all sequences into one trie keyed by root
//! operator symbol: rules sharing a pattern prefix (`(matmul (concat ?a ?b
//! ?d) …)` vs `(matmul (concat ?a ?b ?d) ?c)`) share trie nodes, so the
//! candidate e-nodes along the common prefix are examined once for the
//! whole group instead of once per rule.
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
//! Equivalence with the legacy searcher is exact, not just up to order:
//! classes are visited per root-symbol group in the same sorted
//! [`EGraph::classes_with_op`] order the per-rule searcher uses, the DFS
//! enumerates a rule's substitutions in the same order as the recursive
//! matcher's child-wise cross product, variable indices are assigned in
//! first-occurrence order (so [`Subst`] binding order matches), and per
//! (rule, class) yields are deduplicated first-occurrence exactly like
//! [`Pattern::search_eclass`]. The differential oracle tests (here and at
//! zoo scale in `tests/ematch_oracle.rs`) pin this.
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
use crate::pattern::{Pattern, PatternAst, SearchMatches, Subst, Var};
use crate::rewrite::Rewrite;
use crate::symbol::Symbol;
use crate::unionfind::Id;

/// Generation number of the compiled-matcher implementation. Included in
/// the saturation-memo engine fingerprint (see `entangle`'s
/// `engine_fingerprint`) so any change to the compilation or execution
/// strategy invalidates cached solve results instead of replaying stale
/// ones.
pub const MATCHER_GENERATION: u32 = 1;

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

/// A rule recorded at a terminal trie node: token sequences are
/// prefix-free (a complete preorder consumes its slot stack exactly), so
/// each rule terminates at a node no other rule passes through.
#[derive(Debug, Clone)]
struct RuleEntry {
    /// Index into the rewrite slice the matcher was compiled from.
    rule: usize,
    /// The rule's variables in first-occurrence order: `vars[k]` is the
    /// pattern variable register `k` holds. Renaming-equivalent patterns
    /// (`(add ?a ?b)` / `(add ?x ?y)`) therefore share one trie path and
    /// differ only here.
    vars: Vec<Var>,
}

#[derive(Debug, Clone, Default)]
struct TrieNode {
    /// Alternative next tokens, in rule-insertion order (deterministic).
    edges: Vec<(Token, u32)>,
    /// Rules whose full sequence ends here.
    rules: Vec<RuleEntry>,
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

/// Everything one shared traversal produced.
#[derive(Debug, Default)]
pub struct SharedSearch {
    /// Per-rule matches, indexed like the compiled rewrite slice. Inactive
    /// rules get an empty list. For active rules the contents are
    /// byte-for-byte what [`Rewrite::search_with_stats`] returns.
    pub matches: Vec<Vec<SearchMatches>>,
    /// Classes visited, summed per active rule with the legacy searcher's
    /// accounting (a rule is charged its root-symbol group size).
    pub visited: u64,
    /// Classes skipped, summed the same way (including the operator-
    /// presence prefilter's all-skipped case).
    pub skipped: u64,
    /// E-nodes examined by `Op` instructions during the traversal — the
    /// work the trie sharing and ban pruning actually save.
    pub candidates: u64,
    /// Deduplicated substitutions yielded across all rules.
    pub yields: u64,
}

/// A rule corpus compiled into one shared discrimination tree.
///
/// Compiled once per check and handed to every [`crate::Runner::run_with`]
/// ([`crate::Runner::run`] compiles its own); patterns rooted at a variable
/// or integer literal (none exist in the registry corpus, but the pattern
/// language allows them) fall back to the legacy per-rule searcher inside
/// [`CompiledMatcher::search_all`].
#[derive(Debug)]
pub struct CompiledMatcher {
    nodes: Vec<TrieNode>,
    groups: Vec<RootGroup>,
    /// Rules searched with the legacy per-rule path (non-`Op` roots).
    fallback: Vec<usize>,
    /// Per rule: the searcher's required operator symbols (the legacy
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
            fallback: Vec::new(),
            required: Vec::with_capacity(n_rules),
            n_rules,
            words,
        };
        for (i, pat) in patterns.iter().enumerate() {
            m.required.push(pat.required_ops());
            let ast = pat.ast();
            let PatternAst::Op(root_sym, _) = ast else {
                m.fallback.push(i);
                continue;
            };
            let mut tokens = Vec::new();
            let mut vars = Vec::new();
            flatten(ast, &mut tokens, &mut vars);
            let mut cur = 0u32;
            for tok in tokens {
                cur = m.insert_edge(cur, tok);
                set_bit(&mut m.nodes[cur as usize].reachable, i);
            }
            m.nodes[cur as usize]
                .rules
                .push(RuleEntry { rule: i, vars });
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

    /// Searches the whole e-graph for every rule in one shared traversal.
    ///
    /// `active[i]` is false for rules currently banned by the backoff
    /// scheduler: they yield nothing, contribute no visited/skipped
    /// accounting (their search is skipped, exactly like the legacy
    /// scheduler's skip), and subtrees reaching only banned rules are
    /// pruned.
    ///
    /// # Panics
    ///
    /// Panics when `rewrites`/`active` do not match the compiled corpus.
    pub fn search_all<A: Analysis>(
        &self,
        egraph: &EGraph<A>,
        rewrites: &[Rewrite<A>],
        active: &[bool],
    ) -> SharedSearch {
        assert_eq!(rewrites.len(), self.n_rules, "corpus changed under matcher");
        assert_eq!(active.len(), self.n_rules, "active mask length mismatch");
        let total = egraph.num_classes() as u64;
        let mut out = SharedSearch {
            matches: vec![Vec::new(); self.n_rules],
            ..SharedSearch::default()
        };
        // The yield mask: active rules whose required operators are all
        // present. A rule failing the presence prefilter is charged the
        // legacy all-skipped accounting and masked out of the walk.
        let mut mask = vec![0u64; self.words];
        for (i, &is_active) in active.iter().enumerate() {
            if !is_active {
                continue;
            }
            if self.required[i].iter().any(|&s| !egraph.has_op(s)) {
                out.skipped += total;
                continue;
            }
            set_bit(&mut mask, i);
        }
        let mut machine = Machine {
            matcher: self,
            egraph,
            mask: &mask,
            regs: Vec::with_capacity(16),
            slots: Vec::with_capacity(32),
            buf: vec![Vec::new(); self.n_rules],
            touched: Vec::new(),
            candidates: 0,
        };
        for group in &self.groups {
            if group
                .edges
                .iter()
                .all(|&(_, tgt)| !intersects(&self.nodes[tgt as usize].reachable, &mask))
            {
                continue; // every rule in this group is masked out
            }
            let ids = egraph.classes_with_op(group.sym);
            let visited = ids.len() as u64;
            for &r in &group.rules {
                if get_bit(&mask, r) {
                    out.visited += visited;
                    out.skipped += total.saturating_sub(visited);
                }
            }
            for id in ids {
                for &(ar, tgt) in &group.edges {
                    machine.run_root(id, group.sym, ar, tgt);
                }
                machine.flush_class(id, &mut out);
            }
        }
        out.candidates = machine.candidates;
        // Patterns rooted at a variable or integer: legacy per-rule search.
        for &i in &self.fallback {
            if !active[i] {
                continue;
            }
            let (ms, v, s) = rewrites[i].search_with_stats(egraph);
            out.visited += v;
            out.skipped += s;
            out.yields += ms.iter().map(|m| m.substs.len() as u64).sum::<u64>();
            out.matches[i] = ms;
        }
        out
    }
}

/// The abstract machine: one DFS over trie × e-graph per (class, root
/// edge), with explicit save/restore of the slot stack and register file.
struct Machine<'a, A: Analysis> {
    matcher: &'a CompiledMatcher,
    egraph: &'a EGraph<A>,
    mask: &'a [u64],
    /// Variable registers, bound in first-occurrence order along the
    /// current path (register `k` binds exactly when `k == regs.len()`).
    regs: Vec<Id>,
    /// Pending e-class slots; the next token consumes the top.
    slots: Vec<Id>,
    /// Raw (pre-dedup) yields for the current class, per rule.
    buf: Vec<Vec<Subst>>,
    /// Rules with at least one raw yield in the current class.
    touched: Vec<usize>,
    candidates: u64,
}

impl<A: Analysis> Machine<'_, A> {
    /// Executes one root `Op` token against a candidate class, then runs
    /// the trie below it.
    fn run_root(&mut self, class: Id, sym: Symbol, arity: u32, tgt: u32) {
        if !intersects(&self.matcher.nodes[tgt as usize].reachable, self.mask) {
            return;
        }
        for node in &self.egraph[class].nodes {
            self.candidates += 1;
            let ENode::Op(nsym, children) = node else {
                continue;
            };
            if *nsym != sym || children.len() != arity as usize {
                continue;
            }
            for &c in children.iter().rev() {
                self.slots.push(self.egraph.find(c));
            }
            self.step(tgt);
            self.slots.clear();
        }
    }

    fn step(&mut self, at: u32) {
        let node = &self.matcher.nodes[at as usize];
        if !intersects(&node.reachable, self.mask) {
            return; // every rule below is banned or prefiltered out
        }
        for entry in &node.rules {
            if get_bit(self.mask, entry.rule) {
                debug_assert_eq!(self.regs.len(), entry.vars.len());
                let subst = Subst::from_bindings(
                    entry
                        .vars
                        .iter()
                        .zip(&self.regs)
                        .map(|(&v, &id)| (v, id))
                        .collect(),
                );
                if self.buf[entry.rule].is_empty() {
                    self.touched.push(entry.rule);
                }
                self.buf[entry.rule].push(subst);
            }
        }
        if node.edges.is_empty() {
            return;
        }
        let class = *self.slots.last().expect("token sequences are balanced");
        for &(tok, tgt) in &node.edges {
            match tok {
                Token::Var(k) => {
                    let k = k as usize;
                    if k < self.regs.len() {
                        // Repeated variable: consistency check *before* any
                        // child expansion below this point.
                        if self.regs[k] == class {
                            self.slots.pop();
                            self.step(tgt);
                            self.slots.push(class);
                        }
                    } else {
                        self.regs.push(class);
                        self.slots.pop();
                        self.step(tgt);
                        self.slots.push(class);
                        self.regs.pop();
                    }
                }
                Token::Int(i) => {
                    if self.egraph.lookup(&ENode::Int(i)) == Some(class) {
                        self.slots.pop();
                        self.step(tgt);
                        self.slots.push(class);
                    }
                }
                Token::Op(sym, arity) => {
                    self.slots.pop();
                    let depth = self.slots.len();
                    for node in &self.egraph[class].nodes {
                        self.candidates += 1;
                        let ENode::Op(nsym, children) = node else {
                            continue;
                        };
                        if *nsym != sym || children.len() != arity as usize {
                            continue;
                        }
                        for &c in children.iter().rev() {
                            self.slots.push(self.egraph.find(c));
                        }
                        self.step(tgt);
                        self.slots.truncate(depth);
                    }
                    self.slots.push(class);
                }
            }
        }
    }

    /// Closes out one class: deduplicate each touched rule's raw yields
    /// first-occurrence (the legacy [`Pattern::search_eclass`] contract)
    /// and emit its [`SearchMatches`].
    fn flush_class(&mut self, class: Id, out: &mut SharedSearch) {
        for &r in &self.touched {
            let raw = std::mem::take(&mut self.buf[r]);
            let mut dedup: Vec<Subst> = Vec::with_capacity(raw.len());
            for s in raw {
                if !dedup.contains(&s) {
                    dedup.push(s);
                }
            }
            out.yields += dedup.len() as u64;
            out.matches[r].push(SearchMatches {
                eclass: class,
                substs: dedup,
            });
        }
        self.touched.clear();
    }
}
