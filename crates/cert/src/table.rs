//! The certificate's term table: one hash-consed store of term nodes.
//!
//! A proof repeats a few terms many times (every step's `after` is the next
//! step's `before`; every layer of a transformer re-derives the same
//! shapes), so the crate keeps terms in one table whose entries are
//! [`ENode`]s over *earlier* entries and refers to a term by its entry's
//! [`Id`]. Two terms are the same tree exactly when they intern to the same
//! id — hash-consing compares nodes (the memo is keyed by the node, not by
//! its hash), so id equality is structural equality and is insensitive to
//! how a [`RecExpr`] lays the tree out in its slots.
//!
//! Three users: the JSON writer numbers the table's entries canonically
//! ([`PostOrder`]) and writes each once; the reader rebuilds the table from
//! the file, node by node; the kernel checks a certificate on a [`Store`] —
//! a table plus what each entry denotes — which is the reader's table when
//! the certificate comes from a file, and into which it interns the terms
//! of an in-memory certificate otherwise.

use std::collections::HashMap;

use entangle_egraph::{ENode, Id, Parents, RecExpr, TermStore};
use entangle_ir::{DType, Dim, Graph, Shape};
use entangle_lemmas::{infer_application, parse_ones_leaf, Meta, TensorAnalysis};
use entangle_symbolic::{SymCtx, SymExpr};

/// A hash-consed store of term nodes; see the module documentation.
#[derive(Debug, Default)]
pub(crate) struct TermTable {
    /// Entry `i`'s children are entries `< i`.
    nodes: Vec<ENode>,
    memo: HashMap<ENode, Id>,
    /// Scratch for [`TermTable::intern`]: the table id of each slot of the
    /// term being interned, and the child list of the node being looked up
    /// (handed back by [`TermTable::add`] on a hit, so a repeated node
    /// costs one hash and no allocation).
    slot_ids: Vec<Id>,
    spare_children: Vec<Id>,
}

impl TermTable {
    /// Number of entries (distinct subterms).
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// The node of entry `id`.
    pub(crate) fn node(&self, id: Id) -> &ENode {
        &self.nodes[id.index()]
    }

    /// The entry for `node`, whose children are entries of this table.
    pub(crate) fn add(&mut self, node: ENode) -> Id {
        debug_assert!(node.children().iter().all(|c| c.index() < self.nodes.len()));
        if let Some(&id) = self.memo.get(&node) {
            if let ENode::Op(_, children) = node {
                self.spare_children = children;
            }
            return id;
        }
        let id = Id::from_index(self.nodes.len());
        self.nodes.push(node.clone());
        self.memo.insert(node, id);
        id
    }

    /// Interns a whole term, returning its root's entry.
    ///
    /// # Panics
    ///
    /// Panics on an empty expression, which is no term.
    pub(crate) fn intern(&mut self, expr: &RecExpr) -> Id {
        let mut ids = std::mem::take(&mut self.slot_ids);
        ids.clear();
        for node in expr.nodes() {
            let node = match node {
                ENode::Op(sym, children) => {
                    let mut mapped = std::mem::take(&mut self.spare_children);
                    mapped.clear();
                    mapped.extend(children.iter().map(|c| ids[c.index()]));
                    ENode::Op(*sym, mapped)
                }
                scalar => scalar.clone(),
            };
            ids.push(self.add(node));
        }
        let root = *ids.last().expect("a term has at least one node");
        self.slot_ids = ids;
        root
    }

    /// Copies the term at `root` out of the table, shared subterms sharing
    /// slots. Iterative, so the table's depth costs no stack.
    pub(crate) fn materialise(&self, root: Id, walk: &mut PostOrder) -> RecExpr {
        #[cfg(test)]
        MATERIALISED.with(|n| n.set(n.get() + 1));
        walk.visit(self, root);
        let mut out = RecExpr::with_capacity(walk.order.len());
        for &id in &walk.order {
            out.add(self.node(id).map_children(|c| walk.number(c)));
        }
        walk.clear();
        out
    }
}

#[cfg(test)]
thread_local! {
    static MATERIALISED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Terms [`TermTable::materialise`] has copied out on this thread.
#[cfg(test)]
pub(crate) fn materialised() -> usize {
    MATERIALISED.with(std::cell::Cell::get)
}

/// A first-visit post-order numbering (children left to right) of the
/// table entries reachable from the roots visited so far. Over a
/// certificate's term positions in document order this is the canonical
/// entry order of the JSON format: a function of the terms alone.
#[derive(Debug, Default)]
pub(crate) struct PostOrder {
    /// Position in `order` per table entry, [`UNSEEN`] until visited.
    numbers: Vec<u32>,
    /// The numbered entries, in order.
    pub(crate) order: Vec<Id>,
    stack: Vec<(Id, usize)>,
}

const UNSEEN: u32 = u32::MAX;

impl PostOrder {
    /// Numbers every entry under `root` not numbered yet.
    pub(crate) fn visit(&mut self, table: &TermTable, root: Id) {
        if self.numbers.len() < table.len() {
            self.numbers.resize(table.len(), UNSEEN);
        }
        if self.numbers[root.index()] != UNSEEN {
            return;
        }
        self.stack.push((root, 0));
        while let Some((id, next_child)) = self.stack.last_mut() {
            if let Some(&child) = table.node(*id).children().get(*next_child) {
                *next_child += 1;
                if self.numbers[child.index()] == UNSEEN {
                    self.stack.push((child, 0));
                }
            } else {
                let number = u32::try_from(self.order.len()).expect("term table overflow");
                self.numbers[id.index()] = number;
                self.order.push(*id);
                self.stack.pop();
            }
        }
    }

    /// The number of a visited entry, as an [`Id`].
    pub(crate) fn number(&self, id: Id) -> Id {
        debug_assert_ne!(self.numbers[id.index()], UNSEEN);
        Id::from_index(self.numbers[id.index()] as usize)
    }

    /// Forgets the numbering (in time proportional to what was numbered).
    fn clear(&mut self) {
        for id in self.order.drain(..) {
            self.numbers[id.index()] = UNSEEN;
        }
    }
}

/// The kernel's one term store: the table plus each entry's inferred
/// metadata. Lemma conditions and dynamic appliers read and write it
/// through [`TermStore`]: a union-free store, so every id is its own class
/// and `find` is the identity.
///
/// Lemma code sees one *scope* ([`Store::scope_to`]): the terms of the step
/// it justifies and what it adds itself. A `lookup` or `parents` outside
/// the scope finds nothing, so a step's verdict is a function of the step
/// alone, never of which other terms the certificate mentions.
pub(crate) struct Store<'g> {
    table: TermTable,
    /// Inferred metadata (or why inference fails) per entry, kept level
    /// with the table: an entry is inferred once, from its children's
    /// memoised results.
    metas: Vec<Result<Meta, String>>,
    /// Per entry, whether the verification has met it (see
    /// [`Store::meet`]), and how many it has.
    met: Vec<bool>,
    met_count: usize,
    /// Per entry, the number of the last scope that holds it.
    scope: Vec<u32>,
    /// The current scope's number, and its entries in entry order.
    epoch: u32,
    in_scope: Vec<Id>,
    /// The graph whose tensors the leaves name.
    gd: &'g Graph,
    /// The symbolic context conditions decide scalar facts in.
    analysis: TensorAnalysis,
    /// What an uninferable entry's data reads as.
    unknown: Meta,
    /// The entry of every [`RecExpr`] storage interned so far, by
    /// [`RecExpr::storage_key`]. Each value keeps a clone of the expression,
    /// so no keyed storage is freed, and its key reused, while the store
    /// lives: one key is one storage is one list of nodes.
    interned: HashMap<usize, (RecExpr, Id)>,
}

impl<'g> Store<'g> {
    /// A store over `table`, each of whose entries is inferred here, once.
    pub(crate) fn new(gd: &'g Graph, ctx: &SymCtx, table: TermTable) -> Store<'g> {
        let mut store = Store {
            table,
            metas: Vec::new(),
            met: Vec::new(),
            met_count: 0,
            scope: Vec::new(),
            epoch: 0,
            in_scope: Vec::new(),
            gd,
            analysis: TensorAnalysis::with_ctx(ctx.clone()),
            unknown: Meta::unknown(),
            interned: HashMap::new(),
        };
        store.index_new_entries();
        store
    }

    pub(crate) fn table(&self) -> &TermTable {
        &self.table
    }

    /// What reading the checked terms needs: the table's nodes and each
    /// entry's inference. The node-keyed memo, the scopes and the counts
    /// only checking needs are freed.
    pub(crate) fn into_entries(self) -> (TermTable, Vec<Result<Meta, String>>) {
        let mut table = self.table;
        table.memo = HashMap::new();
        (table, self.metas)
    }

    /// Interns a whole term, returning its root's entry: once per storage,
    /// so the positions a reader made clones of one term cost one walk.
    pub(crate) fn intern(&mut self, expr: &RecExpr) -> Id {
        if let Some(&(_, id)) = self.interned.get(&expr.storage_key()) {
            return id;
        }
        let id = self.table.intern(expr);
        self.index_new_entries();
        self.interned.insert(expr.storage_key(), (expr.clone(), id));
        id
    }

    /// Marks the term at `root` and its subterms as met: the report counts
    /// the terms a verification checked or built, not the entries a file
    /// happened to list.
    pub(crate) fn meet(&mut self, root: Id) {
        if self.met[root.index()] {
            return;
        }
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if !self.met[id.index()] {
                self.met[id.index()] = true;
                self.met_count += 1;
                stack.extend(self.table.node(id).children());
            }
        }
    }

    /// Number of entries met so far.
    pub(crate) fn met(&self) -> usize {
        self.met_count
    }

    /// The memoised inference for the entry `id`.
    pub(crate) fn meta(&self, id: Id) -> &Result<Meta, String> {
        &self.metas[id.index()]
    }

    /// Starts a new scope holding the terms at `roots` and their subterms;
    /// entries added from here on join it.
    pub(crate) fn scope_to(&mut self, roots: &[Id]) {
        self.epoch += 1;
        self.in_scope.clear();
        let mut stack = roots.to_vec();
        while let Some(id) = stack.pop() {
            if self.scope[id.index()] != self.epoch {
                self.scope[id.index()] = self.epoch;
                self.in_scope.push(id);
                stack.extend(self.table.node(id).children());
            }
        }
        self.in_scope.sort_unstable();
    }

    /// Brings `metas` and the scope level with the table. Entries only
    /// refer to earlier entries, so one forward pass infers each new entry
    /// from memoised children — no recursion, one inference per distinct
    /// subterm.
    fn index_new_entries(&mut self) {
        for i in self.metas.len()..self.table.len() {
            let meta = infer_node(self.table.node(Id::from_index(i)), &self.metas, self.gd);
            self.metas.push(meta);
            self.met.push(false);
            self.scope.push(self.epoch);
            self.in_scope.push(Id::from_index(i));
        }
    }
}

impl TermStore<TensorAnalysis> for Store<'_> {
    fn data(&self, id: Id) -> &Meta {
        self.metas[id.index()].as_ref().unwrap_or(&self.unknown)
    }

    fn analysis(&self) -> &TensorAnalysis {
        &self.analysis
    }

    fn find(&self, id: Id) -> Id {
        id
    }

    fn lookup(&self, node: &ENode) -> Option<Id> {
        let id = *self.table.memo.get(node)?;
        (self.scope[id.index()] == self.epoch).then_some(id)
    }

    fn parents(&self, id: Id) -> Parents<'_> {
        let nodes: Vec<&ENode> = self
            .in_scope
            .iter()
            .map(|&p| self.table.node(p))
            .filter(|node| node.children().contains(&id))
            .collect();
        Parents::Listed(nodes.into_iter())
    }

    fn add(&mut self, node: ENode) -> Id {
        let id = self.table.add(node);
        self.index_new_entries();
        self.meet(id);
        id
    }
}

/// Infers shape/dtype metadata for one node from its children's, read by
/// reference from the entries' memoised results in `metas`. A leaf is a
/// `G_d` tensor, or a synthetic canonicalization leaf (`~ones[...]`) that
/// carries its shape in its name.
fn infer_node(node: &ENode, metas: &[Result<Meta, String>], gd: &Graph) -> Result<Meta, String> {
    match node {
        ENode::Int(i) => Ok(Meta::scalar(SymExpr::constant(*i))),
        ENode::Sym(e) => Ok(Meta::scalar(e.clone())),
        ENode::Op(sym, ch) if ch.is_empty() => {
            let ones = parse_ones_leaf(sym.as_str())
                .map_err(|_| format!("unparsable synthetic leaf {sym}"))?;
            match ones {
                Some(dims) => Ok(Meta::tensor(
                    Shape(dims.into_iter().map(Dim::from).collect()),
                    DType::F32,
                )),
                None => gd
                    .tensor_by_name(sym.as_str())
                    .map(|t| Meta::tensor(t.shape.clone(), t.dtype))
                    .ok_or_else(|| format!("unknown G_d tensor {sym}")),
            }
        }
        ENode::Op(sym, ch) => {
            let children = ch
                .iter()
                .map(|c| metas[c.index()].as_ref().map_err(String::clone))
                .collect::<Result<Vec<&Meta>, String>>()?;
            infer_application(*sym, &children).map_err(|e| e.to_string())
        }
    }
}
