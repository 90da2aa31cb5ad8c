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
//! the file and materialises each term position from it; the kernel interns
//! every term it is handed and compares ids.

use std::collections::HashMap;

use entangle_egraph::{ENode, Id, RecExpr};

use crate::cert::term_eq;

/// A read-only view of terms addressed by [`Id`], so the kernel's pattern
/// matcher runs over a [`TermTable`] (ids are terms) and the instantiation
/// code over one [`RecExpr`] (ids are slots) without a second matcher.
pub(crate) trait Terms {
    /// The node at `at`; its children address the same view.
    fn node(&self, at: Id) -> &ENode;
    /// Whether `a` and `b` are the same tree.
    fn same_term(&self, a: Id, b: Id) -> bool;
}

impl Terms for RecExpr {
    fn node(&self, at: Id) -> &ENode {
        RecExpr::node(self, at)
    }

    fn same_term(&self, a: Id, b: Id) -> bool {
        term_eq(self, a, self, b)
    }
}

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
        walk.visit(self, root);
        let mut out = RecExpr::with_capacity(walk.order.len());
        for &id in &walk.order {
            out.add(self.node(id).map_children(|c| walk.number(c)));
        }
        walk.clear();
        out
    }
}

impl Terms for TermTable {
    fn node(&self, at: Id) -> &ENode {
        TermTable::node(self, at)
    }

    fn same_term(&self, a: Id, b: Id) -> bool {
        a == b
    }
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
