//! The term store lemma code runs on.
//!
//! A lemma's condition or dynamic applier reads the metadata of the terms
//! its match bound, asks whether a term already exists, walks a term's
//! parents, and adds terms. [`TermStore`] is exactly those primitives, so
//! one closure runs during saturation on an [`EGraph`] and, when a proof
//! checker replays a certificate step, on the checker's own hash-consed
//! term table.

use crate::egraph::{Analysis, EGraph};
use crate::node::ENode;
use crate::unionfind::Id;

/// What lemma conditions and dynamic appliers may read and write.
pub trait TermStore<A: Analysis> {
    /// The analysis data of the term (class) `id`.
    fn data(&self, id: Id) -> &A::Data;
    /// The analysis context.
    fn analysis(&self) -> &A;
    /// The canonical id of `id` (the id itself in a store without unions).
    fn find(&self, id: Id) -> Id;
    /// The stored term `node` denotes, if there is one; never inserts.
    fn lookup(&self, node: &ENode) -> Option<Id>;
    /// Every stored node that has `id` as a child, as recorded (in an
    /// e-graph its children may predate later unions).
    fn parents(&self, id: Id) -> Parents<'_>;
    /// Adds `node` (hash-consed) and returns its id.
    fn add(&mut self, node: ENode) -> Id;
}

/// The parent nodes of one term, borrowed from its [`TermStore`].
pub enum Parents<'a> {
    /// An e-class's `(node, class)` parent records.
    Recorded(std::slice::Iter<'a, (ENode, Id)>),
    /// Parent nodes a store collected for the call.
    Listed(std::vec::IntoIter<&'a ENode>),
}

impl<'a> Iterator for Parents<'a> {
    type Item = &'a ENode;

    fn next(&mut self) -> Option<&'a ENode> {
        match self {
            Parents::Recorded(records) => records.next().map(|(node, _)| node),
            Parents::Listed(nodes) => nodes.next(),
        }
    }
}

impl<A: Analysis> TermStore<A> for EGraph<A> {
    fn data(&self, id: Id) -> &A::Data {
        &self.class(id).data
    }

    fn analysis(&self) -> &A {
        &self.analysis
    }

    fn find(&self, id: Id) -> Id {
        EGraph::find(self, id)
    }

    fn lookup(&self, node: &ENode) -> Option<Id> {
        EGraph::lookup(self, node)
    }

    fn parents(&self, id: Id) -> Parents<'_> {
        Parents::Recorded(self.class(id).parents.iter())
    }

    fn add(&mut self, node: ENode) -> Id {
        EGraph::add(self, node)
    }
}
