//! The `BTreeMap` difference classifier [`Arena::classify_diff`] replaced,
//! kept as the differential oracle of its tests: the algorithm over the
//! plainest containers — a fresh `BTreeMap<Vec<ExprId>, Rat>` polynomial,
//! `Vec` monomial keys and a `BTreeSet` of candidates per pair — and with
//! the plainest unfolding. A `Dot` unfolds into its longest live prefix
//! `Dot` and then one product per remaining pair, interned as it goes: the
//! oracle never writes a run of pairs as one `Sum`, so every product the
//! classifier keeps folded inside one is here a monomial of its own, and
//! the caps count it as one. Nested comparisons (congruence lifting) stay
//! inside the oracle, and nothing here reads or writes the arena's pair
//! memo or scratch. What the two share is what a node *is* — its candidate
//! key, whether it rounds, which `Dot` folds a prefix of which — not how a
//! difference is stored or searched, nor how a `Dot` is unfolded.

use std::collections::{BTreeMap, BTreeSet};

use super::{
    Arena, CandKey, ExprId, FxHashMap, MergeOutcome, Node, NumClass, Rat, EXPAND_CAP, POLY_CAP,
};

type Mono = Vec<ExprId>;
type Poly = BTreeMap<Mono, Rat>;

impl Arena {
    /// [`Arena::classify_pair`], unmemoised, by the oracle.
    pub(crate) fn classify_pair_oracle(&mut self, a: ExprId, b: ExprId) -> (NumClass, u64) {
        if a == b {
            return (NumClass::BitExact, 0);
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.classify_diff_oracle(a, b)
    }

    /// The atoms the `Dot` `x` unfolds into, written to `out`: `prefix` (a
    /// `Dot` over its leading pairs, with their number) when there is one,
    /// and the product `fl(rₖ·cₖ)` of every pair after those, interned
    /// now. Returns the adds unfolded: one between each two atoms.
    fn unfold_dot_oracle(
        &mut self,
        x: ExprId,
        prefix: Option<(ExprId, usize)>,
        out: &mut Vec<ExprId>,
    ) -> u64 {
        let &Node::Dot(r, c) = self.node(x) else {
            unreachable!("unfold_dot_oracle of a non-Dot node")
        };
        out.clear();
        let from = prefix.map_or(0, |(y, len)| {
            out.push(y);
            len
        });
        for k in from..self.list(r).len() {
            let prod = self.mul(self.list(r)[k], self.list(c)[k]);
            out.push(prod);
        }
        (out.len() - 1) as u64
    }

    /// The expansion of `id`, and the rounding sites it unfolds. A `Dot`
    /// unfolds into the longest live `Dot` of `d` over a prefix of its
    /// lists plus its remaining products.
    fn one_step_oracle(&mut self, id: ExprId, d: &Poly) -> Option<(Poly, u64)> {
        let mut p = Poly::new();
        match *self.node(id) {
            Node::Leaf(..) | Node::Fun(..) => return None,
            Node::Rat(r) => {
                let r = *self.rats.get(r);
                if !r.is_zero() {
                    p.insert(Vec::new(), r);
                }
            }
            Node::Neg(a) => {
                p.insert(vec![a], Rat::int(-1));
            }
            Node::Add(a, b) => {
                if a == b {
                    p.insert(vec![a], Rat::int(2));
                } else {
                    p.insert(vec![a], Rat::one());
                    p.insert(vec![b], Rat::one());
                }
            }
            Node::Mul(a, b) => {
                let mut m = vec![a, b];
                m.sort_unstable();
                p.insert(m, Rat::one());
            }
            Node::ScaleMul(a, r) => {
                let r = *self.rats.get(r);
                if !r.is_zero() {
                    p.insert(vec![a], r);
                }
            }
            Node::ScaleDiv(a, n) => {
                p.insert(vec![a], Rat::new(1, i128::from(n))?);
            }
            Node::Dot(..) => {
                let atoms: BTreeSet<ExprId> = d.keys().flatten().copied().collect();
                let prefix = atoms
                    .into_iter()
                    .filter_map(|y| Some((y, self.prefix_fold_len(id, y)?)))
                    .max_by_key(|&(_, len)| len);
                let mut unfolded = Vec::new();
                let adds = self.unfold_dot_oracle(id, prefix, &mut unfolded);
                for atom in unfolded {
                    poly_accum(&mut p, vec![atom], Rat::one())?;
                }
                return Some((p, adds));
            }
            // Only the classifier's own expansion builds a node of any
            // other kind, and never as the child of another node.
            _ => unreachable!("the oracle met a node only the classifier builds"),
        }
        Some((p, u64::from(self.is_rounding(id))))
    }

    fn classify_diff_oracle(&mut self, a: ExprId, b: ExprId) -> (NumClass, u64) {
        let mut d = Poly::new();
        let mut occ: FxHashMap<ExprId, Vec<Mono>> = FxHashMap::default();
        let mut cand: BTreeSet<CandKey> = BTreeSet::new();
        for (mono, c) in [(vec![a], Rat::one()), (vec![b], Rat::int(-1))] {
            if self
                .accum_indexed_oracle(&mut d, &mut occ, &mut cand, mono, c)
                .is_none()
            {
                return (NumClass::Unknown, 0);
            }
        }
        let mut k: u64 = 0;
        let mut expansions = 0usize;
        loop {
            if d.is_empty() {
                return (NumClass::Reassoc, k);
            }
            let next = loop {
                let Some(&(reads, len, x)) = cand.iter().next_back() else {
                    break None;
                };
                let live = occ.get_mut(&x).is_some_and(|v| {
                    v.retain(|m| d.contains_key(m));
                    !v.is_empty()
                });
                if live {
                    break Some(x);
                }
                cand.remove(&(reads, len, x));
                occ.remove(&x);
            };
            let Some(x) = next else {
                match self.merge_congruent_funs_oracle(&mut d) {
                    MergeOutcome::Merged(dk) => {
                        k = k.saturating_add(dk);
                        continue;
                    }
                    MergeOutcome::Stuck => return (NumClass::ValueChanging, 0),
                    MergeOutcome::Unknown => return (NumClass::Unknown, 0),
                }
            };
            expansions += 1;
            if expansions > EXPAND_CAP {
                return (NumClass::Unknown, 0);
            }
            let Some((px, sites)) = self.one_step_oracle(x, &d) else {
                return (NumClass::Unknown, 0);
            };
            k = k.saturating_add(sites);
            cand.remove(&self.cand_key(x));
            let monos = occ.remove(&x).expect("picked candidate has live monomials");
            for m in monos {
                let Some(c) = d.remove(&m) else { continue };
                let occ_count = m.iter().filter(|&&i| i == x).count();
                let rest: Mono = m.iter().copied().filter(|&i| i != x).collect();
                let mut pw: Option<Poly> = None;
                for _ in 1..occ_count {
                    pw = match poly_mul(pw.as_ref().unwrap_or(&px), &px) {
                        Some(p) => Some(p),
                        None => return (NumClass::Unknown, 0),
                    };
                }
                for (mm, cc) in pw.as_ref().unwrap_or(&px) {
                    let mut mono = rest.clone();
                    mono.extend(mm.iter().copied());
                    mono.sort_unstable();
                    let Some(coef) = c.mul(cc) else {
                        return (NumClass::Unknown, 0);
                    };
                    if self
                        .accum_indexed_oracle(&mut d, &mut occ, &mut cand, mono, coef)
                        .is_none()
                    {
                        return (NumClass::Unknown, 0);
                    }
                }
            }
        }
    }

    fn accum_indexed_oracle(
        &self,
        d: &mut Poly,
        occ: &mut FxHashMap<ExprId, Vec<Mono>>,
        cand: &mut BTreeSet<CandKey>,
        m: Mono,
        c: Rat,
    ) -> Option<()> {
        if c.is_zero() {
            return Some(());
        }
        match d.get(&m) {
            Some(prev) => {
                let s = prev.add(&c)?;
                if s.is_zero() {
                    d.remove(&m);
                } else {
                    d.insert(m, s);
                }
            }
            None => {
                let mut last = None;
                for &atom in &m {
                    if Some(atom) == last {
                        continue;
                    }
                    last = Some(atom);
                    if self.reducible(atom) {
                        occ.entry(atom).or_default().push(m.clone());
                        cand.insert(self.cand_key(atom));
                    }
                }
                d.insert(m, c);
            }
        }
        if d.len() > POLY_CAP {
            return None;
        }
        Some(())
    }

    fn merge_congruent_funs_oracle(&mut self, d: &mut Poly) -> MergeOutcome {
        let atoms: BTreeSet<ExprId> = d.keys().flat_map(|m| m.iter().copied()).collect();
        let funs: Vec<ExprId> = atoms
            .into_iter()
            .filter(|&x| matches!(self.node(x), Node::Fun(..)))
            .collect();
        let mut saw_unknown = false;
        for (i, &u) in funs.iter().enumerate() {
            for &v in &funs[i + 1..] {
                let (&Node::Fun(nu, args_u), &Node::Fun(nv, args_v)) = (self.node(u), self.node(v))
                else {
                    continue;
                };
                let (args_u, args_v) = (self.list(args_u).to_vec(), self.list(args_v).to_vec());
                if nu != nv || args_u.len() != args_v.len() {
                    continue;
                }
                let mut dk: u64 = 0;
                let mut mergeable = true;
                for (&p, &q) in args_u.iter().zip(&args_v) {
                    let (c, ka) = self.classify_pair_oracle(p, q);
                    match c {
                        NumClass::BitExact => {}
                        NumClass::Reassoc => dk = dk.saturating_add(ka),
                        NumClass::Unknown => {
                            saw_unknown = true;
                            mergeable = false;
                            break;
                        }
                        NumClass::ValueChanging => {
                            mergeable = false;
                            break;
                        }
                    }
                }
                if !mergeable {
                    continue;
                }
                if self.is_rounding(u) {
                    dk = dk.saturating_add(2);
                }
                let old = std::mem::take(d);
                for (m, c) in old {
                    let mut mono: Mono =
                        m.into_iter().map(|x| if x == v { u } else { x }).collect();
                    mono.sort_unstable();
                    if poly_accum(d, mono, c).is_none() {
                        return MergeOutcome::Unknown;
                    }
                }
                return MergeOutcome::Merged(dk);
            }
        }
        if saw_unknown {
            MergeOutcome::Unknown
        } else {
            MergeOutcome::Stuck
        }
    }
}

fn poly_accum(out: &mut Poly, m: Mono, c: Rat) -> Option<()> {
    if c.is_zero() {
        return Some(());
    }
    match out.get(&m) {
        Some(prev) => {
            let s = prev.add(&c)?;
            if s.is_zero() {
                out.remove(&m);
            } else {
                out.insert(m, s);
            }
        }
        None => {
            out.insert(m, c);
        }
    }
    if out.len() > POLY_CAP {
        return None;
    }
    Some(())
}

fn poly_mul(a: &Poly, b: &Poly) -> Option<Poly> {
    let mut out = Poly::new();
    for (ma, ca) in a {
        for (mb, cb) in b {
            let mut m = ma.clone();
            m.extend(mb.iter().copied());
            m.sort_unstable();
            poly_accum(&mut out, m, ca.mul(cb)?)?;
        }
    }
    Some(out)
}
