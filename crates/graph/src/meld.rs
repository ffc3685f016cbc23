//! Meld labelling — the paper's prelabelling extension for directed graphs
//! (Section IV-B).
//!
//! A *meld labelling* extends a prelabelling of a directed graph by
//! repeatedly melding each node's label with the labels of its incoming
//! neighbours until a fixed point is reached (`[MELD]^N`, Fig. 3):
//!
//! ```text
//!        n' -> n
//! ─────────────────────
//!   κ_n = κ_{n'} ⊙ κ_n
//! ```
//!
//! The meld operator `⊙` must be commutative, associative, idempotent, and
//! have an identity element — exactly the laws of set union, which is what
//! object versioning uses (labels are sets of prelabels, represented as
//! [`SparseBitVector`]s).
//!
//! The result partitions nodes into equivalence classes by the set of
//! prelabels that transitively reach them; nodes unreachable from any
//! prelabelled node keep the identity label.

use crate::digraph::DiGraph;
use vsfs_adt::index::Idx;
use vsfs_adt::{FifoWorklist, SparseBitVector};

/// A label domain with a meld operator.
///
/// Implementations must satisfy, for all `a`, `b`, `c`:
///
/// * commutativity: `a ⊙ b == b ⊙ a`
/// * associativity: `a ⊙ (b ⊙ c) == (a ⊙ b) ⊙ c`
/// * idempotence: `a ⊙ a == a`
/// * identity: `a ⊙ identity() == a`
pub trait MeldLabel: Clone + PartialEq {
    /// The identity element `ε`.
    fn identity() -> Self;

    /// Melds `other` into `self`; returns `true` if `self` changed.
    fn meld_with(&mut self, other: &Self) -> bool;

    /// Returns `true` if this is the identity label.
    fn is_identity(&self) -> bool;
}

impl MeldLabel for SparseBitVector {
    fn identity() -> Self {
        SparseBitVector::new()
    }

    fn meld_with(&mut self, other: &Self) -> bool {
        self.union_with(other)
    }

    fn is_identity(&self) -> bool {
        self.is_empty()
    }
}

/// Runs meld labelling over `graph` starting from `prelabels`.
///
/// `frozen(n)` marks nodes whose label must not change (the versioning
/// application freezes δ-node consume labels, Section IV-C1); pass
/// `|_| false` for the plain algorithm of Section IV-B.
///
/// Complexity: `O(|E| · P)` time in the worst case, where `P` is the number
/// of non-identity prelabels, and `O(|N|)` label slots (Section IV-B1).
///
/// # Examples
///
/// ```
/// use vsfs_adt::{define_index, SparseBitVector};
/// use vsfs_graph::{meld_label, DiGraph};
///
/// define_index!(N, "n");
/// let mut g: DiGraph<N> = DiGraph::with_nodes(3);
/// g.add_edge(N::new(0), N::new(1));
/// g.add_edge(N::new(1), N::new(2));
/// let mut pre = vec![SparseBitVector::new(); 3];
/// pre[0].insert(7); // prelabel node 0 with {7}
/// let labels = meld_label(&g, pre, |_| false);
/// assert!(labels[2].contains(7)); // reached transitively
/// ```
pub fn meld_label<I: Idx, L: MeldLabel>(
    graph: &DiGraph<I>,
    prelabels: Vec<L>,
    frozen: impl Fn(I) -> bool,
) -> Vec<L> {
    assert_eq!(prelabels.len(), graph.node_count(), "one prelabel per node required");
    let mut labels = prelabels;
    let mut worklist: FifoWorklist<I> = FifoWorklist::new(graph.node_count());
    for v in graph.nodes() {
        if !labels[v.index()].is_identity() {
            worklist.push(v);
        }
    }
    while let Some(v) = worklist.pop() {
        for &s in graph.successors(v) {
            if s == v || frozen(s) {
                continue;
            }
            // Split borrow: clone the source label only when the meld
            // might change something. Cheap check first.
            let (src, dst) = {
                let (a, b) = (v.index(), s.index());
                // SAFETY-free split via index juggling.
                if a < b {
                    let (lo, hi) = labels.split_at_mut(b);
                    (&lo[a], &mut hi[0])
                } else {
                    let (lo, hi) = labels.split_at_mut(a);
                    (&hi[0], &mut lo[b])
                }
            };
            if dst.meld_with(src) {
                worklist.push(s);
            }
        }
    }
    labels
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsfs_adt::define_index;

    define_index!(N, "n");

    fn n(i: u32) -> N {
        N::new(i)
    }

    fn sbv(elems: &[u32]) -> SparseBitVector {
        elems.iter().copied().collect()
    }

    /// The paper's Figure 4 example: nodes prelabelled with two distinct
    /// labels; nodes reached by both finish with the meld of the two, and
    /// equivalence is by *reaching prelabel set*, not by shared neighbours.
    ///
    /// Graph (9 nodes): 1 and 2 are prelabelled (`{A}` and `{B}`).
    ///
    /// ```text
    /// 1 -> 3 -> 4      4,7: reached by {A} only? no:
    /// 2 -> 6 -> 7      see edges below
    /// 1 -> 5, 2 -> 5   5: {A,B}
    /// 5 -> 8           8: {A,B}  (different neighbours than 5, same set)
    /// 3 -> 4, 6 -> 4   4: {A,B}
    /// 6 -> 7, 3 -> 7   7: {A,B}
    /// 0: untouched     0: ε
    /// ```
    #[test]
    fn meld_paper_example_equivalence_by_reaching_set() {
        let mut g: DiGraph<N> = DiGraph::with_nodes(9);
        g.add_edge(n(1), n(3));
        g.add_edge(n(2), n(6));
        g.add_edge(n(1), n(5));
        g.add_edge(n(2), n(5));
        g.add_edge(n(5), n(8));
        g.add_edge(n(3), n(4));
        g.add_edge(n(6), n(4));
        g.add_edge(n(6), n(7));
        g.add_edge(n(3), n(7));
        let mut pre = vec![SparseBitVector::new(); 9];
        pre[1] = sbv(&[100]); // label A
        pre[2] = sbv(&[200]); // label B
        let labels = meld_label(&g, pre, |_| false);
        assert_eq!(labels[1], sbv(&[100]));
        assert_eq!(labels[2], sbv(&[200]));
        assert_eq!(labels[3], sbv(&[100]));
        assert_eq!(labels[6], sbv(&[200]));
        // Nodes 4, 5, 7, 8 have pairwise different incoming neighbours but
        // identical reaching prelabel sets -> identical labels.
        assert_eq!(labels[5], sbv(&[100, 200]));
        assert_eq!(labels[4], labels[5]);
        assert_eq!(labels[7], labels[5]);
        assert_eq!(labels[8], labels[5]);
        // Node 0 is unreachable from any prelabelled node -> identity.
        assert!(labels[0].is_identity());
    }

    #[test]
    fn frozen_nodes_keep_their_prelabel() {
        let mut g: DiGraph<N> = DiGraph::with_nodes(3);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        let mut pre = vec![SparseBitVector::new(); 3];
        pre[0] = sbv(&[1]);
        pre[1] = sbv(&[9]); // frozen with its own label
        let labels = meld_label(&g, pre, |v| v == n(1));
        assert_eq!(labels[1], sbv(&[9]));
        // The frozen node's own label still propagates onward.
        assert_eq!(labels[2], sbv(&[9]));
    }

    #[test]
    fn cycles_reach_fixpoint() {
        // 0 -> 1 -> 2 -> 1 and prelabel at 0.
        let mut g: DiGraph<N> = DiGraph::with_nodes(3);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        g.add_edge(n(2), n(1));
        let mut pre = vec![SparseBitVector::new(); 3];
        pre[0] = sbv(&[5]);
        let labels = meld_label(&g, pre, |_| false);
        assert_eq!(labels[1], sbv(&[5]));
        assert_eq!(labels[2], sbv(&[5]));
    }

    #[test]
    fn self_loops_are_ignored() {
        let mut g: DiGraph<N> = DiGraph::with_nodes(2);
        g.add_edge(n(0), n(0));
        g.add_edge(n(0), n(1));
        let mut pre = vec![SparseBitVector::new(); 2];
        pre[0] = sbv(&[1]);
        let labels = meld_label(&g, pre, |_| false);
        assert_eq!(labels[0], sbv(&[1]));
        assert_eq!(labels[1], sbv(&[1]));
    }

    #[test]
    fn no_prelabels_means_all_identity() {
        let mut g: DiGraph<N> = DiGraph::with_nodes(3);
        g.add_edge(n(0), n(1));
        let labels = meld_label(&g, vec![SparseBitVector::new(); 3], |_| false);
        assert!(labels.iter().all(SparseBitVector::is_empty));
    }

    /// Fixpoint characterisation: for every edge n' -> n with n not
    /// frozen, label(n) ⊇ label(n'); and every label is exactly the union
    /// of prelabels that reach the node through non-frozen paths.
    #[test]
    fn fixpoint_property_on_random_graphs() {
        use vsfs_testkit::gen;
        vsfs_testkit::check("meld::fixpoint_property_on_random_graphs", |rng| {
            let nn = rng.gen_range(2usize..14);
            let edges = gen::vec_with(rng, 0..40, |r| {
                (r.gen_range(0..nn as u32), r.gen_range(0..nn as u32))
            });
            let is_pre = gen::vec_with(rng, nn..nn, |r| r.gen_bool(0.5));
            {
                let mut g: DiGraph<N> = DiGraph::with_nodes(nn);
                for (f, t) in edges {
                    g.add_edge(n(f), n(t));
                }
                let mut pre = vec![SparseBitVector::new(); nn];
                for (i, &p) in is_pre.iter().enumerate() {
                    if p {
                        pre[i] = sbv(&[i as u32]);
                    }
                }
                let labels = meld_label(&g, pre.clone(), |_| false);
                // Local fixpoint check.
                for (f, t) in g.edges() {
                    if f == t {
                        continue;
                    }
                    assert!(
                        labels[t.index()].is_superset(&labels[f.index()]),
                        "edge {:?}->{:?} not melded",
                        f,
                        t
                    );
                }
                // Global: label = union of prelabels over nodes that reach it.
                for v in g.nodes() {
                    let mut expect = pre[v.index()].clone();
                    for u in g.nodes() {
                        if u != v {
                            let reach = crate::traversal::reachable_from(&g, u);
                            if reach[v.index()] {
                                expect.union_with(&pre[u.index()]);
                            }
                        }
                    }
                    assert_eq!(&labels[v.index()], &expect, "node {:?}", v);
                }
            }
        });
    }
}
