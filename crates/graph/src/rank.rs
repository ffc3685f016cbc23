//! Topological scheduling ranks from the SCC condensation.
//!
//! A worklist data-flow solver converges fastest when it visits
//! producers before consumers: each node then sees its (acyclic) inputs
//! already settled and is popped close to once. Cycles make a strict
//! topological order impossible, so we rank by the *condensation*: all
//! members of one strongly-connected component share a rank, components
//! are ranked in topological order, and a priority worklist iterates
//! within a component (same rank, FIFO) until it stabilises before any
//! downstream component is touched.

use crate::digraph::DiGraph;
use crate::scc::Sccs;
use vsfs_adt::index::Idx;

/// Ranks every node of `graph` by the topological position of its SCC in
/// the condensation: if `a -> b` crosses components, `rank[a] < rank[b]`;
/// members of one component share a rank.
///
/// Ranks are dense (`0..scc_count`) and deterministic — they depend only
/// on the graph's node order and adjacency-list order — so they can seed
/// a [`vsfs_adt::Worklist`] without introducing any
/// schedule nondeterminism.
///
/// # Examples
///
/// ```
/// use vsfs_adt::define_index;
/// use vsfs_graph::{condensation_ranks, DiGraph};
///
/// define_index!(N, "n");
/// // 0 -> 1 <-> 2 -> 3: the {1,2} cycle shares a rank.
/// let mut g: DiGraph<N> = DiGraph::with_nodes(4);
/// g.add_edge(N::new(0), N::new(1));
/// g.add_edge(N::new(1), N::new(2));
/// g.add_edge(N::new(2), N::new(1));
/// g.add_edge(N::new(2), N::new(3));
/// let ranks = condensation_ranks(&g);
/// assert!(ranks[0] < ranks[1]);
/// assert_eq!(ranks[1], ranks[2]);
/// assert!(ranks[2] < ranks[3]);
/// ```
pub fn condensation_ranks<I: Idx>(graph: &DiGraph<I>) -> Vec<u32> {
    let sccs = Sccs::compute(graph);
    // Component ids are assigned in reverse topological order (successor
    // components get smaller ids), so flipping them yields
    // predecessors-first ranks.
    let count = sccs.count() as u32;
    graph.nodes().map(|n| count - 1 - sccs.component(n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsfs_adt::define_index;

    define_index!(N, "n");

    fn n(i: u32) -> N {
        N::new(i)
    }

    #[test]
    fn empty_graph_has_no_ranks() {
        let g: DiGraph<N> = DiGraph::new();
        assert!(condensation_ranks(&g).is_empty());
    }

    #[test]
    fn dag_ranks_are_topological() {
        // Diamond: 0 -> {1, 2} -> 3.
        let mut g: DiGraph<N> = DiGraph::with_nodes(4);
        g.add_edge(n(0), n(1));
        g.add_edge(n(0), n(2));
        g.add_edge(n(1), n(3));
        g.add_edge(n(2), n(3));
        let r = condensation_ranks(&g);
        for (f, t) in g.edges() {
            assert!(r[f.index()] < r[t.index()], "edge {f:?}->{t:?} out of order");
        }
    }

    #[test]
    fn cycle_members_share_a_rank() {
        // 0 -> 1 <-> 2 -> 3, plus an unreachable node 4.
        let mut g: DiGraph<N> = DiGraph::with_nodes(5);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        g.add_edge(n(2), n(1));
        g.add_edge(n(2), n(3));
        let r = condensation_ranks(&g);
        assert_eq!(r[1], r[2]);
        assert!(r[0] < r[1]);
        assert!(r[2] < r[3]);
        assert!(r[4] < 4, "unreachable node still gets a dense rank");
    }

    #[test]
    fn ranks_are_dense_bucket_indices() {
        let mut g: DiGraph<N> = DiGraph::with_nodes(3);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        let mut r = condensation_ranks(&g);
        r.sort();
        assert_eq!(r, vec![0, 1, 2]);
    }
}
