//! A compact directed graph with typed node indices.

use vsfs_adt::index::Idx;
use vsfs_adt::IndexVec;

/// A directed graph storing successor and predecessor adjacency lists.
///
/// Parallel edges are permitted by [`DiGraph::add_edge`]; use
/// [`DiGraph::add_edge_dedup`] to skip duplicates one edge at a time.
///
/// # Examples
///
/// ```
/// use vsfs_adt::define_index;
/// use vsfs_graph::DiGraph;
///
/// define_index!(N, "n");
/// let mut g: DiGraph<N> = DiGraph::with_nodes(3);
/// g.add_edge(N::new(0), N::new(1));
/// g.add_edge(N::new(1), N::new(2));
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.edge_count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiGraph<I> {
    succs: IndexVec<I, Vec<I>>,
    preds: IndexVec<I, Vec<I>>,
    edges: usize,
}

impl<I: Idx> DiGraph<I> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        DiGraph { succs: IndexVec::new(), preds: IndexVec::new(), edges: 0 }
    }

    /// Creates a graph with `n` isolated nodes.
    pub fn with_nodes(n: usize) -> Self {
        DiGraph {
            succs: (0..n).map(|_| Vec::new()).collect(),
            preds: (0..n).map(|_| Vec::new()).collect(),
            edges: 0,
        }
    }

    /// Adds an isolated node, returning its index.
    pub fn add_node(&mut self) -> I {
        self.preds.push(Vec::new());
        self.succs.push(Vec::new())
    }

    /// Adds a directed edge `from -> to` (parallel edges allowed).
    pub fn add_edge(&mut self, from: I, to: I) {
        self.succs[from].push(to);
        self.preds[to].push(from);
        self.edges += 1;
    }

    /// Adds `from -> to` unless already present; returns `true` if added.
    ///
    /// Costs O(out-degree of `from`) per call: it scans the successor
    /// list. Fine for the small out-degrees of CFGs and call graphs, but
    /// not for bulk builds, where a quadratic blow-up hides behind one
    /// high-degree node; dedup there with a per-source stamp array over
    /// the targets and call [`DiGraph::add_edge`].
    pub fn add_edge_dedup(&mut self, from: I, to: I) -> bool {
        if self.succs[from].contains(&to) {
            return false;
        }
        self.add_edge(from, to);
        true
    }

    /// Returns `true` if the edge `from -> to` exists.
    pub fn has_edge(&self, from: I, to: I) -> bool {
        self.succs[from].contains(&to)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.succs.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Successors of `node`.
    pub fn successors(&self, node: I) -> &[I] {
        &self.succs[node]
    }

    /// Predecessors of `node`.
    pub fn predecessors(&self, node: I) -> &[I] {
        &self.preds[node]
    }

    /// Iterates all node indices.
    pub fn nodes(&self) -> impl Iterator<Item = I> + 'static {
        (0..self.node_count()).map(I::from_index)
    }

    /// Iterates all edges as `(from, to)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (I, I)> + '_ {
        self.succs.iter_enumerated().flat_map(|(from, tos)| tos.iter().map(move |&to| (from, to)))
    }
}

impl<I: Idx> Default for DiGraph<I> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsfs_adt::define_index;

    define_index!(N, "n");

    #[test]
    fn build_and_query() {
        let mut g: DiGraph<N> = DiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        g.add_edge(a, b);
        g.add_edge(a, c);
        g.add_edge(b, c);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.successors(a), &[b, c]);
        assert_eq!(g.predecessors(c), &[a, b]);
        assert!(g.has_edge(a, b));
        assert!(!g.has_edge(b, a));
        assert_eq!(g.edges().count(), 3);
    }

    #[test]
    fn dedup_edges() {
        let mut g: DiGraph<N> = DiGraph::with_nodes(2);
        assert!(g.add_edge_dedup(N::new(0), N::new(1)));
        assert!(!g.add_edge_dedup(N::new(0), N::new(1)));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn self_loops_allowed() {
        let mut g: DiGraph<N> = DiGraph::with_nodes(1);
        g.add_edge(N::new(0), N::new(0));
        assert_eq!(g.successors(N::new(0)), &[N::new(0)]);
        assert_eq!(g.predecessors(N::new(0)), &[N::new(0)]);
    }
}
