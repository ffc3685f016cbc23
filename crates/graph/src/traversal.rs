//! Graph traversals: reverse post-order and reachability.

use crate::digraph::DiGraph;
use vsfs_adt::index::Idx;

/// Computes a reverse post-order of the nodes reachable from `entry`.
///
/// In a CFG, RPO visits definitions before uses along forward edges, which
/// makes worklist data-flow solvers converge in few passes.
///
/// # Examples
///
/// ```
/// use vsfs_adt::define_index;
/// use vsfs_graph::{reverse_post_order, DiGraph};
///
/// define_index!(N, "n");
/// let mut g: DiGraph<N> = DiGraph::with_nodes(3);
/// g.add_edge(N::new(0), N::new(1));
/// g.add_edge(N::new(1), N::new(2));
/// assert_eq!(reverse_post_order(&g, N::new(0)), vec![N::new(0), N::new(1), N::new(2)]);
/// ```
pub fn reverse_post_order<I: Idx>(graph: &DiGraph<I>, entry: I) -> Vec<I> {
    let n = graph.node_count();
    let mut visited = vec![false; n];
    let mut postorder = Vec::with_capacity(n);
    // Iterative DFS with an explicit (node, next-successor) stack.
    let mut stack: Vec<(I, usize)> = vec![(entry, 0)];
    visited[entry.index()] = true;
    while let Some(&mut (node, ref mut next)) = stack.last_mut() {
        let succs = graph.successors(node);
        if *next < succs.len() {
            let s = succs[*next];
            *next += 1;
            if !visited[s.index()] {
                visited[s.index()] = true;
                stack.push((s, 0));
            }
        } else {
            postorder.push(node);
            stack.pop();
        }
    }
    postorder.reverse();
    postorder
}

/// Returns the set of nodes reachable from `entry` (including `entry`),
/// as a boolean vector indexed by node.
pub fn reachable_from<I: Idx>(graph: &DiGraph<I>, entry: I) -> Vec<bool> {
    let mut visited = vec![false; graph.node_count()];
    let mut stack = vec![entry];
    visited[entry.index()] = true;
    while let Some(node) = stack.pop() {
        for &s in graph.successors(node) {
            if !visited[s.index()] {
                visited[s.index()] = true;
                stack.push(s);
            }
        }
    }
    visited
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
    fn rpo_diamond_visits_join_last() {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        let mut g: DiGraph<N> = DiGraph::with_nodes(4);
        g.add_edge(n(0), n(1));
        g.add_edge(n(0), n(2));
        g.add_edge(n(1), n(3));
        g.add_edge(n(2), n(3));
        let rpo = reverse_post_order(&g, n(0));
        assert_eq!(rpo[0], n(0));
        assert_eq!(rpo[3], n(3));
        assert_eq!(rpo.len(), 4);
    }

    #[test]
    fn rpo_skips_unreachable() {
        let mut g: DiGraph<N> = DiGraph::with_nodes(3);
        g.add_edge(n(0), n(1));
        // node 2 unreachable
        let rpo = reverse_post_order(&g, n(0));
        assert_eq!(rpo, vec![n(0), n(1)]);
    }

    #[test]
    fn rpo_handles_cycles() {
        let mut g: DiGraph<N> = DiGraph::with_nodes(3);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        g.add_edge(n(2), n(1));
        let rpo = reverse_post_order(&g, n(0));
        assert_eq!(rpo.len(), 3);
        assert_eq!(rpo[0], n(0));
    }

    #[test]
    fn reachability() {
        let mut g: DiGraph<N> = DiGraph::with_nodes(4);
        g.add_edge(n(0), n(1));
        g.add_edge(n(2), n(3));
        let r = reachable_from(&g, n(0));
        assert_eq!(r, vec![true, true, false, false]);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use vsfs_adt::{define_index, FxHashMap};

    define_index!(M, "m");

    #[test]
    fn rpo_of_single_node() {
        let g: DiGraph<M> = DiGraph::with_nodes(1);
        assert_eq!(reverse_post_order(&g, M::new(0)), vec![M::new(0)]);
    }

    #[test]
    fn rpo_respects_topological_order_on_dags() {
        // Random-ish DAG: edges only i -> j with i < j; RPO must then be
        // a topological order.
        let n = 50;
        let mut g: DiGraph<M> = DiGraph::with_nodes(n);
        for i in 0..n as u32 {
            for k in [1u32, 3, 7] {
                if i + k < n as u32 {
                    g.add_edge(M::new(i), M::new(i + k));
                }
            }
        }
        let rpo = reverse_post_order(&g, M::new(0));
        let pos: FxHashMap<M, usize> = rpo.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        for (f, t) in g.edges() {
            assert!(pos[&f] < pos[&t], "edge {f:?}->{t:?} out of order");
        }
    }

    #[test]
    fn self_loop_reachability() {
        let mut g: DiGraph<M> = DiGraph::with_nodes(2);
        g.add_edge(M::new(0), M::new(0));
        let r = reachable_from(&g, M::new(0));
        assert_eq!(r, vec![true, false]);
    }
}
