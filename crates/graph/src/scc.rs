//! Strongly-connected components via iterative Tarjan.
//!
//! Component ids are assigned in reverse topological order of the
//! condensation: if component `a` has an edge to component `b` (`a != b`),
//! then `a`'s id is **greater** than `b`'s. Iterating components in id
//! order therefore visits callees/successors before callers/predecessors,
//! which is the order bottom-up interprocedural fixpoints want.

use crate::digraph::DiGraph;
use vsfs_adt::index::Idx;

/// The strongly-connected components of a [`DiGraph`].
#[derive(Debug, Clone)]
pub struct Sccs<I> {
    /// Component id of each node.
    component_of: Vec<u32>,
    /// Members of component `c` at `members[comp_start[c]..comp_start[c + 1]]`.
    comp_start: Vec<u32>,
    members: Vec<I>,
}

impl<I: Idx> Sccs<I> {
    /// Computes the SCCs of `graph` (all nodes, reachable or not).
    pub fn compute(graph: &DiGraph<I>) -> Self {
        let mut t = Tarjan::default();
        t.run(graph.node_count(), |v, pos| {
            let succs = graph.successors(I::from_index(v as usize));
            succs.get(pos as usize).map(|w| (pos + 1, w.index() as u32))
        });
        let members = t.members.iter().map(|&m| I::from_index(m as usize)).collect();
        Sccs { component_of: t.comp, comp_start: t.comp_start, members }
    }

    /// The component id of `node`.
    pub fn component(&self, node: I) -> u32 {
        self.component_of[node.index()]
    }

    /// Number of components.
    pub fn count(&self) -> usize {
        self.comp_start.len() - 1
    }

    /// The member nodes of component `c`.
    pub fn members(&self, c: u32) -> &[I] {
        &self.members
            [self.comp_start[c as usize] as usize..self.comp_start[c as usize + 1] as usize]
    }

    /// Returns `true` if `node` is in a non-trivial cycle: its component
    /// has more than one member, or it has a self-loop in `graph`.
    pub fn in_cycle(&self, graph: &DiGraph<I>, node: I) -> bool {
        self.members(self.component(node)).len() > 1 || graph.has_edge(node, node)
    }
}

/// Tarjan over nodes `0..n` whose successors come from a callback, in
/// buffers reused across runs: once they have grown, a run allocates
/// nothing. The DFS stack is explicit, so deep graphs (SVFGs have very
/// long chains) cannot overflow the call stack. Components are flat:
/// component `c`'s members are [`Tarjan::members`]`(c)`.
#[derive(Debug, Clone, Default)]
pub struct Tarjan {
    index: Vec<u32>,
    lowlink: Vec<u32>,
    /// The SCC stack, and the DFS stack of `(node, next position)`.
    stack: Vec<u32>,
    dfs: Vec<(u32, u32)>,
    /// Component per node (`u32::MAX` while on the SCC stack).
    comp: Vec<u32>,
    comp_start: Vec<u32>,
    members: Vec<u32>,
}

const UNVISITED: u32 = u32::MAX;

impl Tarjan {
    /// Computes the SCCs of the graph on `0..n` whose successors `next`
    /// enumerates: `next(v, pos)` returns the first successor of `v` at
    /// position `pos` or later, with the position just after it, or
    /// `None` past the last.
    ///
    /// A node without successors completes as a singleton component as
    /// soon as it is reached — exactly where Tarjan would complete it —
    /// without the stack traffic; in sparse graphs most nodes are such
    /// sinks.
    pub fn run(&mut self, n: usize, mut next: impl FnMut(u32, u32) -> Option<(u32, u32)>) {
        self.index.clear();
        self.index.resize(n, UNVISITED);
        self.lowlink.clear();
        self.lowlink.resize(n, 0);
        self.comp.clear();
        self.comp.resize(n, u32::MAX);
        self.comp_start.clear();
        self.comp_start.push(0);
        self.members.clear();
        let mut next_index = 0u32;
        for root in 0..n as u32 {
            if self.index[root as usize] == UNVISITED {
                self.visit(root, &mut next_index, &mut next);
            }
            while let Some(&(v, pos)) = self.dfs.last() {
                let vi = v as usize;
                if let Some((after, w)) = next(v, pos) {
                    self.dfs.last_mut().expect("non-empty").1 = after;
                    let wi = w as usize;
                    if self.index[wi] == UNVISITED {
                        self.visit(w, &mut next_index, &mut next);
                    } else if self.comp[wi] == u32::MAX {
                        self.lowlink[vi] = self.lowlink[vi].min(self.index[wi]);
                    }
                    continue;
                }
                self.dfs.pop();
                if self.lowlink[vi] == self.index[vi] {
                    loop {
                        let w = self.stack.pop().expect("tarjan stack underflow");
                        self.close(w);
                        if w == v {
                            break;
                        }
                    }
                    self.comp_start.push(self.members.len() as u32);
                }
                if let Some(&(p, _)) = self.dfs.last() {
                    let pi = p as usize;
                    self.lowlink[pi] = self.lowlink[pi].min(self.lowlink[vi]);
                }
            }
        }
    }

    /// Numbers `v` and either completes it at once (no successors) or
    /// pushes it on both stacks.
    fn visit(
        &mut self,
        v: u32,
        next_index: &mut u32,
        next: &mut impl FnMut(u32, u32) -> Option<(u32, u32)>,
    ) {
        self.index[v as usize] = *next_index;
        self.lowlink[v as usize] = *next_index;
        *next_index += 1;
        if next(v, 0).is_none() {
            self.close(v);
            self.comp_start.push(self.members.len() as u32);
        } else {
            self.stack.push(v);
            self.dfs.push((v, 0));
        }
    }

    /// Adds `v` to the component being completed.
    fn close(&mut self, v: u32) {
        self.comp[v as usize] = self.comp_start.len() as u32 - 1;
        self.members.push(v);
    }

    /// The component of `v`.
    pub fn component(&self, v: u32) -> u32 {
        self.comp[v as usize]
    }

    /// Number of components.
    pub fn count(&self) -> usize {
        self.comp_start.len() - 1
    }

    /// The members of component `c`.
    pub fn members(&self, c: u32) -> &[u32] {
        &self.members
            [self.comp_start[c as usize] as usize..self.comp_start[c as usize + 1] as usize]
    }

    /// Topological ranks of the last run's nodes by the SCC
    /// condensation: members of one component share a rank, and an edge
    /// between components goes from a lower rank to a higher one. Ranks
    /// are dense (`0..count`) and depend only on the node order and the
    /// successor order, so they can seed a [`vsfs_adt::Worklist`]
    /// without introducing any schedule nondeterminism.
    ///
    /// # Examples
    ///
    /// ```
    /// use vsfs_graph::Tarjan;
    ///
    /// // 0 -> 1 <-> 2 -> 3: the {1,2} cycle shares a rank.
    /// let succs: [&[u32]; 4] = [&[1], &[2], &[1, 3], &[]];
    /// let mut t = Tarjan::default();
    /// t.run(4, |v, pos| succs[v as usize].get(pos as usize).map(|&w| (pos + 1, w)));
    /// let ranks = t.ranks();
    /// assert!(ranks[0] < ranks[1]);
    /// assert_eq!(ranks[1], ranks[2]);
    /// assert!(ranks[2] < ranks[3]);
    /// ```
    pub fn ranks(&self) -> Vec<u32> {
        let count = self.count() as u32;
        self.comp.iter().map(|&c| count - 1 - c).collect()
    }
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
    fn dag_has_singleton_components() {
        let mut g: DiGraph<N> = DiGraph::with_nodes(3);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        let sccs = Sccs::compute(&g);
        assert_eq!(sccs.count(), 3);
        for v in g.nodes() {
            assert_eq!(sccs.members(sccs.component(v)), &[v]);
            assert!(!sccs.in_cycle(&g, v));
        }
        // Reverse topological: successors get smaller ids.
        assert!(sccs.component(n(2)) < sccs.component(n(1)));
        assert!(sccs.component(n(1)) < sccs.component(n(0)));
    }

    #[test]
    fn cycle_collapses() {
        // 0 -> 1 -> 2 -> 1, 2 -> 3
        let mut g: DiGraph<N> = DiGraph::with_nodes(4);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        g.add_edge(n(2), n(1));
        g.add_edge(n(2), n(3));
        let sccs = Sccs::compute(&g);
        assert_eq!(sccs.count(), 3);
        assert_eq!(sccs.component(n(1)), sccs.component(n(2)));
        assert_ne!(sccs.component(n(0)), sccs.component(n(1)));
        assert!(sccs.in_cycle(&g, n(1)));
        assert!(sccs.in_cycle(&g, n(2)));
        assert!(!sccs.in_cycle(&g, n(0)));
        assert!(!sccs.in_cycle(&g, n(3)));
    }

    #[test]
    fn self_loop_is_cycle() {
        let mut g: DiGraph<N> = DiGraph::with_nodes(2);
        g.add_edge(n(0), n(0));
        let sccs = Sccs::compute(&g);
        assert_eq!(sccs.count(), 2);
        assert!(sccs.in_cycle(&g, n(0)));
        assert!(!sccs.in_cycle(&g, n(1)));
    }

    #[test]
    fn reverse_topo_order_of_condensation() {
        // Two cycles in sequence: {0,1} -> {2,3}
        let mut g: DiGraph<N> = DiGraph::with_nodes(4);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(0));
        g.add_edge(n(1), n(2));
        g.add_edge(n(2), n(3));
        g.add_edge(n(3), n(2));
        let sccs = Sccs::compute(&g);
        assert_eq!(sccs.count(), 2);
        assert!(sccs.component(n(2)) < sccs.component(n(0)));
    }

    /// [`Tarjan::ranks`] of the graph on `0..count` with `edges`, in
    /// order.
    fn ranks(count: usize, edges: &[(u32, u32)]) -> Vec<u32> {
        let mut g: DiGraph<N> = DiGraph::with_nodes(count);
        for &(a, b) in edges {
            g.add_edge(n(a), n(b));
        }
        let mut t = Tarjan::default();
        t.run(count, |v, pos| {
            let succs = g.successors(n(v));
            succs.get(pos as usize).map(|w| (pos + 1, w.index() as u32))
        });
        t.ranks()
    }

    #[test]
    fn empty_graph_has_no_ranks() {
        assert!(ranks(0, &[]).is_empty());
    }

    #[test]
    fn chain_ranks_are_dense_and_topological() {
        assert_eq!(ranks(3, &[(0, 1), (1, 2)]), vec![0, 1, 2]);
        // Diamond: 0 -> {1, 2} -> 3.
        let edges = [(0, 1), (0, 2), (1, 3), (2, 3)];
        let r = ranks(4, &edges);
        for (f, t) in edges {
            assert!(r[f as usize] < r[t as usize], "edge {f}->{t} out of order");
        }
    }

    #[test]
    fn cycle_members_share_a_rank() {
        // 0 -> 1 <-> 2 -> 3, plus an unreachable node 4.
        let r = ranks(5, &[(0, 1), (1, 2), (2, 1), (2, 3)]);
        assert_eq!(r[1], r[2]);
        assert!(r[0] < r[1]);
        assert!(r[2] < r[3]);
        assert!(r[4] < 4, "unreachable node still gets a dense rank");
    }

    #[test]
    fn ranks_are_deterministic() {
        // 0 -> 1 <-> 2 -> 3, plus 4 -> 0: the same graph in the same
        // successor order ranks identically, and so does a reused Tarjan.
        let edges = [(0, 1), (1, 2), (2, 1), (2, 3), (4, 0)];
        let first = ranks(5, &edges);
        assert_eq!(ranks(5, &edges), first);
        let mut t = Tarjan::default();
        let succs: [&[u32]; 5] = [&[1], &[2], &[1, 3], &[], &[0]];
        for _ in 0..2 {
            t.run(5, |v, pos| succs[v as usize].get(pos as usize).map(|&w| (pos + 1, w)));
            assert_eq!(t.ranks(), first);
        }
    }

    #[test]
    fn deep_chain_does_not_overflow() {
        let k = 200_000;
        let mut g: DiGraph<N> = DiGraph::with_nodes(k);
        for i in 0..k - 1 {
            g.add_edge(n(i as u32), n(i as u32 + 1));
        }
        let sccs = Sccs::compute(&g);
        assert_eq!(sccs.count(), k);
    }
}
