//! Per-node lists stored flat: compressed sparse rows.
//!
//! Graph construction in this workspace groups edge streams by source
//! node many times over (the SVFG's direct and indirect adjacency,
//! def-use chains, the dependence graphs behind every topological rank).
//! [`Adjacency`] is the one representation for all of them: one offsets
//! array plus one flat item array, built by a counting pass and a fill
//! pass with no per-node allocation.

use crate::index::Idx;
use std::marker::PhantomData;

/// Per-node lists stored flat: the list of node `n` is
/// `items[start[n]..start[n + 1]]`.
///
/// `K` is the node index type and `T` the item type (a target node, or a
/// target with a label).
///
/// # Examples
///
/// ```
/// use vsfs_adt::Adjacency;
///
/// let edges = [(2u32, 'a'), (0, 'b'), (2, 'c')];
/// let adj: Adjacency<u32, char> = Adjacency::new(3, || edges.iter().copied());
/// assert_eq!(adj.of(0), &['b']);
/// assert!(adj.of(1).is_empty());
/// assert_eq!(adj.of(2), &['a', 'c']); // input order kept within a list
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Adjacency<K, T = K> {
    start: Vec<u32>,
    items: Vec<T>,
    _node: PhantomData<fn(K)>,
}

impl<K, T> Default for Adjacency<K, T> {
    /// Lists for zero nodes.
    fn default() -> Self {
        Adjacency { start: vec![0], items: Vec::new(), _node: PhantomData }
    }
}

impl<K: Idx, T: Copy> Adjacency<K, T> {
    /// Groups the `(node, item)` pairs `edges()` yields by node, for nodes
    /// `0..nodes`. `edges` is called twice — a counting pass, then a fill
    /// pass — and must yield the same stream both times; each list keeps
    /// the order its items came in.
    pub fn new<E>(nodes: usize, edges: impl Fn() -> E) -> Self
    where
        E: Iterator<Item = (K, T)>,
    {
        let mut start = vec![0u32; nodes + 1];
        let mut first = None;
        // Internal iteration (`for_each`) lets chained and flattened edge
        // streams run as tight nested loops.
        edges().for_each(|(node, item)| {
            start[node.index() + 1] += 1;
            first.get_or_insert(item);
        });
        for i in 1..start.len() {
            start[i] = start[i].checked_add(start[i - 1]).expect("adjacency exceeds u32 range");
        }
        let Some(first) = first else {
            return Adjacency { start, items: Vec::new(), _node: PhantomData };
        };
        // Every slot is overwritten by the fill pass; `first` is only a
        // placeholder of the right type.
        let mut items = vec![first; start[nodes] as usize];
        let mut next = start.clone();
        edges().for_each(|(node, item)| {
            let slot = &mut next[node.index()];
            items[*slot as usize] = item;
            *slot += 1;
        });
        Adjacency { start, items, _node: PhantomData }
    }

    /// Builds the lists node by node: `row(n, items)` appends the list of
    /// node `n` to `items`, for `n` in `0..nodes` ascending.
    pub fn from_rows(nodes: usize, mut row: impl FnMut(K, &mut Vec<T>)) -> Self {
        let mut start = Vec::with_capacity(nodes + 1);
        let mut items = Vec::new();
        start.push(0);
        for n in 0..nodes {
            row(K::from_index(n), &mut items);
            start.push(u32::try_from(items.len()).expect("adjacency exceeds u32 range"));
        }
        Adjacency { start, items, _node: PhantomData }
    }

    /// Keeps, in every list, only the items `keep(node, item)` accepts,
    /// in their order; compacts in place.
    pub fn retain(&mut self, mut keep: impl FnMut(K, &T) -> bool) {
        let mut w = 0usize;
        for n in 0..self.node_count() {
            let (lo, hi) = (self.start[n] as usize, self.start[n + 1] as usize);
            self.start[n] = w as u32;
            for r in lo..hi {
                if keep(K::from_index(n), &self.items[r]) {
                    self.items[w] = self.items[r];
                    w += 1;
                }
            }
        }
        let last = self.start.len() - 1;
        self.start[last] = w as u32;
        self.items.truncate(w);
        self.items.shrink_to_fit();
    }
}

impl<K: Idx, T> Adjacency<K, T> {
    /// The list of `node`.
    pub fn of(&self, node: K) -> &[T] {
        let n = node.index();
        &self.items[self.start[n] as usize..self.start[n + 1] as usize]
    }

    /// The list of `node`, mutably (to reorder it in place).
    pub fn of_mut(&mut self, node: K) -> &mut [T] {
        let n = node.index();
        &mut self.items[self.start[n] as usize..self.start[n + 1] as usize]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.start.len() - 1
    }

    /// Total number of items over all lists.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` if every list is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The offsets array: node `n`'s list spans
    /// `offsets()[n]..offsets()[n + 1]` of [`Adjacency::items`].
    pub fn offsets(&self) -> &[u32] {
        &self.start
    }

    /// Every list, concatenated in node order.
    pub fn items(&self) -> &[T] {
        &self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiles<K: Idx, T>(adj: &Adjacency<K, T>) -> bool {
        let o = adj.offsets();
        o.first() == Some(&0)
            && o.windows(2).all(|w| w[0] <= w[1])
            && *o.last().unwrap() as usize == adj.items().len()
    }

    #[test]
    fn no_nodes() {
        let adj: Adjacency<u32> = Adjacency::new(0, std::iter::empty);
        assert_eq!(adj.node_count(), 0);
        assert!(adj.is_empty());
        assert!(tiles(&adj));
        let rows: Adjacency<u32> = Adjacency::from_rows(0, |_, _| unreachable!());
        assert_eq!(rows, adj);
        assert_eq!(Adjacency::<u32>::default(), adj);
    }

    #[test]
    fn isolated_nodes() {
        let adj: Adjacency<u32> = Adjacency::new(4, std::iter::empty);
        assert_eq!(adj.node_count(), 4);
        assert!((0..4).all(|n| adj.of(n).is_empty()));
        assert!(tiles(&adj));
        // Only node 2 has edges; 0, 1 and 3 stay isolated around it.
        let edges = [(2u32, 0u32), (2, 3)];
        let adj: Adjacency<u32> = Adjacency::new(4, || edges.iter().copied());
        assert_eq!(adj.offsets(), &[0, 0, 0, 2, 2]);
        assert_eq!(adj.of(2), &[0, 3]);
        assert!(tiles(&adj));
    }

    #[test]
    fn input_order_kept_within_a_bucket() {
        let edges = [(1u32, 9u32), (0, 5), (1, 2), (1, 9), (0, 1), (1, 4)];
        let adj: Adjacency<u32> = Adjacency::new(2, || edges.iter().copied());
        assert_eq!(adj.of(0), &[5, 1]);
        assert_eq!(adj.of(1), &[9, 2, 9, 4]);
        assert_eq!(adj.len(), edges.len());
        assert!(tiles(&adj));
    }

    #[test]
    fn from_rows_matches_new() {
        let edges = [(0u32, 7u32), (0, 3), (2, 1)];
        let a: Adjacency<u32> = Adjacency::new(3, || edges.iter().copied());
        let b: Adjacency<u32> = Adjacency::from_rows(3, |n, out| {
            out.extend(edges.iter().filter(|&&(f, _)| f == n).map(|&(_, t)| t))
        });
        assert_eq!(a, b);
    }

    #[test]
    fn retain_compacts_in_order() {
        let edges = [(0u32, 1u32), (0, 0), (0, 2), (1, 1), (2, 0), (2, 2)];
        let mut adj: Adjacency<u32> = Adjacency::new(3, || edges.iter().copied());
        adj.retain(|n, &t| n != t);
        assert_eq!(adj.of(0), &[1, 2]);
        assert!(adj.of(1).is_empty());
        assert_eq!(adj.of(2), &[0]);
        assert!(tiles(&adj));
        let mut sorted = adj.clone();
        sorted.of_mut(0).sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(sorted.of(0), &[2, 1]);
    }
}
