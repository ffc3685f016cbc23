//! Directed-graph algorithms for the VSFS workspace.
//!
//! * [`DiGraph`] — a compact directed graph with typed node indices and
//!   successor/predecessor adjacency.
//! * [`scc`] — iterative Tarjan strongly-connected components (used for
//!   Andersen's online cycle elimination, call-graph SCC fixpoints, and,
//!   through the allocation-free [`Tarjan`], object versioning and the
//!   topological ranks that seed the flow-sensitive solvers' priority
//!   worklists).
//! * [`dominators`] — Cooper–Harvey–Kennedy dominator trees, dominance
//!   frontiers, and iterated dominance frontiers (used for memory-SSA
//!   MEMPHI placement).
//! * [`meld`] — *meld labelling*, the paper's prelabelling extension for
//!   directed graphs (Section IV-B): propagate labels until each node's
//!   label is the meld of the labels reaching it.
//! * [`traversal`] — reverse post-order and reachability.
//!
//! # Examples
//!
//! ```
//! use vsfs_adt::define_index;
//! use vsfs_graph::DiGraph;
//!
//! define_index!(N, "n");
//! let mut g: DiGraph<N> = DiGraph::new();
//! let a = g.add_node();
//! let b = g.add_node();
//! g.add_edge(a, b);
//! assert_eq!(g.successors(a), &[b]);
//! assert_eq!(g.predecessors(b), &[a]);
//! ```

pub mod digraph;
pub mod dominators;
pub mod meld;
pub mod scc;
pub mod traversal;

pub use digraph::DiGraph;
pub use dominators::DomTree;
pub use meld::{meld_label, MeldLabel};
pub use scc::{Sccs, Tarjan};
pub use traversal::{reachable_from, reverse_post_order};
