//! Per-function control-flow graphs over basic blocks.
//!
//! Memory-SSA construction needs dominator trees and dominance frontiers
//! per function; [`Cfg`] maps a function's (program-wide) block ids onto a
//! dense local index space and exposes a [`DiGraph`] plus a [`DomTree`].

use crate::ids::{BlockId, FuncId};
use crate::program::Program;
use vsfs_adt::FxHashMap;
use vsfs_graph::{DiGraph, DomTree};

/// The control-flow graph of one function.
#[derive(Debug, Clone)]
pub struct Cfg {
    func: FuncId,
    /// Local index -> program-wide block id.
    blocks: Vec<BlockId>,
    /// Program-wide block id -> local index.
    local: FxHashMap<BlockId, u32>,
    graph: DiGraph<u32>,
}

impl Cfg {
    /// Builds the CFG of `func`.
    pub fn build(prog: &Program, func: FuncId) -> Self {
        let blocks = prog.functions[func].blocks.clone();
        let local: FxHashMap<BlockId, u32> =
            blocks.iter().enumerate().map(|(i, &b)| (b, i as u32)).collect();
        let mut graph: DiGraph<u32> = DiGraph::with_nodes(blocks.len());
        for (i, &b) in blocks.iter().enumerate() {
            for &succ in prog.blocks[b].term.successors() {
                graph.add_edge_dedup(i as u32, local[&succ]);
            }
        }
        Cfg { func, blocks, local, graph }
    }

    /// The function this CFG describes.
    pub fn func(&self) -> FuncId {
        self.func
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The local index of `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is not in this function.
    pub fn local(&self, block: BlockId) -> u32 {
        self.local[&block]
    }

    /// The program-wide block id at local index `i`.
    pub fn block(&self, i: u32) -> BlockId {
        self.blocks[i as usize]
    }

    /// Successor blocks of `block`.
    pub fn successors(&self, block: BlockId) -> impl Iterator<Item = BlockId> + '_ {
        self.graph.successors(self.local[&block]).iter().map(|&i| self.blocks[i as usize])
    }

    /// Predecessor blocks of `block`.
    pub fn predecessors(&self, block: BlockId) -> impl Iterator<Item = BlockId> + '_ {
        self.graph.predecessors(self.local[&block]).iter().map(|&i| self.blocks[i as usize])
    }

    /// The underlying local-index graph.
    pub fn graph(&self) -> &DiGraph<u32> {
        &self.graph
    }

    /// Computes the dominator tree (entry = block 0).
    pub fn dominator_tree(&self) -> DomTree<u32> {
        DomTree::compute(&self.graph, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_program;

    #[test]
    fn diamond_cfg() {
        let prog = parse_program(
            r#"
            func @main() {
            entry:
              br a, b
            a:
              goto join
            b:
              goto join
            join:
              ret
            }
            "#,
        )
        .unwrap();
        let cfg = Cfg::build(&prog, prog.entry_function());
        assert_eq!(cfg.block_count(), 4);
        let entry = cfg.block(0);
        assert_eq!(cfg.successors(entry).count(), 2);
        let join = cfg.block(3);
        assert_eq!(cfg.predecessors(join).count(), 2);
        let dt = cfg.dominator_tree();
        assert_eq!(dt.idom(3), Some(0));
    }

    #[test]
    fn loop_cfg() {
        let prog = parse_program(
            r#"
            func @main() {
            entry:
              goto head
            head:
              br body, out
            body:
              goto head
            out:
              ret
            }
            "#,
        )
        .unwrap();
        let cfg = Cfg::build(&prog, prog.entry_function());
        let head = cfg.block(1);
        assert_eq!(cfg.predecessors(head).count(), 2);
        let dt = cfg.dominator_tree();
        assert!(dt.dominates(cfg.local(head), 3));
    }
}
