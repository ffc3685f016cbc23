//! Fixpoint scheduling: the SVFG dependence graph, and the topological
//! ranks behind the solvers' worklists.
//!
//! The flow-sensitive solvers drain monotone constraint systems, so the
//! worklist order changes only *when* work happens — the final fixpoint
//! is the same unique least solution under any order. What the order does
//! change is how much redundant work the fixpoint performs: a topological
//! (SCC-condensation) order lets producers settle before consumers run,
//! so most nodes are popped close to once per growth wave. It is the only
//! schedule; EXPERIMENTS.md ("Mechanism audit") compares it with FIFO.
//!
//! Ranks are computed once per solve from the *static* dependence graph
//! (`DepGraph` for node scheduling; version reliance edges plus
//! candidate activation pairs for VSFS slot scheduling). Edges activated
//! during solving are therefore already ranked, and a newly activated
//! edge can never make the order unsound — only locally non-topological,
//! costing at worst extra re-visits. Every graph is walked in place by
//! [`Tarjan`]; none is materialised.

use vsfs_adt::{Adjacency, Worklist};
use vsfs_graph::Tarjan;
use vsfs_ir::{InstId, InstKind, Program};
use vsfs_svfg::{Svfg, SvfgNodeId};

use crate::versioning::VersionTables;

/// The deferred `(call, callee)` bindings of `svfg` in a deterministic
/// order. The underlying map is hash-keyed, so anything order-sensitive
/// (rank assignment via Tarjan's DFS) must go through this.
pub(crate) fn sorted_binding_pairs(svfg: &Svfg) -> Vec<(InstId, vsfs_ir::FuncId)> {
    let mut pairs: Vec<_> = svfg.call_bindings().map(|(&k, _)| k).collect();
    pairs.sort_unstable();
    pairs
}

/// The SVFG dependence graph: static direct and indirect SVFG edges,
/// plus the candidate dynamic edges on-the-fly call-graph resolution
/// could wire during a solve (`call → FUNENTRY` / `FUNEXIT → return
/// side` per deferred binding pair, `call → return side` per call). Only
/// the candidate edges are stored; the static ones are read off the
/// SVFG. It holds every edge a solve can use, so its SCC condensation
/// ranks the node worklist of every solve, cold or seeded, and
/// incremental invalidation closes dirtiness over its SCCs.
struct DepGraph {
    /// Candidate dynamic successors per node.
    dynamic: Adjacency<SvfgNodeId>,
}

impl DepGraph {
    fn build(prog: &Program, svfg: &Svfg) -> DepGraph {
        let mut edges: Vec<(SvfgNodeId, SvfgNodeId)> = Vec::new();
        for (call, callee) in sorted_binding_pairs(svfg) {
            let f = &prog.functions[callee];
            edges.push((svfg.inst_node(call), svfg.inst_node(f.entry_inst)));
            edges.push((svfg.inst_node(f.exit_inst), svfg.callret_node(call)));
        }
        for (inst, i) in prog.insts.iter_enumerated() {
            if matches!(i.kind, InstKind::Call { .. }) {
                edges.push((svfg.inst_node(inst), svfg.callret_node(inst)));
            }
        }
        DepGraph { dynamic: Adjacency::new(svfg.node_count(), || edges.iter().copied()) }
    }

    /// The `pos`-th successor of `node`: its direct successors, then its
    /// indirect ones, then its candidate dynamic ones.
    fn successor(&self, svfg: &Svfg, node: SvfgNodeId, pos: usize) -> Option<SvfgNodeId> {
        let direct = svfg.direct_succs(node);
        if let Some(&s) = direct.get(pos) {
            return Some(s);
        }
        let indirect = svfg.indirect_succs(node);
        if let Some(&(s, _)) = indirect.get(pos - direct.len()) {
            return Some(s);
        }
        self.dynamic.of(node).get(pos - direct.len() - indirect.len()).copied()
    }
}

/// The SCCs of `svfg`'s dependence graph ([`DepGraph`]), indexed by
/// node.
pub(crate) fn node_sccs(prog: &Program, svfg: &Svfg) -> Tarjan {
    let graph = DepGraph::build(prog, svfg);
    sccs(svfg.node_count(), |v, pos| {
        graph.successor(svfg, SvfgNodeId::new(v), pos).map(|w| w.raw())
    })
}

/// The SCCs of the graph on `0..n` whose `pos`-th successor of `v` is
/// `successor(v, pos)` (`None` past the last).
pub(crate) fn sccs(n: usize, successor: impl Fn(u32, usize) -> Option<u32>) -> Tarjan {
    let mut t = Tarjan::default();
    t.run(n, |v, pos| successor(v, pos as usize).map(|w| (pos + 1, w)));
    t
}

/// The SVFG node worklist, ranked by the dependence graph.
pub(crate) fn node_worklist(prog: &Program, svfg: &Svfg) -> Worklist<SvfgNodeId> {
    Worklist::new(node_sccs(prog, svfg).ranks())
}

/// The VSFS version-slot worklist, ranked by [`slot_ranks`].
pub(crate) fn slot_worklist(
    prog: &Program,
    svfg: &Svfg,
    tables: &VersionTables,
) -> Worklist<usize> {
    Worklist::new(slot_ranks(prog, svfg, tables))
}

/// Topological ranks for the VSFS version-slot worklist.
///
/// The dependence graph is the static version reliance relation plus the
/// candidate `(yield, consume)` pairs an on-the-fly call activation could
/// add, mirroring `VsfsSolver::activate_binding`. A slot's successors
/// are its reliance edges, then its candidate pairs.
fn slot_ranks(prog: &Program, svfg: &Svfg, tables: &VersionTables) -> Vec<u32> {
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for (call, callee) in sorted_binding_pairs(svfg) {
        let binding =
            svfg.call_binding(call, callee).expect("binding pair came from the binding map");
        let call_node = svfg.inst_node(call);
        let ret_node = svfg.callret_node(call);
        let f = &prog.functions[callee];
        let entry_node = svfg.inst_node(f.entry_inst);
        let exit_node = svfg.inst_node(f.exit_inst);
        for &o in &binding.ins {
            if let (Some(y), Some(c)) =
                (tables.yield_slot(call_node, o), tables.consume_slot(entry_node, o))
            {
                pairs.push((y, c));
            }
        }
        for &o in &binding.outs {
            if let (Some(y), Some(c)) =
                (tables.yield_slot(exit_node, o), tables.consume_slot(ret_node, o))
            {
                pairs.push((y, c));
            }
        }
    }
    let n = tables.slot_count() as usize;
    let candidates = Adjacency::new(n, || pairs.iter().copied());
    let ranks = sccs(n, |y, pos| {
        let reliance = tables.reliance(y);
        match reliance.get(pos) {
            Some(&c) => Some(c),
            None => candidates.of(y).get(pos - reliance.len()).copied(),
        }
    });
    ranks.ranks()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsfs_ir::parse_program;
    use vsfs_mssa::MemorySsa;

    #[test]
    fn ranks_follow_store_load_chains() {
        let prog = parse_program(
            r#"
            func @main() {
            entry:
              %p = alloc stack Cell
              %h = alloc heap H
              store %h, %p
              %v = load %p
              ret
            }
            "#,
        )
        .unwrap();
        let aux = vsfs_andersen::analyze(&prog);
        let mssa = MemorySsa::build(&prog, &aux);
        let svfg = Svfg::build(&prog, &aux, &mssa);
        let ranks = node_sccs(&prog, &svfg).ranks();
        assert_eq!(ranks.len(), svfg.node_count());
        // Every static edge is (weakly) rank-ordered.
        for n in svfg.node_ids() {
            for &(s, _) in svfg.indirect_succs(n) {
                assert!(
                    ranks[n.index()] <= ranks[s.index()],
                    "indirect edge {n:?} -> {s:?} violates rank order"
                );
            }
            for &s in svfg.direct_succs(n) {
                assert!(ranks[n.index()] <= ranks[s.index()]);
            }
        }
    }

    #[test]
    fn slot_ranks_follow_reliance() {
        let prog = parse_program(
            r#"
            func @main() {
            entry:
              %p = alloc stack Cell array
              %a = alloc heap A
              store %a, %p
              %v1 = load %p
              store %v1, %p
              %v2 = load %p
              ret
            }
            "#,
        )
        .unwrap();
        let aux = vsfs_andersen::analyze(&prog);
        let mssa = MemorySsa::build(&prog, &aux);
        let svfg = Svfg::build(&prog, &aux, &mssa);
        let tables = VersionTables::build(&prog, &mssa, &svfg);
        let ranks = slot_ranks(&prog, &svfg, &tables);
        assert_eq!(ranks.len(), tables.slot_count() as usize);
        for y in 0..tables.slot_count() {
            for &c in tables.reliance(y) {
                assert!(ranks[y as usize] <= ranks[c as usize]);
            }
        }
    }
}
