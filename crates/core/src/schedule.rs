//! Fixpoint scheduling: the topological ranks behind the solvers'
//! worklists.
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
//! (SVFG edges plus every possible on-the-fly call binding for node
//! scheduling; version reliance edges plus candidate activation pairs for
//! VSFS slot scheduling). Edges activated during solving are therefore
//! already ranked, and a newly activated edge can never make the order
//! unsound — only locally non-topological, costing at worst extra
//! re-visits.

use vsfs_adt::Worklist;
use vsfs_graph::{condensation_ranks, DiGraph};
use vsfs_ir::{InstId, Program};
use vsfs_svfg::{Svfg, SvfgNodeId};

use crate::versioning::VersionTables;

/// The deferred `(call, callee)` bindings of `svfg` in a deterministic
/// order. The underlying map is hash-keyed, so anything order-sensitive
/// (rank assignment via Tarjan's DFS) must go through this.
fn sorted_binding_pairs(svfg: &Svfg) -> Vec<(InstId, vsfs_ir::FuncId)> {
    let mut pairs: Vec<_> = svfg.call_bindings().map(|(&k, _)| k).collect();
    pairs.sort_unstable();
    pairs
}

/// The solve-dependence graph behind the SVFG node worklist: every
/// direct and indirect SVFG edge, plus — for each *possible*
/// indirect-call activation — the `call → FUNENTRY` and
/// `FUNEXIT → return-side` edges the solver may wire up on the fly.
/// Including candidate activations keeps the derived order topological
/// even after δ-node edges appear mid-solve.
fn svfg_dep_graph(prog: &Program, svfg: &Svfg) -> DiGraph<SvfgNodeId> {
    let mut g: DiGraph<SvfgNodeId> = DiGraph::with_nodes(svfg.node_count());
    for n in svfg.node_ids() {
        for &s in svfg.direct_succs(n) {
            g.add_edge(n, s);
        }
        for &(s, _) in svfg.indirect_succs(n) {
            g.add_edge(n, s);
        }
    }
    for (call, callee) in sorted_binding_pairs(svfg) {
        let f = &prog.functions[callee];
        g.add_edge(svfg.inst_node(call), svfg.inst_node(f.entry_inst));
        g.add_edge(svfg.inst_node(f.exit_inst), svfg.callret_node(call));
    }
    g
}

/// The SVFG node worklist, ranked by the dependence graph.
pub(crate) fn node_worklist(prog: &Program, svfg: &Svfg) -> Worklist<SvfgNodeId> {
    Worklist::new(condensation_ranks(&svfg_dep_graph(prog, svfg)))
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
/// add, mirroring `VsfsSolver::activate_binding`.
fn slot_ranks(prog: &Program, svfg: &Svfg, tables: &VersionTables) -> Vec<u32> {
    let n = tables.slot_count() as usize;
    let mut g: DiGraph<usize> = DiGraph::with_nodes(n);
    for y in 0..n {
        for &c in tables.reliance(y as u32) {
            g.add_edge(y, c as usize);
        }
    }
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
                g.add_edge(y as usize, c as usize);
            }
        }
        for &o in &binding.outs {
            if let (Some(y), Some(c)) =
                (tables.yield_slot(exit_node, o), tables.consume_slot(ret_node, o))
            {
                g.add_edge(y as usize, c as usize);
            }
        }
    }
    condensation_ranks(&g)
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
        let ranks = condensation_ranks(&svfg_dep_graph(&prog, &svfg));
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
