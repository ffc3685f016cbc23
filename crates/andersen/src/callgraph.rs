//! The call graph discovered by the analysis.
//!
//! Contains direct call edges plus the indirect edges resolved from
//! function-pointer points-to sets. Also identifies address-taken
//! functions and recursive functions — inputs to δ-node identification
//! (Section IV-C1) and strong-update eligibility.

use vsfs_adt::{FxHashMap, FxHashSet};
use vsfs_graph::{DiGraph, Sccs};
use vsfs_ir::{FuncId, InstId, Program};

/// A call graph over functions, with per-call-site callee lists.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    /// Callees of each call instruction.
    callees: FxHashMap<InstId, Vec<FuncId>>,
    /// Call instructions targeting each function.
    callers: FxHashMap<FuncId, Vec<InstId>>,
    /// Functions whose address is taken (possible indirect-call targets).
    address_taken: FxHashSet<FuncId>,
}

impl CallGraph {
    /// Creates an empty call graph.
    pub fn new() -> Self {
        CallGraph::default()
    }

    /// Records that `call` may invoke `callee`; returns `true` if new.
    pub fn add_edge(&mut self, call: InstId, callee: FuncId) -> bool {
        let list = self.callees.entry(call).or_default();
        if list.contains(&callee) {
            return false;
        }
        list.push(callee);
        self.callers.entry(callee).or_default().push(call);
        true
    }

    /// Marks `func` as address-taken.
    pub fn mark_address_taken(&mut self, func: FuncId) {
        self.address_taken.insert(func);
    }

    /// Sorts every callee and caller list, making the exposed order a
    /// pure function of the edge *set* rather than of discovery order.
    /// Sequential and wave-mode solving discover indirect edges in
    /// different orders; downstream consumers (memory SSA, SVFG wiring)
    /// iterate these lists, so canonical order is what keeps the whole
    /// pipeline bit-identical across `--jobs`.
    pub fn canonicalize(&mut self) {
        for v in self.callees.values_mut() {
            v.sort_unstable();
        }
        for v in self.callers.values_mut() {
            v.sort_unstable();
        }
    }

    /// The possible callees of `call`.
    pub fn callees(&self, call: InstId) -> &[FuncId] {
        self.callees.get(&call).map_or(&[], |v| v.as_slice())
    }

    /// The call instructions that may invoke `func`.
    pub fn callers(&self, func: FuncId) -> &[InstId] {
        self.callers.get(&func).map_or(&[], |v| v.as_slice())
    }

    /// Returns `true` if `func`'s address is taken anywhere.
    pub fn is_address_taken(&self, func: FuncId) -> bool {
        self.address_taken.contains(&func)
    }

    /// Iterates all `(call, callee)` edges, grouped by ascending call
    /// site. The order is a pure function of the edge set (never of the
    /// backing map's hash order): SVFG construction wires indirect edges
    /// in this order, and the whole-pipeline bit-identity guarantee
    /// rests on it being reproducible.
    pub fn edges(&self) -> impl Iterator<Item = (InstId, FuncId)> + '_ {
        let mut calls: Vec<InstId> = self.callees.keys().copied().collect();
        calls.sort_unstable();
        calls.into_iter().flat_map(move |c| self.callees[&c].iter().map(move |&f| (c, f)))
    }

    /// Number of `(call, callee)` edges.
    pub fn edge_count(&self) -> usize {
        self.callees.values().map(Vec::len).sum()
    }

    /// Computes the set of functions involved in recursion (a call-graph
    /// cycle, including self-recursion).
    pub fn recursive_functions(&self, prog: &Program) -> FxHashSet<FuncId> {
        let mut g: DiGraph<u32> = DiGraph::with_nodes(prog.functions.len());
        for (call, callee) in self.edges() {
            let caller = prog.insts[call].func;
            g.add_edge_dedup(caller.raw(), callee.raw());
        }
        let sccs = Sccs::compute(&g);
        prog.functions.indices().filter(|f| sccs.in_cycle(&g, f.raw())).collect()
    }

    /// The functions transitively reachable from `roots` (inclusive).
    pub fn reachable_functions(&self, prog: &Program, roots: &[FuncId]) -> FxHashSet<FuncId> {
        let mut seen: FxHashSet<FuncId> = roots.iter().copied().collect();
        let mut stack: Vec<FuncId> = roots.to_vec();
        while let Some(f) = stack.pop() {
            for call in prog.func_insts(f) {
                for &callee in self.callees(call) {
                    if seen.insert(callee) {
                        stack.push(callee);
                    }
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsfs_ir::parse_program;

    #[test]
    fn edges_and_recursion() {
        let prog = parse_program(
            r#"
            func @a() {
            entry:
              call @b()
              ret
            }
            func @b() {
            entry:
              call @a()
              ret
            }
            func @main() {
            entry:
              call @a()
              ret
            }
            "#,
        )
        .unwrap();
        let a = prog.function_by_name("a").unwrap();
        let b = prog.function_by_name("b").unwrap();
        let main = prog.entry_function();
        let mut cg = CallGraph::new();
        for (call, f) in prog.insts.iter_enumerated().filter_map(|(i, inst)| match inst.kind {
            vsfs_ir::InstKind::Call { callee: vsfs_ir::Callee::Direct(f), .. } => Some((i, f)),
            _ => None,
        }) {
            assert!(cg.add_edge(call, f));
            assert!(!cg.add_edge(call, f)); // dedup
        }
        assert_eq!(cg.edge_count(), 3);
        let rec = cg.recursive_functions(&prog);
        assert!(rec.contains(&a));
        assert!(rec.contains(&b));
        assert!(!rec.contains(&main));
        let reach = cg.reachable_functions(&prog, &[main]);
        assert_eq!(reach.len(), 3);
        assert_eq!(cg.callers(a).len(), 2);
    }
}
