//! The interprocedural control-flow graph (ICFG) at instruction
//! granularity.
//!
//! Traditional (non-staged) flow-sensitive pointer analysis runs directly
//! on this graph (Section IV-A of the paper, equations (4)–(5)); the
//! staged analyses only use it indirectly, via the SVFG. Nodes are
//! instructions; edges are:
//!
//! * consecutive instructions within a block;
//! * block terminator edges (last instruction → first of each successor);
//! * call edges (call instruction → callee `FUNENTRY`) and return edges
//!   (callee `FUNEXIT` → the instruction after the call), for every
//!   `(call, callee)` pair the provided call graph admits.
//!
//! A call instruction has **no** fall-through edge — control always
//! passes through a callee — unless the call graph knows no callee for
//! it (an unresolved indirect call), in which case a fall-through keeps
//! the rest of the caller reachable.

use crate::ids::{FuncId, InstId};
use crate::inst::InstKind;
use crate::program::Program;
use vsfs_adt::{FxHashMap, IndexVec};

/// The instruction-level interprocedural CFG.
#[derive(Debug, Clone)]
pub struct Icfg {
    succs: IndexVec<InstId, Vec<InstId>>,
    preds: IndexVec<InstId, Vec<InstId>>,
    /// The instruction control returns to after each call.
    return_site: FxHashMap<InstId, InstId>,
    edge_count: usize,
}

impl Icfg {
    /// Builds the ICFG of `prog` using `callees` to resolve call targets
    /// (pass the auxiliary call graph's resolution).
    pub fn build(prog: &Program, callees: impl Fn(InstId) -> Vec<FuncId>) -> Icfg {
        let n = prog.insts.len();
        let mut icfg = Icfg {
            succs: (0..n).map(|_| Vec::new()).collect(),
            preds: (0..n).map(|_| Vec::new()).collect(),
            return_site: FxHashMap::default(),
            edge_count: 0,
        };
        // First instruction(s) reached when control enters a block;
        // empty blocks (label + terminator only) are skipped through
        // transitively.
        fn block_starts(
            prog: &Program,
            b: crate::ids::BlockId,
            seen: &mut Vec<crate::ids::BlockId>,
            out: &mut Vec<InstId>,
        ) {
            if seen.contains(&b) {
                return;
            }
            seen.push(b);
            match prog.blocks[b].insts.first() {
                Some(&i) => {
                    if !out.contains(&i) {
                        out.push(i);
                    }
                }
                None => {
                    for &sb in prog.blocks[b].term.successors() {
                        block_starts(prog, sb, seen, out);
                    }
                }
            }
        }
        for (_f, fun) in prog.functions.iter_enumerated() {
            for &b in &fun.blocks {
                let insts = &prog.blocks[b].insts;
                for (i, &cur) in insts.iter().enumerate() {
                    // The node control flows to after `cur` completes
                    // within the function.
                    let local_next: Vec<InstId> = if i + 1 < insts.len() {
                        vec![insts[i + 1]]
                    } else {
                        let mut out = Vec::new();
                        for &sb in prog.blocks[b].term.successors() {
                            block_starts(prog, sb, &mut Vec::new(), &mut out);
                        }
                        out
                    };
                    if let InstKind::Call { .. } = prog.insts[cur].kind {
                        let targets = callees(cur);
                        // NOTE: partial-SSA blocks always have a next
                        // instruction after a call within the function
                        // (at minimum the FUNEXIT block's instruction),
                        // but a call could be last in a block with
                        // multiple successors; we then use each successor
                        // start as a return site. For simplicity the
                        // return edge targets every local successor.
                        if targets.is_empty() {
                            for &nx in &local_next {
                                icfg.add_edge(cur, nx);
                            }
                        } else {
                            if let Some(&first) = local_next.first() {
                                icfg.return_site.insert(cur, first);
                            }
                            for callee in targets {
                                let f = &prog.functions[callee];
                                icfg.add_edge(cur, f.entry_inst);
                                for &nx in &local_next {
                                    icfg.add_edge(f.exit_inst, nx);
                                }
                            }
                        }
                    } else {
                        for &nx in &local_next {
                            icfg.add_edge(cur, nx);
                        }
                    }
                }
            }
        }
        icfg
    }

    fn add_edge(&mut self, from: InstId, to: InstId) {
        if self.succs[from].contains(&to) {
            return;
        }
        self.succs[from].push(to);
        self.preds[to].push(from);
        self.edge_count += 1;
    }

    /// Successor instructions of `inst`.
    pub fn successors(&self, inst: InstId) -> &[InstId] {
        &self.succs[inst]
    }

    /// Predecessor instructions of `inst`.
    pub fn predecessors(&self, inst: InstId) -> &[InstId] {
        &self.preds[inst]
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The (first) instruction control returns to after `call`.
    pub fn return_site(&self, call: InstId) -> Option<InstId> {
        self.return_site.get(&call).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_program;

    #[test]
    fn intraprocedural_edges() {
        let prog = parse_program(
            r#"
            func @main() {
            entry:
              %p = alloc stack A
              br l, r
            l:
              %x = copy %p
              goto join
            r:
              goto join
            join:
              ret
            }
            "#,
        )
        .unwrap();
        let icfg = Icfg::build(&prog, |_| Vec::new());
        let main = prog.entry_function();
        let entry = prog.functions[main].entry_inst;
        // funentry -> alloc
        assert_eq!(icfg.successors(entry).len(), 1);
        let alloc = icfg.successors(entry)[0];
        // alloc is last in entry block: two successors (l, r starts)
        assert_eq!(icfg.successors(alloc).len(), 2);
        // join's ret (funexit) has two preds
        let exit = prog.functions[main].exit_inst;
        assert_eq!(icfg.predecessors(exit).len(), 2);
        assert!(icfg.successors(exit).is_empty());
    }

    #[test]
    fn call_and_return_edges() {
        let prog = parse_program(
            r#"
            func @callee(%x) {
            entry:
              ret %x
            }
            func @main() {
            entry:
              %a = alloc heap H
              %r = call @callee(%a)
              %c = copy %r
              ret
            }
            "#,
        )
        .unwrap();
        let callee = prog.function_by_name("callee").unwrap();
        let call = prog
            .insts
            .iter_enumerated()
            .find(|(_, i)| matches!(i.kind, InstKind::Call { .. }))
            .map(|(id, _)| id)
            .unwrap();
        let icfg = Icfg::build(&prog, |c| if c == call { vec![callee] } else { Vec::new() });
        let centry = prog.functions[callee].entry_inst;
        let cexit = prog.functions[callee].exit_inst;
        // call -> callee entry; no fall-through past the call.
        assert_eq!(icfg.successors(call), &[centry]);
        // callee exit -> the copy after the call.
        let ret_site = icfg.return_site(call).unwrap();
        assert!(matches!(prog.insts[ret_site].kind, InstKind::Copy { .. }));
        assert_eq!(icfg.successors(cexit), &[ret_site]);
    }

    #[test]
    fn unresolved_indirect_calls_fall_through() {
        let prog = parse_program(
            r#"
            func @main(%fp) {
            entry:
              icall %fp()
              %p = alloc stack A
              ret
            }
            "#,
        )
        .unwrap();
        let icfg = Icfg::build(&prog, |_| Vec::new());
        let call = prog
            .insts
            .iter_enumerated()
            .find(|(_, i)| matches!(i.kind, InstKind::Call { .. }))
            .map(|(id, _)| id)
            .unwrap();
        assert_eq!(icfg.successors(call).len(), 1, "fall-through keeps caller reachable");
    }
}
