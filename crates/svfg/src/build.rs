//! SVFG construction from the IR, auxiliary results, and memory SSA.

use crate::{CallBinding, ObjSetId, Svfg, SvfgNodeId, SvfgNodeKind};
use vsfs_adt::{FxHashMap, FxHashSet, IndexVec};
use vsfs_andersen::AndersenResult;
use vsfs_ir::{Callee, DefUse, InstId, InstKind, ObjId, Program, ValueDef};
use vsfs_mssa::{MemorySsa, MssaDef};

impl Svfg {
    /// Builds the SVFG of `prog`.
    pub fn build(prog: &Program, aux: &AndersenResult, mssa: &MemorySsa) -> Svfg {
        Builder::new(prog, aux, mssa).run()
    }
}

struct Builder<'a> {
    prog: &'a Program,
    aux: &'a AndersenResult,
    mssa: &'a MemorySsa,
    svfg: Svfg,
    seen_dir: FxHashSet<(SvfgNodeId, SvfgNodeId)>,
    /// Raw labelled indirect edges, possibly with duplicates. Grouping
    /// and dedup happen in one sort at the end of construction —
    /// markedly cheaper in peak heap than a per-edge dedup set (the
    /// label space repeats each `(from, to)` pair hundreds of times on
    /// large workloads).
    raw_ind: Vec<(SvfgNodeId, SvfgNodeId, ObjId)>,
}

impl<'a> Builder<'a> {
    fn new(prog: &'a Program, aux: &'a AndersenResult, mssa: &'a MemorySsa) -> Self {
        // Allocate nodes.
        let mut nodes: IndexVec<SvfgNodeId, SvfgNodeKind> = IndexVec::new();
        let mut node_of_inst: IndexVec<InstId, SvfgNodeId> = IndexVec::new();
        let mut node_of_callret: FxHashMap<InstId, SvfgNodeId> = FxHashMap::default();
        for (i, inst) in prog.insts.iter_enumerated() {
            let id = nodes.push(SvfgNodeKind::Inst(i));
            debug_assert_eq!(node_of_inst.next_index(), i);
            node_of_inst.push(id);
            if matches!(inst.kind, InstKind::Call { .. }) {
                node_of_callret.insert(i, nodes.push(SvfgNodeKind::CallRet(i)));
            }
        }
        let mut node_of_memphi: IndexVec<vsfs_mssa::MemPhiId, SvfgNodeId> = IndexVec::new();
        for (p, _) in mssa.memphis().iter_enumerated() {
            let id = nodes.push(SvfgNodeKind::MemPhi(p));
            debug_assert_eq!(node_of_memphi.next_index(), p);
            node_of_memphi.push(id);
        }
        let n = nodes.len();
        let svfg = Svfg {
            nodes,
            node_of_inst,
            node_of_callret,
            node_of_memphi,
            direct_succs: (0..n).map(|_| Vec::new()).collect(),
            ind_succs: (0..n).map(|_| Vec::new()).collect(),
            ind_preds: (0..n).map(|_| Vec::new()).collect(),
            obj_set_arena: Vec::new(),
            obj_set_spans: Vec::new(),
            call_bindings: FxHashMap::default(),
            delta: IndexVec::from_elem_n(false, n),
            direct_edges: 0,
            indirect_edges: 0,
        };
        Builder { prog, aux, mssa, svfg, seen_dir: FxHashSet::default(), raw_ind: Vec::new() }
    }

    fn run(mut self) -> Svfg {
        self.direct_edges();
        self.indirect_intra_edges();
        self.interprocedural_indirect();
        self.group_indirect_edges();
        self.mark_delta_nodes();
        self.svfg
    }

    fn add_direct(&mut self, from: SvfgNodeId, to: SvfgNodeId) {
        if from == to || !self.seen_dir.insert((from, to)) {
            return;
        }
        self.svfg.direct_succs[from].push(to);
        self.svfg.direct_edges += 1;
    }

    fn add_indirect(&mut self, from: SvfgNodeId, to: SvfgNodeId, obj: ObjId) {
        self.raw_ind.push((from, to, obj));
    }

    /// Dedups the raw labelled edges, groups them into one edge per
    /// `(from, to)` pair, interns the label sets, and emits the grouped
    /// succ/pred adjacency.
    fn group_indirect_edges(&mut self) {
        let mut raw = std::mem::take(&mut self.raw_ind);
        raw.sort_unstable();
        raw.dedup();
        self.svfg.indirect_edges += raw.len();

        let mut set_ids: FxHashMap<Box<[ObjId]>, ObjSetId> = FxHashMap::default();
        let mut intern = |svfg: &mut Svfg, objs: &[ObjId]| -> ObjSetId {
            if let Some(&s) = set_ids.get(objs) {
                return s;
            }
            let start = svfg.obj_set_arena.len() as u32;
            svfg.obj_set_arena.extend_from_slice(objs);
            let s = ObjSetId::new(svfg.obj_set_spans.len() as u32);
            svfg.obj_set_spans.push((start, objs.len() as u32));
            set_ids.insert(objs.into(), s);
            s
        };

        // One pass over runs of equal (from, to); `raw` is sorted, so
        // each run's labels are already ascending and distinct.
        let mut grouped: Vec<(SvfgNodeId, SvfgNodeId, ObjSetId)> = Vec::new();
        let mut i = 0;
        let mut objs: Vec<ObjId> = Vec::new();
        while i < raw.len() {
            let (f, t, _) = raw[i];
            objs.clear();
            while i < raw.len() && raw[i].0 == f && raw[i].1 == t {
                objs.push(raw[i].2);
                i += 1;
            }
            let s = intern(&mut self.svfg, &objs);
            self.svfg.ind_succs[f].push((t, s));
            grouped.push((f, t, s));
        }
        drop(raw);

        // Mirror into preds, sorted by (to, from), sharing the set ids.
        grouped.sort_unstable_by_key(|&(f, t, _)| (t, f));
        for (f, t, s) in grouped {
            self.svfg.ind_preds[t].push((f, s));
        }
    }

    /// The SVFG node at which a top-level value becomes available.
    fn def_node_of_value(&self, v: vsfs_ir::ValueId) -> Option<SvfgNodeId> {
        match self.prog.values[v].def {
            ValueDef::Inst(i) => Some(match self.prog.insts[i].kind {
                // A call's destination is defined at the return side.
                InstKind::Call { .. } => self.svfg.callret_node(i),
                _ => self.svfg.inst_node(i),
            }),
            ValueDef::Param(f, _) => Some(self.svfg.inst_node(self.prog.functions[f].entry_inst)),
            ValueDef::GlobalPtr(_) | ValueDef::Undefined => None,
        }
    }

    fn def_node_of_mssa(&self, d: MssaDef) -> SvfgNodeId {
        match d {
            MssaDef::Inst(i) => self.svfg.inst_node(i),
            MssaDef::CallRet(i) => self.svfg.callret_node(i),
            MssaDef::MemPhi(p) => self.svfg.memphi_node(p),
        }
    }

    fn direct_edges(&mut self) {
        let du = DefUse::compute(self.prog);
        for (v, _) in self.prog.values.iter_enumerated() {
            let Some(def) = self.def_node_of_value(v) else { continue };
            for &u in du.uses(v) {
                let use_node = self.svfg.inst_node(u);
                self.add_direct(def, use_node);
            }
        }
        // Interprocedural parameter/return bindings per the auxiliary call
        // graph (both direct and indirect call sites; used for statistics
        // and scheduling — top-level flow is resolved by the solver's own
        // call graph).
        for (call, callee) in self.aux.callgraph.edges().collect::<Vec<_>>() {
            let f = &self.prog.functions[callee];
            let InstKind::Call { dst, ref args, .. } = self.prog.insts[call].kind else {
                continue;
            };
            if !args.is_empty() && !f.params.is_empty() {
                let entry = self.svfg.inst_node(f.entry_inst);
                let call_node = self.svfg.inst_node(call);
                self.add_direct(call_node, entry);
            }
            if dst.is_some() {
                if let InstKind::FunExit { ret: Some(_), .. } = self.prog.insts[f.exit_inst].kind {
                    let exit = self.svfg.inst_node(f.exit_inst);
                    let ret_node = self.svfg.callret_node(call);
                    self.add_direct(exit, ret_node);
                }
            }
        }
    }

    fn indirect_intra_edges(&mut self) {
        for (i, inst) in self.prog.insts.iter_enumerated() {
            // µ uses: value arrives at the instruction (call side).
            for mu in self.mssa.mus(i) {
                let from = self.def_node_of_mssa(mu.def);
                let to = self.svfg.inst_node(i);
                self.add_indirect(from, to, mu.obj);
            }
            // χ weak-update inputs.
            for chi in self.mssa.chis(i) {
                let Some(prev) = chi.prev else { continue };
                let from = self.def_node_of_mssa(prev);
                let to = match inst.kind {
                    InstKind::Call { .. } => self.svfg.callret_node(i),
                    _ => self.svfg.inst_node(i),
                };
                self.add_indirect(from, to, chi.obj);
            }
        }
        // MEMPHI operands.
        for (p, phi) in self.mssa.memphis().iter_enumerated() {
            let to = self.svfg.memphi_node(p);
            for &d in &phi.incoming {
                let from = self.def_node_of_mssa(d);
                self.add_indirect(from, to, phi.obj);
            }
        }
    }

    fn interprocedural_indirect(&mut self) {
        for (call, callee) in self.aux.callgraph.edges().collect::<Vec<_>>() {
            let is_indirect = matches!(
                self.prog.insts[call].kind,
                InstKind::Call { callee: Callee::Indirect(_), .. }
            );
            let entry_objs = self.mssa.entry_objects(self.prog, callee);
            let exit_objs = self.mssa.exit_objects(self.prog, callee);
            let entry_node = self.svfg.inst_node(self.prog.functions[callee].entry_inst);
            let exit_node = self.svfg.inst_node(self.prog.functions[callee].exit_inst);
            let call_node = self.svfg.inst_node(call);
            let ret_node = self.svfg.callret_node(call);

            let mut binding = CallBinding::default();
            for mu in self.mssa.mus(call) {
                if !entry_objs.contains(mu.obj) {
                    continue;
                }
                if is_indirect {
                    if !binding.ins.contains(&mu.obj) {
                        binding.ins.push(mu.obj);
                        self.svfg.indirect_edges += 1;
                    }
                } else {
                    self.add_indirect(call_node, entry_node, mu.obj);
                }
            }
            for chi in self.mssa.chis(call) {
                if !exit_objs.contains(chi.obj) {
                    continue;
                }
                if is_indirect {
                    if !binding.outs.contains(&chi.obj) {
                        binding.outs.push(chi.obj);
                        self.svfg.indirect_edges += 1;
                    }
                } else {
                    self.add_indirect(exit_node, ret_node, chi.obj);
                }
            }
            if is_indirect {
                self.svfg.call_bindings.insert((call, callee), binding);
            }
        }
    }

    fn mark_delta_nodes(&mut self) {
        // FUNENTRY of address-taken functions.
        for (f, fun) in self.prog.functions.iter_enumerated() {
            if self.aux.callgraph.is_address_taken(f) {
                let n = self.svfg.inst_node(fun.entry_inst);
                self.svfg.delta[n] = true;
            }
        }
        // Return sides of indirect calls.
        for (i, inst) in self.prog.insts.iter_enumerated() {
            if matches!(inst.kind, InstKind::Call { callee: Callee::Indirect(_), .. }) {
                let n = self.svfg.callret_node(i);
                self.svfg.delta[n] = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsfs_ir::parse_program;

    fn pipeline(src: &str) -> (Program, AndersenResult, MemorySsa, Svfg) {
        let prog = parse_program(src).unwrap();
        vsfs_ir::verify::verify(&prog).unwrap();
        let aux = vsfs_andersen::analyze(&prog);
        let mssa = MemorySsa::build(&prog, &aux);
        let svfg = Svfg::build(&prog, &aux, &mssa);
        (prog, aux, mssa, svfg)
    }

    fn inst_by_mnemonic(prog: &Program, m: &str, nth: usize) -> InstId {
        prog.insts
            .iter_enumerated()
            .filter(|(_, i)| i.kind.mnemonic() == m)
            .map(|(id, _)| id)
            .nth(nth)
            .unwrap()
    }

    #[test]
    fn store_to_load_indirect_edge() {
        let (prog, _, _, svfg) = pipeline(
            r#"
            func @main() {
            entry:
              %p = alloc stack A
              %q = alloc heap H
              store %q, %p
              %r = load %p
              ret
            }
            "#,
        );
        let store = svfg.inst_node(inst_by_mnemonic(&prog, "store", 0));
        let load = svfg.inst_node(inst_by_mnemonic(&prog, "load", 0));
        assert!(svfg.indirect_succs(store).iter().any(|&(t, _)| t == load));
        assert!(svfg.indirect_preds(load).iter().any(|&(f, _)| f == store));
        // Direct edges: p -> store, p -> load, q -> store at least.
        assert!(svfg.direct_edge_count() >= 3);
    }

    #[test]
    fn call_nodes_are_split() {
        let (prog, _, _, svfg) = pipeline(
            r#"
            global @g
            func @touch(%v) {
            entry:
              store %v, @g
              %x = load @g
              ret %x
            }
            func @main() {
            entry:
              %h = alloc heap H
              %r = call @touch(%h)
              %y = load @g
              ret
            }
            "#,
        );
        let call = inst_by_mnemonic(&prog, "call", 0);
        let call_node = svfg.inst_node(call);
        let ret_node = svfg.callret_node(call);
        assert_ne!(call_node, ret_node);
        let touch = prog.function_by_name("touch").unwrap();
        let entry_node = svfg.inst_node(prog.functions[touch].entry_inst);
        let exit_node = svfg.inst_node(prog.functions[touch].exit_inst);
        // Indirect: call --g--> entry; exit --g--> ret side.
        assert!(svfg.indirect_succs(call_node).iter().any(|&(t, _)| t == entry_node));
        assert!(svfg.indirect_succs(exit_node).iter().any(|&(t, _)| t == ret_node));
        // The post-call load consumes g from the return side.
        let y_load = svfg.inst_node(inst_by_mnemonic(&prog, "load", 1));
        assert!(svfg.indirect_preds(y_load).iter().any(|&(f, _)| f == ret_node));
        // Direct interproc: call -> entry (args), exit -> ret side (ret).
        assert!(svfg.direct_succs(call_node).contains(&entry_node));
        assert!(svfg.direct_succs(exit_node).contains(&ret_node));
        // No deltas: all calls direct, no address-taken functions.
        assert!(svfg.node_ids().all(|n| !svfg.is_delta(n)));
    }

    #[test]
    fn indirect_call_bindings_are_deferred_and_delta_marked() {
        let (prog, _, _, svfg) = pipeline(
            r#"
            global @g
            func @cb(%v) {
            entry:
              store %v, @g
              ret
            }
            func @main() {
            entry:
              %fp = funaddr @cb
              %h = alloc heap H
              icall %fp(%h)
              %x = load @g
              ret
            }
            "#,
        );
        let cb = prog.function_by_name("cb").unwrap();
        let call = inst_by_mnemonic(&prog, "call", 0);
        let binding = svfg.call_binding(call, cb).expect("binding recorded");
        let g =
            prog.objects.iter_enumerated().find(|(_, o)| o.name == "g").map(|(id, _)| id).unwrap();
        assert!(binding.ins.contains(&g), "g flows into cb");
        assert!(binding.outs.contains(&g), "g flows back out");
        // No eager interprocedural indirect edge for the indirect call.
        let call_node = svfg.inst_node(call);
        let entry_node = svfg.inst_node(prog.functions[cb].entry_inst);
        assert!(!svfg.indirect_succs(call_node).iter().any(|&(t, _)| t == entry_node));
        // Delta nodes: cb's FUNENTRY and the call's return side.
        assert!(svfg.is_delta(entry_node));
        assert!(svfg.is_delta(svfg.callret_node(call)));
        assert!(!svfg.is_delta(call_node));
    }

    #[test]
    fn memphi_nodes_exist_with_edges() {
        let (prog, _, mssa, svfg) = pipeline(
            r#"
            func @main() {
            entry:
              %p = alloc stack A
              %q1 = alloc heap H1
              %q2 = alloc heap H2
              br l, r
            l:
              store %q1, %p
              goto join
            r:
              store %q2, %p
              goto join
            join:
              %x = load %p
              ret
            }
            "#,
        );
        assert_eq!(mssa.memphis().len(), 1);
        let phi_node = svfg.memphi_node(vsfs_mssa::MemPhiId::new(0));
        assert_eq!(svfg.indirect_preds(phi_node).len(), 2);
        let load = svfg.inst_node(inst_by_mnemonic(&prog, "load", 0));
        assert!(svfg.indirect_succs(phi_node).iter().any(|&(t, _)| t == load));
        assert_eq!(svfg.node_count(), prog.inst_count() + 1);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use vsfs_ir::parse_program;

    fn pipeline(src: &str) -> (Program, Svfg) {
        let prog = parse_program(src).unwrap();
        let aux = vsfs_andersen::analyze(&prog);
        let mssa = MemorySsa::build(&prog, &aux);
        let svfg = Svfg::build(&prog, &aux, &mssa);
        (prog, svfg)
    }

    #[test]
    fn direct_edges_cover_param_and_return_binding() {
        let (prog, svfg) = pipeline(
            r#"
            func @id(%x) {
            entry:
              ret %x
            }
            func @main() {
            entry:
              %a = alloc heap A
              %r = call @id(%a)
              %use = copy %r
              ret
            }
            "#,
        );
        let id = prog.function_by_name("id").unwrap();
        let call = prog
            .insts
            .iter_enumerated()
            .find(|(_, i)| matches!(i.kind, InstKind::Call { .. }))
            .map(|(i, _)| i)
            .unwrap();
        let entry_node = svfg.inst_node(prog.functions[id].entry_inst);
        let exit_node = svfg.inst_node(prog.functions[id].exit_inst);
        // arg binding: call -> entry; ret binding: exit -> ret side.
        assert!(svfg.direct_succs(svfg.inst_node(call)).contains(&entry_node));
        assert!(svfg.direct_succs(exit_node).contains(&svfg.callret_node(call)));
        // The copy uses %r, defined at the return side.
        let copy = prog
            .insts
            .iter_enumerated()
            .find(|(_, i)| matches!(i.kind, InstKind::Copy { .. }))
            .map(|(i, _)| i)
            .unwrap();
        assert!(svfg.direct_succs(svfg.callret_node(call)).contains(&svfg.inst_node(copy)));
    }

    #[test]
    fn edge_counts_are_consistent() {
        let (_, svfg) = pipeline(vsfs_workloads_src());
        let counted: usize =
            svfg.node_ids().map(|n| svfg.indirect_succs_expanded(n).count()).sum::<usize>()
                + svfg.call_bindings().map(|(_, b)| b.ins.len() + b.outs.len()).sum::<usize>();
        assert_eq!(counted, svfg.indirect_edge_count());
        let direct: usize = svfg.node_ids().map(|n| svfg.direct_succs(n).len()).sum();
        assert_eq!(direct, svfg.direct_edge_count());
        // preds mirror succs exactly, labelled edge by labelled edge.
        let mut succs: Vec<(u32, u32, u32)> = svfg
            .node_ids()
            .flat_map(|n| {
                svfg.indirect_succs_expanded(n)
                    .map(move |(t, o)| (n.index() as u32, t.index() as u32, o.index() as u32))
            })
            .collect();
        let mut preds: Vec<(u32, u32, u32)> = svfg
            .node_ids()
            .flat_map(|n| {
                svfg.indirect_preds_expanded(n)
                    .map(move |(f, o)| (f.index() as u32, n.index() as u32, o.index() as u32))
            })
            .collect();
        succs.sort_unstable();
        preds.sort_unstable();
        assert_eq!(succs, preds);
        // Grouped edges are deduplicated: one entry per (from, to) pair,
        // and every label set is non-empty and strictly ascending.
        for n in svfg.node_ids() {
            let g = svfg.indirect_succs(n);
            assert!(g.windows(2).all(|w| w[0].0 < w[1].0));
            for &(_, s) in g {
                let objs = svfg.obj_set(s);
                assert!(!objs.is_empty());
                assert!(objs.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    fn vsfs_workloads_src() -> &'static str {
        r#"
        global @tab array
        ginit @tab, @h1
        ginit @tab, @h2
        global @state
        func @h1(%v) {
        entry:
          store %v, @state
          ret %v
        }
        func @h2(%v) {
        entry:
          %x = load @state
          ret %x
        }
        func @main() {
        entry:
          %a = alloc heap A
          %fp = load @tab
          %r = icall %fp(%a)
          %fin = load @state
          ret
        }
        "#
    }

    #[test]
    fn delta_bindings_cover_all_aux_callees() {
        let (prog, svfg) = pipeline(vsfs_workloads_src());
        let h1 = prog.function_by_name("h1").unwrap();
        let h2 = prog.function_by_name("h2").unwrap();
        let call = prog
            .insts
            .iter_enumerated()
            .find(|(_, i)| matches!(i.kind, InstKind::Call { callee: Callee::Indirect(_), .. }))
            .map(|(i, _)| i)
            .unwrap();
        let b1 = svfg.call_binding(call, h1).expect("binding for h1");
        let b2 = svfg.call_binding(call, h2).expect("binding for h2");
        // h1 writes state: out-flow exists; h2 only reads: in-flow only.
        assert!(!b1.outs.is_empty());
        assert!(!b2.outs.is_empty() || !b2.ins.is_empty());
    }
}
