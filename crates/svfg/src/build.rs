//! SVFG construction from the IR, auxiliary results, and memory SSA.
//!
//! Every adjacency is built by linear passes over flat arrays
//! ([`Adjacency`]). Indirect edges are generated twice — a counting pass
//! and a fill pass — straight into per-source buckets of packed
//! `(to, obj)` keys, so the raw labelled edges are held once, 8 bytes
//! each, and never sorted globally: each source's small bucket is sorted
//! on its own, then grouped into one edge per `(from, to)` pair.
//! Because sources are visited in ascending order and each bucket in
//! ascending `(to, obj)` order, label sets are interned — and their
//! [`ObjSetId`]s numbered — in `(from, to)` order.

use crate::{CallBinding, ObjSetId, Svfg, SvfgNodeId, SvfgNodeKind};
use vsfs_adt::{Adjacency, FxHashMap, IndexVec, PointsToSet};
use vsfs_andersen::AndersenResult;
use vsfs_ir::{Callee, DefUse, FuncId, InstId, InstKind, ObjId, Program, ValueDef, ValueId};
use vsfs_mssa::{MemorySsa, MssaDef};

impl Svfg {
    /// Builds the SVFG of `prog`.
    pub fn build(prog: &Program, aux: &AndersenResult, mssa: &MemorySsa) -> Svfg {
        Builder::new(prog, aux, mssa).run()
    }
}

/// A callee's `FUNENTRY` χ objects and `FUNEXIT` µ objects.
type CalleeObjs = (PointsToSet<ObjId>, PointsToSet<ObjId>);

struct Builder<'a> {
    prog: &'a Program,
    aux: &'a AndersenResult,
    mssa: &'a MemorySsa,
    svfg: Svfg,
    /// The auxiliary call graph's `(call, callee)` edges, in its order.
    calls: Vec<(InstId, FuncId)>,
    /// Entry and exit objects of every callee in `calls`, computed once.
    callee_objs: IndexVec<FuncId, Option<CalleeObjs>>,
}

impl<'a> Builder<'a> {
    fn new(prog: &'a Program, aux: &'a AndersenResult, mssa: &'a MemorySsa) -> Self {
        // Allocate nodes: each call's return side directly follows its
        // call side.
        let mut nodes: IndexVec<SvfgNodeId, SvfgNodeKind> = IndexVec::new();
        let mut node_of_inst: IndexVec<InstId, SvfgNodeId> = IndexVec::new();
        for (i, inst) in prog.insts.iter_enumerated() {
            let id = nodes.push(SvfgNodeKind::Inst(i));
            debug_assert_eq!(node_of_inst.next_index(), i);
            node_of_inst.push(id);
            if matches!(inst.kind, InstKind::Call { .. }) {
                nodes.push(SvfgNodeKind::CallRet(i));
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
            node_of_memphi,
            direct_succs: Adjacency::default(),
            ind_succs: Adjacency::default(),
            ind_preds: Adjacency::default(),
            obj_set_arena: Vec::new(),
            obj_set_spans: Vec::new(),
            call_bindings: FxHashMap::default(),
            delta: IndexVec::from_elem_n(false, n),
            indirect_edges: 0,
            defuse: DefUse::compute(prog),
        };
        let calls: Vec<(InstId, FuncId)> = aux.callgraph.edges().collect();
        let mut callee_objs: IndexVec<FuncId, Option<CalleeObjs>> =
            (0..prog.functions.len()).map(|_| None).collect();
        for &(_, callee) in &calls {
            callee_objs[callee].get_or_insert_with(|| {
                (mssa.entry_objects(prog, callee), mssa.exit_objects(prog, callee))
            });
        }
        Builder { prog, aux, mssa, svfg, calls, callee_objs }
    }

    fn run(mut self) -> Svfg {
        self.svfg.direct_succs = self.direct_edges();
        self.call_bindings();
        self.group_indirect_edges();
        self.mark_delta_nodes();
        self.svfg
    }

    fn inst_node(&self, i: InstId) -> SvfgNodeId {
        self.svfg.node_of_inst[i]
    }

    /// The return side of call `i`: the node after its call side.
    fn ret_node(&self, i: InstId) -> SvfgNodeId {
        SvfgNodeId::new(self.svfg.node_of_inst[i].raw() + 1)
    }

    /// The SVFG node at which a top-level value becomes available.
    fn def_node_of_value(&self, v: ValueId) -> Option<SvfgNodeId> {
        match self.prog.values[v].def {
            ValueDef::Inst(i) => Some(match self.prog.insts[i].kind {
                // A call's destination is defined at the return side.
                InstKind::Call { .. } => self.ret_node(i),
                _ => self.inst_node(i),
            }),
            ValueDef::Param(f, _) => Some(self.inst_node(self.prog.functions[f].entry_inst)),
            ValueDef::GlobalPtr(_) | ValueDef::Undefined => None,
        }
    }

    fn def_node_of_mssa(&self, d: MssaDef) -> SvfgNodeId {
        match d {
            MssaDef::Inst(i) => self.inst_node(i),
            MssaDef::CallRet(i) => self.ret_node(i),
            MssaDef::MemPhi(p) => self.svfg.node_of_memphi[p],
        }
    }

    fn is_indirect_call(&self, call: InstId) -> bool {
        matches!(self.prog.insts[call].kind, InstKind::Call { callee: Callee::Indirect(_), .. })
    }

    /// Direct edges: SSA def-use chains, then interprocedural
    /// parameter/return bindings per the auxiliary call graph (both
    /// direct and indirect call sites; used for statistics and
    /// scheduling — top-level flow is resolved by the solver's own call
    /// graph). Self-loops and repeats are dropped; each node's list keeps
    /// the order its edges were first generated in.
    fn direct_edges(&self) -> Adjacency<SvfgNodeId> {
        let (prog, du) = (self.prog, &self.svfg.defuse);
        let def_use = move || {
            prog.values
                .indices()
                .filter_map(|v| Some((v, self.def_node_of_value(v)?)))
                .flat_map(move |(v, def)| du.uses(v).iter().map(move |&u| (def, self.inst_node(u))))
        };
        let bindings = move || {
            self.calls.iter().flat_map(move |&(call, callee)| {
                let f = &prog.functions[callee];
                let InstKind::Call { dst, ref args, .. } = prog.insts[call].kind else {
                    unreachable!("call-graph edges start at calls")
                };
                let args = (!args.is_empty() && !f.params.is_empty())
                    .then(|| (self.inst_node(call), self.inst_node(f.entry_inst)));
                let ret = (dst.is_some()
                    && matches!(
                        prog.insts[f.exit_inst].kind,
                        InstKind::FunExit { ret: Some(_), .. }
                    ))
                .then(|| (self.inst_node(f.exit_inst), self.ret_node(call)));
                args.into_iter().chain(ret)
            })
        };
        let mut succs = Adjacency::new(self.svfg.nodes.len(), || def_use().chain(bindings()));
        // `seen[to] == from` while `from`'s list is being filtered.
        let mut seen = vec![u32::MAX; self.svfg.nodes.len()];
        succs.retain(|from, &to| {
            let fresh = from != to && seen[to.index()] != from.raw();
            seen[to.index()] = from.raw();
            fresh
        });
        succs
    }

    /// Records the deferred interprocedural bindings of indirect call
    /// sites: the caller's µ objects the callee's `FUNENTRY` takes in,
    /// and the caller's χ objects its `FUNEXIT` hands back.
    fn call_bindings(&mut self) {
        for &(call, callee) in &self.calls {
            if !self.is_indirect_call(call) {
                continue;
            }
            let (entry, exit) = self.callee_objs[callee].as_ref().expect("callee objects");
            let binding = CallBinding {
                ins: self
                    .mssa
                    .mus(call)
                    .iter()
                    .map(|mu| mu.obj)
                    .filter(|&o| entry.contains(o))
                    .collect(),
                outs: self
                    .mssa
                    .chis(call)
                    .iter()
                    .map(|chi| chi.obj)
                    .filter(|&o| exit.contains(o))
                    .collect(),
            };
            self.svfg.indirect_edges += binding.ins.len() + binding.outs.len();
            self.svfg.call_bindings.insert((call, callee), binding);
        }
    }

    /// Every raw labelled indirect edge `(from, to, obj)`, possibly with
    /// repeats, as `(from, to << 32 | obj)`: memory-SSA def-use chains
    /// (µ uses, χ weak-update inputs, MEMPHI operands), then the eager
    /// interprocedural edges of direct call sites. The order only
    /// matters for speed: it is chosen so that most sources see their
    /// edges in ascending `(to, obj)` order.
    fn raw_indirect_edges(&self) -> impl Iterator<Item = (SvfgNodeId, u64)> + '_ {
        let (prog, mssa) = (self.prog, self.mssa);
        // Per instruction, its µ uses (the value arrives at the call
        // side), then its χ weak-update inputs (at the return side of a
        // call): targets ascend with the instruction, and each
        // annotation list ascends by object.
        let annotations = prog.insts.iter_enumerated().flat_map(move |(i, inst)| {
            let at = self.inst_node(i);
            let chi_at = match inst.kind {
                InstKind::Call { .. } => self.ret_node(i),
                _ => at,
            };
            let mus = mssa.mus(i).iter().map(move |mu| (self.def_node_of_mssa(mu.def), at, mu.obj));
            let chis = mssa
                .chis(i)
                .iter()
                .filter_map(move |chi| Some((self.def_node_of_mssa(chi.prev?), chi_at, chi.obj)));
            mus.chain(chis)
        });
        let memphis = mssa.memphis().iter_enumerated().flat_map(move |(p, phi)| {
            let to = self.svfg.node_of_memphi[p];
            phi.incoming.iter().map(move |&d| (self.def_node_of_mssa(d), to, phi.obj))
        });
        // Direct call sites: `call --o--> FUNENTRY`, `FUNEXIT --o--> ret`.
        let calls = self.calls.iter().filter(|&&(call, _)| !self.is_indirect_call(call)).flat_map(
            move |&(call, callee)| {
                let (entry, exit) = self.callee_objs[callee].as_ref().expect("callee objects");
                let f = &prog.functions[callee];
                let (call_node, entry_node) = (self.inst_node(call), self.inst_node(f.entry_inst));
                let (exit_node, ret_node) = (self.inst_node(f.exit_inst), self.ret_node(call));
                let ins = mssa.mus(call).iter().filter(|mu| entry.contains(mu.obj));
                let outs = mssa.chis(call).iter().filter(|chi| exit.contains(chi.obj));
                ins.map(move |mu| (call_node, entry_node, mu.obj))
                    .chain(outs.map(move |chi| (exit_node, ret_node, chi.obj)))
            },
        );
        annotations
            .chain(memphis)
            .chain(calls)
            .map(|(from, to, obj)| (from, u64::from(to.raw()) << 32 | u64::from(obj.raw())))
    }

    /// Buckets the raw labelled edges by source, sorts and dedups each
    /// bucket, groups it into one edge per `(from, to)` pair, interns the
    /// label sets, and emits the grouped succ/pred adjacency.
    fn group_indirect_edges(&mut self) {
        let n = self.svfg.nodes.len();
        let mut raw = Adjacency::new(n, || self.raw_indirect_edges());
        let mut set_ids: FxHashMap<Box<[ObjId]>, ObjSetId> = FxHashMap::default();
        let (arena, spans) = (&mut self.svfg.obj_set_arena, &mut self.svfg.obj_set_spans);
        let mut intern = |objs: &[ObjId]| -> ObjSetId {
            if let Some(&s) = set_ids.get(objs) {
                return s;
            }
            let start = arena.len() as u32;
            arena.extend_from_slice(objs);
            let s = ObjSetId::new(spans.len() as u32);
            spans.push((start, objs.len() as u32));
            set_ids.insert(objs.into(), s);
            s
        };
        let mut labelled = 0;
        let mut objs: Vec<ObjId> = Vec::new();
        let succs = Adjacency::from_rows(n, |from, out| {
            let bucket = raw.of_mut(from);
            // Generation order leaves almost every bucket sorted already.
            if !bucket.is_sorted() {
                bucket.sort_unstable();
            }
            // One pass over runs of equal `to`; each run's labels are
            // ascending, with repeats adjacent.
            let mut k = 0;
            while k < bucket.len() {
                let to = (bucket[k] >> 32) as u32;
                objs.clear();
                while k < bucket.len() && (bucket[k] >> 32) as u32 == to {
                    let o = ObjId::new(bucket[k] as u32);
                    if objs.last() != Some(&o) {
                        objs.push(o);
                    }
                    k += 1;
                }
                labelled += objs.len();
                out.push((SvfgNodeId::new(to), intern(&objs)));
            }
        });
        drop(raw);
        self.svfg.indirect_edges += labelled;
        // Mirror into preds: sources are visited ascending, so each
        // predecessor list comes out sorted by source.
        self.svfg.ind_preds = Adjacency::new(n, || {
            (0..n as u32).flat_map(|f| {
                let from = SvfgNodeId::new(f);
                succs.of(from).iter().map(move |&(to, s)| (to, (from, s)))
            })
        });
        self.svfg.ind_succs = succs;
    }

    fn mark_delta_nodes(&mut self) {
        // FUNENTRY of address-taken functions.
        for (f, fun) in self.prog.functions.iter_enumerated() {
            if self.aux.callgraph.is_address_taken(f) {
                let n = self.inst_node(fun.entry_inst);
                self.svfg.delta[n] = true;
            }
        }
        // Return sides of indirect calls.
        for i in self.prog.insts.indices() {
            if self.is_indirect_call(i) {
                let n = self.ret_node(i);
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
        let (prog, svfg) = pipeline(vsfs_workloads_src());
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
        // sorted by successor (and predecessors by source), and every
        // label set is non-empty and strictly ascending.
        for n in svfg.node_ids() {
            let g = svfg.indirect_succs(n);
            assert!(g.windows(2).all(|w| w[0].0 < w[1].0));
            let p = svfg.indirect_preds(n);
            assert!(p.windows(2).all(|w| w[0].0 < w[1].0), "preds of {n:?} not sorted by source");
            for &(_, s) in g {
                let objs = svfg.obj_set(s);
                assert!(!objs.is_empty());
                assert!(objs.windows(2).all(|w| w[0] < w[1]));
            }
        }
        // Every flat adjacency has one span per node, and the spans tile
        // its item array: starting at 0, non-decreasing, ending at its
        // length.
        fn tiles<T>(adj: &Adjacency<SvfgNodeId, T>, nodes: usize) -> bool {
            let o = adj.offsets();
            o.len() == nodes + 1
                && o[0] == 0
                && o.windows(2).all(|w| w[0] <= w[1])
                && o[nodes] as usize == adj.items().len()
        }
        let nodes = svfg.node_count();
        assert!(tiles(&svfg.direct_succs, nodes), "direct successors");
        assert!(tiles(&svfg.ind_succs, nodes), "indirect successors");
        assert!(tiles(&svfg.ind_preds, nodes), "indirect predecessors");
        let uses = svfg.defuse();
        let counted_uses: usize = prog.values.indices().map(|v| uses.uses(v).len()).sum::<usize>();
        let all_uses: usize = prog.insts.iter().map(|i| i.kind.uses().len()).sum();
        assert_eq!(counted_uses, all_uses);
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
