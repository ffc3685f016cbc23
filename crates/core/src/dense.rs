//! Traditional (dense) flow-sensitive pointer analysis on the ICFG —
//! the formulation of Section IV-A, equations (4) and (5):
//!
//! ```text
//! IN_ℓ  = ⋃_{ℓ' ∈ pred(ℓ)} OUT_{ℓ'}
//! OUT_ℓ = Gen_ℓ ∪ (IN_ℓ − Kill_ℓ)
//! ```
//!
//! Address-taken object state is maintained at *every* program point and
//! propagated across *every* control-flow edge — no sparsity at all. The
//! paper cites this as the classic approach whose overhead motivated
//! semi-sparse and staged analyses; it is included here as the historical
//! baseline and as an ablation (`cargo bench -p vsfs-bench --bench
//! ablations`): on anything nontrivial it is dramatically slower than
//! SFS, which is in turn slower than VSFS.
//!
//! Call targets are the auxiliary call graph's (no on-the-fly
//! refinement), and no escape filtering restricts interprocedural object
//! flow, so the result may be (soundly) *less* precise than SFS/VSFS:
//! for every value, `pt_vsfs(v) ⊆ pt_dense(v) ⊆ pt_andersen(v)`.

use crate::result::{FlowSensitiveResult, SolveStats};
use std::time::Instant;
use vsfs_adt::govern::{Completion, Governor};
use vsfs_adt::{FifoWorklist, FxHashMap, IndexVec, PointsToSet, PtsId, PtsStore};
use vsfs_andersen::AndersenResult;
use vsfs_ir::{DefUse, Icfg, InstId, InstKind, ObjId, Program, ValueId};

/// The dense engine behind [`crate::solve`] (`SolverKind::Dense`), a
/// FIFO worklist over the ICFG. Governed runs checkpoint once per
/// worklist pop, matching the staged solvers' protocol.
///
/// The dense solver keeps its internal state as owned sets (the whole
/// point of this baseline is the unshared per-point storage); only the
/// final per-value sets are interned so the result carries the same
/// hash-consed representation as the staged solvers.
pub(crate) fn solve(
    prog: &Program,
    aux: &AndersenResult,
    governor: Option<&Governor>,
) -> (FlowSensitiveResult, Completion) {
    let start = Instant::now();
    let mut solver = DenseSolver::new(prog, aux);
    let completion = solver.solve(governor);
    let mut stats = solver.stats;
    stats.solve_seconds = start.elapsed().as_secs_f64();
    let (sets, elems, bytes) = solver.storage_stats();
    stats.stored_object_sets = sets;
    stats.stored_object_elems = elems;
    stats.stored_object_bytes = bytes;
    let mut callgraph_edges: Vec<_> = aux.callgraph.edges().collect();
    callgraph_edges.sort();
    let mut store = PtsStore::new();
    let pt: IndexVec<ValueId, PtsId> = solver.pt.iter().map(|s| store.intern(s)).collect();
    stats.store = store.stats();
    (FlowSensitiveResult::new(store, pt, callgraph_edges, stats), completion)
}

type ObjMap = FxHashMap<ObjId, PointsToSet<ObjId>>;

struct DenseSolver<'a> {
    prog: &'a Program,
    aux: &'a AndersenResult,
    icfg: Icfg,
    defuse: DefUse,
    singletons: PointsToSet<ObjId>,
    pt: IndexVec<ValueId, PointsToSet<ObjId>>,
    ins: IndexVec<InstId, ObjMap>,
    /// OUT entries for objects a store (re)defines; all other objects
    /// pass through unchanged (`OUT = IN`).
    outs: IndexVec<InstId, ObjMap>,
    dirty: IndexVec<InstId, PointsToSet<ObjId>>,
    worklist: FifoWorklist<InstId>,
    stats: SolveStats,
}

impl<'a> DenseSolver<'a> {
    fn new(prog: &'a Program, aux: &'a AndersenResult) -> Self {
        let icfg = Icfg::build(prog, |c| aux.callgraph.callees(c).to_vec());
        let n = prog.insts.len();
        let mut pt: IndexVec<ValueId, PointsToSet<ObjId>> =
            (0..prog.values.len()).map(|_| PointsToSet::new()).collect();
        for &(g, obj) in &prog.globals {
            pt[g].insert(obj);
        }
        let mut worklist = FifoWorklist::new(n);
        for i in prog.insts.indices() {
            worklist.push(i);
        }
        DenseSolver {
            prog,
            aux,
            icfg,
            defuse: DefUse::compute(prog),
            singletons: vsfs_andersen::compute_singletons(prog, &aux.callgraph),
            pt,
            ins: (0..n).map(|_| ObjMap::default()).collect(),
            outs: (0..n).map(|_| ObjMap::default()).collect(),
            dirty: (0..n).map(|_| PointsToSet::new()).collect(),
            worklist,
            stats: SolveStats::default(),
        }
    }

    fn solve(&mut self, governor: Option<&Governor>) -> Completion {
        while let Some(inst) = self.worklist.pop() {
            if let Some(gov) = governor {
                if let Err(reason) = gov.check(1) {
                    return Completion::Degraded(reason);
                }
            }
            self.stats.node_pops += 1;
            self.process(inst);
        }
        Completion::Complete
    }

    fn union_pt(&mut self, v: ValueId, add: &PointsToSet<ObjId>) {
        if !self.pt[v].union_with(add) {
            return;
        }
        for &u in self.defuse.uses(v).to_vec().iter() {
            self.worklist.push(u);
        }
    }

    fn insert_pt(&mut self, v: ValueId, o: ObjId) {
        if !self.pt[v].insert(o) {
            return;
        }
        for &u in self.defuse.uses(v).to_vec().iter() {
            self.worklist.push(u);
        }
    }

    fn process(&mut self, inst: InstId) {
        match self.prog.insts[inst].kind.clone() {
            InstKind::Alloc { dst, obj } => self.insert_pt(dst, obj),
            InstKind::Copy { dst, src } => {
                let s = self.pt[src].clone();
                self.union_pt(dst, &s);
            }
            InstKind::Phi { dst, srcs } => {
                let mut s = PointsToSet::new();
                for src in srcs {
                    s.union_with(&self.pt[src]);
                }
                self.union_pt(dst, &s);
            }
            InstKind::Field { dst, base, offset } => {
                for o in self.pt[base].iter().collect::<Vec<_>>() {
                    let f = self.prog.field_object(o, offset);
                    self.insert_pt(dst, f);
                }
            }
            InstKind::Call { ref args, .. } => {
                // The dense classic analysis uses the pre-computed call
                // graph wholesale (no on-the-fly refinement).
                let targets: Vec<_> = self.aux.callgraph.callees(inst).to_vec();
                for f in targets {
                    let params = self.prog.functions[f].params.clone();
                    for (a, p) in args.clone().iter().zip(params.iter()) {
                        let s = self.pt[*a].clone();
                        self.union_pt(*p, &s);
                    }
                }
            }
            InstKind::FunExit { func, ret } => {
                if let Some(r) = ret {
                    let s = self.pt[r].clone();
                    for &call in self.aux.callgraph.callers(func).to_vec().iter() {
                        if let InstKind::Call { dst: Some(d), .. } = self.prog.insts[call].kind {
                            self.union_pt(d, &s);
                        }
                    }
                }
            }
            InstKind::Load { dst, addr } => {
                for o in self.pt[addr].iter().collect::<Vec<_>>() {
                    if let Some(s) = self.ins[inst].get(&o) {
                        let s = s.clone();
                        self.union_pt(dst, &s);
                    }
                }
            }
            InstKind::Store { addr, val } => {
                // Gen/Kill on every object the pointer may target. The
                // strong/weak decision is static on the auxiliary set,
                // matching the staged solvers (monotone transfer).
                let gen = self.pt[val].clone();
                let targets = self.pt[addr].clone();
                for o in targets.iter().collect::<Vec<_>>() {
                    let su = self.singletons.contains(o)
                        && self.aux.value_pts(addr).as_singleton() == Some(o);
                    let mut out = PointsToSet::new();
                    if su {
                        self.stats.strong_updates += 1;
                        out.union_with(&gen);
                    } else {
                        if let Some(i) = self.ins[inst].get(&o) {
                            out.union_with(i);
                        }
                        out.union_with(&gen);
                    }
                    self.stats.object_propagations += 1;
                    let slot = self.outs[inst].entry(o).or_default();
                    if slot.union_with(&out) {
                        self.dirty[inst].insert(o);
                    }
                }
            }
            // FREE neither defines a top-level value nor changes any
            // points-to set: OUT = IN, like FUNENTRY.
            InstKind::Free { .. } | InstKind::FunEntry { .. } => {}
        }
        self.propagate(inst);
    }

    /// Every object in the dirty set flows to every ICFG successor — the
    /// defining inefficiency of the dense approach.
    fn propagate(&mut self, inst: InstId) {
        if self.dirty[inst].is_empty() {
            return;
        }
        let dirty = std::mem::take(&mut self.dirty[inst]);
        let is_store = self.prog.insts[inst].kind.is_store();
        let succs = self.icfg.successors(inst).to_vec();
        for o in dirty.iter().collect::<Vec<_>>() {
            let redefined = is_store && self.outs[inst].contains_key(&o);
            for &succ in &succs {
                self.stats.object_propagations += 1;
                let val = if redefined { self.outs[inst].get(&o) } else { self.ins[inst].get(&o) };
                let Some(val) = val else { continue };
                if self.ins[succ].get(&o).is_some_and(|s| s.is_superset(val)) {
                    continue;
                }
                let val = val.clone();
                let slot = self.ins[succ].entry(o).or_default();
                if slot.union_with(&val) {
                    self.dirty[succ].insert(o);
                    self.worklist.push(succ);
                }
            }
        }
    }

    fn storage_stats(&self) -> (usize, usize, usize) {
        let mut sets = 0;
        let mut elems = 0;
        let mut bytes = 0;
        for m in self.ins.iter().chain(self.outs.iter()) {
            sets += m.len();
            for s in m.values() {
                elems += s.len();
                bytes += s.heap_bytes();
            }
        }
        (sets, elems, bytes)
    }
}
