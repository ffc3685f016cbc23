//! Top-level (`P`) points-to state and on-the-fly call-graph resolution,
//! shared by the SFS and VSFS solvers.
//!
//! Top-level variables are in SSA form, so each has one global points-to
//! set (`[ADDR]`, `[PHI]`, `[CAST]`, `[FIELD-ADDR]`, `[CALL]`, `[RET]`
//! rules). This module owns those sets, the flow-sensitively resolved call
//! graph, and the plumbing that re-enqueues SVFG nodes when a value's set
//! grows. The object-flow parts of `[LOAD]`, `[STORE]`, and `[A-PROP]`
//! differ between the two solvers and live with them.
//!
//! Points-to sets are hash-consed: [`TopLevel::store`] holds one shared
//! [`PtsStore`] spanning every stage of the run (top-level values, SFS
//! `IN`/`OUT` entries, VSFS version slots), so identical sets across
//! layers are stored once and repeated unions hit the store's memo.

use vsfs_adt::{FxHashMap, FxHashSet, IndexVec, PointsToSet, PtsId, PtsStore, Worklist};
use vsfs_andersen::AndersenResult;
use vsfs_ir::{Callee, DefUse, FuncId, InstId, InstKind, ObjId, Program, ValueId};
use vsfs_svfg::{Svfg, SvfgNodeId};

/// The empty-set id of the shared store.
pub(crate) const EMPTY: PtsId = PtsStore::<ObjId>::EMPTY;

/// Shared top-level solver state.
pub struct TopLevel<'a> {
    pub(crate) prog: &'a Program,
    aux: &'a AndersenResult,
    svfg: &'a Svfg,
    defuse: DefUse,
    /// The shared hash-consed points-to store for the whole run.
    pub store: PtsStore<ObjId>,
    /// Global points-to set per top-level value (ids into [`TopLevel::store`]).
    pub pt: IndexVec<ValueId, PtsId>,
    /// Flow-sensitively activated callees per call site.
    active_callees: FxHashMap<InstId, Vec<FuncId>>,
    /// Flow-sensitively activated call sites per function.
    active_callers: FxHashMap<FuncId, Vec<InstId>>,
    activated: FxHashSet<(InstId, FuncId)>,
    /// Singleton objects (strong-update eligible).
    pub singletons: PointsToSet<ObjId>,
}

impl<'a> TopLevel<'a> {
    /// Creates the initial state: global pointers seeded with their
    /// storage objects, everything else empty.
    pub fn new(prog: &'a Program, aux: &'a AndersenResult, svfg: &'a Svfg) -> Self {
        let mut store = PtsStore::new();
        let mut pt: IndexVec<ValueId, PtsId> = (0..prog.values.len()).map(|_| EMPTY).collect();
        for &(g, obj) in &prog.globals {
            pt[g] = store.insert(pt[g], obj);
        }
        TopLevel {
            prog,
            aux,
            svfg,
            defuse: DefUse::compute(prog),
            store,
            pt,
            active_callees: FxHashMap::default(),
            active_callers: FxHashMap::default(),
            activated: FxHashSet::default(),
            singletons: vsfs_andersen::compute_singletons(prog, &aux.callgraph),
        }
    }

    /// Replaces the solver state with carried warm state: `store` becomes
    /// the shared store (global pointers are re-seeded into it, since the
    /// ids minted by [`TopLevel::new`] belong to the discarded fresh
    /// store), `pt` entries install final sets for values whose defining
    /// node survived an edit, and `activations` restores the surviving
    /// call-graph edges.
    pub(crate) fn seed_state(
        &mut self,
        store: PtsStore<ObjId>,
        pt: &[(ValueId, PtsId)],
        activations: &[(InstId, FuncId)],
    ) {
        self.store = store;
        for slot in self.pt.iter_mut() {
            *slot = EMPTY;
        }
        for &(g, obj) in &self.prog.globals {
            self.pt[g] = self.store.insert(self.pt[g], obj);
        }
        for &(v, id) in pt {
            self.pt[v] = id;
        }
        for &(call, f) in activations {
            if self.activated.insert((call, f)) {
                self.active_callees.entry(call).or_default().push(f);
                self.active_callers.entry(f).or_default().push(call);
            }
        }
    }

    /// The activated callees of `call`.
    pub fn callees(&self, call: InstId) -> &[FuncId] {
        self.active_callees.get(&call).map_or(&[], |v| v.as_slice())
    }

    /// The activated call sites of `func`.
    pub fn callers(&self, func: FuncId) -> &[InstId] {
        self.active_callers.get(&func).map_or(&[], |v| v.as_slice())
    }

    /// All activated `(call, callee)` pairs, sorted.
    pub fn callgraph_edges(&self) -> Vec<(InstId, FuncId)> {
        let mut v: Vec<(InstId, FuncId)> = self.activated.iter().copied().collect();
        v.sort();
        v
    }

    /// Iterates the points-to set of `v`, ascending.
    pub fn value_pt_iter(&self, v: ValueId) -> impl Iterator<Item = ObjId> + '_ {
        self.store.iter_set(self.pt[v])
    }

    /// Returns `true` if `o` is in the points-to set of `v`.
    pub fn value_pt_contains(&self, v: ValueId, o: ObjId) -> bool {
        self.store.contains(self.pt[v], o)
    }

    /// Unions the set behind `add` into `pt(v)`; on growth, enqueues every
    /// SVFG node that uses `v`. Returns `true` if the set grew.
    pub fn union_pt(
        &mut self,
        v: ValueId,
        add: PtsId,
        worklist: &mut Worklist<SvfgNodeId>,
    ) -> bool {
        let new = self.store.union(self.pt[v], add);
        if new == self.pt[v] {
            return false;
        }
        self.pt[v] = new;
        self.enqueue_uses(v, worklist);
        true
    }

    /// Inserts one object into `pt(v)` (the `[ADDR]`/`[FIELD-ADDR]` rules).
    pub fn insert_pt(
        &mut self,
        v: ValueId,
        obj: ObjId,
        worklist: &mut Worklist<SvfgNodeId>,
    ) -> bool {
        let new = self.store.insert(self.pt[v], obj);
        if new == self.pt[v] {
            return false;
        }
        self.pt[v] = new;
        self.enqueue_uses(v, worklist);
        true
    }

    fn enqueue_uses(&self, v: ValueId, worklist: &mut Worklist<SvfgNodeId>) {
        for &u in self.defuse.uses(v) {
            worklist.push(self.svfg.inst_node(u));
        }
    }

    /// Runs the top-level transfer function of the instruction at `node`,
    /// including call-graph activation. Newly activated `(call, callee)`
    /// pairs are appended to `newly_activated` so the caller can wire up
    /// solver-specific object flow.
    pub fn transfer(
        &mut self,
        inst: InstId,
        worklist: &mut Worklist<SvfgNodeId>,
        newly_activated: &mut Vec<(InstId, FuncId)>,
    ) {
        match &self.prog.insts[inst].kind {
            InstKind::Alloc { dst, obj } => {
                self.insert_pt(*dst, *obj, worklist);
            }
            InstKind::Copy { dst, src } => {
                let s = self.pt[*src];
                self.union_pt(*dst, s, worklist);
            }
            InstKind::Phi { dst, srcs } => {
                let mut s = EMPTY;
                for &src in srcs {
                    s = self.store.union(s, self.pt[src]);
                }
                self.union_pt(*dst, s, worklist);
            }
            InstKind::Field { dst, base, offset } => {
                let objs: Vec<ObjId> = self.store.iter_set(self.pt[*base]).collect();
                for o in objs {
                    let f = self.prog.field_object(o, *offset);
                    self.insert_pt(*dst, f, worklist);
                }
            }
            InstKind::Call { callee, args, .. } => {
                // Resolve callees flow-sensitively.
                match callee {
                    Callee::Direct(f) => {
                        self.activate(inst, *f, worklist, newly_activated);
                    }
                    Callee::Indirect(fp) => {
                        let candidates: Vec<FuncId> = self
                            .store
                            .iter_set(self.pt[*fp])
                            .filter_map(|o| self.prog.object_as_function(o))
                            .collect();
                        for f in candidates {
                            self.activate(inst, f, worklist, newly_activated);
                        }
                    }
                }
                // Bind arguments to parameters of every active callee.
                let callees = self.callees(inst).to_vec();
                for f in callees {
                    let params = self.prog.functions[f].params.clone();
                    for (a, p) in args.clone().iter().zip(params.iter()) {
                        let s = self.pt[*a];
                        self.union_pt(*p, s, worklist);
                    }
                }
            }
            InstKind::FunExit { func, ret } => {
                // Copy the returned pointer to every active caller's dst.
                if let Some(r) = ret {
                    let s = self.pt[*r];
                    let callers = self.callers(*func).to_vec();
                    for call in callers {
                        if let InstKind::Call { dst: Some(d), .. } = self.prog.insts[call].kind {
                            self.union_pt(d, s, worklist);
                        }
                    }
                }
            }
            // LOAD's top-level effect depends on object state — handled by
            // the solver. STORE, FREE, FUNENTRY have no top-level effect.
            InstKind::Load { .. }
            | InstKind::Store { .. }
            | InstKind::Free { .. }
            | InstKind::FunEntry { .. } => {}
        }
    }

    fn activate(
        &mut self,
        call: InstId,
        callee: FuncId,
        worklist: &mut Worklist<SvfgNodeId>,
        newly_activated: &mut Vec<(InstId, FuncId)>,
    ) {
        if !self.activated.insert((call, callee)) {
            return;
        }
        self.active_callees.entry(call).or_default().push(callee);
        self.active_callers.entry(callee).or_default().push(call);
        newly_activated.push((call, callee));
        let f = &self.prog.functions[callee];
        // The callee's entry and exit must (re)run: the entry to receive
        // object state, the exit to publish its return value to this new
        // caller.
        worklist.push(self.svfg.inst_node(f.entry_inst));
        worklist.push(self.svfg.inst_node(f.exit_inst));
    }

    /// Is a store through `p` a strong update of `o`? (`[SU/WU]` rule.)
    ///
    /// The decision is *static*: `o` must be a singleton and the
    /// **auxiliary** points-to set of `p` must be exactly `{o}`. Deciding
    /// on the evolving flow-sensitive set instead (as in the original
    /// SFS formulation) makes the transfer function non-monotone — the
    /// weak/strong choice can flip mid-solve, leaving schedule-dependent
    /// residue in whichever solver happened to process the store first —
    /// so the fixpoint would not be unique and SFS/VSFS could disagree
    /// on convergence order alone. With the static test both solvers
    /// compute the unique least fixpoint of the same monotone system,
    /// making the paper's equal-precision theorem (Section IV-E) hold
    /// exactly, at the cost of fewer strong updates than a
    /// flow-sensitively-narrowed test would allow. This is sound even
    /// when the flow-sensitive set of `p` is empty: `aux_pt(p) = {o}`
    /// means `p` can only ever hold `o` (or be uninitialised, which
    /// makes the store undefined behaviour at runtime).
    pub fn is_strong_update(&self, p: ValueId, o: ObjId) -> bool {
        self.singletons.contains(o) && self.aux.value_pts(p).as_singleton() == Some(o)
    }
}
