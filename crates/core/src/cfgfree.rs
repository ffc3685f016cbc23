//! CFG-free flow-sensitive analysis by constraint ordering ("Flow
//! Sensitivity without Control Flow Graph", see PAPERS.md).
//!
//! Where SFS/VSFS propagate object state along an explicitly built
//! sparse value-flow graph (memory SSA → SVFG → indirect edges), this
//! solver never materialises either stage. It recovers the same
//! flow-sensitive answers directly from the Andersen-annotated
//! constraint graph in three steps:
//!
//! 1. **Events.** Each instruction's µ (may-use) and χ (may-define)
//!    object annotations (`vsfs_mssa::annot`, which needs only the
//!    auxiliary result — no SSA renaming) become *use* and *def*
//!    events: stores and `FUNENTRY` define, loads and `FUNEXIT` use,
//!    calls do both (callee-bound µ before the call-return χ). `FREE`
//!    events are transparent (they neither generate nor kill) and are
//!    skipped outright.
//! 2. **Ordering.** A per-`(function, object)` reaching-definitions
//!    pass over the basic blocks — in which *only strong stores kill*
//!    — yields the static `def → use` reach relation. This is the
//!    "constraint ordering": it encodes exactly which definitions a
//!    use may observe, which is all the flow sensitivity the SVFG's
//!    def-use chains encode, without ever running SSA construction.
//! 3. **Solving.** A monotone fixpoint over one worklist of plain
//!    `InstId`s: def events evaluate their generated value (strong
//!    stores unconditionally, weak stores gated by the evolving
//!    points-to set of the address, call/entry events by merging over
//!    activated bindings) and ship growth along their reach edges with
//!    the same per-edge frontier difference propagation the staged
//!    solvers use.
//!
//! **Exactness.** Because weak definitions kill nothing, a definition
//! reaches a use here iff the corresponding SVFG def-use chain links
//! them transitively through weak χ relays, and strong stores block
//! both formulations identically. The strong/weak decision is the same
//! *static* rule (`singleton ∧ aux-pt(addr) = {o}`), call bindings use
//! the same µ/χ intersections, and top-level transfers are shared
//! semantics — so this solver computes the unique least fixpoint of
//! the same monotone system as SFS/VSFS and is query-identical to
//! them (enforced by `tests/equivalence.rs` and the CI solver gate).

use crate::result::{FlowSensitiveResult, SolveStats};
use crate::schedule::sccs;
use std::time::Instant;
use vsfs_adt::govern::{Completion, Governor};
use vsfs_adt::{Adjacency, FxHashMap, FxHashSet, IndexVec, PtsId, PtsStore, Worklist};
use vsfs_andersen::AndersenResult;
use vsfs_ir::{Callee, Cfg, DefUse, FuncId, InstId, InstKind, ObjId, Program, ValueId};
use vsfs_mssa::annot::{annotate, Annotations};
use vsfs_mssa::ModRef;

const EMPTY: PtsId = PtsStore::<ObjId>::EMPTY;

/// The CFG-free engine behind [`crate::solve`] (`SolverKind::CfgFree`).
/// Unlike the staged solvers it takes no memory SSA and no SVFG — the
/// Andersen result is the whole pipeline. Governed runs checkpoint once
/// per worklist pop.
pub(crate) fn solve(
    prog: &Program,
    aux: &AndersenResult,
    governor: Option<&Governor>,
) -> (FlowSensitiveResult, Completion) {
    let start = Instant::now();
    let mut solver = CfgFreeSolver::new(prog, aux);
    for i in prog.insts.indices() {
        solver.worklist.push(i);
    }
    let completion = solver.solve_governed(governor);
    let mut stats = solver.stats;
    stats.solve_seconds = start.elapsed().as_secs_f64();
    stats.pushes_suppressed = solver.worklist.stats().suppressed;
    let (sets, elems, bytes) = solver.storage_stats();
    stats.stored_object_sets = sets;
    stats.stored_object_elems = elems;
    stats.stored_object_bytes = bytes;
    stats.store = solver.store.stats();
    let mut callgraph_edges: Vec<(InstId, FuncId)> = solver.activated.iter().copied().collect();
    callgraph_edges.sort_unstable();
    (FlowSensitiveResult::new(solver.store, solver.pt, callgraph_edges, stats), completion)
}

/// What a def event generates for its object.
#[derive(Clone, Copy)]
enum DefKind {
    /// `FUNENTRY` χ: merge of caller-side call-µ values over activated
    /// bindings (weak — the function's "incoming" state).
    Entry,
    /// Store χ. `strong` is the static `[SU/WU]` decision; a strong
    /// store's reach edges already encode the kill (no upstream def
    /// reaches past it), so evaluation is gen-only either way.
    Store { addr: ValueId, val: ValueId, strong: bool },
    /// Call-return χ: merge of callee exit-µ values over activated
    /// bindings (weak — pre-call state passes through by reach).
    CallRet,
}

/// What a use event feeds once its accumulated value grows.
#[derive(Clone, Copy)]
enum UseKind {
    /// Load µ: `pt(dst) ⊇ U` for each object gated by `pt(addr)`.
    Load { addr: ValueId, dst: ValueId },
    /// Call µ: value shipped into activated callees' entry events.
    CallMu,
    /// `FUNEXIT` µ: value shipped into activated callers' return events.
    ExitMu,
}

struct DefEvent {
    inst: InstId,
    obj: ObjId,
    kind: DefKind,
}

struct UseEvent {
    inst: InstId,
    obj: ObjId,
    kind: UseKind,
}

struct CfgFreeSolver<'a> {
    prog: &'a Program,
    aux: &'a AndersenResult,
    defuse: DefUse,
    /// Hash-consed points-to store shared by every table of the run.
    store: PtsStore<ObjId>,
    /// Global points-to set per top-level value.
    pt: IndexVec<ValueId, PtsId>,
    active_callees: FxHashMap<InstId, Vec<FuncId>>,
    active_callers: FxHashMap<FuncId, Vec<InstId>>,
    activated: FxHashSet<(InstId, FuncId)>,
    defs: Vec<DefEvent>,
    uses: Vec<UseEvent>,
    /// Def / use events of each instruction (block-walk order).
    defs_at: IndexVec<InstId, Vec<u32>>,
    uses_at: IndexVec<InstId, Vec<u32>>,
    def_index: FxHashMap<(InstId, ObjId), u32>,
    use_index: FxHashMap<(InstId, ObjId), u32>,
    /// Static reach edges per def: `(use, frontier)` — the set id last
    /// shipped along the edge, for difference propagation.
    reach: Vec<Vec<(u32, PtsId)>>,
    /// Current generated value per def.
    val: Vec<PtsId>,
    /// Accumulated value per use: the union over its reaching defs.
    uval: Vec<PtsId>,
    /// Dynamic producers of `Entry`/`CallRet` defs: the caller/callee µ
    /// events wired in by call activation.
    producers: Vec<Vec<u32>>,
    /// Instructions to re-run when a use's accumulated value grows.
    consumers: Vec<Vec<InstId>>,
    worklist: Worklist<InstId>,
    stats: SolveStats,
}

impl<'a> CfgFreeSolver<'a> {
    fn new(prog: &'a Program, aux: &'a AndersenResult) -> Self {
        let modref = ModRef::compute(prog, aux);
        let annots = annotate(prog, aux, &modref);
        let mut pt: IndexVec<ValueId, PtsId> = (0..prog.values.len()).map(|_| EMPTY).collect();
        let mut store = PtsStore::new();
        for &(g, obj) in &prog.globals {
            pt[g] = store.insert(pt[g], obj);
        }

        let mut solver = CfgFreeSolver {
            prog,
            aux,
            defuse: DefUse::compute(prog),
            store,
            pt,
            active_callees: FxHashMap::default(),
            active_callers: FxHashMap::default(),
            activated: FxHashSet::default(),
            defs: Vec::new(),
            uses: Vec::new(),
            defs_at: (0..prog.insts.len()).map(|_| Vec::new()).collect(),
            uses_at: (0..prog.insts.len()).map(|_| Vec::new()).collect(),
            def_index: FxHashMap::default(),
            use_index: FxHashMap::default(),
            reach: Vec::new(),
            val: Vec::new(),
            uval: Vec::new(),
            producers: Vec::new(),
            consumers: Vec::new(),
            worklist: Worklist::new(Vec::new()),
            stats: SolveStats::default(),
        };
        solver.build_events(&annots);
        solver.build_reach();
        solver.worklist = Worklist::new(solver.inst_ranks());
        solver
    }

    /// Turns the µ/χ annotations into the event arena. Within an
    /// instruction, µ events precede χ events — at a call the callee
    /// consumes the pre-call state, then the return χ defines the
    /// post-call state.
    fn build_events(&mut self, annots: &Annotations) {
        for (_, func) in self.prog.functions.iter_enumerated() {
            for &b in &func.blocks {
                for &inst in &self.prog.blocks[b].insts {
                    match &self.prog.insts[inst].kind {
                        InstKind::Load { dst, addr } => {
                            for o in annots.mu_objs[inst].iter() {
                                self.add_use(inst, o, UseKind::Load { addr: *addr, dst: *dst });
                            }
                        }
                        InstKind::Store { addr, val } => {
                            for o in annots.chi_objs[inst].iter() {
                                let strong = self.is_strong_update(*addr, o);
                                self.add_def(
                                    inst,
                                    o,
                                    DefKind::Store { addr: *addr, val: *val, strong },
                                );
                            }
                        }
                        InstKind::Call { .. } => {
                            for o in annots.mu_objs[inst].iter() {
                                self.add_use(inst, o, UseKind::CallMu);
                            }
                            for o in annots.chi_objs[inst].iter() {
                                self.add_def(inst, o, DefKind::CallRet);
                            }
                        }
                        InstKind::FunEntry { .. } => {
                            for o in annots.chi_objs[inst].iter() {
                                self.add_def(inst, o, DefKind::Entry);
                            }
                        }
                        InstKind::FunExit { .. } => {
                            for o in annots.mu_objs[inst].iter() {
                                self.add_use(inst, o, UseKind::ExitMu);
                            }
                        }
                        // FREE χ events are transparent (no gen, no
                        // kill): under reach-transitivity they drop out
                        // entirely. Everything else is top-level only.
                        _ => {}
                    }
                }
            }
        }
    }

    fn add_def(&mut self, inst: InstId, obj: ObjId, kind: DefKind) {
        let id = self.defs.len() as u32;
        self.defs.push(DefEvent { inst, obj, kind });
        self.defs_at[inst].push(id);
        self.def_index.insert((inst, obj), id);
        self.reach.push(Vec::new());
        self.val.push(EMPTY);
        self.producers.push(Vec::new());
    }

    fn add_use(&mut self, inst: InstId, obj: ObjId, kind: UseKind) {
        let id = self.uses.len() as u32;
        let consumers = match kind {
            // A load consumes its own accumulated value.
            UseKind::Load { .. } => vec![inst],
            // Call/exit µ consumers are the activated bindings' insts,
            // wired in by `activate`.
            UseKind::CallMu | UseKind::ExitMu => Vec::new(),
        };
        self.uses.push(UseEvent { inst, obj, kind });
        self.uses_at[inst].push(id);
        self.use_index.insert((inst, obj), id);
        self.uval.push(EMPTY);
        self.consumers.push(consumers);
    }

    /// The static per-`(function, object)` reaching-definitions pass:
    /// only strong stores kill; every def at-or-after the last strong
    /// def in a block is generated. Produces `def → use` reach edges.
    fn build_reach(&mut self) {
        for (f, func) in self.prog.functions.iter_enumerated() {
            let cfg = Cfg::build(self.prog, f);
            let nblocks = cfg.block_count();

            // Per-object, per-block event sequences (deterministic:
            // objects sorted, blocks and events in layout order).
            let mut objs: Vec<ObjId> = Vec::new();
            for &b in &func.blocks {
                for &inst in &self.prog.blocks[b].insts {
                    for &d in &self.defs_at[inst] {
                        objs.push(self.defs[d as usize].obj);
                    }
                    for &u in &self.uses_at[inst] {
                        objs.push(self.uses[u as usize].obj);
                    }
                }
            }
            objs.sort_unstable();
            objs.dedup();

            for o in objs {
                // Event walk per block: ordered (is_def, id, strong).
                let mut events: Vec<Vec<(bool, u32, bool)>> = vec![Vec::new(); nblocks];
                let mut local_defs: Vec<u32> = Vec::new();
                for (bi, &b) in func.blocks.iter().enumerate() {
                    for &inst in &self.prog.blocks[b].insts {
                        for &u in &self.uses_at[inst] {
                            if self.uses[u as usize].obj == o {
                                events[bi].push((false, u, false));
                            }
                        }
                        for &d in &self.defs_at[inst] {
                            if self.defs[d as usize].obj == o {
                                let strong = matches!(
                                    self.defs[d as usize].kind,
                                    DefKind::Store { strong: true, .. }
                                );
                                events[bi].push((true, d, strong));
                                local_defs.push(d);
                            }
                        }
                    }
                }
                if local_defs.is_empty() {
                    continue; // nothing can reach any use of `o` here
                }
                let k = local_defs.len();
                let words = k.div_ceil(64);
                let local_of: FxHashMap<u32, usize> =
                    local_defs.iter().enumerate().map(|(i, &d)| (d, i)).collect();

                // GEN per block + whether the block kills (strong def).
                let mut gen = vec![vec![0u64; words]; nblocks];
                let mut kills = vec![false; nblocks];
                for bi in 0..nblocks {
                    for &(is_def, id, strong) in &events[bi] {
                        if !is_def {
                            continue;
                        }
                        if strong {
                            gen[bi].iter_mut().for_each(|w| *w = 0);
                            kills[bi] = true;
                        }
                        let l = local_of[&id];
                        gen[bi][l / 64] |= 1u64 << (l % 64);
                    }
                }

                // IN/OUT fixpoint: IN[B] = ⋃ OUT[pred];
                // OUT[B] = GEN[B] ∪ (IN[B] unless B kills).
                let mut ins = vec![vec![0u64; words]; nblocks];
                let mut outs = vec![vec![0u64; words]; nblocks];
                let mut changed = true;
                while changed {
                    changed = false;
                    for bi in 0..nblocks {
                        let b = cfg.block(bi as u32);
                        let mut inb = vec![0u64; words];
                        for p in cfg.predecessors(b) {
                            let pi = cfg.local(p) as usize;
                            for (w, &pw) in inb.iter_mut().zip(&outs[pi]) {
                                *w |= pw;
                            }
                        }
                        let mut outb = gen[bi].clone();
                        if !kills[bi] {
                            for (w, &iw) in outb.iter_mut().zip(&inb) {
                                *w |= iw;
                            }
                        }
                        if inb != ins[bi] || outb != outs[bi] {
                            ins[bi] = inb;
                            outs[bi] = outb;
                            changed = true;
                        }
                    }
                }

                // Final pass: at each use, the reaching set is the
                // running in-block state started from IN[B].
                for bi in 0..nblocks {
                    let mut cur = ins[bi].clone();
                    for &(is_def, id, strong) in &events[bi] {
                        if is_def {
                            if strong {
                                cur.iter_mut().for_each(|w| *w = 0);
                            }
                            let l = local_of[&id];
                            cur[l / 64] |= 1u64 << (l % 64);
                        } else {
                            for (wi, &w) in cur.iter().enumerate() {
                                let mut bits = w;
                                while bits != 0 {
                                    let l = wi * 64 + bits.trailing_zeros() as usize;
                                    bits &= bits - 1;
                                    let d = local_defs[l];
                                    self.reach[d as usize].push((id, EMPTY));
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Topological ranks over instructions, from the static dependence
    /// graph ([`CfgFreeSolver::dep_edges`]), mirroring
    /// `schedule::node_worklist`.
    fn inst_ranks(&self) -> Vec<u32> {
        let n = self.prog.insts.len();
        let succs = Adjacency::new(n, || self.dep_edges());
        sccs(n, |v, pos| succs.of(InstId::new(v)).get(pos).map(|w| w.raw())).ranks()
    }

    /// The static dependence edges between instructions: SSA def-use
    /// edges, memory reach edges, parameter flow, and every *candidate*
    /// call binding from the auxiliary call graph (so edges activated
    /// mid-solve are already ranked).
    fn dep_edges(&self) -> impl Iterator<Item = (InstId, InstId)> + '_ {
        let (prog, defuse) = (self.prog, &self.defuse);
        let def_use = prog.values.indices().flat_map(move |v| {
            let d = DefUse::def_inst(prog, v);
            d.into_iter().flat_map(move |d| defuse.uses(v).iter().map(move |&u| (d, u)))
        });
        let reach = self.reach.iter().zip(&self.defs).flat_map(move |(edges, def)| {
            edges.iter().map(move |&(u, _)| (def.inst, self.uses[u as usize].inst))
        });
        let params = prog.functions.iter().flat_map(move |func| {
            func.params
                .iter()
                .flat_map(move |&p| defuse.uses(p).iter().map(move |&u| (func.entry_inst, u)))
        });
        let calls = prog
            .insts
            .iter_enumerated()
            .filter(|(_, inst)| matches!(inst.kind, InstKind::Call { .. }))
            .flat_map(move |(call, _)| {
                self.aux.callgraph.callees(call).iter().flat_map(move |&f| {
                    let func = &prog.functions[f];
                    [(call, func.entry_inst), (func.exit_inst, call)]
                })
            });
        def_use.chain(reach).chain(params).chain(calls)
    }

    fn solve_governed(&mut self, governor: Option<&Governor>) -> Completion {
        while let Some(inst) = self.worklist.pop() {
            if let Some(g) = governor {
                if let Err(reason) = g.check(1) {
                    return Completion::Degraded(reason);
                }
            }
            self.stats.node_pops += 1;
            self.process(inst);
        }
        Completion::Complete
    }

    fn process(&mut self, inst: InstId) {
        self.transfer_top(inst);
        // µ phase: loads pull their accumulated values, gated by the
        // evolving pt(addr) — exactly SFS's `[LOAD]` dynamic gate.
        for k in 0..self.uses_at[inst].len() {
            let u = self.uses_at[inst][k];
            let UseEvent { obj, kind, .. } = &self.uses[u as usize];
            if let UseKind::Load { addr, dst } = kind {
                let (obj, addr, dst) = (*obj, *addr, *dst);
                if self.store.contains(self.pt[addr], obj) {
                    let v = self.uval[u as usize];
                    self.union_pt(dst, v);
                }
            }
        }
        // χ phase: re-evaluate generated values, ship growth.
        for k in 0..self.defs_at[inst].len() {
            let d = self.defs_at[inst][k];
            let new = self.eval_def(d);
            if new != self.val[d as usize] {
                self.val[d as usize] = new;
                self.ship(d);
            }
        }
    }

    /// The value def `d` currently generates (monotone in the solver
    /// state: pt sets and use accumulators only grow, gates only open).
    fn eval_def(&mut self, d: u32) -> PtsId {
        self.stats.object_propagations += 1;
        let obj = self.defs[d as usize].obj;
        match self.defs[d as usize].kind {
            DefKind::Store { addr, val, strong } => {
                if strong {
                    self.stats.strong_updates += 1;
                    self.pt[val]
                } else if self.store.contains(self.pt[addr], obj) {
                    self.pt[val]
                } else {
                    EMPTY
                }
            }
            DefKind::Entry | DefKind::CallRet => {
                let mut v = self.val[d as usize];
                for k in 0..self.producers[d as usize].len() {
                    let u = self.producers[d as usize][k];
                    v = self.store.union(v, self.uval[u as usize]);
                }
                v
            }
        }
    }

    /// Ships def `d`'s value past each reach edge's frontier into the
    /// target use's accumulator; on growth, re-queues the consumers.
    /// Differential and exact, as in `SfsSolver::ship_delta`.
    fn ship(&mut self, d: u32) {
        let v = self.val[d as usize];
        for k in 0..self.reach[d as usize].len() {
            let (u, last) = self.reach[d as usize][k];
            self.stats.object_propagations += 1;
            if v == last {
                self.stats.unions_avoided += 1;
                continue;
            }
            self.stats.full_bytes += self.store.flat_bytes(v);
            let delta = self.store.diff(v, last);
            self.stats.delta_bytes += self.store.flat_bytes(delta);
            self.reach[d as usize][k].1 = v;
            let cur = self.uval[u as usize];
            if delta == EMPTY || !self.store.union_would_change(cur, delta) {
                self.stats.unions_avoided += 1;
                continue;
            }
            self.uval[u as usize] = self.store.union(cur, delta);
            for ci in 0..self.consumers[u as usize].len() {
                let c = self.consumers[u as usize][ci];
                self.worklist.push(c);
            }
        }
    }

    // ----- top-level transfer (shared semantics with `TopLevel`) -----

    fn union_pt(&mut self, v: ValueId, add: PtsId) -> bool {
        let new = self.store.union(self.pt[v], add);
        if new == self.pt[v] {
            return false;
        }
        self.pt[v] = new;
        for &u in self.defuse.uses(v) {
            self.worklist.push(u);
        }
        true
    }

    fn insert_pt(&mut self, v: ValueId, obj: ObjId) -> bool {
        let new = self.store.insert(self.pt[v], obj);
        if new == self.pt[v] {
            return false;
        }
        self.pt[v] = new;
        for &u in self.defuse.uses(v) {
            self.worklist.push(u);
        }
        true
    }

    fn is_strong_update(&self, p: ValueId, o: ObjId) -> bool {
        self.aux.singletons.contains(o) && self.aux.value_pts(p).as_singleton() == Some(o)
    }

    fn transfer_top(&mut self, inst: InstId) {
        match &self.prog.insts[inst].kind {
            InstKind::Alloc { dst, obj } => {
                self.insert_pt(*dst, *obj);
            }
            InstKind::Copy { dst, src } => {
                let s = self.pt[*src];
                self.union_pt(*dst, s);
            }
            InstKind::Phi { dst, srcs } => {
                let mut s = EMPTY;
                for &src in srcs {
                    s = self.store.union(s, self.pt[src]);
                }
                self.union_pt(*dst, s);
            }
            InstKind::Field { dst, base, offset } => {
                let objs: Vec<ObjId> = self.store.iter_set(self.pt[*base]).collect();
                for o in objs {
                    let fo = self.prog.field_object(o, *offset);
                    self.insert_pt(*dst, fo);
                }
            }
            InstKind::Call { callee, args, .. } => {
                match callee {
                    Callee::Direct(f) => {
                        self.activate(inst, *f);
                    }
                    Callee::Indirect(fp) => {
                        let candidates: Vec<FuncId> = self
                            .store
                            .iter_set(self.pt[*fp])
                            .filter_map(|o| self.prog.object_as_function(o))
                            .collect();
                        for f in candidates {
                            self.activate(inst, f);
                        }
                    }
                }
                let callees = self.active_callees.get(&inst).map_or(Vec::new(), |v| v.clone());
                let args = args.clone();
                for f in callees {
                    let params = self.prog.functions[f].params.clone();
                    for (a, p) in args.iter().zip(params.iter()) {
                        let s = self.pt[*a];
                        self.union_pt(*p, s);
                    }
                }
            }
            InstKind::FunExit { func, ret } => {
                if let Some(r) = ret {
                    let s = self.pt[*r];
                    let callers = self.active_callers.get(func).map_or(Vec::new(), |v| v.clone());
                    for call in callers {
                        if let InstKind::Call { dst: Some(d), .. } = self.prog.insts[call].kind {
                            self.union_pt(d, s);
                        }
                    }
                }
            }
            InstKind::Load { .. }
            | InstKind::Store { .. }
            | InstKind::Free { .. }
            | InstKind::FunEntry { .. } => {}
        }
    }

    /// Activates a `(call, callee)` edge: wires the µ→χ binding flow
    /// (callers' call-µ into the callee entry χ, callee exit-µ into the
    /// call-return χ) and queues the callee's entry and exit.
    fn activate(&mut self, call: InstId, callee: FuncId) {
        if !self.activated.insert((call, callee)) {
            return;
        }
        self.stats.calls_activated += 1;
        self.active_callees.entry(call).or_default().push(callee);
        self.active_callers.entry(callee).or_default().push(call);
        let func = &self.prog.functions[callee];
        let (entry, exit) = (func.entry_inst, func.exit_inst);
        // ins(call, callee): objects both used at the call site and
        // live-in at the callee — same intersection as the SVFG's
        // call binding.
        for k in 0..self.uses_at[call].len() {
            let u = self.uses_at[call][k];
            if !matches!(self.uses[u as usize].kind, UseKind::CallMu) {
                continue;
            }
            let o = self.uses[u as usize].obj;
            if let Some(&d) = self.def_index.get(&(entry, o)) {
                self.producers[d as usize].push(u);
                self.consumers[u as usize].push(entry);
            }
        }
        // outs(call, callee): objects the callee summary-modifies that
        // the call site also defines.
        for k in 0..self.defs_at[call].len() {
            let d = self.defs_at[call][k];
            if !matches!(self.defs[d as usize].kind, DefKind::CallRet) {
                continue;
            }
            let o = self.defs[d as usize].obj;
            if let Some(&u) = self.use_index.get(&(exit, o)) {
                self.producers[d as usize].push(u);
                self.consumers[u as usize].push(call);
            }
        }
        // The callee's entry must (re)run to merge the new caller's
        // state; the exit to publish its return value (and its exit-µ
        // accumulators into this call's return χ, which the current
        // pop's χ phase picks up when the activation came from `call`
        // itself).
        self.worklist.push(entry);
        self.worklist.push(exit);
        self.worklist.push(call);
    }

    /// `(set count, total elements, approximate heap bytes)` across the
    /// def/use accumulators — the Table III storage analogue.
    fn storage_stats(&self) -> (usize, usize, usize) {
        let mut sets = 0;
        let mut elems = 0;
        let mut bytes = 0;
        for &id in self.val.iter().chain(self.uval.iter()) {
            if id == EMPTY {
                continue;
            }
            sets += 1;
            elems += self.store.set_len(id);
            bytes += self.store.flat_bytes(id);
        }
        (sets, elems, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GovernedAnalysis, SolveRequest, SolverKind};
    use vsfs_ir::parse_program;

    const CFGFREE: SolverKind = SolverKind::CfgFree;

    fn run(prog: &Program, aux: &AndersenResult, req: SolveRequest) -> GovernedAnalysis {
        crate::solve(prog, aux, None, req)
    }

    fn solve(src: &str) -> (Program, FlowSensitiveResult) {
        let prog = parse_program(src).unwrap();
        vsfs_ir::verify::verify(&prog).unwrap();
        let aux = vsfs_andersen::analyze(&prog);
        let r = run(&prog, &aux, SolveRequest::new(CFGFREE)).result;
        (prog, r)
    }

    fn pts(prog: &Program, r: &FlowSensitiveResult, name: &str) -> Vec<String> {
        let v = prog
            .values
            .iter_enumerated()
            .find(|(_, val)| val.name == name)
            .map(|(id, _)| id)
            .unwrap();
        let mut names: Vec<String> =
            r.value_pts(v).iter().map(|o| prog.objects[o].name.clone()).collect();
        names.sort();
        names
    }

    #[test]
    fn strong_update_kills_previous_store() {
        let (prog, r) = solve(
            r#"
            func @main() {
            entry:
              %p = alloc stack P
              %h1 = alloc heap H1
              %h2 = alloc heap H2
              store %h1, %p
              %x = load %p
              store %h2, %p
              %y = load %p
              ret
            }
            "#,
        );
        assert_eq!(pts(&prog, &r, "x"), vec!["H1"], "first load sees only H1");
        assert_eq!(pts(&prog, &r, "y"), vec!["H2"], "strong update killed H1");
        assert!(r.stats.strong_updates > 0);
    }

    #[test]
    fn two_level_loads() {
        let (prog, r) = solve(
            r#"
            func @main() {
            entry:
              %pp = alloc stack PP
              %p = alloc stack P
              %h = alloc heap H
              store %p, %pp
              store %h, %p
              %p2 = load %pp
              %v = load %p2
              ret
            }
            "#,
        );
        assert_eq!(pts(&prog, &r, "p2"), vec!["P"]);
        assert_eq!(pts(&prog, &r, "v"), vec!["H"]);
    }

    #[test]
    fn weak_update_into_heap_accumulates() {
        let (prog, r) = solve(
            r#"
            func @main() {
            entry:
              %h = alloc heap Cell
              %a = alloc heap A
              %b = alloc heap B
              store %a, %h
              store %b, %h
              %v = load %h
              ret
            }
            "#,
        );
        assert_eq!(pts(&prog, &r, "v"), vec!["A", "B"], "heap stores are weak");
        assert_eq!(r.stats.strong_updates, 0);
    }

    #[test]
    fn interprocedural_state_flows_through_calls() {
        let (prog, r) = solve(
            r#"
            func @write(%q) {
            entry:
              %h = alloc heap FromCallee
              store %h, %q
              ret
            }
            func @main() {
            entry:
              %p = alloc stack Cell
              %r = call @write(%p)
              %v = load %p
              ret
            }
            "#,
        );
        assert_eq!(pts(&prog, &r, "v"), vec!["FromCallee"]);
    }

    #[test]
    fn matches_sfs_on_branchy_and_indirect_programs() {
        let srcs = [
            r#"
            global @tab
            func @first(%x) {
            entry:
              ret %x
            }
            func @second(%x) {
            entry:
              %h = alloc heap FromSecond
              ret %h
            }
            func @main() {
            entry:
              %f1 = funaddr @first
              store %f1, @tab
              %fp = load @tab
              %arg = alloc heap Arg
              %r = icall %fp(%arg)
              %f2 = funaddr @second
              store %f2, @tab
              ret
            }
            "#,
            r#"
            func @main() {
            entry:
              %p = alloc stack Cell
              %a = alloc heap A
              %b = alloc heap B
              br then, else
            then:
              store %a, %p
              goto join
            else:
              store %b, %p
              goto join
            join:
              %v = load %p
              ret
            }
            "#,
        ];
        for src in srcs {
            let prog = parse_program(src).unwrap();
            vsfs_ir::verify::verify(&prog).unwrap();
            let aux = vsfs_andersen::analyze(&prog);
            let mssa = vsfs_mssa::MemorySsa::build(&prog, &aux);
            let svfg = vsfs_svfg::Svfg::build(&prog, &aux, &mssa);
            let sfs = crate::run_sfs(&prog, &aux, &mssa, &svfg);
            let cf = run(&prog, &aux, SolveRequest::new(CFGFREE)).result;
            assert_eq!(
                crate::precision_diff(&prog, &sfs, &cf),
                None,
                "cfgfree must be query-identical to sfs"
            );
        }
    }

    #[test]
    fn governed_run_degrades_to_andersen() {
        use vsfs_adt::govern::Budget;
        let src = r#"
            func @main() {
            entry:
              %p = alloc stack P
              %h = alloc heap H
              store %h, %p
              %v = load %p
              ret
            }
            "#;
        let prog = parse_program(src).unwrap();
        vsfs_ir::verify::verify(&prog).unwrap();
        let aux = vsfs_andersen::analyze(&prog);
        let governor = Governor::new(Budget::unlimited().with_steps(1));
        let out = run(
            &prog,
            &aux,
            SolveRequest { governor: Some(&governor), ..SolveRequest::new(CFGFREE) },
        );
        assert!(!out.is_complete());
        assert_eq!(out.mode, "flow-insensitive-fallback");
        // Sound: the fallback covers the complete answer.
        let full = run(&prog, &aux, SolveRequest::new(CFGFREE)).result;
        for v in prog.values.indices() {
            for o in full.value_pts(v).iter() {
                assert!(out.result.value_pts(v).contains(o));
            }
        }
    }
}
