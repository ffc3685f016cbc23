//! The staged flow-sensitive baseline (SFS), equations (6)–(7) of the
//! paper.
//!
//! Every SVFG node keeps an `IN` map from objects to points-to sets;
//! `STORE` nodes additionally keep an `OUT` map. Indirect edges propagate
//! whole points-to sets from the producing side of one node to the `IN`
//! of the next — the redundant single-object propagation and storage that
//! VSFS eliminates.
//!
//! Dirty tracking: a `(node, object)` pair is marked dirty when the value
//! the node would propagate for that object may have changed; popping a
//! node propagates only its dirty objects.

use crate::result::{FlowSensitiveResult, SolveStats};
use crate::schedule::node_worklist;
use crate::solver::{SolveRequest, SolverKind};
use crate::toplevel::{TopLevel, EMPTY};
use std::time::Instant;
use vsfs_adt::govern::{Completion, Governor};
use vsfs_adt::{FxHashMap, IndexVec, PointsToSet, PtsId, PtsStore, Worklist};
use vsfs_andersen::AndersenResult;
use vsfs_ir::{FuncId, InstId, InstKind, ObjId, Program, ValueId};
use vsfs_mssa::MemorySsa;
use vsfs_svfg::{Svfg, SvfgNodeId, SvfgNodeKind};

/// Runs the SFS baseline to a fixpoint under the default configuration
/// (see [`crate::solve`] for every other setting).
pub fn run_sfs(
    prog: &Program,
    aux: &AndersenResult,
    mssa: &MemorySsa,
    svfg: &Svfg,
) -> FlowSensitiveResult {
    crate::solve(prog, aux, Some((mssa, svfg)), SolveRequest::new(SolverKind::Sfs)).result
}

/// The SFS engine behind [`crate::solve`]: a cold solve, with one
/// cooperative checkpoint per worklist pop when governed.
pub(crate) fn solve(
    prog: &Program,
    aux: &AndersenResult,
    mssa: &MemorySsa,
    svfg: &Svfg,
    governor: Option<&Governor>,
) -> (FlowSensitiveResult, Completion) {
    let (result, completion, _) = solve_impl(prog, aux, mssa, svfg, governor, None, false);
    (result, completion)
}

/// Warm state to resume from: the surviving portion of a previous run's
/// fixpoint, already remapped into the *current* parse's id spaces (see
/// `crate::incremental`). Every `PtsId` refers to `store`.
pub(crate) struct SfsSeed {
    /// The successor-epoch store holding all carried sets.
    pub store: PtsStore<ObjId>,
    /// Final top-level sets for values whose defining node is clean.
    pub pt: Vec<(ValueId, PtsId)>,
    /// Final `IN` entries of clean nodes, each sorted by object.
    pub ins: Vec<(SvfgNodeId, Vec<(ObjId, PtsId)>)>,
    /// Final `OUT` entries of clean STORE nodes.
    pub outs: Vec<(SvfgNodeId, Vec<(ObjId, PtsId)>)>,
    /// Call-graph activations whose call node is clean.
    pub activations: Vec<(InstId, FuncId)>,
    /// Nodes whose previous fixpoint state survives the edit.
    pub clean: IndexVec<SvfgNodeId, bool>,
}

/// The per-node `IN`/`OUT` tables of a completed run, extracted in
/// deterministic (object-sorted) order so the next edit can seed from
/// them.
pub(crate) struct SfsHarvest {
    pub ins: IndexVec<SvfgNodeId, Vec<(ObjId, PtsId)>>,
    pub outs: IndexVec<SvfgNodeId, Vec<(ObjId, PtsId)>>,
}

/// Runs SFS from `seed` (or cold when `None`), returning the per-node
/// state tables alongside the result so the caller can stay resident.
/// The fixpoint is identical to a cold solve — seeding only skips work
/// that would reconverge to the carried values.
pub(crate) fn run_sfs_seeded(
    prog: &Program,
    aux: &AndersenResult,
    mssa: &MemorySsa,
    svfg: &Svfg,
    governor: Option<&Governor>,
    seed: Option<SfsSeed>,
) -> (FlowSensitiveResult, Completion, Option<SfsHarvest>) {
    solve_impl(prog, aux, mssa, svfg, governor, seed, true)
}

fn solve_impl(
    prog: &Program,
    aux: &AndersenResult,
    mssa: &MemorySsa,
    svfg: &Svfg,
    governor: Option<&Governor>,
    seed: Option<SfsSeed>,
    want_harvest: bool,
) -> (FlowSensitiveResult, Completion, Option<SfsHarvest>) {
    let start = Instant::now();
    let mut solver = SfsSolver::new(prog, aux, mssa, svfg);
    match seed {
        Some(seed) => solver.apply_seed(seed),
        None => solver.init_cold(),
    }
    let completion = solver.solve_governed(governor);
    let mut stats = solver.stats;
    stats.solve_seconds = start.elapsed().as_secs_f64();
    stats.pushes_suppressed = solver.worklist.stats().suppressed;
    let (sets, elems, bytes) = solver.storage_stats();
    stats.stored_object_sets = sets;
    stats.stored_object_elems = elems;
    stats.stored_object_bytes = bytes;
    stats.store = solver.top.store.stats();
    let harvest = (want_harvest && completion == Completion::Complete).then(|| solver.harvest());
    let callgraph_edges = solver.top.callgraph_edges();
    (
        FlowSensitiveResult::new(solver.top.store, solver.top.pt, callgraph_edges, stats),
        completion,
        harvest,
    )
}

/// `IN`/`OUT` entries hold ids into the run's shared
/// [`vsfs_adt::PtsStore`] (`TopLevel::store`); identical sets across
/// nodes are stored once.
type ObjMap = FxHashMap<ObjId, PtsId>;

struct SfsSolver<'a> {
    prog: &'a Program,
    mssa: &'a MemorySsa,
    svfg: &'a Svfg,
    top: TopLevel<'a>,
    /// IN set per node.
    ins: IndexVec<SvfgNodeId, ObjMap>,
    /// OUT set per node (populated for STORE nodes only).
    outs: IndexVec<SvfgNodeId, ObjMap>,
    /// Indirect edges activated by on-the-fly call-graph resolution.
    dyn_succs: IndexVec<SvfgNodeId, Vec<(SvfgNodeId, ObjId)>>,
    /// Difference-propagation frontier per static labelled indirect
    /// edge: the set id last shipped along the `k`-th `(succ, obj)` pair
    /// of `svfg.indirect_succs_expanded(n)`. Only the
    /// `diff(current, frontier)` part of a value crosses an edge again.
    edge_frontier: IndexVec<SvfgNodeId, Vec<PtsId>>,
    /// Same frontier for the activated (`dyn_succs`) edges, parallel to
    /// each node's `dyn_succs` list.
    dyn_frontier: IndexVec<SvfgNodeId, Vec<PtsId>>,
    /// Objects whose outgoing value changed since the node last ran.
    dirty: IndexVec<SvfgNodeId, PointsToSet<ObjId>>,
    worklist: Worklist<SvfgNodeId>,
    stats: SolveStats,
}

impl<'a> SfsSolver<'a> {
    fn new(
        prog: &'a Program,
        aux: &'a AndersenResult,
        mssa: &'a MemorySsa,
        svfg: &'a Svfg,
    ) -> Self {
        let n = svfg.node_count();
        SfsSolver {
            prog,
            mssa,
            svfg,
            top: TopLevel::new(prog, aux, svfg),
            ins: (0..n).map(|_| ObjMap::default()).collect(),
            outs: (0..n).map(|_| ObjMap::default()).collect(),
            dyn_succs: (0..n).map(|_| Vec::new()).collect(),
            edge_frontier: svfg
                .node_ids()
                .map(|id| vec![EMPTY; svfg.indirect_succs_expanded(id).count()])
                .collect(),
            dyn_frontier: (0..n).map(|_| Vec::new()).collect(),
            dirty: (0..n).map(|_| PointsToSet::new()).collect(),
            worklist: node_worklist(prog, svfg),
            stats: SolveStats::default(),
        }
    }

    /// Cold start: every node visits at least once.
    fn init_cold(&mut self) {
        for id in self.svfg.node_ids() {
            self.worklist.push(id);
        }
    }

    /// Warm start: installs the carried fixpoint state of clean nodes and
    /// schedules only the work the edit could affect.
    ///
    /// Frontier rule, per indirect edge `src --o--> dst`:
    /// * both endpoints clean — the old run converged, so the frontier
    ///   equals the value `src` exposes (a re-ship would be a no-op);
    /// * `dst` dirty (its `IN` was reset) — frontier `EMPTY`, and if the
    ///   clean `src` exposes a value it is marked dirty and enqueued so
    ///   the full value ships again (propagation is push-based: a clean
    ///   source would otherwise never re-offer it);
    /// * `src` dirty — frontier `EMPTY`; the node re-runs from scratch
    ///   and ships whatever it recomputes.
    ///
    /// Clean nodes with a *direct* edge into a dirty node also re-run:
    /// call and exit transfers publish argument/return bindings through
    /// `TopLevel`, and a dirty callee entry (or return site) needs those
    /// pushed again. Their object state is final, so the re-run is a
    /// no-op beyond the pushes.
    fn apply_seed(&mut self, seed: SfsSeed) {
        let SfsSeed { store, pt, ins, outs, activations, clean } = seed;
        self.top.seed_state(store, &pt, &activations);
        for (n, entries) in ins {
            let m = &mut self.ins[n];
            for (o, id) in entries {
                m.insert(o, id);
            }
        }
        for (n, entries) in outs {
            let m = &mut self.outs[n];
            for (o, id) in entries {
                m.insert(o, id);
            }
        }
        for n in self.svfg.node_ids() {
            if !clean[n] {
                continue;
            }
            let pairs: Vec<(SvfgNodeId, ObjId)> = self.svfg.indirect_succs_expanded(n).collect();
            for (k, (succ, o)) in pairs.into_iter().enumerate() {
                let val = self.out_val(n, o);
                if clean[succ] {
                    self.edge_frontier[n][k] = val.unwrap_or(EMPTY);
                } else if val.is_some_and(|v| v != EMPTY) {
                    self.dirty[n].insert(o);
                    self.worklist.push(n);
                }
            }
        }
        // Re-wire the dynamic edges of retained activations (indirect
        // calls only; direct-call edges are static), same frontier rule.
        for &(call, callee) in &activations {
            let Some(binding) = self.svfg.call_binding(call, callee) else { continue };
            let binding = binding.clone();
            let call_node = self.svfg.inst_node(call);
            let ret_node = self.svfg.callret_node(call);
            let f = &self.prog.functions[callee];
            let entry_node = self.svfg.inst_node(f.entry_inst);
            let exit_node = self.svfg.inst_node(f.exit_inst);
            let pairs = [(call_node, entry_node, binding.ins), (exit_node, ret_node, binding.outs)];
            for (src, dst, objs) in pairs {
                for o in objs {
                    self.dyn_succs[src].push((dst, o));
                    let val = if clean[src] { self.out_val(src, o) } else { None };
                    let frontier =
                        if clean[src] && clean[dst] { val.unwrap_or(EMPTY) } else { EMPTY };
                    self.dyn_frontier[src].push(frontier);
                    if frontier == EMPTY && val.is_some_and(|v| v != EMPTY) {
                        self.dirty[src].insert(o);
                        self.worklist.push(src);
                    }
                }
            }
        }
        for n in self.svfg.node_ids() {
            if !clean[n] || self.svfg.direct_succs(n).iter().any(|&s| !clean[s]) {
                self.worklist.push(n);
            }
        }
    }

    /// Extracts the converged `IN`/`OUT` tables in object-sorted order.
    fn harvest(&self) -> SfsHarvest {
        let collect = |maps: &IndexVec<SvfgNodeId, ObjMap>| {
            maps.iter()
                .map(|m| {
                    let mut v: Vec<(ObjId, PtsId)> = m.iter().map(|(&o, &id)| (o, id)).collect();
                    v.sort_unstable_by_key(|e| e.0);
                    v
                })
                .collect()
        };
        SfsHarvest { ins: collect(&self.ins), outs: collect(&self.outs) }
    }

    /// The fixpoint loop, with one cooperative governor checkpoint per
    /// (sequential) worklist pop; ungoverned it is the plain fixpoint.
    fn solve_governed(&mut self, governor: Option<&Governor>) -> Completion {
        while let Some(node) = self.worklist.pop() {
            if let Some(g) = governor {
                if let Err(reason) = g.check(1) {
                    return Completion::Degraded(reason);
                }
            }
            self.stats.node_pops += 1;
            self.process(node);
        }
        Completion::Complete
    }

    fn process(&mut self, node: SvfgNodeId) {
        match self.svfg.kind(node) {
            SvfgNodeKind::Inst(inst) => self.process_inst(node, inst),
            SvfgNodeKind::CallRet(_) | SvfgNodeKind::MemPhi(_) => {
                // Pure relays: propagate dirty IN entries onward.
                self.propagate_dirty(node);
            }
        }
    }

    fn process_inst(&mut self, node: SvfgNodeId, inst: InstId) {
        let mut newly_activated = Vec::new();
        self.top.transfer(inst, &mut self.worklist, &mut newly_activated);
        for (call, callee) in newly_activated {
            self.activate_binding(call, callee);
        }
        match &self.prog.insts[inst].kind {
            InstKind::Load { dst, addr } => {
                // [LOAD]: pt(dst) ⊇ IN[node][o] for each o ∈ pt(addr).
                let objs: Vec<ObjId> = self.top.value_pt_iter(*addr).collect();
                for o in objs {
                    if let Some(&s) = self.ins[node].get(&o) {
                        self.top.union_pt(*dst, s, &mut self.worklist);
                    }
                }
                self.propagate_dirty(node); // loads relay their IN onward
            }
            InstKind::Store { addr, val } => {
                // [STORE] + [SU/WU]: recompute OUT for the chi objects.
                // The strong/weak decision is static (see
                // `TopLevel::is_strong_update`), keeping the transfer
                // monotone.
                let gen = self.top.pt[*val];
                let targets = self.top.pt[*addr];
                let addr = *addr;
                for chi in self.mssa.chis(inst) {
                    let o = chi.obj;
                    let mut out = EMPTY;
                    if self.top.is_strong_update(addr, o) {
                        self.stats.strong_updates += 1;
                        out = gen; // kill: IN not propagated
                    } else {
                        if let Some(&input) = self.ins[node].get(&o) {
                            out = input;
                        }
                        if self.top.store.contains(targets, o) {
                            out = self.top.store.union(out, gen);
                        }
                    }
                    self.stats.object_propagations += 1;
                    let cur = *self.outs[node].entry(o).or_insert(EMPTY);
                    let new = self.top.store.union(cur, out);
                    if new != cur {
                        self.outs[node].insert(o, new);
                        self.dirty[node].insert(o);
                    }
                }
                self.propagate_dirty(node);
            }
            _ => {
                self.propagate_dirty(node);
            }
        }
    }

    /// The set id a node exposes to its successors for object `o`.
    fn out_val(&self, node: SvfgNodeId, o: ObjId) -> Option<PtsId> {
        let is_store = matches!(
            self.svfg.kind(node),
            SvfgNodeKind::Inst(i) if self.prog.insts[i].kind.is_store()
        );
        if is_store {
            self.outs[node].get(&o).copied()
        } else {
            self.ins[node].get(&o).copied()
        }
    }

    /// Pushes the dirty objects of `node` along its (static + activated)
    /// indirect out-edges, then clears the dirty set.
    ///
    /// Propagation is *differential*: each edge remembers the set id it
    /// last shipped, and only `diff(value, last)` crosses again. This is
    /// exact, not approximate — edge values grow monotonically, so the
    /// target already holds everything shipped before, and
    /// `target ∪ (value \ last) = target ∪ value`.
    fn propagate_dirty(&mut self, node: SvfgNodeId) {
        if self.dirty[node].is_empty() {
            return;
        }
        let dirty = std::mem::take(&mut self.dirty[node]);
        let mut k = 0;
        for gi in 0..self.svfg.indirect_succs(node).len() {
            let (succ, s) = self.svfg.indirect_succs(node)[gi];
            let set_len = self.svfg.obj_set(s).len();
            for oi in 0..set_len {
                let o = self.svfg.obj_set(s)[oi];
                if !dirty.contains(o) {
                    k += 1;
                    continue;
                }
                let last = self.edge_frontier[node][k];
                let shipped = self.ship_delta(node, succ, o, last);
                self.edge_frontier[node][k] = shipped;
                k += 1;
            }
        }
        for i in 0..self.dyn_succs[node].len() {
            let (succ, o) = self.dyn_succs[node][i];
            if !dirty.contains(o) {
                continue;
            }
            let last = self.dyn_frontier[node][i];
            let shipped = self.ship_delta(node, succ, o, last);
            self.dyn_frontier[node][i] = shipped;
        }
    }

    /// Ships what `node` exposes for `o` beyond the edge's `last`
    /// frontier into `IN[succ][o]`; returns the new frontier (the full
    /// value now covered by the target).
    fn ship_delta(&mut self, node: SvfgNodeId, succ: SvfgNodeId, o: ObjId, last: PtsId) -> PtsId {
        self.stats.object_propagations += 1;
        let Some(val) = self.out_val(node, o) else { return last };
        if val == last {
            // Frontier already current: nothing new can flow.
            self.stats.unions_avoided += 1;
            return last;
        }
        self.stats.full_bytes += self.top.store.flat_bytes(val);
        let delta = self.top.store.diff(val, last);
        self.stats.delta_bytes += self.top.store.flat_bytes(delta);
        let cur = self.ins[succ].get(&o).copied().unwrap_or(EMPTY);
        // Memoized no-growth fast path: repeated (cur, delta) pairs are
        // answered from the store's union memo without allocating.
        if delta == EMPTY || !self.top.store.union_would_change(cur, delta) {
            self.stats.unions_avoided += 1;
            return val;
        }
        let new = self.top.store.union(cur, delta);
        self.ins[succ].insert(o, new);
        self.dirty[succ].insert(o);
        self.worklist.push(succ);
        val
    }

    /// Wires up the deferred indirect-call object flow for a newly
    /// activated `(call, callee)` pair.
    fn activate_binding(&mut self, call: InstId, callee: FuncId) {
        self.stats.calls_activated += 1;
        let Some(binding) = self.svfg.call_binding(call, callee) else {
            return; // direct call: edges already in the static SVFG
        };
        let binding = binding.clone();
        let call_node = self.svfg.inst_node(call);
        let ret_node = self.svfg.callret_node(call);
        let entry_node = self.svfg.inst_node(self.prog.functions[callee].entry_inst);
        let exit_node = self.svfg.inst_node(self.prog.functions[callee].exit_inst);
        for o in binding.ins {
            self.dyn_succs[call_node].push((entry_node, o));
            self.dyn_frontier[call_node].push(EMPTY);
            // Anything already known at the call must flow now.
            if self.ins[call_node].contains_key(&o) {
                self.dirty[call_node].insert(o);
            }
        }
        for o in binding.outs {
            self.dyn_succs[exit_node].push((ret_node, o));
            self.dyn_frontier[exit_node].push(EMPTY);
            if self.ins[exit_node].contains_key(&o) {
                self.dirty[exit_node].insert(o);
            }
        }
        // No worklist pushes here: activation only happens while the call
        // node itself is being processed (its own `propagate_dirty` runs
        // right after), and `TopLevel::activate` already queued the
        // callee's entry and exit nodes.
    }

    /// `(set count, total elements, approximate heap bytes)` across all
    /// IN/OUT entries — the storage the paper's Table III memory column
    /// tracks.
    fn storage_stats(&self) -> (usize, usize, usize) {
        let mut sets = 0;
        let mut elems = 0;
        let mut bytes = 0;
        for m in self.ins.iter().chain(self.outs.iter()) {
            sets += m.len();
            for &id in m.values() {
                elems += self.top.store.set_len(id);
                bytes += self.top.store.flat_bytes(id);
            }
        }
        (sets, elems, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsfs_ir::parse_program;

    fn solve(src: &str) -> (Program, FlowSensitiveResult) {
        let prog = parse_program(src).unwrap();
        vsfs_ir::verify::verify(&prog).unwrap();
        let aux = vsfs_andersen::analyze(&prog);
        let mssa = MemorySsa::build(&prog, &aux);
        let svfg = Svfg::build(&prog, &aux, &mssa);
        let r = run_sfs(&prog, &aux, &mssa, &svfg);
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
    fn flow_sensitive_callgraph_beats_andersen() {
        // Flow-sensitively, only @first is in the table when the icall
        // runs; Andersen conflates both stores.
        let src = r#"
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
            "#;
        let (prog, r) = solve(src);
        let aux = vsfs_andersen::analyze(&prog);
        let icall = prog
            .insts
            .iter_enumerated()
            .find(|(_, i)| matches!(i.kind, InstKind::Call { .. }))
            .map(|(id, _)| id)
            .unwrap();
        assert_eq!(aux.callgraph.callees(icall).len(), 2, "Andersen sees both");
        let fs_callees: Vec<FuncId> =
            r.callgraph_edges.iter().filter(|(c, _)| *c == icall).map(|&(_, f)| f).collect();
        assert_eq!(fs_callees.len(), 1, "flow-sensitively only @first");
        assert_eq!(prog.functions[fs_callees[0]].name, "first");
        // And the result only flows from @first: r = Arg, not FromSecond.
        assert_eq!(pts(&prog, &r, "r"), vec!["Arg"]);
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
        assert!(r.stats.strong_updates == 0);
    }
}
