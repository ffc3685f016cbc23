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
/// cooperative checkpoint per worklist pop when governed. With
/// `want_harvest` a completed run also returns its `IN`/`OUT` tables,
/// which only the incremental engine asks for.
pub(crate) fn solve(
    prog: &Program,
    aux: &AndersenResult,
    mssa: &MemorySsa,
    svfg: &Svfg,
    governor: Option<&Governor>,
    want_harvest: bool,
) -> (FlowSensitiveResult, Completion, Option<SfsHarvest>) {
    let (result, completion, harvest, _) =
        solve_impl(prog, aux, mssa, svfg, governor, None, want_harvest);
    (result, completion, harvest)
}

/// Per-node `(object, set)` rows stored flat: row `n` is the span
/// `spans[n]` of one of two shared buffers, sorted by object. Warm
/// tables, seeds and harvests all take this shape, so building, moving
/// and dropping a whole table costs a few buffers rather than one `Vec`
/// per node. Rows pushed in node order fill `entries`; a row replaced
/// by [`Rows::set_row`] goes to `patched` (the old span's entries stay
/// behind, unreferenced, until the table is dropped), so replacing a few
/// rows never regrows the large buffer. Past the last row every row
/// reads empty, which makes `Rows::default()` the empty table of any
/// graph.
#[derive(Debug, Clone, Default)]
pub(crate) struct Rows {
    /// `(start, len)` per node; `start` has [`Rows::PATCHED`] set for a
    /// span of `patched`.
    spans: Vec<(u32, u32)>,
    entries: Vec<(ObjId, PtsId)>,
    patched: Vec<(ObjId, PtsId)>,
}

impl Rows {
    const PATCHED: u32 = 1 << 31;

    /// An empty table with room for `rows` rows of `entries` entries in
    /// all.
    pub(crate) fn with_capacity(rows: usize, entries: usize) -> Rows {
        Rows {
            spans: Vec::with_capacity(rows),
            entries: Vec::with_capacity(entries),
            patched: Vec::new(),
        }
    }

    /// Appends the next node's row; `row` must be sorted by object.
    pub(crate) fn push_row(&mut self, row: impl IntoIterator<Item = (ObjId, PtsId)>) {
        let start = self.entries.len();
        self.entries.extend(row);
        debug_assert!(self.entries[start..].is_sorted_by_key(|e| e.0));
        self.spans.push((start as u32, (self.entries.len() - start) as u32));
    }

    /// Reserves room for `entries` more entries in replaced rows.
    pub(crate) fn reserve_patched(&mut self, entries: usize) {
        self.patched.reserve_exact(entries);
    }

    /// Replaces the row of `node`, growing the table to reach it; `row`
    /// must be sorted by object.
    pub(crate) fn set_row(
        &mut self,
        node: SvfgNodeId,
        row: impl IntoIterator<Item = (ObjId, PtsId)>,
    ) {
        if self.spans.len() <= node.index() {
            self.spans.resize(node.index() + 1, (0, 0));
        }
        let start = self.patched.len();
        self.patched.extend(row);
        debug_assert!(self.patched[start..].is_sorted_by_key(|e| e.0));
        let len = (self.patched.len() - start) as u32;
        self.spans[node.index()] = (start as u32 | Self::PATCHED, len);
    }

    /// The row of `node`.
    pub(crate) fn row(&self, node: SvfgNodeId) -> &[(ObjId, PtsId)] {
        let Some(&(start, len)) = self.spans.get(node.index()) else { return &[] };
        let buffer = if start & Self::PATCHED != 0 { &self.patched } else { &self.entries };
        let start = (start & !Self::PATCHED) as usize;
        &buffer[start..start + len as usize]
    }

    /// The set of `o` in the row of `node`, if the row holds `o`.
    pub(crate) fn get(&self, node: SvfgNodeId, o: ObjId) -> Option<PtsId> {
        let row = self.row(node);
        row.binary_search_by_key(&o, |e| e.0).ok().map(|i| row[i].1)
    }

    /// Entries held, including those of replaced rows.
    pub(crate) fn entry_count(&self) -> usize {
        self.entries.len() + self.patched.len()
    }

    /// Every row with its node, in node order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (SvfgNodeId, &[(ObjId, PtsId)])> + '_ {
        (0..self.spans.len()).map(|i| {
            let node = SvfgNodeId::new(i as u32);
            (node, self.row(node))
        })
    }
}

/// Warm state to resume from: the surviving portion of a previous run's
/// fixpoint, already remapped into the *current* parse's id spaces (see
/// `crate::incremental`). Every `PtsId` refers to `store`.
pub(crate) struct SfsSeed {
    /// The successor-epoch store holding all carried sets.
    pub store: PtsStore<ObjId>,
    /// Final top-level sets for values whose defining node is clean.
    pub pt: Vec<(ValueId, PtsId)>,
    /// Final `IN` rows of clean nodes (dirty nodes' rows are empty).
    pub ins: Rows,
    /// Final `OUT` rows of clean STORE nodes.
    pub outs: Rows,
    /// Call-graph activations whose call node is clean.
    pub activations: Vec<(InstId, FuncId)>,
    /// Nodes whose previous fixpoint state survives the edit.
    pub clean: IndexVec<SvfgNodeId, bool>,
    /// Clean nodes with a direct edge into a dirty node.
    pub direct_preds: Vec<SvfgNodeId>,
    /// Worklist rank of every node: topological over a graph holding
    /// every edge the solve can use, so that producers settle first.
    pub ranks: Vec<u32>,
}

/// The per-node `IN`/`OUT` tables of a completed run, extracted in
/// deterministic (object-sorted) order so the next edit can seed from
/// them. `IN` rows hold only non-empty sets; a STORE's `OUT` row holds
/// every χ object, empty sets included. A VSFS solve fills the same
/// tables from its version slots (`crate::vsfs`).
pub(crate) struct SfsHarvest {
    pub ins: Rows,
    pub outs: Rows,
}

/// Runs SFS from `seed`, returning the per-node state tables alongside
/// the result so the caller can stay resident, and the seconds the
/// harvest took. The fixpoint is identical to a cold solve — seeding
/// only skips work that would reconverge to the carried values.
pub(crate) fn run_sfs_seeded(
    prog: &Program,
    aux: &AndersenResult,
    mssa: &MemorySsa,
    svfg: &Svfg,
    governor: Option<&Governor>,
    seed: SfsSeed,
) -> (FlowSensitiveResult, Completion, Option<SfsHarvest>, f64) {
    solve_impl(prog, aux, mssa, svfg, governor, Some(seed), true)
}

fn solve_impl(
    prog: &Program,
    aux: &AndersenResult,
    mssa: &MemorySsa,
    svfg: &Svfg,
    governor: Option<&Governor>,
    mut seed: Option<SfsSeed>,
    want_harvest: bool,
) -> (FlowSensitiveResult, Completion, Option<SfsHarvest>, f64) {
    let start = Instant::now();
    // A seeded wave ranks by the graph its invalidation already built;
    // a cold solve builds its own.
    let worklist = match seed.as_mut() {
        Some(seed) => Worklist::new(std::mem::take(&mut seed.ranks)),
        None => node_worklist(prog, svfg),
    };
    let mut solver = SfsSolver::new(prog, aux, mssa, svfg, worklist);
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
    let t = Instant::now();
    let harvest = (want_harvest && completion == Completion::Complete).then(|| solver.harvest());
    let harvest_seconds = t.elapsed().as_secs_f64();
    let callgraph_edges = solver.top.callgraph_edges();
    (
        FlowSensitiveResult::new(solver.top.store, solver.top.pt, callgraph_edges, stats),
        completion,
        harvest,
        harvest_seconds,
    )
}

/// `IN`/`OUT` entries hold ids into the run's shared
/// [`vsfs_adt::PtsStore`] (`TopLevel::store`); identical sets across
/// nodes are stored once.
type ObjMap = FxHashMap<ObjId, PtsId>;

/// The slot of a node the solve has not touched yet.
const UNTOUCHED: u32 = u32::MAX;

/// One node's solver state, created when the solve first touches the
/// node ([`SfsSolver::touch`]).
#[derive(Default)]
struct NodeState {
    /// `IN` map.
    ins: ObjMap,
    /// `OUT` map (STORE nodes only).
    outs: ObjMap,
    /// Difference-propagation frontier per static labelled indirect
    /// edge: the set id last shipped along the `k`-th `(succ, obj)` pair
    /// of `svfg.indirect_succs_expanded(n)`. Only the
    /// `diff(current, frontier)` part of a value crosses an edge again.
    edge_frontier: Vec<PtsId>,
    /// Indirect edges activated by on-the-fly call-graph resolution, as
    /// `(succ, obj, frontier)`.
    dyn_edges: Vec<(SvfgNodeId, ObjId, PtsId)>,
    /// Objects whose outgoing value changed since the node last ran.
    dirty: PointsToSet<ObjId>,
}

/// The previous fixpoint a seeded solve resumes from. Empty on a cold
/// solve, where every node is dirty.
#[derive(Default)]
struct Carried {
    ins: Rows,
    outs: Rows,
    clean: IndexVec<SvfgNodeId, bool>,
}

impl Carried {
    fn is_clean(&self, node: SvfgNodeId) -> bool {
        self.clean.get(node).copied().unwrap_or(false)
    }
}

struct SfsSolver<'a> {
    prog: &'a Program,
    mssa: &'a MemorySsa,
    svfg: &'a Svfg,
    top: TopLevel<'a>,
    /// Index into `states` per node, [`UNTOUCHED`] until first touch.
    slot: IndexVec<SvfgNodeId, u32>,
    /// The touched nodes' states, in touch order.
    states: Vec<NodeState>,
    carried: Carried,
    worklist: Worklist<SvfgNodeId>,
    stats: SolveStats,
}

impl<'a> SfsSolver<'a> {
    fn new(
        prog: &'a Program,
        aux: &'a AndersenResult,
        mssa: &'a MemorySsa,
        svfg: &'a Svfg,
        worklist: Worklist<SvfgNodeId>,
    ) -> Self {
        SfsSolver {
            prog,
            mssa,
            svfg,
            top: TopLevel::new(prog, aux, svfg),
            slot: IndexVec::from_elem_n(UNTOUCHED, svfg.node_count()),
            states: Vec::new(),
            carried: Carried::default(),
            worklist,
            stats: SolveStats::default(),
        }
    }

    /// Cold start: every node visits at least once, so every node's
    /// state is created up front, in node order.
    fn init_cold(&mut self) {
        self.states.reserve_exact(self.svfg.node_count());
        for id in self.svfg.node_ids() {
            self.touch(id);
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
    /// A node's frontiers are recorded when the wave first touches it
    /// ([`SfsSolver::first_touch`]), so only the dirty region and the
    /// nodes the wave reaches ever get solver state. The first clause
    /// holds at any first touch: a clean node's exposed value can only
    /// change through a write to its own state, and that write is what
    /// touches it. The second clause's marking is done here, walking
    /// back from the dirty nodes over their indirect predecessors.
    ///
    /// Clean nodes with a *direct* edge into a dirty node also re-run:
    /// call and exit transfers publish argument/return bindings through
    /// `TopLevel`, and a dirty callee entry (or return site) needs those
    /// pushed again. Their object state is final, so the re-run is a
    /// no-op beyond the pushes.
    fn apply_seed(&mut self, seed: SfsSeed) {
        let SfsSeed { store, pt, ins, outs, activations, clean, direct_preds, ranks: _ } = seed;
        self.top.seed_state(store, &pt, &activations);
        self.carried = Carried { ins, outs, clean };
        let svfg = self.svfg;
        // Re-wire the dynamic edges of retained activations (indirect
        // calls only; direct-call edges are static), same frontier rule.
        for &(call, callee) in &activations {
            let Some(binding) = svfg.call_binding(call, callee) else { continue };
            let f = &self.prog.functions[callee];
            let pairs = [
                (svfg.inst_node(call), svfg.inst_node(f.entry_inst), &binding.ins),
                (svfg.inst_node(f.exit_inst), svfg.callret_node(call), &binding.outs),
            ];
            for (src, dst, objs) in pairs {
                let s = self.touch(src);
                for &o in objs {
                    let src_clean = self.carried.is_clean(src);
                    let val = if src_clean { self.out_val(src, o) } else { None };
                    let frontier = if src_clean && self.carried.is_clean(dst) {
                        val.unwrap_or(EMPTY)
                    } else {
                        EMPTY
                    };
                    let state = &mut self.states[s];
                    state.dyn_edges.push((dst, o, frontier));
                    if frontier == EMPTY && val.is_some_and(|v| v != EMPTY) {
                        state.dirty.insert(o);
                        self.worklist.push(src);
                    }
                }
            }
        }
        for n in svfg.node_ids() {
            if self.carried.clean[n] {
                continue;
            }
            self.worklist.push(n);
            for &(p, set) in svfg.indirect_preds(n) {
                if !self.carried.is_clean(p) {
                    continue;
                }
                for &o in svfg.obj_set(set) {
                    if self.out_val(p, o).is_some_and(|v| v != EMPTY) {
                        let s = self.touch(p);
                        self.states[s].dirty.insert(o);
                        self.worklist.push(p);
                    }
                }
            }
        }
        for p in direct_preds {
            self.worklist.push(p);
        }
    }

    /// The state of `node`, created on first touch.
    fn touch(&mut self, node: SvfgNodeId) -> usize {
        let slot = self.slot[node];
        if slot != UNTOUCHED {
            return slot as usize;
        }
        let state = self.first_touch(node);
        self.slot[node] = self.states.len() as u32;
        self.states.push(state);
        self.states.len() - 1
    }

    /// The state a node starts from when the solve first touches it: its
    /// carried rows, and per static indirect edge the frontier rule of
    /// [`SfsSolver::apply_seed`] — the carried value the edge exposes
    /// when both endpoints are clean, `EMPTY` otherwise. On a cold solve
    /// nothing is carried and every frontier is `EMPTY`.
    fn first_touch(&self, node: SvfgNodeId) -> NodeState {
        let carried = &self.carried;
        let clean = carried.is_clean(node);
        let exposed = if self.is_store(node) { &carried.outs } else { &carried.ins };
        let edges = self.svfg.indirect_succs(node).iter().map(|&(_, s)| self.svfg.obj_set(s).len());
        let mut edge_frontier = Vec::with_capacity(edges.sum());
        edge_frontier.extend(self.svfg.indirect_succs_expanded(node).map(|(succ, o)| {
            let frontier = (clean && carried.is_clean(succ)).then(|| exposed.get(node, o));
            frontier.flatten().unwrap_or(EMPTY)
        }));
        NodeState {
            ins: carried.ins.row(node).iter().copied().collect(),
            outs: carried.outs.row(node).iter().copied().collect(),
            edge_frontier,
            ..NodeState::default()
        }
    }

    /// The state of `node` if the solve has touched it.
    fn state(&self, node: SvfgNodeId) -> Option<&NodeState> {
        let slot = self.slot[node];
        (slot != UNTOUCHED).then(|| &self.states[slot as usize])
    }

    /// Extracts the converged `IN`/`OUT` tables in object-sorted order:
    /// the carried tables move across whole, and each touched node's row
    /// is replaced by its map's entries — so a seeded wave pays only for
    /// what it touched. On a cold solve every node is touched, in node
    /// order.
    fn harvest(&mut self) -> SfsHarvest {
        let Carried { mut ins, mut outs, .. } = std::mem::take(&mut self.carried);
        ins.reserve_patched(self.states.iter().map(|s| s.ins.len()).sum());
        outs.reserve_patched(self.states.iter().map(|s| s.outs.len()).sum());
        let mut row: Vec<(ObjId, PtsId)> = Vec::new();
        for (node, &slot) in self.slot.iter_enumerated() {
            let Some(state) = self.states.get(slot as usize) else { continue };
            for (table, map) in [(&mut ins, &state.ins), (&mut outs, &state.outs)] {
                row.extend(map.iter().map(|(&o, &id)| (o, id)));
                row.sort_unstable_by_key(|e| e.0);
                table.set_row(node, row.drain(..));
            }
        }
        SfsHarvest { ins, outs }
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
        let s = self.touch(node);
        match self.svfg.kind(node) {
            SvfgNodeKind::Inst(inst) => self.process_inst(node, s, inst),
            SvfgNodeKind::CallRet(_) | SvfgNodeKind::MemPhi(_) => {
                // Pure relays: propagate dirty IN entries onward.
                self.propagate_dirty(node, s);
            }
        }
    }

    fn process_inst(&mut self, node: SvfgNodeId, s: usize, inst: InstId) {
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
                    if let Some(&set) = self.states[s].ins.get(&o) {
                        self.top.union_pt(*dst, set, &mut self.worklist);
                    }
                }
                self.propagate_dirty(node, s); // loads relay their IN onward
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
                        if let Some(&input) = self.states[s].ins.get(&o) {
                            out = input;
                        }
                        if self.top.store.contains(targets, o) {
                            out = self.top.store.union(out, gen);
                        }
                    }
                    self.stats.object_propagations += 1;
                    let state = &mut self.states[s];
                    let cur = *state.outs.entry(o).or_insert(EMPTY);
                    let new = self.top.store.union(cur, out);
                    if new != cur {
                        state.outs.insert(o, new);
                        state.dirty.insert(o);
                    }
                }
                self.propagate_dirty(node, s);
            }
            _ => {
                self.propagate_dirty(node, s);
            }
        }
    }

    fn is_store(&self, node: SvfgNodeId) -> bool {
        matches!(self.svfg.kind(node), SvfgNodeKind::Inst(i) if self.prog.insts[i].kind.is_store())
    }

    /// The set id a node exposes to its successors for object `o`: its
    /// `OUT` entry for a STORE, its `IN` entry otherwise — read from the
    /// carried rows while the node is untouched.
    fn out_val(&self, node: SvfgNodeId, o: ObjId) -> Option<PtsId> {
        let is_store = self.is_store(node);
        match self.state(node) {
            Some(state) => if is_store { &state.outs } else { &state.ins }.get(&o).copied(),
            None => if is_store { &self.carried.outs } else { &self.carried.ins }.get(node, o),
        }
    }

    /// `IN[node][o]`, read from the carried rows while `node` is
    /// untouched.
    fn in_val(&self, node: SvfgNodeId, o: ObjId) -> Option<PtsId> {
        match self.state(node) {
            Some(state) => state.ins.get(&o).copied(),
            None => self.carried.ins.get(node, o),
        }
    }

    /// Pushes the dirty objects of `node` (at state index `s`) along its
    /// (static + activated) indirect out-edges, then clears the dirty
    /// set.
    ///
    /// Propagation is *differential*: each edge remembers the set id it
    /// last shipped, and only `diff(value, last)` crosses again. This is
    /// exact, not approximate — edge values grow monotonically, so the
    /// target already holds everything shipped before, and
    /// `target ∪ (value \ last) = target ∪ value`.
    fn propagate_dirty(&mut self, node: SvfgNodeId, s: usize) {
        if self.states[s].dirty.is_empty() {
            return;
        }
        let dirty = std::mem::take(&mut self.states[s].dirty);
        let svfg = self.svfg;
        let mut k = 0;
        for &(succ, set) in svfg.indirect_succs(node) {
            for &o in svfg.obj_set(set) {
                if dirty.contains(o) {
                    let last = self.states[s].edge_frontier[k];
                    let shipped = self.ship_delta(node, succ, o, last);
                    self.states[s].edge_frontier[k] = shipped;
                }
                k += 1;
            }
        }
        for i in 0..self.states[s].dyn_edges.len() {
            let (succ, o, last) = self.states[s].dyn_edges[i];
            if dirty.contains(o) {
                self.states[s].dyn_edges[i].2 = self.ship_delta(node, succ, o, last);
            }
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
        let cur = self.in_val(succ, o).unwrap_or(EMPTY);
        // Memoized no-growth fast path: repeated (cur, delta) pairs are
        // answered from the store's union memo without allocating.
        if delta == EMPTY || !self.top.store.union_would_change(cur, delta) {
            self.stats.unions_avoided += 1;
            return val;
        }
        let new = self.top.store.union(cur, delta);
        let t = self.touch(succ);
        self.states[t].ins.insert(o, new);
        self.states[t].dirty.insert(o);
        self.worklist.push(succ);
        val
    }

    /// Wires up the deferred indirect-call object flow for a newly
    /// activated `(call, callee)` pair.
    fn activate_binding(&mut self, call: InstId, callee: FuncId) {
        self.stats.calls_activated += 1;
        let svfg = self.svfg;
        let Some(binding) = svfg.call_binding(call, callee) else {
            return; // direct call: edges already in the static SVFG
        };
        let f = &self.prog.functions[callee];
        let pairs = [
            (svfg.inst_node(call), svfg.inst_node(f.entry_inst), &binding.ins),
            (svfg.inst_node(f.exit_inst), svfg.callret_node(call), &binding.outs),
        ];
        for (src, dst, objs) in pairs {
            let s = self.touch(src);
            let state = &mut self.states[s];
            for &o in objs {
                state.dyn_edges.push((dst, o, EMPTY));
                // Anything already known at the source must flow now.
                if state.ins.contains_key(&o) {
                    state.dirty.insert(o);
                }
            }
        }
        // No worklist pushes here: activation only happens while the call
        // node itself is being processed (its own `propagate_dirty` runs
        // right after), and `TopLevel::activate` already queued the
        // callee's entry and exit nodes.
    }

    /// `(set count, total elements, approximate heap bytes)` across the
    /// IN/OUT entries of every node the run touched (every node on a cold
    /// solve) — the storage the paper's Table III memory column tracks.
    fn storage_stats(&self) -> (usize, usize, usize) {
        let mut sets = 0;
        let mut elems = 0;
        let mut bytes = 0;
        for m in self.states.iter().flat_map(|s| [&s.ins, &s.outs]) {
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
