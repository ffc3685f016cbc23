//! The versioned staged flow-sensitive solver (VSFS, Section IV-D).
//!
//! Points-to sets of address-taken objects live in a single global table
//! indexed by `(object, version)` slots. The solver interleaves two
//! worklists:
//!
//! * a **version worklist** implementing `[A-PROP]^F`: when a slot's set
//!   grows, it is pushed along the (deduplicated) version reliance edges,
//!   and the instruction nodes consuming the grown slots are re-enqueued;
//! * a **node worklist** implementing the remaining rules: top-level
//!   transfers, `[LOAD]^F` (read the consumed slot), `[STORE]^F` +
//!   `[SU/WU]^F` (write the yielded slot, killing the consumed one on a
//!   strong update), and `[CALL]^F`/`[RET]^F` with on-the-fly call-graph
//!   activation, which adds new reliance edges for δ nodes.
//!
//! Because most SVFG nodes share versions with their neighbours, the
//! version worklist touches far fewer sets than SFS's per-node `IN`/`OUT`
//! propagation — the paper's single-object sparsity.

use crate::result::{FlowSensitiveResult, SolveStats};
use crate::schedule::{node_worklist, slot_worklist};
use crate::sfs::{Rows, SfsHarvest};
use crate::solver::{SolveRequest, SolverKind};
use crate::toplevel::{TopLevel, EMPTY};
use crate::versioning::{VersionSlot, VersionTables};
use std::time::Instant;
use vsfs_adt::govern::{Completion, Governor};
use vsfs_adt::{PtsId, Worklist};
use vsfs_andersen::AndersenResult;
use vsfs_ir::{FuncId, InstId, InstKind, ObjId, Program};
use vsfs_mssa::MemorySsa;
use vsfs_svfg::{Svfg, SvfgNodeId, SvfgNodeKind};

/// Runs versioning and the VSFS solver under the default configuration
/// (see [`crate::solve`] for every other setting).
pub fn run_vsfs(
    prog: &Program,
    aux: &AndersenResult,
    mssa: &MemorySsa,
    svfg: &Svfg,
) -> FlowSensitiveResult {
    crate::solve(prog, aux, Some((mssa, svfg)), SolveRequest::new(SolverKind::Vsfs)).result
}

/// Runs the VSFS solver with pre-built version tables (lets benchmarks
/// time the versioning and main phases separately).
pub fn run_vsfs_with_tables(
    prog: &Program,
    aux: &AndersenResult,
    mssa: &MemorySsa,
    svfg: &Svfg,
    tables: VersionTables,
) -> FlowSensitiveResult {
    let req = SolveRequest { tables: Some(tables), ..SolveRequest::new(SolverKind::Vsfs) };
    crate::solve(prog, aux, Some((mssa, svfg)), req).result
}

/// The VSFS engine behind [`crate::solve`]: the fixpoint over pre-built
/// version tables, with one cooperative checkpoint per worklist pop when
/// governed. With `want_harvest` a completed run also returns SFS's
/// `IN`/`OUT` tables read off its version slots
/// ([`VsfsSolver::harvest`]), which only the incremental engine asks
/// for.
pub(crate) fn solve(
    prog: &Program,
    aux: &AndersenResult,
    mssa: &MemorySsa,
    svfg: &Svfg,
    tables: VersionTables,
    governor: Option<&Governor>,
    want_harvest: bool,
) -> (FlowSensitiveResult, Completion, Option<SfsHarvest>) {
    let versioning = tables.stats;
    let start = Instant::now();
    let mut solver = VsfsSolver::new(prog, aux, mssa, svfg, tables);
    let completion = solver.solve_governed(governor);
    let mut stats = solver.stats;
    stats.solve_seconds = start.elapsed().as_secs_f64();
    stats.pushes_suppressed = solver.nodes.stats().suppressed + solver.slots.stats().suppressed;
    stats.record_versioning(&versioning);
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

struct VsfsSolver<'a> {
    prog: &'a Program,
    mssa: &'a MemorySsa,
    svfg: &'a Svfg,
    top: TopLevel<'a>,
    tables: VersionTables,
    /// Global points-to table: one hash-consed set id per
    /// `(object, version)` slot, resolved through `top.store`. Slots
    /// holding equal sets share one canonical copy.
    vpts: Vec<PtsId>,
    /// Nodes to re-run when a slot's set grows (loads and stores that
    /// consume it), indexed by slot.
    consumers: Vec<Vec<SvfgNodeId>>,
    /// Difference-propagation frontier per reliance edge: the set id last
    /// shipped along `tables.reliance(s)[i]`. Only `diff(value, last)`
    /// crosses an edge again.
    rel_frontier: Vec<Vec<PtsId>>,
    nodes: Worklist<SvfgNodeId>,
    slots: Worklist<usize>,
    stats: SolveStats,
}

impl<'a> VsfsSolver<'a> {
    fn new(
        prog: &'a Program,
        aux: &'a AndersenResult,
        mssa: &'a MemorySsa,
        svfg: &'a Svfg,
        tables: VersionTables,
    ) -> Self {
        let top = TopLevel::new(prog, aux, svfg);
        let mut nodes = node_worklist(prog, svfg);
        for id in svfg.node_ids() {
            nodes.push(id);
        }
        let slots = slot_worklist(prog, svfg, &tables);
        // Register consumers: loads re-run when their consumed slot grows
        // (to extend pt(dst)); stores re-run to weak-update their yield.
        let slot_count = tables.slot_count() as usize;
        let mut consumers: Vec<Vec<SvfgNodeId>> = vec![Vec::new(); slot_count];
        for (i, inst) in prog.insts.iter_enumerated() {
            match &inst.kind {
                InstKind::Load { .. } => {
                    let n = svfg.inst_node(i);
                    for mu in mssa.mus(i) {
                        if let Some(c) = tables.consume_slot(n, mu.obj) {
                            consumers[c as usize].push(n);
                        }
                    }
                }
                InstKind::Store { .. } => {
                    let n = svfg.inst_node(i);
                    for chi in mssa.chis(i) {
                        if let Some(c) = tables.consume_slot(n, chi.obj) {
                            consumers[c as usize].push(n);
                        }
                    }
                }
                _ => {}
            }
        }
        let rel_frontier =
            (0..slot_count).map(|y| vec![EMPTY; tables.reliance(y as VersionSlot).len()]).collect();
        VsfsSolver {
            prog,
            mssa,
            svfg,
            top,
            tables,
            vpts: vec![EMPTY; slot_count],
            consumers,
            rel_frontier,
            nodes,
            slots,
            stats: SolveStats::default(),
        }
    }

    /// The fixpoint loop, with one cooperative governor checkpoint per
    /// worklist pop (both worklists). Pops are sequential, so a governed
    /// trip lands at the same logical step regardless of how the version
    /// tables were built — the basis of the cross-`jobs` determinism
    /// tests. Ungoverned (`None`) this is the plain fixpoint.
    fn solve_governed(&mut self, governor: Option<&Governor>) -> Completion {
        loop {
            // Drain version propagation first ([A-PROP]^F): it is cheap
            // and unlocks node work.
            while let Some(s) = self.slots.pop() {
                if let Some(g) = governor {
                    if let Err(reason) = g.check(1) {
                        return Completion::Degraded(reason);
                    }
                }
                self.stats.slot_pops += 1;
                self.propagate_slot(s as VersionSlot);
            }
            let Some(node) = self.nodes.pop() else {
                if self.slots.is_empty() {
                    break;
                }
                continue;
            };
            if let Some(g) = governor {
                if let Err(reason) = g.check(1) {
                    return Completion::Degraded(reason);
                }
            }
            self.stats.node_pops += 1;
            self.process_node(node);
        }
        Completion::Complete
    }

    /// Ships the growth of slot `s` along its reliance edges. Each edge
    /// remembers the set id it last shipped, and only `diff(value, last)`
    /// crosses again — exact, because slot values grow monotonically, so
    /// the consumer already covers everything shipped before.
    fn propagate_slot(&mut self, s: VersionSlot) {
        let val = self.vpts[s as usize];
        let n_succs = self.tables.reliance(s).len();
        for i in 0..n_succs {
            let c = self.tables.reliance(s)[i];
            self.stats.object_propagations += 1;
            let last = self.rel_frontier[s as usize][i];
            if val == last {
                // Frontier already current: nothing new can flow.
                self.stats.unions_avoided += 1;
                continue;
            }
            self.stats.full_bytes += self.top.store.flat_bytes(val);
            let delta = self.top.store.diff(val, last);
            self.stats.delta_bytes += self.top.store.flat_bytes(delta);
            self.rel_frontier[s as usize][i] = val;
            let cur = self.vpts[c as usize];
            if delta == EMPTY || !self.top.store.union_would_change(cur, delta) {
                self.stats.unions_avoided += 1;
                continue;
            }
            let new = self.top.store.union(cur, delta);
            self.vpts[c as usize] = new;
            self.slot_grew(c);
        }
    }

    fn slot_grew(&mut self, c: VersionSlot) {
        self.slots.push(c as usize);
        for &n in &self.consumers[c as usize] {
            self.nodes.push(n);
        }
    }

    fn process_node(&mut self, node: SvfgNodeId) {
        let SvfgNodeKind::Inst(inst) = self.svfg.kind(node) else {
            return; // MEMPHIs/CallRets need no processing: versions flow directly.
        };
        let mut newly_activated = Vec::new();
        self.top.transfer(inst, &mut self.nodes, &mut newly_activated);
        for (call, callee) in newly_activated {
            self.activate_binding(call, callee);
        }
        match &self.prog.insts[inst].kind {
            InstKind::Load { dst, addr } => {
                // [LOAD]^F: pt(dst) ⊇ pt_{C_ℓ(o)}(o) for o ∈ pt(addr).
                let objs: Vec<ObjId> = self.top.value_pt_iter(*addr).collect();
                for o in objs {
                    if let Some(c) = self.tables.consume_slot(node, o) {
                        let s = self.vpts[c as usize];
                        self.top.union_pt(*dst, s, &mut self.nodes);
                    }
                }
            }
            InstKind::Store { addr, val } => {
                // [STORE]^F + [SU/WU]^F.
                let (addr, val) = (*addr, *val);
                let n_chis = self.mssa.chis(inst).len();
                for ci in 0..n_chis {
                    let chi = self.mssa.chis(inst)[ci];
                    let o = chi.obj;
                    let Some(y) = self.tables.yield_slot(node, o) else { continue };
                    let y = y as usize;
                    let is_target = self.top.value_pt_contains(addr, o);
                    // Static strong/weak decision (see
                    // `TopLevel::is_strong_update`).
                    let su = self.top.is_strong_update(addr, o);
                    let mut grew = false;
                    if su {
                        self.stats.strong_updates += 1;
                        // Kill: the consumed version is not propagated;
                        // only gen enters the yielded version.
                        self.stats.object_propagations += 1;
                        let new = self.top.store.union(self.vpts[y], self.top.pt[val]);
                        grew |= new != self.vpts[y];
                        self.vpts[y] = new;
                    } else if let Some(c) = self.tables.consume_slot(node, o) {
                        // Weak update: the consumed version survives. In a
                        // loop a store can consume its own yield (c == y),
                        // which is already a no-op.
                        if c as usize != y {
                            self.stats.object_propagations += 1;
                            let new = self.top.store.union(self.vpts[y], self.vpts[c as usize]);
                            grew |= new != self.vpts[y];
                            self.vpts[y] = new;
                        }
                    }
                    if !su && is_target {
                        // gen: pt(q) enters the yielded version.
                        self.stats.object_propagations += 1;
                        let new = self.top.store.union(self.vpts[y], self.top.pt[val]);
                        grew |= new != self.vpts[y];
                        self.vpts[y] = new;
                    }
                    if grew {
                        self.slot_grew(y as VersionSlot);
                    }
                }
            }
            _ => {}
        }
    }

    /// On-the-fly activation: adds the version reliance edges for a newly
    /// proven `(call, callee)` pair and propagates immediately.
    fn activate_binding(&mut self, call: InstId, callee: FuncId) {
        self.stats.calls_activated += 1;
        let Some(binding) = self.svfg.call_binding(call, callee) else {
            return; // direct call: reliance edges were built statically
        };
        let binding = binding.clone();
        let call_node = self.svfg.inst_node(call);
        let ret_node = self.svfg.callret_node(call);
        let entry_node = self.svfg.inst_node(self.prog.functions[callee].entry_inst);
        let exit_node = self.svfg.inst_node(self.prog.functions[callee].exit_inst);
        let mut pairs: Vec<(VersionSlot, VersionSlot)> = Vec::new();
        for o in binding.ins {
            if let (Some(y), Some(c)) =
                (self.tables.yield_slot(call_node, o), self.tables.consume_slot(entry_node, o))
            {
                pairs.push((y, c));
            }
        }
        for o in binding.outs {
            if let (Some(y), Some(c)) =
                (self.tables.yield_slot(exit_node, o), self.tables.consume_slot(ret_node, o))
            {
                pairs.push((y, c));
            }
        }
        for (y, c) in pairs {
            if self.tables.add_reliance(y, c) {
                self.stats.reliance_edges += 1;
                self.stats.object_propagations += 1;
                // Ship y's current value across the new edge immediately
                // and start the edge's frontier there; future growth of y
                // re-enters through `slot_grew` and ships only the delta.
                let val = self.vpts[y as usize];
                self.rel_frontier[y as usize].push(val);
                self.stats.full_bytes += self.top.store.flat_bytes(val);
                self.stats.delta_bytes += self.top.store.flat_bytes(val);
                let cur = self.vpts[c as usize];
                let new = self.top.store.union(cur, val);
                if new != cur {
                    self.vpts[c as usize] = new;
                    self.slot_grew(c);
                }
            }
        }
    }

    /// SFS's converged `IN`/`OUT` tables, read off the version slots.
    /// The paper's central lemma: every node consuming (yielding) a
    /// version has that version's set as its SFS `IN` (`OUT`), so
    /// `IN[n][o] = vpts[consume_slot(n, o)]` and
    /// `OUT[n][o] = vpts[yield_slot(n, o)]` — ids in the same store,
    /// copied, never recomputed. The rows take SFS's own shape (see
    /// [`SfsHarvest`]): empty `IN` sets are omitted, and a STORE's `OUT`
    /// row holds every χ object.
    fn harvest(&self) -> SfsHarvest {
        let slot_set = |s: VersionSlot| self.vpts[s as usize];
        let n = self.svfg.node_count();
        let stores = self.svfg.node_ids().filter_map(|node| match self.svfg.kind(node) {
            SvfgNodeKind::Inst(i) if self.prog.insts[i].kind.is_store() => Some(i),
            _ => None,
        });
        let out_entries = stores.map(|i| self.mssa.chis(i).len()).sum();
        let in_bound = self.svfg.node_ids().map(|node| self.tables.consume_entries(node).len());
        let mut ins = Rows::with_capacity(n, in_bound.sum());
        let mut outs = Rows::with_capacity(n, out_entries);
        let mut row: Vec<(ObjId, PtsId)> = Vec::new();
        for node in self.svfg.node_ids() {
            let consumed = self.tables.consume_entries(node).iter();
            ins.push_row(consumed.map(|&(o, c)| (o, slot_set(c))).filter(|e| e.1 != EMPTY));
            if let SvfgNodeKind::Inst(i) = self.svfg.kind(node) {
                if self.prog.insts[i].kind.is_store() {
                    row.extend(self.mssa.chis(i).iter().map(|chi| {
                        (chi.obj, self.tables.yield_slot(node, chi.obj).map_or(EMPTY, slot_set))
                    }));
                    row.sort_unstable_by_key(|e| e.0);
                }
            }
            outs.push_row(row.drain(..));
        }
        SfsHarvest { ins, outs }
    }

    fn storage_stats(&self) -> (usize, usize, usize) {
        let sets = self.vpts.len();
        let mut elems = 0;
        let mut bytes = 0;
        for &id in &self.vpts {
            elems += self.top.store.set_len(id);
            bytes += self.top.store.flat_bytes(id);
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
        let r = run_vsfs(&prog, &aux, &mssa, &svfg);
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
    fn versions_share_across_load_chains() {
        // Ten loads of the same location after one store: one version,
        // no reliance edges needed between them.
        let src = r#"
            func @main() {
            entry:
              %p = alloc stack Cell array
              %h = alloc heap H
              store %h, %p
              %l1 = load %p
              %l2 = load %p
              %l3 = load %p
              %l4 = load %p
              %l5 = load %p
              ret
            }
            "#;
        let (prog, r) = solve(src);
        for l in ["l1", "l2", "l3", "l4", "l5"] {
            assert_eq!(pts(&prog, &r, l), vec!["H"]);
        }
        // One store -> one prelabel; loads share its yielded version.
        assert!(r.stats.versions <= 3, "versions = {}", r.stats.versions);
        assert_eq!(r.stats.reliance_edges, 0, "all edges collapsed");
    }

    #[test]
    fn delta_activation_flows_objects_through_indirect_calls() {
        let (prog, r) = solve(
            r#"
            global @state
            func @writer(%v) {
            entry:
              store %v, @state
              ret
            }
            func @main() {
            entry:
              %fp = funaddr @writer
              %h = alloc heap Payload
              icall %fp(%h)
              %got = load @state
              ret
            }
            "#,
        );
        assert_eq!(pts(&prog, &r, "got"), vec!["Payload"]);
        assert!(r.stats.calls_activated >= 1);
    }

    #[test]
    fn strong_update_kills_through_versions() {
        let (prog, r) = solve(
            r#"
            func @main() {
            entry:
              %p = alloc stack Cell
              %a = alloc heap A
              %b = alloc heap B
              store %a, %p
              %v1 = load %p
              store %b, %p
              %v2 = load %p
              ret
            }
            "#,
        );
        assert_eq!(pts(&prog, &r, "v1"), vec!["A"]);
        assert_eq!(pts(&prog, &r, "v2"), vec!["B"], "strong update kills A");
        assert_eq!(r.stats.strong_updates, 2);
    }
}
