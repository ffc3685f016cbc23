//! The inclusion-constraint solver.
//!
//! A difference-propagation worklist solver: each node tracks its full
//! points-to set (`pts`) and the prefix that has already been propagated
//! and processed against complex constraints (`prop`). Popping a node
//! processes only the delta. Cycles in the copy graph are collapsed
//! every `COLLAPSE_INTERVAL` pops with a full SCC pass over representative
//! nodes (online cycle elimination à la wave propagation); EXPERIMENTS.md
//! ("Mechanism audit") measures what it saves in time and peak heap.
//! Each pass costs O(nodes + copy edges): the SCC graph over
//! representatives is built with a per-source stamp that drops the
//! duplicate edges earlier merges left in successor lists, rather than a
//! scan of the out-list per edge (quadratic in the out-degree of a hub
//! node).

use crate::callgraph::CallGraph;
use crate::pag::{CallSiteId, Constraint, Pag, PagNodeId};
use vsfs_adt::govern::{Completion, Governor, Outcome};
use vsfs_adt::{FifoWorklist, FlatReader, FxHashSet, PointsToSet, PtsId, PtsStore, PtsStoreStats};
use vsfs_graph::{DiGraph, Sccs};
use vsfs_ir::{FuncId, ObjId, Program, ValueId};

/// The empty-set id of the solver's store.
const EMPTY: PtsId = PtsStore::<ObjId>::EMPTY;

/// The solver runs an SCC collapse every this many worklist pops.
const COLLAPSE_INTERVAL: usize = 10_000;

/// Counters describing a solver run.
#[derive(Debug, Clone, Copy, Default)]
pub struct AndersenStats {
    /// Worklist pops.
    pub pops: usize,
    /// Set-union propagations along copy edges.
    pub propagations: usize,
    /// Copy edges in the final graph.
    pub copy_edges: usize,
    /// SCC collapse passes executed.
    pub scc_runs: usize,
    /// Nodes merged away by cycle elimination.
    pub nodes_collapsed: usize,
    /// `(call site, callee)` pairs resolved on the fly.
    pub indirect_resolutions: usize,
    /// Hash-consed points-to store counters (unique sets, memo hit rates).
    pub store: PtsStoreStats,
}

/// The result of Andersen's analysis. Points-to sets live in a shared
/// hash-consed [`PtsStore`]; each node holds only a [`PtsId`] handle.
#[derive(Debug, Clone)]
pub struct AndersenResult {
    uf: Vec<u32>,
    store: PtsStore<ObjId>,
    /// Flat read-back cache for the representative sets the API lends
    /// out.
    flat: FlatReader<ObjId>,
    pts: Vec<PtsId>,
    value_count: usize,
    /// The (over-approximate) call graph.
    pub callgraph: CallGraph,
    /// Run counters.
    pub stats: AndersenStats,
}

impl AndersenResult {
    fn find(&self, mut n: usize) -> usize {
        while self.uf[n] as usize != n {
            n = self.uf[n] as usize;
        }
        n
    }

    /// The points-to set of top-level value `v`.
    pub fn value_pts(&self, v: ValueId) -> &PointsToSet<ObjId> {
        self.flat.get(self.pts[self.find(v.index())])
    }

    /// The (flow-insensitive) points-to set stored in object `o`.
    pub fn object_pts(&self, o: ObjId) -> &PointsToSet<ObjId> {
        self.flat.get(self.pts[self.find(self.value_count + o.index())])
    }

    /// Total elements across all distinct representative points-to sets —
    /// a logical memory metric.
    pub fn total_pts_entries(&self) -> usize {
        self.uf
            .iter()
            .enumerate()
            .filter(|&(i, &r)| i == r as usize)
            .map(|(i, _)| self.store.set_len(self.pts[i]))
            .sum()
    }
}

/// Runs Andersen's analysis.
pub fn analyze(prog: &Program) -> AndersenResult {
    analyze_with(prog, None).result
}

/// Runs Andersen's analysis, optionally governed. Without a governor the
/// outcome is always complete.
///
/// Under a [`Governor`] the solver checkpoints at every pop and stops
/// once the governor trips.
///
/// **A degraded Andersen result is a partial fixpoint — an
/// under-approximation — and therefore unsound to analyse with or to
/// fall back to.** Callers must treat `Degraded` as an error; only the
/// flow-sensitive stages have a sound fallback (Andersen itself).
pub fn analyze_with(prog: &Program, governor: Option<&Governor>) -> Outcome<AndersenResult> {
    solve(prog, Some(COLLAPSE_INTERVAL), governor)
}

/// [`analyze_with`] with an explicit collapse interval; `None` disables
/// cycle elimination, which only the invariance tests want.
fn solve(
    prog: &Program,
    collapse_interval: Option<usize>,
    governor: Option<&Governor>,
) -> Outcome<AndersenResult> {
    let mut solver = Solver::new(prog, collapse_interval);
    solver.gov = governor;
    let result = solver.run();
    Outcome { result, completion: governor.map_or(Completion::Complete, Governor::completion) }
}

/// Path-compressing union-find lookup on a bare parent array.
///
/// A free function rather than a method so hot loops can split-borrow:
/// resolving representatives needs only `uf`, leaving `copy_succs` (and
/// the store) free to be borrowed alongside instead of cloned per pop.
fn find_in(uf: &mut [u32], n: usize) -> usize {
    let mut root = n;
    while uf[root] as usize != root {
        root = uf[root] as usize;
    }
    // Path compression.
    let mut cur = n;
    while uf[cur] as usize != cur {
        let next = uf[cur] as usize;
        uf[cur] = root as u32;
        cur = next;
    }
    root
}

struct Solver<'p> {
    prog: &'p Program,
    pag: Pag,
    collapse_interval: Option<usize>,
    gov: Option<&'p Governor>,
    uf: Vec<u32>,
    store: PtsStore<ObjId>,
    pts: Vec<PtsId>,
    prop: Vec<PtsId>,
    copy_succs: Vec<Vec<u32>>,
    loads: Vec<Vec<u32>>,
    stores: Vec<Vec<u32>>,
    geps: Vec<Vec<(u32, u32)>>,
    icalls: Vec<Vec<CallSiteId>>,
    resolved: FxHashSet<(CallSiteId, FuncId)>,
    /// Global copy-edge dedup (may contain stale pre-merge pairs, which
    /// only costs an occasional duplicate edge, never correctness).
    edge_seen: FxHashSet<(u32, u32)>,
    callgraph: CallGraph,
    worklist: FifoWorklist<usize>,
    stats: AndersenStats,
}

impl<'p> Solver<'p> {
    fn new(prog: &'p Program, collapse_interval: Option<usize>) -> Self {
        let pag = Pag::build(prog);
        let n = pag.node_count();
        Solver {
            prog,
            collapse_interval,
            gov: None,
            uf: (0..n as u32).collect(),
            store: PtsStore::new(),
            pts: vec![EMPTY; n],
            prop: vec![EMPTY; n],
            copy_succs: vec![Vec::new(); n],
            loads: vec![Vec::new(); n],
            stores: vec![Vec::new(); n],
            geps: vec![Vec::new(); n],
            icalls: vec![Vec::new(); n],
            resolved: FxHashSet::default(),
            edge_seen: FxHashSet::default(),
            callgraph: CallGraph::new(),
            worklist: FifoWorklist::new(n),
            pag,
            stats: AndersenStats::default(),
        }
    }

    fn find(&mut self, n: usize) -> usize {
        find_in(&mut self.uf, n)
    }

    fn run(mut self) -> AndersenResult {
        self.init();
        let mut pops_since_scc = 0usize;
        while let Some(n) = self.worklist.pop() {
            if self.find(n) != n {
                continue; // merged away
            }
            if self.gov.is_some_and(|g| g.check(1).is_err()) {
                break;
            }
            self.stats.pops += 1;
            pops_since_scc += 1;
            self.process_node(n);
            if let Some(interval) = self.collapse_interval {
                if pops_since_scc >= interval {
                    pops_since_scc = 0;
                    self.collapse_cycles();
                }
            }
        }
        self.finish()
    }

    fn finish(mut self) -> AndersenResult {
        // Record direct call edges (indirect ones were added on the fly).
        for &(call, callee) in &self.pag.direct_calls {
            self.callgraph.add_edge(call, callee);
        }
        self.callgraph.canonicalize();
        let reps: Vec<PtsId> =
            (0..self.uf.len()).filter(|&i| self.uf[i] as usize == i).map(|i| self.pts[i]).collect();
        AndersenResult {
            uf: self.uf,
            value_count: self.prog.values.len(),
            callgraph: self.callgraph,
            stats: AndersenStats {
                copy_edges: self.copy_succs.iter().map(Vec::len).sum(),
                store: self.store.stats(),
                ..self.stats
            },
            flat: FlatReader::new(&self.store, reps),
            store: self.store,
            pts: self.pts,
        }
    }

    fn init(&mut self) {
        let constraints = std::mem::take(&mut self.pag.constraints);
        for c in &constraints {
            match *c {
                Constraint::Addr { dst, obj } => {
                    if self.prog.objects[obj].is_function() {
                        if let Some(f) = self.prog.object_as_function(obj) {
                            self.callgraph.mark_address_taken(f);
                        }
                    }
                    let d = self.find(dst.index());
                    let new = self.store.insert(self.pts[d], obj);
                    if new != self.pts[d] {
                        self.pts[d] = new;
                        self.worklist.push(d);
                    }
                }
                Constraint::Copy { src, dst } => {
                    self.add_copy_edge(src.index(), dst.index());
                }
                Constraint::Load { addr, dst } => {
                    let a = self.find(addr.index());
                    self.loads[a].push(dst.raw());
                    self.reprocess(a);
                }
                Constraint::Store { val, addr } => {
                    let a = self.find(addr.index());
                    self.stores[a].push(val.raw());
                    self.reprocess(a);
                }
                Constraint::Gep { base, offset, dst } => {
                    let b = self.find(base.index());
                    self.geps[b].push((offset, dst.raw()));
                    self.reprocess(b);
                }
            }
        }
        let sites: Vec<(CallSiteId, PagNodeId)> = self
            .pag
            .call_sites
            .iter()
            .enumerate()
            .map(|(i, cs)| (CallSiteId::new(i as u32), self.pag.value_node(cs.fp)))
            .collect();
        for (cs, fp) in sites {
            let f = self.find(fp.index());
            self.icalls[f].push(cs);
            self.reprocess(f);
        }
    }

    /// Forces already-propagated elements of `n` to be re-examined (used
    /// when a new complex constraint attaches to `n`).
    fn reprocess(&mut self, n: usize) {
        if self.pts[n] != EMPTY {
            self.prop[n] = EMPTY;
            self.worklist.push(n);
        }
    }

    fn process_node(&mut self, n: usize) {
        let delta = self.store.subtract(self.pts[n], self.prop[n]);
        if delta == EMPTY {
            return;
        }
        self.prop[n] = self.store.union(self.prop[n], delta);

        // Complex constraints keyed on n.
        let loads = std::mem::take(&mut self.loads[n]);
        let stores = std::mem::take(&mut self.stores[n]);
        let geps = std::mem::take(&mut self.geps[n]);
        let icalls = std::mem::take(&mut self.icalls[n]);
        for o in self.store.iter_set(delta).collect::<Vec<_>>() {
            let obj_node = self.pag.object_node(o).index();
            for &dst in &loads {
                self.add_copy_edge(obj_node, dst as usize);
            }
            for &val in &stores {
                self.add_copy_edge(val as usize, obj_node);
            }
            for &(offset, dst) in &geps {
                let f = self.prog.field_object(o, offset);
                let d = self.find(dst as usize);
                let new = self.store.insert(self.pts[d], f);
                if new != self.pts[d] {
                    self.pts[d] = new;
                    self.worklist.push(d);
                }
            }
            if !icalls.is_empty() {
                if let Some(callee) = self.prog.object_as_function(o) {
                    for &cs in &icalls {
                        self.resolve_call(cs, callee);
                    }
                }
            }
        }
        let n2 = self.find(n);
        self.loads[n2].extend(loads);
        self.stores[n2].extend(stores);
        self.geps[n2].extend(geps);
        self.icalls[n2].extend(icalls);

        // Propagate the delta along copy edges. Split-borrow the fields
        // (union-find, id arrays, store, worklist) so the successor list
        // can be iterated in place instead of cloned on every pop.
        let uf = &mut self.uf;
        let pts = &mut self.pts;
        let store = &mut self.store;
        let worklist = &mut self.worklist;
        let stats = &mut self.stats;
        let root = find_in(uf, n);
        for &s in &self.copy_succs[n] {
            let s = find_in(uf, s as usize);
            if s == root {
                continue;
            }
            stats.propagations += 1;
            let new = store.union(pts[s], delta);
            if new != pts[s] {
                pts[s] = new;
                worklist.push(s);
            }
        }
        // If complex processing grew pts[n] itself (e.g. gep dst == n), the
        // worklist push in those paths covers it.
    }

    fn add_copy_edge(&mut self, src: usize, dst: usize) {
        let s = self.find(src);
        let d = self.find(dst);
        if s == d || !self.edge_seen.insert((s as u32, d as u32)) {
            return;
        }
        self.copy_succs[s].push(d as u32);
        // Seed the new edge with everything already processed at s.
        if self.prop[s] != EMPTY {
            self.stats.propagations += 1;
            let new = self.store.union(self.pts[d], self.prop[s]);
            if new != self.pts[d] {
                self.pts[d] = new;
                self.worklist.push(d);
            }
        }
    }

    fn resolve_call(&mut self, cs: CallSiteId, callee: FuncId) {
        if !self.resolved.insert((cs, callee)) {
            return;
        }
        self.stats.indirect_resolutions += 1;
        let site = self.pag.call_sites[cs.index()].clone();
        self.callgraph.add_edge(site.inst, callee);
        let bindings = self.pag.binding_constraints(self.prog, callee, &site.args, site.dst);
        for c in bindings {
            if let Constraint::Copy { src, dst } = c {
                self.add_copy_edge(src.index(), dst.index());
            }
        }
    }

    /// Collapses copy-graph cycles among representative nodes.
    fn collapse_cycles(&mut self) {
        self.stats.scc_runs += 1;
        let n = self.uf.len();
        let mut g: DiGraph<u32> = DiGraph::with_nodes(n);
        // `seen_from[d] == i` once `i -> d` is in the graph: a per-source
        // stamp that drops the duplicate edges merges leave behind in O(1),
        // so the build is linear in the successor lists. Sources are below
        // `n`, so the initial `u32::MAX` stamp matches none.
        let mut seen_from: Vec<u32> = vec![u32::MAX; n];
        // Split-borrow: only the union-find is mutated while walking the
        // successor lists, so no per-node clone is needed.
        let uf = &mut self.uf;
        for i in 0..n {
            if find_in(uf, i) != i {
                continue;
            }
            for &s in &self.copy_succs[i] {
                let d = find_in(uf, s as usize);
                if d != i && seen_from[d] != i as u32 {
                    seen_from[d] = i as u32;
                    g.add_edge(i as u32, d as u32);
                }
            }
        }
        let sccs = Sccs::compute(&g);
        for c in 0..sccs.count() as u32 {
            let members: Vec<u32> = sccs
                .members(c)
                .iter()
                .copied()
                .filter(|&m| self.find(m as usize) == m as usize)
                .collect();
            if members.len() < 2 {
                continue;
            }
            let root = members[0] as usize;
            for &m in &members[1..] {
                self.merge_into(m as usize, root);
            }
            self.worklist.push(root);
        }
    }

    /// Merges node `a` into `root` (both must be current representatives).
    fn merge_into(&mut self, a: usize, root: usize) {
        debug_assert_ne!(a, root);
        self.stats.nodes_collapsed += 1;
        self.uf[a] = root as u32;
        let a_pts = std::mem::replace(&mut self.pts[a], EMPTY);
        self.pts[root] = self.store.union(self.pts[root], a_pts);
        // Only elements processed by *both* halves can be considered
        // processed for the merged constraint set.
        let a_prop = std::mem::replace(&mut self.prop[a], EMPTY);
        self.prop[root] = self.store.intersect(self.prop[root], a_prop);
        let succs = std::mem::take(&mut self.copy_succs[a]);
        self.copy_succs[root].extend(succs);
        let l = std::mem::take(&mut self.loads[a]);
        self.loads[root].extend(l);
        let s = std::mem::take(&mut self.stores[a]);
        self.stores[root].extend(s);
        let gp = std::mem::take(&mut self.geps[a]);
        self.geps[root].extend(gp);
        let ic = std::mem::take(&mut self.icalls[a]);
        self.icalls[root].extend(ic);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsfs_ir::parse_program;

    fn value(prog: &Program, name: &str) -> ValueId {
        prog.values
            .iter_enumerated()
            .find(|(_, v)| v.name == name)
            .map(|(id, _)| id)
            .unwrap_or_else(|| panic!("no value named {name}"))
    }

    fn obj(prog: &Program, name: &str) -> ObjId {
        prog.objects
            .iter_enumerated()
            .find(|(_, o)| o.name == name)
            .map(|(id, _)| id)
            .unwrap_or_else(|| panic!("no object named {name}"))
    }

    fn pts_names(prog: &Program, s: &PointsToSet<ObjId>) -> Vec<String> {
        let mut v: Vec<String> = s.iter().map(|o| prog.objects[o].name.clone()).collect();
        v.sort();
        v
    }

    #[test]
    fn store_load_roundtrip() {
        let prog = parse_program(
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
        )
        .unwrap();
        let res = analyze(&prog);
        assert_eq!(pts_names(&prog, res.value_pts(value(&prog, "p"))), vec!["A"]);
        assert_eq!(pts_names(&prog, res.value_pts(value(&prog, "r"))), vec!["H"]);
        assert_eq!(pts_names(&prog, res.object_pts(obj(&prog, "A"))), vec!["H"]);
    }

    #[test]
    fn flow_insensitivity_merges_both_stores() {
        // p points to A; *p = q then *p = r: A holds both H1 and H2 and a
        // load sees both regardless of order.
        let prog = parse_program(
            r#"
            func @main() {
            entry:
              %p = alloc stack A
              %q = alloc heap H1
              %x = load %p
              %r = alloc heap H2
              store %q, %p
              store %r, %p
              ret
            }
            "#,
        )
        .unwrap();
        let res = analyze(&prog);
        assert_eq!(pts_names(&prog, res.value_pts(value(&prog, "x"))), vec!["H1", "H2"]);
    }

    #[test]
    fn copy_cycles_converge() {
        let prog = parse_program(
            r#"
            func @main() {
            entry:
              %init = alloc stack A
              goto head
            head:
              %a = phi %init, %b
              %b = copy %a
              br head, out
            out:
              %c = copy %b
              ret
            }
            "#,
        )
        .unwrap();
        // With and without cycle elimination.
        for interval in [Some(1), None] {
            let res = solve(&prog, interval, None).result;
            assert_eq!(pts_names(&prog, res.value_pts(value(&prog, "c"))), vec!["A"]);
        }
    }

    #[test]
    fn gep_creates_field_pointees() {
        let prog = parse_program(
            r#"
            func @main() {
            entry:
              %s = alloc stack S fields 3
              %f1 = gep %s, 1
              %h = alloc heap H
              store %h, %f1
              %f1b = gep %s, 1
              %x = load %f1b
              %f2 = gep %s, 2
              %y = load %f2
              ret
            }
            "#,
        )
        .unwrap();
        let res = analyze(&prog);
        assert_eq!(pts_names(&prog, res.value_pts(value(&prog, "x"))), vec!["H"]);
        // Different field: no H.
        assert!(res.value_pts(value(&prog, "y")).is_empty());
        assert_eq!(pts_names(&prog, res.value_pts(value(&prog, "f1"))), vec!["S.f1"]);
    }

    #[test]
    fn direct_call_binds_params_and_returns() {
        let prog = parse_program(
            r#"
            func @id(%x) {
            entry:
              ret %x
            }
            func @main() {
            entry:
              %a = alloc heap H
              %r = call @id(%a)
              ret
            }
            "#,
        )
        .unwrap();
        let res = analyze(&prog);
        assert_eq!(pts_names(&prog, res.value_pts(value(&prog, "r"))), vec!["H"]);
        assert_eq!(res.callgraph.edge_count(), 1);
    }

    #[test]
    fn indirect_call_resolved_on_the_fly() {
        let prog = parse_program(
            r#"
            global @table
            func @f(%x) {
            entry:
              ret %x
            }
            func @g(%y) {
            entry:
              %h = alloc heap GH
              ret %h
            }
            func @main() {
            entry:
              %fp0 = funaddr @f
              store %fp0, @table
              %fp1 = funaddr @g
              br a, b
            a:
              goto join
            b:
              store %fp1, @table
              goto join
            join:
              %fp = load @table
              %arg = alloc heap AH
              %r = icall %fp(%arg)
              ret
            }
            "#,
        )
        .unwrap();
        let res = analyze(&prog);
        let f = prog.function_by_name("f").unwrap();
        let g = prog.function_by_name("g").unwrap();
        // Both targets resolved.
        let call = prog
            .insts
            .iter_enumerated()
            .find(|(_, i)| {
                matches!(
                    i.kind,
                    vsfs_ir::InstKind::Call { callee: vsfs_ir::Callee::Indirect(_), .. }
                )
            })
            .map(|(id, _)| id)
            .unwrap();
        let mut callees = res.callgraph.callees(call).to_vec();
        callees.sort();
        assert_eq!(callees, vec![f, g]);
        assert!(res.callgraph.is_address_taken(f));
        assert!(res.callgraph.is_address_taken(g));
        // r gets AH (via f) and GH (via g).
        assert_eq!(pts_names(&prog, res.value_pts(value(&prog, "r"))), vec!["AH", "GH"]);
        assert_eq!(res.stats.indirect_resolutions, 2);
    }

    #[test]
    fn multi_level_pointers() {
        // **pp chain: r should reach the bottom object.
        let prog = parse_program(
            r#"
            func @main() {
            entry:
              %pp = alloc stack PP
              %p = alloc stack P
              %h = alloc heap H
              store %p, %pp
              store %h, %p
              %p2 = load %pp
              %r = load %p2
              ret
            }
            "#,
        )
        .unwrap();
        let res = analyze(&prog);
        assert_eq!(pts_names(&prog, res.value_pts(value(&prog, "r"))), vec!["H"]);
    }

    #[test]
    fn results_invariant_under_cycle_collapse() {
        let recursive = r#"
            func @rec(%n) {
            entry:
              %l = load %n
              %r = call @rec(%l)
              ret %r
            }
            func @main() {
            entry:
              %p = alloc stack A
              %h = alloc heap H
              store %h, %p
              %x = call @rec(%p)
              ret
            }
            "#;
        for (name, src) in [("recursive", recursive.to_string()), ("hub", hub_program(256))] {
            let prog = parse_program(&src).unwrap();
            let base = solve(&prog, None, None).result;
            let scc = solve(&prog, Some(1), None).result;
            if name == "hub" {
                assert!(scc.stats.nodes_collapsed > 0, "hub: no cycle was collapsed");
            }
            for (v, _) in prog.values.iter_enumerated() {
                assert_eq!(
                    base.value_pts(v).iter().collect::<Vec<_>>(),
                    scc.value_pts(v).iter().collect::<Vec<_>>(),
                    "{name}: mismatch for {v:?}"
                );
            }
            for (o, _) in prog.objects.iter_enumerated() {
                assert_eq!(
                    base.object_pts(o).iter().collect::<Vec<_>>(),
                    scc.object_pts(o).iter().collect::<Vec<_>>(),
                    "{name}: mismatch for {o:?}"
                );
            }
        }
    }

    /// A hub `%h` with `4 * groups` copy successors `%s*`. Each group of
    /// four successors forms a cycle through `%c{k}` and feeds one
    /// `%t{k}`, so collapsing a group leaves its representative with four
    /// edges to `%t{k}` and the hub with four edges to the representative.
    /// Group 0 also closes a cycle back through the hub.
    fn hub_program(groups: usize) -> String {
        let mut src = String::from(
            "func @main() {\nentry:\n  %p = alloc stack A\n  %q = alloc heap H\n  \
             %h = phi %p, %t0\n",
        );
        for k in 0..groups {
            let members: Vec<String> = (4 * k..4 * k + 4).map(|i| format!("%s{i}")).collect();
            for m in &members {
                src += &format!("  {m} = phi %h, %c{k}\n");
            }
            src += &format!("  %c{k} = phi {}\n", members.join(", "));
            src += &format!("  %t{k} = phi {}\n", members.join(", "));
            src += &format!("  store %q, %s{}\n", 4 * k);
            src += &format!("  %l{k} = load %t{k}\n");
        }
        src + "  ret\n}\n"
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use vsfs_ir::parse_program;

    fn value(prog: &Program, name: &str) -> ValueId {
        prog.values.iter_enumerated().find(|(_, v)| v.name == name).map(|(id, _)| id).unwrap()
    }

    fn pts_names(prog: &Program, s: &PointsToSet<ObjId>) -> Vec<String> {
        let mut v: Vec<String> = s.iter().map(|o| prog.objects[o].name.clone()).collect();
        v.sort();
        v
    }

    #[test]
    fn phi_unions_all_inputs() {
        let prog = parse_program(
            r#"
            func @main() {
            entry:
              %a = alloc heap A
              %b = alloc heap B
              %c = alloc heap C
              br l, r
            l:
              goto j
            r:
              goto j
            j:
              %m = phi %a, %b, %c
              ret
            }
            "#,
        )
        .unwrap();
        let res = analyze(&prog);
        assert_eq!(pts_names(&prog, res.value_pts(value(&prog, "m"))), vec!["A", "B", "C"]);
    }

    #[test]
    fn gep_offset_zero_is_the_base() {
        let prog = parse_program(
            r#"
            func @main() {
            entry:
              %s = alloc stack S fields 3
              %f0 = gep %s, 0
              ret
            }
            "#,
        )
        .unwrap();
        let res = analyze(&prog);
        assert_eq!(
            res.value_pts(value(&prog, "f0")).iter().collect::<Vec<_>>(),
            res.value_pts(value(&prog, "s")).iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn gep_offset_clamps_to_field_count() {
        let prog = parse_program(
            r#"
            func @main() {
            entry:
              %s = alloc stack S fields 3
              %last = gep %s, 2
              %over = gep %s, 99
              ret
            }
            "#,
        )
        .unwrap();
        let res = analyze(&prog);
        assert_eq!(
            pts_names(&prog, res.value_pts(value(&prog, "over"))),
            pts_names(&prog, res.value_pts(value(&prog, "last")))
        );
    }

    #[test]
    fn function_pointers_flow_through_fields() {
        let prog = parse_program(
            r#"
            func @target(%x) {
            entry:
              ret %x
            }
            func @main() {
            entry:
              %obj = alloc heap VTable fields 2
              %slot = gep %obj, 1
              %fp = funaddr @target
              store %fp, %slot
              %loaded = load %slot
              %arg = alloc heap Arg
              %r = icall %loaded(%arg)
              ret
            }
            "#,
        )
        .unwrap();
        let res = analyze(&prog);
        let target = prog.function_by_name("target").unwrap();
        let call = prog
            .insts
            .iter_enumerated()
            .find(|(_, i)| matches!(i.kind, vsfs_ir::InstKind::Call { .. }))
            .map(|(id, _)| id)
            .unwrap();
        assert_eq!(res.callgraph.callees(call), &[target]);
        assert_eq!(pts_names(&prog, res.value_pts(value(&prog, "r"))), vec!["Arg"]);
    }

    #[test]
    fn total_pts_entries_counts_representatives_once() {
        let prog = parse_program(
            r#"
            func @main() {
            entry:
              %a = alloc heap A
              %b = copy %a
              %c = copy %b
              ret
            }
            "#,
        )
        .unwrap();
        // With aggressive SCC the copies may merge; entries must not be
        // double-counted either way.
        let res = solve(&prog, Some(1), None).result;
        assert!(res.total_pts_entries() >= 1);
        assert!(res.total_pts_entries() <= 3);
    }

    #[test]
    fn unreachable_code_is_still_analyzed_flow_insensitively() {
        let prog = parse_program(
            r#"
            func @never_called() {
            entry:
              %h = alloc heap Hidden
              %p = alloc stack Slot
              store %h, %p
              %x = load %p
              ret
            }
            func @main() {
            entry:
              ret
            }
            "#,
        )
        .unwrap();
        let res = analyze(&prog);
        assert_eq!(pts_names(&prog, res.value_pts(value(&prog, "x"))), vec!["Hidden"]);
    }
}
