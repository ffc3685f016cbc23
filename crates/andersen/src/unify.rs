//! Unification-based (Steensgaard-style) pointer analysis — the
//! cheapest tier of the precision ladder.
//!
//! The solver runs in two phases over the same [`Pag`] the inclusion
//! solver consumes:
//!
//! 1. **Unification** — a weighted quick-union with path compression
//!    over *equivalence class representatives* (ECRs). Every PAG node
//!    starts as its own ECR; each ECR lazily owns at most one *pointee*
//!    ECR. The classic Steensgaard rules collapse the graph:
//!    `x = y` joins `x` with `y`, `x = *p` joins `x` with `ptd(p)`,
//!    `*p = y` joins `y` with `ptd(p)`, and `x = &o` joins `o`'s node
//!    into `ptd(x)`. Joins of ECRs that both own pointees join the
//!    pointees recursively (iteratively, via an explicit stack), so
//!    phase 1 is near-linear in the constraint count.
//! 2. **Quotient fixpoint** — a small sequential Andersen-style
//!    difference-propagation pass over the ECR *quotient* graph (one
//!    node per class). Phase 1 collapsed almost every copy chain, so the
//!    quotient is tiny and the fixpoint converges in a handful of pops.
//!
//! Phase 2 re-processes **all** constraints at class granularity, which
//! gives the central invariant for free: the result is the least
//! inclusion solution of the *collapsed* constraint graph, and
//! collapsing only ever adds constraints, so for every query
//!
//! ```text
//! unify pts ⊇ andersen pts ⊇ flow-sensitive pts
//! ```
//!
//! holds structurally — phase 1 can only trade precision for speed,
//! never soundness. The `ci.sh` soundness-chain gate checks this on
//! random workloads and the checker corpus.
//!
//! # No-oversharing refinements
//!
//! With [`UnifyConfig::no_oversharing`] (the default, the `unify` tier)
//! two refinements in the spirit of Kuderski et al. ("Unification-based
//! Pointer Analysis without Oversharing", PAPERS.md) keep the classic
//! failure modes of Steensgaard's analysis in check:
//!
//! * **Directional call-site copies** — parameter/return bindings of
//!   direct calls are *not* unified; they stay inclusion edges resolved
//!   by phase 2. One imprecise caller no longer pollutes every other
//!   caller of the same function.
//! * **Address-taken singletons** — an object whose address is taken at
//!   exactly one site keeps its own contents class: the object node is
//!   not joined into the pointee class, so two unrelated allocations
//!   stored through the same pointer class do not share their contents.
//!   Phase 2's load/store processing propagates their contents
//!   directionally instead.
//!
//! Disabling the flag yields the classic full-oversharing analysis (the
//! `steensgaard` tier), giving the four-tier precision chain
//! `steensgaard ⊇ unify ⊇ andersen ⊇ flow-sensitive`.

use crate::callgraph::CallGraph;
use crate::pag::{CallSiteId, Constraint, Pag};
use std::time::Instant;
use vsfs_adt::govern::{Completion, Governor, Outcome};
use vsfs_adt::{FifoWorklist, FlatReader, FxHashSet, PointsToSet, PtsId, PtsStore, PtsStoreStats};
use vsfs_ir::{ObjId, Program, ValueId};

/// The empty-set id of the solver's store.
const EMPTY: PtsId = PtsStore::<ObjId>::EMPTY;

/// Absent pointee marker in the ECR table.
const NO_PTD: u32 = u32::MAX;

/// Tuning knobs for the unification solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnifyConfig {
    /// Apply the no-oversharing refinements (directional call-site
    /// copies, content-isolated address-taken singletons). `true` is
    /// the `unify` tier; `false` is classic Steensgaard oversharing
    /// (the `steensgaard` tier).
    pub no_oversharing: bool,
}

impl Default for UnifyConfig {
    fn default() -> Self {
        UnifyConfig { no_oversharing: true }
    }
}

impl UnifyConfig {
    /// The classic full-oversharing configuration.
    pub fn steensgaard() -> Self {
        UnifyConfig { no_oversharing: false }
    }

    /// The tier name this configuration computes.
    pub fn tier_name(self) -> &'static str {
        if self.no_oversharing {
            "unify"
        } else {
            "steensgaard"
        }
    }
}

/// Counters describing a unification run.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnifyStats {
    /// Phase-1 union operations that actually merged two classes.
    pub joins: usize,
    /// Placeholder pointee ECRs allocated in phase 1.
    pub placeholder_ecrs: usize,
    /// Distinct classes over PAG nodes after phase 1.
    pub classes: usize,
    /// Objects kept content-isolated by the singleton refinement.
    pub singleton_objects: usize,
    /// Call-binding copies kept directional by the refinement.
    pub directional_edges: usize,
    /// Phase-2 worklist pops.
    pub pops: usize,
    /// Phase-2 set-union propagations along quotient copy edges.
    pub propagations: usize,
    /// Copy edges in the final quotient graph.
    pub copy_edges: usize,
    /// `(call site, callee)` pairs resolved on the fly.
    pub indirect_resolutions: usize,
    /// Wall-clock seconds for the whole solve.
    pub seconds: f64,
    /// Hash-consed points-to store counters.
    pub store: PtsStoreStats,
}

/// The result of the unification analysis. Points-to sets are stored
/// once per equivalence class; nodes map to classes through a dense
/// `class_of` table.
#[derive(Debug, Clone)]
pub struct UnifyResult {
    /// PAG node index → dense class id.
    class_of: Vec<u32>,
    /// Flat read-back cache for the per-class sets the API lends out.
    flat: FlatReader<ObjId>,
    /// Per-class points-to set.
    pts: Vec<PtsId>,
    value_count: usize,
    /// The configuration the run used.
    pub config: UnifyConfig,
    /// The (over-approximate) call graph.
    pub callgraph: CallGraph,
    /// Run counters.
    pub stats: UnifyStats,
}

impl UnifyResult {
    /// The points-to set of top-level value `v`.
    pub fn value_pts(&self, v: ValueId) -> &PointsToSet<ObjId> {
        self.flat.get(self.pts[self.class_of[v.index()] as usize])
    }

    /// The (flow-insensitive) points-to set stored in object `o`.
    pub fn object_pts(&self, o: ObjId) -> &PointsToSet<ObjId> {
        self.flat.get(self.pts[self.class_of[self.value_count + o.index()] as usize])
    }

    /// Number of equivalence classes over PAG nodes.
    pub fn class_count(&self) -> usize {
        self.pts.len()
    }
}

/// Runs the unification analysis with the default (no-oversharing)
/// configuration.
pub fn analyze_unify(prog: &Program) -> UnifyResult {
    analyze_unify_with(prog, UnifyConfig::default(), None).result
}

/// Runs the unification analysis with an explicit configuration,
/// optionally under a [`Governor`] (phase 1 checkpoints per constraint,
/// phase 2 per pop). Without a governor the outcome is always complete.
///
/// Like a governed Andersen run, **a degraded unification result is a
/// partial fixpoint and unsound to fall back to** — and unification is
/// the *last* sound rung of the degradation ladder, so callers must
/// treat `Degraded` here as a hard error (exit 1). The ladder's
/// fallback path therefore runs this solver ungoverned: its cost is a
/// small fraction of the Andersen stage that already tripped, and an
/// answer of last resort must actually be produced.
pub fn analyze_unify_with(
    prog: &Program,
    config: UnifyConfig,
    governor: Option<&Governor>,
) -> Outcome<UnifyResult> {
    let result = UnifySolver::new(prog, config, governor).run();
    Outcome { result, completion: governor.map_or(Completion::Complete, Governor::completion) }
}

/// Phase-1 union-find over ECRs. Indices `0..pag.node_count()` are PAG
/// nodes; placeholder pointee ECRs are appended past them.
struct Ecrs {
    parent: Vec<u32>,
    rank: Vec<u8>,
    /// Pointee ECR per root; `NO_PTD` if not yet demanded.
    ptd: Vec<u32>,
    joins: usize,
    placeholders: usize,
    /// The pending-pair stack of [`Ecrs::join`], kept between calls so a
    /// join allocates nothing.
    stack: Vec<(u32, u32)>,
}

impl Ecrs {
    fn new(n: usize) -> Ecrs {
        Ecrs {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            ptd: vec![NO_PTD; n],
            joins: 0,
            placeholders: 0,
            stack: Vec::new(),
        }
    }

    fn find(&mut self, n: u32) -> u32 {
        let mut root = n;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = n;
        while self.parent[cur as usize] != cur {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    /// The pointee ECR of `e`'s class, allocating a placeholder if the
    /// class does not own one yet.
    fn pointee(&mut self, e: u32) -> u32 {
        let r = self.find(e) as usize;
        if self.ptd[r] == NO_PTD {
            let id = self.parent.len() as u32;
            self.parent.push(id);
            self.rank.push(0);
            self.ptd.push(NO_PTD);
            self.placeholders += 1;
            self.ptd[r] = id;
            id
        } else {
            self.find(self.ptd[r])
        }
    }

    /// Unifies the classes of `a` and `b`; joins owned pointees
    /// recursively (via an explicit stack — chains of `**p` never
    /// recurse on the call stack).
    fn join(&mut self, a: u32, b: u32) {
        let mut stack = std::mem::take(&mut self.stack);
        stack.push((a, b));
        while let Some((a, b)) = stack.pop() {
            let ra = self.find(a);
            let rb = self.find(b);
            if ra == rb {
                continue;
            }
            self.joins += 1;
            let (keep, gone) =
                if self.rank[ra as usize] >= self.rank[rb as usize] { (ra, rb) } else { (rb, ra) };
            if self.rank[keep as usize] == self.rank[gone as usize] {
                self.rank[keep as usize] += 1;
            }
            self.parent[gone as usize] = keep;
            match (self.ptd[keep as usize], self.ptd[gone as usize]) {
                (_, NO_PTD) => {}
                (NO_PTD, p) => self.ptd[keep as usize] = p,
                (pk, pg) => stack.push((pk, pg)),
            }
        }
        self.stack = stack;
    }
}

struct UnifySolver<'p> {
    prog: &'p Program,
    pag: Pag,
    config: UnifyConfig,
    gov: Option<&'p Governor>,
    stats: UnifyStats,
}

impl<'p> UnifySolver<'p> {
    fn new(prog: &'p Program, config: UnifyConfig, gov: Option<&'p Governor>) -> Self {
        UnifySolver { prog, pag: Pag::build(prog), config, gov, stats: UnifyStats::default() }
    }

    fn run(mut self) -> UnifyResult {
        let start = Instant::now();
        let class_of = self.unify();
        let class_count = class_of.iter().map(|&c| c as usize + 1).max().unwrap_or(0);
        self.stats.classes = class_count;
        let mut result = self.quotient_fixpoint(&class_of, class_count);
        result.stats.seconds = start.elapsed().as_secs_f64();
        result
    }

    /// Phase 1: returns the dense `PAG node → class` table.
    fn unify(&mut self) -> Vec<u32> {
        let n = self.pag.node_count();
        let mut ecrs = Ecrs::new(n);
        let refined = self.config.no_oversharing;

        // Address-taken singletons: objects whose address is taken at
        // exactly one site keep their own contents class.
        let mut addr_sites = vec![0u32; self.prog.objects.len()];
        for c in &self.pag.constraints {
            if let Constraint::Addr { obj, .. } = c {
                addr_sites[obj.index()] = addr_sites[obj.index()].saturating_add(1);
            }
        }

        // Call-binding copies stay directional under the refinement:
        // re-derive the binding pairs of every direct call and skip
        // their unification (phase 2 processes all copies anyway).
        let mut directional: FxHashSet<(u32, u32)> = FxHashSet::default();
        if refined {
            for &(call, callee) in &self.pag.direct_calls {
                let (args, dst) = match &self.prog.insts[call].kind {
                    vsfs_ir::InstKind::Call { args, dst, .. } => (args.clone(), *dst),
                    _ => continue,
                };
                for c in self.pag.binding_constraints(self.prog, callee, &args, dst) {
                    if let Constraint::Copy { src, dst } = c {
                        directional.insert((src.raw(), dst.raw()));
                    }
                }
            }
        }

        for k in 0..self.pag.constraints.len() {
            if self.gov.is_some_and(|g| g.check(1).is_err()) {
                break;
            }
            match self.pag.constraints[k] {
                Constraint::Addr { dst, obj } => {
                    if refined && addr_sites[obj.index()] == 1 {
                        self.stats.singleton_objects += 1;
                        continue;
                    }
                    let p = ecrs.pointee(dst.raw());
                    let on = self.pag.object_node(obj).raw();
                    ecrs.join(p, on);
                }
                Constraint::Copy { src, dst } => {
                    if refined && directional.contains(&(src.raw(), dst.raw())) {
                        self.stats.directional_edges += 1;
                        continue;
                    }
                    ecrs.join(src.raw(), dst.raw());
                }
                Constraint::Load { addr, dst } => {
                    let p = ecrs.pointee(addr.raw());
                    ecrs.join(p, dst.raw());
                }
                Constraint::Store { val, addr } => {
                    let p = ecrs.pointee(addr.raw());
                    ecrs.join(p, val.raw());
                }
                Constraint::Gep { base, dst, .. } => {
                    // Classic mode overshares fields with their parent
                    // class; the refinement leaves geps to phase 2.
                    if !refined {
                        let a = ecrs.pointee(base.raw());
                        let b = ecrs.pointee(dst.raw());
                        ecrs.join(a, b);
                    }
                }
            }
        }
        self.stats.joins = ecrs.joins;
        self.stats.placeholder_ecrs = ecrs.placeholders;

        // Compress PAG-node roots into dense class ids, ascending.
        let mut class_of = vec![0u32; n];
        let mut id_of_root = vec![NO_PTD; ecrs.parent.len()];
        let mut next = 0u32;
        for (i, c) in class_of.iter_mut().enumerate() {
            let r = ecrs.find(i as u32) as usize;
            if id_of_root[r] == NO_PTD {
                id_of_root[r] = next;
                next += 1;
            }
            *c = id_of_root[r];
        }
        class_of
    }

    /// Phase 2: sequential Andersen-style difference propagation over
    /// the quotient graph. Re-processing *every* constraint here (most
    /// are now self-loops) is what makes the result the least solution
    /// of the collapsed system — a guaranteed superset of Andersen's.
    fn quotient_fixpoint(self, class_of: &[u32], classes: usize) -> UnifyResult {
        let UnifySolver { prog, pag, config, gov, mut stats } = self;
        let cls = |n: u32| class_of[n as usize] as usize;
        let mut store: PtsStore<ObjId> = PtsStore::new();
        let mut pts = vec![EMPTY; classes];
        let mut prop = vec![EMPTY; classes];
        let mut copy_succs: Vec<Vec<u32>> = vec![Vec::new(); classes];
        let mut loads: Vec<Vec<u32>> = vec![Vec::new(); classes];
        let mut stores: Vec<Vec<u32>> = vec![Vec::new(); classes];
        let mut geps: Vec<Vec<(u32, u32)>> = vec![Vec::new(); classes];
        let mut icalls: Vec<Vec<CallSiteId>> = vec![Vec::new(); classes];
        let mut edge_seen: FxHashSet<(u32, u32)> = FxHashSet::default();
        let mut resolved: FxHashSet<(CallSiteId, vsfs_ir::FuncId)> = FxHashSet::default();
        let mut callgraph = CallGraph::new();
        let mut worklist: FifoWorklist<usize> = FifoWorklist::new(classes);

        let mut add_edge = |src: usize,
                            dst: usize,
                            copy_succs: &mut Vec<Vec<u32>>,
                            store: &mut PtsStore<ObjId>,
                            pts: &mut Vec<PtsId>,
                            prop: &[PtsId],
                            worklist: &mut FifoWorklist<usize>,
                            stats: &mut UnifyStats| {
            if src == dst || !edge_seen.insert((src as u32, dst as u32)) {
                return;
            }
            copy_succs[src].push(dst as u32);
            if prop[src] != EMPTY {
                stats.propagations += 1;
                let new = store.union(pts[dst], prop[src]);
                if new != pts[dst] {
                    pts[dst] = new;
                    worklist.push(dst);
                }
            }
        };

        for c in &pag.constraints {
            match *c {
                Constraint::Addr { dst, obj } => {
                    if prog.objects[obj].is_function() {
                        if let Some(f) = prog.object_as_function(obj) {
                            callgraph.mark_address_taken(f);
                        }
                    }
                    let d = cls(dst.raw());
                    let new = store.insert(pts[d], obj);
                    if new != pts[d] {
                        pts[d] = new;
                        worklist.push(d);
                    }
                }
                Constraint::Copy { src, dst } => {
                    add_edge(
                        cls(src.raw()),
                        cls(dst.raw()),
                        &mut copy_succs,
                        &mut store,
                        &mut pts,
                        &prop,
                        &mut worklist,
                        &mut stats,
                    );
                }
                Constraint::Load { addr, dst } => {
                    loads[cls(addr.raw())].push(cls(dst.raw()) as u32);
                }
                Constraint::Store { val, addr } => {
                    stores[cls(addr.raw())].push(cls(val.raw()) as u32);
                }
                Constraint::Gep { base, offset, dst } => {
                    geps[cls(base.raw())].push((offset, cls(dst.raw()) as u32));
                }
            }
        }
        for (i, site) in pag.call_sites.iter().enumerate() {
            icalls[cls(pag.value_node(site.fp).raw())].push(CallSiteId::new(i as u32));
        }
        // Collapsing dsts to classes leaves heavy duplication inside
        // each site list (thousands of loads through one pointer class
        // often target one destination class); dedup once so the
        // per-delta loops pay for distinct class pairs only.
        for list in loads.iter_mut().chain(stores.iter_mut()) {
            list.sort_unstable();
            list.dedup();
        }
        for list in &mut geps {
            list.sort_unstable();
            list.dedup();
        }

        let mut delta_objs: Vec<ObjId> = Vec::new();
        let mut delta_cls: Vec<usize> = Vec::new();
        let mut cls_epoch: Vec<u32> = vec![0; classes];
        let mut epoch = 0u32;
        while let Some(n) = worklist.pop() {
            if gov.is_some_and(|g| g.check(1).is_err()) {
                break;
            }
            stats.pops += 1;
            let delta = store.subtract(pts[n], prop[n]);
            if delta == EMPTY {
                continue;
            }
            prop[n] = store.union(prop[n], delta);
            // Load/store edges depend only on the *class* of the new
            // object, so the delta is deduped to distinct object
            // classes first (epoch-stamped, no per-pop clearing); the
            // per-object loops below then only pay for geps (fields
            // are per object) and call resolution (callees are per
            // object).
            // Most classes have no load, store, gep or indirect call: their
            // pops only propagate along copy edges, so the delta's objects
            // (often hundreds) are listed only where something reads them.
            delta_objs.clear();
            if !loads[n].is_empty()
                || !stores[n].is_empty()
                || !geps[n].is_empty()
                || !icalls[n].is_empty()
            {
                delta_objs.extend(store.iter_set(delta));
            }
            if !loads[n].is_empty() || !stores[n].is_empty() {
                epoch += 1;
                delta_cls.clear();
                for &o in &delta_objs {
                    let c = cls(pag.object_node(o).raw());
                    if cls_epoch[c] != epoch {
                        cls_epoch[c] = epoch;
                        delta_cls.push(c);
                    }
                }
                for &obj_cls in &delta_cls {
                    for &dst in &loads[n] {
                        add_edge(
                            obj_cls,
                            dst as usize,
                            &mut copy_succs,
                            &mut store,
                            &mut pts,
                            &prop,
                            &mut worklist,
                            &mut stats,
                        );
                    }
                    for &val in &stores[n] {
                        add_edge(
                            val as usize,
                            obj_cls,
                            &mut copy_succs,
                            &mut store,
                            &mut pts,
                            &prop,
                            &mut worklist,
                            &mut stats,
                        );
                    }
                }
            }
            for &o in &delta_objs {
                for &(offset, dst) in &geps[n] {
                    let d = dst as usize;
                    let f = prog.field_object(o, offset);
                    let new = store.insert(pts[d], f);
                    if new != pts[d] {
                        pts[d] = new;
                        worklist.push(d);
                    }
                }
                if !icalls[n].is_empty() {
                    if let Some(callee) = prog.object_as_function(o) {
                        for &cs in &icalls[n] {
                            if !resolved.insert((cs, callee)) {
                                continue;
                            }
                            stats.indirect_resolutions += 1;
                            let site = pag.call_sites[cs.index()].clone();
                            callgraph.add_edge(site.inst, callee);
                            for b in pag.binding_constraints(prog, callee, &site.args, site.dst) {
                                if let Constraint::Copy { src, dst } = b {
                                    add_edge(
                                        cls(src.raw()),
                                        cls(dst.raw()),
                                        &mut copy_succs,
                                        &mut store,
                                        &mut pts,
                                        &prop,
                                        &mut worklist,
                                        &mut stats,
                                    );
                                }
                            }
                        }
                    }
                }
            }
            // Propagate along quotient copy edges.
            for &succ in &copy_succs[n] {
                let s = succ as usize;
                if s == n {
                    continue;
                }
                stats.propagations += 1;
                let new = store.union(pts[s], delta);
                if new != pts[s] {
                    pts[s] = new;
                    worklist.push(s);
                }
            }
        }

        for &(call, callee) in &pag.direct_calls {
            callgraph.add_edge(call, callee);
        }
        callgraph.canonicalize();
        stats.copy_edges = copy_succs.iter().map(Vec::len).sum();
        stats.store = store.stats();
        let flat = FlatReader::new(&store, pts.iter().copied());
        UnifyResult {
            class_of: class_of.to_vec(),
            flat,
            pts,
            value_count: prog.values.len(),
            config,
            callgraph,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::analyze;
    use vsfs_ir::parse_program;

    fn value(prog: &Program, name: &str) -> ValueId {
        prog.values
            .iter_enumerated()
            .find(|(_, v)| v.name == name)
            .map(|(id, _)| id)
            .unwrap_or_else(|| panic!("no value named {name}"))
    }

    fn pts_names(prog: &Program, s: &PointsToSet<ObjId>) -> Vec<String> {
        let mut v: Vec<String> = s.iter().map(|o| prog.objects[o].name.clone()).collect();
        v.sort();
        v
    }

    /// Asserts the precision chain on every value and object:
    /// steensgaard ⊇ unify ⊇ andersen.
    fn assert_chain(src: &str) {
        let prog = parse_program(src).unwrap();
        let coarse = analyze_unify_with(&prog, UnifyConfig::steensgaard(), None).result;
        let refined = analyze_unify(&prog);
        let ander = analyze(&prog);
        for (v, _) in prog.values.iter_enumerated() {
            let a = ander.value_pts(v);
            let u = refined.value_pts(v);
            let s = coarse.value_pts(v);
            for o in a.iter() {
                assert!(u.contains(o), "unify misses {o:?} for value {v:?}");
            }
            for o in u.iter() {
                assert!(s.contains(o), "steensgaard misses {o:?} for value {v:?}");
            }
        }
        for (o, _) in prog.objects.iter_enumerated() {
            let a = ander.object_pts(o);
            let u = refined.object_pts(o);
            let s = coarse.object_pts(o);
            for x in a.iter() {
                assert!(u.contains(x), "unify misses {x:?} for object {o:?}");
            }
            for x in u.iter() {
                assert!(s.contains(x), "steensgaard misses {x:?} for object {o:?}");
            }
        }
        // Call graphs: every Andersen edge appears in both unify tiers.
        let edges = |cg: &CallGraph| {
            let mut e: Vec<_> = cg.edges().collect();
            e.sort();
            e
        };
        for e in edges(&ander.callgraph) {
            assert!(edges(&refined.callgraph).contains(&e), "unify misses call edge {e:?}");
            assert!(edges(&coarse.callgraph).contains(&e), "steensgaard misses call edge {e:?}");
        }
    }

    #[test]
    fn store_load_roundtrip_is_sound() {
        assert_chain(
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
    }

    #[test]
    fn multi_level_chain_is_sound() {
        assert_chain(
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
        );
    }

    #[test]
    fn calls_fields_and_icalls_are_sound() {
        assert_chain(
            r#"
            global @table
            func @rec(%n) {
            entry:
              %l = load %n
              %r = call @rec(%l)
              ret %r
            }
            func @g(%y) {
            entry:
              %h = alloc heap GH
              ret %h
            }
            func @main() {
            entry:
              %p = alloc stack A
              %h = alloc heap H
              store %h, %p
              %x = call @rec(%p)
              %s = alloc stack S fields 3
              %f1 = gep %s, 1
              store %h, %f1
              %fp0 = funaddr @rec
              store %fp0, @table
              %fp1 = funaddr @g
              store %fp1, @table
              %fp = load @table
              %ic = icall %fp(%p)
              ret
            }
            "#,
        );
    }

    #[test]
    fn unification_overshares_where_andersen_does_not() {
        // Two pointers stored into the same cell class: Steensgaard
        // merges their pointees; Andersen keeps x pointing only at H1.
        let prog = parse_program(
            r#"
            func @main() {
            entry:
              %p = alloc stack A
              %q = alloc stack B
              %h1 = alloc heap H1
              %h2 = alloc heap H2
              store %h1, %p
              store %h2, %q
              %m = phi %p, %q
              %x = load %p
              ret
            }
            "#,
        )
        .unwrap();
        let coarse = analyze_unify_with(&prog, UnifyConfig::steensgaard(), None).result;
        let x = value(&prog, "x");
        // The phi merges p and q's pointee classes, so A and B share a
        // contents class and x sees both heaps.
        assert_eq!(pts_names(&prog, coarse.value_pts(x)), vec!["H1", "H2"]);
        let ander = analyze(&prog);
        assert_eq!(pts_names(&prog, ander.value_pts(x)), vec!["H1"]);
    }

    #[test]
    fn directional_call_copies_curb_oversharing() {
        // Two callers pass distinct objects to @id. Classic
        // unification merges both argument classes through the shared
        // parameter; the refinement keeps the bindings directional, so
        // the callers' own views stay separate.
        let src = r#"
            func @id(%x) {
            entry:
              ret %x
            }
            func @main() {
            entry:
              %a = alloc heap A
              %b = alloc heap B
              %pa = alloc stack PA
              %pb = alloc stack PB
              store %a, %pa
              store %b, %pb
              %r1 = call @id(%a)
              %r2 = call @id(%b)
              %la = load %pa
              ret
            }
            "#;
        let prog = parse_program(src).unwrap();
        let refined = analyze_unify(&prog);
        let coarse = analyze_unify_with(&prog, UnifyConfig::steensgaard(), None).result;
        // Both tiers must see the callee results soundly.
        for res in [&refined, &coarse] {
            let r1 = pts_names(&prog, res.value_pts(value(&prog, "r1")));
            assert!(r1.contains(&"A".to_string()), "r1 misses A: {r1:?}");
        }
        // The refined tier keeps %a's class free of B.
        let a_refined = pts_names(&prog, refined.value_pts(value(&prog, "a")));
        assert_eq!(a_refined, vec!["A"], "refined tier overshared the argument class");
        assert!(refined.stats.directional_edges > 0);
        assert_chain(src);
    }

    #[test]
    fn singleton_refinement_keeps_contents_separate() {
        // p and q are unified through the phi, but their pointees A and
        // B are address-taken singletons: the refinement keeps the
        // *contents* of A and B in separate classes.
        let src = r#"
            func @main() {
            entry:
              %p = alloc stack A
              %q = alloc stack B
              %h1 = alloc heap H1
              %h2 = alloc heap H2
              store %h1, %p
              store %h2, %q
              %m = phi %p, %q
              %x = load %p
              ret
            }
            "#;
        let prog = parse_program(src).unwrap();
        let refined = analyze_unify(&prog);
        assert!(refined.stats.singleton_objects > 0);
        // Soundness: x still sees at least H1 (and, via the merged
        // pointer class, may see H2 — but A's own contents class was
        // not unified with B's).
        let x = pts_names(&prog, refined.value_pts(value(&prog, "x")));
        assert!(x.contains(&"H1".to_string()));
        assert_chain(src);
    }

    #[test]
    fn empty_program_has_no_classes_to_speak_of() {
        let prog = parse_program(
            r#"
            func @main() {
            entry:
              ret
            }
            "#,
        )
        .unwrap();
        let res = analyze_unify(&prog);
        for (v, _) in prog.values.iter_enumerated() {
            assert!(res.value_pts(v).is_empty());
        }
    }

    #[test]
    fn governed_run_completes_within_budget() {
        use vsfs_adt::govern::Budget;
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
        let g = Governor::new(Budget::default());
        let out = analyze_unify_with(&prog, UnifyConfig::default(), Some(&g));
        assert!(out.completion.is_complete());
        assert_eq!(pts_names(&prog, out.result.value_pts(value(&prog, "r"))), vec!["H"]);
    }

    #[test]
    fn tier_names_round_trip() {
        assert_eq!(UnifyConfig::default().tier_name(), "unify");
        assert_eq!(UnifyConfig::steensgaard().tier_name(), "steensgaard");
    }
}
