//! Object versioning via meld labelling (Sections IV-B and IV-C).
//!
//! The pre-analysis runs in three steps, per the paper:
//!
//! 1. **Prelabelling** (Fig. 6): every `STORE` that may define `o` yields
//!    a fresh label for `o` (`[STORE]^P`); every δ node consumes a fresh
//!    label for each object it may propagate forward (`[OTF-CG]^P`).
//!    All other consume/yield labels start as the identity `ε`.
//! 2. **Meld labelling** (Fig. 8): per object `o`, labels propagate along
//!    `o`-labelled indirect edges — `[EXTERNAL]^V` melds the source's
//!    yield into the target's consume (unless the target is a frozen δ
//!    node), `[INTERNAL]^V` makes every non-`STORE` node yield what it
//!    consumes — until a fixed point.
//! 3. **Interning**: each distinct label (a set of prelabels, represented
//!    as a sparse bit vector melded with bitwise-or) becomes a dense
//!    *version*; `(object, version)` pairs index the global points-to
//!    table during solving. The *version reliance* edges are the
//!    deduplicated `[A-PROP]` constraints: one per `(yield version →
//!    consume version)` pair with distinct endpoints — equal endpoints
//!    need no propagation at all, which is where VSFS wins.
//!
//! # Implementation notes
//!
//! Meld labelling runs one object at a time over that object's edge
//! subgraph, using dense per-object node indices and per-object prelabel
//! numbering (labels of different objects never meld, so ids can restart
//! at 0 for each object, keeping the bit vectors small). Peak memory is
//! proportional to the largest single object subgraph, not to the whole
//! SVFG.

use std::time::Instant;
use vsfs_adt::govern::{Completion, DegradeReason, Governor, Outcome};
use vsfs_adt::par::{self, ParConfig};
use vsfs_adt::{CapacityOverflow, FxHashMap, SbvInterner, SparseBitVector};
use vsfs_graph::{DiGraph, Sccs};
use vsfs_ir::{InstKind, ObjId, Program};
use vsfs_mssa::MemorySsa;
use vsfs_svfg::{Svfg, SvfgNodeId};

/// A dense `(object, version)` slot in the global points-to table.
pub type VersionSlot = u32;

/// Counters describing the versioning pre-analysis.
#[derive(Debug, Clone, Copy, Default)]
pub struct VersioningStats {
    /// Fresh prelabels created (stores' yields + δ nodes' consumes).
    pub prelabels: usize,
    /// Distinct `(object, version)` slots.
    pub versions: usize,
    /// Deduplicated version reliance edges.
    pub reliance_edges: usize,
    /// Indirect edges whose endpoints share a version (propagation
    /// avoided entirely).
    pub edges_collapsed: usize,
    /// Wall-clock seconds spent versioning.
    pub seconds: f64,
    /// Workers used for the per-object meld phase.
    pub par_workers: usize,
    /// Per-object tasks executed by the meld phase.
    pub par_tasks: usize,
    /// Cross-shard steals in the meld phase's work-stealing worklist.
    pub par_steals: usize,
    /// Wall-clock seconds of the parallel meld phase alone.
    pub par_seconds: f64,
}

/// The versioning tables consumed by the VSFS solver.
#[derive(Debug, Clone)]
pub struct VersionTables {
    /// Consume slot per `(node, object)`: per-node vectors sorted by
    /// object id (objects are versioned in ascending order, so pushes
    /// arrive sorted), looked up by binary search.
    consume: Vec<Vec<(ObjId, VersionSlot)>>,
    /// Yield slot per `(node, object)` where it differs from consume
    /// (stores); non-store nodes yield what they consume.
    yield_: Vec<Vec<(ObjId, VersionSlot)>>,
    /// Version reliance: `reliance[y]` lists consume slots that must
    /// include `pts[y]` (the deduplicated `[A-PROP]` constraints).
    reliance: Vec<Vec<VersionSlot>>,
    /// Number of slots.
    slot_count: u32,
    /// Stats of the pre-analysis.
    pub stats: VersioningStats,
}

impl VersionTables {
    /// Builds the version tables for `svfg` sequentially.
    pub fn build(prog: &Program, mssa: &MemorySsa, svfg: &Svfg) -> VersionTables {
        VersionTables::build_with_jobs(prog, mssa, svfg, 1)
    }

    /// Builds the version tables using up to `jobs` worker threads
    /// (`0` = all cores) for the per-object meld phase.
    ///
    /// The result is bit-identical for every `jobs` value: each object's
    /// meld labelling is computed independently with object-local
    /// version numbering, and a sequential reduce in ascending object
    /// order assigns global slot ids as prefix-sum offsets — the same
    /// ids the sequential pass assigns.
    pub fn build_with_jobs(
        prog: &Program,
        mssa: &MemorySsa,
        svfg: &Svfg,
        jobs: usize,
    ) -> VersionTables {
        VersionTables::build_with_jobs_regions(prog, mssa, svfg, jobs, None)
    }

    /// Like [`VersionTables::build_with_jobs`], but with the per-object
    /// meld tasks seeded by unification alias regions
    /// (`region_of_object`, from `vsfs_andersen::AliasRegions`): objects
    /// of the same (provably-disjoint) region start on the same worker,
    /// replacing the cost-only LPT seeding where regions exist. A pure
    /// scheduling hint — the tables are bit-identical either way.
    pub fn build_with_jobs_regions(
        prog: &Program,
        mssa: &MemorySsa,
        svfg: &Svfg,
        jobs: usize,
        regions: Option<&[u32]>,
    ) -> VersionTables {
        let start = Instant::now();
        let (mut tables, _) = build_inner(prog, mssa, svfg, ParConfig::new(jobs), regions, None);
        tables.stats.versions = tables.slot_count as usize;
        tables.stats.seconds = start.elapsed().as_secs_f64();
        tables
    }

    /// Like [`VersionTables::build_with_jobs`], but under a [`Governor`]:
    /// worker panics are isolated, the parallel meld phase stops at
    /// cancellation, and the sequential reduce checks the budget once per
    /// object.
    ///
    /// On a trip the outcome is `Degraded` and the tables are replaced by
    /// structurally valid *empty* tables (no slots, no reliance edges) —
    /// partial version numbering is useless for solving, so callers must
    /// treat a degraded outcome as "no flow-sensitive result" and fall
    /// back (see `run_vsfs_governed`).
    pub fn build_governed(
        prog: &Program,
        mssa: &MemorySsa,
        svfg: &Svfg,
        jobs: usize,
        governor: &Governor,
    ) -> Outcome<VersionTables> {
        let start = Instant::now();
        let (mut tables, completion) =
            build_inner(prog, mssa, svfg, ParConfig::new(jobs), None, Some(governor));
        tables.stats.versions = tables.slot_count as usize;
        tables.stats.seconds = start.elapsed().as_secs_f64();
        Outcome { result: tables, completion }
    }

    /// The version slot consumed by `node` for `obj`, if `(node, obj)`
    /// participates in any indirect flow.
    pub fn consume_slot(&self, node: SvfgNodeId, obj: ObjId) -> Option<VersionSlot> {
        let list = &self.consume[node.index()];
        list.binary_search_by_key(&obj, |&(o, _)| o).ok().map(|i| list[i].1)
    }

    /// The version slot yielded by `node` for `obj`.
    pub fn yield_slot(&self, node: SvfgNodeId, obj: ObjId) -> Option<VersionSlot> {
        let list = &self.yield_[node.index()];
        list.binary_search_by_key(&obj, |&(o, _)| o)
            .ok()
            .map(|i| list[i].1)
            .or_else(|| self.consume_slot(node, obj))
    }

    /// Every `(object, version)` pair `node` consumes, sorted by object.
    pub fn consume_entries(&self, node: SvfgNodeId) -> &[(ObjId, VersionSlot)] {
        &self.consume[node.index()]
    }

    /// Every `(object, version)` pair `node` yields, sorted by object.
    /// Nodes that relay an object unchanged appear only in
    /// [`VersionTables::consume_entries`].
    pub fn yield_entries(&self, node: SvfgNodeId) -> &[(ObjId, VersionSlot)] {
        &self.yield_[node.index()]
    }

    /// Total `(object, version)` slots.
    pub fn slot_count(&self) -> u32 {
        self.slot_count
    }

    /// The reliance successors of slot `y`.
    pub fn reliance(&self, y: VersionSlot) -> &[VersionSlot] {
        &self.reliance[y as usize]
    }

    /// Adds a reliance edge discovered during solving (on-the-fly call
    /// graph activation); returns `true` if new.
    pub fn add_reliance(&mut self, y: VersionSlot, c: VersionSlot) -> bool {
        if y == c || self.reliance[y as usize].contains(&c) {
            return false;
        }
        self.reliance[y as usize].push(c);
        true
    }
}

/// Work area reused across objects.
#[derive(Default)]
struct ObjArea {
    /// Local node index per SVFG node involved with the current object
    /// (dense; `u32::MAX` = absent; reset via the `nodes` list).
    local_of: Vec<u32>,
    nodes: Vec<SvfgNodeId>,
    /// Consume label per local node.
    consume: Vec<SparseBitVector>,
    /// Yield prelabel per local node (stores only), else `None` —
    /// `[INTERNAL]^V` says such nodes yield their consume label.
    yield_pre: Vec<Option<SparseBitVector>>,
    frozen: Vec<bool>,
    is_store: Vec<bool>,
    succs: Vec<Vec<u32>>,
    queued: Vec<bool>,
}

impl ObjArea {
    fn with_node_capacity(n: usize) -> Self {
        ObjArea { local_of: vec![u32::MAX; n], ..ObjArea::default() }
    }

    fn clear(&mut self) {
        for &n in &self.nodes {
            self.local_of[n.index()] = u32::MAX;
        }
        self.nodes.clear();
        self.consume.clear();
        self.yield_pre.clear();
        self.frozen.clear();
        self.is_store.clear();
        self.succs.clear();
        self.queued.clear();
    }

    fn local(&mut self, n: SvfgNodeId) -> u32 {
        let slot = self.local_of[n.index()];
        if slot != u32::MAX {
            return slot;
        }
        let l = self.nodes.len() as u32;
        self.local_of[n.index()] = l;
        self.nodes.push(n);
        self.consume.push(SparseBitVector::new());
        self.yield_pre.push(None);
        self.frozen.push(false);
        self.is_store.push(false);
        self.succs.push(Vec::new());
        self.queued.push(false);
        l
    }
}

/// Structurally valid tables with no versions at all — the degraded
/// placeholder: every lookup misses, `slot_count` is 0.
fn empty_tables(node_count: usize) -> VersionTables {
    VersionTables {
        consume: vec![Vec::new(); node_count],
        yield_: vec![Vec::new(); node_count],
        reliance: Vec::new(),
        slot_count: 0,
        stats: VersioningStats::default(),
    }
}

fn build_inner(
    prog: &Program,
    mssa: &MemorySsa,
    svfg: &Svfg,
    par: ParConfig,
    regions: Option<&[u32]>,
    governor: Option<&Governor>,
) -> (VersionTables, Completion) {
    let num_objs = prog.objects.len();
    // Group edges by object (dense tables: object ids index directly).
    // Count pass then exact-sized fill: the grouped SVFG edges expand to
    // one (from, to) entry per labelled object, stored in a flat arena
    // with per-object offsets — no per-object Vec doubling slack, which
    // dominated this pass's transient footprint.
    let mut offsets = vec![0u32; num_objs + 1];
    for n in svfg.node_ids() {
        for &(_, set) in svfg.indirect_succs(n) {
            for &o in svfg.obj_set(set) {
                offsets[o.index() + 1] += 1;
            }
        }
    }
    for i in 0..num_objs {
        offsets[i + 1] += offsets[i];
    }
    let zero = (SvfgNodeId::new(0), SvfgNodeId::new(0));
    let mut edge_arena = vec![zero; offsets[num_objs] as usize];
    let mut cursor: Vec<u32> = offsets[..num_objs].to_vec();
    for n in svfg.node_ids() {
        for &(t, set) in svfg.indirect_succs(n) {
            for &o in svfg.obj_set(set) {
                let c = &mut cursor[o.index()];
                edge_arena[*c as usize] = (n, t);
                *c += 1;
            }
        }
    }
    drop(cursor);
    let edges_of = |o: usize| &edge_arena[offsets[o] as usize..offsets[o + 1] as usize];
    // Group prelabel sites by object: stores' yields and δ consumes.
    // (Fig. 6 — [STORE]^P and [OTF-CG]^P.)
    let mut store_sites: Vec<Vec<SvfgNodeId>> = vec![Vec::new(); num_objs];
    let mut delta_sites: Vec<Vec<SvfgNodeId>> = vec![Vec::new(); num_objs];
    for (i, inst) in prog.insts.iter_enumerated() {
        match inst.kind {
            InstKind::Store { .. } => {
                let n = svfg.inst_node(i);
                for chi in mssa.chis(i) {
                    store_sites[chi.obj.index()].push(n);
                }
            }
            InstKind::FunEntry { .. } => {
                let n = svfg.inst_node(i);
                if svfg.is_delta(n) {
                    for chi in mssa.chis(i) {
                        delta_sites[chi.obj.index()].push(n);
                    }
                }
            }
            InstKind::Call { .. } => {
                let n = svfg.callret_node(i);
                if svfg.is_delta(n) {
                    for chi in mssa.chis(i) {
                        delta_sites[chi.obj.index()].push(n);
                    }
                }
            }
            _ => {}
        }
    }

    // Ascending object order keeps every node's slot list sorted.
    let objs: Vec<ObjId> = (0..num_objs)
        .map(|i| ObjId::new(i as u32))
        .filter(|&o| {
            !edges_of(o.index()).is_empty()
                || !store_sites[o.index()].is_empty()
                || !delta_sites[o.index()].is_empty()
        })
        .collect();

    // Per-object meld labelling is independent by construction (labels of
    // different objects never meld), so objects become parallel tasks.
    // Each task numbers its versions object-locally; the ordered reduce
    // below turns local ids into global slot ids by prefix-sum offset,
    // reproducing the sequential numbering exactly — the tables are
    // bit-identical for every worker count.
    let node_count = svfg.node_count();
    let cost = |i: usize| {
        let oi = objs[i].index();
        (edges_of(oi).len() + store_sites[oi].len() + delta_sites[oi].len()) as u64
    };
    let objs_ref = &objs;
    let edges_ref = &edges_of;
    let stores_ref = &store_sites;
    let deltas_ref = &delta_sites;
    let worker = |area: &mut ObjArea, i: usize| {
        let oi = objs_ref[i].index();
        process_object(edges_ref(oi), &stores_ref[oi], &deltas_ref[oi], area)
    };
    let init = || ObjArea::with_node_capacity(node_count);
    let run = match regions {
        // Alias-region seeding: objects whose version slots can hold
        // overlapping sets share a worker's cache. `u64::MAX` groups the
        // never-pointed-to objects together.
        Some(region_of_object) => par::try_run_tasks_grouped(
            par,
            objs.len(),
            cost,
            |i| region_of_object.get(objs_ref[i].index()).map_or(u64::MAX, |&r| u64::from(r)),
            governor,
            init,
            worker,
        ),
        None => par::try_run_tasks_with(par, objs.len(), cost, governor, init, worker),
    };
    let (outcomes, pstats) = match run {
        Ok(out) => out,
        Err(interrupt) => match governor {
            Some(g) => {
                g.note_interrupt(&interrupt);
                return (empty_tables(node_count), g.completion());
            }
            None => {
                let f = interrupt.faults.first().expect("interrupt without faults or governor");
                panic!("parallel {f}");
            }
        },
    };

    // Ordered reduce: ascending object order keeps every node's slot
    // list sorted by object and assigns global ids deterministically.
    let mut consume_slots: Vec<Vec<(ObjId, VersionSlot)>> = vec![Vec::new(); node_count];
    let mut yield_slots: Vec<Vec<(ObjId, VersionSlot)>> = vec![Vec::new(); node_count];
    let mut reliance: Vec<Vec<VersionSlot>> = Vec::new();
    let mut next_slot: u32 = 0;
    let mut stats = VersioningStats::default();
    for (i, out) in outcomes.iter().enumerate() {
        // One checkpoint per object: the reduce is sequential, so the
        // trip point is identical for every `jobs` value.
        if governor.is_some_and(|g| g.check(1).is_err()) {
            let g = governor.expect("checked above");
            return (empty_tables(node_count), g.completion());
        }
        // A worker that exhausted its label id space reports a typed
        // error instead of panicking; the first one (in ascending object
        // order, so the same for every `jobs` value) degrades the run.
        let out = match out {
            Ok(out) => out,
            Err(overflow) => match governor {
                Some(g) => {
                    g.trip(DegradeReason::CapacityExhausted { resource: "version interner" });
                    return (empty_tables(node_count), g.completion());
                }
                None => panic!("versioning object {}: {overflow}", objs[i].index()),
            },
        };
        let o = objs[i];
        let base = next_slot;
        next_slot += out.local_slots;
        reliance.resize_with(next_slot as usize, Vec::new);
        for &(n, c, y) in &out.nodes {
            consume_slots[n.index()].push((o, base + c));
            if y != c {
                yield_slots[n.index()].push((o, base + y));
            }
        }
        for &(y, c) in &out.reliance {
            reliance[(base + y) as usize].push(base + c);
        }
        stats.prelabels += out.prelabels;
        stats.reliance_edges += out.reliance.len();
        stats.edges_collapsed += out.edges_collapsed;
    }
    stats.par_workers = pstats.workers;
    stats.par_tasks = pstats.tasks;
    stats.par_steals = pstats.steals;
    stats.par_seconds = pstats.wall.as_secs_f64();

    let tables = VersionTables {
        consume: consume_slots,
        yield_: yield_slots,
        reliance,
        slot_count: next_slot,
        stats,
    };
    let completion = governor.map_or(Completion::Complete, Governor::completion);
    if completion.is_complete() {
        (tables, completion)
    } else {
        // A trip in an earlier (shared-governor) stage makes these tables
        // untrustworthy too; return the loud placeholder.
        (empty_tables(node_count), completion)
    }
}

/// One object's meld-labelling outcome, with object-local version ids.
struct ObjOutcome {
    /// `(node, consume slot, yield slot)` per participating node, in
    /// local-node discovery order.
    nodes: Vec<(SvfgNodeId, u32, u32)>,
    /// Number of distinct object-local version slots.
    local_slots: u32,
    /// Deduplicated reliance edges `(yield slot → consume slot)`, in
    /// discovery order.
    reliance: Vec<(u32, u32)>,
    /// Fresh prelabels created for this object.
    prelabels: usize,
    /// Edges whose endpoints share a version (no propagation needed).
    edges_collapsed: usize,
}

/// Meld-labels one object's SVFG subgraph. Pure in its inputs: the
/// outcome depends only on `edges`/`stores`/`deltas`, never on other
/// objects or on scheduling, which is what makes the per-object phase
/// safely parallel.
///
/// Returns [`CapacityOverflow`] when the per-object label interner runs
/// out of ids; the ordered reduce in [`build_inner`] surfaces it through
/// the governed-degradation path instead of panicking mid-worker.
fn process_object(
    edges: &[(SvfgNodeId, SvfgNodeId)],
    stores: &[SvfgNodeId],
    deltas: &[SvfgNodeId],
    area: &mut ObjArea,
) -> Result<ObjOutcome, CapacityOverflow> {
    area.clear();
    // Build the local subgraph. SVFG edges are already unique per
    // (from, to, object), so no dedup is needed here.
    for &(f, t) in edges {
        let lf = area.local(f);
        let lt = area.local(t);
        area.succs[lf as usize].push(lt);
    }
    // Prelabels: per-object numbering starts at 0.
    let mut next_pre: u32 = 0;
    for &n in stores {
        let l = area.local(n) as usize;
        area.is_store[l] = true;
        let mut s = SparseBitVector::new();
        s.insert(next_pre);
        next_pre += 1;
        area.yield_pre[l] = Some(s);
    }
    for &n in deltas {
        let l = area.local(n) as usize;
        area.frozen[l] = true;
        let mut s = SparseBitVector::new();
        s.insert(next_pre);
        next_pre += 1;
        area.consume[l] = s;
    }

    // Meld labelling ([EXTERNAL]^V + [INTERNAL]^V) in one linear
    // pass instead of a chaotic fixpoint. Observation: only *relay*
    // nodes (non-store, non-frozen) propagate their consume label
    // onward; stores emit a constant fresh prelabel and frozen δ
    // nodes emit their constant consume prelabel, regardless of what
    // reaches them. So:
    //
    //  1. condense the relay-edge subgraph (edges whose source is a
    //     relay node) into SCCs — all relay members of an SCC end
    //     with the same label;
    //  2. treat every store/frozen out-edge as a constant *injection*
    //     into its target's component;
    //  3. fold components in topological order: each component's
    //     label is the meld of its injections and its predecessor
    //     components' labels — one union per edge, total O(E) melds.
    let n_local = area.nodes.len();
    let mut relay_graph: DiGraph<u32> = DiGraph::with_nodes(n_local);
    for (li, succs) in area.succs.iter().enumerate() {
        let src_is_const = area.yield_pre[li].is_some() || area.frozen[li];
        if src_is_const {
            continue;
        }
        for &t in succs {
            let ti = t as usize;
            if ti != li && !area.frozen[ti] {
                relay_graph.add_edge(li as u32, t);
            }
        }
    }
    let sccs = Sccs::compute(&relay_graph);
    let n_comps = sccs.count();
    let mut comp_label: Vec<SparseBitVector> = vec![SparseBitVector::new(); n_comps];
    // Injections from constant sources.
    for (li, succs) in area.succs.iter().enumerate() {
        let constant: Option<&SparseBitVector> = if let Some(y) = &area.yield_pre[li] {
            Some(y)
        } else if area.frozen[li] {
            Some(&area.consume[li])
        } else {
            None
        };
        let Some(constant) = constant else { continue };
        for &t in succs {
            let ti = t as usize;
            if ti != li && !area.frozen[ti] {
                comp_label[sccs.component(t) as usize].union_with(constant);
            }
        }
    }
    // Fold in topological order (predecessor components have larger
    // ids in `Sccs`' reverse-topological numbering).
    for c in (0..n_comps as u32).rev() {
        if comp_label[c as usize].is_empty() {
            continue;
        }
        // Propagate this component's finished label to successor
        // components (which have smaller ids and are processed later).
        for &m in sccs.members(c) {
            for &t in &area.succs[m as usize] {
                let ti = t as usize;
                if area.frozen[ti] {
                    continue;
                }
                // Only relay members forward the component label.
                if area.yield_pre[m as usize].is_some() || area.frozen[m as usize] {
                    continue;
                }
                let tc = sccs.component(t);
                if tc != c {
                    let (src, dst) = (c as usize, tc as usize);
                    let (a, b) = if src < dst {
                        let (lo, hi) = comp_label.split_at_mut(dst);
                        (&lo[src], &mut hi[0])
                    } else {
                        let (lo, hi) = comp_label.split_at_mut(src);
                        (&hi[0], &mut lo[dst])
                    };
                    b.union_with(a);
                }
            }
        }
    }
    // Write back consume labels for non-frozen nodes.
    for li in 0..n_local {
        if area.frozen[li] {
            continue;
        }
        let c = sccs.component(li as u32) as usize;
        if !comp_label[c].is_empty() {
            area.consume[li].union_with(&comp_label[c]);
        }
    }

    // Intern labels -> object-local versions.
    let mut interner = SbvInterner::new();
    let mut slot_of_label: FxHashMap<u32, u32> = FxHashMap::default();
    let mut local_slots: u32 = 0;
    let mut slot = |label: &SparseBitVector,
                    interner: &mut SbvInterner,
                    slot_of_label: &mut FxHashMap<u32, u32>|
     -> Result<u32, CapacityOverflow> {
        let lid = interner.try_intern(label)?;
        Ok(*slot_of_label.entry(lid).or_insert_with(|| {
            let s = local_slots;
            local_slots += 1;
            s
        }))
    };

    let mut c_slot: Vec<u32> = Vec::with_capacity(area.nodes.len());
    let mut y_slot: Vec<u32> = Vec::with_capacity(area.nodes.len());
    for li in 0..area.nodes.len() {
        let c = slot(&area.consume[li], &mut interner, &mut slot_of_label)?;
        c_slot.push(c);
        let y = match &area.yield_pre[li] {
            Some(yl) => slot(yl, &mut interner, &mut slot_of_label)?,
            None => c,
        };
        y_slot.push(y);
    }
    // Reliance edges ([A-PROP], deduplicated; skipped when shared).
    let mut per_y: Vec<Vec<u32>> = vec![Vec::new(); local_slots as usize];
    let mut rel: Vec<(u32, u32)> = Vec::new();
    let mut edges_collapsed = 0usize;
    for (li, &y) in y_slot.iter().enumerate() {
        for &t in &area.succs[li] {
            let c = c_slot[t as usize];
            if y == c {
                edges_collapsed += 1;
                continue;
            }
            if per_y[y as usize].contains(&c) {
                edges_collapsed += 1;
            } else {
                per_y[y as usize].push(c);
                rel.push((y, c));
            }
        }
    }
    Ok(ObjOutcome {
        nodes: area.nodes.iter().enumerate().map(|(li, &n)| (n, c_slot[li], y_slot[li])).collect(),
        local_slots,
        reliance: rel,
        prelabels: next_pre as usize,
        edges_collapsed,
    })
}

#[cfg(test)]
mod meld_reference_tests {
    //! Differential test: the one-pass SCC meld must match a naive
    //! chaotic-iteration reference on random labelled subgraphs.
    use vsfs_adt::SparseBitVector;
    use vsfs_testkit::gen;

    /// Reference: chaotic iteration of [EXTERNAL]^V/[INTERNAL]^V.
    fn reference_meld(
        n: usize,
        edges: &[(usize, usize)],
        store_yield: &[Option<u32>],
        frozen_pre: &[Option<u32>],
    ) -> Vec<SparseBitVector> {
        let mut consume = vec![SparseBitVector::new(); n];
        for (i, f) in frozen_pre.iter().enumerate() {
            if let Some(l) = f {
                consume[i].insert(*l);
            }
        }
        loop {
            let mut changed = false;
            for &(f, tt) in edges {
                if f == tt || frozen_pre[tt].is_some() {
                    continue;
                }
                let y = match store_yield[f] {
                    Some(l) => {
                        let mut s = SparseBitVector::new();
                        s.insert(l);
                        s
                    }
                    None => consume[f].clone(),
                };
                if consume[tt].union_with(&y) {
                    changed = true;
                }
            }
            if !changed {
                return consume;
            }
        }
    }

    /// The production one-pass algorithm, extracted over the same input
    /// shape (mirrors `build_inner`'s meld stage).
    fn scc_meld(
        n: usize,
        edges: &[(usize, usize)],
        store_yield: &[Option<u32>],
        frozen_pre: &[Option<u32>],
    ) -> Vec<SparseBitVector> {
        use vsfs_graph::{DiGraph, Sccs};
        let mut consume = vec![SparseBitVector::new(); n];
        for (i, f) in frozen_pre.iter().enumerate() {
            if let Some(l) = f {
                consume[i].insert(*l);
            }
        }
        let mut relay: DiGraph<u32> = DiGraph::with_nodes(n);
        for &(f, tt) in edges {
            let src_const = store_yield[f].is_some() || frozen_pre[f].is_some();
            if !src_const && f != tt && frozen_pre[tt].is_none() {
                relay.add_edge(f as u32, tt as u32);
            }
        }
        let sccs = Sccs::compute(&relay);
        let mut comp_label = vec![SparseBitVector::new(); sccs.count()];
        for &(f, tt) in edges {
            let constant = match (store_yield[f], frozen_pre[f]) {
                (Some(l), _) | (None, Some(l)) => Some(l),
                _ => None,
            };
            if let Some(l) = constant {
                if f != tt && frozen_pre[tt].is_none() {
                    comp_label[sccs.component(tt as u32) as usize].insert(l);
                }
            }
        }
        for c in (0..sccs.count() as u32).rev() {
            if comp_label[c as usize].is_empty() {
                continue;
            }
            for &m in sccs.members(c) {
                let mi = m as usize;
                if store_yield[mi].is_some() || frozen_pre[mi].is_some() {
                    continue;
                }
                for &(f, tt) in edges.iter().filter(|&&(f, _)| f == mi) {
                    let _ = f;
                    if tt == mi || frozen_pre[tt].is_some() {
                        continue;
                    }
                    let tc = sccs.component(tt as u32);
                    if tc != c {
                        let (src, dst) = (c as usize, tc as usize);
                        let (a, b) = if src < dst {
                            let (lo, hi) = comp_label.split_at_mut(dst);
                            (&lo[src], &mut hi[0])
                        } else {
                            let (lo, hi) = comp_label.split_at_mut(src);
                            (&hi[0], &mut lo[dst])
                        };
                        b.union_with(a);
                    }
                }
            }
        }
        for i in 0..n {
            if frozen_pre[i].is_some() {
                continue;
            }
            let c = sccs.component(i as u32) as usize;
            if !comp_label[c].is_empty() {
                consume[i].union_with(&comp_label[c]);
            }
        }
        consume
    }

    #[test]
    fn one_pass_matches_reference() {
        vsfs_testkit::check("versioning::one_pass_matches_reference", |rng| {
            let n = rng.gen_range(2usize..12);
            let raw_edges =
                gen::vec_with(rng, 0..40, |r| (r.gen_range(0usize..12), r.gen_range(0usize..12)));
            let kinds = gen::vec_with(rng, 12..12, |r| r.gen_range(0u8..4));
            let edges: Vec<(usize, usize)> =
                raw_edges.into_iter().map(|(a, b)| (a % n, b % n)).collect();
            let mut store_yield = vec![None; n];
            let mut frozen_pre = vec![None; n];
            let mut next = 0u32;
            for i in 0..n {
                match kinds[i] {
                    1 => {
                        store_yield[i] = Some(next);
                        next += 1;
                    }
                    2 => {
                        frozen_pre[i] = Some(next);
                        next += 1;
                    }
                    _ => {}
                }
            }
            let want = reference_meld(n, &edges, &store_yield, &frozen_pre);
            let got = scc_meld(n, &edges, &store_yield, &frozen_pre);
            for i in 0..n {
                assert_eq!(&got[i], &want[i], "node {i} labels differ");
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsfs_ir::parse_program;

    fn pipeline(src: &str) -> (Program, MemorySsa, Svfg, VersionTables) {
        let prog = parse_program(src).unwrap();
        vsfs_ir::verify::verify(&prog).unwrap();
        let aux = vsfs_andersen::analyze(&prog);
        let mssa = MemorySsa::build(&prog, &aux);
        let svfg = Svfg::build(&prog, &aux, &mssa);
        let vt = VersionTables::build(&prog, &mssa, &svfg);
        (prog, mssa, svfg, vt)
    }

    fn inst(prog: &Program, m: &str, nth: usize) -> vsfs_ir::InstId {
        prog.insts
            .iter_enumerated()
            .filter(|(_, i)| i.kind.mnemonic() == m)
            .map(|(id, _)| id)
            .nth(nth)
            .unwrap()
    }

    fn the_obj(prog: &Program, name: &str) -> ObjId {
        prog.objects.iter_enumerated().find(|(_, o)| o.name == name).map(|(id, _)| id).unwrap()
    }

    /// The paper's motivating example (Fig. 2 / 5 / 9): two stores feeding
    /// chains of loads. Loads fed only by store 1 share its yielded
    /// version; loads reached by both stores share the melded version.
    #[test]
    fn versioning_paper_example_sharing() {
        let (prog, _, svfg, vt) = pipeline(
            r#"
            func @main() {
            entry:
              %s = alloc stack O array
              %a = alloc heap A
              %b = alloc heap B
              store %a, %s      // l1: yields k1
              %x2 = load %s     // l2 analog: consumes k1
              %x3 = load %s     // l3 analog: consumes k1
              store %b, %s      // l2-store: consumes k1, yields k2
              %x4 = load %s     // consumes k2
              %x5 = load %s     // consumes k2
              ret
            }
            "#,
        );
        let o = the_obj(&prog, "O");
        let s1 = svfg.inst_node(inst(&prog, "store", 0));
        let s2 = svfg.inst_node(inst(&prog, "store", 1));
        let l2 = svfg.inst_node(inst(&prog, "load", 0));
        let l3 = svfg.inst_node(inst(&prog, "load", 1));
        let l4 = svfg.inst_node(inst(&prog, "load", 2));
        let l5 = svfg.inst_node(inst(&prog, "load", 3));
        // Loads after store 1 share its yielded version.
        let y1 = vt.yield_slot(s1, o).unwrap();
        assert_eq!(vt.consume_slot(l2, o), Some(y1));
        assert_eq!(vt.consume_slot(l3, o), Some(y1));
        // Store 2 consumes y1 but yields a distinct fresh version.
        assert_eq!(vt.consume_slot(s2, o), Some(y1));
        let y2 = vt.yield_slot(s2, o).unwrap();
        assert_ne!(y1, y2);
        // Loads after store 2 share y2.
        assert_eq!(vt.consume_slot(l4, o), Some(y2));
        assert_eq!(vt.consume_slot(l5, o), Some(y2));
        // Fewer reliance constraints than SVFG edges for o.
        assert!(vt.stats.edges_collapsed > 0, "shared versions must collapse edges");
    }

    /// Diamond variant: loads on the join side consume the *meld* of the
    /// two stores' versions and share it (κ1 ⊙ κ2 in the paper).
    #[test]
    fn versioning_meld_at_joins() {
        let (prog, _, svfg, vt) = pipeline(
            r#"
            func @main() {
            entry:
              %s = alloc stack O array
              %a = alloc heap A
              %b = alloc heap B
              store %a, %s
              br l, r
            l:
              store %b, %s
              goto join
            r:
              goto join
            join:
              %x = load %s
              %y = load %s
              ret
            }
            "#,
        );
        let o = the_obj(&prog, "O");
        let lx = svfg.inst_node(inst(&prog, "load", 0));
        let ly = svfg.inst_node(inst(&prog, "load", 1));
        let cx = vt.consume_slot(lx, o).unwrap();
        assert_eq!(vt.consume_slot(ly, o), Some(cx), "both loads share the meld");
        let s1 = svfg.inst_node(inst(&prog, "store", 0));
        let s2 = svfg.inst_node(inst(&prog, "store", 1));
        // The meld differs from both stores' yields (it merges them).
        assert_ne!(Some(cx), vt.yield_slot(s1, o));
        assert_ne!(Some(cx), vt.yield_slot(s2, o));
    }

    /// δ nodes keep their frozen prelabels: the FUNENTRY of an
    /// address-taken function must not have its consume version melded.
    #[test]
    fn delta_consume_is_frozen() {
        let (prog, _, svfg, vt) = pipeline(
            r#"
            global @g
            func @cb() {
            entry:
              %x = load @g
              ret
            }
            func @main() {
            entry:
              %h = alloc heap H
              store %h, @g
              %fp = funaddr @cb
              icall %fp()
              ret
            }
            "#,
        );
        let g = the_obj(&prog, "g");
        let cb = prog.function_by_name("cb").unwrap();
        let entry = svfg.inst_node(prog.functions[cb].entry_inst);
        assert!(svfg.is_delta(entry));
        let c_entry = vt.consume_slot(entry, g).expect("delta prelabel exists");
        let store = svfg.inst_node(inst(&prog, "store", 0));
        // The store's yield must not equal the frozen delta consume: no
        // static meld happened.
        assert_ne!(vt.yield_slot(store, g), Some(c_entry));
        // The load inside cb consumes the entry's (frozen) version.
        let load = svfg.inst_node(inst(&prog, "load", 0));
        assert_eq!(vt.consume_slot(load, g), Some(c_entry));
    }

    /// Nodes unreachable from any store share the ε version (empty
    /// points-to set).
    #[test]
    fn untouched_objects_share_epsilon() {
        let (prog, _, svfg, vt) = pipeline(
            r#"
            global @g
            func @main() {
            entry:
              %x = load @g
              %y = load @g
              ret
            }
            "#,
        );
        let g = the_obj(&prog, "g");
        let lx = svfg.inst_node(inst(&prog, "load", 0));
        let ly = svfg.inst_node(inst(&prog, "load", 1));
        match (vt.consume_slot(lx, g), vt.consume_slot(ly, g)) {
            (Some(a), Some(b)) => assert_eq!(a, b),
            // Both entirely unversioned is also fine (no indirect flow at
            // all means the loads read the empty initial state).
            (None, None) => {}
            other => panic!("asymmetric versions: {other:?}"),
        }
    }

    /// Distinct objects never share slots even when their label bit
    /// patterns coincide (per-object prelabel numbering restarts at 0).
    #[test]
    fn per_object_numbering_does_not_alias_objects() {
        let (prog, _, svfg, vt) = pipeline(
            r#"
            func @main() {
            entry:
              %p = alloc stack P
              %q = alloc stack Q
              %a = alloc heap A
              store %a, %p
              store %a, %q
              %x = load %p
              %y = load %q
              ret
            }
            "#,
        );
        let p = the_obj(&prog, "P");
        let q = the_obj(&prog, "Q");
        let lx = svfg.inst_node(inst(&prog, "load", 0));
        let ly = svfg.inst_node(inst(&prog, "load", 1));
        let cp = vt.consume_slot(lx, p).unwrap();
        let cq = vt.consume_slot(ly, q).unwrap();
        assert_ne!(cp, cq, "slots are per (object, version)");
    }
}
