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
//! 3. **Interning**: each distinct label (a set of prelabels, melded with
//!    bitwise-or) becomes a dense *version*; `(object, version)` pairs
//!    index the global points-to table during solving. The *version
//!    reliance* edges are the deduplicated `[A-PROP]` constraints: one
//!    per `(yield version → consume version)` pair with distinct
//!    endpoints — equal endpoints need no propagation at all, which is
//!    where VSFS wins.
//!
//! # Implementation notes
//!
//! Meld labelling runs one object at a time over that object's edge
//! subgraph, with dense per-object node indices and per-object prelabel
//! numbering (labels of different objects never meld). It allocates
//! nothing per node: each worker's `ObjArea` keeps the subgraph as a CSR,
//! runs [`Tarjan`] on it with the relay filter inline, and holds labels
//! as ids of a [`MeldPool`] — melds are memoized id operations, and
//! equal labels have equal ids, so a version number is a table lookup by
//! label id. All of it is cleared, never freed, between objects. The
//! ordered reduce stores the per-node consume/yield lists as one CSR
//! each instead of a `Vec` per node.

use std::time::Instant;
use vsfs_adt::govern::{Completion, DegradeReason, Governor, Outcome};
use vsfs_adt::meldpool::LabelId;
use vsfs_adt::par::{self, ParConfig};
use vsfs_adt::{CapacityOverflow, MeldPool};
use vsfs_graph::Tarjan;
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
    /// Consume slot per `(node, object)`, sorted by object id per node
    /// (objects are versioned in ascending order), looked up by binary
    /// search.
    consume: SlotLists,
    /// Yield slot per `(node, object)` where it differs from consume
    /// (stores); non-store nodes yield what they consume.
    yield_: SlotLists,
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
        VersionTables::build_with(prog, mssa, svfg, 1, None).result
    }

    /// Builds the version tables using up to `jobs` worker threads
    /// (`0` = all cores) for the per-object meld phase, optionally
    /// governed.
    ///
    /// The result is bit-identical for every `jobs` value: each object's
    /// meld labelling is computed independently with object-local
    /// version numbering, and a sequential reduce in ascending object
    /// order assigns global slot ids as prefix-sum offsets — the same
    /// ids the sequential pass assigns.
    ///
    /// Under a [`Governor`] worker panics are isolated, the parallel
    /// meld phase stops at cancellation, and the sequential reduce checks
    /// the budget once per object. On a trip the outcome is `Degraded`
    /// and the tables are replaced by structurally valid *empty* tables
    /// (no slots, no reliance edges) — partial version numbering is
    /// useless for solving, so callers must treat a degraded outcome as
    /// "no flow-sensitive result" and fall back (as [`crate::solve`]
    /// does).
    pub fn build_with(
        prog: &Program,
        mssa: &MemorySsa,
        svfg: &Svfg,
        jobs: usize,
        governor: Option<&Governor>,
    ) -> Outcome<VersionTables> {
        let start = Instant::now();
        let (mut tables, completion) =
            build_inner(prog, mssa, svfg, ParConfig::new(jobs), governor);
        tables.stats.versions = tables.slot_count as usize;
        tables.stats.seconds = start.elapsed().as_secs_f64();
        Outcome { result: tables, completion }
    }

    /// The version slot consumed by `node` for `obj`, if `(node, obj)`
    /// participates in any indirect flow.
    pub fn consume_slot(&self, node: SvfgNodeId, obj: ObjId) -> Option<VersionSlot> {
        let list = self.consume.get(node);
        list.binary_search_by_key(&obj, |&(o, _)| o).ok().map(|i| list[i].1)
    }

    /// The version slot yielded by `node` for `obj`.
    pub fn yield_slot(&self, node: SvfgNodeId, obj: ObjId) -> Option<VersionSlot> {
        let list = self.yield_.get(node);
        list.binary_search_by_key(&obj, |&(o, _)| o)
            .ok()
            .map(|i| list[i].1)
            .or_else(|| self.consume_slot(node, obj))
    }

    /// Every `(object, version)` pair `node` consumes, sorted by object.
    pub fn consume_entries(&self, node: SvfgNodeId) -> &[(ObjId, VersionSlot)] {
        self.consume.get(node)
    }

    /// Every `(object, version)` pair `node` yields, sorted by object.
    /// Nodes that relay an object unchanged appear only in
    /// [`VersionTables::consume_entries`].
    pub fn yield_entries(&self, node: SvfgNodeId) -> &[(ObjId, VersionSlot)] {
        self.yield_.get(node)
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

/// Per-node `(object, slot)` lists in CSR form: node `n`'s list is
/// `entries[start[n]..start[n + 1]]`. Filled by a count pass (lengths
/// into `start[n + 1]`), [`SlotLists::prepare_fill`], then one
/// [`SlotLists::fill`] per entry.
#[derive(Debug, Clone)]
struct SlotLists {
    start: Vec<u32>,
    entries: Vec<(ObjId, VersionSlot)>,
}

impl SlotLists {
    fn empty(node_count: usize) -> Self {
        SlotLists { start: vec![0; node_count + 1], entries: Vec::new() }
    }

    fn get(&self, n: SvfgNodeId) -> &[(ObjId, VersionSlot)] {
        &self.entries[self.start[n.index()] as usize..self.start[n.index() + 1] as usize]
    }

    /// Turns the counted lengths into fill cursors: `start[n + 1]` holds
    /// node `n`'s first entry and advances to its end as entries arrive.
    fn prepare_fill(&mut self) {
        let mut total = 0u32;
        for d in &mut self.start[1..] {
            let len = *d;
            *d = total;
            total += len;
        }
        self.entries = vec![(ObjId::new(0), 0); total as usize];
    }

    fn fill(&mut self, n: SvfgNodeId, entry: (ObjId, VersionSlot)) {
        let cursor = &mut self.start[n.index() + 1];
        self.entries[*cursor as usize] = entry;
        *cursor += 1;
    }
}

/// Work area reused across objects: its buffers are cleared, never
/// freed, so labelling allocates nothing per node once they have grown.
#[derive(Default)]
struct ObjArea {
    /// Local id per SVFG node of the current object (`u32::MAX` =
    /// absent; reset via `nodes`), and the SVFG node per local id.
    local_of: Vec<u32>,
    nodes: Vec<SvfgNodeId>,
    /// The subgraph as a CSR: local node `l`'s out-edges `(l, t)` are
    /// `succ[succ_start[l]..succ_start[l + 1]]`, in edge order.
    succ_start: Vec<u32>,
    succ: Vec<(u32, u32)>,
    /// Per local node: the yield prelabel of stores and the frozen
    /// consume prelabel of δ nodes, `ε` elsewhere (other nodes yield what
    /// they consume, `[INTERNAL]^V`).
    yield_pre: Vec<LabelId>,
    frozen_pre: Vec<LabelId>,
    /// The SCCs of the relay subgraph, and each component's label.
    sccs: Tarjan,
    comp_label: Vec<LabelId>,
    /// Version per label id (`u32::MAX` = not numbered yet), and the
    /// consume and yield version per node.
    slot_of_label: Vec<u32>,
    c_slot: Vec<u32>,
    y_slot: Vec<u32>,
    /// Scratch pairs (the local edges, then the candidate reliance
    /// edges), the candidates grouped by yield version, and the last
    /// yield version that reached each consume version.
    pairs: Vec<(u32, u32)>,
    grouped: Vec<(u32, u32)>,
    y_start: Vec<u32>,
    seen_by: Vec<u32>,
    /// Hash-consed labels of the current object.
    pool: MeldPool,
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
        self.yield_pre.clear();
        self.frozen_pre.clear();
        self.pairs.clear();
        self.pool.clear();
    }

    fn local(&mut self, n: SvfgNodeId) -> u32 {
        let slot = self.local_of[n.index()];
        if slot != u32::MAX {
            return slot;
        }
        let l = self.nodes.len() as u32;
        self.local_of[n.index()] = l;
        self.nodes.push(n);
        self.yield_pre.push(MeldPool::EMPTY);
        self.frozen_pre.push(MeldPool::EMPTY);
        l
    }

    /// The range of `succ` holding `l`'s out-edges.
    fn out_edges(&self, l: u32) -> std::ops::Range<usize> {
        self.succ_start[l as usize] as usize..self.succ_start[l as usize + 1] as usize
    }

    /// Relay nodes (neither store nor δ) forward the label they consume;
    /// the others emit a constant prelabel whatever reaches them.
    fn is_relay(&self, l: u32) -> bool {
        self.yield_pre[l as usize] == MeldPool::EMPTY && !self.is_frozen(l)
    }

    fn is_frozen(&self, l: u32) -> bool {
        self.frozen_pre[l as usize] != MeldPool::EMPTY
    }
}

/// Structurally valid tables with no versions at all — the degraded
/// placeholder: every lookup misses, `slot_count` is 0.
fn empty_tables(node_count: usize) -> VersionTables {
    VersionTables {
        consume: SlotLists::empty(node_count),
        yield_: SlotLists::empty(node_count),
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
    let run = par::try_run_tasks_with(par, objs.len(), cost, governor, init, worker);
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

    // The meld phase's counters, kept by the degraded placeholder too:
    // a trip in the reduce below still reports the labelling work done.
    let mut stats = VersioningStats {
        prelabels: outcomes.iter().flatten().map(|out| out.prelabels).sum(),
        par_workers: pstats.workers,
        par_tasks: pstats.tasks,
        par_steals: pstats.steals,
        par_seconds: pstats.wall.as_secs_f64(),
        ..VersioningStats::default()
    };
    let degraded = |stats: VersioningStats| VersionTables { stats, ..empty_tables(node_count) };

    // Ordered reduce, count pass: one checkpoint per object (the reduce
    // is sequential, so the trip point is identical for every `jobs`
    // value) and the per-node list lengths.
    let mut consume = SlotLists::empty(node_count);
    let mut yield_ = SlotLists::empty(node_count);
    for (i, out) in outcomes.iter().enumerate() {
        if governor.is_some_and(|g| g.check(1).is_err()) {
            let g = governor.expect("checked above");
            return (degraded(stats), g.completion());
        }
        // A worker that exhausted its label id space reports a typed
        // error instead of panicking; the first one (in ascending object
        // order, so the same for every `jobs` value) degrades the run.
        let out = match out {
            Ok(out) => out,
            Err(overflow) => match governor {
                Some(g) => {
                    g.trip(DegradeReason::CapacityExhausted { resource: "version interner" });
                    return (degraded(stats), g.completion());
                }
                None => panic!("versioning object {}: {overflow}", objs[i].index()),
            },
        };
        for &(n, c, y) in &out.nodes {
            consume.start[n.index() + 1] += 1;
            if y != c {
                yield_.start[n.index() + 1] += 1;
            }
        }
    }
    // Fill pass: ascending object order keeps every node's slot list
    // sorted by object and assigns global ids deterministically.
    consume.prepare_fill();
    yield_.prepare_fill();
    let mut reliance: Vec<Vec<VersionSlot>> = Vec::new();
    let mut next_slot: u32 = 0;
    // Every outcome is `Ok` here: the count pass returned on the first error.
    for (&o, out) in objs.iter().zip(outcomes.iter().flatten()) {
        let base = next_slot;
        next_slot += out.local_slots;
        reliance.resize_with(next_slot as usize, Vec::new);
        for &(n, c, y) in &out.nodes {
            consume.fill(n, (o, base + c));
            if y != c {
                yield_.fill(n, (o, base + y));
            }
        }
        for &(y, c) in &out.reliance {
            reliance[(base + y) as usize].push(base + c);
        }
        stats.reliance_edges += out.reliance.len();
        stats.edges_collapsed += out.edges_collapsed;
    }

    let tables = VersionTables { consume, yield_, reliance, slot_count: next_slot, stats };
    let completion = governor.map_or(Completion::Complete, Governor::completion);
    if completion.is_complete() {
        (tables, completion)
    } else {
        // A trip in an earlier (shared-governor) stage makes these tables
        // untrustworthy too; return the loud placeholder.
        (degraded(tables.stats), completion)
    }
}

/// One object's meld-labelling outcome, with object-local version ids.
#[derive(Debug)]
struct ObjOutcome {
    /// `(node, consume slot, yield slot)` per participating node, in
    /// local-node discovery order.
    nodes: Vec<(SvfgNodeId, u32, u32)>,
    /// Number of distinct object-local version slots.
    local_slots: u32,
    /// Deduplicated reliance edges `(yield slot → consume slot)`,
    /// grouped by ascending yield slot, each group in discovery order.
    reliance: Vec<(u32, u32)>,
    /// Fresh prelabels created for this object.
    prelabels: usize,
    /// Edges whose endpoints share a version (no propagation needed).
    edges_collapsed: usize,
}

/// Stable counting sort of `pairs` by first element (below `buckets`)
/// into `out`: bucket `k` ends up at `out[start[k]..start[k + 1]]`, in
/// input order.
fn group_by_first(
    pairs: &[(u32, u32)],
    buckets: usize,
    start: &mut Vec<u32>,
    out: &mut Vec<(u32, u32)>,
) {
    start.clear();
    start.resize(buckets + 1, 0);
    for &(k, _) in pairs {
        start[k as usize] += 1;
    }
    let mut end = 0;
    for s in start.iter_mut() {
        end += *s;
        *s = end;
    }
    // Each bucket's entry is now its end; filling backwards with
    // pre-decrements keeps input order and leaves it at the start.
    out.clear();
    out.resize(pairs.len(), (0, 0));
    for &p in pairs.iter().rev() {
        let s = &mut start[p.0 as usize];
        *s -= 1;
        out[*s as usize] = p;
    }
}

/// Meld-labels one object's SVFG subgraph. Pure in its inputs: the
/// outcome depends only on `edges`/`stores`/`deltas`, never on other
/// objects or on scheduling, which is what makes the per-object phase
/// safely parallel.
///
/// Returns [`CapacityOverflow`] when the per-object label pool runs out
/// of ids; the ordered reduce in [`build_inner`] surfaces it through the
/// governed-degradation path instead of panicking mid-worker.
fn process_object(
    edges: &[(SvfgNodeId, SvfgNodeId)],
    stores: &[SvfgNodeId],
    deltas: &[SvfgNodeId],
    area: &mut ObjArea,
) -> Result<ObjOutcome, CapacityOverflow> {
    area.clear();
    // Local ids in discovery order: edge endpoints, then stores, then δ
    // nodes. SVFG edges are already unique per (from, to, object), so no
    // dedup is needed.
    for &(f, t) in edges {
        let e = (area.local(f), area.local(t));
        area.pairs.push(e);
    }
    // Prelabels: per-object numbering starts at 0.
    let mut next_pre: u32 = 0;
    for &n in stores {
        let l = area.local(n) as usize;
        area.yield_pre[l] = area.pool.try_singleton(next_pre)?;
        next_pre += 1;
    }
    for &n in deltas {
        let l = area.local(n) as usize;
        area.frozen_pre[l] = area.pool.try_singleton(next_pre)?;
        next_pre += 1;
    }
    let n_local = area.nodes.len() as u32;
    group_by_first(&area.pairs, n_local as usize, &mut area.succ_start, &mut area.succ);

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
    //     components' labels — one memoized meld per edge.
    // The relay subgraph, filtered on the fly: out-edges of relay nodes,
    // minus self-loops and edges into frozen δ nodes.
    let (succ, succ_start) = (&area.succ, &area.succ_start);
    let (yield_pre, frozen_pre) = (&area.yield_pre, &area.frozen_pre);
    let frozen = |l: u32| frozen_pre[l as usize] != MeldPool::EMPTY;
    area.sccs.run(n_local as usize, |v, pos| {
        let vi = v as usize;
        if yield_pre[vi] != MeldPool::EMPTY || frozen(v) {
            return None;
        }
        let edges = &succ[(succ_start[vi] + pos) as usize..succ_start[vi + 1] as usize];
        let k = edges.iter().position(|&(_, t)| t != v && !frozen(t))?;
        Some((pos + k as u32 + 1, edges[k].1))
    });
    let n_comps = area.sccs.count();
    area.comp_label.clear();
    area.comp_label.resize(n_comps, MeldPool::EMPTY);
    for l in 0..n_local {
        if area.is_relay(l) {
            continue;
        }
        let constant = match area.yield_pre[l as usize] {
            MeldPool::EMPTY => area.frozen_pre[l as usize],
            label => label,
        };
        for &(_, t) in &area.succ[area.out_edges(l)] {
            if t != l && !area.is_frozen(t) {
                let tc = area.sccs.component(t) as usize;
                area.comp_label[tc] = area.pool.try_meld(area.comp_label[tc], constant)?;
            }
        }
    }
    // Predecessor components have larger ids in Tarjan's numbering, so a
    // descending sweep finishes each label before forwarding it.
    for c in (0..n_comps).rev() {
        let label = area.comp_label[c];
        if label == MeldPool::EMPTY {
            continue;
        }
        for &m in area.sccs.members(c as u32) {
            // Only relay members forward the component label.
            if !area.is_relay(m) {
                continue;
            }
            for &(_, t) in &area.succ[area.out_edges(m)] {
                let tc = area.sccs.component(t) as usize;
                if tc != c && !area.is_frozen(t) {
                    area.comp_label[tc] = area.pool.try_meld(area.comp_label[tc], label)?;
                }
            }
        }
    }

    // Labels -> object-local versions, numbered by first appearance in
    // local-node order, consume before yield. Equal labels have equal
    // ids, so a label id indexes its version directly.
    area.slot_of_label.clear();
    area.slot_of_label.resize(area.pool.len(), u32::MAX);
    area.c_slot.clear();
    area.y_slot.clear();
    let mut local_slots: u32 = 0;
    let mut slot = |slot_of_label: &mut [u32], label: LabelId| {
        let s = &mut slot_of_label[label as usize];
        if *s == u32::MAX {
            *s = local_slots;
            local_slots += 1;
        }
        *s
    };
    for l in 0..n_local as usize {
        let consume = match area.frozen_pre[l] {
            MeldPool::EMPTY => area.comp_label[area.sccs.component(l as u32) as usize],
            label => label,
        };
        let c = slot(&mut area.slot_of_label, consume);
        let y = match area.yield_pre[l] {
            MeldPool::EMPTY => c,
            label => slot(&mut area.slot_of_label, label),
        };
        area.c_slot.push(c);
        area.y_slot.push(y);
    }

    // Reliance edges ([A-PROP], deduplicated; skipped when shared): the
    // edges whose ends carry different versions, grouped by yield
    // version with each group in discovery order, then deduplicated with
    // one stamp per consume version.
    area.pairs.clear();
    let mut edges_collapsed = 0usize;
    for &(f, t) in &area.succ {
        let (y, c) = (area.y_slot[f as usize], area.c_slot[t as usize]);
        if y == c {
            edges_collapsed += 1;
        } else {
            area.pairs.push((y, c));
        }
    }
    group_by_first(&area.pairs, local_slots as usize, &mut area.y_start, &mut area.grouped);
    area.seen_by.clear();
    area.seen_by.resize(local_slots as usize, u32::MAX);
    let mut reliance: Vec<(u32, u32)> = Vec::new();
    for &(y, c) in &area.grouped {
        if area.seen_by[c as usize] == y {
            edges_collapsed += 1;
        } else {
            area.seen_by[c as usize] = y;
            reliance.push((y, c));
        }
    }
    Ok(ObjOutcome {
        nodes: (area.nodes.iter().zip(&area.c_slot).zip(&area.y_slot))
            .map(|((&n, &c), &y)| (n, c, y))
            .collect(),
        local_slots,
        reliance,
        prelabels: next_pre as usize,
        edges_collapsed,
    })
}

#[cfg(test)]
mod meld_reference_tests {
    //! Differential test: `process_object`'s one-pass SCC meld must match
    //! a naive chaotic-iteration reference on random labelled subgraphs.
    use super::*;
    use vsfs_adt::{FxHashMap, FxHashSet, SparseBitVector};
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
                let y = yield_label(f, store_yield, &consume);
                if consume[tt].union_with(&y) {
                    changed = true;
                }
            }
            if !changed {
                return consume;
            }
        }
    }

    /// `[INTERNAL]^V`: stores yield their prelabel, everything else yields
    /// what it consumes.
    fn yield_label(
        n: usize,
        store_yield: &[Option<u32>],
        consume: &[SparseBitVector],
    ) -> SparseBitVector {
        match store_yield[n] {
            Some(l) => [l].into_iter().collect(),
            None => consume[n].clone(),
        }
    }

    #[test]
    fn one_pass_matches_reference() {
        // Many cheap cases: enough to meet cycles whose members forward
        // out of the cycle, which a broken condensation gets wrong.
        vsfs_testkit::check_cases("versioning::one_pass_matches_reference", 512, |rng| {
            let n = rng.gen_range(2usize..12);
            let raw =
                gen::vec_with(rng, 0..40, |r| (r.gen_range(0usize..12), r.gen_range(0usize..12)));
            let kinds = gen::vec_with(rng, 12..12, |r| r.gen_range(0u8..4));
            // SVFG edges are unique per (from, to, object).
            let mut seen = FxHashSet::default();
            let edges: Vec<(usize, usize)> =
                raw.into_iter().map(|(a, b)| (a % n, b % n)).filter(|&e| seen.insert(e)).collect();
            let sites = |k: u8| (0..n).filter(|&i| kinds[i] == k).collect::<Vec<_>>();
            let (stores, deltas) = (sites(1), sites(2));
            // Prelabels are numbered stores first, then δ nodes, as
            // `process_object` numbers them.
            let (mut store_yield, mut frozen_pre) = (vec![None; n], vec![None; n]);
            for (k, &i) in stores.iter().chain(&deltas).enumerate() {
                let pre = if kinds[i] == 1 { &mut store_yield } else { &mut frozen_pre };
                pre[i] = Some(k as u32);
            }
            let consume = reference_meld(n, &edges, &store_yield, &frozen_pre);
            let yield_of = |i: usize| yield_label(i, &store_yield, &consume);

            let id = |i: usize| SvfgNodeId::new(i as u32);
            let out = process_object(
                &edges.iter().map(|&(f, t)| (id(f), id(t))).collect::<Vec<_>>(),
                &stores.iter().map(|&i| id(i)).collect::<Vec<_>>(),
                &deltas.iter().map(|&i| id(i)).collect::<Vec<_>>(),
                &mut ObjArea::with_node_capacity(n),
            )
            .expect("an unlimited pool never overflows");
            assert_eq!(out.prelabels, stores.len() + deltas.len());

            // Exactly the nodes on an edge or at a prelabel site take part,
            // once each, and a version is a label: two slots are equal
            // exactly when the reference labels are, numbered densely.
            let mut involved = vec![false; n];
            for i in edges.iter().flat_map(|&(f, t)| [f, t]).chain(stores.iter().copied()) {
                involved[i] = true;
            }
            deltas.iter().for_each(|&i| involved[i] = true);
            let mut label_of: FxHashMap<u32, SparseBitVector> = FxHashMap::default();
            for &(node, c, y) in &out.nodes {
                let i = node.index();
                assert!(std::mem::take(&mut involved[i]), "node {i} is uninvolved or repeated");
                for (slot, label) in [(c, consume[i].clone()), (y, yield_of(i))] {
                    let prev = label_of.insert(slot, label.clone());
                    assert!(prev.is_none_or(|p| p == label), "slot {slot} holds two labels");
                }
            }
            assert!(!involved.contains(&true), "an involved node got no versions");
            let labels: FxHashSet<&SparseBitVector> = label_of.values().collect();
            assert_eq!(labels.len(), label_of.len(), "one slot per label");
            assert!(label_of.keys().all(|&s| s < out.local_slots));
            assert_eq!(label_of.len(), out.local_slots as usize);
            // Store yields are distinct fresh versions.
            let yields: FxHashSet<u32> = (out.nodes.iter())
                .filter(|&&(node, _, _)| store_yield[node.index()].is_some())
                .map(|&(_, _, y)| y)
                .collect();
            assert_eq!(yields.len(), stores.len());

            // Reliance is the deduplicated set of [A-PROP] pairs, over
            // labels: every edge's source yield into its target's consume,
            // where they differ.
            let want_rel: FxHashSet<(SparseBitVector, SparseBitVector)> = (edges.iter())
                .map(|&(f, t)| (yield_of(f), consume[t].clone()))
                .filter(|(y, c)| y != c)
                .collect();
            let got_rel: FxHashSet<(SparseBitVector, SparseBitVector)> = out
                .reliance
                .iter()
                .map(|(y, c)| (label_of[y].clone(), label_of[c].clone()))
                .collect();
            assert_eq!(got_rel.len(), out.reliance.len(), "reliance edges are deduplicated");
            assert_eq!(got_rel, want_rel);
            assert_eq!(out.edges_collapsed + out.reliance.len(), edges.len());
        });
    }

    /// A pool capped below the labels an object needs makes the worker
    /// report a typed overflow instead of panicking.
    #[test]
    fn capped_label_pool_reports_overflow() {
        let id = SvfgNodeId::new;
        // Two stores feeding a join: ε, {0}, {1} and the meld {0, 1}.
        let edges = [(id(0), id(2)), (id(1), id(2))];
        let stores = [id(0), id(1)];
        let mut area = ObjArea { pool: MeldPool::with_limit(3), ..ObjArea::with_node_capacity(3) };
        let err = process_object(&edges, &stores, &[], &mut area).unwrap_err();
        assert_eq!(err, CapacityOverflow { limit: 3 });
        // The same area labels a smaller object fine afterwards.
        let out = process_object(&edges[..1], &stores[..1], &[], &mut area).expect("fits");
        assert_eq!(out.local_slots, 2);
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
