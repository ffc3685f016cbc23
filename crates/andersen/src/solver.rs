//! The inclusion-constraint solver.
//!
//! A difference-propagation worklist solver: each node tracks its full
//! points-to set (`pts`) and the prefix that has already been propagated
//! and processed against complex constraints (`prop`). Popping a node
//! processes only the delta. Cycles in the copy graph are collapsed
//! periodically with a full SCC pass over representative nodes (online
//! cycle elimination à la wave propagation); the interval is configurable
//! and collapsing can be disabled entirely — an ablation the benchmark
//! harness exercises. Each collapse pass costs O(nodes + copy edges): the
//! SCC graph over representatives is built with a per-source stamp that
//! drops the duplicate edges earlier merges left in successor lists,
//! rather than a scan of the out-list per edge (quadratic in the
//! out-degree of a hub node).
//!
//! With `jobs > 1` the solver switches to a *sharded wave-propagation*
//! schedule: instead of popping one node at a time it drains the whole
//! worklist into a sorted wave of dirty representatives and processes the
//! wave in three phases — a parallel read-only scan that computes each
//! node's delta and the structural actions it implies, a sequential
//! commit that applies graph mutations in ascending node order, and a
//! parallel union phase that applies delta propagations sharded by
//! *target* node over disjoint `&mut` chunks of the points-to array.
//! Every phase is a pure function of the wave's contents, so the entire
//! run — including when SCC collapses fire — is identical for any
//! `jobs >= 2`, and the final fixpoint matches the sequential schedule
//! because the inclusion constraints have a unique least solution.

use crate::callgraph::CallGraph;
use crate::pag::{CallSiteId, Constraint, Pag, PagNodeId};
use std::panic::{catch_unwind, AssertUnwindSafe};
use vsfs_adt::govern::{panic_message, DegradeReason, Governor, Outcome, WorkerFault};
use vsfs_adt::par::{self, ParConfig};
use vsfs_adt::{
    FifoWorklist, FlatReader, FxHashSet, PointsToSet, PtsId, PtsScratch, PtsStore, PtsStoreStats,
};
use vsfs_graph::{DiGraph, Sccs};
use vsfs_ir::{FuncId, ObjId, Program, ValueId};

/// The empty-set id of the solver's store.
const EMPTY: PtsId = PtsStore::<ObjId>::EMPTY;

/// Tuning knobs for the solver.
#[derive(Debug, Clone, Copy)]
pub struct AndersenConfig {
    /// Run an SCC collapse every this many worklist pops; `None` disables
    /// online cycle elimination.
    pub scc_interval: Option<usize>,
    /// Worker threads for the wave-propagation schedule. `1` (the
    /// default) runs the sequential pop-at-a-time solver; any other
    /// value (including `0` = all cores) runs sharded waves.
    pub jobs: usize,
}

impl Default for AndersenConfig {
    fn default() -> Self {
        AndersenConfig { scc_interval: Some(10_000), jobs: 1 }
    }
}

impl AndersenConfig {
    /// The default configuration with `jobs` worker threads.
    pub fn with_jobs(jobs: usize) -> Self {
        AndersenConfig { jobs, ..Default::default() }
    }
}

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
    /// Waves executed by the parallel schedule (0 for sequential runs).
    pub waves: usize,
    /// Worker threads used by the parallel schedule (0 for sequential runs).
    pub par_workers: usize,
    /// `true` when the union shards were seeded by unification alias
    /// regions ([`crate::solver::analyze_with_config_regions`]).
    pub region_seeded: bool,
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

/// Runs Andersen's analysis with the default configuration.
pub fn analyze(prog: &Program) -> AndersenResult {
    analyze_with_config(prog, AndersenConfig::default())
}

/// Runs Andersen's analysis with an explicit configuration.
pub fn analyze_with_config(prog: &Program, config: AndersenConfig) -> AndersenResult {
    Solver::new(prog, config).run()
}

/// Runs Andersen's analysis with the wave shards seeded by the alias
/// regions of a unification pre-analysis ([`crate::unify`]): the union
/// phase orders its target groups region-major before the cost split,
/// so targets of the same (provably-disjoint) alias region land on the
/// same worker wherever load balance permits. A pure scheduling hint —
/// the result is bit-identical to [`analyze_with_config`] for every
/// `jobs` and every region assignment.
pub fn analyze_with_config_regions(
    prog: &Program,
    config: AndersenConfig,
    regions: &crate::unify::AliasRegions,
) -> AndersenResult {
    let mut solver = Solver::new(prog, config);
    solver.regions = Some(regions.region_of_node.clone());
    solver.run()
}

/// Runs Andersen's analysis under a [`Governor`]: the solver checkpoints
/// at every sequential pop (or wave boundary in the parallel schedule)
/// and stops once the governor trips, and parallel worker panics are
/// caught and reported through the governor instead of aborting.
///
/// **A degraded Andersen result is a partial fixpoint — an
/// under-approximation — and therefore unsound to analyse with or to
/// fall back to.** Callers must treat `Degraded` as an error; only the
/// flow-sensitive stages have a sound fallback (Andersen itself).
///
/// Step accounting caveat: the sequential and wave schedules pop in
/// different granularities, so step budgets are *not* schedule-portable
/// here. Deterministic budget tests target the flow-sensitive stage;
/// this entry point exists to bound wall-clock/memory and to propagate
/// cancellation.
pub fn analyze_governed(
    prog: &Program,
    config: AndersenConfig,
    governor: &Governor,
) -> Outcome<AndersenResult> {
    let mut solver = Solver::new(prog, config);
    solver.gov = Some(governor);
    let result = solver.run();
    Outcome { result, completion: governor.completion() }
}

/// What one wave-scan of a dirty node produced: the node's unprocessed
/// delta and the structural actions it implies. Raw `u32` node ids keep
/// the payload `Send` and compact; representatives are re-resolved at
/// apply time.
#[derive(Default)]
struct WaveOutcome {
    delta: PointsToSet<ObjId>,
    /// New copy edges `(src, dst)` from load/store constraints.
    copy_new: Vec<(u32, u32)>,
    /// Field-object insertions `(gep dst node, field object)`.
    gep_new: Vec<(u32, ObjId)>,
    /// Indirect-call resolutions discovered.
    calls: Vec<(CallSiteId, FuncId)>,
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
    config: AndersenConfig,
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
    /// Alias region of every PAG node, when a unification pre-analysis
    /// seeds the union shards (`u32::MAX` = never points anywhere).
    regions: Option<Vec<u32>>,
    /// Global copy-edge dedup (may contain stale pre-merge pairs, which
    /// only costs an occasional duplicate edge, never correctness).
    edge_seen: FxHashSet<(u32, u32)>,
    callgraph: CallGraph,
    worklist: FifoWorklist<usize>,
    stats: AndersenStats,
}

impl<'p> Solver<'p> {
    fn new(prog: &'p Program, config: AndersenConfig) -> Self {
        let pag = Pag::build(prog);
        let n = pag.node_count();
        Solver {
            prog,
            config,
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
            regions: None,
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
        if self.config.jobs != 1 {
            return self.run_waves();
        }
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
            if let Some(interval) = self.config.scc_interval {
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
                region_seeded: self.regions.is_some(),
                ..self.stats
            },
            flat: FlatReader::new(&self.store, reps),
            store: self.store,
            pts: self.pts,
        }
    }

    /// The sharded wave-propagation schedule (`jobs != 1`).
    ///
    /// Per wave: drain the worklist into a sorted list of dirty
    /// representatives, scan them in parallel (read-only), commit the
    /// resulting graph mutations sequentially in node order, then apply
    /// the copy-edge unions in parallel, sharded by target node. The
    /// schedule — and therefore every counter and merge decision — is a
    /// pure function of the wave contents, independent of thread count.
    fn run_waves(mut self) -> AndersenResult {
        self.init();
        let par = ParConfig::new(self.config.jobs);
        self.stats.par_workers = par.effective_jobs();
        let mut pops_since_scc = 0usize;
        loop {
            // Drain into a deterministic wave of dirty representatives.
            let mut dirty: Vec<usize> = Vec::new();
            while let Some(n) = self.worklist.pop() {
                let r = self.find(n);
                dirty.push(r);
            }
            dirty.sort_unstable();
            dirty.dedup();
            if dirty.is_empty() {
                break;
            }
            if self.gov.is_some_and(|g| g.check(dirty.len() as u64).is_err()) {
                break;
            }
            self.stats.waves += 1;

            // Phase A (parallel, read-only): per-node deltas plus the
            // structural actions they imply. Under a governor the region
            // is cancellable and worker panics degrade instead of
            // unwinding.
            let this = &self;
            let dirty_ref = &dirty;
            let outcomes = match par::try_run_tasks_with(
                par,
                dirty.len(),
                |k| {
                    (this.store.set_len(this.pts[dirty_ref[k]])
                        + this.copy_succs[dirty_ref[k]].len()
                        + 1) as u64
                },
                this.gov,
                || (),
                |(), k| this.wave_scan(dirty_ref[k]),
            ) {
                Ok((outcomes, _)) => outcomes,
                Err(interrupt) => match self.gov {
                    Some(g) => {
                        g.note_interrupt(&interrupt);
                        break;
                    }
                    None => {
                        let f = interrupt.faults.first().expect("ungoverned interrupt has fault");
                        panic!("parallel {f}");
                    }
                },
            };

            // Phase B (sequential): commit deltas to `prop` — interning
            // each delta in wave order, so store ids stay deterministic —
            // then apply structural mutations in ascending node order.
            for (k, out) in outcomes.iter().enumerate() {
                if out.delta.is_empty() {
                    continue;
                }
                self.stats.pops += 1;
                pops_since_scc += 1;
                let did = self.store.intern(&out.delta);
                self.prop[dirty[k]] = self.store.union(self.prop[dirty[k]], did);
            }
            for out in &outcomes {
                for &(src, dst) in &out.copy_new {
                    self.add_copy_edge(src as usize, dst as usize);
                }
                for &(dst, f) in &out.gep_new {
                    let d = self.find(dst as usize);
                    let new = self.store.insert(self.pts[d], f);
                    if new != self.pts[d] {
                        self.pts[d] = new;
                        self.worklist.push(d);
                    }
                }
                for &(cs, callee) in &out.calls {
                    self.resolve_call(cs, callee);
                }
            }

            // Phase C (parallel): propagate deltas along copy edges,
            // sharded by target so each target's unions land on exactly
            // one worker. Messages reference outcomes by index. The
            // successor lists are only read, so resolving targets needs
            // just a split borrow of the union-find — no clone per node.
            let mut msgs: Vec<(u32, u32)> = Vec::new();
            let uf = &mut self.uf;
            for (k, out) in outcomes.iter().enumerate() {
                if out.delta.is_empty() {
                    continue;
                }
                let n = dirty[k];
                for &s in &self.copy_succs[n] {
                    let t = find_in(uf, s as usize);
                    if t != n {
                        msgs.push((t as u32, k as u32));
                    }
                }
            }
            msgs.sort_unstable();
            msgs.dedup();
            self.stats.propagations += msgs.len();
            self.apply_unions(&msgs, &outcomes, par);

            if let Some(interval) = self.config.scc_interval {
                if pops_since_scc >= interval {
                    pops_since_scc = 0;
                    self.collapse_cycles();
                }
            }
        }
        self.finish()
    }

    /// Phase A worker: computes the unprocessed delta of representative
    /// `n` and the actions it implies, without mutating any solver state.
    fn wave_scan(&self, n: usize) -> WaveOutcome {
        let mut out =
            WaveOutcome { delta: self.store.materialize(self.pts[n]), ..Default::default() };
        out.delta.subtract(&self.store.materialize(self.prop[n]));
        if out.delta.is_empty() {
            return out;
        }
        let loads = &self.loads[n];
        let stores = &self.stores[n];
        let geps = &self.geps[n];
        let icalls = &self.icalls[n];
        for o in out.delta.iter().collect::<Vec<_>>() {
            let obj_node = self.pag.object_node(o).raw();
            for &dst in loads {
                out.copy_new.push((obj_node, dst));
            }
            for &val in stores {
                out.copy_new.push((val, obj_node));
            }
            for &(offset, dst) in geps {
                out.gep_new.push((dst, self.prog.field_object(o, offset)));
            }
            if !icalls.is_empty() {
                if let Some(callee) = self.prog.object_as_function(o) {
                    for &cs in icalls {
                        out.calls.push((cs, callee));
                    }
                }
            }
        }
        out
    }

    /// Phase C: applies `msgs` — sorted `(target, outcome index)` union
    /// requests — with one worker per cost-balanced group chunk. Workers
    /// are *read-only* over the shared store: each resolves its targets'
    /// current sets through a [`PtsScratch`], unions the message deltas
    /// into private owned sets, and reports `(target, set)` pairs for the
    /// targets that grew. The sequential barrier then sorts the grown
    /// targets (each target lives on exactly one worker, so the order is
    /// total) and interns them ascending, so store ids and the next wave
    /// are identical for any worker count and any shard assignment.
    ///
    /// When a unification pre-analysis seeds the shards, groups are
    /// ordered region-major before the cost split: targets of the same
    /// alias region — the only ones whose sets can share elements — land
    /// on the same worker wherever balance permits, and an oversized
    /// region still splits rather than serialising the wave.
    fn apply_unions(&mut self, msgs: &[(u32, u32)], outcomes: &[WaveOutcome], par: ParConfig) {
        if msgs.is_empty() {
            return;
        }
        // Group messages by target: (target, msgs start, msgs end).
        let mut groups: Vec<(usize, usize, usize)> = Vec::new();
        for (i, &(t, _)) in msgs.iter().enumerate() {
            match groups.last_mut() {
                Some(g) if g.0 == t as usize => g.2 = i + 1,
                _ => groups.push((t as usize, i, i + 1)),
            }
        }
        if let Some(regions) = &self.regions {
            let region_of = |t: usize| regions.get(t).copied().unwrap_or(u32::MAX);
            groups.sort_by_key(|&(t, _, _)| (region_of(t), t));
        }
        let costs: Vec<u64> = groups.iter().map(|&(_, s, e)| (e - s) as u64).collect();
        let ranges = par::split_by_cost(&costs, par.effective_jobs());

        type ChangedSets = Vec<(usize, PointsToSet<ObjId>)>;
        let this = &*self;
        let grown: Vec<Result<ChangedSets, WorkerFault>> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(ranges.len());
            for r in &ranges {
                if r.is_empty() {
                    continue;
                }
                let chunk_groups = &groups[r.clone()];
                handles.push(scope.spawn(move || {
                    // Union application cannot realistically panic, but
                    // if it ever does the fault must not unwind through
                    // `thread::scope` (two unwinding workers abort the
                    // process). Catch and report instead.
                    catch_unwind(AssertUnwindSafe(move || {
                        let mut scratch = PtsScratch::new(&this.store);
                        for &(t, s, e) in chunk_groups {
                            scratch.union_into(
                                t,
                                this.pts[t],
                                msgs[s..e].iter().map(|&(_, k)| &outcomes[k as usize].delta),
                            );
                        }
                        scratch.into_changed()
                    }))
                    .map_err(|payload| WorkerFault {
                        task: chunk_groups[0].0,
                        message: panic_message(&*payload),
                    })
                }));
            }
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|payload| {
                        Err(WorkerFault { task: usize::MAX, message: panic_message(&*payload) })
                    })
                })
                .collect::<Vec<Result<ChangedSets, WorkerFault>>>()
        });
        let mut all_changed: ChangedSets = Vec::new();
        for outcome in grown {
            match outcome {
                Ok(changed) => all_changed.extend(changed),
                Err(fault) => match self.gov {
                    // The wave-loop checkpoint sees the trip and breaks.
                    Some(g) => g.trip(DegradeReason::WorkerPanic(fault)),
                    None => panic!("parallel {fault}"),
                },
            }
        }
        // Deterministic merge: every target lives on exactly one worker,
        // so sorting gives one total ascending intern order whatever the
        // partition (contiguous, region-seeded, or otherwise).
        all_changed.sort_unstable_by_key(|&(t, _)| t);
        for (t, set) in all_changed {
            self.pts[t] = self.store.intern(&set);
            self.worklist.push(t);
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
        for cfg in [
            AndersenConfig { scc_interval: Some(1), ..Default::default() },
            AndersenConfig { scc_interval: None, ..Default::default() },
        ] {
            let res = analyze_with_config(&prog, cfg);
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
    fn results_invariant_under_scc_interval() {
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
            let base = analyze_with_config(
                &prog,
                AndersenConfig { scc_interval: None, ..Default::default() },
            );
            let scc = analyze_with_config(
                &prog,
                AndersenConfig { scc_interval: Some(1), ..Default::default() },
            );
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

    /// Asserts that `a` and `b` agree on every value/object points-to set
    /// and on the (sorted) call-graph edge set.
    fn assert_same_result(prog: &Program, a: &AndersenResult, b: &AndersenResult, label: &str) {
        for (v, _) in prog.values.iter_enumerated() {
            assert_eq!(
                a.value_pts(v).iter().collect::<Vec<_>>(),
                b.value_pts(v).iter().collect::<Vec<_>>(),
                "{label}: value pts mismatch for {v:?}"
            );
        }
        for (o, _) in prog.objects.iter_enumerated() {
            assert_eq!(
                a.object_pts(o).iter().collect::<Vec<_>>(),
                b.object_pts(o).iter().collect::<Vec<_>>(),
                "{label}: object pts mismatch for {o:?}"
            );
        }
        let edges = |r: &AndersenResult| {
            let mut e: Vec<_> = r.callgraph.edges().collect();
            e.sort();
            e
        };
        assert_eq!(edges(a), edges(b), "{label}: callgraph mismatch");
    }

    #[test]
    fn wave_mode_matches_sequential_at_any_job_count() {
        // Exercises loads, stores, geps, indirect calls, recursion
        // (copy cycles), and multi-target function pointers.
        let prog = parse_program(
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
        )
        .unwrap();
        for scc_interval in [Some(1), Some(4), None] {
            let seq = analyze_with_config(&prog, AndersenConfig { scc_interval, jobs: 1 });
            for jobs in [2usize, 8] {
                let wave = analyze_with_config(&prog, AndersenConfig { scc_interval, jobs });
                assert_same_result(
                    &prog,
                    &seq,
                    &wave,
                    &format!("scc={scc_interval:?} jobs={jobs}"),
                );
                assert!(wave.stats.waves > 0);
                assert_eq!(wave.stats.par_workers, jobs);
            }
        }
    }

    #[test]
    fn region_seeded_waves_match_cost_only_sharding_exactly() {
        let prog = parse_program(
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
              %q = alloc stack B
              %h2 = alloc heap H2
              store %h2, %q
              %y2 = load %q
              %fp0 = funaddr @rec
              store %fp0, @table
              %fp1 = funaddr @g
              store %fp1, @table
              %fp = load @table
              %ic = icall %fp(%p)
              ret
            }
            "#,
        )
        .unwrap();
        let regions = crate::unify::analyze_unify(&prog).alias_regions(prog.objects.len());
        for jobs in [2usize, 4, 8] {
            let cfg = AndersenConfig::with_jobs(jobs);
            let base = analyze_with_config(&prog, cfg);
            let seeded = analyze_with_config_regions(&prog, cfg, &regions);
            assert_same_result(&prog, &base, &seeded, &format!("jobs={jobs}"));
            // Region seeding is a scheduling hint: the internal run must
            // match exactly, not just the fixpoint.
            assert_eq!(base.stats.waves, seeded.stats.waves);
            assert_eq!(base.stats.pops, seeded.stats.pops);
            assert_eq!(base.stats.propagations, seeded.stats.propagations);
            assert!(!base.stats.region_seeded);
            assert!(seeded.stats.region_seeded);
        }
    }

    #[test]
    fn wave_mode_is_bit_identical_across_job_counts() {
        let prog = parse_program(
            r#"
            func @id(%x) {
            entry:
              ret %x
            }
            func @main() {
            entry:
              %pp = alloc stack PP
              %p = alloc stack P
              %h = alloc heap H
              store %p, %pp
              store %h, %p
              %p2 = load %pp
              %r = load %p2
              %c = call @id(%r)
              ret
            }
            "#,
        )
        .unwrap();
        let base = analyze_with_config(&prog, AndersenConfig::with_jobs(2));
        for jobs in [3usize, 8] {
            let other = analyze_with_config(&prog, AndersenConfig::with_jobs(jobs));
            // The wave schedule is thread-count independent, so even the
            // internal run (merges, pushes, counters) matches exactly.
            assert_same_result(&prog, &base, &other, &format!("jobs={jobs}"));
            assert_eq!(base.stats.waves, other.stats.waves);
            assert_eq!(base.stats.pops, other.stats.pops);
            assert_eq!(base.stats.propagations, other.stats.propagations);
            assert_eq!(base.stats.nodes_collapsed, other.stats.nodes_collapsed);
        }
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
        let res = analyze_with_config(
            &prog,
            AndersenConfig { scc_interval: Some(1), ..Default::default() },
        );
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
