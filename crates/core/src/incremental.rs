//! Incremental re-solving after function-granularity edits (DESIGN.md §9).
//!
//! A [`ProgramState`] keeps one program's full analysis pipeline resident:
//! source text, parsed [`Program`], auxiliary Andersen result, memory SSA,
//! SVFG, the delivered [`GovernedAnalysis`], and — when the last solve ran
//! to completion — *warm state*: the per-node `IN`/`OUT` tables of the SFS
//! fixpoint plus the [`StableKeys`] and per-node signatures they were
//! computed under.
//!
//! A cold solve runs the engine the workspace names: SFS harvests its
//! own `IN`/`OUT` tables, and VSFS reads the same tables off its version
//! slots (by the paper's central lemma, every node that consumes or
//! yields a version has that version's set as its SFS `IN` or `OUT`).
//!
//! [`resolve_edit`] re-analyses a new version of the source against that
//! warm state:
//!
//! 1. **Correspondence.** Both parses get [`StableKeys`] — name/position
//!    hashes that survive arena renumbering. A node of the new parse
//!    corresponds to the old node with the same key.
//! 2. **Signatures.** Each node's transfer behaviour and incoming edges
//!    are hashed ([`node_signatures`]): instruction content, µ/χ
//!    structure (with the static strong-update bit for stores), memory-φ
//!    incoming defs, direct and indirect predecessors, and — for call,
//!    return-side, and `FUNENTRY` nodes — the auxiliary call-graph
//!    bindings that could wire dynamic edges to them. *Dirty seeds* are
//!    the new nodes with no old counterpart or a changed signature;
//!    removed nodes need no handling of their own because removal changes
//!    every surviving neighbour's signature.
//! 3. **Invalidation by audited waves.** Seeds are closed over their
//!    strongly-connected components of the *conservative* value-flow
//!    graph — static direct and indirect edges plus the candidate
//!    dynamic edges on-the-fly call resolution could activate
//!    (`call → FUNENTRY` and `FUNEXIT → return side` for every deferred
//!    binding pair, plus `call → return side`). The dirty region is
//!    re-solved from the carried frontier; an *audit* then compares, by
//!    stable key, every dirty node's recomputed outputs — top-level sets
//!    of the values it publishes (defs, call arguments, returns), the
//!    per-object value on each indirect edge into a clean node, and its
//!    resolved call activations — against the warm values. Clean
//!    successors whose incoming contributions actually changed are
//!    dirtied (again SCC-closed) and the solve repeats from the enlarged
//!    region. Once an audit passes untouched the combined state is the
//!    exact global least fixpoint: each clean SCC has bit-identical
//!    equations (signature) and boundary inputs (audit), so by induction
//!    over the SCC condensation it keeps its previous solution, and the
//!    dirty region was solved against exactly those values. SCC closure
//!    is what makes the frontier acyclic — it rules out stale facts that
//!    would otherwise sustain themselves around a cycle spanning the
//!    clean/dirty boundary. After `MAX_AUDIT_WAVES` audits, or once
//!    the region covers half the graph, the loop switches to the plain
//!    forward closure of the dirty set (audit-free and exact, at the
//!    price of re-solving everything downstream). The half-graph rule
//!    is checked before the first wave as well: a full-body rewrite's
//!    seed region usually covers most of the graph, and auditing it
//!    would only buy a failed audit and a second near-whole-graph wave,
//!    so it is forward-closed up front and solved once, unaudited. A
//!    VSFS workspace instead solves a region past the half-graph rule
//!    cold: one VSFS solve (versioning included) costs less than one
//!    seeded SFS wave over most of the graph. Local edits stay on the
//!    audited SFS wave whatever the workspace's engine.
//!    Signatures are computed once per front: invalidation reads them
//!    and delivery moves the same table into the new warm state.
//! 4. **Seeding.** Clean nodes' `IN`/`OUT` entries, clean-defined
//!    top-level sets, and clean call activations are carried into a
//!    fresh-epoch [`vsfs_adt::PtsStore`] ([`vsfs_adt::PtsCarry`]) with
//!    objects remapped by key, then handed to the seeded SFS solver,
//!    which re-runs only the dirty region (`crate::sfs`).
//!
//! Any ambiguity (duplicate keys), failed remap, or dropped element
//! falls back to a from-scratch solve — incrementality is a pure
//! optimisation and never changes results, which is exactly what
//! `tests/incremental_equivalence.rs` checks. Every state carries a
//! [`result_fingerprint`]: an ID-independent hash of the delivered
//! points-to relation and call graph, equal across incremental and
//! from-scratch solves of the same text.

use crate::result::{FlowSensitiveResult, GovernedAnalysis};
use crate::sfs::{run_sfs_seeded, SfsHarvest, SfsSeed};
use crate::solver::{solve, solve_harvested, SolveRequest, SolverKind};
use std::cell::OnceCell;
use std::fmt;
use vsfs_adt::govern::{Completion, DegradeReason, Governor};
use vsfs_adt::{FxHashMap, IndexVec, PtsCarry, PtsId};
use vsfs_andersen::{analyze_unify, analyze_with, AndersenResult};
use vsfs_graph::{DiGraph, Sccs};
use vsfs_ir::{Callee, FuncId, InstId, InstKind, ObjId, ObjKind, Program, ValueId};
use vsfs_mssa::MemorySsa;
use vsfs_svfg::stable::{fnv1a, mix, mssa_def_node, KeyMap, KeySet};
use vsfs_svfg::{StableKeys, Svfg, SvfgNodeId, SvfgNodeKind};

/// Audit waves before giving up on change-driven invalidation and
/// switching to the (exact but pessimistic) forward closure. Each wave
/// re-solves the dirty region, so the cap bounds worst-case re-solve
/// work at a small multiple of the final region's cost. Regions past
/// the half-graph rule never reach it: they run one unaudited wave, or
/// a cold solve in a VSFS workspace.
const MAX_AUDIT_WAVES: usize = 4;

/// Knobs for [`solve_program`]/[`resolve_edit`].
#[derive(Debug, Clone, Copy)]
pub struct IncrementalOptions {
    /// Which flow-sensitive solver serves this program. Everything after
    /// the Andersen stage dispatches on [`SolverKind::is_staged`]:
    /// staged solvers build memory SSA + SVFG and re-solve edits by
    /// SVFG-wave invalidation; cold-only solvers skip both and serve
    /// every edit by an exact cold re-solve.
    pub solver: SolverKind,
}

impl Default for IncrementalOptions {
    /// Staged SFS. The server's default is VSFS
    /// (`SolverKind::default()`, as on the CLI); this default stays SFS
    /// because the CI gates of the `incremental_bench` and
    /// `server_bench` bins are calibrated on the SFS engine.
    fn default() -> Self {
        IncrementalOptions { solver: SolverKind::Sfs }
    }
}

/// Why a (re-)solve produced no [`ProgramState`].
#[derive(Debug, Clone)]
pub enum SolveError {
    /// The source failed to parse; one message per recovered diagnostic.
    Parse(Vec<String>),
    /// The parsed program failed IR verification.
    Verify(String),
    /// The auxiliary Andersen stage tripped its budget *on an edit*. An
    /// edit always has something better than any fallback — the previous
    /// state — so it is rejected and that state stays authoritative.
    /// From-scratch loads instead take the second rung of the
    /// degradation ladder ([`solve_program`] delivers a unification
    /// fallback), because there a coarse sound answer beats no answer.
    AuxBudget(DegradeReason),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Parse(errs) => write!(f, "parse failed: {}", errs.join("; ")),
            SolveError::Verify(e) => write!(f, "verification failed: {e}"),
            SolveError::AuxBudget(r) => {
                write!(f, "auxiliary analysis exceeded its budget ({r:?})")
            }
        }
    }
}

/// How a (re-)solve went, for logging and server responses.
#[derive(Debug, Clone, Copy)]
pub struct SolveReport {
    /// Solve-region units in the new parse: SVFG nodes for the staged
    /// solvers, instructions for the cold-only ones (which have no
    /// SVFG).
    pub total_nodes: usize,
    /// Nodes in the invalidated region: `total_nodes` on a cold load,
    /// and on an edit the region the edit dirtied — also when a VSFS
    /// workspace solved that region cold past the half-graph rule.
    pub dirty_nodes: usize,
    /// `true` if the solve was seeded from surviving warm state.
    pub incremental: bool,
    /// `true` if the solve was seeded from a deserialized snapshot
    /// ([`crate::warm::restore_program`]) rather than resident state.
    pub restored: bool,
    /// Points-to sets carried across the epoch boundary.
    pub carried_sets: usize,
    /// Re-solve waves the incremental engine ran: 0 on a cold solve, 1
    /// when the first audit already passed *or* when the region was
    /// past the half-graph rule from the start and ran one unaudited
    /// wave over its forward closure.
    pub waves: usize,
    /// Flow-sensitive solve wall-clock seconds.
    pub solve_seconds: f64,
    /// [`result_fingerprint`] of the delivered result.
    pub fingerprint: u64,
}

/// Warm state of a *completed* flow-sensitive solve: what the next edit
/// seeds from.
pub(crate) struct WarmState {
    /// Per-node transfer/edge signatures under `ProgramState::keys`: the
    /// delivering front's own table, moved in rather than recomputed.
    sigs: IndexVec<SvfgNodeId, u64>,
    /// Final `IN` table, object-sorted per node.
    pub(crate) ins: IndexVec<SvfgNodeId, Vec<(ObjId, PtsId)>>,
    /// Final `OUT` table of STORE nodes.
    pub(crate) outs: IndexVec<SvfgNodeId, Vec<(ObjId, PtsId)>>,
}

/// The staged (SVFG-based) middle of the pipeline — built only for
/// solvers that [`SolverKind::is_staged`].
pub(crate) struct Staged {
    /// Memory SSA over the program and auxiliary result.
    pub(crate) mssa: MemorySsa,
    /// The sparse value-flow graph.
    pub(crate) svfg: Svfg,
}

/// One program resident in the incremental analysis server: the whole
/// pipeline plus optional warm state.
pub struct ProgramState {
    /// The exact source text this state was built from.
    pub source: String,
    /// The parsed program.
    pub prog: Program,
    /// The auxiliary (Andersen) result.
    pub aux: AndersenResult,
    /// The staged pipeline, when `solver` requires it.
    pub(crate) staged: Option<Staged>,
    /// Stable cross-parse keys for `prog` (and the SVFG, when staged).
    pub keys: StableKeys,
    /// The solver this state was solved with; edits re-solve with it.
    pub solver: SolverKind,
    /// The delivered analysis (flow-sensitive, or the Andersen fallback
    /// when the governed solve degraded).
    pub analysis: GovernedAnalysis,
    /// [`result_fingerprint`] of `analysis.result`.
    pub fingerprint: u64,
    /// The engine that produced `analysis`: the solver's name for a
    /// cold solve, `"sfs-wave"` for a seeded SFS re-solve (an edit
    /// wave or a snapshot restore), or the fallback's mode when the
    /// solve degraded.
    pub engine: &'static str,
    pub(crate) warm: Option<WarmState>,
}

impl ProgramState {
    /// `true` if the next [`resolve_edit`] can seed from this state.
    pub fn has_warm_state(&self) -> bool {
        self.warm.is_some()
    }

    /// The memory SSA, when the solver builds the staged pipeline.
    pub fn mssa(&self) -> Option<&MemorySsa> {
        self.staged.as_ref().map(|s| &s.mssa)
    }

    /// The sparse value-flow graph, when the solver builds it.
    pub fn svfg(&self) -> Option<&Svfg> {
        self.staged.as_ref().map(|s| &s.svfg)
    }
}

/// Parses, verifies, and solves `source` from scratch.
///
/// `aux_governor` bounds the auxiliary stage; `fs_governor` bounds the
/// flow-sensitive stage (trip ⇒ the state carries the sound Andersen
/// fallback and no warm state).
///
/// An auxiliary-stage trip takes the *second* rung of the degradation
/// ladder: a unification pre-analysis (ungoverned — it costs a small
/// fraction of the Andersen stage that already consumed the budget)
/// stands in as the delivered result, with `mode` set to
/// `"unification-fallback"` and `degraded_stage` to `"andersen"`. Only
/// [`resolve_edit`] still rejects on `AuxBudget`, because an edit has a
/// previous authoritative state to keep.
pub fn solve_program(
    source: &str,
    opts: IncrementalOptions,
    aux_governor: Option<&Governor>,
    fs_governor: Option<&Governor>,
) -> Result<(ProgramState, SolveReport), SolveError> {
    match build_front_ladder(source, opts, aux_governor)? {
        FrontBuild::Complete(front) => Ok(solve_front(source, *front, fs_governor)),
        FrontBuild::AuxDegraded { prog, aux, reason } => {
            Ok(unify_rung_state(source, *prog, *aux, opts, reason))
        }
    }
}

/// Re-solves `source` — a new version of `prev`'s program — seeding from
/// `prev`'s warm state when possible. Falls back to a from-scratch solve
/// (still returning a fresh state) whenever the warm state is missing,
/// ambiguous, or fails to remap; the result is identical either way.
///
/// On `Err`, `prev` remains the authoritative state for the program.
pub fn resolve_edit(
    prev: &ProgramState,
    source: &str,
    opts: IncrementalOptions,
    aux_governor: Option<&Governor>,
    fs_governor: Option<&Governor>,
) -> Result<(ProgramState, SolveReport), SolveError> {
    let front = build_front(source, opts, aux_governor)?;
    // Capability dispatch: SVFG-wave invalidation only exists for the
    // staged solvers, and warm state never crosses a solver switch.
    // Anything else serves the edit by an exact cold re-solve.
    if !opts.solver.is_staged() || prev.solver != opts.solver {
        return Ok(solve_front(source, front, fs_governor));
    }
    Ok(match WaveCtx::prepare(prev, &front) {
        Some(ctx) => solve_incremental(prev, source, front, fs_governor, ctx),
        None => solve_front(source, front, fs_governor),
    })
}

/// Everything up to (but not including) the flow-sensitive stage.
pub(crate) struct Front {
    pub(crate) prog: Program,
    pub(crate) aux: AndersenResult,
    pub(crate) staged: Option<Staged>,
    pub(crate) keys: StableKeys,
    pub(crate) solver: SolverKind,
    /// [`node_signatures`] of a staged front, computed on first use:
    /// [`WaveCtx::prepare`] reads it and [`deliver`] moves it into the
    /// next [`WarmState`], so every front pays for one pass at most.
    sigs: OnceCell<IndexVec<SvfgNodeId, u64>>,
}

impl Front {
    /// The node signatures of this (staged) front, computed once.
    fn signatures(&self) -> &IndexVec<SvfgNodeId, u64> {
        self.sigs.get_or_init(|| {
            let staged = self.staged.as_ref().expect("signatures need a staged front");
            node_signatures(&self.prog, &self.aux, &staged.mssa, &staged.svfg, &self.keys)
        })
    }
}

/// How the front of the pipeline ended: complete, or with the Andersen
/// stage cut short by its budget. The caller picks the policy — a load
/// takes the unification rung, an edit rejects.
pub(crate) enum FrontBuild {
    Complete(Box<Front>),
    /// The auxiliary stage tripped: the parsed program, the *partial*
    /// (unsound, never to be served) Andersen result, and the reason.
    AuxDegraded {
        prog: Box<Program>,
        aux: Box<AndersenResult>,
        reason: DegradeReason,
    },
}

/// Strict front build: any auxiliary-stage trip is an error. Used by
/// [`resolve_edit`], where the previous state beats any fallback.
pub(crate) fn build_front(
    source: &str,
    opts: IncrementalOptions,
    aux_governor: Option<&Governor>,
) -> Result<Front, SolveError> {
    match build_front_ladder(source, opts, aux_governor)? {
        FrontBuild::Complete(front) => Ok(*front),
        FrontBuild::AuxDegraded { reason, .. } => Err(SolveError::AuxBudget(reason)),
    }
}

pub(crate) fn build_front_ladder(
    source: &str,
    opts: IncrementalOptions,
    aux_governor: Option<&Governor>,
) -> Result<FrontBuild, SolveError> {
    let prog = vsfs_ir::parse_program_all(source)
        .map_err(|errs| SolveError::Parse(errs.iter().map(|e| e.to_string()).collect()))?;
    vsfs_ir::verify::verify(&prog).map_err(|e| SolveError::Verify(e.to_string()))?;
    let outcome = analyze_with(&prog, aux_governor);
    if let Completion::Degraded(reason) = outcome.completion {
        return Ok(FrontBuild::AuxDegraded {
            prog: Box::new(prog),
            aux: Box::new(outcome.result),
            reason,
        });
    }
    let aux = outcome.result;
    let (staged, keys) = if opts.solver.is_staged() {
        let mssa = MemorySsa::build(&prog, &aux);
        let svfg = Svfg::build(&prog, &aux, &mssa);
        let keys = StableKeys::build(&prog, &mssa, &svfg);
        (Some(Staged { mssa, svfg }), keys)
    } else {
        // Cold-only solvers skip the staged pipeline entirely; the
        // program-level keys still back fingerprints and lookups.
        (None, StableKeys::build_program(&prog))
    };
    Ok(FrontBuild::Complete(Box::new(Front {
        prog,
        aux,
        staged,
        keys,
        solver: opts.solver,
        sigs: OnceCell::new(),
    })))
}

/// Packages the second rung of the degradation ladder: the Andersen
/// stage tripped, so an *ungoverned* unification run stands in as the
/// delivered analysis (sound: unify ⊇ andersen ⊇ flow-sensitive per
/// query). Running it ungoverned is deliberate — the governor already
/// tripped, a partially-unified result would be unsound, and the
/// unification fixpoint costs a small fraction of the Andersen stage.
///
/// The state keeps the partial Andersen result as `aux` only so the
/// struct stays total; it is tagged by `analysis.mode ==
/// "unification-fallback"` and must never back checker staging or
/// warm-state harvest (both are disabled for degraded states).
fn unify_rung_state(
    source: &str,
    prog: Program,
    aux: AndersenResult,
    opts: IncrementalOptions,
    reason: DegradeReason,
) -> (ProgramState, SolveReport) {
    let unify = analyze_unify(&prog);
    let analysis = GovernedAnalysis::unify_fallback(&prog, &unify, "andersen", reason);
    let keys = StableKeys::build_program(&prog);
    let total = prog.insts.len();
    let fingerprint = result_fingerprint(&prog, &keys, &analysis.result);
    let report = SolveReport {
        total_nodes: total,
        dirty_nodes: total,
        incremental: false,
        restored: false,
        carried_sets: 0,
        waves: 0,
        solve_seconds: unify.stats.seconds,
        fingerprint,
    };
    let state = ProgramState {
        source: source.to_string(),
        prog,
        aux,
        staged: None,
        keys,
        solver: opts.solver,
        engine: engine_name(&analysis, opts.solver, false),
        analysis,
        fingerprint,
        warm: None,
    };
    (state, report)
}

/// Final bookkeeping of one solve, shared by [`deliver`].
pub(crate) struct Outcome {
    pub(crate) incremental: bool,
    pub(crate) restored: bool,
    pub(crate) dirty_nodes: usize,
    pub(crate) carried_sets: usize,
    pub(crate) waves: usize,
    /// Flow-sensitive seconds from discarded audit waves, added to the
    /// final wave's own timing in the report.
    pub(crate) prior_seconds: f64,
}

/// Runs the flow-sensitive stage cold over `front` and packages the
/// resulting state, dispatching on the front's solver: a staged solver
/// also harvests the warm `IN`/`OUT` tables.
pub(crate) fn solve_front(
    source: &str,
    front: Front,
    fs_governor: Option<&Governor>,
) -> (ProgramState, SolveReport) {
    let Some(staged) = front.staged.as_ref() else {
        return solve_cold_only(source, front, fs_governor);
    };
    let total = staged.svfg.node_count();
    solve_staged_cold(source, front, fs_governor, total, 0.0)
}

/// A cold staged solve, reported with `dirty_nodes` invalidated and the
/// `prior_seconds` of discarded audit waves.
fn solve_staged_cold(
    source: &str,
    front: Front,
    fs_governor: Option<&Governor>,
    dirty_nodes: usize,
    prior_seconds: f64,
) -> (ProgramState, SolveReport) {
    let staged = front.staged.as_ref().expect("a staged front");
    let req = SolveRequest { governor: fs_governor, ..SolveRequest::new(front.solver) };
    let graphs = Some((&staged.mssa, &staged.svfg));
    let (analysis, harvest) = solve_harvested(&front.prog, &front.aux, graphs, req, true);
    let outcome = Outcome {
        incremental: false,
        restored: false,
        dirty_nodes,
        carried_sets: 0,
        waves: 0,
        prior_seconds,
    };
    deliver(source, front, analysis, harvest, outcome)
}

/// Runs a cold-only solver (no SVFG, no warm harvest) through
/// [`solve`] and packages the state; a budget trip still degrades to
/// the sound Andersen fallback.
fn solve_cold_only(
    source: &str,
    front: Front,
    fs_governor: Option<&Governor>,
) -> (ProgramState, SolveReport) {
    let req = SolveRequest { governor: fs_governor, ..SolveRequest::new(front.solver) };
    let analysis = solve(&front.prog, &front.aux, None, req);
    let Front { prog, aux, keys, solver, .. } = front;
    let total = prog.insts.len();
    let fingerprint = result_fingerprint(&prog, &keys, &analysis.result);
    let report = SolveReport {
        total_nodes: total,
        dirty_nodes: total,
        incremental: false,
        restored: false,
        carried_sets: 0,
        waves: 0,
        solve_seconds: analysis.result.stats.solve_seconds,
        fingerprint,
    };
    let state = ProgramState {
        source: source.to_string(),
        prog,
        aux,
        staged: None,
        keys,
        solver,
        engine: engine_name(&analysis, solver, false),
        analysis,
        fingerprint,
        warm: None,
    };
    (state, report)
}

/// Packages a finished flow-sensitive stage into a [`ProgramState`] and
/// [`SolveReport`]: keeps the harvested warm state on completion, and
/// drops it when the analysis is the sound fallback of a budget trip (a
/// degraded result must never be cached as if it were a completed
/// fixpoint).
pub(crate) fn deliver(
    source: &str,
    front: Front,
    analysis: GovernedAnalysis,
    harvest: Option<SfsHarvest>,
    outcome: Outcome,
) -> (ProgramState, SolveReport) {
    let Front { prog, aux, staged, keys, solver, sigs } = front;
    let staged = staged.expect("deliver is only reached by staged solvers");
    let total_nodes = staged.svfg.node_count();
    let warm =
        harvest.filter(|_| analysis.is_complete() && keys.is_unambiguous()).map(|h| WarmState {
            sigs: sigs
                .into_inner()
                .unwrap_or_else(|| node_signatures(&prog, &aux, &staged.mssa, &staged.svfg, &keys)),
            ins: h.ins,
            outs: h.outs,
        });
    let engine = engine_name(&analysis, solver, outcome.incremental || outcome.restored);
    let fingerprint = result_fingerprint(&prog, &keys, &analysis.result);
    let report = SolveReport {
        total_nodes,
        dirty_nodes: outcome.dirty_nodes,
        incremental: outcome.incremental,
        restored: outcome.restored,
        carried_sets: outcome.carried_sets,
        waves: outcome.waves,
        solve_seconds: analysis.result.stats.versioning_seconds
            + analysis.result.stats.solve_seconds
            + outcome.prior_seconds,
        fingerprint,
    };
    let state = ProgramState {
        source: source.to_string(),
        prog,
        aux,
        staged: Some(staged),
        keys,
        solver,
        engine,
        analysis,
        fingerprint,
        warm,
    };
    (state, report)
}

/// The engine that produced `analysis` ([`ProgramState::engine`]): the
/// fallback's mode when degraded, `"sfs-wave"` when it was `seeded`,
/// else the solver's name.
fn engine_name(analysis: &GovernedAnalysis, solver: SolverKind, seeded: bool) -> &'static str {
    if !analysis.is_complete() {
        analysis.mode
    } else if seeded {
        "sfs-wave"
    } else {
        solver.name()
    }
}

/// The invalidation state of one audited-wave solve: the conservative
/// value-flow graph, its SCCs, the (always SCC-closed) dirty set, and
/// whether the next wave still needs an audit.
struct WaveCtx {
    graph: DiGraph<SvfgNodeId>,
    sccs: Sccs<SvfgNodeId>,
    dirty: IndexVec<SvfgNodeId, bool>,
    dirty_count: usize,
    /// `false` once the dirty set is forward-closed: no clean node then
    /// has a dirty predecessor, so a wave's result is final unaudited.
    audited: bool,
}

impl WaveCtx {
    /// Seeds the dirty set from unmapped / signature-changed nodes of
    /// the new SVFG (step 2 of the module docs), SCC-closed. The wave
    /// loop applies the half-graph rule before the first wave. `None`
    /// when only a cold solve is safe (no warm state or ambiguous keys).
    fn prepare(prev: &ProgramState, front: &Front) -> Option<WaveCtx> {
        let warm = prev.warm.as_ref()?;
        let staged = front.staged.as_ref()?;
        let svfg = &staged.svfg;
        if !prev.keys.is_unambiguous() || !front.keys.is_unambiguous() {
            return None;
        }
        let sigs = front.signatures();
        let graph = conservative_graph(&front.prog, svfg);
        let sccs = Sccs::compute(&graph);
        let mut ctx = WaveCtx {
            graph,
            sccs,
            dirty: IndexVec::from_elem_n(false, svfg.node_count()),
            dirty_count: 0,
            audited: true,
        };
        for node in svfg.node_ids() {
            let seed = match prev.keys.node_of_key(front.keys.node_key[node]) {
                Some(old) => warm.sigs[old] != sigs[node],
                None => true,
            };
            if seed {
                ctx.mark_scc(node);
            }
        }

        // Objects of the old parse with no counterpart in the new one
        // make any carried state mentioning them unrepresentable in the
        // new epoch — and certainly stale. Dirty every clean node whose
        // warm state or defined-value set touches one, so the seed never
        // has to carry it (keeping `assemble_seed`'s bail-out a safety
        // net, not a hot path). Dirty nodes carry nothing, so the scan
        // skips them.
        let old_store = &prev.analysis.result.store;
        let mut dead: IndexVec<ObjId, bool> = IndexVec::from_elem_n(false, prev.prog.objects.len());
        let mut any_dead = false;
        for (o, _) in prev.prog.objects.iter_enumerated() {
            if front.keys.obj_of_key(prev.keys.obj_key[o]).is_none() {
                dead[o] = true;
                any_dead = true;
            }
        }
        if any_dead {
            let mut stale_memo: FxHashMap<PtsId, bool> = FxHashMap::default();
            let mut set_stale = |id: PtsId| -> bool {
                *stale_memo.entry(id).or_insert_with(|| old_store.iter_set(id).any(|o| dead[o]))
            };
            for node in svfg.node_ids() {
                if ctx.dirty[node] {
                    continue;
                }
                let Some(old) = prev.keys.node_of_key(front.keys.node_key[node]) else {
                    continue;
                };
                let tainted = warm.ins[old]
                    .iter()
                    .chain(warm.outs[old].iter())
                    .any(|&(o, id)| dead[o] || set_stale(id));
                if tainted {
                    ctx.mark_scc(node);
                }
            }
            let def_node = value_def_nodes(&front.prog, svfg);
            for (v, _) in front.prog.values.iter_enumerated() {
                let Some(node) = def_node[v].filter(|&n| !ctx.dirty[n]) else { continue };
                let Some(old_v) = prev.keys.value_of_key(front.keys.value_key[v]) else {
                    ctx.mark_scc(node);
                    continue;
                };
                if set_stale(prev.analysis.result.pt[old_v]) {
                    ctx.mark_scc(node);
                }
            }
        }
        Some(ctx)
    }

    /// Dirties `node` together with its whole strongly-connected
    /// component, so the clean/dirty frontier never cuts a cycle (a cut
    /// cycle could let a stale fact sustain itself across the boundary).
    fn mark_scc(&mut self, node: SvfgNodeId) {
        for &m in self.sccs.members(self.sccs.component(node)) {
            if !self.dirty[m] {
                self.dirty[m] = true;
                self.dirty_count += 1;
            }
        }
    }

    /// The half-graph rule: the dirty set covers more than half the
    /// graph.
    fn past_half(&self) -> bool {
        self.dirty_count * 2 > self.dirty.len()
    }

    /// Extends the dirty set to its forward closure — the pre-audit
    /// invalidation rule, used as the exact fallback when auditing stops
    /// paying for itself — and turns auditing off.
    fn forward_close(&mut self) {
        self.audited = false;
        let mut queue: Vec<SvfgNodeId> = self.graph.nodes().filter(|&v| self.dirty[v]).collect();
        while let Some(node) = queue.pop() {
            for &s in self.graph.successors(node) {
                if !self.dirty[s] {
                    self.dirty[s] = true;
                    self.dirty_count += 1;
                    queue.push(s);
                }
            }
        }
    }

    /// The clean mask (`!dirty`) for seeding.
    fn clean_mask(&self) -> IndexVec<SvfgNodeId, bool> {
        let mut clean = self.dirty.clone();
        for slot in clean.iter_mut() {
            *slot = !*slot;
        }
        clean
    }
}

/// The conservative value-flow graph dirtiness must respect: static
/// direct and indirect SVFG edges, plus the candidate dynamic edges
/// on-the-fly call-graph resolution could wire during a solve
/// (`call → FUNENTRY` / `FUNEXIT → return side` per deferred binding
/// pair, `call → return side` per call).
fn conservative_graph(prog: &Program, svfg: &Svfg) -> DiGraph<SvfgNodeId> {
    let mut g: DiGraph<SvfgNodeId> = DiGraph::with_nodes(svfg.node_count());
    for node in svfg.node_ids() {
        for &s in svfg.direct_succs(node) {
            g.add_edge(node, s);
        }
        for &(s, _) in svfg.indirect_succs(node) {
            g.add_edge(node, s);
        }
    }
    for (&(call, callee), _) in svfg.call_bindings() {
        let f = &prog.functions[callee];
        g.add_edge(svfg.inst_node(call), svfg.inst_node(f.entry_inst));
        g.add_edge(svfg.inst_node(f.exit_inst), svfg.callret_node(call));
    }
    for (inst, i) in prog.insts.iter_enumerated() {
        if matches!(i.kind, InstKind::Call { .. }) {
            g.add_edge(svfg.inst_node(inst), svfg.callret_node(inst));
        }
    }
    g
}

/// The audited-wave loop (step 3 of the module docs): re-solve the dirty
/// region seeded from the carried frontier, audit the clean side of the
/// boundary for values that actually changed, extend the region and
/// repeat. Falls back to the forward closure after [`MAX_AUDIT_WAVES`]
/// audits or once the region covers half the graph (checked before the
/// first wave too), and to a cold solve whenever the seed fails to
/// assemble. A VSFS workspace solves a region past half the graph cold
/// instead of running the wave.
fn solve_incremental(
    prev: &ProgramState,
    source: &str,
    front: Front,
    fs_governor: Option<&Governor>,
    mut ctx: WaveCtx,
) -> (ProgramState, SolveReport) {
    let warm = prev.warm.as_ref().expect("WaveCtx::prepare checked warm state");
    let mut waves = 0;
    let mut prior_seconds = 0.0;
    loop {
        if ctx.past_half() {
            if front.solver == SolverKind::Vsfs {
                let dirty_nodes = ctx.dirty_count;
                return solve_staged_cold(source, front, fs_governor, dirty_nodes, prior_seconds);
            }
            // A region this large (a full-body rewrite's usually is)
            // would fail its audit and pay for another near-whole-graph
            // wave, so solve its forward closure once, unaudited.
            if ctx.audited {
                ctx.forward_close();
            }
        }
        waves += 1;
        let Some((seed, carried_sets)) = assemble_seed(prev, warm, &front, ctx.clean_mask()) else {
            // Correspondence broke somewhere the cleanliness argument
            // says it cannot: a cold solve is always safe.
            return solve_front(source, front, fs_governor);
        };
        let dirty_nodes = ctx.dirty_count;
        let staged = front.staged.as_ref().expect("WaveCtx::prepare checked staged");
        let (result, completion, harvest) =
            run_sfs_seeded(&front.prog, &front.aux, &staged.mssa, &staged.svfg, fs_governor, seed);
        let outcome = Outcome {
            incremental: true,
            restored: false,
            dirty_nodes,
            carried_sets,
            waves,
            prior_seconds,
        };
        if completion.is_complete() && ctx.audited {
            let h = harvest.as_ref().expect("complete solves always harvest");
            let newly = audit_frontier(prev, warm, &front, &ctx.dirty, &result, h);
            if !newly.is_empty() {
                prior_seconds += result.stats.solve_seconds;
                for node in newly {
                    ctx.mark_scc(node);
                }
                // Once auditing stops paying for itself, the next wave
                // solves the full forward closure, unaudited.
                if waves >= MAX_AUDIT_WAVES {
                    ctx.forward_close();
                }
                continue;
            }
        }
        // Complete and final — or a budget trip, which `deliver` turns
        // into the fallback (auditing a partial fixpoint is meaningless).
        let analysis =
            GovernedAnalysis::from_run(&front.prog, &front.aux, result, completion, "solve");
        return deliver(source, front, analysis, harvest, outcome);
    }
}

/// Compares the recomputed solution of the dirty region against the
/// warm values along every dirty→clean boundary, by stable key. Returns
/// the clean nodes that received a genuinely changed input and must be
/// dirtied (the caller SCC-closes them). Empty ⇒ the combined state is
/// the exact global fixpoint.
///
/// Three kinds of boundary contribution are audited:
/// * **Top-level values** published by a dirty node — its defs, its call
///   arguments (they flow to `FUNENTRY` parameters), and its `FUNEXIT`
///   return operand. A change flags every direct successor, plus the
///   return side and activated callee entries of a call.
/// * **Per-object state** on each indirect edge from a dirty node to a
///   clean one (`out_val` of the edge's object).
/// * **Call activations**: pairs added or removed relative to the warm
///   call graph flag the callee entry and the return side; for surviving
///   pairs of a dirty call, the binding's `ins`/`outs` objects and the
///   callee's return operand are compared like any other edge state.
///
/// Structural edge changes need no audit of their own: signatures embed
/// predecessor key sets, so a node that gained or lost an edge is
/// already a seed.
fn audit_frontier(
    prev: &ProgramState,
    warm: &WarmState,
    front: &Front,
    dirty: &IndexVec<SvfgNodeId, bool>,
    result: &FlowSensitiveResult,
    harvest: &SfsHarvest,
) -> Vec<SvfgNodeId> {
    let svfg = &front.staged.as_ref().expect("audited waves imply a staged front").svfg;
    let prev_svfg = prev.svfg().expect("warm state implies a staged front");
    let old_result = &prev.analysis.result;
    let new_store = &result.store;
    let old_store = &old_result.store;

    // Keyed set equality across the two stores' object id spaces.
    let pts_equal = |new_id: Option<PtsId>, old_id: Option<PtsId>| -> bool {
        let nlen = new_id.map_or(0, |i| new_store.set_len(i));
        let olen = old_id.map_or(0, |i| old_store.set_len(i));
        if nlen != olen {
            return false;
        }
        if nlen == 0 {
            return true;
        }
        let old_id = old_id.expect("olen > 0");
        new_store.iter_set(new_id.expect("nlen > 0")).all(|o| {
            prev.keys
                .obj_of_key(front.keys.obj_key[o])
                .is_some_and(|oo| old_store.contains(old_id, oo))
        })
    };
    let value_changed = |v: ValueId| -> bool {
        match prev.keys.value_of_key(front.keys.value_key[v]) {
            Some(old_v) => !pts_equal(Some(result.pt[v]), Some(old_result.pt[old_v])),
            // A value with no old counterpart published nothing before;
            // its set changed iff it is now non-empty.
            None => !new_store.set_is_empty(result.pt[v]),
        }
    };
    // `out_val` of a node for one object, on each side: OUT for stores,
    // IN otherwise; absent table entry ≡ the empty set.
    let new_out = |node: SvfgNodeId, o: ObjId| -> Option<PtsId> {
        let is_store = matches!(svfg.kind(node), SvfgNodeKind::Inst(i)
            if front.prog.insts[i].kind.is_store());
        let table = if is_store { &harvest.outs[node] } else { &harvest.ins[node] };
        table.binary_search_by_key(&o, |e| e.0).ok().map(|i| table[i].1)
    };
    let old_out = |node: SvfgNodeId, o: ObjId| -> Option<PtsId> {
        let is_store = matches!(prev_svfg.kind(node), SvfgNodeKind::Inst(i)
            if prev.prog.insts[i].kind.is_store());
        let table = if is_store { &warm.outs[node] } else { &warm.ins[node] };
        table.binary_search_by_key(&o, |e| e.0).ok().map(|i| table[i].1)
    };
    let out_changed = |node: SvfgNodeId, o: ObjId| -> bool {
        let old_id = prev
            .keys
            .node_of_key(front.keys.node_key[node])
            .zip(prev.keys.obj_of_key(front.keys.obj_key[o]))
            .and_then(|(n, oo)| old_out(n, oo));
        !pts_equal(new_out(node, o), old_id)
    };

    let mut flagged: IndexVec<SvfgNodeId, bool> = IndexVec::from_elem_n(false, svfg.node_count());
    let mut newly: Vec<SvfgNodeId> = Vec::new();
    let flag = |flagged: &mut IndexVec<SvfgNodeId, bool>,
                newly: &mut Vec<SvfgNodeId>,
                node: SvfgNodeId| {
        if !dirty[node] && !flagged[node] {
            flagged[node] = true;
            newly.push(node);
        }
    };

    // Values published per node (defs live at their defining node; call
    // arguments and return operands are published by the call/exit).
    let def_node = value_def_nodes(&front.prog, svfg);
    let mut published: IndexVec<SvfgNodeId, Vec<ValueId>> =
        IndexVec::from_elem_n(Vec::new(), svfg.node_count());
    for (v, d) in def_node.iter_enumerated() {
        if let Some(d) = *d {
            published[d].push(v);
        }
    }
    // New activations grouped by call site.
    let mut acts: FxHashMap<InstId, Vec<FuncId>> = FxHashMap::default();
    for &(call, f) in &result.callgraph_edges {
        acts.entry(call).or_default().push(f);
    }

    for node in svfg.node_ids() {
        if !dirty[node] {
            continue;
        }
        let mut call_inst = None;
        let mut pubs = std::mem::take(&mut published[node]);
        if let SvfgNodeKind::Inst(inst) = svfg.kind(node) {
            match &front.prog.insts[inst].kind {
                InstKind::Call { args, .. } => {
                    pubs.extend(args.iter().copied());
                    call_inst = Some(inst);
                }
                InstKind::FunExit { ret, .. } => pubs.extend(ret.iter().copied()),
                _ => {}
            }
        }
        if pubs.iter().any(|&v| value_changed(v)) {
            for &s in svfg.direct_succs(node) {
                flag(&mut flagged, &mut newly, s);
            }
            if let Some(call) = call_inst {
                // Dynamic consumers of a call's top-level values: its
                // return side and the entries of every activated callee.
                flag(&mut flagged, &mut newly, svfg.callret_node(call));
                for f in acts.get(&call).into_iter().flatten() {
                    let entry = svfg.inst_node(front.prog.functions[*f].entry_inst);
                    flag(&mut flagged, &mut newly, entry);
                }
            }
        }
        for (s, o) in svfg.indirect_succs_expanded(node) {
            if !dirty[s] && !flagged[s] && out_changed(node, o) {
                flag(&mut flagged, &mut newly, s);
            }
        }
    }

    // Activation audit. Old activations keyed by (call-site key, callee
    // name hash); functions of the new parse looked up by name hash.
    let mut old_acts: KeyMap<KeySet> = KeyMap::new();
    for &(call, f) in &old_result.callgraph_edges {
        old_acts
            .entry(prev.keys.inst_key[call])
            .or_default()
            .insert(fnv1a(prev.prog.functions[f].name.as_bytes()));
    }
    let name_to_func: KeyMap<FuncId> = front
        .prog
        .functions
        .iter_enumerated()
        .map(|(f, func)| (fnv1a(func.name.as_bytes()), f))
        .collect();

    for (call, i) in front.prog.insts.iter_enumerated() {
        if !matches!(i.kind, InstKind::Call { .. }) {
            continue;
        }
        let call_node = svfg.inst_node(call);
        if !dirty[call_node] {
            // A clean call keeps its carried activations and published
            // values verbatim; nothing to audit.
            continue;
        }
        let ret_node = svfg.callret_node(call);
        let old_set = old_acts.get(&front.keys.inst_key[call]);
        let mut new_names: KeySet = KeySet::new();
        for &callee in acts.get(&call).map_or(&[] as &[FuncId], Vec::as_slice) {
            let func = &front.prog.functions[callee];
            let name_hash = fnv1a(func.name.as_bytes());
            new_names.insert(name_hash);
            let entry = svfg.inst_node(func.entry_inst);
            let exit = svfg.inst_node(func.exit_inst);
            if !old_set.is_some_and(|s| s.contains(&name_hash)) {
                // Newly activated pair: both endpoints see new flows.
                flag(&mut flagged, &mut newly, entry);
                flag(&mut flagged, &mut newly, ret_node);
                continue;
            }
            // Surviving pair: audit the object state its dynamic edges
            // carry, like any other boundary edge.
            if let Some(binding) = svfg.call_binding(call, callee) {
                if binding.ins.iter().any(|&o| out_changed(call_node, o)) {
                    flag(&mut flagged, &mut newly, entry);
                }
                if dirty[exit] && binding.outs.iter().any(|&o| out_changed(exit, o)) {
                    flag(&mut flagged, &mut newly, ret_node);
                }
            }
            if dirty[exit] {
                if let InstKind::FunExit { ret: Some(rv), .. } =
                    front.prog.insts[func.exit_inst].kind
                {
                    if value_changed(rv) {
                        flag(&mut flagged, &mut newly, ret_node);
                    }
                }
            }
        }
        // Removed pairs: the stale flows they fed must be rebuilt at
        // both endpoints (when the callee still exists).
        if let Some(olds) = old_set {
            for &h in olds {
                if !new_names.contains(&h) {
                    if let Some(&f) = name_to_func.get(&h) {
                        let entry = svfg.inst_node(front.prog.functions[f].entry_inst);
                        flag(&mut flagged, &mut newly, entry);
                    }
                    flag(&mut flagged, &mut newly, ret_node);
                }
            }
        }
    }

    newly
}

/// Carries the surviving fixpoint state into the new parse's id spaces
/// (step 4 of the module docs). Returns `None` — forcing a cold solve —
/// if any remap fails or drops an element, which the cleanliness
/// argument says cannot happen for state of clean nodes; the bail-out
/// makes correctness independent of that argument.
fn assemble_seed(
    prev: &ProgramState,
    warm: &WarmState,
    front: &Front,
    clean: IndexVec<SvfgNodeId, bool>,
) -> Option<(SfsSeed, usize)> {
    let svfg = &front.staged.as_ref()?.svfg;
    let prev_svfg = prev.svfg()?;
    let old_store = &prev.analysis.result.store;
    let mut store = old_store.next_epoch();
    let mut carry = PtsCarry::new();
    let map_obj = |o: ObjId| -> Option<ObjId> { front.keys.obj_of_key(prev.keys.obj_key[o]) };

    // Top-level sets of values whose defining node is clean.
    let def_node = value_def_nodes(&front.prog, svfg);
    let mut pt: Vec<(ValueId, PtsId)> = Vec::new();
    for (v, _) in front.prog.values.iter_enumerated() {
        let Some(node) = def_node[v] else { continue };
        if !clean[node] {
            continue;
        }
        let Some(old_v) = prev.keys.value_of_key(front.keys.value_key[v]) else {
            return None; // clean def but unmapped value: correspondence is broken
        };
        let id = carry.carry(old_store, &mut store, prev.analysis.result.pt[old_v], map_obj);
        pt.push((v, id));
    }

    // IN/OUT tables of clean nodes.
    let mut ins: Vec<(SvfgNodeId, Vec<(ObjId, PtsId)>)> = Vec::new();
    let mut outs: Vec<(SvfgNodeId, Vec<(ObjId, PtsId)>)> = Vec::new();
    for node in svfg.node_ids() {
        if !clean[node] {
            continue;
        }
        let old = prev.keys.node_of_key(front.keys.node_key[node])?;
        for (table, old_table) in [(&mut ins, &warm.ins[old]), (&mut outs, &warm.outs[old])] {
            if old_table.is_empty() {
                continue;
            }
            let mut entries: Vec<(ObjId, PtsId)> = Vec::with_capacity(old_table.len());
            for &(o, id) in old_table.iter() {
                // The keyed objects of a clean node's state all survive
                // (they appear in its unchanged µ/χ/φ signature).
                let new_o = map_obj(o)?;
                entries.push((new_o, carry.carry(old_store, &mut store, id, map_obj)));
            }
            entries.sort_unstable_by_key(|&(o, _)| o);
            table.push((node, entries));
        }
    }

    // Call-graph activations whose call node is clean.
    let mut activations: Vec<(InstId, FuncId)> = Vec::new();
    for &(call, callee) in &prev.analysis.result.callgraph_edges {
        let old_node = prev_svfg.inst_node(call);
        let Some(node) = front.keys.node_of_key(prev.keys.node_key[old_node]) else {
            continue; // call site removed; its region is dirty anyway
        };
        if !clean[node] {
            continue;
        }
        let SvfgNodeKind::Inst(new_call) = svfg.kind(node) else { return None };
        let name = &prev.prog.functions[callee].name;
        let new_callee = front.prog.function_by_name(name)?;
        activations.push((new_call, new_callee));
    }

    if carry.stats.dropped_elems > 0 {
        return None;
    }
    let carried_sets = carry.stats.carried_sets;
    Some((SfsSeed { store, pt, ins, outs, activations, clean }, carried_sets))
}

/// The SVFG node that defines each value's final top-level set: the
/// return side for call results, `FUNENTRY` for parameters, the
/// instruction node otherwise. `None` for globals (re-seeded by the
/// solver) and never-defined values.
pub(crate) fn value_def_nodes(
    prog: &Program,
    svfg: &Svfg,
) -> IndexVec<ValueId, Option<SvfgNodeId>> {
    let mut def: IndexVec<ValueId, Option<SvfgNodeId>> =
        IndexVec::from_elem_n(None, prog.values.len());
    for (inst, i) in prog.insts.iter_enumerated() {
        if let Some(d) = i.kind.def() {
            def[d] = Some(match i.kind {
                InstKind::Call { .. } => svfg.callret_node(inst),
                _ => svfg.inst_node(inst),
            });
        }
    }
    for (_, func) in prog.functions.iter_enumerated() {
        for &p in &func.params {
            def[p] = Some(svfg.inst_node(func.entry_inst));
        }
    }
    for &(g, _) in &prog.globals {
        def[g] = None;
    }
    def
}

/// Hashes every node's transfer behaviour and incoming-edge structure
/// into one signature (step 2 of the module docs). Two corresponding
/// nodes with equal signatures have identical local fixpoint equations,
/// so a clean region (no dirty node reaches it) keeps its previous
/// solution.
pub fn node_signatures(
    prog: &Program,
    aux: &AndersenResult,
    mssa: &MemorySsa,
    svfg: &Svfg,
    keys: &StableKeys,
) -> IndexVec<SvfgNodeId, u64> {
    let singletons = vsfs_andersen::compute_singletons(prog, &aux.callgraph);
    let fname = |f: FuncId| fnv1a(prog.functions[f].name.as_bytes());
    let vk = |v: ValueId| keys.value_key[v];
    let ok = |o: ObjId| keys.obj_key[o];

    // Direct predecessors, as sorted key lists.
    let mut direct_preds: IndexVec<SvfgNodeId, Vec<u64>> =
        IndexVec::from_elem_n(Vec::new(), svfg.node_count());
    for node in svfg.node_ids() {
        for &s in svfg.direct_succs(node) {
            direct_preds[s].push(keys.node_key[node]);
        }
    }

    // Auxiliary call-graph callers per function, as sorted inst keys —
    // part of every FUNENTRY signature so caller-set changes (new or
    // removed potential call sites) dirty the entry.
    let mut aux_callers: FxHashMap<FuncId, Vec<u64>> = FxHashMap::default();
    for (call, f) in aux.callgraph.edges() {
        aux_callers.entry(f).or_default().push(keys.inst_key[call]);
    }
    for callers in aux_callers.values_mut() {
        callers.sort_unstable();
    }

    let mix_sorted = |h: u64, mut items: Vec<u64>| -> u64 {
        items.sort_unstable();
        let mut h = mix(h, items.len() as u64);
        for item in items {
            h = mix(h, item);
        }
        h
    };
    let binding_hash = |objs: &[ObjId]| -> u64 {
        let mut h = fnv1a(b"bind");
        let mut ks: Vec<u64> = objs.iter().map(|&o| ok(o)).collect();
        ks.sort_unstable();
        for k in ks {
            h = mix(h, k);
        }
        h
    };

    let inst_content = |inst: InstId| -> u64 {
        let kind = &prog.insts[inst].kind;
        let mut h = fnv1a(kind.mnemonic().as_bytes());
        match kind {
            InstKind::Alloc { dst, obj } => {
                h = mix(mix(h, vk(*dst)), ok(*obj));
            }
            InstKind::Phi { dst, srcs } => {
                h = mix(h, vk(*dst));
                for &s in srcs {
                    h = mix(h, vk(s));
                }
            }
            InstKind::Copy { dst, src } => {
                h = mix(mix(h, vk(*dst)), vk(*src));
            }
            InstKind::Field { dst, base, offset } => {
                h = mix(mix(mix(h, vk(*dst)), vk(*base)), *offset as u64);
            }
            InstKind::Load { dst, addr } => {
                h = mix(mix(h, vk(*dst)), vk(*addr));
            }
            InstKind::Store { addr, val } => {
                h = mix(mix(h, vk(*addr)), vk(*val));
            }
            InstKind::Free { ptr } => {
                h = mix(h, vk(*ptr));
            }
            InstKind::Call { dst, callee, args } => {
                h = match dst {
                    Some(d) => mix(mix(h, 1), vk(*d)),
                    None => mix(h, 0),
                };
                h = match callee {
                    Callee::Direct(f) => mix(mix(h, 1), fname(*f)),
                    Callee::Indirect(fp) => mix(mix(h, 2), vk(*fp)),
                };
                for &a in args {
                    h = mix(h, vk(a));
                }
            }
            InstKind::FunEntry { func } => {
                h = mix(h, fname(*func));
                for &p in &prog.functions[*func].params {
                    h = mix(h, vk(p));
                }
            }
            InstKind::FunExit { func, ret } => {
                h = mix(h, fname(*func));
                h = match ret {
                    Some(r) => mix(mix(h, 1), vk(*r)),
                    None => mix(h, 0),
                };
            }
        }
        h
    };

    let mut sigs: IndexVec<SvfgNodeId, u64> = IndexVec::new();
    for node in svfg.node_ids() {
        let mut h = match svfg.kind(node) {
            SvfgNodeKind::Inst(inst) => {
                let mut h = mix(fnv1a(b"sig-inst"), inst_content(inst));
                // µs read object state here (for calls: the relay into
                // callees), keyed by object and reaching definition.
                let mus: Vec<u64> = mssa
                    .mus(inst)
                    .iter()
                    .map(|mu| mix(ok(mu.obj), keys.node_key[mssa_def_node(svfg, mu.def)]))
                    .collect();
                h = mix_sorted(h, mus);
                let kind = &prog.insts[inst].kind;
                if !matches!(kind, InstKind::Call { .. }) {
                    // χs of non-call instructions (stores, frees) attach
                    // here; for stores include the static strong-update
                    // decision, which depends on the auxiliary result.
                    //
                    // A FUNENTRY χ on an object *private* to the function
                    // (allocated here and never escaping) is excluded:
                    // its entry state is constantly absent — no caller
                    // binding can carry a non-escaping object, and the
                    // entry transfer is a pure relay — so gaining or
                    // losing such a χ (any edit that allocates locally)
                    // does not change the entry's fixpoint equation. The
                    // structural edges the χ induces are covered by its
                    // consumers' signatures, and those consumers live in
                    // the edited function.
                    let entry_private = |o: ObjId| -> bool {
                        let InstKind::FunEntry { func } = kind else { return false };
                        if mssa.modref.is_escaped(o) {
                            return false;
                        }
                        let mut o = o;
                        loop {
                            match prog.objects[o].kind {
                                ObjKind::Stack(f) | ObjKind::Heap(f) => return f == *func,
                                ObjKind::Field { base, .. } => o = base,
                                _ => return false,
                            }
                        }
                    };
                    let chis: Vec<u64> = mssa
                        .chis(inst)
                        .iter()
                        .filter(|chi| !entry_private(chi.obj))
                        .map(|chi| {
                            let prev = match chi.prev {
                                Some(d) => keys.node_key[mssa_def_node(svfg, d)],
                                None => u64::MAX,
                            };
                            let mut c = mix(ok(chi.obj), prev);
                            if let InstKind::Store { addr, .. } = kind {
                                let su = singletons.contains(chi.obj)
                                    && aux.value_pts(*addr).as_singleton() == Some(chi.obj);
                                c = mix(c, su as u64);
                            }
                            c
                        })
                        .collect();
                    h = mix_sorted(h, chis);
                }
                if let InstKind::Call { .. } = kind {
                    // Caller-side objects that could flow into each
                    // possible callee (deferred indirect-call bindings).
                    let binds: Vec<u64> = svfg
                        .call_bindings()
                        .filter(|((c, _), _)| *c == inst)
                        .map(|((_, f), b)| mix(fname(*f), binding_hash(&b.ins)))
                        .collect();
                    h = mix_sorted(h, binds);
                }
                if let InstKind::FunEntry { func } = kind {
                    // The auxiliary caller set: a new or removed
                    // potential call site must dirty the entry even when
                    // the entry's own instruction text is unchanged.
                    let callers = aux_callers.get(func).cloned().unwrap_or_default();
                    h = mix(h, callers.len() as u64);
                    for c in callers {
                        h = mix(h, c);
                    }
                }
                h
            }
            SvfgNodeKind::CallRet(inst) => {
                let mut h = mix(fnv1a(b"sig-ret"), inst_content(inst));
                let chis: Vec<u64> = mssa
                    .chis(inst)
                    .iter()
                    .map(|chi| {
                        let prev = match chi.prev {
                            Some(d) => keys.node_key[mssa_def_node(svfg, d)],
                            None => u64::MAX,
                        };
                        mix(ok(chi.obj), prev)
                    })
                    .collect();
                h = mix_sorted(h, chis);
                // Callee-side objects that could flow back from each
                // possible callee.
                let binds: Vec<u64> = svfg
                    .call_bindings()
                    .filter(|((c, _), _)| *c == inst)
                    .map(|((_, f), b)| mix(fname(*f), binding_hash(&b.outs)))
                    .collect();
                h = mix_sorted(h, binds);
                h
            }
            SvfgNodeKind::MemPhi(p) => {
                let phi = &mssa.memphis()[p];
                let mut h = mix(fnv1a(b"sig-phi"), ok(phi.obj));
                h = mix(h, phi.incoming.len() as u64);
                for &d in &phi.incoming {
                    h = mix(h, keys.node_key[mssa_def_node(svfg, d)]);
                }
                h
            }
        };
        // Incoming edges: direct predecessors and object-labelled
        // indirect predecessors.
        h = mix_sorted(h, direct_preds[node].clone());
        let ind: Vec<u64> =
            svfg.indirect_preds_expanded(node).map(|(p, o)| mix(keys.node_key[p], ok(o))).collect();
        h = mix_sorted(h, ind);
        sigs.push(h);
    }
    sigs
}

/// An ID-independent fingerprint of a delivered result: the points-to
/// relation keyed by stable value/object keys plus the resolved call
/// graph keyed by call-site keys and callee names. Two parses of the
/// same text — or an incremental and a from-scratch solve of the same
/// edit — produce the same fingerprint iff they computed the same
/// result.
pub fn result_fingerprint(prog: &Program, keys: &StableKeys, result: &FlowSensitiveResult) -> u64 {
    let mut items: Vec<(u64, Vec<u64>)> = Vec::with_capacity(prog.values.len());
    for (v, _) in prog.values.iter_enumerated() {
        let mut objs: Vec<u64> = result.value_pts(v).iter().map(|o| keys.obj_key[o]).collect();
        objs.sort_unstable();
        items.push((keys.value_key[v], objs));
    }
    items.sort_unstable();
    let mut h = fnv1a(b"fingerprint");
    for (vkey, objs) in items {
        h = mix(h, vkey);
        h = mix(h, objs.len() as u64);
        for o in objs {
            h = mix(h, o);
        }
    }
    let mut edges: Vec<(u64, u64)> = result
        .callgraph_edges
        .iter()
        .map(|&(c, f)| (keys.inst_key[c], fnv1a(prog.functions[f].name.as_bytes())))
        .collect();
    edges.sort_unstable();
    h = mix(h, edges.len() as u64);
    for (c, f) in edges {
        h = mix(h, mix(c, f));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::precision_diff;

    const BASE: &str = r#"
global @g

func @make() {
entry:
  %h = alloc heap H
  ret %h
}

func @use(%p) {
entry:
  %box = alloc stack BOX
  store %p, %box
  %v = load %box
  ret %v
}

func @main() {
entry:
  %a = call @make()
  store %a, @g
  %r = call @use(%a)
  ret
}
"#;

    fn cold(src: &str) -> (ProgramState, SolveReport) {
        solve_program(src, IncrementalOptions::default(), None, None).unwrap()
    }

    #[test]
    fn noop_edit_invalidates_nothing_and_matches() {
        let (state, r0) = cold(BASE);
        assert!(state.has_warm_state());
        let (next, r1) =
            resolve_edit(&state, BASE, IncrementalOptions::default(), None, None).unwrap();
        assert!(r1.incremental);
        assert_eq!(r1.dirty_nodes, 0, "identical text must invalidate nothing");
        assert_eq!(r1.fingerprint, r0.fingerprint);
        assert_eq!(precision_diff(&next.prog, &state.analysis.result, &next.analysis.result), None);
    }

    #[test]
    fn localized_edit_dirties_a_strict_subset_and_matches_cold() {
        let (state, _) = cold(BASE);
        let edited = BASE.replace("%h = alloc heap H", "%h = alloc heap H2");
        let (next, report) =
            resolve_edit(&state, &edited, IncrementalOptions::default(), None, None).unwrap();
        assert!(report.incremental);
        assert!(report.dirty_nodes > 0);
        assert!(
            report.dirty_nodes < report.total_nodes,
            "an edit to one function must not invalidate every node \
             ({}/{} dirty)",
            report.dirty_nodes,
            report.total_nodes
        );
        // Bit-identical to a from-scratch solve of the same text.
        let reference = crate::run_sfs(
            &next.prog,
            &next.aux,
            next.mssa().expect("staged solver"),
            next.svfg().expect("staged solver"),
        );
        assert_eq!(precision_diff(&next.prog, &next.analysis.result, &reference), None);
        assert_eq!(next.fingerprint, result_fingerprint(&next.prog, &next.keys, &reference));
    }

    #[test]
    fn cold_only_solvers_serve_edits_by_exact_cold_resolves() {
        let opts = IncrementalOptions { solver: SolverKind::CfgFree };
        let (state, r0) = solve_program(BASE, opts, None, None).unwrap();
        assert!(!state.has_warm_state());
        assert!(state.svfg().is_none() && state.mssa().is_none());
        let (sfs_state, sfs_r0) = cold(BASE);
        assert_eq!(r0.fingerprint, sfs_r0.fingerprint, "solvers agree on the base text");

        let edited = BASE.replace("%h = alloc heap H", "%h = alloc heap H2");
        let (next, r1) = resolve_edit(&state, &edited, opts, None, None).unwrap();
        assert!(!r1.incremental, "no SVFG, no wave invalidation");
        assert_eq!(r1.dirty_nodes, r1.total_nodes, "the whole program re-solves");
        assert_eq!(next.solver, SolverKind::CfgFree);
        let (sfs_next, sfs_r1) =
            resolve_edit(&sfs_state, &edited, IncrementalOptions::default(), None, None).unwrap();
        assert_eq!(r1.fingerprint, sfs_r1.fingerprint, "solvers agree on the edit");
        assert_eq!(
            precision_diff(&next.prog, &next.analysis.result, &sfs_next.analysis.result),
            None
        );
    }

    #[test]
    fn switching_solvers_between_edits_resolves_cold() {
        let (state, _) = cold(BASE);
        assert!(state.has_warm_state());
        let opts = IncrementalOptions { solver: SolverKind::Vsfs };
        let (next, report) = resolve_edit(&state, BASE, opts, None, None).unwrap();
        assert!(!report.incremental, "warm state never crosses a solver switch");
        assert_eq!(next.solver, SolverKind::Vsfs);
        assert_eq!(next.fingerprint, state.fingerprint);
    }

    #[test]
    fn parse_errors_are_reported_not_panicked() {
        let err = solve_program("func @main( {", IncrementalOptions::default(), None, None)
            .err()
            .expect("must fail");
        assert!(matches!(err, SolveError::Parse(_)));
    }
}
