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
//!    bindings that could wire dynamic edges to them. A signature sums
//!    per-ingredient hashes, so it is independent of arena order, and
//!    label sets and bindings are hashed once per graph. *Dirty seeds* are
//!    the new nodes with no old counterpart or a changed signature;
//!    removed nodes need no handling of their own because removal changes
//!    every surviving neighbour's signature.
//! 3. **Invalidation by audited waves.** Seeds are closed over their
//!    strongly-connected components of the SVFG dependence graph
//!    (`crate::schedule`) — static direct and indirect edges plus the
//!    candidate dynamic edges on-the-fly call resolution could activate
//!    (`call → FUNENTRY` and `FUNEXIT → return side` for every deferred
//!    binding pair, plus `call → return side`). It is the graph every
//!    cold solve ranks its node worklist by; Tarjan walks it once per
//!    edit, reading the static edges off the SVFG, and the same SCCs rank
//!    the seeded wave's worklist: the graph holds every edge a solve can
//!    use, so its condensation order is topological for the wave. The
//!    dirty region is re-solved from the carried frontier; an *audit*
//!    then compares, by stable key, every dirty node's recomputed
//!    outputs — top-level sets of the values it publishes (defs, call
//!    arguments, returns), the per-object value on each indirect edge
//!    into a clean node, and its resolved call activations — against the
//!    warm values. Clean successors whose incoming contributions actually
//!    changed are dirtied (again SCC-closed) and the solve repeats from
//!    the enlarged region. Once an audit passes untouched the combined
//!    state is the exact global least fixpoint: each clean SCC has
//!    bit-identical equations (signature) and boundary inputs (audit), so
//!    by induction over the SCC condensation it keeps its previous
//!    solution, and the dirty region was solved against exactly those
//!    values. SCC closure is what makes the frontier acyclic — it rules
//!    out stale facts that would otherwise sustain themselves around a
//!    cycle spanning the clean/dirty boundary. Every seeded wave is
//!    audited. The loop has one other exit: a region that covers more
//!    than half the graph (checked before the first wave and after every
//!    audit), or that is still growing after `MAX_AUDIT_WAVES` audits, is
//!    solved cold by the workspace's own engine, SFS or VSFS. A full-body
//!    rewrite's seed region usually covers most of the graph, and a wave
//!    over it would cost about as much as the cold solve and then fail
//!    its audit. Local edits stay on the audited SFS wave whatever the
//!    workspace's engine.
//!    Signatures are computed once per front: invalidation reads them
//!    and delivery moves the same table into the new warm state.
//! 4. **Seeding.** Clean nodes' `IN`/`OUT` rows, clean-defined
//!    top-level sets, and clean call activations are carried into a
//!    fresh-epoch [`vsfs_adt::PtsStore`] ([`vsfs_adt::PtsCarry`]) through
//!    one new→old node vector and one old→new object vector, built once
//!    per edit, then handed to the seeded SFS solver, which re-runs only
//!    the dirty region (`crate::sfs`). The solver creates a node's state
//!    (hash-map rows, difference-propagation frontiers, dirty set) only
//!    when the wave first *touches* it — writes its `IN`/`OUT`/dirty
//!    state or processes it. *First-touch frontier invariant:* the
//!    frontier of a static edge `src --o--> dst` recorded at `src`'s
//!    first touch is `src`'s carried value for `o` when both endpoints
//!    are clean, `EMPTY` otherwise. A clean node's exposed value changes
//!    only through a write to its own state, which touches it first, so
//!    this is the unchanged carried value — what recording every
//!    frontier at seed time would give. The clean predecessors of the
//!    dirty region are touched at seed time to re-offer their values.
//!    The harvest moves the carried rows into the next warm state and
//!    replaces only the rows of touched nodes.
//!
//! Any ambiguity (duplicate keys), failed remap, or dropped element
//! falls back to a from-scratch solve — incrementality is a pure
//! optimisation and never changes results, which is exactly what
//! `tests/incremental_equivalence.rs` checks. Every state carries a
//! [`result_fingerprint`]: an ID-independent hash of the delivered
//! points-to relation and call graph, equal across incremental and
//! from-scratch solves of the same text.

use crate::result::{FlowSensitiveResult, GovernedAnalysis};
use crate::schedule::node_sccs;
use crate::sfs::{run_sfs_seeded, Rows, SfsHarvest, SfsSeed};
use crate::solver::{solve, solve_harvested, SolveRequest, SolverKind};
use std::cell::{Cell, OnceCell};
use std::fmt;
use std::time::Instant;
use vsfs_adt::govern::{Completion, DegradeReason, Governor};
use vsfs_adt::{Adjacency, FxHashMap, IndexVec, PtsCarry, PtsId};
use vsfs_andersen::{analyze_unify, analyze_with, AndersenResult};
use vsfs_graph::Tarjan;
use vsfs_ir::{Callee, FuncId, InstId, InstKind, ObjId, ObjKind, Program, ValueId};
use vsfs_mssa::MemorySsa;
use vsfs_svfg::stable::{fnv1a, mix, mssa_def_node, KeyMap, KeySet};
use vsfs_svfg::{ObjSetId, StableKeys, Svfg, SvfgNodeId, SvfgNodeKind};

/// Audit waves before giving up on change-driven invalidation: a region
/// still growing after this many audits is solved cold by the
/// workspace's engine. Each wave re-solves the dirty region, so the cap
/// bounds the work discarded before the cold solve at a small multiple
/// of the region's cost.
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
    /// and on an edit the region the edit dirtied — also when that region
    /// was solved cold (past the half-graph rule, or after the last
    /// audit).
    pub dirty_nodes: usize,
    /// `true` if the solve was seeded from surviving warm state.
    pub incremental: bool,
    /// `true` if the solve was seeded from a deserialized snapshot
    /// ([`crate::warm::restore_program`]) rather than resident state.
    pub restored: bool,
    /// Points-to sets carried across the epoch boundary.
    pub carried_sets: usize,
    /// Audited seeded waves the incremental engine ran: 0 on a cold load
    /// and on an edit solved cold before its first wave, 1 when the first
    /// audit already passed. An edit solved cold after some waves
    /// (`incremental == false`) counts the waves it discarded.
    pub waves: usize,
    /// Flow-sensitive solve wall-clock seconds.
    pub solve_seconds: f64,
    /// [`result_fingerprint`] of the delivered result.
    pub fingerprint: u64,
    /// Wall-clock seconds per stage of this (re-)solve.
    pub stages: StageSeconds,
}

/// Wall-clock seconds of each stage of one (re-)solve, summed over its
/// waves. A stage the path did not run reads 0. The first five are the
/// front, timed at its stage boundaries.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageSeconds {
    /// Parsing and verification.
    pub parse: f64,
    /// The auxiliary Andersen analysis.
    pub andersen: f64,
    /// Memory SSA construction (staged solvers only).
    pub mssa: f64,
    /// SVFG construction (staged solvers only).
    pub svfg: f64,
    /// Stable cross-parse keys.
    pub keys: f64,
    /// [`node_signatures`].
    pub signatures: f64,
    /// Invalidation: old/new correspondence, the dependence graph's
    /// SCCs and the dirty seeds, then each wave's audit and growth of the
    /// region.
    pub invalidate: f64,
    /// Carrying the clean state into the new parse (seed assembly).
    pub seed: f64,
    /// The flow-sensitive solve, solver set-up included: the seeded
    /// waves of an edit, or the whole cold solve (with its warm-table
    /// harvest) of a load.
    pub wave: f64,
    /// The seeded waves' harvest of the warm `IN`/`OUT` tables.
    pub harvest: f64,
    /// [`result_fingerprint`].
    pub fingerprint: f64,
}

impl StageSeconds {
    /// `self` with the front stages taken from `front`.
    fn with_front(self, front: &StageSeconds) -> StageSeconds {
        StageSeconds {
            parse: front.parse,
            andersen: front.andersen,
            mssa: front.mssa,
            svfg: front.svfg,
            keys: front.keys,
            ..self
        }
    }
}

/// Warm state of a *completed* flow-sensitive solve: what the next edit
/// seeds from.
pub(crate) struct WarmState {
    /// Per-node transfer/edge signatures under `ProgramState::keys`: the
    /// delivering front's own table, moved in rather than recomputed.
    sigs: IndexVec<SvfgNodeId, u64>,
    /// Final `IN` table, object-sorted per node.
    pub(crate) ins: Rows,
    /// Final `OUT` table of STORE nodes.
    pub(crate) outs: Rows,
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
        FrontBuild::AuxDegraded { prog, aux, reason, stages } => {
            Ok(unify_rung_state(source, *prog, *aux, opts, reason, stages))
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
    let t = Instant::now();
    let ctx = WaveCtx::prepare(prev, &front);
    // `prepare` computes the signatures; they are a stage of their own.
    let stages = StageSeconds {
        invalidate: t.elapsed().as_secs_f64() - front.sig_seconds.get(),
        ..StageSeconds::default()
    };
    Ok(match ctx {
        Some(ctx) => solve_incremental(prev, source, front, fs_governor, ctx, stages),
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
    /// Seconds of each front stage (the rest read 0).
    front_stages: StageSeconds,
    /// Seconds the signatures took, once computed.
    sig_seconds: Cell<f64>,
}

impl Front {
    /// The node signatures of this (staged) front, computed once.
    fn signatures(&self) -> &IndexVec<SvfgNodeId, u64> {
        self.sigs.get_or_init(|| {
            let t = Instant::now();
            let staged = self.staged.as_ref().expect("signatures need a staged front");
            let sigs =
                node_signatures(&self.prog, &self.aux, &staged.mssa, &staged.svfg, &self.keys);
            self.sig_seconds.set(t.elapsed().as_secs_f64());
            sigs
        })
    }
}

/// How the front of the pipeline ended: complete, or with the Andersen
/// stage cut short by its budget. The caller picks the policy — a load
/// takes the unification rung, an edit rejects.
pub(crate) enum FrontBuild {
    Complete(Box<Front>),
    /// The auxiliary stage tripped: the parsed program, the *partial*
    /// (unsound, never to be served) Andersen result, the reason, and
    /// the seconds of the front stages that ran.
    AuxDegraded {
        prog: Box<Program>,
        aux: Box<AndersenResult>,
        reason: DegradeReason,
        stages: StageSeconds,
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
    let mut stages = StageSeconds::default();
    let mut t = Instant::now();
    // Seconds since the previous stage boundary.
    let mut lap = || {
        let secs = t.elapsed().as_secs_f64();
        t = Instant::now();
        secs
    };
    let prog = vsfs_ir::parse_program_all(source)
        .map_err(|errs| SolveError::Parse(errs.iter().map(|e| e.to_string()).collect()))?;
    vsfs_ir::verify::verify(&prog).map_err(|e| SolveError::Verify(e.to_string()))?;
    stages.parse = lap();
    let outcome = analyze_with(&prog, aux_governor);
    stages.andersen = lap();
    if let Completion::Degraded(reason) = outcome.completion {
        return Ok(FrontBuild::AuxDegraded {
            prog: Box::new(prog),
            aux: Box::new(outcome.result),
            reason,
            stages,
        });
    }
    let aux = outcome.result;
    let (staged, keys) = if opts.solver.is_staged() {
        let mssa = MemorySsa::build(&prog, &aux);
        stages.mssa = lap();
        let svfg = Svfg::build(&prog, &aux, &mssa);
        stages.svfg = lap();
        let keys = StableKeys::build(&prog, &mssa, &svfg);
        (Some(Staged { mssa, svfg }), keys)
    } else {
        // Cold-only solvers skip the staged pipeline entirely; the
        // program-level keys still back fingerprints and lookups.
        (None, StableKeys::build_program(&prog))
    };
    stages.keys = lap();
    Ok(FrontBuild::Complete(Box::new(Front {
        prog,
        aux,
        staged,
        keys,
        solver: opts.solver,
        sigs: OnceCell::new(),
        front_stages: stages,
        sig_seconds: Cell::new(0.0),
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
    front_stages: StageSeconds,
) -> (ProgramState, SolveReport) {
    let unify = analyze_unify(&prog);
    let analysis = GovernedAnalysis::unify_fallback(&prog, &unify, "andersen", reason);
    let keys = StableKeys::build_program(&prog);
    let total = prog.insts.len();
    let stages = StageSeconds { wave: unify.stats.seconds, ..front_stages };
    let (fingerprint, stages) = timed_fingerprint(&prog, &keys, &analysis.result, stages);
    let report = SolveReport {
        total_nodes: total,
        dirty_nodes: total,
        incremental: false,
        restored: false,
        carried_sets: 0,
        waves: 0,
        solve_seconds: unify.stats.seconds,
        fingerprint,
        stages,
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

/// [`result_fingerprint`], with its seconds recorded in `stages`.
pub(crate) fn timed_fingerprint(
    prog: &Program,
    keys: &StableKeys,
    result: &FlowSensitiveResult,
    mut stages: StageSeconds,
) -> (u64, StageSeconds) {
    let t = Instant::now();
    let fingerprint = result_fingerprint(prog, keys, result);
    stages.fingerprint = t.elapsed().as_secs_f64();
    (fingerprint, stages)
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
    /// Stage seconds so far; [`deliver`] adds the front, signature and
    /// fingerprint stages.
    pub(crate) stages: StageSeconds,
    /// [`result_fingerprint`] of the delivered result when the caller
    /// already computed it (its seconds in `stages`); [`deliver`]
    /// computes it otherwise.
    pub(crate) fingerprint: Option<u64>,
}

impl Outcome {
    /// A cold solve that invalidated `dirty_nodes`.
    pub(crate) fn cold(dirty_nodes: usize) -> Outcome {
        Outcome {
            incremental: false,
            restored: false,
            dirty_nodes,
            carried_sets: 0,
            waves: 0,
            prior_seconds: 0.0,
            stages: StageSeconds::default(),
            fingerprint: None,
        }
    }
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
    solve_staged_cold(source, front, fs_governor, Outcome::cold(total))
}

/// A cold staged solve with the workspace's own engine, reported with
/// the invalidated region, the discarded audit waves and the stages
/// `outcome` brings from before it.
fn solve_staged_cold(
    source: &str,
    front: Front,
    fs_governor: Option<&Governor>,
    mut outcome: Outcome,
) -> (ProgramState, SolveReport) {
    let staged = front.staged.as_ref().expect("a staged front");
    let req = SolveRequest { governor: fs_governor, ..SolveRequest::new(front.solver) };
    let graphs = Some((&staged.mssa, &staged.svfg));
    let t = Instant::now();
    let (analysis, harvest) = solve_harvested(&front.prog, &front.aux, graphs, req, true);
    outcome.stages.wave += t.elapsed().as_secs_f64();
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
    let t = Instant::now();
    let analysis = solve(&front.prog, &front.aux, None, req);
    let stages = StageSeconds { wave: t.elapsed().as_secs_f64(), ..front.front_stages };
    let Front { prog, aux, keys, solver, .. } = front;
    let total = prog.insts.len();
    let (fingerprint, stages) = timed_fingerprint(&prog, &keys, &analysis.result, stages);
    let report = SolveReport {
        total_nodes: total,
        dirty_nodes: total,
        incremental: false,
        restored: false,
        carried_sets: 0,
        waves: 0,
        solve_seconds: analysis.result.stats.solve_seconds,
        fingerprint,
        stages,
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
    let harvest = harvest.filter(|_| analysis.is_complete() && front.keys.is_unambiguous());
    if harvest.is_some() {
        front.signatures();
    }
    let mut stages = outcome.stages.with_front(&front.front_stages);
    stages.signatures = front.sig_seconds.get();
    let Front { prog, aux, staged, keys, solver, sigs, .. } = front;
    let staged = staged.expect("deliver is only reached by staged solvers");
    let total_nodes = staged.svfg.node_count();
    let warm = harvest.map(|h| WarmState {
        sigs: sigs.into_inner().expect("signatures computed above"),
        ins: h.ins,
        outs: h.outs,
    });
    let engine = engine_name(&analysis, solver, outcome.incremental || outcome.restored);
    let (fingerprint, stages) = match outcome.fingerprint {
        Some(fingerprint) => (fingerprint, stages),
        None => timed_fingerprint(&prog, &keys, &analysis.result, stages),
    };
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
        stages,
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

/// The invalidation state of one audited-wave solve: the correspondence
/// with the previous parse, the SCCs of the SVFG dependence graph and
/// the (always SCC-closed) dirty set. None of it outlives the edit.
struct WaveCtx {
    /// `old_node[n]`: the previous parse's node with `n`'s stable key.
    old_node: IndexVec<SvfgNodeId, Option<SvfgNodeId>>,
    /// `new_obj[o]`: the new parse's object with old object `o`'s key.
    new_obj: IndexVec<ObjId, Option<ObjId>>,
    /// [`value_def_nodes`] of the new parse.
    def_node: IndexVec<ValueId, Option<SvfgNodeId>>,
    /// SCCs of the SVFG dependence graph ([`node_sccs`]).
    sccs: Tarjan,
    dirty: IndexVec<SvfgNodeId, bool>,
    dirty_count: usize,
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
        let mut ctx = WaveCtx {
            old_node: svfg
                .node_ids()
                .map(|n| prev.keys.node_of_key(front.keys.node_key[n]))
                .collect(),
            new_obj: prev.keys.obj_key.iter().map(|&k| front.keys.obj_of_key(k)).collect(),
            def_node: value_def_nodes(&front.prog, svfg),
            sccs: node_sccs(&front.prog, svfg),
            dirty: IndexVec::from_elem_n(false, svfg.node_count()),
            dirty_count: 0,
        };
        for node in svfg.node_ids() {
            let seed = match ctx.old_node[node] {
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
        if ctx.new_obj.iter().all(Option::is_some) {
            return Some(ctx);
        }
        let old_store = &prev.analysis.result.store;
        // Per old set id: 0 unknown, 1 fresh, 2 mentions a dead object.
        let mut stale_memo: Vec<u8> = vec![0; old_store.len()];
        let new_obj = &ctx.new_obj;
        let mut set_stale = |id: PtsId| -> bool {
            let memo = &mut stale_memo[id.index()];
            if *memo == 0 {
                *memo = 1 + old_store.iter_set(id).any(|o| new_obj[o].is_none()) as u8;
            }
            *memo == 2
        };
        let mut stale: Vec<SvfgNodeId> = Vec::new();
        for node in svfg.node_ids() {
            let Some(old) = ctx.old_node[node].filter(|_| !ctx.dirty[node]) else { continue };
            let tainted = warm
                .ins
                .row(old)
                .iter()
                .chain(warm.outs.row(old))
                .any(|&(o, id)| new_obj[o].is_none() || set_stale(id));
            if tainted {
                stale.push(node);
            }
        }
        for (v, _) in front.prog.values.iter_enumerated() {
            let Some(node) = ctx.def_node[v].filter(|&n| !ctx.dirty[n]) else { continue };
            match prev.keys.value_of_key(front.keys.value_key[v]) {
                Some(old_v) if !set_stale(prev.analysis.result.pt[old_v]) => {}
                _ => stale.push(node),
            }
        }
        for node in stale {
            ctx.mark_scc(node);
        }
        Some(ctx)
    }

    /// Dirties `node` together with its whole strongly-connected
    /// component, so the clean/dirty frontier never cuts a cycle (a cut
    /// cycle could let a stale fact sustain itself across the boundary).
    fn mark_scc(&mut self, node: SvfgNodeId) {
        let component = self.sccs.component(node.raw());
        for &m in self.sccs.members(component) {
            let m = SvfgNodeId::new(m);
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

    /// The clean mask (`!dirty`) for seeding.
    fn clean_mask(&self) -> IndexVec<SvfgNodeId, bool> {
        self.dirty.iter().map(|&d| !d).collect()
    }
}

/// The audited-wave loop (step 3 of the module docs): re-solve the dirty
/// region seeded from the carried frontier, audit the clean side of the
/// boundary for values that actually changed, extend the region and
/// repeat. A region past the half-graph rule (before the first wave or
/// after an audit), or still growing after [`MAX_AUDIT_WAVES`] audits,
/// is solved cold by the workspace's own engine, and so is any edit
/// whose seed fails to assemble.
fn solve_incremental(
    prev: &ProgramState,
    source: &str,
    front: Front,
    fs_governor: Option<&Governor>,
    mut ctx: WaveCtx,
    mut stages: StageSeconds,
) -> (ProgramState, SolveReport) {
    let warm = prev.warm.as_ref().expect("WaveCtx::prepare checked warm state");
    let staged = front.staged.as_ref().expect("WaveCtx::prepare checked staged");
    let mut waves = 0;
    let mut prior_seconds = 0.0;
    loop {
        // A region this large (a full-body rewrite's usually is) would
        // fail its audit and pay for another near-whole-graph wave; one
        // still growing after the last audit has stopped paying for its
        // waves. One cold solve costs less than either.
        if ctx.past_half() || waves == MAX_AUDIT_WAVES {
            let outcome =
                Outcome { waves, prior_seconds, stages, ..Outcome::cold(ctx.dirty_count) };
            return solve_staged_cold(source, front, fs_governor, outcome);
        }
        waves += 1;
        let t = Instant::now();
        let Some((seed, carried_sets)) = assemble_seed(prev, warm, &front, &ctx) else {
            // Correspondence broke somewhere the cleanliness argument
            // says it cannot: a cold solve is always safe.
            return solve_front(source, front, fs_governor);
        };
        stages.seed += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let (result, completion, harvest, harvest_seconds) =
            run_sfs_seeded(&front.prog, &front.aux, &staged.mssa, &staged.svfg, fs_governor, seed);
        stages.wave += t.elapsed().as_secs_f64() - harvest_seconds;
        stages.harvest += harvest_seconds;
        if completion.is_complete() {
            let t = Instant::now();
            let h = harvest.as_ref().expect("complete solves always harvest");
            let newly = audit_frontier(prev, warm, &front, &ctx, &result, h);
            let grew = !newly.is_empty();
            for node in newly {
                ctx.mark_scc(node);
            }
            stages.invalidate += t.elapsed().as_secs_f64();
            if grew {
                prior_seconds += result.stats.solve_seconds;
                continue;
            }
        }
        // Complete and final — or a budget trip, which `deliver` turns
        // into the fallback (auditing a partial fixpoint is meaningless).
        let outcome = Outcome {
            incremental: true,
            carried_sets,
            waves,
            prior_seconds,
            stages,
            ..Outcome::cold(ctx.dirty_count)
        };
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
    ctx: &WaveCtx,
    result: &FlowSensitiveResult,
    harvest: &SfsHarvest,
) -> Vec<SvfgNodeId> {
    let svfg = &front.staged.as_ref().expect("audited waves imply a staged front").svfg;
    let prev_svfg = prev.svfg().expect("warm state implies a staged front");
    let dirty = &ctx.dirty;
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
        if is_store { &harvest.outs } else { &harvest.ins }.get(node, o)
    };
    let old_out = |node: SvfgNodeId, o: ObjId| -> Option<PtsId> {
        let is_store = matches!(prev_svfg.kind(node), SvfgNodeKind::Inst(i)
            if prev.prog.insts[i].kind.is_store());
        if is_store { &warm.outs } else { &warm.ins }.get(node, o)
    };
    let out_changed = |node: SvfgNodeId, o: ObjId| -> bool {
        let old_id = ctx.old_node[node]
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

    // New activations grouped by call site.
    let mut acts: FxHashMap<InstId, Vec<FuncId>> = FxHashMap::default();
    for &(call, f) in &result.callgraph_edges {
        acts.entry(call).or_default().push(f);
    }

    let mut pubs: Vec<ValueId> = Vec::new();
    for node in svfg.node_ids() {
        if !dirty[node] {
            continue;
        }
        // Values published by the node: those it defines (defs live at
        // their defining node), plus a call's arguments and an exit's
        // return operand.
        let mut call_inst = None;
        pubs.clear();
        let inst = match svfg.kind(node) {
            SvfgNodeKind::Inst(inst) | SvfgNodeKind::CallRet(inst) => Some(inst),
            SvfgNodeKind::MemPhi(_) => None,
        };
        if let Some(inst) = inst {
            let kind = &front.prog.insts[inst].kind;
            pubs.extend(kind.def());
            if let InstKind::FunEntry { func } = kind {
                pubs.extend(front.prog.functions[*func].params.iter().copied());
            }
            pubs.retain(|&v| ctx.def_node[v] == Some(node));
            if svfg.kind(node) == SvfgNodeKind::Inst(inst) {
                match kind {
                    InstKind::Call { args, .. } => {
                        pubs.extend(args.iter().copied());
                        call_inst = Some(inst);
                    }
                    InstKind::FunExit { ret, .. } => pubs.extend(ret.iter().copied()),
                    _ => {}
                }
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
    ctx: &WaveCtx,
) -> Option<(SfsSeed, usize)> {
    let svfg = &front.staged.as_ref()?.svfg;
    let prev_svfg = prev.svfg()?;
    let old_store = &prev.analysis.result.store;
    let mut store = old_store.next_epoch();
    let mut carry = PtsCarry::new();
    let map_obj = |o: ObjId| -> Option<ObjId> { ctx.new_obj[o] };

    // Top-level sets of values whose defining node is clean.
    let mut pt: Vec<(ValueId, PtsId)> = Vec::new();
    for (v, def) in ctx.def_node.iter_enumerated() {
        let Some(node) = *def else { continue };
        if ctx.dirty[node] {
            continue;
        }
        // A clean def with an unmapped value means correspondence is
        // broken.
        let old_v = prev.keys.value_of_key(front.keys.value_key[v])?;
        let id = carry.carry(old_store, &mut store, prev.analysis.result.pt[old_v], map_obj);
        pt.push((v, id));
    }

    // IN/OUT rows of clean nodes, in node order; dirty rows stay empty.
    let n = svfg.node_count();
    let mut ins = Rows::with_capacity(n, warm.ins.entry_count());
    let mut outs = Rows::with_capacity(n, warm.outs.entry_count());
    let mut row: Vec<(ObjId, PtsId)> = Vec::new();
    for node in svfg.node_ids() {
        let old = if ctx.dirty[node] { None } else { Some(ctx.old_node[node]?) };
        for (table, old_table) in [(&mut ins, &warm.ins), (&mut outs, &warm.outs)] {
            if let Some(old) = old {
                for &(o, id) in old_table.row(old) {
                    // The keyed objects of a clean node's state all
                    // survive (they appear in its unchanged µ/χ/φ
                    // signature).
                    row.push((map_obj(o)?, carry.carry(old_store, &mut store, id, map_obj)));
                }
                if !row.is_sorted_by_key(|e| e.0) {
                    row.sort_unstable_by_key(|e| e.0);
                }
            }
            table.push_row(row.drain(..));
        }
    }

    // Call-graph activations whose call node is clean.
    let mut activations: Vec<(InstId, FuncId)> = Vec::new();
    for &(call, callee) in &prev.analysis.result.callgraph_edges {
        let old_node = prev_svfg.inst_node(call);
        let Some(node) = front.keys.node_of_key(prev.keys.node_key[old_node]) else {
            continue; // call site removed; its region is dirty anyway
        };
        if ctx.dirty[node] {
            continue;
        }
        let SvfgNodeKind::Inst(new_call) = svfg.kind(node) else { return None };
        let name = &prev.prog.functions[callee].name;
        let new_callee = front.prog.function_by_name(name)?;
        activations.push((new_call, new_callee));
    }

    // Clean nodes with a direct edge into the dirty region re-run.
    let mut direct_preds: Vec<SvfgNodeId> = Vec::new();
    for node in svfg.node_ids() {
        if !ctx.dirty[node] && svfg.direct_succs(node).iter().any(|&s| ctx.dirty[s]) {
            direct_preds.push(node);
        }
    }

    if carry.stats.dropped_elems > 0 {
        return None;
    }
    let carried_sets = carry.stats.carried_sets;
    let seed = SfsSeed {
        store,
        pt,
        ins,
        outs,
        activations,
        clean: ctx.clean_mask(),
        direct_preds,
        ranks: ctx.sccs.ranks(),
    };
    Some((seed, carried_sets))
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
///
/// A signature is an order-independent hash of the node's ingredients
/// (`Ingredient`). Every ingredient hashes in O(1): object-label sets
/// and call bindings are hashed once per graph rather than once per
/// reader, so the table costs time linear in nodes plus grouped edges.
pub fn node_signatures(
    prog: &Program,
    aux: &AndersenResult,
    mssa: &MemorySsa,
    svfg: &Svfg,
    keys: &StableKeys,
) -> IndexVec<SvfgNodeId, u64> {
    let inputs = SigInputs::new(prog, aux, mssa, svfg, keys);
    svfg.node_ids().map(|node| inputs.signature(node)).collect()
}

/// One input of a node's signature. Every field is a stable key or a
/// hash of stable keys, so corresponding nodes of two parses list equal
/// ingredients exactly when their fixpoint equations agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ingredient {
    /// What the node computes: its kind and instruction content, or a
    /// memory φ's object and incoming definitions in order.
    Transfer(u64),
    /// A µ: the object read and the node of its reaching definition.
    Mu { obj: u64, def: u64 },
    /// A χ: the object, the node of its previous definition
    /// (`u64::MAX` if none), and at a store the static strong-update
    /// decision, which depends on the auxiliary result.
    Chi { obj: u64, prev: u64, strong: bool },
    /// A direct (top-level) predecessor.
    DirectPred(u64),
    /// A grouped indirect predecessor and the [`objs_hash`] of its
    /// object labels.
    IndirectPred { pred: u64, objs: u64 },
    /// A deferred indirect-call binding: the callee's name hash and the
    /// [`objs_hash`] of the objects flowing into it (at the call) or
    /// back out (at the return side).
    Binding { callee: u64, objs: u64 },
    /// A call site of a `FUNENTRY`'s function in the auxiliary call
    /// graph.
    AuxCaller(u64),
}

impl Ingredient {
    /// The ingredient's own hash. Signatures sum these, so the order in
    /// which a node lists its ingredients does not matter.
    fn hash(self) -> u64 {
        let (tag, a, b) = match self {
            Ingredient::Transfer(h) => (1, h, 0),
            Ingredient::Mu { obj, def } => (2, obj, def),
            Ingredient::Chi { obj, prev, strong } => (3 + strong as u64, obj, prev),
            Ingredient::DirectPred(k) => (5, k, 0),
            Ingredient::IndirectPred { pred, objs } => (6, pred, objs),
            Ingredient::Binding { callee, objs } => (7, callee, objs),
            Ingredient::AuxCaller(k) => (8, k, 0),
        };
        fmix64(fmix64(fmix64(tag) ^ a) ^ b)
    }
}

/// Folds ingredients into a signature: their count and the wrapping sum
/// of their hashes, a multiset hash that arena order cannot perturb.
#[derive(Default)]
struct SigFold {
    count: u64,
    sum: u64,
}

impl SigFold {
    fn add(&mut self, ingredient: Ingredient) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(ingredient.hash());
    }

    fn finish(&self) -> u64 {
        mix(mix(fnv1a(b"sig"), self.count), self.sum)
    }
}

/// MurmurHash3's 64-bit finaliser: a bijection that spreads every input
/// bit, so distinct inputs stay distinct before they are summed.
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// An order-independent hash of a set of object keys.
fn objs_hash(keys: impl Iterator<Item = u64>) -> u64 {
    let (count, sum) = keys.fold((0u64, 0u64), |(n, s), k| (n + 1, s.wrapping_add(fmix64(k))));
    mix(mix(fnv1a(b"objs"), count), sum)
}

/// What [`node_signatures`] reads, with every part shared between nodes
/// computed once.
struct SigInputs<'a> {
    prog: &'a Program,
    aux: &'a AndersenResult,
    mssa: &'a MemorySsa,
    svfg: &'a Svfg,
    keys: &'a StableKeys,
    /// Direct predecessors per node.
    direct_preds: Adjacency<SvfgNodeId>,
    /// [`objs_hash`] of each interned object-label set.
    set_hash: Vec<u64>,
    /// Per call site with deferred bindings: the callee's name hash and
    /// the [`objs_hash`] of the binding's `ins` and `outs`.
    bindings: FxHashMap<InstId, Vec<(u64, u64, u64)>>,
    /// Auxiliary call sites of each function, as instruction keys.
    aux_callers: FxHashMap<FuncId, Vec<u64>>,
    /// The function an object is private to: a non-escaping object
    /// allocated there (directly or as a field of such an object).
    private_to: IndexVec<ObjId, Option<FuncId>>,
}

impl<'a> SigInputs<'a> {
    fn new(
        prog: &'a Program,
        aux: &'a AndersenResult,
        mssa: &'a MemorySsa,
        svfg: &'a Svfg,
        keys: &'a StableKeys,
    ) -> Self {
        let direct_preds = Adjacency::new(svfg.node_count(), || {
            svfg.node_ids().flat_map(|n| svfg.direct_succs(n).iter().map(move |&s| (s, n)))
        });

        let obj_keys = |objs: &[ObjId]| -> u64 { objs_hash(objs.iter().map(|&o| keys.obj_key[o])) };
        let set_hash = (0..svfg.obj_set_count())
            .map(|s| obj_keys(svfg.obj_set(ObjSetId::new(s as u32))))
            .collect();
        let mut bindings: FxHashMap<InstId, Vec<(u64, u64, u64)>> = FxHashMap::default();
        for (&(call, callee), b) in svfg.call_bindings() {
            let name = fnv1a(prog.functions[callee].name.as_bytes());
            bindings.entry(call).or_default().push((name, obj_keys(&b.ins), obj_keys(&b.outs)));
        }
        let mut aux_callers: FxHashMap<FuncId, Vec<u64>> = FxHashMap::default();
        for (call, f) in aux.callgraph.edges() {
            aux_callers.entry(f).or_default().push(keys.inst_key[call]);
        }
        let private_to = prog
            .objects
            .indices()
            .map(|o| {
                if mssa.modref.is_escaped(o) {
                    return None;
                }
                let mut o = o;
                loop {
                    match prog.objects[o].kind {
                        ObjKind::Stack(f) | ObjKind::Heap(f) => return Some(f),
                        ObjKind::Field { base, .. } => o = base,
                        _ => return None,
                    }
                }
            })
            .collect();
        SigInputs {
            prog,
            aux,
            mssa,
            svfg,
            keys,
            direct_preds,
            set_hash,
            bindings,
            aux_callers,
            private_to,
        }
    }

    /// The signature of `node`.
    fn signature(&self, node: SvfgNodeId) -> u64 {
        let mut fold = SigFold::default();
        self.ingredients(node, &mut |i| fold.add(i));
        fold.finish()
    }

    /// Lists the ingredients of `node`'s signature.
    fn ingredients(&self, node: SvfgNodeId, f: &mut impl FnMut(Ingredient)) {
        let (svfg, keys, mssa) = (self.svfg, self.keys, self.mssa);
        let ok = |o: ObjId| keys.obj_key[o];
        let def_key = |d| keys.node_key[mssa_def_node(svfg, d)];
        let prev_key = |d: Option<_>| d.map_or(u64::MAX, def_key);
        match svfg.kind(node) {
            SvfgNodeKind::Inst(inst) => {
                f(Ingredient::Transfer(mix(fnv1a(b"sig-inst"), self.inst_content(inst))));
                // µs read object state here (for calls: the relay into
                // callees), keyed by object and reaching definition.
                for mu in mssa.mus(inst) {
                    f(Ingredient::Mu { obj: ok(mu.obj), def: def_key(mu.def) });
                }
                let kind = &self.prog.insts[inst].kind;
                match kind {
                    InstKind::Call { .. } => {
                        // Caller-side objects that could flow into each
                        // possible callee (deferred indirect-call
                        // bindings). The call's χs attach to its return
                        // side.
                        for &(callee, objs, _) in self.bindings.get(&inst).into_iter().flatten() {
                            f(Ingredient::Binding { callee, objs });
                        }
                    }
                    _ => {
                        // χs of non-call instructions (stores, frees,
                        // entries) attach here.
                        //
                        // A FUNENTRY χ on an object *private* to the
                        // function (allocated here and never escaping)
                        // is excluded: its entry state is constantly
                        // absent — no caller binding can carry a
                        // non-escaping object, and the entry transfer
                        // is a pure relay — so gaining or losing such a
                        // χ (any edit that allocates locally) does not
                        // change the entry's fixpoint equation. The
                        // structural edges the χ induces are covered by
                        // its consumers' signatures, and those consumers
                        // live in the edited function.
                        let entry_of = match kind {
                            InstKind::FunEntry { func } => Some(*func),
                            _ => None,
                        };
                        for chi in mssa.chis(inst) {
                            if entry_of.is_some() && self.private_to[chi.obj] == entry_of {
                                continue;
                            }
                            let strong = match kind {
                                InstKind::Store { addr, .. } => {
                                    self.aux.singletons.contains(chi.obj)
                                        && self.aux.value_pts(*addr).as_singleton() == Some(chi.obj)
                                }
                                _ => false,
                            };
                            f(Ingredient::Chi {
                                obj: ok(chi.obj),
                                prev: prev_key(chi.prev),
                                strong,
                            });
                        }
                    }
                }
                if let InstKind::FunEntry { func } = kind {
                    // The auxiliary caller set: a new or removed
                    // potential call site must dirty the entry even when
                    // the entry's own instruction text is unchanged.
                    for &c in self.aux_callers.get(func).into_iter().flatten() {
                        f(Ingredient::AuxCaller(c));
                    }
                }
            }
            SvfgNodeKind::CallRet(inst) => {
                f(Ingredient::Transfer(mix(fnv1a(b"sig-ret"), self.inst_content(inst))));
                for chi in mssa.chis(inst) {
                    let prev = prev_key(chi.prev);
                    f(Ingredient::Chi { obj: ok(chi.obj), prev, strong: false });
                }
                // Callee-side objects that could flow back from each
                // possible callee.
                for &(callee, _, objs) in self.bindings.get(&inst).into_iter().flatten() {
                    f(Ingredient::Binding { callee, objs });
                }
            }
            SvfgNodeKind::MemPhi(p) => {
                let phi = &mssa.memphis()[p];
                let mut h = mix(fnv1a(b"sig-phi"), ok(phi.obj));
                h = mix(h, phi.incoming.len() as u64);
                for &d in &phi.incoming {
                    h = mix(h, def_key(d));
                }
                f(Ingredient::Transfer(h));
            }
        }
        // Incoming edges: direct predecessors and object-labelled
        // indirect predecessors.
        for &p in self.direct_preds.of(node) {
            f(Ingredient::DirectPred(keys.node_key[p]));
        }
        for &(p, set) in svfg.indirect_preds(node) {
            let objs = self.set_hash[set.index()];
            f(Ingredient::IndirectPred { pred: keys.node_key[p], objs });
        }
    }

    /// Hash of an instruction's own text, by stable keys.
    fn inst_content(&self, inst: InstId) -> u64 {
        let prog = self.prog;
        let fname = |f: FuncId| fnv1a(prog.functions[f].name.as_bytes());
        let vk = |v: ValueId| self.keys.value_key[v];
        let ok = |o: ObjId| self.keys.obj_key[o];
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
    }
}

/// An ID-independent fingerprint of a delivered result: the points-to
/// relation keyed by stable value/object keys plus the resolved call
/// graph keyed by call-site keys and callee names. Two parses of the
/// same text — or an incremental and a from-scratch solve of the same
/// edit — produce the same fingerprint iff they computed the same
/// result.
///
/// Values share sets, so each distinct set's sorted key list is built
/// once, and a set many values hold is folded in through a `SetMix`
/// table — the same hash, at O(1) per value.
pub fn result_fingerprint(prog: &Program, keys: &StableKeys, result: &FlowSensitiveResult) -> u64 {
    // Distinct sets as `[len, keys...]` spans of one arena, with use
    // counts.
    let mut set_of: FxHashMap<PtsId, usize> = FxHashMap::default();
    let mut sets: Vec<(usize, usize, usize)> = Vec::new();
    let mut arena: Vec<u64> = Vec::new();
    let mut items: Vec<(u64, usize)> = Vec::with_capacity(prog.values.len());
    for (v, _) in prog.values.iter_enumerated() {
        let set = *set_of.entry(result.pt[v]).or_insert_with(|| {
            let start = arena.len();
            arena.push(0);
            arena.extend(result.value_pts(v).iter().map(|o| keys.obj_key[o]));
            arena[start + 1..].sort_unstable();
            arena[start] = (arena.len() - start - 1) as u64;
            sets.push((start, arena.len(), 0));
            sets.len() - 1
        });
        sets[set].2 += 1;
        items.push((keys.value_key[v], set));
    }
    let words = |set: usize| &arena[sets[set].0..sets[set].1];
    items.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| words(a.1).cmp(words(b.1))));
    let mut tables: Vec<Option<SetMix>> = (0..sets.len()).map(|_| None).collect();
    let mut h = fnv1a(b"fingerprint");
    for &(vkey, set) in &items {
        h = mix(h, vkey);
        h = if sets[set].2 >= SetMix::MIN_USES {
            tables[set].get_or_insert_with(|| SetMix::new(words(set))).apply(h)
        } else {
            words(set).iter().fold(h, |h, &w| mix(h, w))
        };
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

/// Folds a fixed word list into a running [`mix`] hash in O(1): the
/// result is `h · P^(8·words) + tail[h & 0xff]`, `P` the FNV prime.
///
/// Why: a [`mix`] step maps `h` to `(h ^ b) · P` for each byte `b`.
/// Xoring a byte changes only the low byte of `h`, so
/// `h ^ b = h + d` with `d` fixed by `b` and `h`'s low byte; and the low
/// byte of the product depends only on the low bytes. So the low bytes
/// evolve on their own, and every step adds to `h · P` a term they
/// determine: the sum of those terms is a function of `h`'s low byte
/// alone, tabulated once per word list.
struct SetMix {
    /// `P^(8·words)`.
    scale: u64,
    /// The added terms, per starting low byte.
    tail: Box<[u64; 256]>,
}

impl SetMix {
    /// Building a table costs about 256 direct folds, so only sets at
    /// least this many values hold get one.
    const MIN_USES: usize = 256;
    const P: u64 = 0x0000_0100_0000_01b3;

    fn new(words: &[u64]) -> SetMix {
        let bytes = || words.iter().flat_map(|w| w.to_le_bytes());
        let scale = bytes().fold(1u64, |s, _| s.wrapping_mul(Self::P));
        let mut tail = Box::new([0u64; 256]);
        for (start, slot) in tail.iter_mut().enumerate() {
            let (mut sum, mut low) = (0u64, start as u64);
            for b in bytes() {
                let x = low ^ b as u64;
                sum = sum.wrapping_add(x.wrapping_sub(low)).wrapping_mul(Self::P);
                low = x.wrapping_mul(Self::P) & 0xff;
            }
            *slot = sum;
        }
        SetMix { scale, tail }
    }

    /// `words` folded into `h` by [`mix`], one word after another.
    fn apply(&self, h: u64) -> u64 {
        h.wrapping_mul(self.scale).wrapping_add(self.tail[(h & 0xff) as usize])
    }
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
        // Renaming `@use`'s private box re-signs only its own nodes.
        let edited = BASE.replace("alloc stack BOX", "alloc stack BOX2");
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

    /// Strong and weak stores, an indirect call with deferred bindings
    /// into two callees (so their entries have auxiliary callers), and a
    /// memory φ at `join`.
    const SIG: &str = r#"
global @tab
global @g

func @keep(%x) {
entry:
  store %x, @g
  %y = load @g
  ret %y
}

func @swap(%x) {
entry:
  %old = load @g
  store %x, @g
  ret %old
}

func @main() {
entry:
  %s = alloc stack S
  %h = alloc heap H
  store %h, %s
  %w = alloc heap W
  store %h, %w
  %f1 = funaddr @keep
  %f2 = funaddr @swap
  br left, right
left:
  store %f1, @tab
  goto join
right:
  store %f2, @tab
  goto join
join:
  %fp = load @tab
  %r = icall %fp(%s)
  %v = load %s
  ret
}
"#;

    type Pipeline = (Program, AndersenResult, MemorySsa, Svfg, StableKeys);

    fn pipeline(src: &str) -> Pipeline {
        let prog = vsfs_ir::parse_program(src).unwrap();
        let aux = vsfs_andersen::analyze(&prog);
        let mssa = MemorySsa::build(&prog, &aux);
        let svfg = Svfg::build(&prog, &aux, &mssa);
        let keys = StableKeys::build(&prog, &mssa, &svfg);
        (prog, aux, mssa, svfg, keys)
    }

    fn ingredient_list(inputs: &SigInputs<'_>, node: SvfgNodeId) -> Vec<Ingredient> {
        let mut list = Vec::new();
        inputs.ingredients(node, &mut |i| list.push(i));
        list
    }

    fn fold(list: &[Ingredient]) -> u64 {
        let mut fold = SigFold::default();
        list.iter().for_each(|&i| fold.add(i));
        fold.finish()
    }

    #[test]
    fn two_parses_sign_every_node_alike() {
        let (p1, a1, m1, s1, k1) = pipeline(SIG);
        let (p2, a2, m2, s2, k2) = pipeline(SIG);
        let sigs = node_signatures(&p1, &a1, &m1, &s1, &k1);
        assert_eq!(sigs, node_signatures(&p2, &a2, &m2, &s2, &k2));
        assert_eq!(sigs.len(), s1.node_count());
    }

    /// Changing exactly one ingredient of a node — or dropping it —
    /// changes the node's signature, for every ingredient of every node;
    /// and each ingredient carries what it names (the label set's and
    /// the binding's objects, the store's strong-update decision).
    #[test]
    fn changing_any_one_ingredient_changes_the_signature() {
        let (prog, aux, mssa, svfg, keys) = pipeline(SIG);
        let inputs = SigInputs::new(&prog, &aux, &mssa, &svfg, &keys);
        let sigs = node_signatures(&prog, &aux, &mssa, &svfg, &keys);
        let ok = |o: ObjId| keys.obj_key[o];
        let hash_objs = |objs: &[ObjId]| objs_hash(objs.iter().map(|&o| ok(o)));
        // The same objects with the first one replaced by another key.
        let one_swapped = |objs: &[ObjId]| {
            objs_hash(objs.iter().enumerate().map(|(i, &o)| if i == 0 { !ok(o) } else { ok(o) }))
        };
        let mut seen: Vec<&str> = Vec::new();
        for node in svfg.node_ids() {
            let list = ingredient_list(&inputs, node);
            assert_eq!(fold(&list), sigs[node], "node_signatures folds the listed ingredients");
            let store = match svfg.kind(node) {
                SvfgNodeKind::Inst(i) => match prog.insts[i].kind {
                    InstKind::Store { addr, .. } => Some(prog.values[addr].name.as_str()),
                    _ => None,
                },
                _ => None,
            };
            let mut indirect = svfg.indirect_preds(node).iter();
            for (i, &ingredient) in list.iter().enumerate() {
                let (name, changed) = match ingredient {
                    Ingredient::Transfer(h) => ("transfer", vec![Ingredient::Transfer(!h)]),
                    Ingredient::Mu { obj, def } => {
                        ("µ reaching def", vec![Ingredient::Mu { obj, def: !def }])
                    }
                    Ingredient::Chi { obj, prev, strong } => {
                        match (store, strong) {
                            (Some("s"), true) => seen.push("strong store"),
                            (Some("w"), false) => seen.push("weak store"),
                            (Some("s" | "w"), _) => panic!("wrong strong-update bit at {node:?}"),
                            _ => {}
                        }
                        let flipped = Ingredient::Chi { obj, prev, strong: !strong };
                        (
                            "χ previous def",
                            vec![Ingredient::Chi { obj, prev: !prev, strong }, flipped],
                        )
                    }
                    Ingredient::DirectPred(k) => {
                        ("direct predecessor", vec![Ingredient::DirectPred(!k)])
                    }
                    Ingredient::IndirectPred { pred, objs } => {
                        let &(p, set) = indirect.next().expect("one ingredient per indirect pred");
                        assert_eq!(pred, keys.node_key[p]);
                        assert_eq!(objs, hash_objs(svfg.obj_set(set)), "labels of {node:?}");
                        let objs = one_swapped(svfg.obj_set(set));
                        ("indirect label set", vec![Ingredient::IndirectPred { pred, objs }])
                    }
                    Ingredient::Binding { callee, objs } => {
                        let (SvfgNodeKind::Inst(call) | SvfgNodeKind::CallRet(call)) =
                            svfg.kind(node)
                        else {
                            panic!("a binding at {node:?}, which is no call");
                        };
                        let f = prog
                            .functions
                            .indices()
                            .find(|&f| fnv1a(prog.functions[f].name.as_bytes()) == callee)
                            .expect("the callee exists");
                        let binding = svfg.call_binding(call, f).expect("a deferred binding");
                        let bound = match svfg.kind(node) {
                            SvfgNodeKind::Inst(_) => &binding.ins,
                            _ => &binding.outs,
                        };
                        assert!(!bound.is_empty(), "the test program binds objects");
                        assert_eq!(objs, hash_objs(bound), "bound objects of {node:?}");
                        let objs = one_swapped(bound);
                        ("call binding", vec![Ingredient::Binding { callee, objs }])
                    }
                    Ingredient::AuxCaller(k) => {
                        ("auxiliary caller", vec![Ingredient::AuxCaller(!k)])
                    }
                };
                seen.push(name);
                let dropped: Vec<Ingredient> =
                    list.iter().enumerate().filter(|&(j, _)| j != i).map(|(_, &x)| x).collect();
                assert_ne!(fold(&dropped), sigs[node], "dropping the {name} of {node:?}");
                for c in changed {
                    let mut l = list.clone();
                    l[i] = c;
                    assert_ne!(fold(&l), sigs[node], "changing the {name} of {node:?}");
                }
            }
            assert!(indirect.next().is_none(), "every indirect pred is an ingredient");
        }
        for name in [
            "transfer",
            "µ reaching def",
            "χ previous def",
            "strong store",
            "weak store",
            "direct predecessor",
            "indirect label set",
            "call binding",
            "auxiliary caller",
        ] {
            assert!(seen.contains(&name), "the test program has no {name}");
        }
    }

    #[test]
    fn set_mix_tables_fold_like_mix() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for len in [0, 1, 2, 7, 40] {
            let words: Vec<u64> = (0..len).map(|_| next()).collect();
            let table = SetMix::new(&words);
            for _ in 0..64 {
                let h = next();
                let direct = words.iter().fold(h, |h, &w| mix(h, w));
                assert_eq!(table.apply(h), direct, "{len} words from {h:#x}");
            }
        }
    }

    #[test]
    fn parse_errors_are_reported_not_panicked() {
        let err = solve_program("func @main( {", IncrementalOptions::default(), None, None)
            .err()
            .expect("must fail");
        assert!(matches!(err, SolveError::Parse(_)));
    }
}
