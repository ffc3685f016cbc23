//! The adapter: every call the benchmark makes into the analysis crates.
//!
//! Nothing else in the benchmark names a `vsfs_*` item, so a change to a
//! layer's public entry points changes one function here. Each function
//! wraps its calls in [`Tracer`] spans named after the layer module; with
//! tracing off a span costs one branch.
//!
//! Only the plain solver entry points are called (`run_sfs`,
//! `run_vsfs_with_tables`), with one thread.

use crate::trace::Tracer;
use vsfs_adt::mem;
use vsfs_checkers::{load_corpus, render_finding, run_checkers, FlowView};
use vsfs_core::{
    resolve_edit, result_fingerprint, solve_program, FlowSensitiveResult, IncrementalOptions,
    SolveReport, VersionTables, VersioningStats,
};
use vsfs_ir::{Program, ValueId};
use vsfs_mssa::MemorySsa;
use vsfs_svfg::stable::StableKeys;
use vsfs_svfg::Svfg;
use vsfs_workloads::edits::function_text;
use vsfs_workloads::generate_edited;
use vsfs_workloads::suite::benchmark;

pub use vsfs_adt::mem::MemScope;
pub use vsfs_core::ProgramState;
pub use vsfs_workloads::WorkloadConfig;

pub use vsfs_server::json::{self, obj, s, Json};
pub use vsfs_server::Server;

/// The staged flow-sensitive solver a batch analysis ends in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Solver {
    /// Object-versioned staged flow-sensitive analysis (the paper's VSFS).
    Vsfs,
    /// Staged flow-sensitive analysis (the paper's SFS baseline).
    Sfs,
}

/// Work counts of one cold analysis, read after it finished.
#[derive(Debug, Clone, Default)]
pub struct AnalysisCounts {
    pub insts: usize,
    pub andersen_pops: usize,
    pub andersen_propagations: usize,
    pub andersen_union_hit_ratio: f64,
    pub mssa_annotations: usize,
    pub svfg_nodes: usize,
    pub svfg_indirect_edges: usize,
    pub versioning: Option<VersioningStats>,
    pub solve_node_pops: usize,
    pub solve_propagations: usize,
    pub solve_memo_skip_ratio: f64,
    pub store_unique_sets: usize,
    pub store_unique_set_mib: f64,
    pub store_union_hit_ratio: f64,
    pub store_chunk_union_hit_ratio: f64,
}

/// A finished cold analysis: the program and every stage's output.
pub struct Analysis {
    pub prog: Program,
    pub svfg: Svfg,
    pub result: FlowSensitiveResult,
    pub counts: AnalysisCounts,
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One cold whole-program analysis: parse → verify → Andersen → memory
/// SSA → SVFG → (versioning →) fixpoint, the stages of the CLI's default
/// path. Each stage is one span; the caller opens the enclosing one.
pub fn analyze(text: &str, solver: Solver, tr: &mut Tracer) -> Analysis {
    let (prog, aux, mssa, svfg) = front_stages(text, tr);
    let (result, versioning) = match solver {
        Solver::Vsfs => {
            let tables = tr.time("versioning", || VersionTables::build(&prog, &mssa, &svfg));
            let stats = tables.stats;
            let result = tr.time("vsfs", || {
                vsfs_core::run_vsfs_with_tables(&prog, &aux, &mssa, &svfg, tables)
            });
            (result, Some(stats))
        }
        Solver::Sfs => (tr.time("sfs", || vsfs_core::run_sfs(&prog, &aux, &mssa, &svfg)), None),
    };
    let counts = counts(&prog, &aux, &mssa, &svfg, &result, versioning);
    Analysis { prog, svfg, result, counts }
}

fn counts(
    prog: &Program,
    aux: &vsfs_andersen::AndersenResult,
    mssa: &MemorySsa,
    svfg: &Svfg,
    result: &FlowSensitiveResult,
    versioning: Option<VersioningStats>,
) -> AnalysisCounts {
    let st = &result.stats;
    let ast = &aux.stats;
    AnalysisCounts {
        insts: prog.inst_count(),
        andersen_pops: ast.pops,
        andersen_propagations: ast.propagations,
        andersen_union_hit_ratio: ast.store.union_hit_rate(),
        mssa_annotations: mssa.annotation_count(),
        svfg_nodes: svfg.node_count(),
        svfg_indirect_edges: svfg.indirect_edge_count(),
        versioning,
        solve_node_pops: st.node_pops,
        solve_propagations: st.object_propagations,
        solve_memo_skip_ratio: ratio(st.scc_solves_skipped, st.node_pops),
        store_unique_sets: st.store.unique_sets,
        store_unique_set_mib: st.store.unique_set_bytes as f64 / (1024.0 * 1024.0),
        store_union_hit_ratio: st.store.union_hit_rate(),
        store_chunk_union_hit_ratio: ratio(
            st.store.chunk_union_hits,
            st.store.chunk_union_hits + st.store.chunk_union_misses,
        ),
    }
}

/// Work counts of a resident state's cold solve (staged SFS).
pub fn state_counts(state: &ProgramState) -> AnalysisCounts {
    let mssa = state.mssa().expect("staged solver keeps its memory SSA");
    let svfg = state.svfg().expect("staged solver keeps its SVFG");
    counts(&state.prog, &state.aux, mssa, svfg, &state.analysis.result, None)
}

/// The ID-independent fingerprint of an analysis' points-to sets and
/// call graph; equal across solvers that agree.
pub fn fingerprint(a: &Analysis) -> u64 {
    result_fingerprint(&a.prog, &StableKeys::build_program(&a.prog), &a.result)
}

/// The stages before the fixpoint (parse, verify, Andersen, memory SSA,
/// SVFG), one span each. A cold analysis continues from their outputs;
/// an edit's re-solve runs them alone, for their times.
pub fn front_stages(
    text: &str,
    tr: &mut Tracer,
) -> (Program, vsfs_andersen::AndersenResult, MemorySsa, Svfg) {
    let prog = tr.time("ir.parse", || vsfs_ir::parse_program_all(text).expect("program parses"));
    tr.time("ir.verify", || vsfs_ir::verify::verify(&prog).expect("program verifies"));
    let aux = tr.time("andersen", || vsfs_andersen::analyze(&prog));
    let mssa = tr.time("mssa", || MemorySsa::build(&prog, &aux));
    let svfg = tr.time("svfg", || Svfg::build(&prog, &aux, &mssa));
    (prog, aux, mssa, svfg)
}

/// A cold incremental-engine solve, as a server `load` runs it with its
/// default options (staged SFS, one job). Its fixpoint, timed by the
/// engine, is a child span.
pub fn solve_cold(text: &str, tr: &mut Tracer) -> (ProgramState, SolveReport) {
    tr.enter("incremental.solve");
    let out =
        solve_program(text, IncrementalOptions::default(), None, None).expect("program solves");
    tr.record("sfs", out.1.solve_seconds);
    tr.exit();
    out
}

/// An incremental re-solve of `text` seeded from `prev`. Its fixpoint,
/// timed by the engine, is a child span.
pub fn solve_edit(prev: &ProgramState, text: &str, tr: &mut Tracer) -> (ProgramState, SolveReport) {
    tr.enter("incremental");
    let out = resolve_edit(prev, text, IncrementalOptions::default(), None, None)
        .expect("edit re-solves");
    tr.record("incremental.fixpoint", out.1.solve_seconds);
    tr.exit();
    out
}

/// Findings of every checker over a resident state's flow-sensitive
/// result, rendered as the server renders them.
pub fn check_state(state: &ProgramState, tr: &mut Tracer) -> Vec<String> {
    let svfg = state.svfg().expect("staged solver keeps its SVFG");
    let prog = &state.prog;
    let findings =
        tr.time("checkers", || run_checkers(prog, svfg, &FlowView(&state.analysis.result)));
    findings.iter().map(|f| render_finding(prog, f)).collect()
}

/// The value named `name` in function `func` of a resident state.
pub fn value_named(state: &ProgramState, func: &str, name: &str) -> Option<ValueId> {
    find_value(&state.prog, func, name)
}

/// The value named `name` in function `func`, found the way the server
/// finds it: a scan over the program's values.
fn find_value(prog: &Program, func: &str, name: &str) -> Option<ValueId> {
    let f = prog.function_by_name(func)?;
    prog.values
        .iter_enumerated()
        .find(|(_, v)| v.name == name && v.func == Some(f))
        .map(|(id, _)| id)
}

/// A `pts` query answered from a batch result: name lookup, points-to
/// set, sorted object names. Returns the number of objects.
pub fn pts_query(a: &Analysis, func: &str, name: &str) -> Option<usize> {
    let v = find_value(&a.prog, func, name)?;
    let mut names: Vec<&str> =
        a.result.value_pts(v).iter().map(|o| a.prog.objects[o].name.as_str()).collect();
    names.sort_unstable();
    Some(std::hint::black_box(names).len())
}

/// An `alias` query answered from a batch result.
pub fn alias_query(a: &Analysis, func: &str, p: &str, q: &str) -> Option<bool> {
    let p = find_value(&a.prog, func, p)?;
    let q = find_value(&a.prog, func, q)?;
    Some(vsfs_core::queries::AliasQueries::new(&a.prog, &a.result).may_alias(p, q))
}

/// Every checker over a batch result; returns the number of findings.
pub fn check_analysis(a: &Analysis, tr: &mut Tracer) -> usize {
    tr.time("checkers", || run_checkers(&a.prog, &a.svfg, &FlowView(&a.result))).len()
}

/// Calls `value_pts` on every value `reps` times; returns the total size
/// seen (so the calls cannot be optimised away).
pub fn value_pts_block(state: &ProgramState, values: &[ValueId], reps: usize) -> usize {
    let result = &state.analysis.result;
    let mut total = 0;
    for _ in 0..reps {
        for &v in values {
            total += std::hint::black_box(result.value_pts(std::hint::black_box(v))).len();
        }
    }
    total
}

/// Calls `may_alias` on every pair `reps` times; returns the number of
/// aliasing answers seen.
pub fn may_alias_block(state: &ProgramState, pairs: &[(ValueId, ValueId)], reps: usize) -> usize {
    let queries = vsfs_core::queries::AliasQueries::new(&state.prog, &state.analysis.result);
    let mut hits = 0;
    for _ in 0..reps {
        for &(p, q) in pairs {
            hits +=
                usize::from(queries.may_alias(std::hint::black_box(p), std::hint::black_box(q)));
        }
    }
    hits
}

/// Parses one request line `reps` times with the server's JSON parser.
pub fn json_parse_block(line: &str, reps: usize) -> usize {
    (0..reps)
        .map(|_| std::hint::black_box(json::parse(std::hint::black_box(line))).is_ok() as usize)
        .sum()
}

/// Restarts the counting allocator's peak at the live heap size.
pub fn reset_peak_heap() {
    mem::reset_peak();
}

/// Peak live heap bytes since the last [`reset_peak_heap`].
pub fn peak_heap_bytes() -> usize {
    mem::peak_bytes()
}

/// The labelled checker corpus as `(name, source, expected findings)`.
pub fn checker_corpus(
    dir: &std::path::Path,
) -> std::io::Result<Vec<(String, String, Vec<String>)>> {
    Ok(load_corpus(dir)?.into_iter().map(|c| (c.name, c.source, c.expected)).collect())
}

/// The generator configuration of the suite benchmark `shape`.
pub fn shape_config(shape: &str) -> WorkloadConfig {
    benchmark(shape).expect("suite has the shape").config
}

/// The text of the program `config` generates with per-function `salts`.
pub fn program_text(config: &WorkloadConfig, salts: &[u64]) -> String {
    generate_edited(config, salts).to_string()
}

/// The text of function `name` in a printed program.
pub fn function_of(program_text: &str, name: &str) -> String {
    function_text(program_text, name).expect("function prints in the program")
}
