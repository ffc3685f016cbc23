//! Incremental ≡ from-scratch: the differential edit-sequence suite.
//!
//! Drives random function-granularity edit sequences from
//! `vsfs_workloads::edit_script` through the incremental engine
//! (`vsfs_core::resolve_edit`) and checks after *every* edit that the
//! incrementally re-solved state is bit-identical to a from-scratch
//! solve of the same source text:
//!
//! * every top-level points-to set and the resolved call graph
//!   (`precision_diff`), against from-scratch SFS **and** from-scratch
//!   VSFS at `jobs` 1, 2 and 8;
//! * sampled may-alias queries;
//! * the full memory-safety finding set;
//! * the deterministic result fingerprint.
//!
//! Seeds honour the shared property-test env knobs: replay one case
//! with `VSFS_PROP_SEED=0x…`, scale the count with `VSFS_PROP_CASES`.

use vsfs_checkers::{run_checkers, FlowView};
use vsfs_core::queries::AliasQueries;
use vsfs_core::result::precision_diff;
use vsfs_core::{
    resolve_edit, result_fingerprint, solve_program, FlowSensitiveResult, IncrementalOptions,
    ProgramState, SolveReport, SolveRequest, SolverKind,
};
use vsfs_ir::Program;
use vsfs_testkit::Rng;
use vsfs_workloads::edit_script;
use vsfs_workloads::gen::{generate_edited, WorkloadConfig};

const CASES: u32 = 10;

/// A random configuration with enough functions and edit surface to
/// produce interesting dirty regions.
fn random_config(rng: &mut Rng) -> WorkloadConfig {
    WorkloadConfig {
        seed: rng.next_u64(),
        functions: rng.gen_range(4usize..9),
        segments: rng.gen_range(1usize..4),
        loads_per_block: rng.gen_range(0usize..3),
        stores_per_block: rng.gen_range(1usize..3),
        load_chain: rng.gen_range(0usize..3),
        heap_fraction: rng.gen_f64(),
        indirect_call_fraction: rng.gen_range(0.0f64..0.5),
        backward_call_fraction: rng.gen_range(0.0f64..0.4),
        edit_fraction: rng.gen_range(0.3f64..0.8),
        ..WorkloadConfig::small()
    }
}

struct ColdPipeline {
    prog: Program,
    aux: vsfs_andersen::AndersenResult,
    mssa: vsfs_mssa::MemorySsa,
    svfg: vsfs_svfg::Svfg,
}

/// Parses `source` afresh — same text as the incremental engine saw, so
/// arena ids line up and results are directly comparable.
fn cold_pipeline(source: &str) -> ColdPipeline {
    let prog = vsfs_ir::parse_program(source).expect("edit-script text parses");
    let aux = vsfs_andersen::analyze(&prog);
    let mssa = vsfs_mssa::MemorySsa::build(&prog, &aux);
    let svfg = vsfs_svfg::Svfg::build(&prog, &aux, &mssa);
    ColdPipeline { prog, aux, mssa, svfg }
}

impl ColdPipeline {
    /// A from-scratch solve of `kind` with `jobs` versioning workers.
    fn solve(&self, kind: SolverKind, jobs: usize) -> FlowSensitiveResult {
        let req = SolveRequest { jobs, ..SolveRequest::new(kind) };
        vsfs_core::solve(&self.prog, &self.aux, Some((&self.mssa, &self.svfg)), req).result
    }
}

/// Asserts the incremental `state` matches `cold_result` on points-to
/// sets, the call graph, sampled alias queries, findings, and the
/// fingerprint.
fn assert_matches(
    label: &str,
    state: &ProgramState,
    cold: &ColdPipeline,
    cold_result: &vsfs_core::FlowSensitiveResult,
    rng: &mut Rng,
) {
    assert!(state.analysis.is_complete(), "{label}: ungoverned solve must complete");
    if let Some(diff) = precision_diff(&state.prog, &state.analysis.result, cold_result) {
        panic!("{label}: incremental differs from from-scratch: {diff}");
    }
    // Alias queries are derived from the points-to sets, but exercise
    // the public query surface on a sample of value pairs.
    let inc_q = AliasQueries::new(&state.prog, &state.analysis.result);
    let cold_q = AliasQueries::new(&cold.prog, cold_result);
    let n = state.prog.values.len() as u64;
    for _ in 0..50 {
        let p = vsfs_ir::ValueId::new(rng.gen_range(0..n) as u32);
        let q = vsfs_ir::ValueId::new(rng.gen_range(0..n) as u32);
        assert_eq!(
            inc_q.may_alias(p, q),
            cold_q.may_alias(p, q),
            "{label}: may_alias({p:?}, {q:?}) differs"
        );
    }
    // Same text ⇒ same ids ⇒ findings are directly comparable.
    let svfg = state.svfg().expect("staged solver keeps its SVFG resident");
    let inc_findings = run_checkers(&state.prog, svfg, &FlowView(&state.analysis.result));
    let cold_findings = run_checkers(&cold.prog, &cold.svfg, &FlowView(cold_result));
    assert_eq!(inc_findings, cold_findings, "{label}: checker findings differ");
    assert_eq!(
        state.fingerprint,
        result_fingerprint(&cold.prog, &state.keys, cold_result),
        "{label}: fingerprints differ"
    );
}

/// The core property: for a random base program and a random 3-edit
/// script, every incrementally solved state equals a from-scratch solve
/// of the same text — under SFS and VSFS (jobs 1/2/8).
#[test]
fn edit_sequences_match_from_scratch_solves() {
    vsfs_testkit::check_cases("incremental::edit_sequences_match", CASES, |rng| {
        let cfg = random_config(rng);
        let script = edit_script(&cfg, rng.next_u64(), 3);
        let base_text = script.base.to_string();
        let opts = IncrementalOptions::default();
        let (mut state, _) = solve_program(&base_text, opts, None, None).expect("base solves");

        for (i, step) in script.steps.iter().enumerate() {
            let text = step.program.to_string();
            let (next, report) =
                resolve_edit(&state, &text, opts, None, None).expect("edit solves");
            let label = format!("step {i} (edit @{})", step.name);
            assert!(
                report.incremental,
                "{label}: warm state must be available after a complete solve"
            );

            // From-scratch SFS, and VSFS at three parallelism levels.
            let cold = cold_pipeline(&text);
            for (kind, jobs) in [
                (SolverKind::Sfs, 1),
                (SolverKind::Vsfs, 1),
                (SolverKind::Vsfs, 2),
                (SolverKind::Vsfs, 8),
            ] {
                let r = cold.solve(kind, jobs);
                let ctx = format!("{label} vs {}/j{jobs}", kind.name());
                assert_matches(&ctx, &next, &cold, &r, rng);
            }
            state = next;
        }
    });
}

/// An identical-text edit invalidates nothing and preserves the
/// fingerprint, on generated programs of varying shape.
#[test]
fn noop_edits_invalidate_nothing() {
    vsfs_testkit::check_cases("incremental::noop_edits", CASES, |rng| {
        let cfg = random_config(rng);
        let script = edit_script(&cfg, rng.next_u64(), 1);
        let text = script.base.to_string();
        let (state, r0) = solve_program(&text, IncrementalOptions::default(), None, None).unwrap();
        let (_, r1) =
            resolve_edit(&state, &text, IncrementalOptions::default(), None, None).unwrap();
        assert!(r1.incremental);
        assert_eq!(r1.dirty_nodes, 0, "identical text must invalidate nothing");
        assert_eq!(r1.fingerprint, r0.fingerprint);
    });
}

/// A single-function edit must not invalidate the whole graph: the
/// dirty region is a strict subset on every generated case.
#[test]
fn localized_edits_dirty_strict_subsets() {
    vsfs_testkit::check_cases("incremental::localized_edits", CASES, |rng| {
        let cfg = random_config(rng);
        let script = edit_script(&cfg, rng.next_u64(), 1);
        let (state, _) =
            solve_program(&script.base.to_string(), IncrementalOptions::default(), None, None)
                .unwrap();
        let step = &script.steps[0];
        let (_, report) = resolve_edit(
            &state,
            &step.program.to_string(),
            IncrementalOptions::default(),
            None,
            None,
        )
        .unwrap();
        assert!(report.incremental);
        assert!(report.dirty_nodes > 0, "a real edit must dirty something");
        assert!(
            report.dirty_nodes < report.total_nodes,
            "edit to @{} dirtied all {} nodes — invalidation is not localized",
            step.name,
            report.total_nodes
        );
    });
}

/// Solves `base` cold, re-solves `edited` from its warm state, checks
/// the result against a from-scratch SFS solve of `edited`, and returns
/// the edit's report.
fn edit_against_cold(label: &str, base: &str, edited: &str) -> SolveReport {
    let opts = IncrementalOptions::default();
    let (state, _) = solve_program(base, opts, None, None).expect("base solves");
    let (next, report) = resolve_edit(&state, edited, opts, None, None).expect("edit solves");
    assert!(report.incremental, "{label}: the edit must be solved incrementally");
    let cold = cold_pipeline(edited);
    let r = cold.solve(SolverKind::Sfs, 1);
    assert_matches(label, &next, &cold, &r, &mut Rng::seed_from_u64(7));
    report
}

/// A fixed generated program before and after `f0` is re-salted with
/// `salt` (odd: full-body rewrite, even: local epilogue).
fn salted_texts(salt: u64) -> (String, String) {
    let cfg = WorkloadConfig { seed: 2, edit_fraction: 0.5, ..WorkloadConfig::small() };
    let mut salts = vec![0u64; cfg.functions];
    let base = generate_edited(&cfg, &salts).to_string();
    salts[0] = salt;
    (base, generate_edited(&cfg, &salts).to_string())
}

/// A full-body rewrite (odd salt) whose seed region already covers more
/// than half the SVFG takes the half-graph rule before its first wave:
/// one unaudited wave over the forward closure, not an audited wave
/// that fails and a second near-whole-graph one.
#[test]
fn half_graph_rewrites_solve_in_one_wave() {
    let (base, edited) = salted_texts(3);
    let report = edit_against_cold("rewrite of f0", &base, &edited);
    assert!(
        report.dirty_nodes * 2 > report.total_nodes,
        "the rewrite must cover more than half the graph ({}/{} dirty)",
        report.dirty_nodes,
        report.total_nodes
    );
    assert_eq!(report.waves, 1, "a half-graph region runs exactly one wave");
}

/// A local edit (even salt) stays audited: its region is a small subset
/// of the graph and is not widened to its forward closure.
#[test]
fn local_edits_stay_audited() {
    let (base, edited) = salted_texts(4);
    let report = edit_against_cold("epilogue of f0", &base, &edited);
    assert!(report.dirty_nodes > 0, "a real edit must dirty something");
    assert!(
        report.dirty_nodes * 2 < report.total_nodes,
        "a local edit must stay below the half-graph rule ({}/{} dirty)",
        report.dirty_nodes,
        report.total_nodes
    );
    assert_eq!(report.waves, 1, "the epilogue is private, so the first audit passes");
}

/// A rewrite that deletes an object mentioned by clean nodes' warm state
/// (`H` flows through `@g` into `@reader`, whose text is unchanged). The
/// dead-object scan must dirty those clean nodes even though it skips
/// already-dirty ones, or the seed could not be carried and the edit
/// would fall back to a cold solve. Padding keeps the region below half
/// the graph, so the audited path runs.
#[test]
fn deleted_objects_dirty_the_clean_nodes_that_mention_them() {
    let mut pads = String::new();
    let mut calls = String::new();
    for k in 0..12 {
        pads.push_str(&format!(
            "func @pad{k}() {{\nentry:\n  %c = alloc stack P{k}\n  %d = alloc heap Q{k}\n  \
             store %d, %c\n  %e = load %c\n  store %c, %e\n  %f = load %e\n  ret\n}}\n\n"
        ));
        calls.push_str(&format!("  call @pad{k}()\n"));
    }
    let program = |make: &str| {
        format!(
            "global @g\n\n{make}\n\
             func @reader() {{\nentry:\n  %v = load @g\n  %box = alloc stack RB\n  \
             store %v, %box\n  %w = load %box\n  ret %w\n}}\n\n{pads}\
             func @main() {{\nentry:\n  %a = call @make()\n  store %a, @g\n  \
             %r = call @reader()\n{calls}  ret\n}}\n"
        )
    };
    let base = program("func @make() {\nentry:\n  %h = alloc heap H\n  ret %h\n}\n");
    let edited = program("func @make() {\nentry:\n  %n = alloc heap FRESH\n  ret %n\n}\n");
    let report = edit_against_cold("rewrite of @make", &base, &edited);
    assert!(
        report.dirty_nodes * 2 < report.total_nodes,
        "padding must keep the region audited ({}/{} dirty)",
        report.dirty_nodes,
        report.total_nodes
    );
}
