//! Determinism of parallel versioning.
//!
//! The parallel layer promises *bit-identical* results for any
//! `--jobs` value: object-partitioned versioning assigns the same slot
//! ids as the sequential pass by construction. These tests drive the
//! full pipeline at `--jobs 1/2/8` over the corpus and generated
//! workloads and demand equal points-to sets, call graphs, query
//! answers and checker findings (random indirect-call-heavy
//! configurations get the same treatment in `tests/scheduling_order.rs`),
//! then check the solvers against each other (SFS == VSFS everywhere,
//! dense == VSFS on call-free programs) with parallel versioning
//! enabled.

use vsfs::prelude::*;
use vsfs_checkers::{run_checkers, Finding, FlowView};
use vsfs_core::queries::AliasQueries;
use vsfs_core::result::precision_diff;
use vsfs_core::{SolveRequest, SolverKind};
use vsfs_workloads::gen::{generate, WorkloadConfig};

const JOB_COUNTS: [usize; 3] = [1, 2, 8];

fn test_programs() -> Vec<(String, Program)> {
    let mut progs: Vec<(String, Program)> = vsfs_workloads::corpus::corpus()
        .into_iter()
        .map(|p| (p.name.to_string(), parse_program(p.source).unwrap()))
        .collect();
    for seed in 0..6 {
        let cfg = WorkloadConfig { seed, ..WorkloadConfig::small() };
        progs.push((format!("small seed {seed}"), generate(&cfg)));
    }
    let heavy = WorkloadConfig {
        seed: 424,
        loads_per_block: 4,
        stores_per_block: 2,
        load_chain: 3,
        heap_fraction: 0.7,
        array_fraction: 0.6,
        indirect_call_fraction: 0.4,
        backward_call_fraction: 0.15,
        ..WorkloadConfig::small()
    };
    progs.push(("heavy seed 424".to_string(), generate(&heavy)));
    progs
}

/// Runs the whole pipeline — Andersen, memory SSA, SVFG, parallel
/// versioning, VSFS main phase — with `jobs` versioning workers, and
/// the checkers over its result.
fn pipeline_at(prog: &Program, jobs: usize) -> (FlowSensitiveResult, Vec<Finding>) {
    let aux = andersen::analyze(prog);
    let mssa = MemorySsa::build(prog, &aux);
    let svfg = Svfg::build(prog, &aux, &mssa);
    let req = SolveRequest { jobs, ..SolveRequest::new(SolverKind::Vsfs) };
    let result = vsfs_core::solve(prog, &aux, Some((&mssa, &svfg)), req).result;
    let findings = run_checkers(prog, &svfg, &FlowView(&result));
    (result, findings)
}

fn sorted_edges(r: &FlowSensitiveResult) -> Vec<(vsfs_ir::InstId, vsfs_ir::FuncId)> {
    let mut e = r.callgraph_edges.clone();
    e.sort();
    e
}

/// Demands one pipeline outcome for `prog` at every job count.
fn assert_identical_across_job_counts(name: &str, prog: &Program) {
    let (base, base_findings) = pipeline_at(prog, JOB_COUNTS[0]);
    for &jobs in &JOB_COUNTS[1..] {
        let (other, findings) = pipeline_at(prog, jobs);
        for v in prog.values.indices() {
            assert_eq!(
                base.value_pts(v),
                other.value_pts(v),
                "{name}: pt(%{}) differs at jobs={jobs}",
                prog.values[v].name
            );
        }
        assert_eq!(
            sorted_edges(&base),
            sorted_edges(&other),
            "{name}: call graph differs at jobs={jobs}"
        );
        // The hash-consed store must end up bit-identical too: the
        // same canonical sets get interned in the same order for
        // every worker count.
        assert_eq!(
            base.stats.store.unique_sets, other.stats.store.unique_sets,
            "{name}: unique interned set count differs at jobs={jobs}"
        );
        assert_eq!(
            base.stats.store.unique_set_bytes, other.stats.store.unique_set_bytes,
            "{name}: interned set bytes differ at jobs={jobs}"
        );
        // Client-visible query answers must not depend on `--jobs`.
        let qa = AliasQueries::new(prog, &base);
        let qb = AliasQueries::new(prog, &other);
        let mut prev = None;
        for v in prog.values.indices() {
            assert_eq!(qa.unique_target(v), qb.unique_target(v), "{name} jobs={jobs}");
            assert_eq!(qa.is_empty(v), qb.is_empty(v), "{name} jobs={jobs}");
            assert_eq!(qa.may_point_to_heap(v), qb.may_point_to_heap(v), "{name} jobs={jobs}");
            if let Some(p) = prev {
                assert_eq!(qa.may_alias(p, v), qb.may_alias(p, v), "{name} jobs={jobs}");
            }
            prev = Some(v);
        }
        assert_eq!(base_findings, findings, "{name}: checker findings differ at jobs={jobs}");
    }
}

#[test]
fn full_pipeline_is_bit_identical_across_job_counts() {
    for (name, prog) in test_programs() {
        assert_identical_across_job_counts(&name, &prog);
    }
}

#[test]
fn solvers_agree_with_all_parallel_phases_enabled() {
    // Cross-solver equivalence under the parallel pipeline: SFS == VSFS
    // on every program, and dense == VSFS on call-free programs (the
    // two formulations only coincide without call boundaries — see
    // tests/dense_baseline.rs).
    for (name, prog) in test_programs() {
        let aux = andersen::analyze(&prog);
        let mssa = MemorySsa::build(&prog, &aux);
        let svfg = Svfg::build(&prog, &aux, &mssa);
        let sfs = run_sfs(&prog, &aux, &mssa, &svfg);
        let req = SolveRequest { jobs: 8, ..SolveRequest::new(SolverKind::Vsfs) };
        let vsfs = vsfs_core::solve(&prog, &aux, Some((&mssa, &svfg)), req).result;
        if let Some(diff) = precision_diff(&prog, &sfs, &vsfs) {
            panic!("{name}: SFS and VSFS disagree under parallel phases: {diff}");
        }
        let has_calls = prog.insts.iter().any(|i| matches!(i.kind, vsfs_ir::InstKind::Call { .. }));
        if !has_calls {
            let dense =
                vsfs_core::solve(&prog, &aux, None, SolveRequest::new(SolverKind::Dense)).result;
            for v in prog.values.indices() {
                assert_eq!(
                    dense.value_pts(v),
                    vsfs.value_pts(v),
                    "{name}: dense and VSFS differ on call-free %{}",
                    prog.values[v].name
                );
            }
        }
    }
}
