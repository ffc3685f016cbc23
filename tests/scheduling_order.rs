//! Schedule-independence of the fixpoint engine.
//!
//! The solvers compute the unique least fixpoint of a monotone system,
//! so the order in which work is done cannot change the answer. The
//! fixpoint schedule itself is fixed (topological ranks, no switch);
//! what still varies is the worker count (`--jobs`), which changes the
//! order in which parallel versioning melds objects, and the engine,
//! each of which visits the same constraints in its own order (SFS
//! over SVFG node ranks, VSFS over version-slot ranks, cfgfree over a
//! plain instruction worklist). These tests drive random
//! indirect-call-heavy workloads through both axes and demand
//! bit-identical points-to sets, call graphs, client query answers and
//! checker findings.

use vsfs::prelude::*;
use vsfs_checkers::{run_checkers, Finding, FlowView};
use vsfs_core::queries::AliasQueries;
use vsfs_core::result::precision_diff;
use vsfs_core::{SolveRequest, SolverKind};
use vsfs_testkit::Rng;
use vsfs_workloads::gen::{generate, WorkloadConfig};

const CASES: u32 = 16;
const JOB_COUNTS: [usize; 3] = [1, 2, 8];

/// A random configuration space around `WorkloadConfig::small`, biased
/// toward indirect calls so on-the-fly activation (the one scheduling
/// path that grows the graph mid-solve) is exercised.
fn random_config(rng: &mut Rng) -> WorkloadConfig {
    WorkloadConfig {
        seed: rng.next_u64(),
        functions: rng.gen_range(2usize..8),
        segments: rng.gen_range(1usize..5),
        loads_per_block: rng.gen_range(0usize..4),
        stores_per_block: rng.gen_range(0usize..3),
        load_chain: rng.gen_range(0usize..4),
        heap_fraction: rng.gen_range(0.0f64..1.0),
        array_fraction: rng.gen_range(0.0f64..1.0),
        indirect_call_fraction: rng.gen_range(0.1f64..0.6),
        backward_call_fraction: rng.gen_range(0.0f64..0.4),
        deref_chain: rng.gen_range(0.0f64..0.6),
        ..WorkloadConfig::small()
    }
}

/// Everything a client can observe from one flow-sensitive run.
fn observe(prog: &Program, r: &FlowSensitiveResult, svfg: &Svfg) -> Vec<Finding> {
    run_checkers(prog, svfg, &FlowView(r))
}

fn assert_same_queries(
    prog: &Program,
    a: &FlowSensitiveResult,
    b: &FlowSensitiveResult,
    ctx: &str,
) {
    let qa = AliasQueries::new(prog, a);
    let qb = AliasQueries::new(prog, b);
    let mut prev = None;
    for v in prog.values.indices() {
        assert_eq!(qa.unique_target(v), qb.unique_target(v), "{ctx}: unique_target");
        assert_eq!(qa.is_empty(v), qb.is_empty(v), "{ctx}: is_empty");
        assert_eq!(qa.may_point_to_heap(v), qb.may_point_to_heap(v), "{ctx}: heap");
        if let Some(p) = prev {
            assert_eq!(qa.may_alias(p, v), qb.may_alias(p, v), "{ctx}: may_alias");
        }
        prev = Some(v);
    }
}

/// VSFS: every job count (and so every meld order of parallel
/// versioning) yields the same result, the same query answers, and the
/// same checker findings.
#[test]
fn vsfs_is_identical_across_orders_and_jobs() {
    vsfs_testkit::check_cases("scheduling::vsfs_orders_and_jobs", CASES, |rng| {
        let cfg = random_config(rng);
        let prog = generate(&cfg);
        let aux = andersen::analyze(&prog);
        let mssa = MemorySsa::build(&prog, &aux);
        let svfg = Svfg::build(&prog, &aux, &mssa);
        let solve = |jobs| {
            let req = SolveRequest { jobs, ..SolveRequest::new(SolverKind::Vsfs) };
            vsfs_core::solve(&prog, &aux, Some((&mssa, &svfg)), req).result
        };

        let base = solve(JOB_COUNTS[0]);
        let base_findings = observe(&prog, &base, &svfg);
        for &jobs in &JOB_COUNTS[1..] {
            let ctx = format!("seed {} jobs {jobs}", cfg.seed);
            let r = solve(jobs);
            if let Some(diff) = precision_diff(&prog, &base, &r) {
                panic!("{ctx}: {diff}");
            }
            assert_same_queries(&prog, &base, &r, &ctx);
            assert_eq!(base_findings, observe(&prog, &r, &svfg), "{ctx}: findings");
        }
    });
}

/// SFS and cfgfree, two engines that visit the same constraints in
/// different orders, yield the same result and findings, and agree with
/// VSFS (the paper's equivalence, schedule-independent).
#[test]
fn sfs_orders_agree_with_each_other_and_with_vsfs() {
    vsfs_testkit::check_cases("scheduling::sfs_orders", CASES, |rng| {
        let cfg = random_config(rng);
        let prog = generate(&cfg);
        let aux = andersen::analyze(&prog);
        let mssa = MemorySsa::build(&prog, &aux);
        let svfg = Svfg::build(&prog, &aux, &mssa);
        let solve = |kind| {
            vsfs_core::solve(&prog, &aux, Some((&mssa, &svfg)), SolveRequest::new(kind)).result
        };

        let sfs = solve(SolverKind::Sfs);
        let cfgfree = solve(SolverKind::CfgFree);
        if let Some(diff) = precision_diff(&prog, &sfs, &cfgfree) {
            panic!("seed {}: sfs vs cfgfree: {diff}", cfg.seed);
        }
        assert_eq!(
            observe(&prog, &sfs, &svfg),
            observe(&prog, &cfgfree, &svfg),
            "seed {}: sfs and cfgfree findings differ",
            cfg.seed
        );
        let vsfs = solve(SolverKind::Vsfs);
        if let Some(diff) = precision_diff(&prog, &sfs, &vsfs) {
            panic!("seed {}: sfs vs vsfs: {diff}", cfg.seed);
        }
    });
}
