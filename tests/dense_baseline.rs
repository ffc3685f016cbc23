//! The traditional dense analysis (Section IV-A) against the staged
//! analyses.
//!
//! Dense-on-ICFG and staged-on-SVFG are *incomparable* in precision:
//!
//! * the staged analyses refine call targets on the fly and filter
//!   escaping objects, which dense (pre-computed call graph, no
//!   filtering) cannot;
//! * dense kills strongly-updated state *across* call boundaries, while
//!   the SVFG's call-site bypass edge (the χ's weak-update input) always
//!   lets pre-call state survive a call.
//!
//! * dense additionally models that control must *pass through* a
//!   callee: state after a call site only exists if some callee path
//!   returns, so unconditionally non-returning recursion blocks flow
//!   that the SVFG's def-use edges over-approximate.
//!
//! Both are sound: each refines the flow-insensitive auxiliary solution.
//! On programs without calls the two formulations coincide exactly.

use vsfs::prelude::*;
use vsfs_core::{SolveRequest, SolverKind};
use vsfs_workloads::gen::{generate, WorkloadConfig};

fn solve_dense(prog: &Program, aux: &andersen::AndersenResult) -> FlowSensitiveResult {
    vsfs_core::solve(prog, aux, None, SolveRequest::new(SolverKind::Dense)).result
}

#[test]
fn dense_refines_andersen_everywhere() {
    for seed in 0..10 {
        let prog = generate(&WorkloadConfig { seed, ..WorkloadConfig::small() });
        let aux = andersen::analyze(&prog);
        let dense = solve_dense(&prog, &aux);
        for v in prog.values.indices() {
            assert!(
                aux.value_pts(v).is_superset(dense.value_pts(v)),
                "seed {seed}: dense exceeds Andersen for %{}",
                prog.values[v].name
            );
        }
    }
}

#[test]
fn dense_matches_staged_on_call_free_programs() {
    // Without calls there is no call graph, no escape boundary, and no
    // bypass edge: the two formulations compute the same fixpoint.
    for p in vsfs_workloads::corpus::corpus() {
        let prog = parse_program(p.source).unwrap();
        let has_calls = prog.insts.iter().any(|i| matches!(i.kind, vsfs_ir::InstKind::Call { .. }));
        if has_calls {
            continue;
        }
        let aux = andersen::analyze(&prog);
        let mssa = MemorySsa::build(&prog, &aux);
        let svfg = Svfg::build(&prog, &aux, &mssa);
        let staged = vsfs_core::run_vsfs(&prog, &aux, &mssa, &svfg);
        let dense = solve_dense(&prog, &aux);
        for v in prog.values.indices() {
            assert_eq!(
                dense.value_pts(v),
                staged.value_pts(v),
                "{}: %{} differs between dense and staged",
                p.name,
                prog.values[v].name
            );
        }
    }
}

#[test]
fn dense_gets_flow_sensitive_basics_right() {
    let prog = parse_program(vsfs_workloads::corpus::STRONG_UPDATE).unwrap();
    let aux = andersen::analyze(&prog);
    let dense = solve_dense(&prog, &aux);
    let val = |n: &str| {
        prog.values.iter_enumerated().find(|(_, v)| v.name == n).map(|(id, _)| id).unwrap()
    };
    let names =
        |v| dense.value_pts(v).iter().map(|o| prog.objects[o].name.clone()).collect::<Vec<_>>();
    assert_eq!(names(val("before")), vec!["First"]);
    assert_eq!(names(val("after")), vec!["Second"], "dense strong update");
    assert!(dense.stats.strong_updates > 0);
}

#[test]
fn dense_kills_across_calls_where_staged_cannot() {
    // The callee strongly updates the caller-visible cell; dense's
    // return edge carries the killed state, while the SVFG call-site
    // bypass keeps the old value alive (both sound; dense more precise
    // here).
    let prog = parse_program(
        r#"
        global @cell
        func @overwrite() {
        entry:
          %h2 = alloc heap Second
          store %h2, @cell
          ret
        }
        func @main() {
        entry:
          %h1 = alloc heap First
          store %h1, @cell
          call @overwrite()
          %after = load @cell
          ret
        }
        "#,
    )
    .unwrap();
    let aux = andersen::analyze(&prog);
    let mssa = MemorySsa::build(&prog, &aux);
    let svfg = Svfg::build(&prog, &aux, &mssa);
    let staged = vsfs_core::run_vsfs(&prog, &aux, &mssa, &svfg);
    let dense = solve_dense(&prog, &aux);
    let after =
        prog.values.iter_enumerated().find(|(_, v)| v.name == "after").map(|(id, _)| id).unwrap();
    let names = |r: &vsfs_core::FlowSensitiveResult| {
        let mut v: Vec<String> =
            r.value_pts(after).iter().map(|o| prog.objects[o].name.clone()).collect();
        v.sort();
        v
    };
    assert_eq!(names(&dense), vec!["Second"], "dense kills across the call");
    assert_eq!(
        names(&staged),
        vec!["First", "Second"],
        "the SVFG bypass edge keeps the pre-call value (weaker but sound)"
    );
}

#[test]
fn dense_does_more_object_work_than_vsfs() {
    // Compare on a single large call-free function, where the two
    // formulations provably coincide in precision (no call graph, no
    // interprocedural kills or reachability effects): with all-array
    // weak updates the dense analysis must haul every object's state
    // through every program point, while the staged analyses only touch
    // def-use chains.
    let cfg = WorkloadConfig {
        seed: 31,
        functions: 0,
        segments: 40,
        allocs_per_function: 12,
        heap_fraction: 1.0,
        array_fraction: 1.0,
        loads_per_block: 3,
        load_chain: 2,
        global_traffic: 0.8,
        calls_per_function: 0,
        indirect_call_fraction: 0.0,
        ..WorkloadConfig::small()
    };
    let prog = generate(&cfg);
    let aux = andersen::analyze(&prog);
    let mssa = MemorySsa::build(&prog, &aux);
    let svfg = Svfg::build(&prog, &aux, &mssa);
    let vsfs = vsfs_core::run_vsfs(&prog, &aux, &mssa, &svfg);
    let dense = solve_dense(&prog, &aux);
    // Stored *elements* (actual points-to data) and propagation work both
    // blow up without sparsity. (Set *counts* are not comparable across
    // the two accountings: VSFS pre-allocates a slot per (object,
    // version) even when empty.)
    assert!(
        dense.stats.stored_object_elems > vsfs.stats.stored_object_elems,
        "dense {} elems vs vsfs {}",
        dense.stats.stored_object_elems,
        vsfs.stats.stored_object_elems
    );
    assert!(
        dense.stats.object_propagations > vsfs.stats.object_propagations,
        "dense {} propagations vs vsfs {}",
        dense.stats.object_propagations,
        vsfs.stats.object_propagations
    );
}
