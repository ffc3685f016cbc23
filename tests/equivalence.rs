//! The central correctness experiment, now three-way: VSFS computes
//! exactly the same points-to information as SFS (Section IV-E of the
//! paper), and the CFG-free constraint-ordering solver — which never
//! builds memory SSA or an SVFG — matches both, on the hand-written
//! corpus, on targeted tricky programs, and on a sweep of generated
//! workloads.

use vsfs::prelude::*;
use vsfs_core::queries::AliasQueries;
use vsfs_core::result::precision_diff;
use vsfs_core::{SolveRequest, SolverKind};
use vsfs_workloads::gen::{generate, WorkloadConfig};

fn full_pipeline(
    prog: &Program,
) -> (FlowSensitiveResult, FlowSensitiveResult, FlowSensitiveResult) {
    vsfs_ir::verify::verify(prog).expect("program verifies");
    let aux = andersen::analyze(prog);
    let mssa = MemorySsa::build(prog, &aux);
    let svfg = Svfg::build(prog, &aux, &mssa);
    let sfs = vsfs_core::run_sfs(prog, &aux, &mssa, &svfg);
    let vsfs = vsfs_core::run_vsfs(prog, &aux, &mssa, &svfg);
    let cfgfree = vsfs_core::solve(prog, &aux, None, SolveRequest::new(SolverKind::CfgFree)).result;
    (sfs, vsfs, cfgfree)
}

fn assert_equivalent(prog: &Program, label: &str) {
    let (sfs, vsfs, cfgfree) = full_pipeline(prog);
    if let Some(diff) = precision_diff(prog, &sfs, &vsfs) {
        panic!("{label}: SFS and VSFS disagree: {diff}");
    }
    if let Some(diff) = precision_diff(prog, &sfs, &cfgfree) {
        panic!("{label}: SFS and CFG-free disagree: {diff}");
    }
}

#[test]
fn corpus_programs_are_equivalent() {
    for p in vsfs_workloads::corpus::corpus() {
        let prog = parse_program(p.source).unwrap();
        assert_equivalent(&prog, p.name);
    }
}

#[test]
fn generated_workloads_are_equivalent() {
    for seed in 0..20 {
        let prog = generate(&WorkloadConfig { seed, ..WorkloadConfig::small() });
        assert_equivalent(&prog, &format!("seed {seed}"));
    }
}

#[test]
fn heavy_profile_workloads_are_equivalent() {
    for seed in 100..106 {
        let cfg = WorkloadConfig {
            seed,
            loads_per_block: 4,
            stores_per_block: 2,
            load_chain: 3,
            heap_fraction: 0.7,
            array_fraction: 0.6,
            indirect_call_fraction: 0.4,
            backward_call_fraction: 0.15,
            ..WorkloadConfig::small()
        };
        let prog = generate(&cfg);
        assert_equivalent(&prog, &format!("heavy seed {seed}"));
    }
}

#[test]
fn flow_sensitive_is_more_precise_than_andersen() {
    // Flow-sensitivity must refine the auxiliary results: every
    // flow-sensitive points-to set is a subset of Andersen's.
    for seed in 0..8 {
        let prog = generate(&WorkloadConfig { seed, ..WorkloadConfig::small() });
        let aux = andersen::analyze(&prog);
        let mssa = MemorySsa::build(&prog, &aux);
        let svfg = Svfg::build(&prog, &aux, &mssa);
        let fs = vsfs_core::run_vsfs(&prog, &aux, &mssa, &svfg);
        for v in prog.values.indices() {
            assert!(
                aux.value_pts(v).is_superset(fs.value_pts(v)),
                "seed {seed}: flow-sensitive pt(%{}) not within Andersen's",
                prog.values[v].name
            );
        }
        // And the flow-sensitive call graph is a subset of Andersen's.
        for &(call, callee) in &fs.callgraph_edges {
            assert!(
                aux.callgraph.callees(call).contains(&callee),
                "seed {seed}: FS call edge missing from Andersen's call graph"
            );
        }
    }
}

#[test]
fn strong_update_behaviour() {
    let prog = parse_program(vsfs_workloads::corpus::STRONG_UPDATE).unwrap();
    let (sfs, vsfs, cfgfree) = full_pipeline(&prog);
    let val = |name: &str| {
        prog.values.iter_enumerated().find(|(_, v)| v.name == name).map(|(id, _)| id).unwrap()
    };
    let obj_name = |o| prog.objects[o].name.clone();
    for (label, r) in [("sfs", &sfs), ("vsfs", &vsfs), ("cfgfree", &cfgfree)] {
        let before: Vec<String> = r.value_pts(val("before")).iter().map(obj_name).collect();
        let after: Vec<String> = r.value_pts(val("after")).iter().map(obj_name).collect();
        assert_eq!(before, vec!["First"], "{label}: load before the second store");
        assert_eq!(after, vec!["Second"], "{label}: strong update must kill First");
    }
    assert!(sfs.stats.strong_updates > 0);
    assert!(vsfs.stats.strong_updates > 0);
    assert!(cfgfree.stats.strong_updates > 0);
}

#[test]
fn weak_update_on_arrays() {
    let prog = parse_program(vsfs_workloads::corpus::WEAK_ARRAY).unwrap();
    let (sfs, vsfs, cfgfree) = full_pipeline(&prog);
    let x = prog.values.iter_enumerated().find(|(_, v)| v.name == "x").map(|(id, _)| id).unwrap();
    for r in [&sfs, &vsfs, &cfgfree] {
        let mut names: Vec<String> =
            r.value_pts(x).iter().map(|o| prog.objects[o].name.clone()).collect();
        names.sort();
        assert_eq!(names, vec!["A", "B"], "array stores are weak: both survive");
    }
}

#[test]
fn flow_order_precision_beats_andersen() {
    let prog = parse_program(vsfs_workloads::corpus::FLOW_ORDER).unwrap();
    let aux = andersen::analyze(&prog);
    let (sfs, vsfs, cfgfree) = full_pipeline(&prog);
    let val = |name: &str| {
        prog.values.iter_enumerated().find(|(_, v)| v.name == name).map(|(id, _)| id).unwrap()
    };
    // Andersen (flow-insensitive) thinks the early load can see Obj.
    assert_eq!(aux.value_pts(val("early")).len(), 1);
    // Both flow-sensitive analyses know it cannot.
    assert!(sfs.value_pts(val("early")).is_empty());
    assert!(vsfs.value_pts(val("early")).is_empty());
    assert!(cfgfree.value_pts(val("early")).is_empty());
    assert_eq!(sfs.value_pts(val("late")).len(), 1);
    assert_eq!(vsfs.value_pts(val("late")).len(), 1);
    assert_eq!(cfgfree.value_pts(val("late")).len(), 1);
}

#[test]
fn indirect_dispatch_resolves_identically() {
    let prog = parse_program(vsfs_workloads::corpus::FPTR_DISPATCH).unwrap();
    let (sfs, vsfs, cfgfree) = full_pipeline(&prog);
    assert_eq!(sfs.callgraph_edges, vsfs.callgraph_edges);
    assert_eq!(sfs.callgraph_edges, cfgfree.callgraph_edges);
    // Both handlers are feasible targets.
    assert_eq!(sfs.callgraph_edges.len(), 2);
    assert!(sfs.stats.calls_activated >= 2);
    assert!(vsfs.stats.calls_activated >= 2);
    assert!(cfgfree.stats.calls_activated >= 2);
}

#[test]
fn linked_list_field_flow() {
    let prog = parse_program(vsfs_workloads::corpus::LINKED_LIST).unwrap();
    let (sfs, vsfs, cfgfree) = full_pipeline(&prog);
    let val = |name: &str| {
        prog.values.iter_enumerated().find(|(_, v)| v.name == name).map(|(id, _)| id).unwrap()
    };
    for r in [&sfs, &vsfs, &cfgfree] {
        // next = n1.next = the Node object; payload = *n2 ⊇ Data2.
        let next: Vec<String> =
            r.value_pts(val("next")).iter().map(|o| prog.objects[o].name.clone()).collect();
        assert_eq!(next, vec!["Node"]);
        let payload: Vec<String> =
            r.value_pts(val("payload")).iter().map(|o| prog.objects[o].name.clone()).collect();
        // The abstract Node summarises both list cells, so the payload
        // may be either datum.
        assert!(payload.contains(&"Data2".to_string()), "payload = {payload:?}");
    }
}

#[test]
fn query_answers_are_identical_between_solvers_corpus_wide() {
    // The hash-consed storage must be invisible at the API boundary:
    // every client query resolves ids back to sets and answers exactly
    // as the owned-set representation did, and SFS and VSFS agree on
    // all of them.
    for p in vsfs_workloads::corpus::corpus() {
        let prog = parse_program(p.source).unwrap();
        let (sfs, vsfs, cfgfree) = full_pipeline(&prog);
        let qs = AliasQueries::new(&prog, &sfs);
        let qv = AliasQueries::new(&prog, &vsfs);
        let qc = AliasQueries::new(&prog, &cfgfree);
        let mut prev = None;
        for v in prog.values.indices() {
            assert_eq!(qs.unique_target(v), qv.unique_target(v), "{}", p.name);
            assert_eq!(qs.unique_target(v), qc.unique_target(v), "{}", p.name);
            assert_eq!(qs.is_empty(v), qv.is_empty(v), "{}", p.name);
            assert_eq!(qs.is_empty(v), qc.is_empty(v), "{}", p.name);
            assert_eq!(qs.may_point_to_heap(v), qv.may_point_to_heap(v), "{}", p.name);
            assert_eq!(qs.may_point_to_heap(v), qc.may_point_to_heap(v), "{}", p.name);
            assert_eq!(qs.pointee_names(v), qv.pointee_names(v), "{}", p.name);
            assert_eq!(qs.pointee_names(v), qc.pointee_names(v), "{}", p.name);
            if let Some(u) = prev {
                assert_eq!(qs.may_alias(u, v), qv.may_alias(u, v), "{}", p.name);
                assert_eq!(qs.may_alias(u, v), qc.may_alias(u, v), "{}", p.name);
            }
            prev = Some(v);
        }
        // Every solver's store carries at least the canonical empty set
        // and reports consistent byte accounting.
        for r in [&sfs, &vsfs, &cfgfree] {
            assert!(r.stats.store.unique_sets >= 1);
        }
    }
}

#[test]
fn vsfs_stores_fewer_object_sets_on_redundant_workloads() {
    // The paper's headline mechanism: shared versions mean fewer stored
    // points-to sets and fewer propagations than SFS's IN/OUT scheme.
    let cfg = WorkloadConfig {
        seed: 7,
        functions: 12,
        segments: 6,
        loads_per_block: 4,
        load_chain: 4,
        heap_fraction: 0.7,
        array_fraction: 0.6,
        ..WorkloadConfig::small()
    };
    let prog = generate(&cfg);
    let (sfs, vsfs, _cfgfree) = full_pipeline(&prog);
    assert!(
        vsfs.stats.stored_object_sets < sfs.stats.stored_object_sets,
        "VSFS sets {} !< SFS sets {}",
        vsfs.stats.stored_object_sets,
        sfs.stats.stored_object_sets
    );
    assert!(
        vsfs.stats.object_propagations < sfs.stats.object_propagations,
        "VSFS propagations {} !< SFS propagations {}",
        vsfs.stats.object_propagations,
        sfs.stats.object_propagations
    );
    // The hash-consed store compounds the saving: repeated unions on a
    // redundancy-heavy workload are served by the memo and shortcuts,
    // and far fewer canonical sets exist than logical stored slots.
    for (label, r) in [("sfs", &sfs), ("vsfs", &vsfs)] {
        let s = r.stats.store;
        assert!(s.union_hits > 0, "{label}: union memo never hit");
        assert!(s.union_shortcuts > 0, "{label}: union shortcuts never fired");
        assert!(
            s.unique_sets < r.stats.stored_object_sets,
            "{label}: {} canonical sets for {} logical slots — dedup is not sharing",
            s.unique_sets,
            r.stats.stored_object_sets
        );
    }
}

#[test]
fn cfgfree_checker_findings_are_bit_identical_across_jobs_and_orders() {
    // The CFG-free result must be schedule- and parallelism-invariant:
    // checker findings rendered under its FlowView are byte-for-byte
    // identical whether the request asked for 1, 2, or 8 jobs and
    // whether the solver drained its worklist FIFO or topological.
    use vsfs_checkers::{render_findings, run_checkers, FlowView};
    use vsfs_core::SolveOrder;

    for p in vsfs_workloads::corpus::corpus() {
        let prog = parse_program(p.source).unwrap();
        vsfs_ir::verify::verify(&prog).expect("program verifies");
        let aux = andersen::analyze(&prog);
        // The checkers traverse the SVFG for witness paths; the view
        // under test is still the CFG-free result.
        let mssa = MemorySsa::build(&prog, &aux);
        let svfg = Svfg::build(&prog, &aux, &mssa);
        let mut reference: Option<Vec<String>> = None;
        for jobs in [1usize, 2, 8] {
            for order in [SolveOrder::Fifo, SolveOrder::Topo] {
                let req = SolveRequest { order, jobs, ..SolveRequest::new(SolverKind::CfgFree) };
                let r = vsfs_core::solve(&prog, &aux, None, req).result;
                let findings = run_checkers(&prog, &svfg, &FlowView(&r));
                let rendered = render_findings(&prog, &findings);
                match &reference {
                    None => reference = Some(rendered),
                    Some(want) => assert_eq!(
                        want,
                        &rendered,
                        "{}: findings differ at jobs={jobs} order={}",
                        p.name,
                        order.name()
                    ),
                }
            }
        }
    }
}

/// FNV-1a over the version tables, read through public accessors only:
/// every node's consume and yield entries, then every slot's reliance
/// successors. Two tables hash equal exactly when a solver would see
/// the same versions and the same `[A-PROP]` constraints.
fn version_tables_digest(svfg: &Svfg, vt: &vsfs_core::VersionTables) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u32| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(vt.slot_count());
    for n in svfg.node_ids() {
        for entries in [vt.consume_entries(n), vt.yield_entries(n)] {
            eat(entries.len() as u32);
            for &(o, s) in entries {
                eat(o.index() as u32);
                eat(s);
            }
        }
    }
    for y in 0..vt.slot_count() {
        let succs = vt.reliance(y);
        eat(succs.len() as u32);
        succs.iter().for_each(|&c| eat(c));
    }
    h
}

#[test]
fn version_tables_are_bit_identical_across_jobs() {
    // Golden digests of the version tables on scaled-down programs of
    // the three suite shapes (Light, Medium, Heavy). The tables must not
    // depend on the worker count, and any change to the meld
    // implementation must reproduce them exactly.
    const GOLDEN: [(&str, u64); 3] = [
        ("du", 0x3775_fb48_7af2_6e91),
        ("ninja", 0xe86d_3780_2c73_6a42),
        ("bake", 0x756b_7f09_ba4f_b057),
    ];
    for (name, want) in GOLDEN {
        let spec = vsfs_workloads::suite::benchmark(name).expect("suite benchmark");
        let prog = generate(&WorkloadConfig { functions: 10, segments: 3, ..spec.config });
        let aux = andersen::analyze(&prog);
        let mssa = MemorySsa::build(&prog, &aux);
        let svfg = Svfg::build(&prog, &aux, &mssa);
        for jobs in [1usize, 4] {
            let vt = vsfs_core::VersionTables::build_with(&prog, &mssa, &svfg, jobs, None).result;
            let got = version_tables_digest(&svfg, &vt);
            assert_eq!(got, want, "{name}: version tables changed at jobs={jobs}");
        }
    }
}
