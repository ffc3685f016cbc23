//! The per-query soundness chain across the four precision tiers
//! (DESIGN.md §14): for every top-level value `v`,
//!
//! ```text
//! pt_steensgaard(v) ⊇ pt_unify(v) ⊇ pt_andersen(v) ⊇ pt_flow(v)
//! ```
//!
//! and the resolved call-edge sets nest the same way. This is the
//! contract that makes the degradation ladder *sound*: any budget trip
//! can step up the chain and still report an over-approximation of the
//! flow-sensitive truth. Checked on randomly generated workloads, on
//! the hand-written corpus, and on the checker corpus (the programs the
//! four-tier `check-summary:` report runs over).

use vsfs::prelude::*;
use vsfs_andersen::{analyze_unify_with, UnifyConfig, UnifyResult};
use vsfs_testkit::Rng;
use vsfs_workloads::gen::{generate, WorkloadConfig};

const CASES: u32 = 32;

fn random_config(rng: &mut Rng) -> WorkloadConfig {
    WorkloadConfig {
        seed: rng.next_u64(),
        functions: rng.gen_range(1usize..8),
        segments: rng.gen_range(1usize..5),
        loads_per_block: rng.gen_range(0usize..4),
        stores_per_block: rng.gen_range(0usize..3),
        load_chain: rng.gen_range(0usize..4),
        heap_fraction: rng.gen_range(0.0f64..1.0),
        array_fraction: rng.gen_range(0.0f64..1.0),
        indirect_call_fraction: rng.gen_range(0.0f64..0.6),
        backward_call_fraction: rng.gen_range(0.0f64..0.4),
        deref_chain: rng.gen_range(0.0f64..0.6),
        ..WorkloadConfig::small()
    }
}

fn sorted_unify_edges(r: &UnifyResult) -> Vec<(vsfs_ir::InstId, vsfs_ir::FuncId)> {
    let mut edges: Vec<_> = r.callgraph.edges().collect();
    edges.sort_unstable();
    edges
}

/// Asserts the full four-tier chain on one program.
fn assert_chain(prog: &Program, label: &str) {
    let steens = analyze_unify_with(prog, UnifyConfig::steensgaard(), None).result;
    let unify = analyze_unify_with(prog, UnifyConfig::default(), None).result;
    let aux = andersen::analyze(prog);
    let mssa = MemorySsa::build(prog, &aux);
    let svfg = Svfg::build(prog, &aux, &mssa);
    let flow = vsfs_core::run_vsfs(prog, &aux, &mssa, &svfg);

    for v in prog.values.indices() {
        let name = &prog.values[v].name;
        assert!(
            steens.value_pts(v).is_superset(unify.value_pts(v)),
            "{label}: steensgaard ⊉ unify at %{name}"
        );
        assert!(
            unify.value_pts(v).is_superset(aux.value_pts(v)),
            "{label}: unify ⊉ andersen at %{name}"
        );
        assert!(
            aux.value_pts(v).is_superset(flow.value_pts(v)),
            "{label}: andersen ⊉ flow-sensitive at %{name}"
        );
    }

    let steens_edges = sorted_unify_edges(&steens);
    let unify_edges = sorted_unify_edges(&unify);
    let mut aux_edges: Vec<_> = aux.callgraph.edges().collect();
    aux_edges.sort_unstable();
    for e in &unify_edges {
        assert!(steens_edges.contains(e), "{label}: steensgaard call graph misses {e:?}");
    }
    for e in &aux_edges {
        assert!(unify_edges.contains(e), "{label}: unify call graph misses {e:?}");
    }
    for e in &flow.callgraph_edges {
        assert!(aux_edges.contains(e), "{label}: andersen call graph misses {e:?}");
    }
}

#[test]
fn chain_holds_on_random_workloads() {
    vsfs_testkit::check_cases("soundness_chain::random_workloads", CASES, |rng| {
        let cfg = random_config(rng);
        let prog = generate(&cfg);
        assert_chain(&prog, &format!("seed {}", cfg.seed));
    });
}

#[test]
fn chain_holds_on_the_hand_written_corpus() {
    for c in vsfs_workloads::corpus::corpus() {
        let prog = parse_program(c.source).expect("corpus parses");
        assert_chain(&prog, c.name);
    }
}

#[test]
fn chain_holds_on_the_checker_corpus() {
    let cases = vsfs_checkers::load_corpus(&vsfs_checkers::corpus::default_corpus_dir())
        .expect("checker corpus loads");
    assert!(!cases.is_empty(), "checker corpus must not be empty");
    for case in cases {
        let prog = parse_program(&case.source).expect("checker corpus parses");
        assert_chain(&prog, &case.name);
    }
}
