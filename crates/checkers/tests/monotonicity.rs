//! Checker monotonicity over random programs (the view-refinement
//! contract of `crates/checkers/src/view.rs`):
//!
//! * use-after-free, double-free, and null-deref findings under the
//!   flow-sensitive view are a **subset** of those under the Andersen
//!   view — every guard (taint seeds, sink tests, call edges) is a
//!   points-to set that only shrinks with precision;
//! * leak findings go the **other way** (superset): a more precise "may
//!   free" set can only rule frees out, turning non-leaks into leaks.
//!
//! Programs come from the workload generator with the `free_fraction` /
//! `null_fraction` knobs on, so frees, possibly-null pointers, loops,
//! diamonds, and indirect calls all mix.

use vsfs_adt::FxHashSet;
use vsfs_checkers::{run_checkers, AndersenView, CheckerKind, FlowView};
use vsfs_core::{SolveRequest, SolverKind};
use vsfs_testkit::Rng;
use vsfs_workloads::gen::{generate, WorkloadConfig};

const CASES: u32 = 32;

fn random_buggy_config(rng: &mut Rng) -> WorkloadConfig {
    WorkloadConfig {
        seed: rng.next_u64(),
        functions: rng.gen_range(1usize..8),
        segments: rng.gen_range(1usize..5),
        loads_per_block: rng.gen_range(0usize..4),
        stores_per_block: rng.gen_range(0usize..3),
        heap_fraction: rng.gen_range(0.3f64..1.0),
        indirect_call_fraction: rng.gen_range(0.0f64..0.6),
        deref_chain: rng.gen_range(0.0f64..0.6),
        free_fraction: rng.gen_range(0.2f64..0.8),
        null_fraction: rng.gen_range(0.0f64..0.5),
        ..WorkloadConfig::small()
    }
}

#[test]
fn flow_sensitive_findings_refine_andersen() {
    vsfs_testkit::check_cases("checkers::flow_sensitive_findings_refine_andersen", CASES, |rng| {
        let cfg = random_buggy_config(rng);
        let prog = generate(&cfg);
        let aux = vsfs_andersen::analyze(&prog);
        let mssa = vsfs_mssa::MemorySsa::build(&prog, &aux);
        let svfg = vsfs_svfg::Svfg::build(&prog, &aux, &mssa);
        let fs = vsfs_core::run_vsfs(&prog, &aux, &mssa, &svfg);
        let ander = run_checkers(&prog, &svfg, &AndersenView(&aux));
        let flow = run_checkers(&prog, &svfg, &FlowView(&fs));
        // Compare on (checker, inst, obj, src) — the path is a property
        // of the view's activated edges, not of the defect.
        let key = |f: &vsfs_checkers::Finding| (f.checker, f.inst, f.obj, f.src);
        let ander_keys: FxHashSet<_> = ander.iter().map(key).collect();
        let flow_keys: FxHashSet<_> = flow.iter().map(key).collect();
        for k in &flow_keys {
            if k.0 == CheckerKind::Leak {
                continue;
            }
            assert!(
                ander_keys.contains(k),
                "seed {}: flow-sensitive finding {k:?} absent under Andersen",
                cfg.seed
            );
        }
        for k in &ander_keys {
            if k.0 != CheckerKind::Leak {
                continue;
            }
            assert!(
                flow_keys.contains(k),
                "seed {}: Andersen leak {k:?} absent under flow-sensitive view",
                cfg.seed
            );
        }
    });
}

#[test]
fn random_findings_identical_across_jobs() {
    vsfs_testkit::check_cases(
        "checkers::random_findings_identical_across_jobs",
        CASES / 2,
        |rng| {
            let cfg = random_buggy_config(rng);
            let prog = generate(&cfg);
            let aux = vsfs_andersen::analyze(&prog);
            let mssa = vsfs_mssa::MemorySsa::build(&prog, &aux);
            let svfg = vsfs_svfg::Svfg::build(&prog, &aux, &mssa);
            let sfs = vsfs_core::run_sfs(&prog, &aux, &mssa, &svfg);
            let reference = run_checkers(&prog, &svfg, &FlowView(&sfs));
            for jobs in [1usize, 2, 8] {
                let req = SolveRequest { jobs, ..SolveRequest::new(SolverKind::Vsfs) };
                let vsfs = vsfs_core::solve(&prog, &aux, Some((&mssa, &svfg)), req).result;
                let findings = run_checkers(&prog, &svfg, &FlowView(&vsfs));
                assert_eq!(findings, reference, "seed {}: jobs {jobs} diverged", cfg.seed);
            }
        },
    );
}

/// Degraded governed runs check soundly: the Andersen-fallback result
/// yields exactly the Andersen finding set for the shrinking checkers.
#[test]
fn degraded_fallback_findings_match_andersen() {
    vsfs_testkit::check_cases("checkers::degraded_fallback_findings_match_andersen", 8, |rng| {
        let cfg = random_buggy_config(rng);
        let prog = generate(&cfg);
        let aux = vsfs_andersen::analyze(&prog);
        let mssa = vsfs_mssa::MemorySsa::build(&prog, &aux);
        let svfg = vsfs_svfg::Svfg::build(&prog, &aux, &mssa);
        let fallback = vsfs_core::FlowSensitiveResult::from_andersen(&prog, &aux);
        let ander = run_checkers(&prog, &svfg, &AndersenView(&aux));
        let via_fallback = run_checkers(&prog, &svfg, &FlowView(&fallback));
        assert_eq!(via_fallback, ander, "seed {}: fallback view diverged", cfg.seed);
    });
}
