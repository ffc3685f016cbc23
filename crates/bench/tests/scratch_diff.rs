//! Differential test over many generated seeds: SFS and VSFS agree
//! exactly, and every solver refines Andersen's auxiliary solution.
//!
//! Dense is checked only against Andersen: dense-on-ICFG and
//! staged-on-SVFG are *incomparable* in precision (see
//! `tests/dense_baseline.rs` — dense kills strongly-updated state
//! across call boundaries and models non-returning callees, while the
//! SVFG's call-site bypass edge always relays pre-call state), so
//! neither containment direction holds between them in general.

use vsfs_core::{SolveRequest, SolverKind};
use vsfs_workloads::gen::{generate, WorkloadConfig};

fn check(cfg: &WorkloadConfig) -> Result<(), String> {
    let prog = generate(cfg);
    vsfs_ir::verify::verify(&prog).map_err(|e| format!("verify: {e:?}"))?;
    let aux = vsfs_andersen::analyze(&prog);
    let mssa = vsfs_mssa::MemorySsa::build(&prog, &aux);
    let svfg = vsfs_svfg::Svfg::build(&prog, &aux, &mssa);
    let sfs = vsfs_core::run_sfs(&prog, &aux, &mssa, &svfg);
    let vsfs = vsfs_core::run_vsfs(&prog, &aux, &mssa, &svfg);
    if let Some(d) = vsfs_core::result::precision_diff(&prog, &sfs, &vsfs) {
        return Err(format!("seed {}: SFS != VSFS: {d}", cfg.seed));
    }
    // Both must refine Andersen.
    for v in prog.values.indices() {
        let a = aux.value_pts(v);
        for o in sfs.value_pts(v).iter() {
            if !a.contains(o) {
                return Err(format!(
                    "seed {}: SFS pt(%{}) contains {} not in Andersen",
                    cfg.seed, prog.values[v].name, prog.objects[o].name
                ));
            }
        }
    }
    // Dense must refine Andersen as well (pt_dense ⊆ pt_andersen).
    let dense = vsfs_core::solve(&prog, &aux, None, SolveRequest::new(SolverKind::Dense)).result;
    for v in prog.values.indices() {
        for o in dense.value_pts(v).iter() {
            if !aux.value_pts(v).contains(o) {
                return Err(format!(
                    "seed {}: dense pt(%{}) contains {} not in Andersen",
                    cfg.seed, prog.values[v].name, prog.objects[o].name
                ));
            }
        }
    }
    Ok(())
}

#[test]
fn differential_many_seeds() {
    let mut failures = Vec::new();
    for seed in 0..60u64 {
        let mut cfg = WorkloadConfig::small();
        cfg.seed = seed;
        // vary shape a bit
        cfg.heap_fraction = 0.2 + 0.6 * ((seed % 5) as f64 / 5.0);
        cfg.indirect_call_fraction = 0.1 + 0.5 * ((seed % 4) as f64 / 4.0);
        cfg.loop_bias = 0.1 + 0.4 * ((seed % 3) as f64 / 3.0);
        cfg.backward_call_fraction = if seed % 2 == 0 { 0.3 } else { 0.05 };
        cfg.deref_chain = 0.4;
        if let Err(e) = check(&cfg) {
            failures.push(e);
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
