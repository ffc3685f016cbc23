//! Scratch minimization harness (review; not for commit).

use vsfs_core::{SolveRequest, SolverKind};
use vsfs_workloads::gen::{generate, WorkloadConfig};

#[test]
fn inspect_seed0() {
    let mut cfg = WorkloadConfig::small();
    cfg.seed = 0;
    cfg.heap_fraction = 0.2;
    cfg.indirect_call_fraction = 0.1;
    cfg.loop_bias = 0.1;
    cfg.backward_call_fraction = 0.3;
    cfg.deref_chain = 0.4;
    let prog = generate(&cfg);
    let aux = vsfs_andersen::analyze(&prog);
    let mssa = vsfs_mssa::MemorySsa::build(&prog, &aux);
    let svfg = vsfs_svfg::Svfg::build(&prog, &aux, &mssa);
    let sfs = vsfs_core::run_sfs(&prog, &aux, &mssa, &svfg);
    let dense = vsfs_core::solve(&prog, &aux, None, SolveRequest::new(SolverKind::Dense)).result;
    for v in prog.values.indices() {
        let extra: Vec<String> = sfs
            .value_pts(v)
            .iter()
            .filter(|&o| !dense.value_pts(v).contains(o))
            .map(|o| prog.objects[o].name.clone())
            .collect();
        if !extra.is_empty() {
            // where is v defined?
            println!(
                "value %{} def {:?}: SFS-only objs {:?}; sfs={} dense={}",
                prog.values[v].name,
                prog.values[v].def,
                extra,
                sfs.value_pts(v).len(),
                dense.value_pts(v).len()
            );
        }
    }
}
