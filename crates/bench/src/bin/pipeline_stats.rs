//! Per-phase statistics for one suite benchmark: sizes, timings, and
//! solver counters for every pipeline stage. Useful for understanding
//! *why* Table III's numbers look the way they do.
//!
//! ```text
//! cargo run -p vsfs-bench --release --bin pipeline_stats [-- benchmark]
//! ```

use std::time::Instant;
use vsfs_core::{SolveRequest, SolverKind};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "ninja".into());
    let Some(spec) = vsfs_workloads::suite::benchmark(&name) else {
        eprintln!("unknown benchmark `{name}`; known: du ninja bake dpkg nano i3 psql janet astyle tmux mruby mutt bash lynx hyriseConsole");
        std::process::exit(2);
    };
    let prog = vsfs_workloads::generate(&spec.config);
    println!(
        "program: {} insts, {} objects, {} values, {} functions",
        prog.inst_count(),
        prog.objects.len(),
        prog.values.len(),
        prog.functions.len()
    );

    let t = Instant::now();
    let aux = vsfs_andersen::analyze(&prog);
    println!("andersen    {:>8.3}s  {:?}", t.elapsed().as_secs_f64(), aux.stats);

    let mut total = 0usize;
    let mut max = 0usize;
    for (v, _) in prog.values.iter_enumerated() {
        let l = aux.value_pts(v).len();
        total += l;
        max = max.max(l);
    }
    println!(
        "aux pts     total={total} max={max} avg={:.1}",
        total as f64 / prog.values.len().max(1) as f64
    );

    let t = Instant::now();
    let mssa = vsfs_mssa::MemorySsa::build(&prog, &aux);
    println!(
        "memory ssa  {:>8.3}s  {} annotations, {} memphis",
        t.elapsed().as_secs_f64(),
        mssa.annotation_count(),
        mssa.memphis().len()
    );

    let t = Instant::now();
    let svfg = vsfs_svfg::Svfg::build(&prog, &aux, &mssa);
    println!(
        "svfg        {:>8.3}s  {} nodes, {} direct, {} indirect edges",
        t.elapsed().as_secs_f64(),
        svfg.node_count(),
        svfg.direct_edge_count(),
        svfg.indirect_edge_count()
    );

    let t = Instant::now();
    let tables = vsfs_core::VersionTables::build(&prog, &mssa, &svfg);
    println!(
        "versioning  {:>8.3}s  {} prelabels, {} versions, {} reliance edges, {} edges collapsed",
        t.elapsed().as_secs_f64(),
        tables.stats.prelabels,
        tables.stats.versions,
        tables.stats.reliance_edges,
        tables.stats.edges_collapsed
    );

    let staged = Some((&mssa, &svfg));
    let req = SolveRequest { tables: Some(tables), ..SolveRequest::new(SolverKind::Vsfs) };
    let vsfs = vsfs_core::solve(&prog, &aux, staged, req).result;
    let s = &vsfs.stats;
    println!(
        "vsfs solve  {:>8.3}s  {} pops, {} unions, {} sets ({} elems), {} strong updates",
        s.solve_seconds,
        s.node_pops,
        s.object_propagations,
        s.stored_object_sets,
        s.stored_object_elems,
        s.strong_updates
    );

    let sfs = vsfs_core::solve(&prog, &aux, staged, SolveRequest::new(SolverKind::Sfs)).result;
    let s = &sfs.stats;
    println!(
        "sfs solve   {:>8.3}s  {} pops, {} unions, {} sets ({} elems), {} strong updates",
        s.solve_seconds,
        s.node_pops,
        s.object_propagations,
        s.stored_object_sets,
        s.stored_object_elems,
        s.strong_updates
    );

    let same = vsfs_core::same_precision(&prog, &sfs, &vsfs);
    println!("identical precision: {same}");
    assert!(same);
}
