//! Scheduling benchmark: FIFO vs topological (SCC-condensation priority)
//! worklist order for both flow-sensitive solvers, with difference
//! propagation active in both runs.
//!
//! ```text
//! scheduling [WORKLOADS] [--out FILE] [--gate PCT]
//! ```
//!
//! `WORKLOADS` is a comma-separated list of suite benchmark names
//! (default `du,ninja,bake` — one per size profile). For each workload
//! the bench runs SFS and VSFS under both orders, asserts the final
//! results are identical (the fixpoint is order-independent; exit 1
//! otherwise), and records per `(workload, solver, order)`: worklist
//! pops (node + slot), unions attempted/avoided, delta vs full bytes
//! shipped, and wall seconds. Without `--gate` the run writes
//! `results/BENCH_scheduling.json` (`PhaseTimer::to_json` format).
//!
//! With `--gate PCT` the run instead acts as the CI scheduling gate: it
//! fails (exit 1) unless the topological order reduces *total* worklist
//! pops across all runs by at least `PCT` percent. The gate is
//! counter-based — pop counts are deterministic for a given workload,
//! unlike wall clock.

use std::time::Instant;
use vsfs_adt::stats::PhaseTimer;
use vsfs_core::{precision_diff, FlowSensitiveResult, SolveOrder, SolveRequest, SolverKind};
use vsfs_ir::Program;
use vsfs_mssa::MemorySsa;
use vsfs_svfg::Svfg;

fn main() {
    let mut names: Vec<String> = vec!["du".into(), "ninja".into(), "bake".into()];
    let mut out = "results/BENCH_scheduling.json".to_string();
    let mut gate: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = args.next().unwrap_or_else(|| usage()),
            "--gate" => {
                let v = args.next().unwrap_or_else(|| usage());
                gate = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("invalid --gate percentage `{v}`");
                    std::process::exit(2);
                }));
            }
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') => {
                names = other.split(',').map(|s| s.trim().to_string()).collect();
            }
            _ => usage(),
        }
    }

    let mut timer = PhaseTimer::new();
    let mut fifo_pops_total = 0u64;
    let mut topo_pops_total = 0u64;
    for name in &names {
        let spec = vsfs_workloads::suite::benchmark(name).unwrap_or_else(|| {
            eprintln!("unknown workload `{name}`");
            std::process::exit(2);
        });
        let prog = vsfs_workloads::generate(&spec.config);
        let aux = vsfs_andersen::analyze(&prog);
        let mssa = MemorySsa::build(&prog, &aux);
        let svfg = Svfg::build(&prog, &aux, &mssa);

        for kind in [SolverKind::Sfs, SolverKind::Vsfs] {
            let solver = kind.name();
            let mut results: Vec<(SolveOrder, FlowSensitiveResult, f64)> = Vec::new();
            for order in [SolveOrder::Fifo, SolveOrder::Topo] {
                let t = Instant::now();
                let req = SolveRequest { order, ..SolveRequest::new(kind) };
                let r = vsfs_core::solve(&prog, &aux, Some((&mssa, &svfg)), req).result;
                results.push((order, r, t.elapsed().as_secs_f64()));
            }
            check_identical(&prog, name, solver, &results);
            for (order, r, secs) in &results {
                let s = &r.stats;
                let pops = (s.node_pops + s.slot_pops) as u64;
                match order {
                    SolveOrder::Fifo => fifo_pops_total += pops,
                    SolveOrder::Topo => topo_pops_total += pops,
                }
                let key = |metric: &str| format!("{name}.{solver}.{}.{metric}", order.name());
                timer.record(&key("solve"), std::time::Duration::from_secs_f64(*secs));
                timer.count(&key("pops"), pops);
                timer.count(&key("unions_attempted"), s.object_propagations as u64);
                timer.count(&key("unions_avoided"), s.unions_avoided as u64);
                timer.count(&key("delta_bytes"), s.delta_bytes as u64);
                timer.count(&key("full_bytes"), s.full_bytes as u64);
                timer.count(&key("pushes_suppressed"), s.pushes_suppressed as u64);
                println!(
                    "{name}.{solver}.{}: {:.3}s, {pops} pops, {} unions ({} avoided), \
                     {} delta bytes vs {} full",
                    order.name(),
                    secs,
                    s.object_propagations,
                    s.unions_avoided,
                    s.delta_bytes,
                    s.full_bytes,
                );
            }
        }
    }

    let reduction = if fifo_pops_total > 0 {
        100.0 * (1.0 - topo_pops_total as f64 / fifo_pops_total as f64)
    } else {
        0.0
    };
    timer.count("total.fifo_pops", fifo_pops_total);
    timer.count("total.topo_pops", topo_pops_total);
    timer.count("total.pop_reduction_pct_x100", (reduction * 100.0).max(0.0) as u64);
    println!(
        "total pops: fifo {fifo_pops_total} vs topo {topo_pops_total} ({reduction:.1}% reduction)"
    );

    if let Some(pct) = gate {
        if reduction < pct {
            eprintln!(
                "FAIL: topological order reduced pops by {reduction:.1}%, below the {pct:.0}% gate"
            );
            std::process::exit(1);
        }
        println!("scheduling gate OK: {reduction:.1}% >= {pct:.0}%");
        return;
    }

    vsfs_bench::format::write_json_report(&out, &timer.to_json());
}

/// Exits 1 unless every run of one solver produced the same points-to
/// sets and call graph — the order-independence contract of the engine.
fn check_identical(
    prog: &Program,
    name: &str,
    solver: &str,
    results: &[(SolveOrder, FlowSensitiveResult, f64)],
) {
    let (base_order, base, _) = &results[0];
    for (order, r, _) in &results[1..] {
        if let Some(diff) = precision_diff(prog, base, r) {
            eprintln!(
                "FAIL: {name}.{solver}: {} and {} orders disagree: {diff}",
                base_order.name(),
                order.name()
            );
            std::process::exit(1);
        }
    }
}

fn usage() -> ! {
    eprintln!("usage: scheduling [WORKLOAD,WORKLOAD,...] [--out FILE] [--gate PCT]");
    std::process::exit(2);
}
