//! Solver matrix benchmark: every flow-sensitive engine on the serving
//! workloads, measured end-to-end from the shared Andersen result.
//!
//! ```text
//! solver_matrix [WORKLOADS] [--out FILE] [--gate-equivalence]
//!               [--gate-versioning-share X]
//! ```
//!
//! `WORKLOADS` is a comma-separated list of suite benchmark names
//! (default `ninja,bake`, the serving workloads). For each workload the
//! bench runs SFS, VSFS, and the CFG-free solver, recording per
//! `(workload, solver)`: post-Andersen wall seconds *including* each
//! solver's own prerequisite stages (memory SSA + SVFG for the staged
//! pair, versioning for VSFS, nothing for cfgfree), peak live-heap
//! bytes over the same span, and the precision deltas vs Andersen
//! (values refined, flow-sensitive call edges, proven-uninitialised
//! loads), and for VSFS its versioning and main-phase seconds
//! (`{w}.vsfs.versioning`, `{w}.vsfs.main`). Without a gate flag the run
//! writes `results/BENCH_solvers.json` (`PhaseTimer::to_json` format).
//!
//! The three solvers must be query-identical — the engine's central
//! equivalence property, extended to cfgfree by the constraint-ordering
//! construction. Any pairwise `precision_diff` is fatal (exit 1). With
//! `--gate-equivalence` the run acts as the CI gate: it verifies that
//! property over every workload and skips the JSON write so the
//! recorded baseline is untouched. `--gate-versioning-share X` gates the
//! paper's claim that versioning is cheap: exit 1 unless, on every
//! workload, the median over three VSFS runs of versioning / main phase
//! is at most `X`.

use std::time::{Duration, Instant};
use vsfs_adt::mem::{CountingAlloc, MemScope};
use vsfs_adt::stats::PhaseTimer;
use vsfs_core::{
    compare_precision, precision_diff, FlowSensitiveResult, SolveRequest, SolveStats, SolverKind,
};
use vsfs_ir::Program;
use vsfs_mssa::MemorySsa;
use vsfs_svfg::Svfg;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const SOLVERS: [SolverKind; 3] = [SolverKind::Sfs, SolverKind::Vsfs, SolverKind::CfgFree];
const SHARE_RUNS: usize = 3;

fn main() {
    let mut names: Vec<String> = vec!["ninja".into(), "bake".into()];
    let mut out = "results/BENCH_solvers.json".to_string();
    let mut gate = false;
    let mut share_gate: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = args.next().unwrap_or_else(|| usage()),
            "--gate-equivalence" => gate = true,
            "--gate-versioning-share" => {
                share_gate = args.next().and_then(|x| x.parse().ok()).or_else(|| usage());
            }
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') => {
                names = other.split(',').map(|s| s.trim().to_string()).collect();
            }
            _ => usage(),
        }
    }

    let mut timer = PhaseTimer::new();
    let mut share_failed = false;
    for name in &names {
        let spec = vsfs_workloads::suite::benchmark(name).unwrap_or_else(|| {
            eprintln!("unknown workload `{name}`");
            std::process::exit(2);
        });
        let prog = vsfs_workloads::generate(&spec.config);
        let aux = vsfs_andersen::analyze(&prog);

        let mut results: Vec<(&str, FlowSensitiveResult)> = Vec::new();
        for kind in SOLVERS {
            let solver = kind.name();
            let scope = MemScope::start();
            let t = Instant::now();
            // The staged solvers pay for their own pipeline stages: a
            // fresh memory SSA and SVFG per run, so the matrix compares
            // true post-Andersen costs.
            let staged = kind.caps().needs_svfg.then(|| {
                let mssa = MemorySsa::build(&prog, &aux);
                let svfg = Svfg::build(&prog, &aux, &mssa);
                (mssa, svfg)
            });
            let staged = staged.as_ref().map(|(mssa, svfg)| (mssa, svfg));
            let r = vsfs_core::solve(&prog, &aux, staged, SolveRequest::new(kind)).result;
            let secs = t.elapsed().as_secs_f64();
            let peak = scope.peak_bytes();
            let p = compare_precision(&prog, &aux, &r);
            let key = |metric: &str| format!("{name}.{solver}.{metric}");
            timer.record(&key("solve"), Duration::from_secs_f64(secs));
            timer.count(&key("peak_bytes"), peak as u64);
            timer.count(&key("refined_values"), p.refined_values as u64);
            timer.count(&key("call_edges"), p.fs_call_edges as u64);
            timer.count(&key("proven_uninit_loads"), p.proven_uninitialised_loads as u64);
            println!(
                "{name}.{solver}: {secs:.3}s, {:.2} MiB peak, {} / {} values refined, \
                 call edges {} -> {}",
                peak as f64 / (1 << 20) as f64,
                p.refined_values,
                p.values,
                p.aux_call_edges,
                p.fs_call_edges,
            );
            if kind == SolverKind::Vsfs {
                let stats = &r.stats;
                timer.record(&key("versioning"), Duration::from_secs_f64(stats.versioning_seconds));
                timer.record(&key("main"), Duration::from_secs_f64(stats.solve_seconds));
                if let Some(max) = share_gate {
                    let share = |s: &SolveStats| s.versioning_seconds / s.solve_seconds;
                    let (mssa, svfg) = staged.expect("VSFS is staged");
                    let mut shares: Vec<f64> = (1..SHARE_RUNS)
                        .map(|_| {
                            let req = SolveRequest::new(kind);
                            share(
                                &vsfs_core::solve(&prog, &aux, Some((mssa, svfg)), req)
                                    .result
                                    .stats,
                            )
                        })
                        .chain([share(stats)])
                        .collect();
                    shares.sort_by(f64::total_cmp);
                    let median = shares[SHARE_RUNS / 2];
                    println!("{name}: versioning / main phase median {median:.3} (gate <= {max})");
                    share_failed |= median > max;
                }
            }
            results.push((solver, r));
        }
        check_equivalent(&prog, name, &results);
    }

    if share_failed {
        eprintln!("FAIL: versioning takes more than the gated share of the main phase");
        std::process::exit(1);
    }
    if gate {
        println!("solver equivalence gate OK: sfs = vsfs = cfgfree on {}", names.join(", "));
    }
    if gate || share_gate.is_some() {
        return;
    }

    vsfs_bench::format::write_json_report(&out, &timer.to_json());
}

/// Exits 1 unless every solver produced the same points-to sets and
/// call graph — the family-wide equivalence contract.
fn check_equivalent(prog: &Program, name: &str, results: &[(&str, FlowSensitiveResult)]) {
    let (base_name, base) = &results[0];
    for (solver, r) in &results[1..] {
        if let Some(diff) = precision_diff(prog, base, r) {
            eprintln!("FAIL: {name}: {base_name} and {solver} disagree: {diff}");
            std::process::exit(1);
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: solver_matrix [WORKLOAD,WORKLOAD,...] [--out FILE] [--gate-equivalence] \
         [--gate-versioning-share X]"
    );
    std::process::exit(2);
}
