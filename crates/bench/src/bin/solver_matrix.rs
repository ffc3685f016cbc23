//! Solver matrix benchmark: every flow-sensitive engine on suite
//! workloads, measured end-to-end from the shared Andersen result.
//!
//! ```text
//! solver_matrix [WORKLOADS] [--out FILE] [--gate-peak FILE]
//!               [--gate-versioning-share X]
//! ```
//!
//! `WORKLOADS` is a comma-separated list of suite benchmark names
//! (default `du,ninja,bake`, one per size profile). Each workload runs
//! Andersen once, recording its wall seconds and peak live-heap bytes
//! (`{w}.andersen.solve`, `{w}.andersen.peak_bytes`). Then it runs SFS,
//! VSFS, and the CFG-free solver, recording per `(workload, solver)`:
//!
//! * post-Andersen wall seconds *including* each solver's own
//!   prerequisite stages (memory SSA + SVFG for the staged pair,
//!   versioning for VSFS, nothing for cfgfree), and the peak live-heap
//!   bytes over the same span;
//! * the precision deltas vs Andersen (values refined, flow-sensitive
//!   call edges, proven-uninitialised loads);
//! * the points-to store's counters (unique sets and chunks, payload vs
//!   flat-equivalent bytes, chunk and set-level memo hits and misses,
//!   stored object sets);
//! * for VSFS, its versioning and main-phase seconds
//!   (`{w}.vsfs.versioning`, `{w}.vsfs.main`).
//!
//! Without a gate flag the run writes `results/BENCH_solvers.json`
//! (`PhaseTimer::to_json` format). Any `--gate-*` flag skips the write,
//! so the recorded baseline stays untouched.
//!
//! The three solvers must be query-identical — the engine's central
//! equivalence property, extended to cfgfree by the constraint-ordering
//! construction. Every run checks it; any pairwise `precision_diff` is
//! fatal (exit 1).
//!
//! `--gate-peak FILE` is the memory gate (after the MDE paper's peak
//! heap and set-payload dedup). It fails (exit 1) when any `peak_bytes`
//! row — Andersen and each solver — is more than 10% above the baseline
//! in `FILE`, or when the `bake` VSFS set payload (`unique_set_bytes`)
//! is less than 25% below its flat one-block-per-chunk equivalent
//! (`flat_equiv_bytes`). Timings are not gated by it: wall clock is
//! machine-dependent, peak live bytes under the counting allocator and
//! the store counters are not.
//!
//! `--gate-versioning-share X` gates the paper's claim that versioning
//! is cheap: exit 1 unless, on every workload, the median over three
//! VSFS runs of versioning / main phase is at most `X`.

use std::time::{Duration, Instant};
use vsfs_adt::mem::{CountingAlloc, MemScope};
use vsfs_adt::stats::PhaseTimer;
use vsfs_bench::format::{mib, read_counter};
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

/// Peak regression tolerated by `--gate-peak` before it fails.
const PEAK_SLACK: f64 = 1.10;

/// Minimum `bake` VSFS payload reduction vs the flat-equivalent footprint.
const MIN_PAYLOAD_REDUCTION: f64 = 0.25;

/// The workload whose payload reduction is gated.
const PAYLOAD_WORKLOAD: &str = "bake";

fn main() {
    let mut names: Vec<String> = vec!["du".into(), "ninja".into(), "bake".into()];
    let mut out = "results/BENCH_solvers.json".to_string();
    let mut peak_gate: Option<String> = None;
    let mut share_gate: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = args.next().unwrap_or_else(|| usage()),
            "--gate-peak" => peak_gate = Some(args.next().unwrap_or_else(|| usage())),
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

    let baseline = peak_gate.as_ref().map(|path| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {path}: {e}");
            std::process::exit(1);
        })
    });

    let mut timer = PhaseTimer::new();
    let mut failures = Vec::new();
    for name in &names {
        let spec = vsfs_workloads::suite::benchmark(name).unwrap_or_else(|| {
            eprintln!("unknown workload `{name}`");
            std::process::exit(2);
        });
        let prog = vsfs_workloads::generate(&spec.config);
        let scope = MemScope::start();
        let aux = timer.time(&format!("{name}.andersen.solve"), || vsfs_andersen::analyze(&prog));
        let peak = scope.peak_bytes();
        timer.count(&format!("{name}.andersen.peak_bytes"), peak as u64);
        println!("{name}.andersen: {} MiB peak", mib(peak));

        let mut results: Vec<(&str, FlowSensitiveResult)> = Vec::new();
        for kind in SOLVERS {
            let solver = kind.name();
            let scope = MemScope::start();
            let t = Instant::now();
            // The staged solvers pay for their own pipeline stages: a
            // fresh memory SSA and SVFG per run, so the matrix compares
            // true post-Andersen costs.
            let staged = kind.is_staged().then(|| {
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
            record_store(&mut timer, &format!("{name}.{solver}"), &r.stats);
            let s = &r.stats.store;
            let reduction = payload_reduction(s.unique_set_bytes, s.flat_equiv_bytes);
            println!(
                "{name}.{solver}: {secs:.3}s, {} MiB peak, {} / {} values refined, \
                 call edges {} -> {}, {} unique sets ({} MiB payload, {:.1}% below flat)",
                mib(peak),
                p.refined_values,
                p.values,
                p.aux_call_edges,
                p.fs_call_edges,
                s.unique_sets,
                mib(s.unique_set_bytes),
                100.0 * reduction,
            );
            let payload_gated = baseline.is_some() && name == PAYLOAD_WORKLOAD;
            if payload_gated && kind == SolverKind::Vsfs && reduction < MIN_PAYLOAD_REDUCTION {
                failures.push(format!(
                    "{name}: vsfs set payload only {:.1}% below flat-equivalent (need >= {:.0}%)",
                    100.0 * reduction,
                    100.0 * MIN_PAYLOAD_REDUCTION
                ));
            }
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
                    if median > max {
                        failures.push(format!(
                            "{name}: versioning takes {median:.3} of the VSFS main phase \
                             (gate <= {max})"
                        ));
                    }
                }
            }
            results.push((solver, r));
        }
        check_equivalent(&prog, name, &results);
    }
    println!("sfs = vsfs = cfgfree on {}", names.join(", "));

    if let Some(base) = &baseline {
        check_peaks(&timer, base, &mut failures);
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    if peak_gate.is_some() {
        println!(
            "peak gate OK: every peak within {:.0}% of baseline, {PAYLOAD_WORKLOAD} payload dedup \
             active",
            (PEAK_SLACK - 1.0) * 100.0
        );
    }
    if peak_gate.is_some() || share_gate.is_some() {
        return;
    }

    vsfs_bench::format::write_json_report(&out, &timer.to_json());
}

/// Records the points-to store's counters for one `(workload, solver)`
/// row under `prefix`.
fn record_store(timer: &mut PhaseTimer, prefix: &str, stats: &SolveStats) {
    let s = &stats.store;
    for (metric, value) in [
        ("unique_sets", s.unique_sets),
        ("unique_set_bytes", s.unique_set_bytes),
        ("flat_equiv_bytes", s.flat_equiv_bytes),
        ("unique_chunks", s.unique_chunks),
        ("chunk_bytes", s.chunk_bytes),
        ("chunk_union_hits", s.chunk_union_hits),
        ("chunk_union_misses", s.chunk_union_misses),
        ("union_hits", s.union_hits),
        ("union_misses", s.union_misses),
        ("union_shortcuts", s.union_shortcuts),
        ("insert_hits", s.insert_hits),
        ("insert_misses", s.insert_misses),
        ("stored_object_sets", stats.stored_object_sets),
    ] {
        timer.count(&format!("{prefix}.{metric}"), value as u64);
    }
}

/// Pushes a failure for every `peak_bytes` counter of this run that is
/// missing from `baseline` or more than `PEAK_SLACK` above it.
fn check_peaks(timer: &PhaseTimer, baseline: &str, failures: &mut Vec<String>) {
    for (key, peak) in timer.counters().iter().filter(|(k, _)| k.ends_with(".peak_bytes")) {
        match read_counter(baseline, key) {
            Some(base) => {
                let limit = (base as f64 * PEAK_SLACK) as u64;
                if *peak > limit {
                    failures.push(format!(
                        "{key}: {peak} bytes exceeds baseline {base} by more than {:.0}% \
                         (limit {limit})",
                        (PEAK_SLACK - 1.0) * 100.0
                    ));
                }
            }
            None => failures.push(format!("baseline has no `{key}` counter")),
        }
    }
}

/// Fraction of the flat-equivalent footprint the chunked payload saves.
fn payload_reduction(payload: usize, flat: usize) -> f64 {
    if flat == 0 {
        return 0.0;
    }
    1.0 - payload as f64 / flat as f64
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
        "usage: solver_matrix [WORKLOAD,WORKLOAD,...] [--out FILE] [--gate-peak FILE] \
         [--gate-versioning-share X]"
    );
    std::process::exit(2);
}
