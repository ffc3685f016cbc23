//! Checker benchmark: source-sink engine time and finding counts under
//! both points-to views on buggy variants of suite workloads.
//!
//! ```text
//! checkers [WORKLOADS] [--out FILE]
//! ```
//!
//! `WORKLOADS` is a comma-separated list of suite benchmark names
//! (default `du,ninja` — the bigger profiles produce tens of millions
//! of findings and add minutes for no extra signal). Each workload is
//! regenerated with the
//! `free_fraction` / `null_fraction` knobs switched on (the suite
//! configs keep them at zero so the pointer-analysis benchmarks stay
//! bit-identical), then the full pipeline runs once and every checker
//! runs under the Andersen view and the flow-sensitive view. The
//! recorded JSON (`results/BENCH_checkers.json`) holds per-workload
//! checker-stage seconds plus per-checker finding counts under both
//! views and the false positives flow-sensitivity removed — the
//! client-facing Table III row for generated programs.

use std::time::Instant;
use vsfs_adt::mem::CountingAlloc;
use vsfs_adt::stats::PhaseTimer;
use vsfs_checkers::{run_checkers, AndersenView, CheckReport, CheckerKind, FlowView};
use vsfs_core::{SolveRequest, SolverKind};
use vsfs_mssa::MemorySsa;
use vsfs_svfg::Svfg;
use vsfs_workloads::gen::WorkloadConfig;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn main() {
    let mut names: Vec<String> = vec!["du".into(), "ninja".into()];
    let mut out = "results/BENCH_checkers.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = args.next().unwrap_or_else(|| usage()),
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') => {
                names = other.split(',').map(|s| s.trim().to_string()).collect();
            }
            _ => usage(),
        }
    }

    let mut timer = PhaseTimer::new();
    for name in &names {
        let spec = vsfs_workloads::suite::benchmark(name).unwrap_or_else(|| {
            eprintln!("unknown workload `{name}`");
            std::process::exit(2);
        });
        let cfg = WorkloadConfig { free_fraction: 0.3, null_fraction: 0.15, ..spec.config.clone() };
        let prog = vsfs_workloads::generate(&cfg);

        let aux = vsfs_andersen::analyze(&prog);
        let mssa = MemorySsa::build(&prog, &aux);
        let svfg = Svfg::build(&prog, &aux, &mssa);
        let req = SolveRequest::new(SolverKind::Vsfs);
        let fs = vsfs_core::solve(&prog, &aux, Some((&mssa, &svfg)), req).result;

        let t = Instant::now();
        let ander = run_checkers(&prog, &svfg, &AndersenView(&aux));
        let ander_time = t.elapsed();
        let t = Instant::now();
        let flow = run_checkers(&prog, &svfg, &FlowView(&fs));
        let flow_time = t.elapsed();
        let report = CheckReport::new(&prog, ander, flow);

        timer.record(&format!("{name}.checkers_andersen"), ander_time);
        timer.record(&format!("{name}.checkers_flow"), flow_time);
        for &c in CheckerKind::ALL.iter() {
            let a = report.andersen_findings.iter().filter(|f| f.checker == c).count();
            let f = report.flow_findings.iter().filter(|f| f.checker == c).count();
            timer.count(&format!("{name}.{}.andersen", c.name()), a as u64);
            timer.count(&format!("{name}.{}.flow_sensitive", c.name()), f as u64);
        }
        println!(
            "{name}: andersen pass {:.3}s ({} findings), flow-sensitive pass {:.3}s ({} findings)",
            ander_time.as_secs_f64(),
            report.andersen_findings.len(),
            flow_time.as_secs_f64(),
            report.flow_findings.len(),
        );
        for line in report.summary_lines() {
            println!("  {line}");
        }
    }

    vsfs_bench::format::write_json_report(&out, &timer.to_json());
}

fn usage() -> ! {
    eprintln!("usage: checkers [WORKLOAD,WORKLOAD,...] [--out FILE]");
    std::process::exit(2);
}
