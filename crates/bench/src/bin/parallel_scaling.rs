//! Parallel-scaling benchmark of the two parallel solver phases —
//! Andersen wave propagation and object-partitioned versioning — on one
//! suite workload across a sweep of `--jobs` values.
//!
//! ```text
//! parallel_scaling [WORKLOAD] [--jobs 1,2,4,8] [--runs N] [--out FILE]
//! ```
//!
//! Defaults: the `lynx` workload (the suite's heaviest profile), jobs
//! `1,2,4,8`, best-of-3 timing, JSON written to
//! `results/BENCH_parallel.json` (phases in seconds plus task/steal/wave
//! counters, via `PhaseTimer::to_json`). Results are checked to be
//! identical across job counts before anything is written.

use std::time::{Duration, Instant};
use vsfs_adt::stats::PhaseTimer;
use vsfs_andersen::AndersenConfig;
use vsfs_bench::timing::fmt_duration;
use vsfs_core::VersionTables;
use vsfs_mssa::MemorySsa;
use vsfs_svfg::Svfg;

fn main() {
    let mut workload = "lynx".to_string();
    let mut jobs_list: Vec<usize> = vec![1, 2, 4, 8];
    let mut runs = 3usize;
    let mut out = "results/BENCH_parallel.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--jobs" => {
                let v = args.next().unwrap_or_else(|| usage());
                jobs_list =
                    v.split(',').map(|s| s.trim().parse().unwrap_or_else(|_| usage())).collect();
            }
            "--runs" => {
                runs = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
            }
            "--out" => out = args.next().unwrap_or_else(|| usage()),
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') => workload = other.to_string(),
            _ => usage(),
        }
    }
    if jobs_list.is_empty() || runs == 0 {
        usage();
    }

    let spec = vsfs_workloads::suite::benchmark(&workload).unwrap_or_else(|| {
        eprintln!("unknown workload `{workload}`");
        std::process::exit(2);
    });
    let prog = vsfs_workloads::generate(&spec.config);
    println!(
        "workload {}: {} instructions, {} values, {} objects",
        spec.name,
        prog.inst_count(),
        prog.values.len(),
        prog.objects.len()
    );

    // Reference results (sequential) for the cross-jobs identity check,
    // and the shared pre-analyses for the versioning phase.
    let aux = vsfs_andersen::analyze(&prog);
    let mssa = MemorySsa::build(&prog, &aux);
    let svfg = Svfg::build(&prog, &aux, &mssa);
    let ref_tables = VersionTables::build(&prog, &mssa, &svfg);

    let mut timer = PhaseTimer::new();
    let mut ander_secs: Vec<(usize, f64)> = Vec::new();
    let mut version_secs: Vec<(usize, f64)> = Vec::new();
    for &jobs in &jobs_list {
        // Andersen wave propagation (jobs = 1 is the sequential solver).
        let mut best = Duration::MAX;
        let mut last = None;
        for _ in 0..runs {
            let t = Instant::now();
            let r = vsfs_andersen::analyze_with(&prog, AndersenConfig::with_jobs(jobs), None, None)
                .result;
            best = best.min(t.elapsed());
            last = Some(r);
        }
        let r = last.expect("at least one run");
        for (v, _) in prog.values.iter_enumerated() {
            assert_eq!(
                aux.value_pts(v).iter().collect::<Vec<_>>(),
                r.value_pts(v).iter().collect::<Vec<_>>(),
                "andersen jobs={jobs} diverged on {v:?}"
            );
        }
        timer.record(&format!("andersen.jobs{jobs}"), best);
        timer.count(&format!("andersen.jobs{jobs}.waves"), r.stats.waves as u64);
        ander_secs.push((jobs, best.as_secs_f64()));
        println!("andersen   --jobs {jobs}: {} ({} waves)", fmt_duration(best), r.stats.waves);

        // Object-partitioned versioning.
        let mut best = Duration::MAX;
        let mut last = None;
        for _ in 0..runs {
            let t = Instant::now();
            let tables = VersionTables::build_with(&prog, &mssa, &svfg, jobs, None, None).result;
            best = best.min(t.elapsed());
            last = Some(tables);
        }
        let tables = last.expect("at least one run");
        assert_eq!(
            tables.stats.versions, ref_tables.stats.versions,
            "versioning jobs={jobs} diverged"
        );
        assert_eq!(tables.stats.reliance_edges, ref_tables.stats.reliance_edges);
        timer.record(&format!("versioning.jobs{jobs}"), best);
        timer.count(&format!("versioning.jobs{jobs}.tasks"), tables.stats.par_tasks as u64);
        timer.count(&format!("versioning.jobs{jobs}.steals"), tables.stats.par_steals as u64);
        version_secs.push((jobs, best.as_secs_f64()));
        println!(
            "versioning --jobs {jobs}: {} ({} tasks, {} steals)",
            fmt_duration(best),
            tables.stats.par_tasks,
            tables.stats.par_steals
        );
    }

    // Speedup trajectory relative to jobs = 1 (x100 so the integer
    // counters in the JSON can carry it).
    for (label, series) in [("andersen", &ander_secs), ("versioning", &version_secs)] {
        if let Some(&(_, base)) = series.iter().find(|&&(j, _)| j == 1) {
            for &(jobs, secs) in series.iter().filter(|&&(j, _)| j != 1) {
                let speedup = if secs > 0.0 { base / secs } else { 0.0 };
                timer.count(&format!("{label}.speedup_x100.jobs{jobs}"), (speedup * 100.0) as u64);
                println!("{label} speedup --jobs {jobs}: {speedup:.2}x");
            }
        }
    }

    vsfs_bench::format::write_json_report(&out, &timer.to_json());
}

fn usage() -> ! {
    eprintln!("usage: parallel_scaling [WORKLOAD] [--jobs 1,2,4,8] [--runs N] [--out FILE]");
    std::process::exit(2);
}
