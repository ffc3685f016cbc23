//! Parallel-scaling benchmark of object-partitioned versioning, the one
//! parallel solver phase, on one suite workload across a sweep of
//! `--jobs` values.
//!
//! ```text
//! parallel_scaling [WORKLOAD] [--jobs 1,2,4,8] [--runs N] [--out FILE]
//!                  [--gate-versioning-speedup X]
//! ```
//!
//! Defaults: the `lynx` workload (the suite's heaviest profile), jobs
//! `1,2,4,8`, 3 runs, JSON written to `results/BENCH_parallel.json`
//! (median seconds per job count plus task/steal counters, via
//! `PhaseTimer::to_json`). Runs alternate over the job counts so a slow
//! stretch of the host hits every count alike. Results are checked to
//! be identical across job counts before anything is written.
//!
//! `--gate-versioning-speedup X` exits 1 unless the median versioning
//! time at `--jobs 2` is at least `X` times faster than at `--jobs 1`.

use std::time::{Duration, Instant};
use vsfs_adt::stats::PhaseTimer;
use vsfs_bench::timing::fmt_duration;
use vsfs_core::VersionTables;
use vsfs_mssa::MemorySsa;
use vsfs_svfg::Svfg;

fn main() {
    let mut workload = "lynx".to_string();
    let mut jobs_list: Vec<usize> = vec![1, 2, 4, 8];
    let mut runs = 3usize;
    let mut out = "results/BENCH_parallel.json".to_string();
    let mut gate: Option<f64> = None;
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
            "--gate-versioning-speedup" => {
                gate = Some(args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') => workload = other.to_string(),
            _ => usage(),
        }
    }
    if jobs_list.is_empty() || runs == 0 {
        usage();
    }
    if gate.is_some() && !(jobs_list.contains(&1) && jobs_list.contains(&2)) {
        eprintln!("--gate-versioning-speedup needs jobs 1 and 2 in --jobs");
        std::process::exit(2);
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

    // The shared pre-analyses, and the sequential tables every job
    // count must reproduce.
    let aux = vsfs_andersen::analyze(&prog);
    let mssa = MemorySsa::build(&prog, &aux);
    let svfg = Svfg::build(&prog, &aux, &mssa);
    let ref_tables = VersionTables::build(&prog, &mssa, &svfg);

    let mut samples: Vec<Vec<Duration>> = vec![Vec::with_capacity(runs); jobs_list.len()];
    let mut last: Vec<Option<VersionTables>> = jobs_list.iter().map(|_| None).collect();
    for _ in 0..runs {
        for (k, &jobs) in jobs_list.iter().enumerate() {
            let t = Instant::now();
            let tables = VersionTables::build_with(&prog, &mssa, &svfg, jobs, None).result;
            samples[k].push(t.elapsed());
            last[k] = Some(tables);
        }
    }

    let mut timer = PhaseTimer::new();
    let mut medians: Vec<(usize, f64)> = Vec::new();
    for (k, &jobs) in jobs_list.iter().enumerate() {
        let tables = last[k].take().expect("at least one run");
        assert_eq!(
            tables.stats.versions, ref_tables.stats.versions,
            "versioning jobs={jobs} diverged"
        );
        assert_eq!(tables.stats.reliance_edges, ref_tables.stats.reliance_edges);
        samples[k].sort_unstable();
        let median = samples[k][samples[k].len() / 2];
        timer.record(&format!("versioning.jobs{jobs}"), median);
        timer.count(&format!("versioning.jobs{jobs}.tasks"), tables.stats.par_tasks as u64);
        timer.count(&format!("versioning.jobs{jobs}.steals"), tables.stats.par_steals as u64);
        medians.push((jobs, median.as_secs_f64()));
        println!(
            "versioning --jobs {jobs}: {} median of {runs} ({} tasks, {} steals)",
            fmt_duration(median),
            tables.stats.par_tasks,
            tables.stats.par_steals
        );
    }

    // Speedup trajectory relative to jobs = 1 (x100 so the integer
    // counters in the JSON can carry it).
    let base = medians.iter().find(|&&(j, _)| j == 1).map(|&(_, secs)| secs);
    let speedup_at = |jobs: usize| {
        let secs = medians.iter().find(|&&(j, _)| j == jobs)?.1;
        Some(if secs > 0.0 { base? / secs } else { 0.0 })
    };
    for &(jobs, _) in medians.iter().filter(|&&(j, _)| j != 1) {
        if let Some(speedup) = speedup_at(jobs) {
            timer.count(&format!("versioning.speedup_x100.jobs{jobs}"), (speedup * 100.0) as u64);
            println!("versioning speedup --jobs {jobs}: {speedup:.2}x");
        }
    }

    vsfs_bench::format::write_json_report(&out, &timer.to_json());

    if let Some(min) = gate {
        let speedup = speedup_at(2).expect("jobs 1 and 2 were checked above");
        if speedup < min {
            eprintln!(
                "FAIL: versioning at --jobs 2 is {speedup:.2}x faster than --jobs 1 \
                 (median of {runs}; gate >= {min:.2}x)"
            );
            std::process::exit(1);
        }
        println!("versioning speedup gate OK: {speedup:.2}x >= {min:.2}x at --jobs 2");
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: parallel_scaling [WORKLOAD] [--jobs 1,2,4,8] [--runs N] [--out FILE] \
         [--gate-versioning-speedup X]"
    );
    std::process::exit(2);
}
